//! Host-time benchmark of the Flexagon simulator, end to end and layer by
//! layer.
//!
//! ```text
//! simbench --workload <dnn_suite|spgemm_jobs|serve_mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload synthesizes its inputs from `--seed`, sets up (several
//! times; the median is reported), runs a timed window of at least
//! `--seconds`, and checks every output outside the window. With
//! `--trace 0` the result line carries the end-to-end metrics. With
//! `--trace 1` the same untraced window runs first, then a traced window
//! issues the program's calls one by one from this benchmark with a span
//! around each, and the result line carries the per-layer metrics. The
//! last line of standard output is one JSON object; the exit code is
//! non-zero when any output check fails.

mod dnn_suite;
mod metrics;
mod serve_mixed;
mod spgemm_jobs;
mod trace;

use flexagon_core::Dataflow;
use metrics::{Metrics, SimTotals, Window};
use std::time::Duration;
use trace::Tracer;

/// Seed used when `--seed` is omitted.
const DEFAULT_SEED: u64 = 20_230_125;

/// Seed held out for confirming a claimed gain on inputs the change was
/// not tuned on.
const HELD_OUT_SEED: u64 = 7;

/// Simulated totals recorded at the default and held-out seeds: workload,
/// seed, `sim.digest` and cycles per system (CPU, SIGMA-, Sparch-,
/// GAMMA-like, Flexagon). A run at one of these seeds fails when its totals
/// differ, so a change that alters simulated results cannot pass for a
/// host-time gain. Re-record them, from the run's `sim:` line, only with a
/// change that means to alter the model.
const PINNED: [(&str, u64, u64, [u64; 5]); 6] = [
    (
        "dnn_suite",
        DEFAULT_SEED,
        0xa54e_1b37_74aa_a46c,
        [
            1_128_761_100,
            703_191_659,
            63_554_678,
            38_497_918,
            34_305_453,
        ],
    ),
    (
        "dnn_suite",
        HELD_OUT_SEED,
        0xff36_a9c6_8f2a_cdfb,
        [
            1_131_345_906,
            702_400_746,
            63_668_284,
            38_593_474,
            34_399_794,
        ],
    ),
    (
        "spgemm_jobs",
        DEFAULT_SEED,
        0xda7e_405f_6797_4e66,
        [0, 0, 0, 0, 13_607_192],
    ),
    (
        "spgemm_jobs",
        HELD_OUT_SEED,
        0xca80_8864_5209_f1a1,
        [0, 0, 0, 0, 13_587_868],
    ),
    (
        "serve_mixed",
        DEFAULT_SEED,
        0xfd15_f951_39b8_706b,
        [0, 0, 0, 0, 145_977],
    ),
    (
        "serve_mixed",
        HELD_OUT_SEED,
        0xf1ec_98e6_4125_8a7c,
        [0, 0, 0, 0, 145_369],
    ),
];

/// Compares a run's simulated totals with the recorded ones, if its seed
/// has any.
fn check_pinned(workload: &str, seed: u64, sim: &SimTotals) -> Option<String> {
    let &(_, _, digest, cycles) = PINNED
        .iter()
        .find(|&&(w, s, _, _)| w == workload && s == seed)?;
    (sim.digest != digest || sim.cycles != cycles).then(|| {
        format!(
            "simulated totals differ from those recorded for seed {seed}: digest {:016x} \
             cycles {:?}, recorded {digest:016x} {cycles:?}",
            sim.digest, sim.cycles
        )
    })
}

/// Rayon threads the program runs with, fixed so that runs on different
/// machines compare (the DNN runner fans layers and systems across them).
const RAYON_THREADS: &str = "2";

/// Software layers with a span in the traced run, in report order.
const LAYERS: [&str; 17] = [
    "runner",
    "dnn.materialize",
    "cpu.run",
    "engine.ip_m",
    "engine.op_m",
    "engine.gust_m",
    "engine.ip_n",
    "engine.op_n",
    "engine.gust_n",
    "mapper.heuristic",
    "mapper.format",
    "format.encode",
    "format.decode",
    "io.read_mtx",
    "serve.queue",
    "serve.exec",
    "serve.wire",
];

/// Span name of a fixed-dataflow execute.
fn engine_span(df: Dataflow) -> &'static str {
    match df {
        Dataflow::InnerProductM => "engine.ip_m",
        Dataflow::OuterProductM => "engine.op_m",
        Dataflow::GustavsonM => "engine.gust_m",
        Dataflow::InnerProductN => "engine.ip_n",
        Dataflow::OuterProductN => "engine.op_n",
        Dataflow::GustavsonN => "engine.gust_n",
    }
}

/// Counts the traced run gathers beside its spans.
#[derive(Debug, Default)]
pub struct TraceExtras {
    /// Simulated multiplications per dataflow, in [`Dataflow::ALL`] order.
    pub mults: [u64; 6],
    /// Mapper picks whose cycles equal the oracle's.
    pub mapper_agree: u64,
    /// Mapper picks scored against the oracle.
    pub mapper_scored: u64,
    /// Sum of `ln(picked cycles / oracle cycles)`.
    pub mapper_log_regret: f64,
    /// Jobs whose operands were staged through a non-SoA format.
    pub staged_jobs: u64,
    /// Jobs that chose a format.
    pub format_jobs: u64,
    /// Matrix Market bytes parsed.
    pub mtx_bytes: u64,
    /// Per-request queue, exec and wire times in ms (serve only).
    pub stage_ms: [Vec<f64>; 3],
    /// Operand-cache hit fraction the daemon counted (serve only).
    pub cache_hit_frac: f64,
}

impl TraceExtras {
    /// Scores one mapper pick against the oracle's cycles.
    pub fn score_pick(&mut self, picked_cycles: u64, best_cycles: u64) {
        self.mapper_scored += 1;
        if picked_cycles == best_cycles {
            self.mapper_agree += 1;
        }
        self.mapper_log_regret += (picked_cycles as f64 / best_cycles as f64).ln();
    }

    /// Adds a report's multiplications to its dataflow.
    pub fn add_mults(&mut self, df: Dataflow, mults: u64) {
        let i = Dataflow::ALL
            .iter()
            .position(|&d| d == df)
            .expect("dataflow in ALL");
        self.mults[i] += mults;
    }
}

/// The traced window of a `--trace 1` run.
#[derive(Debug)]
pub struct Traced {
    /// Spans recorded around each call.
    pub tracer: Tracer,
    /// The traced window's timing.
    pub window: Window,
    /// Counts gathered beside the spans.
    pub extras: TraceExtras,
}

/// Everything one workload run measured and checked.
#[derive(Debug)]
pub struct Outcome {
    /// Median set-up seconds.
    pub setup_s: f64,
    /// The untraced timed window.
    pub window: Window,
    /// Peak resident set in the untraced window, in MiB.
    pub peak_rss_mb: f64,
    /// Simulated totals of the workload's distinct inputs.
    pub sim: SimTotals,
    /// Output-check failures; any entry fails the run.
    pub failures: Vec<String>,
    /// The traced window, with `--trace 1`.
    pub traced: Option<Traced>,
}

/// Command-line arguments.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    Ok(args)
}

/// The commit the benchmark was built from, read from `.git` without
/// spawning a process.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_owned(),
        Err(_) => return "unknown (not a git checkout)".to_owned(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_owned();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_owned()))
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

fn end_to_end_metrics(o: &Outcome) -> Metrics {
    let mut m = Metrics::default();
    let (tail, q) = o.window.tail_ms();
    m.push("setup_s", o.setup_s, "s");
    m.push("ops_per_s", o.window.ops_per_s(), "1/s");
    m.push("op_p50_ms", o.window.p50_ms(), "ms");
    m.push("op_p99_ms", tail, "ms");
    m.push("peak_rss_mb", o.peak_rss_mb, "MiB");
    println!(
        "latency samples: {} (op_p99_ms is taken at p{:.2})",
        o.window.samples.len(),
        100.0 * q
    );
    m
}

fn per_layer_metrics(o: &Outcome, t: &Traced) -> Metrics {
    let mut m = Metrics::default();
    let totals = t.tracer.totals();
    let x = &t.extras;
    for layer in LAYERS {
        let lt = totals.get(layer).copied().unwrap_or_default();
        m.push(&format!("{layer}.busy_s"), lt.busy_s, "s");
        m.push(&format!("{layer}.calls"), lt.calls as f64, "count");
        match layer {
            "runner" => {
                let fanout = if lt.span_s > 0.0 {
                    lt.child_s / lt.span_s
                } else {
                    0.0
                };
                m.push("runner.fanout", fanout, "ratio");
            }
            "io.read_mtx" => {
                let mbps = if lt.busy_s > 0.0 {
                    x.mtx_bytes as f64 / lt.busy_s / 1e6
                } else {
                    0.0
                };
                m.push("io.mb_per_s", mbps, "MB/s");
            }
            _ => {}
        }
        if let Some(df) = Dataflow::ALL.iter().find(|&&d| engine_span(d) == layer) {
            let mults = x.mults[Dataflow::ALL.iter().position(|d| d == df).expect("in ALL")];
            let ns = if mults > 0 {
                lt.busy_s * 1e9 / mults as f64
            } else {
                0.0
            };
            m.push(&format!("{layer}.ns_per_mult"), ns, "ns");
        }
    }
    let ratio = |num: u64, den: u64| {
        if den > 0 {
            num as f64 / den as f64
        } else {
            0.0
        }
    };
    m.push(
        "mapper.top1_frac",
        ratio(x.mapper_agree, x.mapper_scored),
        "ratio",
    );
    let regret = if x.mapper_scored > 0 {
        (x.mapper_log_regret / x.mapper_scored as f64).exp()
    } else {
        0.0
    };
    m.push("mapper.regret_geomean", regret, "ratio");
    m.push(
        "format.nonsoa_frac",
        ratio(x.staged_jobs, x.format_jobs),
        "ratio",
    );
    m.push("serve.cache_hit_frac", x.cache_hit_frac, "ratio");
    for (stage, ms) in ["queue", "exec", "wire"].iter().zip(&x.stage_ms) {
        let mut sorted = ms.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        m.push(
            &format!("serve.{stage}.p50_ms"),
            metrics::nearest_rank(&sorted, 0.5),
            "ms",
        );
        m.push(
            &format!("serve.{stage}.p99_ms"),
            metrics::nearest_rank(&sorted, metrics::tail_quantile(sorted.len())),
            "ms",
        );
    }
    o.sim.push_metrics(&mut m);
    let (untraced, traced) = (o.window.ops_per_s(), t.window.ops_per_s());
    m.push("trace.untraced_ops_per_s", untraced, "1/s");
    m.push("trace.ops_per_s", traced, "1/s");
    m.push("trace.overhead_frac", 1.0 - traced / untraced, "ratio");
    m
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}");
            eprintln!(
                "usage: simbench --workload <dnn_suite|spgemm_jobs|serve_mixed> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    std::env::set_var("RAYON_NUM_THREADS", RAYON_THREADS);
    let budget = Duration::from_secs(args.seconds);
    println!(
        "simbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "stamp: rev={} nproc={} rayon_threads={} simd={} avx2={}",
        git_rev(),
        std::thread::available_parallelism().map_or(0, usize::from),
        rayon::current_num_threads(),
        simd::level().name(),
        simd::level() == simd::Level::Avx2
    );
    let cpu_before = metrics::cpu_ticks();
    let mut outcome = match args.workload.as_str() {
        "dnn_suite" => dnn_suite::run(args.seed, budget, args.trace),
        "spgemm_jobs" => spgemm_jobs::run(args.seed, budget, args.trace),
        "serve_mixed" => serve_mixed::run(args.seed, budget, args.trace),
        other => {
            eprintln!("simbench: unknown workload '{other}'");
            std::process::exit(2);
        }
    };
    println!(
        "host steal during the run: {:.1}% of CPU time (times are unreliable when high)",
        100.0 * metrics::steal_share(cpu_before)
    );
    println!("sim: {}", outcome.sim.summary());
    outcome
        .failures
        .extend(check_pinned(&args.workload, args.seed, &outcome.sim));
    println!(
        "ops_attempted={} ops_failed={}",
        outcome.window.attempted, outcome.window.failed
    );
    let mut attempted = outcome.window.attempted;
    let mut failed = outcome.window.failed;
    let metrics = match &outcome.traced {
        None => end_to_end_metrics(&outcome),
        Some(t) => {
            attempted += t.window.attempted;
            failed += t.window.failed;
            let trace_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("traces")
                .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
            match t.tracer.write_jsonl(&trace_path) {
                Ok(()) => println!("spans written to {}", trace_path.display()),
                Err(e) => println!("spans not written: {e}"),
            }
            per_layer_metrics(&outcome, t)
        }
    };
    metrics.print_lines();
    for f in &outcome.failures {
        println!("CHECK FAILED: {f}");
    }
    let json = metrics.to_json();
    let correct = outcome.failures.is_empty() && json.is_some();
    if json.is_none() {
        println!("CHECK FAILED: a metric is not a finite number");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json.unwrap_or_else(|| "{}".to_owned())
    );
    if !correct {
        std::process::exit(1);
    }
}
