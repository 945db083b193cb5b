//! `spgemm_jobs`: one caller running `spgemm_cli mtx a b oracle --format
//! auto` jobs in a closed loop.
//!
//! A job is exactly what that command does after reading its files:
//! parse both Matrix Market texts (held in memory), build a default
//! `Flexagon`, and execute with the `Oracle` strategy and
//! `FormatChoice::Auto`. Jobs come from three families, so that each
//! format path is taken: R-MAT graph squares (SoA), the nine Table 6
//! layers (SoA) and three of those layers with block-pruned weights
//! (BCSR4/BCSR8, which stage operands through their format). The timed
//! window runs whole passes over the seeded, shuffled job pool.

use crate::metrics::{self, Digest, OpSample, SimTotals, Window};
use crate::trace::{Tracer, ROOT};
use crate::{engine_span, Outcome, TraceExtras, Traced};
use flexagon_core::{
    mapper, Accelerator, Dataflow, Execution, ExecutionReport, ExecutionRequest, Flexagon,
    FormatChoice, MappingStrategy, RunOutput,
};
use flexagon_serve::protocol::matrix_digest;
use flexagon_sparse::{
    gen, io, reference, CompressedMatrix, FiberFormat, FormattedMatrix, MajorOrder,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::io::Cursor;
use std::time::{Duration, Instant};

/// Set-up repetitions (the median is reported).
const SETUP_REPS: usize = 5;

/// R-MAT partition probabilities (the Graph500 skew `spgemm_cli rmat`
/// uses).
const RMAT_PROBS: (f64, f64, f64, f64) = (0.57, 0.19, 0.19, 0.05);

/// Dataflow and Flexagon cycles of the warm-up job. Every run checks
/// them, whatever its seed, so a change to simulated cycles fails any run.
const WARM: (Dataflow, u64) = (Dataflow::GustavsonN, 31_515);

/// Table 6 layers (one per favoured dataflow group) whose weights are
/// block-pruned: the layer's shape and densities, with A's non-zeros in
/// whole blocks of each width in [`BLOCK_WIDTHS`].
const BLOCK_LAYERS: [&str; 3] = ["R4", "R6", "A2"];

/// Block widths of the block-pruned weights (4x4 and 8x8 blocks).
const BLOCK_WIDTHS: [u32; 2] = [4, 8];

/// One CLI job: two Matrix Market files, as text in memory.
struct Job {
    name: String,
    a_mtx: Vec<u8>,
    b_mtx: Vec<u8>,
}

impl Job {
    fn new(name: String, a: &CompressedMatrix, b: &CompressedMatrix) -> Self {
        let text = |m: &CompressedMatrix| {
            let mut out = Vec::new();
            io::write_matrix_market(m, &mut out).expect("writing to memory cannot fail");
            out
        };
        Self {
            name,
            a_mtx: text(a),
            b_mtx: text(b),
        }
    }

    fn parse(text: &[u8]) -> Result<CompressedMatrix, String> {
        io::read_matrix_market(Cursor::new(text), MajorOrder::Row).map_err(|e| e.to_string())
    }
}

/// The seeded job pool, in the order one pass runs it.
fn pool(seed: u64) -> Vec<Job> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5_6E3A);
    let mut jobs = Vec::new();
    for layer in flexagon_dnn::table6::layers() {
        let m = layer.spec.materialize(seed);
        jobs.push(Job::new(format!("table6/{}", layer.id), &m.a, &m.b));
    }
    for scale in 8..=12u32 {
        for rep in 0..2 {
            let g = gen::rmat(scale, 8 << scale, RMAT_PROBS, MajorOrder::Row, &mut rng);
            jobs.push(Job::new(format!("rmat/s{scale}-{rep}"), &g, &g));
        }
    }
    for id in BLOCK_LAYERS {
        let spec = flexagon_dnn::table6::by_id(id).expect("Table 6 layer").spec;
        let (da, db) = spec.densities();
        for bw in BLOCK_WIDTHS {
            let a = gen::block_sparse(spec.m, spec.k, bw, da, MajorOrder::Row, &mut rng);
            let b = gen::random(spec.k, spec.n, db, MajorOrder::Row, &mut rng);
            jobs.push(Job::new(format!("block{bw}/{id}"), &a, &b));
        }
    }
    for i in (1..jobs.len()).rev() {
        jobs.swap(i, rng.gen_range(0..i + 1));
    }
    jobs
}

/// One job as the CLI runs it.
fn run_job(job: &Job) -> Result<Execution, String> {
    let a = Job::parse(&job.a_mtx)?;
    let b = Job::parse(&job.b_mtx)?;
    Flexagon::with_defaults()
        .execute(
            ExecutionRequest::new(&a, &b)
                .strategy(MappingStrategy::Oracle)
                .format_choice(FormatChoice::Auto),
        )
        .map_err(|e| e.to_string())
}

/// The same job with each call issued from here inside a span: the parse,
/// the format choice, and, for each dataflow the oracle sweeps, the format
/// staging and the fixed-dataflow execute, keeping the first fastest run.
fn traced_job(tr: &Tracer, job: &Job, x: &mut TraceExtras) -> Result<Execution, String> {
    tr.span("job", ROOT, |jid| {
        let a = tr.span("io.read_mtx", jid, |_| Job::parse(&job.a_mtx))?;
        let b = tr.span("io.read_mtx", jid, |_| Job::parse(&job.b_mtx))?;
        x.mtx_bytes += (job.a_mtx.len() + job.b_mtx.len()) as u64;
        let format = tr.span("mapper.format", jid, |_| mapper::heuristic_format(&a));
        x.format_jobs += 1;
        if format != FiberFormat::Soa {
            x.staged_jobs += 1;
        }
        let accel = Flexagon::with_defaults();
        let mut best: Option<(Dataflow, RunOutput)> = None;
        for &df in accel.supported_dataflows() {
            let staged;
            let (sa, sb) = if format == FiberFormat::Soa {
                (&a, &b)
            } else {
                let stage = |m: &CompressedMatrix| {
                    let enc = tr.span("format.encode", jid, |_| FormattedMatrix::encode(m, format));
                    tr.span("format.decode", jid, |_| enc.decode())
                };
                staged = (stage(&a), stage(&b));
                (&staged.0, &staged.1)
            };
            let out = tr
                .span(engine_span(df), jid, |_| {
                    accel.execute(
                        ExecutionRequest::new(sa, sb)
                            .dataflow(df)
                            .format(FiberFormat::Soa),
                    )
                })
                .map_err(|e| e.to_string())?
                .output;
            x.add_mults(df, out.report.multiplications);
            if best
                .as_ref()
                .is_none_or(|(_, b)| out.report.total_cycles < b.report.total_cycles)
            {
                best = Some((df, out));
            }
        }
        let (dataflow, output) = best.ok_or("no dataflow ran")?;
        Ok(Execution {
            dataflow,
            format,
            output,
        })
    })
}

/// One op's result, by job index.
type JobResult = (usize, Result<Execution, String>);

/// Whole passes over the pool until `budget` has passed; every result is
/// kept, by job index, for the checks.
fn run_window(
    jobs: &[Job],
    budget: Duration,
    mut op: impl FnMut(&Job) -> Result<Execution, String>,
) -> (Window, Vec<JobResult>) {
    let mut w = Window::default();
    let mut results = Vec::new();
    let start = Instant::now();
    loop {
        for (i, job) in jobs.iter().enumerate() {
            let t0 = Instant::now();
            let res = op(job);
            w.samples.push(OpSample {
                secs: t0.elapsed().as_secs_f64(),
                ok: res.is_ok(),
            });
            w.attempted += 1;
            if res.is_err() {
                w.failed += 1;
            }
            results.push((i, res));
        }
        if start.elapsed() >= budget {
            break;
        }
    }
    w.elapsed_s = start.elapsed().as_secs_f64();
    let mut by_family = std::collections::BTreeMap::<&str, f64>::new();
    for ((i, _), sample) in results.iter().zip(&w.samples) {
        let family = jobs[*i].name.split('/').next().unwrap_or("?");
        *by_family.entry(family).or_default() += sample.secs;
    }
    let parts: Vec<String> = by_family
        .iter()
        .map(|(f, s)| format!("{f}={s:.2}"))
        .collect();
    println!("host s per job family, all passes: {}", parts.join(" "));
    (w, results)
}

/// What a correct run of one job produced.
struct Expected {
    dataflow: Dataflow,
    format: FiberFormat,
    c_digest: u64,
    report: ExecutionReport,
    report_json: String,
}

impl Expected {
    fn of(ex: &Execution) -> Self {
        Self {
            dataflow: ex.dataflow,
            format: ex.format,
            c_digest: matrix_digest(&ex.output.c),
            report: ex.output.report.clone(),
            report_json: serde_json::to_string(&ex.output.report).expect("report serializes"),
        }
    }

    fn matches(&self, ex: &Execution) -> bool {
        let got = Self::of(ex);
        got.dataflow == self.dataflow
            && got.format == self.format
            && got.c_digest == self.c_digest
            && got.report_json == self.report_json
    }
}

/// Checks every result: the first run of each job against the reference
/// kernel, every later run against the first. Returns the expectations
/// and the simulated totals over the pool.
fn check(
    jobs: &[Job],
    results: &[JobResult],
    w: &mut Window,
    failures: &mut Vec<String>,
) -> (Vec<Option<Expected>>, SimTotals) {
    let mut expected: Vec<Option<Expected>> = jobs.iter().map(|_| None).collect();
    for (k, (i, res)) in results.iter().enumerate() {
        let job = &jobs[*i];
        // A job that returned an error already counts as failed.
        let Ok(ex) = res else { continue };
        let before = failures.len();
        match &expected[*i] {
            Some(exp) => {
                if !exp.matches(ex) {
                    failures.push(format!(
                        "{}: a repeated run differs from the first",
                        job.name
                    ));
                }
            }
            None => {
                let (a, b) = (Job::parse(&job.a_mtx), Job::parse(&job.b_mtx));
                let want = a.and_then(|a| {
                    b.and_then(|b| reference::spgemm(&a, &b).map_err(|e| e.to_string()))
                });
                match want {
                    Ok(want) if metrics::matches_reference(&ex.output.c, &want) => {}
                    Ok(_) => {
                        failures.push(format!("{}: output differs from the reference", job.name))
                    }
                    Err(e) => failures.push(format!("{}: reference failed: {e}", job.name)),
                }
                expected[*i] = Some(Expected::of(ex));
            }
        }
        if failures.len() > before {
            w.fail_op(k, 1);
        }
    }
    let mut sim = SimTotals::default();
    let mut digest = Digest::default();
    for (job, exp) in jobs.iter().zip(&expected) {
        let Some(exp) = exp else {
            failures.push(format!("{}: no run completed", job.name));
            continue;
        };
        sim.add_flexagon(&exp.report);
        digest.eat(exp.report_json.as_bytes());
    }
    sim.digest = digest.value();
    (expected, sim)
}

/// Runs the workload.
pub fn run(seed: u64, budget: Duration, trace: bool) -> Outcome {
    let jobs = pool(seed);
    let bytes: usize = jobs.iter().map(|j| j.a_mtx.len() + j.b_mtx.len()).sum();
    println!(
        "spgemm_jobs: {} jobs per pass, {:.1} MB of Matrix Market text",
        jobs.len(),
        bytes as f64 / 1e6
    );
    // Warm-up op: a fixed small job, an R-MAT scale-10 square drawn with
    // the default seed.
    let warm = {
        let mut rng = ChaCha8Rng::seed_from_u64(crate::DEFAULT_SEED);
        let g = gen::rmat(10, 8 << 10, RMAT_PROBS, MajorOrder::Row, &mut rng);
        Job::new("warm-up".to_owned(), &g, &g)
    };
    let (setup_s, warm_ex) =
        metrics::timed_setup(SETUP_REPS, || run_job(&warm).expect("warm-up job"));
    let mut failures = Vec::new();
    let warm_got = (warm_ex.dataflow, warm_ex.output.report.total_cycles);
    if warm_got != WARM {
        failures.push(format!("warm-up job: ran {warm_got:?}, recorded {WARM:?}"));
    }
    let (mut window, results) = run_window(&jobs, budget, run_job);
    let peak_rss_mb = metrics::peak_rss_mb();
    let (expected, sim) = check(&jobs, &results, &mut window, &mut failures);
    drop(results);
    let traced = trace.then(|| {
        let tracer = Tracer::new();
        let mut extras = TraceExtras::default();
        let (mut w, traced_results) =
            run_window(&jobs, budget, |job| traced_job(&tracer, job, &mut extras));
        for (k, (i, res)) in traced_results.iter().enumerate() {
            if let Ok(ex) = res {
                if !expected[*i].as_ref().is_some_and(|exp| exp.matches(ex)) {
                    failures.push(format!(
                        "traced {}: differs from the untraced run",
                        jobs[*i].name
                    ));
                    w.fail_op(k, 1);
                }
            }
        }
        Traced {
            tracer,
            window: w,
            extras,
        }
    });
    Outcome {
        setup_s,
        window,
        peak_rss_mb,
        sim,
        failures,
        traced,
    }
}
