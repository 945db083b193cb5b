//! `dnn_suite`: the paper's evaluation sweep (Table 2 models, Fig. 12
//! systems) on a fixed, cost-stratified sample of suite layers.
//!
//! An op is one suite layer on all five systems. The timed window calls
//! `runner::run_model_opts` with default `RunOptions` once per batch of
//! the sample, in whole passes; a call's latency sample is its wall time
//! divided by its layer count. The seed draws every layer's operands (sparsity pattern
//! and values); the layers themselves are the same under every seed, so
//! the work a run measures does not hinge on which layers a seed drew.

use crate::metrics::{self, Digest, OpSample, SimTotals, Window};
use crate::trace::{Tracer, ROOT};
use crate::{engine_span, Outcome, TraceExtras, Traced};
use flexagon_bench::runner::{
    self, intra_layer_worker_budget, LayerResults, ModelResults, RunOptions, SystemId,
    LAYER_SIM_FANOUT,
};
use flexagon_core::{
    mapper, Accelerator, AcceleratorConfig, CpuMkl, Dataflow, ExecutionRequest, GammaLike,
    SigmaLike, SparchLike,
};
use flexagon_dnn::{suite, table6, DnnModel, LayerSpec};
use flexagon_sparse::{reference, CompressedMatrix};
use rayon::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Layers sampled per model: one from each of this many cost strata.
const PER_MODEL: usize = 6;

/// Names of the `run_model_opts` batches the sample is split into.
const BATCHES: [&str; 6] = [
    "batch-1", "batch-2", "batch-3", "batch-4", "batch-5", "batch-6",
];

/// Set-up repetitions (the median is reported).
const SETUP_REPS: usize = 9;

/// Cycles per system, in [`SystemId::ALL`] order, of the warm-up op:
/// Table 6 layer R4 materialized with the default seed. Every run checks
/// them, whatever its seed, so a change to simulated cycles fails any run.
const WARM_CYCLES: [u64; 5] = [24_298_342, 435_437, 784_130, 380_337, 380_337];

/// The paper's average speed-ups of Flexagon over SIGMA-, Sparch- and
/// GAMMA-like (abstract and Fig. 12).
const PAPER_SPEEDUPS: [(SystemId, f64); 3] = [
    (SystemId::SigmaLike, 4.59),
    (SystemId::SparchLike, 1.71),
    (SystemId::GammaLike, 1.35),
];

/// A-priori cost of a layer: expected products plus operand sizes.
fn cost_proxy(s: &LayerSpec) -> f64 {
    let (da, db) = s.densities();
    let (m, k, n) = (f64::from(s.m), f64::from(s.k), f64::from(s.n));
    m * k * n * da * db + m * k * da + k * n * db
}

/// One `run_model_opts` call: layers of several models, costliest first,
/// with the model each layer came from.
pub struct Batch {
    /// The layers, as the model the runner takes.
    pub model: DnnModel,
    /// Short code of each layer's suite model.
    pub owners: Vec<&'static str>,
}

/// Every suite model cut down to the middle layer of each of its
/// [`PER_MODEL`] cost strata, dealt into equal-size batches of about
/// equal cost.
///
/// Layers go out costliest first, each to the cheapest batch with room
/// (longest-processing-time first). Calls of about equal cost give
/// latency samples of about equal size, so their median does not hinge on
/// one short call, and each call's light layers fill the runner's two
/// workers while its heavy ones finish.
pub fn sample() -> Vec<Batch> {
    let models = suite();
    let mut layers: Vec<(LayerSpec, &'static str)> = Vec::new();
    for model in &models {
        let mut by_cost: Vec<&LayerSpec> = model.layers.iter().collect();
        by_cost.sort_by(|x, y| {
            cost_proxy(x)
                .partial_cmp(&cost_proxy(y))
                .expect("finite cost")
                .then(x.index.cmp(&y.index))
        });
        let (n, k) = (by_cost.len(), PER_MODEL.min(by_cost.len()));
        for i in 0..k {
            let stratum = &by_cost[i * n / k..(i + 1) * n / k];
            layers.push((stratum[stratum.len() / 2].clone(), model.short));
        }
    }
    layers.sort_by(|x, y| {
        cost_proxy(&y.0)
            .partial_cmp(&cost_proxy(&x.0))
            .expect("finite cost")
    });
    let room = layers.len().div_ceil(BATCHES.len());
    let mut batches: Vec<(f64, Batch)> = BATCHES
        .iter()
        .map(|&name| {
            let model = DnnModel {
                name,
                short: name,
                domain: models[0].domain,
                layers: Vec::new(),
            };
            let owners = Vec::new();
            (0.0, Batch { model, owners })
        })
        .collect();
    for (spec, owner) in layers {
        let (cost, batch) = batches
            .iter_mut()
            .filter(|(_, b)| b.owners.len() < room)
            .min_by(|x, y| x.0.partial_cmp(&y.0).expect("finite cost"))
            .expect("the batches hold every layer");
        *cost += cost_proxy(&spec);
        batch.model.layers.push(spec);
        batch.owners.push(owner);
    }
    batches.into_iter().map(|(_, b)| b).collect()
}

/// The options `run_model_opts` derives for `model` from the defaults.
fn model_opts(model: &DnnModel) -> RunOptions {
    let mut opts = RunOptions::default();
    let sims = model.layers.len().max(1) * LAYER_SIM_FANOUT;
    opts.engine.shard_workers = opts.engine.shard_workers.min(intra_layer_worker_budget(
        rayon::current_num_threads(),
        sims,
    ));
    opts
}

/// One pass result per batch: `None` when the call panicked.
type PassResults = Vec<Option<ModelResults>>;

/// Cycles per system, in [`SystemId::ALL`] order, summed over `layers`.
fn system_totals<'a>(layers: impl IntoIterator<Item = &'a LayerResults>) -> [u64; 5] {
    let mut totals = [0u64; 5];
    for l in layers {
        for (t, system) in totals.iter_mut().zip(SystemId::ALL) {
            *t += l.of(system).total_cycles;
        }
    }
    totals
}

fn same_results(a: &ModelResults, b: &ModelResults) -> bool {
    a.total_cycles == b.total_cycles && a.winners == b.winners
}

/// Timed window: whole passes of one `run_model_opts` call per batch.
fn untraced_window(
    sample: &[Batch],
    seed: u64,
    budget: Duration,
    failures: &mut Vec<String>,
) -> (Window, PassResults) {
    let opts = RunOptions::default();
    let mut w = Window::default();
    let mut first: PassResults = Vec::new();
    let mut batch_s = vec![0.0; sample.len()];
    let start = Instant::now();
    for pass in 0.. {
        for (bi, batch) in sample.iter().enumerate() {
            let model = &batch.model;
            let n = model.layers.len() as u64;
            let t0 = Instant::now();
            let res = catch_unwind(AssertUnwindSafe(|| {
                runner::run_model_opts(model, seed, &opts, false)
            }));
            let secs = t0.elapsed().as_secs_f64();
            batch_s[bi] += secs;
            w.attempted += n;
            let res = res.ok();
            if res.is_none() {
                w.failed += n;
            }
            w.samples.push(OpSample {
                secs: secs / n as f64,
                ok: res.is_some(),
            });
            if pass == 0 {
                first.push(res);
            } else if let (Some(a), Some(b)) = (&first[bi], &res) {
                if !same_results(a, b) {
                    failures.push(format!("{}: pass {pass} differs from pass 0", model.short));
                    w.fail_op(w.samples.len() - 1, n);
                }
            }
        }
        if start.elapsed() >= budget {
            break;
        }
    }
    w.elapsed_s = start.elapsed().as_secs_f64();
    let per_batch: Vec<String> = sample
        .iter()
        .zip(&batch_s)
        .map(|(b, s)| format!("{}={s:.2}", b.model.short))
        .collect();
    println!("host s per batch, all passes: {}", per_batch.join(" "));
    (w, first)
}

/// What one layer's calls produced.
struct LayerRun {
    results: LayerResults,
    /// The heuristic mapper's pick.
    pick: Dataflow,
    /// The SIGMA-, Sparch- and GAMMA-like outputs.
    outputs: [CompressedMatrix; 3],
}

/// The calls `run_layer_opts` makes for one layer, each inside a span,
/// followed by the heuristic mapper.
fn layer_calls(tr: &Tracer, spec: &LayerSpec, seed: u64, opts: &RunOptions) -> LayerRun {
    tr.span("runner", ROOT, |rid| {
        let mats = tr.span("dnn.materialize", rid, |_| spec.materialize(seed));
        let mut cfg = AcceleratorConfig::table5();
        cfg.engine = opts.engine;
        let fixed = |accel: &dyn Accelerator, df: Dataflow| {
            tr.span(engine_span(df), rid, |_| {
                accel
                    .execute(ExecutionRequest::new(&mats.a, &mats.b).dataflow(df))
                    .expect("fixed-dataflow run")
                    .output
            })
        };
        let ip = || fixed(&SigmaLike::new(cfg), Dataflow::InnerProductM);
        let op = || fixed(&SparchLike::new(cfg), Dataflow::OuterProductM);
        let gu = || fixed(&GammaLike::new(cfg), Dataflow::GustavsonM);
        let cpu = || {
            tr.span("cpu.run", rid, |_| {
                CpuMkl::with_defaults()
                    .run(&mats.a, &mats.b)
                    .expect("cpu run")
            })
        };
        let ((ip, op), (gu, cpu)) = if opts.layer_parallel {
            rayon::join(|| rayon::join(ip, op), || rayon::join(gu, cpu))
        } else {
            ((ip(), op()), (gu(), cpu()))
        };
        let mut results = LayerResults {
            spec: spec.clone(),
            inner_product: ip.report,
            outer_product: op.report,
            gustavson: gu.report,
            cpu: cpu.report,
            flexagon_dataflow: Dataflow::InnerProductM,
        };
        results.flexagon_dataflow = results.best_dataflow();
        let pick = tr.span("mapper.heuristic", rid, |_| {
            mapper::heuristic(&cfg, &mats.a, &mats.b)
        });
        LayerRun {
            results,
            pick,
            outputs: [ip.c, op.c, gu.c],
        }
    })
}

/// One batch's layer calls, fanned out over the rayon pool as the runner
/// fans out a model's layers.
fn batch_calls(tr: &Tracer, batch: &Batch, seed: u64) -> Vec<LayerRun> {
    let opts = model_opts(&batch.model);
    batch
        .model
        .layers
        .par_iter()
        .map(|spec| layer_calls(tr, spec, seed, &opts))
        .collect()
}

/// Traced window: the same passes, each layer's calls issued from here.
/// Returns the first pass's layer results per batch (`None` if it
/// panicked).
fn traced_window(
    sample: &[Batch],
    seed: u64,
    budget: Duration,
) -> (Traced, Vec<Option<Vec<LayerResults>>>) {
    let tracer = Tracer::new();
    let mut extras = TraceExtras::default();
    let mut w = Window::default();
    let mut first = Vec::new();
    let start = Instant::now();
    for pass in 0.. {
        for batch in sample {
            let n = batch.owners.len() as u64;
            let t0 = Instant::now();
            let res = catch_unwind(AssertUnwindSafe(|| batch_calls(&tracer, batch, seed))).ok();
            w.attempted += n;
            w.samples.push(OpSample {
                secs: t0.elapsed().as_secs_f64() / n as f64,
                ok: res.is_some(),
            });
            let Some(runs) = res else {
                w.failed += n;
                if pass == 0 {
                    first.push(None);
                }
                continue;
            };
            for LayerRun {
                results: l, pick, ..
            } in &runs
            {
                for (df, r) in [
                    (Dataflow::InnerProductM, &l.inner_product),
                    (Dataflow::OuterProductM, &l.outer_product),
                    (Dataflow::GustavsonM, &l.gustavson),
                ] {
                    extras.add_mults(df, r.multiplications);
                }
                let picked = match pick {
                    Dataflow::InnerProductM => &l.inner_product,
                    Dataflow::OuterProductM => &l.outer_product,
                    _ => &l.gustavson,
                };
                extras.score_pick(picked.total_cycles, l.flexagon().total_cycles);
            }
            if pass == 0 {
                first.push(Some(runs.into_iter().map(|r| r.results).collect()));
            }
        }
        if start.elapsed() >= budget {
            break;
        }
    }
    w.elapsed_s = start.elapsed().as_secs_f64();
    (
        Traced {
            tracer,
            window: w,
            extras,
        },
        first,
    )
}

/// Per-layer checks of one batch: every M-stationary output against the
/// reference product, Flexagon's cycles against each fixed baseline.
fn check_layers(runs: &[LayerRun], seed: u64, failures: &mut Vec<String>) {
    let bad: Vec<Vec<String>> = runs
        .par_iter()
        .map(|run| {
            let spec = &run.results.spec;
            let mats = spec.materialize(seed);
            let mut bad = Vec::new();
            match reference::spgemm(&mats.a, &mats.b) {
                Ok(want) => {
                    for (system, c) in [
                        SystemId::SigmaLike,
                        SystemId::SparchLike,
                        SystemId::GammaLike,
                    ]
                    .iter()
                    .zip(&run.outputs)
                    {
                        if !metrics::matches_reference(c, &want) {
                            bad.push(format!(
                                "{}: {} output differs from the reference",
                                spec.name,
                                system.name()
                            ));
                        }
                    }
                }
                Err(e) => bad.push(format!("{}: reference failed: {e}", spec.name)),
            }
            bad
        })
        .collect();
    failures.extend(bad.into_iter().flatten());
    for LayerRun { results: l, .. } in runs {
        let f = l.flexagon().total_cycles;
        for system in [
            SystemId::SigmaLike,
            SystemId::SparchLike,
            SystemId::GammaLike,
        ] {
            if f > l.of(system).total_cycles {
                failures.push(format!(
                    "{}: Flexagon {f} cycles > {} {}",
                    l.spec.name,
                    system.name(),
                    l.of(system).total_cycles
                ));
            }
        }
    }
}

/// Adds layers to the simulated totals and their digest.
fn add_sim(layers: &[LayerResults], sim: &mut SimTotals, digest: &mut Digest) {
    for l in layers {
        for (i, system) in SystemId::ALL.into_iter().take(4).enumerate() {
            sim.cycles[i] += l.of(system).total_cycles;
        }
        sim.add_flexagon(l.flexagon());
        digest.eat(
            serde_json::to_string(l)
                .expect("layer results serialize")
                .as_bytes(),
        );
    }
}

/// Whether two runs of the same layers reported the same.
fn same_layers(a: &[LayerResults], b: &[LayerResults]) -> bool {
    let json = |l: &[LayerResults]| serde_json::to_string(l).expect("layer results serialize");
    json(a) == json(b)
}

/// Checks a batch's `run_model_opts` result against the same layers' calls
/// issued from here.
fn check_model(
    model: &DnnModel,
    got: Option<&ModelResults>,
    layers: &[LayerResults],
    failures: &mut Vec<String>,
) {
    let Some(got) = got else {
        failures.push(format!("{}: run_model_opts failed", model.short));
        return;
    };
    let totals = system_totals(layers);
    let winners: Vec<Dataflow> = layers.iter().map(|l| l.flexagon_dataflow).collect();
    if got.total_cycles != totals || got.winners != winners {
        failures.push(format!(
            "{}: run_model_opts totals {:?} / winners differ from its layers' {:?}",
            model.short, got.total_cycles, totals
        ));
    }
}

/// Flexagon's speed-up over each fixed baseline on the sample, beside the
/// paper's figures. Printed, not gated: the sample is not the suite.
fn print_fidelity(layers: &[LayerResults], owners: &[&str]) {
    let mut by_model = std::collections::BTreeMap::<&str, Vec<&LayerResults>>::new();
    for (l, owner) in layers.iter().zip(owners) {
        by_model.entry(owner).or_default().push(l);
    }
    let per_model: Vec<[u64; 5]> = by_model.into_values().map(system_totals).collect();
    if per_model.is_empty() {
        return;
    }
    let flexagon = SystemId::ALL.len() - 1;
    let mut parts = Vec::new();
    for (system, paper) in PAPER_SPEEDUPS {
        let i = SystemId::ALL
            .iter()
            .position(|&s| s == system)
            .expect("in ALL");
        let log_sum: f64 = per_model
            .iter()
            .map(|t| (t[i] as f64 / t[flexagon] as f64).ln())
            .sum();
        let geo = (log_sum / per_model.len() as f64).exp();
        parts.push(format!("{} {geo:.2}x (paper {paper}x)", system.name()));
    }
    println!(
        "fidelity (sample of {} layers, {} models, geomean of per-model cycle ratios; \
         not gated): Flexagon over {}",
        layers.len(),
        per_model.len(),
        parts.join(", ")
    );
}

/// Runs the workload.
pub fn run(seed: u64, budget: Duration, trace: bool) -> Outcome {
    let sample = sample();
    let n_layers: usize = sample.iter().map(|b| b.owners.len()).sum();
    println!(
        "dnn_suite: {n_layers} layers in {} batches, rayon threads {}",
        sample.len(),
        rayon::current_num_threads()
    );
    // Warm-up op: one fixed mid-cost layer (Table 6 R4, default-seed
    // operands) on all five systems.
    let warm = DnnModel {
        name: "warm-up",
        short: "warm",
        domain: sample[0].model.domain,
        layers: vec![table6::by_id("R4").expect("Table 6 has R4").spec],
    };
    let (setup_s, warm_res) = metrics::timed_setup(SETUP_REPS, || {
        runner::run_model_opts(&warm, crate::DEFAULT_SEED, &RunOptions::default(), false)
    });
    let mut failures = Vec::new();
    if warm_res.total_cycles != WARM_CYCLES {
        failures.push(format!(
            "warm-up R4: cycles {:?}, recorded {WARM_CYCLES:?}",
            warm_res.total_cycles
        ));
    }
    let (mut window, results) = untraced_window(&sample, seed, budget, &mut failures);
    let peak_rss_mb = metrics::peak_rss_mb();
    let (traced, traced_layers) = match trace {
        true => {
            let (t, layers) = traced_window(&sample, seed, budget);
            (Some(t), Some(layers))
        }
        false => (None, None),
    };

    // Outside the timed windows: every sampled layer's calls, issued from
    // here once more, checked and compared with what the windows produced.
    let check_tracer = Tracer::new();
    let mut sim = SimTotals::default();
    let mut digest = Digest::default();
    let mut all_layers = Vec::with_capacity(n_layers);
    let mut owners = Vec::with_capacity(n_layers);
    for (bi, (batch, got)) in sample.iter().zip(&results).enumerate() {
        let before = failures.len();
        let runs = batch_calls(&check_tracer, batch, seed);
        check_layers(&runs, seed, &mut failures);
        let layers: Vec<LayerResults> = runs.into_iter().map(|r| r.results).collect();
        check_model(&batch.model, got.as_ref(), &layers, &mut failures);
        if let Some(traced) = &traced_layers {
            if !traced[bi].as_ref().is_some_and(|t| same_layers(t, &layers)) {
                failures.push(format!("{}: traced layers differ", batch.model.short));
            }
        }
        if failures.len() > before {
            window.fail_op(bi, batch.owners.len() as u64);
        }
        add_sim(&layers, &mut sim, &mut digest);
        all_layers.extend(layers);
        owners.extend(&batch.owners);
    }
    sim.digest = digest.value();
    print_fidelity(&all_layers, &owners);
    Outcome {
        setup_s,
        window,
        peak_rss_mb,
        sim,
        failures,
        traced,
    }
}
