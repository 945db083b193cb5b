//! Criterion benches for the software reference SpGEMM kernels — the
//! golden models and the CPU baseline's pricing and functional paths.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use flexagon_bench::DEFAULT_SEED;
use flexagon_core::{Accelerator, AcceleratorConfig, CpuMkl, Dataflow, ExecutionRequest, Flexagon};
use flexagon_dnn::table6;
use flexagon_sparse::{
    gen, merge, reference, AccumTier, BitmapMatrix, BlockedFiber, CompressedMatrix, Fiber,
    FiberFormat, FiberIndex, FormattedMatrix, MajorOrder, RowAccum,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

fn operands(n: u32, density: f64) -> (CompressedMatrix, CompressedMatrix) {
    let mut rng = ChaCha8Rng::seed_from_u64(99);
    (
        gen::random(n, n, density, MajorOrder::Row, &mut rng),
        gen::random(n, n, density, MajorOrder::Row, &mut rng),
    )
}

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("spgemm_kernels");
    for &n in &[64u32, 256] {
        let (a, b) = operands(n, 0.1);
        let b_csc = b.converted(MajorOrder::Col);
        let a_csc = a.converted(MajorOrder::Col);
        group.bench_with_input(BenchmarkId::new("gustavson", n), &n, |bench, _| {
            bench.iter(|| reference::gustavson(black_box(&a), black_box(&b)).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("inner_product", n), &n, |bench, _| {
            bench.iter(|| reference::inner_product(black_box(&a), black_box(&b_csc)).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("outer_product", n), &n, |bench, _| {
            bench.iter(|| reference::outer_product(black_box(&a_csc), black_box(&b)).unwrap());
        });
    }
    group.finish();
}

/// A fiber of `len` elements drawn from a coordinate space of `space`.
fn intersection_fiber(len: usize, space: u32, seed: u64) -> Fiber {
    let density = len as f64 / space as f64;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    gen::random(1, space, density, MajorOrder::Row, &mut rng)
        .fiber(0)
        .to_fiber()
}

/// The three intersection strategies over balanced, skewed and sparse-span
/// fiber pairs: the naive two-pointer scan, galloping, and index probing
/// (bitmap or skip tier depending on span).
fn bench_intersection(c: &mut Criterion) {
    let mut group = c.benchmark_group("intersection");
    // (label, len_a, len_b, space): balanced dense-span, skewed (short
    // stationary list vs long fiber, the MNK tile shape), and sparse-span
    // pairs that exercise the skip tier.
    let shapes: &[(&str, usize, usize, u32)] = &[
        ("balanced/256", 256, 256, 1024),
        ("skewed/64x4096", 64, 4096, 16384),
        ("sparse_span/512", 512, 512, 1 << 24),
    ];
    for &(label, la, lb, space) in shapes {
        let a = intersection_fiber(la, space, 7);
        let b = intersection_fiber(lb, space, 8);
        let b_index = FiberIndex::build(b.coords());
        group.bench_function(BenchmarkId::new("dot", label), |bench| {
            bench.iter(|| black_box(a.as_view()).dot(black_box(b.as_view())));
        });
        group.bench_function(BenchmarkId::new("gallop", label), |bench| {
            bench.iter(|| black_box(a.as_view()).dot_gallop(black_box(b.as_view())));
        });
        group.bench_function(BenchmarkId::new("probe", label), |bench| {
            bench.iter(|| {
                black_box(a.as_view()).dot_probe(black_box(b.as_view()), black_box(&b_index))
            });
        });
    }
    // Index construction cost over a whole operand, amortized by the loops
    // that reuse it.
    let (_, b) = operands(512, 0.1);
    group.bench_function("index_build/512", |bench| {
        bench.iter(|| flexagon_sparse::MatrixIndex::build(black_box(&b).view()));
    });
    group.finish();
}

/// The engine's two software-path gates as direct sweeps, so their
/// constants can be re-derived from numbers instead of hand-tuning.
///
/// * `threshold_probe/{scan,probe}/r{R}` — the Inner-Product streaming
///   loop's per-fiber choice: mask-scan the streaming fiber against the
///   tile's k-bitmap, or probe the fiber's tiered index with the tile's
///   sorted stationary list. `R = fiber_len / stationary_len`; the engine
///   probes when `R >= PROBE_GATE_FACTOR`, so the gate should sit at the
///   measured crossover ratio.
/// * `threshold_probe/dense_accum/s{S}` — the dense psum accumulator's
///   cost at span-per-element ratio `S = span / nnz`, forced by passing
///   the span itself as the element hint. The tier pays `span` value
///   slots; its gate (`S <= 64`) bounds that footprint.
fn bench_threshold_probe(c: &mut Criterion) {
    let mut group = c.benchmark_group("threshold_probe");

    // Probe-vs-scan: one long streaming fiber, stationary lists of
    // decreasing length (increasing ratio R).
    let fiber_len = 4096usize;
    let space = 16384u32;
    let fiber = intersection_fiber(fiber_len, space, 31);
    let index = FiberIndex::build(fiber.coords());
    for ratio in [1usize, 2, 4, 8, 16, 32] {
        let stationary = intersection_fiber(fiber_len / ratio, space, 32 + ratio as u64);
        let k_list: Vec<u32> = stationary.coords().to_vec();
        // The tile's k-membership bitmap, as the engine builds it.
        let mut mask = vec![0u64; (space as usize).div_ceil(64)];
        for &k in &k_list {
            mask[(k >> 6) as usize] |= 1u64 << (k & 63);
        }
        group.bench_function(BenchmarkId::new("scan", format!("r{ratio}")), |bench| {
            bench.iter(|| {
                let mut hits = 0u64;
                let mut sum = 0.0f32;
                for (&c, &v) in fiber.coords().iter().zip(fiber.values()) {
                    if mask[(c >> 6) as usize] & (1u64 << (c & 63)) != 0 {
                        hits += 1;
                        sum += v;
                    }
                }
                black_box((hits, sum))
            });
        });
        group.bench_function(BenchmarkId::new("probe", format!("r{ratio}")), |bench| {
            bench.iter(|| {
                let mut prober = index.prober(fiber.as_view());
                let mut hits = 0u64;
                let mut sum = 0.0f32;
                for &k in &k_list {
                    if let Some((_, v)) = prober.probe(k) {
                        hits += 1;
                        sum += v;
                    }
                }
                black_box((hits, sum))
            });
        });
    }

    // Dense accumulator: fixed element volume, widening span.
    let ways = 16usize;
    let len = 256usize;
    let nnz = (ways * len) as u64;
    for spe in [2u64, 4, 8, 16, 32, 64, 128, 256, 512] {
        let span = nnz * spe;
        let fibers: Vec<Fiber> = (0..ways)
            .map(|s| intersection_fiber(len, span as u32, 400 + spe * 31 + s as u64))
            .collect();
        let (lo, hi) = (0u32, span as u32 - 1);
        // A hint of one element per coordinate admits any span under the
        // dense tier's absolute cap, so every ratio measures that tier.
        let mut acc = RowAccum::new();
        acc.begin(lo, hi, span);
        assert_eq!(acc.tier(), Some(AccumTier::Dense), "dense_accum s{spe}");
        acc.drain();
        group.bench_function(
            BenchmarkId::new("dense_accum", format!("s{spe}")),
            |bench| {
                bench.iter(|| {
                    acc.begin(lo, hi, span);
                    for f in &fibers {
                        acc.scatter_scaled(black_box(f.as_view()), 1.5);
                    }
                    acc.drain()
                });
            },
        );
    }
    group.finish();
}

/// The four vectorized kernel families A/B'd against their scalar twins
/// through the `vendor/simd` runtime override, so both legs pay the same
/// dispatch cost and differ only in which instruction sequence runs:
///
/// * `merge2/*` — the bimodal 2-way merge (`merge::merge_two`), on an
///   interleaved pair (run length ~1, the hostile shape) and a skewed pair
///   (long runs, where the vector prefix scan pays off).
/// * `dot/*`, `gallop/*` — the sorted-intersection inner loops.
/// * `drain/dense` — dense-tier accumulator scatter+drain; the drain half
///   is the bitmap-directed SIMD compress-store (scatter is scalar by
///   design).
/// * `bitmap_and/*` — `BitmapMatrix::intersect_count` over word masks.
///
/// Under `FLEXAGON_SIMD=off` both legs take the scalar path (the env
/// override wins over the runtime toggle) and the pairs should measure
/// equal — a property the differential tests rely on.
fn bench_simd_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("simd_kernels");

    let inter_a = intersection_fiber(4096, 16384, 51);
    let inter_b = intersection_fiber(4096, 16384, 52);
    let skew_a = intersection_fiber(512, 65536, 53);
    let skew_b = intersection_fiber(8192, 65536, 54);
    let skew_b_index = FiberIndex::build(skew_b.coords());
    let sparse_a = intersection_fiber(512, 1 << 24, 55);
    let sparse_b = intersection_fiber(512, 1 << 24, 56);

    let mut rng = ChaCha8Rng::seed_from_u64(61);
    let bm_a =
        BitmapMatrix::from_compressed(&gen::random(512, 4096, 0.05, MajorOrder::Row, &mut rng));
    let bm_b =
        BitmapMatrix::from_compressed(&gen::random(512, 4096, 0.05, MajorOrder::Row, &mut rng));

    let accum_fibers: Vec<Fiber> = (0..16)
        .map(|s| intersection_fiber(256, 1024, 2000 + s as u64))
        .collect();
    let (accum_lo, accum_hi, accum_nnz) = span_of(&accum_fibers);

    for (mode, forced) in [("scalar", true), ("simd", false)] {
        simd::set_scalar_only(forced);
        group.bench_function(BenchmarkId::new("merge2/interleaved", mode), |bench| {
            bench.iter(|| {
                merge::merge_two(black_box(inter_a.as_view()), black_box(inter_b.as_view()))
            });
        });
        group.bench_function(BenchmarkId::new("merge2/skewed", mode), |bench| {
            bench.iter(|| {
                merge::merge_two(black_box(skew_a.as_view()), black_box(skew_b.as_view()))
            });
        });
        group.bench_function(BenchmarkId::new("dot/balanced", mode), |bench| {
            bench.iter(|| black_box(inter_a.as_view()).dot(black_box(inter_b.as_view())));
        });
        group.bench_function(BenchmarkId::new("dot/sparse_span", mode), |bench| {
            bench.iter(|| black_box(sparse_a.as_view()).dot(black_box(sparse_b.as_view())));
        });
        group.bench_function(BenchmarkId::new("gallop/skewed", mode), |bench| {
            bench.iter(|| black_box(skew_a.as_view()).dot_gallop(black_box(skew_b.as_view())));
        });
        group.bench_function(BenchmarkId::new("probe/skewed", mode), |bench| {
            bench.iter(|| {
                black_box(skew_a.as_view())
                    .dot_probe(black_box(skew_b.as_view()), black_box(&skew_b_index))
            });
        });
        let mut acc = RowAccum::new();
        group.bench_function(BenchmarkId::new("drain/dense", mode), |bench| {
            bench.iter(|| {
                acc.begin(accum_lo, accum_hi, accum_nnz);
                for f in &accum_fibers {
                    acc.scatter_scaled(black_box(f.as_view()), 1.5);
                }
                acc.drain()
            });
        });
        group.bench_function(BenchmarkId::new("bitmap_and/512x4096", mode), |bench| {
            bench.iter(|| black_box(&bm_a).intersect_count(black_box(&bm_b)));
        });
    }
    simd::set_scalar_only(false);
    group.finish();
}

fn bench_conversion(c: &mut Criterion) {
    let (a, _) = operands(512, 0.1);
    c.bench_function("csr_to_csc_conversion_512", |bench| {
        bench.iter(|| black_box(&a).converted(MajorOrder::Col));
    });
}

/// `ways` sorted fibers of ~`len` elements each over a shared coordinate
/// space, so the merge sees realistic collision rates.
fn merge_inputs(ways: usize, len: usize) -> Vec<Fiber> {
    let mut rng = ChaCha8Rng::seed_from_u64(17);
    let space = (len * 4) as u64;
    let density = len as f64 / space as f64;
    (0..ways)
        .map(|_| {
            gen::random(1, space as u32, density, MajorOrder::Row, &mut rng)
                .fiber(0)
                .to_fiber()
        })
        .collect()
}

/// Lowest and highest coordinate and total element count of `fibers` —
/// the accumulator's `begin` arguments for that row.
fn span_of(fibers: &[Fiber]) -> (u32, u32, u64) {
    fibers
        .iter()
        .filter(|f| !f.is_empty())
        .fold((u32::MAX, 0, 0), |(lo, hi, nnz), f| {
            (
                lo.min(f.coords()[0]),
                hi.max(f.coords()[f.len() - 1]),
                nnz + f.len() as u64,
            )
        })
}

/// The tiered psum accumulators against the k-way merge they replace, per
/// tier: scatter+drain of `ways` scaled fibers vs `merge_accumulate` over
/// the same views. The shapes force each tier: a tight span for dense, a
/// huge span for the sorted-run list.
fn bench_accumulators(c: &mut Criterion) {
    let mut group = c.benchmark_group("accumulators");
    // (label, ways, len per fiber, coordinate space)
    let shapes: &[(&str, usize, usize, u32)] = &[
        ("dense/64x256", 64, 256, 1024),
        ("runs/16x256", 16, 256, 1 << 26),
    ];
    for &(label, ways, len, space) in shapes {
        let fibers: Vec<Fiber> = (0..ways)
            .map(|s| intersection_fiber(len, space, 1000 + s as u64))
            .collect();
        let (lo, hi, nnz) = span_of(&fibers);
        let tier = AccumTier::select((hi - lo) as u64 + 1, nnz);
        assert!(
            label.starts_with(tier.name()),
            "shape {label} selected tier {}",
            tier.name()
        );
        let mut acc = RowAccum::new();
        group.bench_function(BenchmarkId::new("scatter_drain", label), |bench| {
            bench.iter(|| {
                acc.begin(lo, hi, nnz);
                for f in &fibers {
                    acc.scatter_scaled(black_box(f.as_view()), 1.5);
                }
                acc.drain()
            });
        });
        let scaled: Vec<Fiber> = fibers.iter().map(|f| f.scaled(1.5)).collect();
        group.bench_function(BenchmarkId::new("kway_reference", label), |bench| {
            bench.iter(|| {
                let views: Vec<_> = scaled.iter().map(Fiber::as_view).collect();
                merge::merge_accumulate(black_box(&views))
            });
        });
    }
    group.finish();
}

fn bench_kway_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("kway_merge");
    for &(ways, len) in &[(2usize, 4096usize), (4, 2048), (16, 512), (64, 256)] {
        let fibers = merge_inputs(ways, len);
        group.bench_with_input(
            BenchmarkId::new("accumulate", format!("{ways}way")),
            &ways,
            |bench, _| {
                bench.iter(|| {
                    let views: Vec<_> = fibers.iter().map(Fiber::as_view).collect();
                    merge::merge_accumulate(black_box(&views))
                });
            },
        );
    }
    group.finish();
}

fn bench_execute(c: &mut Criterion) {
    let mut group = c.benchmark_group("execute");
    group.sample_size(10);
    let mut rng = ChaCha8Rng::seed_from_u64(23);
    let a = gen::random(256, 512, 0.15, MajorOrder::Row, &mut rng);
    let b = gen::random(512, 512, 0.25, MajorOrder::Row, &mut rng);
    let accel = Flexagon::with_defaults();
    for df in Dataflow::M_STATIONARY {
        group.bench_with_input(
            BenchmarkId::new("table5", df.loop_order()),
            &df,
            |bench, &df| {
                bench.iter(|| {
                    accel
                        .execute(ExecutionRequest::new(black_box(&a), black_box(&b)).dataflow(df))
                        .unwrap()
                });
            },
        );
    }
    // The N-stationary duality path (reinterpreted transposes) — the case the
    // clone-free engine optimizes hardest.
    group.bench_function("table5/NKM", |bench| {
        bench.iter(|| {
            accel
                .execute(
                    ExecutionRequest::new(black_box(&a), black_box(&b))
                        .dataflow(Dataflow::GustavsonN),
                )
                .unwrap()
        });
    });
    group.finish();
}

/// The CPU baseline's two entry points on one Table 6 layer per favoured
/// dataflow: `report` prices a symbolic nnz(C) (what every suite sweep
/// pays), `run` adds the numeric product through the reference kernel.
fn bench_cpu_baseline(c: &mut Criterion) {
    let mut group = c.benchmark_group("cpu_baseline");
    group.sample_size(10);
    let cpu = CpuMkl::with_defaults();
    for id in ["SQ11", "R6", "V7"] {
        let mats = table6::by_id(id)
            .expect("table 6 layer")
            .spec
            .materialize(DEFAULT_SEED);
        group.bench_function(BenchmarkId::new("report", id), |bench| {
            bench.iter(|| cpu.report(black_box(&mats.a), black_box(&mats.b)).unwrap());
        });
        group.bench_function(BenchmarkId::new("run", id), |bench| {
            bench.iter(|| cpu.run(black_box(&mats.a), black_box(&mats.b)).unwrap());
        });
    }
    group.finish();
}

/// The intra-layer-sharded engine over the same operands as
/// `bench_execute`: fixed band grain, worker count from
/// `FLEXAGON_SHARD_WORKERS` (default 4). On a multi-core host the
/// `execute_sharded/table5/*` numbers should beat `execute/table5/*`; on a
/// single hardware thread the workers oversubscribe and the comparison
/// measures the sharding overhead instead.
fn bench_execute_sharded(c: &mut Criterion) {
    let mut group = c.benchmark_group("execute_sharded");
    group.sample_size(10);
    let mut rng = ChaCha8Rng::seed_from_u64(23);
    let a = gen::random(256, 512, 0.15, MajorOrder::Row, &mut rng);
    let b = gen::random(512, 512, 0.25, MajorOrder::Row, &mut rng);
    let workers = std::env::var("FLEXAGON_SHARD_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4usize);
    let mut cfg = AcceleratorConfig::table5();
    cfg.engine = cfg.engine.sharded(2048, workers);
    let accel = Flexagon::new(cfg);
    for df in Dataflow::M_STATIONARY {
        group.bench_with_input(
            BenchmarkId::new("table5", df.loop_order()),
            &df,
            |bench, &df| {
                bench.iter(|| {
                    accel
                        .execute(ExecutionRequest::new(black_box(&a), black_box(&b)).dataflow(df))
                        .unwrap()
                });
            },
        );
    }
    group.bench_function("table5/NKM", |bench| {
        bench.iter(|| {
            accel
                .execute(
                    ExecutionRequest::new(black_box(&a), black_box(&b))
                        .dataflow(Dataflow::GustavsonN),
                )
                .unwrap()
        });
    });
    group.finish();
}

/// The storage-format tier's kernels: the blocked masked dot against the
/// SoA coordinate-compare baselines on dense-clustered fibers (the BCSR
/// sweet spot — one compare per block instead of per element), and whole-
/// matrix encode/decode throughput per format (the cost of producing or
/// reading an operand in that format; `q8` execution pays it once per
/// operand).
fn bench_format_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("format_kernels");

    // Clustered fibers: coordinates drawn from dense runs, the structure
    // block_sparse workloads hand the engine. ~1024 elements in runs of 8.
    let clustered = |seed: u64| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        gen::block_sparse(1, 16384, 8, 0.5, MajorOrder::Row, &mut rng)
            .fiber(0)
            .to_fiber()
    };
    let a = clustered(71);
    let b = clustered(72);
    let (a4, b4) = (
        BlockedFiber::encode(a.as_view(), 4),
        BlockedFiber::encode(b.as_view(), 4),
    );
    let (a8, b8) = (
        BlockedFiber::encode(a.as_view(), 8),
        BlockedFiber::encode(b.as_view(), 8),
    );
    group.bench_function("dot_clustered/soa", |bench| {
        bench.iter(|| black_box(a.as_view()).dot(black_box(b.as_view())));
    });
    group.bench_function("dot_clustered/bcsr4", |bench| {
        bench.iter(|| black_box(&a4).dot(black_box(&b4)));
    });
    group.bench_function("dot_clustered/bcsr8", |bench| {
        bench.iter(|| black_box(&a8).dot(black_box(&b8)));
    });

    // Whole-operand encode and decode per format over a clustered matrix.
    let mut rng = ChaCha8Rng::seed_from_u64(73);
    let m = gen::block_sparse(256, 1024, 8, 0.25, MajorOrder::Row, &mut rng);
    for format in FiberFormat::ALL {
        if format == FiberFormat::Soa {
            continue;
        }
        group.bench_function(BenchmarkId::new("encode", format.token()), |bench| {
            bench.iter(|| FormattedMatrix::encode(black_box(&m), format));
        });
        let enc = FormattedMatrix::encode(&m, format);
        group.bench_function(BenchmarkId::new("decode", format.token()), |bench| {
            bench.iter(|| black_box(&enc).decode());
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_kernels,
    bench_intersection,
    bench_threshold_probe,
    bench_simd_kernels,
    bench_conversion,
    bench_accumulators,
    bench_kway_merge,
    bench_execute,
    bench_format_kernels,
    bench_execute_sharded,
    bench_cpu_baseline
);
criterion_main!(benches);
