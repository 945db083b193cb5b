//! The CPU baseline's two entry points on the Table 6 layers: the
//! structure-only `CpuMkl::report` must price exactly what `CpuMkl::run`
//! reports alongside the computed product, and the absolute cycles stay
//! pinned to the values the cost model has always produced.

use flexagon_core::CpuMkl;
use flexagon_dnn::table6;

/// The workload seed of the benchmark harness (`flexagon_bench::DEFAULT_SEED`).
const DEFAULT_SEED: u64 = 0xF1E_CA60;

#[test]
fn report_serializes_identically_to_run() {
    // `run` computes C through the reference kernel, which dominates this
    // test in unoptimized builds; the layers are independent, so each gets
    // its own thread.
    std::thread::scope(|scope| {
        for layer in table6::layers() {
            scope.spawn(move || {
                let cpu = CpuMkl::with_defaults();
                let mats = layer.spec.materialize(DEFAULT_SEED);
                let priced = cpu.report(&mats.a, &mats.b).unwrap();
                let run = cpu.run(&mats.a, &mats.b).unwrap();
                assert_eq!(
                    serde_json::to_string(&priced).unwrap(),
                    serde_json::to_string(&run.report).unwrap(),
                    "{}",
                    layer.id
                );
                assert_eq!(
                    priced.total_cycles,
                    cpu.estimate_cycles(&priced.work, run.c.nnz() as u64),
                    "{}: priced nnz(C) differs from the computed C",
                    layer.id
                );
            });
        }
    });
}

#[test]
fn cpu_cycles_are_pinned() {
    // Recorded from `CpuMkl::run` when it still priced the computed C.
    let pinned = [
        ("SQ5", 3_814_368),
        ("R4", 24_250_148),
        ("R6", 24_607_566),
        ("MB215", 1_129_554),
        ("A2", 44_944_862),
    ];
    let cpu = CpuMkl::with_defaults();
    for (id, cycles) in pinned {
        let mats = table6::by_id(id).unwrap().spec.materialize(DEFAULT_SEED);
        let report = cpu.report(&mats.a, &mats.b).unwrap();
        assert_eq!(report.total_cycles, cycles, "{id}");
    }
}
