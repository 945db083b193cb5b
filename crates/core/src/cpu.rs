//! The CPU MKL baseline (paper §4).
//!
//! The paper measures Intel MKL's SpMSpM on a 4-core i5-7400 at 3 GHz and
//! reports total cycles per model (Table 2, last column). We cannot run
//! MKL; instead we charge a calibrated superscalar-CPU cost model over the
//! work profile of `A × B` and the size of C. Pricing needs only structure:
//! [`CpuMkl::report`] takes `nnz(C)` from a symbolic pass
//! ([`stats::output_nnz`]) and never computes C, while [`CpuMkl::run`] adds
//! the functional output from the software Gustavson kernel. The model only
//! needs to place the CPU 1–2 orders of magnitude behind the accelerators —
//! the property Fig. 12's speed-ups rest on — and its two constants are
//! documented and tunable.

use crate::{Dataflow, ExecutionReport, Result, RunOutput, TrafficReport};
use flexagon_sim::{CounterSet, Cycle, Phase, PhaseClock, Ratio};
use flexagon_sparse::{
    reference,
    stats::{self, SpGemmWork},
    CompressedMatrix,
};
use serde::{Deserialize, Serialize};

/// Cost-model constants for the CPU baseline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CpuConfig {
    /// Cycles per effectual multiply-accumulate.
    ///
    /// MKL's sparse-sparse kernel is gather/scatter-bound: each product
    /// involves an index load, a value load, a hash/accumulator update and
    /// poor SIMD utilization. The default (4 cycles/product across the
    /// whole chip) reproduces the order of magnitude of Table 2's measured
    /// cycle counts on our synthetic suite.
    pub cycles_per_product: f64,
    /// Cycles per compressed input/output element touched (streaming the
    /// operands and writing the result through the cache hierarchy).
    pub cycles_per_element: f64,
}

impl Default for CpuConfig {
    fn default() -> Self {
        Self {
            cycles_per_product: 4.0,
            cycles_per_element: 2.0,
        }
    }
}

/// The CPU MKL stand-in: a cycle model over the product's structure, plus
/// software Gustavson SpGEMM when the output itself is wanted.
#[derive(Debug, Clone, Default)]
pub struct CpuMkl {
    cfg: CpuConfig,
}

impl CpuMkl {
    /// Creates a CPU baseline with the given cost model.
    pub fn new(cfg: CpuConfig) -> Self {
        Self { cfg }
    }

    /// Creates a CPU baseline with the default calibration.
    pub fn with_defaults() -> Self {
        Self::new(CpuConfig::default())
    }

    /// The cost-model constants.
    pub fn config(&self) -> CpuConfig {
        self.cfg
    }

    /// Prices `a x b` (any input formats) without computing the product:
    /// the cycle estimate of an [`ExecutionReport`] from the work profile
    /// and a symbolic `nnz(C)`.
    ///
    /// The report reuses the accelerator schema: all cycles land in the
    /// streaming phase, and no on-chip structures are modelled.
    ///
    /// # Errors
    ///
    /// Returns a format error on dimension mismatch.
    pub fn report(&self, a: &CompressedMatrix, b: &CompressedMatrix) -> Result<ExecutionReport> {
        let nnz_c = stats::output_nnz(a.view(), b.view())?;
        let work = SpGemmWork::of(a, b);
        let cycles = self.estimate_cycles(&work, nnz_c);
        let mut phases = PhaseClock::new();
        phases.advance(Phase::Streaming, cycles);
        Ok(ExecutionReport {
            dataflow: Dataflow::GustavsonM,
            total_cycles: cycles,
            phases,
            traffic: TrafficReport::default(),
            cache: Ratio::new(),
            psram: flexagon_mem::PsramUsage::default(),
            work,
            tiles: 0,
            multiplications: work.products,
            explicit_conversions: 0,
            counters: CounterSet::new(),
        })
    }

    /// Executes `a x b` (any input formats; CSR output): the
    /// [`CpuMkl::report`] price plus the product from the software
    /// Gustavson kernel.
    ///
    /// # Errors
    ///
    /// Returns a format error on dimension mismatch.
    pub fn run(&self, a: &CompressedMatrix, b: &CompressedMatrix) -> Result<RunOutput> {
        let report = self.report(a, b)?;
        let c = reference::spgemm(a, b)?;
        Ok(RunOutput { c, report })
    }

    /// The cycle estimate for a given work profile and output size.
    pub fn estimate_cycles(&self, work: &SpGemmWork, nnz_c: u64) -> Cycle {
        let elements = work.nnz_a + work.nnz_b + nnz_c;
        let cycles = self.cfg.cycles_per_product * work.products as f64
            + self.cfg.cycles_per_element * elements as f64;
        cycles.ceil() as Cycle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexagon_sparse::{gen, DenseMatrix, MajorOrder};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn cpu_result_matches_dense_reference() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let a = gen::random(12, 15, 0.3, MajorOrder::Row, &mut rng);
        let b = gen::random(15, 9, 0.4, MajorOrder::Col, &mut rng);
        let out = CpuMkl::with_defaults().run(&a, &b).unwrap();
        let want = DenseMatrix::from_compressed(&a)
            .matmul(&DenseMatrix::from_compressed(&b))
            .unwrap();
        assert!(DenseMatrix::from_compressed(&out.c).approx_eq(&want, 1e-3));
    }

    #[test]
    fn cycles_scale_with_work() {
        let cpu = CpuMkl::with_defaults();
        let small = SpGemmWork {
            products: 100,
            nnz_a: 10,
            nnz_b: 10,
            effectual_k: 5,
        };
        let large = SpGemmWork {
            products: 10_000,
            nnz_a: 10,
            nnz_b: 10,
            effectual_k: 5,
        };
        assert!(cpu.estimate_cycles(&large, 100) > cpu.estimate_cycles(&small, 100));
    }

    #[test]
    fn empty_product_costs_nothing_but_elements() {
        let cpu = CpuMkl::with_defaults();
        let w = SpGemmWork {
            products: 0,
            nnz_a: 0,
            nnz_b: 0,
            effectual_k: 0,
        };
        assert_eq!(cpu.estimate_cycles(&w, 0), 0);
    }

    #[test]
    fn config_is_tunable() {
        let cpu = CpuMkl::new(CpuConfig {
            cycles_per_product: 10.0,
            cycles_per_element: 0.0,
        });
        let w = SpGemmWork {
            products: 7,
            nnz_a: 0,
            nnz_b: 0,
            effectual_k: 1,
        };
        assert_eq!(cpu.estimate_cycles(&w, 0), 70);
    }
}
