//! Workload statistics: matrix shape metrics and SpMSpM work estimates.
//!
//! These drive both the workload tables (Tables 2 and 6) and the mapper's
//! heuristics: the winning dataflow is a function of dimensions, sparsity
//! degree and compressed sizes relative to on-chip capacity.

use crate::{CompressedMatrix, FormatError, MajorOrder, MatrixView, Result};
use serde::{Deserialize, Serialize};

/// Shape/sparsity summary of one matrix (the `sp`/`cs` columns of Table 6).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MatrixStats {
    /// Number of rows.
    pub rows: u32,
    /// Number of columns.
    pub cols: u32,
    /// Stored non-zeros.
    pub nnz: usize,
    /// Sparsity in percent (paper convention: `100 * (1 - density)`).
    pub sparsity_percent: f64,
    /// Compressed size in bytes (elements + pointer vector).
    pub compressed_bytes: u64,
    /// Mean fiber occupancy.
    pub avg_fiber_len: f64,
    /// Longest fiber.
    pub max_fiber_len: usize,
    /// Number of completely empty fibers.
    pub empty_fibers: u32,
}

impl MatrixStats {
    /// Computes statistics for a compressed matrix.
    pub fn of(m: &CompressedMatrix) -> Self {
        let mut max_fiber_len = 0;
        let mut empty_fibers = 0;
        for (_, f) in m.fibers() {
            max_fiber_len = max_fiber_len.max(f.len());
            if f.is_empty() {
                empty_fibers += 1;
            }
        }
        Self {
            rows: m.rows(),
            cols: m.cols(),
            nnz: m.nnz(),
            sparsity_percent: m.sparsity_percent(),
            compressed_bytes: m.compressed_size_bytes(),
            avg_fiber_len: if m.major_dim() == 0 {
                0.0
            } else {
                m.nnz() as f64 / m.major_dim() as f64
            },
            max_fiber_len,
            empty_fibers,
        }
    }

    /// Compressed size in KiB (Table 6 unit).
    pub fn compressed_kib(&self) -> f64 {
        self.compressed_bytes as f64 / 1024.0
    }

    /// Compressed size in MiB (Table 2 unit).
    pub fn compressed_mib(&self) -> f64 {
        self.compressed_bytes as f64 / (1024.0 * 1024.0)
    }
}

/// Work profile of an SpMSpM operation `A × B`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpGemmWork {
    /// Effectual scalar products: `Σ_k nnz(A[:,k]) · nnz(B[k,:])`.
    ///
    /// This is both the multiply count of OP/Gust and the partial-sum volume
    /// they must merge; IP performs the same multiplies but discovers them
    /// through intersection.
    pub products: u64,
    /// Non-zeros of A.
    pub nnz_a: u64,
    /// Non-zeros of B.
    pub nnz_b: u64,
    /// Number of `k` values where both A has a non-empty column and B a
    /// non-empty row (effectual co-iterations).
    pub effectual_k: u32,
}

impl SpGemmWork {
    /// Computes the work profile. Operands may be in either major order.
    pub fn of(a: &CompressedMatrix, b: &CompressedMatrix) -> Self {
        Self::of_views(a.view(), b.view())
    }

    /// Computes the work profile from borrowed views (the engine's
    /// allocation-free path).
    pub fn of_views(a: MatrixView<'_>, b: MatrixView<'_>) -> Self {
        let a_col_counts = major_counts(a, MajorOrder::Col);
        let b_row_counts = major_counts(b, MajorOrder::Row);
        let mut products = 0u64;
        let mut effectual_k = 0u32;
        for k in 0..a.cols().min(b.rows()) as usize {
            let (ac, br) = (a_col_counts[k] as u64, b_row_counts[k] as u64);
            if ac > 0 && br > 0 {
                effectual_k += 1;
                products += ac * br;
            }
        }
        Self {
            products,
            nnz_a: a.nnz() as u64,
            nnz_b: b.nnz() as u64,
            effectual_k,
        }
    }

    /// Ratio of products to output-relevant input volume — a rough proxy for
    /// how much merging OP-style dataflows will do.
    pub fn expansion_factor(&self) -> f64 {
        if self.nnz_a + self.nnz_b == 0 {
            0.0
        } else {
            self.products as f64 / (self.nnz_a + self.nnz_b) as f64
        }
    }
}

/// Structural size of `A × B`: the number of distinct `(i, j)` reached by at
/// least one product `A[i,k]·B[k,j]`.
///
/// Values are never read, so explicitly stored zeros count like any other
/// entry — exactly as the reference kernels keep them, which makes this
/// equal to `reference::gustavson(a, b)?.nnz()` without computing C. One
/// `u32` marker per output column makes the pass O(products) with no
/// allocation per row. Operands are walked in their native order when both
/// are CSR or both are CSC; mixed orders convert the smaller operand.
///
/// # Errors
///
/// Returns [`FormatError::DimensionMismatch`] on inner-dimension mismatch.
pub fn output_nnz(a: MatrixView<'_>, b: MatrixView<'_>) -> Result<u64> {
    if a.cols() != b.rows() {
        return Err(FormatError::DimensionMismatch {
            left_cols: a.cols(),
            right_rows: b.rows(),
        });
    }
    match (a.order(), b.order()) {
        (MajorOrder::Row, MajorOrder::Row) => Ok(row_wise_nnz(a, b)),
        // CSC operands are CSR of their transposes, and Cᵀ = Bᵀ·Aᵀ has the
        // same number of non-zeros as C.
        (MajorOrder::Col, MajorOrder::Col) => Ok(row_wise_nnz(
            b.reinterpret_transposed(),
            a.reinterpret_transposed(),
        )),
        (_, b_order) if a.nnz() <= b.nnz() => output_nnz(a.converted(b_order).view(), b),
        (a_order, _) => output_nnz(a, b.converted(a_order).view()),
    }
}

/// Symbolic Gustavson over CSR operands: `marker[j]` holds one plus the
/// last row of A that reached output column `j`.
fn row_wise_nnz(a: MatrixView<'_>, b: MatrixView<'_>) -> u64 {
    let mut marker = vec![0u32; b.cols() as usize];
    let mut nnz = 0u64;
    for (i, a_row) in a.fibers() {
        // `i < rows <= u32::MAX`, so the stamp cannot overflow.
        let stamp = i + 1;
        for &k in a_row.coords() {
            for &j in b.fiber(k).coords() {
                let seen = &mut marker[j as usize];
                if *seen != stamp {
                    *seen = stamp;
                    nnz += 1;
                }
            }
        }
    }
    nnz
}

/// nnz per major index of `m` *as if* compressed in `order`, without
/// converting (counts only).
fn major_counts(m: MatrixView<'_>, order: MajorOrder) -> Vec<u32> {
    let dim = match order {
        MajorOrder::Row => m.rows(),
        MajorOrder::Col => m.cols(),
    } as usize;
    let mut counts = vec![0u32; dim];
    if m.order() == order {
        for (major, f) in m.fibers() {
            counts[major as usize] = f.len() as u32;
        }
    } else {
        for &c in m.coords() {
            counts[c as usize] += 1;
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn matrix_stats_basic() {
        let m = CompressedMatrix::from_triplets(
            2,
            4,
            &[(0, 0, 1.0), (0, 1, 1.0), (0, 2, 1.0)],
            MajorOrder::Row,
        )
        .unwrap();
        let s = MatrixStats::of(&m);
        assert_eq!(s.nnz, 3);
        assert_eq!(s.max_fiber_len, 3);
        assert_eq!(s.empty_fibers, 1);
        assert!((s.avg_fiber_len - 1.5).abs() < 1e-9);
        assert!((s.sparsity_percent - 62.5).abs() < 1e-9);
    }

    #[test]
    fn units_are_consistent() {
        let m = gen::diagonal(1024, 1.0, MajorOrder::Row);
        let s = MatrixStats::of(&m);
        assert!((s.compressed_kib() * 1024.0 - s.compressed_bytes as f64).abs() < 1e-9);
        assert!((s.compressed_mib() * 1024.0 - s.compressed_kib()).abs() < 1e-9);
    }

    #[test]
    fn work_products_match_manual_count() {
        // A: col0 has 2 nnz, col1 has 1; B: row0 has 3 nnz, row1 has 0.
        let a = CompressedMatrix::from_triplets(
            2,
            2,
            &[(0, 0, 1.0), (1, 0, 1.0), (0, 1, 1.0)],
            MajorOrder::Row,
        )
        .unwrap();
        let b = CompressedMatrix::from_triplets(
            2,
            3,
            &[(0, 0, 1.0), (0, 1, 1.0), (0, 2, 1.0)],
            MajorOrder::Row,
        )
        .unwrap();
        let w = SpGemmWork::of(&a, &b);
        assert_eq!(w.products, 2 * 3);
        assert_eq!(w.effectual_k, 1);
        assert_eq!(w.nnz_a, 3);
        assert_eq!(w.nnz_b, 3);
    }

    #[test]
    fn work_is_order_independent() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let a = gen::random(20, 30, 0.2, MajorOrder::Row, &mut rng);
        let b = gen::random(30, 10, 0.3, MajorOrder::Row, &mut rng);
        let w1 = SpGemmWork::of(&a, &b);
        let w2 = SpGemmWork::of(&a.converted(MajorOrder::Col), &b.converted(MajorOrder::Col));
        assert_eq!(w1, w2);
    }

    #[test]
    fn expansion_factor_zero_for_empty() {
        let a = CompressedMatrix::zero(3, 3, MajorOrder::Row);
        let w = SpGemmWork::of(&a, &a);
        assert_eq!(w.expansion_factor(), 0.0);
    }

    #[test]
    fn products_equal_gustavson_scaled_fiber_volume() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let a = gen::random(15, 12, 0.3, MajorOrder::Row, &mut rng);
        let b = gen::random(12, 18, 0.4, MajorOrder::Row, &mut rng);
        let w = SpGemmWork::of(&a, &b);
        let mut manual = 0u64;
        for (_, a_row) in a.fibers() {
            for e in a_row.iter() {
                manual += b.fiber_len(e.coord) as u64;
            }
        }
        assert_eq!(w.products, manual);
    }
}
