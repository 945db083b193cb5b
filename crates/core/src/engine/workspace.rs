//! Per-band execution scratch.
//!
//! Every band needs a pile of scratch state — tile plans, per-row
//! accumulator pools, stamp/span vectors, k-entry tables, scaled-fiber
//! pools. [`EngineWorkspace`] gathers it in one arena that `execute` builds
//! fresh for each band: buffers are sized once per band and reused across
//! its tiles, kept clean between tiles by the loops that use them.

use super::tiling::{ColPlan, RowPlan};
use flexagon_sparse::{Fiber, RowAccum, Value};
use std::collections::HashMap;

/// Scratch arena for one in-flight execution band.
///
/// Fields are grouped by the dataflow class that uses them; the shared
/// fields at the top serve every class. All buffers keep their allocations
/// across the band's tiles.
#[derive(Debug, Default)]
pub(crate) struct EngineWorkspace {
    // --- shared -----------------------------------------------------------
    /// Row-stationary tile plan (IP, Gustavson).
    pub row_plan: RowPlan,
    /// Column-stationary tile plan (Outer Product).
    pub col_plan: ColPlan,
    /// Per-row accumulator pool (Outer Product scatter targets, Gustavson
    /// split-row run collectors).
    pub pool: Vec<RowAccum>,
    /// Free indices into `pool`.
    pub free: Vec<u32>,
    /// Band-row -> `pool` index, `u32::MAX` when unassigned.
    pub accum_of: Vec<u32>,

    // --- Outer Product ----------------------------------------------------
    /// Per-band-row tile stamp (deduplicates `(tile, row)` pairs).
    pub stamp: Vec<u32>,
    /// Tiles still owing psums to each band row.
    pub tiles_left: Vec<u32>,
    /// Incoming-psum span low bound per band row.
    pub span_lo: Vec<u32>,
    /// Incoming-psum span high bound per band row.
    pub span_hi: Vec<u32>,
    /// Incoming-psum element count per band row.
    pub span_nnz: Vec<u64>,
    /// DRAM-resident partial fibers per band row.
    pub pending: Vec<Vec<Fiber>>,
    /// Rows touched by the current tile.
    pub touched: Vec<u32>,

    // --- Gustavson --------------------------------------------------------
    /// The in-flight cluster's accumulator.
    pub cluster_acc: RowAccum,

    // --- Inner Product ----------------------------------------------------
    /// k -> `(cluster, stationary value)` entries for the current tile.
    /// Entries are cleared by the tile that filled them.
    pub k_entries: Vec<Vec<(u32, Value)>>,
    /// One-bit-per-k membership mask, cleared by the tile that set it.
    pub k_mask: Vec<u64>,
    /// Distinct stationary ks of the current tile, ascending.
    pub touched_k: Vec<u32>,
    /// Dense `clusters x N` accumulator grid (k-indexed path). Zeroed by
    /// the emission sweep.
    pub grid_acc: Vec<Value>,
    /// Hit bits over `grid_acc`, likewise swept clean.
    pub grid_hit: Vec<u64>,
    /// Per-column injected-element tallies, reset by the accounting sweep.
    pub injected_n: Vec<u32>,
    /// Per-column delivered-element tallies, reset by the accounting sweep.
    pub delivered_n: Vec<u64>,
    /// Per-cluster dot accumulator (streaming path), zeroed per emission.
    pub cl_acc: Vec<Value>,
    /// Per-cluster hit flags (streaming path), cleared per emission.
    pub cl_hit: Vec<bool>,
    /// Clusters hit by the current streaming fiber.
    pub hit_list: Vec<u32>,
    /// Cross-tile accumulators for rows split into multiple chunks.
    pub split_acc: HashMap<u32, HashMap<u32, Value>>,
}

impl EngineWorkspace {
    /// Sizes the band-row-indexed scratch for a band of `rows` output
    /// rows. Stamps and assignment tables start unassigned; the span
    /// vectors are re-derived per tile.
    pub fn reset_band_rows(&mut self, rows: usize) {
        self.stamp = vec![u32::MAX; rows];
        self.tiles_left = vec![0; rows];
        self.accum_of = vec![u32::MAX; rows];
        self.span_lo = vec![0; rows];
        self.span_hi = vec![0; rows];
        self.span_nnz = vec![0; rows];
        self.pending = vec![Vec::new(); rows];
    }

    /// Sizes the Inner-Product k-indexed scratch (`k_entries`, `k_mask`)
    /// for a K dimension of `k_dim`.
    pub fn reset_k(&mut self, k_dim: usize) {
        self.k_entries = vec![Vec::new(); k_dim];
        self.k_mask = vec![0; k_dim.div_ceil(64)];
    }

    /// Sizes the Inner-Product dense accumulator grid for `slots` clusters
    /// by `n_dim` output columns, plus the per-column tallies.
    pub fn reset_grid(&mut self, slots: usize, n_dim: usize) {
        self.grid_acc = vec![0.0; slots * n_dim];
        self.grid_hit = vec![0; slots * n_dim.div_ceil(64)];
        self.injected_n = vec![0; n_dim];
        self.delivered_n = vec![0; n_dim];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_band_rows_restamps() {
        let mut ws = EngineWorkspace::default();
        ws.reset_band_rows(3);
        ws.stamp[1] = 0;
        ws.tiles_left[2] = 9;
        ws.accum_of[0] = 5;
        ws.reset_band_rows(3);
        assert!(ws.stamp.iter().all(|&s| s == u32::MAX));
        assert!(ws.tiles_left.iter().all(|&t| t == 0));
        assert!(ws.accum_of.iter().all(|&a| a == u32::MAX));
    }
}
