//! The Inner-Product(M) phase loop (paper §3.2.1, Fig. 5).
//!
//! Stationary: as many row fibers of A (CSR) as possible map onto the
//! multipliers, forming clusters that each compute dot products for one
//! output row. Streaming: every column fiber of B (CSC) is examined by the
//! controller, which sends only intersecting elements into the distribution
//! network ("the controller uses the row coordinate of each element in the
//! fiber of B to detect whether it intersects"); the MRN reduces each
//! cluster's products into a full sum. No partial sums ever reach the
//! PSRAM — rows longer than the array accumulate temporally in the
//! cluster's output register across consecutive tiles, which is why the
//! SIGMA-like bars of Fig. 14 show zero psum traffic while paying a full
//! re-stream of B per tile.
//!
//! The *hardware* re-streams B once per tile and that is what the cycle and
//! traffic accounting charges, identically in every path below. The
//! *software* does not have to. Two indexed intersection strategies replace
//! the per-tile re-scan of all of B:
//!
//! * `run_indexed` (taken when K is large relative to the array) walks a
//!   k-indexed copy of B — only the rows matching the tile's stationary
//!   coordinates are touched, the Gamma-style schedule — at
//!   `O(Σ_{k∈tile} nnz(B_row_k))` per tile instead of `O(nnz(B))`.
//! * `run_streaming` keeps the scan shape but lets each fiber pick its
//!   short side: scan the fiber against the tile's bit mask, or probe the
//!   fiber's tiered [`MatrixIndex`](flexagon_sparse::MatrixIndex) with the
//!   tile's sorted stationary coordinates through a skip-ahead
//!   [`Prober`](flexagon_sparse::Prober).
//!
//! The strategy choice and its precomputation (`B` re-majored by k, or the
//! tiered index) are hoisted to the execution level ([`super::IpShared`])
//! so every band of a sharded run shares one copy.
//!
//! Every path visits the matches of a given (cluster, streaming fiber) pair
//! in ascending k, so each accumulator register receives its additions in
//! the exact order of the original scan and execution reports stay
//! bit-identical across strategies. All scratch state lives in the band's
//! [`EngineWorkspace`], sized once per band and reused across its tiles.

use super::workspace::EngineWorkspace;
use super::{tiling, Engine, IpShared};
use flexagon_sim::{bottleneck, Phase};
use flexagon_sparse::{CompressedMatrix, Element, Fiber, MatrixIndex, MatrixView, Value};
use std::collections::HashMap;

/// Cross-tile accumulators for rows split into multiple chunks.
type SplitAcc = HashMap<u32, HashMap<u32, Value>>;

pub(super) fn run(e: &mut Engine<'_>, ws: &mut EngineWorkspace, shared: &IpShared) {
    let k_dim = e.a.cols() as usize;
    let n_dim = e.b.major_dim() as usize;
    ws.reset_k(k_dim);
    if matches!(shared, IpShared::Indexed(_)) {
        ws.reset_grid(e.cfg.multipliers as usize, n_dim);
    }
    let EngineWorkspace {
        row_plan,
        k_entries,
        k_mask,
        touched_k,
        grid_acc,
        grid_hit,
        injected_n,
        delivered_n,
        cl_acc,
        cl_hit,
        hit_list,
        split_acc,
        ..
    } = ws;
    tiling::plan_rows(e.a, e.cfg.multipliers, e.band.clone(), row_plan);
    match shared {
        IpShared::Indexed(b_by_k) => run_indexed(
            e,
            row_plan,
            b_by_k,
            k_entries,
            touched_k,
            grid_acc,
            grid_hit,
            injected_n,
            delivered_n,
            split_acc,
        ),
        IpShared::Streaming(b_index) => run_streaming(
            e, row_plan, b_index, k_entries, k_mask, touched_k, cl_acc, cl_hit, hit_list, split_acc,
        ),
    }
    // A cancelled tile loop leaves nothing worth assembling: the band is
    // discarded wholesale by `execute`.
    if e.is_cancelled() {
        return;
    }

    // Assemble rows that accumulated across tiles. Their elements were held
    // in the cluster output registers, so only the final store is charged.
    let mut split_rows: Vec<u32> = split_acc.keys().copied().collect();
    split_rows.sort_unstable();
    let mut split_elems = 0u64;
    for row in split_rows {
        let entries = split_acc.remove(&row).expect("key from map");
        let fiber: Fiber = entries
            .into_iter()
            .map(|(n, v)| Element::new(n, v))
            .collect();
        split_elems += fiber.len() as u64;
        e.wbuf.write(fiber.len() as u64, &mut e.dram);
        let idx = e.band_idx(row);
        e.out_fibers[idx] = fiber;
    }
    if split_elems > 0 {
        e.counters.add("ip.split_row_elements", split_elems);
        let drain = e.merge_cycles(split_elems);
        e.advance_with_dram(Phase::Streaming, drain);
    }
}

/// Fills `k_entries` with the tile's stationary coordinates — `k` maps to
/// the `(cluster, stationary value)` pairs holding it — and `touched_k` with
/// the distinct ks in ascending order. Shared by both tile loops: their
/// accumulation inputs must be built identically for reports to stay
/// bit-identical across paths.
fn index_tile(
    a: MatrixView<'_>,
    tile: &[tiling::Cluster],
    k_entries: &mut [Vec<(u32, Value)>],
    touched_k: &mut Vec<u32>,
) {
    touched_k.clear();
    for (ci, cl) in tile.iter().enumerate() {
        for el in cl.chunk_of(a).iter() {
            let slot = &mut k_entries[el.coord as usize];
            if slot.is_empty() {
                touched_k.push(el.coord);
            }
            slot.push((ci as u32, el.value));
        }
    }
    // Ascending order is what the prober's skip-ahead cursor needs, and it
    // reproduces the accumulation order of a plain fiber scan.
    touched_k.sort_unstable();
}

/// Records `value` as cluster `cl`'s finished dot product for column `n`.
#[inline]
fn emit_dot(
    e: &mut Engine<'_>,
    cl: &tiling::Cluster,
    n: u32,
    value: Value,
    final_elems: &mut u64,
    split_acc: &mut SplitAcc,
) {
    if cl.is_whole_row() {
        let idx = e.band_idx(cl.row);
        e.out_fibers[idx].push(Element::new(n, value));
        *final_elems += 1;
    } else {
        *split_acc.entry(cl.row).or_default().entry(n).or_insert(0.0) += value;
    }
}

/// The k-indexed tile loop: probe B through its row index, touching only the
/// rows the tile holds stationary.
#[allow(clippy::too_many_arguments)]
fn run_indexed(
    e: &mut Engine<'_>,
    plan: &tiling::RowPlan,
    b_by_k: &CompressedMatrix,
    k_entries: &mut [Vec<(u32, Value)>],
    touched_k: &mut Vec<u32>,
    acc: &mut [Value],
    hit: &mut [u64],
    injected_n: &mut [u32],
    delivered_n: &mut [u64],
    split_acc: &mut SplitAcc,
) {
    let (a, b) = (e.a, e.b);
    let n_dim = b.major_dim() as usize;
    let n_words = n_dim.div_ceil(64);

    for tile in plan.tiles() {
        // Tile boundary: a fired token stops before the next tile streams.
        if e.is_cancelled() {
            return;
        }
        e.stationary_phase(tiling::slots_used(tile));

        index_tile(a, tile, k_entries, touched_k);

        // Intersection phase: only the stationary ks' rows of B are read.
        for &k in touched_k.iter() {
            let row = b_by_k.fiber(k);
            let entries = &k_entries[k as usize];
            for (&n, &bval) in row.coords().iter().zip(row.values()) {
                let n = n as usize;
                injected_n[n] += 1;
                delivered_n[n] += entries.len() as u64;
                for &(ci, aval) in entries {
                    let ci = ci as usize;
                    hit[ci * n_words + (n >> 6)] |= 1u64 << (n & 63);
                    acc[ci * n_dim + n] += aval * bval;
                }
            }
        }

        // Accounting + emission sweep in ascending n — the same per-fiber
        // sequence of cache reads, network charges and output pushes the
        // streaming scan produces.
        let mut streaming = 0u64;
        let mut injected_tile = 0u64;
        let mut delivered_tile = 0u64;
        let mut final_elems = 0u64;
        for n in 0..n_dim {
            let len = b.fiber_len(n as u32) as u64;
            if len == 0 {
                continue;
            }
            let start = e.b_elem_offset(n as u32);
            e.cache.read_range(start, len, &mut e.dram);
            let injected = u64::from(injected_n[n]);
            let intersections = delivered_n[n];
            injected_n[n] = 0;
            delivered_n[n] = 0;
            injected_tile += injected;
            delivered_tile += intersections;
            let mult = e.mn.multiply(intersections);
            e.mrn.reduce(intersections);
            streaming += bottleneck(&[e.dn_cycles(len), mult]);
            if injected > 0 {
                let (word, bit) = (n >> 6, 1u64 << (n & 63));
                for (ci, cl) in tile.iter().enumerate() {
                    let w = &mut hit[ci * n_words + word];
                    if *w & bit == 0 {
                        continue;
                    }
                    *w &= !bit;
                    let slot = ci * n_dim + n;
                    let value = acc[slot];
                    acc[slot] = 0.0;
                    emit_dot(e, cl, n as u32, value, &mut final_elems, split_acc);
                }
            }
        }
        e.dn.send_irregular(injected_tile, delivered_tile.max(injected_tile));
        streaming += e.mrn.fill_latency();
        e.wbuf.write(final_elems, &mut e.dram);
        e.advance_with_dram(Phase::Streaming, streaming);

        for &k in touched_k.iter() {
            k_entries[k as usize].clear();
        }
    }
}

/// Streaming loop: probe a fiber's index with the tile's stationary list
/// (instead of mask-scanning the fiber) when
/// `stationary_coords * PROBE_GATE_FACTOR <= fiber_len`.
///
/// Derived from `threshold_probe/{scan,probe}`: a mask-scan of a
/// 4096-element fiber is flat (~3.6 µs) while probing with a stationary
/// list `R` times shorter scales down with `R` (6.1 µs at R=1, 3.0 µs at
/// R=2, 1.5 µs at R=4) — the crossover sits between R=1 and R=2, so the
/// gate probes from a 2:1 length ratio on. (The previous hand-tuned value
/// of 4 left the 2–4x band on the slower scan path.)
///
/// Re-checked on the SIMD build (the bitmap tier that dominates these
/// fixtures is untouched by SIMD, but inlining around `Prober::probe`
/// shifted): a lib-level microbench pins the bitmap probe at the same
/// ~1.6 ns/probe as the pre-SIMD build, keeping the crossover between R=1
/// and R=2, and an engine A/B of gate 2 vs 4 on `execute/table5` showed no
/// dataflow where 4 wins (KMN was 15% worse). The `threshold_probe/probe`
/// numbers as compiled in the bench *binary* currently read ~2x the
/// lib-level cost at low `R` (a codegen/layout artifact of that binary,
/// not a library regression — see BENCH_spgemm.json notes); naively
/// reading them would move the gate to 4 and lose the KMN win, so the gate
/// stays 2.
const PROBE_GATE_FACTOR: usize = 2;

/// The streaming tile loop: every fiber of B flows past each tile, and each
/// fiber is intersected from its cheaper side.
#[allow(clippy::too_many_arguments)]
fn run_streaming(
    e: &mut Engine<'_>,
    plan: &tiling::RowPlan,
    b_index: &MatrixIndex,
    k_entries: &mut [Vec<(u32, Value)>],
    k_mask: &mut [u64],
    touched_k: &mut Vec<u32>,
    acc: &mut Vec<Value>,
    hit: &mut Vec<bool>,
    hit_list: &mut Vec<u32>,
    split_acc: &mut SplitAcc,
) {
    let (a, b) = (e.a, e.b);

    for tile in plan.tiles() {
        // Tile boundary: a fired token stops before the next tile streams.
        if e.is_cancelled() {
            return;
        }
        e.stationary_phase(tiling::slots_used(tile));

        // Index this tile's stationary coordinates and set the scan mask.
        index_tile(a, tile, k_entries, touched_k);
        for &k in touched_k.iter() {
            k_mask[(k >> 6) as usize] |= 1u64 << (k & 63);
        }
        let (tile_lo, tile_hi) = match (touched_k.first(), touched_k.last()) {
            (Some(&lo), Some(&hi)) => (lo, hi),
            _ => (1, 0), // empty tile: probes find nothing either way
        };

        // Streaming phase: the whole of B flows past this tile once.
        let mut streaming = 0u64;
        acc.clear();
        acc.resize(tile.len(), 0.0);
        hit.clear();
        hit.resize(tile.len(), false);
        let mut injected_tile = 0u64;
        let mut delivered_tile = 0u64;
        let mut final_elems = 0u64;
        for n in 0..b.major_dim() {
            let len = b.fiber_len(n) as u64;
            if len == 0 {
                continue;
            }
            let start = e.b_elem_offset(n);
            e.cache.read_range(start, len, &mut e.dram);
            let mut intersections = 0u64;
            let mut injected = 0u64;
            let fiber = b.fiber(n);
            let (coords, vals) = (fiber.coords(), fiber.values());
            let overlaps = coords[coords.len() - 1] >= tile_lo && coords[0] <= tile_hi;
            let probe_wins = touched_k.len() * PROBE_GATE_FACTOR <= coords.len();
            if !overlaps {
                // Disjoint coordinate ranges: nothing can intersect. The
                // fiber still streams past (charged below), but no scan or
                // probe work is spent on it.
            } else if probe_wins {
                // The tile's stationary list is much the shorter side: probe
                // the fiber's index with it instead of re-scanning the fiber.
                let mut prober = b_index.fiber(n).prober(fiber);
                for &c in touched_k.iter() {
                    let Some((_, bval)) = prober.probe(c) else {
                        continue;
                    };
                    let entries = &k_entries[c as usize];
                    injected += 1;
                    intersections += entries.len() as u64;
                    for &(ci, aval) in entries {
                        let ci = ci as usize;
                        if !hit[ci] {
                            hit[ci] = true;
                            hit_list.push(ci as u32);
                        }
                        acc[ci] += aval * bval;
                    }
                }
            } else {
                // Scan the fiber and test membership against the tile mask.
                for (i, &c) in coords.iter().enumerate() {
                    if k_mask[(c >> 6) as usize] & (1u64 << (c & 63)) == 0 {
                        continue;
                    }
                    let entries = &k_entries[c as usize];
                    injected += 1;
                    intersections += entries.len() as u64;
                    for &(ci, aval) in entries {
                        let ci = ci as usize;
                        if !hit[ci] {
                            hit[ci] = true;
                            hit_list.push(ci as u32);
                        }
                        acc[ci] += aval * vals[i];
                    }
                }
            }
            injected_tile += injected;
            delivered_tile += intersections;
            let mult = e.mn.multiply(intersections);
            e.mrn.reduce(intersections);
            // Controller scans the fiber from the cache at DN rate; the
            // multipliers and the reduction tree run concurrently.
            streaming += bottleneck(&[e.dn_cycles(len), mult]);
            // Emit completed dot products for this column.
            for &ci in hit_list.iter() {
                let cl = &tile[ci as usize];
                let value = acc[ci as usize];
                emit_dot(e, cl, n, value, &mut final_elems, split_acc);
                acc[ci as usize] = 0.0;
                hit[ci as usize] = false;
            }
            hit_list.clear();
        }
        e.dn.send_irregular(injected_tile, delivered_tile.max(injected_tile));
        streaming += e.mrn.fill_latency();
        e.wbuf.write(final_elems, &mut e.dram);
        e.advance_with_dram(Phase::Streaming, streaming);

        for &k in touched_k.iter() {
            k_entries[k as usize].clear();
            k_mask[(k >> 6) as usize] = 0;
        }
    }
}
