//! Tiered per-row psum accumulators for the merge-bound dataflows.
//!
//! The Outer-Product and Gustavson phase loops produce, for every output
//! row, a set of coordinate-sorted scaled fibers that must be summed into
//! one fiber. The merger-reduction network does this with a k-way merge —
//! and the simulator charges exactly that cost — but *software* does not
//! have to replay the comparator tree: every psum is coordinate-addressable,
//! so a row-local accumulator can scatter elements in arrival order and
//! read the merged fiber back out in one sorted sweep. This is the output
//! buffering that keeps merge bandwidth off the critical path in streaming
//! designs like Sextans and dense/sparse hybrids like FlexiSAGA.
//!
//! [`RowAccum`] picks a tier per row from the shape of its output span,
//! mirroring the span/nnz heuristics of the [`index`](crate::index) tiers:
//!
//! * **Dense** — the span is tight enough that a value slot per coordinate
//!   is affordable: scatters are one indexed add, and the drain compacts
//!   64-slot value windows under the presence bitmap with SIMD
//!   compress-stores ([`simd::compress_word`]).
//! * **Runs** — wide, sparse spans: incoming fibers are kept as sorted runs
//!   and k-way merged on overflow and on drain (prefix merges preserve the
//!   left-to-right accumulation order, so collapsing early never changes a
//!   bit of the result).
//!
//! Every tier accumulates a coordinate's values in exactly the order the
//! sources arrive — the first value is *stored*, later ones are *added* —
//! which is the tie-break order of [`merge::merge_accumulate`]. Scattering
//! fibers in ascending-k order therefore reproduces the k-way merge of the
//! k-tagged psum fibers bit for bit, including `-0.0` and other
//! non-associativity hazards.

use crate::{merge, Fiber, FiberView, Value};

/// Dense tier when `span <= nnz_hint * DENSE_SPAN_PER_ELEM`: each expected
/// element justifies this many 4-byte value slots (256 bytes).
///
/// Derived from the `threshold_probe/dense_accum` sweep (16×256 elements
/// scattered over spans of 2–512 coordinates per element). A bitmap-paged
/// tier used to take spans from 32 to 64 coordinates per element; the
/// sweep measured dense 1.2–1.8× faster than it at every ratio, on the
/// scalar and the SIMD build alike, because both walked the same presence
/// bitmap on drain and paging added an indirection per scatter. The gate
/// is therefore a memory-footprint bound, not a speed crossover, set at
/// the old paged budget, so the rows that tier took now go dense rather
/// than to the merge tier.
const DENSE_SPAN_PER_ELEM: u64 = 64;
/// Absolute span cap for the dense tier, bounding the value array at
/// 16 MiB.
const DENSE_MAX_SPAN: u64 = 1 << 22;
/// Runs tier: collapse the run list with one k-way merge whenever it grows
/// to this many runs.
const RUNS_MERGE_LIMIT: usize = 64;

/// The storage tier a [`RowAccum`] selected for the current row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccumTier {
    /// Tight span: dense value array plus presence bitmap.
    Dense,
    /// Wide or sparse span: sorted-run list, merged on overflow and drain.
    Runs,
}

impl AccumTier {
    /// Selects the tier for an output row spanning `span` coordinates with
    /// an expected `nnz_hint` incoming psums.
    pub fn select(span: u64, nnz_hint: u64) -> AccumTier {
        if span <= nnz_hint.saturating_mul(DENSE_SPAN_PER_ELEM) && span <= DENSE_MAX_SPAN {
            AccumTier::Dense
        } else {
            AccumTier::Runs
        }
    }

    /// Tier name for diagnostics and bench labels.
    pub fn name(self) -> &'static str {
        match self {
            AccumTier::Dense => "dense",
            AccumTier::Runs => "runs",
        }
    }
}

/// A reusable per-row psum accumulator.
///
/// Lifecycle: [`RowAccum::begin`] (or [`RowAccum::begin_runs`]) arms the
/// accumulator for one output row, [`RowAccum::scatter_scaled`] /
/// [`RowAccum::push_run`] feed it sorted fibers in merge-source order, and
/// [`RowAccum::drain`] returns the merged fiber and resets the accumulator
/// for reuse — all buffers (value array, bitmap, run list) keep
/// their allocations across rows.
///
/// ```
/// use flexagon_sparse::{Element, Fiber, RowAccum};
/// let a = Fiber::from_sorted(vec![Element::new(1, 1.0), Element::new(3, 2.0)]);
/// let b = Fiber::from_sorted(vec![Element::new(3, 4.0), Element::new(7, 8.0)]);
/// let mut acc = RowAccum::new();
/// acc.begin(1, 7, 4);
/// acc.scatter_scaled(a.as_view(), 1.0);
/// acc.scatter_scaled(b.as_view(), 0.5);
/// let merged = acc.drain();
/// assert_eq!(merged.get(3), Some(4.0));
/// assert_eq!(merged.len(), 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RowAccum {
    tier: Option<AccumTier>,
    /// Lowest coordinate of the armed span (dense tier).
    lo: u32,
    /// Words of the presence bitmap in use for the armed span.
    n_words: usize,
    /// Distinct coordinates touched so far (dense tier).
    distinct: usize,
    /// Dense tier: one value slot per coordinate in the span. Slots are
    /// only meaningful under a set presence bit, so stale values from
    /// earlier rows never need clearing.
    vals: Vec<Value>,
    /// Dense tier: presence bitmap, zeroed by every drain.
    words: Vec<u64>,
    /// Runs tier: sorted runs in arrival order.
    runs: Vec<Fiber>,
    /// Recycled run buffers.
    spare: Vec<Fiber>,
}

impl RowAccum {
    /// Creates an empty, un-armed accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// The tier selected by the last `begin`, if armed.
    pub fn tier(&self) -> Option<AccumTier> {
        self.tier
    }

    /// Arms the accumulator for a row whose psums span `[lo, hi]` with an
    /// expected `nnz_hint` incoming elements, selecting the tier by the
    /// span/nnz shape.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the previous row was not drained or
    /// `hi < lo`.
    pub fn begin(&mut self, lo: u32, hi: u32, nnz_hint: u64) {
        debug_assert!(self.is_drained(), "begin on an undrained accumulator");
        debug_assert!(lo <= hi, "inverted span");
        let span = (hi - lo) as u64 + 1;
        let tier = AccumTier::select(span, nnz_hint);
        self.lo = lo;
        self.n_words = (span as usize).div_ceil(64);
        if tier == AccumTier::Dense {
            // Word-aligned sizing: the SIMD drain compacts whole 64-slot
            // value windows per presence word, so the array covers the
            // final partial word too. Slack slots sit under clear presence
            // bits and are never emitted.
            let padded = self.n_words * 64;
            if self.vals.len() < padded {
                self.vals.resize(padded, 0.0);
            }
            if self.words.len() < self.n_words {
                self.words.resize(self.n_words, 0);
            }
        }
        self.tier = Some(tier);
    }

    /// Arms the accumulator as a plain sorted-run collector — the form the
    /// engine uses to hold a split row's chunk fibers across tiles.
    pub fn begin_runs(&mut self) {
        debug_assert!(self.is_drained(), "begin on an undrained accumulator");
        self.tier = Some(AccumTier::Runs);
    }

    /// Whether the accumulator holds no undrained data.
    pub fn is_drained(&self) -> bool {
        self.distinct == 0 && self.runs.is_empty()
    }

    /// Scatters `fiber` scaled by `factor` into the row, as the next merge
    /// source. Coordinates must lie within the armed span (dense tier).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the accumulator is not armed.
    pub fn scatter_scaled(&mut self, fiber: FiberView<'_>, factor: Value) {
        self.scatter_impl::<true>(fiber, factor);
    }

    /// Scatters `fiber` unscaled — the form merge passes over
    /// already-scaled fibers use. Identical to
    /// `scatter_scaled(fiber, 1.0)` bit for bit, without the multiplies.
    pub fn scatter(&mut self, fiber: FiberView<'_>) {
        self.scatter_impl::<false>(fiber, 1.0);
    }

    /// Shared scatter body. The const parameter monomorphizes the two entry
    /// points, so the unscaled path compiles without the per-element
    /// multiply while both keep exactly one copy of the tier logic.
    ///
    /// The scatter loop stays scalar by design: its writes are
    /// random-access indexed adds (`vals[bit] += v`) with a data-dependent
    /// first-touch branch per element, which vectorizing would require
    /// gather/scatter with intra-vector conflict detection — AVX2 has no
    /// scatter at all, and colliding coordinates within one vector would
    /// reorder float adds and break bit-identity. The SIMD win for these
    /// tiers is on the drain side instead, where the access pattern is
    /// sequential.
    #[inline]
    fn scatter_impl<const SCALED: bool>(&mut self, fiber: FiberView<'_>, factor: Value) {
        let scale = |v: Value| if SCALED { v * factor } else { v };
        match self.tier.expect("scatter on an un-armed accumulator") {
            AccumTier::Dense => {
                for (&c, &v) in fiber.coords().iter().zip(fiber.values()) {
                    let bit = (c - self.lo) as usize;
                    let (w, m) = (bit >> 6, 1u64 << (bit & 63));
                    if self.words[w] & m == 0 {
                        self.words[w] |= m;
                        self.vals[bit] = scale(v);
                        self.distinct += 1;
                    } else {
                        self.vals[bit] += scale(v);
                    }
                }
            }
            AccumTier::Runs => {
                if fiber.is_empty() {
                    return;
                }
                let mut run = self.spare.pop().unwrap_or_default();
                if SCALED {
                    run.scale_from(fiber, factor);
                } else {
                    run.clone_from_view(fiber);
                }
                self.runs.push(run);
                self.collapse_if_full();
            }
        }
    }

    /// Appends an owned, coordinate-sorted fiber as the next merge source
    /// (runs tier only) — the zero-copy form for fibers the caller already
    /// materialized, such as a split row's per-chunk psum fibers.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the accumulator is not armed as runs.
    pub fn push_run(&mut self, fiber: Fiber) {
        debug_assert_eq!(
            self.tier,
            Some(AccumTier::Runs),
            "push_run needs the runs tier"
        );
        if fiber.is_empty() {
            return;
        }
        self.runs.push(fiber);
        self.collapse_if_full();
    }

    /// Collapses the run list into one run when it hits the limit. A prefix
    /// merge folds values in exactly the order a single final merge would,
    /// so this is invisible in the drained result.
    fn collapse_if_full(&mut self) {
        if self.runs.len() < RUNS_MERGE_LIMIT {
            return;
        }
        let (merged, _) = {
            let views: Vec<FiberView<'_>> = self.runs.iter().map(Fiber::as_view).collect();
            merge::merge_accumulate(&views)
        };
        for mut f in self.runs.drain(..) {
            f.clear();
            self.spare.push(f);
        }
        self.runs.push(merged);
    }

    /// Reads the merged row back out as a coordinate-sorted fiber and
    /// resets the accumulator for the next `begin`.
    ///
    /// The result is bit-identical to `merge::merge_accumulate` over the
    /// scattered fibers in arrival order.
    pub fn drain(&mut self) -> Fiber {
        let tier = self.tier.take().expect("drain on an un-armed accumulator");
        match tier {
            AccumTier::Dense => {
                // Bitmap-directed compress-store: each non-zero presence
                // word compacts its 64-slot value window in one
                // `simd::compress_word` call (per-byte `vpermps` shuffles on
                // AVX2, the trailing_zeros loop on the scalar path) instead
                // of a branch per set bit. Values are moved, never summed,
                // so the drain is bit-exact on either path.
                let mut coords: Vec<u32> = Vec::with_capacity(self.distinct);
                let mut values: Vec<Value> = Vec::with_capacity(self.distinct);
                for w in 0..self.n_words {
                    let word = self.words[w];
                    if word == 0 {
                        continue;
                    }
                    self.words[w] = 0;
                    simd::compress_word(
                        word,
                        self.lo + ((w << 6) as u32),
                        &self.vals[w << 6..(w << 6) + 64],
                        &mut coords,
                        &mut values,
                    );
                }
                self.distinct = 0;
                Fiber::from_parts(coords, values)
            }
            AccumTier::Runs => match self.runs.len() {
                0 => Fiber::new(),
                1 => self.runs.pop().expect("len checked"),
                _ => {
                    let (merged, _) = {
                        let views: Vec<FiberView<'_>> =
                            self.runs.iter().map(Fiber::as_view).collect();
                        merge::merge_accumulate(&views)
                    };
                    for mut f in self.runs.drain(..) {
                        f.clear();
                        self.spare.push(f);
                    }
                    merged
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Element;

    fn f(pairs: &[(u32, Value)]) -> Fiber {
        Fiber::from_sorted(pairs.iter().map(|&(c, v)| Element::new(c, v)).collect())
    }

    /// Reference: k-way merge of the scaled fibers in arrival order.
    fn reference(fibers: &[(Fiber, Value)]) -> Fiber {
        let scaled: Vec<Fiber> = fibers.iter().map(|(fb, s)| fb.scaled(*s)).collect();
        let views: Vec<FiberView<'_>> = scaled.iter().map(Fiber::as_view).collect();
        merge::merge_accumulate(&views).0
    }

    fn span_of(fibers: &[(Fiber, Value)]) -> (u32, u32, u64) {
        let mut lo = u32::MAX;
        let mut hi = 0;
        let mut nnz = 0;
        for (fb, _) in fibers {
            if fb.is_empty() {
                continue;
            }
            lo = lo.min(fb.coords()[0]);
            hi = hi.max(*fb.coords().last().unwrap());
            nnz += fb.len() as u64;
        }
        (lo, hi, nnz)
    }

    fn check_tier(fibers: &[(Fiber, Value)], want_tier: AccumTier) {
        let (lo, hi, nnz) = span_of(fibers);
        let mut acc = RowAccum::new();
        acc.begin(lo, hi, nnz);
        assert_eq!(acc.tier(), Some(want_tier));
        for (fb, s) in fibers {
            acc.scatter_scaled(fb.as_view(), *s);
        }
        let got = acc.drain();
        let want = reference(fibers);
        assert_eq!(got, want, "{} tier mismatch", want_tier.name());
        assert!(acc.is_drained());
    }

    #[test]
    fn dense_tier_matches_merge() {
        let fibers = vec![
            (f(&[(3, 1.0), (5, 2.0), (9, 3.0)]), 2.0),
            (f(&[(5, 1.5), (7, 0.5)]), -1.0),
            (f(&[(3, 4.0), (9, 0.25)]), 0.5),
        ];
        check_tier(&fibers, AccumTier::Dense);
    }

    #[test]
    fn sparse_span_dense_tier_matches_merge() {
        // 6 elements over a span of ~300 (about 50 coordinates per
        // element): the widest ratio the dense gate still admits.
        let fibers = vec![
            (f(&[(10, 1.0), (200, 2.0)]), 1.0),
            (f(&[(10, 3.0), (310, 4.0)]), 2.5),
            (f(&[(155, 5.0), (310, 6.0)]), -0.5),
        ];
        check_tier(&fibers, AccumTier::Dense);
    }

    #[test]
    fn runs_tier_matches_merge() {
        // A huge span with few elements: the dense array is unaffordable.
        let fibers = vec![
            (f(&[(0, 1.0), (1 << 30, 2.0)]), 1.0),
            (f(&[(512, 3.0), (1 << 30, 4.0)]), 3.0),
        ];
        check_tier(&fibers, AccumTier::Runs);
    }

    #[test]
    fn runs_overflow_collapse_is_invisible() {
        // More than two collapse limits' worth of runs: the list collapses
        // twice before the final drain merge.
        let sources: Vec<(Fiber, Value)> = (0..(2 * RUNS_MERGE_LIMIT as u32 + 9))
            .map(|i| {
                (
                    f(&[(i, 1.0), (i + 3, 0.5), (1000, 0.125)]),
                    1.0 + i as Value,
                )
            })
            .collect();
        let mut acc = RowAccum::new();
        acc.begin_runs();
        for (fb, s) in &sources {
            acc.scatter_scaled(fb.as_view(), *s);
        }
        let got = acc.drain();
        assert_eq!(got, reference(&sources));
    }

    #[test]
    fn first_touch_stores_rather_than_adds() {
        // -0.0 must survive: 0.0 + -0.0 would flip it to +0.0.
        let fibers = vec![(f(&[(4, -0.0)]), 1.0)];
        let (lo, hi, nnz) = span_of(&fibers);
        let mut acc = RowAccum::new();
        acc.begin(lo, hi, nnz);
        acc.scatter_scaled(fibers[0].0.as_view(), 1.0);
        let got = acc.drain();
        assert_eq!(got.values()[0].to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn reuse_across_rows_and_tiers() {
        let mut acc = RowAccum::new();
        let batches = [
            vec![(f(&[(0, 1.0), (63, 2.0)]), 1.0), (f(&[(63, 3.0)]), 2.0)],
            vec![(f(&[(1000, 1.0), (9000, 2.0)]), 1.0)], // different span
            vec![(f(&[(2, 5.0)]), 4.0), (f(&[(2, 1.0), (3, 1.0)]), 1.0)],
        ];
        for fibers in &batches {
            let (lo, hi, nnz) = span_of(fibers);
            acc.begin(lo, hi, nnz);
            for (fb, s) in fibers {
                acc.scatter_scaled(fb.as_view(), *s);
            }
            assert_eq!(acc.drain(), reference(fibers));
        }
    }

    #[test]
    fn push_run_collects_owned_fibers() {
        let mut acc = RowAccum::new();
        acc.begin_runs();
        acc.push_run(f(&[(1, 1.0), (5, 2.0)]));
        acc.push_run(Fiber::new()); // ignored
        acc.push_run(f(&[(5, 3.0)]));
        let got = acc.drain();
        assert_eq!(got.get(5), Some(5.0));
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn tier_selection_shape() {
        assert_eq!(AccumTier::select(16, 8), AccumTier::Dense);
        assert_eq!(AccumTier::select(48 * 8, 8), AccumTier::Dense);
        assert_eq!(AccumTier::select(64 * 8, 8), AccumTier::Dense);
        assert_eq!(AccumTier::select(64 * 8 + 1, 8), AccumTier::Runs);
        assert_eq!(AccumTier::select(1 << 30, 8), AccumTier::Runs);
        // The absolute span cap holds however many elements are expected.
        assert_eq!(
            AccumTier::select(DENSE_MAX_SPAN + 1, 1 << 30),
            AccumTier::Runs
        );
    }
}
