//! Tiered per-fiber coordinate indexes for skip-ahead intersection.
//!
//! The Inner-Product dataflow is intersection-bound: every stationary tile
//! must discover which elements of each streaming fiber of B carry a
//! coordinate the tile holds stationary. Re-scanning the fiber per tile costs
//! `O(tiles x nnz(B))` probes; an index built once over B answers the same
//! membership queries in (amortized) constant time per probe.
//!
//! [`FiberIndex`] picks a tier per fiber from the shape of its coordinate
//! span (Gamma and SparseLNR-style schedulers make the same trade):
//!
//! * **Bitmap** — the span is dense enough (≤ [`BITS_PER_ELEMENT`] bits per
//!   stored element, which short fibers over small coordinate spaces almost
//!   always satisfy) that one bit per coordinate is affordable: membership is
//!   a word test and the element's position is recovered with a popcount over
//!   precomputed per-word ranks. `O(1)` probes, no comparisons at all.
//! * **Short** — at most one skip block of elements over a sparse span: a
//!   plain scan of the SoA coordinate slice beats any auxiliary structure.
//! * **Skip** — long fiber over a sparse span: a block-skip list storing
//!   every [`SKIP`]-th coordinate narrows a probe to one 16-element block of
//!   the SoA `coords` array, which is then scanned.
//!
//! [`Prober`] adds the skip-ahead cursor used by sorted query streams (the
//! tile loop probes its stationary coordinates in ascending order), and
//! [`MatrixIndex`] holds one `FiberIndex` per fiber of a matrix.

use crate::{FiberView, MatrixView, Value};

/// Elements per skip-list block; also the "short fiber" cutoff.
pub const SKIP: usize = 16;

/// Maximum bitmap bits per stored element before the bitmap tier is deemed
/// too sparse and the skip tier is used instead.
pub const BITS_PER_ELEMENT: u32 = 64;

/// The tier backing a [`FiberIndex`], exposed for tests and bench labels.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Tier {
    /// No elements; every probe misses.
    Empty,
    /// At most [`SKIP`] elements; probes scan the coordinate slice directly.
    Short,
    /// Dense bitmap over `[first, last]` with cumulative per-word ranks.
    Bitmap {
        /// Lowest coordinate in the fiber (bit 0 of word 0).
        first: u32,
        /// One bit per coordinate in the span.
        words: Vec<u64>,
        /// `ranks[w]` = number of set bits in `words[..w]`.
        ranks: Vec<u32>,
    },
    /// Block-skip list: `skips[j]` is the coordinate at position `j * SKIP`.
    Skip {
        /// Every `SKIP`-th coordinate, i.e. the minimum of each block.
        skips: Vec<u32>,
    },
}

/// Rank-based bitmap lookup shared by [`FiberIndex::position`] and
/// [`Prober::probe`].
///
/// Kept `#[inline(always)]`: the bitmap tier answers each probe with a word
/// test plus a popcount, and the callers' per-probe loops only stay at that
/// cost if this body is flattened into them (a function call plus re-loading
/// `first`/`words`/`ranks` per probe is ~3x the lookup itself).
#[inline(always)]
fn bitmap_position(first: u32, words: &[u64], ranks: &[u32], coord: u32) -> Option<usize> {
    if coord < first {
        return None;
    }
    let bit = (coord - first) as usize;
    let w = bit >> 6;
    let word = *words.get(w)?;
    let mask = 1u64 << (bit & 63);
    if word & mask == 0 {
        return None;
    }
    Some(ranks[w] as usize + (word & (mask - 1)).count_ones() as usize)
}

/// A per-fiber coordinate index answering "is `coord` present, and at which
/// position?" without streaming the fiber.
///
/// Built from a fiber's coordinate slice; probing needs the same slice again
/// (the index never copies element data, only derived structure).
///
/// ```
/// use flexagon_sparse::{Element, Fiber, FiberIndex};
/// let f = Fiber::from_sorted(vec![Element::new(2, 1.0), Element::new(9, 4.0)]);
/// let idx = FiberIndex::build(f.coords());
/// assert_eq!(idx.position(f.coords(), 9), Some(1));
/// assert_eq!(idx.position(f.coords(), 5), None);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FiberIndex {
    len: usize,
    tier: Tier,
}

impl FiberIndex {
    /// Builds the index for a strictly-increasing coordinate slice, choosing
    /// the cheapest tier for its shape.
    pub fn build(coords: &[u32]) -> Self {
        let len = coords.len();
        if len == 0 {
            return Self {
                len,
                tier: Tier::Empty,
            };
        }
        let (first, last) = (coords[0], coords[len - 1]);
        let span = (last - first) as u64 + 1;
        if span > len as u64 * BITS_PER_ELEMENT as u64 && len <= SKIP {
            return Self {
                len,
                tier: Tier::Short,
            };
        }
        if span <= len as u64 * BITS_PER_ELEMENT as u64 {
            let n_words = span.div_ceil(64) as usize;
            let mut words = vec![0u64; n_words];
            for &c in coords {
                let bit = c - first;
                words[(bit >> 6) as usize] |= 1u64 << (bit & 63);
            }
            let mut ranks = Vec::with_capacity(n_words);
            let mut running = 0u32;
            for &w in &words {
                ranks.push(running);
                running += w.count_ones();
            }
            Self {
                len,
                tier: Tier::Bitmap {
                    first,
                    words,
                    ranks,
                },
            }
        } else {
            let skips: Vec<u32> = coords.iter().step_by(SKIP).copied().collect();
            Self {
                len,
                tier: Tier::Skip { skips },
            }
        }
    }

    /// Number of elements in the indexed fiber.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the indexed fiber has no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The tier [`build`](FiberIndex::build) would select for this
    /// coordinate slice, without materializing any index storage — the
    /// format-statistics path ([`FormatStats`]) reads the selection as a
    /// clustering signal over every fiber of a matrix, where building the
    /// bitmap words just to throw them away would dominate the pass.
    ///
    /// [`FormatStats`]: crate::FormatStats
    pub fn classify(coords: &[u32]) -> &'static str {
        let len = coords.len();
        if len == 0 {
            return "empty";
        }
        let span = (coords[len - 1] - coords[0]) as u64 + 1;
        if span > len as u64 * BITS_PER_ELEMENT as u64 {
            if len <= SKIP {
                "short"
            } else {
                "skip"
            }
        } else {
            "bitmap"
        }
    }

    /// Name of the selected tier (`"empty"`, `"short"`, `"bitmap"`,
    /// `"skip"`) — for diagnostics and bench labels.
    pub fn tier_name(&self) -> &'static str {
        match self.tier {
            Tier::Empty => "empty",
            Tier::Short => "short",
            Tier::Bitmap { .. } => "bitmap",
            Tier::Skip { .. } => "skip",
        }
    }

    /// Position of `coord` within the fiber, or `None` when absent.
    ///
    /// `coords` must be the same slice the index was built from.
    #[inline]
    pub fn position(&self, coords: &[u32], coord: u32) -> Option<usize> {
        debug_assert_eq!(coords.len(), self.len, "index/fiber mismatch");
        match &self.tier {
            Tier::Empty => None,
            Tier::Short => simd::find_eq_u32(coords, coord),
            Tier::Bitmap {
                first,
                words,
                ranks,
            } => bitmap_position(*first, words, ranks, coord),
            Tier::Skip { skips } => {
                // Find the block whose minimum does not exceed the query,
                // then scan inside it.
                let block = skips.partition_point(|&s| s <= coord).checked_sub(1)?;
                let start = block * SKIP;
                let end = (start + SKIP).min(self.len);
                simd::find_eq_u32(&coords[start..end], coord).map(|off| start + off)
            }
        }
    }

    /// Whether `coord` is present in the fiber.
    #[inline]
    pub fn contains(&self, coords: &[u32], coord: u32) -> bool {
        self.position(coords, coord).is_some()
    }

    /// A skip-ahead prober over `fiber` for ascending query streams.
    ///
    /// `fiber` must view the same elements the index was built from.
    pub fn prober<'a>(&'a self, fiber: FiberView<'a>) -> Prober<'a> {
        debug_assert_eq!(fiber.len(), self.len, "index/fiber mismatch");
        Prober {
            index: self,
            fiber,
            block: 0,
            pos: 0,
        }
    }
}

/// Stateful probe cursor for non-decreasing query sequences.
///
/// The scan tiers (short, skip) never move backwards: across a full ascending
/// query pass they touch each fiber element at most once, so `q` probes into
/// a fiber of `E` elements cost `O(q + E / SKIP)` instead of `O(q log E)`.
/// The bitmap tier answers each probe in `O(1)` regardless.
#[derive(Debug)]
pub struct Prober<'a> {
    index: &'a FiberIndex,
    fiber: FiberView<'a>,
    /// Current skip block (skip tier only).
    block: usize,
    /// Element cursor: probes resume scanning here.
    pos: usize,
}

impl Prober<'_> {
    /// Looks up `coord`, returning its position and value when present.
    ///
    /// Queries must be non-decreasing across calls on the same prober; a
    /// lower coordinate than a previous query may be reported absent.
    ///
    /// The bitmap arm stays in this `#[inline]` body and the scan tiers are
    /// outlined: the bitmap tier answers in `O(1)` per probe, so it must
    /// flatten into the caller's probe loop, and keeping the scan tiers'
    /// force-inlined SIMD prefix scans here bloats `probe` past the inline
    /// threshold (measured 3x on `threshold_probe/probe/r1` — every bitmap
    /// probe paid an outlined call plus a tier re-dispatch). The scan tiers
    /// do `O(run)` work per probe, which amortizes their one call.
    #[inline(always)]
    pub fn probe(&mut self, coord: u32) -> Option<(usize, Value)> {
        match &self.index.tier {
            Tier::Empty => None,
            Tier::Bitmap {
                first,
                words,
                ranks,
            } => {
                let i = bitmap_position(*first, words, ranks, coord)?;
                Some((i, self.fiber.values()[i]))
            }
            Tier::Short | Tier::Skip { .. } => self.probe_scan_tiers(coord),
        }
    }

    /// The short/skip arms of [`Self::probe`], outlined (see there).
    fn probe_scan_tiers(&mut self, coord: u32) -> Option<(usize, Value)> {
        let coords = self.fiber.coords();
        match &self.index.tier {
            Tier::Short => self.scan_from_cursor(coords, coord, coords.len()),
            Tier::Skip { skips } => {
                // Skip whole blocks whose successor minimum is still <= query.
                while self.block + 1 < skips.len() && skips[self.block + 1] <= coord {
                    self.block += 1;
                }
                let block_start = self.block * SKIP;
                if self.pos < block_start {
                    self.pos = block_start;
                }
                let end = (block_start + SKIP).min(coords.len());
                self.scan_from_cursor(coords, coord, end)
            }
            Tier::Empty | Tier::Bitmap { .. } => unreachable!("handled in probe"),
        }
    }

    /// Advances the element cursor to the first coordinate `>= coord` within
    /// `coords[..end]` and reports a hit on equality.
    ///
    /// The cursor advance is a prefix-scan over sorted coordinates, so the
    /// SIMD path measures it with [`simd::run_lt_u32`] (inline scalar head,
    /// then 8-lane compares — consecutive probes usually advance by only a
    /// few elements) instead of a branch per element — this is the
    /// probe-side inner loop the `threshold_probe` bench group measures,
    /// and a direct input to the engine's probe-gate crossover.
    #[inline]
    fn scan_from_cursor(
        &mut self,
        coords: &[u32],
        coord: u32,
        end: usize,
    ) -> Option<(usize, Value)> {
        self.pos += simd::run_lt_u32(&coords[self.pos..end], coord);
        if self.pos < end && coords[self.pos] == coord {
            let i = self.pos;
            Some((i, self.fiber.values()[i]))
        } else {
            None
        }
    }
}

/// One [`FiberIndex`] per fiber of a compressed matrix.
///
/// Built once per operand (cost `O(nnz)`), then shared by every tile and
/// every row of the intersection loop.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixIndex {
    fibers: Vec<FiberIndex>,
}

impl MatrixIndex {
    /// Indexes every fiber of `m`.
    pub fn build(m: MatrixView<'_>) -> Self {
        let fibers = (0..m.major_dim())
            .map(|major| FiberIndex::build(m.fiber(major).coords()))
            .collect();
        Self { fibers }
    }

    /// The index of fiber `major`.
    ///
    /// # Panics
    ///
    /// Panics if `major` is out of range.
    pub fn fiber(&self, major: u32) -> &FiberIndex {
        &self.fibers[major as usize]
    }

    /// Number of indexed fibers.
    pub fn len(&self) -> usize {
        self.fibers.len()
    }

    /// Returns `true` when the matrix has no fibers.
    pub fn is_empty(&self) -> bool {
        self.fibers.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompressedMatrix, Element, Fiber, MajorOrder};

    fn fiber_of(coords: &[u32]) -> Fiber {
        Fiber::from_sorted(
            coords
                .iter()
                .map(|&c| Element::new(c, c as Value + 0.5))
                .collect(),
        )
    }

    #[test]
    fn empty_tier() {
        let f = Fiber::new();
        let idx = FiberIndex::build(f.coords());
        assert_eq!(idx.tier_name(), "empty");
        assert!(idx.is_empty());
        assert_eq!(idx.position(f.coords(), 0), None);
    }

    #[test]
    fn short_tier_positions() {
        let f = fiber_of(&[3, 9, 1000]);
        let idx = FiberIndex::build(f.coords());
        assert_eq!(idx.tier_name(), "short");
        assert_eq!(idx.position(f.coords(), 3), Some(0));
        assert_eq!(idx.position(f.coords(), 1000), Some(2));
        assert_eq!(idx.position(f.coords(), 4), None);
    }

    #[test]
    fn bitmap_tier_positions() {
        // 32 elements over a span of 64: dense enough for the bitmap.
        let coords: Vec<u32> = (0..64).filter(|c| c % 2 == 0).collect();
        let f = fiber_of(&coords);
        let idx = FiberIndex::build(f.coords());
        assert_eq!(idx.tier_name(), "bitmap");
        for (i, &c) in coords.iter().enumerate() {
            assert_eq!(idx.position(f.coords(), c), Some(i));
            assert_eq!(idx.position(f.coords(), c + 1), None);
        }
    }

    #[test]
    fn skip_tier_positions() {
        // 64 elements spread over a huge span: bitmap would need > 64 bits
        // per element, so the skip tier is chosen.
        let coords: Vec<u32> = (0..64).map(|i| i * 10_000).collect();
        let f = fiber_of(&coords);
        let idx = FiberIndex::build(f.coords());
        assert_eq!(idx.tier_name(), "skip");
        for (i, &c) in coords.iter().enumerate() {
            assert_eq!(idx.position(f.coords(), c), Some(i));
        }
        assert_eq!(idx.position(f.coords(), 5), None);
        assert_eq!(idx.position(f.coords(), 629_999), None);
    }

    #[test]
    fn prober_ascending_hits_every_tier() {
        let fibers = [
            fiber_of(&[2, 5, 9]),                                      // short
            fiber_of(&(0..100).map(|i| i * 3).collect::<Vec<_>>()),    // bitmap
            fiber_of(&(0..100).map(|i| i * 9999).collect::<Vec<_>>()), // skip
        ];
        for f in &fibers {
            let idx = FiberIndex::build(f.coords());
            let mut prober = idx.prober(f.as_view());
            let last = *f.coords().last().unwrap();
            for c in 0..=last {
                let want = f
                    .coords()
                    .binary_search(&c)
                    .ok()
                    .map(|i| (i, f.values()[i]));
                assert_eq!(prober.probe(c), want, "tier {} coord {c}", idx.tier_name());
            }
        }
    }

    #[test]
    fn classify_agrees_with_build() {
        let cases: Vec<Vec<u32>> = vec![
            vec![],
            vec![7],
            vec![3, 9, 1000],
            (0..64).filter(|c| c % 2 == 0).collect(),
            (0..64).map(|i| i * 10_000).collect(),
            (0..(SKIP as u32)).map(|i| i * 10_000).collect(), // short boundary
            (0..(SKIP as u32 + 1)).map(|i| i * 10_000).collect(), // just past it
        ];
        for coords in &cases {
            assert_eq!(
                FiberIndex::classify(coords),
                FiberIndex::build(coords).tier_name(),
                "coords {coords:?}"
            );
        }
    }

    #[test]
    fn matrix_index_covers_all_fibers() {
        let m = CompressedMatrix::from_triplets(
            3,
            4,
            &[(0, 1, 1.0), (0, 3, 2.0), (2, 0, 3.0)],
            MajorOrder::Row,
        )
        .unwrap();
        let idx = MatrixIndex::build(m.view());
        assert_eq!(idx.len(), 3);
        assert!(!idx.is_empty());
        assert_eq!(idx.fiber(0).position(m.fiber(0).coords(), 3), Some(1));
        assert!(idx.fiber(1).is_empty());
        assert!(idx.fiber(2).contains(m.fiber(2).coords(), 0));
    }
}
