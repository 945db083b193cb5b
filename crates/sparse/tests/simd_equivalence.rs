//! Differential tests for the SIMD kernel layer: every dispatching kernel
//! must be bit-identical to its scalar twin — fibers, float bit patterns,
//! and operation counters alike — across all tiers, unaligned lengths,
//! vector tails, and empty inputs.
//!
//! On a machine with a vector unit these tests compare the live SIMD path
//! against the scalar reference; under `FLEXAGON_SIMD=off` (one CI leg runs
//! the whole suite that way) both sides take the scalar path and the tests
//! pin the fallback's self-consistency. The shim's slice primitives are
//! also checked directly against `simd::scalar` so a kernel-level
//! coincidence can't mask a primitive-level divergence.

use flexagon_sparse::{merge, Element, Fiber, FiberIndex, RowAccum, Value};
use proptest::prelude::*;

/// Strategy: a sorted fiber over `0..space` with up to `max_len` elements.
fn fiber(space: u32, max_len: usize) -> impl Strategy<Value = Fiber> {
    proptest::collection::btree_map(0..space, 0.25f32..4.0, 0..max_len).prop_map(|cells| {
        Fiber::from_sorted(cells.into_iter().map(|(c, v)| Element::new(c, v)).collect())
    })
}

/// Asserts elementwise bit-identity (coords and value bits).
fn assert_bit_identical(got: &Fiber, want: &Fiber) {
    assert_eq!(got.coords(), want.coords());
    for (g, w) in got.values().iter().zip(want.values()) {
        assert_eq!(g.to_bits(), w.to_bits());
    }
}

proptest! {
    /// 2-way merge: the dispatching entry point agrees with the scalar twin
    /// on the merged fiber and on the `MergeStats` counters, for heavily
    /// overlapping inputs (interleave + collisions, run length ~1).
    #[test]
    fn merge_two_matches_scalar_interleaved(a in fiber(256, 80), b in fiber(256, 80)) {
        let (want, want_stats) = merge::merge_two_scalar(a.as_view(), b.as_view());
        let (got, got_stats) = merge::merge_two(a.as_view(), b.as_view());
        assert_bit_identical(&got, &want);
        prop_assert_eq!(got_stats, want_stats);
    }

    /// 2-way merge, skewed shapes: long runs from one side exercise the
    /// vector prefix scans and the bulk run copies, including scalar tails
    /// at every length mod 8.
    #[test]
    fn merge_two_matches_scalar_skewed(a in fiber(10_000, 6), b in fiber(10_000, 300)) {
        let (want, want_stats) = merge::merge_two_scalar(a.as_view(), b.as_view());
        let (got, got_stats) = merge::merge_two(a.as_view(), b.as_view());
        assert_bit_identical(&got, &want);
        prop_assert_eq!(got_stats, want_stats);
    }

    /// Sorted-intersection dot: the dispatching `dot`, the galloping
    /// variant, and the index-probing variant all reproduce the scalar
    /// two-pointer loop bit for bit (sum bits and work count).
    #[test]
    fn dot_family_matches_scalar(a in fiber(512, 120), b in fiber(512, 120)) {
        let (want, want_work) = a.as_view().dot_scalar(b.as_view());
        let (got, got_work) = a.as_view().dot(b.as_view());
        prop_assert_eq!(got.to_bits(), want.to_bits());
        prop_assert_eq!(got_work, want_work);
        let (gal, gal_work) = a.as_view().dot_gallop(b.as_view());
        prop_assert_eq!(gal.to_bits(), want.to_bits());
        prop_assert_eq!(gal_work, want_work);
        let idx = FiberIndex::build(b.coords());
        let (prb, prb_work) = a.as_view().dot_probe(b.as_view(), &idx);
        prop_assert_eq!(prb.to_bits(), want.to_bits());
        prop_assert_eq!(prb_work, want_work);
    }

    /// Same dot family over sparse spans, which flips the probe index into
    /// its short/skip tiers and makes the gallop take long advances.
    #[test]
    fn dot_family_matches_scalar_sparse_spans(
        a in fiber(2_000_000, 40),
        b in fiber(2_000_000, 200),
    ) {
        let (want, want_work) = a.as_view().dot_scalar(b.as_view());
        let (got, got_work) = a.as_view().dot(b.as_view());
        prop_assert_eq!(got.to_bits(), want.to_bits());
        prop_assert_eq!(got_work, want_work);
        let (gal, gal_work) = a.as_view().dot_gallop(b.as_view());
        prop_assert_eq!(gal.to_bits(), want.to_bits());
        prop_assert_eq!(gal_work, want_work);
        let idx = FiberIndex::build(b.coords());
        let (prb, prb_work) = a.as_view().dot_probe(b.as_view(), &idx);
        prop_assert_eq!(prb.to_bits(), want.to_bits());
        prop_assert_eq!(prb_work, want_work);
    }

    /// Index probes: every tier's `position` (short scans and skip-block
    /// scans run through `simd::find_eq_u32`) agrees with binary search,
    /// for present and absent coordinates alike.
    #[test]
    fn index_positions_match_binary_search(f in fiber(100_000, 120), probes in proptest::collection::vec(0u32..100_000, 0..60)) {
        let idx = FiberIndex::build(f.coords());
        for c in f.coords().iter().copied().chain(probes) {
            let want = f.coords().binary_search(&c).ok();
            prop_assert_eq!(idx.position(f.coords(), c), want, "tier {}", idx.tier_name());
        }
    }

    /// Fiber scaling (`extend_scaled_f32`): lanewise SIMD multiplies are
    /// bit-identical to the scalar map at every length and alignment.
    #[test]
    fn scale_from_matches_scalar_map(f in fiber(100_000, 200), k in 0.25f32..4.0) {
        let mut out = Fiber::new();
        out.scale_from(f.as_view(), k);
        prop_assert_eq!(out.coords(), f.coords());
        for (o, i) in out.values().iter().zip(f.values()) {
            prop_assert_eq!(o.to_bits(), (i * k).to_bits());
        }
    }

    /// Accumulator drains (`compress_word` compaction in the dense tier,
    /// the k-way merge in the runs tier): bit-identical to the k-way merge
    /// reference. Tight spaces force the dense tier, wide sparse ones
    /// mostly the runs tier; partial tail words are covered by
    /// non-multiple-of-64 spans.
    #[test]
    fn accum_drains_match_merge_reference(
        dense in proptest::collection::vec(fiber(197, 50), 1..8),
        sparse in proptest::collection::vec(fiber(150_011, 20), 1..8),
    ) {
        for batch in [&dense, &sparse] {
            let nnz: u64 = batch.iter().map(|f| f.len() as u64).sum();
            if nnz == 0 {
                continue;
            }
            let lo = batch.iter().filter(|f| !f.is_empty()).map(|f| f.coords()[0]).min().expect("nnz > 0");
            let hi = batch.iter().filter(|f| !f.is_empty()).map(|f| f.coords()[f.len() - 1]).max().expect("nnz > 0");
            let mut acc = RowAccum::new();
            acc.begin(lo, hi, nnz);
            for f in batch {
                acc.scatter(f.as_view());
            }
            let got = acc.drain();
            let views: Vec<_> = batch.iter().map(Fiber::as_view).collect();
            let (want, _) = merge::merge_accumulate(&views);
            assert_bit_identical(&got, &want);
        }
    }

    /// Shim slice primitives straight against their `simd::scalar`
    /// references, so kernel-level agreement can't hide a primitive bug.
    #[test]
    fn shim_primitives_match_scalar(
        xs in proptest::collection::btree_set(0u32..10_000, 0..200),
        pivot in 0u32..10_000,
    ) {
        let v: Vec<u32> = xs.into_iter().collect();
        prop_assert_eq!(simd::prefix_lt_u32(&v, pivot), simd::scalar::prefix_lt_u32(&v, pivot));
        prop_assert_eq!(simd::run_lt_u32(&v, pivot), simd::scalar::prefix_lt_u32(&v, pivot));
        prop_assert_eq!(simd::find_eq_u32(&v, pivot), simd::scalar::find_eq_u32(&v, pivot));
    }

    /// Shim popcount primitives at every word-count tail.
    #[test]
    fn shim_popcounts_match_scalar(ws in proptest::collection::vec(0u64..u64::MAX, 0..40)) {
        let other: Vec<u64> = ws.iter().map(|w| w.rotate_left(17) ^ 0x0f0f_f0f0_0f0f_f0f0).collect();
        prop_assert_eq!(simd::popcount_u64(&ws), simd::scalar::popcount_u64(&ws));
        prop_assert_eq!(
            simd::and_popcount_u64(&ws, &other),
            simd::scalar::and_popcount_u64(&ws, &other)
        );
    }

    /// Shim compress-store against the trailing_zeros reference, over
    /// arbitrary presence words and non-empty output prefixes.
    #[test]
    fn shim_compress_word_matches_scalar(word in 0u64..u64::MAX, base in 0u32..1_000_000) {
        let vals: Vec<f32> = (0..64).map(|i| (i as f32 - 31.5) * 0.75).collect();
        let (mut c1, mut v1) = (vec![7u32], vec![0.5f32]);
        let (mut c2, mut v2) = (c1.clone(), v1.clone());
        simd::compress_word(word, base, &vals, &mut c1, &mut v1);
        simd::scalar::compress_word(word, base, &vals, &mut c2, &mut v2);
        prop_assert_eq!(c1, c2);
        for (a, b) in v1.iter().zip(&v2) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

/// The merged-fiber counters must also agree between the dispatching k-way
/// entry point and a scalar-only composition — deterministic shapes that
/// pin the exact `comparisons = pops` contract across radixes.
#[test]
fn kway_radixes_agree_with_scalar_two_way_composition() {
    let mk = |seed: u32| {
        Fiber::from_sorted(
            (0..48u32)
                .filter(|c| (c.wrapping_mul(2654435761).wrapping_add(seed * 131)) % 3 == 0)
                .map(|c| Element::new(c, (seed + 1) as Value))
                .collect(),
        )
    };
    for ways in [2usize, 3, 4, 6, 12] {
        let fibers: Vec<Fiber> = (0..ways as u32).map(mk).collect();
        let views: Vec<_> = fibers.iter().map(Fiber::as_view).collect();
        let (kway, _) = merge::merge_accumulate(&views);
        let mut pairwise = Fiber::new();
        for f in &fibers {
            let (m, _) = merge::merge_two_scalar(pairwise.as_view(), f.as_view());
            pairwise = m;
        }
        assert_bit_identical(&kway, &pairwise);
    }
}

/// Dense drain with set bits in a partial tail word: the SIMD compaction
/// reads a full 64-slot window per presence word, which must be in bounds
/// even when the span ends mid-word.
#[test]
fn dense_drain_partial_tail_word() {
    for span in [65u32, 70, 127, 129] {
        let lo = 1000u32;
        let hi = lo + span - 1;
        let f = Fiber::from_sorted(vec![
            Element::new(lo, 1.5),
            Element::new(lo + span / 2, -2.5),
            Element::new(hi, 3.25),
        ]);
        let mut acc = RowAccum::new();
        acc.begin(lo, hi, 3);
        acc.scatter(f.as_view());
        let got = acc.drain();
        assert_bit_identical(&got, &f);
    }
}
