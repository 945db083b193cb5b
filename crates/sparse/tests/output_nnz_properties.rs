//! The symbolic output-size pass against the numeric reference: for every
//! operand order, `stats::output_nnz(a, b)` must equal the number of
//! non-zeros `reference::gustavson` stores for `a × b` — including entries
//! whose value is an exact zero (stored zeros in the operands, and sums that
//! cancel), which the reference keeps and the symbolic pass never sees.

use flexagon_sparse::{
    gen, reference, stats::output_nnz, CompressedMatrix, FormatError, MajorOrder,
};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const ORDERS: [MajorOrder; 2] = [MajorOrder::Row, MajorOrder::Col];

/// Values drawn from a set holding `0.0` and a cancelling pair, so stored
/// zeros and zero sums both occur.
const VALUES: [f32; 4] = [0.0, 1.0, -1.0, 2.5];

/// Strategy: a `rows x cols` CSR matrix of up to `max_nnz` cells, sparse
/// enough that empty rows and columns are common.
fn matrix(rows: u32, cols: u32, max_nnz: usize) -> impl Strategy<Value = CompressedMatrix> {
    collection::btree_map((0..rows, 0..cols), 0..VALUES.len(), 0..max_nnz).prop_map(move |cells| {
        let triplets: Vec<_> = cells
            .into_iter()
            .map(|((r, c), v)| (r, c, VALUES[v]))
            .collect();
        CompressedMatrix::from_triplets(rows, cols, &triplets, MajorOrder::Row)
            .expect("in-range distinct cells")
    })
}

/// Strategy: a dimension-compatible `(A, B)` pair.
fn operands() -> impl Strategy<Value = (CompressedMatrix, CompressedMatrix)> {
    (1u32..14, 1u32..14, 1u32..14, 0usize..60)
        .prop_flat_map(|(m, k, n, max_nnz)| (matrix(m, k, max_nnz), matrix(k, n, max_nnz)))
}

/// What the numeric reference stores for `a × b`.
fn reference_nnz(a: &CompressedMatrix, b: &CompressedMatrix) -> u64 {
    let c = reference::gustavson(&a.converted(MajorOrder::Row), &b.converted(MajorOrder::Row))
        .expect("compatible operands");
    c.nnz() as u64
}

/// Checks every order combination of `(a, b)` against the reference.
fn check_all_orders(a: &CompressedMatrix, b: &CompressedMatrix, label: &str) {
    let want = reference_nnz(a, b);
    for a_order in ORDERS {
        for b_order in ORDERS {
            let (a, b) = (a.converted(a_order), b.converted(b_order));
            assert_eq!(
                output_nnz(a.view(), b.view()),
                Ok(want),
                "{label}: {a_order:?} x {b_order:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// CSR x CSR, CSC x CSC and both mixed orders all count what the
    /// reference stores.
    #[test]
    fn symbolic_nnz_matches_reference((a, b) in operands()) {
        check_all_orders(&a, &b, "random");
    }
}

#[test]
fn cancelling_sums_and_stored_zeros_still_count() {
    // C[0][0] = 1·1 + 1·(-1) = 0 and C[0][1] = 0·3: both stay stored.
    let a = CompressedMatrix::from_triplets(1, 2, &[(0, 0, 1.0), (0, 1, 1.0)], MajorOrder::Row)
        .unwrap();
    let b = CompressedMatrix::from_triplets(
        2,
        2,
        &[(0, 0, 1.0), (1, 0, -1.0), (1, 1, 0.0)],
        MajorOrder::Row,
    )
    .unwrap();
    assert_eq!(reference_nnz(&a, &b), 2);
    check_all_orders(&a, &b, "cancelling");
}

#[test]
fn empty_operands_and_empty_inner_dimension() {
    let a = CompressedMatrix::zero(5, 7, MajorOrder::Row);
    let b = gen::random(
        7,
        4,
        0.5,
        MajorOrder::Row,
        &mut ChaCha8Rng::seed_from_u64(1),
    );
    check_all_orders(&a, &b, "empty A");
    let c = gen::random(
        3,
        5,
        0.5,
        MajorOrder::Row,
        &mut ChaCha8Rng::seed_from_u64(2),
    );
    check_all_orders(&c, &a, "empty B");
    let a = CompressedMatrix::zero(3, 0, MajorOrder::Row);
    let b = CompressedMatrix::zero(0, 6, MajorOrder::Row);
    check_all_orders(&a, &b, "k = 0");
}

#[test]
fn adversarial_families_match_reference() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xAD5E);
    for s in gen::adversarial_sweep(&mut rng) {
        check_all_orders(&s.a, &s.b, &s.name);
    }
}

#[test]
fn dimension_mismatch_is_a_typed_error() {
    let a = CompressedMatrix::zero(2, 3, MajorOrder::Row);
    let b = CompressedMatrix::zero(4, 2, MajorOrder::Row);
    for a_order in ORDERS {
        for b_order in ORDERS {
            let (a, b) = (a.converted(a_order), b.converted(b_order));
            assert_eq!(
                output_nnz(a.view(), b.view()),
                Err(FormatError::DimensionMismatch {
                    left_cols: 3,
                    right_rows: 4,
                }),
                "{a_order:?} x {b_order:?}"
            );
        }
    }
}
