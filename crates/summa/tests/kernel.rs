//! The block kernel, `DenseMatrix::mul_add`, against a textbook
//! dot-product triple loop on every row and column tail of its register
//! tile, and its bitwise repeatability.

use proptest::prelude::*;
use ripple_summa::DenseMatrix;
use ripple_wire::to_wire;

/// `c + a × b` one dot product at a time, with each element's
/// `|c| + Σ |a·b|` — the magnitude its rounding error scales with.
fn textbook(c: &DenseMatrix, a: &DenseMatrix, b: &DenseMatrix) -> (DenseMatrix, DenseMatrix) {
    let mut want = c.clone();
    let mut scale = c.clone();
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let terms = (0..a.cols()).map(|k| a.get(i, k) * b.get(k, j));
            want.set(i, j, c.get(i, j) + terms.clone().sum::<f64>());
            scale.set(i, j, c.get(i, j).abs() + terms.map(f64::abs).sum::<f64>());
        }
    }
    (want, scale)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn mul_add_matches_the_triple_loop(
        rows in 1usize..38,
        inner in 1usize..38,
        cols in 1usize..38,
        seed in any::<u64>(),
    ) {
        let a = DenseMatrix::random(rows, inner, seed);
        let b = DenseMatrix::random(inner, cols, seed ^ 1);
        let c = DenseMatrix::random(rows, cols, seed ^ 2);
        let (want, scale) = textbook(&c, &a, &b);
        let mut got = c.clone();
        got.mul_add(&a, &b);
        for i in 0..rows {
            for j in 0..cols {
                let err = (got.get(i, j) - want.get(i, j)).abs();
                prop_assert!(
                    err <= 1e-12 * scale.get(i, j),
                    "{rows}x{inner}x{cols} at ({i}, {j}): {} vs {}",
                    got.get(i, j),
                    want.get(i, j)
                );
            }
        }
    }
}

#[test]
fn mul_add_is_bitwise_repeatable() {
    // The byte-identity suites compare products computed on different
    // stores and threads: the same operands must give the same bits.
    for (rows, inner, cols) in [(256, 256, 256), (37, 19, 29), (2, 2, 2), (5, 18, 7)] {
        let a = DenseMatrix::random(rows, inner, 21);
        let b = DenseMatrix::random(inner, cols, 22);
        let c = DenseMatrix::random(rows, cols, 23);
        let (mut first, mut second) = (c.clone(), c);
        first.mul_add(&a, &b);
        second.mul_add(&a, &b);
        assert_eq!(to_wire(&first), to_wire(&second), "{rows}x{inner}x{cols}");
        assert_eq!(to_wire(&a.multiply(&b)), to_wire(&a.multiply(&b)));
    }
}

#[test]
fn zero_times_infinity_is_nan() {
    // No term is skipped: 0 × ∞ contributes NaN, as in IEEE arithmetic.
    let a = DenseMatrix::from_vec(1, 2, vec![0.0, 1.0]);
    let b = DenseMatrix::from_vec(2, 1, vec![f64::INFINITY, 2.0]);
    assert!(a.multiply(&b).get(0, 0).is_nan());
}
