//! Parallel matmul kernels must be **bitwise** equal to the serial kernels —
//! not within a tolerance — for every thread count and for ragged shapes
//! whose row counts do not divide evenly across workers. This is the
//! foundation the trainer's any-thread-count reproducibility stands on.
//!
//! The tiled kernels are also checked bit for bit against the dense triple
//! loops below: one accumulator per output element, starting at `+0.0`,
//! folding the products in ascending-`p` order, with no zero-skip.

use proptest::prelude::*;
use rll_tensor::Matrix;

/// Oracle for `a · b`.
fn oracle_nn(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    Matrix::from_fn(m, n, |i, j| {
        let mut acc = 0.0;
        for p in 0..k {
            acc += a.get(i, p).unwrap() * b.get(p, j).unwrap();
        }
        acc
    })
}

/// Oracle for `aᵀ · b`.
fn oracle_tn(a: &Matrix, b: &Matrix) -> Matrix {
    let (k, m, n) = (a.rows(), a.cols(), b.cols());
    Matrix::from_fn(m, n, |i, j| {
        let mut acc = 0.0;
        for p in 0..k {
            acc += a.get(p, i).unwrap() * b.get(p, j).unwrap();
        }
        acc
    })
}

/// Oracle for `a · bᵀ`.
fn oracle_nt(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k, n) = (a.rows(), a.cols(), b.rows());
    Matrix::from_fn(m, n, |i, j| {
        let mut acc = 0.0;
        for p in 0..k {
            acc += a.get(i, p).unwrap() * b.get(j, p).unwrap();
        }
        acc
    })
}

/// Element bits, for comparisons that must treat equal-bit NaNs as equal
/// (`Matrix`'s `PartialEq` uses float `==`, which NaN breaks).
fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// Strategy: a multiplication-compatible pair with ragged shapes (including
/// rows ≪ threads and rows that leave a remainder chunk) and runs of exact
/// zeros, as ReLU activations produce.
fn ragged_pair() -> impl Strategy<Value = (Matrix, Matrix)> {
    (1usize..=17, 1usize..=9, 1usize..=13).prop_flat_map(|(m, k, n)| {
        // Snap ~20% of draws to exact 0.0.
        fn sparse(x: f64) -> f64 {
            if x.abs() < 2.0 {
                0.0
            } else {
                x
            }
        }
        (
            prop::collection::vec((-10.0f64..10.0).prop_map(sparse), m * k)
                .prop_map(move |d| Matrix::from_vec(m, k, d).unwrap()),
            prop::collection::vec((-10.0f64..10.0).prop_map(sparse), k * n)
                .prop_map(move |d| Matrix::from_vec(k, n, d).unwrap()),
        )
    })
}

const THREAD_COUNTS: [usize; 5] = [1, 2, 3, 4, 8];

proptest! {
    #[test]
    fn matmul_parallel_is_bitwise_serial((a, b) in ragged_pair()) {
        let serial = a.matmul_with_threads(&b, 1).unwrap();
        for threads in THREAD_COUNTS {
            let par = a.matmul_with_threads(&b, threads).unwrap();
            prop_assert_eq!(&par, &serial, "matmul threads={}", threads);
        }
    }

    #[test]
    fn matmul_tn_parallel_is_bitwise_serial((a, b) in ragged_pair()) {
        // a: m x k → a^T b needs shapes (m x k)^T · (m x n); transpose a to
        // get the k-rows operand the tn kernel expects.
        let at = a.transpose();
        let serial = at.matmul_tn_with_threads(&b, 1).unwrap();
        for threads in THREAD_COUNTS {
            let par = at.matmul_tn_with_threads(&b, threads).unwrap();
            prop_assert_eq!(&par, &serial, "matmul_tn threads={}", threads);
        }
    }

    #[test]
    fn matmul_nt_parallel_is_bitwise_serial((a, b) in ragged_pair()) {
        let bt = b.transpose();
        let serial = a.matmul_nt_with_threads(&bt, 1).unwrap();
        for threads in THREAD_COUNTS {
            let par = a.matmul_nt_with_threads(&bt, threads).unwrap();
            prop_assert_eq!(&par, &serial, "matmul_nt threads={}", threads);
        }
    }
}

proptest! {
    // The tiled kernels must be bitwise identical to the dense oracle for
    // every variant x thread count, on shapes that exercise every tile
    // tail (ragged rows, ragged columns, rows ≪ MR).
    #[test]
    fn tiled_is_bitwise_oracle_all_variants((a, b) in ragged_pair()) {
        let at = a.transpose();
        let bt = b.transpose();
        let want_nn = bits(&oracle_nn(&a, &b));
        let want_tn = bits(&oracle_tn(&at, &b));
        let want_nt = bits(&oracle_nt(&a, &bt));
        for threads in [1usize, 2, 4, 8, 16] {
            let nn = a.matmul_with_threads(&b, threads).unwrap();
            prop_assert_eq!(bits(&nn), want_nn.clone(), "nn threads={}", threads);
            let tn = at.matmul_tn_with_threads(&b, threads).unwrap();
            prop_assert_eq!(bits(&tn), want_tn.clone(), "tn threads={}", threads);
            let nt = a.matmul_nt_with_threads(&bt, threads).unwrap();
            prop_assert_eq!(bits(&nt), want_nt.clone(), "nt threads={}", threads);
        }
    }

    // The fused bias kernel must match the two-pass
    // matmul-then-add_row_broadcast composition bit-for-bit.
    #[test]
    fn matmul_bias_is_bitwise_two_pass((a, b, bias) in ragged_pair_with_bias()) {
        let two_pass = oracle_nn(&a, &b).add_row_broadcast(&bias).unwrap();
        for threads in [1usize, 3, 8] {
            let fused = a.matmul_bias_with_threads(&b, &bias, threads).unwrap();
            prop_assert_eq!(bits(&fused), bits(&two_pass), "bias threads={}", threads);
        }
        prop_assert_eq!(bits(&a.matmul_bias(&b, &bias).unwrap()), bits(&two_pass));
    }
}

/// Like [`ragged_pair`] plus a broadcast bias row of matching width.
fn ragged_pair_with_bias() -> impl Strategy<Value = (Matrix, Matrix, Matrix)> {
    (1usize..=17, 1usize..=9, 1usize..=13).prop_flat_map(|(m, k, n)| {
        (
            prop::collection::vec(-10.0f64..10.0, m * k)
                .prop_map(move |d| Matrix::from_vec(m, k, d).unwrap()),
            prop::collection::vec(-10.0f64..10.0, k * n)
                .prop_map(move |d| Matrix::from_vec(k, n, d).unwrap()),
            prop::collection::vec(-3.0f64..3.0, n)
                .prop_map(move |d| Matrix::from_vec(1, n, d).unwrap()),
        )
    })
}

#[test]
fn degenerate_shapes_bitwise_oracle_across_threads() {
    // Empty dimensions, single rows/columns, and 1x1 — every tile-loop tail
    // at once. (0-sized operands are legal: the product is the 0-element or
    // all-zero matrix.)
    let shapes = [
        (0, 0, 0),
        (0, 3, 2),
        (3, 0, 2),
        (3, 2, 0),
        (1, 1, 1),
        (1, 7, 1),
        (7, 1, 3),
        (1, 5, 8),
        (5, 1, 1),
        (6, 4, 4),
    ];
    let mut v = 0.61f64;
    let mut next = move || {
        v = (v * 883.0 + 0.071).fract();
        v * 4.0 - 2.0
    };
    for (m, k, n) in shapes {
        let a = Matrix::from_vec(m, k, (0..m * k).map(|_| next()).collect()).unwrap();
        let b = Matrix::from_vec(k, n, (0..k * n).map(|_| next()).collect()).unwrap();
        let at = a.transpose();
        let bt = b.transpose();
        let want_nn = bits(&oracle_nn(&a, &b));
        let want_tn = bits(&oracle_tn(&at, &b));
        let want_nt = bits(&oracle_nt(&a, &bt));
        for threads in [1usize, 2, 16] {
            let ctx = format!("shape {m}x{k}x{n} threads={threads}");
            assert_eq!(
                bits(&a.matmul_with_threads(&b, threads).unwrap()),
                want_nn,
                "nn {ctx}"
            );
            assert_eq!(
                bits(&at.matmul_tn_with_threads(&b, threads).unwrap()),
                want_tn,
                "tn {ctx}"
            );
            assert_eq!(
                bits(&a.matmul_nt_with_threads(&bt, threads).unwrap()),
                want_nt,
                "nt {ctx}"
            );
        }
    }
}

#[test]
fn non_finite_rhs_propagates_past_zero_lhs() {
    // `0.0 · NaN` and `0.0 · ±inf` are NaN, and IEEE 754 dense semantics
    // require them to propagate. The lhs zeros below sit exactly where the
    // rhs is poisoned, so a kernel that skipped exact zeros would get a
    // wrong (finite) answer.
    for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let a = Matrix::from_vec(
            3,
            4,
            vec![
                0.0, 1.0, 0.0, 2.0, // row 0: zero at p = 0 (the poisoned row of b)
                1.0, 0.5, -1.0, 0.0, // row 1: no zero at p = 0
                0.0, 0.0, 0.0, 0.0, // row 2: all-zero row
            ],
        )
        .unwrap();
        let mut b = Matrix::ones(4, 3);
        b.set(0, 0, poison).unwrap();
        let at = a.transpose();
        let bt = b.transpose();
        let oracle = oracle_nn(&a, &b);
        // Rows whose lhs factor at the poisoned position is exactly 0.0 meet
        // `0.0 · NaN` or `0.0 · ±inf`, both NaN.
        for r in [0usize, 2] {
            assert!(
                oracle.get(r, 0).unwrap().is_nan(),
                "poison {poison}: row {r} must be NaN"
            );
        }
        // Row 1 multiplies the poison by 1.0: NaN stays NaN, ±inf stays inf.
        assert!(
            !oracle.get(1, 0).unwrap().is_finite(),
            "poison {poison}: row 1 must be non-finite"
        );
        // Columns that never meet the poison stay finite.
        assert!(oracle.get(0, 1).unwrap().is_finite());
        for threads in [1usize, 2, 4, 8] {
            let ctx = format!("poison {poison} threads={threads}");
            assert_eq!(
                bits(&a.matmul_with_threads(&b, threads).unwrap()),
                bits(&oracle),
                "nn {ctx}"
            );
            assert_eq!(
                bits(&at.matmul_tn_with_threads(&b, threads).unwrap()),
                bits(&oracle),
                "tn {ctx}"
            );
            assert_eq!(
                bits(&a.matmul_nt_with_threads(&bt, threads).unwrap()),
                bits(&oracle),
                "nt {ctx}"
            );
        }
    }
}

#[test]
fn non_finite_lhs_propagates_and_matches_oracle() {
    // Poison on the *other* side: NaN/inf in the lhs while the rhs carries
    // the exact zeros.
    for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut a = Matrix::from_vec(
            3,
            4,
            vec![
                1.0, 2.0, 0.0, 1.0, //
                0.0, 1.0, 1.0, 0.5, //
                2.0, 0.0, 1.0, 1.0,
            ],
        )
        .unwrap();
        a.set(0, 1, poison).unwrap();
        let b = Matrix::from_vec(
            4,
            3,
            vec![
                1.0, 0.0, 2.0, //
                0.0, 1.0, 1.0, //
                1.0, 1.0, 0.0, //
                0.5, 0.0, 1.0,
            ],
        )
        .unwrap();
        let at = a.transpose();
        let bt = b.transpose();
        let oracle = oracle_nn(&a, &b);
        // Row 0 crosses the poison at p = 1. Where b[1][c] is exactly 0.0
        // (column 0) the product is `poison · 0.0` — NaN for NaN *and* for
        // ±inf; where b[1][c] is nonzero, NaN stays NaN and ±inf stays inf.
        assert!(
            oracle.get(0, 0).unwrap().is_nan(),
            "poison {poison}: out[0][0] must be NaN"
        );
        for c in 1..3 {
            assert!(
                !oracle.get(0, c).unwrap().is_finite(),
                "poison {poison}: out[0][{c}] must be non-finite"
            );
        }
        assert!(oracle.get(1, 0).unwrap().is_finite());
        for threads in [1usize, 2, 4, 8] {
            let ctx = format!("poison {poison} threads={threads}");
            assert_eq!(
                bits(&a.matmul_with_threads(&b, threads).unwrap()),
                bits(&oracle),
                "nn {ctx}"
            );
            assert_eq!(
                bits(&at.matmul_tn_with_threads(&b, threads).unwrap()),
                bits(&oracle),
                "tn {ctx}"
            );
            assert_eq!(
                bits(&a.matmul_nt_with_threads(&bt, threads).unwrap()),
                bits(&oracle),
                "nt {ctx}"
            );
        }
    }
}

#[test]
fn large_product_is_bitwise_stable_across_thread_counts() {
    // Big enough that the auto path (`matmul`) takes the threaded branch on
    // multi-core hosts; pinned against the explicit 1-thread kernel.
    let mut v = 0.37f64;
    let mut next = || {
        v = (v * 997.0 + 0.123).fract();
        v * 2.0 - 1.0
    };
    let a = Matrix::from_vec(96, 80, (0..96 * 80).map(|_| next()).collect()).unwrap();
    let b = Matrix::from_vec(80, 64, (0..80 * 64).map(|_| next()).collect()).unwrap();
    let serial = a.matmul_with_threads(&b, 1).unwrap();
    for threads in [2, 3, 4, 7, 16] {
        assert_eq!(a.matmul_with_threads(&b, threads).unwrap(), serial);
    }
    assert_eq!(a.matmul(&b).unwrap(), serial);

    let serial_tn = a.matmul_tn_with_threads(&a, 1).unwrap();
    let serial_nt = a.matmul_nt_with_threads(&a, 1).unwrap();
    for threads in [2, 4, 16] {
        assert_eq!(a.matmul_tn_with_threads(&a, threads).unwrap(), serial_tn);
        assert_eq!(a.matmul_nt_with_threads(&a, threads).unwrap(), serial_nt);
    }
}

#[test]
fn with_threads_still_validates_shapes() {
    let a = Matrix::ones(2, 3);
    let b = Matrix::ones(2, 3);
    assert!(a.matmul_with_threads(&b, 4).is_err());
    assert!(a.matmul_tn_with_threads(&Matrix::ones(5, 2), 4).is_err());
    assert!(a.matmul_nt_with_threads(&Matrix::ones(5, 4), 4).is_err());
    // threads = 0 is treated as 1, not an error.
    let c = Matrix::ones(3, 2);
    assert_eq!(
        a.matmul_with_threads(&c, 0).unwrap(),
        a.matmul_with_threads(&c, 1).unwrap()
    );
}

proptest! {
    // A segmented `aᵀ · b` and column sum must equal one product per row
    // segment added up in segment order, the first one assigned, bit for bit
    // at every thread count. Segment ends come from the shape so that
    // one-row and empty segments both occur.
    #[test]
    fn segmented_tn_is_bitwise_per_segment_sum((a, b) in ragged_pair(), cut in 1usize..=4) {
        // at: k x m and b: k x n share the k rows that get segmented.
        let at = a.transpose();
        let k = at.rows();
        let mut ends: Vec<usize> = (1..=k).filter(|e| e % cut == 0).collect();
        ends.insert(0, 0);
        ends.push(k);
        let mut want: Option<(Matrix, Matrix)> = None;
        let mut start = 0;
        for &end in &ends {
            let rows = |m: &Matrix| {
                let cols = m.cols();
                Matrix::from_vec(end - start, cols, m.as_slice()[start * cols..end * cols].to_vec())
                    .unwrap()
            };
            let tn = rows(&at).matmul_tn_with_threads(&rows(&b), 1).unwrap();
            let sums = rows(&at).col_sums();
            want = Some(match want {
                None => (tn, sums),
                Some((mut acc, mut acc_sums)) => {
                    acc.add_assign(&tn).unwrap();
                    acc_sums.add_assign(&sums).unwrap();
                    (acc, acc_sums)
                }
            });
            start = end;
        }
        let (want_tn, want_sums) = want.unwrap();
        for threads in THREAD_COUNTS {
            let got = at.matmul_tn_segments(&b, &ends, threads).unwrap();
            prop_assert_eq!(bits(&got), bits(&want_tn), "threads={}", threads);
        }
        prop_assert_eq!(bits(&at.col_sums_segments(&ends).unwrap()), bits(&want_sums));
    }
}

#[test]
fn segment_ends_must_ascend_to_the_row_count() {
    let a = Matrix::ones(4, 2);
    let b = Matrix::ones(4, 3);
    for bad in [&[][..], &[3][..], &[5][..], &[3, 2, 4][..]] {
        assert!(a.matmul_tn_segments(&b, bad, 1).is_err(), "{bad:?}");
        assert!(a.col_sums_segments(bad).is_err(), "{bad:?}");
    }
    assert!(a.matmul_tn_segments(&b, &[0, 2, 2, 4], 1).is_ok());
}
