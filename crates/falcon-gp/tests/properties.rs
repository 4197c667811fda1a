//! Property-based tests for the Gaussian-process stack.

use proptest::prelude::*;

use falcon_gp::linalg::{dot, Matrix};
use falcon_gp::sweep::nominate;
use falcon_gp::{
    Acquisition, AcquisitionKind, AscentPlan, AscentScratch, GpRegressor, LineLattice, Matern52,
    PredictScratch, SweepCache,
};

/// Build a random symmetric positive-definite matrix `A = B·Bᵀ + εI`.
fn spd(values: &[f64], n: usize) -> Matrix {
    let mut b = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            b[(i, j)] = values[i * n + j];
        }
    }
    let mut a = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            let mut s = 0.0;
            for k in 0..n {
                s += b[(i, k)] * b[(j, k)];
            }
            a[(i, j)] = s;
        }
        a[(i, i)] += 0.5;
    }
    a
}

proptest! {
    /// Cholesky solves invert random SPD systems: `A·x = b` round-trips.
    #[test]
    fn cholesky_solves_random_spd(
        vals in proptest::collection::vec(-2.0f64..2.0, 16),
        b in proptest::collection::vec(-10.0f64..10.0, 4),
    ) {
        let a = spd(&vals, 4);
        let l = a.cholesky().expect("SPD by construction");
        let mut y = Vec::new();
        l.solve_lower_into(&b, &mut y).expect("matching dimension");
        let x = l.solve_lower_transpose(&y).expect("matching dimension");
        let back = a.mat_vec(&x);
        for (u, v) in back.iter().zip(&b) {
            prop_assert!((u - v).abs() < 1e-6, "{u} vs {v}");
        }
    }

    /// Cholesky log-det is finite and the factor is lower-triangular with
    /// positive diagonal.
    #[test]
    fn cholesky_factor_well_formed(
        vals in proptest::collection::vec(-2.0f64..2.0, 9),
    ) {
        let a = spd(&vals, 3);
        let l = a.cholesky().unwrap();
        for i in 0..3 {
            prop_assert!(l[(i, i)] > 0.0);
            for j in (i + 1)..3 {
                prop_assert_eq!(l[(i, j)], 0.0);
            }
        }
        prop_assert!(l.cholesky_log_det().is_finite());
    }

    /// The kernel is symmetric, bounded by its variance, and maximal at
    /// zero distance.
    #[test]
    fn kernel_symmetric_and_bounded(
        a in proptest::collection::vec(-50.0f64..50.0, 2),
        b in proptest::collection::vec(-50.0f64..50.0, 2),
        var in 0.1f64..10.0,
        ls in 0.1f64..20.0,
    ) {
        let k = Matern52::new(var, ls);
        let kab = k.eval(&a, &b);
        let kba = k.eval(&b, &a);
        prop_assert!((kab - kba).abs() < 1e-12);
        prop_assert!(kab <= var + 1e-12);
        prop_assert!(kab >= 0.0);
        prop_assert!((k.eval(&a, &a) - var).abs() < 1e-9);
    }

    /// GP posterior variance is non-negative everywhere and the posterior
    /// mean is finite for arbitrary targets.
    #[test]
    fn gp_posterior_well_formed(
        ys in proptest::collection::vec(-1000.0f64..1000.0, 2..12),
        q in -100.0f64..100.0,
    ) {
        let xs: Vec<Vec<f64>> = (0..ys.len()).map(|i| vec![i as f64 * 3.0]).collect();
        let gp = GpRegressor::fit(&xs, &ys, Matern52::new(1.0, 5.0), 1e-3).unwrap();
        let (m, v) = gp.predict_into(&[q], &mut PredictScratch::default());
        prop_assert!(m.is_finite());
        prop_assert!(v >= 0.0 && v.is_finite());
    }

    /// The acquisition search always nominates a valid candidate index,
    /// for all portfolio members, from any start and under any scan stride.
    #[test]
    fn acquisition_argmax_in_range(
        ys in proptest::collection::vec(-10.0f64..10.0, 3..10),
        best in -10.0f64..10.0,
        n_candidates in 1usize..40,
        start in 0usize..80,
        stride in 0usize..50,
    ) {
        let xs: Vec<Vec<f64>> = (0..ys.len()).map(|i| vec![i as f64]).collect();
        let gp = GpRegressor::fit(&xs, &ys, Matern52::new(1.0, 2.0), 1e-2).unwrap();
        let candidates: Vec<Vec<f64>> = (0..n_candidates).map(|i| vec![i as f64 * 0.5]).collect();
        let lattice = LineLattice::new(candidates.len());
        let starts = [start];
        let plan = AscentPlan { starts: &starts, scan_stride: (stride > 0).then_some(stride) };
        let mut cache = SweepCache::new();
        let mut scratch = AscentScratch::default();
        for kind in AcquisitionKind::portfolio() {
            let acq = Acquisition::with_defaults(kind);
            cache.begin(candidates.len());
            let idx = nominate(
                &acq, &gp, &candidates, &lattice, &plan, &mut cache, &mut scratch, best,
            );
            prop_assert!(idx < candidates.len());
        }
    }

    /// dot() agrees with a manual loop.
    #[test]
    fn dot_matches_manual(
        a in proptest::collection::vec(-100.0f64..100.0, 1..20),
    ) {
        let b: Vec<f64> = a.iter().map(|x| x * 0.5 - 1.0).collect();
        let manual: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        prop_assert!((dot(&a, &b) - manual).abs() < 1e-9 * manual.abs().max(1.0));
    }

    /// Incremental `extend` agrees with a from-scratch `fit` over random
    /// observation sequences: posterior mean, variance, and the
    /// log-marginal-likelihood all match to 1e-9 at every prefix split.
    #[test]
    fn extend_matches_refit_on_random_sequences(
        ys in proptest::collection::vec(-100.0f64..100.0, 4..14),
        split in 2usize..6,
        q in -10.0f64..74.0,
    ) {
        let n = ys.len();
        let split = split.min(n - 1);
        let xs: Vec<Vec<f64>> = (0..n).map(|i| vec![(i * 5 % 64) as f64]).collect();
        let kernel = Matern52::new(1.0, 10.0);

        let mut grown = GpRegressor::fit(&xs[..split], &ys[..split], kernel, 1e-3).unwrap();
        for i in split..n {
            grown.extend(xs[i].clone(), ys[i]).expect("extend must accept in-domain points");
            let full = GpRegressor::fit(&xs[..=i], &ys[..=i], kernel, 1e-3).unwrap();
            let (gm, gv) = grown.predict_into(&[q], &mut PredictScratch::default());
            let (fm, fv) = full.predict_into(&[q], &mut PredictScratch::default());
            prop_assert!((gm - fm).abs() < 1e-9, "mean {gm} vs {fm} at n={}", i + 1);
            prop_assert!((gv - fv).abs() < 1e-9, "var {gv} vs {fv} at n={}", i + 1);
            let (gl, fl) = (grown.log_marginal_likelihood(), full.log_marginal_likelihood());
            prop_assert!((gl - fl).abs() < 1e-9 * fl.abs().max(1.0), "lml {gl} vs {fl}");
        }
    }

    /// Dropping any row/column from a Cholesky factor matches factoring
    /// the reduced matrix from scratch, for random SPD matrices and every
    /// drop position.
    #[test]
    fn cholesky_drop_matches_reduced_factorization(
        vals in proptest::collection::vec(-2.0f64..2.0, 25),
        idx in 0usize..5,
    ) {
        let a = spd(&vals, 5);
        let mut dropped = a.cholesky().expect("SPD by construction");
        dropped.cholesky_drop_row(idx).expect("reduced matrix stays SPD");
        let mut reduced = Matrix::zeros(4, 4);
        for i in 0..4 {
            for j in 0..4 {
                let (si, sj) = (i + usize::from(i >= idx), j + usize::from(j >= idx));
                reduced[(i, j)] = a[(si, sj)];
            }
        }
        let fresh = reduced.cholesky().expect("principal submatrix of SPD is SPD");
        for i in 0..4 {
            for j in 0..=i {
                prop_assert!(
                    (dropped[(i, j)] - fresh[(i, j)]).abs() < 1e-9,
                    "L[({i},{j})] after dropping {idx}: {} vs {}",
                    dropped[(i, j)], fresh[(i, j)]
                );
            }
        }
    }

    /// A GP slid along a random observation stream (`drop_oldest` +
    /// `extend` per step) matches a from-scratch fit of the same window at
    /// every slide: posterior mean/variance within 1e-9.
    #[test]
    fn sliding_window_matches_refit_at_every_slide(
        ys in proptest::collection::vec(-100.0f64..100.0, 8..20),
        window in 3usize..7,
        q in -10.0f64..74.0,
    ) {
        let n = ys.len();
        let xs: Vec<Vec<f64>> = (0..n).map(|i| vec![(i * 7 % 64) as f64]).collect();
        let kernel = Matern52::new(1.0, 10.0);
        let mut slid = GpRegressor::fit(&xs[..window], &ys[..window], kernel, 1e-3).unwrap();
        for i in window..n {
            slid.drop_oldest().expect("window > 1");
            slid.extend(xs[i].clone(), ys[i]).expect("extend must accept in-domain points");
            let lo = i + 1 - window;
            let fresh = GpRegressor::fit(&xs[lo..=i], &ys[lo..=i], kernel, 1e-3).unwrap();
            let (sm, sv) = slid.predict_into(&[q], &mut PredictScratch::default());
            let (fm, fv) = fresh.predict_into(&[q], &mut PredictScratch::default());
            prop_assert!((sm - fm).abs() < 1e-9, "mean {sm} vs {fm} at slide {i}");
            prop_assert!((sv - fv).abs() < 1e-9, "var {sv} vs {fv} at slide {i}");
        }
    }

    /// Appending a row to a Cholesky factor matches factoring the bordered
    /// matrix from scratch, for random SPD matrices.
    #[test]
    fn cholesky_append_matches_bordered_factorization(
        vals in proptest::collection::vec(-2.0f64..2.0, 25),
    ) {
        let a = spd(&vals, 5);
        let full = a.cholesky().expect("SPD by construction");
        // Factor the leading 4×4 block, then append A's last row.
        let mut lead = Matrix::zeros(4, 4);
        for i in 0..4 {
            for j in 0..4 {
                lead[(i, j)] = a[(i, j)];
            }
        }
        let mut grown = lead.cholesky().expect("leading block of SPD is SPD");
        let k: Vec<f64> = (0..4).map(|j| a[(4, j)]).collect();
        grown.cholesky_append_row(&k, a[(4, 4)]).expect("bordered matrix stays SPD");
        for i in 0..5 {
            for j in 0..=i {
                prop_assert!(
                    (grown[(i, j)] - full[(i, j)]).abs() < 1e-9,
                    "L[({i},{j})]: {} vs {}", grown[(i, j)], full[(i, j)]
                );
            }
        }
    }
}
