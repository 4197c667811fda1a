//! Property-based tests for the Gaussian-process stack.

use proptest::prelude::*;

use falcon_gp::linalg::{dot, Matrix};
use falcon_gp::sweep::nominate;
use falcon_gp::{
    Acquisition, AcquisitionKind, AscentPlan, AscentScratch, GpError, GpRegressor, LineLattice,
    Matern52, PredictScratch, SweepCache,
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

/// One GP fitted the pre-lockstep way: a dense kernel matrix from
/// `Matern52::eval`, `Matrix::cholesky` under the cumulative jitter
/// ladder, then the two triangular solves — the oracle `fit_auto`'s
/// lockstep grid must reproduce bit for bit.
struct DenseFit {
    kernel: Matern52,
    noise: f64,
    x: Vec<Vec<f64>>,
    y_mean: f64,
    chol: Matrix,
    alpha: Vec<f64>,
    lml: f64,
}

impl DenseFit {
    fn new(x: &[Vec<f64>], y: &[f64], kernel: Matern52, noise: f64) -> Option<Self> {
        let n = x.len();
        let y_mean = y.iter().sum::<f64>() / n as f64;
        let y_centered: Vec<f64> = y.iter().map(|v| v - y_mean).collect();
        let mut k = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let v = kernel.eval(&x[i], &x[j]);
                k[(i, j)] = v;
                k[(j, i)] = v;
            }
            k[(i, i)] += noise;
        }
        let mut jitter = 1e-10 * kernel.diag();
        let chol = loop {
            match k.cholesky() {
                Ok(l) => break l,
                Err(_) if jitter > 1e3 * kernel.diag() => return None,
                Err(_) => {
                    for i in 0..n {
                        k[(i, i)] += jitter;
                    }
                    jitter *= 10.0;
                }
            }
        };
        let (mut tmp, mut alpha) = (Vec::new(), Vec::new());
        chol.solve_lower_into(&y_centered, &mut tmp).ok()?;
        chol.solve_lower_transpose_into(&tmp, &mut alpha).ok()?;
        let data_fit = -0.5 * dot(&y_centered, &alpha);
        let complexity = -0.5 * chol.cholesky_log_det();
        let norm = -0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln();
        Some(DenseFit {
            kernel,
            noise,
            x: x.to_vec(),
            y_mean,
            chol,
            alpha,
            lml: data_fit + complexity + norm,
        })
    }

    fn predict(&self, q: &[f64]) -> (f64, f64) {
        let k_star: Vec<f64> = self.x.iter().map(|p| self.kernel.eval(q, p)).collect();
        let mean = self.y_mean + dot(&k_star, &self.alpha);
        let mut v = Vec::new();
        self.chol.solve_lower_into(&k_star, &mut v).unwrap();
        let var = self.kernel.diag() + self.noise - dot(&v, &v);
        (mean, var.max(1e-12))
    }
}

/// `fit_auto` as twelve independent dense fits, keeping the first with the
/// highest log marginal likelihood.
fn dense_fit_auto(x: &[Vec<f64>], y: &[f64], noise: f64) -> Option<DenseFit> {
    let dim = x[0].len();
    let mut span: f64 = 0.0;
    for d in 0..dim {
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for p in x {
            lo = lo.min(p[d]);
            hi = hi.max(p[d]);
        }
        span = span.max(hi - lo);
    }
    if span <= 0.0 {
        span = 1.0;
    }
    let y_mean = y.iter().sum::<f64>() / y.len() as f64;
    let mut y_var = y.iter().map(|v| (v - y_mean) * (v - y_mean)).sum::<f64>() / y.len() as f64;
    if y_var <= 1e-12 {
        y_var = 1.0;
    }
    let mut best: Option<DenseFit> = None;
    for ls_frac in [0.1, 0.2, 0.4, 0.8] {
        for var_mul in [0.5, 1.0, 2.0] {
            let kernel = Matern52::new(y_var * var_mul, span * ls_frac);
            if let Some(fit) = DenseFit::new(x, y, kernel, noise) {
                if best.as_ref().is_none_or(|b| fit.lml > b.lml) {
                    best = Some(fit);
                }
            }
        }
    }
    best
}

/// Bit equality, treating any two NaNs as equal (Rust leaves NaN payloads
/// unspecified).
fn same_bits(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// A test coordinate or target: code 0–2 is NaN, +∞, −∞ when `special`,
/// 3–18 a small integer (so points repeat and force the jitter ladder),
/// otherwise `raw`.
fn value(code: u32, raw: f64, special: bool) -> f64 {
    match code {
        0 if special => f64::NAN,
        1 if special => f64::INFINITY,
        2 if special => f64::NEG_INFINITY,
        0..=18 => f64::from(code % 16) - 8.0,
        _ => raw,
    }
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
        let mut x = Vec::new();
        l.solve_lower_transpose_into(&y, &mut x).expect("matching dimension");
        for (i, bi) in b.iter().enumerate() {
            let back: f64 = (0..4).map(|j| a[(i, j)] * x[j]).sum();
            prop_assert!((back - bi).abs() < 1e-6, "{back} vs {bi}");
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
            grown.extend(&xs[i], ys[i]).expect("extend must accept in-domain points");
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
            slid.extend(&xs[i], ys[i]).expect("extend must accept in-domain points");
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

proptest! {
    /// `fit_auto`'s lockstep grid is bit-identical to twelve dense fits:
    /// the same winner (or the same failure), the same log marginal
    /// likelihood, and the same posterior at five points, over 1–21
    /// points in 1–3 dimensions with repeated inputs, constant targets,
    /// NaN/±∞ inputs and targets, and negative noise that drives the
    /// jitter ladder up several rungs.
    #[test]
    fn fit_auto_matches_twelve_dense_fits_bitwise(
        n in 1usize..=21,
        dim in 1usize..=3,
        x_codes in proptest::collection::vec(0u32..40, 63),
        x_raw in proptest::collection::vec(-30.0f64..30.0, 63),
        y_codes in proptest::collection::vec(0u32..40, 21),
        y_raw in proptest::collection::vec(-100.0f64..100.0, 21),
        mode in 0u32..6,
        noise_code in 0usize..5,
        q_raw in proptest::collection::vec(-40.0f64..40.0, 15),
    ) {
        // Modes 1 and 3 put specials in the inputs, 2 and 3 in the
        // targets; 4 makes the targets constant.
        let (x_special, y_special) = (mode == 1 || mode == 3, mode == 2 || mode == 3);
        let x: Vec<Vec<f64>> = (0..n)
            .map(|i| (0..dim).map(|d| value(x_codes[i * 3 + d], x_raw[i * 3 + d], x_special)).collect())
            .collect();
        let y: Vec<f64> = (0..n)
            .map(|i| if mode == 4 { 3.5 } else { value(y_codes[i], y_raw[i], y_special) })
            .collect();
        let noise = [0.02, 1e-3, 0.0, -1e-6, -0.5][noise_code];

        let got = GpRegressor::fit_auto(&x, &y, noise);
        let want = dense_fit_auto(&x, &y, noise);
        let (got, want) = match (got, want) {
            (Err(e), None) => {
                prop_assert_eq!(e, GpError::NotPositiveDefinite);
                return Ok(());
            }
            (Ok(got), Some(want)) => (got, want),
            (got, want) => {
                return Err(TestCaseError::fail(format!(
                    "fit_auto {:?} vs oracle {}",
                    got.map(|g| g.hyperparameters()),
                    if want.is_some() { "Some" } else { "None" }
                )));
            }
        };
        let (kernel, got_noise) = got.hyperparameters();
        prop_assert!(same_bits(kernel.variance, want.kernel.variance), "σ² {} vs {}", kernel.variance, want.kernel.variance);
        prop_assert!(same_bits(kernel.length_scale, want.kernel.length_scale), "ℓ {} vs {}", kernel.length_scale, want.kernel.length_scale);
        prop_assert!(same_bits(got_noise, noise));
        let lml = got.log_marginal_likelihood();
        prop_assert!(same_bits(lml, want.lml), "lml {} vs {}", lml, want.lml);
        let mut scratch = PredictScratch::default();
        for qi in 0..5 {
            // Even queries sit on the integer lattice (the kernel-table
            // path in 1-D), odd ones between it.
            let q: Vec<f64> = q_raw[qi * 3..qi * 3 + dim]
                .iter()
                .map(|&v| if qi % 2 == 0 { v.round() } else { v })
                .collect();
            let (gm, gv) = got.predict_into(&q, &mut scratch);
            let (wm, wv) = want.predict(&q);
            prop_assert!(same_bits(gm, wm) && same_bits(gv, wv), "posterior at {:?}: ({}, {}) vs ({}, {})", q, gm, gv, wm, wv);
        }
    }

    /// The sweep cache's four-lane block fills and `predict_lanes` equal
    /// one-lane `predict_into` bit for bit, in μ and σ: over 1-D integral
    /// inputs (the kernel table), 1-D fractional ones, a 2-D cc×p grid and
    /// lattice points past the table's reach; with candidates touched in
    /// a random order, so every block is filled from every alignment, the
    /// padded tail included; as fitted, after two window slides and after
    /// a refit, through one cache and one lane scratch throughout.
    #[test]
    fn lane_posteriors_match_one_lane_bitwise(
        shape in 0u32..4,
        n in 1usize..=20,
        codes in proptest::collection::vec(0u32..40, 22),
        fracs in proptest::collection::vec(-0.5f64..0.5, 22),
        ys in proptest::collection::vec(-3.0f64..3.0, 22),
        n_candidates in 1usize..=23,
        order in proptest::collection::vec(0usize..1000, 23),
    ) {
        let point = |k: usize| -> Vec<f64> {
            let c = f64::from(codes[k]);
            match shape {
                0 => vec![c + 1.0],
                1 => vec![c + 1.0 + fracs[k]],
                2 => vec![c % 8.0 + 1.0, (c / 8.0).floor() + 1.0],
                _ => vec![c * 97.0],
            }
        };
        let candidates: Vec<Vec<f64>> = (0..n_candidates)
            .map(|i| {
                let c = i as f64;
                match shape {
                    0 => vec![c + 1.0],
                    1 => vec![c + 1.5],
                    2 => vec![c % 5.0 + 1.0, (c / 5.0).floor() + 1.0],
                    _ => vec![c * 89.0],
                }
            })
            .collect();
        // Touch order: candidates sorted by a random key.
        let mut touch: Vec<usize> = (0..n_candidates).collect();
        touch.sort_by_key(|&i| order[i]);

        let xs: Vec<Vec<f64>> = (0..n).map(point).collect();
        let Ok(mut gp) = GpRegressor::fit_auto(&xs, &ys[..n], 0.02) else {
            return Ok(());
        };
        let mut cache = SweepCache::new();
        let mut lanes = PredictScratch::default();
        for phase in 0..4 {
            cache.begin(n_candidates);
            for &i in &touch {
                let (m, s) = cache.posterior(&gp, &candidates, i);
                let (wm, wv) = gp.predict_into(&candidates[i], &mut PredictScratch::default());
                prop_assert!(
                    same_bits(m, wm) && same_bits(s, wv.sqrt()),
                    "phase {phase}, candidate {i}: ({m}, {s}) vs ({wm}, {})", wv.sqrt()
                );
            }
            let quad: [&[f64]; 4] =
                std::array::from_fn(|l| candidates[touch[l % n_candidates]].as_slice());
            for (l, (m, v)) in gp.predict_lanes(quad, &mut lanes).into_iter().enumerate() {
                let (wm, wv) = gp.predict_into(quad[l], &mut PredictScratch::default());
                prop_assert!(same_bits(m, wm) && same_bits(v, wv), "phase {phase}, lane {l}");
            }
            match phase {
                0 | 1 => {
                    if gp.slide(&point(n + phase), ys[n + phase]).is_err() {
                        return Ok(());
                    }
                }
                _ => {
                    let window: Vec<Vec<f64>> = gp.inputs().map(<[f64]>::to_vec).collect();
                    let Ok(refit) = GpRegressor::fit_auto(&window, gp.targets(), 0.02) else {
                        return Ok(());
                    };
                    gp = refit;
                }
            }
        }
    }
}
