//! Utility functions (paper §3.1, Equations 1–5 and 7).
//!
//! A utility function converts one probe's metrics `(n, t, L)` — concurrency,
//! per-thread throughput, loss rate — into a scalar. Competing transfers
//! converge to a fair, stable state (Nash equilibrium) only if all agents
//! maximize the *same strictly concave* utility, which is why the paper
//! rejects the throughput-linear form (Eq 1, second derivative 0) and the
//! linear concurrency regret (Eq 3, either suboptimal or unstable) in favour
//! of the nonlinear regret of Eq 4:
//!
//! ```text
//! u(n, t, L) = n·t / Kⁿ − n·t·L·B            (Eq 4)
//! ```
//!
//! Strict concavity of `f(n) = n·t/Kⁿ` holds iff `n < 2/ln K` (Eq 5), so `K`
//! sets the largest concurrency with an equilibrium guarantee — 1.02 bounds
//! it at ≈ 101, the paper's recommended balance of stability and headroom.

use crate::metrics::ProbeMetrics;

/// The utility model an agent maximizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UtilityFunction {
    /// Eq 1: `u = n·t` — throughput only. Not concave; included as the
    /// "what existing tools maximize" baseline.
    Throughput,
    /// Eq 2: `u = n·t − n·t·L·B` — loss regret only. Sufficient when the
    /// network is the bottleneck and loss signals congestion.
    LossRegret {
        /// Loss-punishment severity `B` (paper default 10).
        b: f64,
    },
    /// Eq 3: `u = n·t − n·t·L·B − n·t·n·C` — linear concurrency regret.
    /// Either converges below the optimum (large `C`) or over-provisions
    /// under competition (small `C`); kept for the Figure 6 comparison.
    LinearRegret {
        /// Loss-punishment severity `B`.
        b: f64,
        /// Linear concurrency punishment `C` (paper tests 0.01 and 0.02).
        c: f64,
    },
    /// Eq 4: `u = n·t/Kⁿ − n·t·L·B` — Falcon's nonlinear concurrency regret.
    NonlinearRegret {
        /// Loss-punishment severity `B` (default 10).
        b: f64,
        /// Regret base `K` (default 1.02: each extra concurrent transfer
        /// must buy ≥ 2% more throughput).
        k: f64,
    },
    /// Eq 7: `u = (n·p)·t/K^(n·p) − n·t·L·B` — multi-parameter form where the
    /// regret applies to the total connection count `n·p`. Pipelining is
    /// deliberately unpenalized (commands are nearly free).
    MultiParam {
        /// Loss-punishment severity `B`.
        b: f64,
        /// Regret base `K`.
        k: f64,
    },
}

impl UtilityFunction {
    /// The paper's production configuration: Eq 4 with `B = 10`, `K = 1.02`.
    ///
    /// # Examples
    ///
    /// ```
    /// use falcon_core::{ProbeMetrics, TransferSettings, UtilityFunction};
    ///
    /// let utility = UtilityFunction::falcon_default();
    /// // 10 concurrent transfers at 10 Mbps each, 0.5% packet loss:
    /// let metrics = ProbeMetrics::from_aggregate(
    ///     TransferSettings::with_concurrency(10),
    ///     100.0, // aggregate Mbps
    ///     0.005, // loss rate
    ///     5.0,   // probe interval seconds
    /// );
    /// let u = utility.evaluate(&metrics);
    /// // 100/1.02^10 − 100·0.005·10 ≈ 77.0
    /// assert!((u - 77.03).abs() < 0.1);
    /// ```
    pub fn falcon_default() -> Self {
        UtilityFunction::NonlinearRegret { b: 10.0, k: 1.02 }
    }

    /// The paper's multi-parameter configuration (§4.4).
    pub fn falcon_multi_param() -> Self {
        UtilityFunction::MultiParam { b: 10.0, k: 1.02 }
    }

    /// Evaluate the utility of one probe.
    pub fn evaluate(&self, m: &ProbeMetrics) -> f64 {
        let n = f64::from(m.settings.concurrency);
        let t = m.per_thread_mbps;
        let l = m.loss_rate;
        let nt = n * t;
        match *self {
            UtilityFunction::Throughput => nt,
            UtilityFunction::LossRegret { b } => nt - nt * l * b,
            UtilityFunction::LinearRegret { b, c } => nt - nt * l * b - nt * n * c,
            UtilityFunction::NonlinearRegret { b, k } => nt / k.powf(n) - nt * l * b,
            UtilityFunction::MultiParam { b, k } => {
                let conns = f64::from(m.settings.total_connections());
                nt / k.powf(conns) - nt * l * b
            }
        }
    }

    /// Analytic utility for a modelled throughput curve — used to draw the
    /// paper's Figure 6(a) "estimated utility" plot. `t_of_n` maps
    /// concurrency to per-thread throughput; loss is taken as 0 (the
    /// sender-limited regime the figure assumes).
    pub fn estimated_curve<F: Fn(u32) -> f64>(&self, max_n: u32, t_of_n: F) -> Vec<(u32, f64)> {
        (1..=max_n)
            .map(|n| {
                let m = ProbeMetrics {
                    settings: crate::settings::TransferSettings::with_concurrency(n),
                    aggregate_mbps: f64::from(n) * t_of_n(n),
                    per_thread_mbps: t_of_n(n),
                    loss_rate: 0.0,
                    interval_s: 1.0,
                };
                (n, self.evaluate(&m))
            })
            .collect()
    }

    /// Second derivative of `f(n) = n·t/Kⁿ` (Eq 5):
    /// `f''(n) = t·K^(−n)·ln K·(−2 + n·ln K)`.
    pub fn second_derivative_eq5(n: f64, t: f64, k: f64) -> f64 {
        t * k.powf(-n) * k.ln() * (-2.0 + n * k.ln())
    }

    /// Largest concurrency for which Eq 4 stays strictly concave:
    /// `n < 2 / ln K`. For `K ≤ 1` the curvature never flips, so there
    /// is no limit and the function returns ∞.
    pub fn concavity_limit(k: f64) -> f64 {
        debug_assert!(k > 1.0, "K must exceed 1");
        if k <= 1.0 {
            return f64::INFINITY;
        }
        2.0 / k.ln()
    }

    /// Whether this utility is strictly concave over `n ∈ [1, n_max]`
    /// (assuming monotone non-decreasing loss), the paper's sufficient
    /// condition for Nash-equilibrium convergence.
    pub fn guarantees_equilibrium(&self, n_max: u32) -> bool {
        match *self {
            UtilityFunction::NonlinearRegret { k, .. } => {
                f64::from(n_max) < Self::concavity_limit(k)
            }
            // Eq 3 is concave in n (−2·t·C < 0) but the paper shows it is
            // either suboptimal or noise-fragile; Eq 1/2 have f'' = 0; Eq 7
            // is explicitly not strictly concave (§4.4).
            UtilityFunction::LinearRegret { .. } => true,
            _ => false,
        }
    }

    /// Human-readable label for experiment output.
    pub fn label(&self) -> String {
        match *self {
            UtilityFunction::Throughput => "Eq1 (throughput)".to_string(),
            UtilityFunction::LossRegret { b } => format!("Eq2 (B={b})"),
            UtilityFunction::LinearRegret { b, c } => format!("Eq3 (B={b}, C={c})"),
            UtilityFunction::NonlinearRegret { b, k } => format!("Eq4 (B={b}, K={k})"),
            UtilityFunction::MultiParam { b, k } => format!("Eq7 (B={b}, K={k})"),
        }
    }
}

/// The concurrency in `1..=max_n` maximizing `utility` in a two-transfer
/// `game` against an opponent running `m` connections, where `game(n, m)`
/// is what a transfer running `n` observes against `m` (the last maximizer
/// on a tie).
pub fn best_response<G: Fn(u32, u32) -> ProbeMetrics>(
    utility: UtilityFunction,
    game: &G,
    m: u32,
    max_n: u32,
) -> u32 {
    (1..=max_n)
        .max_by(|&a, &b| {
            let ua = utility.evaluate(&game(a, m));
            let ub = utility.evaluate(&game(b, m));
            ua.total_cmp(&ub)
        })
        .unwrap_or(1)
}

/// Iterated best response of a two-transfer `game` under `utility`, from
/// (2, 2): each transfer in turn picks its [`best_response`] to the
/// other's choice, until a fixed point (at most 200 rounds) — the Nash
/// equilibrium competing agents approach empirically.
pub fn best_response_equilibrium<G: Fn(u32, u32) -> ProbeMetrics>(
    utility: UtilityFunction,
    game: &G,
    max_n: u32,
) -> (u32, u32) {
    let (mut n1, mut n2) = (2u32, 2u32);
    for _ in 0..200 {
        let r1 = best_response(utility, game, n2, max_n);
        let r2 = best_response(utility, game, r1, max_n);
        if r1 == n1 && r2 == n2 {
            break;
        }
        n1 = r1;
        n2 = r2;
    }
    (n1, n2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::settings::TransferSettings;

    fn metrics(n: u32, t: f64, l: f64) -> ProbeMetrics {
        ProbeMetrics {
            settings: TransferSettings::with_concurrency(n),
            aggregate_mbps: f64::from(n) * t,
            per_thread_mbps: t,
            loss_rate: l,
            interval_s: 5.0,
        }
    }

    #[test]
    fn eq1_is_aggregate_throughput() {
        let u = UtilityFunction::Throughput;
        assert_eq!(u.evaluate(&metrics(4, 25.0, 0.5)), 100.0);
    }

    #[test]
    fn eq2_punishes_loss() {
        let u = UtilityFunction::LossRegret { b: 10.0 };
        // n·t = 100; loss 1% → 100 − 100·0.01·10 = 90.
        assert!((u.evaluate(&metrics(4, 25.0, 0.01)) - 90.0).abs() < 1e-9);
        // 10% loss with B=10 wipes utility to 0.
        assert!((u.evaluate(&metrics(4, 25.0, 0.1))).abs() < 1e-9);
    }

    #[test]
    fn eq3_punishes_concurrency_linearly() {
        let u = UtilityFunction::LinearRegret { b: 10.0, c: 0.01 };
        // n=4: 100 − 0 − 100·4·0.01 = 96.
        assert!((u.evaluate(&metrics(4, 25.0, 0.0)) - 96.0).abs() < 1e-9);
    }

    #[test]
    fn eq4_matches_hand_computation() {
        let u = UtilityFunction::NonlinearRegret { b: 10.0, k: 1.02 };
        let m = metrics(10, 10.0, 0.005);
        // 100/1.02^10 − 100·0.005·10 = 100/1.21899 − 5 = 82.0348 − 5.
        let expect = 100.0 / 1.02_f64.powi(10) - 5.0;
        assert!((u.evaluate(&m) - expect).abs() < 1e-9);
    }

    #[test]
    fn eq4_peaks_at_saturation_for_flat_throughput_beyond() {
        // t = 10 Mbps per thread up to n = 10, then capacity 100 splits.
        let u = UtilityFunction::falcon_default();
        let curve = u.estimated_curve(40, |n| if n <= 10 { 10.0 } else { 100.0 / f64::from(n) });
        let best = curve
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        assert_eq!(best.0, 10, "peak at {:?}", best);
    }

    #[test]
    fn eq3_c002_peaks_well_below_48_but_eq4_at_48() {
        // Figure 6(a): optimal concurrency 48 (t = 21 Mbps/proc flat to 48,
        // then 1000/n). Linear C = 0.02 peaks around 25; Eq 4 peaks at 48.
        let t_model = |n: u32| {
            if n <= 48 {
                21.0
            } else {
                1008.0 / f64::from(n)
            }
        };
        let lin = UtilityFunction::LinearRegret { b: 10.0, c: 0.02 };
        let curve = lin.estimated_curve(64, t_model);
        let best_lin = curve
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap()
            .0;
        assert!(
            (20..=30).contains(&best_lin),
            "linear C=0.02 peaked at {best_lin}"
        );

        let nl = UtilityFunction::falcon_default();
        let curve = nl.estimated_curve(64, t_model);
        let best_nl = curve
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(best_nl, 48, "Eq4 peaked at {best_nl}");
    }

    #[test]
    fn eq3_c001_also_reaches_48_for_single_transfer() {
        // Figure 6(a): C = 0.01 does peak at the optimum for one transfer.
        let t_model = |n: u32| {
            if n <= 48 {
                21.0
            } else {
                1008.0 / f64::from(n)
            }
        };
        let lin = UtilityFunction::LinearRegret { b: 10.0, c: 0.01 };
        let best = lin
            .estimated_curve(64, t_model)
            .into_iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(best, 48);
    }

    #[test]
    fn second_derivative_sign_flips_at_concavity_limit() {
        let k: f64 = 1.02;
        let limit = UtilityFunction::concavity_limit(k);
        assert!((limit - 2.0 / k.ln()).abs() < 1e-12);
        assert!(UtilityFunction::second_derivative_eq5(limit - 1.0, 10.0, k) < 0.0);
        assert!(UtilityFunction::second_derivative_eq5(limit + 1.0, 10.0, k) > 0.0);
    }

    #[test]
    fn k_102_limit_is_about_101() {
        // Paper: K = 1.01 → limit ≈ 200; K = 1.02 → ≈ 101.
        assert!((UtilityFunction::concavity_limit(1.01) - 201.0).abs() < 1.0);
        assert!((UtilityFunction::concavity_limit(1.02) - 101.0).abs() < 1.0);
    }

    #[test]
    fn equilibrium_guarantee_depends_on_k_and_bound() {
        let u = UtilityFunction::falcon_default();
        assert!(u.guarantees_equilibrium(100));
        assert!(!u.guarantees_equilibrium(102));
        // K = 1.10 shrinks the guaranteed region drastically (paper §3.1).
        let tight = UtilityFunction::NonlinearRegret { b: 10.0, k: 1.10 };
        assert!(!tight.guarantees_equilibrium(48));
        assert!(tight.guarantees_equilibrium(20));
    }

    #[test]
    fn throughput_utility_never_concave() {
        assert!(!UtilityFunction::Throughput.guarantees_equilibrium(10));
    }

    #[test]
    fn multi_param_uses_total_connections() {
        let u = UtilityFunction::falcon_multi_param();
        let mut m = metrics(5, 20.0, 0.0);
        m.settings.parallelism = 4; // 20 connections total
        let expect = 100.0 / 1.02_f64.powi(20);
        assert!((u.evaluate(&m) - expect).abs() < 1e-9);
    }

    #[test]
    fn labels_are_distinct() {
        let labels: Vec<String> = [
            UtilityFunction::Throughput,
            UtilityFunction::LossRegret { b: 10.0 },
            UtilityFunction::LinearRegret { b: 10.0, c: 0.01 },
            UtilityFunction::falcon_default(),
            UtilityFunction::falcon_multi_param(),
        ]
        .iter()
        .map(|u| u.label())
        .collect();
        let mut sorted = labels.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), labels.len());
    }
}
