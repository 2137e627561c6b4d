//! Classic expectation–maximisation fitting for [`Gmm1d`].
//!
//! The paper (§4.2, "Model Training") explains why plain EM does not fit
//! IAM's joint mini-batch loop — the M step needs all tuples at once. We
//! still provide EM as an initialiser and as an independently-tested
//! reference implementation against which the SGD trainer is validated.

use crate::model::Gmm1d;

/// Result of an EM fit.
#[derive(Debug, Clone)]
pub struct EmFit {
    /// The fitted mixture.
    pub gmm: Gmm1d,
    /// Average log-likelihood at the final iteration.
    pub avg_log_likelihood: f64,
    /// Iterations executed.
    pub iterations: usize,
}

/// Fit a `k`-component mixture to `values` by EM.
///
/// Initialisation spreads the means over the empirical quantiles, which is
/// deterministic and robust for the skewed columns in this workload. Stops
/// when the average log-likelihood improves by less than `tol` or after
/// `max_iter` iterations.
///
/// The E-step scores each (row, component) pair once through
/// [`Scorer`](crate::model::Scorer), whose association rule keeps the fit
/// bit-identical to the two-pass form it replaced (the tests' reference).
pub fn fit_em(values: &[f64], k: usize, max_iter: usize, tol: f64) -> EmFit {
    assert!(k >= 1, "need at least one component");
    assert!(!values.is_empty(), "cannot fit an empty column");
    let n = values.len();

    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let spread = (sorted[n - 1] - sorted[0]).max(1e-6);
    let mut means: Vec<f64> = (0..k).map(|i| sorted[((i * 2 + 1) * (n - 1)) / (2 * k)]).collect();
    let mut stds = vec![spread / (2.0 * k as f64); k];
    let mut weights = vec![1.0 / k as f64; k];

    let mut prev_ll = f64::NEG_INFINITY;
    let mut iterations = 0;
    let mut resp = vec![0.0f64; k];
    for it in 0..max_iter {
        iterations = it + 1;
        // accumulators: weight mass, weighted sum, weighted square sum
        let mut mass = vec![0.0f64; k];
        let mut sum = vec![0.0f64; k];
        let mut sq = vec![0.0f64; k];
        let mut ll = 0.0;
        let scorer = Gmm1d::new(weights.clone(), means.clone(), stds.clone()).scorer();
        for &x in values {
            // `lse` serves the responsibilities and the log-likelihood
            let lse = scorer.scores_into(x, &mut resp);
            ll += lse;
            for c in 0..k {
                let r = (resp[c] - lse).exp();
                mass[c] += r;
                sum[c] += r * x;
                sq[c] += r * x * x;
            }
        }
        ll /= n as f64;
        for c in 0..k {
            let m = mass[c].max(1e-10);
            weights[c] = m / n as f64;
            means[c] = sum[c] / m;
            let var = (sq[c] / m - means[c] * means[c]).max(1e-12);
            stds[c] = var.sqrt().max(spread * 1e-6);
        }
        if (ll - prev_ll).abs() < tol {
            prev_ll = ll;
            break;
        }
        prev_ll = ll;
    }

    EmFit { gmm: Gmm1d::new(weights, means, stds), avg_log_likelihood: prev_ll, iterations }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math::{log_sum_exp, normal_log_pdf};
    use crate::model::tests::param_bits;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn bimodal(n: usize, seed: u64) -> Vec<f64> {
        let truth = Gmm1d::new(vec![0.3, 0.7], vec![-5.0, 4.0], vec![0.8, 1.2]);
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| truth.sample(&mut rng)).collect()
    }

    /// `fit_em` as it was before the scoring kernel: the E-step runs
    /// `posteriors_into` then `log_pdf`, each scoring every component with
    /// its own `φ_k.ln() + normal_log_pdf(..)`. The bit-identity reference.
    fn fit_em_two_pass(values: &[f64], k: usize, max_iter: usize, tol: f64) -> EmFit {
        let scores = |gmm: &Gmm1d, x: f64| -> Vec<f64> {
            (0..k)
                .map(|c| gmm.weights[c].ln() + normal_log_pdf(x, gmm.means[c], gmm.stds[c]))
                .collect()
        };
        assert!(k >= 1, "need at least one component");
        assert!(!values.is_empty(), "cannot fit an empty column");
        let n = values.len();

        let mut sorted = values.to_vec();
        sorted.sort_unstable_by(f64::total_cmp);
        let spread = (sorted[n - 1] - sorted[0]).max(1e-6);
        let mut means: Vec<f64> =
            (0..k).map(|i| sorted[((i * 2 + 1) * (n - 1)) / (2 * k)]).collect();
        let mut stds = vec![spread / (2.0 * k as f64); k];
        let mut weights = vec![1.0 / k as f64; k];

        let mut prev_ll = f64::NEG_INFINITY;
        let mut iterations = 0;
        let mut resp = vec![0.0f64; k];
        for it in 0..max_iter {
            iterations = it + 1;
            // accumulators: weight mass, weighted sum, weighted square sum
            let mut mass = vec![0.0f64; k];
            let mut sum = vec![0.0f64; k];
            let mut sq = vec![0.0f64; k];
            let mut ll = 0.0;
            let gmm = Gmm1d::new(weights.clone(), means.clone(), stds.clone());
            for &x in values {
                resp.copy_from_slice(&scores(&gmm, x));
                let lse = log_sum_exp(&resp);
                resp.iter_mut().for_each(|v| *v = (*v - lse).exp());
                ll += log_sum_exp(&scores(&gmm, x));
                for c in 0..k {
                    mass[c] += resp[c];
                    sum[c] += resp[c] * x;
                    sq[c] += resp[c] * x * x;
                }
            }
            ll /= n as f64;
            for c in 0..k {
                let m = mass[c].max(1e-10);
                weights[c] = m / n as f64;
                means[c] = sum[c] / m;
                let var = (sq[c] / m - means[c] * means[c]).max(1e-12);
                stds[c] = var.sqrt().max(spread * 1e-6);
            }
            if (ll - prev_ll).abs() < tol {
                prev_ll = ll;
                break;
            }
            prev_ll = ll;
        }

        EmFit { gmm: Gmm1d::new(weights, means, stds), avg_log_likelihood: prev_ll, iterations }
    }

    #[test]
    fn single_pass_fit_is_bit_identical_to_two_pass_reference() {
        let mut rng = StdRng::seed_from_u64(5);
        let skewed: Vec<f64> = (0..3000).map(|_| (-rng.random::<f64>().ln()).powi(3)).collect();
        let cases: [(&str, Vec<f64>, usize); 5] = [
            ("bimodal", bimodal(4000, 3), 2),
            ("bimodal, surplus components", bimodal(4000, 4), 8),
            ("constant column", vec![7.0; 500], 3),
            ("skewed", skewed, 6),
            ("k = 1", bimodal(1000, 5), 1),
        ];
        for (name, data, k) in &cases {
            let got = fit_em(data, *k, 40, 1e-7);
            let want = fit_em_two_pass(data, *k, 40, 1e-7);
            assert_eq!(got.iterations, want.iterations, "{name}: iterations");
            assert_eq!(
                got.avg_log_likelihood.to_bits(),
                want.avg_log_likelihood.to_bits(),
                "{name}: avg_log_likelihood"
            );
            assert_eq!(param_bits(&got.gmm), param_bits(&want.gmm), "{name}: parameters");
        }
    }

    #[test]
    fn recovers_bimodal_parameters() {
        let data = bimodal(20_000, 1);
        let fit = fit_em(&data, 2, 200, 1e-8);
        let mut order: Vec<usize> = vec![0, 1];
        order.sort_by(|&a, &b| fit.gmm.means[a].total_cmp(&fit.gmm.means[b]));
        let (lo, hi) = (order[0], order[1]);
        assert!((fit.gmm.means[lo] + 5.0).abs() < 0.15, "mean lo {}", fit.gmm.means[lo]);
        assert!((fit.gmm.means[hi] - 4.0).abs() < 0.15, "mean hi {}", fit.gmm.means[hi]);
        assert!((fit.gmm.weights[lo] - 0.3).abs() < 0.03);
        assert!((fit.gmm.stds[hi] - 1.2).abs() < 0.1);
    }

    #[test]
    fn likelihood_never_decreases_much() {
        // run two fits with increasing iteration budgets: more iterations
        // can only improve (up to numerical wiggle)
        let data = bimodal(4000, 2);
        let short = fit_em(&data, 3, 2, 0.0);
        let long = fit_em(&data, 3, 60, 0.0);
        assert!(long.avg_log_likelihood >= short.avg_log_likelihood - 1e-9);
    }

    #[test]
    fn single_component_matches_moments() {
        let data: Vec<f64> = (0..1000).map(|i| (i % 10) as f64).collect();
        let fit = fit_em(&data, 1, 50, 1e-10);
        let mean = 4.5;
        let var = 8.25;
        assert!((fit.gmm.means[0] - mean).abs() < 1e-6);
        assert!((fit.gmm.stds[0] * fit.gmm.stds[0] - var).abs() < 1e-4);
        assert!((fit.gmm.weights[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_column_does_not_collapse() {
        let data = vec![7.0; 500];
        let fit = fit_em(&data, 3, 30, 1e-10);
        // stds floored, pdf finite
        assert!(fit.gmm.pdf(7.0).is_finite());
        assert_eq!(fit.gmm.assign(7.0), fit.gmm.assign(7.0));
    }
}
