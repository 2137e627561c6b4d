//! Variational Bayesian Gaussian mixture (VBGM, paper §4.2).
//!
//! IAM uses VBGM on a uniform sample to (a) pick the effective number of
//! components and (b) initialise the gradient trainer. This is a univariate
//! VB-EM (Bishop, PRML §10.2 specialised to 1-D) with a Dirichlet prior over
//! weights and a Normal–Gamma prior over (mean, precision). A small
//! Dirichlet concentration `α₀` drives unneeded components' weights to ~0,
//! so the returned mixture can have fewer components than `max_components`.

use crate::model::Gmm1d;

/// Digamma function ψ(x) via upward recurrence + asymptotic series.
pub(crate) fn digamma(mut x: f64) -> f64 {
    assert!(x > 0.0, "digamma domain");
    let mut result = 0.0;
    while x < 10.0 {
        result -= 1.0 / x;
        x += 1.0;
    }
    let inv = 1.0 / x;
    let inv2 = inv * inv;
    result + x.ln() - 0.5 * inv - inv2 * (1.0 / 12.0 - inv2 * (1.0 / 120.0 - inv2 / 252.0))
}

/// Configuration for [`fit_vbgm`].
#[derive(Debug, Clone)]
pub struct VbgmConfig {
    /// Upper bound on the number of components.
    ///
    /// Ledger: benchmark/src/probes.rs
    pub max_components: usize,
    /// Dirichlet concentration; small values prune aggressively.
    // audit-allow(knob-ledger): VBGM exists only for benchmark/src/probes.rs, which keeps the defaults; the config goes with that probe
    pub alpha0: f64,
    /// VB-EM iterations.
    // audit-allow(knob-ledger): VBGM exists only for benchmark/src/probes.rs, which keeps the defaults; the config goes with that probe
    pub iterations: usize,
    /// Components with expected weight below this fraction are dropped.
    // audit-allow(knob-ledger): VBGM exists only for benchmark/src/probes.rs, which keeps the defaults; the config goes with that probe
    pub prune_weight: f64,
    /// Post-fit merge threshold for near-duplicate components (see
    /// `Gmm1d::merged_close`); `0.0` disables merging.
    // audit-allow(knob-ledger): VBGM exists only for benchmark/src/probes.rs, which keeps the defaults; the config goes with that probe
    pub merge_threshold: f64,
}

impl Default for VbgmConfig {
    fn default() -> Self {
        VbgmConfig {
            max_components: 30,
            alpha0: 1e-3,
            iterations: 60,
            prune_weight: 1e-3,
            merge_threshold: 0.35,
        }
    }
}

/// Fit a VBGM and return the pruned point-estimate mixture.
///
/// Deterministic: initial responsibilities come from an equal-frequency
/// quantile partition of the sorted data.
pub fn fit_vbgm(values: &[f64], cfg: &VbgmConfig) -> Gmm1d {
    assert!(!values.is_empty(), "cannot fit an empty column");
    let k = cfg.max_components.max(1);
    let n = values.len();
    let nf = n as f64;

    let mean_all = values.iter().sum::<f64>() / nf;
    let var_all =
        (values.iter().map(|v| (v - mean_all) * (v - mean_all)).sum::<f64>() / nf).max(1e-12);

    // priors
    let alpha0 = cfg.alpha0;
    let beta0 = 1.0;
    let m0 = mean_all;
    // prior precision expectation ≈ k² / var: components narrower than data
    let a0 = 2.0;
    let b0 = a0 * var_all / (k as f64 * k as f64);

    // initial hard responsibilities by quantile partition
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_unstable_by(|&i, &j| values[i].total_cmp(&values[j]));
    let mut resp = vec![0.0f64; n * k];
    for (rank, &row) in order.iter().enumerate() {
        let c = (rank * k / n).min(k - 1);
        resp[row * k + c] = 1.0;
    }

    let mut alpha = vec![alpha0; k];
    let mut beta = vec![beta0; k];
    let mut m = vec![m0; k];
    let mut a = vec![a0; k];
    let mut b = vec![b0; k];

    for it in 0..cfg.iterations {
        // M step (variational parameter update) from current responsibilities
        let mut nk = vec![0.0f64; k];
        let mut xbar = vec![0.0f64; k];
        for (row, &x) in values.iter().enumerate() {
            for c in 0..k {
                let r = resp[row * k + c];
                nk[c] += r;
                xbar[c] += r * x;
            }
        }
        for c in 0..k {
            xbar[c] /= nk[c].max(1e-12);
        }
        let mut sk = vec![0.0f64; k];
        for (row, &x) in values.iter().enumerate() {
            for c in 0..k {
                let d = x - xbar[c];
                sk[c] += resp[row * k + c] * d * d;
            }
        }
        for c in 0..k {
            let nkc = nk[c];
            alpha[c] = alpha0 + nkc;
            beta[c] = beta0 + nkc;
            m[c] = (beta0 * m0 + xbar[c] * nkc) / beta[c];
            a[c] = a0 + 0.5 * nkc;
            let dm = xbar[c] - m0;
            b[c] = b0 + 0.5 * (sk[c] + beta0 * nkc * dm * dm / beta[c]);
        }

        if it + 1 == cfg.iterations {
            break;
        }

        // E step: expected log weights / precisions
        let alpha_sum: f64 = alpha.iter().sum();
        let psi_alpha_sum = digamma(alpha_sum);
        let mut ln_pi = vec![0.0f64; k];
        let mut ln_lambda = vec![0.0f64; k];
        let mut e_lambda = vec![0.0f64; k];
        for c in 0..k {
            ln_pi[c] = digamma(alpha[c]) - psi_alpha_sum;
            ln_lambda[c] = digamma(a[c]) - b[c].ln();
            e_lambda[c] = a[c] / b[c];
        }
        let mut logs = vec![0.0f64; k];
        for (row, &x) in values.iter().enumerate() {
            for c in 0..k {
                let d = x - m[c];
                logs[c] =
                    ln_pi[c] + 0.5 * ln_lambda[c] - 0.5 * (e_lambda[c] * d * d + 1.0 / beta[c]);
            }
            let lse = crate::math::log_sum_exp(&logs);
            for c in 0..k {
                resp[row * k + c] = (logs[c] - lse).exp();
            }
        }
    }

    // point estimates, pruned
    let alpha_sum: f64 = alpha.iter().sum();
    let mut weights = Vec::new();
    let mut means = Vec::new();
    let mut stds = Vec::new();
    for c in 0..k {
        let w = alpha[c] / alpha_sum;
        if w >= cfg.prune_weight {
            weights.push(w);
            means.push(m[c]);
            stds.push((b[c] / a[c]).sqrt());
        }
    }
    if weights.is_empty() {
        // degenerate (e.g. constant column): fall back to a single component
        weights.push(1.0);
        means.push(mean_all);
        stds.push(var_all.sqrt());
    }
    let fit = Gmm1d::new(weights, means, stds);
    if cfg.merge_threshold > 0.0 {
        fit.merged_close(cfg.merge_threshold)
    } else {
        fit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn digamma_reference_values() {
        // ψ(1) = -γ, ψ(2) = 1 - γ, ψ(0.5) = -γ - 2 ln 2
        let gamma = 0.5772156649015329;
        assert!((digamma(1.0) + gamma).abs() < 1e-9);
        assert!((digamma(2.0) - (1.0 - gamma)).abs() < 1e-9);
        assert!((digamma(0.5) + gamma + 2.0 * std::f64::consts::LN_2).abs() < 1e-9);
    }

    #[test]
    fn prunes_to_true_component_count() {
        // three well-separated blobs, max_components = 15
        let truth = Gmm1d::new(vec![0.3, 0.4, 0.3], vec![-10.0, 0.0, 10.0], vec![0.5, 0.5, 0.5]);
        let mut rng = StdRng::seed_from_u64(9);
        let data: Vec<f64> = (0..6000).map(|_| truth.sample(&mut rng)).collect();
        let cfg = VbgmConfig { max_components: 15, prune_weight: 0.02, ..Default::default() };
        let fit = fit_vbgm(&data, &cfg);
        assert!((3..=6).contains(&fit.k()), "expected ~3 surviving components, got {}", fit.k());
        // the three true means are each near some fitted mean
        for want in [-10.0, 0.0, 10.0] {
            let best = fit.means.iter().map(|m| (m - want).abs()).fold(f64::INFINITY, f64::min);
            assert!(best < 0.5, "no component near {want} (closest off by {best})");
        }
    }

    #[test]
    fn deterministic() {
        let data: Vec<f64> = (0..500).map(|i| ((i * 37) % 101) as f64).collect();
        let a = fit_vbgm(&data, &VbgmConfig::default());
        let b = fit_vbgm(&data, &VbgmConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn constant_column_yields_single_component() {
        let data = vec![3.0; 200];
        let fit = fit_vbgm(&data, &VbgmConfig::default());
        assert!(fit.k() >= 1);
        assert!(fit.pdf(3.0).is_finite());
    }

    #[test]
    fn fit_quality_comparable_to_em() {
        let truth = Gmm1d::new(vec![0.5, 0.5], vec![-3.0, 3.0], vec![1.0, 1.0]);
        let mut rng = StdRng::seed_from_u64(4);
        let data: Vec<f64> = (0..5000).map(|_| truth.sample(&mut rng)).collect();
        let vb = fit_vbgm(&data, &VbgmConfig { max_components: 8, ..Default::default() });
        let em = crate::em::fit_em(&data, 2, 100, 1e-9);
        let nll_vb = vb.nll(&data);
        let nll_em = em.gmm.nll(&data);
        assert!(nll_vb < nll_em + 0.1, "VB NLL {nll_vb} vs EM NLL {nll_em}");
    }
}
