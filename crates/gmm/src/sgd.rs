//! Gradient-based maximum-likelihood GMM training (paper §4.2, Eq. 4).
//!
//! IAM trains GMMs *inside* the joint mini-batch loop, so instead of EM the
//! mixture is parameterised unconstrained — weights as softmax logits,
//! standard deviations as `exp(log σ)` — and optimised by Adam on the
//! per-batch negative log-likelihood. The gradients are the classic
//! responsibility-weighted forms:
//!
//! * `∂L/∂μ_k      = −r_k (x − μ_k) / σ_k²`
//! * `∂L/∂log σ_k  = −r_k ((x − μ_k)²/σ_k² − 1)`
//! * `∂L/∂logit_k  = −(r_k − π_k)`
//!
//! where `r_k` is the posterior responsibility of component `k` for `x`,
//! taken from the crate's scoring kernel ([`Scorer`]) built once per step.

use crate::math::log_sum_exp;
use crate::model::{Gmm1d, Scorer};
use rand::{Rng, RngExt};

/// Draw a standard normal (Marsaglia polar); shared by model sampling.
pub(crate) fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u = 2.0 * rng.random::<f64>() - 1.0;
        let v = 2.0 * rng.random::<f64>() - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Adam β₁ of the GMM trainer.
const BETA1: f64 = 0.9;

/// Adam β₂.
const BETA2: f64 = 0.999;

/// Adam ε.
const EPS: f64 = 1e-8;

/// Floor applied to σ to prevent collapse onto a point mass.
const MIN_STD: f64 = 1e-6;

/// Adam hyper-parameters for the GMM trainer.
#[derive(Debug, Clone)]
pub struct SgdConfig {
    /// Learning rate.
    ///
    /// Ledger: crates/core/src/train.rs
    pub lr: f64,
}

impl Default for SgdConfig {
    fn default() -> Self {
        SgdConfig { lr: 5e-3 }
    }
}

/// Mini-batch gradient trainer holding the unconstrained parameters and
/// Adam state for one GMM.
#[derive(Debug, Clone)]
pub struct GmmSgdTrainer {
    logits: Vec<f64>,
    means: Vec<f64>,
    log_stds: Vec<f64>,
    cfg: SgdConfig,
    // Adam state: first/second moments for each parameter group
    m: Vec<f64>,
    v: Vec<f64>,
    t: u64,
    // scratch
    scratch_logp: Vec<f64>,
    scratch_z: Vec<f64>,
    grad: Vec<f64>,
}

impl GmmSgdTrainer {
    /// Start from an initial mixture (in IAM, an EM fit on a sample).
    pub fn from_init(init: &Gmm1d, cfg: SgdConfig) -> Self {
        let k = init.k();
        let logits = init.weights.iter().map(|w| w.max(1e-12).ln()).collect();
        let log_stds = init.stds.iter().map(|s| s.max(MIN_STD).ln()).collect();
        GmmSgdTrainer {
            logits,
            means: init.means.clone(),
            log_stds,
            m: vec![0.0; 3 * k],
            v: vec![0.0; 3 * k],
            t: 0,
            scratch_logp: vec![0.0; k],
            scratch_z: vec![0.0; k],
            grad: vec![0.0; 3 * k],
            cfg,
        }
    }

    /// Number of components.
    pub fn k(&self) -> usize {
        self.means.len()
    }

    /// Current mixture weights (softmax of the logits).
    fn weights(&self) -> Vec<f64> {
        let lse = log_sum_exp(&self.logits);
        self.logits.iter().map(|l| (l - lse).exp()).collect()
    }

    /// The current point-estimate mixture.
    pub fn snapshot(&self) -> Gmm1d {
        Gmm1d::new(
            self.weights(),
            self.means.clone(),
            self.log_stds.iter().map(|l| l.exp().max(MIN_STD)).collect(),
        )
    }

    /// One Adam step on a mini-batch. Returns the batch's average NLL
    /// (the `loss_GMM` term of the joint objective, Eq. 6).
    pub fn step(&mut self, batch: &[f64]) -> f64 {
        if batch.is_empty() {
            return 0.0;
        }
        let k = self.k();
        let weights = self.weights();
        let stds: Vec<f64> = self.log_stds.iter().map(|l| l.exp().max(MIN_STD)).collect();
        // `ln π_k` and `ln σ_k` once per step, not once per value
        let scorer = Scorer::new(&weights, &self.means, &stds);

        self.grad.iter_mut().for_each(|g| *g = 0.0);
        let mut nll = 0.0;
        for &x in batch {
            let lse = scorer.scores_z_into(x, &mut self.scratch_logp, &mut self.scratch_z);
            nll -= lse;
            for c in 0..k {
                let r = (self.scratch_logp[c] - lse).exp();
                // `(x − μ_c) / σ_c`, as the score computed it
                let d = self.scratch_z[c];
                // parameter layout: [logits | means | log_stds]
                self.grad[c] += -(r - weights[c]);
                self.grad[k + c] += -r * d / stds[c];
                self.grad[2 * k + c] += -r * (d * d - 1.0);
            }
        }
        let scale = 1.0 / batch.len() as f64;
        nll *= scale;

        self.t += 1;
        let lr = self.cfg.lr;
        let (b1, b2, eps) = (BETA1, BETA2, EPS);
        let bc1 = 1.0 - b1.powi(self.t as i32);
        let bc2 = 1.0 - b2.powi(self.t as i32);
        for i in 0..3 * k {
            let g = self.grad[i] * scale;
            self.m[i] = b1 * self.m[i] + (1.0 - b1) * g;
            self.v[i] = b2 * self.v[i] + (1.0 - b2) * g * g;
            let mhat = self.m[i] / bc1;
            let vhat = self.v[i] / bc2;
            let delta = lr * mhat / (vhat.sqrt() + eps);
            match i / k {
                0 => self.logits[i] -= delta,
                1 => self.means[i - k] -= delta,
                _ => self.log_stds[i - 2 * k] -= delta,
            }
        }
        nll
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn data(truth: &Gmm1d, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| truth.sample(&mut rng)).collect()
    }

    #[test]
    fn sgd_improves_nll_from_rough_init() {
        let truth = Gmm1d::new(vec![0.4, 0.6], vec![-4.0, 2.0], vec![0.7, 1.5]);
        let d = data(&truth, 8000, 1);
        let init = Gmm1d::new(vec![0.5, 0.5], vec![-1.0, 1.0], vec![3.0, 3.0]);
        let nll_init = init.nll(&d);
        let mut trainer = GmmSgdTrainer::from_init(&init, SgdConfig { lr: 2e-2 });
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..1500 {
            let batch: Vec<f64> = (0..256).map(|_| d[rng.random_range(0..d.len())]).collect();
            trainer.step(&batch);
        }
        let fitted = trainer.snapshot();
        let nll_final = fitted.nll(&d);
        assert!(
            nll_final < nll_init - 0.3,
            "SGD should improve NLL materially: {nll_init} -> {nll_final}"
        );
        // close to the truth's NLL
        let nll_truth = truth.nll(&d);
        assert!(nll_final < nll_truth + 0.15, "final {nll_final} vs truth {nll_truth}");
    }

    #[test]
    fn gradients_match_finite_differences() {
        // check ∂NLL/∂θ numerically on a tiny batch
        let batch = [0.3, -1.2, 2.5];
        let base = Gmm1d::new(vec![0.6, 0.4], vec![-1.0, 1.0], vec![0.9, 1.1]);
        let mk = |logits: &[f64], means: &[f64], log_stds: &[f64]| {
            let lse = log_sum_exp(logits);
            Gmm1d::new(
                logits.iter().map(|l| (l - lse).exp()).collect(),
                means.to_vec(),
                log_stds.iter().map(|l| l.exp()).collect(),
            )
        };
        let logits = vec![0.6f64.ln(), 0.4f64.ln()];
        let means = vec![-1.0, 1.0];
        let log_stds = vec![0.9f64.ln(), 1.1f64.ln()];

        // analytic gradient via one trainer step with lr → recovered from grad buffer
        let mut tr = GmmSgdTrainer::from_init(&base, SgdConfig::default());
        tr.step(&batch);
        let analytic: Vec<f64> = tr.grad.iter().map(|g| g / batch.len() as f64).collect();

        let h = 1e-6;
        let nll_perturbed = |i: usize, delta: f64| {
            let (mut lg, mut mu, mut ls) = (logits.clone(), means.clone(), log_stds.clone());
            match i / 2 {
                0 => lg[i % 2] += delta,
                1 => mu[i % 2] += delta,
                _ => ls[i % 2] += delta,
            }
            mk(&lg, &mu, &ls).nll(&batch)
        };
        for (i, want) in analytic.iter().enumerate().take(6) {
            let fd = (nll_perturbed(i, h) - nll_perturbed(i, -h)) / (2.0 * h);
            assert!((fd - want).abs() < 1e-4, "param {i}: finite-diff {fd} vs analytic {want}");
        }
    }

    /// `step` as it was before the scoring kernel, verbatim: `ln π_k`
    /// hoisted by hand, `ln σ_k` inside `normal_log_pdf` per value.
    fn reference_step(tr: &mut GmmSgdTrainer, batch: &[f64]) -> f64 {
        if batch.is_empty() {
            return 0.0;
        }
        let k = tr.k();
        let weights = tr.weights();
        let log_w: Vec<f64> = weights.iter().map(|w| w.ln()).collect();
        let stds: Vec<f64> = tr.log_stds.iter().map(|l| l.exp().max(MIN_STD)).collect();

        tr.grad.iter_mut().for_each(|g| *g = 0.0);
        let mut nll = 0.0;
        for &x in batch {
            for c in 0..k {
                tr.scratch_logp[c] =
                    log_w[c] + crate::math::normal_log_pdf(x, tr.means[c], stds[c]);
            }
            let lse = log_sum_exp(&tr.scratch_logp);
            nll -= lse;
            for c in 0..k {
                let r = (tr.scratch_logp[c] - lse).exp();
                let d = (x - tr.means[c]) / stds[c];
                // parameter layout: [logits | means | log_stds]
                tr.grad[c] += -(r - weights[c]);
                tr.grad[k + c] += -r * d / stds[c];
                tr.grad[2 * k + c] += -r * (d * d - 1.0);
            }
        }
        let scale = 1.0 / batch.len() as f64;
        nll *= scale;

        tr.t += 1;
        let lr = tr.cfg.lr;
        let (b1, b2, eps) = (BETA1, BETA2, EPS);
        let bc1 = 1.0 - b1.powi(tr.t as i32);
        let bc2 = 1.0 - b2.powi(tr.t as i32);
        for i in 0..3 * k {
            let g = tr.grad[i] * scale;
            tr.m[i] = b1 * tr.m[i] + (1.0 - b1) * g;
            tr.v[i] = b2 * tr.v[i] + (1.0 - b2) * g * g;
            let mhat = tr.m[i] / bc1;
            let vhat = tr.v[i] / bc2;
            let delta = lr * mhat / (vhat.sqrt() + eps);
            match i / k {
                0 => tr.logits[i] -= delta,
                1 => tr.means[i - k] -= delta,
                _ => tr.log_stds[i - 2 * k] -= delta,
            }
        }
        nll
    }

    #[test]
    fn fifty_steps_are_bit_identical_to_the_normal_log_pdf_reference() {
        let truth = Gmm1d::new(vec![0.2, 0.5, 0.3], vec![-6.0, 0.5, 7.0], vec![0.4, 2.0, 1.1]);
        let d = data(&truth, 2000, 11);
        let init = Gmm1d::new(vec![0.3, 0.3, 0.4], vec![-2.0, 0.0, 2.0], vec![3.0, 3.0, 3.0]);
        let mut kernel = GmmSgdTrainer::from_init(&init, SgdConfig::default());
        let mut reference = kernel.clone();
        for batch in d.chunks(40) {
            let (a, b) = (kernel.step(batch), reference_step(&mut reference, batch));
            assert_eq!(a.to_bits(), b.to_bits(), "batch NLL");
        }
        use crate::model::tests::param_bits;
        assert_eq!(param_bits(&kernel.snapshot()), param_bits(&reference.snapshot()));
    }

    #[test]
    fn snapshot_weights_are_simplex() {
        let init = Gmm1d::new(vec![0.2, 0.3, 0.5], vec![0.0, 1.0, 2.0], vec![1.0; 3]);
        let mut tr = GmmSgdTrainer::from_init(&init, SgdConfig::default());
        tr.step(&[0.5, 1.5]);
        let snap = tr.snapshot();
        assert!((snap.weights.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(snap.stds.iter().all(|&s| s > 0.0));
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let init = Gmm1d::new(vec![1.0], vec![0.0], vec![1.0]);
        let mut tr = GmmSgdTrainer::from_init(&init, SgdConfig::default());
        let before = tr.snapshot();
        assert_eq!(tr.step(&[]), 0.0);
        assert_eq!(tr.snapshot(), before);
    }
}
