//! The 1-D Gaussian mixture model, its scoring kernel ([`Scorer`]) and its
//! query-time operations.

use crate::math::{log_sum_exp, normal_mass, normal_pdf};
use rand::{Rng, RngExt};

/// The one GMM scoring kernel: `[ln φ_k, μ_k, σ_k, ln σ_k]` per component,
/// both `ln`s taken once per parameter set instead of once per value.
///
/// A score is `ln φ_k + ((−½z² − ln σ_k) − ln√2π)` with `z = (x − μ_k)/σ_k`:
/// the association of `φ_k.ln() + normal_log_pdf(x, μ_k, σ_k)`, so hoisting
/// the constants (and keeping the division) moves no bit. EM, the SGD
/// trainer, the reducer and every per-value [`Gmm1d`] method score through
/// it; whatever loops over values builds it once.
#[derive(Debug, Clone)]
pub struct Scorer(Vec<[f64; 4]>);

impl Scorer {
    /// Hoist the constants of a parameter set, used as given.
    pub fn new(weights: &[f64], means: &[f64], stds: &[f64]) -> Self {
        let consts = |k: usize| [weights[k].ln(), means[k], stds[k], stds[k].ln()];
        Scorer((0..weights.len()).map(consts).collect())
    }

    /// The standardised value `z = (x − μ_k) / σ_k`.
    #[inline]
    fn z(&[_, mean, std, _]: &[f64; 4], x: f64) -> f64 {
        (x - mean) / std
    }

    /// `ln(φ_k N(x | μ_k, σ_k²))` from `x`'s standardised value `z`.
    #[inline]
    fn score_z(&[ln_w, _, _, ln_std]: &[f64; 4], z: f64) -> f64 {
        ln_w + (-0.5 * z * z - ln_std - 0.918_938_533_204_672_7) // ln(sqrt(2π))
    }

    #[inline]
    fn score(c: &[f64; 4], x: f64) -> f64 {
        Self::score_z(c, Self::z(c, x))
    }

    /// Write `ln(φ_k N(x | μ_k, σ_k²))` for each of the `K` components into
    /// `out` and return their log-sum-exp, the log mixture density at `x`;
    /// `(out[k] − lse).exp()` is component `k`'s responsibility for `x`.
    pub fn scores_into(&self, x: f64, out: &mut [f64]) -> f64 {
        assert_eq!(out.len(), self.0.len(), "one score slot per component");
        out.iter_mut().zip(&self.0).for_each(|(o, c)| *o = Self::score(c, x));
        log_sum_exp(out)
    }

    /// [`Self::scores_into`] that also writes each component's
    /// standardised value `(x − μ_k) / σ_k` into `z` — the one the score
    /// was computed from, for callers that need it again (the SGD step).
    pub fn scores_z_into(&self, x: f64, out: &mut [f64], z: &mut [f64]) -> f64 {
        assert_eq!(out.len(), self.0.len(), "one score slot per component");
        assert_eq!(z.len(), self.0.len(), "one z slot per component");
        for ((o, zk), c) in out.iter_mut().zip(z.iter_mut()).zip(&self.0) {
            *zk = Self::z(c, x);
            *o = Self::score_z(c, *zk);
        }
        log_sum_exp(out)
    }

    /// The paper's Eq. 5: index of the (first) component with maximal
    /// `φ_k N(x | μ_k, σ_k²)` — the *reduced* attribute value `a'`.
    pub fn assign(&self, x: f64) -> usize {
        let mut best = (0, f64::NEG_INFINITY);
        for (k, c) in self.0.iter().enumerate() {
            let score = Self::score(c, x);
            if score > best.1 {
                best = (k, score);
            }
        }
        best.0
    }
}

/// A one-dimensional Gaussian mixture with `K` components.
///
/// Invariants: weights are positive and sum to 1; stds are positive.
#[derive(Debug, Clone, PartialEq)]
pub struct Gmm1d {
    /// Mixture weights `φ_k`, summing to 1.
    pub weights: Vec<f64>,
    /// Component means `μ_k`.
    pub means: Vec<f64>,
    /// Component standard deviations `σ_k`.
    pub stds: Vec<f64>,
}

impl Gmm1d {
    /// Construct a mixture, normalising weights and flooring stds.
    ///
    /// # Panics
    /// Panics if the parameter vectors have differing lengths or are empty.
    pub fn new(weights: Vec<f64>, means: Vec<f64>, stds: Vec<f64>) -> Self {
        assert!(!weights.is_empty(), "a GMM needs at least one component");
        assert_eq!(weights.len(), means.len());
        assert_eq!(weights.len(), stds.len());
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must have positive mass");
        let weights = weights.iter().map(|w| (w / total).max(1e-300)).collect();
        let stds = stds.iter().map(|s| s.max(1e-9)).collect();
        Gmm1d { weights, means, stds }
    }

    /// Number of components `K`.
    pub fn k(&self) -> usize {
        self.weights.len()
    }

    /// Mixture density at `x`.
    pub fn pdf(&self, x: f64) -> f64 {
        (0..self.k()).map(|k| self.weights[k] * normal_pdf(x, self.means[k], self.stds[k])).sum()
    }

    /// The scoring kernel over this mixture's parameters. The per-value
    /// methods below build one per call; loops over values hold their own.
    pub fn scorer(&self) -> Scorer {
        Scorer::new(&self.weights, &self.means, &self.stds)
    }

    /// Log mixture density at `x` (log-sum-exp stable).
    pub fn log_pdf(&self, x: f64) -> f64 {
        self.scorer().scores_into(x, &mut vec![0.0; self.k()])
    }

    /// Posterior responsibilities `P(component = k | x)`.
    pub fn posteriors(&self, x: f64) -> Vec<f64> {
        let mut out = vec![0.0; self.k()];
        let lse = self.scorer().scores_into(x, &mut out);
        out.iter_mut().for_each(|v| *v = (*v - lse).exp());
        out
    }

    /// Argmax assignment of one value, see [`Scorer::assign`].
    pub fn assign(&self, x: f64) -> usize {
        self.scorer().assign(x)
    }

    /// Exact per-component range mass: `P̂_GMM^k(R) = P(R | component k)`
    /// computed from the normal CDF. This is the `K`-vector the unbiased
    /// sampler multiplies into the AR conditional (§5.2).
    pub fn range_mass_exact(&self, lo: f64, hi: f64) -> Vec<f64> {
        (0..self.k()).map(|k| normal_mass(lo, hi, self.means[k], self.stds[k])).collect()
    }

    /// Draw one value from the mixture.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.random::<f64>();
        let mut acc = 0.0;
        let mut k = self.k() - 1;
        for (i, w) in self.weights.iter().enumerate() {
            acc += w;
            if u <= acc {
                k = i;
                break;
            }
        }
        self.means[k] + self.stds[k] * super::sgd::standard_normal(rng)
    }

    /// Average negative log-likelihood over `values` (Eq. 4's loss).
    pub fn nll(&self, values: &[f64]) -> f64 {
        if values.is_empty() {
            return 0.0;
        }
        let (scorer, mut scores) = (self.scorer(), vec![0.0; self.k()]);
        -values.iter().map(|&v| scorer.scores_into(v, &mut scores)).sum::<f64>()
            / values.len() as f64
    }

    /// Serialized parameter footprint in bytes: `3K` f64 parameters.
    pub fn size_bytes(&self) -> usize {
        3 * self.k() * std::mem::size_of::<f64>()
    }

    /// Merge components whose means are closer than
    /// `threshold × (σ_i + σ_j)`, moment-matching the merged Gaussian.
    ///
    /// Variational fits routinely leave several near-duplicate components
    /// feeding on one mode; merging them recovers the effective component
    /// count without changing the mixture density materially.
    pub fn merged_close(&self, threshold: f64) -> Gmm1d {
        let mut w = self.weights.clone();
        let mut mu = self.means.clone();
        let mut var: Vec<f64> = self.stds.iter().map(|s| s * s).collect();
        loop {
            let k = w.len();
            let mut merged_any = false;
            'outer: for i in 0..k {
                for j in (i + 1)..k {
                    let si = var[i].sqrt();
                    let sj = var[j].sqrt();
                    if (mu[i] - mu[j]).abs() <= threshold * (si + sj) {
                        let wt = w[i] + w[j];
                        let m = (w[i] * mu[i] + w[j] * mu[j]) / wt;
                        let second = (w[i] * (var[i] + mu[i] * mu[i])
                            + w[j] * (var[j] + mu[j] * mu[j]))
                            / wt;
                        w[i] = wt;
                        mu[i] = m;
                        var[i] = (second - m * m).max(1e-18);
                        w.remove(j);
                        mu.remove(j);
                        var.remove(j);
                        merged_any = true;
                        break 'outer;
                    }
                }
            }
            if !merged_any {
                break;
            }
        }
        Gmm1d::new(w, mu, var.iter().map(|v| v.sqrt()).collect())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Every parameter's bit pattern, for the bit-identity tests.
    pub(crate) fn param_bits(g: &Gmm1d) -> Vec<u64> {
        g.weights.iter().chain(&g.means).chain(&g.stds).map(|x| x.to_bits()).collect()
    }

    fn two_comp() -> Gmm1d {
        Gmm1d::new(vec![0.25, 0.75], vec![-2.0, 3.0], vec![0.5, 1.0])
    }

    #[test]
    fn weights_normalised_on_construction() {
        let g = Gmm1d::new(vec![1.0, 3.0], vec![0.0, 1.0], vec![1.0, 1.0]);
        assert!((g.weights[0] - 0.25).abs() < 1e-12);
        assert!((g.weights.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pdf_matches_log_pdf() {
        let g = two_comp();
        for x in [-3.0, 0.0, 3.0, 10.0] {
            assert!((g.pdf(x).ln() - g.log_pdf(x)).abs() < 1e-9, "at {x}");
        }
    }

    #[test]
    fn kernel_scores_keep_the_bits_of_normal_log_pdf() {
        use crate::math::normal_log_pdf;
        let g = Gmm1d::new(vec![0.1, 0.6, 0.3], vec![-40.0, 0.25, 1e3], vec![1e-3, 2.5, 70.0]);
        let (scorer, mut scores) = (g.scorer(), vec![0.0; 3]);
        for i in -400..400 {
            let x = i as f64 * 3.7;
            let want: Vec<f64> = (0..3)
                .map(|k| g.weights[k].ln() + normal_log_pdf(x, g.means[k], g.stds[k]))
                .collect();
            let lse = scorer.scores_into(x, &mut scores);
            let same_bits =
                |a: &[f64], b: &[f64]| a.iter().zip(b).all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same_bits(&scores, &want), "scores at {x}");
            assert_eq!(lse.to_bits(), log_sum_exp(&want).to_bits());
            assert_eq!(g.log_pdf(x).to_bits(), lse.to_bits());
            // first maximal score wins, as in the hand-written argmax
            let first_max = want.iter().position(|&s| s == want.iter().copied().fold(s, f64::max));
            assert_eq!(Some(g.assign(x)), first_max);
            let resp: Vec<f64> = want.iter().map(|w| (w - lse).exp()).collect();
            assert!(same_bits(&g.posteriors(x), &resp), "posteriors at {x}");
        }
        assert_eq!(
            g.nll(&[1.0, 2.0]).to_bits(),
            (-(g.log_pdf(1.0) + g.log_pdf(2.0)) / 2.0).to_bits()
        );
    }

    #[test]
    fn posteriors_sum_to_one_and_peak_correctly() {
        let g = two_comp();
        let p = g.posteriors(-2.0);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[0] > 0.9, "x = -2 clearly belongs to component 0: {p:?}");
        assert_eq!(g.assign(-2.0), 0);
        assert_eq!(g.assign(3.0), 1);
    }

    #[test]
    fn assignment_boundary_is_deterministic() {
        let g = two_comp();
        // repeated calls agree (argmax, not sampling — the paper's choice)
        let a1 = g.assign(0.4);
        for _ in 0..10 {
            assert_eq!(g.assign(0.4), a1);
        }
    }

    #[test]
    fn exact_range_mass_bounds() {
        let g = two_comp();
        let full = g.range_mass_exact(f64::NEG_INFINITY, f64::INFINITY);
        assert!(full.iter().all(|&m| (m - 1.0).abs() < 1e-9));
        let empty = g.range_mass_exact(5.0, 4.0);
        assert!(empty.iter().all(|&m| m == 0.0));
        let half = g.range_mass_exact(-2.0, f64::INFINITY);
        assert!((half[0] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn sampling_reproduces_mixture_mean() {
        let g = two_comp();
        let mut rng = StdRng::seed_from_u64(3);
        let n = 40_000;
        let mean: f64 = (0..n).map(|_| g.sample(&mut rng)).sum::<f64>() / n as f64;
        let want = 0.25 * -2.0 + 0.75 * 3.0;
        assert!((mean - want).abs() < 0.05, "sample mean {mean} want {want}");
    }

    #[test]
    fn size_accounting() {
        assert_eq!(two_comp().size_bytes(), 2 * 3 * 8);
    }
}
