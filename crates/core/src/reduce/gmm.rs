//! The paper's reducer: one 1-D Gaussian mixture per column.

use iam_data::Interval;
use iam_gmm::{Gmm1d, Scorer};

/// GMM-backed domain reducer (paper §4.2).
#[derive(Clone)]
pub struct GmmReducer {
    gmm: Gmm1d,
    /// `gmm`'s scoring kernel (its `ln φ_k`/`ln σ_k` hoisted out of
    /// [`Self::reduce`]); refreshed wherever `gmm` is set.
    scorer: Scorer,
}

impl GmmReducer {
    /// Wrap a fitted mixture.
    pub fn new(gmm: Gmm1d) -> Self {
        GmmReducer { scorer: gmm.scorer(), gmm }
    }

    /// Replace the mixture (joint training updates it every batch).
    pub fn set_gmm(&mut self, gmm: Gmm1d) {
        self.scorer = gmm.scorer();
        self.gmm = gmm;
    }

    /// Borrow the underlying mixture.
    pub fn gmm(&self) -> &Gmm1d {
        &self.gmm
    }

    /// Number of reduced values `K`.
    pub(crate) fn k(&self) -> usize {
        self.gmm.k()
    }

    /// The reduced value of `v`.
    pub(crate) fn reduce(&self, v: f64) -> usize {
        self.scorer.assign(v)
    }

    /// `out[j] = P(value ∈ iv | reduced value = j)`, exactly, from the
    /// normal CDF (the paper's per-component sample count measured no better).
    pub(crate) fn range_mass(&self, iv: &Interval, out: &mut Vec<f64>) {
        // open/closed bounds coincide for a continuous density
        out.clear();
        out.extend(self.gmm.range_mass_exact(iv.lo, iv.hi));
        crate::invariant::check_mass_vector(out, "GMM range mass");
    }

    /// Model footprint in bytes: the 3K mixture parameters.
    pub(crate) fn size_bytes(&self) -> usize {
        self.gmm.size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce::testutil::empirical_consistency;
    use crate::reduce::Reducer;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fitted() -> (Gmm1d, Vec<f64>) {
        let truth = Gmm1d::new(vec![0.5, 0.5], vec![-3.0, 3.0], vec![0.8, 0.8]);
        let mut rng = StdRng::seed_from_u64(1);
        let data: Vec<f64> = (0..20_000).map(|_| truth.sample(&mut rng)).collect();
        let fit = iam_gmm::fit_em(&data, 2, 100, 1e-9).gmm;
        (fit, data)
    }

    #[test]
    fn consistency_against_empirical_fraction() {
        let (gmm, data) = fitted();
        let r = GmmReducer::new(gmm);
        for (lo, hi) in [(-4.0, -2.0), (-1.0, 4.0), (2.5, 3.5)] {
            let (est, truth) =
                empirical_consistency(&Reducer::Gmm(r.clone()), &data, &Interval::closed(lo, hi));
            assert!((est - truth).abs() < 0.02, "[{lo},{hi}]: est {est} truth {truth}");
        }
    }

    #[test]
    fn full_range_has_unit_mass() {
        let (gmm, _) = fitted();
        let r = GmmReducer::new(gmm);
        let mut m = Vec::new();
        r.range_mass(&Interval::full(), &mut m);
        assert!(m.iter().all(|&x| (x - 1.0).abs() < 1e-9));
    }

    #[test]
    fn reduce_is_argmax_assignment() {
        let (gmm, _) = fitted();
        let mut r = GmmReducer::new(gmm.clone());
        assert_eq!(r.k(), 2);
        assert_eq!(r.size_bytes(), 48);
        let sweep = || (-600..600).map(|i| i as f64 * 0.0173);
        assert!(sweep().all(|v| r.reduce(v) == gmm.assign(v)));
        // the hoisted constants follow the mixture through `set_gmm`
        let other = Gmm1d::new(vec![0.2, 0.1, 0.7], vec![4.0, -1.0, 0.5], vec![0.3, 2.0, 1.0]);
        r.set_gmm(other.clone());
        assert!(sweep().all(|v| r.reduce(v) == other.assign(v)));
        assert!(sweep().any(|v| other.assign(v) != gmm.assign(v)), "the sweep tells them apart");
    }
}
