//! Equi-depth histogram reducer — the first §6.6 alternative.

use super::clamp_interval;
use iam_data::Interval;

/// Equi-depth buckets: each of the `K` buckets holds the same number of
/// training values; values map to their bucket index and range mass assumes
/// a uniform distribution *within* a bucket (the assumption Tables 9–11
/// blame for the alternatives' tail errors).
#[derive(Debug, Clone)]
pub struct HistReducer {
    /// `k + 1` bucket boundaries, ascending; bucket `j` spans
    /// `[bounds[j], bounds[j+1])` (last bucket closed on the right).
    pub(crate) bounds: Vec<f64>,
}

impl HistReducer {
    /// Build from data with `k` buckets.
    pub fn fit(values: &[f64], k: usize) -> Self {
        assert!(k >= 1 && !values.is_empty());
        let mut sorted = values.to_vec();
        sorted.sort_unstable_by(f64::total_cmp);
        let n = sorted.len();
        let mut bounds = Vec::with_capacity(k + 1);
        bounds.push(sorted[0]);
        for j in 1..k {
            let b = sorted[(j * n) / k];
            bounds.push(b.max(*bounds.last().expect("nonempty")));
        }
        bounds.push(sorted[n - 1]);
        HistReducer { bounds }
    }

    pub(crate) fn bucket_span(&self, j: usize) -> (f64, f64) {
        (self.bounds[j], self.bounds[j + 1])
    }

    /// Rebuild from persisted bucket boundaries.
    pub fn from_bounds(bounds: Vec<f64>) -> Self {
        assert!(bounds.len() >= 2, "need at least one bucket");
        HistReducer { bounds }
    }

    /// Number of reduced values `K`.
    pub(crate) fn k(&self) -> usize {
        self.bounds.len() - 1
    }

    /// The reduced value of `v`.
    pub(crate) fn reduce(&self, v: f64) -> usize {
        // values at a shared boundary go to the later bucket; values outside
        // the fitted range clamp to the edge buckets
        let k = self.k();
        let idx = self.bounds[1..k].partition_point(|&b| b <= v);
        idx.min(k - 1)
    }

    /// `out[j] = P(value ∈ iv | reduced value = j)`.
    pub(crate) fn range_mass(&self, iv: &Interval, out: &mut Vec<f64>) {
        let (lo, hi) = clamp_interval(iv, self.bounds[0], self.bounds[self.k()]);
        out.clear();
        for j in 0..self.k() {
            let (blo, bhi) = self.bucket_span(j);
            let width = bhi - blo;
            let overlap = (hi.min(bhi) - lo.max(blo)).max(0.0);
            out.push(if width > 0.0 {
                (overlap / width).min(1.0)
            } else {
                // zero-width bucket (heavy duplicates): in or out entirely
                f64::from(u8::from(lo <= blo && blo <= hi))
            });
        }
        crate::invariant::check_mass_vector(out, "histogram range mass");
    }

    /// Model footprint in bytes.
    pub(crate) fn size_bytes(&self) -> usize {
        self.bounds.len() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce::testutil::empirical_consistency;
    use crate::reduce::Reducer;

    #[test]
    fn equi_depth_buckets_balance_counts() {
        let values: Vec<f64> = (0..1000).map(|i| (i as f64).powf(1.7)).collect();
        let h = HistReducer::fit(&values, 10);
        let mut counts = vec![0usize; 10];
        for &v in &values {
            counts[h.reduce(v)] += 1;
        }
        for &c in &counts {
            assert!((80..=130).contains(&c), "unbalanced bucket: {counts:?}");
        }
    }

    #[test]
    fn consistency_on_uniform_data() {
        // within-bucket uniformity holds exactly for uniform data
        let values: Vec<f64> = (0..10_000).map(|i| i as f64 / 10.0).collect();
        let h = HistReducer::fit(&values, 20);
        for (lo, hi) in [(100.0, 300.0), (0.0, 999.9), (512.3, 612.3)] {
            let (est, truth) = empirical_consistency(
                &Reducer::Hist(h.clone()),
                &values,
                &Interval::closed(lo, hi),
            );
            assert!((est - truth).abs() < 0.01, "[{lo},{hi}]: {est} vs {truth}");
        }
    }

    #[test]
    fn skewed_data_breaks_uniformity_assumption() {
        // the motivating failure: within-bucket skew → wrong range mass
        let mut values: Vec<f64> = vec![0.0; 900];
        values.extend((1..=100).map(|i| i as f64));
        let h = HistReducer::fit(&values, 4);
        let iv = Interval::closed(50.0, 100.0);
        let (est, truth) = empirical_consistency(&Reducer::Hist(h.clone()), &values, &iv);
        // it should at least not be wildly negative/overshooting
        assert!((0.0..=1.0).contains(&est));
        // document the error direction: uniform assumption misprices the
        // tail bucket (truth 51/1000)
        assert!((truth - 0.051).abs() < 1e-9);
    }

    #[test]
    fn out_of_range_values_clamp() {
        let values: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let h = HistReducer::fit(&values, 5);
        assert_eq!(h.reduce(-100.0), 0);
        assert_eq!(h.reduce(1e9), 4);
        let mut m = Vec::new();
        h.range_mass(&Interval::closed(-50.0, -10.0), &mut m);
        assert!(m.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn size_grows_with_k() {
        let values: Vec<f64> = (0..100).map(|i| i as f64).collect();
        assert!(
            HistReducer::fit(&values, 50).size_bytes() > HistReducer::fit(&values, 5).size_bytes()
        );
    }
}
