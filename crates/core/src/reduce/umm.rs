//! Uniform-mixture-model reducer — the third §6.6 alternative.
//!
//! A UMM is a weighted mixture of `K` (overlapping) uniform buckets, the
//! model family of QuickSel. Here it is fitted to *data* (not queries):
//! bucket geometry comes from overlapping quantile spans and the weights
//! are learned by EM (responsibilities are trivial for uniform densities).

use super::clamp_interval;
use iam_data::Interval;

/// Weighted overlapping uniform buckets.
#[derive(Debug, Clone)]
pub struct UmmReducer {
    pub(crate) lo: Vec<f64>,
    pub(crate) hi: Vec<f64>,
    pub(crate) weights: Vec<f64>,
}

impl UmmReducer {
    /// Fit `k` buckets to `values`: bucket `j` spans an overlapping pair of
    /// quantiles (stride 1, width 2 quantile-steps), then weights are fitted
    /// by `iters` EM sweeps.
    pub fn fit(values: &[f64], k: usize, iters: usize) -> Self {
        assert!(k >= 1 && !values.is_empty());
        let mut sorted = values.to_vec();
        sorted.sort_unstable_by(f64::total_cmp);
        let n = sorted.len();
        let q = |t: f64| sorted[((t * (n - 1) as f64) as usize).min(n - 1)];

        let mut lo = Vec::with_capacity(k);
        let mut hi = Vec::with_capacity(k);
        for j in 0..k {
            // overlapping spans: [q(j/(k+1)), q((j+2)/(k+1))]
            let a = q(j as f64 / (k + 1) as f64);
            let b = q((j + 2) as f64 / (k + 1) as f64);
            lo.push(a);
            hi.push(if b > a { b } else { a + 1e-9 });
        }
        let mut weights = vec![1.0 / k as f64; k];

        // EM on weights only (geometry fixed)
        let mut resp = vec![0.0f64; k];
        for _ in 0..iters {
            let mut acc = vec![0.0f64; k];
            for &x in values {
                let mut total = 0.0;
                for j in 0..k {
                    let d =
                        if x >= lo[j] && x <= hi[j] { weights[j] / (hi[j] - lo[j]) } else { 0.0 };
                    resp[j] = d;
                    total += d;
                }
                if total > 0.0 {
                    for j in 0..k {
                        acc[j] += resp[j] / total;
                    }
                }
            }
            let mass: f64 = acc.iter().sum();
            if mass > 0.0 {
                for j in 0..k {
                    weights[j] = (acc[j] / mass).max(1e-12);
                }
            }
        }
        UmmReducer { lo, hi, weights }
    }

    /// Rebuild from persisted bucket geometry and weights.
    pub(crate) fn from_parts(lo: Vec<f64>, hi: Vec<f64>, weights: Vec<f64>) -> Self {
        assert!(!lo.is_empty() && lo.len() == hi.len() && lo.len() == weights.len());
        UmmReducer { lo, hi, weights }
    }

    /// Number of reduced values `K`.
    pub(crate) fn k(&self) -> usize {
        self.weights.len()
    }

    /// The reduced value of `v`.
    pub(crate) fn reduce(&self, v: f64) -> usize {
        // argmax posterior: weight/width among covering buckets; fall back
        // to the nearest bucket for out-of-support values
        let mut best = 0usize;
        let mut best_d = -1.0;
        for j in 0..self.k() {
            if v >= self.lo[j] && v <= self.hi[j] {
                let d = self.weights[j] / (self.hi[j] - self.lo[j]);
                if d > best_d {
                    best_d = d;
                    best = j;
                }
            }
        }
        if best_d >= 0.0 {
            return best;
        }
        // nearest bucket by distance
        let mut nearest = 0usize;
        let mut dist = f64::INFINITY;
        for j in 0..self.k() {
            let d = if v < self.lo[j] { self.lo[j] - v } else { v - self.hi[j] };
            if d < dist {
                dist = d;
                nearest = j;
            }
        }
        nearest
    }

    /// `out[j] = P(value ∈ iv | reduced value = j)`.
    pub(crate) fn range_mass(&self, iv: &Interval, out: &mut Vec<f64>) {
        let glo = self.lo.iter().copied().fold(f64::INFINITY, f64::min);
        let ghi = self.hi.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let (lo, hi) = clamp_interval(iv, glo, ghi);
        out.clear();
        for j in 0..self.k() {
            let width = self.hi[j] - self.lo[j];
            let overlap = (hi.min(self.hi[j]) - lo.max(self.lo[j])).max(0.0);
            out.push(if width > 0.0 {
                (overlap / width).min(1.0)
            } else {
                // zero-width bucket (possible via persisted geometry that
                // `fit` would never produce): in or out entirely, never NaN
                f64::from(u8::from(lo <= self.lo[j] && self.lo[j] <= hi))
            });
        }
        crate::invariant::check_mass_vector(out, "UMM range mass");
    }

    /// Model footprint in bytes.
    pub(crate) fn size_bytes(&self) -> usize {
        3 * self.k() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce::testutil::empirical_consistency;
    use crate::reduce::Reducer;

    #[test]
    fn weights_form_a_distribution() {
        let values: Vec<f64> = (0..2000).map(|i| ((i * 31) % 500) as f64).collect();
        let u = UmmReducer::fit(&values, 10, 20);
        assert!((u.weights.iter().sum::<f64>() - 1.0).abs() < 1e-6);
        assert_eq!(u.k(), 10);
    }

    #[test]
    fn consistency_on_uniform_data() {
        let values: Vec<f64> = (0..5000).map(|i| i as f64).collect();
        let u = UmmReducer::fit(&values, 15, 25);
        for (lo, hi) in [(1000.0, 2000.0), (0.0, 4999.0)] {
            let (est, truth) =
                empirical_consistency(&Reducer::Umm(u.clone()), &values, &Interval::closed(lo, hi));
            assert!((est - truth).abs() < 0.05, "[{lo},{hi}]: {est} vs {truth}");
        }
    }

    #[test]
    fn every_value_reduces_in_range() {
        let values: Vec<f64> = (0..300).map(|i| (i * i) as f64).collect();
        let u = UmmReducer::fit(&values, 7, 10);
        for &v in &values {
            assert!(u.reduce(v) < u.k());
        }
        // out-of-support values snap to the nearest bucket without panicking
        assert!(u.reduce(-1e12) < u.k());
        assert!(u.reduce(1e12) < u.k());
    }
}
