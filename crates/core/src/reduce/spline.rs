//! Spline-histogram reducer — the second §6.6 alternative.
//!
//! Following Neumann & Michel ("Smooth interpolating histograms with error
//! guarantees"), the empirical CDF is approximated by a piecewise-linear
//! spline with `K` segments whose knots are placed greedily where the
//! current linear interpolation errs most. Values reduce to their segment
//! index; range mass within a segment assumes the (linear-CDF ⇒ uniform)
//! distribution between its knots.

use super::clamp_interval;
use iam_data::Interval;

/// Piecewise-linear CDF spline over `K` segments.
#[derive(Debug, Clone)]
pub struct SplineReducer {
    /// `k + 1` knot x-positions, ascending.
    pub(crate) knots_x: Vec<f64>,
    /// CDF value at each knot.
    pub(crate) knots_f: Vec<f64>,
}

impl SplineReducer {
    /// Fit a `k`-segment spline to the empirical CDF of `values`.
    pub fn fit(values: &[f64], k: usize) -> Self {
        assert!(k >= 1 && !values.is_empty());
        let mut sorted = values.to_vec();
        sorted.sort_unstable_by(f64::total_cmp);
        let n = sorted.len();
        let cdf_at = |i: usize| (i + 1) as f64 / n as f64;

        // greedy knot insertion: start with the two endpoints, repeatedly
        // split the segment at the point of maximum vertical CDF error
        let mut knot_idx: Vec<usize> = vec![0, n - 1];
        while knot_idx.len() < k + 1 {
            let mut best: Option<(f64, usize, usize)> = None; // (err, seg, point)
            for s in 0..knot_idx.len() - 1 {
                let (a, b) = (knot_idx[s], knot_idx[s + 1]);
                if b <= a + 1 {
                    continue;
                }
                let (xa, xb) = (sorted[a], sorted[b]);
                let (fa, fb) = (cdf_at(a), cdf_at(b));
                let span = (xb - xa).max(1e-300);
                // sample interior points (cap the scan for long segments)
                let step = ((b - a) / 64).max(1);
                let mut i = a + 1;
                while i < b {
                    let interp = fa + (sorted[i] - xa) / span * (fb - fa);
                    let err = (cdf_at(i) - interp).abs();
                    if best.is_none_or(|(e, _, _)| err > e) {
                        best = Some((err, s, i));
                    }
                    i += step;
                }
            }
            match best {
                Some((_, _, point)) => {
                    let pos = knot_idx.partition_point(|&i| i < point);
                    knot_idx.insert(pos, point);
                }
                None => break, // all segments exhausted
            }
        }

        let knots_x: Vec<f64> = knot_idx.iter().map(|&i| sorted[i]).collect();
        let knots_f: Vec<f64> = knot_idx.iter().map(|&i| cdf_at(i)).collect();
        SplineReducer { knots_x, knots_f }
    }

    fn segments(&self) -> usize {
        self.knots_x.len() - 1
    }

    /// Rebuild from persisted knots.
    pub fn from_knots(knots_x: Vec<f64>, knots_f: Vec<f64>) -> Self {
        assert!(knots_x.len() >= 2 && knots_x.len() == knots_f.len());
        crate::invariant::check_cdf_monotone(&knots_f, "spline knot CDF");
        SplineReducer { knots_x, knots_f }
    }

    /// Evaluate the spline CDF at `x` (linear interpolation between knots).
    pub fn cdf(&self, x: f64) -> f64 {
        let n = self.knots_x.len();
        if x <= self.knots_x[0] {
            return 0.0;
        }
        if x >= self.knots_x[n - 1] {
            return 1.0;
        }
        let j = self.knots_x[1..].partition_point(|&k| k <= x);
        let (x0, x1) = (self.knots_x[j], self.knots_x[j + 1]);
        let (f0, f1) = (self.knots_f[j], self.knots_f[j + 1]);
        if x1 > x0 {
            f0 + (x - x0) / (x1 - x0) * (f1 - f0)
        } else {
            f0
        }
    }

    /// Number of reduced values `K`.
    pub(crate) fn k(&self) -> usize {
        self.segments()
    }

    /// The reduced value of `v`.
    pub(crate) fn reduce(&self, v: f64) -> usize {
        let k = self.segments();
        let idx = self.knots_x[1..k].partition_point(|&b| b <= v);
        idx.min(k - 1)
    }

    /// `out[j] = P(value ∈ iv | reduced value = j)`.
    pub(crate) fn range_mass(&self, iv: &Interval, out: &mut Vec<f64>) {
        let last = self.segments();
        let (lo, hi) = clamp_interval(iv, self.knots_x[0], self.knots_x[last]);
        out.clear();
        for j in 0..last {
            let (xlo, xhi) = (self.knots_x[j], self.knots_x[j + 1]);
            let width = xhi - xlo;
            let overlap = (hi.min(xhi) - lo.max(xlo)).max(0.0);
            out.push(if width > 0.0 {
                (overlap / width).min(1.0)
            } else {
                f64::from(u8::from(lo <= xlo && xlo <= hi))
            });
        }
        crate::invariant::check_mass_vector(out, "spline range mass");
    }

    /// Model footprint in bytes.
    pub(crate) fn size_bytes(&self) -> usize {
        // x and F(x) per knot
        2 * self.knots_x.len() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce::testutil::empirical_consistency;
    use crate::reduce::Reducer;

    #[test]
    fn knots_concentrate_where_cdf_bends() {
        // data with a sharp knee: half the mass at tiny values
        let mut values: Vec<f64> = (0..5000).map(|i| i as f64 / 5000.0).collect();
        values.extend((0..5000).map(|i| 100.0 + i as f64));
        let s = SplineReducer::fit(&values, 8);
        assert_eq!(s.k(), 8);
        // at least one knot must land inside the low cluster
        assert!(s.knots_x[1] < 50.0, "knots: {:?}", s.knots_x);
    }

    #[test]
    fn consistency_on_piecewise_uniform_data() {
        let mut values: Vec<f64> = (0..4000).map(|i| i as f64 / 4.0).collect(); // [0,1000)
        values.extend((0..1000).map(|i| 5000.0 + i as f64)); // [5000,6000)
        let s = SplineReducer::fit(&values, 16);
        for (lo, hi) in [(0.0, 500.0), (900.0, 5500.0), (5100.0, 5900.0)] {
            let (est, truth) = empirical_consistency(
                &Reducer::Spline(s.clone()),
                &values,
                &Interval::closed(lo, hi),
            );
            assert!((est - truth).abs() < 0.03, "[{lo},{hi}]: {est} vs {truth}");
        }
    }

    #[test]
    fn cdf_is_monotone_and_bounded() {
        let values: Vec<f64> = (0..2000).map(|i| (i as f64).sqrt() * 10.0).collect();
        let s = SplineReducer::fit(&values, 12);
        let mut prev = -1.0;
        for i in 0..=100 {
            let x = i as f64 * 4.5;
            let f = s.cdf(x);
            assert!((0.0..=1.0).contains(&f));
            assert!(f >= prev, "CDF must be monotone");
            prev = f;
        }
        // matches the empirical CDF at a midpoint reasonably
        let emp = values.iter().filter(|&&v| v <= 220.0).count() as f64 / 2000.0;
        assert!((s.cdf(220.0) - emp).abs() < 0.05);
    }

    #[test]
    fn monotone_knots() {
        let values: Vec<f64> = (0..333).map(|i| ((i * 7919) % 1000) as f64).collect();
        let s = SplineReducer::fit(&values, 10);
        assert!(s.knots_x.windows(2).all(|w| w[0] <= w[1]));
        assert!(s.knots_f.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn duplicate_heavy_data_does_not_panic() {
        let values = vec![1.0; 500];
        let s = SplineReducer::fit(&values, 5);
        assert!(s.k() >= 1);
        let mut m = Vec::new();
        s.range_mass(&Interval::closed(0.5, 1.5), &mut m);
        assert!(m.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }
}
