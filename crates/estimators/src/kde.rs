//! Kernel density estimation over a sample (Heimel/Kiefer-style), with
//! Scott's-rule bandwidth.
//!
//! Each sample point carries a product of per-dimension Gaussian kernels;
//! a range query integrates the kernel mass analytically through the normal
//! CDF, so `sel(q) = (1/m) Σ_s Π_d [Φ((hi−x_sd)/h_d) − Φ((lo−x_sd)/h_d)]`.

use iam_data::{RangeQuery, SelectivityEstimator, Table};
use iam_gmm::math::std_normal_cdf;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The KDE estimator.
pub struct KdeEstimator {
    /// Row-major `m × d` sample.
    sample: Vec<f64>,
    /// Per-dimension bandwidths.
    bandwidth: Vec<f64>,
    m: usize,
    d: usize,
}

impl KdeEstimator {
    /// Build over `m` sampled rows.
    pub fn new(table: &Table, m: usize, seed: u64) -> Self {
        let n = table.nrows();
        let d = table.ncols();
        assert!(n > 0 && m >= 1);
        let m = m.min(n);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ids: Vec<usize> = (0..n).collect();
        for i in 0..m {
            let j = rng.random_range(i..n);
            ids.swap(i, j);
        }
        let mut sample = Vec::with_capacity(m * d);
        let mut row = Vec::new();
        for &r in &ids[..m] {
            table.row_as_f64(r, &mut row);
            sample.extend_from_slice(&row);
        }
        // Scott's rule per dimension: h = σ · m^{-1/(d+4)}
        let factor = (m as f64).powf(-1.0 / (d as f64 + 4.0));
        let mut bandwidth = Vec::with_capacity(d);
        for dim in 0..d {
            let vals: Vec<f64> = (0..m).map(|s| sample[s * d + dim]).collect();
            let mean = vals.iter().sum::<f64>() / m as f64;
            let var = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / m as f64;
            bandwidth.push((var.sqrt() * factor).max(1e-9));
        }
        KdeEstimator { sample, bandwidth, m, d }
    }

    /// Scale every bandwidth by `f` (the query-feedback tuning hook the
    /// original system exposes).
    pub fn scale_bandwidth(&mut self, f: f64) {
        assert!(f > 0.0);
        for h in &mut self.bandwidth {
            *h *= f;
        }
    }
}

impl SelectivityEstimator for KdeEstimator {
    fn name(&self) -> &str {
        "KDE"
    }

    fn estimate(&self, q: &RangeQuery) -> f64 {
        assert_eq!(q.cols.len(), self.d);
        let mut total = 0.0f64;
        for s in 0..self.m {
            let mut prob = 1.0f64;
            for dim in 0..self.d {
                let Some(iv) = &q.cols[dim] else { continue };
                let x = self.sample[s * self.d + dim];
                let h = self.bandwidth[dim];
                let upper =
                    if iv.hi == f64::INFINITY { 1.0 } else { std_normal_cdf((iv.hi - x) / h) };
                let lower =
                    if iv.lo == f64::NEG_INFINITY { 0.0 } else { std_normal_cdf((iv.lo - x) / h) };
                prob *= (upper - lower).max(0.0);
                if prob == 0.0 {
                    break;
                }
            }
            total += prob;
        }
        (total / self.m as f64).clamp(0.0, 1.0)
    }

    fn model_size_bytes(&self) -> usize {
        (self.sample.len() + self.bandwidth.len()) * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iam_data::column::{Column, ContColumn};
    use iam_data::query::{Op, Predicate, Query};
    use iam_data::{exact_selectivity, Table};

    fn smooth_table(n: usize) -> Table {
        // smooth unimodal data: KDE's best case
        let vals: Vec<f64> =
            (0..n).map(|i| ((i as f64 / n as f64) * std::f64::consts::PI).sin() * 100.0).collect();
        let other: Vec<f64> = (0..n).map(|i| (i % 1000) as f64).collect();
        Table::new(
            "s",
            vec![
                Column::Continuous(ContColumn::new("a", vals)),
                Column::Continuous(ContColumn::new("b", other)),
            ],
        )
        .unwrap()
    }

    #[test]
    fn accurate_on_smooth_continuous_data() {
        let t = smooth_table(20_000);
        let kde = KdeEstimator::new(&t, 2000, 1);
        for bound in [25.0, 50.0, 90.0] {
            let q = Query::new(vec![Predicate { col: 0, op: Op::Le, value: bound }]);
            let (rq, _) = q.normalize(2).unwrap();
            let truth = exact_selectivity(&t, &q);
            let est = kde.estimate(&rq);
            assert!((est - truth).abs() < 0.05, "≤{bound}: est {est} truth {truth}");
        }
    }

    #[test]
    fn point_queries_on_discrete_data_are_poor() {
        // the documented weakness: Gaussian kernels smear discrete values
        let n = 5000;
        let vals: Vec<f64> = (0..n).map(|i| (i % 2) as f64).collect();
        let t = Table::new("d", vec![Column::Continuous(ContColumn::new("a", vals))]).unwrap();
        let kde = KdeEstimator::new(&t, 500, 2);
        let q = Query::new(vec![Predicate { col: 0, op: Op::Eq, value: 0.0 }]);
        let (rq, _) = q.normalize(1).unwrap();
        // a point query has zero kernel mass
        assert!(kde.estimate(&rq) < 0.01, "{}", kde.estimate(&rq));
    }

    #[test]
    fn bandwidth_scaling_hook() {
        let t = smooth_table(2000);
        let mut kde = KdeEstimator::new(&t, 200, 3);
        let q = Query::new(vec![Predicate { col: 0, op: Op::Le, value: 10.0 }]);
        let (rq, _) = q.normalize(2).unwrap();
        let before = kde.estimate(&rq);
        kde.scale_bandwidth(10.0);
        let after = kde.estimate(&rq);
        assert_ne!(before, after);
    }

    #[test]
    fn unconstrained_is_one() {
        let t = smooth_table(500);
        let kde = KdeEstimator::new(&t, 100, 4);
        assert!((kde.estimate(&RangeQuery::unconstrained(2)) - 1.0).abs() < 1e-9);
    }
}
