//! QuickSel-style estimator: a uniform mixture model fitted to a training
//! workload (query-driven).
//!
//! Each training query's region becomes a candidate uniform bucket; bucket
//! weights `w` are fitted so the mixture reproduces the training queries'
//! true selectivities (`min ‖Gw − s‖²` over the simplex, solved by
//! projected gradient descent). Estimation is `Σ_k w_k · vol(q ∩ B_k) /
//! vol(B_k)` — the uniformity-within-bucket assumption the paper blames for
//! its large errors on correlated, high-dimensional data.

use iam_data::{RangeQuery, SelectivityEstimator, Table};

/// An axis-aligned bucket (one per retained training query).
struct BucketBox {
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl BucketBox {
    /// Fractional overlap of a query with this bucket, assuming uniformity.
    fn overlap_fraction(&self, q: &RangeQuery) -> f64 {
        let mut frac = 1.0f64;
        for (d, iv) in q.cols.iter().enumerate() {
            let Some(iv) = iv else { continue };
            let (blo, bhi) = (self.lo[d], self.hi[d]);
            let lo = iv.lo.max(blo);
            let hi = iv.hi.min(bhi);
            if hi < lo {
                return 0.0;
            }
            let width = bhi - blo;
            frac *= if width > 0.0 { ((hi - lo) / width).min(1.0) } else { 1.0 };
        }
        frac
    }
}

/// The QuickSel-lite estimator.
pub struct QuickSelLite {
    buckets: Vec<BucketBox>,
    weights: Vec<f64>,
    ncols: usize,
}

impl QuickSelLite {
    /// Fit from `(query, true-selectivity)` training pairs. `max_buckets`
    /// caps the mixture size (training queries beyond it are used for the
    /// weight fit only).
    pub fn fit(
        table: &Table,
        training: &[(RangeQuery, f64)],
        max_buckets: usize,
        gd_iters: usize,
    ) -> Self {
        let ncols = table.ncols();
        // data bounding box clamps open-ended predicates
        let (mut glo, mut ghi) = (vec![f64::INFINITY; ncols], vec![f64::NEG_INFINITY; ncols]);
        for (d, c) in table.columns.iter().enumerate() {
            for r in 0..c.len() {
                let v = c.value_as_f64(r);
                glo[d] = glo[d].min(v);
                ghi[d] = ghi[d].max(v);
            }
        }
        // one bucket per (subsampled) training query region
        let stride = training.len().div_ceil(max_buckets.max(1)).max(1);
        let mut buckets = Vec::new();
        for (q, _) in training.iter().step_by(stride) {
            let mut lo = glo.clone();
            let mut hi = ghi.clone();
            for (d, iv) in q.cols.iter().enumerate() {
                if let Some(iv) = iv {
                    lo[d] = iv.lo.max(glo[d]);
                    hi[d] = iv.hi.min(ghi[d]);
                    if hi[d] < lo[d] {
                        hi[d] = lo[d];
                    }
                }
            }
            buckets.push(BucketBox { lo, hi });
        }
        // plus one background bucket covering everything
        buckets.push(BucketBox { lo: glo, hi: ghi });
        let nb = buckets.len();

        // design matrix G[t][k] = overlap fraction of training query t with
        // bucket k
        let g: Vec<Vec<f64>> = training
            .iter()
            .map(|(q, _)| buckets.iter().map(|b| b.overlap_fraction(q)).collect())
            .collect();
        let s: Vec<f64> = training.iter().map(|&(_, sel)| sel).collect();

        // exponentiated-gradient descent on ‖Gw − s‖² over the simplex
        // (mirror descent respects the w ≥ 0, Σw = 1 constraints natively)
        let mut w = vec![1.0 / nb as f64; nb];
        let lr = 4.0 / training.len().max(1) as f64;
        for _ in 0..gd_iters {
            let mut grad = vec![0.0f64; nb];
            for (row, &target) in g.iter().zip(&s) {
                let pred: f64 = row.iter().zip(&w).map(|(a, b)| a * b).sum();
                let err = pred - target;
                for (gk, &rk) in grad.iter_mut().zip(row) {
                    *gk += 2.0 * err * rk;
                }
            }
            for (wk, gk) in w.iter_mut().zip(&grad) {
                *wk *= (-lr * gk).clamp(-30.0, 30.0).exp();
            }
            let total: f64 = w.iter().sum();
            if total > 0.0 {
                for wk in &mut w {
                    *wk /= total;
                }
            } else {
                w.fill(1.0 / nb as f64);
            }
        }

        QuickSelLite { buckets, weights: w, ncols }
    }
}

impl SelectivityEstimator for QuickSelLite {
    fn name(&self) -> &str {
        "QuickSel"
    }

    fn estimate(&self, q: &RangeQuery) -> f64 {
        assert_eq!(q.cols.len(), self.ncols);
        self.buckets
            .iter()
            .zip(&self.weights)
            .map(|(b, &w)| w * b.overlap_fraction(q))
            .sum::<f64>()
            .clamp(0.0, 1.0)
    }

    fn model_size_bytes(&self) -> usize {
        self.buckets.len() * (2 * self.ncols + 1) * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iam_data::column::{Column, ContColumn};
    use iam_data::{exact_selectivity, Table, WorkloadConfig, WorkloadGenerator};

    fn uniform_table(n: usize) -> Table {
        Table::new(
            "u",
            vec![
                Column::Continuous(ContColumn::new("a", (0..n).map(|i| i as f64).collect())),
                Column::Continuous(ContColumn::new(
                    "b",
                    (0..n).map(|i| ((i * 7919) % n) as f64).collect(),
                )),
            ],
        )
        .unwrap()
    }

    fn training_set(t: &Table, n: usize, seed: u64) -> Vec<(RangeQuery, f64)> {
        let mut g = WorkloadGenerator::new(t, WorkloadConfig::default(), seed);
        g.gen_queries(n)
            .into_iter()
            .map(|q| {
                let truth = exact_selectivity(t, &q);
                (q.normalize(t.ncols()).unwrap().0, truth)
            })
            .collect()
    }

    #[test]
    fn fits_training_workload_on_uniform_data() {
        let t = uniform_table(5000);
        let training = training_set(&t, 200, 1);
        let qs = QuickSelLite::fit(&t, &training, 100, 1000);
        // held-out queries on genuinely uniform data: UMM's best case.
        // QuickSel is a coarse model even here, so check the *mean* error.
        let test = training_set(&t, 50, 2);
        let mut total = 0.0;
        for (rq, truth) in &test {
            total += (qs.estimate(rq) - truth).abs();
        }
        let mean = total / test.len() as f64;
        assert!(mean < 0.12, "mean absolute error {mean}");
    }

    #[test]
    fn weights_form_a_distribution() {
        let t = uniform_table(1000);
        let training = training_set(&t, 50, 3);
        let qs = QuickSelLite::fit(&t, &training, 30, 100);
        assert!((qs.weights.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(qs.weights.iter().all(|&w| w >= 0.0));
    }

    #[test]
    fn unconstrained_estimates_about_one() {
        let t = uniform_table(1000);
        let training = training_set(&t, 50, 4);
        let qs = QuickSelLite::fit(&t, &training, 30, 100);
        let est = qs.estimate(&RangeQuery::unconstrained(2));
        assert!(est > 0.95, "{est}");
    }

    #[test]
    fn bucket_cap_respected() {
        let t = uniform_table(1000);
        let training = training_set(&t, 100, 5);
        let qs = QuickSelLite::fit(&t, &training, 20, 10);
        assert!(qs.buckets.len() <= 21); // cap + background
    }
}
