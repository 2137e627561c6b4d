//! Uniform-sample estimator.

use iam_data::{RangeQuery, SelectivityEstimator, Table};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Keeps a uniform row sample (projected to `f64`) and scans it per query.
pub struct SamplingEstimator {
    /// Row-major `nsamples × ncols` sample matrix.
    sample: Vec<f64>,
    ncols: usize,
    nsamples: usize,
}

impl SamplingEstimator {
    /// Sample a fixed `fraction` of rows (without replacement).
    pub fn new(table: &Table, fraction: f64, seed: u64) -> Self {
        let n = table.nrows();
        assert!(n > 0, "cannot sample an empty table");
        let target = ((n as f64 * fraction).round() as usize).clamp(1, n);
        let mut rng = StdRng::seed_from_u64(seed);
        // partial Fisher-Yates over row ids
        let mut ids: Vec<usize> = (0..n).collect();
        for i in 0..target.min(n) {
            let j = rng.random_range(i..n);
            ids.swap(i, j);
        }
        let ncols = table.ncols();
        let mut sample = Vec::with_capacity(target * ncols);
        let mut row = Vec::new();
        for &r in &ids[..target] {
            table.row_as_f64(r, &mut row);
            sample.extend_from_slice(&row);
        }
        SamplingEstimator { sample, ncols, nsamples: target }
    }
}

impl SelectivityEstimator for SamplingEstimator {
    fn name(&self) -> &str {
        "Sampling"
    }

    fn estimate(&self, q: &RangeQuery) -> f64 {
        assert_eq!(q.cols.len(), self.ncols);
        let mut hits = 0usize;
        for row in self.sample.chunks_exact(self.ncols) {
            if q.matches_row(row) {
                hits += 1;
            }
        }
        hits as f64 / self.nsamples as f64
    }

    fn model_size_bytes(&self) -> usize {
        self.sample.len() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iam_data::column::{Column, ContColumn};
    use iam_data::query::{Interval, Op, Predicate, Query};
    use iam_data::{exact_selectivity, Table};

    fn table(n: usize) -> Table {
        Table::new(
            "t",
            vec![
                Column::Continuous(ContColumn::new("a", (0..n).map(|i| i as f64).collect())),
                Column::Continuous(ContColumn::new("b", (0..n).map(|i| (i % 97) as f64).collect())),
            ],
        )
        .unwrap()
    }

    #[test]
    fn full_sample_is_exact() {
        let t = table(500);
        let s = SamplingEstimator::new(&t, 1.0, 1);
        let q = Query::new(vec![Predicate { col: 0, op: Op::Le, value: 99.0 }]);
        let (rq, _) = q.normalize(2).unwrap();
        assert!((s.estimate(&rq) - exact_selectivity(&t, &q)).abs() < 1e-12);
    }

    #[test]
    fn partial_sample_approximates() {
        let t = table(20_000);
        let s = SamplingEstimator::new(&t, 0.05, 2);
        assert_eq!(s.nsamples, 1000);
        let q = Query::new(vec![Predicate { col: 1, op: Op::Le, value: 48.0 }]);
        let (rq, _) = q.normalize(2).unwrap();
        let truth = exact_selectivity(&t, &q);
        assert!((s.estimate(&rq) - truth).abs() < 0.05);
    }

    #[test]
    fn budget_sizing() {
        let t = table(10_000);
        let s = SamplingEstimator::new(&t, 0.01, 3);
        // 1 % of the rows, 16 bytes per row
        assert_eq!(s.nsamples, 100);
        assert_eq!(s.model_size_bytes(), 1600);
    }

    #[test]
    fn misses_rare_values_in_small_sample() {
        // the paper's observed failure mode: low-selectivity queries
        let t = table(10_000);
        let s = SamplingEstimator::new(&t, 0.001, 4);
        let mut rq = RangeQuery::unconstrained(2);
        rq.cols[0] = Some(Interval::point(7777.0));
        // with 10 samples the point query is almost surely estimated 0
        assert_eq!(s.estimate(&rq), 0.0);
    }
}
