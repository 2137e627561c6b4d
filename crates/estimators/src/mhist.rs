//! MHIST — multidimensional histogram with MaxDiff-style greedy splits
//! (Poosala et al.), the paper's multi-dim histogram baseline.
//!
//! The space is partitioned into axis-aligned buckets by repeatedly taking
//! the bucket holding the most rows and splitting it along the dimension
//! with the largest *area difference* (frequency gap between adjacent
//! distinct values, the MaxDiff criterion). Buckets store their bounding
//! box and row count; queries assume uniform spread inside a bucket — the
//! assumption behind MHIST's maximum-error blowups (§6.2).

use iam_data::{RangeQuery, SelectivityEstimator, Table};

struct Bucket {
    /// Row indices (only kept during construction).
    rows: Vec<usize>,
    lo: Vec<f64>,
    hi: Vec<f64>,
}

/// A finished bucket: bounding box + count.
struct Leaf {
    lo: Vec<f64>,
    hi: Vec<f64>,
    count: usize,
}

/// The MaxDiff multidimensional histogram.
pub struct Mhist {
    leaves: Vec<Leaf>,
    nrows: usize,
    ncols: usize,
}

impl Mhist {
    /// Build with (at most) `buckets` buckets.
    pub fn new(table: &Table, buckets: usize) -> Self {
        let n = table.nrows();
        let ncols = table.ncols();
        assert!(n > 0 && buckets >= 1);
        // column-major value cache
        let data: Vec<Vec<f64>> =
            table.columns.iter().map(|c| (0..n).map(|r| c.value_as_f64(r)).collect()).collect();

        let bbox = |rows: &[usize]| -> (Vec<f64>, Vec<f64>) {
            let mut lo = vec![f64::INFINITY; ncols];
            let mut hi = vec![f64::NEG_INFINITY; ncols];
            for &r in rows {
                for d in 0..ncols {
                    lo[d] = lo[d].min(data[d][r]);
                    hi[d] = hi[d].max(data[d][r]);
                }
            }
            (lo, hi)
        };

        let all: Vec<usize> = (0..n).collect();
        let (lo, hi) = bbox(&all);
        let mut work = vec![Bucket { rows: all, lo, hi }];
        let mut done: Vec<Bucket> = Vec::new(); // unsplittable (single point)

        while !work.is_empty() && work.len() + done.len() < buckets {
            // split the most populated bucket still in play
            let idx = work
                .iter()
                .enumerate()
                .max_by_key(|(_, b)| b.rows.len())
                .map(|(i, _)| i)
                .expect("work nonempty");
            if work[idx].rows.len() <= 1 {
                break; // nothing left worth splitting
            }
            let bucket = work.swap_remove(idx);
            match Self::split_maxdiff(&bucket, &data, ncols) {
                Some((a, b)) => {
                    let (alo, ahi) = bbox(&a);
                    let (blo, bhi) = bbox(&b);
                    work.push(Bucket { rows: a, lo: alo, hi: ahi });
                    work.push(Bucket { rows: b, lo: blo, hi: bhi });
                }
                None => done.push(bucket), // identical values in every dim
            }
        }
        work.append(&mut done);

        let leaves =
            work.into_iter().map(|b| Leaf { count: b.rows.len(), lo: b.lo, hi: b.hi }).collect();
        Mhist { leaves, nrows: n, ncols }
    }

    /// Find the (dimension, threshold) with the maximum frequency-weighted
    /// gap between adjacent distinct values; split rows at it.
    fn split_maxdiff(
        bucket: &Bucket,
        data: &[Vec<f64>],
        ncols: usize,
    ) -> Option<(Vec<usize>, Vec<usize>)> {
        let mut best: Option<(f64, usize, f64)> = None; // (score, dim, threshold)
        let mut vals: Vec<f64> = Vec::with_capacity(bucket.rows.len());
        for (d, col) in data.iter().enumerate().take(ncols) {
            vals.clear();
            vals.extend(bucket.rows.iter().map(|&r| col[r]));
            vals.sort_unstable_by(f64::total_cmp);
            // area difference between adjacent distinct values: gap width ×
            // run frequency (cap scan cost on long buckets)
            let mut i = 0;
            while i < vals.len() {
                let v = vals[i];
                let mut j = i + 1;
                while j < vals.len() && vals[j] == v {
                    j += 1;
                }
                if j < vals.len() {
                    let gap = vals[j] - v;
                    let score = gap * (j - i) as f64;
                    if best.is_none_or(|(s, _, _)| score > s) {
                        best = Some((score, d, (v + vals[j]) / 2.0));
                    }
                }
                i = j;
            }
        }
        let (_, dim, threshold) = best?;
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for &r in &bucket.rows {
            if data[dim][r] <= threshold {
                a.push(r);
            } else {
                b.push(r);
            }
        }
        if a.is_empty() || b.is_empty() {
            None
        } else {
            Some((a, b))
        }
    }
}

impl SelectivityEstimator for Mhist {
    fn name(&self) -> &str {
        "MHIST"
    }

    fn estimate(&self, q: &RangeQuery) -> f64 {
        assert_eq!(q.cols.len(), self.ncols);
        let mut total = 0.0f64;
        for leaf in &self.leaves {
            let mut frac = 1.0f64;
            for d in 0..self.ncols {
                let Some(iv) = &q.cols[d] else { continue };
                let (blo, bhi) = (leaf.lo[d], leaf.hi[d]);
                let lo = iv.lo.max(blo);
                let hi = iv.hi.min(bhi);
                if hi < lo {
                    frac = 0.0;
                    break;
                }
                let width = bhi - blo;
                // uniform-spread assumption inside the bucket
                frac *= if width > 0.0 { ((hi - lo) / width).clamp(0.0, 1.0) } else { 1.0 };
            }
            total += frac * leaf.count as f64;
        }
        (total / self.nrows as f64).clamp(0.0, 1.0)
    }

    fn model_size_bytes(&self) -> usize {
        // per leaf: 2 × ncols bounds + count
        self.leaves.len() * (2 * self.ncols + 1) * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iam_data::column::{Column, ContColumn};
    use iam_data::query::{Op, Predicate, Query};
    use iam_data::{exact_selectivity, Table};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn clustered_table(n: usize, seed: u64) -> Table {
        // two distant clusters: MaxDiff should cut between them
        let mut rng = StdRng::seed_from_u64(seed);
        let mut a = Vec::new();
        let mut b = Vec::new();
        for _ in 0..n {
            if rng.random_range(0..2u8) == 0 {
                a.push(rng.random::<f64>());
                b.push(rng.random::<f64>());
            } else {
                a.push(100.0 + rng.random::<f64>());
                b.push(100.0 + rng.random::<f64>());
            }
        }
        Table::new(
            "cl",
            vec![
                Column::Continuous(ContColumn::new("a", a)),
                Column::Continuous(ContColumn::new("b", b)),
            ],
        )
        .unwrap()
    }

    #[test]
    fn respects_bucket_budget() {
        let t = clustered_table(2000, 1);
        let m = Mhist::new(&t, 64);
        assert!(m.leaves.len() <= 64);
        assert!(m.leaves.len() > 32);
        assert_eq!(m.leaves.iter().map(|l| l.count).sum::<usize>(), 2000);
    }

    #[test]
    fn accurate_on_cluster_queries() {
        let t = clustered_table(5000, 2);
        let m = Mhist::new(&t, 128);
        // the whole low cluster
        let q = Query::new(vec![
            Predicate { col: 0, op: Op::Le, value: 50.0 },
            Predicate { col: 1, op: Op::Le, value: 50.0 },
        ]);
        let (rq, _) = q.normalize(2).unwrap();
        let truth = exact_selectivity(&t, &q);
        assert!((m.estimate(&rq) - truth).abs() < 0.02);
    }

    #[test]
    fn beats_independence_on_correlation() {
        // the low cluster on col a has ONLY low values on col b; a cross
        // query (low a, high b) selects nothing — MHIST should see that
        let t = clustered_table(5000, 3);
        let m = Mhist::new(&t, 128);
        let q = Query::new(vec![
            Predicate { col: 0, op: Op::Le, value: 50.0 },
            Predicate { col: 1, op: Op::Ge, value: 50.0 },
        ]);
        let (rq, _) = q.normalize(2).unwrap();
        assert!(m.estimate(&rq) < 0.01);
    }

    #[test]
    fn unconstrained_is_one() {
        let t = clustered_table(500, 4);
        let m = Mhist::new(&t, 16);
        assert!((m.estimate(&RangeQuery::unconstrained(2)) - 1.0).abs() < 1e-9);
    }
}
