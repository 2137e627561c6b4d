//! Postgres-style estimator: per-column statistics + attribute independence.
//!
//! Mirrors the documented Postgres row-estimation model: each column keeps
//! a most-common-values (MCV) list with frequencies and an equi-depth
//! histogram over the remaining values; single-predicate selectivities come
//! from MCV lookups plus linear interpolation inside histogram buckets, and
//! conjunctions multiply per-column selectivities (the independence
//! assumption the paper blames for its large errors).

use iam_data::{Column, Interval, RangeQuery, SelectivityEstimator, Table};

/// Per-column statistics.
struct ColumnStats {
    /// Most common values and their frequencies (fraction of all rows).
    mcv: Vec<(f64, f64)>,
    /// Equi-depth histogram bounds over non-MCV values.
    hist_bounds: Vec<f64>,
    /// Fraction of rows not covered by the MCV list.
    hist_frac: f64,
    /// Distinct count of non-MCV values (for equality estimates).
    rest_distinct: usize,
}

/// The Postgres-1D estimator.
pub struct Postgres1d {
    cols: Vec<ColumnStats>,
}

/// Number of MCVs and histogram buckets (Postgres's default statistics
/// target is 100 of each).
const STATS_TARGET: usize = 100;

impl Postgres1d {
    /// Collect statistics from `table`.
    pub fn new(table: &Table) -> Self {
        let n = table.nrows().max(1);
        let cols = table
            .columns
            .iter()
            .map(|c| {
                let mut values: Vec<f64> = (0..c.len()).map(|r| c.value_as_f64(r)).collect();
                values.sort_unstable_by(f64::total_cmp);
                Self::column_stats(&values, n, matches!(c, Column::Categorical(_)))
            })
            .collect();
        Postgres1d { cols }
    }

    fn column_stats(sorted: &[f64], n: usize, _categorical: bool) -> ColumnStats {
        // frequency count over sorted runs
        let mut freqs: Vec<(f64, usize)> = Vec::new();
        let mut i = 0;
        while i < sorted.len() {
            let v = sorted[i];
            let mut j = i + 1;
            while j < sorted.len() && sorted[j] == v {
                j += 1;
            }
            freqs.push((v, j - i));
            i = j;
        }
        // MCVs: values appearing more than once, most frequent first
        let mut by_freq = freqs.clone();
        by_freq.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
        let mcv: Vec<(f64, f64)> = by_freq
            .iter()
            .take(STATS_TARGET)
            .filter(|(_, c)| *c > 1)
            .map(|&(v, c)| (v, c as f64 / n as f64))
            .collect();
        let mcv_set: Vec<f64> = mcv.iter().map(|&(v, _)| v).collect();

        // histogram over the remaining values
        let rest: Vec<f64> = sorted.iter().copied().filter(|v| !mcv_set.contains(v)).collect();
        let hist_frac = rest.len() as f64 / n as f64;
        let rest_distinct = freqs.len().saturating_sub(mcv.len()).max(1);
        let mut hist_bounds = Vec::new();
        if !rest.is_empty() {
            let b = STATS_TARGET.min(rest.len());
            for k in 0..=b {
                hist_bounds.push(rest[(k * (rest.len() - 1)) / b.max(1)]);
            }
        }
        ColumnStats { mcv, hist_bounds, hist_frac, rest_distinct }
    }

    /// Selectivity of `iv` on one column.
    fn column_selectivity(stats: &ColumnStats, iv: &Interval) -> f64 {
        // MCV mass inside the interval
        let mcv_mass: f64 = stats.mcv.iter().filter(|(v, _)| iv.contains(*v)).map(|(_, f)| f).sum();
        // histogram mass with linear interpolation inside buckets
        let hist_mass = if stats.hist_bounds.len() >= 2 {
            let nb = stats.hist_bounds.len() - 1;
            let per_bucket = stats.hist_frac / nb as f64;
            let mut mass = 0.0;
            for k in 0..nb {
                let (blo, bhi) = (stats.hist_bounds[k], stats.hist_bounds[k + 1]);
                if bhi < blo {
                    continue;
                }
                let lo = iv.lo.max(blo);
                let hi = iv.hi.min(bhi);
                if hi < lo {
                    continue;
                }
                let width = bhi - blo;
                let frac = if width > 0.0 { ((hi - lo) / width).clamp(0.0, 1.0) } else { 1.0 };
                mass += per_bucket * frac;
            }
            mass
        } else {
            0.0
        };
        // point queries on non-MCV values: uniform share of the remainder
        let point_adjust = if iv.lo == iv.hi && !iv.lo_strict && !iv.hi_strict {
            if stats.mcv.iter().any(|(v, _)| *v == iv.lo) {
                0.0 // already counted via MCV
            } else {
                stats.hist_frac / stats.rest_distinct as f64
            }
        } else {
            return (mcv_mass + hist_mass).clamp(0.0, 1.0);
        };
        (mcv_mass + point_adjust).clamp(0.0, 1.0)
    }
}

impl SelectivityEstimator for Postgres1d {
    fn name(&self) -> &str {
        "Postgres"
    }

    fn estimate(&self, q: &RangeQuery) -> f64 {
        let mut sel = 1.0;
        for (stats, iv) in self.cols.iter().zip(&q.cols) {
            if let Some(iv) = iv {
                if iv.is_full() {
                    continue;
                }
                sel *= Self::column_selectivity(stats, iv);
            }
        }
        sel.clamp(0.0, 1.0)
    }

    fn model_size_bytes(&self) -> usize {
        self.cols.iter().map(|c| (c.mcv.len() * 2 + c.hist_bounds.len() + 2) * 8).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iam_data::column::{CatColumn, ContColumn};
    use iam_data::query::{Op, Predicate, Query};
    use iam_data::{exact_selectivity, Table};

    fn table() -> Table {
        let n = 10_000;
        Table::new(
            "t",
            vec![
                Column::Continuous(ContColumn::new("u", (0..n).map(|i| i as f64).collect())),
                Column::Categorical(CatColumn::from_codes_dense(
                    "c",
                    (0..n).map(|i| (i % 10) as u32).collect(),
                    10,
                )),
            ],
        )
        .unwrap()
    }

    #[test]
    fn single_range_is_accurate() {
        let t = table();
        let pg = Postgres1d::new(&t);
        let q = Query::new(vec![Predicate { col: 0, op: Op::Le, value: 2499.0 }]);
        let (rq, _) = q.normalize(2).unwrap();
        let truth = exact_selectivity(&t, &q);
        assert!((pg.estimate(&rq) - truth).abs() < 0.02, "{} vs {truth}", pg.estimate(&rq));
    }

    #[test]
    fn categorical_equality_uses_mcv() {
        let t = table();
        let pg = Postgres1d::new(&t);
        let q = Query::new(vec![Predicate { col: 1, op: Op::Eq, value: 3.0 }]);
        let (rq, _) = q.normalize(2).unwrap();
        assert!((pg.estimate(&rq) - 0.1).abs() < 0.01);
    }

    #[test]
    fn independence_assumption_multiplies() {
        // perfectly correlated pair: independence underestimates badly
        let n = 1000;
        let vals: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let t = Table::new(
            "corr",
            vec![
                Column::Continuous(ContColumn::new("a", vals.clone())),
                Column::Continuous(ContColumn::new("b", vals)),
            ],
        )
        .unwrap();
        let pg = Postgres1d::new(&t);
        let q = Query::new(vec![
            Predicate { col: 0, op: Op::Le, value: 99.0 },
            Predicate { col: 1, op: Op::Le, value: 99.0 },
        ]);
        let (rq, _) = q.normalize(2).unwrap();
        let truth = exact_selectivity(&t, &q); // 0.1
        let est = pg.estimate(&rq); // ≈ 0.01 under independence
        assert!(est < truth / 5.0, "independence should underestimate: {est} vs {truth}");
    }

    #[test]
    fn unconstrained_is_one() {
        let t = table();
        let pg = Postgres1d::new(&t);
        assert_eq!(pg.estimate(&RangeQuery::unconstrained(2)), 1.0);
    }

    #[test]
    fn model_size_is_small() {
        let t = table();
        let pg = Postgres1d::new(&t);
        assert!(pg.model_size_bytes() < 10_000, "{}", pg.model_size_bytes());
    }
}
