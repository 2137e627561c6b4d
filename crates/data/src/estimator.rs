//! The estimator abstraction every method in the evaluation implements.

use crate::query::{Op, Predicate, Query, RangeQuery};

/// A single-table selectivity estimator.
///
/// Implementations answer normalised [`RangeQuery`]s; `Ne` predicates and
/// disjunctions are layered on top by [`EstimatorHarness`] via
/// inclusion–exclusion, as described in the paper (§2.1).
pub trait SelectivityEstimator {
    /// Human-readable name used in result tables.
    fn name(&self) -> &str;

    /// Estimated selectivity in `[0, 1]` for a conjunctive range query.
    fn estimate(&self, q: &RangeQuery) -> f64;

    /// In-memory footprint of the trained model in bytes (Table 6/12).
    fn model_size_bytes(&self) -> usize {
        0
    }
}

/// Helpers layered over any [`SelectivityEstimator`]: predicate queries with
/// `Ne`, and disjunctions via inclusion–exclusion.
pub struct EstimatorHarness;

impl EstimatorHarness {
    /// Estimate a predicate [`Query`], rewriting `Ne` conjuncts as
    /// `sel(rest) − sel(A=v ∧ rest)` recursively.
    pub fn estimate_query<E: SelectivityEstimator + ?Sized>(
        est: &E,
        q: &Query,
        ncols: usize,
    ) -> f64 {
        let (rq, nes) = match q.normalize(ncols) {
            Ok(v) => v,
            Err(_) => return 0.0,
        };
        Self::estimate_with_nes(est, rq, &nes)
    }

    fn estimate_with_nes<E: SelectivityEstimator + ?Sized>(
        est: &E,
        rq: RangeQuery,
        nes: &[Predicate],
    ) -> f64 {
        match nes.split_first() {
            None => {
                if rq.cols.iter().flatten().any(|iv| iv.is_empty()) {
                    return 0.0;
                }
                est.estimate(&rq).clamp(0.0, 1.0)
            }
            Some((ne, rest)) => {
                debug_assert_eq!(ne.op, Op::Ne);
                // sel(rest ∧ A≠v) = sel(rest) − sel(rest ∧ A=v)
                let without = Self::estimate_with_nes(est, rq.clone(), rest);
                let mut with_eq = rq;
                let point = crate::query::Interval::point(ne.value);
                with_eq.cols[ne.col] = Some(match with_eq.cols[ne.col] {
                    Some(prev) => prev.intersect(&point),
                    None => point,
                });
                let eq = Self::estimate_with_nes(est, with_eq, rest);
                (without - eq).max(0.0)
            }
        }
    }

    /// Estimate a disjunction of conjunctive queries via inclusion–exclusion:
    /// `sel(q1 ∨ q2) = sel(q1) + sel(q2) − sel(q1 ∧ q2)` generalised to any
    /// number of disjuncts. Exponential in the number of disjuncts, which is
    /// fine for the small disjunctions the paper targets.
    pub fn estimate_disjunction<E: SelectivityEstimator + ?Sized>(
        est: &E,
        disjuncts: &[Query],
        ncols: usize,
    ) -> f64 {
        let n = disjuncts.len();
        if n == 0 {
            return 0.0;
        }
        assert!(n <= 20, "inclusion-exclusion over >20 disjuncts is intractable");
        let mut total = 0.0;
        for mask in 1u32..(1 << n) {
            let mut merged = Query::default();
            for (i, d) in disjuncts.iter().enumerate() {
                if mask >> i & 1 == 1 {
                    merged.predicates.extend_from_slice(&d.predicates);
                }
            }
            let sel = Self::estimate_query(est, &merged, ncols);
            if mask.count_ones() % 2 == 1 {
                total += sel;
            } else {
                total -= sel;
            }
        }
        total.clamp(0.0, 1.0)
    }
}

/// An oracle estimator answering from the table itself — useful for testing
/// harness algebra and as the "true cardinalities" arm of the end-to-end
/// experiment (Fig. 5).
pub struct ExactOracle {
    table: crate::table::Table,
}

impl ExactOracle {
    /// Wrap a table.
    pub fn new(table: crate::table::Table) -> Self {
        ExactOracle { table }
    }
}

impl SelectivityEstimator for ExactOracle {
    fn name(&self) -> &str {
        "exact"
    }

    fn estimate(&self, q: &RangeQuery) -> f64 {
        crate::exec::exact_selectivity_ranges(&self.table, q)
    }

    fn model_size_bytes(&self) -> usize {
        // The oracle "model" is the data itself.
        self.table.columns.iter().map(|c| c.len() * 8).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::{Column, ContColumn};
    use crate::exec::exact_selectivity;
    use crate::query::{Op, Predicate};
    use crate::table::Table;

    fn table() -> Table {
        Table::new(
            "t",
            vec![Column::Continuous(ContColumn::new("x", (0..10).map(|i| i as f64).collect()))],
        )
        .unwrap()
    }

    #[test]
    fn ne_rewrite_matches_exact() {
        let t = table();
        let q = Query::new(vec![
            Predicate { col: 0, op: Op::Ne, value: 3.0 },
            Predicate { col: 0, op: Op::Le, value: 5.0 },
        ]);
        let truth = exact_selectivity(&t, &q);
        let oracle = ExactOracle::new(t);
        let est = EstimatorHarness::estimate_query(&oracle, &q, 1);
        assert!((est - truth).abs() < 1e-12, "{est} vs {truth}");
    }

    #[test]
    fn multiple_ne_rewrites() {
        let t = table();
        let q = Query::new(vec![
            Predicate { col: 0, op: Op::Ne, value: 3.0 },
            Predicate { col: 0, op: Op::Ne, value: 7.0 },
        ]);
        let truth = exact_selectivity(&t, &q);
        let oracle = ExactOracle::new(t);
        let est = EstimatorHarness::estimate_query(&oracle, &q, 1);
        assert!((est - truth).abs() < 1e-12);
    }

    #[test]
    fn disjunction_inclusion_exclusion() {
        let t = table();
        // x <= 2 OR x >= 8  -> 5/10
        let q1 = Query::new(vec![Predicate { col: 0, op: Op::Le, value: 2.0 }]);
        let q2 = Query::new(vec![Predicate { col: 0, op: Op::Ge, value: 8.0 }]);
        let oracle = ExactOracle::new(t);
        let est = EstimatorHarness::estimate_disjunction(&oracle, &[q1, q2], 1);
        assert!((est - 0.5).abs() < 1e-12);
    }

    #[test]
    fn overlapping_disjunction() {
        let t = table();
        // x <= 5 OR x >= 3 -> everything
        let q1 = Query::new(vec![Predicate { col: 0, op: Op::Le, value: 5.0 }]);
        let q2 = Query::new(vec![Predicate { col: 0, op: Op::Ge, value: 3.0 }]);
        let oracle = ExactOracle::new(t);
        let est = EstimatorHarness::estimate_disjunction(&oracle, &[q1, q2], 1);
        assert!((est - 1.0).abs() < 1e-12);
    }

    #[test]
    fn contradictory_range_is_zero() {
        let t = table();
        let q = Query::new(vec![
            Predicate { col: 0, op: Op::Gt, value: 5.0 },
            Predicate { col: 0, op: Op::Lt, value: 5.0 },
        ]);
        let oracle = ExactOracle::new(t);
        assert_eq!(EstimatorHarness::estimate_query(&oracle, &q, 1), 0.0);
    }
}
