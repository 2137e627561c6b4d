//! Exact selectivity computation by columnar scan — the ground truth.

use crate::column::Column;
use crate::query::{Query, RangeQuery};
use crate::table::Table;

/// The one columnar narrowing loop: dispatch on the column type once, then
/// clear `alive` for every row whose value (categorical codes as `f64`, the
/// shared comparison space) fails `keep` — a branch-free `&=` over the typed
/// slice.
fn narrow(col: &Column, alive: &mut [bool], keep: impl Fn(f64) -> bool) {
    match col {
        Column::Categorical(c) => {
            alive.iter_mut().zip(&c.codes).for_each(|(a, &code)| *a &= keep(code as f64))
        }
        Column::Continuous(c) => alive.iter_mut().zip(&c.values).for_each(|(a, &v)| *a &= keep(v)),
    }
}

/// Count rows of `table` matching the conjunction `q` exactly.
pub fn exact_count(table: &Table, q: &Query) -> usize {
    // start from all-true and narrow per predicate; cheapest-first is
    // unnecessary at our scales
    let mut alive = vec![true; table.nrows()];
    for p in &q.predicates {
        narrow(&table.columns[p.col], &mut alive, |v| p.matches(v));
    }
    alive.iter().filter(|&&a| a).count()
}

/// Exact selectivity `actsel(q) ∈ [0, 1]` of a conjunctive query.
pub fn exact_selectivity(table: &Table, q: &Query) -> f64 {
    if table.nrows() == 0 {
        return 0.0;
    }
    exact_count(table, q) as f64 / table.nrows() as f64
}

/// Exact selectivity of a normalised range query.
pub fn exact_selectivity_ranges(table: &Table, rq: &RangeQuery) -> f64 {
    let n = table.nrows();
    if n == 0 {
        return 0.0;
    }
    let mut alive = vec![true; n];
    for (ci, iv) in rq.cols.iter().enumerate() {
        if let Some(iv) = iv {
            narrow(&table.columns[ci], &mut alive, |v| iv.contains(v));
        }
    }
    alive.iter().filter(|&&a| a).count() as f64 / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::{CatColumn, Column, ContColumn};
    use crate::query::{Interval, Op, Predicate};

    fn toy() -> Table {
        Table::new(
            "t",
            vec![
                Column::Categorical(CatColumn::from_values("c", &["a", "b", "a", "c"])),
                Column::Continuous(ContColumn::new("x", vec![1.0, 2.0, 3.0, 4.0])),
            ],
        )
        .unwrap()
    }

    #[test]
    fn exact_conjunction() {
        let t = toy();
        // c = "a" AND x >= 2   -> row 2 only
        let q = Query::new(vec![
            Predicate { col: 0, op: Op::Eq, value: 0.0 },
            Predicate { col: 1, op: Op::Ge, value: 2.0 },
        ]);
        assert_eq!(exact_count(&t, &q), 1);
        assert!((exact_selectivity(&t, &q) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_query_selects_all() {
        let t = toy();
        assert_eq!(exact_selectivity(&t, &Query::default()), 1.0);
    }

    #[test]
    fn ne_predicate() {
        let t = toy();
        let q = Query::new(vec![Predicate { col: 0, op: Op::Ne, value: 0.0 }]);
        assert_eq!(exact_count(&t, &q), 2);
    }

    #[test]
    fn range_query_matches_predicate_query() {
        let t = toy();
        let q = Query::new(vec![
            Predicate { col: 1, op: Op::Ge, value: 2.0 },
            Predicate { col: 1, op: Op::Lt, value: 4.0 },
        ]);
        let (rq, _) = q.normalize(t.ncols()).unwrap();
        assert_eq!(exact_selectivity(&t, &q), exact_selectivity_ranges(&t, &rq));
        assert_eq!(exact_count(&t, &q), 2);
    }

    #[test]
    fn unconstrained_range_query_is_one() {
        let t = toy();
        let rq = RangeQuery::unconstrained(2);
        assert_eq!(exact_selectivity_ranges(&t, &rq), 1.0);
        let _ = Interval::full(); // silence unused import in some cfgs
    }
}
