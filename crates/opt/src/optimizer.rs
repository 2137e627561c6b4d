//! Selinger-style dynamic programming over left-deep join orders.
//!
//! Cost model: the sum of estimated intermediate-result cardinalities along
//! the pipeline (`C_out`), the standard proxy used when comparing
//! estimators' impact on plan quality.

use crate::cardinality::JoinCardEstimator;
use iam_join::workload::JoinQuery;

/// A table in a plan: the hub or one dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableRef {
    /// The hub (`title`).
    Hub,
    /// Dimension table `t`.
    Dim(usize),
}

/// A left-deep join order with its estimated cost.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Join order, first table scanned first.
    pub order: Vec<TableRef>,
    /// Estimated cost (Σ intermediate cardinalities).
    pub est_cost: f64,
}

/// Enumerate all left-deep orders of the query's tables by subset DP and
/// return the cheapest under `est`.
pub fn optimize(q: &JoinQuery, est: &dyn JoinCardEstimator) -> Plan {
    // participating tables: hub + joined dims
    let mut tables = vec![TableRef::Hub];
    for (t, &j) in q.join_dims.iter().enumerate() {
        if j {
            tables.push(TableRef::Dim(t));
        }
    }
    let n = tables.len();
    assert!(n <= 16, "subset DP caps at 16 tables");
    let full: u32 = (1 << n) - 1;

    // cardinality of a subset
    let mut card_memo: Vec<f64> = vec![f64::NAN; 1 << n];
    let mut card_of = |mask: u32| -> f64 {
        let cached = card_memo[mask as usize];
        if !cached.is_nan() {
            return cached;
        }
        let mut include_hub = false;
        let mut dims = vec![false; q.join_dims.len()];
        for (i, t) in tables.iter().enumerate() {
            if mask >> i & 1 == 1 {
                match t {
                    TableRef::Hub => include_hub = true,
                    TableRef::Dim(d) => dims[*d] = true,
                }
            }
        }
        let c = est.card(q, include_hub, &dims).max(0.0);
        card_memo[mask as usize] = c;
        c
    };

    // DP over subsets: best cost and the last-joined table
    let mut best = vec![(f64::INFINITY, usize::MAX); (full + 1) as usize];
    for i in 0..n {
        let mask = 1u32 << i;
        best[mask as usize] = (card_of(mask), i);
    }
    for mask in 1..=full {
        if mask.count_ones() < 2 {
            continue;
        }
        let join_card = card_of(mask);
        for i in 0..n {
            if mask >> i & 1 == 0 {
                continue;
            }
            let prev = mask & !(1 << i);
            let (prev_cost, _) = best[prev as usize];
            let cost = prev_cost + join_card;
            if cost < best[mask as usize].0 {
                best[mask as usize] = (cost, i);
            }
        }
    }

    // reconstruct order
    let mut order_rev = Vec::with_capacity(n);
    let mut mask = full;
    while mask != 0 {
        let (_, last) = best[mask as usize];
        order_rev.push(tables[last]);
        mask &= !(1 << last);
    }
    order_rev.reverse();
    Plan { order: order_rev, est_cost: best[full as usize].0 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iam_data::Interval;
    use iam_join::star::LocalRanges;

    /// `f(include_hub, dims)` → cardinality.
    type ScriptFn = Box<dyn Fn(bool, &[bool]) -> f64>;

    /// A scripted estimator for deterministic plan tests.
    struct Scripted {
        f: ScriptFn,
    }

    impl JoinCardEstimator for Scripted {
        fn name(&self) -> &str {
            "scripted"
        }
        fn card(&self, _q: &JoinQuery, include_hub: bool, dims: &[bool]) -> f64 {
            (self.f)(include_hub, dims)
        }
    }

    fn query(ndims: usize, joined: &[usize]) -> JoinQuery {
        let mut join_dims = vec![false; ndims];
        for &d in joined {
            join_dims[d] = true;
        }
        JoinQuery {
            join_dims,
            hub: vec![Some(Interval::full())] as LocalRanges,
            dims: vec![vec![None]; ndims],
        }
    }

    #[test]
    fn picks_the_selective_table_first() {
        // dim0 is very selective (card 10), dim1 huge (card 10_000);
        // hub card 1000; full join 50. A good plan joins small things first.
        let q = query(2, &[0, 1]);
        let est = Scripted {
            f: Box::new(|hub, dims| {
                let key = (hub, dims[0], dims[1]);
                match key {
                    (true, false, false) => 1000.0,
                    (false, true, false) => 10.0,
                    (false, false, true) => 10_000.0,
                    (true, true, false) => 20.0,
                    (true, false, true) => 9000.0,
                    (false, true, true) => 60.0,
                    (true, true, true) => 50.0,
                    _ => 1.0,
                }
            }),
        };
        let plan = optimize(&q, &est);
        assert_eq!(plan.order.len(), 3);
        // the expensive dim1 must come last
        assert_eq!(*plan.order.last().unwrap(), TableRef::Dim(1));
        // cost = card(first) + card(first two) + card(all)
        assert!((plan.est_cost - (10.0 + 20.0 + 50.0)).abs() < 1e-9);
    }

    #[test]
    fn bad_estimates_produce_a_different_plan() {
        let q = query(2, &[0, 1]);
        // an estimator that thinks dim1 is tiny
        let bad = Scripted {
            f: Box::new(|hub, dims| match (hub, dims[0], dims[1]) {
                (true, false, false) => 1000.0,
                (false, true, false) => 10_000.0, // wrongly huge
                (false, false, true) => 10.0,     // wrongly tiny
                (true, true, false) => 20.0,
                (true, false, true) => 9000.0,
                (false, true, true) => 60.0,
                (true, true, true) => 50.0,
                _ => 1.0,
            }),
        };
        let plan = optimize(&q, &bad);
        assert_eq!(plan.order[0], TableRef::Dim(1));
    }

    #[test]
    fn single_join_still_plans() {
        let q = query(3, &[2]);
        let est = Scripted { f: Box::new(|_, _| 5.0) };
        let plan = optimize(&q, &est);
        assert_eq!(plan.order.len(), 2);
        assert!(plan.order.contains(&TableRef::Hub));
        assert!(plan.order.contains(&TableRef::Dim(2)));
    }
}
