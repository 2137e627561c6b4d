//! Pluggable sub-query cardinality estimation for the optimizer.

use iam_data::SelectivityEstimator;
use iam_join::flat::FlatSchema;
use iam_join::star::StarSchema;
use iam_join::workload::JoinQuery;

/// Estimates the cardinality of a *sub-join* of a query: the hub (optional)
/// plus a subset of its joined dimension tables, with each included table's
/// local predicates applied.
pub trait JoinCardEstimator {
    /// Display name.
    fn name(&self) -> &str;

    /// Estimated cardinality of the sub-join.
    fn card(&self, q: &JoinQuery, include_hub: bool, dims: &[bool]) -> f64;
}

/// Ground truth (the "true cardinalities" arm of Figure 5).
pub struct ExactCardEstimator<'s> {
    star: &'s StarSchema,
}

impl<'s> ExactCardEstimator<'s> {
    /// Wrap a schema.
    pub fn new(star: &'s StarSchema) -> Self {
        ExactCardEstimator { star }
    }
}

impl JoinCardEstimator for ExactCardEstimator<'_> {
    fn name(&self) -> &str {
        "exact"
    }

    fn card(&self, q: &JoinQuery, include_hub: bool, dims: &[bool]) -> f64 {
        let hub = if include_hub { q.hub.clone() } else { vec![None; q.hub.len()] };
        self.star.exact_card(dims, &hub, &q.dims)
    }
}

/// Any flat-FOJ estimator (IAM, Neurocard-lite, SPN, …) lifted to
/// sub-query cardinalities through the FOJ rewrite. Borrows the estimator,
/// so the fits a table evaluates can also plan.
pub struct FlatCardEstimator<'a> {
    inner: &'a dyn SelectivityEstimator,
    schema: &'a FlatSchema,
}

impl<'a> FlatCardEstimator<'a> {
    /// Wrap a flat-table estimator.
    pub fn new(inner: &'a dyn SelectivityEstimator, schema: &'a FlatSchema) -> Self {
        FlatCardEstimator { inner, schema }
    }
}

impl JoinCardEstimator for FlatCardEstimator<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn card(&self, q: &JoinQuery, include_hub: bool, dims: &[bool]) -> f64 {
        let mut sub = q.clone();
        sub.join_dims = dims.to_vec();
        if !include_hub {
            sub.hub = vec![None; q.hub.len()];
        }
        // drop predicates of non-included dims
        for (t, &inc) in dims.iter().enumerate() {
            if !inc {
                sub.dims[t] = vec![None; sub.dims[t].len()];
            }
        }
        self.schema.estimate_card(self.inner, &sub)
    }
}

/// Postgres-style independence estimator: per-table filtered cardinalities
/// multiplied under the uniform key-matching assumption
/// `card(S) = Π_t card_t / |hub|^{|S|−1}`.
pub struct IndependenceCardEstimator {
    /// Per-table 1-D statistics: index 0 is the hub, then the dims.
    tables: Vec<iam_estimators::Postgres1d>,
    sizes: Vec<f64>,
    hub_rows: f64,
}

impl IndependenceCardEstimator {
    /// Collect per-table statistics.
    pub fn new(star: &StarSchema) -> Self {
        let mut tables = vec![iam_estimators::Postgres1d::new(&star.hub)];
        let mut sizes = vec![star.hub.nrows() as f64];
        for d in &star.dims {
            tables.push(iam_estimators::Postgres1d::new(&d.table));
            sizes.push(d.table.nrows() as f64);
        }
        IndependenceCardEstimator { tables, sizes, hub_rows: star.hub.nrows() as f64 }
    }

    fn table_card(&self, idx: usize, ranges: &[Option<iam_data::Interval>]) -> f64 {
        let rq = iam_data::RangeQuery { cols: ranges.to_vec() };
        self.tables[idx].estimate(&rq) * self.sizes[idx]
    }
}

impl JoinCardEstimator for IndependenceCardEstimator {
    fn name(&self) -> &str {
        "Postgres"
    }

    fn card(&self, q: &JoinQuery, include_hub: bool, dims: &[bool]) -> f64 {
        let mut card = 1.0f64;
        let mut ntables = 0usize;
        if include_hub {
            card *= self.table_card(0, &q.hub);
            ntables += 1;
        }
        for (t, &inc) in dims.iter().enumerate() {
            if inc {
                card *= self.table_card(t + 1, &q.dims[t]);
                ntables += 1;
            }
        }
        if ntables > 1 {
            card /= self.hub_rows.powi(ntables as i32 - 1);
        }
        card.max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iam_data::estimator::ExactOracle;
    use iam_join::flat::flatten_foj;
    use iam_join::imdb::{synthetic_imdb, ImdbConfig};
    use iam_join::workload::JoinWorkloadGenerator;

    #[test]
    fn exact_estimator_matches_schema() {
        let star = synthetic_imdb(&ImdbConfig { movies: 400, seed: 1 });
        let mut gen = JoinWorkloadGenerator::new(&star, 2);
        let q = gen.gen_query();
        let est = ExactCardEstimator::new(&star);
        let full = est.card(&q, true, &q.join_dims);
        assert_eq!(full, star.exact_card(&q.join_dims, &q.hub, &q.dims));
        // single-table sub-plan ≥ full plan is not guaranteed, but the
        // no-dim hub card equals the number of hub-matching movies
        let hub_only = est.card(&q, true, &vec![false; q.join_dims.len()]);
        assert!(hub_only >= 0.0);
    }

    #[test]
    fn flat_estimator_tracks_exact_on_oracle() {
        let star = synthetic_imdb(&ImdbConfig { movies: 400, seed: 3 });
        let (flat, schema) = flatten_foj(&star, 15_000, 4);
        let exact = ExactCardEstimator::new(&star);
        let oracle = ExactOracle::new(flat);
        let est = FlatCardEstimator::new(&oracle, &schema);
        assert_eq!(est.name(), "exact");
        let mut gen = JoinWorkloadGenerator::new(&star, 5);
        let mut close = 0;
        for _ in 0..20 {
            let q = gen.gen_query();
            let truth = exact.card(&q, true, &q.join_dims);
            let got = est.card(&q, true, &q.join_dims);
            let foj = star.foj_size();
            if truth < foj / 1500.0 {
                close += 1; // below sample resolution
                continue;
            }
            let ratio = (got.max(1.0) / truth.max(1.0)).max(truth.max(1.0) / got.max(1.0));
            if ratio < 3.0 {
                close += 1;
            }
        }
        assert!(close >= 16, "{close}/20");
    }

    #[test]
    fn independence_estimator_is_finite() {
        let star = synthetic_imdb(&ImdbConfig { movies: 400, seed: 6 });
        let est = IndependenceCardEstimator::new(&star);
        let mut gen = JoinWorkloadGenerator::new(&star, 7);
        for _ in 0..20 {
            let q = gen.gen_query();
            let c = est.card(&q, true, &q.join_dims);
            assert!(c.is_finite() && c >= 0.0);
        }
    }
}
