//! JOB-light-style join workload generation (paper §6.1.3).
//!
//! Each query picks a join graph (the hub plus a non-empty subset of
//! dimension tables), draws a witness tuple from the inner-join result and
//! places predicates on columns of the involved tables: `=` with the
//! witness's value on categorical columns, `≤`/`≥` with a uniform value on
//! continuous columns.

use crate::star::{LocalRanges, StarSchema};
use iam_data::column::Column;
use iam_data::query::{Interval, Op};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A join query over a [`StarSchema`].
#[derive(Debug, Clone, PartialEq)]
pub struct JoinQuery {
    /// Which dimension tables participate in the join graph.
    pub join_dims: Vec<bool>,
    /// Local predicates on the hub, one slot per hub column.
    pub hub: LocalRanges,
    /// Local predicates per dimension table.
    pub dims: Vec<LocalRanges>,
}

impl JoinQuery {
    /// Number of predicates across all tables.
    pub fn num_predicates(&self) -> usize {
        self.hub.iter().filter(|p| p.is_some()).count()
            + self.dims.iter().map(|d| d.iter().filter(|p| p.is_some()).count()).sum::<usize>()
    }
}

/// Seeded generator of join queries.
pub struct JoinWorkloadGenerator<'s> {
    star: &'s StarSchema,
    rng: StdRng,
    /// Movies that have at least one row in each dimension (per dim).
    bounds: Vec<Vec<Option<(f64, f64)>>>, // [table][col] continuous bounds
}

impl<'s> JoinWorkloadGenerator<'s> {
    /// Build for a schema.
    pub fn new(star: &'s StarSchema, seed: u64) -> Self {
        let col_bounds = |t: &iam_data::Table| -> Vec<Option<(f64, f64)>> {
            t.columns
                .iter()
                .map(|c| match c {
                    Column::Continuous(cc) => cc.min().zip(cc.max()),
                    Column::Categorical(_) => None,
                })
                .collect()
        };
        let mut bounds = vec![col_bounds(&star.hub)];
        bounds.extend(star.dims.iter().map(|d| col_bounds(&d.table)));
        JoinWorkloadGenerator { star, rng: StdRng::seed_from_u64(seed), bounds }
    }

    /// Generate one query with `min_preds..=max_preds` predicates.
    pub(crate) fn gen_query_with(&mut self, min_preds: usize, max_preds: usize) -> JoinQuery {
        let ndims = self.star.dims.len();
        loop {
            // join graph: non-empty subset of dims
            let mut join_dims = vec![false; ndims];
            let count = self.rng.random_range(1..=ndims);
            let mut ids: Vec<usize> = (0..ndims).collect();
            for i in 0..count {
                let j = self.rng.random_range(i..ndims);
                ids.swap(i, j);
            }
            for &d in &ids[..count] {
                join_dims[d] = true;
            }

            // witness movie: has rows in every joined dim
            let Some(movie) = self.pick_witness(&join_dims) else { continue };

            // witness rows per joined dim
            let witness_rows: Vec<Option<u32>> = self
                .star
                .dims
                .iter()
                .enumerate()
                .map(|(t, d)| {
                    if join_dims[t] {
                        let rows = &d.rows_of[movie];
                        Some(rows[self.rng.random_range(0..rows.len())])
                    } else {
                        None
                    }
                })
                .collect();

            // candidate predicate sites: (table option, col)
            let mut sites: Vec<(Option<usize>, usize)> =
                (0..self.star.hub.ncols()).map(|c| (None, c)).collect();
            for (t, &joined) in join_dims.iter().enumerate() {
                if joined {
                    for c in 0..self.star.dims[t].table.ncols() {
                        sites.push((Some(t), c));
                    }
                }
            }
            let k = self.rng.random_range(min_preds.min(sites.len())..=max_preds.min(sites.len()));
            for i in 0..k {
                let j = self.rng.random_range(i..sites.len());
                sites.swap(i, j);
            }

            let mut hub: LocalRanges = vec![None; self.star.hub.ncols()];
            let mut dims: Vec<LocalRanges> =
                self.star.dims.iter().map(|d| vec![None; d.table.ncols()]).collect();
            for &(table, col) in &sites[..k] {
                let iv = self.gen_interval(table, col, movie, &witness_rows);
                match table {
                    None => hub[col] = Some(iv),
                    Some(t) => dims[t][col] = Some(iv),
                }
            }
            return JoinQuery { join_dims, hub, dims };
        }
    }

    /// Generate one query with the paper's 2–6 predicates (scaled-down
    /// version of JOB-light's 5–11 over a smaller schema).
    pub fn gen_query(&mut self) -> JoinQuery {
        self.gen_query_with(2, 6)
    }

    /// Generate a batch.
    pub fn gen_queries(&mut self, n: usize) -> Vec<JoinQuery> {
        (0..n).map(|_| self.gen_query()).collect()
    }

    fn pick_witness(&mut self, join_dims: &[bool]) -> Option<usize> {
        let n = self.star.hub.nrows();
        for _ in 0..64 {
            let m = self.rng.random_range(0..n);
            if join_dims
                .iter()
                .enumerate()
                .all(|(t, &j)| !j || !self.star.dims[t].rows_of[m].is_empty())
            {
                return Some(m);
            }
        }
        None
    }

    fn gen_interval(
        &mut self,
        table: Option<usize>,
        col: usize,
        movie: usize,
        witness_rows: &[Option<u32>],
    ) -> Interval {
        let (tbl, row): (&iam_data::Table, usize) = match table {
            None => (&self.star.hub, movie),
            Some(t) => (
                &self.star.dims[t].table,
                witness_rows[t].expect("joined dim has witness") as usize,
            ),
        };
        let bidx = table.map_or(0, |t| t + 1);
        match &tbl.columns[col] {
            Column::Categorical(_) => {
                // point predicate with the witness's value
                Interval::point(tbl.columns[col].value_as_f64(row))
            }
            Column::Continuous(_) => {
                // JOB-light style: the operator is anchored at the witness's
                // own value, so the witness (hence the query) always matches
                let _ = self.bounds[bidx][col];
                let v = tbl.columns[col].value_as_f64(row);
                if self.rng.random_range(0..2u8) == 0 {
                    Interval::from_op(Op::Le, v)
                } else {
                    Interval::from_op(Op::Ge, v)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::imdb::{synthetic_imdb, ImdbConfig};

    #[test]
    fn generates_valid_queries() {
        let star = synthetic_imdb(&ImdbConfig { movies: 500, seed: 1 });
        let mut gen = JoinWorkloadGenerator::new(&star, 2);
        for q in gen.gen_queries(50) {
            assert!(q.join_dims.iter().any(|&j| j), "at least one joined dim");
            let k = q.num_predicates();
            assert!((2..=6).contains(&k), "{k} predicates");
            // predicates only on joined tables
            for (t, ranges) in q.dims.iter().enumerate() {
                if !q.join_dims[t] {
                    assert!(ranges.iter().all(|r| r.is_none()));
                }
            }
        }
    }

    #[test]
    fn witness_makes_most_queries_nonempty() {
        let star = synthetic_imdb(&ImdbConfig { movies: 500, seed: 3 });
        let mut gen = JoinWorkloadGenerator::new(&star, 4);
        let queries = gen.gen_queries(40);
        let nonempty =
            queries.iter().filter(|q| star.exact_card(&q.join_dims, &q.hub, &q.dims) > 0.0).count();
        assert!(nonempty >= 30, "{nonempty}/40 nonempty");
    }

    #[test]
    fn deterministic_per_seed() {
        let star = synthetic_imdb(&ImdbConfig { movies: 300, seed: 5 });
        let a = JoinWorkloadGenerator::new(&star, 7).gen_queries(10);
        let b = JoinWorkloadGenerator::new(&star, 7).gen_queries(10);
        assert_eq!(a, b);
    }
}
