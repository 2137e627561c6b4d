//! Random query workload generation following the paper (§6.1.3).
//!
//! For each query we draw a subset of attributes; a categorical attribute
//! gets a uniformly drawn domain value and an operator from `{=, ≤, ≥}`; a
//! continuous attribute gets a uniform value between its minimum and
//! maximum and an operator from `{≤, ≥}`.

use crate::column::Column;
use crate::query::{Op, Predicate, Query};
use crate::table::Table;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Configuration for the workload generator.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Minimum number of predicates per query (≥ 1).
    ///
    /// Ledger: benchmark/src/setup.rs
    pub min_predicates: usize,
    /// Maximum number of predicates per query (≤ number of columns).
    ///
    /// Ledger: benchmark/src/setup.rs
    pub max_predicates: usize,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig { min_predicates: 1, max_predicates: usize::MAX }
    }
}

/// Seeded random query generator over one table.
pub struct WorkloadGenerator<'t> {
    table: &'t Table,
    cfg: WorkloadConfig,
    rng: StdRng,
    /// Cached (min, max) per continuous column.
    cont_bounds: Vec<Option<(f64, f64)>>,
}

impl<'t> WorkloadGenerator<'t> {
    /// Build a generator for `table` with the given config and seed.
    pub fn new(table: &'t Table, cfg: WorkloadConfig, seed: u64) -> Self {
        let cont_bounds = table
            .columns
            .iter()
            .map(|c| match c {
                Column::Continuous(cc) => cc.min().zip(cc.max()),
                Column::Categorical(_) => None,
            })
            .collect();
        WorkloadGenerator { table, cfg, rng: StdRng::seed_from_u64(seed), cont_bounds }
    }

    /// Generate one random conjunctive query.
    pub fn gen_query(&mut self) -> Query {
        let ncols = self.table.ncols();
        let max_p = self.cfg.max_predicates.min(ncols).max(1);
        let min_p = self.cfg.min_predicates.clamp(1, max_p);
        let k = self.rng.random_range(min_p..=max_p);
        // choose k distinct columns by partial Fisher-Yates
        let mut cols: Vec<usize> = (0..ncols).collect();
        for i in 0..k {
            let j = self.rng.random_range(i..ncols);
            cols.swap(i, j);
        }
        let mut predicates = Vec::with_capacity(k);
        for &col in &cols[..k] {
            predicates.push(self.gen_predicate(col));
        }
        Query::new(predicates)
    }

    fn gen_predicate(&mut self, col: usize) -> Predicate {
        match &self.table.columns[col] {
            Column::Categorical(c) => {
                let value = self.rng.random_range(0..c.domain_size() as u32) as f64;
                // `=` on categorical attributes too, as the paper's workloads
                let op = match self.rng.random_range(0..3u8) {
                    0 => Op::Eq,
                    1 => Op::Le,
                    _ => Op::Ge,
                };
                Predicate { col, op, value }
            }
            Column::Continuous(_) => {
                let (lo, hi) = self.cont_bounds[col].unwrap_or((0.0, 1.0));
                let value = lo + self.rng.random::<f64>() * (hi - lo);
                let op = if self.rng.random_range(0..2u8) == 0 { Op::Le } else { Op::Ge };
                Predicate { col, op, value }
            }
        }
    }

    /// Generate a batch of queries.
    pub fn gen_queries(&mut self, n: usize) -> Vec<Query> {
        (0..n).map(|_| self.gen_query()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::{CatColumn, ContColumn};

    fn table() -> Table {
        Table::new(
            "t",
            vec![
                Column::Categorical(CatColumn::from_codes_dense(
                    "c",
                    (0..100u32).map(|i| i % 7).collect(),
                    7,
                )),
                Column::Continuous(ContColumn::new("x", (0..100).map(|i| i as f64).collect())),
            ],
        )
        .unwrap()
    }

    #[test]
    fn deterministic_per_seed() {
        let t = table();
        let q1 = WorkloadGenerator::new(&t, WorkloadConfig::default(), 7).gen_queries(10);
        let q2 = WorkloadGenerator::new(&t, WorkloadConfig::default(), 7).gen_queries(10);
        assert_eq!(q1, q2);
        let q3 = WorkloadGenerator::new(&t, WorkloadConfig::default(), 8).gen_queries(10);
        assert_ne!(q1, q3);
    }

    #[test]
    fn predicate_count_respects_config() {
        let t = table();
        let cfg = WorkloadConfig { min_predicates: 2, max_predicates: 2 };
        let mut g = WorkloadGenerator::new(&t, cfg, 1);
        for q in g.gen_queries(50) {
            assert_eq!(q.predicates.len(), 2);
            // distinct columns
            assert_ne!(q.predicates[0].col, q.predicates[1].col);
        }
    }

    #[test]
    fn continuous_ops_are_range_only() {
        let t = table();
        let mut g = WorkloadGenerator::new(&t, WorkloadConfig::default(), 3);
        for q in g.gen_queries(200) {
            for p in &q.predicates {
                if t.columns[p.col].is_continuous() {
                    assert!(matches!(p.op, Op::Le | Op::Ge));
                    assert!((0.0..=99.0).contains(&p.value));
                } else {
                    assert!(matches!(p.op, Op::Eq | Op::Le | Op::Ge));
                    assert!((0.0..7.0).contains(&p.value));
                }
            }
        }
    }
}
