//! Left-deep hash-join pipeline executor over the star schema.
//!
//! Per plan step the executor filters the next table (scan), builds its
//! per-movie row multiset and probes it with the running intermediate
//! result. Intermediate tuples are materialised (one entry per joined
//! tuple), so execution time genuinely scales with the intermediate
//! cardinalities a bad join order inflates — the effect Figure 5 measures.

use crate::optimizer::{Plan, TableRef};
use iam_join::star::StarSchema;
use iam_join::workload::JoinQuery;
use std::time::Instant;

/// Outcome of executing one plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecReport {
    /// Final join cardinality.
    pub card: u64,
    /// Total intermediate tuples materialised (work proxy).
    pub intermediate_tuples: u64,
    /// Wall-clock seconds.
    pub seconds: f64,
}

/// Execute `plan` for `q` over `star`.
pub fn execute(star: &StarSchema, q: &JoinQuery, plan: &Plan) -> ExecReport {
    let started = Instant::now();
    let nmovies = star.hub.nrows();
    let mut intermediate_tuples = 0u64;

    // the running intermediate: one movie id per joined tuple
    let mut current: Option<Vec<u32>> = None;

    for &step in &plan.order {
        // per-movie multiplicity of the filtered step table
        let mult: Vec<u32> = match step {
            TableRef::Hub => {
                let mut m = vec![0u32; nmovies];
                'rows: for (r, slot) in m.iter_mut().enumerate() {
                    for (ci, iv) in q.hub.iter().enumerate() {
                        if let Some(iv) = iv {
                            if !iv.contains(star.hub.columns[ci].value_as_f64(r)) {
                                continue 'rows;
                            }
                        }
                    }
                    *slot = 1;
                }
                m
            }
            TableRef::Dim(t) => {
                let dim = &star.dims[t];
                let mut m = vec![0u32; nmovies];
                'rows: for r in 0..dim.table.nrows() {
                    for (ci, iv) in q.dims[t].iter().enumerate() {
                        if let Some(iv) = iv {
                            if !iv.contains(dim.table.columns[ci].value_as_f64(r)) {
                                continue 'rows;
                            }
                        }
                    }
                    m[dim.fk[r] as usize] += 1;
                }
                m
            }
        };

        current = Some(match current {
            None => {
                // initial scan materialises the filtered table
                let mut out = Vec::new();
                for (movie, &k) in mult.iter().enumerate() {
                    for _ in 0..k {
                        out.push(movie as u32);
                    }
                }
                out
            }
            Some(inter) => {
                // hash probe: expand each intermediate tuple by the step
                // table's multiplicity for its movie
                let mut out = Vec::new();
                for &movie in &inter {
                    let k = mult[movie as usize];
                    for _ in 0..k {
                        out.push(movie);
                    }
                }
                out
            }
        });
        intermediate_tuples += current.as_ref().map_or(0, |v| v.len()) as u64;
    }

    let card = current.map_or(0, |v| v.len()) as u64;
    ExecReport { card, intermediate_tuples, seconds: started.elapsed().as_secs_f64() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cardinality::ExactCardEstimator;
    use crate::optimizer::optimize;
    use iam_join::flat::exact_card;
    use iam_join::imdb::{synthetic_imdb, ImdbConfig};
    use iam_join::workload::JoinWorkloadGenerator;

    #[test]
    fn execution_count_matches_exact_card() {
        let star = synthetic_imdb(&ImdbConfig { movies: 500, seed: 1 });
        let mut gen = JoinWorkloadGenerator::new(&star, 2);
        let exact = ExactCardEstimator::new(&star);
        for _ in 0..15 {
            let q = gen.gen_query();
            let plan = optimize(&q, &exact);
            let rep = execute(&star, &q, &plan);
            assert_eq!(rep.card as f64, exact_card(&star, &q), "plan {:?}", plan.order);
        }
    }

    #[test]
    fn any_order_gives_the_same_cardinality() {
        let star = synthetic_imdb(&ImdbConfig { movies: 300, seed: 3 });
        let mut gen = JoinWorkloadGenerator::new(&star, 4);
        let q = gen.gen_query();
        let mut tables = vec![TableRef::Hub];
        for (t, &j) in q.join_dims.iter().enumerate() {
            if j {
                tables.push(TableRef::Dim(t));
            }
        }
        let fwd = Plan { order: tables.clone(), est_cost: 0.0 };
        let mut rev_tables = tables;
        rev_tables.reverse();
        let rev = Plan { order: rev_tables, est_cost: 0.0 };
        let a = execute(&star, &q, &fwd);
        let b = execute(&star, &q, &rev);
        assert_eq!(a.card, b.card);
    }

    #[test]
    fn good_plans_do_less_work() {
        // aggregate over a workload: exact-cost plans should not do more
        // intermediate work than deliberately reversed (anti-optimal) plans
        let star = synthetic_imdb(&ImdbConfig { movies: 800, seed: 5 });
        let mut gen = JoinWorkloadGenerator::new(&star, 6);
        let exact = ExactCardEstimator::new(&star);
        let mut good = 0u64;
        let mut bad = 0u64;
        for _ in 0..25 {
            let q = gen.gen_query();
            let plan = optimize(&q, &exact);
            let mut worst = plan.clone();
            worst.order.reverse();
            good += execute(&star, &q, &plan).intermediate_tuples;
            bad += execute(&star, &q, &worst).intermediate_tuples;
        }
        assert!(good <= bad, "good {good} vs reversed {bad}");
    }
}
