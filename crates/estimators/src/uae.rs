//! UAE-lite and UAE-Q-lite: autoregressive models that also learn from
//! queries.
//!
//! The original UAE differentiates through progressive sampling to train an
//! AR model on query feedback. Reproducing that gradient path is out of
//! scope for a manual-backprop stack, so we use the substitution documented
//! in DESIGN.md: training queries are converted into *query-derived tuples*
//! — each training query contributes tuples drawn uniformly from its
//! region, in proportion to its true selectivity — and an AR model (the
//! same ResMADE/factorisation stack as Neurocard) is trained on:
//!
//! * **UAE-lite**: the real data *plus* the query-derived tuples (learning
//!   from both signals);
//! * **UAE-Q-lite**: the query-derived tuples only (query-only learning).
//!
//! This preserves the qualitative behaviour the paper reports: UAE tracks
//! Neurocard closely, UAE-Q inherits the workload's blind spots (skewed
//! data, tail queries).

use iam_core::{neurocard_lite, IamConfig, IamEstimator};
use iam_data::column::{CatColumn, Column, ContColumn};
use iam_data::{RangeQuery, Table};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Draw `total` query-derived tuples: query `q` contributes
/// `∝ max(sel_q, floor)` tuples sampled uniformly from its region; columns
/// the query leaves unconstrained are filled from a random data row (UAE
/// has data access) or uniformly over the column bounds (`data_access =
/// false`, UAE-Q).
fn query_tuples(
    table: &Table,
    training: &[(RangeQuery, f64)],
    total: usize,
    data_access: bool,
    seed: u64,
) -> Table {
    let ncols = table.ncols();
    let n = table.nrows();
    let mut rng = StdRng::seed_from_u64(seed);

    // per-column bounds (uniform fill for UAE-Q)
    let bounds: Vec<(f64, f64)> = table
        .columns
        .iter()
        .map(|c| {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for r in 0..c.len() {
                let v = c.value_as_f64(r);
                lo = lo.min(v);
                hi = hi.max(v);
            }
            (lo, hi.max(lo))
        })
        .collect();

    let weight_sum: f64 = training.iter().map(|&(_, s)| s.max(1.0 / n as f64)).sum();
    let mut cols: Vec<Vec<f64>> = vec![Vec::with_capacity(total); ncols];
    let mut row = Vec::new();
    for (q, sel) in training {
        let share = sel.max(1.0 / n as f64) / weight_sum;
        let count = ((total as f64 * share).round() as usize).max(1);
        for _ in 0..count {
            if data_access {
                table.row_as_f64(rng.random_range(0..n), &mut row);
            } else {
                row.clear();
                row.extend(bounds.iter().map(|&(lo, hi)| lo + rng.random::<f64>() * (hi - lo)));
            }
            for (d, iv) in q.cols.iter().enumerate() {
                if let Some(iv) = iv {
                    let lo = iv.lo.max(bounds[d].0);
                    let hi = iv.hi.min(bounds[d].1);
                    if hi >= lo {
                        row[d] = lo + rng.random::<f64>() * (hi - lo);
                        // snap categorical codes to integers
                        if matches!(table.columns[d], Column::Categorical(_)) {
                            row[d] = row[d].round().clamp(bounds[d].0, bounds[d].1);
                        }
                    }
                }
            }
            for (d, col) in cols.iter_mut().enumerate() {
                col.push(row[d]);
            }
        }
    }

    // rebuild a table with the same column kinds
    let columns = table
        .columns
        .iter()
        .enumerate()
        .map(|(d, c)| match c {
            Column::Categorical(cc) => Column::Categorical(CatColumn::from_codes(
                cc.name.clone(),
                cols[d].iter().map(|&v| v as u32).collect(),
                cc.dict.clone(),
            )),
            Column::Continuous(cc) => {
                Column::Continuous(ContColumn::new(cc.name.clone(), cols[d].clone()))
            }
        })
        .collect();
    Table::new(format!("{}_qt", table.name), columns).expect("uniform column lengths")
}

/// Append `extra`'s rows to `base` (same schema).
fn concat_tables(base: &Table, extra: &Table) -> Table {
    let columns = base
        .columns
        .iter()
        .zip(&extra.columns)
        .map(|(a, b)| match (a, b) {
            (Column::Categorical(x), Column::Categorical(y)) => {
                let mut codes = x.codes.clone();
                codes.extend_from_slice(&y.codes);
                Column::Categorical(CatColumn::from_codes(x.name.clone(), codes, x.dict.clone()))
            }
            (Column::Continuous(x), Column::Continuous(y)) => {
                let mut values = x.values.clone();
                values.extend_from_slice(&y.values);
                Column::Continuous(ContColumn::new(x.name.clone(), values))
            }
            _ => panic!("schema mismatch"),
        })
        .collect();
    Table::new(base.name.clone(), columns).expect("uniform column lengths")
}

/// Train UAE-lite: AR model over data + query-derived tuples.
pub fn uae_lite(table: &Table, training: &[(RangeQuery, f64)], base: IamConfig) -> IamEstimator {
    let extra = query_tuples(table, training, table.nrows() / 4, true, base.seed ^ 0xAE);
    let augmented = concat_tables(table, &extra);
    let cfg = neurocard_lite(base);
    let mut est = IamEstimator::build_named(&augmented, cfg, Some("UAE"));
    est.train_epochs(&augmented, est.cfg.epochs);
    est
}

/// Train UAE-Q-lite: AR model over query-derived tuples only.
pub fn uae_q_lite(table: &Table, training: &[(RangeQuery, f64)], base: IamConfig) -> IamEstimator {
    let synth =
        query_tuples(table, training, table.nrows().clamp(1000, 50_000), false, base.seed ^ 0xAE0);
    let cfg = neurocard_lite(base);
    let mut est = IamEstimator::build_named(&synth, cfg, Some("UAE-Q"));
    est.train_epochs(&synth, est.cfg.epochs);
    est
}

#[cfg(test)]
mod tests {
    use super::*;
    use iam_data::{exact_selectivity, WorkloadConfig, WorkloadGenerator};

    fn table(n: usize, seed: u64) -> Table {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut a = Vec::new();
        let mut b = Vec::new();
        for _ in 0..n {
            let c: f64 = rng.random::<f64>();
            a.push(c * 100.0);
            b.push(c * 100.0 + rng.random::<f64>() * 5.0);
        }
        Table::new(
            "t",
            vec![
                Column::Continuous(ContColumn::new("a", a)),
                Column::Continuous(ContColumn::new("b", b)),
            ],
        )
        .unwrap()
    }

    fn workload(t: &Table, n: usize, seed: u64) -> Vec<(RangeQuery, f64)> {
        let mut g = WorkloadGenerator::new(t, WorkloadConfig::default(), seed);
        g.gen_queries(n)
            .into_iter()
            .map(|q| (q.normalize(t.ncols()).unwrap().0, exact_selectivity(t, &q)))
            .collect()
    }

    fn quick() -> IamConfig {
        IamConfig {
            epochs: 3,
            hidden: vec![32, 32],
            embed_dim: 8,
            samples: 150,
            factorize_threshold: 256,
            seed: 5,
            ..IamConfig::default()
        }
    }

    #[test]
    fn query_tuples_respect_regions() {
        let t = table(2000, 1);
        let w = workload(&t, 30, 2);
        let synth = query_tuples(&t, &w, 2000, false, 3);
        assert!(synth.nrows() >= 30); // at least one tuple per query
                                      // every tuple lies inside the data bounding box
        let Column::Continuous(a) = &synth.columns[0] else { unreachable!() };
        assert!(a.values.iter().all(|&v| (0.0..=100.0).contains(&v)));
    }

    #[test]
    fn uae_estimates_reasonably() {
        let t = table(4000, 4);
        let w = workload(&t, 150, 5);
        use iam_data::SelectivityEstimator;
        let est = uae_lite(&t, &w, quick());
        assert_eq!(est.name(), "UAE");
        let test = workload(&t, 25, 6);
        let mut errs: Vec<f64> = test
            .iter()
            .map(|(q, truth)| iam_data::q_error(*truth, est.estimate(q), t.nrows()))
            .collect();
        errs.sort_by(f64::total_cmp);
        assert!(errs[errs.len() / 2] < 4.0, "median {}", errs[errs.len() / 2]);
    }

    #[test]
    fn uae_q_builds_without_data_rows() {
        let t = table(2000, 7);
        let w = workload(&t, 60, 8);
        use iam_data::SelectivityEstimator;
        let est = uae_q_lite(&t, &w, quick());
        assert_eq!(est.name(), "UAE-Q");
        let sel = est.estimate(&RangeQuery::unconstrained(2));
        assert!((sel - 1.0).abs() < 1e-9);
    }
}
