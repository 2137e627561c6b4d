//! MSCN-lite: query-driven neural estimator.
//!
//! Queries are featurised as per-column predicate encodings
//! `(constrained?, lo_norm, hi_norm)` plus the hit-fraction of a
//! materialised row sample (the "bitmap" signal of the original MSCN,
//! summarised); an MLP regresses the normalised log-selectivity. Trained on
//! a workload of `(query, true selectivity)` pairs — which is why accuracy
//! collapses in the tail, where training queries rarely land (§6.2).

use iam_data::{RangeQuery, SelectivityEstimator, Table};
use iam_nn::{Adam, AdamConfig, Mlp, MlpConfig, Parameters};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Materialised sample rows for the bitmap feature (paper: 1 K).
const SAMPLE_ROWS: usize = 1000;

/// Hidden widths (paper: two layers of 256).
const HIDDEN: [usize; 2] = [256, 256];

/// Adam learning rate.
const LR: f32 = 1e-3;

/// Configuration for [`MscnLite`].
#[derive(Debug, Clone)]
pub struct MscnConfig {
    /// Training epochs over the workload.
    ///
    /// Ledger: tests/estimator_contract.rs
    pub epochs: usize,
    /// Seed.
    ///
    /// Ledger: crates/bench/src/lib.rs
    pub seed: u64,
}

impl Default for MscnConfig {
    fn default() -> Self {
        MscnConfig { epochs: 60, seed: 42 }
    }
}

/// The MSCN-lite estimator.
pub struct MscnLite {
    mlp: Mlp,
    /// Row-major materialised sample.
    sample: Vec<f64>,
    nsample: usize,
    ncols: usize,
    /// Per-column (min, max) for feature normalisation.
    bounds: Vec<(f64, f64)>,
    /// `ln(1/|T|)` — the log-selectivity floor used for target scaling.
    log_floor: f64,
}

impl MscnLite {
    /// Train on a `(query, true-selectivity)` workload.
    pub fn fit(table: &Table, training: &[(RangeQuery, f64)], cfg: MscnConfig) -> Self {
        let ncols = table.ncols();
        let n = table.nrows().max(2);
        let mut rng = StdRng::seed_from_u64(cfg.seed);

        // per-column bounds
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
                (lo, hi.max(lo + 1e-12))
            })
            .collect();

        // materialised sample
        let m = SAMPLE_ROWS.min(table.nrows()).max(1);
        let mut ids: Vec<usize> = (0..table.nrows()).collect();
        for i in 0..m {
            let j = rng.random_range(i..table.nrows());
            ids.swap(i, j);
        }
        let mut sample = Vec::with_capacity(m * ncols);
        let mut row = Vec::new();
        for &r in &ids[..m] {
            table.row_as_f64(r, &mut row);
            sample.extend_from_slice(&row);
        }

        let log_floor = (1.0 / n as f64).ln();
        let mut est = MscnLite {
            mlp: Mlp::new(&MlpConfig {
                in_dim: 3 * ncols + 1,
                hidden: HIDDEN.to_vec(),
                seed: cfg.seed,
            }),
            sample,
            nsample: m,
            ncols,
            bounds,
            log_floor,
        };

        // training matrix
        let mut xs = Vec::with_capacity(training.len() * (3 * ncols + 1));
        let mut ys = Vec::with_capacity(training.len());
        let mut feat = Vec::new();
        for (q, sel) in training {
            est.featurize(q, &mut feat);
            xs.extend_from_slice(&feat);
            ys.push(est.target_of(*sel));
        }
        let mut opt = Adam::new(AdamConfig { lr: LR });
        let bs = 128.min(training.len().max(1));
        let fw = 3 * ncols + 1;
        for _ in 0..cfg.epochs {
            for (bx, by) in xs.chunks(bs * fw).zip(ys.chunks(bs)) {
                est.mlp.train_batch(bx, by, by.len());
                opt.step(&mut est.mlp);
            }
        }
        est
    }

    fn target_of(&self, sel: f64) -> f32 {
        // map log-selectivity to [0, 1]: 0 ↔ floor (1/|T|), 1 ↔ sel = 1
        let ls = sel.max(self.log_floor.exp()).ln();
        (1.0 - ls / self.log_floor) as f32
    }

    fn sel_of(&self, target: f32) -> f64 {
        let t = (target as f64).clamp(0.0, 1.0);
        ((1.0 - t) * self.log_floor).exp()
    }

    fn featurize(&self, q: &RangeQuery, out: &mut Vec<f32>) {
        out.clear();
        for (d, iv) in q.cols.iter().enumerate() {
            let (lo, hi) = self.bounds[d];
            let span = hi - lo;
            match iv {
                None => out.extend([0.0, 0.0, 1.0]),
                Some(iv) => {
                    let a = ((iv.lo.max(lo) - lo) / span).clamp(0.0, 1.0) as f32;
                    let b = ((iv.hi.min(hi) - lo) / span).clamp(0.0, 1.0) as f32;
                    out.extend([1.0, a, b]);
                }
            }
        }
        // bitmap summary: fraction of the materialised sample hit
        let mut hits = 0usize;
        for row in self.sample.chunks_exact(self.ncols) {
            if q.matches_row(row) {
                hits += 1;
            }
        }
        out.push(hits as f32 / self.nsample as f32);
    }
}

impl SelectivityEstimator for MscnLite {
    fn name(&self) -> &str {
        "MSCN"
    }

    fn estimate(&self, q: &RangeQuery) -> f64 {
        let mut feat = Vec::new();
        self.featurize(q, &mut feat);
        let mut out = Vec::new();
        self.mlp.predict(&feat, 1, &mut out);
        self.sel_of(out[0])
    }

    fn model_size_bytes(&self) -> usize {
        let mut mlp = self.mlp.clone();
        mlp.num_params() * 4 + self.sample.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iam_data::column::{Column, ContColumn};
    use iam_data::{exact_selectivity, Table, WorkloadConfig, WorkloadGenerator};

    fn table(n: usize) -> Table {
        Table::new(
            "t",
            vec![
                Column::Continuous(ContColumn::new("a", (0..n).map(|i| i as f64).collect())),
                Column::Continuous(ContColumn::new(
                    "b",
                    (0..n).map(|i| ((i * 31) % n) as f64).collect(),
                )),
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

    #[test]
    fn learns_the_workload_distribution() {
        let t = table(10_000);
        let train = workload(&t, 400, 1);
        let m = MscnLite::fit(&t, &train, MscnConfig { epochs: 40, ..Default::default() });
        let test = workload(&t, 60, 2);
        let mut errs: Vec<f64> = test
            .iter()
            .map(|(q, truth)| iam_data::q_error(*truth, m.estimate(q), t.nrows()))
            .collect();
        errs.sort_by(f64::total_cmp);
        let median = errs[errs.len() / 2];
        assert!(median < 2.5, "median q-error {median}");
    }

    #[test]
    fn target_scaling_round_trips() {
        let t = table(1000);
        let m =
            MscnLite::fit(&t, &workload(&t, 20, 3), MscnConfig { epochs: 1, ..Default::default() });
        for sel in [1.0, 0.1, 0.001, 1.0 / 1000.0] {
            let rt = m.sel_of(m.target_of(sel));
            assert!((rt.ln() - sel.ln()).abs() < 1e-6, "{sel} -> {rt}");
        }
    }

    #[test]
    fn feature_width_is_stable() {
        let t = table(500);
        let m =
            MscnLite::fit(&t, &workload(&t, 10, 4), MscnConfig { epochs: 1, ..Default::default() });
        let mut f = Vec::new();
        m.featurize(&RangeQuery::unconstrained(2), &mut f);
        assert_eq!(f.len(), 3 * 2 + 1);
        assert_eq!(f[f.len() - 1], 1.0); // everything matches the sample
    }
}
