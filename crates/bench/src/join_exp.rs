//! Shared machinery for the IMDB join experiments (Tables 5–8 and
//! Figure 5).

use crate::{BenchScale, EstimatorRow};
use iam_core::{neurocard_lite, IamEstimator};
use iam_data::{q_error, ErrorSummary, RangeQuery, SelectivityEstimator, Table};
use iam_estimators::{mscn::MscnConfig, MscnLite, SpnEstimator};
use iam_join::flat::{exact_card, flatten_foj, FlatSchema};
use iam_join::imdb::{synthetic_imdb, ImdbConfig};
use iam_join::star::StarSchema;
use iam_join::workload::{JoinQuery, JoinWorkloadGenerator};
use iam_opt::IndependenceCardEstimator;
use std::time::Instant;

/// A prepared join experiment.
pub struct JoinExperiment {
    /// The star schema.
    pub star: StarSchema,
    /// Flat FOJ training sample.
    pub flat: Table,
    /// Flat layout metadata.
    pub schema: FlatSchema,
    /// Evaluation join queries with exact cardinalities.
    pub eval: Vec<(JoinQuery, f64)>,
    /// Training workload over the flat layout (`(flat query, FOJ-relative
    /// selectivity)`), for query-driven estimators.
    pub train: Vec<(RangeQuery, f64)>,
    /// Scale used.
    pub scale: BenchScale,
}

impl JoinExperiment {
    /// Generate schema, FOJ sample and workloads.
    pub fn prepare(scale: &BenchScale) -> Self {
        let star = synthetic_imdb(&ImdbConfig { movies: scale.rows / 3, seed: scale.seed });
        let (flat, schema) = flatten_foj(&star, scale.rows, scale.seed ^ 0xF0);
        let mut gen = JoinWorkloadGenerator::new(&star, scale.seed ^ 0xE1);
        let eval: Vec<(JoinQuery, f64)> = gen
            .gen_queries(scale.queries)
            .into_iter()
            .map(|q| {
                let truth = exact_card(&star, &q);
                (q, truth)
            })
            .collect();
        let mut tgen = JoinWorkloadGenerator::new(&star, scale.seed ^ 0x71);
        let train = tgen
            .gen_queries(scale.train_queries)
            .into_iter()
            .map(|q| {
                let truth = exact_card(&star, &q);
                (schema.rewrite(&q), truth / schema.foj_size)
            })
            .collect();
        JoinExperiment { star, flat, schema, eval, train, scale: scale.clone() }
    }

    /// Evaluate a flat-table estimator on the join workload.
    pub(crate) fn evaluate_flat(&self, est: &dyn SelectivityEstimator) -> (ErrorSummary, f64) {
        let started = Instant::now();
        let errs: Vec<f64> = self
            .eval
            .iter()
            .map(|(q, truth)| q_error(*truth, self.schema.estimate_card(est, q), 1))
            .collect();
        let ms = started.elapsed().as_secs_f64() * 1000.0 / self.eval.len().max(1) as f64;
        (ErrorSummary::from_errors(&errs).expect("nonempty"), ms)
    }

    /// Evaluate the Postgres-style independence estimator.
    pub(crate) fn evaluate_postgres(&self) -> (ErrorSummary, f64, usize, f64) {
        let t0 = Instant::now();
        let pg = IndependenceCardEstimator::new(&self.star);
        let train_s = t0.elapsed().as_secs_f64();
        let started = Instant::now();
        let errs: Vec<f64> = self
            .eval
            .iter()
            .map(|(q, truth)| {
                use iam_opt::JoinCardEstimator;
                q_error(*truth, pg.card(q, true, &q.join_dims), 1)
            })
            .collect();
        let ms = started.elapsed().as_secs_f64() * 1000.0 / self.eval.len().max(1) as f64;
        (ErrorSummary::from_errors(&errs).expect("nonempty"), ms, 0, train_s)
    }
}

/// The Table-5 line-up: one evaluated row per estimator, plus the fitted
/// models Table 7 times and Figure 5 plans with.
pub struct JoinLineup {
    /// One row per estimator, in Table 5's order.
    pub rows: Vec<EstimatorRow>,
    /// DeepDB's SPN on the flat sample.
    pub spn: SpnEstimator,
    /// MSCN on the flat sample and its training workload.
    pub mscn: MscnLite,
    /// Neurocard on the flat sample.
    pub neurocard: IamEstimator,
    /// IAM on the flat sample.
    pub iam: IamEstimator,
}

/// Fit and evaluate the Table-5 line-up (join-capable estimators only).
pub fn run_join_lineup(exp: &JoinExperiment) -> JoinLineup {
    let mut rows = Vec::new();
    let cfg = exp.scale.iam_config();

    // Postgres (independence over per-table stats)
    let (errors, ms, size, train_s) = exp.evaluate_postgres();
    rows.push(EstimatorRow {
        name: "Postgres".into(),
        errors,
        ms_per_query: ms,
        size_bytes: size,
        train_seconds: train_s,
    });

    let mut push = |name: &str, t0: Instant, est: &dyn SelectivityEstimator| {
        let train_s = t0.elapsed().as_secs_f64();
        let (errors, ms) = exp.evaluate_flat(est);
        rows.push(EstimatorRow {
            name: name.into(),
            errors,
            ms_per_query: ms,
            size_bytes: est.model_size_bytes(),
            train_seconds: train_s,
        });
    };

    let t0 = Instant::now();
    let spn = SpnEstimator::new(&exp.flat);
    push("DeepDB", t0, &spn);

    let t0 = Instant::now();
    let mscn = MscnLite::fit(
        &exp.flat,
        &exp.train,
        MscnConfig { seed: exp.scale.seed, ..Default::default() },
    );
    push("MSCN", t0, &mscn);

    let t0 = Instant::now();
    let nc = IamEstimator::fit(&exp.flat, neurocard_lite(cfg.clone()));
    push("Neurocard", t0, &nc);

    let uae_cfg = iam_core::IamConfig { epochs: cfg.epochs.min(8), ..cfg.clone() };
    let t0 = Instant::now();
    let uae = iam_estimators::uae_lite(&exp.flat, &exp.train, uae_cfg.clone());
    push("UAE", t0, &uae);

    let t0 = Instant::now();
    let uae_q = iam_estimators::uae_q_lite(&exp.flat, &exp.train, uae_cfg);
    push("UAE-Q", t0, &uae_q);

    let t0 = Instant::now();
    let iam = IamEstimator::fit(&exp.flat, cfg);
    push("IAM", t0, &iam);

    JoinLineup { rows, spn, mscn, neurocard: nc, iam }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Cardinalities are q-errored by the selectivity rule with one row
    /// as the table: the floor `1 / 1` is one row.
    #[test]
    fn q_error_card_floors_at_one_row() {
        assert_eq!(q_error(0.0, 0.0, 1), 1.0);
        assert_eq!(q_error(10.0, 10.0, 1), 1.0);
        assert!((q_error(0.0, 5.0, 1) - 5.0).abs() < 1e-12);
        assert!((q_error(100.0, 10.0, 1) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn prepare_small_join_experiment() {
        let scale = BenchScale {
            rows: 6000,
            queries: 15,
            train_queries: 20,
            epochs: 1,
            samples: 64,
            train_threads: 1,
            seed: 3,
        };
        let exp = JoinExperiment::prepare(&scale);
        assert_eq!(exp.eval.len(), 15);
        assert_eq!(exp.flat.nrows(), 6000);
        assert!(exp.schema.foj_size > 0.0);
        // Postgres baseline runs end to end
        let (errors, _, _, _) = exp.evaluate_postgres();
        assert!(errors.median >= 1.0);
    }
}
