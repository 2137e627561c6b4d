//! Shared harness of the `paper-tables` binary, which prints every table
//! and figure of the paper's evaluation
//! (`cargo run --release -p iam-bench --bin paper-tables -- all`). This
//! library holds the common machinery: scale knobs (env-overridable),
//! estimator construction, workload + ground-truth preparation and
//! error/timing evaluation.
//!
//! Scale knobs (defaults sized for a small CI box; raise for
//! higher-fidelity runs):
//!
//! | env var              | default | meaning                           |
//! |----------------------|---------|-----------------------------------|
//! | `IAM_BENCH_ROWS`     | 20000   | rows per synthetic dataset        |
//! | `IAM_BENCH_QUERIES`  | 150     | evaluation queries per dataset    |
//! | `IAM_BENCH_TRAINQ`   | 500     | training queries (query-driven)   |
//! | `IAM_BENCH_EPOCHS`   | 15      | AR training epochs                |
//! | `IAM_BENCH_SAMPLES`  | 256     | progressive samples per query     |
//! | `IAM_BENCH_TRAIN_THREADS` | 1  | training workers (0 = per core)   |
//! | `IAM_BENCH_SEED`     | 42      | base seed                         |
//!
//! Table 8's `train_threads` sweep reads `IAM_BENCH_THREAD_SWEEP`
//! (default `1,2,4`).

#![deny(missing_docs)]

pub mod join_exp;

use iam_core::{neurocard_lite, IamConfig, IamEstimator};
use iam_data::synth::Dataset;
use iam_data::{
    exact_selectivity, q_error, ErrorSummary, Query, RangeQuery, SelectivityEstimator, Table,
    WorkloadConfig, WorkloadGenerator,
};
use iam_estimators::{
    mscn::MscnConfig, ChowLiuNet, KdeEstimator, Mhist, MscnLite, Postgres1d, QuickSelLite,
    SamplingEstimator, SpnEstimator,
};
use std::time::Instant;

/// Scale knobs for a bench run.
#[derive(Debug, Clone)]
pub struct BenchScale {
    /// Rows per synthetic dataset.
    pub rows: usize,
    /// Evaluation queries.
    pub queries: usize,
    /// Training queries for query-driven estimators.
    pub train_queries: usize,
    /// AR training epochs.
    pub epochs: usize,
    /// Progressive samples per query.
    pub samples: usize,
    /// Training worker threads (0 = one per core). Never changes the
    /// trained weights, only wall time.
    pub train_threads: usize,
    /// Base seed.
    pub seed: u64,
}

fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

impl BenchScale {
    /// Read from the environment.
    pub fn from_env() -> Self {
        BenchScale {
            rows: env_usize("IAM_BENCH_ROWS", 20_000),
            queries: env_usize("IAM_BENCH_QUERIES", 150),
            train_queries: env_usize("IAM_BENCH_TRAINQ", 500),
            epochs: env_usize("IAM_BENCH_EPOCHS", 15),
            samples: env_usize("IAM_BENCH_SAMPLES", 256),
            train_threads: env_usize("IAM_BENCH_TRAIN_THREADS", 1),
            seed: env_usize("IAM_BENCH_SEED", 42) as u64,
        }
    }

    /// The IAM configuration at this scale.
    ///
    /// Architecture note: the paper's models (4 hidden layers 256/128/128/
    /// 256, column-factorisation base 2^11 ≈ √10^6) target datasets of
    /// 10^6–10^7 distinct values. At bench scale (~10^4–10^5 distinct) we
    /// keep the shape but halve the widths and use base 256 ≈ √(rows), so
    /// the IAM-vs-Neurocard size/speed ratios are preserved.
    pub fn iam_config(&self) -> IamConfig {
        IamConfig {
            components: 30,
            hidden: vec![128, 64, 64, 128],
            embed_dim: 16,
            epochs: self.epochs,
            samples: self.samples,
            factorize_threshold: 256,
            batch_size: 512,
            lr: 5e-3,
            train_threads: self.train_threads,
            seed: self.seed,
            ..IamConfig::default()
        }
    }
}

/// A prepared single-table experiment: data, workloads and ground truth.
pub struct SingleTableExperiment {
    /// The dataset.
    pub table: Table,
    /// Dataset display name.
    pub name: &'static str,
    /// Evaluation queries with exact selectivities.
    pub eval: Vec<(Query, RangeQuery, f64)>,
    /// Training workload (query-driven estimators).
    pub train: Vec<(RangeQuery, f64)>,
    /// Scale used.
    pub scale: BenchScale,
}

impl SingleTableExperiment {
    /// Generate dataset + workloads, computing exact ground truth.
    pub fn prepare(dataset: Dataset, scale: &BenchScale) -> Self {
        let table = dataset.generate(scale.rows, scale.seed);
        let ncols = table.ncols();
        let mut gen = WorkloadGenerator::new(&table, WorkloadConfig::default(), scale.seed ^ 0xE);
        let eval = gen
            .gen_queries(scale.queries)
            .into_iter()
            .map(|q| {
                let truth = exact_selectivity(&table, &q);
                let (rq, _) = q.normalize(ncols).expect("generated query is valid");
                (q, rq, truth)
            })
            .collect();
        let mut tgen = WorkloadGenerator::new(&table, WorkloadConfig::default(), scale.seed ^ 0x7A);
        let train = tgen
            .gen_queries(scale.train_queries)
            .into_iter()
            .map(|q| {
                let truth = exact_selectivity(&table, &q);
                (q.normalize(ncols).expect("valid").0, truth)
            })
            .collect();
        SingleTableExperiment { table, name: dataset.name(), eval, train, scale: scale.clone() }
    }

    /// Evaluate one estimator: q-error summary + mean per-query latency.
    pub fn evaluate(&self, est: &dyn SelectivityEstimator) -> (ErrorSummary, f64) {
        let started = Instant::now();
        let errors: Vec<f64> = self
            .eval
            .iter()
            .map(|(_, rq, truth)| q_error(*truth, est.estimate(rq), self.table.nrows()))
            .collect();
        let per_query_ms = started.elapsed().as_secs_f64() * 1000.0 / self.eval.len().max(1) as f64;
        (ErrorSummary::from_errors(&errors).expect("nonempty eval set"), per_query_ms)
    }
}

/// One evaluated estimator row.
pub struct EstimatorRow {
    /// Display name.
    pub name: String,
    /// Error summary.
    pub errors: ErrorSummary,
    /// Mean per-query latency (ms).
    pub ms_per_query: f64,
    /// Model size in bytes.
    pub size_bytes: usize,
    /// Training/build seconds.
    pub train_seconds: f64,
}

/// Build and evaluate the full estimator line-up of Tables 2–4 on one
/// prepared experiment. `deep` controls whether the expensive AR models
/// (Neurocard, UAE, UAE-Q, IAM) are included.
pub fn run_lineup(exp: &SingleTableExperiment, deep: bool) -> Vec<EstimatorRow> {
    let mut rows = Vec::new();
    let scale = &exp.scale;
    let cfg = scale.iam_config();

    if deep {
        let t0 = Instant::now();
        let iam = IamEstimator::fit(&exp.table, cfg.clone());
        let train_s = t0.elapsed().as_secs_f64();
        let (errors, ms) = exp.evaluate(&iam);
        rows.push(EstimatorRow {
            name: "IAM".into(),
            errors,
            ms_per_query: ms,
            size_bytes: iam.model_size_bytes(),
            train_seconds: train_s,
        });
    }

    let mut push = |name: &str, t0: Instant, est: &dyn SelectivityEstimator| {
        let train_s = t0.elapsed().as_secs_f64();
        let (errors, ms) = exp.evaluate(est);
        rows.push(EstimatorRow {
            name: name.into(),
            errors,
            ms_per_query: ms,
            size_bytes: est.model_size_bytes(),
            train_seconds: train_s,
        });
    };

    // the paper sizes the sample to IAM's space consumption at full data
    // scale: 0.63% / 0.02% / 0.23% of WISDM / TWI / HIGGS (§6.1.2). We use
    // those fractions directly, since at bench scale the (constant-size)
    // model would otherwise buy an unrealistically large sample.
    let fraction = match exp.name {
        "WISDM" => 0.0063,
        "TWI" => 0.0002,
        "HIGGS" => 0.0023,
        _ => 0.002,
    };
    let t0 = Instant::now();
    let sampling = SamplingEstimator::new(&exp.table, fraction, scale.seed);
    push("Sampling", t0, &sampling);

    let t0 = Instant::now();
    let pg = Postgres1d::new(&exp.table);
    push("Postgres", t0, &pg);

    let t0 = Instant::now();
    let mhist = Mhist::new(&exp.table, 1000);
    push("MHIST", t0, &mhist);

    let t0 = Instant::now();
    let bn = ChowLiuNet::new(&exp.table);
    push("BayesNet", t0, &bn);

    let t0 = Instant::now();
    let kde = KdeEstimator::new(&exp.table, 2000, scale.seed);
    push("KDE", t0, &kde);

    let t0 = Instant::now();
    let spn = SpnEstimator::new(&exp.table);
    push("DeepDB", t0, &spn);

    let t0 = Instant::now();
    let mscn = MscnLite::fit(
        &exp.table,
        &exp.train,
        MscnConfig { seed: scale.seed, ..Default::default() },
    );
    push("MSCN", t0, &mscn);

    let t0 = Instant::now();
    let qs = QuickSelLite::fit(&exp.table, &exp.train, 300, 800);
    push("QuickSel", t0, &qs);

    if deep {
        let t0 = Instant::now();
        let nc = IamEstimator::fit(&exp.table, neurocard_lite(cfg.clone()));
        push("Neurocard", t0, &nc);

        // the UAE arms are "lite" reproductions; cap their training budget
        let uae_cfg = IamConfig { epochs: cfg.epochs.min(8), ..cfg.clone() };
        let t0 = Instant::now();
        let uae = iam_estimators::uae_lite(&exp.table, &exp.train, uae_cfg.clone());
        push("UAE", t0, &uae);

        let t0 = Instant::now();
        let uae_q = iam_estimators::uae_q_lite(&exp.table, &exp.train, uae_cfg);
        push("UAE-Q", t0, &uae_q);
    }

    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_env_defaults() {
        let s = BenchScale::from_env();
        assert!(s.rows >= 1000);
        assert!(s.queries >= 10);
    }

    #[test]
    fn prepare_small_experiment() {
        let scale = BenchScale {
            rows: 2000,
            queries: 20,
            train_queries: 30,
            epochs: 1,
            samples: 64,
            train_threads: 1,
            seed: 1,
        };
        let exp = SingleTableExperiment::prepare(Dataset::Twi, &scale);
        assert_eq!(exp.eval.len(), 20);
        assert_eq!(exp.train.len(), 30);
        assert!(exp.eval.iter().all(|&(_, _, t)| (0.0..=1.0).contains(&t)));
    }

    #[test]
    fn shallow_lineup_runs() {
        let scale = BenchScale {
            rows: 3000,
            queries: 25,
            train_queries: 50,
            epochs: 1,
            samples: 64,
            train_threads: 1,
            seed: 2,
        };
        let exp = SingleTableExperiment::prepare(Dataset::Higgs, &scale);
        let rows = run_lineup(&exp, false);
        assert_eq!(rows.len(), 8);
        for r in &rows {
            assert!(r.errors.median >= 1.0, "{}", r.name);
            assert!(r.errors.max.is_finite());
        }
    }
}
