//! Cross-crate end-to-end test: the full IAM pipeline on a synthetic
//! single-table dataset, against ground truth.

use iam_core::{neurocard_lite, IamConfig, IamEstimator, ReducerKind};
use iam_data::synth::Dataset;
use iam_data::{
    exact_selectivity, q_error, RangeQuery, SelectivityEstimator, WorkloadConfig, WorkloadGenerator,
};

fn quick_cfg(seed: u64) -> IamConfig {
    IamConfig {
        components: 16,
        hidden: vec![64, 64],
        embed_dim: 8,
        epochs: 8,
        lr: 5e-3,
        samples: 300,
        factorize_threshold: 256,
        seed,
        ..IamConfig::default()
    }
}

fn median_q_error(est: &dyn SelectivityEstimator, table: &iam_data::Table, n: usize) -> f64 {
    let mut gen = WorkloadGenerator::new(table, WorkloadConfig::default(), 1234);
    let mut errs: Vec<f64> = gen
        .gen_queries(n)
        .into_iter()
        .map(|q| {
            let truth = exact_selectivity(table, &q);
            let (rq, _) = q.normalize(table.ncols()).unwrap();
            q_error(truth, est.estimate(&rq), table.nrows())
        })
        .collect();
    errs.sort_by(f64::total_cmp);
    errs[errs.len() / 2]
}

#[test]
fn iam_tracks_truth_on_twi() {
    let table = Dataset::Twi.generate(8000, 5);
    let iam = IamEstimator::fit(&table, quick_cfg(5));
    let median = median_q_error(&iam, &table, 40);
    assert!(median < 1.8, "median q-error {median}");
}

#[test]
fn iam_tracks_truth_on_wisdm_mixed_types() {
    let table = Dataset::Wisdm.generate(8000, 6);
    let iam = IamEstimator::fit(&table, quick_cfg(6));
    let median = median_q_error(&iam, &table, 40);
    assert!(median < 2.5, "median q-error {median}");
}

#[test]
fn neurocard_mode_is_competitive_but_larger() {
    let table = Dataset::Twi.generate(6000, 7);
    let iam = IamEstimator::fit(&table, quick_cfg(7));
    let nc = IamEstimator::fit(&table, neurocard_lite(quick_cfg(7)));
    let m_nc = median_q_error(&nc, &table, 30);
    assert!(m_nc < 3.0, "Neurocard median {m_nc}");
    assert!(
        iam.model_size_bytes() < nc.model_size_bytes(),
        "domain reduction must shrink the model: IAM {} vs NC {}",
        iam.model_size_bytes(),
        nc.model_size_bytes()
    );
}

#[test]
fn alternative_reducers_run_end_to_end() {
    let table = Dataset::Higgs.generate(5000, 9);
    for kind in [ReducerKind::Hist, ReducerKind::Spline, ReducerKind::Umm] {
        let cfg = IamConfig { reducer: kind, ..quick_cfg(9) };
        let est = IamEstimator::fit(&table, cfg);
        let median = median_q_error(&est, &table, 20);
        assert!(median < 5.0, "{}: median {median}", kind.name());
        let sel = est.estimate(&RangeQuery::unconstrained(table.ncols()));
        assert!((sel - 1.0).abs() < 1e-9, "{}: unconstrained {sel}", kind.name());
    }
}

#[test]
fn separate_training_still_works() {
    // the paper argues joint training is better, but separate (frozen GMM)
    // training must remain correct
    let table = Dataset::Twi.generate(5000, 10);
    let cfg = IamConfig { joint_training: false, ..quick_cfg(10) };
    let est = IamEstimator::fit(&table, cfg);
    let median = median_q_error(&est, &table, 25);
    assert!(median < 2.5, "median {median}");
}

#[test]
fn wildcard_skipping_off_is_supported() {
    let table = Dataset::Twi.generate(4000, 11);
    let cfg = IamConfig { wildcard_skipping: false, ..quick_cfg(11) };
    let est = IamEstimator::fit(&table, cfg);
    let median = median_q_error(&est, &table, 20);
    assert!(median < 3.0, "median {median}");
}

#[test]
fn training_curve_is_observable() {
    // Figure 6's mechanism: error decreases (or at least stats accumulate)
    // across resumed training
    let table = Dataset::Twi.generate(4000, 12);
    let mut est = IamEstimator::build(&table, quick_cfg(12));
    est.train_epochs(&table, 2);
    assert_eq!(est.stats.len(), 2);
    let early = est.stats.last().unwrap().ar_loss;
    est.train_epochs(&table, 6);
    assert_eq!(est.stats.len(), 8);
    let late = est.stats.last().unwrap().ar_loss;
    assert!(late < early, "loss should keep falling: {early} -> {late}");
}
