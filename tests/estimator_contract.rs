//! Contract tests every estimator must satisfy: unconstrained queries
//! estimate ≈ 1, contradictions estimate ≈ 0, and widening a range never
//! *decreases* the estimate (for the deterministic estimators).

use iam_data::query::{Interval, Op, Predicate, Query};
use iam_data::synth::Dataset;
use iam_data::{
    exact_selectivity, RangeQuery, SelectivityEstimator, Table, WorkloadConfig, WorkloadGenerator,
};
use iam_estimators::spn::SpnConfig;
use iam_estimators::{
    mscn::MscnConfig, ChowLiuNet, KdeEstimator, Mhist, MscnLite, Postgres1d, QuickSelLite,
    SamplingEstimator, SpnEstimator,
};

fn table() -> Table {
    Dataset::Wisdm.generate(6000, 33)
}

fn training(t: &Table) -> Vec<(RangeQuery, f64)> {
    let mut gen = WorkloadGenerator::new(t, WorkloadConfig::default(), 44);
    gen.gen_queries(150)
        .into_iter()
        .map(|q| (q.normalize(t.ncols()).unwrap().0, exact_selectivity(t, &q)))
        .collect()
}

/// All estimators, boxed. The bool marks deterministic monotone evaluators
/// (histogram/kernel families) for the monotonicity check.
fn all_estimators(t: &Table) -> Vec<(Box<dyn SelectivityEstimator>, bool)> {
    let train = training(t);
    vec![
        (Box::new(SamplingEstimator::new(t, 0.05, 1)), true),
        (Box::new(Postgres1d::new(t)), true),
        (Box::new(Mhist::new(t, 256)), true),
        (Box::new(ChowLiuNet::new(t)), true),
        (Box::new(KdeEstimator::new(t, 500, 2)), true),
        (Box::new(SpnEstimator::new(t, SpnConfig::default())), true),
        (
            Box::new(MscnLite::fit(t, &train, MscnConfig { epochs: 10, ..Default::default() })),
            false, // learned regressor: not structurally monotone
        ),
        (Box::new(QuickSelLite::fit(t, &train, 60, 200)), true),
    ]
}

#[test]
fn unconstrained_estimates_one() {
    let t = table();
    for (est, _) in all_estimators(&t) {
        let sel = est.estimate(&RangeQuery::unconstrained(t.ncols()));
        assert!(sel > 0.9, "{}: unconstrained sel {sel}", est.name());
    }
}

#[test]
fn contradictions_estimate_near_zero() {
    let t = table();
    let mut rq = RangeQuery::unconstrained(t.ncols());
    // x (col 2) simultaneously below and above its support
    rq.cols[2] = Some(Interval::closed(1e8, 2e8));
    for (est, _) in all_estimators(&t) {
        let sel = est.estimate(&rq);
        assert!(sel < 0.05, "{}: impossible query sel {sel}", est.name());
    }
}

#[test]
fn widening_a_range_is_monotone_for_deterministic_estimators() {
    let t = table();
    for (est, monotone) in all_estimators(&t) {
        if !monotone {
            continue;
        }
        let mut prev = -1.0f64;
        for bound in [-10.0, 0.0, 10.0, 30.0, 200.0] {
            let q = Query::new(vec![Predicate { col: 2, op: Op::Le, value: bound }]);
            let (rq, _) = q.normalize(t.ncols()).unwrap();
            let sel = est.estimate(&rq);
            assert!(
                sel >= prev - 1e-9,
                "{}: widening to ≤{bound} shrank the estimate: {prev} -> {sel}",
                est.name()
            );
            prev = sel;
        }
    }
}

#[test]
fn estimates_are_valid_probabilities_across_a_workload() {
    let t = table();
    let mut gen = WorkloadGenerator::new(&t, WorkloadConfig::default(), 77);
    let queries: Vec<RangeQuery> =
        gen.gen_queries(60).into_iter().map(|q| q.normalize(t.ncols()).unwrap().0).collect();
    for (est, _) in all_estimators(&t) {
        for rq in &queries {
            let sel = est.estimate(rq);
            assert!(
                (0.0..=1.0).contains(&sel) && sel.is_finite(),
                "{}: estimate out of range: {sel}",
                est.name()
            );
        }
    }
}

#[test]
fn model_sizes_are_reported() {
    let t = table();
    for (est, _) in all_estimators(&t) {
        assert!(est.model_size_bytes() > 0, "{} reports no size", est.name());
    }
}
