//! The `iam-core` probes against what a run actually did.
//!
//! This file holds ONE test so that it is alone in its process: the probes
//! live in the process-global registry, and only then are their values
//! exact counts of this run rather than lower bounds.

use iam_core::{IamConfig, IamEstimator};
use iam_data::synth::Dataset;
use iam_data::{Interval, RangeQuery, SelectivityEstimator, WorkloadConfig, WorkloadGenerator};
use iam_obs::Registry;

const EPOCHS: usize = 2;
const QUERIES: usize = 12;
const SAMPLES: usize = 64;
const SAMPLER_SPAN: &str = "infer.progressive_sample";

#[test]
fn registry_epoch_stats_and_span_views_agree() {
    iam_obs::span::enable();
    let table = Dataset::Wisdm.generate(2_000, 11);
    let cfg = IamConfig {
        components: 4,
        hidden: vec![24, 24],
        embed_dim: 6,
        epochs: EPOCHS,
        samples: SAMPLES,
        seed: 11,
        ..IamConfig::default()
    };
    let est = IamEstimator::fit(&table, cfg);

    let mut gen = WorkloadGenerator::new(&table, WorkloadConfig::default(), 5);
    let mut queries: Vec<RangeQuery> = gen
        .gen_queries(QUERIES - 1)
        .iter()
        .map(|q| q.normalize(table.ncols()).unwrap().0)
        .collect();
    // no subject id is that large: the plan proves the query empty, so it
    // is answered 0 without sampling and must not count as a live query
    let mut empty = RangeQuery::unconstrained(table.ncols());
    empty.cols[0] = Some(Interval::closed(1e9, 2e9));
    queries.push(empty);
    let live = queries.iter().filter(|q| est.schema.query_plan(q).is_some()).count();
    assert_eq!(live, QUERIES - 1, "generated queries are drawn from rows, so never empty");
    for q in &queries {
        let sel = est.estimate(q);
        assert!((0.0..=1.0).contains(&sel));
    }
    iam_obs::span::disable();

    // --- counters: exact, because nothing else in this process trains or
    // estimates
    let r = Registry::global();
    assert_eq!(r.counter("iam_train_epochs_total", &[]).get(), EPOCHS as u64);
    assert_eq!(r.counter("iam_train_rows_total", &[]).get(), (EPOCHS * table.nrows()) as u64);
    assert_eq!(r.counter("iam_infer_queries_total", &[]).get(), live as u64);
    assert_eq!(r.counter("iam_infer_samples_total", &[]).get(), (live * SAMPLES) as u64);

    // --- the per-epoch record is `IamEstimator::stats`; the gauges hold
    // the last epoch of it
    assert_eq!(est.stats.len(), EPOCHS);
    for s in &est.stats {
        assert!(s.ar_loss.is_finite() && s.ar_loss > 0.0, "{s:?}");
        assert!(s.gmm_loss.is_finite(), "{s:?}");
        assert!(s.seconds > 0.0, "{s:?}");
        assert_eq!(s.rows, table.nrows());
    }
    let last = est.stats.last().unwrap();
    assert_eq!(r.float_gauge("iam_train_ar_loss", &[]).get().to_bits(), last.ar_loss.to_bits());
    assert_eq!(r.float_gauge("iam_train_gmm_loss", &[]).get().to_bits(), last.gmm_loss.to_bits());

    // --- both views fed by one SpanGuard drop agree: the registry mirror
    // (by leaf name) and the per-path aggregate (summed over paths ending
    // in that name)
    let mirror = r.counter("iam_span_calls_total", &[("span", SAMPLER_SPAN)]).get();
    let report = iam_obs::span::report();
    let by_path: u64 = report
        .iter()
        .filter(|(path, _)| path.rsplit(';').next() == Some(SAMPLER_SPAN))
        .map(|(_, agg)| agg.count)
        .sum();
    assert_eq!(mirror, QUERIES as u64, "one sampler span per `estimate` call");
    assert_eq!(by_path, mirror);
    let mirror_us = r.counter("iam_span_us_total", &[("span", "train.epoch")]).get();
    let epoch = report.iter().find(|(path, _)| path == "train.epoch").expect("train.epoch path").1;
    assert_eq!(epoch.count, EPOCHS as u64);
    assert_eq!(epoch.total_us, mirror_us);
}
