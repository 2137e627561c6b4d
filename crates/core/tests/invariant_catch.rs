//! The debug invariant layer must catch a deliberately injected bug.
//!
//! A single NaN poisoned into the AR network's parameters is the classic
//! silent-corruption scenario: without invariants the estimator would
//! happily return NaN (or a clamped garbage value) as a "selectivity".
//! With invariants active, the softmax-mass check fires on the first
//! estimate that touches the poisoned slot distribution.

use iam_core::{IamConfig, IamEstimator};
use iam_data::{RangeQuery, SelectivityEstimator, WorkloadConfig, WorkloadGenerator};
use iam_nn::Parameters;
use std::panic::{catch_unwind, AssertUnwindSafe};

fn small_estimator() -> (IamEstimator, Vec<RangeQuery>) {
    let table = iam_data::synth::Dataset::Twi.generate(800, 11);
    let cfg = IamConfig {
        components: 4,
        hidden: vec![24, 24],
        embed_dim: 6,
        epochs: 1,
        samples: 64,
        seed: 3,
        ..IamConfig::default()
    };
    let est = IamEstimator::fit(&table, cfg);
    let mut gen = WorkloadGenerator::new(&table, WorkloadConfig::default(), 5);
    let queries = gen.gen_queries(4).iter().map(|q| q.normalize(2).unwrap().0).collect();
    (est, queries)
}

#[test]
fn injected_nan_weight_trips_mass_invariant() {
    if !iam_core::invariant::ACTIVE {
        // release build without the `invariants` feature: the layer
        // compiles to nothing by design, so there is nothing to catch
        return;
    }
    let (mut est, queries) = small_estimator();

    // sanity: the healthy model estimates without tripping anything
    for q in &queries {
        let s = est.estimate(q);
        assert!((0.0..=1.0).contains(&s));
    }

    // inject the bug: poison one weight in the middle of the net
    est.with_net_mut(|net| {
        net.visit_params(&mut |p, _| {
            if !p.is_empty() {
                p[p.len() / 2] = f32::NAN;
            }
        })
    });

    let err = catch_unwind(AssertUnwindSafe(|| {
        for q in &queries {
            let _ = est.estimate(q);
        }
    }))
    .expect_err("poisoned network must trip an invariant");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(msg.contains("iam invariant violated"), "unexpected panic: {msg}");
}
