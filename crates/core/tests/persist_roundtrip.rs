//! Property test: persistence is lossless for estimation.
//!
//! For arbitrary small trained models — random data, reducer kind, mixture
//! size, net shape, seeds — `save_framed` → `load_framed` must reproduce the original
//! estimator's answers **bitwise** (deterministic shared inference derives
//! its sampling seeds from persisted state, so any drift in config,
//! handlers, or weights would surface as a differing estimate).

use iam_core::{IamConfig, IamEstimator, ReducerKind};
use iam_data::synth::Dataset;
use iam_data::{RangeQuery, SelectivityEstimator, WorkloadConfig, WorkloadGenerator};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    #[test]
    fn save_load_preserves_estimates_bitwise(
        nrows in 250usize..600,
        data_seed in 0u64..1_000,
        cfg_seed in 0u64..1_000,
        reducer_idx in 0usize..4,
        components in 2usize..6,
        width in 12usize..32,
        samples in 50usize..150,
    ) {
        let table = Dataset::Twi.generate(nrows, data_seed);
        let cfg = IamConfig {
            components,
            reducer: [
                ReducerKind::Gmm,
                ReducerKind::Hist,
                ReducerKind::Spline,
                ReducerKind::Umm,
            ][reducer_idx],
            hidden: vec![width, width],
            embed_dim: 6,
            epochs: 1,
            samples,
            seed: cfg_seed,
            ..IamConfig::default()
        };
        let est = IamEstimator::fit(&table, cfg);

        let mut buf = Vec::new();
        est.save_framed(&mut buf).unwrap();
        let loaded = IamEstimator::load_framed(&mut buf.as_slice()).unwrap();

        prop_assert_eq!(loaded.name(), est.name());
        prop_assert_eq!(loaded.model_size_bytes(), est.model_size_bytes());
        prop_assert_eq!(loaded.sampling_salt(), est.sampling_salt());

        let mut gen = WorkloadGenerator::new(&table, WorkloadConfig::default(), data_seed ^ 0x51);
        let queries: Vec<RangeQuery> =
            gen.gen_queries(5).iter().map(|q| q.normalize(2).unwrap().0).collect();
        let before = est.estimate_batch_shared(&queries, 1);
        let after = loaded.estimate_batch_shared(&queries, 2);
        for (i, (a, b)) in before.iter().zip(&after).enumerate() {
            prop_assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "query {} diverged after round-trip: {} vs {}",
                i, a, b
            );
        }
    }
}
