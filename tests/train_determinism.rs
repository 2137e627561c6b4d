//! End-to-end thread-count invariance of the parallel training pipeline:
//! `IamConfig::train_threads` partitions work over fixed shards and reduces
//! in a fixed order, so the trained model must be *bitwise* identical for
//! every thread count — not merely statistically equivalent.

use iam_core::{IamConfig, IamEstimator};
use iam_data::synth::Dataset;

fn fit(train_threads: usize) -> IamEstimator {
    // batch 150 with 64-row shards gives shards of 64/64/22 rows, so the
    // sweep exercises uneven tails and more workers than shards (threads=4
    // clamps to 3 live workers)
    let table = Dataset::Wisdm.generate(1500, 7);
    let cfg = IamConfig {
        components: 6,
        hidden: vec![32, 32],
        embed_dim: 8,
        epochs: 2,
        batch_size: 150,
        samples: 64,
        train_threads,
        seed: 7,
        ..IamConfig::default()
    };
    IamEstimator::fit(&table, cfg)
}

fn weight_bits(est: &IamEstimator) -> Vec<u32> {
    let mut bits = Vec::new();
    est.net().for_each_param(&mut |w| bits.extend(w.iter().map(|v| v.to_bits())));
    bits
}

#[test]
fn trained_weights_are_bitwise_invariant_to_train_threads() {
    let base = fit(1);
    let base_bits = weight_bits(&base);
    assert!(!base_bits.is_empty());

    for threads in [2, 4] {
        let est = fit(threads);
        assert_eq!(
            weight_bits(&est),
            base_bits,
            "weights diverged between train_threads=1 and train_threads={threads}"
        );
        for (e, (a, b)) in base.stats.iter().zip(&est.stats).enumerate() {
            assert_eq!(
                a.ar_loss.to_bits(),
                b.ar_loss.to_bits(),
                "epoch {e} ar loss diverged at train_threads={threads}"
            );
            assert_eq!(
                a.gmm_loss.to_bits(),
                b.gmm_loss.to_bits(),
                "epoch {e} gmm loss diverged at train_threads={threads}"
            );
        }
    }
}

#[test]
fn train_threads_zero_means_auto_and_stays_invariant() {
    let auto = fit(0); // one worker per available core
    let one = fit(1);
    assert_eq!(weight_bits(&auto), weight_bits(&one));
}
