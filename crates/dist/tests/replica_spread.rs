//! Load spreading across replicas, in its own test binary so the
//! process-global `iam_dist_rpc_total{worker}` counters count this test's
//! RPCs alone: the table groups of one batch that share a replica set go
//! to distinct workers instead of queueing on one worker's connection.

use iam_core::{IamConfig, IamEstimator};
use iam_data::synth::Dataset;
use iam_data::{RangeQuery, WorkloadConfig, WorkloadGenerator};
use iam_dist::{ClusterQuery, Coordinator, DistConfig, WorkerConfig, WorkerHandle};
use iam_obs::Registry;

fn rpc_totals() -> Vec<u64> {
    let reg = Registry::global();
    (0..2).map(|w| reg.counter("iam_dist_rpc_total", &[("worker", &w.to_string())]).get()).collect()
}

#[test]
fn one_batch_over_two_tables_sends_one_rpc_to_each_replica() {
    let table = Dataset::Twi.generate(800, 5);
    let cfg = IamConfig {
        components: 4,
        hidden: vec![16, 16],
        embed_dim: 6,
        epochs: 1,
        samples: 60,
        seed: 5,
        ..IamConfig::default()
    };
    let model = IamEstimator::fit(&table, cfg);
    let mut gen = WorkloadGenerator::new(&table, WorkloadConfig::default(), 11);
    let queries: Vec<RangeQuery> =
        gen.gen_queries(6).iter().map(|q| q.normalize(table.ncols()).unwrap().0).collect();
    let direct = model.estimate_batch_shared(&queries, 1);

    let workers: Vec<WorkerHandle> = (0..2)
        .map(|_| WorkerHandle::spawn("127.0.0.1:0", WorkerConfig::default()).expect("spawn"))
        .collect();
    // "a" and "c" both hash to replicas [0, 1], so their round-robin
    // cursors alone would send both groups to the same worker
    let tables = ["a", "c"];
    let addrs = workers.iter().map(|w| w.addr).collect();
    let coord = Coordinator::new(addrs, &tables, DistConfig::default());
    for t in tables {
        assert_eq!(coord.placement().replicas(t), [0, 1], "{t} must share the replica set");
        for ship in coord.deploy_model(t, &model, "v1").unwrap() {
            ship.result.expect("ship");
        }
    }

    // the two tables interleaved, so each group's answers are scattered
    // back into alternating slots
    let batch: Vec<ClusterQuery> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| ClusterQuery { table: tables[i % 2].into(), query: q.clone() })
        .collect();
    for _ in 0..3 {
        let before = rpc_totals();
        let got = coord.estimate_batch(&batch);
        let after = rpc_totals();
        let sent: Vec<u64> = after.iter().zip(&before).map(|(a, b)| a - b).collect();
        assert_eq!(sent, [1, 1], "each worker answers one of the batch's two groups");
        for (r, d) in got.iter().zip(&direct) {
            assert_eq!(r.as_ref().expect("healthy cluster answers").to_bits(), d.to_bits());
        }
    }
    for w in workers {
        w.stop();
    }
}
