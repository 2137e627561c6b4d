//! Distributed serving demo: a 3-worker cluster with 2-way replicas,
//! snapshot shipping, scatter/gather, failover, and a live refresh.
//!
//! ```text
//! cargo run --release -p iam-dist --example cluster_demo
//! ```
//!
//! The demo spawns three in-process workers (real TCP on loopback — the
//! same code path the multi-process binary uses), trains one model per
//! table, ships the snapshots, then answers a mixed batch and proves the
//! cluster's answers are bit-identical to single-process inference. It
//! then kills a worker and repeats the batch (failover), and finally
//! refreshes one table's model mid-traffic.

use iam_core::{IamConfig, IamEstimator};
use iam_data::synth::Dataset;
use iam_data::{RangeQuery, WorkloadConfig, WorkloadGenerator};
use iam_dist::{ClusterQuery, Coordinator, DistConfig, WorkerConfig, WorkerHandle};

fn train(dataset: Dataset, seed: u64) -> (IamEstimator, Vec<RangeQuery>) {
    let table = dataset.generate(4_000, seed);
    let cfg = IamConfig {
        components: 6,
        hidden: vec![32, 32],
        embed_dim: 6,
        epochs: 1,
        samples: 100,
        seed,
        ..IamConfig::default()
    };
    let est = IamEstimator::fit(&table, cfg);
    let mut gen = WorkloadGenerator::new(&table, WorkloadConfig::default(), seed ^ 0xAB);
    let queries =
        gen.gen_queries(8).iter().map(|q| q.normalize(table.ncols()).unwrap().0).collect();
    (est, queries)
}

fn main() {
    println!("training per-table models …");
    let (mut wisdm, wisdm_queries) = train(Dataset::Wisdm, 7);
    let (twi, twi_queries) = train(Dataset::Twi, 11);

    // --- cluster up: 3 workers, 2 replicas per table -------------------
    let workers: Vec<WorkerHandle> = (0..3)
        .map(|_| WorkerHandle::spawn("127.0.0.1:0", WorkerConfig::default()).expect("bind worker"))
        .collect();
    let addrs: Vec<_> = workers.iter().map(|w| w.addr).collect();
    println!("workers listening on {addrs:?}");

    let coord = Coordinator::new(addrs, &["wisdm", "twi"], DistConfig::default());
    for t in ["wisdm", "twi"] {
        println!("table {t:?} placed on workers {:?}", coord.placement().replicas(t));
    }

    // --- snapshot shipping: models reach every replica -----------------
    for outcome in coord.deploy_model("wisdm", &wisdm, "wisdm-v1").unwrap() {
        println!("ship wisdm → worker {}: {:?}", outcome.worker, outcome.result);
    }
    for outcome in coord.deploy_model("twi", &twi, "twi-v1").unwrap() {
        println!("ship twi   → worker {}: {:?}", outcome.worker, outcome.result);
    }

    // --- scatter/gather: a mixed batch, checked against direct inference
    let batch: Vec<ClusterQuery> = wisdm_queries
        .iter()
        .map(|q| ClusterQuery { table: "wisdm".into(), query: q.clone() })
        .chain(twi_queries.iter().map(|q| ClusterQuery { table: "twi".into(), query: q.clone() }))
        .collect();
    let expect: Vec<f64> = wisdm
        .estimate_batch_shared(&wisdm_queries, 1)
        .into_iter()
        .chain(twi.estimate_batch_shared(&twi_queries, 1))
        .collect();
    let got = coord.estimate_batch(&batch);
    for ((cq, g), e) in batch.iter().zip(&got).take(4).zip(&expect) {
        println!("{}: cluster {:?} direct {e:.6}", cq.table, g);
    }
    let exact = got
        .iter()
        .zip(&expect)
        .all(|(g, e)| g.as_ref().map(|v| v.to_bits() == e.to_bits()).unwrap_or(false));
    println!("all {} answers bit-identical to single-process inference: {exact}", got.len());
    assert!(exact);

    // --- failover: kill one replica, the batch still completes ---------
    let mut workers = workers;
    let victim = coord.placement().replicas("wisdm")[0];
    println!("\nkilling worker {victim} …");
    workers.remove(victim).stop();
    let got = coord.estimate_batch(&batch);
    let answered = got.iter().filter(|r| r.is_ok()).count();
    println!("after failover: {answered}/{} answered (replicas cover the loss)", got.len());
    let still_exact = got
        .iter()
        .zip(&expect)
        .filter_map(|(g, e)| g.as_ref().ok().map(|v| v.to_bits() == e.to_bits()))
        .all(|b| b);
    println!("every answered query still bit-identical: {still_exact}");
    assert!(still_exact);

    // --- refresh: retrain and ship; replicas flip atomically -----------
    println!("\nrefreshing wisdm (1 extra epoch) and shipping …");
    let table = Dataset::Wisdm.generate(4_000, 7);
    wisdm.train_epochs(&table, 1);
    for outcome in coord.deploy_model("wisdm", &wisdm, "wisdm-v2").unwrap() {
        println!("ship wisdm v2 → worker {}: {:?}", outcome.worker, outcome.result);
    }
    for (wid, v) in coord.versions("wisdm") {
        println!("worker {wid} now serves wisdm version {v:?}");
    }

    coord.shutdown_cluster();
    for w in workers {
        w.stop();
    }
    println!("\ncluster drained; demo done");
}
