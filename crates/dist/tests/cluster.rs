//! The acceptance test for distributed serving: a coordinator plus three
//! **separate worker processes** (spawned from the `iam-dist-worker`
//! binary), 2-way replicas, snapshot shipping, a refresh under concurrent
//! load, and a worker killed mid-traffic.
//!
//! The invariant under test end-to-end: every non-skipped answer the
//! cluster returns is **bit-identical** to single-process inference on the
//! same model — regardless of which replica answered, of failover, and of
//! an in-flight refresh (answers during a refresh are wholly-old or
//! wholly-new, never a mix).

use iam_core::{IamConfig, IamEstimator};
use iam_data::synth::Dataset;
use iam_data::{RangeQuery, WorkloadConfig, WorkloadGenerator};
use iam_dist::{ClusterQuery, Coordinator, DistConfig};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::time::{Duration, Instant};

/// One worker child process; killed on drop so a failing test never leaks
/// processes.
struct WorkerProc {
    child: Child,
    addr: SocketAddr,
}

impl WorkerProc {
    fn spawn() -> WorkerProc {
        let mut child = Command::new(env!("CARGO_BIN_EXE_iam-dist-worker"))
            .args(["--addr", "127.0.0.1:0", "--serve-workers", "1"])
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn iam-dist-worker");
        // harvest the port-0 bind from the announced LISTENING line
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line).expect("read LISTENING line");
        let addr = line
            .trim()
            .strip_prefix("LISTENING ")
            .unwrap_or_else(|| panic!("unexpected worker banner {line:?}"))
            .parse()
            .expect("parse worker addr");
        WorkerProc { child, addr }
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Wait for a voluntary exit (after the coordinator's `Shutdown`).
    fn wait_clean_exit(&mut self, timeout: Duration) {
        let t0 = Instant::now();
        loop {
            match self.child.try_wait().expect("try_wait") {
                Some(status) => {
                    assert!(status.success(), "worker exited with {status}");
                    return;
                }
                None if t0.elapsed() > timeout => {
                    self.kill();
                    panic!("worker did not exit within {timeout:?} after Shutdown");
                }
                None => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }
}

impl Drop for WorkerProc {
    fn drop(&mut self) {
        self.kill();
    }
}

fn train(dataset: Dataset, seed: u64) -> (IamEstimator, Vec<RangeQuery>) {
    let table = dataset.generate(1_200, seed);
    let cfg = IamConfig {
        components: 4,
        hidden: vec![16, 16],
        embed_dim: 6,
        epochs: 1,
        samples: 60,
        seed,
        ..IamConfig::default()
    };
    let est = IamEstimator::fit(&table, cfg);
    let mut gen = WorkloadGenerator::new(&table, WorkloadConfig::default(), seed ^ 0xAB);
    let queries =
        gen.gen_queries(8).iter().map(|q| q.normalize(table.ncols()).unwrap().0).collect();
    (est, queries)
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn multi_process_cluster_bit_identical_with_kill_and_refresh() {
    // --- models and ground truth (single-process inference) ------------
    let (wisdm_v1, wisdm_queries) = train(Dataset::Wisdm, 7);
    let (twi, twi_queries) = train(Dataset::Twi, 11);
    let mut wisdm_v2 = wisdm_v1.clone();
    wisdm_v2.train_epochs(&Dataset::Wisdm.generate(1_200, 7), 1);

    let wisdm_bits_v1 = bits(&wisdm_v1.estimate_batch_shared(&wisdm_queries, 1));
    let wisdm_bits_v2 = bits(&wisdm_v2.estimate_batch_shared(&wisdm_queries, 1));
    let twi_bits = bits(&twi.estimate_batch_shared(&twi_queries, 1));
    assert_ne!(wisdm_bits_v1, wisdm_bits_v2, "refresh must actually change some answer");

    // --- cluster up: 3 worker processes, 2-way replicas ----------------
    let mut workers: Vec<WorkerProc> = (0..3).map(|_| WorkerProc::spawn()).collect();
    let addrs: Vec<SocketAddr> = workers.iter().map(|w| w.addr).collect();
    let coord = Coordinator::new(
        addrs,
        &["wisdm", "twi"],
        DistConfig { replicas: 2, ..DistConfig::default() },
    );

    for (table, model, label) in [("wisdm", &wisdm_v1, "wisdm-v1"), ("twi", &twi, "twi-v1")] {
        for outcome in coord.deploy_model(table, model, label).unwrap() {
            outcome.result.unwrap_or_else(|e| {
                panic!("ship {label} to worker {} failed: {e}", outcome.worker)
            });
        }
    }

    let batch: Vec<ClusterQuery> = wisdm_queries
        .iter()
        .map(|q| ClusterQuery { table: "wisdm".into(), query: q.clone() })
        .chain(twi_queries.iter().map(|q| ClusterQuery { table: "twi".into(), query: q.clone() }))
        .collect();
    let expect_v1: Vec<u64> = wisdm_bits_v1.iter().chain(&twi_bits).copied().collect();

    // --- healthy cluster: every answer bit-identical --------------------
    let got = coord.estimate_batch(&batch);
    assert_eq!(got.len(), batch.len());
    for (i, (g, &e)) in got.iter().zip(&expect_v1).enumerate() {
        let v = g.as_ref().unwrap_or_else(|err| panic!("query {i} failed: {err}"));
        assert_eq!(v.to_bits(), e, "query {i}: cluster answer differs from direct inference");
    }

    // --- refresh under concurrent load ----------------------------------
    // hammer wisdm while v2 ships; every answer must be wholly v1 or
    // wholly v2 bits for its query — replicas flip atomically, so a
    // mid-refresh estimate can never mix versions
    let stop = AtomicBool::new(false);
    let wisdm_batch: Vec<ClusterQuery> = batch[..wisdm_queries.len()].to_vec();
    std::thread::scope(|s| {
        let hammers: Vec<_> = (0..2)
            .map(|_| {
                let (coord, stop, wisdm_batch) = (&coord, &stop, &wisdm_batch);
                let (wisdm_bits_v1, wisdm_bits_v2) = (&wisdm_bits_v1, &wisdm_bits_v2);
                s.spawn(move || {
                    let mut answered = 0usize;
                    while !stop.load(Relaxed) {
                        for (i, r) in coord.estimate_batch(wisdm_batch).iter().enumerate() {
                            let v = r.as_ref().expect("no worker died in this phase");
                            let b = v.to_bits();
                            assert!(
                                b == wisdm_bits_v1[i] || b == wisdm_bits_v2[i],
                                "query {i} answered {v} — neither v1 nor v2 bits: a mixed or \
                                 torn model answered during the refresh"
                            );
                            answered += 1;
                        }
                    }
                    answered
                })
            })
            .collect();

        for outcome in coord.deploy_model("wisdm", &wisdm_v2, "wisdm-v2").unwrap() {
            outcome.result.unwrap_or_else(|e| {
                panic!("refresh ship to worker {} failed: {e}", outcome.worker)
            });
        }
        stop.store(true, Relaxed);
        let answered: usize = hammers.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(answered > 0, "load threads never got an answer in");
    });

    // the flip is complete: every replica reports v2, answers are v2 bits
    for (wid, v) in coord.versions("wisdm") {
        let (version, label) = v.unwrap_or_else(|e| panic!("version probe {wid} failed: {e}"));
        assert_eq!((version, label.as_str()), (2, "wisdm-v2"), "worker {wid}");
    }
    for (i, r) in coord.estimate_batch(&wisdm_batch).iter().enumerate() {
        assert_eq!(r.as_ref().unwrap().to_bits(), wisdm_bits_v2[i], "query {i} after refresh");
    }

    // --- kill one replica mid-traffic ------------------------------------
    // stream batches from a thread; main kills a wisdm replica while the
    // stream runs. Non-skipped answers must stay bit-identical; once the
    // kill is absorbed, failover must answer the full batch again.
    let expect_v2: Vec<u64> = wisdm_bits_v2.iter().chain(&twi_bits).copied().collect();
    let victim = coord.placement().replicas("wisdm")[0];
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let hammer = {
            let (coord, stop, batch, expect_v2) = (&coord, &stop, &batch, &expect_v2);
            s.spawn(move || {
                let (mut answered, mut skipped) = (0usize, 0usize);
                while !stop.load(Relaxed) {
                    for (i, r) in coord.estimate_batch(batch).iter().enumerate() {
                        match r {
                            Ok(v) => {
                                assert_eq!(
                                    v.to_bits(),
                                    expect_v2[i],
                                    "query {i}: wrong bits while a worker was dying"
                                );
                                answered += 1;
                            }
                            Err(_) => skipped += 1,
                        }
                    }
                }
                (answered, skipped)
            })
        };

        std::thread::sleep(Duration::from_millis(50)); // let traffic start
        workers[victim].kill();
        std::thread::sleep(Duration::from_millis(200)); // keep streaming over the corpse
        stop.store(true, Relaxed);
        let (answered, skipped) = hammer.join().unwrap();
        assert!(answered > 0, "kill phase produced no answers at all");
        // skips are permitted only as a transient during the kill — the
        // surviving replica must keep every table answerable
        println!("kill phase: {answered} answered, {skipped} skipped");
    });

    // steady state after the kill: failover answers everything, same bits
    let got = coord.estimate_batch(&batch);
    for (i, (g, &e)) in got.iter().zip(&expect_v2).enumerate() {
        let v = g
            .as_ref()
            .unwrap_or_else(|err| panic!("query {i} still failing after failover: {err}"));
        assert_eq!(v.to_bits(), e, "query {i}: failover answer differs from direct inference");
    }

    // --- drain: survivors exit 0 on Shutdown -----------------------------
    coord.shutdown_cluster();
    for (wid, w) in workers.iter_mut().enumerate() {
        if wid != victim {
            w.wait_clean_exit(Duration::from_secs(30));
        }
    }
}
