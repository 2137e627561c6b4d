//! Coordinator contracts over in-process workers: the error each request
//! reports when the cluster cannot answer it, how a slow-but-alive replica
//! spends a batch's shared deadline, the scrape endpoint with an idle
//! connection open, and round trips that never wait out a delayed ACK.

use iam_core::{IamConfig, IamEstimator};
use iam_data::synth::Dataset;
use iam_data::{RangeQuery, WorkloadConfig, WorkloadGenerator};
use iam_dist::{
    ClusterQuery, Coordinator, DistConfig, DistError, MetricsFrontend, PlacementMap, WorkerConfig,
    WorkerHandle,
};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn worker() -> WorkerHandle {
    WorkerHandle::spawn("127.0.0.1:0", WorkerConfig::default()).expect("spawn worker")
}

fn batch(table: &str, queries: &[RangeQuery]) -> Vec<ClusterQuery> {
    queries.iter().map(|q| ClusterQuery { table: table.into(), query: q.clone() }).collect()
}

#[test]
fn unanswerable_requests_report_their_contracted_errors() {
    let workers = [worker(), worker()];
    // "t" is placed on both workers, but no snapshot was ever shipped
    let addrs = workers.iter().map(|w| w.addr).collect();
    let coord = Coordinator::new(addrs, &["t"], DistConfig::default());
    let queries = vec![RangeQuery::unconstrained(2); 3];

    // a batch retries each replica's application error and reports the
    // exhausted rotation; a statement reports the worker's reason
    for r in coord.estimate_batch(&batch("t", &queries)) {
        assert!(
            matches!(&r, Err(DistError::NoReplica { table, tried: 2 }) if table == "t"),
            "{r:?}"
        );
    }
    match coord.sql("SELECT COUNT(*) FROM t") {
        Err(DistError::Remote(reason)) => assert!(reason.contains("unknown table"), "{reason}"),
        other => panic!("expected the worker's reason, got {other:?}"),
    }
    // a table that was never placed fails before any RPC
    for r in coord.estimate_batch(&batch("nope", &queries)) {
        assert!(matches!(&r, Err(DistError::UnknownTable(t)) if t == "nope"), "{r:?}");
    }
    let err = coord.sql("SELECT COUNT(*) FROM nope");
    assert!(matches!(err, Err(DistError::UnknownTable(_))), "{err:?}");

    for w in workers {
        w.stop();
    }
}

#[test]
fn slow_replica_spends_the_shared_deadline_then_rotation_moves_on() {
    let table = Dataset::Twi.generate(800, 3);
    let cfg = IamConfig {
        components: 4,
        hidden: vec![16, 16],
        embed_dim: 6,
        epochs: 1,
        samples: 60,
        seed: 3,
        ..IamConfig::default()
    };
    let model = IamEstimator::fit(&table, cfg);
    let mut gen = WorkloadGenerator::new(&table, WorkloadConfig::default(), 7);
    let queries: Vec<RangeQuery> =
        gen.gen_queries(4).iter().map(|q| q.normalize(table.ncols()).unwrap().0).collect();
    let direct = model.estimate_batch_shared(&queries, 1);

    // bound but never accepted: the kernel completes every handshake and
    // buffers every request, and no reply ever comes — slow, not dead
    let slow = TcpListener::bind("127.0.0.1:0").expect("bind the slow replica");
    let healthy = worker();
    // the first batch's rotation starts at replicas[0]: make that the slow one
    let first = PlacementMap::new(&["t"], 2, 2).replicas("t")[0];
    let mut addrs = vec![healthy.addr; 2];
    addrs[first] = slow.local_addr().unwrap();
    let rpc_timeout = Duration::from_millis(300);
    let cfg = DistConfig { rpc_timeout, ship_timeout: rpc_timeout, ..DistConfig::default() };
    let coord = Coordinator::new(addrs, &["t"], cfg);
    for ship in coord.deploy_model("t", &model, "v1").unwrap() {
        assert_eq!(ship.result.is_ok(), ship.worker != first, "{ship:?}");
    }

    let cluster_batch = batch("t", &queries);
    let t0 = Instant::now();
    let got = coord.estimate_batch(&cluster_batch);
    let waited = t0.elapsed();
    assert!(waited < rpc_timeout + Duration::from_millis(250), "batch took {waited:?}");
    for r in got {
        assert!(matches!(r, Err(DistError::NoReplica { tried: 2, .. })), "{r:?}");
    }

    // the next batch starts at the healthy replica and answers bit-identically
    for (r, d) in coord.estimate_batch(&cluster_batch).iter().zip(&direct) {
        assert_eq!(r.as_ref().expect("healthy replica answers").to_bits(), d.to_bits());
    }
    healthy.stop();
}

#[test]
fn idle_scrape_connection_stalls_neither_scrapes_nor_stop() {
    let w = worker();
    let coord = Arc::new(Coordinator::new(vec![w.addr], &["t"], DistConfig::default()));
    let front = MetricsFrontend::spawn(coord, "127.0.0.1:0").expect("metrics bind");
    // connections are accepted in order: this one is taken first and
    // never sends a request
    let _idle = TcpStream::connect(front.addr).expect("idle connect");

    let t0 = Instant::now();
    let mut scrape = TcpStream::connect(front.addr).expect("scrape connect");
    scrape.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").expect("scrape request");
    let mut response = String::new();
    scrape.read_to_string(&mut response).expect("scrape response");
    assert!(response.starts_with("HTTP/1.0 200 OK"), "{response}");
    assert!(t0.elapsed() < Duration::from_secs(1), "scrape took {:?}", t0.elapsed());

    let t0 = Instant::now();
    front.stop();
    assert!(t0.elapsed() < Duration::from_secs(1), "stop took {:?}", t0.elapsed());
    w.stop();
}

#[test]
fn round_trips_do_not_wait_out_delayed_acks() {
    // a frame split over two writes, or a socket left with Nagle on,
    // costs a round trip the peer's delayed ACK (≈ 40 ms on Linux): 20
    // pings would take ≈ 830 ms; on loopback they take well under 10 ms
    let w = worker();
    let coord = Coordinator::new(vec![w.addr], &["t"], DistConfig::default());
    coord.ping(0).expect("warm-up ping connects");
    let start = Instant::now();
    for _ in 0..20 {
        coord.ping(0).expect("ping");
    }
    let took = start.elapsed();
    w.stop();
    assert!(took < Duration::from_millis(200), "20 pings took {took:?}");
}
