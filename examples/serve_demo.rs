//! End-to-end demo of the `iam-serve` estimation service.
//!
//! Trains two model versions on WISDM-like sensor data, starts the service,
//! drives it from concurrent client threads (with repeated queries so the
//! cache earns its keep), hot-swaps to the second version mid-traffic,
//! exercises the TCP line protocol, and prints the final metrics.
//!
//! Run with: `cargo run --release --example serve_demo -p iam-serve`

use iam_core::{IamConfig, IamEstimator};
use iam_data::synth::Dataset;
use iam_data::{RangeQuery, WorkloadConfig, WorkloadGenerator};
use iam_serve::{ServeConfig, Service, TcpFrontend};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Barrier;
use std::time::Duration;

const CLIENT_THREADS: usize = 8;
const POOL: usize = 60; // distinct queries; clients revisit them → cache hits
const REQUESTS_PER_ROUND: usize = 150;

fn train(label: &str, epochs: usize, seed: u64, table: &iam_data::Table) -> IamEstimator {
    println!("training {label} ({epochs} epochs, seed {seed}) …");
    let cfg = IamConfig {
        components: 8,
        hidden: vec![48, 48],
        embed_dim: 8,
        epochs,
        samples: 200,
        seed,
        ..IamConfig::small()
    };
    IamEstimator::fit(table, cfg)
}

fn main() {
    let table = Dataset::Wisdm.generate(20_000, 42);
    let ncols = table.ncols();
    let v1 = train("v1", 2, 7, &table);
    let v2 = train("v2", 4, 8, &table);

    let mut gen = WorkloadGenerator::new(&table, WorkloadConfig::default(), 99);
    let pool: Vec<RangeQuery> =
        gen.gen_queries(POOL).iter().map(|q| q.normalize(ncols).unwrap().0).collect();

    let service = Service::start(
        v1,
        "wisdm-v1",
        ServeConfig {
            workers: 2,
            max_batch: 16,
            flush_interval: Duration::from_millis(2),
            ..ServeConfig::default()
        },
    );
    println!("service up, version {:?}", service.current_version());

    // two rounds of traffic from CLIENT_THREADS concurrent clients, with a
    // model hot-swap on the barrier between them
    let barrier = Barrier::new(CLIENT_THREADS + 1);
    std::thread::scope(|s| {
        for t in 0..CLIENT_THREADS {
            let client = service.client();
            let pool = &pool;
            let barrier = &barrier;
            s.spawn(move || {
                for round in 0..2 {
                    for i in 0..REQUESTS_PER_ROUND {
                        // stride differently per thread so identical queries
                        // collide across threads (cache + in-batch dedupe)
                        let q = &pool[(i * (t + 1) + round) % pool.len()];
                        match client.estimate(q) {
                            Ok(sel) => debug_assert!((0.0..=1.0).contains(&sel)),
                            Err(e) => println!("thread {t}: {e}"),
                        }
                    }
                    barrier.wait(); // round done
                    barrier.wait(); // wait for the swap (main thread)
                }
            });
        }
        // main: swap between rounds, while traffic threads are parked
        barrier.wait();
        let mid = service.metrics();
        println!(
            "round 1 done on v1: {} requests, mean batch {:.2}, hit rate {:.1}%",
            mid.requests,
            mid.mean_batch,
            100.0 * mid.cache_hit_rate()
        );
        let id = service.swap_model(v2, "wisdm-v2");
        println!("hot-swapped to version {id} mid-traffic");
        barrier.wait();
        // round 2 runs against v2 …
        barrier.wait();
        barrier.wait();
    });

    // the TCP front-end speaks the same protocol over a socket
    let frontend = TcpFrontend::spawn(service.client(), "127.0.0.1:0").expect("bind TCP");
    println!("\nTCP front-end on {}", frontend.addr);
    let stream = TcpStream::connect(frontend.addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut send = |line: &str| {
        let mut w = &stream;
        writeln!(w, "{line}").expect("send");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reply");
        println!("  → {line}\n  ← {}", reply.trim_end());
    };
    send("VERSION");
    send("0=1 2=*..0.0");
    send("0=1 2=*..0.0"); // second time: served from cache, same bits
    send("not-a-query");
    {
        let mut w = &stream;
        writeln!(w, "QUIT").expect("send");
    }
    frontend.stop();

    let snap = service.shutdown();
    println!("\nfinal metrics\n-------------\n{}", snap.render());

    // the properties this demo exists to show
    assert!(snap.max_batch > 1, "no micro-batching happened (max batch 1)");
    assert!(snap.cache_hit_rate() > 0.0, "cache never hit");
    assert_eq!(snap.timeouts, 0, "requests timed out");
    assert!(snap.model_swaps >= 1, "no hot swap recorded");
    println!(
        "OK: coalesced up to {} requests/batch (mean {:.2}), cache hit rate {:.1}%, {} swap(s)",
        snap.max_batch,
        snap.mean_batch,
        100.0 * snap.cache_hit_rate(),
        snap.model_swaps
    );
}
