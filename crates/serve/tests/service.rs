//! Integration tests for the serving layer: bitwise parity with direct
//! inference, backpressure, hot-swap/rollback, draining shutdown, and the
//! TCP front-end.

use iam_core::{IamConfig, IamEstimator};
use iam_data::synth::Dataset;
use iam_data::{RangeQuery, WorkloadConfig, WorkloadGenerator};
use iam_serve::{parse_query, ServeConfig, ServeError, Service, TcpFrontend, MAX_LINE_BYTES};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn tiny_model(seed: u64) -> IamEstimator {
    let table = Dataset::Twi.generate(800, seed);
    let cfg = IamConfig {
        components: 4,
        hidden: vec![24, 24],
        embed_dim: 6,
        epochs: 2,
        samples: 100,
        seed,
        ..IamConfig::default()
    };
    IamEstimator::fit(&table, cfg)
}

fn workload(seed: u64, n: usize) -> Vec<RangeQuery> {
    let table = Dataset::Twi.generate(800, seed);
    let mut gen = WorkloadGenerator::new(&table, WorkloadConfig::default(), seed ^ 0xABCD);
    gen.gen_queries(n).iter().map(|q| q.normalize(2).unwrap().0).collect()
}

/// The acceptance criterion: estimates served through the queue + batcher +
/// cache are bitwise identical to direct batched inference, from any number
/// of concurrent clients, regardless of how requests get coalesced.
#[test]
fn service_matches_direct_inference_bitwise() {
    let est = tiny_model(1);
    let queries = workload(1, 12);
    let direct = est.estimate_batch_shared(&queries, 1);

    let service = Service::start(
        est,
        "v1",
        ServeConfig {
            workers: 2,
            max_batch: 8,
            flush_interval: Duration::from_millis(5),
            ..ServeConfig::default()
        },
    );

    std::thread::scope(|s| {
        for t in 0..4 {
            let client = service.client();
            let queries = &queries;
            let direct = &direct;
            s.spawn(move || {
                // each thread walks the workload from a different offset so
                // batches mix different queries
                for i in 0..queries.len() {
                    let j = (i + t * 3) % queries.len();
                    let got = client.estimate(&queries[j]).expect("estimate failed");
                    assert_eq!(
                        got.to_bits(),
                        direct[j].to_bits(),
                        "query {j} served {got} but direct inference gave {}",
                        direct[j]
                    );
                }
            });
        }
    });

    // every answer is now cached: a re-query must hit
    let client = service.client();
    let (hits_before, _) = {
        let s = client.metrics();
        (s.cache_hits, s.cache_misses)
    };
    for (q, &d) in queries.iter().zip(&direct) {
        assert_eq!(client.estimate(q).unwrap().to_bits(), d.to_bits());
    }
    let snap = service.shutdown();
    assert!(
        snap.cache_hits >= hits_before + queries.len() as u64,
        "re-queries should all hit the cache: {snap:?}"
    );
    assert!(snap.batches > 0, "no batches executed");
    assert_eq!(snap.replies as usize, 4 * queries.len() + queries.len());
    assert_eq!(snap.timeouts, 0);
    assert_eq!(snap.overloaded, 0);
}

/// With no workers the queue never drains: once it is full, submissions
/// must be rejected immediately with `Overloaded` — not block — and the
/// queued requests time out.
#[test]
fn overloaded_queue_rejects_without_blocking() {
    let service = Service::start(
        tiny_model(2),
        "v1",
        ServeConfig { workers: 0, queue_depth: 2, cache_capacity: 0, ..ServeConfig::default() },
    );
    let queries = workload(2, 3);

    std::thread::scope(|s| {
        for q in &queries[..2] {
            let client = service.client();
            s.spawn(move || {
                assert_eq!(
                    client.estimate_timeout(q, Duration::from_millis(600)),
                    Err(ServeError::Timeout),
                    "queued request with no workers must time out"
                );
            });
        }
        // wait until both fillers are queued: the gauge counts a request
        // just before its send, so give the second send a moment to land
        let client = service.client();
        let t0 = Instant::now();
        while client.metrics().queue_depth < 2 {
            assert!(t0.elapsed() < Duration::from_secs(2), "fillers never enqueued");
            std::thread::sleep(Duration::from_millis(5));
        }
        std::thread::sleep(Duration::from_millis(50));
        let t1 = Instant::now();
        assert_eq!(
            client.estimate_timeout(&queries[2], Duration::from_millis(500)),
            Err(ServeError::Overloaded)
        );
        assert!(
            t1.elapsed() < Duration::from_millis(400),
            "overload rejection must not wait for the timeout"
        );
    });

    let snap = service.shutdown();
    assert_eq!(snap.overloaded, 1);
    assert_eq!(snap.timeouts, 2);
}

/// `timeouts` counts every `Timeout` a caller received, whichever side
/// noticed the deadline: the client's own wait running out, or the worker
/// expiring the request and replying `Err(Timeout)`. One worker answering
/// one query per batch cannot finish 64 queries inside the shared deadline,
/// so most of them reach the worker already expired.
#[test]
fn timeouts_counts_every_timeout_returned() {
    let est = tiny_model(8);
    let queries = workload(8, 64);
    let direct = est.estimate_batch_shared(&queries, 1);
    let service = Service::start(
        est,
        "v1",
        ServeConfig { workers: 1, max_batch: 1, cache_capacity: 0, ..ServeConfig::default() },
    );

    let results = service.client().estimate_many_timeout(&queries, Duration::from_millis(1));
    let mut timed_out = 0u64;
    for (i, (res, d)) in results.iter().zip(&direct).enumerate() {
        match res {
            Ok(v) => assert_eq!(v.to_bits(), d.to_bits(), "query {i}"),
            Err(ServeError::Timeout) => timed_out += 1,
            Err(e) => panic!("query {i}: {e}"),
        }
    }
    let snap = service.shutdown();
    assert_eq!(snap.timeouts, timed_out, "{snap:?}");
}

/// Hot-swapping changes which model answers; version-tagged cache entries
/// from the old model are never served; rollback restores the old answers.
#[test]
fn hot_swap_and_rollback_change_answers() {
    let est_a = tiny_model(3);
    let est_b = tiny_model(4);
    let queries = workload(3, 4);
    let direct_a = est_a.estimate_batch_shared(&queries, 1);
    let direct_b = est_b.estimate_batch_shared(&queries, 1);
    // the two trainings must actually disagree for this test to mean much
    assert!(direct_a.iter().zip(&direct_b).any(|(a, b)| a.to_bits() != b.to_bits()));

    let service = Service::start(est_a, "run-a", ServeConfig { workers: 1, ..Default::default() });
    let client = service.client();
    for (q, &d) in queries.iter().zip(&direct_a) {
        assert_eq!(client.estimate(q).unwrap().to_bits(), d.to_bits());
    }

    let id = service.swap_model(est_b, "run-b");
    assert_eq!(id, 2);
    assert_eq!(service.current_version(), (2, "run-b".to_string()));
    for (q, &d) in queries.iter().zip(&direct_b) {
        assert_eq!(
            client.estimate(q).unwrap().to_bits(),
            d.to_bits(),
            "swap must invalidate cached answers from run-a"
        );
    }

    assert_eq!(service.rollback_model().unwrap(), 1);
    for (q, &d) in queries.iter().zip(&direct_a) {
        assert_eq!(client.estimate(q).unwrap().to_bits(), d.to_bits());
    }

    let snap = service.shutdown();
    assert_eq!(snap.model_swaps, 2);
}

/// `refresh_model` retrains a clone of the active model and hot-swaps it in,
/// and the training thread count never changes the refreshed answers — two
/// services refreshed from the same version with different `train_threads`
/// must serve bitwise-identical estimates.
#[test]
fn refresh_model_is_train_thread_invariant() {
    let table = Dataset::Twi.generate(800, 11);
    let base = tiny_model(11);
    let queries = workload(11, 4);
    let direct_before = base.estimate_batch_shared(&queries, 1);

    let svc_a =
        Service::start(base.clone(), "v1", ServeConfig { workers: 1, ..Default::default() });
    let svc_b = Service::start(base, "v1", ServeConfig { workers: 1, ..Default::default() });

    let id_a = svc_a.refresh_model(&table, 2, 1, "refresh-1t");
    let id_b = svc_b.refresh_model(&table, 2, 2, "refresh-2t");
    assert_eq!(id_a, 2);
    assert_eq!(id_b, 2);
    assert_eq!(svc_a.current_version(), (2, "refresh-1t".to_string()));

    let (ca, cb) = (svc_a.client(), svc_b.client());
    let mut any_changed = false;
    for (i, q) in queries.iter().enumerate() {
        let a = ca.estimate(q).unwrap();
        let b = cb.estimate(q).unwrap();
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "query {i}: 1-thread refresh served {a}, 2-thread refresh served {b}"
        );
        any_changed |= a.to_bits() != direct_before[i].to_bits();
    }
    assert!(any_changed, "two extra epochs should move at least one estimate");

    let snap = svc_a.shutdown();
    assert_eq!(snap.model_swaps, 1);
    svc_b.shutdown();
}

/// Estimates issued while `refresh_model` hot-swaps the registry are
/// answered entirely by the old or entirely by the new version — every
/// observed answer matches one of the two direct-inference bit patterns,
/// and after the swap completes only new-version bits are served.
#[test]
fn hot_swap_under_concurrent_load_never_mixes_versions() {
    use std::sync::atomic::{AtomicBool, Ordering::Relaxed};

    let table = Dataset::Twi.generate(800, 15);
    let old = tiny_model(15);
    let mut new = old.clone();
    new.train_epochs(&table, 2);
    let queries = workload(15, 6);
    let old_bits: Vec<u64> =
        old.estimate_batch_shared(&queries, 1).iter().map(|v| v.to_bits()).collect();
    let new_bits: Vec<u64> =
        new.estimate_batch_shared(&queries, 1).iter().map(|v| v.to_bits()).collect();
    assert_ne!(old_bits, new_bits, "refresh must actually change some answer");

    // cache on: version-tagged entries must never leak across the swap
    let service = Service::start(old, "v1", ServeConfig { workers: 2, ..ServeConfig::default() });
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let loaders: Vec<_> = (0..3)
            .map(|t| {
                let client = service.client();
                let (stop, queries, old_bits, new_bits) = (&stop, &queries, &old_bits, &new_bits);
                s.spawn(move || {
                    let mut n = 0usize;
                    while !stop.load(Relaxed) {
                        let i = (n + t) % queries.len();
                        let got = client.estimate(&queries[i]).expect("estimate failed").to_bits();
                        assert!(
                            got == old_bits[i] || got == new_bits[i],
                            "query {i} answered bits {got:#x} matching neither version — \
                             a mixed or torn model was served during the swap"
                        );
                        n += 1;
                    }
                    n
                })
            })
            .collect();

        // same retrain as `new` (same data, threads, epochs): the swapped-in
        // model is bitwise the one whose answers we precomputed
        let id = service.refresh_model(&table, 2, 1, "v2");
        assert_eq!(id, 2);
        stop.store(true, Relaxed);
        let answered: usize = loaders.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(answered > 0, "load threads never ran during the swap");
    });

    // post-swap, only new-version answers remain (cache included)
    let client = service.client();
    for (i, q) in queries.iter().enumerate() {
        assert_eq!(client.estimate(q).unwrap().to_bits(), new_bits[i], "query {i} post-swap");
    }
    service.shutdown();
}

/// A snapshot that fails to parse must leave the active version serving.
#[test]
fn failed_load_rolls_back_to_active_version() {
    let est = tiny_model(5);
    let queries = workload(5, 2);
    let direct = est.estimate_batch_shared(&queries, 1);
    let service = Service::start(est, "v1", ServeConfig { workers: 1, ..Default::default() });
    let client = service.client();

    let err = service.load_model(&mut &b"IAM1 garbage"[..], "broken").unwrap_err();
    assert!(matches!(err, ServeError::Load(_)));
    assert_eq!(service.current_version().0, 1);
    for (q, &d) in queries.iter().zip(&direct) {
        assert_eq!(client.estimate(q).unwrap().to_bits(), d.to_bits());
    }
    service.shutdown();
}

/// Shutdown must drain: every request accepted into the queue gets a real
/// reply; requests arriving after the flag see `ShuttingDown`; nothing
/// times out.
#[test]
fn shutdown_drains_accepted_requests() {
    let service = Service::start(
        tiny_model(6),
        "v1",
        ServeConfig {
            workers: 1,
            max_batch: 64,
            flush_interval: Duration::from_millis(20),
            cache_capacity: 0,
            ..ServeConfig::default()
        },
    );
    let queries = workload(6, 8);

    let mut handles = Vec::new();
    for q in queries.clone() {
        let client = service.client();
        handles.push(std::thread::spawn(move || client.estimate(&q)));
    }
    // let some requests enter the queue, then drain
    std::thread::sleep(Duration::from_millis(5));
    let snap = service.shutdown();

    let mut answered = 0;
    for h in handles {
        match h.join().unwrap() {
            Ok(sel) => {
                assert!((0.0..=1.0).contains(&sel));
                answered += 1;
            }
            Err(ServeError::ShuttingDown) => {}
            Err(e) => panic!("drain lost a request: {e}"),
        }
    }
    assert_eq!(snap.timeouts, 0);
    assert_eq!(answered as u64, snap.replies, "every accepted request must be answered");
}

/// Arity mismatches are rejected before queueing.
#[test]
fn wrong_arity_is_a_bad_query() {
    let service = Service::start(tiny_model(7), "v1", ServeConfig::default());
    let client = service.client();
    assert_eq!(client.ncols(), 2);
    let q = RangeQuery::unconstrained(5);
    assert!(matches!(client.estimate(&q), Err(ServeError::BadQuery(_))));
    let snap = service.shutdown();
    assert_eq!(snap.bad_queries, 1);
}

/// Clients submit through the queue while a thread polls the registry's
/// queue-depth gauge: a worker may take a request before its submitter's
/// `try_send` returns, so the gauge is counted before the send, and it
/// must never read below 0.
#[test]
fn queue_depth_gauge_never_reads_negative_under_load() {
    let service = Service::start(
        tiny_model(12),
        "v1",
        ServeConfig { workers: 2, max_batch: 4, cache_capacity: 0, ..ServeConfig::default() },
    );
    let queries = workload(12, 16);
    let gauge = service.metrics_registry().gauge("iam_serve_queue_depth", &[]);
    let done = std::sync::atomic::AtomicBool::new(false);
    let lowest = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut lowest = 0;
            while !done.load(std::sync::atomic::Ordering::Relaxed) {
                lowest = lowest.min(gauge.get());
            }
            lowest
        });
        let clients: Vec<_> = (0..6)
            .map(|t| {
                let client = service.client();
                let queries = &queries;
                s.spawn(move || {
                    for i in 0..150 {
                        client.estimate(&queries[(i + t) % queries.len()]).expect("estimate");
                    }
                })
            })
            .collect();
        clients.into_iter().for_each(|c| c.join().unwrap());
        done.store(true, std::sync::atomic::Ordering::Relaxed);
        reader.join().unwrap()
    });
    assert_eq!(lowest, 0, "the queue-depth gauge read {lowest}");
    let snap = service.shutdown();
    assert_eq!((snap.queue_depth, snap.requests), (0, 900));
}

/// Pull one `series value` sample out of a Prometheus text exposition.
fn prom_value(prom: &str, series: &str) -> u64 {
    prom.lines()
        .find_map(|l| l.strip_prefix(series).and_then(|r| r.strip_prefix(' ')))
        .unwrap_or_else(|| panic!("series {series} missing from exposition:\n{prom}"))
        .parse()
        .unwrap_or_else(|_| panic!("series {series} is not a u64"))
}

/// After a concurrent run, STATS totals must equal the sum of per-worker
/// observations, and the Prometheus exposition must agree with the plain
/// snapshot series for series.
#[test]
fn concurrent_totals_consistent_across_expositions() {
    let service = Service::start(
        tiny_model(9),
        "v1",
        // cache off so every reply flows through the queue + batcher
        ServeConfig { workers: 2, cache_capacity: 0, ..ServeConfig::default() },
    );
    let queries = workload(9, 10);

    const THREADS: usize = 4;
    const PER_THREAD: usize = 10;
    let per_thread_ok: Vec<usize> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let client = service.client();
                let queries = &queries;
                s.spawn(move || {
                    let mut ok = 0usize;
                    for i in 0..PER_THREAD {
                        if client.estimate(&queries[(i + t) % queries.len()]).is_ok() {
                            ok += 1;
                        }
                    }
                    ok
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let total_ok: u64 = per_thread_ok.iter().map(|&n| n as u64).sum();

    // keep a client so the exposition can be rendered after the workers
    // have been joined (metrics are flushed by then, not merely racing)
    let client = service.client();
    let snap = service.shutdown();
    let prom = client.metrics_prometheus();

    assert_eq!(snap.requests, (THREADS * PER_THREAD) as u64);
    assert_eq!(snap.timeouts, 0, "{snap:?}");
    assert_eq!(snap.overloaded, 0, "{snap:?}");
    // the service's totals are exactly the sum of what the client threads saw
    assert_eq!(snap.replies, total_ok);
    // a disabled cache is never read, so it counts neither hits nor misses
    assert_eq!((snap.cache_hits, snap.cache_misses), (0, 0), "{snap:?}");

    // the Prometheus view and the STATS snapshot agree sample for sample
    assert_eq!(prom_value(&prom, "iam_serve_requests_total"), snap.requests);
    assert_eq!(prom_value(&prom, "iam_serve_latency_us_count"), snap.replies);
    assert_eq!(prom_value(&prom, "iam_serve_batches_total"), snap.batches);
    assert_eq!(prom_value(&prom, "iam_serve_batched_queries_total"), snap.batched_queries);
    // with the cache off, every reply was coalesced into some batch
    assert_eq!(prom_value(&prom, "iam_serve_batch_size_sum"), snap.replies);
    // the exposition also carries the process-global inference probes,
    // which other tests in this binary advance too — so only a lower bound
    assert!(prom_value(&prom, "iam_infer_queries_total") >= snap.batched_queries, "{prom}");
}

/// End-to-end over TCP: queries, VERSION, STATS, error replies, QUIT.
#[test]
fn tcp_frontend_serves_line_protocol() {
    let est = tiny_model(8);
    let query_line = "0=0.2..0.8 1=*..0.5";
    let rq = parse_query(query_line, 2).unwrap();
    let direct = est.estimate_batch_shared(std::slice::from_ref(&rq), 1)[0];

    let service = Service::start(est, "tcp-test", ServeConfig { workers: 1, ..Default::default() });
    let frontend = TcpFrontend::spawn(service.client(), "127.0.0.1:0").unwrap();

    let stream = TcpStream::connect(frontend.addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let write = |s: &str| {
        let mut w = &stream;
        writeln!(w, "{s}").unwrap();
    };
    let mut read_line = || {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line.trim_end().to_string()
    };

    write("VERSION");
    assert_eq!(read_line(), "1 tcp-test");

    write(query_line);
    assert_eq!(read_line(), format!("{direct:.6}"));

    // same line again: answered from cache, same bits
    write(query_line);
    assert_eq!(read_line(), format!("{direct:.6}"));

    write("this is not a query");
    assert!(read_line().starts_with("ERR "));

    write("STATS");
    let mut stats = Vec::new();
    loop {
        let l = read_line();
        if l == "END" {
            break;
        }
        stats.push(l);
    }
    assert!(stats.iter().any(|l| l.starts_with("requests_total ")));
    assert!(
        stats.iter().any(|l| l == "cache_hits 1"),
        "second query should have hit the cache: {stats:?}"
    );

    write("STATS PROM");
    let mut prom = Vec::new();
    loop {
        let l = read_line();
        if l == "END" {
            break;
        }
        prom.push(l);
    }
    assert!(prom.contains(&"# TYPE iam_serve_requests_total counter".to_string()), "{prom:?}");
    assert!(prom.iter().any(|l| l == "iam_serve_cache_hits_total 1"), "{prom:?}");
    assert!(prom.iter().any(|l| l.starts_with("iam_serve_latency_us_bucket{le=\"+Inf\"}")));

    write("QUIT");
    frontend.stop();
    service.shutdown();
}

/// `TcpFrontend::stop` must end handler threads even while a connection is
/// open and idle mid-session — no leaked threads, no hang — and the peer
/// then observes a closed socket.
#[test]
fn tcp_frontend_stop_closes_idle_connections() {
    let service = Service::start(tiny_model(12), "v1", ServeConfig::default());
    let frontend = TcpFrontend::spawn(service.client(), "127.0.0.1:0").unwrap();

    // open a connection, exchange one round-trip, then go idle (no QUIT)
    let stream = TcpStream::connect(frontend.addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    {
        let mut w = &stream;
        writeln!(w, "VERSION").unwrap();
    }
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "1 v1");

    // stop() joins the accept loop AND the open handler; bound the wall
    // time so a hang fails fast instead of wedging the test binary
    let t0 = Instant::now();
    frontend.stop();
    assert!(t0.elapsed() < Duration::from_secs(2), "stop() must not wait on idle connections");

    // the handler dropped its end: the client sees EOF (or a reset)
    stream.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    let mut buf = [0u8; 1];
    match reader.read(&mut buf) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!("expected closed socket, read {n} bytes"),
    }
    service.shutdown();
}

/// A line longer than [`MAX_LINE_BYTES`] is answered with `ERR line too
/// long` and the connection is closed — the server never buffers unbounded
/// input and never panics.
#[test]
fn tcp_frontend_rejects_oversized_lines() {
    let service = Service::start(tiny_model(13), "v1", ServeConfig::default());
    let frontend = TcpFrontend::spawn(service.client(), "127.0.0.1:0").unwrap();

    let stream = TcpStream::connect(frontend.addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    {
        // a newline-less flood well past the bound
        let chunk = vec![b'a'; MAX_LINE_BYTES + 1024];
        let mut w = &stream;
        w.write_all(&chunk).unwrap();
        w.flush().unwrap();
    }
    let mut line = String::new();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim_end(), "ERR line too long");
    // connection is closed afterwards
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0, "server must close after ERR");

    // the front-end survives: a fresh connection still serves
    let stream2 = TcpStream::connect(frontend.addr).unwrap();
    let mut reader2 = BufReader::new(stream2.try_clone().unwrap());
    {
        let mut w = &stream2;
        writeln!(w, "VERSION").unwrap();
    }
    let mut line2 = String::new();
    reader2.read_line(&mut line2).unwrap();
    assert_eq!(line2.trim_end(), "1 v1");

    frontend.stop();
    service.shutdown();
}

/// The line bound holds while bytes keep arriving: a client streaming one
/// newline-less line without ever pausing is answered `ERR line too long`
/// and cut off within a second, not buffered for as long as it streams.
#[test]
fn tcp_frontend_bounds_a_line_streamed_without_pause() {
    let service = Service::start(tiny_model(16), "v1", ServeConfig::default());
    let frontend = TcpFrontend::spawn(service.client(), "127.0.0.1:0").unwrap();
    let stream = TcpStream::connect(frontend.addr).unwrap();
    let t0 = Instant::now();
    let reader = {
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        std::thread::spawn(move || {
            let mut line = String::new();
            let ok = reader.read_line(&mut line).is_ok() && line == "ERR line too long\n";
            ok.then(|| t0.elapsed())
        })
    };
    let chunk = [b'a'; 16 * 1024];
    let mut write_failed = None;
    while write_failed.is_none() && t0.elapsed() < Duration::from_secs(3) {
        write_failed = (&stream).write_all(&chunk).is_err().then(|| t0.elapsed());
    }
    // unblocks the reader if no reply ever came
    let _ = stream.shutdown(std::net::Shutdown::Both);
    let replied = reader.join().unwrap();
    let cut_off = write_failed.into_iter().chain(replied).min();
    assert!(
        cut_off.is_some_and(|t| t < Duration::from_secs(1)),
        "write failed at {write_failed:?}, ERR read at {replied:?}"
    );
    frontend.stop();
    service.shutdown();
}

/// Garbage on the line protocol — including non-UTF-8 bytes — gets an
/// `ERR` reply, the connection stays open, and valid queries still work
/// afterwards. No input may panic the handler.
#[test]
fn tcp_frontend_survives_garbage_lines() {
    let est = tiny_model(14);
    let rq = parse_query("0=0.1..0.9", 2).unwrap();
    let direct = est.estimate_batch_shared(std::slice::from_ref(&rq), 1)[0];
    let service = Service::start(est, "v1", ServeConfig { workers: 1, ..Default::default() });
    let frontend = TcpFrontend::spawn(service.client(), "127.0.0.1:0").unwrap();

    let stream = TcpStream::connect(frontend.addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut read_line = || {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line.trim_end().to_string()
    };

    let garbage: &[&[u8]] = &[
        b"\xff\xfe\x00\x80 binary junk\n",
        b"0=NaN..2\n",
        b"0=1..2 9999999999999999999999=3\n",
        b"=..=..=\n",
        b"0=1e400..2\n", // overflows f64 parsing to inf — still a reply, not a panic
    ];
    for g in garbage {
        let mut w = &stream;
        w.write_all(g).unwrap();
        w.flush().unwrap();
        let reply = read_line();
        assert!(
            reply.starts_with("ERR ") || reply.parse::<f64>().is_ok(),
            "garbage {g:?} produced unexpected reply {reply:?}"
        );
    }

    // the same connection still answers real queries, bit-identically
    {
        let mut w = &stream;
        writeln!(w, "0=0.1..0.9").unwrap();
    }
    assert_eq!(read_line(), format!("{direct:.6}"));

    frontend.stop();
    service.shutdown();
}
