//! Accuracy-observability integration: the TRACKED/REPORT feedback loop
//! over the TCP front-end, q-error histograms in every exposition, and
//! deterministic bucket ordering across views.

use iam_core::{IamConfig, IamEstimator};
use iam_data::exec::exact_selectivity_ranges;
use iam_data::synth::Dataset;
use iam_data::{RangeQuery, WorkloadConfig, WorkloadGenerator};
use iam_serve::{parse_query, render_query, ServeConfig, Service, TcpFrontend};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

fn tiny_model(seed: u64) -> (IamEstimator, iam_data::Table) {
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
    (IamEstimator::fit(&table, cfg), table)
}

fn qerror_config() -> ServeConfig {
    ServeConfig { qerror_capacity: 64, ..ServeConfig::default() }
}

/// Send `command` and collect the reply lines up to `END`.
fn read_block(out: &mut TcpStream, reader: &mut BufReader<TcpStream>, command: &str) -> String {
    writeln!(out, "{command}").unwrap();
    out.flush().unwrap();
    let mut block = String::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        if line.trim() == "END" {
            return block;
        }
        block.push_str(&line);
    }
}

fn send_line(out: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
    writeln!(out, "{line}").unwrap();
    out.flush().unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    reply.trim().to_string()
}

/// The paper's floored q-error, recomputed independently of the tracker.
fn expected_q(est: f64, true_count: u64, nrows: u64) -> f64 {
    let floor = 1.0 / nrows as f64;
    let e = est.max(floor);
    let a = (true_count as f64 / nrows as f64).max(floor);
    (e / a).max(a / e)
}

#[test]
fn report_feedback_loop_over_tcp() {
    let (est, table) = tiny_model(3);
    let nrows = table.nrows() as u64;
    let service = Service::start(est, "v1", qerror_config());
    let front = TcpFrontend::spawn(service.client(), "127.0.0.1:0").unwrap();

    let stream = TcpStream::connect(front.addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut out = stream;

    // TRACKED answers `<qid> <estimate>`; qid matches the canonical key
    let reply = send_line(&mut out, &mut reader, "TRACKED 0=1..40 1=2..50");
    let (qid_s, est_s) = reply.split_once(' ').expect("qid estimate");
    let qid: u64 = qid_s.parse().unwrap();
    let estimate: f64 = est_s.parse().unwrap();
    let rq = parse_query("0=1..40 1=2..50", 2).unwrap();
    assert_eq!(qid, rq.canonical_key());

    // the client executes the query and reports the observed true count
    let true_count = (exact_selectivity_ranges(&table, &rq) * nrows as f64).round() as u64;
    let reply = send_line(&mut out, &mut reader, &format!("REPORT {qid} {true_count}"));
    let q: f64 = reply.strip_prefix("OK ").expect(&reply).parse().unwrap();
    let want = expected_q(estimate, true_count, nrows);
    assert!((q - want).abs() < 1e-4, "q-error {q} vs recomputed {want}");
    assert!(q >= 1.0);

    // a bogus qid is an ERR, not a connection problem
    let reply = send_line(&mut out, &mut reader, "REPORT 12345 10");
    assert_eq!(reply, "ERR no record for qid");
    let reply = send_line(&mut out, &mut reader, "REPORT nonsense");
    assert!(reply.starts_with("ERR usage"), "{reply}");

    // STATS carries the resolved report and its histogram
    let stats = read_block(&mut out, &mut reader, "STATS");
    // reports counts attempts (1 matched + 1 bogus qid), unmatched the misses
    assert!(stats.contains("qerror_reports 2"), "{stats}");
    assert!(stats.contains("qerror_unmatched 1"), "{stats}");
    assert!(stats.contains("qerror_milli_p50"), "{stats}");

    // PROM exposition has the q-error family too
    let prom = read_block(&mut out, &mut reader, "STATS PROM");
    assert!(prom.contains("# TYPE iam_qerror_milli histogram"), "{prom}");
    assert!(prom.contains("iam_qerror_reports_total 2"), "{prom}");
    assert!(prom.contains("iam_qerror_unmatched_total 1"), "{prom}");
    assert!(prom.contains("iam_qerror_col_mean{col=\"0\"}"), "{prom}");

    // a q-error past the last finite bucket (100×) reads as the largest
    // observation in STATS, not as the catch-all bound u64::MAX
    let reply = send_line(&mut out, &mut reader, "TRACKED 0=1..60");
    let (qid_s, est_s) = reply.split_once(' ').expect("qid estimate");
    let estimate: f64 = est_s.parse().unwrap();
    let reply = send_line(&mut out, &mut reader, &format!("REPORT {qid_s} 0"));
    let q: f64 = reply.strip_prefix("OK ").expect(&reply).parse().unwrap();
    assert!(q > 100.0, "estimate {estimate} against 0 true rows of {nrows}: q = {q}");
    let stats = read_block(&mut out, &mut reader, "STATS");
    let max_milli = (expected_q(estimate, 0, nrows) * 1000.0).round() as u64;
    assert!(stats.contains(&format!("qerror_milli_p99 {max_milli}\n")), "{stats}");
    assert!(!stats.contains(&u64::MAX.to_string()), "{stats}");

    writeln!(out, "QUIT").unwrap();
    out.flush().unwrap();
    front.stop();
    service.shutdown();
}

#[test]
fn seeded_workload_hits_expected_percentile_bits() {
    // Deterministic end-to-end accuracy run: every workload query is
    // estimated, executed exactly, and reported; the resulting p50/p95
    // must land in fixed milli-q buckets for this (model seed, workload
    // seed) pair — any change to estimator numerics or the q-error
    // pipeline that shifts them is a regression to investigate.
    let (est, table) = tiny_model(5);
    let nrows = table.nrows() as u64;
    let service = Service::start(est, "v1", qerror_config());
    let client = service.client();

    let mut gen = WorkloadGenerator::new(&table, WorkloadConfig::default(), 0xFEED);
    let queries: Vec<RangeQuery> =
        gen.gen_queries(32).iter().map(|q| q.normalize(2).unwrap().0).collect();

    let mut qs = Vec::new();
    for rq in &queries {
        let estimate = client.estimate(rq).unwrap();
        let true_count = (exact_selectivity_ranges(&table, rq) * nrows as f64).round() as u64;
        let q = service
            .report_true_count(rq.canonical_key(), true_count)
            .expect("capacity covers the whole workload");
        qs.push(q);
        assert!((q - expected_q(estimate, true_count, nrows)).abs() < 1e-9);
    }

    // the snapshot's bucketed percentiles agree with an exact recomputation
    let snap = service.metrics();
    assert_eq!(snap.qerror_reports, queries.len() as u64);
    assert_eq!(snap.qerror_unmatched, 0);
    let mut sorted = qs.clone();
    sorted.sort_by(f64::total_cmp);
    let exact_p50 = sorted[(sorted.len() - 1) / 2];
    let exact_p95 =
        sorted[((sorted.len() as f64 * 0.95).ceil() as usize - 1).min(sorted.len() - 1)];
    let bucket_of = |q: f64| {
        iam_obs::qerror::QERROR_MILLI_BOUNDS
            .iter()
            .copied()
            .find(|&b| (q * 1000.0).round() as u64 <= b)
            .unwrap()
    };
    assert_eq!(snap.qerror_p50_milli, bucket_of(exact_p50), "p50 bucket");
    assert_eq!(snap.qerror_p95_milli, bucket_of(exact_p95), "p95 bucket");
    assert!(snap.qerror_p95_milli >= snap.qerror_p50_milli);

    // reservoir dump is sorted by qid and carries the canonical predicate
    let records = service.qerror_records();
    assert_eq!(records.len(), queries.len());
    assert!(records.windows(2).all(|w| w[0].qid < w[1].qid));
    for r in &records {
        let back = parse_query(&r.predicate, 2).expect("predicate parses");
        assert_eq!(back.canonical_key(), r.qid, "predicate text matches qid");
        assert_eq!(r.nrows, nrows);
        assert_eq!(r.model_version, 1);
    }

    service.shutdown();
}

#[test]
fn bucket_ordering_is_deterministic_across_expositions() {
    let (est, table) = tiny_model(9);
    let nrows = table.nrows() as u64;
    let service = Service::start(est, "v1", qerror_config());
    let client = service.client();
    let mut gen = WorkloadGenerator::new(&table, WorkloadConfig::default(), 0xBEEF);
    for rq in gen.gen_queries(8).iter().map(|q| q.normalize(2).unwrap().0) {
        client.estimate(&rq).unwrap();
        let true_count = (exact_selectivity_ranges(&table, &rq) * nrows as f64).round() as u64;
        service.report_true_count(rq.canonical_key(), true_count);
    }

    // STATS view: qerror bucket lines ascend by bound, catch-all last
    let stats = service.metrics().render();
    let bounds: Vec<u64> = stats
        .lines()
        .filter_map(|l| l.strip_prefix("qerror_milli_bucket_le_"))
        .filter_map(|l| l.split(' ').next())
        .map(|b| b.parse().unwrap())
        .collect();
    assert!(!bounds.is_empty());
    assert!(bounds.windows(2).all(|w| w[0] < w[1]), "sorted STATS buckets: {bounds:?}");
    assert!(
        stats
            .lines()
            .rev()
            .find(|l| l.starts_with("qerror_milli_bucket"))
            .unwrap()
            .starts_with("qerror_milli_bucket_inf"),
        "catch-all renders last"
    );

    // PROM view: same family, same ascending le= order
    let prom = service.metrics_prometheus();
    let les: Vec<String> = prom
        .lines()
        .filter(|l| l.starts_with("iam_qerror_milli_bucket"))
        .filter_map(|l| l.split("le=\"").nth(1))
        .filter_map(|l| l.split('"').next())
        .map(str::to_string)
        .collect();
    let finite: Vec<u64> = les.iter().filter_map(|s| s.parse().ok()).collect();
    assert_eq!(finite.len() + 1, les.len(), "exactly one +Inf catch-all");
    assert_eq!(les.last().map(String::as_str), Some("+Inf"));
    assert!(finite.windows(2).all(|w| w[0] < w[1]), "sorted PROM buckets: {finite:?}");
    assert_eq!(finite, bounds[..bounds.len()].to_vec(), "STATS and PROM agree on bucket keys");

    // render_query degenerate case used by the reservoir dump
    assert_eq!(render_query(&RangeQuery::unconstrained(2)), "*");

    service.shutdown();
}
