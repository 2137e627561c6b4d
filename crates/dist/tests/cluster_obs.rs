//! Cluster-wide observability acceptance: one scattered batch across
//! three worker **processes** produces a single stitched trace tree
//! (coordinator spans plus per-worker spans parented under `dist.rpc`),
//! workers still decode old-version (v1) frames, and the coordinator's
//! merged Prometheus exposition carries per-worker labels — both via
//! [`Coordinator::cluster_prometheus`] and over the HTTP scrape endpoint.

use iam_core::{IamConfig, IamEstimator};
use iam_data::synth::Dataset;
use iam_data::{RangeQuery, WorkloadConfig, WorkloadGenerator};
use iam_dist::proto::{read_frame, write_frame};
use iam_dist::{ClusterQuery, Coordinator, DistConfig, MetricsFrontend, Msg};
use iam_obs::tracetree::{self, SpanRecord, TraceTree};
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;

/// One worker child process; killed on drop so a failing test never leaks
/// processes.
struct WorkerProc {
    child: Child,
    addr: SocketAddr,
}

impl WorkerProc {
    fn spawn(label: &str) -> WorkerProc {
        let mut child = Command::new(env!("CARGO_BIN_EXE_iam-dist-worker"))
            .args(["--addr", "127.0.0.1:0", "--serve-workers", "1", "--obs-label", label])
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn iam-dist-worker");
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
}

impl Drop for WorkerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn tiny_model(seed: u64) -> (IamEstimator, Vec<RangeQuery>) {
    let table = Dataset::Twi.generate(800, seed);
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
        gen.gen_queries(2).iter().map(|q| q.normalize(table.ncols()).unwrap().0).collect();
    (est, queries)
}

#[test]
fn scattered_batch_stitches_into_one_trace_tree() {
    // tracing is opt-in on both sides: workers via --obs-label, the
    // coordinator (this process) explicitly
    iam_obs::span::enable();
    tracetree::enable();
    tracetree::set_process_label("coord");
    tracetree::reset();

    let workers: Vec<WorkerProc> =
        (0..3).map(|i| WorkerProc::spawn(&format!("worker-{i}"))).collect();
    let addrs: Vec<SocketAddr> = workers.iter().map(|w| w.addr).collect();
    // fnv("trips") % 3 == 2, "taxi" → 0, "sensors" → 1: with single
    // replicas, one batch over all three tables must touch all 3 workers
    let tables = ["trips", "taxi", "sensors"];
    let coord = Arc::new(Coordinator::new(
        addrs,
        &tables,
        DistConfig { replicas: 1, ..DistConfig::default() },
    ));
    let expected_workers: BTreeSet<String> =
        tables.iter().map(|t| format!("worker-{}", coord.placement().replicas(t)[0])).collect();
    assert_eq!(expected_workers.len(), 3, "table names chosen to cover all workers");

    let (model, queries) = tiny_model(7);
    for table in tables {
        for outcome in coord.deploy_model(table, &model, &format!("{table}-v1")).unwrap() {
            outcome.result.expect("ship");
        }
    }
    // shipping traced too — flush those spans before the batch under test
    let _ = coord.drain_traces();

    // --- the batch under test: 2 queries per table, one scatter ---------
    let batch: Vec<ClusterQuery> = tables
        .iter()
        .flat_map(|t| {
            queries.iter().map(move |q| ClusterQuery { table: t.to_string(), query: q.clone() })
        })
        .collect();
    for r in coord.estimate_batch(&batch) {
        r.expect("healthy cluster answers everything");
    }

    let records = coord.drain_traces();
    assert!(!records.is_empty(), "tracing produced no records");
    assert_eq!(
        tracetree::to_jsonl(&records).lines().count(),
        records.len(),
        "the JSONL dump has one line per record"
    );

    // --- a single stitched trace ------------------------------------------
    let trace_ids = TraceTree::trace_ids(&records);
    assert_eq!(trace_ids.len(), 1, "one batch must be exactly one trace: {trace_ids:?}");
    let tree = TraceTree::build(&records, trace_ids[0]);
    assert_eq!(tree.len(), records.len());

    let roots = tree.root_spans();
    assert_eq!(roots.len(), 1, "one root span");
    assert_eq!((roots[0].proc.as_str(), roots[0].name.as_str()), ("coord", "dist.scatter_gather"));
    let root_id = roots[0].span_id;

    // coordinator phases are children of the root
    let child_names: BTreeSet<&str> =
        tree.children_of(root_id).iter().map(|s| s.name.as_str()).collect();
    assert!(child_names.contains("dist.partition"), "{child_names:?}");
    assert!(child_names.contains("dist.rpc"), "{child_names:?}");
    assert!(child_names.contains("dist.merge"), "{child_names:?}");

    // every worker span is parented under a coordinator dist.rpc span
    let rpc_ids: BTreeSet<u64> = records
        .iter()
        .filter(|r| r.proc == "coord" && r.name == "dist.rpc")
        .map(|r| r.span_id)
        .collect();
    assert_eq!(rpc_ids.len(), 3, "one rpc span per table group");
    // each rpc splits into its five stages, recorded as each one ends
    for &rpc in &rpc_ids {
        let names: Vec<&str> = records
            .iter()
            .filter(|r| r.proc == "coord" && r.parent_span == rpc)
            .map(|r| r.name.as_str())
            .collect();
        assert_eq!(
            names,
            [
                "dist.rpc.encode",
                "dist.rpc.write",
                "dist.rpc.wait",
                "dist.rpc.read",
                "dist.rpc.decode"
            ]
        );
    }
    let worker_serve: Vec<&SpanRecord> =
        records.iter().filter(|r| r.name == "worker.serve").collect();
    assert_eq!(worker_serve.len(), 3, "one worker.serve span per group");
    for s in &worker_serve {
        assert!(
            rpc_ids.contains(&s.parent_span),
            "worker span {s:?} not parented under any dist.rpc span"
        );
    }
    let got_workers: BTreeSet<String> = worker_serve.iter().map(|s| s.proc.clone()).collect();
    assert_eq!(got_workers, expected_workers, "spans attribute to the placed workers");

    // the serving layer's own span nests below worker.serve
    let serve_batch: Vec<&SpanRecord> =
        records.iter().filter(|r| r.name == "serve.batch").collect();
    assert!(!serve_batch.is_empty(), "serve-side spans crossed the wire");
    let worker_serve_ids: BTreeSet<u64> = worker_serve.iter().map(|s| s.span_id).collect();
    for s in &serve_batch {
        assert!(worker_serve_ids.contains(&s.parent_span), "{s:?}");
    }

    // ...and core inference spans below that: the tree reaches infer.*
    let serve_batch_ids: BTreeSet<u64> = serve_batch.iter().map(|s| s.span_id).collect();
    let infer_spans: Vec<&SpanRecord> =
        records.iter().filter(|r| r.name.starts_with("infer.")).collect();
    assert!(!infer_spans.is_empty(), "core inference spans crossed the wire");
    let infer_ids: BTreeSet<u64> = infer_spans.iter().map(|s| s.span_id).collect();
    for s in &infer_spans {
        assert!(
            serve_batch_ids.contains(&s.parent_span) || infer_ids.contains(&s.parent_span),
            "infer span {s:?} not nested under serve.batch"
        );
    }

    // --- folded stacks nest across processes ------------------------------
    let folded = tracetree::folded_stacks(&records);
    for line in folded.lines() {
        let (stack, n) = line.rsplit_once(' ').expect("folded line shape");
        let _: u64 = n.parse().unwrap_or_else(|_| panic!("bad self-time in {line:?}"));
        assert!(!stack.is_empty());
    }
    assert!(
        folded.lines().any(|l| {
            l.starts_with("coord:dist.scatter_gather;coord:dist.rpc;")
                && l.contains(":worker.serve")
                && l.contains(":infer.")
        }),
        "no coordinator→worker→serve→infer stack in:\n{folded}"
    );

    // --- a second batch is a new, distinct trace --------------------------
    for r in coord.estimate_batch(&batch) {
        r.expect("second batch");
    }
    let records2 = coord.drain_traces();
    let ids2 = TraceTree::trace_ids(&records2);
    assert_eq!(ids2.len(), 1);
    assert_ne!(ids2[0], trace_ids[0], "each batch gets its own trace id");

    // --- version skew: a payload without the envelope ---------------------
    // a peer that predates the envelope sends the bare message; the worker
    // names the problem in an Error reply and keeps the connection open
    let mut raw = TcpStream::connect(workers[0].addr).expect("raw connect");
    let bare = Msg::Ping.encode();
    raw.write_all(&(bare.len() as u32).to_le_bytes()).expect("bare length");
    raw.write_all(&bare).expect("bare payload");
    match read_frame(&mut raw, 1 << 20).expect("skew reply").map(|frame| frame.msg) {
        Some(Msg::Error { message }) => assert!(message.contains("envelope"), "{message}"),
        other => panic!("bare ping got {other:?}"),
    }
    write_frame(&mut raw, &Msg::Ping, None, &[]).expect("enveloped write");
    match read_frame(&mut raw, 1 << 20).expect("ping reply").map(|frame| frame.msg) {
        Some(Msg::Pong) => {}
        other => panic!("ping after skew got {other:?}"),
    }
    drop(raw);

    // --- cluster metrics plane --------------------------------------------
    let prom = coord.cluster_prometheus();
    for i in 0..3 {
        assert!(
            prom.contains(&format!("worker=\"{i}\"")),
            "merged exposition missing worker {i} labels:\n{prom}"
        );
    }
    assert!(prom.contains("iam_dist_worker_frames_total"), "worker counters present");
    assert!(prom.contains("table=\"trips\""), "per-table service labels present");
    assert!(prom.contains("iam_dist_batches_total"), "coordinator's own counters present");
    assert_eq!(
        prom.matches("# TYPE iam_dist_worker_frames_total counter").count(),
        1,
        "TYPE headers deduplicated across workers"
    );
    assert_families_contiguous(&prom);

    // the HTTP scrape endpoint serves the same exposition
    let front = MetricsFrontend::spawn(Arc::clone(&coord), "127.0.0.1:0").expect("metrics bind");
    let mut scrape = TcpStream::connect(front.addr).expect("scrape connect");
    scrape.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").expect("scrape request");
    let mut response = String::new();
    scrape.read_to_string(&mut response).expect("scrape response");
    assert!(response.starts_with("HTTP/1.0 200 OK"), "{response}");
    for i in 0..3 {
        assert!(response.contains(&format!("worker=\"{i}\"")), "scrape missing worker {i}");
    }
    front.stop();

    coord.shutdown_cluster();
}

/// Lean scrape check CI runs as its own step: no models, no tracing —
/// just spawn workers, scrape the coordinator's HTTP endpoint, and demand
/// per-worker labels in the merged exposition.
#[test]
fn prom_endpoint_scrape_carries_worker_labels() {
    let workers: Vec<WorkerProc> =
        (0..2).map(|i| WorkerProc::spawn(&format!("scrape-{i}"))).collect();
    let addrs: Vec<SocketAddr> = workers.iter().map(|w| w.addr).collect();
    let coord = Arc::new(Coordinator::new(addrs, &["trips"], DistConfig::default()));

    let front = MetricsFrontend::spawn(Arc::clone(&coord), "127.0.0.1:0").expect("metrics bind");
    let mut scrape = TcpStream::connect(front.addr).expect("scrape connect");
    scrape.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").expect("scrape request");
    let mut response = String::new();
    scrape.read_to_string(&mut response).expect("scrape response");
    front.stop();

    assert!(response.starts_with("HTTP/1.0 200 OK"), "{response}");
    let (head, body) = response.split_once("\r\n\r\n").expect("header/body split");
    assert!(
        head.contains("Content-Type: text/plain"),
        "prometheus text exposition content type: {head}"
    );
    for i in 0..2 {
        assert!(body.contains(&format!("worker=\"{i}\"")), "missing worker {i} labels:\n{body}");
    }
    assert!(body.contains("iam_dist_worker_frames_total"), "worker counters present");
    assert_families_contiguous(body);

    coord.shutdown_cluster();
}

/// The text format wants each metric family as one group: every sample
/// line must sit under its own family's `# TYPE` line, which appears once.
fn assert_families_contiguous(prom: &str) {
    let mut seen = BTreeSet::new();
    let mut family = "";
    for line in prom.lines().filter(|l| !l.is_empty()) {
        if let Some(header) = line.strip_prefix("# TYPE ") {
            family = header.split(' ').next().expect("family name");
            assert!(seen.insert(family), "family {family} split across the exposition:\n{prom}");
        } else if !line.starts_with('#') {
            let name = line.split(['{', ' ']).next().expect("sample name");
            assert!(
                name.strip_prefix(family).is_some_and(|s| s.is_empty() || s.starts_with('_')),
                "{name} sample outside its family's group (under {family}):\n{prom}"
            );
        }
    }
}
