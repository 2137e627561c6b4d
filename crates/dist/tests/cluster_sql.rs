//! SQL through the cluster coordinator: single-table statements are
//! forwarded to the table's replicas and answer **byte-identically** to a
//! single-process `execute_sql` on the same model; `EXPLAIN` over a join
//! gathers per-table cardinalities by RPC (the tables live on different
//! workers) and renders a plan; failover keeps SQL answering after a
//! replica dies.

use iam_core::{IamConfig, IamEstimator};
use iam_data::synth::Dataset;
use iam_dist::{Coordinator, DistConfig, DistError};
use iam_serve::{ServeConfig, Service};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};

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
}

impl Drop for WorkerProc {
    fn drop(&mut self) {
        self.kill();
    }
}

fn train(dataset: Dataset, seed: u64) -> IamEstimator {
    let table = dataset.generate(900, seed);
    let cfg = IamConfig {
        components: 4,
        hidden: vec![16, 16],
        embed_dim: 6,
        epochs: 1,
        samples: 60,
        seed,
        ..IamConfig::default()
    };
    IamEstimator::fit(&table, cfg)
}

#[test]
fn sql_through_coordinator_matches_single_process_and_fails_over() {
    let twi = train(Dataset::Twi, 7);
    let wisdm = train(Dataset::Wisdm, 11);

    // ground truth: the same statements through a single-process service
    let twi_local = Service::start(twi.clone(), "v1", ServeConfig::default());
    let wisdm_local = Service::start(wisdm.clone(), "v1", ServeConfig::default());

    let mut workers: Vec<WorkerProc> = (0..3).map(|_| WorkerProc::spawn()).collect();
    let addrs: Vec<SocketAddr> = workers.iter().map(|w| w.addr).collect();
    let coord = Coordinator::new(
        addrs,
        &["twi", "wisdm"],
        DistConfig { replicas: 2, ..DistConfig::default() },
    );
    for outcome in coord.deploy_model("twi", &twi, "twi-v1").unwrap() {
        outcome.result.expect("ship twi");
    }
    for outcome in coord.deploy_model("wisdm", &wisdm, "wisdm-v1").unwrap() {
        outcome.result.expect("ship wisdm");
    }

    // --- single-table statements: byte-identical to single-process -----
    let stmts = [
        ("twi", "SELECT COUNT(*) FROM twi WHERE c0 = 1 AND c1 BETWEEN 2.5 AND 9"),
        ("twi", "SELECT SUM(c1) FROM twi WHERE c0 >= 0"),
        ("twi", "SELECT AVG(c1) FROM twi WHERE c0 = 1"),
        ("wisdm", "SELECT COUNT(*) FROM wisdm WHERE c1 <= 0.5"),
    ];
    for (table, stmt) in stmts {
        let local = if table == "twi" { &twi_local } else { &wisdm_local };
        let expect = iam_serve::execute_sql(stmt, &local.client()).unwrap();
        let got = coord.sql(stmt).unwrap();
        assert_eq!(got, expect, "{stmt}");
        // a worker's answer is deterministic across repeats (and replicas)
        assert_eq!(coord.sql(stmt).unwrap(), expect, "{stmt}");
        assert!(!got.contains("NaN"), "{got}");
    }

    // --- EXPLAIN over a join: cardinalities gathered from two tables ---
    let plan = coord
        .sql(
            "EXPLAIN SELECT COUNT(*) FROM twi JOIN wisdm ON twi.c0 = wisdm.c0 \
             WHERE twi.c0 <= 1 AND wisdm.c1 > 0",
        )
        .unwrap();
    let lines: Vec<&str> = plan.lines().collect();
    assert_eq!(lines.len(), 3, "{plan}");
    assert!(lines[0].starts_with("PLAN est_cost="), "{plan}");
    assert!(lines[1].starts_with("scan "), "{plan}");
    assert!(lines[2].starts_with("join "), "{plan}");
    // both tables appear exactly once across the plan nodes
    assert_eq!(plan.matches("twi").count(), 1, "{plan}");
    assert_eq!(plan.matches("wisdm").count(), 1, "{plan}");
    assert_eq!(
        coord
            .sql(
                "EXPLAIN SELECT COUNT(*) FROM twi JOIN wisdm ON twi.c0 = wisdm.c0 \
         WHERE twi.c0 <= 1 AND wisdm.c1 > 0",
            )
            .unwrap(),
        plan,
        "explain is deterministic"
    );

    // --- rejections stay client errors, not replica exhaustion ---------
    let err = coord.sql("SELECT COUNT(*) FROM twi JOIN wisdm ON twi.c0 = wisdm.c0");
    assert!(matches!(err, Err(DistError::Sql(_))), "{err:?}");
    let err = coord.sql("SELEC COUNT(*) FROM twi");
    assert!(matches!(err, Err(DistError::Sql(_))), "{err:?}");
    let err = coord.sql("SELECT COUNT(*) FROM nope");
    assert!(matches!(err, Err(DistError::UnknownTable(_))), "{err:?}");
    // a statement every replica rejects surfaces the remote reason
    let err = coord.sql("SELECT COUNT(*) FROM twi WHERE c99 = 1");
    assert!(matches!(err, Err(DistError::Remote(_))), "{err:?}");

    // --- failover: kill the first replica of twi, SQL still answers ----
    let victim = coord.placement().replicas("twi")[0];
    workers[victim].kill();
    let stmt = "SELECT COUNT(*) FROM twi WHERE c0 = 1 AND c1 BETWEEN 2.5 AND 9";
    let expect = iam_serve::execute_sql(stmt, &twi_local.client()).unwrap();
    assert_eq!(coord.sql(stmt).unwrap(), expect, "failover answer drifted");

    coord.shutdown_cluster();
    twi_local.shutdown();
    wisdm_local.shutdown();
}
