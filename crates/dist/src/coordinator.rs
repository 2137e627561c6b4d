//! The cluster coordinator: membership, placement, scatter/gather, and
//! snapshot shipping.
//!
//! # Request path
//!
//! [`Coordinator::estimate_batch`] takes a client batch of
//! `(table, query)` pairs and answers it in three stages, each under an
//! `iam-obs` span:
//!
//! 1. **partition** (`dist.partition`) — group the batch by table,
//!    remembering each query's original position;
//! 2. **scatter** (`dist.rpc`) — before any thread starts, each group
//!    picks its replica on the calling thread, in table order: the
//!    table's round-robin rotation, stable-sorted by how many of the
//!    batch's earlier groups start on each worker, so a batch's groups
//!    spread over the replicas instead of queueing on one worker's
//!    connection (equal counts keep the round-robin order). One thread
//!    per group then sends it; a failed RPC (connect/read/write
//!    error, deadline, or an application error such as a replica that
//!    missed its snapshot) tears down that worker's connection and
//!    retries the group on the next replica in its rotation. Attempt *k*
//!    of *n* may spend `1/(n − k)` of the time left before the batch's
//!    deadline, so a replica that never answers cannot use up the next
//!    one's time. When every replica has failed the group's queries are
//!    *skipped with an error* rather than stalling the batch.
//!    Each RPC splits into `dist.rpc.{encode,write,wait,read,decode}`
//!    (`wait` ends when the reply's length prefix arrives, `read` covers
//!    its payload); queueing for a worker's connection behind another RPC
//!    is `dist.conn_wait`, outside `dist.rpc`;
//! 3. **merge** (`dist.merge`) — scatter results are written back into
//!    input order.
//!
//! Because a worker's estimates are a pure function of (model bytes,
//! query) — persistence is bitwise-lossless and serving is
//! deterministic — it does not matter *which* replica answers: any
//! non-skipped answer is bit-identical to single-process inference.
//!
//! # Snapshot shipping
//!
//! [`Coordinator::deploy_model`] streams a framed model snapshot to every
//! replica of a table; each worker checksums and parses the bytes fully
//! before flipping its registry's atomic hot-swap, so a refresh propagates
//! with zero dropped requests and no replica ever serves a torn model.

use crate::error::DistError;
use crate::placement::{PlacementMap, WorkerId};
use crate::proto::{encode_frame, read_len, read_payload, Frame, Msg, MAX_FRAME};
use iam_core::IamEstimator;
use iam_data::RangeQuery;
use iam_obs::{Registry, TraceCtx};
use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Tuning knobs for [`Coordinator::new`].
#[derive(Debug, Clone)]
pub struct DistConfig {
    /// Replicas per table (clamped to the worker count).
    ///
    /// Ledger: crates/dist/tests/cluster_obs.rs
    pub replicas: usize,
    /// Deadline for one client batch RPC, shared across its failover
    /// attempts: attempt *k* of *n* gets `1/(n − k)` of the time left,
    /// the last attempt all of it. A replica slower than its share is
    /// abandoned, not waited for: with two replicas, the first one must
    /// answer within half of this, or the group moves to the second (and
    /// the first worker still computes the orphaned request).
    ///
    /// Ledger: crates/dist/tests/contracts.rs
    pub rpc_timeout: Duration,
    /// Deadline for one snapshot ship per replica (ships move model
    /// bytes, so they get more time than estimate RPCs).
    ///
    /// Ledger: crates/dist/tests/contracts.rs
    pub ship_timeout: Duration,
}

/// Deadline for establishing a worker connection (capped by what is left
/// of the RPC's own deadline).
const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);

/// Seed of the coordinator's trace-id generator: trace ids are a
/// deterministic function of it and the batch sequence, never ambient
/// entropy, so traces replay bit-identically in tests.
const TRACE_SEED: u64 = 0x7ACE_5EED;

impl Default for DistConfig {
    fn default() -> Self {
        DistConfig {
            replicas: 2,
            rpc_timeout: Duration::from_secs(10),
            ship_timeout: Duration::from_secs(30),
        }
    }
}

/// A lazily (re)connected worker endpoint. The stream mutex serialises
/// RPCs to one worker (scatter parallelism is across workers); any
/// transport failure drops the stream so the next RPC reconnects.
struct WorkerConn {
    addr: SocketAddr,
    stream: Mutex<Option<TcpStream>>,
}

/// One query addressed to a table in the cluster.
#[derive(Debug, Clone)]
pub struct ClusterQuery {
    /// Target table (must be in the placement map).
    pub table: String,
    /// The predicate.
    pub query: RangeQuery,
}

/// One table group's scatter result: the original batch positions and the
/// per-query outcomes.
type GroupResult = (Vec<usize>, Vec<Result<f64, DistError>>);

/// One replica's answer to a version probe.
pub type VersionReport = (WorkerId, Result<(u64, String), DistError>);

/// Outcome of shipping one snapshot to one replica.
#[derive(Debug)]
pub struct ShipOutcome {
    /// The replica.
    pub worker: WorkerId,
    /// Registry version now serving on success, or the failure.
    pub result: Result<u64, DistError>,
}

/// The cluster coordinator. All methods take `&self`; clone-free sharing
/// via `Arc<Coordinator>` is the intended multi-client shape.
pub struct Coordinator {
    workers: Vec<WorkerConn>,
    placement: PlacementMap,
    cfg: DistConfig,
    trace_gen: Mutex<iam_obs::TraceIdGen>,
    batches: Arc<iam_obs::Counter>,
    queries: Arc<iam_obs::Counter>,
    rpcs: Vec<Arc<iam_obs::Counter>>,
    rpc_failures: Vec<Arc<iam_obs::Counter>>,
    failovers: Arc<iam_obs::Counter>,
    skipped: Arc<iam_obs::Counter>,
    ships: Arc<iam_obs::Counter>,
}

impl Coordinator {
    /// Build a coordinator over `workers`, placing `tables` with
    /// [`DistConfig::replicas`]-way replication. Connections are lazy —
    /// construction never blocks on the network.
    pub fn new<S: AsRef<str>>(
        workers: Vec<SocketAddr>,
        tables: &[S],
        cfg: DistConfig,
    ) -> Coordinator {
        assert!(!workers.is_empty(), "a cluster needs at least one worker");
        let placement = PlacementMap::new(tables, workers.len(), cfg.replicas);
        let reg = Registry::global();
        let per_worker = |name: &str| -> Vec<Arc<iam_obs::Counter>> {
            (0..workers.len()).map(|i| reg.counter(name, &[("worker", &i.to_string())])).collect()
        };
        reg.gauge("iam_dist_workers", &[]).set(workers.len() as i64);
        Coordinator {
            rpcs: per_worker("iam_dist_rpc_total"),
            rpc_failures: per_worker("iam_dist_rpc_failures_total"),
            batches: reg.counter("iam_dist_batches_total", &[]),
            queries: reg.counter("iam_dist_queries_total", &[]),
            failovers: reg.counter("iam_dist_failover_total", &[]),
            skipped: reg.counter("iam_dist_skipped_queries_total", &[]),
            ships: reg.counter("iam_dist_snapshots_shipped_total", &[]),
            workers: workers
                .into_iter()
                .map(|addr| WorkerConn { addr, stream: Mutex::new(None) })
                .collect(),
            placement,
            trace_gen: Mutex::new(iam_obs::TraceIdGen::new(TRACE_SEED)),
            cfg,
        }
    }

    /// The placement map (which replicas serve which table).
    pub fn placement(&self) -> &PlacementMap {
        &self.placement
    }

    /// Answer a client batch by scatter/gather; one result per query, in
    /// input order. Failed tables are skipped with per-query errors —
    /// a dead worker never takes the whole batch down with it.
    pub fn estimate_batch(&self, batch: &[ClusterQuery]) -> Vec<Result<f64, DistError>> {
        // with tracing on, each batch becomes one trace: a deterministic
        // trace id rooted here, carried to workers on the RPC envelope
        let root = if iam_obs::tracetree::enabled() {
            let mut gen = self.trace_gen.lock().unwrap_or_else(|p| p.into_inner());
            Some(TraceCtx::root(gen.next_trace_id()))
        } else {
            None
        };
        let _root_guard = root.map(iam_obs::tracetree::install);
        let _whole = iam_obs::span!("dist.scatter_gather");
        self.batches.inc();
        self.queries.add(batch.len() as u64);

        // partition: group query indices by table
        let groups: Vec<(&str, Vec<usize>)> = {
            let _s = iam_obs::span!("dist.partition");
            let mut by_table: HashMap<&str, Vec<usize>> = HashMap::new();
            for (i, q) in batch.iter().enumerate() {
                by_table.entry(q.table.as_str()).or_default().push(i);
            }
            let mut groups: Vec<_> = by_table.into_iter().collect();
            groups.sort_unstable_by_key(|(t, _)| *t);
            groups
        };

        // every group picks its replica here, in table order, before any
        // thread starts: the groups already started on a worker steer the
        // next group to another replica of a shared set
        let mut load = vec![0; self.workers.len()];
        let picked: Vec<_> = groups
            .into_iter()
            .map(|(table, idxs)| (table, self.pick(table, &mut load), idxs))
            .collect();

        // scatter: one thread per table group, replica failover inside.
        // The trace context is thread-local, so each scatter thread
        // re-installs a child context parented under the scatter span.
        let scatter_ctx = iam_obs::tracetree::child_ctx();
        let gathered: Vec<GroupResult> = std::thread::scope(|s| {
            let handles: Vec<_> = picked
                .into_iter()
                .map(|(table, rotation, idxs)| {
                    s.spawn(move || {
                        let _ctx = scatter_ctx.map(iam_obs::tracetree::install);
                        let queries: Vec<RangeQuery> =
                            idxs.iter().map(|&i| batch[i].query.clone()).collect();
                        let results = self.estimate_group(table, rotation, queries);
                        (idxs, results)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("scatter thread")).collect()
        });

        // merge: back into input order
        let _s = iam_obs::span!("dist.merge");
        let mut out: Vec<Option<Result<f64, DistError>>> = (0..batch.len()).map(|_| None).collect();
        for (idxs, results) in gathered {
            for (i, r) in idxs.into_iter().zip(results) {
                if r.is_err() {
                    self.skipped.inc();
                }
                if iam_core::invariant::ACTIVE {
                    // scatter produced disjoint index sets, so the gather
                    // must write each answer slot exactly once — a double
                    // write means answers are crossing between queries
                    iam_core::invariant::check(
                        out[i].is_none(),
                        "scatter/gather permutation wrote an answer slot twice",
                    );
                }
                out[i] = Some(r);
            }
        }
        out.into_iter().map(|r| r.expect("every query answered or skipped")).collect()
    }

    /// Answer one table group with replica failover along `rotation`. A
    /// replica's application error is retried like any failure; what the
    /// group reports is the exhausted rotation.
    fn estimate_group(
        &self,
        table: &str,
        rotation: Vec<WorkerId>,
        queries: Vec<RangeQuery>,
    ) -> Vec<Result<f64, DistError>> {
        let n = queries.len();
        let msg = Msg::EstimateBatch { table: table.to_string(), queries };
        let want = |reply| match reply {
            // wrong-arity replies are protocol violations, retried too
            Msg::EstimateReply { results } if results.len() == n => Some(results),
            _ => None,
        };
        match self.failover(&rotation, |wid, deadline| self.rpc(wid, &msg, deadline, want)) {
            Ok(results) => results.into_iter().map(|r| r.map_err(DistError::Remote)).collect(),
            Err(_) => (0..n).map(|_| Err(self.exhausted(table))).collect(),
        }
    }

    /// `table`'s replica rotation for one group of a batch: the placement
    /// map's round-robin rotation, stable-sorted by `load`, the number of
    /// the batch's groups already starting on each worker (so equal loads
    /// keep the round-robin order). The first replica is counted in
    /// `load` for the groups that pick after this one.
    fn pick(&self, table: &str, load: &mut [usize]) -> Vec<WorkerId> {
        let mut rotation = self.placement.rotation(table);
        rotation.sort_by_key(|&wid| load[wid]);
        if let Some(&first) = rotation.first() {
            load[first] += 1;
        }
        rotation
    }

    /// Run `attempt` on `rotation`'s replicas in order until one
    /// succeeds, under one deadline shared by every attempt: attempt *k*
    /// of *n* gets `1/(n − k)` of the time left, so a replica that accepts
    /// and never answers spends its share, not the whole budget, and the
    /// last attempt gets all that remains. On exhaustion, the last
    /// application error a replica answered with, if any.
    fn failover<T>(
        &self,
        rotation: &[WorkerId],
        mut attempt: impl FnMut(WorkerId, Instant) -> Result<T, DistError>,
    ) -> Result<T, Option<String>> {
        let deadline = Instant::now() + self.cfg.rpc_timeout;
        let n = rotation.len();
        let mut remote = None;
        for (k, &wid) in rotation.iter().enumerate() {
            if k > 0 {
                self.failovers.inc();
            }
            let now = Instant::now();
            let share = deadline.saturating_duration_since(now) / (n - k) as u32;
            match attempt(wid, now + share) {
                Ok(v) => return Ok(v),
                Err(DistError::Remote(message)) => remote = Some(message),
                Err(_) => {}
            }
        }
        Err(remote)
    }

    /// The error of a request whose whole rotation failed.
    fn exhausted(&self, table: &str) -> DistError {
        match self.placement.replicas(table).len() {
            0 => DistError::UnknownTable(table.to_string()),
            tried => DistError::NoReplica { table: table.to_string(), tried },
        }
    }

    /// One RPC to worker `wid`, counted per worker. Only a transport
    /// failure drops the connection: a timed-out reply could arrive later
    /// and desynchronise the next RPC's framing, while an `Error` reply or
    /// one `want` rejects leaves the framing intact.
    fn rpc<T>(
        &self,
        wid: WorkerId,
        msg: &Msg,
        deadline: Instant,
        want: impl FnOnce(Msg) -> Option<T>,
    ) -> Result<T, DistError> {
        self.rpcs[wid].inc();
        let worker = &self.workers[wid];
        // RPCs to one worker take turns on its connection: the time spent
        // queueing for it is its own span, a sibling of the RPC's
        let mut guard = {
            let _s = iam_obs::span!("dist.conn_wait");
            worker.stream.lock().unwrap_or_else(|p| p.into_inner())
        };
        // worker spans parent under this attempt's rpc span, so a
        // failover shows up as sibling rpc spans in the trace
        let _s = iam_obs::span!("dist.rpc");
        // a zero timeout is no timeout to the socket API: it is expired
        let remaining = || {
            deadline
                .checked_duration_since(Instant::now())
                .filter(|left| !left.is_zero())
                .ok_or(DistError::Timeout)
        };
        let reply = (|| {
            if guard.is_none() {
                let timeout = CONNECT_TIMEOUT.min(remaining()?);
                let stream = TcpStream::connect_timeout(&worker.addr, timeout)?;
                // Nagle holds a small write while earlier bytes are
                // unacknowledged, and the worker may delay that ACK by up
                // to 40 ms
                stream.set_nodelay(true)?;
                *guard = Some(stream);
            }
            let stream = guard.as_mut().expect("connected above");
            let remaining = remaining()?;
            stream.set_write_timeout(Some(remaining))?;
            stream.set_read_timeout(Some(remaining))?;
            // the stages of `proto::{write_frame, read_frame}`, one span
            // each; the worker's spans parent under `dist.rpc`, not a stage
            let ctx = iam_obs::tracetree::child_ctx();
            let wire = {
                let _s = iam_obs::span!("dist.rpc.encode");
                encode_frame(msg, ctx, &[])?
            };
            {
                let _s = iam_obs::span!("dist.rpc.write");
                stream.write_all(&wire)?;
            }
            let len = {
                let _s = iam_obs::span!("dist.rpc.wait");
                read_len(stream, MAX_FRAME)?
            }
            .ok_or_else(|| DistError::Protocol("worker closed mid-rpc".into()))?;
            let payload = {
                let _s = iam_obs::span!("dist.rpc.read");
                read_payload(stream, len)?
            };
            let _s = iam_obs::span!("dist.rpc.decode");
            Frame::decode(&payload)
        })();
        if reply.is_err() {
            *guard = None;
        }
        drop(guard);
        let result = reply.and_then(|frame| {
            // spans the worker recorded under our trace ride back on the
            // reply; merge them so one local drain yields the whole tree
            if !frame.spans.is_empty() {
                iam_obs::tracetree::absorb(frame.spans);
            }
            match frame.msg {
                Msg::Error { message } => Err(DistError::Remote(message)),
                other => want(other).ok_or_else(|| DistError::Protocol("unexpected reply".into())),
            }
        });
        if result.is_err() {
            self.rpc_failures[wid].inc();
        }
        result
    }

    /// Answer one SQL statement against the cluster.
    ///
    /// Single-table `SELECT COUNT(*)/SUM/AVG` statements are re-rendered
    /// canonically and forwarded (via [`Msg::Sql`]) to a replica of the
    /// statement's table with the same rotation failover as
    /// [`Coordinator::estimate_batch`]; the worker answers with the exact
    /// reply body a single-process TCP front-end would print, so COUNT
    /// answers stay bit-identical to the line protocol. `EXPLAIN SELECT
    /// ... JOIN ...` statements are decomposed at the coordinator: each
    /// referenced table's conjuncts become a per-table `SELECT COUNT(*)`
    /// RPC (tables may be placed on different workers), and the gathered
    /// cardinalities drive the join-order search locally.
    ///
    /// `SELECT` over a join (without `EXPLAIN`) is rejected: the paper's
    /// estimator factorises per-table, so cross-table aggregates have no
    /// sound answer here.
    pub fn sql(&self, stmt: &str) -> Result<String, DistError> {
        let _s = iam_obs::span!("dist.sql");
        match iam_sql::parse(stmt).map_err(|e| DistError::Sql(e.to_string()))? {
            iam_sql::Statement::Select(sel) => {
                if !sel.joins.is_empty() {
                    return Err(DistError::Sql(
                        "JOIN is supported under EXPLAIN only; aggregates over joins \
                         are not estimable per-table"
                            .into(),
                    ));
                }
                self.sql_table(&sel.table, &sel.to_string())
            }
            iam_sql::Statement::Explain(sel) => {
                let mut cards = RpcCards { coord: self };
                iam_sql::explain(&sel, &mut cards).map_err(|e| DistError::Sql(e.to_string()))
            }
        }
    }

    /// Forward one already-validated single-table SQL statement to a
    /// replica of `table`, with rotation failover under a shared deadline.
    /// A replica's application error is still retried — another replica
    /// may not have missed the snapshot — but a statement every replica
    /// rejects surfaces the last reason instead of a bare exhaustion error.
    fn sql_table(&self, table: &str, stmt: &str) -> Result<String, DistError> {
        let msg = Msg::Sql { table: table.to_string(), stmt: stmt.to_string() };
        let want = |reply| match reply {
            Msg::SqlReply { body } => Some(body),
            _ => None,
        };
        let rotation = self.placement.rotation(table);
        self.failover(&rotation, |wid, deadline| self.rpc(wid, &msg, deadline, want))
            .map_err(|remote| remote.map_or_else(|| self.exhausted(table), DistError::Remote))
    }

    /// Serialise `model` into a framed snapshot and ship it to every
    /// replica of `table` — the `refresh_model` path: workers flip via the
    /// registry's atomic hot-swap, so requests in flight during the ship
    /// are answered wholly by the old or wholly by the new version. One
    /// outcome per replica; replicas are shipped sequentially, so at most
    /// one is mid-install at a time (the rest keep serving the old or
    /// already-flipped version).
    pub fn deploy_model(
        &self,
        table: &str,
        model: &IamEstimator,
        label: &str,
    ) -> Result<Vec<ShipOutcome>, DistError> {
        let mut bytes = Vec::new();
        model
            .save_framed(&mut bytes)
            .map_err(|e| DistError::Protocol(format!("snapshot serialisation failed: {e}")))?;
        let _s = iam_obs::span!("dist.ship_snapshot");
        let msg = Msg::LoadSnapshot { table: table.to_string(), label: label.to_string(), bytes };
        let ship = |wid| {
            let deadline = Instant::now() + self.cfg.ship_timeout;
            let result = self.rpc(wid, &msg, deadline, |reply| match reply {
                Msg::LoadAck { version, .. } => Some(version),
                _ => None,
            });
            if result.is_ok() {
                self.ships.inc();
            }
            ShipOutcome { worker: wid, result }
        };
        Ok(self.placement.replicas(table).iter().map(|&wid| ship(wid)).collect())
    }

    /// Ask every replica of `table` which model version it serves.
    pub fn versions(&self, table: &str) -> Vec<VersionReport> {
        let msg = Msg::Version { table: table.to_string() };
        let version = |wid| {
            let r =
                self.rpc(wid, &msg, Instant::now() + self.cfg.rpc_timeout, |reply| match reply {
                    Msg::VersionReply { version, label } => Some((version, label)),
                    _ => None,
                });
            (wid, r)
        };
        self.placement.replicas(table).iter().map(|&wid| version(wid)).collect()
    }

    /// Ping one worker.
    pub fn ping(&self, worker: WorkerId) -> Result<(), DistError> {
        let deadline = Instant::now() + self.cfg.rpc_timeout;
        self.rpc(worker, &Msg::Ping, deadline, |reply| matches!(reply, Msg::Pong).then_some(()))
    }

    /// Scrape every worker's metrics registry (via [`Msg::Stats`]) and
    /// merge the replies into one cluster-wide Prometheus exposition:
    /// each worker's section carries a `worker="<index>"` label, each
    /// metric family is one group under a single `# TYPE` header, and the
    /// coordinator's own process-global registry (batch/failover/deadline-
    /// skip counters) joins once, unlabeled. A worker that fails to answer
    /// gets a comment line instead of silently vanishing from the
    /// exposition.
    pub fn cluster_prometheus(&self) -> String {
        let mut parts = Vec::new();
        for i in 0..self.workers.len() {
            let deadline = Instant::now() + self.cfg.rpc_timeout;
            match self.rpc(i, &Msg::Stats, deadline, |reply| match reply {
                Msg::StatsReply { prom } => Some(prom),
                _ => None,
            }) {
                Ok(prom) => parts.push(crate::stats::inject_label(&prom, "worker", &i.to_string())),
                Err(_) => parts.push(format!("# scrape failed: worker {i}\n")),
            }
        }
        parts.push(Registry::global().render_prometheus());
        crate::stats::merge_expositions(&parts)
    }

    /// Drain every buffered span — the coordinator's own plus the worker
    /// spans absorbed from reply envelopes. One scattered batch with
    /// tracing on shows up here as a single trace id whose tree spans both
    /// processes; render with [`iam_obs::tracetree::to_jsonl`] or
    /// [`iam_obs::tracetree::folded_stacks`].
    pub fn drain_traces(&self) -> Vec<iam_obs::SpanRecord> {
        iam_obs::tracetree::drain()
    }

    /// Ask every worker to drain and exit; best effort (already-dead
    /// workers are ignored).
    pub fn shutdown_cluster(&self) {
        for w in 0..self.workers.len() {
            let _ = self.rpc(w, &Msg::Shutdown, Instant::now() + self.cfg.rpc_timeout, Some);
        }
    }
}

/// [`iam_sql::CardSource`] backed by per-table `SELECT COUNT(*)` RPCs:
/// each table's conjuncts are rendered back to SQL and answered by that
/// table's own replicas, so an EXPLAIN over a star join gathers its
/// cardinalities from however many workers the placement map spreads the
/// tables across.
struct RpcCards<'a> {
    coord: &'a Coordinator,
}

impl iam_sql::CardSource for RpcCards<'_> {
    fn table_sel(
        &mut self,
        table: &str,
        conds: &[iam_sql::Cond],
    ) -> Result<(f64, u64), iam_sql::SqlError> {
        let mut stmt = format!("SELECT COUNT(*) FROM {table}");
        for (i, cond) in conds.iter().enumerate() {
            stmt.push_str(if i == 0 { " WHERE " } else { " AND " });
            stmt.push_str(&cond.to_string());
        }
        let body = self
            .coord
            .sql_table(table, &stmt)
            .map_err(|e| iam_sql::SqlError::new(format!("{table}: {e}")))?;
        parse_count_body(&body).ok_or_else(|| {
            iam_sql::SqlError::new(format!("{table}: malformed COUNT reply {body:?}"))
        })
    }
}

/// Parse a worker's `COUNT <count> SEL <sel> NROWS <nrows>` reply body
/// into `(selectivity, nrows)`.
fn parse_count_body(body: &str) -> Option<(f64, u64)> {
    let parts: Vec<&str> = body.split_whitespace().collect();
    if parts.len() != 6 || parts[0] != "COUNT" || parts[2] != "SEL" || parts[4] != "NROWS" {
        return None;
    }
    Some((parts[3].parse().ok()?, parts[5].parse().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A coordinator over two workers that are never dialled: tables "a"
    /// and "c" both hash to replicas [0, 1].
    fn two_workers(rpc_timeout: Duration) -> Coordinator {
        let addr: SocketAddr = "127.0.0.1:9".parse().unwrap();
        let cfg = DistConfig { rpc_timeout, ..DistConfig::default() };
        let coord = Coordinator::new(vec![addr; 2], &["a", "c"], cfg);
        for t in ["a", "c"] {
            assert_eq!(coord.placement().replicas(t), [0, 1], "{t} must share the replica set");
        }
        coord
    }

    #[test]
    fn groups_sharing_a_replica_set_start_on_distinct_replicas() {
        let coord = two_workers(Duration::from_secs(1));
        for _ in 0..4 {
            // one batch's picks, in table order
            let mut load = vec![0; 2];
            let a = coord.pick("a", &mut load);
            let c = coord.pick("c", &mut load);
            assert_ne!(a[0], c[0], "{a:?} vs {c:?}");
            for rotation in [&a, &c] {
                let mut seen = rotation.clone();
                seen.sort_unstable();
                assert_eq!(seen, [0, 1], "a rotation covers every replica once");
            }
            assert_eq!(load, [1, 1]);
        }
    }

    #[test]
    fn equal_loads_follow_the_round_robin_cursor() {
        let coord = two_workers(Duration::from_secs(1));
        let cursor = PlacementMap::new(&["a", "c"], 2, 2);
        for _ in 0..5 {
            assert_eq!(coord.pick("a", &mut [0, 0]), cursor.rotation("a"));
            assert_eq!(coord.pick("a", &mut [3, 3]), cursor.rotation("a"));
        }
        // a busier replica loses to an idle one even where the cursor
        // points at it, and the cursor still advances
        let next = cursor.rotation("a");
        let mut load = vec![0; 2];
        load[next[0]] = 1;
        assert_eq!(coord.pick("a", &mut load), [next[1], next[0]]);
        assert_eq!(coord.pick("a", &mut [0, 0]), cursor.rotation("a"));
    }

    #[test]
    fn failover_returns_the_first_success_or_the_last_remote_error() {
        let coord = two_workers(Duration::from_secs(1));
        assert_eq!(coord.failover(&[1, 0], |_, _| Ok::<_, DistError>(7)), Ok(7));

        let mut tried = Vec::new();
        let err = coord.failover(&[1, 0], |wid, _| -> Result<(), _> {
            tried.push(wid);
            Err(DistError::Remote(format!("no snapshot on {wid}")))
        });
        assert_eq!(tried, [1, 0], "every replica tried, in rotation order");
        assert_eq!(err, Err(Some("no snapshot on 0".to_string())));

        // the scatter path: a zero budget fails every attempt before any
        // connection is made
        let coord = two_workers(Duration::ZERO);
        let q = RangeQuery::unconstrained(2);
        let batch: Vec<ClusterQuery> = ["a", "c", "a"]
            .iter()
            .map(|t| ClusterQuery { table: t.to_string(), query: q.clone() })
            .collect();
        for r in coord.estimate_batch(&batch) {
            assert!(matches!(r, Err(DistError::NoReplica { tried: 2, .. })), "{r:?}");
        }
    }

    #[test]
    fn attempts_split_the_time_left_and_the_last_gets_all_of_it() {
        let rpc_timeout = Duration::from_millis(300);
        let coord = two_workers(rpc_timeout);
        let mut deadlines = Vec::new();
        let start = Instant::now();
        let _ = coord.failover(&[0, 1], |_, deadline| -> Result<(), _> {
            deadlines.push(deadline);
            Err(DistError::Timeout)
        });
        let end = Instant::now();
        assert_eq!(deadlines.len(), 2);
        // attempt 0 of 2 gets half of the budget, attempt 1 the rest
        assert!(deadlines[0] <= end + rpc_timeout / 2, "first attempt overran its half");
        assert!(deadlines[1] >= start + rpc_timeout, "last attempt lost part of the budget");
        assert!(deadlines[1] <= end + rpc_timeout);
    }
}
