//! A cluster worker: one process (or thread group) hosting an
//! `iam-serve` [`Service`] — registry, cache, micro-batching workers — per
//! placed table, answering protocol frames over TCP.
//!
//! Workers start **empty**: models arrive via [`Msg::LoadSnapshot`]
//! (snapshot shipping). The worker verifies the framed envelope's checksum
//! and fully parses the payload *before* touching the serving state, then
//! installs it through the registry's atomic hot-swap — so a torn or
//! corrupt ship can never become (or tear) the serving model, and
//! estimates issued during a ship are answered entirely by the old or
//! entirely by the new version.
//!
//! Connections are served on `iam_serve::net`'s [`Listener`]: one thread
//! per connection, all joined on [`WorkerHandle::stop`]. Malformed
//! *messages* inside an intact frame get an [`Msg::Error`] reply and the
//! connection survives; broken *framing* (oversized length prefix,
//! truncated frame) closes the connection, because a byte stream cannot
//! resynchronise mid-frame.

use crate::error::DistError;
use crate::proto::{read_frame, write_frame, Msg, MAX_SNAPSHOT_FRAME};
use iam_core::IamEstimator;
use iam_obs::Registry;
use iam_serve::net::{Conn, Listener};
use iam_serve::{ServeConfig, Service};
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};

/// Tuning knobs for [`WorkerHandle::spawn`]. Every frame a worker reads
/// is bounded by the snapshot frame limit (1 GiB): snapshot ships carry
/// model bytes.
#[derive(Debug, Clone, Default)]
pub struct WorkerConfig {
    /// Per-table serving configuration (queue, batcher, cache).
    ///
    /// Ledger: crates/dist/src/bin/iam-dist-worker.rs
    pub serve: ServeConfig,
}

/// Shared worker state: the per-table services plus RPC counters.
struct WorkerState {
    serve: ServeConfig,
    tables: Mutex<HashMap<String, Service>>,
    /// Signalled when a peer sends [`Msg::Shutdown`].
    shutdown_tx: SyncSender<()>,
    frames: Arc<iam_obs::Counter>,
    estimates: Arc<iam_obs::Counter>,
    snapshots: Arc<iam_obs::Counter>,
    proto_errors: Arc<iam_obs::Counter>,
}

impl WorkerState {
    fn handle(&self, msg: Msg) -> Msg {
        self.frames.inc();
        match msg {
            Msg::Ping => Msg::Pong,
            Msg::Shutdown => {
                let _ = self.shutdown_tx.try_send(());
                Msg::ShutdownAck
            }
            Msg::Version { table } => {
                let tables = self.lock_tables();
                match tables.get(&table) {
                    Some(svc) => {
                        let (version, label) = svc.current_version();
                        Msg::VersionReply { version, label }
                    }
                    None => Msg::Error { message: format!("unknown table {table:?}") },
                }
            }
            Msg::LoadSnapshot { table, label, bytes } => {
                // checksum + full parse happen here, before any serving
                // state is touched — the active model survives a bad ship
                let model = match IamEstimator::load_framed(&mut bytes.as_slice()) {
                    Ok(m) => m,
                    Err(e) => {
                        return Msg::Error {
                            message: format!("snapshot rejected for {table:?}: {e}"),
                        }
                    }
                };
                self.snapshots.inc();
                let mut tables = self.lock_tables();
                let version = match tables.get(&table) {
                    Some(svc) => svc.swap_model(model, &label),
                    None => {
                        let svc = Service::start(model, &label, self.serve.clone());
                        let v = svc.current_version().0;
                        tables.insert(table.clone(), svc);
                        v
                    }
                };
                Msg::LoadAck { table, version }
            }
            Msg::EstimateBatch { table, queries } => {
                let client = {
                    let tables = self.lock_tables();
                    match tables.get(&table) {
                        Some(svc) => svc.client(),
                        None => return Msg::Error { message: format!("unknown table {table:?}") },
                    }
                };
                self.estimates.add(queries.len() as u64);
                let results = client
                    .estimate_many(&queries)
                    .into_iter()
                    .map(|r| r.map_err(|e| e.to_string()))
                    .collect();
                Msg::EstimateReply { results }
            }
            Msg::Stats => Msg::StatsReply { prom: self.exposition() },
            Msg::Sql { table, stmt } => {
                let client = {
                    let tables = self.lock_tables();
                    match tables.get(&table) {
                        Some(svc) => svc.client(),
                        None => return Msg::Error { message: format!("unknown table {table:?}") },
                    }
                };
                self.estimates.inc();
                // the worker only executes single-table statements — the
                // coordinator decomposes joins before forwarding — so the
                // serve layer's SQL executor applies unchanged
                match iam_serve::execute_sql(&stmt, &client) {
                    Ok(body) => Msg::SqlReply { body },
                    Err(e) => Msg::Error { message: e.to_string() },
                }
            }
            // reply-direction messages are meaningless as requests
            Msg::Pong
            | Msg::LoadAck { .. }
            | Msg::EstimateReply { .. }
            | Msg::VersionReply { .. }
            | Msg::ShutdownAck
            | Msg::StatsReply { .. }
            | Msg::SqlReply { .. }
            | Msg::Error { .. } => {
                Msg::Error { message: "unexpected reply-direction message".into() }
            }
        }
    }

    /// This worker's whole metrics plane as one Prometheus exposition:
    /// every hosted table's service registry under a `table` label, then
    /// the process-global registry once, each metric family one group;
    /// table order is sorted, so the output is deterministic.
    fn exposition(&self) -> String {
        let tables = self.lock_tables();
        let mut names: Vec<&String> = tables.keys().collect();
        names.sort();
        let labels: Vec<[(&str, &str); 1]> =
            names.iter().map(|n| [("table", n.as_str())]).collect();
        let mut parts: Vec<(&Registry, &[(&str, &str)])> = names
            .iter()
            .zip(&labels)
            .map(|(name, label)| (tables[*name].metrics_registry(), &label[..]))
            .collect();
        parts.push((Registry::global(), &[]));
        iam_obs::render_prometheus(&parts)
    }

    fn lock_tables(&self) -> std::sync::MutexGuard<'_, HashMap<String, Service>> {
        // the guarded map only ever holds fully constructed services, so a
        // panic mid-section leaves valid state — take and continue
        self.tables.lock().unwrap_or_else(|p| {
            self.tables.clear_poison();
            p.into_inner()
        })
    }
}

/// A running worker. [`WorkerHandle::stop`] closes the listener, joins the
/// connection handlers, and drains every per-table service.
pub struct WorkerHandle {
    /// The bound address (useful with port 0).
    pub addr: SocketAddr,
    listener: Listener,
    state: Arc<WorkerState>,
    shutdown_rx: Receiver<()>,
}

impl WorkerHandle {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and serve protocol frames.
    pub fn spawn<A: ToSocketAddrs>(addr: A, cfg: WorkerConfig) -> io::Result<WorkerHandle> {
        let (shutdown_tx, shutdown_rx) = sync_channel(1);
        let reg = Registry::global();
        let state = Arc::new(WorkerState {
            serve: cfg.serve,
            tables: Mutex::new(HashMap::new()),
            shutdown_tx,
            frames: reg.counter("iam_dist_worker_frames_total", &[]),
            estimates: reg.counter("iam_dist_worker_estimates_total", &[]),
            snapshots: reg.counter("iam_dist_worker_snapshots_total", &[]),
            proto_errors: reg.counter("iam_dist_worker_proto_errors_total", &[]),
        });
        let listener = {
            let state = Arc::clone(&state);
            Listener::spawn(addr, "iam-dist", move |conn| {
                let _ = handle_connection(&conn, &state);
            })?
        };
        Ok(WorkerHandle { addr: listener.addr, listener, state, shutdown_rx })
    }

    /// Block until a peer sends [`Msg::Shutdown`] (the worker binary's
    /// main-thread parking spot).
    pub fn wait_for_shutdown(&self) {
        let _ = self.shutdown_rx.recv();
    }

    /// Tables currently hosting a model.
    pub fn tables(&self) -> Vec<String> {
        let mut t: Vec<String> = self.state.lock_tables().keys().cloned().collect();
        t.sort();
        t
    }

    /// Stop accepting, join every connection handler, and drain the
    /// per-table services (graceful: queued estimates are answered).
    pub fn stop(self) {
        self.listener.stop();
        let tables = std::mem::take(&mut *self.state.lock_tables());
        for (_, svc) in tables {
            let _ = svc.shutdown();
        }
    }
}

fn handle_connection(conn: &Conn, state: &WorkerState) -> Result<(), DistError> {
    let mut reader = conn;
    // a frame is one write already: nothing to gain from a buffer
    let mut out = conn.stream();
    loop {
        let frame = match read_frame(&mut reader, MAX_SNAPSHOT_FRAME) {
            Ok(Some(f)) => f,
            Ok(None) => return Ok(()), // peer closed, or we are stopping
            Err(e) => {
                state.proto_errors.inc();
                let sent = write_frame(&mut out, &Msg::Error { message: e.to_string() }, None, &[]);
                // broken framing is unrecoverable: the reply was best
                // effort, close; otherwise the frame boundary held, only
                // the *message* was garbage, and the connection serves on
                if matches!(e, DistError::FrameTooLarge { .. } | DistError::Io(_)) {
                    return Err(e);
                }
                sent?;
                continue;
            }
        };
        let stopping = matches!(frame.msg, Msg::Shutdown);
        // an incoming trace context (envelope v2) scopes this request's
        // spans; both guards must drop before the drain so the records are
        // in the buffer when we pick them up for piggybacking
        let ctx = frame.ctx.filter(|_| iam_obs::tracetree::enabled());
        let reply = {
            let _ctx = ctx.map(iam_obs::tracetree::install);
            let _span = iam_obs::span!("worker.serve");
            state.handle(frame.msg)
        };
        let spans = match ctx {
            Some(c) => iam_obs::tracetree::drain_trace(c.trace_id),
            None => Vec::new(),
        };
        write_frame(&mut out, &reply, None, &spans)?;
        if stopping {
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iam_core::IamConfig;
    use iam_data::synth::Dataset;
    use std::collections::BTreeSet;

    fn type_lines(prom: &str) -> Vec<&str> {
        prom.lines().filter_map(|l| l.strip_prefix("# TYPE ")?.split(' ').next()).collect()
    }

    /// A worker hosting two tables writes each family once, and every
    /// family of a hosted service carries both tables' labels, first.
    #[test]
    fn two_table_stats_reply_has_one_group_per_family_and_both_table_labels() {
        let table = Dataset::Twi.generate(300, 5);
        let cfg = IamConfig {
            components: 3,
            hidden: vec![12, 12],
            embed_dim: 4,
            epochs: 1,
            samples: 32,
            seed: 13,
            ..IamConfig::default()
        };
        let mut bytes = Vec::new();
        IamEstimator::fit(&table, cfg).save_framed(&mut bytes).unwrap();
        let worker = WorkerHandle::spawn("127.0.0.1:0", WorkerConfig::default()).unwrap();
        for t in ["a", "b"] {
            let load =
                Msg::LoadSnapshot { table: t.into(), label: "v1".into(), bytes: bytes.clone() };
            assert!(matches!(worker.state.handle(load), Msg::LoadAck { .. }));
        }
        let Msg::StatsReply { prom } = worker.state.handle(Msg::Stats) else {
            panic!("Stats must be answered with StatsReply");
        };
        let families = type_lines(&prom);
        let unique: BTreeSet<&str> = families.iter().copied().collect();
        assert_eq!(unique.len(), families.len(), "a family has two groups:\n{prom}");

        let hosted = worker.state.lock_tables()["a"].metrics_registry().render_prometheus();
        let service_families = type_lines(&hosted);
        for f in ["iam_serve_requests_total", "iam_serve_cache_hits_total", "iam_qerror_milli"] {
            assert!(service_families.contains(&f), "{f} missing from a service registry");
        }
        for f in service_families {
            for t in ["a", "b"] {
                let labelled = format!("{{table=\"{t}\"");
                assert!(
                    prom.lines().any(|l| l.starts_with(f) && l.contains(&labelled)),
                    "{f} has no series labelled table={t}:\n{prom}"
                );
            }
        }
        worker.stop();
    }
}
