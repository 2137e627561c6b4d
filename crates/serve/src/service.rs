//! The estimation service: a bounded request queue, micro-batching workers,
//! and the in-process [`Client`] handle.
//!
//! # Request life cycle
//!
//! 1. [`Client::estimate`] canonicalizes the query, consults the cache, and
//!    on a miss `try_send`s a request into the bounded queue — a full queue
//!    rejects immediately with [`ServeError::Overloaded`] (backpressure,
//!    never blocking the caller).
//! 2. A worker thread blocks for the first pending request, takes whatever
//!    else is already queued, and — only while the batch is still short of
//!    [`ServeConfig::max_batch`] — waits for more until the
//!    [`ServeConfig::flush_interval`] window closes: the micro-batch.
//! 3. The batch is deduplicated by canonical key, evaluated in **one**
//!    batched inference call on the current model version, and each request
//!    gets its reply through a per-request channel. Results enter the cache
//!    tagged with the version id they were computed under.
//!
//! Because per-query sampling seeds derive from the canonical key (see
//! `iam_core::infer`), coalescing arbitrary requests into one batch returns
//! bitwise-identical estimates to answering each query alone.
//!
//! # Shutdown
//!
//! [`Service::shutdown`] flips the shutdown flag (new submissions are
//! rejected with [`ServeError::ShuttingDown`]) and joins the workers, which
//! drain every request already queued before exiting.

use crate::cache::QueryCache;
use crate::error::ServeError;
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::registry::{ModelRegistry, ModelVersion};
use iam_core::IamEstimator;
use iam_data::{RangeQuery, Table};
use std::collections::HashMap;
use std::io::Read;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Tuning knobs for [`Service::start`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Batch worker threads. `0` starts no workers — queued requests are
    /// never served (useful for deterministic overload/timeout tests).
    ///
    /// Ledger: crates/serve/tests/service.rs
    pub workers: usize,
    /// Maximum requests coalesced into one inference call.
    ///
    /// Ledger: crates/serve/tests/service.rs
    pub max_batch: usize,
    /// Bound of the request queue; a full queue rejects with
    /// [`ServeError::Overloaded`].
    ///
    /// Ledger: crates/serve/tests/service.rs
    pub queue_depth: usize,
    /// How long a worker holding a non-full batch waits for more requests
    /// before flushing it.
    ///
    /// Ledger: crates/serve/tests/service.rs
    pub flush_interval: Duration,
    /// Total result-cache entries (`0` disables the cache).
    ///
    /// Ledger: benchmark/src/workloads.rs
    pub cache_capacity: usize,
    /// Cache shards (rounded up to a power of two).
    // audit-allow(knob-ledger): nothing sets it, but benchmark/src/probes.rs reads it to build its QueryCache; it goes with that probe
    pub cache_shards: usize,
    /// Default per-request timeout for [`Client::estimate`].
    ///
    /// Ledger: deploy
    pub request_timeout: Duration,
    /// Q-error reservoir capacity: how many estimate records are retained
    /// for later `REPORT` truth resolution. `0` (the default) disables
    /// accuracy tracking entirely.
    ///
    /// Ledger: crates/serve/tests/qerror.rs
    pub qerror_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            max_batch: 32,
            queue_depth: 256,
            flush_interval: Duration::from_millis(2),
            cache_capacity: 4096,
            cache_shards: 8,
            request_timeout: Duration::from_secs(5),
            qerror_capacity: 0,
        }
    }
}

/// One queued estimation request.
struct Request {
    query: RangeQuery,
    key: u64,
    enqueued: Instant,
    deadline: Instant,
    /// Trace context captured at submission, so the batch worker's spans
    /// join the submitting request's distributed trace tree.
    ctx: Option<iam_obs::TraceCtx>,
    reply: SyncSender<Result<f64, ServeError>>,
}

/// State shared by the service, its workers, and every client handle.
struct ServiceInner {
    cfg: ServeConfig,
    registry: ModelRegistry,
    cache: QueryCache,
    metrics: Metrics,
    tx: SyncSender<Request>,
    rx: Mutex<Receiver<Request>>,
    shutdown: AtomicBool,
}

/// A running estimation service. Dropping it without calling
/// [`Service::shutdown`] detaches the workers (they keep serving until the
/// process exits); call `shutdown` for a graceful drain.
pub struct Service {
    inner: Arc<ServiceInner>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Service {
    /// Start a service over `model` (registered as version 1).
    pub fn start(model: IamEstimator, label: &str, cfg: ServeConfig) -> Service {
        let (tx, rx) = sync_channel::<Request>(cfg.queue_depth.max(1));
        let metrics = Metrics::new(cfg.qerror_capacity);
        let recoveries = &metrics.lock_recoveries;
        let inner = Arc::new(ServiceInner {
            registry: ModelRegistry::new(model, label, Arc::clone(recoveries)),
            cache: QueryCache::with_recoveries(
                cfg.cache_capacity,
                cfg.cache_shards,
                Arc::clone(recoveries),
            ),
            metrics,
            tx,
            rx: Mutex::new(rx),
            shutdown: AtomicBool::new(false),
            cfg,
        });
        let workers = (0..inner.cfg.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("iam-serve-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker")
            })
            .collect();
        Service { inner, workers }
    }

    /// A cheap, clonable handle for submitting queries.
    pub fn client(&self) -> Client {
        Client { inner: Arc::clone(&self.inner) }
    }

    /// Hot-swap `model` in as a new version; in-flight batches finish on
    /// the old version, the cache is invalidated. Returns the version id.
    pub fn swap_model(&self, model: IamEstimator, label: &str) -> u64 {
        let id = self.inner.registry.install(model, label);
        self.inner.cache.clear();
        self.inner.metrics.model_swap();
        id
    }

    /// Refresh the active model: clone it, train `epochs` additional epochs
    /// on `table` with `train_threads` worker threads (0 = one per core; the
    /// thread count never changes the resulting weights, only wall time),
    /// then hot-swap the retrained clone in as a new version. Serving
    /// continues on the old version for the whole training run. Returns the
    /// new version id.
    pub fn refresh_model(
        &self,
        table: &Table,
        epochs: usize,
        train_threads: usize,
        label: &str,
    ) -> u64 {
        let mut model = self.inner.registry.current().model.clone();
        model.set_train_threads(train_threads);
        model.train_epochs(table, epochs);
        self.swap_model(model, label)
    }

    /// Load a framed snapshot ([`IamEstimator::save_framed`]) and hot-swap
    /// it in. A snapshot that fails its checksum or does not parse leaves
    /// the active version (and the cache) untouched.
    pub fn load_model<R: Read>(&self, r: &mut R, label: &str) -> Result<u64, ServeError> {
        let id = self.inner.registry.load(r, label)?;
        self.inner.cache.clear();
        self.inner.metrics.model_swap();
        Ok(id)
    }

    /// Reactivate the previously active version (see
    /// `ModelRegistry::rollback`). The cache is cleared even though old
    /// entries would still be valid — simpler than resurrecting them.
    pub fn rollback_model(&self) -> Result<u64, ServeError> {
        let id = self.inner.registry.rollback()?;
        self.inner.cache.clear();
        self.inner.metrics.model_swap();
        Ok(id)
    }

    /// `(id, label)` of the active model version.
    pub fn current_version(&self) -> (u64, String) {
        let v = self.inner.registry.current();
        (v.id, v.label.clone())
    }

    /// Point-in-time metrics (cache accounting included).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics.snapshot()
    }

    /// Prometheus text exposition of the service's metrics (plus the
    /// process-global training/inference probes).
    pub fn metrics_prometheus(&self) -> String {
        self.inner.metrics.render_prometheus()
    }

    /// The registry holding every instrument of this service — for
    /// aggregators (the cluster worker) that render several services, each
    /// under its own labels, with the process-global registry once.
    pub fn metrics_registry(&self) -> &iam_obs::Registry {
        self.inner.metrics.registry()
    }

    /// Resolve a reported true count against the q-error reservoir (see
    /// [`iam_obs::QErrorTracker::report`]). Returns the q-error when the
    /// qid's record was sampled, `None` otherwise (or when tracking is
    /// disabled).
    pub fn report_true_count(&self, qid: u64, true_count: u64) -> Option<f64> {
        self.inner.metrics.report_true_count(qid, true_count)
    }

    /// The q-error reservoir's current records, sorted by qid.
    pub fn qerror_records(&self) -> Vec<iam_obs::QRecord> {
        self.inner.metrics.qerror.records()
    }

    /// Stop accepting requests, drain everything already queued, join the
    /// workers, and return the final metrics.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.inner.shutdown.store(true, Relaxed);
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        self.inner.metrics.snapshot()
    }
}

/// An in-process handle to a [`Service`]. Clone freely; all methods take
/// `&self` and are safe from any thread.
#[derive(Clone)]
pub struct Client {
    inner: Arc<ServiceInner>,
}

impl Client {
    /// Estimate the selectivity of `q` with the default timeout.
    pub fn estimate(&self, q: &RangeQuery) -> Result<f64, ServeError> {
        self.estimate_timeout(q, self.inner.cfg.request_timeout)
    }

    /// Estimate with an explicit per-request timeout.
    pub fn estimate_timeout(&self, q: &RangeQuery, timeout: Duration) -> Result<f64, ServeError> {
        self.estimate_many_timeout(std::slice::from_ref(q), timeout)
            .pop()
            .expect("one result per query")
    }

    /// Estimate a whole slice of queries with the default timeout,
    /// returning one result per query in input order.
    pub fn estimate_many(&self, queries: &[RangeQuery]) -> Vec<Result<f64, ServeError>> {
        self.estimate_many_timeout(queries, self.inner.cfg.request_timeout)
    }

    /// Estimate many queries under one deadline: every cache miss is
    /// enqueued *before* the first reply is awaited, so the batch workers
    /// see the whole set at once and can coalesce it into shared inference
    /// calls — the submission path remote front-ends (`iam-dist` workers)
    /// use for frame batches. Per-query failures (overload, timeout, bad
    /// arity) are reported in place and never fail the rest of the batch.
    pub fn estimate_many_timeout(
        &self,
        queries: &[RangeQuery],
        timeout: Duration,
    ) -> Vec<Result<f64, ServeError>> {
        let inner = &*self.inner;
        let start = Instant::now();
        let deadline = start + timeout;
        // captured once per call: the submitting thread's trace context,
        // re-parented under its innermost open span, rides along with every
        // request so the batch worker's spans land in the same tree
        let ctx = iam_obs::tracetree::child_ctx();
        let mut out: Vec<Option<Result<f64, ServeError>>> = vec![None; queries.len()];
        let mut pending: Vec<(usize, Receiver<Result<f64, ServeError>>)> = Vec::new();
        for (i, q) in queries.iter().enumerate() {
            inner.metrics.request();
            if inner.shutdown.load(Relaxed) {
                out[i] = Some(Err(ServeError::ShuttingDown));
                continue;
            }
            let version = inner.registry.current();
            let ncols = version.model.schema.handlers.len();
            if q.cols.len() != ncols {
                inner.metrics.bad_query();
                out[i] = Some(Err(ServeError::BadQuery(format!(
                    "query has {} columns, model has {ncols}",
                    q.cols.len()
                ))));
                continue;
            }
            let key = q.canonical_key();
            let cached = inner.cache.get(key, version.id);
            if !inner.cache.is_disabled() {
                inner.metrics.cache_lookup(cached.is_some());
            }
            if let Some(v) = cached {
                inner.metrics.latency(start.elapsed());
                out[i] = Some(Ok(v));
                continue;
            }
            let (reply_tx, reply_rx) = sync_channel(1);
            let req =
                Request { query: q.clone(), key, enqueued: start, deadline, ctx, reply: reply_tx };
            // counted before the send: the worker that takes the request
            // may count it out before `try_send` even returns
            inner.metrics.enqueued();
            match inner.tx.try_send(req) {
                Ok(()) => pending.push((i, reply_rx)),
                Err(TrySendError::Full(_)) => {
                    inner.metrics.dequeued(1);
                    inner.metrics.overloaded();
                    out[i] = Some(Err(ServeError::Overloaded));
                }
                Err(TrySendError::Disconnected(_)) => {
                    inner.metrics.dequeued(1);
                    out[i] = Some(Err(ServeError::ShuttingDown));
                }
            }
        }
        for (i, rx) in pending {
            let remaining = deadline.saturating_duration_since(Instant::now());
            // a timeout is counted here, once, whichever side noticed it:
            // this wait running out, or the worker finding the deadline
            // already passed and replying `Err(Timeout)`
            let res = rx.recv_timeout(remaining).unwrap_or(Err(ServeError::Timeout));
            if matches!(res, Err(ServeError::Timeout)) {
                inner.metrics.timeout();
            }
            out[i] = Some(res);
        }
        out.into_iter().map(|r| r.expect("every slot filled")).collect()
    }

    /// Column arity the active model expects.
    pub fn ncols(&self) -> usize {
        self.inner.registry.current().model.schema.handlers.len()
    }

    /// Row count of the table the active model was trained on.
    pub fn nrows(&self) -> usize {
        self.inner.registry.current().model.nrows()
    }

    /// Estimate `AVG`/`SUM`/`COUNT` of `target_col` over `q`'s region —
    /// the AQP path behind `SQL SELECT SUM/AVG`. Answers come straight
    /// from [`iam_core::aqp`]'s deterministic shared sampler (a pure
    /// function of model version, query, and target column), bypassing
    /// the micro-batch queue: aggregate traffic is expected to be rare
    /// relative to cardinality lookups and its per-query sampling cannot
    /// be coalesced across queries the way selectivity inference can.
    /// Returns the estimate and the model's row count.
    pub fn aggregate(
        &self,
        q: &RangeQuery,
        target_col: usize,
    ) -> Result<(iam_core::aqp::AggregateEstimate, usize), ServeError> {
        let start = Instant::now();
        self.inner.metrics.request();
        if self.inner.shutdown.load(Relaxed) {
            return Err(ServeError::ShuttingDown);
        }
        let version = self.inner.registry.current();
        let ncols = version.model.schema.handlers.len();
        if q.cols.len() != ncols {
            self.inner.metrics.bad_query();
            return Err(ServeError::BadQuery(format!(
                "query has {} columns, model has {ncols}",
                q.cols.len()
            )));
        }
        if target_col >= ncols {
            self.inner.metrics.bad_query();
            return Err(ServeError::BadQuery(format!(
                "aggregate column c{target_col} out of range (model has {ncols})"
            )));
        }
        let nrows = version.model.nrows();
        let agg = version.model.estimate_aggregate_shared(q, target_col, nrows);
        self.inner.metrics.latency(start.elapsed());
        Ok((agg, nrows))
    }

    /// `(id, label)` of the active model version.
    pub fn current_version(&self) -> (u64, String) {
        let v = self.inner.registry.current();
        (v.id, v.label.clone())
    }

    /// Point-in-time metrics (cache accounting included).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics.snapshot()
    }

    /// Prometheus text exposition of the service's metrics (plus the
    /// process-global training/inference probes).
    pub fn metrics_prometheus(&self) -> String {
        self.inner.metrics.render_prometheus()
    }

    /// Resolve a reported true count against the q-error reservoir; the
    /// `REPORT` line-protocol command lands here.
    pub fn report_true_count(&self, qid: u64, true_count: u64) -> Option<f64> {
        self.inner.metrics.report_true_count(qid, true_count)
    }

    /// The q-error reservoir's current records, sorted by qid.
    pub fn qerror_records(&self) -> Vec<iam_obs::QRecord> {
        self.inner.metrics.qerror.records()
    }
}

/// How long an idle worker sleeps in `recv_timeout` before re-checking the
/// shutdown flag.
const IDLE_POLL: Duration = Duration::from_millis(20);

/// Worker-owned buffers for [`process_batch`], reused across micro-batches
/// so the steady-state batch path performs no per-batch allocation beyond
/// the query clones and reply sends it fundamentally needs.
#[derive(Default)]
struct BatchScratch {
    live: Vec<Request>,
    slot_of: HashMap<u64, usize>,
    queries: Vec<RangeQuery>,
    slots: Vec<usize>,
}

/// Batch assembly, shared by the normal path and the final drain: append
/// what is already queued to `batch`, up to `max_batch` requests in total,
/// and only wait — until `flush_at`; `None` never waits — for a batch that
/// is still short.
fn collect<T>(rx: &Receiver<T>, batch: &mut Vec<T>, max_batch: usize, flush_at: Option<Instant>) {
    loop {
        batch.extend(rx.try_iter().take(max_batch.saturating_sub(batch.len())));
        if batch.len() >= max_batch {
            return;
        }
        let Some(wait) = flush_at.and_then(|at| at.checked_duration_since(Instant::now())) else {
            return;
        };
        match rx.recv_timeout(wait) {
            Ok(r) => batch.push(r),
            Err(_) => return,
        }
    }
}

fn worker_loop(inner: &ServiceInner) {
    let max_batch = inner.cfg.max_batch.max(1);
    let mut batch: Vec<Request> = Vec::with_capacity(max_batch);
    let mut scratch = BatchScratch::default();
    loop {
        {
            // hold the receiver only while assembling the batch, never
            // during inference — other workers collect the next batch
            // while this one computes
            let rx = inner.rx.lock().expect("queue receiver poisoned");
            let flush_at = match rx.recv_timeout(IDLE_POLL) {
                Ok(first) => {
                    batch.push(first);
                    Some(Instant::now() + inner.cfg.flush_interval)
                }
                Err(RecvTimeoutError::Timeout) if !inner.shutdown.load(Relaxed) => continue,
                // shutting down and idle — final drain: catch any request
                // that slipped past the shutdown check concurrently with
                // the flag flip
                Err(RecvTimeoutError::Timeout) => None,
                Err(RecvTimeoutError::Disconnected) => return,
            };
            collect(&rx, &mut batch, max_batch, flush_at);
        }
        if batch.is_empty() {
            // only the final drain can come up empty: nothing is left
            return;
        }
        inner.metrics.dequeued(batch.len());
        process_batch(inner, &mut batch, &mut scratch);
    }
}

/// Answer one coalesced batch: expire dead requests, deduplicate by
/// canonical key, run a single batched inference call, reply and cache.
/// `scratch` is worker-owned and reused across batches.
fn process_batch(inner: &ServiceInner, batch: &mut Vec<Request>, scratch: &mut BatchScratch) {
    let version: Arc<ModelVersion> = inner.registry.current();
    let now = Instant::now();

    let BatchScratch { live, slot_of, queries, slots } = scratch;
    live.clear();
    slot_of.clear();
    queries.clear();
    slots.clear();

    // expire requests whose client has already given up (the client counts
    // the timeout when it reads this reply)
    for req in batch.drain(..) {
        if now >= req.deadline {
            let _ = req.reply.try_send(Err(ServeError::Timeout));
        } else {
            live.push(req);
        }
    }
    if live.is_empty() {
        return;
    }

    // the traced section: dedupe + inference under a `serve.batch` span,
    // inside the first traced request's context. The scope closes BEFORE
    // replies go out, so when a client (or the dist worker piggybacking
    // span buffers onto its reply) sees an answer, the batch's span
    // records are already in the trace buffer.
    let estimates = {
        let _ctx = live.iter().find_map(|r| r.ctx).map(iam_obs::tracetree::install);
        let _span = iam_obs::span!("serve.batch");

        // deduplicate: identical canonical keys share one model evaluation
        // (and, by the seeding invariant, would produce identical results
        // anyway — this just avoids paying for them twice)
        for req in live.iter() {
            let slot = *slot_of.entry(req.key).or_insert_with(|| {
                queries.push(req.query.clone());
                queries.len() - 1
            });
            slots.push(slot);
        }

        // one thread per batch: parallelism comes from `workers` alone
        version.model.estimate_batch_shared(queries, 1)
    };
    inner.metrics.batch(live.len(), queries.len());

    // sample accuracy records before any reply leaves: a client that
    // learns its qid from the reply must be able to REPORT immediately
    if inner.metrics.qerror.enabled() {
        let nrows = version.model.nrows() as u64;
        for (req, &slot) in live.iter().zip(slots.iter()) {
            inner.metrics.qerror.record(iam_obs::QRecord {
                qid: req.key,
                predicate: crate::net::render_query(&req.query),
                cols: (0..req.query.cols.len())
                    .filter(|&i| req.query.cols[i].is_some())
                    .map(|i| i.to_string())
                    .collect(),
                estimate: estimates[slot],
                nrows,
                model_version: version.id,
                latency_us: req.enqueued.elapsed().as_micros().min(u64::MAX as u128) as u64,
            });
        }
    }

    for (req, &slot) in live.iter().zip(slots.iter()) {
        let value = estimates[slot];
        inner.cache.insert(req.key, version.id, value);
        let _ = req.reply.try_send(Ok(value));
        inner.metrics.latency(req.enqueued.elapsed());
    }
    // replies are sent; drop the request handles now rather than holding
    // them (and their channels) alive until the next batch arrives
    live.clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// With k requests queued and `max_batch` m, a batch is the first
    /// min(k, m) of them and the rest stay queued in order; a full batch
    /// never consults the clock, and without a flush window a short one
    /// does not wait for company.
    #[test]
    fn collect_takes_what_is_queued() {
        let (tx, rx) = sync_channel(8);
        (0..5).for_each(|i| tx.send(i).unwrap());
        // what `worker_loop` does: block for the first, collect the rest
        let mut batch = vec![rx.recv().unwrap()];
        collect(&rx, &mut batch, 3, Some(Instant::now() + Duration::from_secs(60)));
        assert_eq!(batch, [0, 1, 2]);

        // the final drain's form: no first request in hand, no window
        batch.clear();
        collect(&rx, &mut batch, 3, None);
        assert_eq!(batch, [3, 4]);

        tx.send(5).unwrap();
        let mut batch = vec![rx.recv().unwrap()];
        collect(&rx, &mut batch, 3, None);
        assert_eq!(batch, [5]);
    }
}
