//! Service metrics: a thin facade over the [`iam_obs`] registry.
//!
//! Every number the service reports — the cache's hit/miss accounting,
//! lock-poison recoveries and the q-error tracker included — is an
//! instrument in a **per-service** [`iam_obs::Registry`] (so two services
//! in one process — common in tests — never share counters), with the
//! handles cached here so the hot path is a relaxed atomic op, never a
//! registry lookup. [`Metrics::snapshot`] fills the plain-text `STATS`
//! view from those handles; [`Metrics::render_prometheus`] writes this
//! service's registry *and* the process-global registry, where the
//! `iam-core` training/inference probes report, as one exposition.

use iam_obs::{Counter, Gauge, Histogram, QErrorTracker, Registry};
use std::sync::Arc;
use std::time::Duration;

/// Upper bucket bounds for request latency, in microseconds. The last
/// bucket is a catch-all.
const LATENCY_BOUNDS_US: [u64; 15] = [
    50,
    100,
    200,
    500,
    1_000,
    2_000,
    5_000,
    10_000,
    20_000,
    50_000,
    100_000,
    200_000,
    500_000,
    1_000_000,
    u64::MAX,
];

/// Upper bucket bounds for coalesced batch sizes (requests per inference
/// call). The last bucket is a catch-all.
const BATCH_BOUNDS: [u64; 9] = [1, 2, 4, 8, 16, 32, 64, 128, u64::MAX];

/// Seed driving the q-error reservoir's deterministic eviction.
const QERROR_SEED: u64 = 0xA11E_57E0;

/// Shared, thread-safe service metrics. All mutators take `&self`.
pub struct Metrics {
    registry: Registry,
    /// Served-accuracy tracking; its instruments live in `registry`.
    pub(crate) qerror: QErrorTracker,
    requests: Arc<Counter>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    /// Poisoned-lock recoveries, shared with the cache and the model
    /// registry, which count them.
    pub(crate) lock_recoveries: Arc<Counter>,
    overloaded: Arc<Counter>,
    timeouts: Arc<Counter>,
    bad_queries: Arc<Counter>,
    batches: Arc<Counter>,
    batched_queries: Arc<Counter>,
    model_swaps: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    latency_us: Arc<Histogram>,
    batch_size: Arc<Histogram>,
}

impl Metrics {
    /// Fresh, all-zero metrics backed by a private registry, with a q-error
    /// reservoir of `qerror_capacity` records (0 disables it).
    pub fn new(qerror_capacity: usize) -> Self {
        let registry = Registry::new();
        let qerror = QErrorTracker::new(qerror_capacity, QERROR_SEED, &registry);
        let requests = registry.counter("iam_serve_requests_total", &[]);
        let cache_hits = registry.counter("iam_serve_cache_hits_total", &[]);
        let cache_misses = registry.counter("iam_serve_cache_misses_total", &[]);
        let lock_recoveries = registry.counter("iam_serve_lock_recoveries_total", &[]);
        let overloaded = registry.counter("iam_serve_rejected_overloaded_total", &[]);
        let timeouts = registry.counter("iam_serve_timeouts_total", &[]);
        let bad_queries = registry.counter("iam_serve_bad_queries_total", &[]);
        let batches = registry.counter("iam_serve_batches_total", &[]);
        let batched_queries = registry.counter("iam_serve_batched_queries_total", &[]);
        let model_swaps = registry.counter("iam_serve_model_swaps_total", &[]);
        let queue_depth = registry.gauge("iam_serve_queue_depth", &[]);
        let latency_us = registry.histogram("iam_serve_latency_us", &[], &LATENCY_BOUNDS_US);
        let batch_size = registry.histogram("iam_serve_batch_size", &[], &BATCH_BOUNDS);
        Metrics {
            registry,
            qerror,
            requests,
            cache_hits,
            cache_misses,
            lock_recoveries,
            overloaded,
            timeouts,
            bad_queries,
            batches,
            batched_queries,
            model_swaps,
            queue_depth,
            latency_us,
            batch_size,
        }
    }

    /// The registry backing this service's instruments.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Count a client request (before any queue/cache interaction).
    pub(crate) fn request(&self) {
        self.requests.inc();
    }

    /// Count one lookup of an enabled cache.
    pub(crate) fn cache_lookup(&self, hit: bool) {
        if hit {
            self.cache_hits.inc();
        } else {
            self.cache_misses.inc();
        }
    }

    /// Count a rejected submission (queue full).
    pub fn overloaded(&self) {
        self.overloaded.inc();
    }

    /// Count a request that expired before a reply.
    pub fn timeout(&self) {
        self.timeouts.inc();
    }

    /// Count a malformed query.
    pub(crate) fn bad_query(&self) {
        self.bad_queries.inc();
    }

    /// Count a model hot-swap (or rollback).
    pub(crate) fn model_swap(&self) {
        self.model_swaps.inc();
    }

    /// A request is about to enter the queue. Counted *before* the send,
    /// so a worker's [`Metrics::dequeued`] can never overtake it and the
    /// gauge never reads below 0; a send that fails is undone with
    /// `dequeued(1)`.
    pub(crate) fn enqueued(&self) {
        self.queue_depth.add(1);
    }

    /// `n` requests left the queue (coalesced into one batch), or one
    /// counted request never entered it.
    pub(crate) fn dequeued(&self, n: usize) {
        self.queue_depth.sub(n as i64);
    }

    /// Record one coalesced inference batch: `requests` replies produced by
    /// `distinct` model evaluations (duplicates are answered once).
    pub fn batch(&self, requests: usize, distinct: usize) {
        self.batches.inc();
        self.batched_queries.add(distinct as u64);
        self.batch_size.observe(requests as u64);
    }

    /// Record an end-to-end request latency.
    pub(crate) fn latency(&self, d: Duration) {
        self.latency_us.observe(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Resolve a truth report against the q-error reservoir.
    pub(crate) fn report_true_count(&self, qid: u64, true_count: u64) -> Option<f64> {
        self.qerror.report(&self.registry, qid, true_count)
    }

    /// Prometheus text exposition of this service's registry and the
    /// process-global registry (training/inference probes), one family
    /// per `# TYPE` line.
    pub fn render_prometheus(&self) -> String {
        iam_obs::render_prometheus(&[(&self.registry, &[]), (Registry::global(), &[])])
    }

    /// Capture a point-in-time view of every counter and histogram.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let lat = self.latency_us.snapshot();
        let bat = self.batch_size.snapshot();
        let (_, qerror_reports, qerror_unmatched) = self.qerror.counts();
        let qe = self.qerror.histogram_snapshot();
        MetricsSnapshot {
            requests: self.requests.get(),
            cache_hits: self.cache_hits.get(),
            cache_misses: self.cache_misses.get(),
            lock_recoveries: self.lock_recoveries.get(),
            overloaded: self.overloaded.get(),
            timeouts: self.timeouts.get(),
            bad_queries: self.bad_queries.get(),
            batches: self.batches.get(),
            batched_queries: self.batched_queries.get(),
            queue_depth: self.queue_depth.get(),
            model_swaps: self.model_swaps.get(),
            replies: lat.count(),
            latency_p50_us: lat.quantile(0.50),
            latency_p95_us: lat.quantile(0.95),
            latency_p99_us: lat.quantile(0.99),
            latency_max_us: lat.max,
            mean_batch: bat.mean(),
            max_batch: bat.max,
            batch_buckets: bat.bounds.iter().zip(&bat.counts).map(|(&b, &c)| (b, c)).collect(),
            qerror_reports,
            qerror_unmatched,
            qerror_p50_milli: qe.quantile(0.50),
            qerror_p95_milli: qe.quantile(0.95),
            qerror_p99_milli: qe.quantile(0.99),
            qerror_buckets: qe.bounds.iter().zip(&qe.counts).map(|(&b, &c)| (b, c)).collect(),
        }
    }
}

/// A point-in-time view of [`Metrics`].
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Client requests received (including cache hits and rejections).
    pub requests: u64,
    /// Cache lookups answered without touching the model.
    pub cache_hits: u64,
    /// Cache lookups that missed (and went to the queue).
    pub cache_misses: u64,
    /// Poisoned-lock recoveries (cache shards + model registry).
    pub lock_recoveries: u64,
    /// Submissions rejected with `Overloaded`.
    pub overloaded: u64,
    /// Requests that expired before a reply.
    pub timeouts: u64,
    /// Malformed queries rejected before queueing.
    pub bad_queries: u64,
    /// Coalesced inference batches executed.
    pub batches: u64,
    /// Distinct queries evaluated by the model across all batches.
    pub batched_queries: u64,
    /// Requests currently sitting in the queue.
    pub queue_depth: i64,
    /// Model hot-swaps and rollbacks.
    pub model_swaps: u64,
    /// Replies whose latency was recorded.
    pub replies: u64,
    /// End-to-end latency, 50th percentile (bucket upper bound, µs).
    pub latency_p50_us: u64,
    /// End-to-end latency, 95th percentile (µs).
    pub latency_p95_us: u64,
    /// End-to-end latency, 99th percentile (µs).
    pub latency_p99_us: u64,
    /// Largest observed latency (µs, exact).
    pub latency_max_us: u64,
    /// Mean requests coalesced per batch.
    pub mean_batch: f64,
    /// Largest batch observed (exact).
    pub max_batch: u64,
    /// `(upper_bound, count)` per batch-size bucket; the last bound is
    /// `u64::MAX` (catch-all).
    pub batch_buckets: Vec<(u64, u64)>,
    /// Truth reports resolved against the q-error reservoir.
    pub qerror_reports: u64,
    /// Truth reports whose qid had no sampled record.
    pub qerror_unmatched: u64,
    /// Q-error 50th percentile (milli-q bucket upper bound; 1000 = 1.0×).
    pub qerror_p50_milli: u64,
    /// Q-error 95th percentile (milli-q).
    pub qerror_p95_milli: u64,
    /// Q-error 99th percentile (milli-q).
    pub qerror_p99_milli: u64,
    /// `(upper_bound, count)` per q-error bucket (milli-q); the last bound
    /// is `u64::MAX` (catch-all).
    pub qerror_buckets: Vec<(u64, u64)>,
}

impl MetricsSnapshot {
    /// Fraction of cache lookups that hit, or 0 with no lookups.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Plain-text dump, one `name value` pair per line — the format served
    /// by the TCP front-end's `STATS` command.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let mut line = |k: &str, v: String| {
            s.push_str(k);
            s.push(' ');
            s.push_str(&v);
            s.push('\n');
        };
        line("requests_total", self.requests.to_string());
        line("cache_hits", self.cache_hits.to_string());
        line("cache_misses", self.cache_misses.to_string());
        line("cache_hit_rate", format!("{:.4}", self.cache_hit_rate()));
        line("lock_recoveries", self.lock_recoveries.to_string());
        line("rejected_overloaded", self.overloaded.to_string());
        line("timeouts", self.timeouts.to_string());
        line("bad_queries", self.bad_queries.to_string());
        line("batches_total", self.batches.to_string());
        line("batched_queries_total", self.batched_queries.to_string());
        line("queue_depth", self.queue_depth.to_string());
        line("model_swaps", self.model_swaps.to_string());
        line("replies_total", self.replies.to_string());
        line("latency_us_p50", self.latency_p50_us.to_string());
        line("latency_us_p95", self.latency_p95_us.to_string());
        line("latency_us_p99", self.latency_p99_us.to_string());
        line("latency_us_max", self.latency_max_us.to_string());
        line("batch_size_mean", format!("{:.2}", self.mean_batch));
        line("batch_size_max", self.max_batch.to_string());
        // bucket keys are sorted by bound before emit so this view, the
        // Prometheus exposition, and the JSONL snapshot all agree on
        // ordering — cross-exposition consistency asserts depend on it
        let mut batch_buckets = self.batch_buckets.clone();
        batch_buckets.sort_by_key(|&(bound, _)| bound);
        for (bound, count) in batch_buckets {
            if bound == u64::MAX {
                line("batch_size_bucket_inf", count.to_string());
            } else {
                line(&format!("batch_size_bucket_le_{bound}"), count.to_string());
            }
        }
        line("qerror_reports", self.qerror_reports.to_string());
        line("qerror_unmatched", self.qerror_unmatched.to_string());
        line("qerror_milli_p50", self.qerror_p50_milli.to_string());
        line("qerror_milli_p95", self.qerror_p95_milli.to_string());
        line("qerror_milli_p99", self.qerror_p99_milli.to_string());
        let mut qerror_buckets = self.qerror_buckets.clone();
        qerror_buckets.sort_by_key(|&(bound, _)| bound);
        for (bound, count) in qerror_buckets {
            if bound == u64::MAX {
                line("qerror_milli_bucket_inf", count.to_string());
            } else {
                line(&format!("qerror_milli_bucket_le_{bound}"), count.to_string());
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_from_buckets() {
        let m = Metrics::new(0);
        // 90 fast replies (≤50µs), 10 slow (≤5ms)
        for _ in 0..90 {
            m.latency(Duration::from_micros(10));
        }
        for _ in 0..10 {
            m.latency(Duration::from_micros(3_000));
        }
        let s = m.snapshot();
        assert_eq!(s.latency_p50_us, 50);
        assert_eq!(s.latency_p95_us, 5_000);
        assert_eq!(s.latency_p99_us, 5_000);
        assert_eq!(s.latency_max_us, 3_000);
        assert_eq!(s.replies, 100);
    }

    #[test]
    fn batch_accounting() {
        let m = Metrics::new(0);
        m.batch(16, 12);
        m.batch(4, 4);
        let s = m.snapshot();
        assert_eq!(s.batches, 2);
        assert_eq!(s.batched_queries, 16);
        assert_eq!(s.max_batch, 16);
        assert!((s.mean_batch - 10.0).abs() < 1e-9);
        // 16 lands in the ≤16 bucket, 4 in the ≤4 bucket
        assert_eq!(s.batch_buckets[4], (16, 1));
        assert_eq!(s.batch_buckets[2], (4, 1));
    }

    /// The gauge is counted before the send and undone after a failed one,
    /// so it is never negative and needs no clamp: `STATS` and `STATS PROM`
    /// read the same value, whatever it is.
    #[test]
    fn queue_gauge_never_renders_negative() {
        let m = Metrics::new(0);
        let depth = |m: &Metrics| {
            let prom = m.render_prometheus();
            let line = prom.lines().find(|l| l.starts_with("iam_serve_queue_depth ")).unwrap();
            (m.snapshot().queue_depth, line.rsplit_once(' ').unwrap().1.parse::<i64>().unwrap())
        };
        m.enqueued();
        m.enqueued();
        assert_eq!(depth(&m), (2, 2));
        m.dequeued(1); // a send that found the queue full is undone
        m.dequeued(1); // a worker took the other request
        assert_eq!(depth(&m), (0, 0));
        // were a dequeue ever to overtake its enqueue, both views would
        // show it rather than one of them hiding it
        m.dequeued(1);
        assert_eq!(depth(&m), (-1, -1));
    }

    #[test]
    fn render_is_line_oriented() {
        let s = Metrics::new(0).snapshot().render();
        assert!(s.lines().all(|l| l.split(' ').count() == 2));
        assert!(s.contains("requests_total 0"));
        assert!(s.contains("batch_size_bucket_inf 0"));
    }

    #[test]
    fn empty_percentile_is_zero() {
        let s = Metrics::new(0).snapshot();
        assert_eq!(s.latency_p50_us, 0);
        assert_eq!(s.latency_p99_us, 0);
    }

    #[test]
    fn services_do_not_share_instruments() {
        let a = Metrics::new(0);
        let b = Metrics::new(0);
        a.request();
        a.request();
        b.request();
        assert_eq!(a.snapshot().requests, 2);
        assert_eq!(b.snapshot().requests, 1);
    }

    #[test]
    fn prometheus_exposition_covers_service_and_cache() {
        let m = Metrics::new(0);
        m.request();
        m.batch(4, 4);
        m.latency(Duration::from_micros(120));
        (0..7).for_each(|_| m.cache_lookup(true));
        (0..3).for_each(|_| m.cache_lookup(false));
        m.lock_recoveries.add(2);
        let prom = m.render_prometheus();
        assert!(prom.contains("# TYPE iam_serve_requests_total counter"), "{prom}");
        assert!(prom.contains("iam_serve_requests_total 1"), "{prom}");
        assert!(prom.contains("iam_serve_cache_hits_total 7"), "{prom}");
        assert!(prom.contains("iam_serve_cache_misses_total 3"), "{prom}");
        assert!(prom.contains("iam_serve_lock_recoveries_total 2"), "{prom}");
        // histogram catch-alls render as +Inf, never a raw u64::MAX
        assert!(prom.contains("iam_serve_latency_us_bucket{le=\"+Inf\"} 1"), "{prom}");
        assert!(!prom.contains(&u64::MAX.to_string()), "{prom}");
        // snapshot totals agree with the exposition
        assert!(prom.contains("iam_serve_batch_size_sum 4"), "{prom}");
        assert!(prom.contains("iam_serve_batch_size_count 1"), "{prom}");
        let s = m.snapshot();
        assert_eq!((s.cache_hits, s.cache_misses, s.lock_recoveries), (7, 3, 2));
    }
}
