//! Service metrics: a thin facade over the [`iam_obs`] registry.
//!
//! Every instrument lives in a **per-service** [`iam_obs::Registry`] (so two
//! services in one process — common in tests — never share counters), with
//! the handles cached here so the hot path is a relaxed atomic op, never a
//! registry lookup. [`Metrics::snapshot`] keeps the historical plain-text
//! `STATS` view; [`Metrics::render_prometheus`] adds Prometheus text
//! exposition covering this service *and* the process-global registry where
//! the `iam-core` training/inference probes report.

use iam_obs::{Counter, Gauge, Histogram, Registry};
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

/// Shared, thread-safe service metrics. All mutators take `&self`.
pub struct Metrics {
    registry: Registry,
    requests: Arc<Counter>,
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

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// Fresh, all-zero metrics backed by a private registry.
    pub fn new() -> Self {
        let registry = Registry::new();
        let requests = registry.counter("iam_serve_requests_total", &[]);
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
            requests,
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

    /// A request entered the queue.
    pub(crate) fn enqueued(&self) {
        self.queue_depth.add(1);
    }

    /// `n` requests left the queue (coalesced into one batch).
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

    /// Prometheus text exposition of this service's registry, the cache's
    /// hit/miss accounting (the cache keeps its own counters), lock-poison
    /// recoveries (counted by the cache and registry themselves), and the
    /// process-global registry (training/inference probes).
    pub fn render_prometheus(
        &self,
        cache_hits: u64,
        cache_misses: u64,
        lock_recoveries: u64,
    ) -> String {
        let mut out = self.render_prometheus_local(cache_hits, cache_misses, lock_recoveries);
        out.push_str(&Registry::global().render_prometheus());
        out
    }

    /// Like [`Metrics::render_prometheus`] but without the process-global
    /// registry appended — for aggregators (the cluster worker) that merge
    /// several services into one exposition and must not repeat the global
    /// section per service.
    pub(crate) fn render_prometheus_local(
        &self,
        cache_hits: u64,
        cache_misses: u64,
        lock_recoveries: u64,
    ) -> String {
        let mut out = self.registry.render_prometheus();
        out.push_str("# TYPE iam_serve_cache_hits_total counter\n");
        out.push_str(&format!("iam_serve_cache_hits_total {cache_hits}\n"));
        out.push_str("# TYPE iam_serve_cache_misses_total counter\n");
        out.push_str(&format!("iam_serve_cache_misses_total {cache_misses}\n"));
        out.push_str("# TYPE iam_serve_lock_recoveries_total counter\n");
        out.push_str(&format!("iam_serve_lock_recoveries_total {lock_recoveries}\n"));
        out
    }

    /// Capture a point-in-time view of every counter and histogram.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let lat = self.latency_us.snapshot();
        let bat = self.batch_size.snapshot();
        MetricsSnapshot {
            requests: self.requests.get(),
            cache_hits: 0,
            cache_misses: 0,
            lock_recoveries: 0,
            overloaded: self.overloaded.get(),
            timeouts: self.timeouts.get(),
            bad_queries: self.bad_queries.get(),
            batches: self.batches.get(),
            batched_queries: self.batched_queries.get(),
            queue_depth: self.queue_depth.get().max(0),
            model_swaps: self.model_swaps.get(),
            replies: lat.count(),
            latency_p50_us: lat.quantile(0.50),
            latency_p95_us: lat.quantile(0.95),
            latency_p99_us: lat.quantile(0.99),
            latency_max_us: lat.max,
            mean_batch: bat.mean(),
            max_batch: bat.max,
            batch_buckets: bat.bounds.iter().zip(&bat.counts).map(|(&b, &c)| (b, c)).collect(),
            qerror_reports: 0,
            qerror_unmatched: 0,
            qerror_p50_milli: 0,
            qerror_p95_milli: 0,
            qerror_p99_milli: 0,
            qerror_buckets: Vec::new(),
        }
    }
}

/// A point-in-time view of [`Metrics`], plus cache accounting filled in by
/// the service (the cache keeps its own hit/miss counters).
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Client requests received (including cache hits and rejections).
    pub requests: u64,
    /// Cache lookups answered without touching the model.
    pub cache_hits: u64,
    /// Cache lookups that missed (and went to the queue).
    pub cache_misses: u64,
    /// Poisoned-lock recoveries (cache shards + registry), filled in by the
    /// service like the cache accounting above.
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
        let m = Metrics::new();
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
        let m = Metrics::new();
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

    #[test]
    fn queue_gauge_never_renders_negative() {
        let m = Metrics::new();
        m.dequeued(3); // worker raced ahead of the client's increment
        assert_eq!(m.snapshot().queue_depth, 0);
        m.enqueued();
        m.enqueued();
        m.enqueued();
        assert_eq!(m.snapshot().queue_depth, 0);
        m.enqueued();
        assert_eq!(m.snapshot().queue_depth, 1);
    }

    #[test]
    fn render_is_line_oriented() {
        let s = Metrics::new().snapshot().render();
        assert!(s.lines().all(|l| l.split(' ').count() == 2));
        assert!(s.contains("requests_total 0"));
        assert!(s.contains("batch_size_bucket_inf 0"));
    }

    #[test]
    fn empty_percentile_is_zero() {
        let s = Metrics::new().snapshot();
        assert_eq!(s.latency_p50_us, 0);
        assert_eq!(s.latency_p99_us, 0);
    }

    #[test]
    fn services_do_not_share_instruments() {
        let a = Metrics::new();
        let b = Metrics::new();
        a.request();
        a.request();
        b.request();
        assert_eq!(a.snapshot().requests, 2);
        assert_eq!(b.snapshot().requests, 1);
    }

    #[test]
    fn prometheus_exposition_covers_service_and_cache() {
        let m = Metrics::new();
        m.request();
        m.batch(4, 4);
        m.latency(Duration::from_micros(120));
        let prom = m.render_prometheus(7, 3, 2);
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
    }
}
