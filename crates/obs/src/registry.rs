//! The metrics registry: named instruments behind `Arc` handles.
//!
//! Instruments are registered once (get-or-create) and then mutated through
//! their handles with relaxed atomics — registration takes a lock, the hot
//! path never does. A [`Registry`] can be instantiated per subsystem (the
//! serving layer keeps one per service so tests stay isolated) or shared
//! process-wide via [`Registry::global`], which is where the `iam-core`
//! training/inference probes live.
//!
//! Snapshots have one format: Prometheus text exposition
//! ([`Registry::render_prometheus`]).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, OnceLock, RwLock};

/// A monotonically increasing `u64` counter.
#[derive(Debug, Default)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    /// A fresh, unregistered counter (usually obtained via
    /// [`Registry::counter`] instead).
    pub fn new() -> Self {
        Counter { v: AtomicU64::new(0) }
    }

    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n` (saturating — a counter never wraps back to a small value,
    /// which would read as a huge negative rate).
    #[inline]
    pub fn add(&self, n: u64) {
        let prev = self.v.fetch_add(n, Relaxed);
        if prev.checked_add(n).is_none() {
            // rare overflow path: pin to the max instead of wrapping
            self.v.store(u64::MAX, Relaxed);
        }
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.v.load(Relaxed)
    }
}

/// A signed gauge (e.g. a queue depth).
#[derive(Debug, Default)]
pub struct Gauge {
    v: AtomicI64,
}

impl Gauge {
    /// A fresh gauge at 0.
    pub fn new() -> Self {
        Gauge { v: AtomicI64::new(0) }
    }

    /// Set to `v`.
    #[inline]
    pub fn set(&self, v: i64) {
        self.v.store(v, Relaxed);
    }

    /// Add `n` (may be negative via [`Gauge::sub`]).
    #[inline]
    pub fn add(&self, n: i64) {
        self.v.fetch_add(n, Relaxed);
    }

    /// Subtract `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.v.fetch_sub(n, Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.v.load(Relaxed)
    }
}

/// A lock-free `f64` gauge (bit-cast into an `AtomicU64`) — used for the
/// training losses, which are set once per epoch and read by scrapes.
#[derive(Debug)]
pub struct FloatGauge {
    bits: AtomicU64,
}

impl Default for FloatGauge {
    fn default() -> Self {
        Self::new()
    }
}

impl FloatGauge {
    /// A fresh gauge at 0.0.
    pub fn new() -> Self {
        FloatGauge { bits: AtomicU64::new(0f64.to_bits()) }
    }

    /// Set to `v`.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Relaxed))
    }
}

/// A fixed-bucket histogram of `u64` observations.
///
/// Bucket bounds are *upper* bounds (`v <= bound` lands in the bucket); the
/// final bucket is always the `u64::MAX` catch-all (appended automatically
/// if the caller's bounds don't end with it), rendered as `+Inf`.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<AtomicU64>,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// Build from upper bucket bounds (must be strictly increasing; a
    /// trailing `u64::MAX` catch-all is appended when missing).
    pub(crate) fn with_bounds(bounds: &[u64]) -> Self {
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must be strictly increasing");
        let mut bounds = bounds.to_vec();
        if bounds.last() != Some(&u64::MAX) {
            bounds.push(u64::MAX);
        }
        let counts = (0..bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram { bounds, counts, sum: AtomicU64::new(0), max: AtomicU64::new(0) }
    }

    /// Record one observation. The running `sum` saturates at `u64::MAX`
    /// instead of wrapping.
    pub fn observe(&self, v: u64) {
        let idx = match self.bounds.binary_search(&v) {
            Ok(i) => i,
            Err(i) => i, // first bound greater than v; last bound is MAX so i < len
        };
        self.counts[idx].fetch_add(1, Relaxed);
        let _ = self.sum.fetch_update(Relaxed, Relaxed, |s| Some(s.saturating_add(v)));
        self.max.fetch_max(v, Relaxed);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Relaxed)).sum()
    }

    /// Sum of all observed values (saturated).
    pub fn sum(&self) -> u64 {
        self.sum.load(Relaxed)
    }

    /// Largest observed value (exact, not a bucket bound).
    pub fn max(&self) -> u64 {
        self.max.load(Relaxed)
    }

    /// Consistent-enough point-in-time copy for reporting.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self.counts.iter().map(|c| c.load(Relaxed)).collect(),
            sum: self.sum.load(Relaxed),
            max: self.max.load(Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Upper bucket bounds; the last is the `u64::MAX` catch-all.
    pub bounds: Vec<u64>,
    /// Per-bucket observation counts (not cumulative).
    pub counts: Vec<u64>,
    /// Sum of observed values (saturated at `u64::MAX`).
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
}

impl HistogramSnapshot {
    /// Total observations.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Mean observed value, or 0.0 with no observations.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// Estimate the `q`-quantile (0..=1): the upper bound of the first
    /// bucket whose cumulative count reaches the rank, 0 when empty. The
    /// catch-all bucket has no finite bound, so a rank landing there reads
    /// the exact [`max`](Self::max) instead.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0;
        for (b, c) in self.bounds.iter().zip(&self.counts) {
            cum += c;
            if cum >= rank {
                return if *b == u64::MAX { self.max } else { *b };
            }
        }
        self.max
    }
}

/// Render a bucket bound for display: the `u64::MAX` catch-all reads as
/// `+Inf`, every other bound as its integer value.
pub fn fmt_bound(b: u64) -> String {
    if b == u64::MAX {
        "+Inf".into()
    } else {
        b.to_string()
    }
}

/// One registered instrument.
#[derive(Clone)]
enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    FloatGauge(Arc<FloatGauge>),
    Histogram(Arc<Histogram>),
}

impl Instrument {
    fn type_name(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) | Instrument::FloatGauge(_) => "gauge",
            Instrument::Histogram(_) => "histogram",
        }
    }
}

/// `name` plus sorted label pairs — the registry key. Ordering groups all
/// series of one metric family together, which is what the Prometheus
/// renderer needs for its `# TYPE` headers.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
struct MetricId {
    name: String,
    labels: Vec<(String, String)>,
}

impl MetricId {
    fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        debug_assert!(
            name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "invalid metric name {name:?}"
        );
        let mut labels: Vec<(String, String)> =
            labels.iter().map(|&(k, v)| (k.to_string(), v.to_string())).collect();
        labels.sort();
        MetricId { name: name.to_string(), labels }
    }

    /// `name` or `name{k="v",…}`.
    fn render(&self) -> String {
        render_series(&self.name, &self.labels, &[])
    }
}

/// Append `v` to `out` escaped as a Prometheus text-format label value
/// (`\`, `"` and newline).
pub fn escape_label(out: &mut String, v: &str) {
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// Render `name{labels…,extra…}` (no braces when both are empty).
fn render_series(name: &str, labels: &[(String, String)], extra: &[(&str, &str)]) -> String {
    if labels.is_empty() && extra.is_empty() {
        return name.to_string();
    }
    let mut s = String::from(name);
    s.push('{');
    let mut first = true;
    for (k, v) in labels.iter().map(|(k, v)| (k.as_str(), v.as_str())).chain(extra.iter().copied())
    {
        if !first {
            s.push(',');
        }
        first = false;
        s.push_str(k);
        s.push_str("=\"");
        escape_label(&mut s, v);
        s.push('"');
    }
    s.push('}');
    s
}

/// A set of named instruments with shard-friendly handles.
///
/// Registration is get-or-create: asking twice for the same `(name,
/// labels)` returns the same underlying instrument, so independent
/// components can share a series without coordination.
///
/// # Panics
/// Registering a name that already exists *with a different instrument
/// type* panics — that is a programming error, not a runtime condition.
#[derive(Default)]
pub struct Registry {
    metrics: RwLock<BTreeMap<MetricId, Instrument>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The process-wide registry used by the `iam-core` probes.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    fn get_or_insert(&self, id: MetricId, make: impl FnOnce() -> Instrument) -> Instrument {
        if let Some(m) = self.metrics.read().expect("registry poisoned").get(&id) {
            return m.clone();
        }
        let mut w = self.metrics.write().expect("registry poisoned");
        w.entry(id).or_insert_with(make).clone()
    }

    /// Get or create a counter.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let id = MetricId::new(name, labels);
        match self.get_or_insert(id, || Instrument::Counter(Arc::new(Counter::new()))) {
            Instrument::Counter(c) => c,
            other => panic!("{name} already registered as a {}", other.type_name()),
        }
    }

    /// Get or create a signed gauge.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let id = MetricId::new(name, labels);
        match self.get_or_insert(id, || Instrument::Gauge(Arc::new(Gauge::new()))) {
            Instrument::Gauge(g) => g,
            other => panic!("{name} already registered as a {}", other.type_name()),
        }
    }

    /// Get or create an `f64` gauge.
    pub fn float_gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<FloatGauge> {
        let id = MetricId::new(name, labels);
        match self.get_or_insert(id, || Instrument::FloatGauge(Arc::new(FloatGauge::new()))) {
            Instrument::FloatGauge(g) => g,
            other => panic!("{name} already registered as a {}", other.type_name()),
        }
    }

    /// Get or create a histogram with the given upper bucket bounds (only
    /// used on first registration; later callers share the first bounds).
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)], bounds: &[u64]) -> Arc<Histogram> {
        let id = MetricId::new(name, labels);
        match self
            .get_or_insert(id, || Instrument::Histogram(Arc::new(Histogram::with_bounds(bounds))))
        {
            Instrument::Histogram(h) => h,
            other => panic!("{name} already registered as a {}", other.type_name()),
        }
    }

    /// Prometheus text exposition: `# TYPE` header per metric family, one
    /// sample per line, histograms as cumulative `_bucket{le=…}` series
    /// with `_sum`/`_count`, the catch-all bucket labelled `le="+Inf"`.
    pub fn render_prometheus(&self) -> String {
        let metrics = self.metrics.read().expect("registry poisoned");
        let mut out = String::new();
        let mut last_family: Option<String> = None;
        for (id, m) in metrics.iter() {
            if last_family.as_deref() != Some(id.name.as_str()) {
                out.push_str("# TYPE ");
                out.push_str(&id.name);
                out.push(' ');
                out.push_str(m.type_name());
                out.push('\n');
                last_family = Some(id.name.clone());
            }
            match m {
                Instrument::Counter(c) => {
                    out.push_str(&id.render());
                    out.push(' ');
                    out.push_str(&c.get().to_string());
                    out.push('\n');
                }
                Instrument::Gauge(g) => {
                    out.push_str(&id.render());
                    out.push(' ');
                    out.push_str(&g.get().to_string());
                    out.push('\n');
                }
                Instrument::FloatGauge(g) => {
                    out.push_str(&id.render());
                    out.push(' ');
                    out.push_str(&fmt_f64(g.get()));
                    out.push('\n');
                }
                Instrument::Histogram(h) => {
                    let snap = h.snapshot();
                    let mut cum = 0u64;
                    for (b, c) in snap.bounds.iter().zip(&snap.counts) {
                        cum += c;
                        let le = fmt_bound(*b);
                        out.push_str(&render_series(
                            &format!("{}_bucket", id.name),
                            &id.labels,
                            &[("le", le.as_str())],
                        ));
                        out.push(' ');
                        out.push_str(&cum.to_string());
                        out.push('\n');
                    }
                    out.push_str(&render_series(&format!("{}_sum", id.name), &id.labels, &[]));
                    out.push(' ');
                    out.push_str(&snap.sum.to_string());
                    out.push('\n');
                    out.push_str(&render_series(&format!("{}_count", id.name), &id.labels, &[]));
                    out.push(' ');
                    out.push_str(&cum.to_string());
                    out.push('\n');
                }
            }
        }
        out
    }
}

/// Format an `f64` for exposition: finite shortest round-trip, otherwise
/// Prometheus' spellings.
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".into()
    } else if v == f64::INFINITY {
        "+Inf".into()
    } else if v == f64::NEG_INFINITY {
        "-Inf".into()
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_exact_zero_and_max() {
        let h = Histogram::with_bounds(&[10, 100, 1000]);
        h.observe(0); // below the first bound → first bucket
        h.observe(10); // exactly on a bound → that bucket (v <= bound)
        h.observe(11); // just above → next bucket
        h.observe(1000); // exactly the last explicit bound
        h.observe(1001); // spills into the catch-all
        h.observe(u64::MAX); // the catch-all takes the largest value
        let s = h.snapshot();
        assert_eq!(s.bounds, vec![10, 100, 1000, u64::MAX]);
        assert_eq!(s.counts, vec![2, 1, 1, 2]);
        assert_eq!(s.max, u64::MAX);
        assert_eq!(s.count(), 6);
    }

    #[test]
    fn observe_saturates_sum_instead_of_wrapping() {
        let h = Histogram::with_bounds(&[10]);
        h.observe(u64::MAX - 5);
        h.observe(100);
        assert_eq!(h.sum(), u64::MAX, "sum must saturate, not wrap");
        assert_eq!(h.count(), 2, "counts keep working after saturation");
    }

    #[test]
    fn counter_saturates() {
        let c = Counter::new();
        c.add(u64::MAX - 1);
        c.add(10);
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn catch_all_renders_as_inf() {
        assert_eq!(fmt_bound(u64::MAX), "+Inf");
        assert_eq!(fmt_bound(500), "500");
        let r = Registry::new();
        r.histogram("iam_test_us", &[], &[50, 500]).observe(9999);
        let prom = r.render_prometheus();
        assert!(prom.contains("iam_test_us_bucket{le=\"+Inf\"} 1"), "{prom}");
        assert!(!prom.contains(&u64::MAX.to_string()), "raw u64::MAX leaked: {prom}");
    }

    #[test]
    fn get_or_create_shares_instruments() {
        let r = Registry::new();
        r.counter("iam_x_total", &[]).add(2);
        r.counter("iam_x_total", &[]).add(3);
        assert_eq!(r.counter("iam_x_total", &[]).get(), 5);
        // different labels are different series
        r.counter("iam_x_total", &[("k", "a")]).inc();
        assert_eq!(r.counter("iam_x_total", &[]).get(), 5);
        assert_eq!(r.counter("iam_x_total", &[("k", "a")]).get(), 1);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn type_conflict_panics() {
        let r = Registry::new();
        r.counter("iam_conflict", &[]);
        r.gauge("iam_conflict", &[]);
    }

    #[test]
    fn prometheus_families_and_cumulative_buckets() {
        let r = Registry::new();
        r.counter("iam_req_total", &[("ds", "wisdm")]).add(7);
        r.counter("iam_req_total", &[("ds", "twi")]).add(3);
        let h = r.histogram("iam_lat_us", &[], &[50, 100]);
        h.observe(10);
        h.observe(60);
        h.observe(60);
        r.gauge("iam_depth", &[]).set(-2);
        r.float_gauge("iam_loss", &[]).set(1.5);
        let prom = r.render_prometheus();
        // one TYPE header per family, even with several label sets
        assert_eq!(prom.matches("# TYPE iam_req_total counter").count(), 1);
        assert!(prom.contains("iam_req_total{ds=\"twi\"} 3"));
        assert!(prom.contains("iam_req_total{ds=\"wisdm\"} 7"));
        // buckets are cumulative
        assert!(prom.contains("iam_lat_us_bucket{le=\"50\"} 1"), "{prom}");
        assert!(prom.contains("iam_lat_us_bucket{le=\"100\"} 3"), "{prom}");
        assert!(prom.contains("iam_lat_us_bucket{le=\"+Inf\"} 3"), "{prom}");
        assert!(prom.contains("iam_lat_us_sum 130"));
        assert!(prom.contains("iam_lat_us_count 3"));
        assert!(prom.contains("iam_depth -2"));
        assert!(prom.contains("iam_loss 1.5"));
        // every non-comment line is `series value`
        assert!(prom.lines().filter(|l| !l.starts_with('#')).all(|l| l.rsplit_once(' ').is_some()));
    }

    #[test]
    fn quantiles_match_bucket_upper_bounds() {
        let h = Histogram::with_bounds(&[50, 100, 5000]);
        for _ in 0..90 {
            h.observe(10);
        }
        for _ in 0..10 {
            h.observe(3000);
        }
        let s = h.snapshot();
        assert_eq!(s.quantile(0.50), 50);
        assert_eq!(s.quantile(0.95), 5000);
        assert_eq!(s.quantile(0.99), 5000);
        assert_eq!(s.max, 3000);
        // a rank in the catch-all bucket reads the largest observation, not
        // u64::MAX; interior buckets still read their bound
        h.observe(7000);
        h.observe(9000);
        let s = h.snapshot();
        assert_eq!(s.quantile(0.50), 50);
        assert_eq!(s.quantile(0.95), 5000);
        assert_eq!(s.quantile(0.99), 9000);
        assert_eq!(s.quantile(1.0), 9000);
        // empty histogram
        let e = Histogram::with_bounds(&[10]).snapshot();
        assert_eq!(e.quantile(0.5), 0);
        assert_eq!(e.mean(), 0.0);
    }
}
