//! iam-obs — workspace-wide observability for the IAM pipeline (std-only,
//! no external dependencies).
//!
//! Two layers, each usable alone:
//!
//! * [`registry`] — a shard-friendly metrics registry: [`Counter`],
//!   [`Gauge`], [`FloatGauge`] and fixed-bucket [`Histogram`] instruments
//!   behind `Arc` handles (relaxed atomics on the hot path, a lock only at
//!   registration), with Prometheus text exposition. [`Registry::global`]
//!   hosts the process-wide probes; subsystems that need isolation (the
//!   serving layer, tests) instantiate their own.
//! * [`span`](mod@span) — hierarchical wall-time spans
//!   (`let _g = iam_obs::span!("infer.progressive_sample");`) aggregated
//!   per stack path. Off by default; when enabled, exits fold into a
//!   process-wide table dumped as flamegraph-compatible folded stacks
//!   ([`span::folded_stacks`]) and mirrored into the global registry as
//!   `iam_span_us_total{span=…}` counters. The span guard is the only
//!   tracing mechanism: there is no event sink.
//!
//! Two more build on those:
//!
//! * [`tracetree`] — distributed trace trees: a [`TraceCtx`] (128-bit
//!   trace id + parent span id) installed per thread makes every `span!`
//!   guard additionally record a [`SpanRecord`] with explicit parent
//!   links, so span trees from coordinator, workers and serve processes
//!   stitch into one tree ([`tracetree::TraceTree`], JSONL + folded
//!   stacks). Ids are SplitMix64-seeded — deterministic, no ambient
//!   entropy.
//! * [`qerror`] — served-accuracy tracking: reservoir-sampled estimate
//!   records resolved against later truth reports into q-error histograms
//!   and per-column error gauges, all landing in an ordinary [`Registry`].
//!
//! The probes wired through `iam-core` and `iam-serve` all funnel into
//! these; see the README's "Observability" section for how to scrape and
//! read them.

#![deny(missing_docs)]

pub mod qerror;
pub mod registry;
pub mod span;
pub mod tracetree;

pub use qerror::{QErrorTracker, QRecord};
pub use registry::{
    escape_label, fmt_bound, Counter, FloatGauge, Gauge, Histogram, HistogramSnapshot, Registry,
};
pub use span::{SpanAgg, SpanGuard};
pub use tracetree::{fnv1a, SpanRecord, TraceCtx, TraceIdGen};
