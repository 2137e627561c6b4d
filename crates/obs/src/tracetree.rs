//! Distributed trace trees: discrete span records with explicit parent
//! links, stitched across process boundaries.
//!
//! The [`span`](mod@crate::span) layer aggregates timings per stack *path*;
//! that is the right shape for flamegraphs but it cannot attribute one slow
//! query to one worker in a cluster. This module adds the missing identity:
//!
//! * a [`TraceCtx`] — a 128-bit trace id plus the parent span id — that a
//!   coordinator mints per client batch ([`TraceIdGen`], SplitMix64-seeded,
//!   **no ambient entropy**: the same seed always yields the same ids, so
//!   tests can pin trace identity) and threads across RPC hops;
//! * per-thread context installation ([`CtxGuard`]): while a context is
//!   current *and* [`enable`] has been called, every
//!   [`span!`](crate::span!) guard additionally records one [`SpanRecord`]
//!   — name, span id, parent span id, wall-clock start, duration, and the
//!   process label ([`set_process_label`]) — into a bounded process buffer;
//! * drains ([`drain`], [`drain_trace`]) so a worker can ship the records
//!   of one trace back to its coordinator, which merges them with its own
//!   ([`to_jsonl`], [`folded_stacks`]) into a single cross-process tree.
//!
//! Collection is **off by default** twice over: nothing records unless
//! `enable()` was called *and* a context is installed, and an idle check is
//! one relaxed atomic load.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock};
use std::time::{SystemTime, UNIX_EPOCH};

/// Advance a SplitMix64 state and return the next draw — the workspace's
/// standard seeded generator (identical to the audit fuzzer's), chosen so
/// trace ids are reproducible from a seed with no `Date.now`-style ambient
/// entropy.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A trace context crossing thread and process boundaries: which trace a
/// span belongs to, and which span is its parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// 128-bit trace id shared by every span of one traced operation.
    pub trace_id: u128,
    /// Span id the next child span should be parented under (0 = root).
    pub parent_span: u64,
}

impl TraceCtx {
    /// A root context for a fresh trace (children parent under 0).
    pub fn root(trace_id: u128) -> TraceCtx {
        TraceCtx { trace_id, parent_span: 0 }
    }

    /// The same trace re-parented under `span_id` — what gets sent to a
    /// remote peer so its spans nest under the local RPC span.
    pub(crate) fn child_of(&self, span_id: u64) -> TraceCtx {
        TraceCtx { trace_id: self.trace_id, parent_span: span_id }
    }
}

/// Deterministic trace-id generator: a SplitMix64 stream. Two generators
/// with the same seed mint the same ids in the same order.
#[derive(Debug)]
pub struct TraceIdGen {
    state: u64,
}

impl TraceIdGen {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> TraceIdGen {
        TraceIdGen { state: seed }
    }

    /// Mint the next 128-bit trace id (never 0).
    pub fn next_trace_id(&mut self) -> u128 {
        loop {
            let hi = splitmix64(&mut self.state) as u128;
            let lo = splitmix64(&mut self.state) as u128;
            let id = (hi << 64) | lo;
            if id != 0 {
                return id;
            }
        }
    }
}

/// One completed span of a trace tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Trace this span belongs to.
    pub trace_id: u128,
    /// This span's id (unique within the trace).
    pub span_id: u64,
    /// Parent span id; 0 means the span is a trace root.
    pub parent_span: u64,
    /// Span name (the `span!` literal, e.g. `dist.rpc`).
    pub name: String,
    /// Label of the process that recorded the span (see
    /// [`set_process_label`]).
    pub proc: String,
    /// Wall-clock start (µs since the unix epoch; informational — tree
    /// structure never depends on clock alignment between processes).
    pub start_unix_us: u64,
    /// Wall duration (µs).
    pub dur_us: u64,
}

// --- process-global state --------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
/// Monotone sequence mixed into span-id allocation (uniqueness, not
/// entropy).
static SPAN_SEQ: AtomicU64 = AtomicU64::new(1);
/// Bound on buffered records; beyond it records are dropped and counted.
const BUF_CAP: usize = 65_536;
static DROPPED: AtomicU64 = AtomicU64::new(0);

fn buffer() -> &'static Mutex<Vec<SpanRecord>> {
    static BUF: OnceLock<Mutex<Vec<SpanRecord>>> = OnceLock::new();
    BUF.get_or_init(|| Mutex::new(Vec::new()))
}

fn proc_label() -> &'static Mutex<String> {
    static L: OnceLock<Mutex<String>> = OnceLock::new();
    L.get_or_init(|| Mutex::new(String::from("proc")))
}

/// Set this process's label, stamped into every [`SpanRecord`] it records
/// and mixed into span-id allocation so two processes sharing a trace
/// cannot mint colliding ids.
pub fn set_process_label(label: &str) {
    *proc_label().lock().unwrap_or_else(|p| p.into_inner()) = label.to_string();
}

/// The current process label.
pub(crate) fn process_label() -> String {
    proc_label().lock().unwrap_or_else(|p| p.into_inner()).clone()
}

/// Turn trace-tree recording on (idempotent). Spans still only record
/// while a [`TraceCtx`] is installed on their thread.
pub fn enable() {
    ENABLED.store(true, Relaxed);
}

/// Turn trace-tree recording off.
pub fn disable() {
    ENABLED.store(false, Relaxed);
}

/// Is trace-tree recording on?
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Relaxed)
}

thread_local! {
    static CURRENT: Cell<Option<TraceCtx>> = const { Cell::new(None) };
}

/// The context installed on this thread, if any.
#[inline]
pub fn current() -> Option<TraceCtx> {
    CURRENT.with(|c| c.get())
}

/// The context a *child* (a queued request, a scatter thread, a remote
/// peer) should inherit from this thread: the current trace re-parented
/// under the innermost open span, falling back to the installed context's
/// parent when no span is open.
pub fn child_ctx() -> Option<TraceCtx> {
    let ctx = current()?;
    Some(match crate::span::active_tree_span() {
        Some(span_id) => ctx.child_of(span_id),
        None => ctx,
    })
}

/// Install `ctx` as this thread's current context; the returned guard
/// restores the previous context on drop.
pub fn install(ctx: TraceCtx) -> CtxGuard {
    let prev = CURRENT.with(|c| c.replace(Some(ctx)));
    CtxGuard { prev }
}

/// Restores the previously installed [`TraceCtx`] on drop.
#[must_use = "dropping the guard immediately uninstalls the context"]
pub struct CtxGuard {
    prev: Option<TraceCtx>,
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev.take()));
    }
}

/// FNV-1a-64 over a byte slice: the process-label mixing of span ids here,
/// the framed-snapshot checksum of `iam-core` and the table placement of
/// `iam-dist`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Allocate a span id for `trace_id`: deterministic given (seed-derived
/// trace id, process label, allocation order), unique across the processes
/// of one trace because the label hash is mixed in.
pub(crate) fn alloc_span_id(trace_id: u128) -> u64 {
    let seq = SPAN_SEQ.fetch_add(1, Relaxed);
    let label_hash = fnv1a(process_label().as_bytes());
    let mut state = (trace_id as u64) ^ ((trace_id >> 64) as u64) ^ label_hash ^ seq;
    let id = splitmix64(&mut state);
    if id == 0 {
        1
    } else {
        id
    }
}

/// Wall-clock "now" in µs since the unix epoch (0 if the clock is broken).
pub(crate) fn unix_us_now() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros().min(u64::MAX as u128) as u64)
        .unwrap_or(0)
}

/// Push one completed record into the process buffer (bounded; overflow
/// drops the record and counts it — tracing must never grow unbounded).
pub(crate) fn record(rec: SpanRecord) {
    let mut buf = buffer().lock().unwrap_or_else(|p| p.into_inner());
    if buf.len() >= BUF_CAP {
        DROPPED.fetch_add(1, Relaxed);
        return;
    }
    buf.push(rec);
}

/// Merge records produced by *another* process (a worker's piggybacked
/// span buffer) into this process's buffer, so one [`drain`] yields the
/// stitched cluster-wide trace. Subject to the same bound as local
/// records — overflow drops and counts.
pub fn absorb(records: Vec<SpanRecord>) {
    let mut buf = buffer().lock().unwrap_or_else(|p| p.into_inner());
    for rec in records {
        if buf.len() >= BUF_CAP {
            DROPPED.fetch_add(1, Relaxed);
            continue;
        }
        buf.push(rec);
    }
}

/// Records dropped on buffer overflow since process start.
pub fn dropped() -> u64 {
    DROPPED.load(Relaxed)
}

/// Drain every buffered record.
pub fn drain() -> Vec<SpanRecord> {
    std::mem::take(&mut *buffer().lock().unwrap_or_else(|p| p.into_inner()))
}

/// Drain only the records of `trace_id`, leaving other traces buffered —
/// what a worker ships back on the reply that completes that trace.
pub fn drain_trace(trace_id: u128) -> Vec<SpanRecord> {
    let mut buf = buffer().lock().unwrap_or_else(|p| p.into_inner());
    let mut out = Vec::new();
    buf.retain(|r| {
        if r.trace_id == trace_id {
            out.push(r.clone());
            false
        } else {
            true
        }
    });
    out
}

/// Clear the buffer without returning anything (tests).
pub fn reset() {
    buffer().lock().unwrap_or_else(|p| p.into_inner()).clear();
}

// --- JSONL schema ----------------------------------------------------------

impl SpanRecord {
    /// Render as one `{"event":"span",…}` JSONL line (no trailing newline).
    /// Schema: `trace` (32 hex chars), `span`/`parent` (decimal u64),
    /// `name`, `proc`, `start_us`, `dur_us`.
    pub(crate) fn to_json_line(&self) -> String {
        format!(
            "{{\"event\":\"span\",\"trace\":\"{:032x}\",\"span\":{},\"parent\":{},\
             \"name\":\"{}\",\"proc\":\"{}\",\"start_us\":{},\"dur_us\":{}}}",
            self.trace_id,
            self.span_id,
            self.parent_span,
            json_escape(&self.name),
            json_escape(&self.proc),
            self.start_unix_us,
            self.dur_us,
        )
    }
}

/// Escape a string for inclusion inside a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render records as a JSONL document, one span event per line, sorted by
/// (trace, start, span id) so the merged dump is deterministic for a given
/// record set regardless of arrival interleaving.
pub fn to_jsonl(records: &[SpanRecord]) -> String {
    let mut sorted: Vec<&SpanRecord> = records.iter().collect();
    sorted.sort_by_key(|r| (r.trace_id, r.start_unix_us, r.span_id));
    let mut out = String::new();
    for r in sorted {
        out.push_str(&r.to_json_line());
        out.push('\n');
    }
    out
}

// --- stitching -------------------------------------------------------------

/// One stitched trace: records indexed for tree walks.
pub struct TraceTree<'a> {
    records: Vec<&'a SpanRecord>,
    children: HashMap<u64, Vec<usize>>,
    roots: Vec<usize>,
}

impl<'a> TraceTree<'a> {
    /// Build the tree of `trace_id` out of `records` (records from other
    /// traces are ignored). A span whose parent is 0 — or whose parent id
    /// is not among the records (an unshipped remote segment) — becomes a
    /// root, so a partial trace still folds instead of vanishing.
    pub fn build(records: &'a [SpanRecord], trace_id: u128) -> TraceTree<'a> {
        let mut recs: Vec<&SpanRecord> =
            records.iter().filter(|r| r.trace_id == trace_id).collect();
        recs.sort_by_key(|r| (r.start_unix_us, r.span_id));
        let ids: std::collections::HashSet<u64> = recs.iter().map(|r| r.span_id).collect();
        let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
        let mut roots = Vec::new();
        for (i, r) in recs.iter().enumerate() {
            if r.parent_span != 0 && ids.contains(&r.parent_span) {
                children.entry(r.parent_span).or_default().push(i);
            } else {
                roots.push(i);
            }
        }
        TraceTree { records: recs, children, roots }
    }

    /// The distinct trace ids present in `records`, sorted.
    pub fn trace_ids(records: &[SpanRecord]) -> Vec<u128> {
        let mut ids: Vec<u128> = records.iter().map(|r| r.trace_id).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Number of spans in this trace.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Is the trace empty?
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The record carrying `span_id`, if present.
    pub fn span(&self, span_id: u64) -> Option<&SpanRecord> {
        self.records.iter().find(|r| r.span_id == span_id).copied()
    }

    /// Direct children of `span_id`, in start order.
    pub fn children_of(&self, span_id: u64) -> Vec<&SpanRecord> {
        self.children
            .get(&span_id)
            .map(|idxs| idxs.iter().map(|&i| self.records[i]).collect())
            .unwrap_or_default()
    }

    /// Root spans (parent 0 or parent missing from the record set).
    pub fn root_spans(&self) -> Vec<&SpanRecord> {
        self.roots.iter().map(|&i| self.records[i]).collect()
    }

    /// Folded-stacks dump of this tree: one `name;…;name self_µs` line per
    /// span, `proc:name` frames, sorted by path — the flamegraph view of
    /// one distributed request.
    pub fn folded_stacks(&self) -> String {
        let mut lines = self.self_times();
        lines.sort();
        render_folded(lines)
    }

    /// `(path, self µs)` for every span of the tree, in walk order.
    fn self_times(&self) -> Vec<(String, u64)> {
        let mut lines: Vec<(String, u64)> = Vec::new();
        let mut stack: Vec<String> = Vec::new();
        for &root in &self.roots {
            self.fold_into(root, &mut stack, &mut lines);
        }
        lines
    }

    fn fold_into(&self, idx: usize, stack: &mut Vec<String>, lines: &mut Vec<(String, u64)>) {
        let r = self.records[idx];
        stack.push(format!("{}:{}", r.proc, r.name));
        let child_idxs = self.children.get(&r.span_id).cloned().unwrap_or_default();
        let child_us: u64 =
            child_idxs.iter().map(|&i| self.records[i].dur_us).fold(0, u64::saturating_add);
        let self_us = r.dur_us.saturating_sub(child_us);
        lines.push((stack.join(";"), self_us));
        for i in child_idxs {
            self.fold_into(i, stack, lines);
        }
        stack.pop();
    }
}

/// One `path µs` line per entry.
fn render_folded(lines: impl IntoIterator<Item = (String, u64)>) -> String {
    let mut out = String::new();
    for (path, us) in lines {
        out.push_str(&path);
        out.push(' ');
        out.push_str(&us.to_string());
        out.push('\n');
    }
    out
}

/// Folded stacks across every trace in `records`: each trace folds
/// independently, and a path's self time is summed over every span on it,
/// in every trace. Sorted by path.
pub fn folded_stacks(records: &[SpanRecord]) -> String {
    let mut merged: std::collections::BTreeMap<String, u64> = Default::default();
    for id in TraceTree::trace_ids(records) {
        for (path, us) in TraceTree::build(records, id).self_times() {
            let total = merged.entry(path).or_insert(0);
            *total = total.saturating_add(us);
        }
    }
    render_folded(merged)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(trace: u128, span: u64, parent: u64, name: &str, proc_: &str, dur: u64) -> SpanRecord {
        SpanRecord {
            trace_id: trace,
            span_id: span,
            parent_span: parent,
            name: name.into(),
            proc: proc_.into(),
            start_unix_us: span, // start order == span id order in tests
            dur_us: dur,
        }
    }

    #[test]
    fn trace_id_gen_is_deterministic_and_nonzero() {
        let mut a = TraceIdGen::new(42);
        let mut b = TraceIdGen::new(42);
        let ids: Vec<u128> = (0..16).map(|_| a.next_trace_id()).collect();
        let ids2: Vec<u128> = (0..16).map(|_| b.next_trace_id()).collect();
        assert_eq!(ids, ids2, "same seed must mint the same ids");
        assert!(ids.iter().all(|&i| i != 0));
        let mut dedup = ids.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len(), "ids must not repeat");
        assert_ne!(TraceIdGen::new(43).next_trace_id(), ids[0], "seed must matter");
    }

    // no reader exists in the workspace: the schema is pinned on the writer
    #[test]
    fn json_line_round_trips_exactly() {
        let r = rec(0xDEAD_BEEF_0123_4567_89AB_CDEF_0011_2233, 7, 3, "dist.rpc", "worker-1", 250);
        assert_eq!(
            r.to_json_line(),
            "{\"event\":\"span\",\"trace\":\"deadbeef0123456789abcdef00112233\",\"span\":7,\
             \"parent\":3,\"name\":\"dist.rpc\",\"proc\":\"worker-1\",\"start_us\":7,\"dur_us\":250}"
        );
        // names that need escaping stay inside their string literal
        let odd = rec(1, 2, 0, "a\"b\\c", "p\nq", 1).to_json_line();
        assert!(odd.contains("\"name\":\"a\\\"b\\\\c\",\"proc\":\"p\\nq\""), "{odd}");
        assert_eq!(odd.lines().count(), 1, "a raw newline would split the JSONL record: {odd}");
    }

    #[test]
    fn escape_handles_control_chars() {
        assert_eq!(json_escape("a\nb\t\"c\\"), "a\\nb\\t\\\"c\\\\");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn jsonl_document_round_trips_per_line() {
        // arrival order is not start order; the document is sorted
        let records =
            vec![rec(5, 2, 1, "child", "worker-0", 40), rec(5, 1, 0, "root", "coord", 100)];
        let doc = to_jsonl(&records);
        let lines: Vec<&str> = doc.lines().collect();
        assert_eq!(lines, [records[1].to_json_line(), records[0].to_json_line()]);
        assert!(doc.ends_with('\n'));
    }

    #[test]
    fn tree_builds_and_folds_with_nesting() {
        let records = vec![
            rec(9, 1, 0, "dist.scatter_gather", "coord", 1000),
            rec(9, 2, 1, "dist.partition", "coord", 50),
            rec(9, 3, 1, "dist.rpc", "coord", 800),
            rec(9, 4, 3, "worker.serve", "worker-0", 600),
            rec(9, 5, 4, "serve.batch", "worker-0", 500),
        ];
        let tree = TraceTree::build(&records, 9);
        assert_eq!(tree.len(), 5);
        assert_eq!(tree.root_spans().len(), 1);
        assert_eq!(tree.root_spans()[0].name, "dist.scatter_gather");
        let rpc_children = tree.children_of(3);
        assert_eq!(rpc_children.len(), 1);
        assert_eq!(rpc_children[0].name, "worker.serve");
        assert_eq!(rpc_children[0].proc, "worker-0");

        let folded = tree.folded_stacks();
        // nesting is by parent link, crossing the process boundary
        assert!(
            folded.contains(
                "coord:dist.scatter_gather;coord:dist.rpc;worker-0:worker.serve;\
                 worker-0:serve.batch 500"
            ),
            "{folded}"
        );
        // self time excludes children: rpc 800 − serve 600 = 200
        assert!(folded.contains("coord:dist.scatter_gather;coord:dist.rpc 200"), "{folded}");
        // every line parses as `path µs`
        for line in folded.lines() {
            let (path, us) = line.rsplit_once(' ').expect("path value");
            assert!(!path.is_empty());
            us.parse::<u64>().expect("numeric self time");
        }
        // lines are sorted (deterministic output)
        let lines: Vec<&str> = folded.lines().collect();
        let mut sorted = lines.clone();
        sorted.sort();
        assert_eq!(lines, sorted);
    }

    #[test]
    fn orphaned_parents_become_roots() {
        // a remote segment whose parent record never shipped still folds
        let records = vec![rec(3, 10, 999, "worker.serve", "worker-2", 70)];
        let tree = TraceTree::build(&records, 3);
        assert_eq!(tree.root_spans().len(), 1);
        assert!(tree.folded_stacks().contains("worker-2:worker.serve 70"));
    }

    #[test]
    fn span_ids_differ_across_process_labels() {
        // same trace, same sequence position, different label → different id
        set_process_label("proc-a");
        let a = alloc_span_id(77);
        set_process_label("proc-b");
        let b = alloc_span_id(77);
        set_process_label("proc");
        assert_ne!(a, b);
        assert_ne!(a, 0);
    }

    #[test]
    fn install_is_scoped_and_nested() {
        let _ = current(); // whatever the thread had
        {
            let _g = install(TraceCtx::root(11));
            assert_eq!(current().unwrap().trace_id, 11);
            {
                let _g2 = install(TraceCtx { trace_id: 12, parent_span: 5 });
                assert_eq!(current().unwrap().trace_id, 12);
            }
            assert_eq!(current().unwrap().trace_id, 11, "inner guard restores outer ctx");
        }
        assert_eq!(current(), None);
    }

    #[test]
    fn drain_trace_leaves_other_traces() {
        reset();
        record(rec(100, 1, 0, "a", "p", 1));
        record(rec(200, 2, 0, "b", "p", 1));
        record(rec(100, 3, 1, "c", "p", 1));
        let got = drain_trace(100);
        assert_eq!(got.len(), 2);
        assert!(got.iter().all(|r| r.trace_id == 100));
        let rest = drain();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].trace_id, 200);
    }
}
