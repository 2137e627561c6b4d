//! The benchmark's own span recorder.
//!
//! With `--trace 1` every call the benchmark makes into a layer is wrapped
//! in a span: name, start, end, the span that caused it, and the op it
//! belongs to. Spans stay in memory and are written out once, when the
//! run ends. Only the generator thread records, so the recorder is a plain
//! value passed by `&mut`; switched off it reads no clock at all, which is
//! how the untraced run measures.

use std::io::Write;
use std::time::Instant;

/// One finished (or still open) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call the span wraps, e.g. `core.estimate_batch_shared`.
    pub name: &'static str,
    /// Nanoseconds from process start to the span's start.
    pub start_ns: u64,
    /// Nanoseconds from process start to the span's end.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The timed op the span belongs to; `None` for set-up spans.
    pub op: Option<u64>,
}

/// In-memory span recorder; see the module docs.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    cap: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: Option<u64>,
    dropped: u64,
}

/// Spans kept per run. A 15 s `kernel_batch` run records about 4 000; the
/// cap only bounds memory if a later change makes ops much cheaper.
const MAX_SPANS: usize = 1 << 20;

impl Recorder {
    /// A recorder whose clock starts at `origin` (process start).
    pub fn new(origin: Instant, enabled: bool) -> Recorder {
        Recorder {
            origin,
            enabled,
            cap: MAX_SPANS,
            spans: Vec::new(),
            open: Vec::new(),
            op: None,
            dropped: 0,
        }
    }

    /// Is this a traced run?
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` inside a span called `name`, parented under the innermost
    /// open span. Disabled, this is exactly `f()`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Run `f` as timed op number `op`: a root `op` span whose children
    /// are the layer calls `f` records.
    pub fn op<T>(&mut self, op: u64, f: impl FnOnce(&mut Recorder) -> T) -> T {
        self.op = Some(op);
        let out = self.span("op", f);
        self.op = None;
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans not recorded because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Mean self time (µs) of the root `op` spans: their duration minus
    /// the part their child spans cover — what the generator itself costs
    /// per op. `None` when no op was recorded.
    pub fn op_self_us(&self) -> Option<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let selfs: Vec<u64> = self
            .spans
            .iter()
            .zip(&child_ns)
            .filter(|(s, _)| s.name == "op" && s.parent.is_none())
            .map(|(s, &c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect();
        if selfs.is_empty() {
            return None;
        }
        Some(selfs.iter().sum::<u64>() as f64 / selfs.len() as f64 / 1e3)
    }

    /// Write every span as one JSON line
    /// `{name, start_ns, end_ns, parent, op}` (`parent` is the line index
    /// of the enclosing span, `null` at a root; `op` is `null` in set-up).
    pub fn write_jsonl<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        for s in &self.spans {
            writeln!(
                w,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.op)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(Instant::now(), false);
        assert_eq!(rec.op(0, |r| r.span("x", |_| 7)), 7);
        assert!(rec.spans().is_empty());
        assert_eq!(rec.op_self_us(), None);
    }

    #[test]
    fn spans_nest_and_carry_their_op() {
        let mut rec = Recorder::new(Instant::now(), true);
        rec.span("setup", |r| r.span("core.build", |_| ()));
        rec.op(3, |r| {
            r.span("serve.net.write", |_| ());
            r.span("serve.net.read_reply", |_| ());
        });
        let s = rec.spans();
        assert_eq!(
            s.iter().map(|s| (s.name, s.parent, s.op)).collect::<Vec<_>>(),
            vec![
                ("setup", None, None),
                ("core.build", Some(0), None),
                ("op", None, Some(3)),
                ("serve.net.write", Some(2), Some(3)),
                ("serve.net.read_reply", Some(2), Some(3)),
            ]
        );
        assert!(s.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(s[3].start_ns >= s[2].start_ns && s[4].end_ns <= s[2].end_ns);
        assert!(rec.op_self_us().is_some());
        let mut out = Vec::new();
        rec.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 5);
        assert!(text.lines().next().unwrap().ends_with("\"parent\":null,\"op\":null}"));
        assert!(text.lines().last().unwrap().ends_with("\"parent\":2,\"op\":3}"));
    }

    #[test]
    fn a_full_buffer_counts_drops_and_still_runs_the_call() {
        let mut rec = Recorder::new(Instant::now(), true);
        rec.cap = 1;
        assert_eq!(rec.span("a", |r| r.span("b", |_| 5)), 5);
        assert_eq!(rec.spans().len(), 1);
        assert_eq!(rec.dropped(), 1);
    }
}
