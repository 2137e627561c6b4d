//! Length-prefixed binary wire protocol between coordinator and workers.
//!
//! Framing: every message travels as `[u32 LE length][payload]`, where
//! `length` counts payload bytes only. A reader enforces a hard bound on
//! the length prefix *before* allocating ([`MAX_FRAME`] by default,
//! [`MAX_SNAPSHOT_FRAME`] on channels that carry model snapshots), so a
//! corrupt or hostile peer cannot force a huge allocation. A truncated
//! frame surfaces as [`DistError::Io`]; an oversized prefix as
//! [`DistError::FrameTooLarge`]; neither ever panics.
//!
//! Payload: one byte of message tag, then a tag-specific body using the
//! same little-endian primitives as `iam_core::persist` (u32/u64/f64 bit
//! patterns, u64-length-prefixed strings and sequences). Floats are
//! shipped as raw IEEE-754 bits, so an estimate crosses the wire
//! **bit-exactly** — the cluster's answers can be compared to
//! single-process inference with `to_bits` equality.
//!
//! Every request tag has exactly one success reply tag; workers answer
//! anything unintelligible with [`Msg::Error`] and keep the connection
//! open (malformed *framing* closes it, since resynchronisation inside a
//! byte stream is impossible).
//!
//! # The envelope
//!
//! Every payload opens with an *envelope* — `[0xFF][version][flags]
//! [optional trace context][optional span records]` — followed by the
//! message bytes of [`Msg::encode`]. [`ENVELOPE_MARKER`] (`0xFF`) is never
//! a message tag (tags are 1..=15), so a payload without it is a bare
//! message from a peer that predates the envelope. [`Frame::decode`]
//! rejects that, and any version other than [`ENVELOPE_VERSION`], as a
//! [`DistError::Protocol`] error: every peer is built from this workspace,
//! so version skew is reported, never guessed at. The trace context is a
//! 128-bit trace id plus parent span id ([`TraceCtx`]); span records
//! piggyback worker span buffers onto replies so the coordinator can
//! stitch one cross-process trace tree (see `iam_obs::tracetree`).

use crate::error::DistError;
use iam_data::{Interval, RangeQuery};
use iam_obs::tracetree::SpanRecord;
use iam_obs::TraceCtx;
use std::io::{Read, Write};

/// Hard bound on ordinary (query/control) frame payloads: 16 MiB.
pub const MAX_FRAME: u32 = 16 << 20;
/// Hard bound on snapshot-bearing frame payloads: 1 GiB.
pub const MAX_SNAPSHOT_FRAME: u32 = 1 << 30;

/// First payload byte, opening the envelope (never a valid message
/// tag).
pub const ENVELOPE_MARKER: u8 = 0xFF;
/// Current envelope version.
pub const ENVELOPE_VERSION: u8 = 2;
/// Envelope flag: a [`TraceCtx`] follows the header.
const FLAG_CTX: u8 = 0b0000_0001;
/// Envelope flag: a span-record list follows the (optional) context.
const FLAG_SPANS: u8 = 0b0000_0010;

/// One protocol message (either direction).
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Liveness probe.
    Ping,
    /// Reply to [`Msg::Ping`].
    Pong,
    /// Ship a framed model snapshot (an `IAMF` envelope, see
    /// `IamEstimator::save_framed`) for `table`; the worker verifies the
    /// envelope checksum, parses the payload, and only then hot-swaps —
    /// a torn ship can never become the serving model.
    LoadSnapshot {
        /// Logical table the model answers queries for.
        table: String,
        /// Operator label recorded in the worker's model registry.
        label: String,
        /// The framed snapshot bytes.
        bytes: Vec<u8>,
    },
    /// Reply to [`Msg::LoadSnapshot`]: the registry version now serving.
    LoadAck {
        /// Echoed table name.
        table: String,
        /// Version id assigned by the worker's registry.
        version: u64,
    },
    /// Estimate a batch of queries against `table`'s model.
    EstimateBatch {
        /// Target table.
        table: String,
        /// The queries, answered in order.
        queries: Vec<RangeQuery>,
    },
    /// Reply to [`Msg::EstimateBatch`]: one result per query, in order.
    EstimateReply {
        /// Per-query selectivity (bit-exact f64) or error text.
        results: Vec<Result<f64, String>>,
    },
    /// Ask which model version serves `table`.
    Version {
        /// Target table.
        table: String,
    },
    /// Reply to [`Msg::Version`].
    VersionReply {
        /// Active registry version id.
        version: u64,
        /// Its operator label.
        label: String,
    },
    /// Ask the worker to drain and exit its process/listener.
    Shutdown,
    /// Reply to [`Msg::Shutdown`], sent just before the worker stops.
    ShutdownAck,
    /// Ask the worker for its metrics exposition (cluster metrics plane).
    Stats,
    /// Reply to [`Msg::Stats`].
    StatsReply {
        /// Prometheus text exposition of the worker's registries.
        prom: String,
    },
    /// Application-level failure (unknown table, bad batch, failed
    /// snapshot install). The connection stays usable.
    Error {
        /// Human-readable reason.
        message: String,
    },
    /// Execute one SQL statement against `table`'s model (single-table
    /// `SELECT`/`EXPLAIN`; the coordinator decomposes join statements
    /// into per-table sub-statements before forwarding).
    Sql {
        /// Target table (must match the statement's `FROM` table).
        table: String,
        /// The statement text, in the `iam-sql` grammar.
        stmt: String,
    },
    /// Reply to [`Msg::Sql`]: the rendered reply body, exactly as the
    /// serve layer's `SQL` line-protocol command prints it (NaN-free by
    /// construction — empty regions answer the `NULL` marker).
    SqlReply {
        /// Reply text (multi-line for `EXPLAIN`, `END`-terminated).
        body: String,
    },
}

// --- primitives ----------------------------------------------------------

fn w_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn w_str(out: &mut Vec<u8>, s: &str) {
    w_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

fn w_bytes(out: &mut Vec<u8>, b: &[u8]) {
    w_u64(out, b.len() as u64);
    out.extend_from_slice(b);
}

/// Cursor over a received payload; all reads are bounds-checked.
struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DistError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| DistError::Protocol("truncated message body".into()))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, DistError> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64, DistError> {
        let b: [u8; 8] =
            self.take(8)?.try_into().map_err(|_| DistError::Protocol("truncated u64".into()))?;
        Ok(u64::from_le_bytes(b))
    }

    fn f64(&mut self) -> Result<f64, DistError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A u64 length that must still fit in the remaining payload (each
    /// element needs ≥ 1 byte), so hostile lengths cannot drive a huge
    /// `Vec::with_capacity`.
    fn len(&mut self) -> Result<usize, DistError> {
        let n = self.u64()?;
        let remaining = self.buf.len() - self.pos;
        match usize::try_from(n) {
            Ok(n) if n <= remaining => Ok(n),
            _ => Err(DistError::Protocol("length prefix exceeds message body".into())),
        }
    }

    fn str(&mut self) -> Result<String, DistError> {
        let n = self.len()?;
        std::str::from_utf8(self.take(n)?)
            .map(str::to_string)
            .map_err(|_| DistError::Protocol("non-utf8 string".into()))
    }

    fn bytes(&mut self) -> Result<Vec<u8>, DistError> {
        let n = self.len()?;
        Ok(self.take(n)?.to_vec())
    }
}

// --- query codec ----------------------------------------------------------

fn encode_query(out: &mut Vec<u8>, q: &RangeQuery) {
    w_u64(out, q.cols.len() as u64);
    for c in &q.cols {
        match c {
            None => out.push(0),
            Some(iv) => {
                out.push(1);
                w_u64(out, iv.lo.to_bits());
                w_u64(out, iv.hi.to_bits());
                out.push((iv.lo_strict as u8) | (iv.hi_strict as u8) << 1);
            }
        }
    }
}

fn decode_query(cur: &mut Cur) -> Result<RangeQuery, DistError> {
    let ncols = cur.len()?;
    let mut cols = Vec::with_capacity(ncols);
    for _ in 0..ncols {
        cols.push(match cur.u8()? {
            0 => None,
            1 => {
                let lo = cur.f64()?;
                let hi = cur.f64()?;
                let s = cur.u8()?;
                if s > 3 {
                    return Err(DistError::Protocol("bad interval strictness bits".into()));
                }
                Some(Interval { lo, hi, lo_strict: s & 1 != 0, hi_strict: s & 2 != 0 })
            }
            t => return Err(DistError::Protocol(format!("bad interval tag {t}"))),
        });
    }
    Ok(RangeQuery { cols })
}

// --- message codec ---------------------------------------------------------

impl Msg {
    /// Encode into a payload (no frame header).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Msg::Ping => out.push(1),
            Msg::Pong => out.push(2),
            Msg::LoadSnapshot { table, label, bytes } => {
                out.push(3);
                w_str(&mut out, table);
                w_str(&mut out, label);
                w_bytes(&mut out, bytes);
            }
            Msg::LoadAck { table, version } => {
                out.push(4);
                w_str(&mut out, table);
                w_u64(&mut out, *version);
            }
            Msg::EstimateBatch { table, queries } => {
                out.push(5);
                w_str(&mut out, table);
                w_u64(&mut out, queries.len() as u64);
                for q in queries {
                    encode_query(&mut out, q);
                }
            }
            Msg::EstimateReply { results } => {
                out.push(6);
                w_u64(&mut out, results.len() as u64);
                for r in results {
                    match r {
                        Ok(v) => {
                            out.push(0);
                            w_u64(&mut out, v.to_bits());
                        }
                        Err(e) => {
                            out.push(1);
                            w_str(&mut out, e);
                        }
                    }
                }
            }
            Msg::Version { table } => {
                out.push(7);
                w_str(&mut out, table);
            }
            Msg::VersionReply { version, label } => {
                out.push(8);
                w_u64(&mut out, *version);
                w_str(&mut out, label);
            }
            Msg::Shutdown => out.push(9),
            Msg::ShutdownAck => out.push(10),
            Msg::Error { message } => {
                out.push(11);
                w_str(&mut out, message);
            }
            Msg::Stats => out.push(12),
            Msg::StatsReply { prom } => {
                out.push(13);
                w_str(&mut out, prom);
            }
            Msg::Sql { table, stmt } => {
                out.push(14);
                w_str(&mut out, table);
                w_str(&mut out, stmt);
            }
            Msg::SqlReply { body } => {
                out.push(15);
                w_str(&mut out, body);
            }
        }
        out
    }

    /// Decode a payload. The whole slice must be consumed — trailing bytes
    /// are a protocol error, never silently ignored.
    pub fn decode(buf: &[u8]) -> Result<Msg, DistError> {
        let mut cur = Cur { buf, pos: 0 };
        let msg = match cur.u8()? {
            1 => Msg::Ping,
            2 => Msg::Pong,
            3 => Msg::LoadSnapshot { table: cur.str()?, label: cur.str()?, bytes: cur.bytes()? },
            4 => Msg::LoadAck { table: cur.str()?, version: cur.u64()? },
            5 => {
                let table = cur.str()?;
                let n = cur.len()?;
                let mut queries = Vec::with_capacity(n);
                for _ in 0..n {
                    queries.push(decode_query(&mut cur)?);
                }
                Msg::EstimateBatch { table, queries }
            }
            6 => {
                let n = cur.len()?;
                let mut results = Vec::with_capacity(n);
                for _ in 0..n {
                    results.push(match cur.u8()? {
                        0 => Ok(f64::from_bits(cur.u64()?)),
                        1 => Err(cur.str()?),
                        t => {
                            return Err(DistError::Protocol(format!("bad result tag {t}")));
                        }
                    });
                }
                Msg::EstimateReply { results }
            }
            7 => Msg::Version { table: cur.str()? },
            8 => Msg::VersionReply { version: cur.u64()?, label: cur.str()? },
            9 => Msg::Shutdown,
            10 => Msg::ShutdownAck,
            11 => Msg::Error { message: cur.str()? },
            12 => Msg::Stats,
            13 => Msg::StatsReply { prom: cur.str()? },
            14 => Msg::Sql { table: cur.str()?, stmt: cur.str()? },
            15 => Msg::SqlReply { body: cur.str()? },
            t => return Err(DistError::Protocol(format!("unknown message tag {t}"))),
        };
        if cur.pos != buf.len() {
            return Err(DistError::Protocol(format!(
                "{} trailing bytes after message",
                buf.len() - cur.pos
            )));
        }
        Ok(msg)
    }
}

// --- envelope codec (v2) ---------------------------------------------------

/// A received message plus its optional envelope extras: the trace
/// context a request carries forward, and the span records a reply ships
/// back.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// The message itself.
    pub msg: Msg,
    /// Trace context (requests: coordinator → worker).
    pub ctx: Option<TraceCtx>,
    /// Span records (replies: worker → coordinator).
    pub spans: Vec<SpanRecord>,
}

fn encode_span(out: &mut Vec<u8>, s: &SpanRecord) {
    w_u64(out, (s.trace_id >> 64) as u64);
    w_u64(out, s.trace_id as u64);
    w_u64(out, s.span_id);
    w_u64(out, s.parent_span);
    w_str(out, &s.name);
    w_str(out, &s.proc);
    w_u64(out, s.start_unix_us);
    w_u64(out, s.dur_us);
}

fn decode_span(cur: &mut Cur) -> Result<SpanRecord, DistError> {
    let hi = cur.u64()?;
    let lo = cur.u64()?;
    Ok(SpanRecord {
        trace_id: ((hi as u128) << 64) | lo as u128,
        span_id: cur.u64()?,
        parent_span: cur.u64()?,
        name: cur.str()?,
        proc: cur.str()?,
        start_unix_us: cur.u64()?,
        dur_us: cur.u64()?,
    })
}

/// Encode a message and its envelope extras into a payload (no frame
/// header): the envelope header, then the message. Without context or
/// spans the envelope is its three header bytes.
fn encode_frame(msg: &Msg, ctx: Option<TraceCtx>, spans: &[SpanRecord]) -> Vec<u8> {
    let mut out = Vec::new();
    out.push(ENVELOPE_MARKER);
    out.push(ENVELOPE_VERSION);
    let mut flags = 0u8;
    if ctx.is_some() {
        flags |= FLAG_CTX;
    }
    if !spans.is_empty() {
        flags |= FLAG_SPANS;
    }
    out.push(flags);
    if let Some(ctx) = ctx {
        w_u64(&mut out, (ctx.trace_id >> 64) as u64);
        w_u64(&mut out, ctx.trace_id as u64);
        w_u64(&mut out, ctx.parent_span);
    }
    if !spans.is_empty() {
        w_u64(&mut out, spans.len() as u64);
        for s in spans {
            encode_span(&mut out, s);
        }
    }
    out.extend_from_slice(&msg.encode());
    out
}

impl Frame {
    /// Decode an enveloped payload. A payload that does not open with
    /// [`ENVELOPE_MARKER`] (a bare message from an older peer) and an
    /// envelope of another version are rejected, not misparsed.
    pub fn decode(buf: &[u8]) -> Result<Frame, DistError> {
        if buf.first() != Some(&ENVELOPE_MARKER) {
            return Err(DistError::Protocol("payload has no version envelope".into()));
        }
        let mut cur = Cur { buf, pos: 1 };
        let version = cur.u8()?;
        if version != ENVELOPE_VERSION {
            return Err(DistError::Protocol(format!("unsupported envelope version {version}")));
        }
        let flags = cur.u8()?;
        if flags & !(FLAG_CTX | FLAG_SPANS) != 0 {
            return Err(DistError::Protocol(format!("unknown envelope flags {flags:#04x}")));
        }
        let ctx = if flags & FLAG_CTX != 0 {
            let hi = cur.u64()?;
            let lo = cur.u64()?;
            let trace_id = ((hi as u128) << 64) | lo as u128;
            Some(TraceCtx { trace_id, parent_span: cur.u64()? })
        } else {
            None
        };
        let mut spans = Vec::new();
        if flags & FLAG_SPANS != 0 {
            let n = cur.len()?;
            spans.reserve(n.min(1024));
            for _ in 0..n {
                spans.push(decode_span(&mut cur)?);
            }
        }
        let msg = Msg::decode(&buf[cur.pos..])?;
        Ok(Frame { msg, ctx, spans })
    }
}

/// Write one frame: `msg` with its envelope extras (a request's trace
/// context, a reply's span records). The message is borrowed, so the
/// coordinator reuses one request across failover attempts without
/// cloning snapshot bytes. Length and payload are two `write_all`s.
pub fn write_frame<W: Write>(
    w: &mut W,
    msg: &Msg,
    ctx: Option<TraceCtx>,
    spans: &[SpanRecord],
) -> Result<(), DistError> {
    let payload = encode_frame(msg, ctx, spans);
    let len = u32::try_from(payload.len()).map_err(|_| DistError::FrameTooLarge {
        len: payload.len() as u64,
        max: u32::MAX as u64,
    })?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(&payload)?;
    w.flush()?;
    Ok(())
}

/// Granularity of incremental payload reads (and the upfront capacity
/// bound): big enough to amortise `Read` calls, small enough that a
/// hostile length prefix reserves nothing of consequence.
const PAYLOAD_CHUNK: usize = 16 * 1024;

/// Read one frame, rejecting length prefixes
/// above `max_frame` before any allocation. `Ok(None)` means the peer
/// closed the stream at a frame boundary (or inside the length prefix).
pub fn read_frame<R: Read>(r: &mut R, max_frame: u32) -> Result<Option<Frame>, DistError> {
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    let len = u32::from_le_bytes(len_buf);
    if len > max_frame {
        return Err(DistError::FrameTooLarge { len: len as u64, max: max_frame as u64 });
    }
    // chunked read: the length prefix is untrusted until the bytes behind
    // it arrive, so allocation tracks delivered input (a hostile 4-byte
    // header on a snapshot channel must not reserve a gigabyte upfront)
    let len = usize::try_from(len)
        .map_err(|_| DistError::Protocol("frame length exceeds platform usize".into()))?;
    let mut payload = Vec::with_capacity(len.min(PAYLOAD_CHUNK));
    let mut chunk = [0u8; PAYLOAD_CHUNK];
    let mut remaining = len;
    while remaining > 0 {
        let take = remaining.min(chunk.len());
        r.read_exact(&mut chunk[..take])?;
        payload.extend_from_slice(&chunk[..take]);
        remaining -= take;
    }
    Frame::decode(&payload).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One framed message without envelope extras, as written on the wire.
    fn wire(m: &Msg) -> Vec<u8> {
        let mut wire = Vec::new();
        write_frame(&mut wire, m, None, &[]).unwrap();
        wire
    }

    fn roundtrip(m: Msg) {
        let got = read_frame(&mut wire(&m).as_slice(), MAX_SNAPSHOT_FRAME).unwrap().unwrap();
        assert_eq!(got, Frame { msg: m, ctx: None, spans: Vec::new() });
    }

    #[test]
    fn all_messages_round_trip() {
        let mut q = RangeQuery::unconstrained(3);
        q.cols[0] = Some(Interval::point(3.0));
        q.cols[2] = Some(Interval { lo: -1.5, hi: 2.5, lo_strict: true, hi_strict: false });
        roundtrip(Msg::Ping);
        roundtrip(Msg::Pong);
        roundtrip(Msg::LoadSnapshot {
            table: "wisdm".into(),
            label: "v2".into(),
            bytes: vec![1, 2, 3, 255],
        });
        roundtrip(Msg::LoadAck { table: "wisdm".into(), version: 7 });
        roundtrip(Msg::EstimateBatch {
            table: "twi".into(),
            queries: vec![q, RangeQuery::unconstrained(2)],
        });
        roundtrip(Msg::EstimateReply {
            results: vec![Ok(0.125), Err("bad query".into()), Ok(f64::MIN_POSITIVE)],
        });
        roundtrip(Msg::Version { table: "t".into() });
        roundtrip(Msg::VersionReply { version: 3, label: "refresh".into() });
        roundtrip(Msg::Shutdown);
        roundtrip(Msg::ShutdownAck);
        roundtrip(Msg::Error { message: "nope".into() });
        roundtrip(Msg::Stats);
        roundtrip(Msg::StatsReply { prom: "# TYPE x counter\nx 1\n".into() });
        roundtrip(Msg::Sql {
            table: "twi".into(),
            stmt: "SELECT COUNT(*) FROM twi WHERE c0 = 3".into(),
        });
        roundtrip(Msg::SqlReply { body: "COUNT 12.000000 SEL 0.015000 NROWS 800".into() });
    }

    fn span(trace: u128, id: u64, parent: u64) -> SpanRecord {
        SpanRecord {
            trace_id: trace,
            span_id: id,
            parent_span: parent,
            name: "worker.serve".into(),
            proc: "worker-1".into(),
            start_unix_us: 1_700_000_000_000_000,
            dur_us: 1234,
        }
    }

    #[test]
    fn envelope_round_trips_ctx_and_spans() {
        let trace = (7u128 << 64) | 9;
        for frame in [
            Frame {
                msg: Msg::Ping,
                ctx: Some(TraceCtx { trace_id: trace, parent_span: 42 }),
                spans: Vec::new(),
            },
            Frame {
                msg: Msg::EstimateReply { results: vec![Ok(0.25)] },
                ctx: None,
                spans: vec![span(trace, 1, 0), span(trace, 2, 1)],
            },
            Frame {
                msg: Msg::EstimateBatch {
                    table: "t".into(),
                    queries: vec![RangeQuery::unconstrained(2)],
                },
                ctx: Some(TraceCtx { trace_id: u128::MAX, parent_span: u64::MAX }),
                spans: vec![span(u128::MAX, 3, 2)],
            },
        ] {
            let mut wire = Vec::new();
            write_frame(&mut wire, &frame.msg, frame.ctx, &frame.spans).unwrap();
            let got = read_frame(&mut wire.as_slice(), MAX_FRAME).unwrap().unwrap();
            assert_eq!(got, frame);
        }
    }

    #[test]
    fn envelope_bytes_are_pinned() {
        let ctx = Some(TraceCtx { trace_id: (7u128 << 64) | 9, parent_span: 42 });
        let spans = [span(3, 1, 0)];
        let msg = Msg::Version { table: "t".into() };
        // wire bytes (length prefix + payload) as the three writers before
        // PR 25 produced them: bare, ctx only, spans only, both
        let span_hex =
            "01000000000000000000000000000000030000000000000001000000000000000000000000000000\
                        0c00000000000000776f726b65722e73657276650800000000000000776f726b65722d31\
                        00401e18240a0600d204000000000000";
        let ctx_hex = "070000000000000009000000000000002a00000000000000";
        let golden = [
            (None, &[][..], "0d000000ff0200".to_string()),
            (ctx, &[][..], format!("25000000ff0201{ctx_hex}")),
            (None, &spans[..], format!("69000000ff0202{span_hex}")),
            (ctx, &spans[..], format!("81000000ff0203{ctx_hex}{span_hex}")),
        ];
        for (ctx, spans, head) in golden {
            let mut wire = Vec::new();
            write_frame(&mut wire, &msg, ctx, spans).unwrap();
            let hex: String = wire.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(
                hex,
                format!("{head}07010000000000000074"),
                "ctx {ctx:?}, {} spans",
                spans.len()
            );
            let frame = read_frame(&mut wire.as_slice(), MAX_FRAME).unwrap().unwrap();
            assert_eq!(frame, Frame { msg: msg.clone(), ctx, spans: spans.to_vec() });
        }
    }

    #[test]
    fn bare_and_other_version_payloads_are_rejected() {
        // a pre-envelope peer's payload (the message alone) is a protocol
        // error, not a message
        let m =
            Msg::EstimateBatch { table: "t".into(), queries: vec![RangeQuery::unconstrained(1)] };
        assert!(matches!(Frame::decode(&m.encode()), Err(DistError::Protocol(_))));
        // and so is an envelope of another version
        for version in [1, 3] {
            let mut other =
                encode_frame(&Msg::Ping, Some(TraceCtx { trace_id: 1, parent_span: 0 }), &[]);
            other[1] = version;
            assert!(matches!(Frame::decode(&other), Err(DistError::Protocol(_))));
        }
    }

    #[test]
    fn hostile_envelopes_never_panic() {
        assert!(Frame::decode(&[ENVELOPE_MARKER]).is_err(), "marker alone");
        assert!(Frame::decode(&[ENVELOPE_MARKER, ENVELOPE_VERSION]).is_err(), "no flags");
        assert!(
            Frame::decode(&[ENVELOPE_MARKER, ENVELOPE_VERSION, 0b1000_0000, 1]).is_err(),
            "unknown flag bits"
        );
        // ctx flag set but body truncated mid-context
        let mut t = vec![ENVELOPE_MARKER, ENVELOPE_VERSION, 1];
        t.extend_from_slice(&7u64.to_le_bytes());
        assert!(Frame::decode(&t).is_err());
        // span count far beyond the body
        let mut s = vec![ENVELOPE_MARKER, ENVELOPE_VERSION, 2];
        s.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(Frame::decode(&s).is_err());
        // mutated garbage around a valid envelope
        let good = encode_frame(
            &Msg::EstimateReply { results: vec![Ok(0.5)] },
            Some(TraceCtx { trace_id: 77, parent_span: 3 }),
            &[span(77, 9, 3)],
        );
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for _ in 0..2000 {
            let mut buf = good.clone();
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let i = (x >> 33) as usize % buf.len();
            buf[i] ^= (x >> 17) as u8;
            let _ = Frame::decode(&buf); // must not panic
        }
    }

    #[test]
    fn estimates_cross_the_wire_bit_exactly() {
        // exercise bit patterns a text protocol would mangle
        for v in [0.1 + 0.2, f64::MIN_POSITIVE, -0.0, 1e-300, 0.3_f64.next_down()] {
            let m = Msg::EstimateReply { results: vec![Ok(v)] };
            match read_frame(&mut wire(&m).as_slice(), MAX_FRAME).unwrap().unwrap().msg {
                Msg::EstimateReply { results } => {
                    assert_eq!(results[0].as_ref().unwrap().to_bits(), v.to_bits());
                }
                other => panic!("wrong reply {other:?}"),
            }
        }
    }

    #[test]
    fn clean_eof_is_none_truncation_is_error() {
        assert!(read_frame(&mut &[][..], MAX_FRAME).unwrap().is_none());
        let wire = wire(&Msg::Version { table: "abc".into() });
        // a peer dying inside the 4-byte length prefix reads as disconnect;
        // dying inside the payload is a hard truncation error
        for cut in 1..4 {
            assert!(matches!(read_frame(&mut &wire[..cut], MAX_FRAME), Ok(None)));
        }
        for cut in 4..wire.len() {
            assert!(
                read_frame(&mut &wire[..cut], MAX_FRAME).is_err(),
                "truncation at {cut} must error"
            );
        }
    }

    #[test]
    fn oversized_length_prefix_rejected_before_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        wire.extend_from_slice(&[0u8; 16]);
        match read_frame(&mut wire.as_slice(), MAX_FRAME) {
            Err(DistError::FrameTooLarge { len, max }) => {
                assert_eq!(len, u32::MAX as u64);
                assert_eq!(max, MAX_FRAME as u64);
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn hostile_inner_lengths_and_garbage_never_panic() {
        // element-count prefix far beyond the body
        let mut payload = vec![5u8]; // EstimateBatch
        payload.extend_from_slice(&1u64.to_le_bytes()); // table len 1
        payload.push(b't');
        payload.extend_from_slice(&u64::MAX.to_le_bytes()); // "queries"
        assert!(Msg::decode(&payload).is_err());
        // unknown tags, trailing junk, random bytes
        assert!(Msg::decode(&[99]).is_err());
        assert!(Msg::decode(&[1, 0]).is_err(), "trailing byte after Ping");
        assert!(Msg::decode(&[]).is_err());
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for _ in 0..2000 {
            let mut junk = Vec::new();
            for _ in 0..(x % 64) {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                junk.push((x >> 32) as u8);
            }
            let _ = Msg::decode(&junk); // must not panic
        }
    }
}
