//! Minimal TCP line-protocol front-end.
//!
//! One request per line, one reply per line:
//!
//! ```text
//! → 0=3 1=2.5..9.0            # col 0 = 3  AND  col 1 ∈ [2.5, 9.0]
//! ← 0.127341
//! → 1=*..0.5                  # open lower bound
//! ← 0.480000
//! → VERSION                   # admin: active model version
//! ← 2 wisdm-retrained
//! → STATS                     # admin: metrics dump, terminated by END
//! ← requests_total 42
//! ← …
//! ← END
//! → STATS PROM                # same, Prometheus text exposition
//! ← # TYPE iam_serve_requests_total counter
//! ← iam_serve_requests_total 42
//! ← …
//! ← END
//! → TRACKED 0=3 1=2.5..9.0    # estimate + canonical query id (for REPORT)
//! ← 9577216733948907093 0.127341
//! → REPORT 9577216733948907093 1250   # true count observed by the client
//! ← OK 1.373200                       # resolved q-error
//! → SQL SELECT COUNT(*) FROM t WHERE c0=3   # SQL subset (see crate::sql)
//! ← COUNT 1273.410000 SEL 0.127341 NROWS 10000
//! → QUIT                      # close the connection
//! ```
//!
//! Query grammar: whitespace-separated terms, each `col=value` (point
//! constraint) or `col=lo..hi` (closed range; either bound may be `*` for
//! unbounded). Repeated terms for one column intersect. Malformed lines get
//! `ERR <reason>` and the connection stays open.
//!
//! `TRACKED`/`REPORT` form the accuracy feedback loop: `TRACKED` answers
//! like a query line but prefixes the reply with the query's canonical id
//! (the same [`RangeQuery::canonical_key`] the cache and the sampler use),
//! and `REPORT <qid> <true_count>` resolves that id's sampled record into
//! a q-error observation (see `iam_obs::qerror`). A `REPORT` whose qid was
//! never sampled — tracking disabled, record evicted, or a bogus id —
//! answers `ERR no record for qid`, counted but never fatal.
//!
//! The TCP edge itself — [`Listener`] and the stop-aware [`Conn`] it hands
//! each connection — is shared with `iam-dist`'s worker and scrape
//! endpoint, which speak their own protocols over it.

use crate::error::ServeError;
use crate::service::Client;
use iam_data::{Interval, RangeQuery};
use std::io::ErrorKind::{TimedOut, WouldBlock};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Longest accepted protocol line (bytes, newline included). Longer lines
/// get an `ERR line too long` reply and the connection is closed — a
/// stream that long is not a query, it is garbage or abuse, and draining
/// it line-less could buffer unbounded input.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// How often a blocked connection read wakes up to re-check the stop flag.
const CONN_POLL: Duration = Duration::from_millis(50);

/// Parse one protocol line into a [`RangeQuery`] over `ncols` columns.
pub fn parse_query(line: &str, ncols: usize) -> Result<RangeQuery, ServeError> {
    let bad = |m: String| ServeError::BadQuery(m);
    let mut rq = RangeQuery::unconstrained(ncols);
    let mut terms = 0usize;
    for term in line.split_whitespace() {
        terms += 1;
        if term == "*" {
            // wildcard term: no constraint (this is what `render_query`
            // emits for an unconstrained query, so it must re-parse)
            continue;
        }
        let (col_s, range_s) =
            term.split_once('=').ok_or_else(|| bad(format!("expected col=range, got {term:?}")))?;
        let col: usize = col_s.parse().map_err(|_| bad(format!("bad column index {col_s:?}")))?;
        if col >= ncols {
            return Err(bad(format!("column {col} out of range (model has {ncols})")));
        }
        let parse_bound = |s: &str, open: f64| -> Result<f64, ServeError> {
            if s == "*" {
                return Ok(open);
            }
            let v: f64 = s.parse().map_err(|_| bad(format!("bad number {s:?}")))?;
            if v.is_nan() {
                return Err(bad("NaN bound".into()));
            }
            Ok(v)
        };
        let iv = match range_s.split_once("..") {
            Some((lo_s, hi_s)) => Interval::closed(
                parse_bound(lo_s, f64::NEG_INFINITY)?,
                parse_bound(hi_s, f64::INFINITY)?,
            ),
            None if range_s == "*" => {
                return Err(bad("point constraint cannot be open (*)".into()))
            }
            None => Interval::point(parse_bound(range_s, 0.0)?),
        };
        rq.cols[col] = Some(match rq.cols[col].take() {
            Some(prev) => prev.intersect(&iv),
            None => iv,
        });
    }
    if terms == 0 {
        return Err(bad("empty query".into()));
    }
    Ok(rq)
}

/// Render a query back into the line-protocol grammar, constrained columns
/// in index order — the canonical predicate text stored in q-error
/// records. Every output re-parses via [`parse_query`] to an equivalent
/// query:
///
/// * infinite *range* bounds render as `*`, and an unconstrained query
///   renders as the bare wildcard `*` (which `parse_query` accepts);
/// * a degenerate point at `±∞` renders as the literal `col=inf` /
///   `col=-inf` rather than the unparseable `col=*`;
/// * an *empty* interval (post-`intersect`, or emptied by strictness
///   flags) renders as the canonical empty range `col=inf..-inf`, which
///   re-parses to an interval that is again empty.
///
/// (Strictness flags, which the text grammar cannot express, are carried
/// by the canonical key, not the text: a re-parse preserves emptiness and
/// endpoint values, not strictness bits.)
pub fn render_query(rq: &RangeQuery) -> String {
    let mut out = String::new();
    let fmt_bound = |v: f64| {
        if v.is_infinite() {
            "*".to_string()
        } else {
            format!("{v}")
        }
    };
    for (col, iv) in rq.cols.iter().enumerate() {
        let Some(iv) = iv else { continue };
        if !out.is_empty() {
            out.push(' ');
        }
        if iv.is_empty() {
            out.push_str(&format!("{col}=inf..-inf"));
        } else if iv.lo == iv.hi {
            // `{}` prints f64s shortest-round-trip (incl. `inf`/`-inf`),
            // and `parse_query` accepts all of those as point values
            out.push_str(&format!("{col}={}", iv.lo));
        } else {
            out.push_str(&format!("{col}={}..{}", fmt_bound(iv.lo), fmt_bound(iv.hi)));
        }
    }
    if out.is_empty() {
        out.push('*');
    }
    out
}

/// One accepted connection, as its handler sees it. A read waits in
/// `CONN_POLL`-long socket timeouts and checks the listener's stop flag
/// after each: a timed-out poll is retried, so no received byte is lost,
/// and a set flag reads as end of stream, so the handler finishes what it
/// has and exits. Replies are written to [`Conn::stream`].
pub struct Conn {
    stream: TcpStream,
    stop: Arc<AtomicBool>,
}

impl Conn {
    /// The socket, for writing replies.
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }
}

impl Read for &Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            match (&self.stream).read(buf) {
                Err(e) if matches!(e.kind(), WouldBlock | TimedOut) => {
                    if self.stop.load(Relaxed) {
                        return Ok(0);
                    }
                }
                r => return r,
            }
        }
    }
}

/// A bound TCP listener running one handler thread per accepted
/// connection. [`Listener::stop`] sets the flag every [`Conn`] read
/// checks, then joins the accept thread, which joins every handler — so no
/// thread outlives `stop` and rebinding the port cannot flake on address
/// reuse (bind port 0 in tests regardless).
pub struct Listener {
    /// The bound address (useful with port 0).
    pub addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: JoinHandle<()>,
}

impl Listener {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and run `handler` for each
    /// accepted connection on its own thread; threads are named
    /// `{name}-accept` and `{name}-conn`.
    pub fn spawn<A, F>(addr: A, name: &str, handler: F) -> io::Result<Listener>
    where
        A: ToSocketAddrs,
        F: Fn(Conn) + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_thread = {
            let (stop, conn_name) = (Arc::clone(&stop), format!("{name}-conn"));
            thread::Builder::new()
                .name(format!("{name}-accept"))
                .spawn(move || accept_loop(listener, &conn_name, Arc::new(handler), &stop))?
        };
        Ok(Listener { addr, stop, accept_thread })
    }

    /// Stop accepting and join every connection handler (each notices the
    /// stop flag within `CONN_POLL` of its last received byte).
    pub fn stop(self) {
        self.stop.store(true, Relaxed);
        let _ = self.accept_thread.join();
    }
}

fn accept_loop<F: Fn(Conn) + Send + Sync + 'static>(
    listener: TcpListener,
    name: &str,
    handler: Arc<F>,
    stop: &Arc<AtomicBool>,
) {
    let mut conns = Vec::new();
    while !stop.load(Relaxed) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if stream.set_read_timeout(Some(CONN_POLL)).is_err() {
                    continue;
                }
                let conn = Conn { stream, stop: Arc::clone(stop) };
                let handler = Arc::clone(&handler);
                // thread exhaustion is a transient resource failure: drop
                // this connection (the stream closes) and keep accepting
                if let Ok(h) = thread::Builder::new().name(name.into()).spawn(move || handler(conn))
                {
                    conns.push(h);
                }
            }
            Err(e) if e.kind() == WouldBlock => {
                thread::sleep(Duration::from_millis(10));
            }
            Err(_) => break,
        }
    }
    for h in conns {
        let _ = h.join();
    }
}

/// A running TCP front-end: the line protocol over a [`Listener`].
/// [`TcpFrontend::stop`] closes it and joins every connection handler.
pub struct TcpFrontend {
    /// The bound address (useful with port 0).
    pub addr: SocketAddr,
    listener: Listener,
}

impl TcpFrontend {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and serve `client` over it.
    pub fn spawn<A: ToSocketAddrs>(client: Client, addr: A) -> io::Result<TcpFrontend> {
        let listener = Listener::spawn(addr, "iam-serve", move |conn| {
            let _ = handle_connection(&conn, &client);
        })?;
        Ok(TcpFrontend { addr: listener.addr, listener })
    }

    /// Close the listener and join every connection handler.
    pub fn stop(self) {
        self.listener.stop();
    }
}

fn handle_connection(conn: &Conn, client: &Client) -> io::Result<()> {
    let mut reader = BufReader::new(conn);
    let mut out = BufWriter::new(conn.stream());
    let mut line = Vec::new();
    loop {
        // the bound applies to the read itself: a line that never ends is
        // cut off at MAX_LINE_BYTES however steadily its bytes arrive
        line.clear();
        (&mut reader).take(MAX_LINE_BYTES as u64).read_until(b'\n', &mut line)?;
        if line.last() != Some(&b'\n') {
            if line.len() == MAX_LINE_BYTES {
                out.write_all(b"ERR line too long\n")?;
                out.flush()?;
                // FIN before close: closing over the line's unread rest
                // resets the connection, and the peer should read this
                // reply and then end of stream, not the reset
                conn.stream().shutdown(Shutdown::Write)?;
            }
            return Ok(()); // peer closed, or stopping
        }
        let trimmed = String::from_utf8_lossy(&line);
        let trimmed = trimmed.trim();
        if trimmed.is_empty() {
            continue;
        }
        match trimmed {
            "QUIT" => return Ok(()),
            "STATS" => {
                out.write_all(client.metrics().render().as_bytes())?;
                out.write_all(b"END\n")?;
            }
            "STATS PROM" => {
                out.write_all(client.metrics_prometheus().as_bytes())?;
                out.write_all(b"END\n")?;
            }
            "VERSION" => {
                let (id, label) = client.current_version();
                writeln!(out, "{id} {label}")?;
            }
            cmd if cmd.starts_with("SQL ") || cmd == "SQL" => {
                let stmt = cmd.strip_prefix("SQL").unwrap_or("").trim();
                match crate::sql::execute_sql(stmt, client) {
                    Ok(body) => writeln!(out, "{body}")?,
                    Err(e) => writeln!(out, "ERR {e}")?,
                }
            }
            cmd if cmd.starts_with("TRACKED ") || cmd == "TRACKED" => {
                let query = cmd.strip_prefix("TRACKED").unwrap_or("").trim();
                match parse_query(query, client.ncols()) {
                    Ok(rq) => match client.estimate(&rq) {
                        Ok(sel) => writeln!(out, "{} {sel:.6}", rq.canonical_key())?,
                        Err(e) => writeln!(out, "ERR {e}")?,
                    },
                    Err(e) => writeln!(out, "ERR {e}")?,
                }
            }
            cmd if cmd.starts_with("REPORT ") => {
                let mut parts = cmd["REPORT ".len()..].split_whitespace();
                let parsed = match (parts.next(), parts.next(), parts.next()) {
                    (Some(qid), Some(count), None) => {
                        qid.parse::<u64>().ok().zip(count.parse::<u64>().ok())
                    }
                    _ => None,
                };
                match parsed {
                    Some((qid, true_count)) => match client.report_true_count(qid, true_count) {
                        Some(q) => writeln!(out, "OK {q:.6}")?,
                        None => writeln!(out, "ERR no record for qid")?,
                    },
                    None => writeln!(out, "ERR usage: REPORT <qid> <true_count>")?,
                }
            }
            query => match parse_query(query, client.ncols()).and_then(|rq| client.estimate(&rq)) {
                Ok(sel) => writeln!(out, "{sel:.6}")?,
                Err(e) => writeln!(out, "ERR {e}")?,
            },
        }
        out.flush()?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_points_and_ranges() {
        let rq = parse_query("0=3 1=2.5..9", 3).unwrap();
        assert_eq!(rq.cols[0], Some(Interval::point(3.0)));
        assert_eq!(rq.cols[1], Some(Interval::closed(2.5, 9.0)));
        assert_eq!(rq.cols[2], None);
    }

    #[test]
    fn open_bounds_via_star() {
        let rq = parse_query("1=*..0.5 0=-2..*", 2).unwrap();
        let iv1 = rq.cols[1].unwrap();
        assert_eq!(iv1.lo, f64::NEG_INFINITY);
        assert_eq!(iv1.hi, 0.5);
        let iv0 = rq.cols[0].unwrap();
        assert_eq!(iv0.lo, -2.0);
        assert_eq!(iv0.hi, f64::INFINITY);
    }

    #[test]
    fn repeated_terms_intersect() {
        let rq = parse_query("0=1..10 0=5..20", 1).unwrap();
        assert_eq!(rq.cols[0], Some(Interval::closed(5.0, 10.0)));
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in ["nonsense", "0:3", "x=1", "0=a..b", "5=1..2", "", "0=*"] {
            assert!(parse_query(bad, 2).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn render_query_round_trips_through_parse() {
        for line in ["0=3 1=2.5..9", "1=*..0.5", "0=-2..*", "0=1.25"] {
            let rq = parse_query(line, 3).unwrap();
            let rendered = render_query(&rq);
            let back = parse_query(&rendered, 3).unwrap();
            assert_eq!(back.canonical_key(), rq.canonical_key(), "{line} → {rendered}");
        }
        assert_eq!(render_query(&RangeQuery::unconstrained(2)), "*");
    }

    #[test]
    fn bare_wildcard_parses_unconstrained() {
        let rq = parse_query("*", 2).unwrap();
        assert!(rq.cols.iter().all(|c| c.is_none()));
        let back = parse_query(&render_query(&RangeQuery::unconstrained(2)), 2).unwrap();
        assert_eq!(back.canonical_key(), rq.canonical_key());
    }

    #[test]
    fn render_handles_degenerate_and_empty_intervals() {
        // degenerate points at ±∞ render as literals, not the unparseable `col=*`
        let mut rq = RangeQuery::unconstrained(2);
        rq.cols[0] = Some(Interval::point(f64::INFINITY));
        rq.cols[1] = Some(Interval::point(f64::NEG_INFINITY));
        let r = render_query(&rq);
        assert_eq!(r, "0=inf 1=-inf");
        let back = parse_query(&r, 2).unwrap();
        assert_eq!(back.canonical_key(), rq.canonical_key());

        // an empty interval renders as the canonical empty range and
        // re-parses to an interval that is again empty
        let mut rq = RangeQuery::unconstrained(1);
        rq.cols[0] = Some(Interval::closed(5.0, 3.0));
        let r = render_query(&rq);
        assert_eq!(r, "0=inf..-inf");
        assert!(parse_query(&r, 1).unwrap().cols[0].unwrap().is_empty());

        // strictness-emptied [v, v) must not render as a satisfiable point
        let mut rq = RangeQuery::unconstrained(1);
        rq.cols[0] = Some(Interval { lo: 2.0, hi: 2.0, lo_strict: false, hi_strict: true });
        assert!(parse_query(&render_query(&rq), 1).unwrap().cols[0].unwrap().is_empty());
    }

    #[test]
    fn canonical_keys_match_construction_route() {
        // a parsed query must cache-key identically to the same query built
        // programmatically
        let parsed = parse_query("0=3 1=2.5..9", 2).unwrap();
        let mut built = RangeQuery::unconstrained(2);
        built.cols[0] = Some(Interval::point(3.0));
        built.cols[1] = Some(Interval::closed(2.5, 9.0));
        assert_eq!(parsed.canonical_key(), built.canonical_key());
    }
}
