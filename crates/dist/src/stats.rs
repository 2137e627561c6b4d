//! Prometheus-exposition plumbing for the cluster metrics plane.
//!
//! Workers answer [`Msg::Stats`](crate::proto::Msg::Stats) with one text
//! exposition covering their process-global registry plus every hosted
//! table's service registry; the coordinator scrapes all workers and
//! merges the replies into a single cluster exposition. Both sides lean
//! on two pure helpers here:
//!
//! * `inject_label` rewrites every sample line to carry an extra label
//!   (`table="trips"` on the worker, `worker="2"` on the coordinator), so
//!   merged series from different origins stay distinguishable;
//! * `merge_expositions` regroups expositions by metric family — the
//!   Prometheus text format wants each family as one group under one
//!   `# TYPE` header, and every worker ships the same families.
//!
//! Both helpers keep order stable (first occurrence wins), so merged
//! output is deterministic given deterministic inputs — the registry
//! renders from a `BTreeMap`, so that holds end to end.

use crate::coordinator::Coordinator;
use iam_serve::net::{Conn, Listener};
use iam_serve::MAX_LINE_BYTES;
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;

/// Add `key="value"` to every sample line of a text exposition. Comment
/// (`#`) and blank lines pass through untouched; sample lines with an
/// existing label set get the new label prepended inside the braces,
/// bare-name lines gain a label set.
pub(crate) fn inject_label(exposition: &str, key: &str, value: &str) -> String {
    let mut val = String::with_capacity(value.len());
    iam_obs::escape_label(&mut val, value);
    let mut out = String::with_capacity(exposition.len() + 16);
    for line in exposition.lines() {
        let trimmed = line.trim_start();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            out.push_str(line);
        } else if let Some(brace) = line.find('{') {
            out.push_str(&line[..=brace]);
            out.push_str(key);
            out.push_str("=\"");
            out.push_str(&val);
            out.push_str("\",");
            out.push_str(&line[brace + 1..]);
        } else if let Some(space) = line.find(' ') {
            out.push_str(&line[..space]);
            out.push('{');
            out.push_str(key);
            out.push_str("=\"");
            out.push_str(&val);
            out.push_str("\"}");
            out.push_str(&line[space..]);
        } else {
            // not a sample line; pass through rather than corrupt it
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

/// Merge expositions into one, a group per metric family in first-seen
/// order: the family's first `# TYPE`/`# HELP` lines, then every part's
/// samples of it. A sample belongs to the family of the header above it in
/// its part when its name is that family's or extends it with `_`
/// (`_bucket`, `_sum`, `_count`), else to a family of its own name; any
/// other comment line is a group of its own. Sample lines are never
/// dropped; blank lines are.
pub(crate) fn merge_expositions<S: AsRef<str>>(parts: &[S]) -> String {
    // (headers, samples) per family, and each family's group index
    let mut groups: Vec<(String, String)> = Vec::new();
    let mut index: HashMap<String, usize> = HashMap::new();
    for part in parts {
        let mut family = "";
        for line in part.as_ref().lines().filter(|l| !l.trim().is_empty()) {
            let (key, header) = if let Some(rest) =
                line.strip_prefix("# TYPE ").or_else(|| line.strip_prefix("# HELP "))
            {
                family = rest.split(' ').next().unwrap_or(rest);
                (family, true)
            } else if line.starts_with('#') {
                (line, true)
            } else {
                let name = line.split(['{', ' ']).next().unwrap_or(line);
                let own =
                    name.strip_prefix(family).is_some_and(|s| s.is_empty() || s.starts_with('_'));
                (if own { family } else { name }, false)
            };
            let i = *index.entry(key.to_string()).or_insert_with(|| {
                groups.push(Default::default());
                groups.len() - 1
            });
            let (headers, samples) = &mut groups[i];
            if !header {
                samples.push_str(line);
                samples.push('\n');
            } else if !headers.lines().any(|h| h == line) {
                headers.push_str(line);
                headers.push('\n');
            }
        }
    }
    groups.into_iter().flat_map(|(headers, samples)| [headers, samples]).collect()
}

/// A minimal HTTP scrape endpoint over
/// [`Coordinator::cluster_prometheus`]: any request gets a `200 text/plain`
/// response carrying the merged cluster exposition, one request per
/// connection — enough for `curl`/Prometheus scrapes and the CI check,
/// with no HTTP machinery beyond a status line. Each connection has its
/// own thread, so an idle peer delays neither other scrapes nor `stop`.
pub struct MetricsFrontend {
    /// The bound address (useful with port 0).
    pub addr: SocketAddr,
    listener: Listener,
}

impl MetricsFrontend {
    /// Bind `addr` and serve scrapes until [`MetricsFrontend::stop`].
    pub fn spawn<A: ToSocketAddrs>(
        coord: Arc<Coordinator>,
        addr: A,
    ) -> io::Result<MetricsFrontend> {
        let listener = Listener::spawn(addr, "iam-dist-metrics", move |conn| {
            let _ = serve_scrape(&conn, &coord);
        })?;
        Ok(MetricsFrontend { addr: listener.addr, listener })
    }

    /// Close the listener and join every connection handler.
    pub fn stop(self) {
        self.listener.stop();
    }
}

fn serve_scrape(conn: &Conn, coord: &Coordinator) -> io::Result<()> {
    // consume the request line (and nothing more — headers may follow,
    // but a scrape response does not depend on them); any peer can
    // connect, so the read is bounded like a line-protocol line
    let mut line = Vec::new();
    BufReader::new(conn).take(MAX_LINE_BYTES as u64).read_until(b'\n', &mut line)?;
    if line.is_empty() {
        return Ok(()); // closed, or stopping, before asking anything
    }
    let body = coord.cluster_prometheus();
    let mut out = conn.stream();
    write!(
        out,
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\n\r\n{}",
        body.len(),
        body
    )?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inject_label_handles_bare_and_labeled_lines() {
        let src = "# TYPE a counter\na 3\nb{x=\"1\"} 4\n\n";
        let got = inject_label(src, "table", "trips");
        assert_eq!(got, "# TYPE a counter\na{table=\"trips\"} 3\nb{table=\"trips\",x=\"1\"} 4\n\n");
    }

    #[test]
    fn inject_label_escapes_values() {
        let got = inject_label("a 1\n", "t", "he said \"hi\"\\");
        assert_eq!(got, "a{t=\"he said \\\"hi\\\"\\\\\"} 1\n");
    }

    #[test]
    fn merge_dedupes_type_headers_first_wins() {
        let w0 = "# TYPE a counter\na{worker=\"0\"} 1\n";
        let w1 = "# TYPE a counter\na{worker=\"1\"} 2\n# TYPE b gauge\nb{worker=\"1\"} 5\n";
        let merged = merge_expositions(&[w0, w1]);
        assert_eq!(merged.matches("# TYPE a counter").count(), 1);
        assert_eq!(merged.matches("# TYPE b gauge").count(), 1);
        assert!(merged.contains("a{worker=\"0\"} 1"));
        assert!(merged.contains("a{worker=\"1\"} 2"));
        // order: first exposition's lines come first
        assert!(merged.find("a{worker=\"0\"}").unwrap() < merged.find("a{worker=\"1\"}").unwrap());
    }

    #[test]
    fn merge_keeps_each_family_contiguous() {
        let worker = |w: &str| {
            format!(
                "# TYPE a counter\na{{worker=\"{w}\"}} 1\n# TYPE h histogram\n\
                 h_bucket{{worker=\"{w}\",le=\"+Inf\"}} 2\nh_sum{{worker=\"{w}\"}} 3\n\
                 h_count{{worker=\"{w}\"}} 2\n"
            )
        };
        let merged =
            merge_expositions(&[worker("0"), "# scrape failed: worker 1\n".into(), worker("2")]);
        assert_eq!(
            merged,
            "# TYPE a counter\na{worker=\"0\"} 1\na{worker=\"2\"} 1\n# TYPE h histogram\n\
             h_bucket{worker=\"0\",le=\"+Inf\"} 2\nh_sum{worker=\"0\"} 3\nh_count{worker=\"0\"} 2\n\
             h_bucket{worker=\"2\",le=\"+Inf\"} 2\nh_sum{worker=\"2\"} 3\nh_count{worker=\"2\"} 2\n\
             # scrape failed: worker 1\n"
        );
    }

    #[test]
    fn merge_is_deterministic() {
        let parts = ["# TYPE x counter\nx 1\n", "# TYPE x counter\nx 2\n"];
        assert_eq!(merge_expositions(&parts), merge_expositions(&parts));
    }
}
