//! The lint rule registry.
//!
//! Each rule is a pure function from a scanned file (path, blanked lines,
//! recovered structure) to raw findings. Rules are deliberately narrow:
//! they encode *this repository's* correctness policies — which files
//! handle untrusted bytes, which call paths must stay panic-free, which
//! summation order the fused inference path must preserve — rather than
//! general style. Style is clippy's job; these are the policies clippy
//! cannot know.
//!
//! Waivers: a finding is suppressed by a comment `audit-allow(rule-id):
//! reason` on the same line or in the contiguous comment block directly
//! above it. The reason is mandatory — a waiver without one is itself a
//! finding ([`crate::lint`] enforces that).

use crate::scan::{Line, Structure};

/// A rule violation before waiver filtering.
#[derive(Debug, Clone)]
pub struct RawFinding {
    /// 0-based line index.
    pub line: usize,
    /// The offending code (trimmed).
    pub snippet: String,
    /// Why this is a violation.
    pub message: String,
}

/// One lint rule.
pub struct Rule {
    /// Stable identifier, used in waiver comments and JSON output.
    pub id: &'static str,
    /// One-line description for `lint --rules`.
    pub description: &'static str,
    /// Produce raw findings for one scanned `.rs` file. `relpath` is
    /// workspace-relative with `/` separators.
    pub check: fn(relpath: &str, lines: &[Line], st: &Structure) -> Vec<RawFinding>,
}

/// All registered rules, in reporting order.
pub fn registry() -> Vec<Rule> {
    vec![
        Rule {
            id: "wire-panic",
            description: "no unwrap/expect/panic reachable from untrusted input \
                          (serve::net, serve::sql, dist::proto, dist::stats, dist::worker, \
                          sql parser, persist load path)",
            check: wire_panic,
        },
        Rule {
            id: "wire-int-cast",
            description: "no unchecked `as` narrowing casts in wire decoding \
                          (use try_from or a bounds-checked helper)",
            check: wire_int_cast,
        },
        Rule {
            id: "loop-instant",
            description: "no Instant::now() inside span-instrumented inner loops \
                          (spans already time the region; syscalls in hot loops skew it)",
            check: loop_instant,
        },
        Rule {
            id: "fused-forward",
            description: "no direct layer-1 Linear::forward in iam-nn's forwards \
                          (canonical summation order requires the grouped kernel), \
                          no plain full forward in core's inference code",
            check: fused_forward,
        },
        Rule {
            id: "obs-handle-cache",
            description: "no registry handle lookups (counter/gauge/histogram) inside \
                          loops or span-instrumented functions — each lookup takes the \
                          registry lock; resolve handles once into a cached \
                          OnceLock/struct field",
            check: obs_handle_cache,
        },
    ]
}

// --- wire-panic ------------------------------------------------------------

/// Files whose every non-test function faces untrusted bytes.
const WIRE_FILES: &[&str] = &[
    "crates/serve/src/net.rs",
    "crates/serve/src/sql.rs",
    "crates/dist/src/proto.rs",
    "crates/dist/src/stats.rs",
    "crates/dist/src/worker.rs",
    "crates/sql/src/lexer.rs",
    "crates/sql/src/parser.rs",
    "crates/sql/src/lower.rs",
];

/// In `persist.rs` only the load path parses untrusted bytes (`save` is
/// fed by in-process state); scope to the deserialisation functions.
const PERSIST_LOAD_FNS: &[&str] = &[
    "load",
    "load_framed",
    "read_reducer",
    "r_u64",
    "r_f64",
    "r_len",
    "r_vec_f64",
    "r_vec_f32",
    "r_str",
    "r_bytes_chunked",
];

const PANIC_PATTERNS: &[&str] =
    &[".unwrap(", ".expect(", "panic!(", "unreachable!(", "todo!(", "unimplemented!("];

fn wire_panic(relpath: &str, lines: &[Line], st: &Structure) -> Vec<RawFinding> {
    let whole_file = WIRE_FILES.contains(&relpath);
    let persist = relpath == "crates/core/src/persist.rs";
    if !whole_file && !persist {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        for pat in PANIC_PATTERNS {
            if !line.code.contains(pat) {
                continue;
            }
            let Some(f) = st.enclosing_fn(i) else { continue };
            if f.is_test {
                continue;
            }
            if persist && !PERSIST_LOAD_FNS.contains(&f.name.as_str()) {
                continue;
            }
            out.push(RawFinding {
                line: i,
                snippet: line.code.trim().to_string(),
                message: format!(
                    "`{pat}` in `{}` is reachable from untrusted input; \
                     return a typed error instead",
                    f.name
                ),
            });
            break; // one finding per line is enough
        }
    }
    out
}

// --- wire-int-cast ---------------------------------------------------------

/// Target types an `as` cast may silently truncate into.
const NARROW_TYPES: &[&str] = &["u8", "u16", "u32", "usize", "i8", "i16", "i32", "isize", "f32"];

/// Is this function part of a wire-decoding path? (Encoders cast widening
/// by construction; decoders must bounds-check.)
fn is_decode_fn(name: &str) -> bool {
    name.starts_with("decode")
        || name.starts_with("read")
        || name.starts_with("load")
        || name.starts_with("parse")
        || name.starts_with("r_")
        || matches!(name, "take" | "u8" | "u64" | "f64" | "len" | "str" | "bytes")
}

fn wire_int_cast(relpath: &str, lines: &[Line], st: &Structure) -> Vec<RawFinding> {
    if !WIRE_FILES.contains(&relpath) && relpath != "crates/core/src/persist.rs" {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let code = &line.code;
        let mut rest: &str = code;
        while let Some(idx) = rest.find(" as ") {
            let after = &rest[idx + 4..];
            let ty: String =
                after.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
            rest = after;
            if !NARROW_TYPES.contains(&ty.as_str()) {
                continue;
            }
            let Some(f) = st.enclosing_fn(i) else { continue };
            if f.is_test || !is_decode_fn(&f.name) {
                continue;
            }
            out.push(RawFinding {
                line: i,
                snippet: code.trim().to_string(),
                message: format!(
                    "`as {ty}` in decode fn `{}` can truncate wire-controlled \
                     values; use try_from or a bounds-checked helper",
                    f.name
                ),
            });
        }
    }
    out
}

// --- loop-instant ----------------------------------------------------------

/// Crates whose `src/` trees carry span instrumentation worth protecting.
const SPAN_CRATES: &[&str] =
    &["crates/core/src/", "crates/nn/src/", "crates/serve/src/", "crates/dist/src/"];

fn loop_instant(relpath: &str, lines: &[Line], st: &Structure) -> Vec<RawFinding> {
    if !SPAN_CRATES.iter().any(|p| relpath.starts_with(p)) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if !line.code.contains("Instant::now()") || !st.in_loop(i) {
            continue;
        }
        let Some(f) = st.enclosing_fn(i) else { continue };
        if f.is_test {
            continue;
        }
        let fn_has_span =
            lines[f.start..=f.end.min(lines.len() - 1)].iter().any(|l| l.code.contains("span!("));
        if !fn_has_span {
            continue;
        }
        out.push(RawFinding {
            line: i,
            snippet: line.code.trim().to_string(),
            message: format!(
                "Instant::now() inside a loop of span-instrumented `{}`; \
                 the span already times this region — drop the manual timer \
                 or hoist it out of the loop",
                f.name
            ),
        });
    }
    out
}

// --- fused-forward ---------------------------------------------------------

fn fused_forward(relpath: &str, lines: &[Line], st: &Structure) -> Vec<RawFinding> {
    // (file, pattern, message): the one-forward-path policy — production
    // inference reaches the network only through the fused layer-1 tables,
    // and layer 1 itself stays on the grouped kernel whose canonical
    // summation order the tables replay bit for bit
    const PLAIN_FORWARD_MSG: &str = "production inference must not call the plain \
         full forward (MadeNet::forward) — it is the reference the tests pin the \
         fused path to; go through forward_column_fused and the estimator's \
         fused tables (prepare_inference)";
    let checks: &[(&str, &str, &str)] = &[
        (
            "crates/nn/src/made.rs",
            "layers[0].forward(",
            "layer 1 must use forward_grouped: plain forward changes the \
             summation order and breaks bit-exact agreement with the fused \
             token tables",
        ),
        ("crates/core/src/infer.rs", ".forward(", PLAIN_FORWARD_MSG),
        ("crates/core/src/aqp.rs", ".forward(", PLAIN_FORWARD_MSG),
        ("crates/core/src/reference.rs", ".forward(", PLAIN_FORWARD_MSG),
    ];

    let mut out = Vec::new();
    for &(file, pat, msg) in checks {
        if relpath != file {
            continue;
        }
        for (i, line) in lines.iter().enumerate() {
            if !line.code.contains(pat) {
                continue;
            }
            if st.enclosing_fn(i).is_none_or(|f| f.is_test) {
                continue;
            }
            out.push(RawFinding {
                line: i,
                snippet: line.code.trim().to_string(),
                message: msg.to_string(),
            });
        }
    }
    out
}

// --- obs-handle-cache ------------------------------------------------------

/// Registry lookup calls that take the registry's lock and walk its map.
/// Fine at construction time; inside a loop or a span-instrumented (i.e.
/// hot) function they belong in a cached handle resolved once.
const HANDLE_LOOKUPS: &[&str] = &[".counter(\"", ".gauge(\"", ".float_gauge(\"", ".histogram(\""];

fn obs_handle_cache(relpath: &str, lines: &[Line], st: &Structure) -> Vec<RawFinding> {
    if !SPAN_CRATES.iter().any(|p| relpath.starts_with(p)) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if !HANDLE_LOOKUPS.iter().any(|p| line.code.contains(p)) {
            continue;
        }
        let Some(f) = st.enclosing_fn(i) else { continue };
        if f.is_test {
            continue;
        }
        let fn_has_span =
            lines[f.start..=f.end.min(lines.len() - 1)].iter().any(|l| l.code.contains("span!("));
        if !st.in_loop(i) && !fn_has_span {
            continue;
        }
        let place = if st.in_loop(i) { "a loop" } else { "the span-instrumented" };
        out.push(RawFinding {
            line: i,
            snippet: line.code.trim().to_string(),
            message: format!(
                "registry handle lookup inside {place} fn `{}`; each lookup \
                 locks the registry — resolve the handle once (OnceLock \
                 static or a field built at construction) and reuse it",
                f.name
            ),
        });
    }
    out
}

// --- dep-policy (Cargo.toml, not token-scanned) ----------------------------

/// Check one workspace-crate manifest: every dependency must resolve
/// inside the workspace (`workspace = true` or `path = …`) — the build
/// environment is offline and vendored, so a registry `version` or `git`
/// dependency would only ever break the build for whoever pulls next.
pub fn dep_policy(relpath: &str, source: &str) -> Vec<RawFinding> {
    let mut out = Vec::new();
    let mut in_deps = false;
    for (i, raw) in source.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            in_deps = line.contains("dependencies");
            if line.starts_with("[patch") {
                out.push(RawFinding {
                    line: i,
                    snippet: raw.trim().to_string(),
                    message: "patch sections bypass the vendored workspace graph".into(),
                });
            }
            continue;
        }
        if !in_deps || line.is_empty() {
            continue;
        }
        let Some((name, spec)) = line.split_once('=') else { continue };
        let (name, spec) = (name.trim(), spec.trim());
        let ok = spec.contains("workspace = true") || spec.contains("path =");
        if !ok {
            out.push(RawFinding {
                line: i,
                snippet: raw.trim().to_string(),
                message: format!(
                    "dependency `{name}` in {relpath} must come from the \
                     workspace (workspace = true or path = …); registry/git \
                     deps cannot resolve in the offline vendored build"
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dep_policy_flags_registry_and_git_deps() {
        let bad = "[dependencies]\nserde = \"1.0\"\nfoo = { git = \"https://x\" }\nok = { workspace = true }\nlocal = { path = \"../x\" }\n";
        let f = dep_policy("crates/x/Cargo.toml", bad);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f[0].message.contains("serde"));
        assert!(f[1].message.contains("foo"));
    }

    #[test]
    fn dep_policy_ignores_package_section() {
        let good = "[package]\nname = \"x\"\nversion.workspace = true\n\n[dependencies]\niam-core = { workspace = true }\n";
        assert!(dep_policy("crates/x/Cargo.toml", good).is_empty());
    }
}
