//! Lint driver: walk the workspace, run every rule, apply waivers,
//! render findings (human or JSON), and decide the exit code.
//!
//! Waiver grammar, checked here:
//!
//! ```text
//! // audit-allow(rule-id): reason the policy does not apply here
//! ```
//!
//! on the finding's line or in the contiguous comment block directly
//! above it. The reason after the colon is mandatory: a waiver is a
//! reviewed decision, and the reason is what gets reviewed.

use crate::rules::{self, RawFinding, Rule};
use crate::scan;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// A reportable finding after waiver filtering.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule identifier (waiver key).
    pub rule: String,
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Offending code, trimmed.
    pub snippet: String,
    /// Rule-specific explanation.
    pub message: String,
}

/// Outcome of a lint run.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Violations that survived waiver filtering.
    pub findings: Vec<Finding>,
    /// Count of suppressed (properly waived) violations.
    pub waived: usize,
    /// Count of files scanned.
    pub files: usize,
}

/// Lint the workspace rooted at `root`. Scans every `crates/*/src/**/*.rs`
/// with the token rules and every `crates/*/Cargo.toml` with the
/// dependency policy.
pub fn lint_workspace(root: &Path) -> std::io::Result<LintReport> {
    let registry = rules::registry();
    let mut report = LintReport::default();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for krate in crate_dirs {
        let manifest = krate.join("Cargo.toml");
        if manifest.is_file() {
            lint_manifest(root, &manifest, &mut report)?;
        }
        let src = krate.join("src");
        if src.is_dir() {
            let mut files = Vec::new();
            collect_rs(&src, &mut files)?;
            files.sort();
            for f in files {
                lint_rust_file(root, &f, &registry, &mut report)?;
            }
        }
    }
    report.findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(report)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let p = entry?.path();
        if p.is_dir() {
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

fn relpath(root: &Path, p: &Path) -> String {
    p.strip_prefix(root).unwrap_or(p).to_string_lossy().replace('\\', "/")
}

fn lint_rust_file(
    root: &Path,
    path: &Path,
    registry: &[Rule],
    report: &mut LintReport,
) -> std::io::Result<()> {
    let source = fs::read_to_string(path)?;
    let rel = relpath(root, path);
    let lines = scan::scan(&source);
    let st = scan::structure(&lines);
    report.files += 1;
    for rule in registry {
        for raw in (rule.check)(&rel, &lines, &st) {
            apply_waiver(rule.id, &rel, &lines, raw, report);
        }
    }
    Ok(())
}

fn lint_manifest(root: &Path, path: &Path, report: &mut LintReport) -> std::io::Result<()> {
    let source = fs::read_to_string(path)?;
    let rel = relpath(root, path);
    report.files += 1;
    for raw in rules::dep_policy(&rel, &source) {
        // Cargo.toml waivers: `# audit-allow(dep-policy): reason` on the
        // same line or the line above
        let waiver = toml_waiver(&source, raw.line, "dep-policy");
        match waiver {
            Waiver::Valid => report.waived += 1,
            Waiver::MissingReason => report.findings.push(Finding {
                rule: "dep-policy".into(),
                file: rel.clone(),
                line: raw.line + 1,
                snippet: raw.snippet,
                message: "audit-allow waiver is missing its reason".into(),
            }),
            Waiver::None => report.findings.push(Finding {
                rule: "dep-policy".into(),
                file: rel.clone(),
                line: raw.line + 1,
                snippet: raw.snippet,
                message: raw.message,
            }),
        }
    }
    Ok(())
}

enum Waiver {
    None,
    Valid,
    MissingReason,
}

/// Look for `audit-allow(rule): reason` in a set of comment strings.
fn waiver_in(comments: &[String], rule: &str) -> Waiver {
    let key = format!("audit-allow({rule})");
    for c in comments {
        if let Some(idx) = c.find(&key) {
            let rest = &c[idx + key.len()..];
            let reason = rest.strip_prefix(':').map(str::trim).unwrap_or("");
            return if reason.is_empty() { Waiver::MissingReason } else { Waiver::Valid };
        }
    }
    Waiver::None
}

/// Waiver lookup for a finding at `raw.line`: same line, then the
/// contiguous comment-only block directly above.
fn apply_waiver(
    rule_id: &str,
    rel: &str,
    lines: &[scan::Line],
    raw: RawFinding,
    report: &mut LintReport,
) {
    let mut verdict = waiver_in(&lines[raw.line].comments, rule_id);
    if matches!(verdict, Waiver::None) {
        let mut j = raw.line;
        while j > 0 {
            j -= 1;
            let l = &lines[j];
            if !l.code.trim().is_empty() || l.comments.is_empty() {
                break;
            }
            verdict = waiver_in(&l.comments, rule_id);
            if !matches!(verdict, Waiver::None) {
                break;
            }
        }
    }
    match verdict {
        Waiver::Valid => report.waived += 1,
        Waiver::MissingReason => report.findings.push(Finding {
            rule: rule_id.into(),
            file: rel.into(),
            line: raw.line + 1,
            snippet: raw.snippet,
            message: "audit-allow waiver is missing its reason".into(),
        }),
        Waiver::None => report.findings.push(Finding {
            rule: rule_id.into(),
            file: rel.into(),
            line: raw.line + 1,
            snippet: raw.snippet,
            message: raw.message,
        }),
    }
}

fn toml_waiver(source: &str, line: usize, rule: &str) -> Waiver {
    let lines: Vec<&str> = source.lines().collect();
    let comment_of = |i: usize| -> Option<String> {
        lines.get(i).and_then(|l| l.split_once('#')).map(|(_, c)| c.to_string())
    };
    let candidates: Vec<String> = [comment_of(line), line.checked_sub(1).and_then(comment_of)]
        .into_iter()
        .flatten()
        .collect();
    waiver_in(&candidates, rule)
}

// --- rendering -------------------------------------------------------------

/// Render findings for humans.
pub fn render_text(report: &LintReport) -> String {
    let mut out = String::new();
    for f in &report.findings {
        let _ = writeln!(out, "{}:{}: [{}] {}", f.file, f.line, f.rule, f.message);
        let _ = writeln!(out, "    {}", f.snippet);
    }
    let _ = writeln!(
        out,
        "audit lint: {} file(s), {} finding(s), {} waived",
        report.files,
        report.findings.len(),
        report.waived
    );
    out
}

/// Render findings as a JSON array (machine-readable; stable field set).
pub fn render_json(report: &LintReport) -> String {
    let mut out = String::from("[");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"rule\":{},\"file\":{},\"line\":{},\"snippet\":{},\"message\":{}}}",
            json_str(&f.rule),
            json_str(&f.file),
            f.line,
            json_str(&f.snippet),
            json_str(&f.message)
        );
    }
    out.push(']');
    out
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_source(relpath: &str, src: &str) -> LintReport {
        let registry = rules::registry();
        let lines = scan::scan(src);
        let st = scan::structure(&lines);
        let mut report = LintReport { files: 1, ..Default::default() };
        for rule in &registry {
            for raw in (rule.check)(relpath, &lines, &st) {
                apply_waiver(rule.id, relpath, &lines, raw, &mut report);
            }
        }
        report
    }

    #[test]
    fn waiver_on_same_line_suppresses() {
        let src = "fn read_x(b: &[u8]) -> u8 {\n    b.first().copied().unwrap() // audit-allow(wire-panic): checked non-empty by caller\n}\n";
        let r = lint_source("crates/dist/src/proto.rs", src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.waived, 1);
    }

    #[test]
    fn waiver_block_above_suppresses() {
        let src = "fn read_x(b: &[u8]) -> u8 {\n    // audit-allow(wire-panic): slice length was\n    // validated two lines up\n    b.first().copied().unwrap()\n}\n";
        let r = lint_source("crates/dist/src/proto.rs", src);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.waived, 1);
    }

    #[test]
    fn waiver_without_reason_is_a_finding() {
        let src = "fn read_x(b: &[u8]) -> u8 {\n    b.first().copied().unwrap() // audit-allow(wire-panic)\n}\n";
        let r = lint_source("crates/dist/src/proto.rs", src);
        assert_eq!(r.findings.len(), 1);
        assert!(r.findings[0].message.contains("missing its reason"));
    }

    #[test]
    fn wrong_rule_waiver_does_not_suppress() {
        let src = "fn read_x(b: &[u8]) -> u8 {\n    b.first().copied().unwrap() // audit-allow(loop-instant): wrong rule\n}\n";
        let r = lint_source("crates/dist/src/proto.rs", src);
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].rule, "wire-panic");
    }

    #[test]
    fn wire_panic_covers_the_scrape_endpoint() {
        // dist::stats reads an HTTP request line from any peer
        let src = "fn serve_scrape(line: &[u8]) -> u8 {\n    line.first().copied().unwrap()\n}\n";
        let r = lint_source("crates/dist/src/stats.rs", src);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].rule, "wire-panic");
    }

    #[test]
    fn obs_handle_cache_flags_lookup_in_loop() {
        let src = "fn drain(reg: &Registry, xs: &[u64]) {\n    for x in xs {\n        reg.counter(\"iam_x_total\", &[]).add(*x);\n    }\n}\n";
        let r = lint_source("crates/serve/src/service.rs", src);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].rule, "obs-handle-cache");
        assert!(r.findings[0].message.contains("a loop"));
    }

    #[test]
    fn obs_handle_cache_flags_lookup_in_span_fn() {
        let src = "fn hot(reg: &Registry) {\n    let _s = iam_obs::span!(\"infer.query\");\n    reg.histogram(\"iam_x_ms\", &[], &B).observe(1);\n}\n";
        let r = lint_source("crates/core/src/infer.rs", src);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert!(r.findings[0].message.contains("span-instrumented"));
    }

    #[test]
    fn fused_forward_flags_plain_column_forward_in_core_inference() {
        // production inference has one forward path: the plain full
        // forward is the reference the tests pin it to, nothing more
        let src = "fn sample(net: &MadeNet) {\n    net.forward(&i, n, &mut l);\n    net.forward_column_fused(t, &mut s, &i, n, slot, &mut l);\n}\n";
        for file in
            ["crates/core/src/infer.rs", "crates/core/src/aqp.rs", "crates/core/src/reference.rs"]
        {
            let r = lint_source(file, src);
            assert_eq!(r.findings.len(), 1, "{file}: {:?}", r.findings);
            assert!(r.findings.iter().all(|f| f.message.contains("plain")));
        }
        // test code may compare against the reference, and iam-nn defines it
        let test_src = format!("#[cfg(test)]\nmod tests {{\n{src}}}\n");
        assert!(lint_source("crates/core/src/aqp.rs", &test_src).findings.is_empty());
        assert!(lint_source("crates/nn/src/made.rs", src).findings.is_empty());
    }

    #[test]
    fn obs_handle_cache_allows_constructors_and_waivers() {
        // cold constructor: no loop, no span — the cached-handle pattern
        let cold = "fn new(reg: &Registry) -> Probes {\n    Probes { hits: reg.counter(\"iam_hits_total\", &[]) }\n}\n";
        assert!(lint_source("crates/core/src/probes.rs", cold).findings.is_empty());
        // waiver syntax works for this rule like any other
        let waived = "fn drain(reg: &Registry, xs: &[u64]) {\n    for x in xs {\n        reg.counter(\"iam_x_total\", &[]).add(*x); // audit-allow(obs-handle-cache): cold shutdown path, runs once\n    }\n}\n";
        let r = lint_source("crates/serve/src/service.rs", waived);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.waived, 1);
    }

    #[test]
    fn json_escapes_and_shapes() {
        let report = LintReport {
            findings: vec![Finding {
                rule: "wire-panic".into(),
                file: "a/b.rs".into(),
                line: 3,
                snippet: "x.unwrap() // \"quoted\"".into(),
                message: "bad".into(),
            }],
            waived: 0,
            files: 1,
        };
        let j = render_json(&report);
        assert!(j.starts_with('[') && j.ends_with(']'));
        assert!(j.contains("\\\"quoted\\\""));
        assert!(j.contains("\"line\":3"));
    }
}
