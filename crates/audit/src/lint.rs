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

use crate::rules::{self, RawFinding};
use crate::scan;
use crate::workspace::{self, Source};
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

/// Lint the workspace rooted at `root`. Every `crates/*/Cargo.toml` goes
/// through the dependency policy and every `crates/*/src/**/*.rs` through
/// the token rules; the workspace rules (see [`workspace`]) also read the
/// files that use the library crates: `crates/*/tests`, the root `tests/`
/// and `examples/`, and `benchmark/src`.
pub fn lint_workspace(root: &Path) -> std::io::Result<LintReport> {
    let mut report = LintReport::default();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    let mut dirs = Vec::new();
    for krate in &crate_dirs {
        let manifest = krate.join("Cargo.toml");
        if manifest.is_file() {
            lint_manifest(root, &manifest, &mut report)?;
        }
        dirs.push(krate.join("src"));
        dirs.push(krate.join("tests"));
    }
    dirs.extend(["tests", "examples", "benchmark/src"].map(|d| root.join(d)));
    let mut paths = Vec::new();
    for dir in dirs.iter().filter(|d| d.is_dir()) {
        collect_rs(dir, &mut paths)?;
    }
    paths.sort();
    let mut sources = Vec::with_capacity(paths.len());
    for p in &paths {
        sources.push(Source::new(&relpath(root, p), &fs::read_to_string(p)?));
    }
    report.files += sources.len();
    lint_sources(&sources, &mut report);
    report.findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(report)
}

/// Run the token rules over the sources under `crates/*/src` and the
/// workspace rules over all of them.
fn lint_sources(sources: &[Source], report: &mut LintReport) {
    let registry = rules::registry();
    let crate_src = |rel: &str| {
        rel.strip_prefix("crates/")
            .and_then(|r| r.split_once('/'))
            .is_some_and(|(_, r)| r.starts_with("src/"))
    };
    for s in sources.iter().filter(|s| crate_src(&s.rel)) {
        for rule in &registry {
            for raw in (rule.check)(&s.rel, &s.lines, &s.st) {
                apply_waiver(rule.id, &s.rel, &s.lines, raw, report);
            }
        }
    }
    for rule in workspace::registry() {
        for (i, raw) in (rule.check)(sources) {
            apply_waiver(rule.id, &sources[i].rel, &sources[i].lines, raw, report);
        }
    }
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
        lint_files(&[(relpath, src)])
    }

    fn lint_files(files: &[(&str, &str)]) -> LintReport {
        let sources: Vec<Source> = files.iter().map(|(rel, src)| Source::new(rel, src)).collect();
        let mut report = LintReport { files: files.len(), ..Default::default() };
        lint_sources(&sources, &mut report);
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

    /// Findings of one rule, as `(file, line)`.
    fn hits<'a>(r: &'a LintReport, rule: &str) -> Vec<(&'a str, usize)> {
        r.findings.iter().filter(|f| f.rule == rule).map(|f| (f.file.as_str(), f.line)).collect()
    }

    const LIB: &str = "crates/a/src/lib.rs";

    #[test]
    fn dead_pub_flags_an_item_only_its_own_crate_names() {
        let lib = "pub fn lonely() {}\npub fn helper() {}\nfn caller() {\n    lonely();\n    helper();\n}\n";
        let r = lint_files(&[(LIB, lib), ("crates/b/src/lib.rs", "pub fn other() {}\n")]);
        assert_eq!(hits(&r, "dead-pub"), [(LIB, 1), (LIB, 2), ("crates/b/src/lib.rs", 1)]);
        assert!(r.findings[0].message.contains("`pub fn lonely`"), "{:?}", r.findings);
    }

    #[test]
    fn dead_pub_counts_other_crates_tests_and_the_benchmark_as_users() {
        let lib = "pub fn by_test() {}\npub fn by_bench() {}\npub(crate) fn narrow() {}\n";
        let r = lint_files(&[
            (LIB, lib),
            ("crates/b/tests/t.rs", "fn t() { a::by_test(); }\n"),
            ("benchmark/src/probes.rs", "fn p() { a::by_bench(); }\n"),
        ]);
        assert!(hits(&r, "dead-pub").is_empty(), "{:?}", r.findings);
        // a comment or a string literal is not a use
        let r = lint_files(&[
            (LIB, lib),
            ("crates/b/tests/t.rs", "// by_test\nconst S: &str = \"by_bench\";\n"),
        ]);
        assert_eq!(hits(&r, "dead-pub"), [(LIB, 1), (LIB, 2)]);
    }

    #[test]
    fn dead_pub_keeps_the_interface_of_a_used_item() {
        // `Out` is never named outside, but a caller of `make` receives one
        let lib = "pub struct Out {\n    pub inner: Inner,\n}\npub struct Inner;\npub fn make() -> Out {\n    todo!()\n}\n#[cfg(test)]\nmod tests {\n    pub fn only_in_tests() {}\n}\n";
        let r = lint_files(&[(LIB, lib), ("examples/e.rs", "fn main() { a::make(); }\n")]);
        assert!(hits(&r, "dead-pub").is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn dead_pub_waivers_need_a_reason() {
        let lib = "// audit-allow(dead-pub): a macro expands to it in other crates\npub struct Guard;\n// audit-allow(dead-pub)\npub fn bare() {}\n";
        let r = lint_files(&[(LIB, lib)]);
        assert_eq!(r.waived, 1);
        assert_eq!(hits(&r, "dead-pub"), [(LIB, 4)]);
        assert!(r.findings[0].message.contains("missing its reason"));
    }

    /// A library crate `a` with a one-knob config whose field carries `doc`.
    fn config_lib(doc: &str) -> String {
        format!("pub struct ToyConfig {{\n    /// Batch rows.\n{doc}    pub rows: usize,\n}}\n")
    }

    #[test]
    fn knob_ledger_needs_a_ledger_line() {
        let setter = "fn f() { a::ToyConfig { rows: 3 }; }\n";
        let r = lint_files(&[(LIB, &config_lib("")), ("tests/t.rs", setter)]);
        assert_eq!(hits(&r, "knob-ledger"), [(LIB, 3)]);
        // the finding names the files that would do
        assert!(r.findings[0].message.contains("tests/t.rs"), "{:?}", r.findings);
    }

    #[test]
    fn knob_ledger_rejects_a_file_that_never_sets_the_field() {
        let lib = config_lib("    /// Ledger: tests/t.rs\n");
        let r = lint_files(&[(LIB, &lib), ("tests/t.rs", "fn f(rows: usize) -> usize { rows }\n")]);
        assert_eq!(hits(&r, "knob-ledger"), [(LIB, 4)]);
        assert!(r.findings.iter().any(|f| f.message.contains("never sets it")), "{:?}", r.findings);
        // nor a file that is not there, nor the defining file itself
        for missing in ["tests/gone.rs", LIB] {
            let lib = config_lib(&format!("    /// Ledger: {missing}\n"));
            assert_eq!(hits(&lint_files(&[(LIB, &lib)]), "knob-ledger"), [(LIB, 4)]);
        }
    }

    #[test]
    fn knob_ledger_accepts_a_resolving_ledger() {
        let lib = config_lib("    ///\n    /// Ledger: `tests/t.rs`.\n");
        for setter in [
            "fn f() { let c = a::ToyConfig { rows: 3, ..Default::default() }; }\n",
            "fn f(rows: usize) { a::ToyConfig {\n        rows,\n    };\n}\n",
            "fn f(c: &mut a::ToyConfig) { c.rows = 7; }\n",
        ] {
            let r = lint_files(&[(LIB, &lib), ("tests/t.rs", setter)]);
            assert!(hits(&r, "knob-ledger").is_empty(), "{setter}: {:?}", r.findings);
        }
        // an operator's knob names no file
        let r = lint_files(&[(LIB, &config_lib("    /// Ledger: deploy\n"))]);
        assert!(hits(&r, "knob-ledger").is_empty(), "{:?}", r.findings);
        // and a waiver with its reason stands in for a ledger
        let waived = config_lib("    // audit-allow(knob-ledger): read by the benchmark\n");
        let r = lint_files(&[(LIB, &waived)]);
        assert_eq!((hits(&r, "knob-ledger").len(), r.waived), (0, 1));
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
