//! Workspace rules: each reads every scanned file at once, because what it
//! checks — who names a `pub` item, who sets a config field — lives in
//! files other than the one the finding is reported in.
//!
//! - `dead-pub`: every `pub` item (fn, method, struct, enum, trait,
//!   const, static, type, mod) in a library crate's `src/`, outside
//!   `#[cfg(test)]` modules and `src/bin`, must be named by a *target*:
//!   another crate's files, any `src/bin`, any `crates/*/tests`, the root
//!   `tests/` and `examples/`, or `benchmark/src`. The check is by name:
//!   an identifier token in a target's code (not its comments or string
//!   literals) counts as a use. An item no target names is
//!   `pub(crate)` at most.
//! - `knob-ledger`: every field of a `pub struct …Config` carries a doc
//!   line `Ledger: <ref>`, where `<ref>` is `deploy` (a duration,
//!   capacity, address or path an operator sizes to the host) or the
//!   workspace-relative path of a file, other than the one defining the
//!   struct, that sets the field — in a struct literal of that config or
//!   in an assignment `.field = …`. Whether the value set differs from the
//!   default is for review to judge, as with a waiver's reason; that the
//!   file sets the field at all is checked here. A field no file sets is a
//!   named `const` holding its default, not a knob.
//!
//! Both rules take the usual waiver, `audit-allow(rule-id): reason`, on
//! the item's (field's) line or in the comment block directly above it.

use crate::rules::RawFinding;
use crate::scan::{Line, Structure};
use std::collections::{HashMap, HashSet};

/// One scanned workspace file.
pub struct Source {
    /// Workspace-relative path, `/`-separated.
    pub rel: String,
    /// Blanked code and comments per line.
    pub lines: Vec<Line>,
    /// Recovered structure of `lines`.
    pub st: Structure,
}

impl Source {
    /// Scan `text` as the file at workspace path `rel`.
    pub fn new(rel: &str, text: &str) -> Source {
        let lines = crate::scan::scan(text);
        let st = crate::scan::structure(&lines);
        Source { rel: rel.to_string(), lines, st }
    }
}

/// A rule over the whole workspace; findings carry the index of the
/// source they are in.
pub struct WorkspaceRule {
    /// Stable identifier, used in waiver comments and JSON output.
    pub id: &'static str,
    /// One-line description for `lint --rules`.
    pub description: &'static str,
    /// Produce raw findings over every scanned source.
    pub check: fn(sources: &[Source]) -> Vec<(usize, RawFinding)>,
}

/// All workspace rules, in reporting order.
pub fn registry() -> Vec<WorkspaceRule> {
    vec![
        WorkspaceRule {
            id: "dead-pub",
            description: "a `pub` item of a library crate is named by another crate, a \
                          binary, a test, an example or the benchmark (else pub(crate))",
            check: dead_pub,
        },
        WorkspaceRule {
            id: "knob-ledger",
            description: "every `…Config` field documents `Ledger: <file that sets it>` \
                          or `Ledger: deploy` (else it is a const)",
            check: knob_ledger,
        },
    ]
}

/// Library crates: `crates/<name>` directories with a scanned `src/lib.rs`.
fn library_crates(sources: &[Source]) -> HashSet<&str> {
    sources
        .iter()
        .filter_map(|s| s.rel.strip_prefix("crates/")?.strip_suffix("/src/lib.rs"))
        .collect()
}

/// The library crate whose `src/` (outside `src/bin`) holds `rel`.
fn library_of<'a>(rel: &'a str, libs: &HashSet<&str>) -> Option<&'a str> {
    let (krate, path) = rel.strip_prefix("crates/")?.split_once('/')?;
    let path = path.strip_prefix("src/")?;
    (!path.starts_with("bin/") && libs.contains(krate)).then_some(krate)
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

fn idents(code: &str) -> impl Iterator<Item = &str> {
    code.split(|c: char| !is_ident_char(c)).filter(|w| !w.is_empty())
}

// --- dead-pub --------------------------------------------------------------

const ITEM_KINDS: &[&str] = &["fn", "struct", "enum", "trait", "const", "static", "type", "mod"];

/// `(kind, name)` of a bare-`pub` item declared on this line. `pub(crate)`,
/// `pub use` and fields (`pub x: T`) are not items here.
fn pub_item(code: &str) -> Option<(&'static str, &str)> {
    let mut rest = code.trim_start().strip_prefix("pub ")?;
    loop {
        rest = rest.trim_start();
        let word = idents(rest).next().filter(|w| rest.starts_with(w))?;
        let after = rest[word.len()..].trim_start();
        let qualifier = matches!(word, "unsafe" | "async")
            || word == "const" && (after.starts_with("fn ") || after.starts_with("unsafe "));
        if qualifier {
            rest = after;
            continue;
        }
        let kind = ITEM_KINDS.iter().find(|k| **k == word)?;
        let after = after.strip_prefix("mut ").unwrap_or(after);
        let name = idents(after).next()?;
        return after.starts_with(name).then_some((*kind, name));
    }
}

/// Identifiers in the public interface of the item of `kind` declared at
/// line `l`: a fn's signature, a const's, static's or type's declaration,
/// an enum's or trait's whole body, a struct's `pub` fields. Lines are
/// taken whole, so a one-line body counts too; that only errs towards
/// keeping an item public.
fn interface<'a>(lines: &'a [Line], l: usize, kind: &str) -> Vec<&'a str> {
    let braced = matches!(kind, "struct" | "enum" | "trait");
    let mut out = Vec::new();
    let mut depth = 0usize;
    for line in &lines[l..] {
        let code = line.code.as_str();
        if kind != "struct" || depth == 0 || code.trim_start().starts_with("pub ") {
            out.extend(idents(code));
        }
        for c in code.chars() {
            match c {
                '{' if !braced && depth == 0 => return out,
                '{' => depth += 1,
                '}' if depth <= 1 => return out,
                '}' => depth -= 1,
                ';' if depth == 0 => return out,
                _ => {}
            }
        }
    }
    out
}

fn dead_pub(sources: &[Source]) -> Vec<(usize, RawFinding)> {
    let libs = library_crates(sources);
    // who names each identifier: `None` for a target outside every
    // library's `src/`, else the library crate
    let mut named: HashMap<&str, HashSet<Option<&str>>> = HashMap::new();
    // (source, line, kind, name, crate) of every `pub` item
    let mut items = Vec::new();
    for (i, s) in sources.iter().enumerate() {
        let home = library_of(&s.rel, &libs);
        for (l, line) in s.lines.iter().enumerate() {
            for w in idents(&line.code) {
                named.entry(w).or_default().insert(home);
            }
            if let Some(krate) = home {
                if let Some((kind, name)) = pub_item(&line.code) {
                    if !s.st.in_test_mod(l) {
                        items.push((i, l, kind, name, krate));
                    }
                }
            }
        }
    }
    let mut used: Vec<bool> = items
        .iter()
        .map(|&(.., name, krate)| {
            named.get(name).is_some_and(|by| by.iter().any(|c| *c != Some(krate)))
        })
        .collect();
    // a type in the interface of a used item is used through it: grow the
    // used set over interfaces until it stops changing
    let mut reached: HashSet<(&str, &str)> = HashSet::new();
    let mut expanded = vec![false; items.len()];
    loop {
        for (k, &(i, l, kind, _, krate)) in items.iter().enumerate() {
            if used[k] && !expanded[k] {
                expanded[k] = true;
                reached
                    .extend(interface(&sources[i].lines, l, kind).into_iter().map(|w| (krate, w)));
            }
        }
        let mut grew = false;
        for (k, &(.., name, krate)) in items.iter().enumerate() {
            if !used[k] && reached.contains(&(krate, name)) {
                used[k] = true;
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }
    items
        .iter()
        .zip(&used)
        .filter(|(_, used)| !**used)
        .map(|(&(i, l, kind, name, _), _)| {
            let finding = RawFinding {
                line: l,
                snippet: sources[i].lines[l].code.trim().to_string(),
                message: format!(
                    "`pub {kind} {name}` is named by no other crate, binary, test, example or \
                     benchmark, nor in the interface of an item that is; make it pub(crate) \
                     or delete it"
                ),
            };
            (i, finding)
        })
        .collect()
}

// --- knob-ledger -----------------------------------------------------------

/// Comment text directly above line `l`: the contiguous run of comment-only
/// and attribute lines.
fn docs_above(lines: &[Line], l: usize) -> Vec<&str> {
    let mut out = Vec::new();
    for line in lines[..l].iter().rev() {
        let code = line.code.trim();
        if !(code.is_empty() && !line.comments.is_empty() || code.starts_with("#[")) {
            break;
        }
        out.extend(line.comments.iter().map(String::as_str));
    }
    out
}

/// The `<ref>` of a `Ledger: <ref>` doc line.
fn ledger_ref<'a>(docs: &[&'a str]) -> Option<&'a str> {
    docs.iter().find_map(|d| {
        let rest = &d[d.find("Ledger:")? + "Ledger:".len()..];
        let word = rest.split_whitespace().next().unwrap_or("");
        Some(word.trim_matches(|c: char| matches!(c, '`' | '.' | ',' | ';' | '(' | ')')))
    })
}

/// Does `s` set `field` of struct `ty`: in an assignment `.field = …`, or
/// in a struct literal `ty { field: …, … }` (shorthand `ty { field }` too)?
fn sets_field(s: &Source, ty: &str, field: &str) -> bool {
    let assign = format!(".{field} =");
    let assigns = s.lines.iter().any(|l| {
        let rhs = |at: usize| l.code[at + assign.len()..].chars().next();
        l.code.match_indices(&assign).any(|(at, _)| !matches!(rhs(at), Some('=' | '>')))
    });
    if assigns {
        return true;
    }
    let code: String = s.lines.iter().flat_map(|l| [l.code.as_str(), "\n"]).collect();
    code.match_indices(ty).any(|(at, _)| {
        let before = code[..at].trim_end();
        let after = code[at + ty.len()..].trim_start();
        let is_literal = !code[..at].ends_with(is_ident_char)
            && after.starts_with('{')
            && !["struct", "impl", "for", "->"].iter().any(|k| before.ends_with(k));
        is_literal && literal_fields(&after[1..]).contains(&field)
    })
}

/// Field names initialised at the top level of a struct literal body
/// (`body` starts just after the opening brace).
fn literal_fields(body: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut expect_field = true;
    let mut rest = body;
    while let Some(c) = rest.chars().next() {
        if depth == 0 && expect_field && is_ident_char(c) {
            let word = idents(rest).next().unwrap_or("");
            let after = rest[word.len()..].trim_start();
            let init = after.starts_with(':') && !after.starts_with("::");
            if init || after.starts_with(',') || after.starts_with('}') {
                out.push(word);
            }
            expect_field = false;
            rest = &rest[word.len()..];
            continue;
        }
        match c {
            '{' | '(' | '[' => depth += 1,
            '}' | ')' | ']' if depth == 0 => break,
            '}' | ')' | ']' => depth -= 1,
            ',' if depth == 0 => expect_field = true,
            _ => {}
        }
        rest = &rest[c.len_utf8()..];
    }
    out
}

fn knob_ledger(sources: &[Source]) -> Vec<(usize, RawFinding)> {
    let libs = library_crates(sources);
    let mut out = Vec::new();
    for (i, s) in sources.iter().enumerate() {
        if library_of(&s.rel, &libs).is_none() {
            continue;
        }
        for (l, line) in s.lines.iter().enumerate() {
            let Some(ty) = line.code.trim().strip_prefix("pub struct ") else { continue };
            let ty = idents(ty).next().unwrap_or("");
            if !ty.ends_with("Config") || !line.code.contains('{') || s.st.in_test_mod(l) {
                continue;
            }
            for (f, fline) in s.lines.iter().enumerate().skip(l + 1) {
                let code = fline.code.trim();
                if code.starts_with('}') {
                    break;
                }
                let Some(field) = code.strip_prefix("pub ").and_then(|c| idents(c).next()) else {
                    continue;
                };
                let setters = || {
                    sources
                        .iter()
                        .filter(|o| o.rel != s.rel && sets_field(o, ty, field))
                        .map(|o| o.rel.as_str())
                        .collect::<Vec<_>>()
                };
                let problem = match ledger_ref(&docs_above(&s.lines, f)) {
                    Some("deploy") => None,
                    None => Some(format!(
                        "`{ty}::{field}` has no `Ledger:` doc line; name a file that sets it \
                         ({}) or `deploy`, or make it a const",
                        match setters().as_slice() {
                            [] => "none does".to_string(),
                            files => files.join(", "),
                        }
                    )),
                    Some(r) if r == s.rel => Some(format!(
                        "the ledger of `{ty}::{field}` names the file that defines it; \
                         name a caller"
                    )),
                    Some(r) => match sources.iter().find(|o| o.rel == r) {
                        None => Some(format!(
                            "the ledger of `{ty}::{field}` names `{r}`, which is not a \
                             scanned workspace file"
                        )),
                        Some(o) if !sets_field(o, ty, field) => Some(format!(
                            "the ledger of `{ty}::{field}` names `{r}`, which never sets it"
                        )),
                        Some(_) => None,
                    },
                };
                if let Some(message) = problem {
                    out.push((i, RawFinding { line: f, snippet: code.to_string(), message }));
                }
            }
        }
    }
    out
}
