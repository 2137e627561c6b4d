//! Token-level Rust source scanner.
//!
//! Rules must never fire on text inside string literals or comments, and
//! waivers live *in* comments — so the scanner's job is to split each
//! source line into **blanked code** (string/char literal contents
//! replaced by spaces, comments removed) and the **comment text** carried
//! on that line. Everything downstream — pattern matching, brace-depth
//! structure recovery, waiver lookup — operates on that split.
//!
//! The scanner is a hand-rolled state machine over `char`s. It understands
//! line comments, nested block comments, string literals with escapes, raw
//! (and byte/raw-byte) strings with `#` fences, char and byte-char
//! literals, and the char-literal-vs-lifetime ambiguity (`'a'` vs `<'a>`).
//! It does not parse Rust — the structural pass in [`structure`] recovers
//! just enough (functions, test regions, loop bodies) for the rule scopes
//! the registry needs.

/// One scanned source line.
#[derive(Debug, Clone)]
pub struct Line {
    /// Source with comments stripped and literal contents blanked; column
    /// order of surviving code is preserved, which is all the rules need.
    pub code: String,
    /// Comment text on this line (both `//` and `/* */` forms; a block
    /// comment contributes to every line it spans).
    pub comments: Vec<String>,
}

#[derive(PartialEq, Clone, Copy)]
enum Mode {
    Code,
    LineComment,
    /// Nested block comment (depth).
    BlockComment(u32),
    /// Inside `"…"`/`b"…"`; the bool records a pending backslash escape.
    Str(bool),
    /// Inside `r#"…"#`/`br#"…"#`; the payload is the `#` fence count.
    RawStr(u32),
    /// Inside `'…'`/`b'…'`; the bool records a pending backslash escape.
    Char(bool),
}

/// Scan full source text into per-line code/comment splits.
pub fn scan(source: &str) -> Vec<Line> {
    let mut out = Vec::new();
    let mut code = String::new();
    let mut comment = String::new();
    let mut comments: Vec<String> = Vec::new();
    let mut mode = Mode::Code;
    let mut chars = source.chars().peekable();
    // last non-blank code char — distinguishes the identifier `for` from a
    // raw-string prefix `r"` (the `r` must not continue an identifier)
    let mut prev_code: Option<char> = None;

    while let Some(c) = chars.next() {
        if c == '\n' {
            if mode == Mode::LineComment {
                mode = Mode::Code;
            }
            if !comment.is_empty() {
                comments.push(std::mem::take(&mut comment));
            }
            out.push(Line {
                code: std::mem::take(&mut code),
                comments: std::mem::take(&mut comments),
            });
            prev_code = None;
            continue;
        }
        match mode {
            Mode::Code => {
                let ident_continues = prev_code.is_some_and(|p| p.is_alphanumeric() || p == '_');
                match c {
                    '/' if chars.peek() == Some(&'/') => {
                        chars.next();
                        mode = Mode::LineComment;
                    }
                    '/' if chars.peek() == Some(&'*') => {
                        chars.next();
                        mode = Mode::BlockComment(1);
                    }
                    '"' => {
                        code.push('"');
                        mode = Mode::Str(false);
                    }
                    'r' | 'b' if !ident_continues => {
                        // maybe a literal prefix: r"…", r#"…"#, b"…",
                        // br#"…"#, b'…'; lookahead decides, else it is
                        // just an identifier start
                        let mut ahead = chars.clone();
                        let mut prefix = String::new();
                        let mut raw = c == 'r';
                        if c == 'b' {
                            if ahead.peek() == Some(&'r') {
                                raw = true;
                                prefix.push('r');
                                ahead.next();
                            } else if ahead.peek() == Some(&'\'') {
                                // byte-char literal b'…'
                                chars.next();
                                code.push('b');
                                code.push('\'');
                                mode = Mode::Char(false);
                                prev_code = Some('\'');
                                continue;
                            }
                        }
                        let mut fence = 0u32;
                        while raw && ahead.peek() == Some(&'#') {
                            fence += 1;
                            prefix.push('#');
                            ahead.next();
                        }
                        if ahead.peek() == Some(&'"') && (raw || c == 'b') {
                            prefix.push('"');
                            for _ in 0..prefix.chars().count() {
                                chars.next();
                            }
                            code.push(c);
                            code.push_str(&prefix);
                            mode = if raw { Mode::RawStr(fence) } else { Mode::Str(false) };
                        } else {
                            code.push(c);
                        }
                    }
                    '\'' => {
                        // char literal vs lifetime: '\…' or 'x' followed by
                        // a closing quote is a literal; else a lifetime
                        code.push('\'');
                        let mut ahead = chars.clone();
                        match ahead.next() {
                            Some('\\') => mode = Mode::Char(false),
                            Some(_) if ahead.next() == Some('\'') => mode = Mode::Char(false),
                            _ => {}
                        }
                    }
                    _ => code.push(c),
                }
                prev_code = Some(c);
            }
            Mode::LineComment => comment.push(c),
            Mode::BlockComment(depth) => match c {
                '*' if chars.peek() == Some(&'/') => {
                    chars.next();
                    if depth == 1 {
                        if !comment.is_empty() {
                            comments.push(std::mem::take(&mut comment));
                        }
                        mode = Mode::Code;
                    } else {
                        mode = Mode::BlockComment(depth - 1);
                    }
                }
                '/' if chars.peek() == Some(&'*') => {
                    chars.next();
                    mode = Mode::BlockComment(depth + 1);
                }
                _ => comment.push(c),
            },
            Mode::Str(escaped) => {
                if escaped {
                    mode = Mode::Str(false);
                    code.push(' ');
                } else {
                    match c {
                        '\\' => {
                            mode = Mode::Str(true);
                            code.push(' ');
                        }
                        '"' => {
                            code.push('"');
                            mode = Mode::Code;
                            prev_code = Some('"');
                        }
                        _ => code.push(' '),
                    }
                }
            }
            Mode::RawStr(fence) => {
                if c == '"' {
                    // ends at `"` followed by exactly `fence` hashes
                    let mut ahead = chars.clone();
                    let mut n = 0u32;
                    while n < fence && ahead.peek() == Some(&'#') {
                        ahead.next();
                        n += 1;
                    }
                    if n == fence {
                        for _ in 0..fence {
                            chars.next();
                            code.push('#');
                        }
                        code.push('"');
                        mode = Mode::Code;
                        prev_code = Some('"');
                    } else {
                        code.push(' ');
                    }
                } else {
                    code.push(' ');
                }
            }
            Mode::Char(escaped) => {
                if escaped {
                    mode = Mode::Char(false);
                    code.push(' ');
                } else {
                    match c {
                        '\\' => {
                            mode = Mode::Char(true);
                            code.push(' ');
                        }
                        '\'' => {
                            code.push('\'');
                            mode = Mode::Code;
                            prev_code = Some('\'');
                        }
                        _ => code.push(' '),
                    }
                }
            }
        }
    }
    if !comment.is_empty() {
        comments.push(comment);
    }
    if !code.is_empty() || !comments.is_empty() {
        out.push(Line { code, comments });
    }
    out
}

// --- structure recovery ----------------------------------------------------

/// A function's span in a scanned file, 0-based inclusive lines.
#[derive(Debug, Clone)]
pub struct FnSpan {
    /// Identifier after `fn`.
    pub name: String,
    /// Line of the `fn` keyword.
    pub start: usize,
    /// Line of the closing brace.
    pub end: usize,
    /// Carries `#[test]` or sits inside a `#[cfg(test)]` module.
    pub is_test: bool,
}

/// A braced body's span — a loop's (`for`/`while`/`loop`) or a
/// `#[cfg(test)]` module's — 0-based inclusive.
#[derive(Debug, Clone)]
pub struct LoopSpan {
    /// Line of the opening keyword (`for`/`while`/`loop`/`mod`).
    pub start: usize,
    /// Line of the body's closing brace.
    pub end: usize,
}

/// Structural facts recovered from blanked code by brace counting.
#[derive(Debug, Default)]
pub struct Structure {
    /// All function spans, sorted by start line.
    pub fns: Vec<FnSpan>,
    /// All loop-body spans, sorted by start line.
    pub loops: Vec<LoopSpan>,
    /// `#[cfg(test)]` module bodies, sorted by start line.
    pub test_mods: Vec<LoopSpan>,
}

impl Structure {
    /// Innermost function containing `line` (0-based).
    pub fn enclosing_fn(&self, line: usize) -> Option<&FnSpan> {
        self.fns.iter().filter(|f| f.start <= line && line <= f.end).min_by_key(|f| f.end - f.start)
    }

    /// Is `line` inside any loop body?
    pub fn in_loop(&self, line: usize) -> bool {
        self.loops.iter().any(|l| l.start <= line && line <= l.end)
    }

    /// Is `line` inside a `#[cfg(test)]` module?
    pub fn in_test_mod(&self, line: usize) -> bool {
        self.test_mods.iter().any(|m| m.start <= line && line <= m.end)
    }
}

#[derive(Debug, Clone)]
enum Pending {
    Fn { name: String, is_test: bool, start: usize },
    Loop { start: usize },
    TestMod { start: usize },
}

/// Recover functions, test regions, and loop bodies from scanned lines.
///
/// Heuristic but reliable on rustfmt-formatted code: `fn name` opens a
/// pending item that binds to the next `{`; `#[test]` (and friends like
/// `#[tokio::test]`) marks the next `fn`; `#[cfg(test)]` marks the next
/// `mod` body as a test region; `for`/`while`/`loop` keywords bind to
/// their body braces, with `impl … for` lines excluded.
pub fn structure(lines: &[Line]) -> Structure {
    let mut st = Structure::default();
    let mut depth: i64 = 0;
    let mut pending: Vec<Pending> = Vec::new();
    let mut open: Vec<(Pending, i64)> = Vec::new();
    let mut test_attr = false;
    let mut cfg_test_attr = false;
    let mut test_region_depth: Option<i64> = None;

    for (i, line) in lines.iter().enumerate() {
        let code = &line.code;
        if code.contains("#[test]") || code.contains("test)]") && code.contains("#[cfg(") {
            if code.contains("#[test]") {
                test_attr = true;
            }
            if code.contains("#[cfg(") && code.contains("test)]") {
                cfg_test_attr = true;
            }
        }
        let words: Vec<&str> = code
            .split(|c: char| !(c.is_alphanumeric() || c == '_'))
            .filter(|w| !w.is_empty())
            .collect();
        if let Some(name) = fn_name(code) {
            pending.push(Pending::Fn {
                name,
                is_test: test_attr || test_region_depth.is_some(),
                start: i,
            });
            test_attr = false;
        }
        if cfg_test_attr && words.contains(&"mod") {
            pending.push(Pending::TestMod { start: i });
            cfg_test_attr = false;
        }
        let is_impl_line = code.trim_start().starts_with("impl");
        if !is_impl_line
            && (words.contains(&"while")
                || words.contains(&"loop")
                || (words.contains(&"for") && !code.contains(" for<")))
        {
            pending.push(Pending::Loop { start: i });
        }

        for c in code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    if let Some(p) = pending.pop() {
                        if matches!(p, Pending::TestMod { .. }) && test_region_depth.is_none() {
                            test_region_depth = Some(depth);
                        }
                        open.push((p, depth));
                    }
                }
                '}' => {
                    while open.last().is_some_and(|(_, d)| *d == depth) {
                        let (p, _) = open.pop().expect("checked non-empty");
                        match p {
                            Pending::Fn { name, is_test, start } => {
                                st.fns.push(FnSpan { name, start, end: i, is_test });
                            }
                            Pending::Loop { start } => st.loops.push(LoopSpan { start, end: i }),
                            Pending::TestMod { start } => {
                                st.test_mods.push(LoopSpan { start, end: i })
                            }
                        }
                    }
                    if test_region_depth == Some(depth) {
                        test_region_depth = None;
                    }
                    depth -= 1;
                }
                ';' => {
                    // a bodiless declaration (`fn f() -> T;` in a trait,
                    // `for` consumed by a type bound) dies at `;` when no
                    // brace has claimed it
                    pending.clear();
                }
                _ => {}
            }
        }
    }

    // unbalanced braces shouldn't happen on real source, but never lose a
    // span over it
    while let Some((p, _)) = open.pop() {
        if let Pending::Fn { name, is_test, start } = p {
            st.fns.push(FnSpan { name, start, end: lines.len().saturating_sub(1), is_test });
        }
    }
    st.fns.sort_by_key(|f| f.start);
    st.loops.sort_by_key(|l| l.start);
    st.test_mods.sort_by_key(|m| m.start);
    st
}

/// Extract the identifier following a `fn ` keyword on this line, if any.
fn fn_name(code: &str) -> Option<String> {
    let mut rest = code;
    loop {
        let idx = rest.find("fn ")?;
        let before_ok = idx == 0
            || !rest[..idx].chars().next_back().is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = &rest[idx + 3..];
        if before_ok {
            let name: String = after
                .trim_start()
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if !name.is_empty() {
                return Some(name);
            }
        }
        rest = after;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_blanked() {
        let src =
            "let x = \"panic!(\"; // panic!( in a comment\nlet y = 1; /* .unwrap( */ let z = 2;\n";
        let lines = scan(src);
        assert!(!lines[0].code.contains("panic!("));
        assert_eq!(lines[0].comments.len(), 1);
        assert!(lines[0].comments[0].contains("panic!( in a comment"));
        assert!(!lines[1].code.contains(".unwrap("));
        assert!(lines[1].code.contains("let z = 2;"));
    }

    #[test]
    fn raw_strings_and_char_literals() {
        let src = "let a = r#\"has .expect( inside\"#;\nlet b = 'x';\nlet c: &'a str = s;\nlet d = b\"bytes .unwrap(\";\n";
        let lines = scan(src);
        assert!(!lines[0].code.contains(".expect("));
        assert!(lines[1].code.contains("let b ="));
        assert!(lines[2].code.contains("&'a str"));
        assert!(!lines[3].code.contains(".unwrap("));
    }

    #[test]
    fn nested_block_comments() {
        let src = "a /* outer /* inner */ still comment */ b\n";
        let lines = scan(src);
        assert!(lines[0].code.contains('a'));
        assert!(lines[0].code.contains('b'));
        assert!(!lines[0].code.contains("comment"));
    }

    #[test]
    fn fn_spans_and_test_regions() {
        let src = "\
fn alpha() {
    let x = 1;
}
#[cfg(test)]
mod tests {
    #[test]
    fn beta() {
        assert!(true);
    }
}
";
        let st = structure(&scan(src));
        let alpha = st.fns.iter().find(|f| f.name == "alpha").unwrap();
        assert!(!alpha.is_test);
        assert_eq!((alpha.start, alpha.end), (0, 2));
        let beta = st.fns.iter().find(|f| f.name == "beta").unwrap();
        assert!(beta.is_test);
    }

    #[test]
    fn loop_spans_exclude_impl_for() {
        let src = "\
impl Foo for Bar {
    fn run(&self) {
        for i in 0..3 {
            work(i);
        }
    }
}
";
        let st = structure(&scan(src));
        assert_eq!(st.loops.len(), 1);
        assert_eq!((st.loops[0].start, st.loops[0].end), (2, 4));
        assert!(st.in_loop(3));
        assert!(!st.in_loop(1));
        assert_eq!(st.enclosing_fn(3).unwrap().name, "run");
    }
}
