//! Deterministic replay of the regression corpus (tier-1).
//!
//! Every file in `tests/corpus/` is a hostile input that once mattered:
//! handcrafted seeds pinning a known attack class (regenerate with
//! `cargo test -p iam-audit --test gen_corpus -- --ignored`) plus any
//! crash artifacts saved by `iam-audit fuzz --save-crashes`. The file
//! name's prefix routes it to the parser it targets:
//!
//! * `proto-*`   → `iam_dist::proto::read_frame` (framed) and `Msg::decode`
//! * `persist-*` → `iam_core::persist` via `IamEstimator::load_framed`
//! * `line-*`    → `iam_serve::net::parse_query`
//! * `sql-*`     → `iam_sql::parse`
//!
//! The contract for every entry is the same: the parser returns — `Ok`
//! or a typed error — without panicking. Unknown prefixes fail the test
//! so a typo'd corpus file cannot silently pin nothing.

use iam_core::IamEstimator;
use iam_dist::proto::{read_frame, Msg, MAX_FRAME};
use iam_serve::net::parse_query;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

fn replay(path: &Path, bytes: &[u8]) {
    let name = path.file_name().unwrap().to_string_lossy().into_owned();
    let run: Box<dyn Fn()> = if name.starts_with("proto-") {
        Box::new(|| {
            let _ = read_frame(&mut &bytes[..], MAX_FRAME);
            // also feed the payload (sans frame header) to the raw decoder
            if bytes.len() >= 4 {
                let _ = Msg::decode(&bytes[4..]);
            }
            let _ = Msg::decode(bytes);
        })
    } else if name.starts_with("persist-") {
        Box::new(|| {
            let _ = IamEstimator::load_framed(&mut &bytes[..]);
        })
    } else if name.starts_with("line-") {
        Box::new(|| {
            let line = String::from_utf8_lossy(bytes);
            for ncols in 1..=4 {
                let _ = parse_query(&line, ncols);
            }
        })
    } else if name.starts_with("sql-") {
        Box::new(|| {
            let text = String::from_utf8_lossy(bytes);
            if let Ok(stmt) = iam_sql::parse(&text) {
                // valid parses must render to canonical re-parseable text
                let _ = iam_sql::parse(&stmt.to_string()).expect("canonical text re-parses");
            }
        })
    } else {
        panic!("corpus entry {name:?} has no parser prefix (proto-/persist-/line-/sql-)");
    };
    let result = catch_unwind(AssertUnwindSafe(run));
    assert!(result.is_ok(), "corpus entry {name:?} panicked its parser");
}

#[test]
fn corpus_replays_without_panics() {
    let dir = corpus_dir();
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("corpus directory must exist and be checked in")
        .map(|e| e.expect("readable corpus entry").path())
        .filter(|p| p.is_file())
        .collect();
    entries.sort();
    assert!(
        entries.len() >= 8,
        "corpus unexpectedly small ({} entries) — seeds missing?",
        entries.len()
    );
    for path in &entries {
        let bytes = std::fs::read(path).expect("readable corpus file");
        replay(path, &bytes);
    }
}

/// The seeds are not just "doesn't panic": the DoS-class entries and the
/// zero-mass GMM must be *rejected* — if one ever starts parsing
/// successfully, the guard it pins has been deleted.
#[test]
fn dos_seeds_still_rejected() {
    let dir = corpus_dir();
    for name in
        ["persist-len-dos", "persist-huge-veclen", "persist-zero-gmm-weights", "proto-u32max-frame"]
    {
        let bytes = std::fs::read(dir.join(name)).expect("seed entry present");
        match name {
            "proto-u32max-frame" => {
                assert!(
                    read_frame(&mut &bytes[..], MAX_FRAME).is_err(),
                    "{name}: oversized frame no longer rejected"
                );
            }
            _ => {
                assert!(
                    IamEstimator::load_framed(&mut &bytes[..]).is_err(),
                    "{name}: hostile snapshot no longer rejected"
                );
            }
        }
    }
}
