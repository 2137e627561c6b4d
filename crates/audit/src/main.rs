//! `iam-audit` — workspace correctness tooling.
//!
//! ```text
//! cargo run -p iam-audit -- lint [--json] [--rules]
//! cargo run -p iam-audit -- fuzz [--target proto|persist|line|sql|all]
//!                                [--iters N] [--seed N] [--save-crashes]
//! ```
//!
//! `lint` scans every workspace crate with the repo-specific rule
//! registry (see [`rules`]) and exits 1 if any unwaived finding remains.
//! `fuzz` runs the seeded structure-aware fuzzer (see [`fuzz`]) and exits
//! 1 if any target panicked; with `--save-crashes` the offending inputs
//! land in `crates/dist/tests/corpus/` where the replay test picks them
//! up.

mod fuzz;
mod lint;
mod rules;
mod scan;
mod workspace;

use std::path::PathBuf;
use std::process::ExitCode;

/// Workspace root: this crate lives at `<root>/crates/audit`.
fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: iam-audit <command>\n\
         \n\
         commands:\n\
         \x20 lint [--json] [--rules]      run the workspace lint pass\n\
         \x20 fuzz [--target T] [--iters N] [--seed N] [--save-crashes]\n\
         \x20                              fuzz T in proto|persist|line|sql|all\n\
         \x20                              (default: all, 1000 iters, seed 1)"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => cmd_lint(&args[1..]),
        Some("fuzz") => cmd_fuzz(&args[1..]),
        _ => usage(),
    }
}

fn cmd_lint(flags: &[String]) -> ExitCode {
    if flags.iter().any(|f| f == "--rules") {
        for rule in rules::registry() {
            println!("{:<16} {}", rule.id, rule.description);
        }
        for rule in workspace::registry() {
            println!("{:<16} {}", rule.id, rule.description);
        }
        println!("{:<16} workspace manifests: deps must be workspace/path", "dep-policy");
        return ExitCode::SUCCESS;
    }
    let report = match lint::lint_workspace(&workspace_root()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("iam-audit: lint failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if flags.iter().any(|f| f == "--json") {
        println!("{}", lint::render_json(&report));
    } else {
        print!("{}", lint::render_text(&report));
    }
    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_fuzz(flags: &[String]) -> ExitCode {
    let mut target = "all".to_string();
    let mut iters: u64 = 1000;
    let mut seed: u64 = 1;
    let mut save_crashes = false;
    let mut it = flags.iter();
    while let Some(f) = it.next() {
        let mut grab = |name: &str| -> Option<String> {
            let v = it.next();
            if v.is_none() {
                eprintln!("iam-audit: {name} needs a value");
            }
            v.cloned()
        };
        match f.as_str() {
            "--target" => match grab("--target") {
                Some(v) => target = v,
                None => return ExitCode::from(2),
            },
            "--iters" => match grab("--iters").and_then(|v| v.parse().ok()) {
                Some(v) => iters = v,
                None => return ExitCode::from(2),
            },
            "--seed" => match grab("--seed").and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => return ExitCode::from(2),
            },
            "--save-crashes" => save_crashes = true,
            other => {
                eprintln!("iam-audit: unknown flag {other:?}");
                return ExitCode::from(2);
            }
        }
    }
    let corpus = workspace_root().join("crates/dist/tests/corpus");
    let reports = match fuzz::run(&target, iters, seed, save_crashes.then_some(corpus.as_path())) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("iam-audit: {e}");
            return ExitCode::from(2);
        }
    };
    let mut failed = false;
    for rep in &reports {
        println!(
            "fuzz {}: {} iters (seed {seed}), {} crash(es)",
            rep.target,
            rep.iters,
            rep.crashes.len()
        );
        for c in &rep.crashes {
            failed = true;
            println!("  CRASH [{} bytes] {}", c.input.len(), c.context);
        }
    }
    if failed {
        if save_crashes {
            println!("crash inputs written to {}", corpus.display());
        }
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
