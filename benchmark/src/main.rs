//! Command line of the benchmark:
//! `iam-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`.
//!
//! Prints every metric by name with its unit, then the run's identity and
//! host stamp, then — as the last line — the result object
//! `{correct, attempted, failed, metrics}`. Exits non-zero when an answer
//! differed from the reference, an op failed, or the run could not be made.

use iam_benchmark::{report, setup::Scale, Args};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: iam-benchmark --workload <kernel_batch|serve_c1|serve_burst|\
                     cluster_scatter> [--seed <n>] [--seconds <s>] [--trace [0|1]]\n       \
                     iam-benchmark --manifest    (print BENCHMARK.json)";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: f64::from(report::RUN_SECONDS),
        trace: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let value = |it: &mut std::iter::Peekable<std::slice::Iter<String>>| {
            it.next().cloned().ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value(&mut it)?,
            "--seed" => {
                args.seed = value(&mut it)?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value(&mut it)?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            // `--trace` alone switches tracing on; the driver passes 0 or 1
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                    args.trace = false;
                }
                Some("1") => {
                    it.next();
                    args.trace = true;
                }
                _ => args.trace = true,
            },
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// Keep the result and the spans under `target/benchmark/` (git-ignored).
fn write_artifacts(
    args: &Args,
    outcome: &iam_benchmark::Outcome,
    result: &str,
) -> std::io::Result<()> {
    use std::io::Write;
    let dir = std::path::Path::new("target/benchmark");
    std::fs::create_dir_all(dir)?;
    let trace = u8::from(args.trace);
    std::fs::write(
        dir.join(format!("{}.trace{trace}.json", args.workload)),
        format!("{}\n{result}\n", outcome.run_line),
    )?;
    if args.trace {
        let file = std::fs::File::create(dir.join(format!("{}.spans.jsonl", args.workload)))?;
        let mut w = std::io::BufWriter::new(file);
        outcome.recorder.write_jsonl(&mut w)?;
        w.flush()?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let origin = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--manifest"] {
        print!("{}", report::manifest_json());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match iam_benchmark::run(&args, Scale::FULL, origin) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = report::result_line(outcome.correct, outcome.counts, &outcome.metrics);
    if let Err(e) = write_artifacts(&args, &outcome, &result) {
        eprintln!("could not write target/benchmark: {e}");
        return ExitCode::FAILURE;
    }
    print!("{}", report::table(&outcome.metrics));
    println!(
        "attempted {} succeeded {} failed {}",
        outcome.counts.attempted,
        outcome.counts.attempted - outcome.counts.failed,
        outcome.counts.failed
    );
    println!("{}", outcome.run_line);
    println!("{result}");
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
