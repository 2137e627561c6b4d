//! Metric definitions, the result line, and the host stamp.
//!
//! The tables below are the single list of what the benchmark runs and
//! prints. `BENCHMARK.json` at the repository root is [`manifest_json`]
//! written to a file (`iam-benchmark --manifest`), and `tests/manifest.rs`
//! fails when the two disagree.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics `(name, unit, better, bound)`: what a user of the
/// system sees, printed by the untraced run of every workload. `bound` is
/// the share of the parent's median by which the metric may worsen before
/// a change is a regression. Each timing bound is three times the largest
/// spread (inter-quartile range over median of ten runs with ten seeds)
/// the A/A self-checks showed for the metric on any workload, and more
/// than five times the largest difference between the medians of two such
/// sets; README.md has the table. `setup_s` has the largest bound
/// the driver allows.
pub const END_TO_END: &[(&str, &str, Better, f64)] = &[
    ("setup_s", "s", Lower, 0.25),
    ("train_rows_per_s", "rows/s", Higher, 0.18),
    ("qps", "queries/s", Higher, 0.18),
    ("latency_p50_ms", "ms", Lower, 0.18),
    ("latency_p90_ms", "ms", Lower, 0.22),
    ("qerror_p50", "ratio", Lower, 0.05),
    ("qerror_p95", "ratio", Lower, 0.10),
    ("qerror_p99", "ratio", Lower, 0.20),
    ("model_bytes", "bytes", Lower, 0.02),
    ("peak_rss_mb", "MiB", Lower, 0.15),
];

/// Per-layer metrics `(name, unit, better)`, printed by the traced run of
/// every workload. Each times a public call from the benchmark's own
/// files; README.md maps each to the end-to-end metric and workload it
/// should move.
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    // data
    ("data.synth.generate_ms", "ms", Lower),
    ("data.exec.exact_scan_us", "us", Lower),
    // gmm
    ("gmm.em.fit_ms", "ms", Lower),
    ("gmm.vbgm.fit_ms", "ms", Lower),
    ("gmm.prefix.build_ms", "ms", Lower),
    ("gmm.prefix.bytes", "bytes", Lower),
    ("gmm.sgd.step_us", "us", Lower),
    ("gmm.range_mass_exact_ns", "ns", Lower),
    ("gmm.prefix.mass_into_ns", "ns", Lower),
    // nn
    ("nn.forward_fused_ns_per_row", "ns", Lower),
    ("nn.softmax_ns_per_row", "ns", Lower),
    ("nn.train_batch_ms", "ms", Lower),
    ("nn.fused_build_ms", "ms", Lower),
    ("nn.fused_table_bytes", "bytes", Lower),
    ("nn.param_bytes", "bytes", Lower),
    // core
    ("core.build_s", "s", Lower),
    ("core.train_epoch_s", "s", Lower),
    ("core.prepare_inference_ms", "ms", Lower),
    ("core.infer.b1_us", "us", Lower),
    ("core.infer.b64_us_per_query", "us", Lower),
    ("core.infer.b256_us_per_query", "us", Lower),
    ("core.infer.batch_gain", "ratio", Higher),
    ("core.persist.save_ms", "ms", Lower),
    ("core.persist.load_ms", "ms", Lower),
    // serve: the ladder, same queries on every rung, cache off
    ("serve.client.c1_us", "us", Lower),
    ("serve.service.overhead_c1_us", "us", Lower),
    ("serve.net.c1_us", "us", Lower),
    ("serve.net.overhead_us", "us", Lower),
    ("serve.net.parse_query_ns", "ns", Lower),
    ("serve.net.render_query_ns", "ns", Lower),
    ("serve.client.many64_us_per_query", "us", Lower),
    ("serve.service.overhead_many64_us", "us", Lower),
    ("serve.service.mean_batch", "queries", Higher),
    ("serve.service.batches", "count", Lower),
    ("serve.service.overloaded", "count", Lower),
    ("serve.service.timeouts", "count", Lower),
    ("serve.cache.get_hit_ns", "ns", Lower),
    ("serve.cache.insert_evict_ns", "ns", Lower),
    ("serve.client.cache_hit_us", "us", Lower),
    ("serve.swap_model_ms", "ms", Lower),
    // sql
    ("sql.parse_lower_us", "us", Lower),
    ("serve.sql.count_overhead_us", "us", Lower),
    // dist
    ("dist.proto.encode_us", "us", Lower),
    ("dist.proto.decode_us", "us", Lower),
    ("dist.ping_us", "us", Lower),
    ("dist.batch64_ms", "ms", Lower),
    ("dist.overhead_ms", "ms", Lower),
    ("dist.deploy_ms", "ms", Lower),
    ("dist.failed_queries", "count", Lower),
    // obs
    ("obs.span.disabled_ns", "ns", Lower),
    ("obs.span.enabled_ns", "ns", Lower),
    ("obs.kernel_overhead_pct", "%", Lower),
    // bench: the traced run itself
    ("bench.qps_traced", "queries/s", Higher),
    ("bench.op_self_us", "us", Lower),
    ("bench.spans_dropped", "count", Lower),
    ("bench.qps_all_rounds", "queries/s", Higher),
    ("bench.latency_p50_ms_raw", "ms", Lower),
    ("bench.latency_p99_ms_all_rounds", "ms", Lower),
    ("bench.round_spread_pct", "%", Lower),
    ("bench.retained_ops", "count", Higher),
    ("bench.host_ref_ms", "ms", Lower),
    ("bench.host_speed_pct", "%", Higher),
    ("bench.busy_share_pct", "%", Lower),
    ("bench.qerror_max", "ratio", Lower),
];

/// The metrics of one run, checked against a definition table when
/// rendered: a name that is not defined, or a defined name that was never
/// set, is a bug in the benchmark and panics.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// An empty set.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Record `value` under `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let previous = self.values.insert(name, value);
        assert!(previous.is_none(), "metric {name} set twice");
    }

    /// The value recorded under `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// `(name, unit, value)` in the order of `defs`, which must name
    /// exactly the metrics that were set.
    pub fn ordered(
        &self,
        defs: &[(&'static str, &'static str)],
    ) -> Vec<(&'static str, &'static str, f64)> {
        for name in self.values.keys() {
            assert!(defs.iter().any(|d| d.0 == *name), "metric {name} is not defined");
        }
        defs.iter()
            .map(|&(name, unit)| {
                let value =
                    self.get(name).unwrap_or_else(|| panic!("metric {name} was never measured"));
                assert!(value.is_finite(), "metric {name} is not finite: {value}");
                (name, unit, value)
            })
            .collect()
    }
}

/// `(name, unit)` of the metrics a run with `--trace <trace>` prints.
pub fn defs(trace: bool) -> Vec<(&'static str, &'static str)> {
    if trace {
        PER_LAYER.iter().map(|d| (d.0, d.1)).collect()
    } else {
        END_TO_END.iter().map(|d| (d.0, d.1)).collect()
    }
}

/// Seconds one run measures for: `run_seconds` of `BENCHMARK.json` and the
/// default of `--seconds`. The driver makes 92 runs, each with some 10 s
/// of set-up, inside 3 420 s; 15 s is what that leaves with a margin.
pub const RUN_SECONDS: u32 = 15;

/// The driver's command; it appends
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// The text of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let quoted = |items: &[&str]| {
        items.iter().map(|s| format!("\"{}\"", json_escape(s))).collect::<Vec<_>>().join(", ")
    };
    let block = |rows: Vec<String>| format!("[\n    {}\n  ]", rows.join(",\n    "));
    let workloads = crate::workloads::WORKLOADS
        .iter()
        .map(|(name, why)| format!("{{\"name\": \"{name}\", \"why\": \"{}\"}}", json_escape(why)))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|(name, unit, better, bound)| {
            format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\", \"bound\": {bound:?}}}",
                better.as_str()
            )
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            format!(
                "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                better.as_str()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        quoted(COMMAND),
        block(workloads),
        block(end_to_end),
        block(per_layer)
    )
}

/// Counts of the timed ops; a failed op is one that errored, timed out or
/// returned a different answer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Ops started in the timed phase.
    pub attempted: u64,
    /// Ops that did not return the reference answers.
    pub failed: u64,
}

/// The one JSON object the driver reads from the last line of stdout.
pub fn result_line(correct: bool, counts: OpCounts, metrics: &[(&str, &str, f64)]) -> String {
    let mut s = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        counts.attempted, counts.failed
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        // `{:?}` prints every digit of an f64 and always a JSON number
        // for finite values (checked in `Metrics::ordered`)
        let _ = write!(s, "\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}");
    }
    s.push_str("}}");
    s
}

/// The human-readable table printed above the result line.
pub fn table(metrics: &[(&str, &str, f64)]) -> String {
    let mut s = String::new();
    for (name, unit, value) in metrics {
        let _ = writeln!(s, "{name:<36} {value:>18.6} {unit}");
    }
    s
}

/// Where the numbers were measured, so a run made on another machine, or
/// while a neighbour was busy, can be told from a regression.
#[derive(Debug, Clone)]
pub struct HostStamp {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `model name` of the first CPU in `/proc/cpuinfo`.
    pub cpu: String,
    /// `rustc -V` of the toolchain on `PATH`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub commit: String,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    Some(String::from_utf8_lossy(&out.stdout).trim().to_string()).filter(|s| !s.is_empty())
}

impl HostStamp {
    /// Read the stamp (runs `rustc -V` and `git rev-parse HEAD`, waiting
    /// for both to exit).
    pub fn read() -> HostStamp {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        HostStamp {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
            commit: command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into()),
        }
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            c if c.is_control() => out.push(' '),
            c => out.push(c),
        }
    }
    out
}

/// The run's identity line: workload, seed, run length, host stamp and the
/// two disturbance indicators, printed just above the result line and
/// stored with the results under `target/benchmark/`.
pub fn run_line(
    args: &crate::Args,
    host: &HostStamp,
    host_ref_ms: f64,
    round_spread_pct: f64,
    succeeded: u64,
) -> String {
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{:?},\"trace\":{},\
         \"succeeded\":{succeeded},\"nproc\":{},\"cpu\":\"{}\",\"rustc\":\"{}\",\"commit\":\"{}\",\
         \"bench.host_ref_ms\":{host_ref_ms:?},\"bench.round_spread_pct\":{round_spread_pct:?}}}",
        json_escape(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host.nproc,
        json_escape(&host.cpu),
        json_escape(&host.rustc),
        json_escape(&host.commit),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(
            true,
            OpCounts { attempted: 12, failed: 0 },
            &[("latency_ms", "ms", 1.25), ("setup_s", "s", 0.5)],
        );
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":12,\"failed\":0,\"metrics\":{\
             \"latency_ms\":{\"value\":1.25,\"unit\":\"ms\"},\
             \"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}"
        );
    }

    #[test]
    fn whole_numbers_still_print_as_json_numbers() {
        let line = result_line(true, OpCounts { attempted: 1, failed: 0 }, &[("n", "count", 3.0)]);
        assert!(line.contains("\"value\":3.0,"));
    }

    #[test]
    #[should_panic(expected = "never measured")]
    fn a_defined_metric_that_was_not_set_panics() {
        Metrics::new().ordered(&[("qps", "queries/s")]);
    }

    #[test]
    #[should_panic(expected = "not defined")]
    fn an_undefined_metric_panics() {
        let mut m = Metrics::new();
        m.set("mystery", 1.0);
        m.ordered(&[]);
    }

    fn is_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        !s.is_empty()
            && s.len() <= 64
            && s.chars().all(ok)
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
    }

    fn is_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn the_tables_stay_inside_the_contract() {
        let workloads = crate::workloads::WORKLOADS;
        assert!((2..=8).contains(&workloads.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut names: Vec<&str> = workloads.iter().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().map(|d| d.0));
        names.extend(PER_LAYER.iter().map(|d| d.0));
        for name in &names {
            assert!(is_name(name), "bad name {name:?}");
        }
        let distinct: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(distinct.len(), names.len(), "a name is used twice");
        for unit in END_TO_END.iter().map(|d| d.1).chain(PER_LAYER.iter().map(|d| d.1)) {
            assert!(is_unit(unit), "bad unit {unit:?}");
        }
        for (name, why) in workloads {
            assert!(why.chars().count() <= 200 && !why.contains('\n'), "why of {name}");
        }
        assert!(COMMAND.len() <= 32 && COMMAND.iter().all(|a| a.len() <= 200));
        assert!(manifest_json().len() <= 64 * 1024);
    }

    #[test]
    fn set_up_time_has_the_largest_bound_and_none_exceeds_a_quarter() {
        let setup = END_TO_END.iter().find(|d| d.0 == "setup_s").expect("setup_s is required");
        assert_eq!((setup.1, setup.2), ("s", Lower));
        for (name, _, _, bound) in END_TO_END {
            assert!(*bound > 0.0 && *bound <= 0.25, "bound of {name}");
            assert!(*bound <= setup.3, "{name} has a larger bound than setup_s");
        }
    }

    #[test]
    fn host_stamp_escapes_quotes() {
        assert_eq!(json_escape("a\"b\\c\n"), "a\\\"b\\\\c ");
    }
}
