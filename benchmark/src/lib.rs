//! One repeatable benchmark of the whole system: one trained IAM model
//! reached through four paths (kernel → serve → cluster), ten end-to-end
//! metrics per path, and a per-layer latency ladder in the traced run.
//! README.md has the workloads, the statistics and how to run it.

#![deny(missing_docs)]

pub mod host;
pub mod probes;
pub mod report;
pub mod setup;
pub mod stats;
pub mod trace;
pub mod workloads;

use host::Host;
use report::{HostStamp, Metrics, OpCounts};
use setup::{Scale, Setup};
use stats::Round;
use std::time::Instant;
use trace::Recorder;
use workloads::Path;

/// What one invocation measures.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which of [`workloads::WORKLOADS`] to run.
    pub workload: String,
    /// Seed of the query pool.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Record spans, run the ladder and report the per-layer metrics
    /// (otherwise the end-to-end ones).
    pub trace: bool,
}

/// Rounds of the timed phase last at least this long and end when the op
/// in flight completes.
pub const ROUND_S: f64 = 1.0;

/// The result of one invocation.
pub struct Outcome {
    /// Every check passed: identical snapshots, and every answer of the
    /// warm-up pass, the timed ops and the ladder equal to the reference.
    pub correct: bool,
    /// Timed ops attempted and failed.
    pub counts: OpCounts,
    /// `(name, unit, value)` of the run's metrics, in definition order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// The run's identity and host stamp as one JSON object.
    pub run_line: String,
    /// The span recorder (empty unless `args.trace`).
    pub recorder: Recorder,
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One round as the loop records it: wall-clock figures, and the window
/// of reference-clock time its spins lie in.
struct TimedRound {
    queries: usize,
    op_s: f64,
    ops: std::ops::Range<usize>,
    from_s: f64,
    to_s: f64,
}

/// What the timed phase recorded, all wall-clock.
struct TimedPhase {
    counts: OpCounts,
    /// Seconds each op took, in op order.
    latency_s: Vec<f64>,
    rounds: Vec<TimedRound>,
    window: host::Window,
}

/// The timed phase: a closed loop of one generator thread for `seconds`,
/// the reference spin after every op. Failed ops are described in
/// `problems`.
fn timed_phase(
    seconds: f64,
    path: &mut Path,
    setup: &Setup,
    host: &mut Host,
    rec: &mut Recorder,
    problems: &mut Vec<String>,
) -> TimedPhase {
    let chunk = path.chunk();
    let chunks = setup.pool.len() / chunk;
    let mut counts = OpCounts::default();
    let mut latency_s: Vec<f64> = Vec::new();
    let mut rounds: Vec<TimedRound> = Vec::new();
    let open = host.open();
    let (mut round_from_s, mut round_first_op) = (open.from_s(), 0usize);
    let (mut round_queries, mut round_op_s) = (0usize, 0.0f64);
    loop {
        let op_start_s = host.now_s();
        if op_start_s - open.from_s() >= seconds {
            break;
        }
        let at = counts.attempted as usize % chunks * chunk;
        let result = rec.op(counts.attempted, |rec| path.op(setup, at, rec));
        let op_s = host.now_s() - op_start_s;
        latency_s.push(op_s);
        round_op_s += op_s;
        counts.attempted += 1;
        match result {
            Ok(()) => round_queries += chunk,
            Err(e) => {
                counts.failed += 1;
                problems.push(format!("op {}: {e}", counts.attempted - 1));
            }
        }
        host.keep_share(&open);
        let now_s = host.now_s();
        // the last round may be cut short by the clock: it is dropped,
        // unless it is the only one
        let last = now_s - open.from_s() >= seconds && rounds.is_empty();
        if now_s - round_from_s >= ROUND_S || last {
            rounds.push(TimedRound {
                queries: round_queries,
                op_s: round_op_s,
                ops: round_first_op..latency_s.len(),
                from_s: round_from_s,
                to_s: now_s,
            });
            (round_from_s, round_first_op) = (now_s, latency_s.len());
            (round_queries, round_op_s) = (0, 0.0);
        }
    }
    TimedPhase { counts, latency_s, rounds, window: host.close(open) }
}

/// Run workload `args.workload` at `scale`; `origin` is the process start
/// `setup_s` counts from. `Err` means the run could not be made at all (an
/// unknown workload, a run too short to time one op).
pub fn run(args: &Args, scale: Scale, origin: Instant) -> Result<Outcome, String> {
    if !workloads::WORKLOADS.iter().any(|w| w.0 == args.workload) {
        let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.0).collect();
        return Err(format!("unknown workload {:?}; one of {names:?}", args.workload));
    }
    let mut rec = Recorder::new(origin, args.trace);
    let mut host = Host::new(origin);
    let setup_open = host.open();
    let mut setup = setup::run(scale, args.seed, &mut host, &setup_open, &mut rec);

    let mut problems: Vec<String> = Vec::new();
    if !setup.snapshots_identical {
        problems.push("the fits did not serialise to identical snapshots".into());
    }
    // the workload's own path, then one untimed pass of the whole pool
    // through it: warms connections, and checks every answer before
    // anything is timed
    let path_open = host.open();
    let mut path =
        Path::start(&args.workload, &mut setup, &mut rec).expect("workload name was checked");
    host.keep_share(&path_open);
    let chunk = path.chunk();
    assert!(setup.pool.len() >= chunk, "the scale's pool is smaller than one op");
    for at in (0..=setup.pool.len() - chunk).step_by(chunk) {
        if let Err(e) = path.op(&setup, at, &mut rec) {
            problems.push(format!("warm-up: {e}"));
        }
        host.keep_share(&path_open);
    }
    let path_window = host.close(path_open);
    let setup_s = setup.adjusted_s() + path_window.wall_s() * host.factor(&path_window);

    let TimedPhase { counts, latency_s, rounds, window: timed_window } =
        timed_phase(args.seconds, &mut path, &setup, &mut host, &mut rec, &mut problems);
    let path_service = path.service_metrics();
    let is_cluster = matches!(path, Path::ClusterScatter { .. });
    path.stop();

    // wall-clock rounds, and the same rounds host-adjusted: each by the
    // host speed its own spins measured, all by the phase's busy share
    let busy = timed_window.busy();
    let raw_rounds: Vec<Round> = rounds
        .iter()
        .map(|r| Round { queries: r.queries, elapsed_s: r.op_s, ops: r.ops.clone() })
        .collect();
    let mut adjusted_rounds = raw_rounds.clone();
    let mut adjusted_latency_s = latency_s.clone();
    for (round, timed) in adjusted_rounds.iter_mut().zip(&rounds) {
        let speed = host.speed(timed.from_s, timed.to_s).expect("a spin follows every op");
        let factor = host::adjustment(busy, speed);
        round.elapsed_s *= factor;
        for s in &mut adjusted_latency_s[timed.ops.clone()] {
            *s *= factor;
        }
    }
    let too_short = || format!("no op completed in {} s", args.seconds);
    let raw = stats::summarize(&raw_rounds, &latency_s).ok_or_else(too_short)?;
    let adjusted = stats::summarize(&adjusted_rounds, &adjusted_latency_s).ok_or_else(too_short)?;
    let host_speed = host.speed(timed_window.from_s, timed_window.to_s).expect("spun above");

    let mut m = Metrics::new();
    if args.trace {
        let ladder =
            probes::run(&mut setup, &mut host, &mut m).map_err(|e| format!("ladder: {e}"))?;
        let service = path_service.unwrap_or(ladder.service);
        m.set("serve.service.mean_batch", service.mean_batch);
        m.set("serve.service.batches", service.batches as f64);
        m.set("serve.service.overloaded", service.overloaded as f64);
        m.set("serve.service.timeouts", service.timeouts as f64);
        if ladder.dist_failed > 0 {
            problems.push(format!("ladder: {} dist queries failed", ladder.dist_failed));
        }
        let timed_failed = if is_cluster { counts.failed } else { 0 };
        m.set("dist.failed_queries", (ladder.dist_failed + timed_failed) as f64);
        m.set("bench.qps_traced", adjusted.qps);
        m.set("bench.op_self_us", rec.op_self_us().expect("ops were recorded"));
        m.set("bench.spans_dropped", rec.dropped() as f64);
        m.set("bench.qps_all_rounds", raw.qps_all_rounds);
        m.set("bench.latency_p50_ms_raw", raw.latency_p50_ms);
        m.set("bench.latency_p99_ms_all_rounds", raw.latency_p99_ms_all_rounds);
        m.set("bench.round_spread_pct", raw.round_spread_pct);
        m.set("bench.retained_ops", adjusted.retained_ops as f64);
        m.set("bench.host_ref_ms", host::NOMINAL_SPIN_S / host_speed * 1e3);
        m.set("bench.host_speed_pct", host_speed * 100.0);
        m.set("bench.busy_share_pct", busy * 100.0);
        m.set("bench.qerror_max", setup.accuracy.max());
    } else {
        m.set("setup_s", setup_s);
        m.set("train_rows_per_s", setup.train_rows_per_s());
        m.set("qps", adjusted.qps);
        m.set("latency_p50_ms", adjusted.latency_p50_ms);
        m.set("latency_p90_ms", adjusted.latency_p90_ms);
        m.set("qerror_p50", setup.accuracy.percentile(0.50));
        m.set("qerror_p95", setup.accuracy.percentile(0.95));
        m.set("qerror_p99", setup.accuracy.percentile(0.99));
        m.set("model_bytes", setup.snapshot.len() as f64);
        m.set("peak_rss_mb", peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?);
    }

    for p in problems.iter().take(8) {
        eprintln!("incorrect: {p}");
    }
    if problems.len() > 8 {
        eprintln!("incorrect: … and {} more", problems.len() - 8);
    }
    Ok(Outcome {
        correct: problems.is_empty(),
        counts,
        metrics: m.ordered(&report::defs(args.trace)),
        run_line: report::run_line(
            args,
            &HostStamp::read(),
            host::NOMINAL_SPIN_S / host_speed * 1e3,
            raw.round_spread_pct,
            counts.attempted - counts.failed,
        ),
        recorder: rec,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small enough for a debug build: the same code paths on a tenth of
    /// the rows, one epoch, two fits and a quarter of the pool.
    const SMOKE: Scale = Scale { rows: 2_000, epochs: 1, fits: 2, pool: 256, accuracy_pool: 64 };

    fn smoke(workload: &str, trace: bool) {
        let args = Args { workload: workload.into(), seed: 3, seconds: 1.0, trace };
        let outcome = run(&args, SMOKE, Instant::now()).expect("the run can be made");
        assert!(outcome.correct, "{workload}: an answer differed from the reference");
        assert!(outcome.counts.attempted >= 1);
        assert_eq!(outcome.counts.failed, 0);
        let printed: Vec<(&str, &str)> = outcome.metrics.iter().map(|m| (m.0, m.1)).collect();
        assert_eq!(printed, report::defs(trace), "{workload}: printed names and units");
        assert!(outcome.metrics.iter().all(|m| m.2.is_finite()));
        assert_eq!(outcome.recorder.spans().is_empty(), !trace);
        let line = report::result_line(outcome.correct, outcome.counts, &outcome.metrics);
        assert!(line.starts_with("{\"correct\":true,\"attempted\":"));
        assert!(outcome.run_line.contains(&format!("\"workload\":\"{workload}\",\"seed\":3,")));
    }

    #[test]
    fn kernel_batch_smoke() {
        smoke("kernel_batch", false);
    }

    #[test]
    fn serve_c1_smoke() {
        smoke("serve_c1", false);
    }

    #[test]
    fn serve_burst_smoke() {
        smoke("serve_burst", false);
    }

    #[test]
    fn cluster_scatter_smoke() {
        smoke("cluster_scatter", false);
    }

    #[test]
    fn traced_smoke_runs_the_whole_ladder_and_records_spans() {
        smoke("serve_burst", true);
    }

    #[test]
    fn an_unknown_workload_is_refused() {
        let args = Args { workload: "nope".into(), seed: 1, seconds: 1.0, trace: false };
        assert!(run(&args, SMOKE, Instant::now()).is_err());
    }
}
