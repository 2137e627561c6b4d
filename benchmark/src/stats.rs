//! The statistics every timed number goes through.
//!
//! Interference on a shared host only ever subtracts speed, so a timed
//! metric is taken over the *faster half* of its samples: the run is cut
//! into rounds, the rounds are ranked, and only the better half feeds the
//! reported medians and percentiles. The all-samples figures are kept as
//! `bench.*` layer metrics so a disturbed run stays visible.

use iam_data::metrics::quantile;

/// Indices of the better half of `values` (`ceil(n / 2)` of them: the
/// middle one of an odd count is kept, a single sample is its own better
/// half), best first. Ties keep their input order, so the result is a
/// pure function of the input.
pub fn faster_half(values: &[f64], higher_is_better: bool) -> Vec<usize> {
    let mut order: Vec<usize> = (0..values.len()).collect();
    // stable sort: equal values stay in index order
    order.sort_by(|&a, &b| {
        let ord = values[a].total_cmp(&values[b]);
        if higher_is_better {
            ord.reverse()
        } else {
            ord
        }
    });
    order.truncate(values.len().div_ceil(2));
    order
}

/// Linear-interpolation percentile (`q` in `[0, 1]`) of unsorted values;
/// `None` when there are none.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    Some(quantile(&sorted, q))
}

/// Median of unsorted values; `None` when there are none.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 0.5)
}

/// Median of the better half of `values`; `None` when there are none.
pub fn faster_half_median(values: &[f64], higher_is_better: bool) -> Option<f64> {
    let kept: Vec<f64> =
        faster_half(values, higher_is_better).into_iter().map(|i| values[i]).collect();
    median(&kept)
}

/// Inter-quartile range over the median, in percent — how far apart the
/// samples of one run lie. `None` for fewer than two samples or a zero
/// median.
pub fn spread_pct(values: &[f64]) -> Option<f64> {
    if values.len() < 2 {
        return None;
    }
    let med = median(values)?;
    if med == 0.0 {
        return None;
    }
    Some(100.0 * (percentile(values, 0.75)? - percentile(values, 0.25)?) / med)
}

/// One round of the timed phase: the ops `ops.start..ops.end` of the run
/// answered `queries` queries in `elapsed_s` seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct Round {
    /// Queries answered by the round's ops.
    pub queries: usize,
    /// Time the round's ops took, summed (the reference spins between
    /// them are not part of it).
    pub elapsed_s: f64,
    /// Index range of the round's ops in the run's latency list.
    pub ops: std::ops::Range<usize>,
}

impl Round {
    /// Queries per second of this round.
    pub fn qps(&self) -> f64 {
        self.queries as f64 / self.elapsed_s
    }
}

/// The timed phase reduced to its reported numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedSummary {
    /// Median round throughput over the faster half of the rounds.
    pub qps: f64,
    /// Median op latency (ms) over the ops of those rounds.
    pub latency_p50_ms: f64,
    /// 90th-percentile op latency (ms) over the same ops.
    pub latency_p90_ms: f64,
    /// How many ops the faster-half rounds hold.
    pub retained_ops: usize,
    /// Median round throughput over every round.
    pub qps_all_rounds: f64,
    /// 99th-percentile op latency (ms) over every op of every round.
    pub latency_p99_ms_all_rounds: f64,
    /// Inter-quartile range of round throughput over its median (percent;
    /// 0 with fewer than two rounds).
    pub round_spread_pct: f64,
}

/// Reduce `rounds` and the per-op latencies (seconds, indexed by
/// [`Round::ops`]) to a [`TimedSummary`]; `None` without a single round.
pub fn summarize(rounds: &[Round], latency_s: &[f64]) -> Option<TimedSummary> {
    let qps: Vec<f64> = rounds.iter().map(Round::qps).collect();
    let kept = faster_half(&qps, true);
    let kept_qps: Vec<f64> = kept.iter().map(|&i| qps[i]).collect();
    let kept_ms: Vec<f64> = kept
        .iter()
        .flat_map(|&i| latency_s[rounds[i].ops.clone()].iter().map(|s| s * 1e3))
        .collect();
    let all_ms: Vec<f64> =
        rounds.iter().flat_map(|r| latency_s[r.ops.clone()].iter().map(|s| s * 1e3)).collect();
    Some(TimedSummary {
        qps: median(&kept_qps)?,
        latency_p50_ms: percentile(&kept_ms, 0.5)?,
        latency_p90_ms: percentile(&kept_ms, 0.9)?,
        retained_ops: kept_ms.len(),
        qps_all_rounds: median(&qps)?,
        latency_p99_ms_all_rounds: percentile(&all_ms, 0.99)?,
        round_spread_pct: spread_pct(&qps).unwrap_or(0.0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faster_half_keeps_the_middle_of_an_odd_count() {
        assert_eq!(faster_half(&[5.0, 1.0, 3.0, 4.0, 2.0], true), vec![0, 3, 2]);
        assert_eq!(faster_half(&[5.0, 1.0, 3.0, 4.0, 2.0], false), vec![1, 4, 2]);
        assert_eq!(faster_half(&[5.0, 1.0, 3.0, 4.0], true), vec![0, 3]);
    }

    #[test]
    fn faster_half_breaks_ties_by_input_order() {
        assert_eq!(faster_half(&[2.0, 2.0, 2.0, 2.0], true), vec![0, 1]);
        assert_eq!(faster_half(&[1.0, 2.0, 2.0, 0.5], true), vec![1, 2]);
        assert_eq!(faster_half(&[1.0, 2.0, 1.0, 3.0], false), vec![0, 2]);
    }

    #[test]
    fn faster_half_of_fewer_than_two() {
        assert_eq!(faster_half(&[], true), Vec::<usize>::new());
        assert_eq!(faster_half(&[7.0], true), vec![0]);
        assert_eq!(faster_half_median(&[], true), None);
        assert_eq!(faster_half_median(&[7.0], false), Some(7.0));
    }

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 1.0), Some(4.0));
        assert_eq!(percentile(&v, 0.9), Some(3.7));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[9.0], 0.9), Some(9.0));
    }

    #[test]
    fn spread_needs_two_samples() {
        assert_eq!(spread_pct(&[3.0]), None);
        assert_eq!(spread_pct(&[1.0, 2.0, 3.0, 4.0, 5.0]), Some(100.0 * 2.0 / 3.0));
    }

    fn round(queries: usize, elapsed_s: f64, ops: std::ops::Range<usize>) -> Round {
        Round { queries, elapsed_s, ops }
    }

    #[test]
    fn summary_pools_the_ops_of_the_faster_rounds_only() {
        // round throughputs 100, 50, 200 q/s: rounds 2 and 0 are kept
        let rounds = [round(100, 1.0, 0..2), round(100, 2.0, 2..4), round(200, 1.0, 4..6)];
        let latency_s = [0.010, 0.020, 0.900, 0.800, 0.001, 0.002];
        let s = summarize(&rounds, &latency_s).unwrap();
        assert_eq!(s.qps, 150.0);
        assert_eq!(s.retained_ops, 4);
        assert_eq!(s.latency_p50_ms, 6.0);
        assert!(s.latency_p90_ms < 20.0 && s.latency_p90_ms > 10.0);
        assert_eq!(s.qps_all_rounds, 100.0);
        assert!(s.latency_p99_ms_all_rounds > 800.0);
        assert_eq!(s.round_spread_pct, 75.0);
    }

    #[test]
    fn summary_of_one_round_and_of_none() {
        let s = summarize(&[round(64, 0.5, 0..1)], &[0.5]).unwrap();
        assert_eq!(s.qps, 128.0);
        assert_eq!(s.qps_all_rounds, 128.0);
        assert_eq!(s.latency_p50_ms, 500.0);
        assert_eq!(s.latency_p90_ms, 500.0);
        assert_eq!(s.round_spread_pct, 0.0);
        assert_eq!(summarize(&[], &[]), None);
    }
}
