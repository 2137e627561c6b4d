//! The reference clock: how fast the host was running while something
//! was being timed.
//!
//! The sandbox is a 2-vCPU guest on a shared machine. A neighbour on the
//! sibling hyper-thread slows CPU-bound code by up to 1.5× for seconds to
//! minutes at a time, and nothing in the guest (steal time is ~0) says
//! so; measured here, the kernel's 1 s round throughputs swing between
//! 12 000 and 19 000 queries/s on identical code. No statistic over
//! wall-clock samples survives a run that is disturbed from start to end,
//! so the benchmark measures the disturbance instead: a fixed spin
//! ([`SPIN_STEPS`] SplitMix64 steps) is interleaved with whatever is timed
//! and takes about [`SPIN_SHARE`] of the time. The spin's nominal
//! duration over its measured duration is the host's speed `h` during
//! that window (1.0 undisturbed, ≈ 0.67 with a busy sibling), and the
//! product throughput × spin time turns out to be constant within ±2 %
//! while both vary by ±20 %.
//!
//! Only time spent computing stretches when the host slows; time spent
//! waiting on a timer does not. With `busy` the share of a window's wall
//! time the process spent on a CPU (from `/proc/self/stat`), the
//! host-adjusted time is
//!
//! ```text
//! adjusted = wall × (1 − busy × (1 − h))
//! ```
//!
//! — wall-clock time as it would have read with the host at its nominal
//! speed. Every timed end-to-end metric is host-adjusted; the raw
//! wall-clock figures stay visible as `bench.*` layer metrics.

use std::time::Instant;

/// SplitMix64 steps per reference spin.
pub const SPIN_STEPS: u32 = 1_000_000;

/// Seconds one spin takes on the undisturbed reference host (the 2-vCPU
/// Xeon @ 2.10 GHz sandbox this benchmark was defined on: the fastest
/// spins of every run made there read 346.9–347.4 µs). The constant only
/// fixes the unit of adjusted time; on another machine every adjusted
/// number scales by the same factor.
pub const NOMINAL_SPIN_S: f64 = 347e-6;

/// Share of a timed window spent spinning.
pub const SPIN_SHARE: f64 = 0.05;

/// One recorded spin.
#[derive(Debug, Clone, Copy)]
struct Spin {
    /// Seconds from the clock's origin to the spin's start.
    at_s: f64,
    /// How long it took.
    dur_s: f64,
}

/// A window of the run: wall-clock bounds (seconds from the origin) and
/// the CPU time the process had used at each bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// Start, seconds from the origin.
    pub from_s: f64,
    /// End, seconds from the origin.
    pub to_s: f64,
    /// Process CPU time (all threads) used inside the window, seconds.
    pub cpu_s: f64,
    /// Time spent in reference spins inside the window, seconds.
    pub spin_s: f64,
}

impl Window {
    /// Wall-clock length without the spins.
    pub fn wall_s(&self) -> f64 {
        self.to_s - self.from_s - self.spin_s
    }

    /// Share of [`Self::wall_s`] the process spent on a CPU, spins
    /// excluded, clamped to `[0, 1]` (two busy threads are still one
    /// critical path).
    pub fn busy(&self) -> f64 {
        ((self.cpu_s - self.spin_s) / self.wall_s()).clamp(0.0, 1.0)
    }
}

/// The factor that turns wall-clock time into host-adjusted time.
pub fn adjustment(busy: f64, speed: f64) -> f64 {
    1.0 - busy * (1.0 - speed)
}

/// Records reference spins against one origin.
#[derive(Debug)]
pub struct Host {
    origin: Instant,
    spins: Vec<Spin>,
    spun_s: f64,
}

impl Host {
    /// A clock whose time starts at `origin` (process start).
    pub fn new(origin: Instant) -> Host {
        Host { origin, spins: Vec::new(), spun_s: 0.0 }
    }

    /// Seconds since the origin.
    pub fn now_s(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Run and record one spin; returns its duration in seconds.
    pub fn spin(&mut self) -> f64 {
        let at_s = self.now_s();
        let mut state = 0x5EED_0BE7u64;
        let mut acc = 0u64;
        for _ in 0..SPIN_STEPS {
            acc ^= iam_obs::tracetree::splitmix64(&mut state);
        }
        std::hint::black_box(acc);
        let dur_s = self.now_s() - at_s;
        self.spins.push(Spin { at_s, dur_s });
        self.spun_s += dur_s;
        dur_s
    }

    /// Spin (at least once) until the spins of the window `open` add up to
    /// [`SPIN_SHARE`] of its length so far. Called after every timed stage
    /// and every op.
    pub fn keep_share(&mut self, open: &OpenWindow) {
        loop {
            self.spin();
            if self.spun_s - open.spun_s >= SPIN_SHARE * (self.now_s() - open.from_s) {
                break;
            }
        }
    }

    fn in_window(&self, from_s: f64, to_s: f64) -> impl Iterator<Item = &Spin> {
        // spins are recorded in time order
        let first = self.spins.partition_point(|s| s.at_s < from_s);
        self.spins[first..].iter().take_while(move |s| s.at_s <= to_s)
    }

    /// Host speed over `[from_s, to_s]`: nominal over mean measured
    /// duration of the spins that started there. `None` when none did.
    ///
    /// A single call (a model build, an epoch) cannot be interleaved with
    /// spins; its window is then the one that holds the spin bursts just
    /// before and just after it.
    pub fn speed(&self, from_s: f64, to_s: f64) -> Option<f64> {
        let (mut n, mut total) = (0usize, 0.0f64);
        for s in self.in_window(from_s, to_s) {
            n += 1;
            total += s.dur_s;
        }
        (n > 0).then(|| NOMINAL_SPIN_S * n as f64 / total)
    }

    /// Open a window now.
    pub fn open(&self) -> OpenWindow {
        OpenWindow { from_s: self.now_s(), cpu_s: cpu_time_s(), spun_s: self.spun_s }
    }

    /// Close `open` now.
    pub fn close(&self, open: OpenWindow) -> Window {
        let to_s = self.now_s();
        Window {
            from_s: open.from_s,
            to_s,
            cpu_s: cpu_time_s() - open.cpu_s,
            spin_s: self.spun_s - open.spun_s,
        }
    }

    /// The adjustment factor of `window`: its busy share against the host
    /// speed its spins measured.
    pub fn factor(&self, window: &Window) -> f64 {
        let speed = self.speed(window.from_s, window.to_s).expect("every window is spun in");
        adjustment(window.busy(), speed)
    }
}

/// A window that has been opened but not closed yet.
#[derive(Debug, Clone, Copy)]
pub struct OpenWindow {
    from_s: f64,
    cpu_s: f64,
    spun_s: f64,
}

impl OpenWindow {
    /// When the window was opened, seconds from the origin.
    pub fn from_s(&self) -> f64 {
        self.from_s
    }
}

/// CPU time (user + system, all threads, exited ones included) this
/// process has used, in seconds, from `/proc/self/stat`. The kernel
/// reports it in clock ticks, which are 10 ms on every Linux the
/// benchmark runs on (`USER_HZ` is 100 on all architectures).
pub fn cpu_time_s() -> f64 {
    const TICK_S: f64 = 0.01;
    let stat = std::fs::read_to_string("/proc/self/stat").expect("the benchmark needs Linux /proc");
    // the command name may hold spaces and parentheses: fields are counted
    // from the last ')'
    let after_comm = &stat[stat.rfind(')').expect("stat has a command name") + 1..];
    let mut fields = after_comm.split_whitespace().skip(11); // state is field 3; utime is 14
    let mut ticks =
        || -> f64 { fields.next().and_then(|f| f.parse().ok()).expect("stat has utime and stime") };
    (ticks() + ticks()) * TICK_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adjustment_only_stretches_the_busy_share() {
        assert_eq!(adjustment(1.0, 1.0), 1.0);
        assert_eq!(adjustment(0.0, 0.5), 1.0);
        assert_eq!(adjustment(1.0, 0.5), 0.5);
        assert!((adjustment(0.1, 0.5) - 0.95).abs() < 1e-12);
        assert!(adjustment(1.0, 1.1) > 1.0); // a faster host: time reads longer
    }

    #[test]
    fn busy_share_excludes_spins_and_is_clamped() {
        let w = Window { from_s: 1.0, to_s: 3.0, cpu_s: 0.6, spin_s: 0.1 };
        assert!((w.wall_s() - 1.9).abs() < 1e-12);
        assert!((w.busy() - 0.5 / 1.9).abs() < 1e-12);
        let two_threads = Window { from_s: 0.0, to_s: 1.0, cpu_s: 1.9, spin_s: 0.0 };
        assert_eq!(two_threads.busy(), 1.0);
        let tick_rounding = Window { from_s: 0.0, to_s: 1.0, cpu_s: 0.0, spin_s: 0.01 };
        assert_eq!(tick_rounding.busy(), 0.0);
    }

    #[test]
    fn spins_are_found_by_window() {
        let mut host = Host::new(Instant::now());
        let before = host.now_s();
        let d1 = host.spin();
        let d2 = host.spin();
        let after = host.now_s();
        assert!(d1 > 0.0 && d2 > 0.0);
        assert_eq!(host.speed(after + 1.0, after + 2.0), None);
        let speed = host.speed(before, after).unwrap();
        assert!((speed - NOMINAL_SPIN_S * 2.0 / (d1 + d2)).abs() < 1e-9);
    }

    #[test]
    fn keep_share_spins_at_least_once_and_reaches_the_share() {
        let mut host = Host::new(Instant::now());
        let open = host.open();
        std::thread::sleep(std::time::Duration::from_millis(20));
        host.keep_share(&open);
        let window = host.close(open);
        assert!(window.spin_s >= SPIN_SHARE * 0.02);
        assert!(window.wall_s() >= 0.02 && host.factor(&window) > 0.0);
    }

    #[test]
    fn cpu_time_advances_with_work() {
        let before = cpu_time_s();
        let mut host = Host::new(Instant::now());
        while host.now_s() < 0.05 {
            host.spin();
        }
        assert!(cpu_time_s() > before);
    }
}
