//! Deterministic, seeded, structure-aware mutational fuzzing for the
//! workspace's four untrusted-byte surfaces:
//!
//! * `proto`   — `iam_dist::proto` frame + message decoding
//! * `persist` — `IamEstimator::load_framed` snapshot parsing (and, on
//!   parses that succeed, estimation — which exercises the debug
//!   invariant layer on hostile-but-checksummed models)
//! * `line`    — `iam_serve::net::parse_query` line protocol
//! * `sql`     — `iam_sql::parse` statement parsing (and, on parses that
//!   succeed, the Display round trip: canonical text must re-parse and
//!   re-render to a fixpoint)
//!
//! No external fuzzing engine and no nightly: inputs come from a
//! [`SplitMix64`] stream, so a run is exactly reproducible from
//! `(target, seed, iters)`. "Structure-aware" means mutations start from
//! *valid* artifacts — encoded messages, a real framed snapshot, real
//! query lines — and corrupt them the way transports do (bit flips,
//! flipped length prefixes, truncation) **plus** the one mutation class
//! naive fuzzers never reach: payload corruption with the checksum
//! *recomputed*, so the parser behind the checksum gate sees hostile
//! bytes too.
//!
//! Every iteration runs under `catch_unwind`: any panic — including a
//! tripped `iam_core::invariant` check — is a crash, and the offending
//! input is written to the regression corpus for replay.

use iam_core::{persist, IamConfig, IamEstimator};
use iam_data::{synth::Dataset, Interval, RangeQuery, SelectivityEstimator};
use iam_dist::proto::{read_frame, write_frame, Msg, MAX_FRAME};
use iam_serve::net::parse_query;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

/// SplitMix64: tiny, seedable, high-quality 64-bit stream.
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Seeded stream; equal seeds give equal streams.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next raw 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, n)`; `n` must be nonzero.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next_u64() as u8).collect()
    }
}

/// One crashing input, kept for the regression corpus.
#[derive(Debug)]
pub struct Crash {
    /// The raw input bytes that triggered the panic.
    pub input: Vec<u8>,
    /// Iteration index and panic payload, for the report.
    pub context: String,
}

/// Result of fuzzing one target.
#[derive(Debug)]
pub struct FuzzReport {
    /// Target name (`proto` / `persist` / `line` / `sql`).
    pub target: String,
    /// Iterations executed.
    pub iters: u64,
    /// Panics caught (empty on a clean run).
    pub crashes: Vec<Crash>,
}

/// Extract a printable panic message from a `catch_unwind` payload.
fn panic_message(e: &(dyn std::any::Any + Send)) -> String {
    e.downcast_ref::<String>()
        .cloned()
        .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// Apply 1–8 random byte-level mutations in place: flips, overwrites,
/// and little-endian length-field-style splices.
fn mutate(rng: &mut SplitMix64, buf: &mut Vec<u8>) {
    if buf.is_empty() {
        return;
    }
    let n = 1 + rng.below(8) as usize;
    for _ in 0..n {
        match rng.below(4) {
            0 => {
                let i = rng.below(buf.len() as u64) as usize;
                buf[i] ^= 1 << rng.below(8);
            }
            1 => {
                let i = rng.below(buf.len() as u64) as usize;
                buf[i] = rng.next_u64() as u8;
            }
            2 => {
                // splice a hostile little-endian u32 (tiny / huge / off-by-
                // one lengths are the interesting frontier for codecs)
                if buf.len() >= 4 {
                    let i = rng.below((buf.len() - 3) as u64) as usize;
                    let v: u32 = match rng.below(4) {
                        0 => 0,
                        1 => u32::MAX,
                        2 => rng.next_u64() as u32,
                        _ => (buf.len() as u32).wrapping_add(rng.below(8) as u32),
                    };
                    buf[i..i + 4].copy_from_slice(&v.to_le_bytes());
                }
            }
            _ => {
                // truncate or extend at the tail
                if rng.below(2) == 0 {
                    let keep = rng.below(buf.len() as u64 + 1) as usize;
                    buf.truncate(keep);
                    if buf.is_empty() {
                        return;
                    }
                } else {
                    let extra_len = rng.below(16) as usize + 1;
                    let extra = rng.bytes(extra_len);
                    buf.extend_from_slice(&extra);
                }
            }
        }
    }
}

// --- proto target ----------------------------------------------------------

/// Generate a structurally valid message from the RNG stream (floats are
/// drawn from bit patterns, so subnormals/infinities appear; NaN is
/// excluded only where round-trip equality is asserted).
fn gen_msg(rng: &mut SplitMix64) -> Msg {
    let gen_str = |rng: &mut SplitMix64| -> String {
        let len = rng.below(12) as usize;
        (0..len).map(|_| (b'a' + rng.below(26) as u8) as char).collect()
    };
    let gen_f64 = |rng: &mut SplitMix64| -> f64 {
        let v = f64::from_bits(rng.next_u64());
        if v.is_nan() {
            0.5
        } else {
            v
        }
    };
    let gen_query = |rng: &mut SplitMix64| -> RangeQuery {
        let ncols = 1 + rng.below(5) as usize;
        let mut q = RangeQuery::unconstrained(ncols);
        for c in q.cols.iter_mut() {
            if rng.below(2) == 0 {
                *c = Some(Interval {
                    lo: gen_f64(rng),
                    hi: gen_f64(rng),
                    lo_strict: rng.below(2) == 0,
                    hi_strict: rng.below(2) == 0,
                });
            }
        }
        q
    };
    match rng.below(11) {
        0 => Msg::Ping,
        1 => Msg::Pong,
        2 => {
            let blen = rng.below(64) as usize;
            Msg::LoadSnapshot { table: gen_str(rng), label: gen_str(rng), bytes: rng.bytes(blen) }
        }
        3 => Msg::LoadAck { table: gen_str(rng), version: rng.next_u64() },
        4 => Msg::EstimateBatch {
            table: gen_str(rng),
            queries: (0..rng.below(4)).map(|_| gen_query(rng)).collect(),
        },
        5 => Msg::EstimateReply {
            results: (0..rng.below(6))
                .map(|_| if rng.below(2) == 0 { Ok(gen_f64(rng)) } else { Err(gen_str(rng)) })
                .collect(),
        },
        6 => Msg::Version { table: gen_str(rng) },
        7 => Msg::VersionReply { version: rng.next_u64(), label: gen_str(rng) },
        8 => Msg::Shutdown,
        9 => Msg::ShutdownAck,
        _ => Msg::Error { message: gen_str(rng) },
    }
}

fn fuzz_proto(seed: u64, iters: u64) -> FuzzReport {
    let mut rng = SplitMix64::new(seed);
    let mut crashes = Vec::new();
    for i in 0..iters {
        let mode = rng.below(4);
        let input: Vec<u8> = match mode {
            // raw bytes straight at the payload decoder
            0 => {
                let len = rng.below(200) as usize;
                rng.bytes(len)
            }
            // valid payload, then mutated
            1 | 2 => {
                let mut p = gen_msg(&mut rng).encode();
                if mode == 2 {
                    mutate(&mut rng, &mut p);
                }
                p
            }
            // a whole frame (length prefix included), mutated
            _ => {
                let mut wire = Vec::new();
                write_frame(&mut wire, &gen_msg(&mut rng), None, &[])
                    .expect("vec write cannot fail");
                mutate(&mut rng, &mut wire);
                wire
            }
        };
        let framed = mode == 3;
        let r = catch_unwind(AssertUnwindSafe(|| {
            if framed {
                let _ = read_frame(&mut input.as_slice(), MAX_FRAME);
            } else {
                // decode, and on success assert the codec is canonical:
                // re-encoding must reproduce the exact payload bytes
                if let Ok(msg) = Msg::decode(&input) {
                    let re = msg.encode();
                    assert_eq!(re, input, "decode/encode round trip not canonical");
                }
            }
        }));
        if let Err(e) = r {
            crashes.push(Crash {
                input: if framed {
                    input
                } else {
                    // corpus replay routes `proto-` entries through the
                    // framed reader; wrap the payload so it replays as-is
                    frame(&input)
                },
                context: format!("iter {i} mode {mode}: {}", panic_message(&*e)),
            });
        }
    }
    FuzzReport { target: "proto".into(), iters, crashes }
}

/// Wrap a payload in a valid `[u32 LE length]` frame.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut wire = Vec::with_capacity(payload.len() + 4);
    wire.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    wire.extend_from_slice(payload);
    wire
}

// --- persist target --------------------------------------------------------

/// Fit the one tiny estimator all persist iterations mutate. Small on
/// purpose: the snapshot stays a few tens of KiB, so 100k checksum
/// recomputations stay cheap.
fn base_snapshot() -> Vec<u8> {
    let table = Dataset::Twi.generate(400, 9);
    let cfg = IamConfig {
        components: 3,
        hidden: vec![16, 16],
        embed_dim: 4,
        epochs: 1,
        samples: 48,
        seed: 21,
        ..IamConfig::default()
    };
    let est = IamEstimator::fit(&table, cfg);
    let mut bytes = Vec::new();
    est.save_framed(&mut bytes).expect("vec write cannot fail");
    bytes
}

/// Rewrite the frame's checksum to match its (possibly mutated) payload,
/// and its length field to match the payload it actually carries — the
/// structure-aware step that carries mutations *past* the envelope
/// verification into the inner `IAM2` parser.
fn fix_envelope(frame: &mut [u8]) {
    // layout: IAMF(4) · len u64(8) · payload · fnv1a u64(8)
    if frame.len() < 20 {
        return;
    }
    let payload_len = frame.len() - 20;
    frame[4..12].copy_from_slice(&(payload_len as u64).to_le_bytes());
    let sum = persist::fnv1a(&frame[12..12 + payload_len]);
    let tail = frame.len() - 8;
    frame[tail..].copy_from_slice(&sum.to_le_bytes());
}

fn fuzz_persist(seed: u64, iters: u64) -> FuzzReport {
    let base = base_snapshot();
    let mut rng = SplitMix64::new(seed);
    let mut crashes = Vec::new();
    for i in 0..iters {
        let mut input = base.clone();
        let mode = rng.below(3);
        match mode {
            // blind transport corruption: the checksum gate should catch
            // most of these; none may panic
            0 => mutate(&mut rng, &mut input),
            // structure-aware: corrupt the payload, then *repair* the
            // envelope so the inner parser sees the hostile bytes
            1 => {
                mutate(&mut rng, &mut input);
                fix_envelope(&mut input);
            }
            // hostile envelope around a truncated/garbled tail
            _ => {
                let keep = 4 + rng.below((input.len() - 4) as u64) as usize;
                input.truncate(keep);
                if rng.below(2) == 0 {
                    let extra_len = rng.below(32) as usize;
                    let extra = rng.bytes(extra_len);
                    input.extend_from_slice(&extra);
                }
            }
        }
        let r = catch_unwind(AssertUnwindSafe(|| {
            if let Ok(est) = IamEstimator::load_framed(&mut input.as_slice()) {
                // a parse that survives hostile bytes must also *estimate*
                // without tripping an invariant; bound the cost so a
                // mutated sample budget cannot stall the run
                if rng.below(16) == 0 && est.config().samples <= 8192 {
                    let ncols = est.schema.handlers.len();
                    let sel = est.estimate(&RangeQuery::unconstrained(ncols));
                    assert!(
                        (0.0..=1.0).contains(&sel),
                        "selectivity {sel} outside [0,1] from loaded snapshot"
                    );
                }
            }
        }));
        if let Err(e) = r {
            crashes.push(Crash {
                input,
                context: format!("iter {i} mode {mode}: {}", panic_message(&*e)),
            });
        }
    }
    FuzzReport { target: "persist".into(), iters, crashes }
}

// --- line target -----------------------------------------------------------

fn fuzz_line(seed: u64, iters: u64) -> FuzzReport {
    const TEMPLATES: &[&str] = &[
        "0=3 1=2.5..9.0",
        "1=*..0.5 0=-2..*",
        "0=1..10 0=5..20 2=7",
        "3=-1e308..1e308 0=0.0",
        "0=* 1=..",
    ];
    let mut rng = SplitMix64::new(seed);
    let mut crashes = Vec::new();
    for i in 0..iters {
        let input: Vec<u8> = if rng.below(2) == 0 {
            let len = rng.below(120) as usize;
            rng.bytes(len)
        } else {
            let mut b = TEMPLATES[rng.below(TEMPLATES.len() as u64) as usize].as_bytes().to_vec();
            mutate(&mut rng, &mut b);
            b
        };
        let ncols = 1 + rng.below(6) as usize;
        let r = catch_unwind(AssertUnwindSafe(|| {
            let line = String::from_utf8_lossy(&input);
            if let Ok(rq) = parse_query(&line, ncols) {
                assert_eq!(rq.cols.len(), ncols, "parsed query arity mismatch");
            }
        }));
        if let Err(e) = r {
            crashes.push(Crash {
                input,
                context: format!("iter {i} ncols {ncols}: {}", panic_message(&*e)),
            });
        }
    }
    FuzzReport { target: "line".into(), iters, crashes }
}

// --- sql target ------------------------------------------------------------

fn fuzz_sql(seed: u64, iters: u64) -> FuzzReport {
    const TEMPLATES: &[&str] = &[
        "SELECT COUNT(*) FROM twi WHERE c0 = 1 AND c1 BETWEEN 2.5 AND 9",
        "SELECT SUM(c1) FROM twi WHERE c0 >= 0 AND c1 < 1e300",
        "SELECT AVG(c2) FROM t WHERE c2 BETWEEN -1.5 AND 4.25;",
        "EXPLAIN SELECT COUNT(*) FROM a JOIN b ON a.c0 = b.c0 JOIN c ON b.c1 = c.c1 \
         WHERE a.c0 <= 1 AND b.c1 > 0",
        "select count ( * ) from x where c0 between .5 and 1e-300",
        "SELECT COUNT(*) FROM t",
    ];
    let mut rng = SplitMix64::new(seed);
    let mut crashes = Vec::new();
    for i in 0..iters {
        let input: Vec<u8> = if rng.below(3) == 0 {
            let len = rng.below(160) as usize;
            rng.bytes(len)
        } else {
            let mut b = TEMPLATES[rng.below(TEMPLATES.len() as u64) as usize].as_bytes().to_vec();
            mutate(&mut rng, &mut b);
            b
        };
        let r = catch_unwind(AssertUnwindSafe(|| {
            let text = String::from_utf8_lossy(&input);
            if let Ok(stmt) = iam_sql::parse(&text) {
                // whatever survives the parser must round-trip through its
                // canonical rendering — this is what the coordinator
                // forwards to workers, so non-re-parseable output would be
                // a cluster-visible bug, not a cosmetic one
                let rendered = stmt.to_string();
                match iam_sql::parse(&rendered) {
                    Ok(back) => assert_eq!(
                        back.to_string(),
                        rendered,
                        "display is not a fixpoint for {text:?}"
                    ),
                    Err(e) => panic!("canonical text {rendered:?} failed to re-parse: {e}"),
                }
            }
        }));
        if let Err(e) = r {
            crashes.push(Crash { input, context: format!("iter {i}: {}", panic_message(&*e)) });
        }
    }
    FuzzReport { target: "sql".into(), iters, crashes }
}

// --- driver ----------------------------------------------------------------

/// Run one or all targets for `iters` seeded iterations each. Crashing
/// inputs are written to `corpus_dir` (when given) as
/// `<target>-crash-<k>` files, ready for the replay test to pick up.
pub fn run(
    target: &str,
    iters: u64,
    seed: u64,
    corpus_dir: Option<&Path>,
) -> std::io::Result<Vec<FuzzReport>> {
    let targets: Vec<&str> = match target {
        "all" => vec!["proto", "persist", "line", "sql"],
        t => vec![t],
    };
    // fuzzing *expects* panics; keep half a million backtraces off stderr
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut reports = Vec::new();
    for t in targets {
        let rep = match t {
            "proto" => fuzz_proto(seed, iters),
            "persist" => fuzz_persist(seed, iters),
            "line" => fuzz_line(seed, iters),
            "sql" => fuzz_sql(seed, iters),
            other => {
                std::panic::set_hook(prev_hook);
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("unknown fuzz target {other:?} (proto|persist|line|sql|all)"),
                ));
            }
        };
        reports.push(rep);
    }
    std::panic::set_hook(prev_hook);
    if let Some(dir) = corpus_dir {
        for rep in &reports {
            for (k, crash) in rep.crashes.iter().enumerate() {
                std::fs::create_dir_all(dir)?;
                let path = dir.join(format!("{}-crash-{k}", rep.target));
                std::fs::write(&path, &crash.input)?;
            }
        }
    }
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..5).map(|_| r.next_u64()).collect()
        };
        let mut r = SplitMix64::new(42);
        let b: Vec<u64> = (0..5).map(|_| r.next_u64()).collect();
        assert_eq!(a, b);
        assert_ne!(a[0], a[1]);
    }

    #[test]
    fn envelope_fixup_reaches_inner_parser() {
        // corrupt a payload byte, repair the envelope: load must get past
        // the checksum (i.e. fail with a *format* error or succeed, never
        // a checksum error)
        let mut snap = base_snapshot();
        let mid = 12 + (snap.len() - 20) / 2;
        snap[mid] ^= 0xFF;
        fix_envelope(&mut snap);
        if let Err(e) = IamEstimator::load_framed(&mut snap.as_slice()) {
            assert!(
                !e.to_string().contains("checksum"),
                "fixed-up envelope still failed its checksum: {e}"
            );
        }
    }

    #[test]
    fn smoke_each_target_briefly() {
        for rep in run("all", 300, 7, None).unwrap() {
            assert_eq!(rep.iters, 300);
            assert!(rep.crashes.is_empty(), "{}: {:?}", rep.target, rep.crashes);
        }
    }
}
