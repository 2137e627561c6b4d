//! The per-layer ladder of the traced run.
//!
//! Each probe times one public call of one layer, from here, on the same
//! model and the same queries as the timed phase, with the result cache
//! off. Rungs that wrap one another (`core.infer` ⊂ `serve.client` ⊂
//! `serve.net`; `serve.client.many64` ⊂ `dist.batch64`) are differenced
//! into the `*.overhead_*` metrics, which is where the unexplained gaps
//! between layers show. Every probe is host-adjusted like the end-to-end
//! metrics (see [`crate::host`]): rungs measured seconds apart on a host
//! whose speed drifts by a third could not be subtracted otherwise. The
//! whole ladder takes about ten seconds.

use crate::host::{self, Host};
use crate::report::Metrics;
use crate::setup::{self, Setup};
use crate::stats;
use crate::trace::Recorder;
use crate::workloads::{cluster_queries, serve_config, Cluster, LineConn};
use iam_core::IamEstimator;
use iam_data::exec::exact_selectivity_ranges;
use iam_data::synth::Dataset;
use iam_data::{Column, RangeQuery};
use iam_gmm::{fit_em, fit_vbgm, CdfPrefixTable, GmmSgdTrainer, SgdConfig, VbgmConfig};
use iam_nn::{InferScratch, MadeConfig, MadeNet, Parameters};
use iam_serve::{
    parse_query, render_query, MetricsSnapshot, QueryCache, ServeConfig, Service, TcpFrontend,
};
use std::hint::black_box;
use std::time::Instant;

/// How much of a probe's wall time is computing.
#[derive(Clone, Copy)]
enum Busy {
    /// All of it: the probe never waits (and is too short for the 10 ms
    /// ticks of process CPU time to say anything).
    Cpu,
    /// Whatever share `/proc/self/stat` reports for the probe's window:
    /// for rungs that wait on timers, sockets or other threads.
    Measured,
}

/// Times probes on the reference clock.
struct Timer<'a> {
    host: &'a mut Host,
}

impl Timer<'_> {
    /// Mean nanoseconds per call of a CPU-bound `f`, median over the
    /// faster half of `rounds` rounds of `calls` calls (`f` gets the call's
    /// index in its round).
    fn per_call_ns(&mut self, rounds: usize, calls: usize, mut f: impl FnMut(usize)) -> f64 {
        let open = self.host.open();
        self.host.spin();
        let times: Vec<f64> = (0..rounds)
            .map(|_| {
                let start = Instant::now();
                for i in 0..calls {
                    f(i);
                }
                let ns = start.elapsed().as_secs_f64() * 1e9 / calls as f64;
                self.host.keep_share(&open);
                ns
            })
            .collect();
        let window = self.host.close(open);
        let speed = self.host.speed(window.from_s, window.to_s).expect("spun above");
        stats::faster_half_median(&times, false).expect("at least one round") * speed
    }

    /// Milliseconds one CPU-bound call of `f` takes.
    fn once_ms<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let mut out = None;
        let mut f = Some(f);
        let ns = self.per_call_ns(1, 1, |_| out = Some(f.take().expect("one call")()));
        (out.expect("called once"), ns / 1e6)
    }

    /// Median microseconds of one call of `f` over `calls` calls, each
    /// timed on its own — the statistic of the end-to-end `latency_p50_ms`,
    /// so a rung and the workload it explains can be compared directly.
    fn op_median_us<E>(
        &mut self,
        busy: Busy,
        calls: usize,
        mut f: impl FnMut(usize) -> Result<(), E>,
    ) -> Result<f64, E> {
        let open = self.host.open();
        let mut times = Vec::with_capacity(calls);
        for i in 0..calls {
            let start = Instant::now();
            f(i)?;
            times.push(start.elapsed().as_secs_f64() * 1e6);
            self.host.keep_share(&open);
        }
        let window = self.host.close(open);
        let speed = self.host.speed(window.from_s, window.to_s).expect("spun above");
        let busy = match busy {
            Busy::Cpu => 1.0,
            Busy::Measured => window.busy(),
        };
        Ok(stats::median(&times).expect("at least one call") * host::adjustment(busy, speed))
    }
}

/// `SELECT COUNT(*)` text equivalent to `rq` (closed intervals only, which
/// is all the workload generator produces).
fn render_sql(rq: &RangeQuery) -> String {
    let mut conds = Vec::new();
    for (col, iv) in rq.cols.iter().enumerate() {
        let Some(iv) = iv else { continue };
        if iv.lo == iv.hi {
            conds.push(format!("c{col} = {}", iv.lo));
            continue;
        }
        if iv.lo.is_finite() {
            conds.push(format!("c{col} >= {}", iv.lo));
        }
        if iv.hi.is_finite() {
            conds.push(format!("c{col} <= {}", iv.hi));
        }
    }
    let mut sql = String::from("SELECT COUNT(*) FROM t");
    if !conds.is_empty() {
        sql.push_str(" WHERE ");
        sql.push_str(&conds.join(" AND "));
    }
    sql
}

fn data_and_gmm(setup: &Setup, t: &mut Timer, m: &mut Metrics) {
    let rows = setup.table.nrows();
    m.set(
        "data.synth.generate_ms",
        t.per_call_ns(3, 1, |_| {
            black_box(Dataset::Wisdm.generate(rows, setup::DATA_SEED));
        }) / 1e6,
    );
    let n = setup.pool.len().min(64);
    m.set(
        "data.exec.exact_scan_us",
        t.per_call_ns(3, n, |i| {
            black_box(exact_selectivity_ranges(&setup.table, &setup.pool[i]));
        }) / 1e3,
    );

    // the first reduced column, fitted the way `IamSchema::build` fits it
    let values: &[f64] = setup
        .table
        .columns
        .iter()
        .find_map(|c| match c {
            Column::Continuous(c) => Some(c.values.as_slice()),
            Column::Categorical(_) => None,
        })
        .expect("WISDM has continuous columns");
    let k = setup.model.cfg.components;
    let (gmm, ms) = t.once_ms(|| fit_em(values, k, 40, 1e-7).gmm);
    m.set("gmm.em.fit_ms", ms);
    let vbgm = VbgmConfig { max_components: k, ..VbgmConfig::default() };
    m.set("gmm.vbgm.fit_ms", t.once_ms(|| black_box(fit_vbgm(values, &vbgm))).1);

    let mut grid = values.to_vec();
    grid.sort_unstable_by(f64::total_cmp);
    grid.dedup();
    m.set(
        "gmm.prefix.build_ms",
        t.per_call_ns(3, 1, |_| {
            black_box(CdfPrefixTable::build(&gmm, &grid));
        }) / 1e6,
    );
    let prefix = CdfPrefixTable::build(&gmm, &grid);
    m.set("gmm.prefix.bytes", prefix.size_bytes() as f64);

    let mut trainer = GmmSgdTrainer::from_init(&gmm, SgdConfig::default());
    let batch = &values[..values.len().min(256)];
    m.set(
        "gmm.sgd.step_us",
        t.per_call_ns(5, 20, |_| {
            black_box(trainer.step(batch));
        }) / 1e3,
    );

    // on-grid ranges, as query bounds drawn from the data are
    let bound = |i: usize| grid[i * 7919 % grid.len()];
    let ranges: Vec<(f64, f64)> = (0..1000)
        .map(|i| (bound(2 * i), bound(2 * i + 1)))
        .map(|(a, b)| (a.min(b), a.max(b)))
        .collect();
    m.set(
        "gmm.range_mass_exact_ns",
        t.per_call_ns(5, ranges.len(), |i| {
            black_box(gmm.range_mass_exact(ranges[i].0, ranges[i].1));
        }),
    );
    let mut out = Vec::new();
    m.set(
        "gmm.prefix.mass_into_ns",
        t.per_call_ns(5, ranges.len(), |i| {
            prefix.mass_into(ranges[i].0, ranges[i].1, &mut out);
            black_box(&out);
        }),
    );
}

fn nn(setup: &Setup, t: &mut Timer, m: &mut Metrics) {
    // a network of the estimator's shape (its own is private to core)
    let cfg = &setup.model.cfg;
    let domains = setup.model.schema.slot_domains.clone();
    let mut net = MadeNet::new(MadeConfig {
        domain_sizes: domains.clone(),
        hidden: cfg.hidden.clone(),
        embed_dim: cfg.embed_dim,
        residual: true,
        seed: cfg.seed,
    });
    m.set("nn.param_bytes", (net.num_params() * 4) as f64);
    m.set(
        "nn.fused_build_ms",
        t.per_call_ns(5, 1, |_| {
            black_box(net.build_fused_tables());
        }) / 1e6,
    );
    let tables = net.build_fused_tables();
    m.set("nn.fused_table_bytes", tables.size_bytes() as f64);

    const ROWS: usize = 256;
    let ncols = domains.len();
    let inputs: Vec<usize> =
        (0..ROWS * ncols).map(|i| (i / ncols * 31 + i % ncols * 7) % domains[i % ncols]).collect();
    let last = ncols - 1;
    let mut scratch = InferScratch::new();
    let mut logits = Vec::new();
    m.set(
        "nn.forward_fused_ns_per_row",
        t.per_call_ns(5, 8, |_| {
            net.forward_column_fused(&tables, &mut scratch, &inputs, ROWS, last, &mut logits);
            black_box(&logits);
        }) / ROWS as f64,
    );
    let width = domains[last];
    let mut probs = Vec::new();
    m.set(
        "nn.softmax_ns_per_row",
        t.per_call_ns(5, 8 * ROWS, |i| {
            net.row_softmax(&logits, i % ROWS, width, &mut probs);
            black_box(&probs);
        }),
    );
    m.set(
        "nn.train_batch_ms",
        t.per_call_ns(3, 2, |_| {
            black_box(net.train_batch(&inputs, &inputs, ROWS));
        }) / 1e6,
    );
}

/// Per-op medians of the kernel at batch 1, 64 and 256 (µs per query).
struct KernelRungs {
    b1_us: f64,
    b64_us_per_query: f64,
}

fn core(setup: &Setup, c1_ops: usize, t: &mut Timer, m: &mut Metrics) -> KernelRungs {
    let adjusted = |timings: &[setup::Timing]| -> Vec<f64> {
        timings.iter().map(|timing| timing.adjusted_s).collect()
    };
    m.set("core.build_s", stats::median(&adjusted(&setup.builds)).expect("fits were timed"));
    m.set(
        "core.train_epoch_s",
        stats::faster_half_median(&adjusted(&setup.epochs), false).expect("epochs were timed"),
    );
    let mut model = setup.model.clone();
    m.set("core.prepare_inference_ms", t.per_call_ns(3, 5, |_| model.prepare_inference()) / 1e6);

    let pool = &setup.pool;
    let mut infer = |ops: usize, chunk: usize| {
        let chunks = pool.len() / chunk;
        t.op_median_us(Busy::Cpu, ops, |i| {
            let at = i % chunks * chunk;
            black_box(setup.model.estimate_batch_shared(&pool[at..at + chunk], 1));
            Ok::<(), ()>(())
        })
        .expect("infallible")
    };
    let b1_us = infer(c1_ops, 1);
    let b64_us_per_query = infer(64, 64.min(pool.len())) / 64.min(pool.len()) as f64;
    let b256 = 256.min(pool.len());
    let b256_us_per_query = infer(24, b256) / b256 as f64;
    m.set("core.infer.b1_us", b1_us);
    m.set("core.infer.b64_us_per_query", b64_us_per_query);
    m.set("core.infer.b256_us_per_query", b256_us_per_query);
    // what batching buys: the first chunk's queries one call each against
    // the same queries in one call (sums, so that the heavy queries that
    // dominate a batch weigh the same on both sides)
    let singly_ns = b256 as f64
        * t.per_call_ns(3, b256, |i| {
            black_box(setup.model.estimate_batch_shared(&pool[i..i + 1], 1));
        });
    let batched_ns = t.per_call_ns(3, 2, |_| {
        black_box(setup.model.estimate_batch_shared(&pool[..b256], 1));
    });
    m.set("core.infer.batch_gain", singly_ns / batched_ns);

    let mut bytes = Vec::new();
    m.set(
        "core.persist.save_ms",
        t.per_call_ns(5, 1, |_| {
            bytes.clear();
            model.save_framed(&mut bytes).expect("writing a snapshot to memory cannot fail");
        }) / 1e6,
    );
    m.set(
        "core.persist.load_ms",
        t.per_call_ns(5, 1, |_| {
            black_box(IamEstimator::load_framed(&mut &setup.snapshot[..]).expect("own snapshot"));
        }) / 1e6,
    );
    KernelRungs { b1_us, b64_us_per_query }
}

/// The serve rungs; returns µs per query of `estimate_many` on 64-query
/// chunks and the ladder service's own metrics.
fn serve(
    setup: &Setup,
    c1_ops: usize,
    kernel: &KernelRungs,
    t: &mut Timer,
    m: &mut Metrics,
) -> Result<(f64, MetricsSnapshot), String> {
    let pool = &setup.pool;
    let ncols = setup.table.ncols();
    let service = Service::start(setup.model.clone(), "ladder", serve_config());
    let client = service.client();

    let client_c1 = t
        .op_median_us(Busy::Measured, c1_ops, |i| {
            client.estimate(&pool[i % pool.len()]).map(|_| ())
        })
        .map_err(|e| format!("serve.client.c1: {e}"))?;
    m.set("serve.client.c1_us", client_c1);
    m.set("serve.service.overhead_c1_us", client_c1 - kernel.b1_us);

    let frontend = TcpFrontend::spawn(client.clone(), "127.0.0.1:0").map_err(|e| e.to_string())?;
    let mut conn = LineConn::connect(frontend.addr).map_err(|e| e.to_string())?;
    let expected: Vec<String> = setup.reference.iter().map(|v| format!("{v:.6}")).collect();
    let net_c1 = t
        .op_median_us(Busy::Measured, c1_ops, |i| {
            let at = i % pool.len();
            conn.send(&render_query(&pool[at])).map_err(|e| e.to_string())?;
            let reply = conn.recv().map_err(|e| e.to_string())?;
            if reply == expected[at] {
                Ok(())
            } else {
                Err(format!("query {at}: got {reply:?}, reference is {:?}", expected[at]))
            }
        })
        .map_err(|e| format!("serve.net.c1: {e}"))?;
    m.set("serve.net.c1_us", net_c1);
    m.set("serve.net.overhead_us", net_c1 - client_c1);

    let sql_c1 = t
        .op_median_us(Busy::Measured, c1_ops, |i| {
            let at = i % pool.len();
            conn.send(&format!("SQL {}", render_sql(&pool[at]))).map_err(|e| e.to_string())?;
            let reply = conn.recv().map_err(|e| e.to_string())?;
            // `COUNT <count> SEL <sel> NROWS <n>`: SEL must be the plain reply
            if reply.split_whitespace().nth(3) == Some(expected[at].as_str()) {
                Ok(())
            } else {
                Err(format!("query {at}: got {reply:?}, reference SEL is {:?}", expected[at]))
            }
        })
        .map_err(|e| format!("serve.sql.count: {e}"))?;
    m.set("serve.sql.count_overhead_us", sql_c1 - net_c1);
    let _ = conn.send("QUIT");
    drop(conn);
    frontend.stop();

    let lines: Vec<String> = pool.iter().map(render_query).collect();
    m.set(
        "serve.net.render_query_ns",
        t.per_call_ns(5, pool.len(), |i| {
            black_box(render_query(&pool[i]));
        }),
    );
    m.set(
        "serve.net.parse_query_ns",
        t.per_call_ns(5, pool.len(), |i| {
            black_box(parse_query(&lines[i], ncols).expect("rendered queries parse"));
        }),
    );
    let sqls: Vec<String> = pool.iter().map(render_sql).collect();
    m.set(
        "sql.parse_lower_us",
        t.per_call_ns(5, pool.len(), |i| {
            let iam_sql::Statement::Select(sel) = iam_sql::parse(&sqls[i]).expect("own SQL") else {
                unreachable!("render_sql never renders EXPLAIN")
            };
            black_box(iam_sql::lower_single_table(&sel, ncols).expect("own SQL lowers"));
        }) / 1e3,
    );

    let chunk = 64.min(pool.len());
    let chunks = pool.len() / chunk;
    let many64 = t
        .op_median_us(Busy::Measured, 128, |i| {
            let at = i % chunks * chunk;
            client.estimate_many(&pool[at..at + chunk]).into_iter().try_for_each(|r| r.map(|_| ()))
        })
        .map_err(|e| format!("serve.client.many64: {e}"))?
        / chunk as f64;
    m.set("serve.client.many64_us_per_query", many64);
    m.set("serve.service.overhead_many64_us", many64 - kernel.b64_us_per_query);

    let model = setup.model.clone();
    m.set("serve.swap_model_ms", t.once_ms(|| service.swap_model(model, "ladder-2")).1);
    drop(client);
    let ladder_metrics = service.shutdown();

    // the cache on its own, then a second service with it switched on
    let defaults = ServeConfig::default();
    let cache = QueryCache::new(defaults.cache_capacity, defaults.cache_shards);
    let key = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for i in 0..defaults.cache_capacity / 2 {
        cache.insert(key(i), 1, 0.5);
    }
    m.set(
        "serve.cache.get_hit_ns",
        t.per_call_ns(5, defaults.cache_capacity / 2, |i| {
            black_box(cache.get(key(i), 1));
        }),
    );
    let mut next = defaults.cache_capacity;
    for i in 0..4 * defaults.cache_capacity {
        cache.insert(key(next + i), 1, 0.5); // fill every shard to its capacity
    }
    next += 4 * defaults.cache_capacity;
    m.set(
        "serve.cache.insert_evict_ns",
        t.per_call_ns(5, defaults.cache_capacity, |_| {
            next += 1;
            cache.insert(key(next), 1, 0.5);
        }),
    );
    let cached = Service::start(setup.model.clone(), "ladder-cached", defaults);
    let cached_client = cached.client();
    let hot = &pool[..pool.len().min(256)];
    cached_client
        .estimate_many(hot)
        .into_iter()
        .try_for_each(|r| r.map(|_| ()))
        .map_err(|e| format!("serve.client.cache_hit: {e}"))?;
    let hit = t
        .op_median_us(Busy::Cpu, 4 * hot.len(), |i| {
            cached_client.estimate(&hot[i % hot.len()]).map(|_| ())
        })
        .map_err(|e| format!("serve.client.cache_hit: {e}"))?;
    m.set("serve.client.cache_hit_us", hit);
    drop(cached_client);
    cached.shutdown();

    Ok((many64, ladder_metrics))
}

/// The dist rungs; returns how many queries got no, or a different, answer.
fn dist(
    setup: &mut Setup,
    many64_us_per_query: f64,
    t: &mut Timer,
    m: &mut Metrics,
) -> Result<u64, String> {
    let pool = &setup.pool;
    let chunk = 64.min(pool.len());
    let msg = iam_dist::Msg::EstimateBatch {
        table: "wisdm_a".to_string(),
        queries: pool[..chunk].to_vec(),
    };
    m.set(
        "dist.proto.encode_us",
        t.per_call_ns(5, 200, |_| {
            black_box(msg.encode());
        }) / 1e3,
    );
    let bytes = msg.encode();
    m.set(
        "dist.proto.decode_us",
        t.per_call_ns(5, 200, |_| {
            black_box(iam_dist::Msg::decode(&bytes).expect("own message decodes"));
        }) / 1e3,
    );

    let mut unrecorded = Recorder::new(Instant::now(), false);
    let ((cluster, raw_start_ms), start_ms) = t.once_ms(|| {
        let start = Instant::now();
        let cluster = Cluster::start(setup, &mut unrecorded);
        (cluster, start.elapsed().as_secs_f64() * 1e3)
    });
    // deploying is most of starting the cluster: the same host speed
    m.set("dist.deploy_ms", cluster.deploy_s * 1e3 * start_ms / raw_start_ms);
    match t.op_median_us(Busy::Measured, 16, |_| cluster.coord.ping(0)) {
        Ok(us) => m.set("dist.ping_us", us),
        Err(e) => {
            cluster.stop();
            return Err(format!("dist.ping: {e}"));
        }
    }

    let queries = cluster_queries(setup);
    let chunks = queries.len() / chunk;
    let mut failed = 0u64;
    let batch_us = t
        .op_median_us(Busy::Measured, 32, |i| {
            let at = i % chunks * chunk;
            let got = cluster.coord.estimate_batch(&queries[at..at + chunk]);
            for (j, r) in got.iter().enumerate() {
                let same = matches!(r, Ok(v) if v.to_bits() == setup.reference[at + j].to_bits());
                failed += u64::from(!same);
            }
            Ok::<(), ()>(())
        })
        .expect("infallible");
    cluster.stop();
    m.set("dist.batch64_ms", batch_us / 1e3);
    m.set("dist.overhead_ms", (batch_us - chunk as f64 * many64_us_per_query) / 1e3);
    Ok(failed)
}

fn obs(setup: &Setup, t: &mut Timer, m: &mut Metrics) {
    m.set(
        "obs.span.disabled_ns",
        t.per_call_ns(5, 100_000, |_| {
            black_box(iam_obs::span!("bench.probe"));
        }),
    );
    iam_obs::span::enable();
    m.set(
        "obs.span.enabled_ns",
        t.per_call_ns(5, 20_000, |_| {
            black_box(iam_obs::span!("bench.probe"));
        }),
    );
    iam_obs::span::disable();
    iam_obs::span::reset();

    // the saturated kernel with the program's own tracing on and off,
    // interleaved round by round so a disturbance hits both sides alike
    let chunk = 256.min(setup.pool.len());
    let chunks = setup.pool.len() / chunk;
    let mut round = || {
        t.per_call_ns(1, chunks, |c| {
            black_box(setup.model.estimate_batch_shared(&setup.pool[c * chunk..][..chunk], 1));
        })
    };
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for _ in 0..10 {
        off.push(round());
        iam_obs::span::enable();
        iam_obs::tracetree::enable();
        {
            let _ctx = iam_obs::tracetree::install(iam_obs::TraceCtx::root(1));
            on.push(round());
        }
        iam_obs::tracetree::disable();
        iam_obs::span::disable();
        iam_obs::tracetree::drain();
    }
    iam_obs::span::reset();
    let off = stats::faster_half_median(&off, false).expect("rounds were timed");
    let on = stats::faster_half_median(&on, false).expect("rounds were timed");
    m.set("obs.kernel_overhead_pct", 100.0 * (on / off - 1.0));
}

/// What the ladder learned beyond the metrics it set.
pub struct Ladder {
    /// `Service::metrics()` of the ladder's own cache-off service, after
    /// its c1 and 64-in-flight rungs.
    pub service: MetricsSnapshot,
    /// Queries the dist rungs got no, or a different, answer for.
    pub dist_failed: u64,
}

/// Run every probe and record its metric in `m`. `Err` describes the
/// first rung that returned an error or a wrong answer.
pub fn run(setup: &mut Setup, host: &mut Host, m: &mut Metrics) -> Result<Ladder, String> {
    let t = &mut Timer { host };
    // the c1 rungs of the ladder wait out the batcher's 2 ms linger per
    // op, so their op count is what the ladder's run time hangs on
    let c1_ops = setup.pool.len().min(160);
    data_and_gmm(setup, t, m);
    nn(setup, t, m);
    let kernel = core(setup, c1_ops, t, m);
    let (many64, service) = serve(setup, c1_ops, &kernel, t, m)?;
    let dist_failed = dist(setup, many64, t, m)?;
    obs(setup, t, m);
    Ok(Ladder { service, dist_failed })
}
