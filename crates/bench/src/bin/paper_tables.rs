//! `paper-tables`: the paper's evaluation (§6: Tables 2–12, Figures 4–7 and
//! the technical report's ablations) plus a per-query and per-phase probe of
//! IAM on WISDM, printed as markdown. The first line states the scale, then
//! each table is a `### <title>` heading and a fenced block, so stdout is
//! EXPERIMENTS.md's appendix as it stands.
//!
//! ```sh
//! cargo run --release -p iam-bench --bin paper-tables -- all
//! cargo run --release -p iam-bench --bin paper-tables -- table2 fig4
//! ```
//!
//! A run fits each model once. Per dataset, one `run_lineup` feeds Tables
//! 2–4, Figure 4 and Table 6; on the IMDB sample, one `run_join_lineup`
//! feeds Tables 5–8 and Figure 5. The sweeps (Tables 9–12, Figures 6–7),
//! the ablations, Table 8's `train_threads` sweep and the probe fit the
//! models only they use. Requested ids run in paper order, whatever order
//! they are given in. The scale is read from the `IAM_BENCH_*` variables
//! (see the `iam_bench` crate docs); progress goes to stderr.

use iam_bench::join_exp::{run_join_lineup, JoinExperiment, JoinLineup};
use iam_bench::{run_lineup, BenchScale, EstimatorRow, SingleTableExperiment};
use iam_core::{IamConfig, IamEstimator, ReducerKind};
use iam_data::metrics::fmt3;
use iam_data::synth::Dataset;
use iam_data::{q_error, ErrorSummary, RangeQuery, SelectivityEstimator, Table};
use iam_join::workload::JoinWorkloadGenerator;
use iam_opt::{
    execute, optimize, ExactCardEstimator, FlatCardEstimator, IndependenceCardEstimator,
    JoinCardEstimator,
};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Prints one table id's tables.
type Print = fn(&mut Run);

/// Every table id with the method that prints it, in paper order (the
/// order `all` runs them in).
const TABLES: [(&str, Print); 17] = [
    ("table2", |r| r.accuracy(Dataset::Wisdm)),
    ("table3", |r| r.accuracy(Dataset::Twi)),
    ("table4", |r| r.accuracy(Dataset::Higgs)),
    ("table5", Run::table5),
    ("fig4", Run::fig4),
    ("table6", Run::table6),
    ("table7", Run::table7),
    ("fig5", Run::fig5),
    ("fig6", Run::fig6),
    ("table8", Run::table8),
    ("table9", |r| r.reducers(Dataset::Wisdm)),
    ("table10", |r| r.reducers(Dataset::Twi)),
    ("table11", |r| r.reducers(Dataset::Higgs)),
    ("fig7", Run::fig7),
    ("table12", Run::table12),
    ("ablations", Run::ablations),
    ("probe", Run::probe),
];

/// Resolve command-line ids to indices into [`TABLES`]: `all` is every
/// id, and the result holds each id once, in paper order.
fn parse_ids(args: &[String]) -> Result<Vec<usize>, String> {
    let valid = || TABLES.iter().map(|t| t.0).collect::<Vec<_>>().join(" ");
    if args.is_empty() {
        return Err(format!("usage: paper-tables all | <id>...\nvalid ids: all {}", valid()));
    }
    let mut want = [false; TABLES.len()];
    for arg in args {
        if arg == "all" {
            want = [true; TABLES.len()];
        } else if let Some(i) = TABLES.iter().position(|t| t.0 == arg) {
            want[i] = true;
        } else {
            return Err(format!("unknown table id `{arg}`\nvalid ids: all {}", valid()));
        }
    }
    Ok((0..TABLES.len()).filter(|&i| want[i]).collect())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ids = parse_ids(&args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let mut run = Run { scale: BenchScale::from_env(), single: Default::default(), imdb: None };
    let s = &run.scale;
    println!(
        "`paper-tables {}` at IAM_BENCH_ROWS={} IAM_BENCH_QUERIES={} IAM_BENCH_TRAINQ={} \
         IAM_BENCH_EPOCHS={} IAM_BENCH_SAMPLES={} IAM_BENCH_TRAIN_THREADS={} IAM_BENCH_SEED={}, \
         available_parallelism={}",
        args.join(" "),
        s.rows,
        s.queries,
        s.train_queries,
        s.epochs,
        s.samples,
        s.train_threads,
        s.seed,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let started = Instant::now();
    for i in ids {
        let (id, print) = TABLES[i];
        eprintln!("[paper-tables] {id}");
        print(&mut run);
    }
    eprintln!("[paper-tables] done in {:.0} s", started.elapsed().as_secs_f64());
}

/// Print one table: `### title`, then `header` and `rows` in a fenced block.
fn emit(title: &str, header: &str, rows: impl IntoIterator<Item = String>) {
    println!("\n### {title}\n\n```text\n{header}");
    for row in rows {
        println!("{row}");
    }
    println!("```");
}

/// Header of a Tables-2–5-style error table.
fn error_header(first: &str) -> String {
    format!("{first:<12} {:>9} {:>9} {:>9} {:>9} {:>9}", "Mean", "Median", "95th", "99th", "Max")
}

/// Header naming the three single-table datasets and, if `imdb`, IMDB.
fn dataset_header(first: &str, width: usize, imdb: bool) -> String {
    let mut h = format!("{first:<width$}");
    for ds in Dataset::all() {
        write!(h, " {:>9}", ds.name()).unwrap();
    }
    if imdb {
        write!(h, " {:>9}", "IMDB").unwrap();
    }
    h
}

/// `name`'s row of a line-up.
fn row<'a>(rows: &'a [EstimatorRow], name: &str) -> &'a EstimatorRow {
    rows.iter().find(|r| r.name == name).expect("estimator is in the line-up")
}

/// What a run has prepared and fitted so far; each piece is built by the
/// first table that needs it.
struct Run {
    scale: BenchScale,
    /// Per dataset, indexed by `Dataset as usize` (paper order).
    single: [Option<Single>; 3],
    imdb: Option<Imdb>,
}

struct Single {
    exp: SingleTableExperiment,
    lineup: Option<Vec<EstimatorRow>>,
}

struct Imdb {
    exp: JoinExperiment,
    lineup: Option<JoinLineup>,
}

impl Run {
    fn single(&mut self, ds: Dataset) -> &mut Single {
        let scale = &self.scale;
        self.single[ds as usize].get_or_insert_with(|| {
            eprintln!("[paper-tables] preparing {} ({} rows)", ds.name(), scale.rows);
            Single { exp: SingleTableExperiment::prepare(ds, scale), lineup: None }
        })
    }

    fn exp(&mut self, ds: Dataset) -> &SingleTableExperiment {
        &self.single(ds).exp
    }

    /// The 12-estimator line-up on `ds`.
    fn lineup(&mut self, ds: Dataset) -> &[EstimatorRow] {
        let Single { exp, lineup } = self.single(ds);
        lineup.get_or_insert_with(|| {
            eprintln!("[paper-tables] fitting the {} line-up", ds.name());
            run_lineup(exp, true)
        })
    }

    fn imdb(&mut self) -> &mut Imdb {
        let scale = &self.scale;
        self.imdb.get_or_insert_with(|| {
            eprintln!("[paper-tables] preparing IMDB ({} FOJ sample rows)", scale.rows);
            Imdb { exp: JoinExperiment::prepare(scale), lineup: None }
        })
    }

    /// The join line-up on the IMDB sample, with its experiment.
    fn join_lineup(&mut self) -> (&JoinExperiment, &JoinLineup) {
        let Imdb { exp, lineup } = self.imdb();
        let lineup = lineup.get_or_insert_with(|| {
            eprintln!("[paper-tables] fitting the IMDB line-up");
            run_join_lineup(exp)
        });
        (exp, lineup)
    }

    /// Tables 2–4: error quantiles of the 12 estimators on one dataset.
    fn accuracy(&mut self, ds: Dataset) {
        let title = format!("Table {}: estimation errors on {}", 2 + ds as usize, ds.name());
        let rows = self.lineup(ds);
        emit(&title, &error_header("Estimator"), rows.iter().map(|r| r.errors.table_row(&r.name)));
    }

    /// Table 5: error quantiles on the IMDB join workload.
    fn table5(&mut self) {
        let rows = &self.join_lineup().1.rows;
        emit(
            "Table 5: estimation errors on IMDB (join queries)",
            &error_header("Estimator"),
            rows.iter().map(|r| r.errors.table_row(&r.name)),
        );
    }

    /// Figure 4: single-query inference time, from the Tables 2–4 fits.
    fn fig4(&mut self) {
        for ds in Dataset::all() {
            let rows = self.lineup(ds);
            emit(
                &format!("Figure 4: inference time on {}", ds.name()),
                &format!("{:<12} {:>12}", "Estimator", "ms/query"),
                rows.iter().map(|r| format!("{:<12} {:>12.2}", r.name, r.ms_per_query)),
            );
        }
    }

    /// Table 6: model sizes, from the Tables 2–5 fits.
    fn table6(&mut self) {
        let names = ["MSCN", "DeepDB", "Neurocard", "IAM"];
        let mut kb: Vec<Vec<f64>> = Dataset::all()
            .into_iter()
            .map(|ds| {
                let rows = self.lineup(ds);
                names.iter().map(|n| row(rows, n).size_bytes as f64 / 1024.0).collect()
            })
            .collect();
        let rows = &self.join_lineup().1.rows;
        kb.push(names.iter().map(|n| row(rows, n).size_bytes as f64 / 1024.0).collect());
        emit(
            "Table 6: model sizes (KB)",
            &dataset_header("Estimator", 12, true),
            names.iter().enumerate().map(|(i, name)| {
                let mut line = format!("{name:<12}");
                for col in &kb {
                    write!(line, " {:>9.1}", col[i]).unwrap();
                }
                line
            }),
        );
    }

    /// Table 7: ms per query at batch sizes 1 / 64 / 128 on IMDB, timing
    /// the Table 5 fits.
    fn table7(&mut self) {
        let seed = self.scale.seed;
        let (exp, l) = self.join_lineup();
        // 128 queries from the evaluation set's generator (its first
        // `IAM_BENCH_QUERIES` are the evaluation set); no truths needed
        let rqs: Vec<RangeQuery> = JoinWorkloadGenerator::new(&exp.star, seed ^ 0xE1)
            .gen_queries(128)
            .iter()
            .map(|q| exp.schema.rewrite(q))
            .collect();
        let ms_per_query = |batch: usize, answer: &dyn Fn(&[RangeQuery])| {
            let t0 = Instant::now();
            for chunk in rqs.chunks(batch) {
                answer(chunk);
            }
            t0.elapsed().as_secs_f64() * 1000.0 / rqs.len() as f64
        };
        let batches = [1, 64, 128];
        // MSCN featurises per query; batching only amortises dispatch
        let mscn = batches.map(|b| {
            ms_per_query(b, &|c| {
                for q in c {
                    black_box(l.mscn.estimate(q));
                }
            })
        });
        let ar = |est: &IamEstimator| {
            batches.map(|b| ms_per_query(b, &|c| drop(black_box(est.estimate_batch_shared(c, 1)))))
        };
        let (nc, iam) = (ar(&l.neurocard), ar(&l.iam));
        emit(
            "Table 7: batch inference on IMDB (ms/query)",
            &format!("{:<12} {:>9} {:>9} {:>9}", "Estimator", "1", "64", "128"),
            [
                format!("{:<12} {:>9.3} {:>9.3} {:>9.3}", "MSCN", mscn[0], mscn[1], mscn[2]),
                format!("{:<12} {:>9.2} {:>9.2} {:>9.2}", "Neurocard", nc[0], nc[1], nc[2]),
                format!("{:<12} {:>9.2} {:>9.2} {:>9.2}", "IAM", iam[0], iam[1], iam[2]),
            ],
        );
    }

    /// Figure 5: end-to-end execution on IMDB under each estimator's
    /// cardinalities (Selinger DP optimizer + hash-join executor), planning
    /// with the Table 5 fits.
    fn fig5(&mut self) {
        let (seed, nqueries) = (self.scale.seed, self.scale.queries.min(60));
        let (exp, l) = self.join_lineup();
        let arms: [(&str, Box<dyn JoinCardEstimator + '_>); 5] = [
            ("exact", Box::new(ExactCardEstimator::new(&exp.star))),
            ("Postgres", Box::new(IndependenceCardEstimator::new(&exp.star))),
            ("DeepDB", Box::new(FlatCardEstimator::new(&l.spn, &exp.schema))),
            ("Neurocard", Box::new(FlatCardEstimator::new(&l.neurocard, &exp.schema))),
            ("IAM", Box::new(FlatCardEstimator::new(&l.iam, &exp.schema))),
        ];
        let queries = JoinWorkloadGenerator::new(&exp.star, seed ^ 0x55).gen_queries(nqueries);
        let rows: Vec<String> = arms
            .iter()
            .map(|(name, est)| {
                let (mut work, mut exec_s, mut plan_s) = (0u64, 0.0f64, 0.0f64);
                for q in &queries {
                    let t0 = Instant::now();
                    let plan = optimize(q, est.as_ref());
                    plan_s += t0.elapsed().as_secs_f64();
                    let rep = execute(&exp.star, q, &plan);
                    work += rep.intermediate_tuples;
                    exec_s += rep.seconds;
                }
                format!("{name:<12} {exec_s:>14.3} {work:>14} {plan_s:>14.3}")
            })
            .collect();
        emit(
            "Figure 5: end-to-end execution on IMDB",
            &format!(
                "{:<12} {:>14} {:>14} {:>14}",
                "Estimator", "exec time (s)", "work (tuples)", "plan time (s)"
            ),
            rows,
        );
    }

    /// Figure 6: max q-error over (at most) the first 100 evaluation
    /// queries after each training epoch.
    fn fig6(&mut self) {
        let cfg = self.scale.iam_config();
        let epochs = self.scale.epochs.clamp(10, 15);
        let curves: Vec<Vec<f64>> = Dataset::all()
            .into_iter()
            .map(|ds| {
                let exp = self.exp(ds);
                let eval = &exp.eval[..exp.eval.len().min(100)];
                let mut est = IamEstimator::build(&exp.table, cfg.clone());
                (0..epochs)
                    .map(|_| {
                        est.train_epochs(&exp.table, 1);
                        eval.iter()
                            .map(|(_, rq, truth)| {
                                q_error(*truth, est.estimate(rq), exp.table.nrows())
                            })
                            .fold(0.0f64, f64::max)
                    })
                    .collect()
            })
            .collect();
        emit(
            "Figure 6: max q-error vs training epoch",
            &dataset_header("epoch", 8, false),
            (0..epochs).map(|e| {
                let mut line = format!("{:<8}", e + 1);
                for c in &curves {
                    write!(line, " {:>9.1}", c[e]).unwrap();
                }
                line
            }),
        );
    }

    /// Table 8: training time on IMDB (the Table 5 fits), then IAM's
    /// training throughput against `train_threads`.
    fn table8(&mut self) {
        let cfg = self.scale.iam_config();
        let sweep_epochs = self.scale.epochs.clamp(1, 3);
        let (exp, l) = self.join_lineup();
        emit(
            "Table 8: training time on IMDB (s)",
            &format!("{:<12} {:>9}", "Estimator", "seconds"),
            ["MSCN", "DeepDB", "Neurocard", "IAM"]
                .map(|n| format!("{n:<12} {:>9.1}", row(&l.rows, n).train_seconds)),
        );
        // a short retrain per thread count gives a stable rows/s, and the
        // final-loss column shows that the count never changes the weights
        eprintln!("[paper-tables] train_threads sweep ({sweep_epochs} epochs per config)");
        let sweep = thread_sweep(&exp.flat, &cfg, sweep_epochs);
        emit(
            "IAM training throughput vs train_threads",
            &format!(
                "{:<8} {:>12} {:>10} {:>14}",
                "threads", "epoch (ms)", "rows/s", "final ar loss"
            ),
            sweep,
        );
    }

    /// Tables 9–11: GMM against the histogram, spline and UMM reducers.
    ///
    /// The paper sweeps 30/100/1000 components on million-row data; at
    /// bench scale the bucket count a given within-bucket error needs
    /// shrinks proportionally, so this sweeps 30/100/300 — the same "needs
    /// an order of magnitude more buckets than GMM" story.
    fn reducers(&mut self, ds: Dataset) {
        // many fits: cap epochs and rows to keep the sweep tractable
        let scale = BenchScale {
            epochs: self.scale.epochs.min(6),
            rows: self.scale.rows.min(12_000),
            ..self.scale.clone()
        };
        let own;
        let exp = if scale.rows == self.scale.rows {
            self.exp(ds)
        } else {
            own = SingleTableExperiment::prepare(ds, &scale);
            &own
        };
        let sweeps: [(ReducerKind, &[usize]); 4] = [
            (ReducerKind::Gmm, &[30]),
            (ReducerKind::Hist, &[30, 100, 300]),
            (ReducerKind::Spline, &[30, 100, 300]),
            (ReducerKind::Umm, &[30, 100, 300]),
        ];
        let rows: Vec<String> = sweeps
            .iter()
            .flat_map(|&(kind, ks)| ks.iter().map(move |&k| (kind, k)))
            .map(|(reducer, components)| {
                let cfg = IamConfig { reducer, components, ..scale.iam_config() };
                let (errors, ms) = exp.evaluate(&IamEstimator::fit(&exp.table, cfg));
                let label = format!("{} ({components})", reducer.name());
                format!(
                    "{label:<14} {:>9} {:>9} {:>9} {:>11.2}",
                    fmt3(errors.median),
                    fmt3(errors.p95),
                    fmt3(errors.max),
                    ms
                )
            })
            .collect();
        emit(
            &format!("Table {}: domain reducers on {}", 9 + ds as usize, ds.name()),
            &format!(
                "{:<14} {:>9} {:>9} {:>9} {:>11}",
                "Method", "Median", "95th", "Max", "est (ms)"
            ),
            rows,
        );
    }

    /// Figure 7: 95th-percentile q-error against the number of GMM
    /// components.
    fn fig7(&mut self) {
        let base = IamConfig { epochs: self.scale.epochs.min(8), ..self.scale.iam_config() };
        let ks = [1usize, 5, 10, 30, 50];
        let p95: Vec<Vec<f64>> = Dataset::all()
            .into_iter()
            .map(|ds| {
                let exp = self.exp(ds);
                ks.iter()
                    .map(|&components| {
                        let cfg = IamConfig { components, ..base.clone() };
                        exp.evaluate(&IamEstimator::fit(&exp.table, cfg)).0.p95
                    })
                    .collect()
            })
            .collect();
        emit(
            "Figure 7: 95th-percentile q-error vs #components",
            &dataset_header("K", 6, false),
            ks.iter().enumerate().map(|(ki, k)| {
                let mut line = format!("{k:<6}");
                for col in &p95 {
                    write!(line, " {:>9.2}", col[ki]).unwrap();
                }
                line
            }),
        );
    }

    /// Table 12: IAM model size against the number of components (built,
    /// not trained: the size is architecture only).
    fn table12(&mut self) {
        let base = IamConfig { epochs: 0, ..self.scale.iam_config() };
        let ks = [1usize, 10, 30, 50, 70];
        let kb = |t: &Table| -> Vec<f64> {
            ks.iter()
                .map(|&components| {
                    let est = IamEstimator::build(t, IamConfig { components, ..base.clone() });
                    est.model_size_bytes() as f64 / 1024.0
                })
                .collect()
        };
        let mut cols: Vec<Vec<f64>> =
            Dataset::all().into_iter().map(|ds| kb(&self.exp(ds).table)).collect();
        cols.push(kb(&self.imdb().exp.flat));
        emit(
            "Table 12: IAM model size (KB) vs #components",
            &dataset_header("K", 6, true),
            ks.iter().enumerate().map(|(ki, k)| {
                let mut line = format!("{k:<6}");
                for col in &cols {
                    write!(line, " {:>9.1}", col[ki]).unwrap();
                }
                line
            }),
        );
    }

    /// The technical report's ablations: unbiased vs hard 0/1 range
    /// correction (§5.2), joint vs separate training and wildcard skipping
    /// (§4.3) on TWI, and natural vs reversed column order (§4.3) on WISDM.
    fn ablations(&mut self) {
        let base = IamConfig { epochs: self.scale.epochs.min(8), ..self.scale.iam_config() };
        let variant = |exp: &SingleTableExperiment, cfg: IamConfig, label: &str| {
            exp.evaluate(&IamEstimator::fit(&exp.table, cfg)).0.table_row(label)
        };
        let twi = self.exp(Dataset::Twi);
        let rows = [
            variant(twi, base.clone(), "IAM"),
            variant(twi, IamConfig { hard_range_weights: true, ..base.clone() }, "hard-corr"),
            variant(twi, IamConfig { joint_training: false, ..base.clone() }, "separate"),
            variant(twi, IamConfig { wildcard_skipping: false, ..base.clone() }, "no-wildcard"),
        ];
        emit("Ablations on TWI", &error_header("Variant"), rows);

        let wisdm = self.exp(Dataset::Wisdm);
        let natural = variant(wisdm, base.clone(), "natural");
        // reversed: permute the table's columns and the queries' column ids
        let rev_table =
            Table::new("wisdm_rev", wisdm.table.columns.iter().rev().cloned().collect())
                .expect("a permutation of a valid table");
        let ncols = rev_table.ncols();
        let est = IamEstimator::fit(&rev_table, base);
        let errors: Vec<f64> = wisdm
            .eval
            .iter()
            .map(|(_, rq, truth)| {
                let mut rev = RangeQuery::unconstrained(ncols);
                for (c, iv) in rq.cols.iter().enumerate() {
                    rev.cols[ncols - 1 - c] = *iv;
                }
                q_error(*truth, est.estimate(&rev), rev_table.nrows())
            })
            .collect();
        let reversed =
            ErrorSummary::from_errors(&errors).expect("nonempty eval set").table_row("reversed");
        emit("Column order on WISDM", &error_header("Order"), [natural, reversed]);
    }

    /// Diagnostics for IAM on WISDM: the ten worst evaluation queries, and
    /// the span phase report (reduction fit vs training vs inference) of
    /// this one fit and its estimates. Spans are on for nothing else, so no
    /// timing table is measured with them.
    fn probe(&mut self) {
        let cfg = self.scale.iam_config();
        let exp = self.exp(Dataset::Wisdm);
        iam_obs::span::reset();
        iam_obs::span::enable();
        let t0 = Instant::now();
        let iam = IamEstimator::fit(&exp.table, cfg);
        let fit_s = t0.elapsed().as_secs_f64();
        let mut worst: Vec<(f64, f64, f64, String)> = exp
            .eval
            .iter()
            .map(|(q, rq, truth)| {
                let est = iam.estimate(rq);
                let preds: Vec<String> = q
                    .predicates
                    .iter()
                    .map(|p| format!("c{}{:?}{:.1}", p.col, p.op, p.value))
                    .collect();
                (q_error(*truth, est, exp.table.nrows()), *truth, est, preds.join("&"))
            })
            .collect();
        iam_obs::span::disable();
        worst.sort_by(|a, b| b.0.total_cmp(&a.0));
        let mean = worst.iter().map(|w| w.0).sum::<f64>() / worst.len() as f64;
        emit(
            "Probe: the ten worst WISDM queries (IAM)",
            &format!(
                "mean {mean:.2}  median {:.2}  max {:.1}  (fit {fit_s:.1} s)",
                worst[worst.len() / 2].0,
                worst[0].0
            ),
            worst.iter().take(10).map(|(e, truth, est, preds)| {
                format!("qerr {e:8.1}  truth {truth:.6} est {est:.6}  {preds}")
            }),
        );
        emit(
            "Probe: IAM phase breakdown (span self/total µs)",
            &format!("{:>10} {:>10} {:>6}  path", "self µs", "total µs", "calls"),
            iam_obs::span::report().into_iter().map(|(path, agg)| {
                format!("{:>10} {:>10} {:>6}  {path}", agg.self_us, agg.total_us, agg.count)
            }),
        );
    }
}

/// Table 8's `train_threads` list: `IAM_BENCH_THREAD_SWEEP` (e.g.
/// `1,2,4,8`), default 1, 2, 4.
fn sweep_threads() -> Vec<usize> {
    std::env::var("IAM_BENCH_THREAD_SWEEP")
        .ok()
        .map(|v| v.split(',').filter_map(|t| t.trim().parse().ok()).collect())
        .filter(|v: &Vec<usize>| !v.is_empty())
        .unwrap_or_else(|| vec![1, 2, 4])
}

/// Retrain IAM for `epochs` at each thread count; one row per count.
fn thread_sweep(table: &Table, cfg: &IamConfig, epochs: usize) -> Vec<String> {
    // one unmeasured fit first: the very first training run pays page
    // faults / frequency ramp-up and would bias whichever thread count
    // happens to go first
    let _ = IamEstimator::fit(table, IamConfig { epochs: 1, ..cfg.clone() });
    sweep_threads()
        .into_iter()
        .map(|threads| {
            let cfg = IamConfig { epochs, train_threads: threads, ..cfg.clone() };
            let est = IamEstimator::fit(table, cfg);
            let secs: f64 = est.stats.iter().map(|s| s.seconds).sum();
            let rows: usize = est.stats.iter().map(|s| s.rows).sum();
            format!(
                "{:<8} {:>12.1} {:>10.0} {:>14.6}",
                threads,
                secs / epochs.max(1) as f64 * 1000.0,
                rows as f64 / secs.max(1e-9),
                est.stats.last().map_or(f64::NAN, |s| s.ar_loss)
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(args: &[&str]) -> Result<Vec<&'static str>, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        Ok(parse_ids(&args)?.into_iter().map(|i| TABLES[i].0).collect())
    }

    #[test]
    fn all_expands_to_every_table_once_in_paper_order() {
        let paper_order = [
            "table2",
            "table3",
            "table4",
            "table5",
            "fig4",
            "table6",
            "table7",
            "fig5",
            "fig6",
            "table8",
            "table9",
            "table10",
            "table11",
            "fig7",
            "table12",
            "ablations",
            "probe",
        ];
        assert_eq!(names(&["all"]).unwrap(), paper_order);
        assert_eq!(names(&["probe", "all", "table2"]).unwrap(), paper_order);
    }

    #[test]
    fn requested_ids_run_once_in_paper_order() {
        assert_eq!(names(&["fig5", "table2", "fig5"]).unwrap(), ["table2", "fig5"]);
    }

    #[test]
    fn unknown_id_is_an_error_listing_the_valid_ids() {
        let err = names(&["table2", "table13"]).unwrap_err();
        assert!(err.contains("`table13`"), "{err}");
        for id in std::iter::once("all").chain(TABLES.iter().map(|t| t.0)) {
            assert!(err.split_whitespace().any(|w| w == id), "{id} missing from: {err}");
        }
        assert!(names(&[]).is_err());
    }
}
