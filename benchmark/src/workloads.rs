//! The four workloads: one trained model reached through four paths.
//!
//! Every path answers queries of the same seeded pool and must return the
//! reference answers of [`Setup::reference`](crate::setup::Setup) bit for
//! bit (as `{:.6}` text over the line protocol), in the untimed warm-up
//! pass and in every timed op. The result cache is off everywhere, so an
//! op always reaches the kernel.

use crate::setup::Setup;
use crate::trace::Recorder;
use iam_dist::{ClusterQuery, Coordinator, DistConfig, WorkerConfig, WorkerHandle};
use iam_serve::{render_query, Client, MetricsSnapshot, ServeConfig, Service, TcpFrontend};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// `(name, why)` of every workload, in the order the self-check runs them.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "kernel_batch",
        "estimate_batch_shared on 256-query chunks: nn, gmm and core::infer do all the work, serve, sql and dist none",
    ),
    (
        "serve_c1",
        "one TCP connection, one query line at a time: serve::net and the batcher's 2 ms linger dominate, the kernel is 3 %",
    ),
    (
        "serve_burst",
        "in-process estimate_many on 64-query chunks: the batcher coalesces without lingering, time splits between batching and kernel",
    ),
    (
        "cluster_scatter",
        "3 loopback workers, 2 replicas, 64-query batches over two tables: dist framing and RPC dominate, inference is a few percent",
    ),
];

/// The serving configuration of every service the benchmark starts:
/// defaults, with the result cache off.
pub fn serve_config() -> ServeConfig {
    ServeConfig { cache_capacity: 0, ..ServeConfig::default() }
}

/// How long a benchmark-side socket read may block before the op counts
/// as failed; far above any healthy reply (≈ 2 ms), far below the
/// driver's per-run limit.
const CLIENT_READ_TIMEOUT: Duration = Duration::from_secs(10);

/// A line-protocol client connection: write one line, read one line.
pub struct LineConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    reply: String,
}

impl LineConn {
    /// Connect to a [`TcpFrontend`].
    pub fn connect(addr: SocketAddr) -> std::io::Result<LineConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(CLIENT_READ_TIMEOUT))?;
        Ok(LineConn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            reply: String::new(),
        })
    }

    /// Send `line` (newline added here).
    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.writer.write_all(&buf)
    }

    /// Read one reply line, without its newline.
    pub fn recv(&mut self) -> std::io::Result<&str> {
        self.reply.clear();
        if self.reader.read_line(&mut self.reply)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(self.reply.trim_end())
    }
}

/// Three in-process workers on loopback TCP (the worker binary's code
/// path) behind a coordinator with 2 replicas, serving the one model
/// under two table names.
pub struct Cluster {
    workers: Vec<WorkerHandle>,
    /// The coordinator.
    pub coord: Coordinator,
    /// Wall time of deploying the model to every replica of both tables.
    pub deploy_s: f64,
}

/// The two names the model is deployed under.
pub const CLUSTER_TABLES: [&str; 2] = ["wisdm_a", "wisdm_b"];

impl Cluster {
    /// Spawn the workers and deploy `setup`'s model under both names.
    pub fn start(setup: &mut Setup, rec: &mut Recorder) -> Cluster {
        let workers: Vec<WorkerHandle> = rec.span("dist.spawn_workers", |_| {
            (0..3)
                .map(|_| {
                    let cfg = WorkerConfig { serve: serve_config(), ..WorkerConfig::default() };
                    WorkerHandle::spawn("127.0.0.1:0", cfg).expect("bind a loopback worker")
                })
                .collect()
        });
        let addrs = workers.iter().map(|w| w.addr).collect();
        let coord = Coordinator::new(addrs, &CLUSTER_TABLES, DistConfig::default());
        let deploy_start = Instant::now();
        rec.span("dist.deploy_model", |_| {
            for table in CLUSTER_TABLES {
                let outcomes =
                    coord.deploy_model(table, &mut setup.model, "bench").expect("serialise model");
                for outcome in outcomes {
                    outcome.result.expect("ship the snapshot to a replica");
                }
            }
        });
        let deploy_s = deploy_start.elapsed().as_secs_f64();
        Cluster { workers, coord, deploy_s }
    }

    /// Shut the workers down and join their threads.
    pub fn stop(self) {
        self.coord.shutdown_cluster();
        for w in self.workers {
            w.stop();
        }
    }
}

/// The pool as cluster queries, alternating between the two tables so
/// every contiguous chunk scatters to both groups.
pub fn cluster_queries(setup: &Setup) -> Vec<ClusterQuery> {
    setup
        .pool
        .iter()
        .enumerate()
        .map(|(i, q)| ClusterQuery { table: CLUSTER_TABLES[i % 2].to_string(), query: q.clone() })
        .collect()
}

/// Compare the answers to the pool's queries `at..` with the reference,
/// bit for bit. `Err` describes the first error or differing answer.
fn check_answers<E: std::fmt::Display>(
    got: impl ExactSizeIterator<Item = Result<f64, E>>,
    want: &[f64],
    at: usize,
) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} answers for {} queries", got.len(), want.len()));
    }
    got.zip(want).enumerate().try_for_each(|(i, (got, want))| match got {
        Ok(got) if got.to_bits() == want.to_bits() => Ok(()),
        Ok(got) => Err(format!("query {}: got {got:?}, reference is {want:?}", at + i)),
        Err(e) => Err(format!("query {}: {e}", at + i)),
    })
}

/// One workload's path to the model, set up and ready for ops.
pub enum Path {
    /// `IamEstimator::estimate_batch_shared` directly.
    KernelBatch,
    /// `Service` behind `TcpFrontend`, one connection, one line per op.
    ServeC1 {
        /// The service.
        service: Service,
        /// Its TCP front-end.
        frontend: TcpFrontend,
        /// The benchmark's connection to it.
        conn: LineConn,
        /// The reference answers as the line protocol prints them.
        expected: Vec<String>,
    },
    /// `Service` reached through the in-process `Client::estimate_many`.
    ServeBurst {
        /// The service.
        service: Service,
        /// The in-process client.
        client: Client,
    },
    /// `Coordinator::estimate_batch` over a [`Cluster`].
    ClusterScatter {
        /// The cluster.
        cluster: Cluster,
        /// The pool as cluster queries.
        queries: Vec<ClusterQuery>,
    },
}

impl Path {
    /// Set up the path of workload `name`; `None` for an unknown name.
    pub fn start(name: &str, setup: &mut Setup, rec: &mut Recorder) -> Option<Path> {
        Some(match name {
            "kernel_batch" => Path::KernelBatch,
            "serve_c1" => {
                let (service, frontend) = rec.span("serve.start", |_| {
                    let service = Service::start(setup.model.clone(), "bench", serve_config());
                    let frontend = TcpFrontend::spawn(service.client(), "127.0.0.1:0")
                        .expect("bind the loopback front-end");
                    (service, frontend)
                });
                let conn = LineConn::connect(frontend.addr).expect("connect to the front-end");
                let expected = setup.reference.iter().map(|v| format!("{v:.6}")).collect();
                Path::ServeC1 { service, frontend, conn, expected }
            }
            "serve_burst" => {
                let service = rec.span("serve.start", |_| {
                    Service::start(setup.model.clone(), "bench", serve_config())
                });
                let client = service.client();
                Path::ServeBurst { service, client }
            }
            "cluster_scatter" => {
                let cluster = Cluster::start(setup, rec);
                Path::ClusterScatter { cluster, queries: cluster_queries(setup) }
            }
            _ => return None,
        })
    }

    /// Queries per op.
    pub fn chunk(&self) -> usize {
        match self {
            Path::KernelBatch => 256,
            Path::ServeC1 { .. } => 1,
            Path::ServeBurst { .. } | Path::ClusterScatter { .. } => 64,
        }
    }

    /// One op: send the pool's queries `at..at + chunk` down the path and
    /// compare every answer with the reference. `Err` describes the first
    /// error, timeout or differing answer.
    pub fn op(&mut self, setup: &Setup, at: usize, rec: &mut Recorder) -> Result<(), String> {
        let range = at..at + self.chunk();
        let want = &setup.reference[range.clone()];
        match self {
            Path::KernelBatch => {
                let chunk = &setup.pool[range];
                let got = rec.span("core.estimate_batch_shared", |_| {
                    setup.model.estimate_batch_shared(chunk, 1)
                });
                check_answers(got.into_iter().map(Ok::<f64, std::convert::Infallible>), want, at)
            }
            Path::ServeC1 { conn, expected, .. } => {
                let line = rec.span("serve.net.render", |_| render_query(&setup.pool[at]));
                rec.span("serve.net.write", |_| conn.send(&line)).map_err(|e| e.to_string())?;
                let reply =
                    rec.span("serve.net.read_reply", |_| conn.recv()).map_err(|e| e.to_string())?;
                if reply == expected[at] {
                    Ok(())
                } else {
                    Err(format!("query {at}: got {reply:?}, reference is {:?}", expected[at]))
                }
            }
            Path::ServeBurst { client, .. } => {
                let chunk = &setup.pool[range];
                let got = rec.span("serve.client.estimate_many", |_| client.estimate_many(chunk));
                check_answers(got.into_iter(), want, at)
            }
            Path::ClusterScatter { cluster, queries } => {
                let chunk = &queries[range];
                let got = rec.span("dist.coordinator.estimate_batch", |_| {
                    cluster.coord.estimate_batch(chunk)
                });
                check_answers(got.into_iter(), want, at)
            }
        }
    }

    /// `Service::metrics()` of the path's own service, when it has one.
    pub fn service_metrics(&self) -> Option<MetricsSnapshot> {
        match self {
            Path::ServeC1 { service, .. } | Path::ServeBurst { service, .. } => {
                Some(service.metrics())
            }
            Path::KernelBatch | Path::ClusterScatter { .. } => None,
        }
    }

    /// Stop every thread the path started and wait for them.
    pub fn stop(self) {
        match self {
            Path::KernelBatch => {}
            Path::ServeC1 { service, frontend, mut conn, .. } => {
                let _ = conn.send("QUIT");
                drop(conn);
                frontend.stop();
                service.shutdown();
            }
            Path::ServeBurst { service, client } => {
                drop(client);
                service.shutdown();
            }
            Path::ClusterScatter { cluster, .. } => cluster.stop(),
        }
    }
}
