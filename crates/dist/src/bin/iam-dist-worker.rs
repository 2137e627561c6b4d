//! The worker process binary.
//!
//! ```text
//! iam-dist-worker [--addr 127.0.0.1:0] [--serve-workers N] [--max-batch N]
//!                 [--obs-label NAME]
//! ```
//!
//! `--obs-label` turns span collection and trace-tree recording on (both
//! are off by default) and stamps NAME as this process's label in every
//! span record it ships back to the coordinator — pass a distinct label
//! per worker so merged traces attribute spans to the right process.
//!
//! Binds the given address (port 0 picks a free port), prints a single
//! `LISTENING <addr>` line on stdout so a parent process can harvest the
//! bound address, then serves protocol frames until a peer sends
//! `Shutdown` — at which point the listener closes, connections join, and
//! every per-table service drains before the process exits 0.

use iam_dist::{WorkerConfig, WorkerHandle};
use iam_serve::ServeConfig;
use std::io::Write;

fn main() {
    let mut addr = "127.0.0.1:0".to_string();
    let mut serve = ServeConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--addr" => addr = value("--addr"),
            "--serve-workers" => {
                serve.workers = value("--serve-workers").parse().unwrap_or_else(|_| {
                    eprintln!("bad --serve-workers value");
                    std::process::exit(2);
                })
            }
            "--max-batch" => {
                serve.max_batch = value("--max-batch").parse().unwrap_or_else(|_| {
                    eprintln!("bad --max-batch value");
                    std::process::exit(2);
                })
            }
            "--obs-label" => {
                iam_obs::tracetree::set_process_label(&value("--obs-label"));
                iam_obs::span::enable();
                iam_obs::tracetree::enable();
            }
            other => {
                eprintln!("unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }

    let worker = match WorkerHandle::spawn(&addr, WorkerConfig { serve }) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("bind {addr} failed: {e}");
            std::process::exit(1);
        }
    };
    println!("LISTENING {}", worker.addr);
    let _ = std::io::stdout().flush();

    worker.wait_for_shutdown();
    worker.stop();
}
