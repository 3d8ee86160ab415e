//! The prediction service daemon: binds a TCP address, serves streams
//! over a [`ShardPool`](zbp_serve::ShardPool), and prints the drained
//! pool summary on shutdown (EOF on stdin, e.g. Ctrl-D): the number of
//! sessions completed, then the newest of them, one line each.
//!
//! ```text
//! zbp_serve [--addr HOST:PORT] [--shards N] [--queue-depth N]
//! ```

use std::io::Read;
use zbp_serve::{PoolConfig, Server};

fn main() {
    let mut addr = "127.0.0.1:4715".to_string();
    let mut cfg = PoolConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--addr" => addr = value("--addr"),
            "--shards" => cfg.shards = parse(&value("--shards"), "--shards"),
            "--queue-depth" => cfg.queue_depth = parse(&value("--queue-depth"), "--queue-depth"),
            "--help" | "-h" => {
                println!("usage: zbp_serve [--addr HOST:PORT] [--shards N] [--queue-depth N]");
                println!("serves prediction streams until stdin reaches EOF");
                return;
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    let server = match Server::bind(&addr, cfg.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "zbp_serve listening on {} ({} shards, queue depth {})",
        server.local_addr(),
        cfg.shards,
        cfg.queue_depth
    );
    println!("close stdin (Ctrl-D) to drain and exit");

    // Block until the controlling input closes, then drain.
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);

    let summary = server.shutdown();
    println!(
        "drained: {} sessions completed, {} busy rejections",
        summary.completed, summary.busy_rejections
    );
    if (summary.sessions.len() as u64) < summary.completed {
        println!("newest {} sessions:", summary.sessions.len());
    }
    for s in &summary.sessions {
        println!(
            "  stream {} [{}] shard {}: {} records, MPKI {:.3}",
            s.id,
            s.label,
            s.shard,
            s.report.records,
            s.report.stats.mpki()
        );
    }
}

fn parse(s: &str, name: &str) -> usize {
    s.parse().unwrap_or_else(|_| {
        eprintln!("{name}: expected a number, got {s:?}");
        std::process::exit(2);
    })
}
