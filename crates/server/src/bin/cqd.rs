//! Standalone `cqd` daemon.
//!
//! Usage: `cqd [--addr HOST:PORT] [--workers N] [--queue-depth N]
//! [--trace-log PATH] [--store-dir DIR] [--store-max-entries N]
//! [--store-evict POLICY[@WAYS]]`
//!
//! With `--store-dir`, the shared query store is durable: answers append to
//! a record log in DIR, are compacted into snapshots, and replay on the next
//! start — a restarted daemon serves yesterday's campaign from memory.  The
//! log is written in batches and no answer is ever dropped from it: a
//! `kill -9` loses at most the batch not yet written (what survives is a
//! prefix of the answers, in order); a graceful shutdown loses nothing.
//! `--store-max-entries` bounds the store, evicting whole namespaces chosen
//! by `--store-evict` (default `lru@16`).
//!
//! Runs until killed (or until stdin reaches EOF when `--until-eof` is
//! given, which is how the smoke tests drive a bounded run).

use server::{spawn, CqdConfig};

fn value_of(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = CqdConfig::default();
    if let Some(addr) = value_of(&args, "--addr") {
        config.addr = addr;
    }
    if let Some(workers) = value_of(&args, "--workers").and_then(|v| v.parse().ok()) {
        config.workers = workers;
    }
    if let Some(depth) = value_of(&args, "--queue-depth").and_then(|v| v.parse().ok()) {
        config.queue_depth = depth;
    }
    if let Some(path) = value_of(&args, "--trace-log") {
        config.trace_log = Some(path.into());
    }
    if let Some(dir) = value_of(&args, "--store-dir") {
        config.store_dir = Some(dir.into());
    }
    if let Some(max) = value_of(&args, "--store-max-entries").and_then(|v| v.parse().ok()) {
        config.store_max_entries = Some(max);
    }
    if let Some(spec) = value_of(&args, "--store-evict") {
        config.store_evict = Some(spec);
    }
    let until_eof = args.iter().any(|a| a == "--until-eof");

    let daemon = match spawn(config) {
        Ok(daemon) => daemon,
        Err(e) => {
            eprintln!("cqd: failed to start: {e}");
            std::process::exit(1);
        }
    };
    println!("cqd listening on {}", daemon.addr());

    if until_eof {
        // Exit when the parent closes our stdin (test harness mode).
        let mut sink = String::new();
        while std::io::stdin().read_line(&mut sink).unwrap_or(0) > 0 {
            sink.clear();
        }
        daemon.shutdown();
    } else {
        // Serve forever: park the main thread.
        loop {
            std::thread::park();
        }
    }
}
