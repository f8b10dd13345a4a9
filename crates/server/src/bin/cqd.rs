//! Standalone `cqd` daemon.
//!
//! Usage: `cqd [--addr HOST:PORT] [--workers N] [--trace-log PATH]
//! [--store-dir DIR] [--store-max-entries N] [--until-eof]`
//!
//! `--workers` caps how many sessions execute store misses on the
//! simulated machines at once (default 4, at least 1); the others wait for
//! a slot.
//!
//! With `--store-dir`, the shared query store is durable: answers append to
//! a record log in DIR, are compacted into snapshots, and replay on the next
//! start — a restarted daemon serves yesterday's campaign from memory.  The
//! log is written in batches and no answer is ever dropped from it: a
//! `kill -9` loses at most the batch not yet written (what survives is a
//! prefix of the answers, in order); a graceful shutdown loses nothing.
//! `--store-max-entries` bounds the store: over the cap it clears whole
//! namespaces, the least recently touched first.
//!
//! Runs until killed (or until stdin reaches EOF when `--until-eof` is
//! given, which is how the smoke tests drive a bounded run).  An unknown
//! flag, a missing value or a value that does not parse exits with status 2
//! and the usage line.

use std::num::NonZeroUsize;

use server::{spawn, CqdConfig};

const USAGE: &str = "usage: cqd [--addr HOST:PORT] [--workers N] [--trace-log PATH] \
                     [--store-dir DIR] [--store-max-entries N] [--until-eof]";

/// Reads the command line into a daemon configuration and the
/// `--until-eof` switch, or says what it cannot use.
fn parse_args(args: &[String]) -> Result<(CqdConfig, bool), String> {
    fn parsed<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
        text.parse()
            .map_err(|_| format!("cannot parse {flag} `{text}`"))
    }
    let mut config = CqdConfig::default();
    let mut until_eof = false;
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--until-eof" => until_eof = true,
            "--addr" => config.addr = value()?.clone(),
            "--workers" => config.workers = parsed::<NonZeroUsize>(flag, value()?)?.get(),
            "--trace-log" => config.trace_log = Some(value()?.into()),
            "--store-dir" => config.store_dir = Some(value()?.into()),
            "--store-max-entries" => config.store_max_entries = Some(parsed(flag, value()?)?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((config, until_eof))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (config, until_eof) = parse_args(&args).unwrap_or_else(|message| {
        eprintln!("cqd: {message}\n{USAGE}");
        std::process::exit(2)
    });

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
