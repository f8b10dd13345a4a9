//! The interactive CacheQuery shell (the "interactive mode" of §4.2).
//!
//! Run with: `cargo run --example mbl_repl -- [CPU]` and type MBL queries or
//! configuration commands (`help` lists them, `quit` exits).  CPU is
//! skylake (the default), haswell or kabylake; a name that does not parse
//! exits with status 2.  Every line goes to an in-process `cqd` as a `repl`
//! request, so the shell and the daemon share one interpreter.

mod common;

use std::io::{self, BufRead, Write};

use cachequery::decode_pattern;
use common::positional;
use hardware::CpuModel;
use server::{spawn, Client, ClientError, CqdConfig, Response, SessionSpec};

/// Renders a hit/miss pattern the way the paper prints traces
/// (`Hit Hit Miss …`).
fn render_pattern(pattern: &str) -> String {
    let outcomes = decode_pattern(pattern).expect("cqd answers with hit/miss patterns");
    if outcomes.is_empty() {
        return "(no profiled accesses)".to_string();
    }
    let names: Vec<String> = outcomes.iter().map(ToString::to_string).collect();
    names.join(" ")
}

fn main() {
    let model = positional(
        0,
        CpuModel::SkylakeI5_6500,
        "usage: mbl_repl [skylake|haswell|kabylake]",
    );
    println!(
        "CacheQuery interactive shell on the simulated {}",
        model.spec().name
    );
    println!("type 'help' for commands, 'quit' to exit");

    let daemon = spawn(CqdConfig::default()).expect("an ephemeral port is always bindable");
    let mut client = Client::connect(daemon.addr()).expect("the daemon accepts connections");
    client
        .target(&SessionSpec {
            model: model.short_name().to_string(),
            ..SessionSpec::default()
        })
        .expect("every model has an L1 set 0");
    let stdin = io::stdin();
    loop {
        print!("cachequery> ");
        io::stdout().flush().expect("stdout is writable");
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let line = line.trim();
        if line == "quit" || line == "exit" {
            break;
        }
        match client.repl(line) {
            Ok(Response::Done { message }) if message.is_empty() => {}
            Ok(Response::Done { message }) => println!("{message}"),
            Ok(Response::Outcomes { results }) => {
                for result in results {
                    println!("{} -> {}", result.query, render_pattern(&result.pattern));
                }
            }
            Ok(other) => println!("error: unexpected answer {other:?}"),
            Err(ClientError::Server(message)) => println!("error: {message}"),
            Err(error) => {
                eprintln!("{error}");
                std::process::exit(1);
            }
        }
    }
    daemon.shutdown();
}
