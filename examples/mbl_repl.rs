//! The interactive CacheQuery shell (the "interactive mode" of §4.2).
//!
//! Run with: `cargo run --example mbl_repl -- [CPU]` and type MBL queries or
//! configuration commands (`help` lists them, `quit` exits).  CPU is
//! skylake (the default), haswell or kabylake; a name that does not parse
//! exits with status 2.

mod common;

use std::io::{self, BufRead, Write};

use cachequery::{process_command, CacheQuery, ReplSession};
use common::positional;
use hardware::{CpuModel, SimulatedCpu};

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

    let mut session = ReplSession::new(CacheQuery::new(SimulatedCpu::new(model, 7)));
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
        let response = process_command(&mut session, line);
        if !response.is_empty() {
            println!("{response}");
        }
    }
}
