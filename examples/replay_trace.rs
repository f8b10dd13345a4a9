//! Trace replay end to end: generate synthetic traffic, sweep it through
//! every deterministic policy, then prove a learned machine on it.
//!
//! Run with: `cargo run --release --example replay_trace -- [ACCESSES] [WAYS] [SETS]`
//! e.g.      `cargo run --release --example replay_trace -- 100000 4 64`
//!
//! A missing argument takes its default (50000, 2, 64); one that does not
//! parse exits with status 2.
//!
//! Three steps:
//!
//! 1. Generate one trace per generator (sequential, strided, zipfian,
//!    pointer-chase), all pure functions of their seed.
//! 2. Replay each trace through the executable simulator of every
//!    deterministic policy and print the per-policy hit-rate table.
//! 3. Learn LRU from scratch and replay the learned automaton
//!    *differentially* against its simulator — every access must agree.

mod common;

use cache::CacheGeometry;
use common::positional;
use polca::{exact_learn_setup, learn_simulated_policy};
use policies::PolicyKind;
use trace::{differential_replay, generate, replay_policy, GeneratorKind, TraceSpec};

const USAGE: &str = "usage: replay_trace [ACCESSES] [WAYS] [SETS]";

fn main() {
    let accesses: usize = positional(0, 50_000, USAGE);
    let ways: usize = positional(1, 2, USAGE);
    let sets: usize = positional(2, 64, USAGE);

    let geometry = CacheGeometry::new(ways, sets, 1, 64);
    // A working set of 1.5x the cache capacity: enough reuse to hit, enough
    // pressure to make the policies' choices matter.
    let lines = ways * sets * 3 / 2;
    let spec = |generator| TraceSpec {
        generator,
        accesses,
        lines,
        seed: 1,
        ..TraceSpec::default()
    };

    println!(
        "Replaying {accesses} accesses over a {lines}-line working set \
         through {ways}-way x {sets}-set caches"
    );
    println!();

    // ---- Step 2: the per-policy hit-rate table. --------------------------
    let header = format!(
        "{:<10} {:>11} {:>9} {:>9} {:>14}",
        "policy", "sequential", "strided", "zipfian", "pointer-chase"
    );
    println!("{header}");
    println!("{}", "-".repeat(header.len()));
    for kind in PolicyKind::ALL_DETERMINISTIC {
        if !kind.supports_associativity(ways) {
            continue;
        }
        let mut cells = format!("{:<10}", kind.to_string());
        for generator in GeneratorKind::ALL {
            let trace = generate(&spec(generator));
            let counts = replay_policy(&trace, kind, geometry).expect("supported associativity");
            let width = match generator {
                GeneratorKind::Sequential => 11,
                GeneratorKind::PointerChase => 14,
                _ => 9,
            };
            cells.push_str(&format!(
                " {:>width$}",
                format!("{:.1}%", 100.0 * counts.hit_rate())
            ));
        }
        println!("{cells}");
    }

    // ---- Step 3: a learned machine survives the same traffic. ------------
    println!();
    let kind = PolicyKind::Lru;
    println!("Learning {kind}@{ways} and replaying the learned automaton differentially...");
    let outcome =
        learn_simulated_policy(kind, ways, &exact_learn_setup(ways)).expect("learning succeeds");
    let mut replayed = 0u64;
    for generator in GeneratorKind::ALL {
        let trace = generate(&spec(generator));
        let report = differential_replay(&trace, kind, geometry, &outcome.machine)
            .expect("the learned machine matches the geometry");
        if let Some(divergence) = report.divergence {
            println!("  {generator}: DIVERGED — {divergence}");
            std::process::exit(1);
        }
        replayed += report.simulator.accesses;
    }
    println!(
        "  learned {kind}@{ways} ({} states) replayed {replayed} accesses \
         with zero divergences",
        outcome.machine.num_states()
    );
}
