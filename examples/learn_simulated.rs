//! The §6 case study for a single policy: learn a replacement policy from a
//! noiseless software-simulated cache and compare it against the ground
//! truth.
//!
//! Run with: `cargo run --release --example learn_simulated -- [POLICY] [ASSOC] [DEPTH]`
//! e.g.      `cargo run --release --example learn_simulated -- SRRIP-HP 4 1`
//!
//! A missing argument takes its default (MRU, 4, 1); one that does not parse
//! exits with status 2.

mod common;

use automata::check_equivalence;
use common::positional;
use polca::{learn_simulated_policy, LearnSetup};
use policies::{policy_to_mealy, PolicyKind};

const USAGE: &str = "usage: learn_simulated [POLICY] [ASSOC] [DEPTH]";

fn main() {
    let policy: PolicyKind = positional(0, PolicyKind::Mru, USAGE);
    let assoc: usize = positional(1, 4, USAGE);
    let depth: usize = positional(2, 1, USAGE);

    if !policy.supports_associativity(assoc) {
        eprintln!("{policy} does not support associativity {assoc}");
        std::process::exit(1);
    }

    println!("Learning {policy} at associativity {assoc} from a software-simulated cache");
    let setup = LearnSetup {
        conformance_depth: depth,
        ..LearnSetup::default()
    };
    let outcome = learn_simulated_policy(policy, assoc, &setup).expect("learning succeeds");
    println!("  states                : {}", outcome.machine.num_states());
    println!(
        "  membership queries    : {}",
        outcome.stats.membership_queries
    );
    println!(
        "  query-cache hit rate  : {:.1}% ({} hits / {} misses)",
        outcome.stats.cache_hit_rate() * 100.0,
        outcome.stats.cache_hits,
        outcome.stats.cache_misses
    );
    println!(
        "  equivalence queries   : {}",
        outcome.stats.equivalence_queries
    );
    println!(
        "  conformance tests     : {}",
        outcome.stats.conformance_tests
    );
    println!(
        "  counterexamples       : {}",
        outcome.stats.counterexamples
    );
    println!("  cache probes (Polca)  : {}", outcome.cache_probes);
    println!("  block accesses        : {}", outcome.block_accesses);
    println!("  wall-clock time       : {:?}", outcome.stats.duration);

    let reference = policy_to_mealy(policy.build(assoc).unwrap().as_ref(), 1 << 20);
    match check_equivalence(&outcome.machine, &reference) {
        None => println!("  ground-truth check    : learned machine is exactly {policy}"),
        Some(cex) => println!(
            "  ground-truth check    : MISMATCH on {:?} ({} vs {})",
            cex.word, cex.left_output, cex.right_output
        ),
    }
}
