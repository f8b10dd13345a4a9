//! Learning under injected noise: learn a policy through a fault-injecting
//! simulated backend and show that the engine's repetition/majority vote
//! recovers the exact noise-free automaton (the simulated analogue of the
//! paper's §5 noise handling).
//!
//! Run with: `cargo run --release --example learn_noisy -- [POLICY] [ASSOC] [FLIP_PERMILLE]`
//! e.g.      `cargo run --release --example learn_noisy -- LRU 4 50`
//!
//! `FLIP_PERMILLE` is the per-access classification-flip rate in permille
//! (default 50 = the 5% rate the noise-robustness tests pin); drops and
//! spurious evictions are demonstrated at small fixed rates.  A missing
//! argument takes its default (LRU, 4, 50); one that does not parse exits
//! with status 2.

mod common;

use automata::render_mealy;
use cachequery::{NoiseSpec, VoteConfig};
use common::positional;
use polca::{conformance_walk, learn_noisy_policy, learn_simulated_policy, LearnSetup};
use policies::PolicyKind;

const USAGE: &str = "usage: learn_noisy [POLICY] [ASSOC] [FLIP_PERMILLE]";

fn main() {
    let policy: PolicyKind = positional(0, PolicyKind::Lru, USAGE);
    let assoc: usize = positional(1, 4, USAGE);
    let flip_permille: u32 = positional(2, 50, USAGE);

    if !policy.supports_associativity(assoc) {
        eprintln!("{policy} does not support associativity {assoc}");
        std::process::exit(1);
    }
    let noise = NoiseSpec {
        flip_permille,
        drop_permille: 5,
        evict_permille: 5,
        seed: 7,
    };
    let setup = LearnSetup::default();

    println!("Learning {policy} at associativity {assoc} without noise");
    let clean = learn_simulated_policy(policy, assoc, &setup).expect("noise-free learning");
    println!(
        "  states: {}, membership queries: {}",
        clean.machine.num_states(),
        clean.stats.membership_queries
    );

    println!(
        "Learning {policy}@{assoc} again through a noisy backend \
         (flips {}/1000 per access, drops 5/1000, spurious evictions 5/1000)",
        noise.flip_permille
    );
    let noisy = learn_noisy_policy(policy, assoc, noise, VoteConfig::default(), &setup)
        .expect("voted learning absorbs the faults");
    println!(
        "  states: {}, membership queries: {}",
        noisy.machine.num_states(),
        noisy.stats.membership_queries
    );

    if render_mealy(&noisy.machine) == render_mealy(&clean.machine) {
        println!("  the noisy run is byte-identical to the noise-free automaton");
    } else {
        println!("  MISMATCH: the noisy run diverged from the noise-free automaton");
        std::process::exit(1);
    }

    // Close the loop with the differential conformance harness: random-walk
    // the noisily-learned machine against the ground-truth simulator.
    let report =
        conformance_walk(&noisy.machine, policy, assoc, 2000, 1).expect("supported associativity");
    match report.divergence {
        None => println!("  conformance walk: 2000 random steps, zero divergences"),
        Some(divergence) => {
            println!("  conformance walk DIVERGED: {divergence}");
            std::process::exit(1);
        }
    }
}
