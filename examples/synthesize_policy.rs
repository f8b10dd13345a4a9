//! §8 end to end for one policy: learn a policy automaton from a simulated
//! cache and synthesize a human-readable explanation for it (Figure 5 style).
//!
//! Run with: `cargo run --release --example synthesize_policy -- [POLICY] [ASSOC]`
//! e.g.      `cargo run --release --example synthesize_policy -- New2 4`
//!
//! Associativity 4 with the full age range (as in Table 5) can take a few
//! minutes for the Extended-template policies; associativity 2-3 finishes in
//! seconds.  A missing argument takes its default (New1, 4); one that does
//! not parse exits with status 2.

mod common;

use common::positional;
use polca::{learn_simulated_policy, LearnSetup};
use policies::PolicyKind;
use synth::{synthesize, SynthesisConfig};

const USAGE: &str = "usage: synthesize_policy [POLICY] [ASSOC]";

fn main() {
    let policy: PolicyKind = positional(0, PolicyKind::New1, USAGE);
    let assoc: usize = positional(1, 4, USAGE);

    println!("Step 1: learning {policy} at associativity {assoc} from a simulated cache");
    let outcome =
        learn_simulated_policy(policy, assoc, &LearnSetup::default()).expect("learning succeeds");
    println!(
        "  learned a {}-state automaton",
        outcome.machine.num_states()
    );

    println!("Step 2: synthesizing an explanation");
    let config = SynthesisConfig::default();
    match synthesize(&outcome.machine, assoc, &config) {
        Some(result) => {
            println!(
                "  found a {} template program after {} phase-A and {} phase-B candidates ({:?})",
                result.template,
                result.stats.phase_a_candidates,
                result.stats.phase_b_candidates,
                result.stats.duration
            );
            println!();
            println!("{}", result.program);
        }
        None => {
            println!("  no program in the template space matches this policy");
            println!("  (expected for tree-based PLRU, cf. §8.2 of the paper)");
        }
    }
}
