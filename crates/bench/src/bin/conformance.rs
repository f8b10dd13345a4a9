//! Differential conformance harness: learn every deterministic policy and
//! random-walk the learned automaton against the ground-truth policy
//! simulator, reporting the first divergence (or the clean bill of health
//! CI pins).
//!
//! Usage:
//!   `conformance [--steps N] [--max-assoc W] [--seed S] [--walks K]`
//!
//! For every policy of the paper's §6 case study at ways `1..=W` (skipping
//! unsupported associativities), the harness runs the standard learning
//! pipeline and then `K` independent `N`-step random walks (seeds `S`,
//! `S+1`, …).  Exit code 0 means every walk agreed with the simulator on
//! every step; any divergence prints its input word and sets exit code 1.

use std::time::Instant;

use bench::{Args, TextTable};
use polca::{conformance_cases, conformance_walk, exact_learn_setup, learn_simulated_policy};

fn main() {
    let args = Args::from_env();
    let steps: usize = args.value_or("steps", 1000);
    let max_assoc: usize = args.value_or("max-assoc", 4);
    let seed: u64 = args.value_or("seed", 1);
    let walks: u64 = args.value_or("walks", 3);

    println!(
        "conformance: {walks} x {steps}-step random walks per policy, ways 1..={max_assoc}, \
         base seed {seed}"
    );

    let mut table = TextTable::new(&[
        "policy",
        "ways",
        "states",
        "memb. queries",
        "learn time",
        "walk steps",
        "verdict",
    ]);
    let mut divergences = 0usize;
    for (kind, assoc) in conformance_cases(max_assoc) {
        let started = Instant::now();
        let outcome = match learn_simulated_policy(kind, assoc, &exact_learn_setup(assoc)) {
            Ok(outcome) => outcome,
            Err(e) => {
                println!("learning {kind}@{assoc} failed: {e}");
                divergences += 1;
                continue;
            }
        };
        let learn_time = started.elapsed();
        let mut verdict = "ok".to_string();
        for walk in 0..walks {
            let report = conformance_walk(&outcome.machine, kind, assoc, steps, seed + walk)
                .expect("the learned associativity is supported");
            if let Some(divergence) = report.divergence {
                verdict = format!("DIVERGED at step {}: {divergence}", divergence.step);
                divergences += 1;
                break;
            }
        }
        table.add_row(&[
            kind.to_string(),
            assoc.to_string(),
            outcome.machine.num_states().to_string(),
            outcome.stats.membership_queries.to_string(),
            format!("{:.3} s", learn_time.as_secs_f64()),
            (steps as u64 * walks).to_string(),
            verdict,
        ]);
    }
    print!("{}", table.render());

    if divergences > 0 {
        println!("conformance: {divergences} case(s) diverged");
        std::process::exit(1);
    }
    println!("conformance: all learned automata agree with their simulators");
}
