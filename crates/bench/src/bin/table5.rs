//! Table 5 and Figure 5: synthesizing explanations for learned policies.
//!
//! For every policy of §8 (at associativity 4, like the paper) the harness
//! obtains the policy automaton, runs the template-based synthesizer, and
//! reports the number of states, the template flavour that succeeded, and the
//! synthesis time.  PLRU is expected to fail (the template cannot express its
//! tree-shaped global state).  With `--print-programs` the synthesized
//! programs for every policy — in particular the previously undocumented
//! New1 and New2, i.e. Figure 5 — are printed in full.
//!
//! Usage:
//!   table5 [--assoc N] [--policy NAME] [--print-programs] [--time-budget SECS] [--from-learned]
//!
//! By default the ground-truth automata are used as synthesis inputs (they
//! are trace-equivalent to what learning produces, cf. the §6 harness);
//! `--from-learned` runs the Polca learning pipeline first, exactly like the
//! paper's end-to-end flow.

use std::time::Duration;

use automata::check_equivalence;
use bench::{format_duration, Args, TextTable};
use polca::{learn_simulated_policy, LearnSetup};
use policies::{policy_to_mealy, PolicyKind, PolicyMealy, ProgramPolicy};
use synth::{synthesize, SynthesisConfig};

fn automaton_for(kind: PolicyKind, assoc: usize, from_learned: bool) -> Option<PolicyMealy> {
    if from_learned {
        learn_simulated_policy(kind, assoc, &LearnSetup::default())
            .ok()
            .map(|outcome| outcome.machine)
    } else {
        kind.build(assoc)
            .ok()
            .map(|policy| policy_to_mealy(policy.as_ref(), 1 << 20))
    }
}

fn main() {
    let args = Args::from_env();
    let assoc = args.value_or("assoc", 4usize);
    let print_programs = args.has_flag("print-programs");
    let from_learned = args.has_flag("from-learned");
    let time_budget = args.value_or("time-budget", 600u64);
    let only_policy: Option<PolicyKind> = args.parsed("policy");

    let policies = [
        PolicyKind::Fifo,
        PolicyKind::Lru,
        PolicyKind::Plru,
        PolicyKind::Lip,
        PolicyKind::Mru,
        PolicyKind::SrripHp,
        PolicyKind::SrripFp,
        PolicyKind::New1,
        PolicyKind::New2,
    ];

    println!("Table 5: synthesizing explanations for policies (associativity {assoc})");
    println!();
    let mut table = TextTable::new(&["Policy", "States", "Template", "Execution time", "Verified"]);
    let mut programs = Vec::new();

    for kind in policies {
        if let Some(only) = only_policy {
            if only != kind {
                continue;
            }
        }
        if !kind.supports_associativity(assoc) {
            continue;
        }
        let Some(machine) = automaton_for(kind, assoc, from_learned) else {
            table.add_row(&[
                kind.name().to_string(),
                "-".to_string(),
                "-".to_string(),
                "-".to_string(),
                "automaton unavailable".to_string(),
            ]);
            continue;
        };
        eprintln!("synthesizing {kind} ({} states)...", machine.num_states());
        let config = SynthesisConfig {
            time_budget: Some(Duration::from_secs(time_budget)),
            ..SynthesisConfig::default()
        };
        match synthesize(&machine, assoc, &config) {
            Some(result) => {
                let verified = {
                    let synthesized =
                        policy_to_mealy(&ProgramPolicy::new(result.program.clone()), 1 << 20);
                    check_equivalence(&synthesized, &machine).is_none()
                };
                table.add_row(&[
                    kind.name().to_string(),
                    machine.num_states().to_string(),
                    result.template.to_string(),
                    format_duration(result.stats.duration),
                    if verified { "yes" } else { "NO" }.to_string(),
                ]);
                programs.push((kind, result.program));
            }
            None => {
                table.add_row(&[
                    kind.name().to_string(),
                    machine.num_states().to_string(),
                    "—".to_string(),
                    "—".to_string(),
                    "not expressible in the template (expected for PLRU)".to_string(),
                ]);
            }
        }
    }

    println!("{}", table.render());
    println!("Paper reference (Table 5): FIFO/LRU/LIP Simple; MRU, SRRIP-HP, SRRIP-FP, New1, New2");
    println!(
        "Extended; PLRU not expressible.  Absolute times differ (enumerative search vs Sketch)."
    );

    if print_programs {
        println!();
        println!("Synthesized programs (Figure 5 for New1/New2):");
        for (kind, program) in &programs {
            println!();
            println!("=== {kind} ===");
            println!("{program}");
        }
    }
}
