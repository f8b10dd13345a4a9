//! Random-walk conformance property: for every deterministic policy at ways
//! 1–4, long random walks on the *learned* automaton agree with the
//! ground-truth policy simulator on every step.
//!
//! This is net-new coverage the pinned Table 2 state counts do not give:
//! state counts (and even minimized equivalence against an explored
//! machine) compare automata with automata, while the walk drives the
//! learned machine against the executable simulator itself — the same code
//! the simulated caches run — catching any systematic translation error
//! shared by the Mealy constructions.
//!
//! Learning each (policy, ways) pair takes seconds in the worst case, so the
//! machines are learned once and cached; the proptest then samples cases and
//! seeds and walks 1 000 steps each.

use std::collections::HashMap;
use std::sync::OnceLock;

use polca::{conformance_cases, conformance_walk, exact_learn_setup, learn_simulated_policy};
use policies::{PolicyKind, PolicyMealy};
use proptest::prelude::*;

fn learned_machines() -> &'static HashMap<(PolicyKind, usize), PolicyMealy> {
    static MACHINES: OnceLock<HashMap<(PolicyKind, usize), PolicyMealy>> = OnceLock::new();
    MACHINES.get_or_init(|| {
        conformance_cases(4)
            .into_iter()
            .map(|(kind, assoc)| {
                let outcome = learn_simulated_policy(kind, assoc, &exact_learn_setup(assoc))
                    .unwrap_or_else(|e| panic!("learning {kind}@{assoc} failed: {e}"));
                ((kind, assoc), outcome.machine)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// 1 000-step random walks on every learned automaton agree with the
    /// policy simulator, for arbitrary walk seeds.
    #[test]
    fn learned_automata_conform_on_random_walks(
        case in proptest::sample::select(conformance_cases(4)),
        seed in 0u64..1_000_000,
    ) {
        let (kind, assoc) = case;
        let machine = &learned_machines()[&case];
        let report = conformance_walk(machine, kind, assoc, 1000, seed)
            .expect("supported associativity");
        prop_assert!(
            report.passed(),
            "{kind}@{assoc} diverged from its simulator: {}",
            report.divergence.expect("failed reports carry a divergence")
        );
    }
}

/// Every case is walked at least once regardless of how the property above
/// samples — the deterministic floor under the randomized roof.
#[test]
fn every_case_conforms_at_least_once() {
    for ((kind, assoc), machine) in learned_machines() {
        let report = conformance_walk(machine, *kind, *assoc, 1000, 42).unwrap();
        assert!(
            report.passed(),
            "{kind}@{assoc} diverged: {}",
            report
                .divergence
                .expect("failed reports carry a divergence")
        );
    }
}
