//! Property-based tests for the Mealy-machine toolbox.

use automata::{check_equivalence, equivalent, explore, minimize, ExploreLimit, Mealy};
use proptest::prelude::*;

/// Builds a random complete Mealy machine over a small alphabet by exploring
/// a random transition table.
fn random_machine(states: usize, seed_rows: Vec<Vec<(usize, u8)>>) -> Mealy<&'static str, u8> {
    const INPUTS: [&str; 3] = ["a", "b", "c"];
    explore(
        0usize,
        INPUTS.to_vec(),
        move |s, input| {
            let ii = INPUTS.iter().position(|i| i == input).expect("known input");
            let (next, out) = seed_rows[*s % states][ii];
            (next % states, out)
        },
        ExploreLimit::default(),
    )
    .expect("bounded exploration")
}

fn machine_strategy() -> impl Strategy<Value = Mealy<&'static str, u8>> {
    (2usize..6)
        .prop_flat_map(|states| {
            let rows = proptest::collection::vec(
                proptest::collection::vec((0..states, 0u8..3), 3..=3),
                states..=states,
            );
            (Just(states), rows)
        })
        .prop_map(|(states, rows)| random_machine(states, rows))
}

proptest! {
    /// Trace equivalence is reflexive, and minimization preserves it.
    #[test]
    fn minimization_preserves_equivalence(machine in machine_strategy()) {
        prop_assert!(equivalent(&machine, &machine));
        let minimized = minimize(&machine);
        prop_assert!(equivalent(&machine, &minimized));
        prop_assert!(minimized.num_states() <= machine.num_states());
        // Minimization is idempotent.
        prop_assert_eq!(minimize(&minimized).num_states(), minimized.num_states());
    }

    /// A returned counterexample is a real counterexample: replaying it on
    /// both machines yields different last outputs.
    #[test]
    fn counterexamples_are_genuine(a in machine_strategy(), b in machine_strategy()) {
        match check_equivalence(&a, &b) {
            None => {
                // Equivalence must be symmetric.
                prop_assert!(check_equivalence(&b, &a).is_none());
            }
            Some(cex) => {
                let oa = a.output_word(cex.word.iter()).pop();
                let ob = b.output_word(cex.word.iter()).pop();
                prop_assert_ne!(oa.clone(), ob.clone());
                prop_assert_eq!(oa, Some(cex.left_output));
                prop_assert_eq!(ob, Some(cex.right_output));
            }
        }
    }

    /// Output words have exactly one output per input symbol and running a
    /// prefix yields a prefix of the outputs.
    #[test]
    fn output_words_are_prefix_consistent(
        machine in machine_strategy(),
        word in proptest::collection::vec(prop_oneof![Just("a"), Just("b"), Just("c")], 0..20),
        cut in 0usize..20,
    ) {
        let outputs = machine.output_word(word.iter());
        prop_assert_eq!(outputs.len(), word.len());
        let cut = cut.min(word.len());
        let prefix_outputs = machine.output_word(word[..cut].iter());
        prop_assert_eq!(&outputs[..cut], &prefix_outputs[..]);
    }
}
