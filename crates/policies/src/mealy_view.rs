//! Conversion of executable policies into their ground-truth Mealy machines.

use std::collections::HashMap;

use automata::{Mealy, StateId};

use crate::{PolicyInput, PolicyOutput, ReplacementPolicy};

/// The Mealy-machine view of a replacement policy, over the alphabet of
/// Table 1.
pub type PolicyMealy = Mealy<PolicyInput, PolicyOutput>;

/// Returns the policy input alphabet `Ln(0), …, Ln(n−1), Evct` for
/// associativity `assoc`.
pub fn policy_alphabet(assoc: usize) -> Vec<PolicyInput> {
    let mut inputs: Vec<PolicyInput> = (0..assoc).map(PolicyInput::line).collect();
    inputs.push(PolicyInput::Evct);
    inputs
}

/// Enumerates the reachable control states of `policy` (starting from its
/// current state) and returns the induced Mealy machine of Definition 2.1.
///
/// States are identified by [`ReplacementPolicy::state_key`]; the machine is
/// *not* minimized — callers interested in the canonical state counts of
/// Table 2 should pass the result through [`automata::minimize`].
///
/// # Panics
///
/// Panics if more than `max_states` distinct control states are reachable.
/// This guards against accidentally exploring probabilistic policies (such as
/// [`crate::Brrip`]) whose `state_key` does not capture the RNG.
///
/// # Example
///
/// ```
/// use policies::{policy_to_mealy, PolicyKind};
///
/// let lru = PolicyKind::Lru.build_reference(4).unwrap();
/// let machine = policy_to_mealy(lru.as_ref(), 100_000);
/// assert_eq!(machine.num_states(), 24); // 4! recency permutations
/// ```
pub fn policy_to_mealy(policy: &dyn ReplacementPolicy, max_states: usize) -> PolicyMealy {
    let inputs = policy_alphabet(policy.associativity());
    let mut ids: HashMap<Vec<u32>, StateId> = HashMap::new();
    let mut worklist: Vec<Box<dyn ReplacementPolicy>> = Vec::new();
    let mut transitions: Vec<Vec<(StateId, PolicyOutput)>> = Vec::new();

    let initial = policy.clone_box();
    ids.insert(initial.state_key(), StateId::new(0));
    worklist.push(initial);
    let mut cursor = 0usize;

    while cursor < worklist.len() {
        let current = worklist[cursor].clone();
        cursor += 1;
        let mut row = Vec::with_capacity(inputs.len());
        for &input in &inputs {
            let mut next = current.clone();
            let output = next.apply(input);
            let key = next.state_key();
            let id = match ids.get(&key) {
                Some(&id) => id,
                None => {
                    let id = StateId::new(ids.len());
                    assert!(
                        ids.len() < max_states,
                        "policy {} exceeds {} reachable states",
                        policy.name(),
                        max_states
                    );
                    ids.insert(key, id);
                    worklist.push(next);
                    id
                }
            };
            row.push((id, output));
        }
        transitions.push(row);
    }

    Mealy::from_tables(inputs, transitions, StateId::new(0))
        .expect("reachability exploration produces a complete machine")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PolicyKind;
    use automata::{check_equivalence, minimize};

    fn reference_mealy(kind: PolicyKind, assoc: usize) -> PolicyMealy {
        policy_to_mealy(kind.build_reference(assoc).unwrap().as_ref(), 1 << 20)
    }

    /// Number of states of the *minimal* machine of `kind`'s reference.
    fn minimal_states(kind: PolicyKind, assoc: usize) -> usize {
        minimize(&reference_mealy(kind, assoc)).num_states()
    }

    #[test]
    fn fifo_state_counts_match_table_2() {
        assert_eq!(minimal_states(PolicyKind::Fifo, 2), 2);
        assert_eq!(minimal_states(PolicyKind::Fifo, 8), 8);
        assert_eq!(minimal_states(PolicyKind::Fifo, 16), 16);
    }

    #[test]
    fn lru_state_counts_match_table_2() {
        assert_eq!(minimal_states(PolicyKind::Lru, 2), 2);
        assert_eq!(minimal_states(PolicyKind::Lru, 4), 24);
        assert_eq!(minimal_states(PolicyKind::Lru, 6), 720);
    }

    #[test]
    fn plru_state_counts_match_table_2() {
        assert_eq!(minimal_states(PolicyKind::Plru, 2), 2);
        assert_eq!(minimal_states(PolicyKind::Plru, 4), 8);
        assert_eq!(minimal_states(PolicyKind::Plru, 8), 128);
    }

    #[test]
    fn mru_state_counts_match_table_2() {
        assert_eq!(minimal_states(PolicyKind::Mru, 2), 2);
        assert_eq!(minimal_states(PolicyKind::Mru, 4), 14);
        assert_eq!(minimal_states(PolicyKind::Mru, 6), 62);
        assert_eq!(minimal_states(PolicyKind::Mru, 8), 254);
    }

    #[test]
    fn lip_state_counts_match_table_2() {
        assert_eq!(minimal_states(PolicyKind::Lip, 2), 2);
        assert_eq!(minimal_states(PolicyKind::Lip, 4), 24);
    }

    #[test]
    fn srrip_state_counts_match_table_2() {
        assert_eq!(minimal_states(PolicyKind::SrripHp, 2), 12);
        assert_eq!(minimal_states(PolicyKind::SrripHp, 4), 178);
        assert_eq!(minimal_states(PolicyKind::SrripFp, 2), 16);
        assert_eq!(minimal_states(PolicyKind::SrripFp, 4), 256);
        assert_eq!(minimal_states(PolicyKind::SrripHp, 6), 2762);
        assert_eq!(minimal_states(PolicyKind::SrripFp, 6), 4096);
    }

    #[test]
    fn new_policy_state_counts_match_table_4() {
        assert_eq!(minimal_states(PolicyKind::New1, 4), 160);
        assert_eq!(minimal_states(PolicyKind::New2, 4), 175);
        assert_eq!(minimal_states(PolicyKind::New1, 6), 3304);
        assert_eq!(minimal_states(PolicyKind::New2, 6), 3367);
    }

    #[test]
    fn lru_mealy_matches_example_2_2() {
        let machine = reference_mealy(PolicyKind::Lru, 2);
        // Example 2.2: two states; accessing line 1 from the initial state
        // keeps the state, accessing line 0 swaps the victim.
        assert_eq!(minimize(&machine).num_states(), 2);
        assert_eq!(
            machine
                .output_word([PolicyInput::Line(0), PolicyInput::Evct, PolicyInput::Evct].iter()),
            vec![
                PolicyOutput::None,
                PolicyOutput::Evicted(1),
                PolicyOutput::Evicted(0)
            ]
        );
    }

    #[test]
    fn distinct_policies_are_inequivalent_at_assoc_4() {
        let machines: Vec<PolicyMealy> = PolicyKind::ALL_DETERMINISTIC
            .into_iter()
            .map(|kind| reference_mealy(kind, 4))
            .collect();
        for i in 0..machines.len() {
            for j in i + 1..machines.len() {
                assert!(
                    check_equivalence(&machines[i], &machines[j]).is_some(),
                    "policies {i} and {j} are unexpectedly trace-equivalent"
                );
            }
        }
    }

    #[test]
    fn alphabet_has_expected_shape() {
        let alpha = policy_alphabet(3);
        assert_eq!(
            alpha,
            vec![
                PolicyInput::Line(0),
                PolicyInput::Line(1),
                PolicyInput::Line(2),
                PolicyInput::Evct
            ]
        );
    }
}
