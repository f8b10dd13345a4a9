//! Differential property suite: [`PackedPolicy`] vs the reference form
//! [`PolicyKind::build_reference`] builds — the policy's §5 program, run by
//! `ProgramPolicy`, or the hand-written PLRU.
//!
//! The packed simulators are the hot path of every learning campaign, so
//! their contract is strict byte-identity with the definition: same victims,
//! same hit updates, same `state_key` renderings (per-line ages for every
//! program, tree bits for PLRU), for every deterministic [`PolicyKind`] ×
//! associativity 1–8 × random access sequences × construction seeds.  Any
//! divergence here would silently corrupt the pinned Table 2 state counts
//! downstream.

use policies::{PackedPolicy, PolicyInput, PolicyKind, ReplacementPolicy, PACKED_MAX_ASSOC};
use proptest::prelude::*;

/// All deterministic policies with a packed form at the given associativity.
fn packable_kinds(assoc: usize) -> Vec<PolicyKind> {
    PolicyKind::ALL_DETERMINISTIC
        .into_iter()
        .filter(|&k| PackedPolicy::supports(k, assoc))
        .collect()
}

/// Strategy producing a packable kind, an associativity in 1..=8, a random
/// word over the full policy alphabet, and a construction seed.
fn packed_case() -> impl Strategy<Value = (PolicyKind, usize, Vec<PolicyInput>, u64)> {
    (1usize..=PACKED_MAX_ASSOC)
        .prop_flat_map(|assoc| {
            (
                proptest::sample::select(packable_kinds(assoc)),
                Just(assoc),
                proptest::collection::vec(0usize..=assoc, 0..120),
                0u64..u64::MAX,
            )
        })
        .prop_map(|(kind, assoc, raw, seed)| {
            let word = raw
                .into_iter()
                .map(|i| {
                    if i == assoc {
                        PolicyInput::Evct
                    } else {
                        PolicyInput::line(i)
                    }
                })
                .collect();
            (kind, assoc, word, seed)
        })
}

/// The packed form and the reference form of `kind` at `assoc`.
fn twins(kind: PolicyKind, assoc: usize) -> (PackedPolicy, Box<dyn ReplacementPolicy>) {
    let reference = kind.build_reference(assoc).unwrap();
    (PackedPolicy::new(kind, assoc).unwrap(), reference)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The headline property: a packed policy and its reference twin walk any
    /// input word in lock-step — identical outputs (victims included) and
    /// identical state renderings after every single step.
    #[test]
    fn packed_walks_in_lock_step_with_the_reference(
        (kind, assoc, word, _) in packed_case()
    ) {
        let (mut packed, mut reference) = twins(kind, assoc);
        prop_assert_eq!(packed.name(), reference.name());
        prop_assert_eq!(packed.state_key(), reference.state_key());
        for (step, &input) in word.iter().enumerate() {
            let p = packed.apply(input);
            let r = reference.apply(input);
            prop_assert_eq!(
                p, r,
                "{}@{}: outputs diverged on step {} ({:?})", kind, assoc, step, input
            );
            prop_assert_eq!(
                packed.state_key(), reference.state_key(),
                "{}@{}: state keys diverged on step {} ({:?})", kind, assoc, step, input
            );
        }
    }

    /// The transparent registry path (`build_seeded`, which prefers the
    /// packed form) equals the reference build on the same walk — whatever
    /// the seed: seeds only matter to probabilistic policies, which have no
    /// packed form.
    #[test]
    fn transparent_builds_equal_reference_builds(
        (kind, assoc, word, seed) in packed_case()
    ) {
        let mut transparent = kind.build_seeded(assoc, seed).unwrap();
        let mut reference = kind.build_reference(assoc).unwrap();
        for &input in &word {
            prop_assert_eq!(transparent.apply(input), reference.apply(input));
        }
        prop_assert_eq!(transparent.state_key(), reference.state_key());
    }

    /// Victim selection never mutates observable state differently: probing
    /// `victim()` mid-walk (without inserting) leaves packed and reference in
    /// agreeing states with agreeing victims.
    #[test]
    fn victim_probes_agree_mid_walk((kind, assoc, word, _) in packed_case()) {
        let (mut packed, mut reference) = twins(kind, assoc);
        for &input in &word {
            packed.apply(input);
            reference.apply(input);
            prop_assert_eq!(packed.victim(), reference.victim());
            prop_assert_eq!(packed.state_key(), reference.state_key());
        }
    }

    /// Filling a line directly — what a cache set does with an invalid line
    /// after a flush, whichever line the policy would have evicted — updates
    /// both twins alike.
    #[test]
    fn fills_of_any_line_agree((kind, assoc, word, _) in packed_case()) {
        let (mut packed, mut reference) = twins(kind, assoc);
        for &input in &word {
            match input {
                PolicyInput::Line(i) => {
                    packed.on_insert(usize::from(i));
                    reference.on_insert(usize::from(i));
                }
                PolicyInput::Evct => {
                    prop_assert_eq!(packed.apply(input), reference.apply(input));
                }
            }
            prop_assert_eq!(packed.state_key(), reference.state_key());
        }
    }

    /// `reset` returns both twins to the same canonical initial state from
    /// any reachable state.
    #[test]
    fn reset_agrees_from_any_reachable_state((kind, assoc, word, _) in packed_case()) {
        let (mut packed, mut reference) = twins(kind, assoc);
        for &input in &word {
            packed.apply(input);
            reference.apply(input);
        }
        packed.reset();
        reference.reset();
        prop_assert_eq!(packed.state_key(), reference.state_key());
    }

    /// Cloning a packed policy mid-walk preserves the exact control state:
    /// the clone and the original (and the reference) stay in lock-step on a
    /// continuation word.
    #[test]
    fn clones_preserve_mid_walk_state(
        (kind, assoc, word, _) in packed_case(),
        (_, _, continuation, _) in packed_case(),
    ) {
        let (mut packed, mut reference) = twins(kind, assoc);
        for &input in &word {
            packed.apply(input);
            reference.apply(input);
        }
        let mut cloned = packed.clone_box();
        for &input in &continuation {
            // The continuation was drawn for a possibly different
            // associativity; clamp line indices into range.
            let input = match input {
                PolicyInput::Line(i) => PolicyInput::line(usize::from(i) % assoc),
                PolicyInput::Evct => PolicyInput::Evct,
            };
            let c = cloned.apply(input);
            let r = reference.apply(input);
            prop_assert_eq!(c, r, "{}@{}: clone diverged", kind, assoc);
        }
        prop_assert_eq!(cloned.state_key(), reference.state_key());
    }
}
