//! Learning under injected noise: the headline guarantee of the
//! noise-robustness subsystem.
//!
//! Learning through a fault-injecting [`NoisySimBackend`] at a 5% per-access
//! flip rate with the engine's majority vote enabled must recover the
//! **byte-identical** automaton (text rendering and state count) of the
//! noise-free run — the simulated analogue of the paper's §5 claim that
//! repetition and majority voting make noisy hardware measurements usable
//! for exact learning.
//!
//! The suite also pins the *negative*: with voting disabled, the same fault
//! rate corrupts or aborts the run — proving the voting layer (not luck) is
//! what the positive test exercises.

use automata::render_mealy;
use cachequery::{NoiseSpec, VoteConfig};
use polca::{learn_noisy_policy, learn_simulated_policy, LearnSetup};
use policies::PolicyKind;

/// 5% per-access classification flips, the rate the subsystem targets.
const FLIP_RATE: NoiseSpec = NoiseSpec {
    flip_permille: 50,
    drop_permille: 0,
    evict_permille: 0,
    seed: 2024,
};

fn assert_noisy_learning_matches_clean(kind: PolicyKind, assoc: usize, expected_states: usize) {
    let clean =
        learn_simulated_policy(kind, assoc, &LearnSetup::default()).expect("noise-free learning");
    let noisy = learn_noisy_policy(
        kind,
        assoc,
        FLIP_RATE,
        VoteConfig::default(),
        &LearnSetup::default(),
    )
    .unwrap_or_else(|e| panic!("{kind}/{assoc} failed to learn under 5% flips: {e}"));

    assert_eq!(
        noisy.machine.num_states(),
        expected_states,
        "{kind}/{assoc} learned under noise must reproduce its Table 2 state count"
    );
    assert_eq!(
        render_mealy(&noisy.machine),
        render_mealy(&clean.machine),
        "{kind}/{assoc}: the automaton learned under 5% flips diverged from the clean run"
    );
    assert_eq!(
        noisy.stats.membership_queries, clean.stats.membership_queries,
        "{kind}/{assoc}: voting changed the learner's membership-query count"
    );
}

#[test]
fn lru_4_learned_under_noise_is_byte_identical() {
    assert_noisy_learning_matches_clean(PolicyKind::Lru, 4, 24);
}

#[test]
fn srrip_fp_2_learned_under_noise_is_byte_identical() {
    assert_noisy_learning_matches_clean(PolicyKind::SrripFp, 2, 16);
}

#[test]
fn disabling_the_vote_breaks_learning_at_the_same_rate() {
    // Same policy, same fault stream, voting off: every query is a single
    // corrupted measurement.  Polca then either detects the inconsistency
    // (a tracked block "misses", a fresh block "hits", no evicted line is
    // found — all oracle errors) or the learner converges on garbage.  A
    // time budget and state cap bound the garbage path.
    let setup = LearnSetup {
        max_states: 200,
        time_budget: Some(std::time::Duration::from_secs(120)),
        ..LearnSetup::default()
    };
    let clean = learn_simulated_policy(PolicyKind::Lru, 4, &setup).expect("noise-free learning");
    match learn_noisy_policy(
        PolicyKind::Lru,
        4,
        FLIP_RATE,
        VoteConfig::disabled(),
        &setup,
    ) {
        Err(_) => {} // aborted: the expected outcome
        Ok(outcome) => {
            assert_ne!(
                render_mealy(&outcome.machine),
                render_mealy(&clean.machine),
                "voting-disabled learning at 5% flips reproduced the clean automaton — \
                 the fault injection is not reaching the learner and this suite has no teeth"
            );
        }
    }
}
