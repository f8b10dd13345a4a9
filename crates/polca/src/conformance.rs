//! Differential conformance: random-walk a learned policy automaton against
//! the ground-truth executable policy and report the first divergence.
//!
//! The pinned Table 2 state counts say a learned machine has the right
//! *size*; [`check_equivalence`](automata::check_equivalence) says it equals
//! the explored ground-truth *machine*.  The random walk adds a third,
//! independent angle: it drives the learned automaton and the executable
//! [`ReplacementPolicy`](policies::ReplacementPolicy) — the very simulator
//! the caches are built from, no Mealy construction in the loop — with the
//! same seeded input stream and compares outputs step by step.  It is cheap
//! enough to run for thousands of steps per policy, usable both from tests
//! and as the `conformance` CLI workload in `crates/bench`.

use automata::{random_walk_check, WalkDivergence};
use policies::{PolicyError, PolicyInput, PolicyKind, PolicyMealy, PolicyOutput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The first disagreement of a conformance walk.
pub type ConformanceDivergence = WalkDivergence<PolicyInput, PolicyOutput>;

/// Result of one conformance walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConformanceReport {
    /// The policy walked against.
    pub kind: PolicyKind,
    /// Its associativity.
    pub associativity: usize,
    /// Steps requested.
    pub steps: usize,
    /// The first divergence, if any (`None` is the pass verdict).
    pub divergence: Option<ConformanceDivergence>,
}

impl ConformanceReport {
    /// Whether the walk completed without a divergence.
    pub fn passed(&self) -> bool {
        self.divergence.is_none()
    }
}

/// Random-walks `machine` against a fresh ground-truth simulator of `kind`
/// at `associativity` for `steps` steps, drawing inputs from a generator
/// seeded with `seed`.
///
/// The machine must have been learned from the canonical initial state
/// `cc0` with identity line naming (what [`learn_policy`](crate::learn_policy)
/// produces for simulated caches), so machine and simulator start aligned.
///
/// # Errors
///
/// Returns a [`PolicyError`] if the policy does not support the
/// associativity.
///
/// # Example
///
/// ```
/// use polca::{conformance_walk, learn_simulated_policy, LearnSetup};
/// use policies::PolicyKind;
///
/// let outcome = learn_simulated_policy(PolicyKind::Lru, 2, &LearnSetup::default()).unwrap();
/// let report = conformance_walk(&outcome.machine, PolicyKind::Lru, 2, 500, 7).unwrap();
/// assert!(report.passed());
/// ```
pub fn conformance_walk(
    machine: &PolicyMealy,
    kind: PolicyKind,
    associativity: usize,
    steps: usize,
    seed: u64,
) -> Result<ConformanceReport, PolicyError> {
    let mut policy = kind.build(associativity)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let divergence = random_walk_check(
        machine,
        |input: &PolicyInput| policy.apply(*input),
        steps,
        |n| rng.gen_range(0..n),
    );
    Ok(ConformanceReport {
        kind,
        associativity,
        steps,
        divergence,
    })
}

/// The [`LearnSetup`](crate::LearnSetup) that learns *exactly* at small
/// sizes: conformance depth 2 below associativity 4, depth 1 at 4 and above.
///
/// With depth 1 the Wp-method only guarantees exactness while the true
/// machine has at most one state more than the hypothesis (Theorem 3.3);
/// MRU at associativity 3 genuinely stalls at 4 of its 6 states under depth
/// 1 — the first divergence this harness ever reported.  Depth 2 restores
/// the guarantee at the small sizes, and at associativity 4 depth 1 already
/// learns exactly while depth 2 would blow up the 256-state Wp suites.
pub fn exact_learn_setup(associativity: usize) -> crate::LearnSetup {
    crate::LearnSetup {
        conformance_depth: if associativity < 4 { 2 } else { 1 },
        ..crate::LearnSetup::default()
    }
}

/// Every `(kind, associativity)` pair the conformance harness covers for
/// ways `1..=max_assoc`: all deterministic policies of the paper, at each
/// associativity they support.
pub fn conformance_cases(max_assoc: usize) -> Vec<(PolicyKind, usize)> {
    let mut cases = Vec::new();
    for assoc in 1..=max_assoc {
        for kind in PolicyKind::ALL_DETERMINISTIC {
            if kind.supports_associativity(assoc) {
                cases.push((kind, assoc));
            }
        }
    }
    cases
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{learn_simulated_policy, LearnSetup};
    use policies::policy_to_mealy;

    #[test]
    fn learned_machines_survive_long_walks() {
        let outcome = learn_simulated_policy(PolicyKind::Plru, 4, &LearnSetup::default()).unwrap();
        for seed in [1u64, 2, 3] {
            let report =
                conformance_walk(&outcome.machine, PolicyKind::Plru, 4, 2000, seed).unwrap();
            assert!(report.passed(), "PLRU/4 diverged: {:?}", report.divergence);
        }
    }

    #[test]
    fn a_wrong_machine_is_caught() {
        // Walk the FIFO ground truth against the LRU simulator: the walk
        // must find a divergence and report its position.
        let fifo = policy_to_mealy(PolicyKind::Fifo.build(4).unwrap().as_ref(), 1 << 16);
        let report = conformance_walk(&fifo, PolicyKind::Lru, 4, 5000, 99).unwrap();
        let divergence = report.divergence.expect("FIFO cannot emulate LRU");
        assert_eq!(divergence.inputs.len(), divergence.step + 1);
        assert_ne!(divergence.expected, divergence.actual);
    }

    #[test]
    fn walks_are_reproducible_per_seed() {
        let fifo = policy_to_mealy(PolicyKind::Fifo.build(2).unwrap().as_ref(), 1 << 16);
        let a = conformance_walk(&fifo, PolicyKind::Lru, 2, 1000, 5).unwrap();
        let b = conformance_walk(&fifo, PolicyKind::Lru, 2, 1000, 5).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn the_case_list_covers_every_supported_policy() {
        let cases = conformance_cases(4);
        // 9 deterministic policies at ways 2 and 4; PLRU drops out at 3, and
        // PLRU and MRU at 1.
        assert_eq!(cases.iter().filter(|(_, a)| *a == 1).count(), 7);
        assert!(!cases.iter().any(|(k, a)| *k == PolicyKind::Mru && *a == 1));
        assert_eq!(cases.iter().filter(|(_, a)| *a == 2).count(), 9);
        assert_eq!(cases.iter().filter(|(_, a)| *a == 3).count(), 8);
        assert_eq!(cases.iter().filter(|(_, a)| *a == 4).count(), 9);
        assert!(!cases.iter().any(|(k, a)| *k == PolicyKind::Plru && *a == 3));
        assert!(!cases.iter().any(|(k, _)| *k == PolicyKind::Brrip));
    }
}
