//! Learning *through* a two-level inclusive hierarchy: the cache-filtering
//! guarantee of the cartography subsystem.
//!
//! Every probe of a [`polca::HierarchyBackend`] traverses a full
//! [`cache::Hierarchy`] — the policy under learning governs a single-set L1
//! with an inclusive L2 interposed — instead of a bare policy simulator.
//! The filtered placement must be *transparent*: the automaton learned
//! through the hierarchy is **byte-identical** (text rendering and state
//! count) to the bare-policy run, and it survives the differential
//! conformance harness against the executable ground-truth policy.

use automata::render_mealy;
use polca::{conformance_walk, learn_hierarchy_policy, learn_simulated_policy, LearnSetup};
use policies::PolicyKind;

fn assert_hierarchy_learning_matches_bare(kind: PolicyKind, assoc: usize, expected_states: usize) {
    let bare =
        learn_simulated_policy(kind, assoc, &LearnSetup::default()).expect("bare-policy learning");
    let filtered = learn_hierarchy_policy(kind, assoc, &LearnSetup::default())
        .unwrap_or_else(|e| panic!("{kind}/{assoc} failed to learn through the hierarchy: {e}"));

    assert_eq!(
        filtered.machine.num_states(),
        expected_states,
        "{kind}/{assoc} learned through the hierarchy must reproduce its Table 2 state count"
    );
    assert_eq!(
        render_mealy(&filtered.machine),
        render_mealy(&bare.machine),
        "{kind}/{assoc}: the automaton learned through the inclusive L2 diverged \
         from the bare-policy run — the hierarchy is not transparent"
    );
    assert_eq!(
        filtered.stats.membership_queries, bare.stats.membership_queries,
        "{kind}/{assoc}: the hierarchy changed the learner's membership-query count"
    );

    // Third, independent angle: random-walk the filtered automaton against
    // the executable ground-truth policy simulator.
    let report = conformance_walk(&filtered.machine, kind, assoc, 4000, 0xCAFE)
        .expect("the policy supports the associativity");
    assert!(
        report.passed(),
        "{kind}/{assoc}: the hierarchy-learned automaton diverged from the \
         ground-truth simulator: {:?}",
        report.divergence
    );
}

#[test]
fn lru_4_learned_through_the_hierarchy_is_byte_identical() {
    assert_hierarchy_learning_matches_bare(PolicyKind::Lru, 4, 24);
}

#[test]
fn plru_4_learned_through_the_hierarchy_is_byte_identical() {
    assert_hierarchy_learning_matches_bare(PolicyKind::Plru, 4, 8);
}

#[test]
fn srrip_fp_2_learned_through_the_hierarchy_is_byte_identical() {
    assert_hierarchy_learning_matches_bare(PolicyKind::SrripFp, 2, 16);
}
