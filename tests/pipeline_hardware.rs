//! Integration tests for the §7 pipeline: CacheQuery against the simulated
//! silicon CPUs, Polca, and the learner — including the negative results the
//! paper reports (wrong reset sequences, adaptive follower sets).

use cache::LevelId;
use cachequery::{ResetSequence, Target};
use hardware::CpuModel;
use polca::{identify_policy, learn_hardware_policy, HardwareTarget, LearnSetup};
use policies::PolicyKind;

fn setup() -> LearnSetup {
    LearnSetup {
        conformance_depth: 1,
        max_states: 1024,
        time_budget: Some(std::time::Duration::from_secs(600)),
        ..LearnSetup::default()
    }
}

#[test]
fn skylake_l3_leader_set_under_cat_learns_new2() {
    // Table 4: the Skylake L3 leader sets run the undocumented New2 policy
    // and can be learned with a plain Flush+Refill reset.  CAT is used to
    // reduce the associativity (the paper uses 4; 2 keeps the test fast).
    let hardware = HardwareTarget {
        model: CpuModel::SkylakeI5_6500,
        target: Target::new(LevelId::L3, 33, 0),
        reset: ResetSequence::FlushRefill,
        cat_ways: Some(2),
        seed: 11,
    };
    let outcome = learn_hardware_policy(&hardware, &setup()).expect("leader sets are learnable");
    let identified = identify_policy(&outcome.machine, 2, &PolicyKind::ALL_DETERMINISTIC);
    assert_eq!(
        identified.map(|(k, _)| k),
        Some(PolicyKind::New2),
        "the leader set policy was not identified as New2 ({} states)",
        outcome.machine.num_states()
    );
}

#[test]
fn skylake_l2_with_flush_refill_reset_is_rejected_as_nondeterministic() {
    // Table 4: Flush+Refill is not a valid reset sequence for the Skylake L2;
    // the paper notes that wrong reset sequences surface as nondeterminism
    // during learning.  The pipeline must fail rather than return a machine.
    let hardware = HardwareTarget {
        model: CpuModel::SkylakeI5_6500,
        target: Target::new(LevelId::L2, 63, 0),
        reset: ResetSequence::FlushRefill,
        cat_ways: None,
        seed: 11,
    };
    let result = learn_hardware_policy(&hardware, &setup());
    assert!(
        result.is_err(),
        "learning with a wrong reset sequence unexpectedly succeeded"
    );
}

#[test]
fn haswell_l3_cannot_be_learned_because_cat_is_unsupported() {
    let hardware = HardwareTarget {
        model: CpuModel::HaswellI7_4790,
        target: Target::new(LevelId::L3, 512, 0),
        reset: ResetSequence::FlushRefill,
        cat_ways: Some(4),
        seed: 11,
    };
    let result = learn_hardware_policy(&hardware, &setup());
    assert!(
        result.is_err(),
        "CAT should not be available on the Haswell model"
    );
}

#[test]
fn skylake_l2_with_the_table_4_reset_sequence_starts_learning_cleanly() {
    // With the custom reset sequence of Table 4 the very same cache set that
    // rejects Flush+Refill answers membership queries consistently.  (The
    // complete 160-state learning run lives in the table4 benchmark binary;
    // here we verify a healthy prefix of the interaction.)
    use cachequery::{Backend, QueryEngine};
    use hardware::SimulatedCpu;
    use learning::MembershipOracle;
    use polca::{CacheQueryOracle, PolcaOracle};
    use policies::PolicyInput;

    let mut backend = Backend::new(SimulatedCpu::new(CpuModel::SkylakeI5_6500, 11));
    backend.set_reset_sequence(ResetSequence::Custom("D C B A @".to_string()));
    let oracle =
        CacheQueryOracle::new(QueryEngine::new(backend), Target::new(LevelId::L2, 63, 0)).unwrap();
    let mut polca = PolcaOracle::new(oracle);
    // A batch of words that exercises hits, misses and findEvicted; asking
    // twice must give identical answers (the determinism the learner needs).
    let words = [
        vec![PolicyInput::Evct, PolicyInput::Evct, PolicyInput::Evct],
        vec![
            PolicyInput::Line(0),
            PolicyInput::Evct,
            PolicyInput::Line(2),
            PolicyInput::Evct,
        ],
        vec![
            PolicyInput::Line(3),
            PolicyInput::Line(3),
            PolicyInput::Evct,
            PolicyInput::Evct,
        ],
    ];
    for word in &words {
        let first = polca.query(word).expect("oracle answers");
        let second = polca.query(word).expect("oracle answers again");
        assert_eq!(first, second, "inconsistent answers for {word:?}");
    }
}
