//! Teeth test of the statistical non-determinism detector: learning a
//! dueling *follower* set of the simulated adaptive L3 while the duel state
//! is being agitated.
//!
//! A follower set has no fixed policy — it executes whichever of the two
//! leader policies the PSEL counter currently selects.  With the engine's
//! vote-based detection enabled, L* must **abort with evidence**
//! ([`learning::LearnError::NotDeterministic`]) instead of diverging or
//! returning a wrong automaton.  With detection disabled
//! ([`cachequery::VoteConfig::disabled`]), the same run must abort for some
//! other reason or converge on garbage — proving the detector (not luck) is
//! what the positive test exercises, mirroring the voting teeth test in
//! `tests/learn_noisy.rs`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use automata::render_mealy;
use cache::{DuelingRole, HitMiss, LevelId, SetDueling};
use cachequery::{
    Backend, BackendError, QueryBackend, QueryConfig, QueryEngine, Target, VoteConfig,
};
use hardware::{CpuModel, SimulatedCpu};
use learning::LearnError;
use mbl::Query;
use polca::{learn_policy, learn_simulated_policy, CacheQueryOracle, LearnSetup};
use policies::PolicyKind;

/// A follower set of the Skylake-like dueling layout (the leaders of each
/// 64-set period are 0/33 and 31/62).
const FOLLOWER_SET: usize = 1;
const SEED: u64 = 99;
const CAT_WAYS: usize = 2;

/// A [`QueryBackend`] that flips the duel polarity before every raw
/// execution: even executions force the PSEL deep into primary territory,
/// odd ones deep into alternate territory.  A follower set then answers each
/// repetition with a *different* policy — the adversarial environment the
/// detector exists for.  (On real silicon the agitation is co-running
/// traffic; here it is manufactured deterministically.)
#[derive(Clone)]
struct DuelAgitator {
    inner: Backend,
    dueling: SetDueling,
    executions: Arc<AtomicU64>,
}

impl DuelAgitator {
    fn new() -> Self {
        let cpu = SimulatedCpu::new(CpuModel::SkylakeI5_6500, SEED);
        let mut inner = Backend::new(cpu);
        inner
            .apply_cat(CAT_WAYS)
            .expect("the Skylake model supports CAT");
        inner.set_repetitions(5);
        inner
            .select_target(Target::new(LevelId::L3, FOLLOWER_SET, 0))
            .expect("the follower set is in range");
        // The handle must be taken *after* `apply_cat`: CAT rebuilds the
        // hierarchy and with it the dueling controller.
        let dueling = inner
            .cpu()
            .l3_dueling()
            .expect("the Skylake L3 is adaptive");
        assert_eq!(
            inner.cpu().l3_role(FOLLOWER_SET),
            DuelingRole::Follower,
            "the test must target a follower set"
        );
        DuelAgitator {
            inner,
            dueling,
            executions: Arc::new(AtomicU64::new(0)),
        }
    }
}

impl QueryBackend for DuelAgitator {
    fn execute(&mut self, query: &Query) -> Result<(Vec<HitMiss>, bool), BackendError> {
        let n = self.executions.fetch_add(1, Ordering::Relaxed);
        self.dueling.force_psel(if n.is_multiple_of(2) {
            i32::MIN / 2
        } else {
            i32::MAX / 2
        });
        self.inner.execute(query)
    }

    fn config(&self) -> Result<QueryConfig, BackendError> {
        self.inner.config()
    }

    fn associativity(&self) -> Result<usize, BackendError> {
        self.inner.associativity()
    }
}

fn setup() -> LearnSetup {
    LearnSetup {
        max_states: 200,
        time_budget: Some(std::time::Duration::from_secs(120)),
        ..LearnSetup::default()
    }
}

#[test]
fn learning_a_follower_aborts_with_statistical_evidence() {
    let engine = QueryEngine::new(DuelAgitator::new());
    let oracle = CacheQueryOracle::from_engine(engine).expect("the backend is configured");
    match learn_policy(oracle, &setup()) {
        Err(LearnError::NotDeterministic(evidence)) => {
            assert!(
                evidence.disagreement_permille > 0,
                "the verdict must carry a nonzero disagreement rate: {evidence}"
            );
            assert!(
                evidence.worst_margin_permille < 500,
                "the worst vote must fall below the 500‰ margin rule: {evidence}"
            );
            assert!(
                !evidence.worst_query.is_empty(),
                "the verdict must name the worst query"
            );
            assert!(evidence.voted_queries > 0 && evidence.unsettled_queries > 0);
        }
        Err(other) => panic!("expected a NotDeterministic verdict, got: {other}"),
        Ok(outcome) => panic!(
            "learning a dueling follower under agitation converged on a {}-state machine — \
             the non-determinism detector has no teeth",
            outcome.machine.num_states()
        ),
    }
}

#[test]
fn disabling_detection_breaks_follower_learning() {
    // Same follower, same agitation, voting off: every query is a single
    // measurement taken under whichever polarity the flip counter landed on.
    // The learner must abort for some other reason or converge on garbage —
    // it must NOT reproduce the primary leader policy's automaton.
    let reference = learn_simulated_policy(PolicyKind::New2, CAT_WAYS, &setup())
        .expect("the primary policy learns noise-free");
    let mut engine = QueryEngine::new(DuelAgitator::new());
    engine.set_vote_config(VoteConfig::disabled());
    let oracle = CacheQueryOracle::from_engine(engine).expect("the backend is configured");
    match learn_policy(oracle, &setup()) {
        Err(LearnError::NotDeterministic(evidence)) => {
            panic!("voting is disabled, yet the run produced a statistical verdict: {evidence}")
        }
        Err(_) => {} // aborted (oracle inconsistency, state cap, budget): expected
        Ok(outcome) => {
            assert_ne!(
                render_mealy(&outcome.machine),
                render_mealy(&reference.machine),
                "detection-disabled learning of an agitated follower reproduced the \
                 primary policy's automaton — the agitation is not reaching the learner \
                 and this suite has no teeth"
            );
        }
    }
}
