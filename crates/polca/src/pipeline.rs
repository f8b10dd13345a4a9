//! The end-to-end learning pipeline: Polca + L* + Wp-method over either a
//! software-simulated cache (§6) or simulated hardware through CacheQuery
//! (§7).

use std::sync::Arc;
use std::time::Duration;

use automata::minimize;
use cache::LevelId;
use cachequery::{CacheQuery, ResetSequence, Target};
use hardware::{CpuModel, SimulatedCpu};
use learning::{
    learn_mealy, LearnError, LearnOptions, LearnPhase, LearnProgress, LearnStats, WpMethodOracle,
};
use obs::Recorder;
use policies::{policy_alphabet, PolicyKind, PolicyMealy};

use crate::cache_oracle::{CacheOracle, CacheQueryOracle, SimulatedCacheOracle};
use crate::membership::PolcaOracle;

/// Configuration of a learning run.
#[derive(Debug, Clone)]
pub struct LearnSetup {
    /// Extra depth `k` of the conformance test suite (§3.4; the paper uses 1).
    pub conformance_depth: usize,
    /// Upper bound on the hypothesis size.
    pub max_states: usize,
    /// Wall-clock budget (the paper's §6 experiments use 36 hours; harness
    /// defaults are much smaller).
    pub time_budget: Option<Duration>,
    /// Has no effect: the learner runs one query at a time.  Kept so that
    /// callers which still set it compile.
    pub workers: usize,
    /// Optional live progress counters (hypothesis size, membership queries),
    /// updated once per hypothesis round — the job layer polls these while a
    /// run is in flight.
    pub progress: Option<Arc<LearnProgress>>,
    /// Optional span recorder: the learner emits its per-phase spans into it
    /// (see [`learning::LearnOptions::recorder`]), and engine-backed
    /// pipelines attach it to their [`cachequery::QueryEngine`] so the batch
    /// and vote-escalation spans land in the same timeline.
    pub recorder: Option<Arc<Recorder>>,
}

impl Default for LearnSetup {
    fn default() -> Self {
        LearnSetup {
            conformance_depth: 1,
            max_states: 1 << 16,
            time_budget: None,
            workers: 0,
            progress: None,
            recorder: None,
        }
    }
}

impl LearnSetup {
    /// The [`LearnOptions`] equivalent of this setup.
    fn options(&self) -> LearnOptions {
        LearnOptions {
            max_states: self.max_states,
            time_budget: self.time_budget,
            progress: self.progress.clone(),
            recorder: self.recorder.clone(),
            ..LearnOptions::default()
        }
    }
}

/// One L* phase of a campaign, reduced to the plain facts a status protocol
/// reports: its name, the membership queries it issued, and its wall-clock
/// share.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseProfile {
    /// Phase name (`table_fill`, `closure`, `equivalence`, `identification`).
    pub name: String,
    /// Membership queries attributed to this phase.
    pub queries: u64,
    /// Wall-clock time spent in this phase, in milliseconds.
    pub millis: u64,
}

/// The per-phase profile of one learning campaign: where the membership
/// queries and the wall-clock time went, phase by phase (§5's learner loop).
///
/// Phase attribution is exact — the learner's regions partition its whole
/// loop — so [`CampaignProfile::total_queries`] equals the campaign's
/// [`LearnStats::membership_queries`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CampaignProfile {
    /// One entry per L* phase, in [`LearnPhase::ALL`] order.
    pub phases: Vec<PhaseProfile>,
}

impl CampaignProfile {
    /// Builds the profile from a finished run's statistics.
    pub fn from_stats(stats: &LearnStats) -> Self {
        CampaignProfile {
            phases: LearnPhase::ALL
                .iter()
                .map(|&phase| {
                    let s = stats.phases.get(phase);
                    PhaseProfile {
                        name: phase.name().to_string(),
                        queries: s.queries,
                        millis: s.duration.as_millis() as u64,
                    }
                })
                .collect(),
        }
    }

    /// Membership queries summed over all phases (equals the run's total).
    pub fn total_queries(&self) -> u64 {
        self.phases.iter().map(|p| p.queries).sum()
    }

    /// The profile entry for `name`, if present.
    pub fn phase(&self, name: &str) -> Option<&PhaseProfile> {
        self.phases.iter().find(|p| p.name == name)
    }
}

/// Result of a learning run.
#[derive(Debug, Clone)]
pub struct LearnOutcome {
    /// The learned (and minimized) policy automaton.
    pub machine: PolicyMealy,
    /// Learner statistics: membership/equivalence queries, cache hit rate,
    /// conformance tests, counterexamples, wall-clock time.
    pub stats: LearnStats,
    /// Cache probes issued by Polca (session steps and speculative probes
    /// included).
    pub cache_probes: u64,
    /// Individual block accesses issued by Polca.
    pub block_accesses: u64,
    /// Per-phase query/duration breakdown of the run (derived from
    /// [`LearnStats::phases`]; its query counts sum to
    /// [`LearnStats::membership_queries`] exactly).
    pub profile: CampaignProfile,
}

/// Learns the replacement policy of an arbitrary [`CacheOracle`].
///
/// This is the generic pipeline: Polca provides membership queries, a
/// Wp-method conformance oracle provides equivalence queries, and the learned
/// machine is minimized before being returned.  The cache oracle doubles as
/// the oracle *factory*: the learner drives one clone, and clones share their
/// probe counters, so a retained clone reports the run's statistics in
/// [`LearnOutcome`].
///
/// # Errors
///
/// Propagates learner errors ([`LearnError`]), including oracle failures and
/// detected nondeterminism.
pub fn learn_policy<C>(cache: C, setup: &LearnSetup) -> Result<LearnOutcome, LearnError>
where
    C: CacheOracle + Clone + Send + 'static,
{
    let associativity = cache.associativity();
    let alphabet = policy_alphabet(associativity);
    let stats_handle = cache.clone();
    let factory = move || PolcaOracle::new(cache.clone());
    let mut equivalence = WpMethodOracle::new(setup.conformance_depth);
    let (machine, stats) = learn_mealy(alphabet, &factory, &mut equivalence, setup.options())?;
    let profile = CampaignProfile::from_stats(&stats);
    Ok(LearnOutcome {
        machine: minimize(&machine),
        stats,
        cache_probes: stats_handle.probes(),
        block_accesses: stats_handle.block_accesses(),
        profile,
    })
}

/// Learns a named policy from a noiseless software-simulated cache (the §6
/// case study).
///
/// # Errors
///
/// Returns an error if the policy does not support the associativity or if
/// learning fails.
pub fn learn_simulated_policy(
    kind: PolicyKind,
    associativity: usize,
    setup: &LearnSetup,
) -> Result<LearnOutcome, LearnError> {
    let cache = SimulatedCacheOracle::new(kind, associativity)
        .map_err(|e| LearnError::Oracle(learning::OracleError::new(e.to_string())))?;
    learn_policy(cache, setup)
}

/// Learns a named policy through a fault-injecting simulated backend
/// ([`NoisySimBackend`](crate::NoisySimBackend)): the noise-robustness form
/// of [`learn_simulated_policy`].
///
/// Every probe flows through a memoizing `QueryEngine` whose majority vote
/// (repetitions + escalation, see `cachequery::VoteConfig`) must absorb the
/// injected faults; at the rates the noise subsystem targets (≤ 10%) the
/// learned automaton is byte-identical to the noise-free run, which
/// `tests/learn_noisy.rs` pins.  The engine's `VoteConfig` is passed in
/// explicitly so tests can also prove the *negative*: with
/// `VoteConfig::disabled()` the same fault rates corrupt or abort the run.
///
/// # Errors
///
/// Returns an error if the policy does not support the associativity, or if
/// learning fails (with voting disabled, the expected outcome).
pub fn learn_noisy_policy(
    kind: PolicyKind,
    associativity: usize,
    noise: cachequery::NoiseSpec,
    voting: cachequery::VoteConfig,
    setup: &LearnSetup,
) -> Result<LearnOutcome, LearnError> {
    let backend = crate::noisy_sim_backend(kind, associativity, noise)
        .map_err(|e| LearnError::Oracle(learning::OracleError::new(e.to_string())))?;
    let mut engine = cachequery::QueryEngine::new(backend);
    engine.set_vote_config(voting);
    engine.set_recorder(setup.recorder.clone());
    let oracle = CacheQueryOracle::from_engine(engine).map_err(LearnError::Oracle)?;
    learn_policy(oracle, setup)
}

/// Learns a named policy through a two-level inclusive hierarchy
/// ([`HierarchyBackend`](crate::HierarchyBackend)): the cache-filtering form
/// of [`learn_simulated_policy`].
///
/// Every probe traverses the full [`cache::Hierarchy`] — the policy under
/// learning governs a single-set L1 with an inclusive L2 interposed — yet
/// the filtered block placement keeps the L2 from ever evicting a live
/// block, so the learned automaton is byte-identical to the bare-policy run
/// (which `tests/learn_hierarchy.rs` pins).
///
/// # Errors
///
/// Returns an error if the policy does not support the associativity or if
/// learning fails.
pub fn learn_hierarchy_policy(
    kind: PolicyKind,
    associativity: usize,
    setup: &LearnSetup,
) -> Result<LearnOutcome, LearnError> {
    let backend = crate::HierarchyBackend::new(kind, associativity)
        .map_err(|e| LearnError::Oracle(learning::OracleError::new(e.to_string())))?;
    let mut engine = cachequery::QueryEngine::new(backend);
    engine.set_recorder(setup.recorder.clone());
    let oracle = CacheQueryOracle::from_engine(engine).map_err(LearnError::Oracle)?;
    learn_policy(oracle, setup)
}

/// Configuration of a hardware learning run (§7).
#[derive(Debug, Clone)]
pub struct HardwareTarget {
    /// The CPU model to simulate.
    pub model: CpuModel,
    /// The cache set to learn.
    pub target: Target,
    /// Reset sequence (Table 4).
    pub reset: ResetSequence,
    /// If set, restrict the last-level cache to this many ways with CAT
    /// before learning (Table 4 reduces the Skylake/Kaby Lake L3 to 4 ways).
    pub cat_ways: Option<usize>,
    /// Seed of the simulated machine.
    pub seed: u64,
}

/// Learns the replacement policy of one cache set of a simulated CPU through
/// the full CacheQuery pipeline.
///
/// The learner probes the one target set a query at a time, as it must on
/// real silicon, where there is only one cache.
///
/// # Errors
///
/// Propagates CacheQuery errors (e.g. CAT being unsupported on the Haswell
/// model) and learner errors, including the nondeterminism failures expected
/// on adaptive follower sets.
pub fn learn_hardware_policy(
    hardware: &HardwareTarget,
    setup: &LearnSetup,
) -> Result<LearnOutcome, LearnError> {
    let cpu = SimulatedCpu::new(hardware.model, hardware.seed);
    let mut tool = CacheQuery::new(cpu);
    tool.set_reset_sequence(hardware.reset.clone());
    if let Some(ways) = hardware.cat_ways {
        tool.apply_cat(ways)
            .map_err(|e| LearnError::Oracle(learning::OracleError::new(e.to_string())))?;
    }
    tool.set_target(hardware.target)
        .map_err(|e| LearnError::Oracle(learning::OracleError::new(e.to_string())))?;
    let mut oracle = CacheQueryOracle::new(tool).map_err(LearnError::Oracle)?;
    oracle.engine_mut().set_recorder(setup.recorder.clone());
    learn_policy(oracle, setup)
}

impl HardwareTarget {
    /// Convenience constructor for an L1 target (always learnable with
    /// Flush+Refill on the modelled CPUs).
    pub fn l1(model: CpuModel, set: usize, seed: u64) -> Self {
        HardwareTarget {
            model,
            target: Target::new(LevelId::L1, set, 0),
            reset: ResetSequence::FlushRefill,
            cat_ways: None,
            seed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use automata::check_equivalence;
    use policies::policy_to_mealy;

    #[test]
    fn learns_lru_2_exactly() {
        let outcome = learn_simulated_policy(PolicyKind::Lru, 2, &LearnSetup::default()).unwrap();
        assert_eq!(outcome.machine.num_states(), 2);
        let reference = policy_to_mealy(PolicyKind::Lru.build(2).unwrap().as_ref(), 100);
        assert!(check_equivalence(&outcome.machine, &reference).is_none());
        assert!(outcome.cache_probes > 0);
        assert!(outcome.block_accesses >= outcome.cache_probes);
    }

    #[test]
    fn learns_the_table_2_small_policies() {
        // A sample of Table 2 at small associativities; the learned state
        // counts must match the table exactly.
        let cases = [
            (PolicyKind::Fifo, 4, 4),
            (PolicyKind::Lru, 4, 24),
            (PolicyKind::Plru, 4, 8),
            (PolicyKind::Mru, 4, 14),
            (PolicyKind::SrripHp, 2, 12),
            (PolicyKind::SrripFp, 2, 16),
        ];
        for (kind, assoc, expected_states) in cases {
            let outcome = learn_simulated_policy(kind, assoc, &LearnSetup::default()).unwrap();
            assert_eq!(
                outcome.machine.num_states(),
                expected_states,
                "wrong state count for {kind} at associativity {assoc}"
            );
            let reference = policy_to_mealy(kind.build(assoc).unwrap().as_ref(), 1 << 16);
            assert!(
                check_equivalence(&outcome.machine, &reference).is_none(),
                "{kind} mislearned"
            );
        }
    }

    #[test]
    fn campaign_profile_query_counts_sum_to_the_run_total() {
        let outcome = learn_simulated_policy(PolicyKind::Lru, 4, &LearnSetup::default()).unwrap();
        assert_eq!(
            outcome.profile.total_queries(),
            outcome.stats.membership_queries,
            "phase attribution must partition the run exactly"
        );
        assert_eq!(outcome.profile.phases.len(), 4);
        assert!(outcome.profile.phase("table_fill").unwrap().queries > 0);
        assert!(outcome.profile.phase("equivalence").unwrap().queries > 0);
        assert!(outcome.profile.phase("no_such_phase").is_none());
    }

    #[test]
    fn learning_reports_cache_statistics() {
        let outcome = learn_simulated_policy(PolicyKind::Mru, 4, &LearnSetup::default()).unwrap();
        let stats = outcome.stats;
        assert_eq!(
            stats.membership_queries,
            stats.cache_hits + stats.cache_misses
        );
        assert!(stats.cache_hits > 0, "learning never hit the query cache");
        assert!(stats.conformance_tests > 0);
        assert!(stats.cache_hit_rate() > 0.0);
    }

    #[test]
    fn state_limit_aborts_learning() {
        let setup = LearnSetup {
            max_states: 4,
            ..LearnSetup::default()
        };
        let result = learn_simulated_policy(PolicyKind::Lru, 4, &setup);
        assert!(matches!(result, Err(LearnError::StateLimitExceeded(_))));
    }

    #[test]
    fn hardware_target_constructor_defaults() {
        // Full hardware-path learning runs live in the workspace integration
        // tests (they take seconds to minutes); here we only check the
        // convenience constructor.
        let hw = HardwareTarget::l1(CpuModel::SkylakeI5_6500, 33, 7);
        assert_eq!(hw.target.level, LevelId::L1);
        assert_eq!(hw.target.set, 33);
        assert_eq!(hw.reset, ResetSequence::FlushRefill);
        assert_eq!(hw.cat_ways, None);
        assert!(LearnSetup::default().time_budget.is_none());
    }
}
