//! Whole-cache policy cartography: classify and learn every set of a
//! simulated adaptive CPU.
//!
//! The paper's per-set experiments (Appendix B) stop at *finding* the leader
//! sets; the cartography campaign goes the rest of the way and produces a
//! complete map of a cache level:
//!
//! 1. [`detect_leader_sets_with`] classifies every candidate set as a
//!    thrash-vulnerable leader, a thrash-resistant leader, or a follower —
//!    from an arbitrary initial duel state, thanks to the down-drive phase;
//! 2. each *leader group* gets one learning campaign on a representative set
//!    (leaders implement a fixed policy, so one automaton describes the whole
//!    group), identified against the policy library; campaigns run through a
//!    shared [`QueryStore`], so remapping the same CPU dedupes by namespace
//!    and re-serves every answer from the store;
//! 3. every *follower* set is probed for statistical evidence of its
//!    adaptivity: the duel is forced to each polarity in turn
//!    ([`cache::SetDueling::force_psel`]) and the same thrashing query is
//!    executed under both — a fixed-policy set answers identically, a
//!    follower flips, and the disagreement rate (in permille) goes into the
//!    report.
//!
//! The result is a [`CacheMap`]: one verdict per set, plus the per-group
//! learning outcomes.  The `cqd` protocol exposes the campaign as the v5
//! `map` request, and the `cartography` bench binary checks a whole
//! simulated LLC against its planted ground truth in CI.

use std::sync::Arc;

use cache::LevelId;
use cachequery::{
    detect_leader_sets_with, thrashing_query, Backend, BackendError, LeaderClass,
    LeaderDetectConfig, QueryBackend, QueryEngine, QueryStore, Target,
};
use hardware::SimulatedCpu;
use learning::{LearnError, NonDeterminism};
use policies::PolicyKind;

use crate::cache_oracle::CacheQueryOracle;
use crate::identify::identify_policy;
use crate::pipeline::{learn_policy, LearnSetup};

/// Configuration of a cartography campaign.
#[derive(Debug, Clone)]
pub struct MapConfig {
    /// The CPU model to map (geometry and policies come from its spec).
    pub model: hardware::CpuModel,
    /// Seed of the simulated machine.
    pub seed: u64,
    /// If set, restrict the last-level cache to this many ways with CAT
    /// before the campaign (Table 4 reduces the Skylake L3 to 4 ways, which
    /// shrinks the learned automata dramatically).
    pub cat_ways: Option<usize>,
    /// The slice whose sets are mapped.
    pub slice: usize,
    /// The set indices (within [`MapConfig::slice`]) to map.
    pub sets: Vec<usize>,
    /// Tuning of the leader-detection phases.
    pub detect: LeaderDetectConfig,
    /// Rounds of the follower flip probe: each round runs the thrashing
    /// query once per duel polarity and compares the outcomes.
    pub probe_rounds: usize,
    /// Reference policies the learned group automata are identified against.
    pub candidates: Vec<PolicyKind>,
    /// Learning configuration for the per-group campaigns.
    pub setup: LearnSetup,
}

impl MapConfig {
    /// A campaign over `sets` of slice 0 of `model` with default tuning:
    /// CAT down to 4 ways, default detection phases, 3 probe rounds, and the
    /// full deterministic policy library as identification candidates.
    pub fn new(model: hardware::CpuModel, seed: u64, sets: Vec<usize>) -> Self {
        MapConfig {
            model,
            seed,
            cat_ways: Some(4),
            slice: 0,
            sets,
            detect: LeaderDetectConfig::default(),
            probe_rounds: 3,
            candidates: PolicyKind::ALL_DETERMINISTIC.to_vec(),
            setup: LearnSetup::default(),
        }
    }
}

/// Outcome of one leader group's learning campaign.
#[derive(Debug, Clone, PartialEq)]
pub enum GroupOutcome {
    /// The group's fixed policy was learned (and possibly identified).
    Learned {
        /// States of the learned, minimized automaton.
        states: u64,
        /// Membership queries issued by the campaign.
        membership_queries: u64,
        /// Name of the library policy the automaton was identified as (up to
        /// line renaming), if any.
        identified: Option<String>,
    },
    /// The learner aborted with statistical evidence of non-determinism —
    /// the expected verdict for leader groups whose planted policy is
    /// genuinely randomized (e.g. a BRRIP-style bimodal insertion).
    NotDeterministic {
        /// The learner's evidence.
        evidence: NonDeterminism,
    },
    /// The campaign failed for another reason.
    Failed {
        /// The rendered error.
        error: String,
    },
}

/// One leader group of the map: its class, members, and learning outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupReport {
    /// The group's detection class ([`LeaderClass::ThrashVulnerable`] or
    /// [`LeaderClass::ThrashResistant`]).
    pub class: LeaderClass,
    /// All `(set, slice)` members of the group.
    pub members: Vec<(usize, usize)>,
    /// The member whose set the campaign learned.
    pub representative: (usize, usize),
    /// The query-store namespace the campaign filled — the dedupe key:
    /// remapping the same CPU re-serves the whole campaign from the store.
    pub namespace: String,
    /// What the campaign concluded.
    pub outcome: GroupOutcome,
}

/// The per-set verdict of the map.
#[derive(Debug, Clone, PartialEq)]
pub enum SetVerdict {
    /// A leader set implementing its group's learned fixed policy.
    Fixed {
        /// The identified policy name, if identification succeeded.
        policy: Option<String>,
        /// States of the group's learned automaton.
        states: u64,
    },
    /// A leader set whose fixed policy is statistically non-deterministic
    /// (the learner aborted with evidence).
    FixedNonDeterministic {
        /// Fraction of voted queries that never settled, in permille.
        disagreement_permille: u64,
    },
    /// An adaptive follower set, with flip-probe evidence.
    AdaptiveFollower {
        /// Fraction of profiled accesses that changed with the forced duel
        /// polarity, in permille.
        disagreement_permille: u64,
    },
    /// The set could not be mapped.
    Unmapped {
        /// The rendered error.
        error: String,
    },
}

/// One mapped set.
#[derive(Debug, Clone, PartialEq)]
pub struct SetEntry {
    /// Set index within the slice.
    pub set: usize,
    /// Slice index.
    pub slice: usize,
    /// The set's detection class.
    pub class: LeaderClass,
    /// The set's verdict.
    pub verdict: SetVerdict,
}

/// The complete map of one cache level.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheMap {
    /// Short name of the mapped CPU model.
    pub model: String,
    /// The mapped cache level.
    pub level: LevelId,
    /// CAT restriction in effect during the campaign, if any.
    pub cat_ways: Option<usize>,
    /// Per-group learning outcomes (at most one group per leader class).
    pub groups: Vec<GroupReport>,
    /// One entry per mapped set, in the order of [`MapConfig::sets`].
    pub sets: Vec<SetEntry>,
}

impl CacheMap {
    /// The entry for `(set, slice)`, if that set was mapped.
    pub fn entry(&self, set: usize, slice: usize) -> Option<&SetEntry> {
        self.sets.iter().find(|e| e.set == set && e.slice == slice)
    }

    /// The group report for `class`, if a group of that class was found.
    pub fn group(&self, class: LeaderClass) -> Option<&GroupReport> {
        self.groups.iter().find(|g| g.class == class)
    }
}

/// A fresh machine of the campaign's model and seed, with its CAT applied.
fn machine(config: &MapConfig) -> Result<Backend, BackendError> {
    let mut backend = Backend::new(SimulatedCpu::new(config.model, config.seed));
    if let Some(ways) = config.cat_ways {
        backend.apply_cat(ways)?;
    }
    Ok(backend)
}

/// Learns one leader group's policy on a fresh CPU sharing `store`.
fn learn_group(
    config: &MapConfig,
    representative: (usize, usize),
    store: &Arc<QueryStore>,
) -> (String, GroupOutcome) {
    let target = Target::new(LevelId::L3, representative.0, representative.1);
    let oracle = machine(config)
        .map_err(|e| e.to_string())
        .and_then(|backend| {
            let mut engine = QueryEngine::with_store(backend, Arc::clone(store));
            engine.set_recorder(config.setup.recorder.clone());
            CacheQueryOracle::new(engine, target).map_err(|e| e.to_string())
        });
    let oracle = match oracle {
        Ok(oracle) => oracle,
        Err(error) => return (String::new(), GroupOutcome::Failed { error }),
    };
    let namespace = oracle
        .engine()
        .backend()
        .config()
        .map(|c| c.to_string())
        .unwrap_or_default();
    let outcome = match learn_policy(oracle, &config.setup) {
        Ok(outcome) => {
            // The policy alphabet is Ln(0..assoc) plus Evct.
            let assoc = outcome.machine.inputs().len().saturating_sub(1);
            let identified = identify_policy(&outcome.machine, assoc, &config.candidates)
                .map(|(kind, _)| kind.to_string());
            GroupOutcome::Learned {
                states: outcome.machine.num_states() as u64,
                membership_queries: outcome.stats.membership_queries,
                identified,
            }
        }
        Err(LearnError::NotDeterministic(evidence)) => GroupOutcome::NotDeterministic { evidence },
        Err(e) => GroupOutcome::Failed {
            error: e.to_string(),
        },
    };
    (namespace, outcome)
}

/// Runs the cartography campaign described by `config`, memoizing every
/// concrete query (detection probes excepted — they are stateful) in
/// `store`.
///
/// # Errors
///
/// Propagates backend errors from the detection and probe phases (invalid
/// sets, address-selection failures).  Per-group learning failures are
/// reported in the map, not as errors.
pub fn map_cache(config: &MapConfig, store: Arc<QueryStore>) -> Result<CacheMap, BackendError> {
    let recorder = config.setup.recorder.clone();
    let mut root = obs::maybe_span(recorder.as_deref(), "polca.map_cache");
    if let Some(span) = root.as_mut() {
        span.set("sets", config.sets.len() as u64);
        span.set("model", config.model.short_name());
    }
    // Detection and flip probes are stateful experiments: they run on an
    // engine of their own, without memoization, and never reach `store`.
    let backend = machine(config)?;
    // The dueling handle must be taken *after* CAT: applying CAT rebuilds
    // the hierarchy and its dueling controller.
    let dueling = backend.cpu().l3_dueling();
    let mut engine = QueryEngine::new(backend);
    engine.set_memoize(false);
    engine.set_recorder(recorder.clone());

    let candidates: Vec<(usize, usize)> = config.sets.iter().map(|&s| (s, config.slice)).collect();
    let detect_span = root.as_ref().map(|r| r.child("polca.detect_leaders"));
    let report = detect_leader_sets_with(&mut engine, LevelId::L3, &candidates, &config.detect)?;
    drop(detect_span);

    // Phase 2: one learning campaign per leader group.
    let mut groups = Vec::new();
    for class in [LeaderClass::ThrashVulnerable, LeaderClass::ThrashResistant] {
        let members: Vec<(usize, usize)> = report
            .sets
            .iter()
            .filter(|s| s.class == class)
            .map(|s| (s.set, s.slice))
            .collect();
        let Some(&representative) = members.first() else {
            continue;
        };
        let mut group_span = root.as_ref().map(|r| r.child("polca.learn_group"));
        if let Some(span) = group_span.as_mut() {
            span.set("class", format!("{class:?}"));
            span.set("set", representative.0 as u64);
            span.set("members", members.len() as u64);
        }
        let (namespace, outcome) = learn_group(config, representative, &store);
        drop(group_span);
        groups.push(GroupReport {
            class,
            members,
            representative,
            namespace,
            outcome,
        });
    }

    // Phase 3: flip-probe evidence for every follower.  Forcing the duel to
    // each polarity and replaying the same thrashing query exposes the
    // adaptivity directly: fixed sets answer identically, followers flip.
    let mut follower_evidence: Vec<((usize, usize), u64)> = Vec::new();
    let followers = report.adaptive();
    if !followers.is_empty() {
        let mut probe_span = root.as_ref().map(|r| r.child("polca.flip_probes"));
        if let Some(span) = probe_span.as_mut() {
            span.set("followers", followers.len() as u64);
        }
        let probe = thrashing_query(engine.backend().associativity().unwrap_or(4).max(1));
        for &(set, slice) in &followers {
            engine
                .backend_mut()
                .select_target(Target::new(LevelId::L3, set, slice))?;
            let mut disagreements = 0u64;
            let mut total = 0u64;
            for _round in 0..config.probe_rounds.max(1) {
                let (primary, alternate) = match &dueling {
                    Some(d) => {
                        d.force_psel(i32::MIN / 2);
                        let primary = engine.run(&probe)?;
                        d.force_psel(i32::MAX / 2);
                        let alternate = engine.run(&probe)?;
                        (primary, alternate)
                    }
                    // No duel on this CPU: probe twice without forcing (the
                    // outcomes will agree, correctly yielding 0‰ evidence).
                    None => (engine.run(&probe)?, engine.run(&probe)?),
                };
                for (a, b) in primary.outcomes.iter().zip(&alternate.outcomes) {
                    total += 1;
                    if a != b {
                        disagreements += 1;
                    }
                }
            }
            let permille = (disagreements * 1000).checked_div(total).unwrap_or(0);
            follower_evidence.push(((set, slice), permille));
        }
        if let Some(d) = &dueling {
            d.force_psel(0);
        }
    }

    // Assemble the per-set verdicts.
    let sets = report
        .sets
        .iter()
        .map(|info| {
            let verdict = match info.class {
                LeaderClass::Adaptive => {
                    let permille = follower_evidence
                        .iter()
                        .find(|((s, sl), _)| *s == info.set && *sl == info.slice)
                        .map(|(_, p)| *p)
                        .unwrap_or(0);
                    SetVerdict::AdaptiveFollower {
                        disagreement_permille: permille,
                    }
                }
                class => match groups.iter().find(|g| g.class == class) {
                    Some(group) => match &group.outcome {
                        GroupOutcome::Learned {
                            states, identified, ..
                        } => SetVerdict::Fixed {
                            policy: identified.clone(),
                            states: *states,
                        },
                        GroupOutcome::NotDeterministic { evidence } => {
                            SetVerdict::FixedNonDeterministic {
                                disagreement_permille: evidence.disagreement_permille,
                            }
                        }
                        GroupOutcome::Failed { error } => SetVerdict::Unmapped {
                            error: error.clone(),
                        },
                    },
                    None => SetVerdict::Unmapped {
                        error: "leader group was not learned".to_string(),
                    },
                },
            };
            SetEntry {
                set: info.set,
                slice: info.slice,
                class: info.class,
                verdict,
            }
        })
        .collect();

    Ok(CacheMap {
        model: config.model.short_name().to_string(),
        level: LevelId::L3,
        cat_ways: config.cat_ways,
        groups,
        sets,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_config_defaults() {
        let config = MapConfig::new(hardware::CpuModel::SkylakeI5_6500, 7, vec![0, 1]);
        assert_eq!(config.cat_ways, Some(4));
        assert_eq!(config.slice, 0);
        assert_eq!(config.probe_rounds, 3);
        assert!(!config.candidates.is_empty());
    }
}
