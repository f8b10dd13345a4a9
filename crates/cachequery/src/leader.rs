//! Leader-set detection via thrashing queries (Appendix B of the paper).
//!
//! Adaptive last-level caches dedicate a few *leader* sets to fixed policies
//! and let the rest follow the winner.  The paper identifies the leaders by
//! running thrashing access patterns per set: sets that always thrash
//! (≈100 % misses) implement the fixed thrash-vulnerable policy, sets that
//! never thrash implement the fixed thrash-resistant policy, and sets whose
//! behaviour changes with the state of the duel are followers.

use cache::{HitMiss, LevelId};
use mbl::{BlockId, MemOp, Query};

use crate::backend::{Backend, BackendError, Target};
use crate::engine::QueryEngine;

/// Classification of a cache set by the thrashing experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaderClass {
    /// Fixed policy susceptible to thrashing (a primary leader set).
    ThrashVulnerable,
    /// Fixed thrash-resistant policy (an alternate leader set).
    ThrashResistant,
    /// Behaviour changes between the two phases: a follower set.
    Adaptive,
}

/// Per-set measurement of the leader-detection experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct LeaderSetInfo {
    /// Set index within the slice.
    pub set: usize,
    /// Slice index.
    pub slice: usize,
    /// Classification.
    pub class: LeaderClass,
    /// Miss rate of the thrashing pattern in the first phase (duel in its
    /// initial state).
    pub miss_rate_initial: f64,
    /// Miss rate after the duel has been driven towards the thrash-resistant
    /// policy.
    pub miss_rate_after_duel: f64,
}

/// Result of [`detect_leader_sets`].
#[derive(Debug, Clone, PartialEq)]
pub struct LeaderReport {
    /// The analysed cache level.
    pub level: LevelId,
    /// One entry per analysed set.
    pub sets: Vec<LeaderSetInfo>,
}

impl LeaderReport {
    /// Sets classified as primary (thrash-vulnerable) leaders.
    pub fn thrash_vulnerable(&self) -> Vec<(usize, usize)> {
        self.sets
            .iter()
            .filter(|s| s.class == LeaderClass::ThrashVulnerable)
            .map(|s| (s.set, s.slice))
            .collect()
    }

    /// Sets classified as followers.
    pub fn adaptive(&self) -> Vec<(usize, usize)> {
        self.sets
            .iter()
            .filter(|s| s.class == LeaderClass::Adaptive)
            .map(|s| (s.set, s.slice))
            .collect()
    }
}

/// Tuning of [`detect_leader_sets_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaderDetectConfig {
    /// Extra rounds of thrashing the phase-1 "vulnerable" bucket between the
    /// two measurement phases, driving the duel towards the thrash-resistant
    /// policy (primary leaders vote with every miss).
    pub extra_duel_rounds: usize,
    /// Rounds of the *down-drive* disambiguation: when the duel starts out
    /// favouring the thrash-resistant policy, followers are indistinguishable
    /// from alternate leaders in the two main phases (neither thrashes).
    /// Thrashing the resistant bucket makes its alternate leaders vote the
    /// duel back towards the thrash-vulnerable policy, after which a final
    /// re-measurement exposes the followers.  `0` skips the phase (the
    /// pre-existing behaviour, sufficient when the duel starts neutral).
    pub down_drive_rounds: usize,
    /// Rounds of the *up-drive* disambiguation, the mirror image of the
    /// down-drive: a follower measured right after an alternate leader (whose
    /// probe misses vote the duel down) can thrash in both main phases and
    /// masquerade as a primary leader.  Thrashing the vulnerable bucket makes
    /// its primary leaders vote the duel up, after which a re-measurement of
    /// the bucket exposes such followers.  `0` skips the phase.
    pub up_drive_rounds: usize,
}

impl Default for LeaderDetectConfig {
    fn default() -> Self {
        LeaderDetectConfig {
            extra_duel_rounds: 2,
            down_drive_rounds: 4,
            up_drive_rounds: 4,
        }
    }
}

/// Miss-rate threshold above which a phase counts as "thrashing".
const THRASH_THRESHOLD: f64 = 0.75;
/// Number of working-set rounds before the profiled round.
const WARMUP_ROUNDS: usize = 3;

/// Builds the thrashing query: a working set of `assoc + 1` blocks accessed
/// cyclically, with the last round profiled.
pub fn thrashing_query(assoc: usize) -> Query {
    let working_set = assoc + 1;
    let mut query = Vec::new();
    for round in 0..=WARMUP_ROUNDS {
        for b in 0..working_set {
            let op = if round == WARMUP_ROUNDS {
                MemOp::profiled(BlockId(b as u32))
            } else {
                MemOp::access(BlockId(b as u32))
            };
            query.push(op);
        }
    }
    query
}

fn miss_rate(outcomes: &[HitMiss]) -> f64 {
    if outcomes.is_empty() {
        return 0.0;
    }
    outcomes.iter().filter(|&&o| o == HitMiss::Miss).count() as f64 / outcomes.len() as f64
}

/// Measures the thrashing miss rate of one target set.
fn thrash_rate(engine: &mut QueryEngine<Backend>, target: Target) -> Result<f64, BackendError> {
    engine.backend_mut().select_target(target)?;
    let query = thrashing_query(engine.backend().associativity()?);
    let outcome = engine.run(&query)?;
    Ok(miss_rate(&outcome.outcomes))
}

/// Runs the two-phase leader-set detection experiment of Appendix B on the
/// given `(set, slice)` pairs of `level`.
///
/// Phase 1 measures the thrashing miss rate of every candidate set.  The
/// thrashing itself pushes the policy-selection counter towards the
/// thrash-resistant policy (every miss in a primary leader votes against it),
/// after which phase 2 re-measures all candidates.  Sets that thrash in both
/// phases are fixed thrash-vulnerable leaders, sets that never thrash are
/// fixed thrash-resistant leaders, and sets whose behaviour flips are
/// followers.
///
/// # Errors
///
/// Propagates backend errors (invalid sets, address-selection failures).
pub fn detect_leader_sets(
    engine: &mut QueryEngine<Backend>,
    level: LevelId,
    candidates: &[(usize, usize)],
    extra_duel_rounds: usize,
) -> Result<LeaderReport, BackendError> {
    detect_leader_sets_with(
        engine,
        level,
        candidates,
        &LeaderDetectConfig {
            extra_duel_rounds,
            down_drive_rounds: 0,
            up_drive_rounds: 0,
        },
    )
}

/// [`detect_leader_sets`] with explicit tuning — in particular the
/// *down-drive* disambiguation phase that makes detection correct from an
/// arbitrary initial duel (PSEL) state, which is what the cartography
/// campaign relies on.
///
/// The experiment runs with memoization off (a memoized phase 2 would return
/// phase-1 answers); the engine's own setting is restored afterwards, on
/// success and on error.
///
/// # Errors
///
/// Propagates backend errors (invalid sets, address-selection failures).
pub fn detect_leader_sets_with(
    engine: &mut QueryEngine<Backend>,
    level: LevelId,
    candidates: &[(usize, usize)],
    config: &LeaderDetectConfig,
) -> Result<LeaderReport, BackendError> {
    let memoize = engine.memoize();
    engine.set_memoize(false);
    let report = detect(engine, level, candidates, config);
    engine.set_memoize(memoize);
    report
}

/// The experiment of [`detect_leader_sets_with`], on an engine that does not
/// memoize.
fn detect(
    engine: &mut QueryEngine<Backend>,
    level: LevelId,
    candidates: &[(usize, usize)],
    config: &LeaderDetectConfig,
) -> Result<LeaderReport, BackendError> {
    let mut initial = Vec::with_capacity(candidates.len());
    for &(set, slice) in candidates {
        initial.push(thrash_rate(engine, Target::new(level, set, slice))?);
    }

    // Drive the duel further towards the thrash-resistant policy by thrashing
    // the candidates that looked vulnerable in phase 1 (leaders among them
    // vote with every miss).
    for _round in 0..config.extra_duel_rounds {
        for (i, &(set, slice)) in candidates.iter().enumerate() {
            if initial[i] >= THRASH_THRESHOLD {
                let _ = thrash_rate(engine, Target::new(level, set, slice))?;
            }
        }
    }

    let mut sets = Vec::with_capacity(candidates.len());
    for (i, &(set, slice)) in candidates.iter().enumerate() {
        let after = thrash_rate(engine, Target::new(level, set, slice))?;
        let class = match (initial[i] >= THRASH_THRESHOLD, after >= THRASH_THRESHOLD) {
            (true, true) => LeaderClass::ThrashVulnerable,
            (false, false) => LeaderClass::ThrashResistant,
            _ => LeaderClass::Adaptive,
        };
        sets.push(LeaderSetInfo {
            set,
            slice,
            class,
            miss_rate_initial: initial[i],
            miss_rate_after_duel: after,
        });
    }

    // Down-drive disambiguation: a duel that already favoured the
    // thrash-resistant policy when phase 1 ran makes followers look exactly
    // like alternate leaders (neither bucket ever thrashed).  Thrash the
    // resistant bucket — only its alternate leaders vote, pushing the duel
    // back towards the thrash-vulnerable policy — then re-measure it: sets
    // that now thrash were following the duel all along.
    if config.down_drive_rounds > 0 {
        let resistant: Vec<usize> = sets
            .iter()
            .enumerate()
            .filter(|(_, s)| s.class == LeaderClass::ThrashResistant)
            .map(|(i, _)| i)
            .collect();
        if !resistant.is_empty() {
            for _round in 0..config.down_drive_rounds {
                for &i in &resistant {
                    let info = &sets[i];
                    let _ = thrash_rate(engine, Target::new(level, info.set, info.slice))?;
                }
            }
            for &i in &resistant {
                let (set, slice) = (sets[i].set, sets[i].slice);
                let rate = thrash_rate(engine, Target::new(level, set, slice))?;
                if rate >= THRASH_THRESHOLD {
                    sets[i].class = LeaderClass::Adaptive;
                    sets[i].miss_rate_after_duel = rate;
                }
            }
        }
    }

    // Up-drive disambiguation, the mirror image: a follower whose two main
    // measurements both ran while the duel happened to favour the
    // thrash-vulnerable policy (e.g. right after an alternate leader's probe
    // voted the duel down) thrashes twice and masquerades as a primary
    // leader.  Thrash the vulnerable bucket — its primary leaders vote the
    // duel up with every miss — then re-measure it: sets that now resist
    // were following the duel all along.  The re-measurement itself is
    // stable, because no set of the vulnerable bucket votes downwards.
    if config.up_drive_rounds > 0 {
        let vulnerable: Vec<usize> = sets
            .iter()
            .enumerate()
            .filter(|(_, s)| s.class == LeaderClass::ThrashVulnerable)
            .map(|(i, _)| i)
            .collect();
        if !vulnerable.is_empty() {
            for _round in 0..config.up_drive_rounds {
                for &i in &vulnerable {
                    let info = &sets[i];
                    let _ = thrash_rate(engine, Target::new(level, info.set, info.slice))?;
                }
            }
            for &i in &vulnerable {
                let (set, slice) = (sets[i].set, sets[i].slice);
                let rate = thrash_rate(engine, Target::new(level, set, slice))?;
                if rate < THRASH_THRESHOLD {
                    sets[i].class = LeaderClass::Adaptive;
                    sets[i].miss_rate_after_duel = rate;
                }
            }
        }
    }

    Ok(LeaderReport { level, sets })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hardware::{CpuModel, SimulatedCpu};
    use mbl::render_query;

    #[test]
    fn thrashing_query_has_the_right_shape() {
        let q = thrashing_query(4);
        assert_eq!(q.len(), 5 * (WARMUP_ROUNDS + 1));
        // Only the last round is profiled.
        let profiled = q.iter().filter(|op| op.tag.is_some()).count();
        assert_eq!(profiled, 5);
        assert!(render_query(&q).starts_with("A B C D E A B C D E"));
    }

    #[test]
    fn miss_rate_is_a_fraction() {
        assert_eq!(miss_rate(&[]), 0.0);
        assert_eq!(miss_rate(&[HitMiss::Miss, HitMiss::Hit]), 0.5);
    }

    fn skylake_engine(seed: u64) -> QueryEngine<Backend> {
        let cpu = SimulatedCpu::new(CpuModel::SkylakeI5_6500, seed);
        let mut engine = QueryEngine::new(Backend::new(cpu));
        engine.backend_mut().apply_cat(4).unwrap();
        engine
    }

    #[test]
    fn detection_leaves_the_memoization_setting_alone() {
        let mut engine = skylake_engine(11);
        engine.set_memoize(false);
        detect_leader_sets(&mut engine, LevelId::L3, &[(0, 0)], 0).unwrap();
        assert!(!engine.memoize(), "a successful detection switched it on");
        engine.set_memoize(true);
        assert!(detect_leader_sets(&mut engine, LevelId::L3, &[(1 << 20, 0)], 0).is_err());
        assert!(engine.memoize(), "a failing detection left it off");
    }

    #[test]
    fn detects_skylake_style_leaders_on_the_simulated_l3() {
        let mut engine = skylake_engine(11);
        // Candidate sets: two known primary leaders (0 and 33, Table 4) and
        // two ordinary follower sets.
        let candidates = [(0, 0), (33, 0), (1, 0), (7, 0)];
        let report = detect_leader_sets(&mut engine, LevelId::L3, &candidates, 2).unwrap();
        let vulnerable = report.thrash_vulnerable();
        assert!(
            vulnerable.contains(&(0, 0)),
            "set 0 should be a leader: {report:?}"
        );
        assert!(
            vulnerable.contains(&(33, 0)),
            "set 33 should be a leader: {report:?}"
        );
        assert!(
            !vulnerable.contains(&(1, 0)) && !vulnerable.contains(&(7, 0)),
            "follower sets misclassified as leaders: {report:?}"
        );
    }
}
