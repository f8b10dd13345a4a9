//! The abstract cache interface Polca builds on, and its two implementations.
//!
//! Next to the paper's `probeCache` primitive (replay a whole block trace
//! from the fixed initial state), the interface exposes *probe sessions*: a
//! stateful walk along one trace with speculative side probes.  Hardware
//! caches can only implement sessions by replaying ([`ReplaySession`], the
//! cost model of the paper), but the software-simulated caches of §6 step
//! their cache set once per accessed block — turning Polca's per-query cost
//! from quadratic to linear in the word length, which is where the bulk of a
//! simulated learning run's time used to go.
//!
//! Both implementations step simulators: [`SimulatedCacheOracle`] directly,
//! and [`CacheQueryOracle`] through its engine and store whenever the
//! backend can step ([`cachequery::QueryBackend::stepper`], e.g. a
//! [`PolicySimBackend`](crate::PolicySimBackend)).  Every other backend —
//! hardware, noisy, remote, hierarchy — replays.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cache::{Block, CacheSet, HitMiss};
use cachequery::{Backend, QueryBackend, QueryEngine, QueryStepper, StepSession, Target};
use learning::{NonDeterminism, OracleError};
use mbl::{BlockId, MemOp, Query};
use policies::PolicyKind;

use crate::sim_backend::SetStepper;

/// A stateful probe along one block trace, with speculative side probes.
///
/// Obtained from [`CacheOracle::begin`]; the session starts at the oracle's
/// fixed initial state `cc0` and advances one block per [`access`] call.
/// [`speculate`] answers "would this block hit right now?" without advancing
/// the session — exactly the side probe `findEvicted` needs (Algorithm 1).
///
/// [`access`]: CacheSession::access
/// [`speculate`]: CacheSession::speculate
pub trait CacheSession {
    /// Accesses `block`, advancing the session, and reports whether the
    /// access hit.
    ///
    /// # Errors
    ///
    /// Returns an [`OracleError`] if the underlying cache misbehaves.
    fn access(&mut self, block: BlockId) -> Result<HitMiss, OracleError>;

    /// Reports whether accessing `block` *now* would hit, without advancing
    /// the session.
    ///
    /// # Errors
    ///
    /// Returns an [`OracleError`] if the underlying cache misbehaves.
    fn speculate(&mut self, block: BlockId) -> Result<HitMiss, OracleError>;
}

/// A cache set that can be probed with block traces from a fixed initial
/// state (the `probeCache` primitive of Algorithm 1).
///
/// Implementations must guarantee that every probe (and every session)
/// starts from the same initial cache state `cc0`, in which block `i` (for
/// `i` in `0..associativity`) occupies line `i`.
///
/// **Contract for `Clone` implementations:** clones must answer identically
/// to the original (the learner's oracle is a clone) *and share the
/// [`probes`](CacheOracle::probes) /
/// [`block_accesses`](CacheOracle::block_accesses) counters* — e.g. behind
/// `Arc<AtomicU64>`, as [`SimulatedCacheOracle`] and [`CacheQueryOracle`]
/// do.  [`learn_policy`](crate::learn_policy) reads whole-run statistics
/// from a retained clone; per-clone counters would silently report (near)
/// zero probes for the run.
pub trait CacheOracle {
    /// Associativity of the cache set.
    fn associativity(&self) -> usize;

    /// Accesses all blocks of `trace` in order, starting from the fixed
    /// initial state, and returns whether the **last** access hit or missed.
    ///
    /// # Errors
    ///
    /// Returns an [`OracleError`] if the underlying cache misbehaves (e.g.
    /// inconsistent timing measurements on the hardware path).
    fn probe(&mut self, trace: &[BlockId]) -> Result<HitMiss, OracleError>;

    /// Starts a probe session from the fixed initial state.
    fn begin(&mut self) -> Box<dyn CacheSession + '_>;

    /// Number of probes executed so far.  A replayed trace counts as one
    /// probe, and so does each step of a probe session.
    fn probes(&self) -> u64;

    /// Total number of block accesses executed so far.  A replayed probe
    /// accesses `trace.len()` blocks; an incremental session step accesses
    /// exactly one.
    fn block_accesses(&self) -> u64;
}

/// A [`CacheSession`] for caches that can only be driven by whole-trace
/// replay: every step re-probes the full trace so far.
///
/// This is the cost model of the paper's hardware experiments (§7): real
/// silicon cannot snapshot its replacement state, so the `n`-th session step
/// costs `n` block accesses.  Any [`CacheOracle`] gets a correct session
/// implementation by wrapping itself in a `ReplaySession`.
#[derive(Debug)]
pub struct ReplaySession<'a, C: ?Sized> {
    oracle: &'a mut C,
    trace: Vec<BlockId>,
}

impl<'a, C: CacheOracle + ?Sized> ReplaySession<'a, C> {
    /// Starts a replay-based session on `oracle`.
    pub fn new(oracle: &'a mut C) -> Self {
        ReplaySession {
            oracle,
            trace: Vec::new(),
        }
    }
}

impl<C: CacheOracle + ?Sized> CacheSession for ReplaySession<'_, C> {
    fn access(&mut self, block: BlockId) -> Result<HitMiss, OracleError> {
        self.trace.push(block);
        self.oracle.probe(&self.trace)
    }

    fn speculate(&mut self, block: BlockId) -> Result<HitMiss, OracleError> {
        let mut probe = self.trace.clone();
        probe.push(block);
        self.oracle.probe(&probe)
    }
}

/// The software-simulated cache of the §6 case study: a [`CacheSet`] driven
/// by an executable replacement policy, probed without any noise.
///
/// Clones share their probe counters: the learner drives one clone, and the
/// run's statistics are read from another.
#[derive(Debug, Clone)]
pub struct SimulatedCacheOracle {
    template: CacheSet,
    probes: Arc<AtomicU64>,
    accesses: Arc<AtomicU64>,
}

impl SimulatedCacheOracle {
    /// Creates the oracle for the given policy and associativity, with the
    /// canonical initial content (block `i` in line `i`).
    ///
    /// # Errors
    ///
    /// Returns an error if the policy does not support the associativity.
    pub fn new(kind: PolicyKind, associativity: usize) -> Result<Self, policies::PolicyError> {
        let policy = kind.build(associativity)?;
        Ok(SimulatedCacheOracle {
            template: CacheSet::filled(policy, (0..associativity as u64).map(Block::new)),
            probes: Arc::new(AtomicU64::new(0)),
            accesses: Arc::new(AtomicU64::new(0)),
        })
    }
}

/// An incremental session over a simulated cache set: one policy step per
/// accessed block, one containment check per speculation.
#[derive(Debug)]
struct SimulatedSession {
    stepper: SetStepper,
    probes: Arc<AtomicU64>,
    accesses: Arc<AtomicU64>,
}

impl CacheSession for SimulatedSession {
    fn access(&mut self, block: BlockId) -> Result<HitMiss, OracleError> {
        self.probes.fetch_add(1, Ordering::Relaxed);
        self.accesses.fetch_add(1, Ordering::Relaxed);
        Ok(self.stepper.access(block))
    }

    fn speculate(&mut self, block: BlockId) -> Result<HitMiss, OracleError> {
        self.probes.fetch_add(1, Ordering::Relaxed);
        self.accesses.fetch_add(1, Ordering::Relaxed);
        Ok(self.stepper.peek(block))
    }
}

impl CacheOracle for SimulatedCacheOracle {
    fn associativity(&self) -> usize {
        self.template.associativity()
    }

    fn probe(&mut self, trace: &[BlockId]) -> Result<HitMiss, OracleError> {
        if trace.is_empty() {
            return Err(OracleError::new("cannot probe with an empty trace"));
        }
        self.probes.fetch_add(1, Ordering::Relaxed);
        self.accesses
            .fetch_add(trace.len() as u64, Ordering::Relaxed);
        let mut stepper = SetStepper::new(self.template.clone());
        let mut last = HitMiss::Miss;
        for &block in trace {
            last = stepper.access(block);
        }
        Ok(last)
    }

    fn begin(&mut self) -> Box<dyn CacheSession + '_> {
        Box::new(SimulatedSession {
            stepper: SetStepper::new(self.template.clone()),
            probes: Arc::clone(&self.probes),
            accesses: Arc::clone(&self.accesses),
        })
    }

    fn probes(&self) -> u64 {
        self.probes.load(Ordering::Relaxed)
    }

    fn block_accesses(&self) -> u64 {
        self.accesses.load(Ordering::Relaxed)
    }
}

/// The engine-backed cache oracle of §7: probes are turned into concrete
/// queries whose last access is profiled, and every query flows through one
/// [`QueryEngine`] — so a learning run shares the same memoization layer (and
/// the same [`QueryStore`](cachequery::QueryStore), when shared) as every
/// other consumer of the query path.
///
/// The backend's reset sequence plays the role of establishing the fixed
/// initial state; the oracle additionally verifies that repeated executions
/// agree and reports an error otherwise (the nondeterminism signal discussed
/// in §7.1).
///
/// Sessions step through the engine when the backend can step (a simulator,
/// see [`QueryEngine::step_session`]): each probe `prefix · b?` is one store
/// lookup resumed at the prefix's trie position and, on a miss, one backend
/// step — the same store lookups and recordings a replay makes, at one
/// block access per probe.  Every other backend replays, as real hardware
/// must (see [`ReplaySession`]); a replayed prefix is a prefix of an
/// already-recorded query, so the engine's prefix trie absorbs most of that
/// replay blowup.
///
/// The oracle is generic over the [`QueryBackend`]: the simulated-hardware
/// [`Backend`], a [`PolicySimBackend`](crate::PolicySimBackend), or a remote
/// `cqd` session (`server::RemoteBackend`) all learn through the same code.
///
/// Clones carry an independent copy of the backend (which must answer
/// identically — true for deterministic simulations) but share the probe
/// counters and the engine's store.
#[derive(Debug)]
pub struct CacheQueryOracle<B = Backend> {
    engine: QueryEngine<B>,
    associativity: usize,
    probes: Arc<AtomicU64>,
    accesses: Arc<AtomicU64>,
}

impl<B: Clone> Clone for CacheQueryOracle<B> {
    fn clone(&self) -> Self {
        CacheQueryOracle {
            engine: self.engine.clone(),
            associativity: self.associativity,
            probes: Arc::clone(&self.probes),
            accesses: Arc::clone(&self.accesses),
        }
    }
}

impl CacheQueryOracle<Backend> {
    /// Selects `target` on the engine's hardware backend and wraps the
    /// engine.
    ///
    /// The number of repetitions per query is raised to 5 so that stray
    /// measurement outliers are outvoted instead of being mistaken for
    /// nondeterministic cache behaviour.
    ///
    /// # Errors
    ///
    /// Propagates target-selection failures.
    pub fn new(mut engine: QueryEngine<Backend>, target: Target) -> Result<Self, OracleError> {
        let backend = engine.backend_mut();
        backend
            .select_target(target)
            .map_err(|e| OracleError::new(e.to_string()))?;
        backend.set_repetitions(5);
        Self::from_engine(engine)
    }
}

impl<B: QueryBackend> CacheQueryOracle<B> {
    /// Wraps an already-configured engine: the generic entry point for
    /// simulated-policy and remote backends.
    ///
    /// # Errors
    ///
    /// Returns an error if the backend has no configured target.
    pub fn from_engine(engine: QueryEngine<B>) -> Result<Self, OracleError> {
        let associativity = engine
            .backend()
            .associativity()
            .map_err(|e| OracleError::new(e.to_string()))?;
        Ok(CacheQueryOracle {
            engine,
            associativity,
            probes: Arc::new(AtomicU64::new(0)),
            accesses: Arc::new(AtomicU64::new(0)),
        })
    }

    /// Read access to the wrapped engine (e.g. for store statistics).
    pub fn engine(&self) -> &QueryEngine<B> {
        &self.engine
    }

    /// Mutable access to the wrapped engine (e.g. to attach a span recorder
    /// or adjust the vote configuration before learning starts).
    pub fn engine_mut(&mut self) -> &mut QueryEngine<B> {
        &mut self.engine
    }

    /// Builds the MBL query corresponding to a probe: access every block,
    /// profile the last one.
    fn probe_query(trace: &[BlockId]) -> Query {
        let mut query: Query = trace[..trace.len() - 1]
            .iter()
            .map(|&b| MemOp::access(b))
            .collect();
        query.push(MemOp::profiled(trace[trace.len() - 1]));
        query
    }
}

impl<B: QueryBackend> CacheOracle for CacheQueryOracle<B> {
    fn associativity(&self) -> usize {
        self.associativity
    }

    fn probe(&mut self, trace: &[BlockId]) -> Result<HitMiss, OracleError> {
        if trace.is_empty() {
            return Err(OracleError::new("cannot probe with an empty trace"));
        }
        self.probes.fetch_add(1, Ordering::Relaxed);
        self.accesses
            .fetch_add(trace.len() as u64, Ordering::Relaxed);
        let query = Self::probe_query(trace);
        let outcome = self
            .engine
            .run(&query)
            .map_err(|e| OracleError::new(e.to_string()))?;
        if !outcome.consistent {
            let message = format!(
                "inconsistent measurements for query '{}': the cache set behaves \
                 non-deterministically (wrong reset sequence or adaptive policy)",
                outcome.rendered
            );
            // With voting enabled the engine has been tallying margins; turn
            // its evidence into the statistical non-determinism verdict the
            // learner aborts with (instead of retrying a hopeless target).
            let evidence = self.engine.vote_evidence();
            if evidence.unsettled > 0 {
                return Err(OracleError::not_deterministic(
                    message,
                    NonDeterminism {
                        disagreement_permille: evidence.disagreement_permille(),
                        worst_margin_permille: evidence.worst_margin_permille,
                        worst_query: evidence.worst_query.clone(),
                        required_margin_permille: u64::from(
                            self.engine.vote_config().margin_permille,
                        ),
                        voted_queries: evidence.voted,
                        unsettled_queries: evidence.unsettled,
                    },
                ));
            }
            return Err(OracleError::new(message));
        }
        outcome
            .outcomes
            .first()
            .copied()
            .ok_or_else(|| OracleError::new("backend returned no profiled outcome"))
    }

    fn begin(&mut self) -> Box<dyn CacheSession + '_> {
        match self.engine.step_session() {
            Ok(Some(session)) => Box::new(SteppedSession {
                engine: &mut self.engine,
                session,
                probes: Arc::clone(&self.probes),
                accesses: Arc::clone(&self.accesses),
            }),
            // Backends that cannot step replay, as real hardware must; an
            // unconfigured backend reports its error from the first probe.
            Ok(None) | Err(_) => Box::new(ReplaySession::new(self)),
        }
    }

    fn probes(&self) -> u64 {
        self.probes.load(Ordering::Relaxed)
    }

    fn block_accesses(&self) -> u64 {
        self.accesses.load(Ordering::Relaxed)
    }
}

/// A [`CacheOracle`] session stepped through a [`CacheQueryOracle`]'s engine:
/// every step or speculation is one probe of [`QueryEngine::step`], which
/// costs one block access.
struct SteppedSession<'a, B> {
    engine: &'a mut QueryEngine<B>,
    session: StepSession,
    probes: Arc<AtomicU64>,
    accesses: Arc<AtomicU64>,
}

impl<B: QueryBackend> CacheSession for SteppedSession<'_, B> {
    fn access(&mut self, block: BlockId) -> Result<HitMiss, OracleError> {
        let outcome = self.speculate(block)?;
        self.session.advance(block);
        Ok(outcome)
    }

    fn speculate(&mut self, block: BlockId) -> Result<HitMiss, OracleError> {
        self.probes.fetch_add(1, Ordering::Relaxed);
        self.accesses.fetch_add(1, Ordering::Relaxed);
        Ok(self.engine.step(&mut self.session, block))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache::LevelId;
    use hardware::{CpuModel, SimulatedCpu};

    fn blocks(ids: &[u32]) -> Vec<BlockId> {
        ids.iter().map(|&i| BlockId(i)).collect()
    }

    #[test]
    fn simulated_oracle_replays_figure_1_traces() {
        let mut oracle = SimulatedCacheOracle::new(PolicyKind::Lru, 2).unwrap();
        // A B C A -> last access misses; A B C B -> last access hits.
        assert_eq!(oracle.probe(&blocks(&[0, 1, 2, 0])).unwrap(), HitMiss::Miss);
        assert_eq!(oracle.probe(&blocks(&[0, 1, 2, 1])).unwrap(), HitMiss::Hit);
        assert_eq!(oracle.probes(), 2);
        assert_eq!(oracle.block_accesses(), 8);
    }

    #[test]
    fn simulated_oracle_always_starts_from_cc0() {
        let mut oracle = SimulatedCacheOracle::new(PolicyKind::Fifo, 4).unwrap();
        // The same probe gives the same answer regardless of history.
        let t = blocks(&[9, 0]);
        let first = oracle.probe(&t).unwrap();
        oracle.probe(&blocks(&[5, 6, 7, 8])).unwrap();
        assert_eq!(oracle.probe(&t).unwrap(), first);
    }

    #[test]
    fn empty_probes_are_rejected() {
        let mut oracle = SimulatedCacheOracle::new(PolicyKind::Lru, 2).unwrap();
        assert!(oracle.probe(&[]).is_err());
    }

    #[test]
    fn sessions_agree_with_replayed_probes() {
        // Step a session along a trace and check each intermediate outcome
        // against a from-scratch probe of the same prefix.
        let trace = blocks(&[0, 3, 4, 0, 5, 1, 4]);
        for kind in [PolicyKind::Lru, PolicyKind::Plru, PolicyKind::SrripHp] {
            let mut replay = SimulatedCacheOracle::new(kind, 4).unwrap();
            let mut oracle = SimulatedCacheOracle::new(kind, 4).unwrap();
            let mut session = oracle.begin();
            for len in 1..=trace.len() {
                let stepped = session.access(trace[len - 1]).unwrap();
                assert_eq!(
                    stepped,
                    replay.probe(&trace[..len]).unwrap(),
                    "{kind} diverged at prefix length {len}"
                );
            }
        }
    }

    #[test]
    fn speculation_does_not_advance_the_session() {
        let mut oracle = SimulatedCacheOracle::new(PolicyKind::Lru, 2).unwrap();
        let mut session = oracle.begin();
        // Fill with 5, evicting LRU block 0; speculative misses on 0 must not
        // disturb the state no matter how often they run.
        assert_eq!(session.access(BlockId(5)).unwrap(), HitMiss::Miss);
        for _ in 0..3 {
            assert_eq!(session.speculate(BlockId(0)).unwrap(), HitMiss::Miss);
            assert_eq!(session.speculate(BlockId(1)).unwrap(), HitMiss::Hit);
        }
        assert_eq!(session.access(BlockId(1)).unwrap(), HitMiss::Hit);
    }

    #[test]
    fn session_steps_cost_one_access_each() {
        let mut oracle = SimulatedCacheOracle::new(PolicyKind::Lru, 2).unwrap();
        let mut session = oracle.begin();
        session.access(BlockId(7)).unwrap();
        session.access(BlockId(8)).unwrap();
        session.speculate(BlockId(0)).unwrap();
        drop(session);
        assert_eq!(oracle.probes(), 3);
        assert_eq!(oracle.block_accesses(), 3);
    }

    #[test]
    fn cloned_oracles_answer_identically_and_share_counters() {
        let oracle = SimulatedCacheOracle::new(PolicyKind::Plru, 4).unwrap();
        let mut clone_a = oracle.clone();
        let mut clone_b = oracle.clone();
        let t = blocks(&[5, 1, 6, 2]);
        assert_eq!(clone_a.probe(&t).unwrap(), clone_b.probe(&t).unwrap());
        // Both probes land in the shared per-run counters.
        assert_eq!(oracle.probes(), 2);
        assert_eq!(oracle.block_accesses(), 8);
    }

    /// An oracle on L1 set 17 of a simulated Skylake.
    fn skylake_l1_oracle() -> CacheQueryOracle {
        let cpu = SimulatedCpu::new(CpuModel::SkylakeI5_6500, 21);
        let engine = QueryEngine::new(Backend::new(cpu));
        CacheQueryOracle::new(engine, Target::new(LevelId::L1, 17, 0)).unwrap()
    }

    #[test]
    fn cachequery_oracle_probes_the_simulated_hardware() {
        let mut oracle = skylake_l1_oracle();
        assert_eq!(oracle.associativity(), 8);
        // Within-set probe: the initial content 0..7 is established by the
        // reset sequence, so probing block 3 hits.
        assert_eq!(oracle.probe(&blocks(&[3])).unwrap(), HitMiss::Hit);
        // A fresh block misses.
        assert_eq!(oracle.probe(&blocks(&[11])).unwrap(), HitMiss::Miss);
    }

    #[test]
    fn cachequery_sessions_replay_the_whole_trace() {
        let mut oracle = skylake_l1_oracle();
        let mut session = oracle.begin();
        assert_eq!(session.access(BlockId(11)).unwrap(), HitMiss::Miss);
        assert_eq!(session.access(BlockId(11)).unwrap(), HitMiss::Hit);
        assert_eq!(session.speculate(BlockId(11)).unwrap(), HitMiss::Hit);
        drop(session);
        // Replay cost model: 1 + 2 + 3 block accesses for the three steps.
        assert_eq!(oracle.probes(), 3);
        assert_eq!(oracle.block_accesses(), 6);
    }

    #[test]
    fn cachequery_sessions_step_policy_simulators() {
        let backend = crate::PolicySimBackend::new(PolicyKind::Lru, 2).unwrap();
        let mut oracle = CacheQueryOracle::from_engine(QueryEngine::new(backend)).unwrap();
        let mut session = oracle.begin();
        assert_eq!(session.access(BlockId(11)).unwrap(), HitMiss::Miss);
        assert_eq!(session.access(BlockId(11)).unwrap(), HitMiss::Hit);
        // 11 evicted block 0, the LRU line of cc0.
        assert_eq!(session.speculate(BlockId(0)).unwrap(), HitMiss::Miss);
        assert_eq!(session.speculate(BlockId(1)).unwrap(), HitMiss::Hit);
        drop(session);
        // One block access per step, against 1 + 2 + 3 + 3 when replaying.
        assert_eq!(oracle.probes(), 4);
        assert_eq!(oracle.block_accesses(), 4);
        // Each probe was one store lookup (all misses) and one recording.
        let store = Arc::clone(oracle.engine().store());
        assert_eq!(store.counts(), (0, 4));
        assert_eq!(oracle.engine().stats().backend_queries, 4);
        // A replay of the same probes is now served from the store.
        assert_eq!(oracle.probe(&blocks(&[11, 11, 0])).unwrap(), HitMiss::Miss);
        assert_eq!(store.counts(), (1, 4));
    }

    #[test]
    fn probe_query_profiles_only_the_last_access() {
        let q = CacheQueryOracle::<Backend>::probe_query(&blocks(&[0, 1, 2]));
        assert_eq!(q.len(), 3);
        assert!(q[0].tag.is_none());
        assert!(q[1].tag.is_none());
        assert_eq!(q[2].tag, Some(mbl::Tag::Profile));
    }
}
