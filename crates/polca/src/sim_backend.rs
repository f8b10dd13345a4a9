//! A [`QueryBackend`] over a bare software-simulated cache set: the §6 case
//! study's noiseless caches, speaking the same concrete-query protocol as
//! the simulated hardware.
//!
//! This backend is what lets a *learning campaign* share the unified query
//! path: the `cqd` daemon learns `POLICY@ASSOC` by pointing the standard
//! [`CacheQueryOracle`](crate::CacheQueryOracle) at a `PolicySimBackend`
//! whose engine shares the daemon's query store — so every concrete query a
//! campaign issues lands in the same trie interactive sessions are served
//! from, and vice versa.

use cache::{Block, CacheSet, HitMiss};
use cachequery::{BackendError, NoiseSpec, NoisyBackend, QueryConfig, QueryStepper, Target};
use mbl::{BlockId, MemOp, Query, Tag};
use policies::{PolicyError, PolicyKind};

/// A fault-injecting decoration of a [`PolicySimBackend`]: the §6 exact
/// simulation with the §5 measurement noise layered on top, at seeded,
/// reproducible rates (see [`cachequery::NoisyBackend`]).  This is the
/// backend the noise-robustness tests learn through: the engine's majority
/// vote must recover the exact noise-free automaton from it.
pub type NoisySimBackend = NoisyBackend<PolicySimBackend>;

/// Builds a [`NoisySimBackend`] for `kind` at `associativity` with the fault
/// rates of `spec` (and the default noisy repetition count,
/// [`cachequery::DEFAULT_NOISY_REPS`]).
///
/// # Errors
///
/// Returns an error if the policy does not support the associativity.
pub fn noisy_sim_backend(
    kind: PolicyKind,
    associativity: usize,
    spec: NoiseSpec,
) -> Result<NoisySimBackend, PolicyError> {
    Ok(NoisyBackend::new(
        PolicySimBackend::new(kind, associativity)?,
        spec,
    ))
}

/// The memoization namespace of a [`NoisySimBackend`] built by
/// [`noisy_sim_backend`] — exposed so servers can compute a noisy session's
/// store namespace without building the backend.
pub fn noisy_sim_config_for(
    kind: PolicyKind,
    associativity: usize,
    spec: &NoiseSpec,
    reps: usize,
) -> QueryConfig {
    NoisyBackend::<PolicySimBackend>::config_for(
        PolicySimBackend::config_for(kind, associativity),
        spec,
        reps,
    )
}

/// A cache set stepped one memory operation at a time: the one exact
/// simulator core behind [`PolicySimBackend`]'s queries, its stepping probe
/// sessions, and the probes and sessions of
/// [`SimulatedCacheOracle`](crate::SimulatedCacheOracle).
#[derive(Debug, Clone)]
pub(crate) struct SetStepper {
    set: CacheSet,
}

impl SetStepper {
    /// Starts stepping from `set`'s current state.
    pub(crate) fn new(set: CacheSet) -> Self {
        SetStepper { set }
    }

    /// Accesses `block`, advancing the set, and reports whether it hit.
    pub(crate) fn access(&mut self, block: BlockId) -> HitMiss {
        self.set.access(Block::new(u64::from(block.0))).outcome()
    }
}

impl QueryStepper for SetStepper {
    fn step(&mut self, op: &MemOp) -> Option<HitMiss> {
        match op.tag {
            Some(Tag::Invalidate) => {
                self.set.invalidate(Block::new(u64::from(op.block.0)));
                None
            }
            tag => {
                let outcome = self.access(op.block);
                (tag == Some(Tag::Profile)).then_some(outcome)
            }
        }
    }

    fn peek(&self, block: BlockId) -> HitMiss {
        // An access hits exactly when the block is currently cached; checking
        // containment avoids cloning the whole set (policy state included)
        // for an answer the lookup alone determines.
        if self.set.contains(Block::new(u64::from(block.0))) {
            HitMiss::Hit
        } else {
            HitMiss::Miss
        }
    }
}

/// A deterministic cache-set backend running a named replacement policy.
///
/// Every query starts from the canonical initial state `cc0` (block `i`
/// occupies line `i` — the state the hardware path establishes with its
/// reset sequence), executes the operations one policy step at a time, and
/// classifies each profiled access.  Execution is exact, so answers are
/// always consistent and repetitions are pointless; the memoization
/// namespace is pinned to `reset=cc0 reps=1` accordingly.
///
/// Being exact, the backend also *steps* ([`QueryBackend::stepper`]): a
/// probe session through its engine advances one cache set instead of
/// replaying every probe from `cc0`.
///
/// [`QueryBackend::stepper`]: cachequery::QueryBackend::stepper
#[derive(Debug, Clone)]
pub struct PolicySimBackend {
    kind: PolicyKind,
    template: CacheSet,
}

impl PolicySimBackend {
    /// Creates the backend for `kind` at `associativity`, pre-filled with the
    /// canonical initial content.
    ///
    /// # Errors
    ///
    /// Returns an error if the policy does not support the associativity.
    pub fn new(kind: PolicyKind, associativity: usize) -> Result<Self, PolicyError> {
        let policy = kind.build(associativity)?;
        let template = CacheSet::filled(policy, (0..associativity as u64).map(Block::new));
        Ok(PolicySimBackend { kind, template })
    }

    /// The simulated policy.
    pub fn kind(&self) -> PolicyKind {
        self.kind
    }

    /// The memoization namespace of a `kind @ associativity` simulation —
    /// exposed so servers can hand sessions and learn jobs the *same*
    /// namespace without building a backend first.
    pub fn config_for(kind: PolicyKind, associativity: usize) -> QueryConfig {
        QueryConfig {
            backend: format!("policy:{kind}@{associativity}"),
            reset: "cc0".to_string(),
            reps: 1,
            target: Target::new(cache::LevelId::L1, 0, 0),
        }
    }
}

impl PolicySimBackend {
    /// Simulates one query from `cc0`; the exact-simulation core shared by
    /// the single-query and batch paths.
    fn simulate(&self, query: &Query) -> (Vec<HitMiss>, bool) {
        let mut stepper = SetStepper::new(self.template.clone());
        (
            query.iter().filter_map(|op| stepper.step(op)).collect(),
            true,
        )
    }
}

impl cachequery::QueryBackend for PolicySimBackend {
    fn execute(&mut self, query: &Query) -> Result<(Vec<HitMiss>, bool), BackendError> {
        Ok(self.simulate(query))
    }

    fn execute_batch(
        &mut self,
        queries: &[Query],
    ) -> Result<Vec<(Vec<HitMiss>, bool)>, BackendError> {
        // Simulation is exact and each query restarts from cc0, so the batch
        // is one tight monomorphized loop — no per-query trait dispatch, one
        // pre-sized result vector.
        let mut results = Vec::with_capacity(queries.len());
        for query in queries {
            results.push(self.simulate(query));
        }
        Ok(results)
    }

    fn config(&self) -> Result<QueryConfig, BackendError> {
        Ok(Self::config_for(self.kind, self.template.associativity()))
    }

    fn associativity(&self) -> Result<usize, BackendError> {
        Ok(self.template.associativity())
    }

    fn stepper(&self) -> Option<Box<dyn QueryStepper>> {
        Some(Box::new(SetStepper::new(self.template.clone())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cachequery::{QueryBackend, QueryEngine};
    use mbl::expand_query;

    fn concrete(mbl: &str, assoc: usize) -> Query {
        expand_query(mbl, assoc).unwrap().pop().unwrap()
    }

    #[test]
    fn figure_1_traces_replay_exactly() {
        let mut backend = PolicySimBackend::new(PolicyKind::Lru, 2).unwrap();
        // cc0 = {A, B}; C evicts the LRU block A, so B still hits and the
        // subsequent re-access of A misses.
        let (outcomes, consistent) = backend.execute(&concrete("C B? A?", 2)).unwrap();
        assert!(consistent);
        assert_eq!(outcomes, vec![HitMiss::Hit, HitMiss::Miss]);
    }

    #[test]
    fn every_query_starts_from_cc0() {
        let mut backend = PolicySimBackend::new(PolicyKind::Fifo, 4).unwrap();
        let q = concrete("X A?", 4);
        let first = backend.execute(&q).unwrap();
        backend.execute(&concrete("X Y Z _?", 4)).unwrap();
        assert_eq!(backend.execute(&q).unwrap(), first);
    }

    #[test]
    fn invalidation_is_honoured() {
        let mut backend = PolicySimBackend::new(PolicyKind::Lru, 2).unwrap();
        let (outcomes, _) = backend.execute(&concrete("A! A?", 2)).unwrap();
        assert_eq!(outcomes, vec![HitMiss::Miss]);
    }

    #[test]
    fn engines_memoize_policy_simulations() {
        let mut engine = QueryEngine::new(PolicySimBackend::new(PolicyKind::Plru, 4).unwrap());
        let results = engine.query_mbl("@ X _?").unwrap();
        assert_eq!(results.len(), 4);
        assert_eq!(
            results
                .iter()
                .filter(|r| r.outcomes[0] == HitMiss::Miss)
                .count(),
            1,
            "exactly one of the original blocks was evicted"
        );
        assert!(engine
            .query_mbl("@ X _?")
            .unwrap()
            .iter()
            .all(|r| r.from_cache));
    }

    #[test]
    fn the_namespace_is_policy_specific() {
        let backend = PolicySimBackend::new(PolicyKind::Lru, 4).unwrap();
        let config = QueryBackend::config(&backend).unwrap();
        assert_eq!(config.backend, "policy:LRU@4");
        assert_eq!(config, PolicySimBackend::config_for(PolicyKind::Lru, 4));
    }
}
