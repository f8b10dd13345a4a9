//! The CacheQuery frontend: a thin MBL shell over the unified
//! [`QueryEngine`] — expansion, batching and statistics.
//!
//! Since the engine refactor this type holds **no cache of its own**: the
//! single memoization layer is the engine's [`QueryStore`], which can be
//! private to one tool instance ([`CacheQuery::new`]) or shared with other
//! engines — other tools, the `cqd` daemon's backend pool, learning jobs —
//! through [`CacheQuery::with_store`].

use std::sync::Arc;

use hardware::SimulatedCpu;
use mbl::Query;

use crate::backend::{Backend, BackendError, Target};
use crate::engine::{QueryEngine, QueryOutcome};
use crate::reset::ResetSequence;
use crate::store::QueryStore;

/// Counters describing the work done by a [`CacheQuery`] instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryStats {
    /// Queries answered (including store-served ones).
    pub queries: u64,
    /// Queries answered from the query store.
    pub cache_hits: u64,
    /// Memory loads issued by the backend on behalf of queries.
    pub backend_loads: u64,
    /// Queries the backend actually answered (each counted once, however
    /// many repetitions the engine's majority vote needed).
    pub backend_queries: u64,
    /// Raw backend executions, voting repetitions included.
    pub backend_executions: u64,
}

/// The user-facing CacheQuery tool: target selection, MBL queries, and
/// statistics, all routed through one [`QueryEngine`] over the simulated
/// hardware [`Backend`].
///
/// See the [crate-level documentation](crate) for an example.
///
/// `Clone` duplicates the simulated machine but **shares the query store**:
/// clones answer identically and benefit from each other's memoized answers
/// (they are the per-worker instances of a parallel learning run).
#[derive(Debug, Clone)]
pub struct CacheQuery {
    engine: QueryEngine<Backend>,
}

impl CacheQuery {
    /// Creates the tool on top of a simulated CPU, with a private store.
    pub fn new(cpu: SimulatedCpu) -> Self {
        CacheQuery {
            engine: QueryEngine::new(Backend::new(cpu)),
        }
    }

    /// Creates the tool over a shared [`QueryStore`]: every engine holding a
    /// clone of the same `Arc` serves (and fills) the same memoized answers.
    pub fn with_store(cpu: SimulatedCpu, store: Arc<QueryStore>) -> Self {
        CacheQuery {
            engine: QueryEngine::with_store(Backend::new(cpu), store),
        }
    }

    /// Wraps an existing engine (the inverse of [`CacheQuery::into_engine`]).
    pub fn from_engine(engine: QueryEngine<Backend>) -> Self {
        CacheQuery { engine }
    }

    /// Read-only access to the underlying engine.
    pub fn engine(&self) -> &QueryEngine<Backend> {
        &self.engine
    }

    /// Consumes the tool and returns the underlying engine (e.g. to hand it
    /// to `polca::CacheQueryOracle`).
    pub fn into_engine(self) -> QueryEngine<Backend> {
        self.engine
    }

    /// The query store behind this tool.
    pub fn store(&self) -> &Arc<QueryStore> {
        self.engine.store()
    }

    /// Read-only access to the backend.
    pub fn backend(&self) -> &Backend {
        self.engine.backend()
    }

    /// Mutable access to the backend (for advanced configuration).
    pub fn backend_mut(&mut self) -> &mut Backend {
        self.engine.backend_mut()
    }

    /// Selects the target cache set.
    ///
    /// # Errors
    ///
    /// Propagates backend validation and address-selection errors.
    pub fn set_target(&mut self, target: Target) -> Result<(), BackendError> {
        self.engine.backend_mut().select_target(target)
    }

    /// The currently selected target.
    pub fn target(&self) -> Option<Target> {
        self.engine.backend().target()
    }

    /// Associativity of the target level (after CAT).
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::NoTarget`] if no target is selected.
    pub fn associativity(&self) -> Result<usize, BackendError> {
        self.engine.backend().associativity()
    }

    /// Sets the reset sequence used before every query.
    pub fn set_reset_sequence(&mut self, reset: ResetSequence) {
        self.engine.backend_mut().set_reset_sequence(reset);
    }

    /// Sets the number of repetitions per query (the engine executes each
    /// novel query this many times and majority-votes; see
    /// [`VoteConfig`](crate::VoteConfig)).
    pub fn set_repetitions(&mut self, repetitions: usize) {
        self.engine.backend_mut().set_repetitions(repetitions);
    }

    /// Replaces the engine's repetition/majority-vote configuration.
    pub fn set_vote_config(&mut self, voting: crate::VoteConfig) {
        self.engine.set_vote_config(voting);
    }

    /// Applies Intel CAT to the last-level cache.  No cache invalidation is
    /// needed: the CAT restriction is part of the memoization namespace, so
    /// the engine switches namespaces automatically.
    ///
    /// # Errors
    ///
    /// Propagates [`BackendError::Cat`] and re-selection failures.
    pub fn apply_cat(&mut self, ways: usize) -> Result<(), BackendError> {
        self.engine.backend_mut().apply_cat(ways)
    }

    /// Enables or disables memoization through the query store (the LevelDB
    /// role of §4.2).  A disabled tool neither consults nor fills the store.
    pub fn enable_cache(&mut self, enabled: bool) {
        self.engine.set_memoize(enabled);
    }

    /// Work counters.
    pub fn stats(&self) -> QueryStats {
        let engine = self.engine.stats();
        QueryStats {
            queries: engine.queries,
            cache_hits: engine.store_hits,
            backend_loads: self.engine.backend().query_loads(),
            backend_queries: engine.backend_queries,
            backend_executions: engine.backend_executions,
        }
    }

    /// Expands an MBL expression for the target's associativity and runs
    /// every resulting query (as one engine batch).
    ///
    /// # Errors
    ///
    /// Returns parse/expansion errors and backend errors.
    pub fn query(&mut self, mbl: &str) -> Result<Vec<QueryOutcome>, BackendError> {
        self.engine.query_mbl(mbl)
    }

    /// Runs a single already-expanded query through the engine.
    ///
    /// # Errors
    ///
    /// Propagates backend errors.
    pub fn run_query(&mut self, query: &Query) -> Result<QueryOutcome, BackendError> {
        self.engine.run(query)
    }

    /// Runs a batch of MBL expressions (the batch mode of §4.2) and returns
    /// the outcomes grouped per expression.
    ///
    /// # Errors
    ///
    /// Stops at the first failing expression and returns its error.
    pub fn run_batch(
        &mut self,
        expressions: &[&str],
    ) -> Result<Vec<Vec<QueryOutcome>>, BackendError> {
        expressions.iter().map(|e| self.query(e)).collect()
    }

    /// Serializes the query store to a plain-text format (one line per
    /// maximal recorded query); see [`QueryStore::export`].
    pub fn export_cache(&self) -> String {
        self.engine.store().export()
    }

    /// Restores store entries exported by [`CacheQuery::export_cache`].
    /// Malformed lines are ignored.
    pub fn import_cache(&mut self, text: &str) {
        self.engine.store().import(text);
    }

    /// Number of cached access prefixes (trie nodes) across all of the
    /// store's namespaces.
    pub fn cache_len(&self) -> usize {
        self.engine.store().entries() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache::{HitMiss, LevelId};
    use hardware::CpuModel;

    fn tool() -> CacheQuery {
        let cpu = SimulatedCpu::new(CpuModel::SkylakeI5_6500, 5);
        let mut cq = CacheQuery::new(cpu);
        cq.set_target(Target::new(LevelId::L1, 4, 0)).unwrap();
        cq
    }

    #[test]
    fn figure_1c_style_query() {
        let mut cq = tool();
        // Figure 1c: the frontend maps abstract blocks to concrete loads and
        // classifies latencies; A B C fill, then re-accessing A hits.
        let results = cq.query("A B C A?").unwrap();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].outcomes, vec![HitMiss::Hit]);
    }

    #[test]
    fn wildcard_queries_fan_out() {
        let mut cq = tool();
        let results = cq.query("@ X _?").unwrap();
        assert_eq!(results.len(), 8);
        let misses = results
            .iter()
            .filter(|r| r.outcomes[0] == HitMiss::Miss)
            .count();
        assert_eq!(misses, 1);
    }

    #[test]
    fn responses_are_memoized_by_the_engine() {
        let mut cq = tool();
        let first = cq.query("@ X A?").unwrap();
        assert!(!first[0].from_cache);
        let second = cq.query("@ X A?").unwrap();
        assert!(second[0].from_cache);
        assert_eq!(first[0].outcomes, second[0].outcomes);
        let stats = cq.stats();
        assert_eq!(stats.queries, 2);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.backend_queries, 1);
    }

    #[test]
    fn store_namespaces_include_the_target() {
        let mut cq = tool();
        cq.query("@ X A?").unwrap();
        assert_eq!(cq.store().namespaces(), 1);
        cq.set_target(Target::new(LevelId::L1, 5, 0)).unwrap();
        let second = cq.query("@ X A?").unwrap();
        assert!(!second[0].from_cache, "a new target is a new namespace");
        assert_eq!(cq.store().namespaces(), 2);
    }

    #[test]
    fn memoization_can_be_disabled() {
        let mut cq = tool();
        cq.enable_cache(false);
        cq.query("A?").unwrap();
        cq.query("A?").unwrap();
        assert_eq!(cq.stats().cache_hits, 0);
        assert_eq!(cq.cache_len(), 0);
        assert_eq!(cq.stats().backend_queries, 2);
    }

    #[test]
    fn store_export_import_round_trips() {
        let mut cq = tool();
        cq.query("@ X A?").unwrap();
        cq.query("@ X B?").unwrap();
        let exported = cq.export_cache();

        let cpu = SimulatedCpu::new(CpuModel::SkylakeI5_6500, 5);
        let mut fresh = CacheQuery::new(cpu);
        fresh.set_target(Target::new(LevelId::L1, 4, 0)).unwrap();
        fresh.import_cache(&exported);
        assert_eq!(fresh.cache_len(), cq.cache_len());
        let res = fresh.query("@ X A?").unwrap();
        assert!(res[0].from_cache);
    }

    #[test]
    fn tools_can_share_one_store() {
        let store = Arc::new(QueryStore::new());
        let mut a = CacheQuery::with_store(
            SimulatedCpu::new(CpuModel::SkylakeI5_6500, 5),
            Arc::clone(&store),
        );
        let mut b = CacheQuery::with_store(
            SimulatedCpu::new(CpuModel::SkylakeI5_6500, 5),
            Arc::clone(&store),
        );
        a.set_target(Target::new(LevelId::L1, 4, 0)).unwrap();
        b.set_target(Target::new(LevelId::L1, 4, 0)).unwrap();
        assert!(!a.query("@ X A?").unwrap()[0].from_cache);
        // Same model, seed and target: b is served from a's answer.
        assert!(b.query("@ X A?").unwrap()[0].from_cache);
        assert_eq!(b.stats().backend_queries, 0);
    }

    #[test]
    fn batch_mode_groups_results_per_expression() {
        let mut cq = tool();
        let batches = cq.run_batch(&["A?", "@ X _?"]).unwrap();
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].len(), 1);
        assert_eq!(batches[1].len(), 8);
    }

    #[test]
    fn queries_without_a_target_fail() {
        let cpu = SimulatedCpu::new(CpuModel::SkylakeI5_6500, 5);
        let mut cq = CacheQuery::new(cpu);
        assert!(matches!(cq.query("A?"), Err(BackendError::NoTarget)));
    }
}
