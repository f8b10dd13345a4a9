//! The unified query path: a [`QueryBackend`] abstraction over everything
//! that can execute a concrete query, and the [`QueryEngine`] that puts the
//! *single* memoization layer of this reproduction in front of it.
//!
//! The paper's tool is one pipeline — MBL frontend → memoized query store →
//! scarce backend (§4, §4.2).  Every consumer in this repo follows the same
//! shape through this module:
//!
//! ```text
//!   MBL / Polca probes ──► QueryEngine ──► QueryStore (prefix trie)
//!                               │               ▲
//!                               ▼ (miss)        │ (record)
//!                          QueryBackend  ───────┘
//! ```
//!
//! Implementations of [`QueryBackend`]:
//!
//! * [`Backend`](crate::Backend) — the simulated-hardware kernel-module
//!   replacement of this crate;
//! * `polca::PolicySimBackend` — a bare software-simulated cache set running
//!   a named replacement policy;
//! * `server::RemoteBackend` — a `cqd` session over TCP, so the same engine
//!   (and the same learning pipeline) runs against a remote machine.
//!
//! Engines that should share answers share one [`QueryStore`] behind an
//! [`Arc`]: the `cqd` daemon gives its sessions, backend pool *and* learning
//! jobs one store, so a multi-second learning campaign fills the same trie
//! that interactive sessions are served from.
//!
//! Probe sessions — Polca's `prefix · b?` queries over one growing prefix —
//! run in one of two ways.  Every backend can replay: each probe is a whole
//! query through [`QueryEngine::run`], the paper's cost model, since real
//! silicon cannot snapshot its replacement state.  A simulator can also
//! *step* ([`QueryBackend::stepper`]): a [`StepSession`] resumes the store
//! lookup at the prefix's trie position and answers a miss with one backend
//! step, while issuing exactly the store traffic replay would.

use std::sync::Arc;

use cache::HitMiss;
use learning::TrieCursor;
use mbl::{expand_query, render_query, BlockId, MemOp, Query};
use obs::{FieldValue, Recorder};

use crate::backend::{BackendError, Target};
use crate::store::{QueryStore, StoreSpace};

/// The memoization namespace of a configured backend: everything that
/// determines a query's answer.  Two backends whose configs render equally
/// answer identically and may share store entries.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QueryConfig {
    /// Rendered backend identity — e.g. `skylake seed=7 cat=-` for a
    /// simulated machine or `policy:LRU@4` for a bare simulated policy.
    pub backend: String,
    /// Rendered reset sequence establishing the initial state.
    pub reset: String,
    /// Repetitions of the majority vote.
    pub reps: usize,
    /// The target cache set.
    pub target: Target,
}

impl std::fmt::Display for QueryConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} reset={} reps={} {} set={} slice={}",
            self.backend,
            self.reset,
            self.reps,
            self.target.level,
            self.target.set,
            self.target.slice
        )
    }
}

/// Anything that can execute concrete queries against a configured target:
/// the "scarce oracle" side of the query path.
///
/// Implementations report their current configuration through
/// [`QueryBackend::config`]; the engine uses it (rendered) as the store
/// namespace, so reconfiguring a backend automatically re-namespaces its
/// answers — no cache invalidation protocol is needed.
///
/// Every backend replays: each query runs whole from the initial state.
/// Simulators can also step ([`QueryBackend::stepper`]), which lets a probe
/// session answer a store miss with one step instead of a replay; every
/// other backend keeps the replay cost model.
pub trait QueryBackend: Send {
    /// Executes one concrete query and returns the classified outcome of
    /// every profiled access plus whether all repetitions agreed.  This is
    /// the raw path: implementations must not memoize (the engine does).
    ///
    /// # Errors
    ///
    /// Returns a [`BackendError`] if the backend is unconfigured or
    /// execution fails.
    fn execute(&mut self, query: &Query) -> Result<(Vec<HitMiss>, bool), BackendError>;

    /// Executes a batch of concrete queries, in order.  The default
    /// implementation loops over [`QueryBackend::execute`]; backends with a
    /// cheaper bulk path override it — one monomorphized simulation loop for
    /// the software backends, a single network round trip for a remote one.
    /// Native implementations must be observationally identical to the
    /// default loop: same answers, same per-query ordering of any internal
    /// state (e.g. a noisy backend's per-query fault indices).
    ///
    /// # Errors
    ///
    /// Stops at the first failing query and returns its error.
    fn execute_batch(
        &mut self,
        queries: &[Query],
    ) -> Result<Vec<(Vec<HitMiss>, bool)>, BackendError> {
        queries.iter().map(|q| self.execute(q)).collect()
    }

    /// The current configuration (memoization namespace) of the backend.
    ///
    /// # Errors
    ///
    /// Returns a [`BackendError`] if no target is configured yet.
    fn config(&self) -> Result<QueryConfig, BackendError>;

    /// Effective associativity of the configured target (after CAT), used by
    /// the MBL expansion macros.
    ///
    /// # Errors
    ///
    /// Returns a [`BackendError`] if no target is configured yet.
    fn associativity(&self) -> Result<usize, BackendError>;

    /// Whether [`QueryBackend::execute`] already accounts for repetition and
    /// majority voting itself, so the engine must **not** repeat queries on
    /// top of it.
    ///
    /// The default is `false`: `execute` is one raw measurement and the
    /// engine performs the [`QueryConfig::reps`] majority vote.  A backend
    /// that delegates to another engine — e.g. a remote `cqd` session whose
    /// server-side engine votes — returns `true`, and the local engine
    /// executes each query once and trusts the reported consistency flag.
    fn handles_repetitions(&self) -> bool {
        false
    }

    /// Opens an incremental execution from the backend's initial state, for
    /// probe sessions (see [`QueryEngine::step_session`]).
    ///
    /// The default is `None`: the backend replays, and the engine runs every
    /// probe as a whole query — the paper's cost model, which real hardware
    /// must keep (it cannot snapshot its replacement state), and which every
    /// backend with noise, voting, a remote engine or a cache hierarchy
    /// behind it keeps too.  Only exact, deterministic simulators step: a
    /// stepper's answers must equal [`QueryBackend::execute`] on the same
    /// queries, consistently and at one execution.
    fn stepper(&self) -> Option<Box<dyn QueryStepper>> {
        None
    }
}

/// An exact backend stepped one memory operation at a time from its initial
/// state — what [`QueryBackend::stepper`] hands a [`StepSession`].
pub trait QueryStepper: Send {
    /// Executes `op` on top of every operation stepped so far; returns its
    /// classification when `op` is profiled.
    fn step(&mut self, op: &MemOp) -> Option<HitMiss>;

    /// Classifies an access to `block` from the current state without
    /// executing it: the outcome a profiled `block?` appended to the stepped
    /// operations would get.
    fn peek(&self, block: BlockId) -> HitMiss;
}

impl<B: QueryBackend + ?Sized> QueryBackend for Box<B> {
    fn execute(&mut self, query: &Query) -> Result<(Vec<HitMiss>, bool), BackendError> {
        (**self).execute(query)
    }

    fn execute_batch(
        &mut self,
        queries: &[Query],
    ) -> Result<Vec<(Vec<HitMiss>, bool)>, BackendError> {
        (**self).execute_batch(queries)
    }

    fn config(&self) -> Result<QueryConfig, BackendError> {
        (**self).config()
    }

    fn associativity(&self) -> Result<usize, BackendError> {
        (**self).associativity()
    }

    fn handles_repetitions(&self) -> bool {
        (**self).handles_repetitions()
    }

    fn stepper(&self) -> Option<Box<dyn QueryStepper>> {
        (**self).stepper()
    }
}

/// Configuration of the engine's repetition/majority-vote layer (§4.3's
/// noise handling, moved to the one place every backend shares).
///
/// For every concrete query the engine executes the backend
/// [`QueryConfig::reps`] times and majority-votes each profiled access.  The
/// *vote margin* of an access is `(winner − loser) / total` (1.0 for a
/// unanimous vote, 0.0 for a tie); the query's margin is the minimum over
/// its accesses.  While the margin stays below [`VoteConfig::margin_permille`] the
/// engine *escalates*: it doubles the number of repetitions, up to
/// [`VoteConfig::max_rounds`] rounds.  A query that never reaches the margin
/// is reported with `consistent == false` — returned to the caller but never
/// committed to the [`QueryStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VoteConfig {
    /// Whether the engine votes at all.  Disabled, every query is executed
    /// exactly once regardless of `reps` — the configuration the
    /// noise-robustness tests use to prove that voting is load-bearing.
    pub enabled: bool,
    /// Minimum acceptable vote margin, in permille of the repetition count
    /// (the default 500 accepts a winner with ≥ 75% of the votes, matching
    /// the paper's "small minority of dissenting repetitions" rule).
    pub margin_permille: u32,
    /// Maximum number of voting rounds.  Round 1 executes `reps`
    /// repetitions; every further round doubles the total, so a query is
    /// executed at most `reps · 2^(max_rounds − 1)` times.  `0` is treated
    /// as `1` (a vote always executes at least the base repetitions).
    pub max_rounds: u32,
}

impl Default for VoteConfig {
    fn default() -> Self {
        VoteConfig {
            enabled: true,
            margin_permille: 500,
            max_rounds: 5,
        }
    }
}

impl VoteConfig {
    /// A configuration with voting switched off: one execution per query,
    /// the backend's own consistency flag passed through.
    pub fn disabled() -> Self {
        VoteConfig {
            enabled: false,
            ..VoteConfig::default()
        }
    }
}

/// Result of running one concrete query through an engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryOutcome {
    /// The query that was executed (after MBL expansion).
    pub rendered: String,
    /// Hit/miss classification of each profiled access, in order.
    pub outcomes: Vec<HitMiss>,
    /// Whether all repetitions of the query agreed on every profiled access.
    pub consistent: bool,
    /// Whether the result was served from the query store.
    pub from_cache: bool,
}

/// Accumulated statistical evidence from one engine's voting layer: how many
/// queries were voted on, how many never settled, and the worst (closest)
/// vote observed.
///
/// This is the raw material of the non-determinism detector: a consumer that
/// sees an inconsistent outcome asks its engine for the evidence and decides
/// whether the target is genuinely non-deterministic (many unsettled votes —
/// an adaptive follower set, a wrong reset sequence) or merely noisy.  Like
/// [`EngineStats`], evidence is engine-local and starts fresh in clones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VoteEvidence {
    /// Concrete queries the voting layer fully voted on.
    pub voted: u64,
    /// Voted queries whose majority never reached the configured margin.
    pub unsettled: u64,
    /// The minimum vote margin observed across all voted queries, in
    /// permille (1000 until a vote happens).
    pub worst_margin_permille: u64,
    /// Rendered text of the query with the worst margin (empty until a vote
    /// happens).
    pub worst_query: String,
}

impl Default for VoteEvidence {
    fn default() -> Self {
        VoteEvidence {
            voted: 0,
            unsettled: 0,
            worst_margin_permille: 1000,
            worst_query: String::new(),
        }
    }
}

impl VoteEvidence {
    /// Fraction of voted queries that never settled, in permille (0 when
    /// nothing was voted on).
    pub fn disagreement_permille(&self) -> u64 {
        (self.unsettled * 1000).checked_div(self.voted).unwrap_or(0)
    }
}

/// Work counters of one engine instance (not shared between clones — the
/// underlying [`QueryStore`] keeps the shared truth).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Concrete queries answered (store hits included).
    pub queries: u64,
    /// Concrete queries answered from the store.
    pub store_hits: u64,
    /// Concrete queries the backend answered (each counted once, however
    /// many repetitions the vote needed).
    pub backend_queries: u64,
    /// Raw backend executions, repetitions included — `backend_executions /
    /// backend_queries` is the effective repetition count and the direct
    /// measure of the voting overhead.
    pub backend_executions: u64,
}

/// A stepping probe session: the queries `prefix · b?` over one growing
/// prefix of unprofiled accesses, answered by [`QueryEngine::step`] with a
/// backend [`QueryStepper`] instead of whole-query replays.
///
/// Opened by [`QueryEngine::step_session`] and driven with the engine that
/// opened it, the way a [`TrieCursor`] is driven with its cache.  The
/// session holds the namespace handle, the store cursor on its prefix and
/// the stepper.  Store hits leave the stepper behind and the next miss
/// catches it up, so a session served entirely from the store never touches
/// the backend.  With a recorder attached, the session emits one
/// `engine.step_session` span when dropped, carrying its `lookups`,
/// `store_hits` and `backend_steps` (operations the stepper executed or
/// peeked).
pub struct StepSession {
    stepper: Box<dyn QueryStepper>,
    /// How many operations of `prefix` the stepper has executed.
    stepped: usize,
    /// The unprofiled accesses so far; each probe pushes its profiled access
    /// onto it and pops it again.
    prefix: Query,
    space: Option<StoreSpace>,
    cursor: TrieCursor,
    /// Prefix length at the previous probe: what that probe's query shares
    /// with the next one.
    shared: usize,
    lookups: u64,
    store_hits: u64,
    backend_steps: u64,
    /// The recorder and the session's opening time, when traced.
    trace: Option<(Arc<Recorder>, u64)>,
}

impl std::fmt::Debug for StepSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StepSession")
            .field("prefix", &render_query(&self.prefix))
            .field("stepped", &self.stepped)
            .field("lookups", &self.lookups)
            .field("store_hits", &self.store_hits)
            .field("backend_steps", &self.backend_steps)
            .finish_non_exhaustive()
    }
}

impl StepSession {
    /// Appends an unprofiled access to `block` to the session's prefix.
    pub fn advance(&mut self, block: BlockId) {
        self.prefix.push(MemOp::access(block));
    }
}

impl Drop for StepSession {
    fn drop(&mut self) {
        if let Some((recorder, start_ns)) = &self.trace {
            recorder.close_span(
                "engine.step_session",
                *start_ns,
                &[
                    ("lookups", FieldValue::U64(self.lookups)),
                    ("store_hits", FieldValue::U64(self.store_hits)),
                    ("backend_steps", FieldValue::U64(self.backend_steps)),
                ],
            );
        }
    }
}

/// The single query path: exactly one [`QueryStore`] in front of one
/// [`QueryBackend`].
///
/// `Clone` (for cloneable backends) duplicates the backend but **shares the
/// store**: clones are the per-worker instances of a parallel run and must
/// benefit from each other's answers.  Local [`EngineStats`] counters start
/// at zero in the clone.
#[derive(Debug)]
pub struct QueryEngine<B> {
    backend: B,
    store: Arc<QueryStore>,
    /// Cached `(config, namespace handle)` of the backend's last-seen
    /// configuration, so the hot path does not re-render and re-hash the
    /// namespace string per query.
    space: Option<(QueryConfig, StoreSpace)>,
    memoize: bool,
    voting: VoteConfig,
    stats: EngineStats,
    evidence: VoteEvidence,
    /// Optional span recorder (see [`QueryEngine::set_recorder`]).  Shared by
    /// clones, like the store: a per-worker engine traces into the same
    /// timeline as its siblings.
    recorder: Option<Arc<Recorder>>,
}

impl<B: Clone> Clone for QueryEngine<B> {
    fn clone(&self) -> Self {
        QueryEngine {
            backend: self.backend.clone(),
            store: Arc::clone(&self.store),
            space: self.space.clone(),
            memoize: self.memoize,
            voting: self.voting,
            stats: EngineStats::default(),
            evidence: VoteEvidence::default(),
            recorder: self.recorder.clone(),
        }
    }
}

impl<B: QueryBackend> QueryEngine<B> {
    /// Creates an engine with a private, empty store.
    pub fn new(backend: B) -> Self {
        Self::with_store(backend, Arc::new(QueryStore::new()))
    }

    /// Creates an engine over a shared store: every engine holding a clone of
    /// the same `Arc` serves (and fills) the same memoized answers.
    pub fn with_store(backend: B, store: Arc<QueryStore>) -> Self {
        QueryEngine {
            backend,
            store,
            space: None,
            memoize: true,
            voting: VoteConfig::default(),
            stats: EngineStats::default(),
            evidence: VoteEvidence::default(),
            recorder: None,
        }
    }

    /// Read-only access to the backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Mutable access to the backend (for reconfiguration; the engine picks
    /// up the new namespace automatically on the next query).
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }

    /// The shared store behind this engine.
    pub fn store(&self) -> &Arc<QueryStore> {
        &self.store
    }

    /// Enables or disables store consultation/recording for this engine
    /// (disabled engines always execute on the backend).
    pub fn set_memoize(&mut self, memoize: bool) {
        self.memoize = memoize;
    }

    /// Whether the engine consults and fills the store.
    pub fn memoize(&self) -> bool {
        self.memoize
    }

    /// Replaces the repetition/majority-vote configuration.
    pub fn set_vote_config(&mut self, voting: VoteConfig) {
        self.voting = voting;
    }

    /// The current repetition/majority-vote configuration.
    pub fn vote_config(&self) -> VoteConfig {
        self.voting
    }

    /// Attaches (or detaches, with `None`) a span recorder.  While attached,
    /// every batch through [`QueryEngine::run_many`] emits an
    /// `engine.run_batch` span carrying its `batch_len` and its store-hit /
    /// backend-execution split — so batch amortization shows up on the trace
    /// timeline — every voting round that escalates emits an
    /// `engine.vote_escalation` event under that span, and every
    /// [`StepSession`] opened afterwards emits one `engine.step_session`
    /// span.
    pub fn set_recorder(&mut self, recorder: Option<Arc<Recorder>>) {
        self.recorder = recorder;
    }

    /// The recorder this engine emits spans into, if any.
    pub fn recorder(&self) -> Option<&Arc<Recorder>> {
        self.recorder.as_ref()
    }

    /// This engine's local work counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Accumulated voting evidence of this engine (see [`VoteEvidence`]).
    pub fn vote_evidence(&self) -> &VoteEvidence {
        &self.evidence
    }

    fn refresh_space(&mut self) -> Result<&(QueryConfig, StoreSpace), BackendError> {
        let config = self.backend.config()?;
        let stale = match &self.space {
            Some((cached, _)) => *cached != config,
            None => true,
        };
        if stale {
            let space = self.store.space(&config.to_string());
            self.space = Some((config, space));
        }
        Ok(self.space.as_ref().expect("space was just refreshed"))
    }

    /// Runs a single concrete query: store lookup, backend execution on a
    /// miss, recording of consistent answers.
    ///
    /// # Errors
    ///
    /// Propagates backend errors.
    pub fn run(&mut self, query: &Query) -> Result<QueryOutcome, BackendError> {
        self.run_many(std::slice::from_ref(query))
            .map(|mut outcomes| outcomes.pop().expect("one query yields one outcome"))
    }

    /// Runs a batch of concrete queries: everything the store knows is served
    /// from memory, the rest goes to the backend in batched
    /// [`QueryBackend::execute_batch`] calls (one per voting repetition — a
    /// single round trip for remote backends, which vote server-side).
    ///
    /// The batch is the amortization unit of the query path: the backend's
    /// configuration is fetched (and the store namespace rendered) once per
    /// batch, not once per query, and the repetition count rides along to the
    /// voting layer instead of being re-queried there.
    ///
    /// # Errors
    ///
    /// Propagates backend errors; no partial results are returned.
    pub fn run_many(&mut self, queries: &[Query]) -> Result<Vec<QueryOutcome>, BackendError> {
        let memoize = self.memoize;
        // One `backend.config()` per batch: the voting layer reuses the
        // repetition count fetched here rather than re-rendering the config.
        let (batch_reps, space) = if memoize {
            let (config, space) = self.refresh_space()?;
            (Some(config.reps), Some(space.clone()))
        } else {
            (None, None)
        };
        // The Arc is cloned so the span borrows a local recorder, leaving
        // `self` free for the mutable backend call below.
        let recorder = self.recorder.clone();
        let mut span = obs::maybe_span(recorder.as_deref(), "engine.run_batch");
        let parent = span.as_ref().map(obs::Span::id);
        self.stats.queries += queries.len() as u64;

        let mut results: Vec<Option<QueryOutcome>> = Vec::with_capacity(queries.len());
        let mut missing: Vec<usize> = Vec::new();
        for (index, query) in queries.iter().enumerate() {
            let cached = space.as_ref().and_then(|s| s.lookup(query));
            match cached {
                Some(outcomes) => {
                    self.stats.store_hits += 1;
                    results.push(Some(QueryOutcome {
                        rendered: render_query(query),
                        outcomes,
                        consistent: true,
                        from_cache: true,
                    }));
                }
                None => {
                    results.push(None);
                    missing.push(index);
                }
            }
        }

        if let Some(span) = span.as_mut() {
            span.set("batch_len", queries.len() as u64);
            span.set("store_hits", (queries.len() - missing.len()) as u64);
            span.set("backend", missing.len() as u64);
        }

        if !missing.is_empty() {
            let reps = match batch_reps {
                Some(reps) => reps,
                // Memoization off: the config was not fetched above.
                None => self.backend.config()?.reps,
            };
            let to_run: Vec<Query> = missing.iter().map(|&i| queries[i].clone()).collect();
            let executed = self.execute_voted(&to_run, reps, parent)?;
            self.stats.backend_queries += executed.len() as u64;
            for (&index, (outcomes, consistent)) in missing.iter().zip(executed) {
                if let Some(space) = &space {
                    space.record(&queries[index], &outcomes, consistent);
                }
                results[index] = Some(QueryOutcome {
                    rendered: render_query(&queries[index]),
                    outcomes,
                    consistent,
                    from_cache: false,
                });
            }
        }

        Ok(results
            .into_iter()
            .map(|r| r.expect("every query is answered"))
            .collect())
    }

    /// Executes a batch on the backend with the engine's repetition /
    /// majority-vote layer (see [`VoteConfig`]).
    ///
    /// The repetition count comes from the backend's own
    /// [`QueryConfig::reps`] — the knob is honored here, in the one place
    /// every backend shares, instead of inside each backend; `run_many`
    /// fetches it once per batch and passes it down.  Backends that
    /// [handle repetitions themselves](QueryBackend::handles_repetitions)
    /// (remote engines) and `reps == 1` configurations are executed once,
    /// with the backend's consistency flag passed through.
    fn execute_voted(
        &mut self,
        queries: &[Query],
        reps: usize,
        parent: Option<u64>,
    ) -> Result<Vec<(Vec<HitMiss>, bool)>, BackendError> {
        let voting = self.voting;
        if !voting.enabled || reps <= 1 || self.backend.handles_repetitions() {
            let executed = self.backend.execute_batch(queries)?;
            self.stats.backend_executions += executed.len() as u64;
            return Ok(executed);
        }

        /// Running tally of one query's repetitions.
        struct Tally {
            /// Hit votes per profiled access.
            hits: Vec<u32>,
            /// Repetitions executed.
            reps: u32,
            /// All repetitions reported a consistent execution and the same
            /// number of profiled accesses.
            well_formed: bool,
        }

        impl Tally {
            fn add(&mut self, outcomes: &[HitMiss], rep_consistent: bool) {
                if self.reps == 0 {
                    self.hits = vec![0; outcomes.len()];
                } else if outcomes.len() != self.hits.len() {
                    self.well_formed = false;
                    self.reps += 1;
                    return;
                }
                for (votes, outcome) in self.hits.iter_mut().zip(outcomes) {
                    if *outcome == HitMiss::Hit {
                        *votes += 1;
                    }
                }
                self.well_formed &= rep_consistent;
                self.reps += 1;
            }

            /// Minimum vote margin across the profiled accesses, in permille
            /// (1000 for unanimous or access-free queries).
            fn margin_permille(&self) -> u64 {
                let total = u64::from(self.reps);
                self.hits
                    .iter()
                    .map(|&h| {
                        let hits = u64::from(h);
                        let misses = total - hits;
                        (hits.abs_diff(misses)) * 1000 / total.max(1)
                    })
                    .min()
                    .unwrap_or(1000)
            }

            fn majority(&self) -> Vec<HitMiss> {
                let total = self.reps;
                self.hits
                    .iter()
                    .map(|&h| {
                        if 2 * h > total {
                            HitMiss::Hit
                        } else {
                            HitMiss::Miss
                        }
                    })
                    .collect()
            }
        }

        let mut tallies: Vec<Tally> = (0..queries.len())
            .map(|_| Tally {
                hits: Vec::new(),
                reps: 0,
                well_formed: true,
            })
            .collect();
        let mut pending: Vec<usize> = (0..queries.len()).collect();
        let mut round_reps = reps;
        let mut total_reps = 0usize;
        let max_rounds = voting.max_rounds.max(1);
        for round in 1..=max_rounds {
            let subset: Vec<Query> = pending.iter().map(|&i| queries[i].clone()).collect();
            for _ in 0..round_reps {
                let executed = self.backend.execute_batch(&subset)?;
                self.stats.backend_executions += executed.len() as u64;
                for (&index, (outcomes, rep_consistent)) in pending.iter().zip(executed) {
                    tallies[index].add(&outcomes, rep_consistent);
                }
            }
            total_reps += round_reps;
            // Escalate only the queries whose vote is still too close; each
            // round doubles their total repetition count.
            pending.retain(|&index| {
                let tally = &tallies[index];
                tally.well_formed && tally.margin_permille() < u64::from(voting.margin_permille)
            });
            if pending.is_empty() || round == max_rounds {
                break;
            }
            if let Some(recorder) = self.recorder.as_deref() {
                recorder.event(
                    "engine.vote_escalation",
                    parent,
                    &[
                        ("round", FieldValue::U64(u64::from(round))),
                        ("pending", FieldValue::U64(pending.len() as u64)),
                    ],
                );
            }
            round_reps = total_reps;
        }

        let mut results = Vec::with_capacity(queries.len());
        for (query, tally) in queries.iter().zip(tallies) {
            let margin = tally.margin_permille();
            let settled = tally.well_formed && margin >= u64::from(voting.margin_permille);
            self.store.record_vote(
                margin,
                u64::from(tally.reps),
                u64::from(tally.reps) > reps as u64,
                settled,
            );
            self.evidence.voted += 1;
            if !settled {
                self.evidence.unsettled += 1;
            }
            if margin < self.evidence.worst_margin_permille || self.evidence.voted == 1 {
                self.evidence.worst_margin_permille = margin;
                self.evidence.worst_query = render_query(query);
            }
            results.push((tally.majority(), settled));
        }
        Ok(results)
    }

    /// Opens a stepping probe session from the backend's initial state, or
    /// returns `None` when this engine must replay: the backend cannot step
    /// ([`QueryBackend::stepper`]), or the engine votes on it (repetitions
    /// above one, see [`VoteConfig`]) while a stepper executes each probe
    /// once.
    ///
    /// # Errors
    ///
    /// Returns a [`BackendError`] if the backend is unconfigured.
    pub fn step_session(&mut self) -> Result<Option<StepSession>, BackendError> {
        let Some(stepper) = self.backend.stepper() else {
            return Ok(None);
        };
        let (reps, space) = if self.memoize {
            let (config, space) = self.refresh_space()?;
            (config.reps, Some(space.clone()))
        } else {
            (self.backend.config()?.reps, None)
        };
        if self.voting.enabled && reps > 1 && !self.backend.handles_repetitions() {
            return Ok(None);
        }
        Ok(Some(StepSession {
            stepper,
            stepped: 0,
            prefix: Query::new(),
            space,
            cursor: TrieCursor::new(),
            shared: 0,
            lookups: 0,
            store_hits: 0,
            backend_steps: 0,
            trace: self
                .recorder
                .as_ref()
                .map(|recorder| (Arc::clone(recorder), recorder.now_ns())),
        }))
    }

    /// Answers the probe `prefix · block?` of `session` (which this engine
    /// opened): one store lookup resumed at the prefix's trie position, and
    /// on a miss one backend step whose answer is recorded from that
    /// position.  The store sees exactly the lookup and recording
    /// [`run`](Self::run) would make for the same query, and this engine's
    /// [`EngineStats`] count the probe the same way.
    pub fn step(&mut self, session: &mut StepSession, block: BlockId) -> HitMiss {
        self.stats.queries += 1;
        session.lookups += 1;
        let lcp = session.shared;
        session.shared = session.prefix.len();
        session.prefix.push(MemOp::profiled(block));
        let cached = session
            .space
            .as_ref()
            .and_then(|space| space.lookup_resumed(&session.prefix, lcp, &mut session.cursor));
        let outcome = match cached {
            Some(outcomes) => {
                self.stats.store_hits += 1;
                session.store_hits += 1;
                *outcomes
                    .last()
                    .expect("a probe ends in its profiled access")
            }
            None => {
                let prefix = &session.prefix[..session.shared];
                for op in &prefix[session.stepped..] {
                    session.stepper.step(op);
                }
                session.backend_steps += (prefix.len() - session.stepped) as u64 + 1;
                session.stepped = prefix.len();
                let outcome = session.stepper.peek(block);
                self.stats.backend_queries += 1;
                self.stats.backend_executions += 1;
                if let Some(space) = &session.space {
                    let whole = session.prefix.len();
                    space.record_resumed(
                        &session.prefix,
                        &[outcome],
                        true,
                        whole,
                        &mut session.cursor,
                    );
                }
                outcome
            }
        };
        session.prefix.pop();
        outcome
    }

    /// Expands an MBL expression for the backend's associativity and runs
    /// every resulting concrete query (as one batch).
    ///
    /// # Errors
    ///
    /// Returns parse/expansion errors and backend errors.
    pub fn query_mbl(&mut self, mbl: &str) -> Result<Vec<QueryOutcome>, BackendError> {
        let assoc = self.backend.associativity()?;
        let queries = expand_query(mbl, assoc)?;
        self.run_many(&queries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache::LevelId;

    /// A deterministic toy backend: every access to an even block hits, odd
    /// blocks miss; execution count is observable.
    #[derive(Debug, Clone)]
    struct ParityBackend {
        executed: u64,
        consistent: bool,
    }

    impl ParityBackend {
        fn new() -> Self {
            ParityBackend {
                executed: 0,
                consistent: true,
            }
        }
    }

    impl QueryBackend for ParityBackend {
        fn execute(&mut self, query: &Query) -> Result<(Vec<HitMiss>, bool), BackendError> {
            self.executed += 1;
            let outcomes = query
                .iter()
                .filter(|op| op.tag == Some(mbl::Tag::Profile))
                .map(|op| {
                    if op.block.0 % 2 == 0 {
                        HitMiss::Hit
                    } else {
                        HitMiss::Miss
                    }
                })
                .collect();
            Ok((outcomes, self.consistent))
        }

        fn config(&self) -> Result<QueryConfig, BackendError> {
            Ok(QueryConfig {
                backend: "parity".to_string(),
                reset: "none".to_string(),
                reps: 1,
                target: Target::new(LevelId::L1, 0, 0),
            })
        }

        fn associativity(&self) -> Result<usize, BackendError> {
            Ok(4)
        }
    }

    fn concrete(mbl: &str) -> Query {
        expand_query(mbl, 4).unwrap().pop().unwrap()
    }

    #[test]
    fn second_run_is_served_from_the_store() {
        let mut engine = QueryEngine::new(ParityBackend::new());
        let q = concrete("A? B?");
        let first = engine.run(&q).unwrap();
        assert!(!first.from_cache);
        assert_eq!(first.outcomes, vec![HitMiss::Hit, HitMiss::Miss]);
        let second = engine.run(&q).unwrap();
        assert!(second.from_cache);
        assert_eq!(second.outcomes, first.outcomes);
        assert_eq!(engine.backend().executed, 1);
        let stats = engine.stats();
        assert_eq!(
            (stats.queries, stats.store_hits, stats.backend_queries),
            (2, 1, 1)
        );
    }

    #[test]
    fn engines_sharing_a_store_share_answers() {
        let store = Arc::new(QueryStore::new());
        let mut a = QueryEngine::with_store(ParityBackend::new(), Arc::clone(&store));
        let mut b = QueryEngine::with_store(ParityBackend::new(), Arc::clone(&store));
        let q = concrete("A?");
        assert!(!a.run(&q).unwrap().from_cache);
        assert!(b.run(&q).unwrap().from_cache);
        assert_eq!(b.backend().executed, 0);
    }

    #[test]
    fn clones_share_the_store_but_not_the_counters() {
        let mut original = QueryEngine::new(ParityBackend::new());
        original.run(&concrete("A?")).unwrap();
        let mut clone = original.clone();
        assert_eq!(clone.stats(), EngineStats::default());
        assert!(clone.run(&concrete("A?")).unwrap().from_cache);
    }

    #[test]
    fn inconsistent_answers_are_not_memoized() {
        let mut engine = QueryEngine::new(ParityBackend::new());
        engine.backend_mut().consistent = false;
        let q = concrete("A?");
        assert!(!engine.run(&q).unwrap().consistent);
        // The degraded answer was not stored: the next run re-executes.
        assert!(!engine.run(&q).unwrap().from_cache);
        assert_eq!(engine.backend().executed, 2);
    }

    #[test]
    fn disabling_memoization_bypasses_the_store() {
        let mut engine = QueryEngine::new(ParityBackend::new());
        engine.set_memoize(false);
        assert!(!engine.memoize());
        let q = concrete("A?");
        engine.run(&q).unwrap();
        assert!(!engine.run(&q).unwrap().from_cache);
        assert_eq!(engine.backend().executed, 2);
        assert_eq!(engine.store().entries(), 0);
    }

    #[test]
    fn mbl_expansion_goes_through_one_batch() {
        let mut engine = QueryEngine::new(ParityBackend::new());
        let results = engine.query_mbl("@ X _?").unwrap();
        assert_eq!(results.len(), 4);
        // One batch call per expansion set is the contract run_many provides;
        // the toy backend still counts one execution per query.
        assert_eq!(engine.backend().executed, 4);
        // Prefix sharing: "@ X" is a shared prefix of all four expansions.
        assert!(engine.store().entries() > 0);
    }

    #[test]
    fn recorder_traces_batches_and_store_hits() {
        let sink = Arc::new(obs::RingSink::new(64));
        let mut engine = QueryEngine::new(ParityBackend::new());
        engine.set_recorder(Some(Arc::new(Recorder::new(sink.clone()))));
        let q = concrete("A? B?");
        engine.run(&q).unwrap();
        engine.run(&q).unwrap();
        let lines = sink.drain();
        assert_eq!(lines.len(), 2, "one span per batch");
        assert!(lines[0].contains("\"name\":\"engine.run_batch\""));
        assert!(lines[0].contains("\"batch_len\":1"));
        assert!(lines[0].contains("\"store_hits\":0"));
        assert!(lines[0].contains("\"backend\":1"));
        assert!(lines[1].contains("\"store_hits\":1"));
        assert!(lines[1].contains("\"backend\":0"));
    }

    #[test]
    fn vote_escalations_emit_events_under_the_batch_span() {
        /// A fair coin: alternates miss/hit per raw execution, so a majority
        /// vote never reaches any margin and every round escalates.
        #[derive(Debug, Clone)]
        struct FlakyBackend {
            calls: u64,
        }
        impl QueryBackend for FlakyBackend {
            fn execute(&mut self, query: &Query) -> Result<(Vec<HitMiss>, bool), BackendError> {
                self.calls += 1;
                let outcome = if self.calls.is_multiple_of(2) {
                    HitMiss::Hit
                } else {
                    HitMiss::Miss
                };
                let outcomes = query
                    .iter()
                    .filter(|op| op.tag == Some(mbl::Tag::Profile))
                    .map(|_| outcome)
                    .collect();
                Ok((outcomes, true))
            }
            fn config(&self) -> Result<QueryConfig, BackendError> {
                Ok(QueryConfig {
                    backend: "flaky".to_string(),
                    reset: "none".to_string(),
                    reps: 2,
                    target: Target::new(LevelId::L1, 0, 0),
                })
            }
            fn associativity(&self) -> Result<usize, BackendError> {
                Ok(4)
            }
        }

        let sink = Arc::new(obs::RingSink::new(64));
        let mut engine = QueryEngine::new(FlakyBackend { calls: 0 });
        engine.set_recorder(Some(Arc::new(Recorder::new(sink.clone()))));
        engine.set_vote_config(VoteConfig {
            enabled: true,
            margin_permille: 500,
            max_rounds: 2,
        });
        let outcome = engine.run(&concrete("A?")).unwrap();
        assert!(!outcome.consistent, "a fair coin never settles");
        let lines = sink.drain();
        let escalations: Vec<&String> = lines
            .iter()
            .filter(|l| l.contains("\"name\":\"engine.vote_escalation\""))
            .collect();
        assert_eq!(escalations.len(), 1, "max_rounds=2 escalates exactly once");
        assert!(escalations[0].contains("\"round\":1"));
        assert!(escalations[0].contains("\"pending\":1"));
        // The batch span was opened first (id 1); the event nests under it.
        assert!(escalations[0].contains("\"parent\":1"));
    }

    /// The parity rule, stepped: an exact backend whose answers do not
    /// depend on history, with a configurable repetition count.
    #[derive(Debug, Clone)]
    struct SteppingParity {
        inner: ParityBackend,
        reps: usize,
    }

    struct ParityStepper;

    impl QueryStepper for ParityStepper {
        fn step(&mut self, op: &MemOp) -> Option<HitMiss> {
            (op.tag == Some(mbl::Tag::Profile)).then(|| self.peek(op.block))
        }

        fn peek(&self, block: BlockId) -> HitMiss {
            if block.0.is_multiple_of(2) {
                HitMiss::Hit
            } else {
                HitMiss::Miss
            }
        }
    }

    impl QueryBackend for SteppingParity {
        fn execute(&mut self, query: &Query) -> Result<(Vec<HitMiss>, bool), BackendError> {
            self.inner.execute(query)
        }

        fn config(&self) -> Result<QueryConfig, BackendError> {
            Ok(QueryConfig {
                reps: self.reps,
                ..self.inner.config()?
            })
        }

        fn associativity(&self) -> Result<usize, BackendError> {
            self.inner.associativity()
        }

        fn stepper(&self) -> Option<Box<dyn QueryStepper>> {
            Some(Box::new(ParityStepper))
        }
    }

    fn stepping(reps: usize) -> SteppingParity {
        SteppingParity {
            inner: ParityBackend::new(),
            reps,
        }
    }

    #[test]
    fn only_single_execution_steppers_open_step_sessions() {
        assert!(QueryEngine::new(ParityBackend::new())
            .step_session()
            .unwrap()
            .is_none());
        assert!(QueryEngine::new(stepping(1))
            .step_session()
            .unwrap()
            .is_some());
        // Three repetitions are voted on, which a stepper cannot do.
        let mut voting = QueryEngine::new(stepping(3));
        assert!(voting.step_session().unwrap().is_none());
        voting.set_vote_config(VoteConfig::disabled());
        assert!(voting.step_session().unwrap().is_some());
    }

    #[test]
    fn step_sessions_make_the_store_traffic_of_whole_queries() {
        // The probes `prefix · b?` of one session, stepped on one engine and
        // run as whole queries on another: same answers, same store counts
        // and contents, same engine counters.
        let blocks = [BlockId(1), BlockId(2), BlockId(2), BlockId(5), BlockId(4)];
        let mut stepped = QueryEngine::new(stepping(1));
        let mut replayed = QueryEngine::new(stepping(1));
        for _round in 0..2 {
            let mut session = stepped.step_session().unwrap().unwrap();
            let mut prefix = Query::new();
            for (i, &block) in blocks.iter().enumerate() {
                let speculated = BlockId(10 + i as u32 % 3);
                for probe in [speculated, block] {
                    let mut query = prefix.clone();
                    query.push(MemOp::profiled(probe));
                    let expected = replayed.run(&query).unwrap().outcomes[0];
                    assert_eq!(stepped.step(&mut session, probe), expected);
                }
                session.advance(block);
                prefix.push(MemOp::access(block));
            }
        }
        assert_eq!(stepped.stats(), replayed.stats());
        assert_eq!(stepped.store().counts(), replayed.store().counts());
        assert_eq!(stepped.store().entries(), replayed.store().entries());
        assert_eq!(stepped.store().export(), replayed.store().export());
        // The second round was served from the store: the backend stepped
        // only for the first.
        assert_eq!(stepped.stats().store_hits, blocks.len() as u64 * 2);
    }

    #[test]
    fn a_traced_step_session_emits_one_span() {
        let sink = Arc::new(obs::RingSink::new(64));
        let mut engine = QueryEngine::new(stepping(1));
        engine.set_recorder(Some(Arc::new(Recorder::new(sink.clone()))));
        let mut session = engine.step_session().unwrap().unwrap();
        engine.step(&mut session, BlockId(3));
        session.advance(BlockId(3));
        engine.step(&mut session, BlockId(4));
        engine.step(&mut session, BlockId(4));
        assert!(sink.drain().is_empty(), "the span closes with the session");
        drop(session);
        let lines = sink.drain();
        assert_eq!(lines.len(), 1, "one span per session, not per probe");
        assert!(lines[0].contains("\"name\":\"engine.step_session\""));
        assert!(lines[0].contains("\"lookups\":3"));
        assert!(lines[0].contains("\"store_hits\":1"));
        // Two misses: a peek each, plus the catch-up step over `3`.
        assert!(lines[0].contains("\"backend_steps\":3"));
    }

    #[test]
    fn reconfiguring_the_backend_renames_the_namespace() {
        #[derive(Debug, Clone)]
        struct Switchable(ParityBackend, usize);
        impl QueryBackend for Switchable {
            fn execute(&mut self, q: &Query) -> Result<(Vec<HitMiss>, bool), BackendError> {
                self.0.execute(q)
            }
            fn config(&self) -> Result<QueryConfig, BackendError> {
                let mut config = self.0.config()?;
                config.target.set = self.1;
                Ok(config)
            }
            fn associativity(&self) -> Result<usize, BackendError> {
                self.0.associativity()
            }
        }
        let mut engine = QueryEngine::new(Switchable(ParityBackend::new(), 0));
        let q = concrete("A?");
        engine.run(&q).unwrap();
        engine.backend_mut().1 = 1;
        assert!(!engine.run(&q).unwrap().from_cache, "new namespace, no hit");
        assert_eq!(engine.store().namespaces(), 2);
    }

    #[test]
    fn a_batch_fetches_the_config_exactly_once() {
        // Regression guard for the batch amortization contract: however many
        // queries a batch carries, the engine fetches (and renders) the
        // backend configuration once — the voting layer reuses it instead of
        // asking again — and the store ends up with exactly one namespace.
        use std::sync::atomic::{AtomicU64, Ordering};
        #[derive(Debug, Clone)]
        struct ConfigCounter(ParityBackend, Arc<AtomicU64>);
        impl QueryBackend for ConfigCounter {
            fn execute(&mut self, q: &Query) -> Result<(Vec<HitMiss>, bool), BackendError> {
                self.0.execute(q)
            }
            fn config(&self) -> Result<QueryConfig, BackendError> {
                self.1.fetch_add(1, Ordering::Relaxed);
                self.0.config()
            }
            fn associativity(&self) -> Result<usize, BackendError> {
                self.0.associativity()
            }
        }

        let calls = Arc::new(AtomicU64::new(0));
        let mut engine = QueryEngine::new(ConfigCounter(ParityBackend::new(), calls.clone()));
        let queries = expand_query("@ X _?", 4).unwrap();
        assert!(queries.len() > 1, "the batch must be non-trivial");
        engine.run_many(&queries).unwrap();
        assert_eq!(
            calls.load(Ordering::Relaxed),
            1,
            "a batch of {} queries must render the namespace once",
            queries.len()
        );
        assert_eq!(engine.store().namespaces(), 1, "one store key per config");
        // A second, fully store-served batch still revalidates the namespace
        // (that is how reconfiguration is detected) — once, not per query.
        engine.run_many(&queries).unwrap();
        assert_eq!(calls.load(Ordering::Relaxed), 2);
    }
}
