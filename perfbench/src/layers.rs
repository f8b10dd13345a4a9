//! Decorators for the traced runs.  Each wraps one public layer boundary,
//! counts the calls through it and — where a call costs about a microsecond
//! or more — times them.  Finer boundaries (simulator steps) are only
//! counted: timing them would cost more than the work they measure.
//!
//! Self time of a layer is its inclusive time minus the inclusive time of
//! the next layer down, so the self times telescope to the learner's root.
//! Each boundary is timed on its own, so a boundary timed wrong shows as a
//! negative self time; `campaign_metrics` counts that as a failure.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use automata::{minimize, Mealy};
use cache::HitMiss;
use cachequery::{BackendError, QueryBackend, QueryConfig};
use learning::{
    learn_mealy, EquivalenceOracle, LearnError, LearnOptions, LearnStats, MembershipOracle,
    OracleError, QueryPool, WpMethodOracle,
};
use mbl::{BlockId, Query};
use polca::{CacheOracle, CacheSession, PolcaOracle, ReplaySession};
use policies::{policy_alphabet, PolicyMealy};

use crate::Report;

/// Counters of one traced campaign, shared by every clone of a decorator.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Calls into `MembershipOracle::query` (prefix-trie misses).
    pub mq_calls: AtomicU64,
    /// Nanoseconds inside `MembershipOracle::query`.
    pub mq_ns: AtomicU64,
    /// Nanoseconds inside `EquivalenceOracle::find_counterexample`.
    pub eq_ns: AtomicU64,
    /// `CacheSession::access` calls.
    pub accesses: AtomicU64,
    /// `CacheSession::speculate` calls (`findEvicted`).
    pub speculations: AtomicU64,
    /// Nanoseconds inside `CacheOracle::probe` (engine-backed caches only).
    pub probe_ns: AtomicU64,
    /// Queries executed by the backend.
    pub executions: AtomicU64,
    /// `execute` plus `execute_batch` calls.
    pub batches: AtomicU64,
    /// Block accesses in the executed queries.
    pub block_accesses: AtomicU64,
    /// `QueryBackend::config` calls.
    pub config_calls: AtomicU64,
    /// Nanoseconds inside `execute`/`execute_batch`.
    pub backend_ns: AtomicU64,
}

impl Ledger {
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    pub fn secs(counter: &AtomicU64) -> f64 {
        Self::get(counter) as f64 / 1e9
    }
}

fn add(counter: &AtomicU64, n: u64) {
    counter.fetch_add(n, Ordering::Relaxed);
}

fn elapsed_ns(started: Instant) -> u64 {
    started.elapsed().as_nanos() as u64
}

/// Times every membership query the learner's pool sends to its oracle.
pub struct TimedMembership<M> {
    pub inner: M,
    pub ledger: Arc<Ledger>,
}

impl<I, O, M: MembershipOracle<I, O>> MembershipOracle<I, O> for TimedMembership<M> {
    fn query(&mut self, word: &[I]) -> Result<Vec<O>, OracleError> {
        let started = Instant::now();
        let out = self.inner.query(word);
        add(&self.ledger.mq_ns, elapsed_ns(started));
        add(&self.ledger.mq_calls, 1);
        out
    }

    fn queries_answered(&self) -> u64 {
        self.inner.queries_answered()
    }
}

/// Times every equivalence query.
pub struct TimedEquivalence<E> {
    pub inner: E,
    pub ledger: Arc<Ledger>,
}

impl<I, O, E: EquivalenceOracle<I, O>> EquivalenceOracle<I, O> for TimedEquivalence<E> {
    fn find_counterexample(
        &mut self,
        pool: &mut QueryPool<'_, I, O>,
        hypothesis: &Mealy<I, O>,
    ) -> Result<Option<Vec<I>>, OracleError> {
        let started = Instant::now();
        let out = self.inner.find_counterexample(pool, hypothesis);
        add(&self.ledger.eq_ns, elapsed_ns(started));
        out
    }
}

/// Counts probe-session steps; wraps whatever session the cache hands out.
struct CountedSession<'a> {
    inner: Box<dyn CacheSession + 'a>,
    ledger: Arc<Ledger>,
}

impl CacheSession for CountedSession<'_> {
    fn access(&mut self, block: BlockId) -> Result<HitMiss, OracleError> {
        add(&self.ledger.accesses, 1);
        self.inner.access(block)
    }

    fn speculate(&mut self, block: BlockId) -> Result<HitMiss, OracleError> {
        add(&self.ledger.speculations, 1);
        self.inner.speculate(block)
    }
}

/// A traced [`CacheOracle`].  Simulated caches keep their own incremental
/// sessions (steps are counted, not timed).  Engine-backed caches replay —
/// exactly as `CacheQueryOracle::begin` does — but through this decorator,
/// so every replayed probe is timed as the engine's share.
#[derive(Clone)]
pub struct TracedCache<C> {
    pub inner: C,
    pub ledger: Arc<Ledger>,
    /// Whether sessions replay through [`CacheOracle::probe`].
    pub replay: bool,
}

impl<C: CacheOracle> CacheOracle for TracedCache<C> {
    fn associativity(&self) -> usize {
        self.inner.associativity()
    }

    fn probe(&mut self, trace: &[BlockId]) -> Result<HitMiss, OracleError> {
        if !self.replay {
            return self.inner.probe(trace);
        }
        let started = Instant::now();
        let out = self.inner.probe(trace);
        add(&self.ledger.probe_ns, elapsed_ns(started));
        out
    }

    fn begin(&mut self) -> Box<dyn CacheSession + '_> {
        let ledger = Arc::clone(&self.ledger);
        let inner: Box<dyn CacheSession + '_> = if self.replay {
            Box::new(ReplaySession::new(self))
        } else {
            self.inner.begin()
        };
        Box::new(CountedSession { inner, ledger })
    }

    fn probes(&self) -> u64 {
        self.inner.probes()
    }

    fn block_accesses(&self) -> u64 {
        self.inner.block_accesses()
    }
}

/// A traced [`QueryBackend`]: counts and times executions.
#[derive(Clone)]
pub struct TracedBackend<B> {
    pub inner: B,
    pub ledger: Arc<Ledger>,
}

impl<B: QueryBackend> TracedBackend<B> {
    fn note(&self, queries: &[Query], started: Instant) {
        add(&self.ledger.backend_ns, elapsed_ns(started));
        add(&self.ledger.batches, 1);
        add(&self.ledger.executions, queries.len() as u64);
        add(
            &self.ledger.block_accesses,
            queries.iter().map(|q| q.len() as u64).sum(),
        );
    }
}

impl<B: QueryBackend> QueryBackend for TracedBackend<B> {
    fn execute(&mut self, query: &Query) -> Result<(Vec<HitMiss>, bool), BackendError> {
        let started = Instant::now();
        let out = self.inner.execute(query);
        self.note(std::slice::from_ref(query), started);
        out
    }

    fn execute_batch(
        &mut self,
        queries: &[Query],
    ) -> Result<Vec<(Vec<HitMiss>, bool)>, BackendError> {
        let started = Instant::now();
        let out = self.inner.execute_batch(queries);
        self.note(queries, started);
        out
    }

    fn config(&self) -> Result<QueryConfig, BackendError> {
        add(&self.ledger.config_calls, 1);
        self.inner.config()
    }

    fn associativity(&self) -> Result<usize, BackendError> {
        self.inner.associativity()
    }

    fn handles_repetitions(&self) -> bool {
        self.inner.handles_repetitions()
    }
}

/// One traced campaign's result.
pub struct TracedCampaign {
    /// The learned, minimized machine.
    pub machine: PolicyMealy,
    pub stats: LearnStats,
    /// Probes and block accesses the cache oracle counted.
    pub probes: u64,
    pub block_accesses: u64,
    /// Seconds inside `learn_mealy`.
    pub learner_s: f64,
    /// Seconds for the whole campaign, minimization included.
    pub root_s: f64,
}

/// Learns `cache` exactly as `polca::learn_policy` does at one worker —
/// same alphabet, Wp-method depth 1, default options — but with the
/// membership, equivalence and cache boundaries decorated.
pub fn traced_campaign<C>(
    cache: C,
    replay: bool,
    ledger: &Arc<Ledger>,
) -> Result<TracedCampaign, LearnError>
where
    C: CacheOracle + Clone + Send + 'static,
{
    let started = Instant::now();
    let alphabet = policy_alphabet(cache.associativity());
    let traced = TracedCache {
        inner: cache,
        ledger: Arc::clone(ledger),
        replay,
    };
    let handle = traced.clone();
    let mq_ledger = Arc::clone(ledger);
    let factory = move || TimedMembership {
        inner: PolcaOracle::new(traced.clone()),
        ledger: Arc::clone(&mq_ledger),
    };
    let mut equivalence = TimedEquivalence {
        inner: WpMethodOracle::new(1),
        ledger: Arc::clone(ledger),
    };
    let options = LearnOptions {
        max_states: 1 << 16,
        workers: 1,
        ..LearnOptions::default()
    };
    let learning = Instant::now();
    let (machine, stats) = learn_mealy(alphabet, &factory, &mut equivalence, options)?;
    let learner_s = learning.elapsed().as_secs_f64();
    let machine = minimize(&machine);
    Ok(TracedCampaign {
        machine,
        stats,
        probes: handle.probes(),
        block_accesses: handle.block_accesses(),
        learner_s,
        root_s: started.elapsed().as_secs_f64(),
    })
}

/// Smallest share of the campaign wall time the learner (and so the sum of
/// the layer self times) may take: the rest is minimization and set-up,
/// outside every decorated boundary.
const SELF_SUM_FLOOR: f64 = 0.95;

/// Learner, Polca and engine metrics of a set of traced campaigns that
/// shared `ledger`, with the checks that the layer self times are never
/// negative and cover at least `SELF_SUM_FLOOR` of the campaign time.
pub fn campaign_metrics(report: &mut Report, ledger: &Ledger, campaigns: &[TracedCampaign]) {
    let sum = |f: &dyn Fn(&TracedCampaign) -> u64| campaigns.iter().map(f).sum::<u64>();
    let mq_s = Ledger::secs(&ledger.mq_ns);
    let probe_s = Ledger::secs(&ledger.probe_ns);
    let backend_s = Ledger::secs(&ledger.backend_ns);
    let learner_s: f64 = campaigns.iter().map(|c| c.learner_s).sum();
    let root_s: f64 = campaigns.iter().map(|c| c.root_s).sum();
    let probes = sum(&|c| c.probes);
    let block_accesses = sum(&|c| c.block_accesses);
    let eq_s = Ledger::secs(&ledger.eq_ns);
    let layers = [
        ("learning.self_s", learner_s - mq_s),
        ("polca.self_s", mq_s - probe_s),
        ("engine.self_s", probe_s - backend_s),
        ("learner time outside equivalence queries", learner_s - eq_s),
    ];
    for (name, seconds) in layers {
        report.check(seconds >= 0.0, || {
            format!("{name} = {seconds} s: a boundary is timed wrong")
        });
    }
    report.check(learner_s >= SELF_SUM_FLOOR * root_s, || {
        format!("layer self times cover {learner_s} s of a {root_s} s campaign")
    });

    report.set("learning.mq", sum(&|c| c.stats.membership_queries) as f64);
    report.set("learning.mq_oracle", Ledger::get(&ledger.mq_calls) as f64);
    report.set("learning.eq", sum(&|c| c.stats.equivalence_queries) as f64);
    report.set("learning.tests", sum(&|c| c.stats.conformance_tests) as f64);
    report.set("learning.eq_s", eq_s);
    report.set("learning.self_s", learner_s - mq_s);
    report.set("polca.accesses", Ledger::get(&ledger.accesses) as f64);
    report.set(
        "polca.speculations",
        Ledger::get(&ledger.speculations) as f64,
    );
    report.set("polca.probes", probes as f64);
    report.set("polca.block_accesses", block_accesses as f64);
    report.set(
        "polca.replay_factor",
        block_accesses as f64 / probes.max(1) as f64,
    );
    report.set("polca.incl_s", mq_s);
    report.set("polca.self_s", mq_s - probe_s);
    report.set(
        "engine.config_calls",
        Ledger::get(&ledger.config_calls) as f64,
    );
    report.set("engine.self_s", probe_s - backend_s);
    report.set("trace.root_s", root_s);
    // The layer self times telescope to the learner's time; the remainder
    // is campaign time outside every decorated boundary.
    report.set("trace.self_sum_share", learner_s / root_s);
}

/// Backend metrics of a traced campaign whose `QueryBackend` is the cache
/// itself (not a wire client).
pub fn backend_metrics(report: &mut Report, ledger: &Ledger) {
    let executions = Ledger::get(&ledger.executions);
    let batches = Ledger::get(&ledger.batches);
    report.set("backend.executions", executions as f64);
    report.set("backend.batches", batches as f64);
    report.set(
        "backend.batch_len",
        executions as f64 / batches.max(1) as f64,
    );
    report.set(
        "backend.block_accesses",
        Ledger::get(&ledger.block_accesses) as f64,
    );
    report.set("backend.s", Ledger::secs(&ledger.backend_ns));
}
