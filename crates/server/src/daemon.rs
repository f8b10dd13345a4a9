//! The `cqd` daemon: a multi-session TCP frontend over the unified query
//! engine.
//!
//! Architecture (§4.2's service frontend, scaled to many clients):
//!
//! * an **accept loop** turns every TCP connection into a session thread
//!   speaking the newline-delimited JSON protocol of [`crate::proto`];
//! * each session holds a validated `ResolvedSpec` (backend + target
//!   configuration) and answers what it can without touching a backend:
//!   protocol chatter, configuration changes, and — crucially — every
//!   concrete query already memoized in the shared [`QueryStore`];
//! * a session serves its store misses itself, on the **backend pool** —
//!   one [`QueryEngine`] per backend identity (CPU model × seed × CAT
//!   restriction, or simulated policy), created lazily and serialized by a
//!   mutex, all sharing the daemon's one store: the engine *is* the
//!   concurrent implementation of the memoization layer, and the "scarce
//!   hardware" it multiplexes;
//! * a **miss gate** admits at most [`CqdConfig::workers`] sessions to the
//!   backend pool at once; the others wait for a slot, which is the
//!   daemon's backpressure (clients see latency, the pool never sees more
//!   concurrent work than the cap);
//! * `learn` requests spawn asynchronous [`polca::LearnJob`]s whose oracle
//!   runs through an engine over the **same shared store** — campaign
//!   answers land in the trie sessions are served from (and vice versa);
//!   sessions poll or stream live job progress without taking a miss slot.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use cache::{HitMiss, LevelId};
use cachequery::{
    encode_pattern, parse_command, Backend, Command, NoiseSpec, QueryBackend, QueryConfig,
    QueryEngine, QueryOutcome, QueryStore, ResetSequence, StoreOptions, StoreSpace, Target,
    DEFAULT_NOISY_REPS, HELP_TEXT,
};
use hardware::{CpuModel, SimulatedCpu};
use mbl::{expand_query, render_query, Query};
use obs::{Counter, MetricKind, Recorder, WriterSink};
use polca::{
    map_cache, noisy_sim_backend, noisy_sim_config_for, CacheMap, CacheQueryOracle, GroupOutcome,
    JobStatus, LearnJob, LearnSetup, MapConfig, NoisySimBackend, PolicySimBackend, SetVerdict,
};
use policies::PolicyKind;

use trace::{differential_replay, generate, replay_policy, GeneratorKind, TraceSpec};

use crate::metrics::ServerMetrics;
use crate::proto::{
    decode_request, encode_response, Request, Response, ServerInfo, ServerStats, SessionSpec,
    WireCacheMap, WireJobStatus, WireMapGroup, WireMapSet, WireMetric, WireNamespace, WireOutcome,
    WirePhase, WireReplay, WireSessionStats, WireStats, PROTOCOL_VERSION,
};

/// Configuration of a daemon instance.
#[derive(Debug, Clone)]
pub struct CqdConfig {
    /// Address to bind (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// How many sessions may execute store misses on the backend pool at
    /// once (at least 1); the others wait for a slot (backpressure).
    pub workers: usize,
    /// When set, the daemon appends structured span events (one JSON object
    /// per line) covering request handling, engine batches and learning
    /// campaigns to this file.
    pub trace_log: Option<PathBuf>,
    /// When set, the shared query store is durable: answers are appended to
    /// a record log in this directory, compacted into snapshots, and
    /// replayed on the next start — so a restarted daemon serves yesterday's
    /// campaign from memory instead of re-executing it.
    pub store_dir: Option<PathBuf>,
    /// When set, the shared store holds at most this many entries, clearing
    /// whole namespaces, the least recently touched first.
    pub store_max_entries: Option<u64>,
}

impl Default for CqdConfig {
    fn default() -> Self {
        CqdConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            trace_log: None,
            store_dir: None,
            store_max_entries: None,
        }
    }
}

/// Locks a daemon mutex, recovering from poison instead of propagating it:
/// the panicking holder has already unwound and the guarded data (maps,
/// lists, counters) is still structurally valid, so degrading one request to
/// an error beats turning a single thread's panic into a daemon-wide outage.
/// Every recovery bumps `cqd_lock_poisoned_total`.
fn lock_unpoisoned<'a, T>(mutex: &'a Mutex<T>, poisoned: &Counter) -> MutexGuard<'a, T> {
    mutex.lock().unwrap_or_else(|e| {
        poisoned.inc();
        e.into_inner()
    })
}

/// How often blocked reads wake up to check for shutdown.
const POLL_INTERVAL: Duration = Duration::from_millis(50);
/// Upper bound on one request line; longer lines close the session.
const MAX_REQUEST_BYTES: usize = 1 << 20;
/// How often `wait` emits a non-final status line.
const WAIT_STATUS_INTERVAL: Duration = Duration::from_millis(200);
/// Largest associativity accepted by the `learn` command (and by `policy:`
/// session targets and `map` campaigns).
const MAX_LEARN_ASSOC: usize = 4;
/// Largest number of concrete queries one MBL expression may expand to.
const MAX_EXPANSIONS: usize = 4096;
/// Most repetitions a session or noisy policy spec may vote with.  The engine
/// executes a voted query `reps` times per round and escalates over at most
/// `VoteConfig::max_rounds` rounds, so the cap bounds one query at
/// `MAX_REPS · 2^(max_rounds − 1)` executions; unbounded, a single `target`
/// line could hold a miss slot (and its machine's pooled backend)
/// indefinitely.
const MAX_REPS: usize = 99;

/// The backend half of a resolved session spec: which scarce oracle answers
/// this session's queries.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum ResolvedBackend {
    /// A simulated machine (the §7 path).
    Hardware {
        /// CPU model.
        model: CpuModel,
        /// Machine seed.
        seed: u64,
        /// CAT restriction of the last-level cache.
        cat: Option<usize>,
    },
    /// A bare simulated replacement policy (the §6 path, shared with
    /// `learn` campaigns), optionally decorated with seeded fault injection
    /// (the noise-robustness path).
    Policy {
        /// The policy.
        kind: PolicyKind,
        /// Its associativity.
        assoc: usize,
        /// Fault rates plus the repetition count the engine votes with, for
        /// `POLICY@ASSOC+noise(...)` specs.
        noise: Option<(NoiseSpec, usize)>,
    },
}

/// A session's backend/target configuration after validation.
#[derive(Debug, Clone)]
pub(crate) struct ResolvedSpec {
    pub(crate) backend: ResolvedBackend,
    pub(crate) reset: ResetSequence,
    pub(crate) reps: usize,
    pub(crate) target: Target,
    /// Effective associativity of the target (after CAT).
    pub(crate) assoc: usize,
}

impl ResolvedSpec {
    /// The memoization namespace this spec shares with every engine driving
    /// an identically-configured backend.  For hardware specs this renders
    /// byte-identically to `Backend`'s own
    /// [`QueryBackend::config`](cachequery::QueryBackend::config), which is
    /// what makes session-side store lookups and pooled-engine recordings
    /// meet in one namespace.
    pub(crate) fn config(&self) -> QueryConfig {
        match &self.backend {
            ResolvedBackend::Hardware { model, seed, cat } => QueryConfig {
                backend: format!(
                    "{} seed={seed} cat={}",
                    model.short_name(),
                    cat.map_or_else(|| "-".to_string(), |ways| ways.to_string())
                ),
                reset: self.reset.to_string(),
                reps: self.reps,
                target: self.target,
            },
            ResolvedBackend::Policy { kind, assoc, noise } => match noise {
                None => PolicySimBackend::config_for(*kind, *assoc),
                Some((spec, reps)) => noisy_sim_config_for(*kind, *assoc, spec, *reps),
            },
        }
    }
}

fn parse_model(name: &str) -> Option<CpuModel> {
    match name.to_ascii_lowercase().as_str() {
        "haswell" => Some(CpuModel::HaswellI7_4790),
        "skylake" => Some(CpuModel::SkylakeI5_6500),
        "kabylake" | "kaby-lake" => Some(CpuModel::KabyLakeI7_8550U),
        _ => None,
    }
}

/// Parses the `+noise(key=value,…)` suffix of a policy spec into a
/// [`NoiseSpec`] plus the engine's repetition count.  Rates are fractions
/// (`flip=0.05`), stored as permille; `seed` and `reps` are integers; every
/// key is optional.
fn parse_noise_args(args: &str) -> Result<(NoiseSpec, usize), String> {
    let mut spec = NoiseSpec {
        flip_permille: 0,
        drop_permille: 0,
        evict_permille: 0,
        seed: 0,
    };
    let mut reps = DEFAULT_NOISY_REPS;
    for part in args.split(',').filter(|p| !p.trim().is_empty()) {
        let (key, value) = part
            .split_once('=')
            .ok_or_else(|| format!("bad noise argument '{part}' (expected key=value)"))?;
        let (key, value) = (key.trim(), value.trim());
        let permille = || -> Result<u32, String> {
            let rate: f64 = value
                .parse()
                .map_err(|_| format!("bad noise rate '{value}'"))?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!("noise rate '{value}' outside [0, 1]"));
            }
            Ok((rate * 1000.0).round() as u32)
        };
        match key {
            "flip" => spec.flip_permille = permille()?,
            "drop" => spec.drop_permille = permille()?,
            "evict" => spec.evict_permille = permille()?,
            "seed" => {
                spec.seed = value
                    .parse()
                    .map_err(|_| format!("bad noise seed '{value}'"))?;
            }
            "reps" => {
                reps = value
                    .parse::<usize>()
                    .map_err(|_| format!("bad noise reps '{value}'"))?
                    .max(1);
                if reps > MAX_REPS {
                    return Err(format!("noise reps {reps} exceeds the limit of {MAX_REPS}"));
                }
            }
            other => return Err(format!("unknown noise key '{other}'")),
        }
    }
    Ok((spec, reps))
}

/// A parsed policy spec: the policy, its associativity, and the optional
/// noise decoration (fault rates + engine repetition count).
type PolicySpec = (PolicyKind, usize, Option<(NoiseSpec, usize)>);

/// Parses a `POLICY@ASSOC[+noise(...)]` spec against an associativity limit.
pub(crate) fn parse_policy_spec(spec: &str, max_assoc: usize) -> Result<PolicySpec, String> {
    let (base, noise) = match spec.split_once("+noise(") {
        None => (spec, None),
        Some((base, rest)) => {
            let args = rest
                .strip_suffix(')')
                .ok_or_else(|| format!("unterminated noise spec in '{spec}'"))?;
            (base, Some(parse_noise_args(args)?))
        }
    };
    let (name, assoc) = base
        .split_once('@')
        .ok_or_else(|| format!("bad policy spec '{base}' (expected POLICY@ASSOC)"))?;
    let kind = name
        .trim()
        .parse::<PolicyKind>()
        .map_err(|e| e.to_string())?;
    let assoc: usize = assoc
        .trim()
        .parse()
        .map_err(|_| format!("bad associativity in '{base}'"))?;
    if assoc == 0 || assoc > max_assoc {
        return Err(format!(
            "associativity {assoc} out of range (this server simulates policies up to {max_assoc})"
        ));
    }
    if !kind.supports_associativity(assoc) {
        return Err(format!("{kind} does not support associativity {assoc}"));
    }
    Ok((kind, assoc, noise))
}

pub(crate) fn resolve(spec: &SessionSpec) -> Result<ResolvedSpec, String> {
    resolve_with_limits(spec, MAX_LEARN_ASSOC)
}

pub(crate) fn resolve_with_limits(
    spec: &SessionSpec,
    max_policy_assoc: usize,
) -> Result<ResolvedSpec, String> {
    if let Some(policy) = &spec.policy {
        // Policy sessions are fully described by POLICY@ASSOC (+ optional
        // noise): the simulation is exact (one canonical reset; repetitions
        // only when faults are injected), and the hardware fields are
        // ignored so that every client lands in the one namespace `learn`
        // campaigns for the same spec fill.
        let (kind, assoc, noise) = parse_policy_spec(policy, max_policy_assoc)?;
        let config = match &noise {
            None => PolicySimBackend::config_for(kind, assoc),
            Some((noise_spec, reps)) => noisy_sim_config_for(kind, assoc, noise_spec, *reps),
        };
        return Ok(ResolvedSpec {
            backend: ResolvedBackend::Policy { kind, assoc, noise },
            reset: ResetSequence::Custom(config.reset.clone()),
            reps: config.reps,
            target: config.target,
            assoc,
        });
    }
    let model = parse_model(&spec.model).ok_or_else(|| {
        format!(
            "unknown CPU model '{}' (haswell|skylake|kabylake)",
            spec.model
        )
    })?;
    let level = LevelId::parse(&spec.level)
        .ok_or_else(|| format!("unknown cache level '{}' (L1|L2|L3)", spec.level))?;
    let cpu_spec = model.spec();
    let geometry = cpu_spec
        .level(level)
        .ok_or_else(|| format!("model has no {level}"))?
        .geometry;
    if spec.set as usize >= geometry.sets_per_slice {
        return Err(format!(
            "set {} out of range (level has {} sets per slice)",
            spec.set, geometry.sets_per_slice
        ));
    }
    if spec.slice as usize >= geometry.slices {
        return Err(format!(
            "slice {} out of range (level has {} slices)",
            spec.slice, geometry.slices
        ));
    }
    let cat = match spec.cat {
        None => None,
        Some(ways) => {
            if !cpu_spec.supports_cat {
                return Err(format!("{} does not support Intel CAT", cpu_spec.name));
            }
            let l3 = cpu_spec
                .level(LevelId::L3)
                .expect("all modelled CPUs have an L3")
                .geometry;
            if ways == 0 || ways as usize > l3.associativity {
                return Err(format!(
                    "CAT ways {ways} out of range (L3 has {} ways)",
                    l3.associativity
                ));
            }
            Some(ways as usize)
        }
    };
    let assoc = if level == LevelId::L3 {
        cat.unwrap_or(geometry.associativity)
    } else {
        geometry.associativity
    };
    if spec.reps > MAX_REPS as u64 {
        return Err(format!(
            "reps {} exceeds the limit of {MAX_REPS}",
            spec.reps
        ));
    }
    // Mirror the backend's repetition rounding so equal effective settings
    // share one store namespace.
    let reps = {
        let r = (spec.reps as usize).max(1);
        if r.is_multiple_of(2) {
            r + 1
        } else {
            r
        }
    };
    let reset = if spec.reset.eq_ignore_ascii_case("f+r") {
        ResetSequence::FlushRefill
    } else {
        ResetSequence::Custom(spec.reset.clone())
    };
    // Reject unparseable/ambiguous reset sequences now — the backend assumes
    // they were validated when set.
    reset
        .refill_query(assoc)
        .map_err(|e| format!("bad reset sequence: {e}"))?;
    Ok(ResolvedSpec {
        backend: ResolvedBackend::Hardware {
            model,
            seed: spec.seed,
            cat,
        },
        reset,
        reps,
        target: Target::new(level, spec.set as usize, spec.slice as usize),
        assoc,
    })
}

/// Either kind of pooled scarce oracle, behind the one [`QueryBackend`]
/// interface the engine multiplexes.  The hardware variant is boxed: it
/// carries a whole simulated machine (memory pools, page tables), dwarfing
/// the policy variant.
#[derive(Debug)]
enum AnyBackend {
    Hardware(Box<Backend>),
    Policy(PolicySimBackend),
    Noisy(NoisySimBackend),
}

impl QueryBackend for AnyBackend {
    fn execute(&mut self, query: &Query) -> Result<(Vec<HitMiss>, bool), cachequery::BackendError> {
        match self {
            AnyBackend::Hardware(backend) => backend.execute(query),
            AnyBackend::Policy(backend) => backend.execute(query),
            AnyBackend::Noisy(backend) => backend.execute(query),
        }
    }

    fn execute_batch(
        &mut self,
        queries: &[Query],
    ) -> Result<Vec<(Vec<HitMiss>, bool)>, cachequery::BackendError> {
        // Forwarded so a daemon batch reaches each pooled backend's native
        // bulk path instead of the default per-query loop.
        match self {
            AnyBackend::Hardware(backend) => backend.execute_batch(queries),
            AnyBackend::Policy(backend) => backend.execute_batch(queries),
            AnyBackend::Noisy(backend) => backend.execute_batch(queries),
        }
    }

    fn config(&self) -> Result<QueryConfig, cachequery::BackendError> {
        match self {
            AnyBackend::Hardware(backend) => backend.config(),
            AnyBackend::Policy(backend) => backend.config(),
            AnyBackend::Noisy(backend) => backend.config(),
        }
    }

    fn associativity(&self) -> Result<usize, cachequery::BackendError> {
        match self {
            AnyBackend::Hardware(backend) => QueryBackend::associativity(backend),
            AnyBackend::Policy(backend) => backend.associativity(),
            AnyBackend::Noisy(backend) => backend.associativity(),
        }
    }
}

/// One lazily-created, mutex-serialized engine of the pool.
#[derive(Debug)]
struct PooledBackend {
    engine: QueryEngine<AnyBackend>,
    /// The `(target, reps, reset)` currently applied, to skip redundant
    /// (and expensive: re-calibration) reconfiguration.
    applied: Option<(Target, usize, String)>,
}

impl PooledBackend {
    fn configure(&mut self, spec: &ResolvedSpec) -> Result<(), String> {
        let AnyBackend::Hardware(backend) = self.engine.backend_mut() else {
            // Policy backends have exactly one configuration.
            return Ok(());
        };
        let wanted = (spec.target, spec.reps, spec.reset.to_string());
        if self.applied.as_ref() == Some(&wanted) {
            return Ok(());
        }
        backend.set_repetitions(spec.reps);
        backend.set_reset_sequence(spec.reset.clone());
        if backend.target() != Some(spec.target) {
            backend
                .select_target(spec.target)
                .map_err(|e| e.to_string())?;
        }
        self.applied = Some(wanted);
        Ok(())
    }
}

/// The identity of one pooled backend.
type InstanceKey = ResolvedBackend;

/// The backend pool: one engine per backend identity, all sharing the
/// daemon's query store.
#[derive(Debug, Default)]
struct BackendPool {
    instances: Mutex<HashMap<InstanceKey, Arc<Mutex<PooledBackend>>>>,
}

impl BackendPool {
    fn instance(
        &self,
        spec: &ResolvedSpec,
        store: &Arc<QueryStore>,
        recorder: &Option<Arc<Recorder>>,
        poisoned: &Counter,
    ) -> Result<Arc<Mutex<PooledBackend>>, String> {
        let key = spec.backend.clone();
        let mut instances = lock_unpoisoned(&self.instances, poisoned);
        if let Some(instance) = instances.get(&key) {
            return Ok(Arc::clone(instance));
        }
        let backend = match &spec.backend {
            ResolvedBackend::Hardware { model, seed, cat } => {
                let cpu = SimulatedCpu::new(*model, *seed);
                let mut backend = Backend::new(cpu);
                if let Some(ways) = cat {
                    backend.apply_cat(*ways).map_err(|e| e.to_string())?;
                }
                AnyBackend::Hardware(Box::new(backend))
            }
            ResolvedBackend::Policy { kind, assoc, noise } => match noise {
                None => AnyBackend::Policy(
                    PolicySimBackend::new(*kind, *assoc).map_err(|e| e.to_string())?,
                ),
                Some((noise_spec, reps)) => AnyBackend::Noisy(
                    noisy_sim_backend(*kind, *assoc, *noise_spec)
                        .map_err(|e| e.to_string())?
                        .with_repetitions(*reps),
                ),
            },
        };
        // The engine shares the daemon-wide store: one memoization layer,
        // one source of hit-rate truth, across sessions and learn jobs
        // alike.
        let mut engine = QueryEngine::with_store(backend, Arc::clone(store));
        engine.set_recorder(recorder.clone());
        let instance = Arc::new(Mutex::new(PooledBackend {
            engine,
            applied: None,
        }));
        instances.insert(key, Arc::clone(&instance));
        Ok(instance)
    }

    fn len(&self, poisoned: &Counter) -> usize {
        lock_unpoisoned(&self.instances, poisoned).len()
    }
}

/// Caps the sessions executing store misses at once at
/// [`CqdConfig::workers`]: the daemon's backpressure.  The number of taken
/// slots is the `busy_workers` gauge.
#[derive(Debug, Default)]
struct MissGate {
    taken: Mutex<usize>,
    freed: Condvar,
}

/// One taken slot of the [`MissGate`], given back on drop (also when the
/// holder unwinds).
struct MissSlot<'a> {
    shared: &'a Shared,
}

impl Drop for MissSlot<'_> {
    fn drop(&mut self) {
        let shared = self.shared;
        *lock_unpoisoned(&shared.gate.taken, &shared.metrics.lock_poisoned) -= 1;
        shared.metrics.busy_workers.dec();
        shared.gate.freed.notify_one();
    }
}

/// State shared by the accept loop and the sessions.
#[derive(Debug)]
struct Shared {
    config: CqdConfig,
    store: Arc<QueryStore>,
    metrics: ServerMetrics,
    /// Structured span tracing, present only when the daemon was configured
    /// with a trace log.  Every query path (sessions, learning campaigns)
    /// hangs its spans off this one recorder.
    recorder: Option<Arc<Recorder>>,
    started: Instant,
    /// The spec every session starts with, resolved once at startup.
    default_spec: ResolvedSpec,
    pool: BackendPool,
    gate: MissGate,
    jobs: Mutex<HashMap<u64, LearnJob>>,
    next_job_id: AtomicU64,
    shutdown: AtomicBool,
    sessions: Mutex<Vec<thread::JoinHandle<()>>>,
}

impl Shared {
    /// Waits until fewer than `workers` sessions execute misses, then takes
    /// a slot.
    fn enter_gate(&self) -> MissSlot<'_> {
        let gate = &self.gate;
        let mut taken = lock_unpoisoned(&gate.taken, &self.metrics.lock_poisoned);
        while *taken >= self.config.workers.max(1) {
            taken = gate.freed.wait(taken).unwrap_or_else(|e| {
                self.metrics.lock_poisoned.inc();
                e.into_inner()
            });
        }
        *taken += 1;
        self.metrics.busy_workers.inc();
        MissSlot { shared: self }
    }

    fn global_stats(&self) -> WireStats {
        let jobs = lock_unpoisoned(&self.jobs, &self.metrics.lock_poisoned);
        let jobs_finished = jobs.values().filter(|j| j.status().is_terminal()).count() as u64;
        let votes = self.store.vote_stats();
        let persist = self.store.persist_stats();
        let latency = self.metrics.request_ns.snapshot();
        WireStats {
            sessions_active: self.metrics.sessions_active.get(),
            sessions_total: self.metrics.sessions_total.get(),
            queries: self.metrics.queries.get(),
            store_hits: self.metrics.store_hits.get(),
            backend_queries: self.metrics.backend_queries.get(),
            uptime_ms: self.started.elapsed().as_millis() as u64,
            request_p50_ns: latency.p50,
            request_p99_ns: latency.p99,
            request_max_ns: latency.max,
            jobs_spawned: self.metrics.jobs_spawned.get(),
            jobs_finished,
            busy_workers: self.metrics.busy_workers.get(),
            workers: self.config.workers as u64,
            store_conflicts: self.store.conflicts(),
            store_entries: self.store.entries(),
            store_evictions: self.store.evictions(),
            persist_appended: persist.appended,
            persist_dropped: persist.dropped,
            persist_snapshots: persist.snapshots,
            persist_replayed: persist.replayed,
            lock_poisoned: self.metrics.lock_poisoned.get(),
            votes: votes.voted,
            vote_executions: votes.executions,
            vote_escalations: votes.escalated,
            vote_unsettled: votes.unsettled,
            vote_min_margin_permille: votes.min_margin_permille,
        }
    }

    fn namespace_stats(&self) -> Vec<WireNamespace> {
        self.store
            .namespace_usage()
            .into_iter()
            .map(|usage| WireNamespace {
                name: usage.name,
                entries: usage.entries,
                bytes: usage.bytes,
                hits: usage.hits,
                misses: usage.misses,
            })
            .collect()
    }

    /// Scrapes the metrics registry.  Quantities owned by other subsystems
    /// (the store's vote statistics and conflict count) are mirrored into
    /// gauges at scrape time, so one response covers the whole daemon.
    fn metrics_response(&self) -> Response {
        let registry = &self.metrics.registry;
        let votes = self.store.vote_stats();
        registry
            .gauge("cqd_store_conflicts")
            .set(self.store.conflicts());
        registry.gauge("cqd_votes").set(votes.voted);
        registry.gauge("cqd_vote_executions").set(votes.executions);
        registry.gauge("cqd_vote_escalations").set(votes.escalated);
        registry.gauge("cqd_vote_unsettled").set(votes.unsettled);
        let metrics = registry
            .snapshot()
            .into_iter()
            .map(|m| {
                let h = m.histogram.unwrap_or_default();
                WireMetric {
                    name: m.name,
                    kind: match m.kind {
                        MetricKind::Counter => "counter",
                        MetricKind::Gauge => "gauge",
                        MetricKind::Histogram => "histogram",
                    }
                    .to_string(),
                    value: m.value,
                    sum: h.sum,
                    min: h.min,
                    max: h.max,
                    p50: h.p50,
                    p90: h.p90,
                    p99: h.p99,
                }
            })
            .collect();
        Response::Metrics {
            text: registry.render_prometheus(),
            metrics,
        }
    }
}

/// A running daemon: its address plus everything needed to shut it down.
///
/// Dropping the handle shuts the daemon down; [`CqdHandle::shutdown`] does
/// the same explicitly.  See the [crate documentation](crate) for a usage
/// example.
#[derive(Debug)]
pub struct CqdHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_handle: Option<thread::JoinHandle<()>>,
}

impl CqdHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Fraction of concrete queries served from the shared store so far.
    pub fn store_hit_rate(&self) -> f64 {
        self.shared.global_stats().hit_rate()
    }

    /// Number of backend instances created so far.
    pub fn backend_instances(&self) -> usize {
        self.shared.pool.len(&self.shared.metrics.lock_poisoned)
    }

    /// Stops accepting connections, drains sessions and joins all learning
    /// jobs.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a dummy connection.  A wildcard bind
        // (0.0.0.0 / ::) is not connectable on every platform, so aim the
        // dummy at the loopback of the same address family instead.
        let mut connect_addr = self.addr;
        if connect_addr.ip().is_unspecified() {
            connect_addr.set_ip(match connect_addr {
                SocketAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
                SocketAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
            });
        }
        let _ = TcpStream::connect(connect_addr);
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        // Sessions poll the shutdown flag on their read timeout.
        let sessions: Vec<_> = {
            let mut guard =
                lock_unpoisoned(&self.shared.sessions, &self.shared.metrics.lock_poisoned);
            guard.drain(..).collect()
        };
        for handle in sessions {
            let _ = handle.join();
        }
        // Join outstanding learning jobs so no thread outlives the daemon.
        let jobs: Vec<_> = {
            let mut guard = lock_unpoisoned(&self.shared.jobs, &self.shared.metrics.lock_poisoned);
            guard.drain().map(|(_, job)| job).collect()
        };
        for job in jobs {
            let _ = job.join();
        }
        // Every producer of store answers has stopped: compact a final
        // snapshot, so the next start replays one sorted file instead of
        // the log (a no-op without --store-dir).
        self.shared.store.snapshot();
        // Everything that could emit has joined; push buffered span events
        // out to the trace log.
        if let Some(recorder) = &self.shared.recorder {
            recorder.flush();
        }
    }
}

impl Drop for CqdHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Starts a daemon and returns its handle.
///
/// # Errors
///
/// Propagates the bind error if the configured address is unavailable, an
/// I/O error from opening/replaying the durable store, and the error of
/// spawning the accept thread.
pub fn spawn(config: CqdConfig) -> std::io::Result<CqdHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let default_spec = resolve(&SessionSpec::default())
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
    let recorder = match &config.trace_log {
        None => None,
        Some(path) => {
            let file = std::fs::File::create(path)?;
            let sink = Arc::new(WriterSink::new(Box::new(std::io::BufWriter::new(file))));
            Some(Arc::new(Recorder::new(sink)))
        }
    };
    let shared = Arc::new(Shared {
        config: config.clone(),
        store: Arc::new(QueryStore::with_options(StoreOptions {
            dir: config.store_dir.clone(),
            max_entries: config.store_max_entries,
            ..StoreOptions::default()
        })?),
        metrics: ServerMetrics::default(),
        recorder,
        started: Instant::now(),
        default_spec,
        pool: BackendPool::default(),
        gate: MissGate::default(),
        jobs: Mutex::new(HashMap::new()),
        next_job_id: AtomicU64::new(1),
        shutdown: AtomicBool::new(false),
        sessions: Mutex::new(Vec::new()),
    });

    let accept_shared = Arc::clone(&shared);
    let accept_handle = thread::Builder::new()
        .name("cqd-accept".to_string())
        .spawn(move || accept_loop(listener, &accept_shared))?;

    Ok(CqdHandle {
        addr,
        shared,
        accept_handle: Some(accept_handle),
    })
}

fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let builder = thread::Builder::new().name("cqd-session".to_string());
        let Some(handle) = start_session(builder, stream, shared) else {
            continue;
        };
        let mut sessions = lock_unpoisoned(&shared.sessions, &shared.metrics.lock_poisoned);
        // Reap finished sessions so a long-running daemon does not accumulate
        // one JoinHandle per connection it ever served.
        sessions.retain(|h| !h.is_finished());
        sessions.push(handle);
    }
}

/// Runs a session for `stream` on a thread spawned by `builder`.  When the
/// thread cannot be spawned, the connection gets one `error` line and is
/// closed, and the daemon keeps accepting.
fn start_session(
    builder: thread::Builder,
    stream: TcpStream,
    shared: &Arc<Shared>,
) -> Option<thread::JoinHandle<()>> {
    shared.metrics.sessions_total.inc();
    shared.metrics.sessions_active.inc();
    // A second handle on the socket, to refuse the connection if the session
    // thread (which owns `stream`) never starts.
    let refusal = stream.try_clone();
    let session_shared = Arc::clone(shared);
    let spawned = builder.spawn(move || {
        session_loop(stream, &session_shared);
        session_shared.metrics.sessions_active.dec();
    });
    match spawned {
        Ok(handle) => Some(handle),
        Err(e) => {
            shared.metrics.sessions_active.dec();
            if let Ok(mut writer) = refusal {
                let message = format!("cannot start a session: {e}");
                let _ = write_response(&mut writer, &Response::Error { message });
            }
            None
        }
    }
}

/// Runs the queries of `spec` that missed the session's store lookup on its
/// machine's pooled engine, once the miss gate admits this session.  The
/// engine re-checks the store under the machine's lock (another session may
/// have answered a query in the meantime) and records fresh answers.
fn execute_misses(
    shared: &Shared,
    spec: &ResolvedSpec,
    queries: &[Query],
) -> Result<Vec<QueryOutcome>, String> {
    let _slot = shared.enter_gate();
    let instance = shared.pool.instance(
        spec,
        &shared.store,
        &shared.recorder,
        &shared.metrics.lock_poisoned,
    )?;
    let mut backend = match instance.lock() {
        Ok(guard) => guard,
        // A poisoned backend is safe to reuse: every query starts with the
        // reset sequence, so no partial state leaks between queries.
        Err(poisoned) => {
            shared.metrics.lock_poisoned.inc();
            poisoned.into_inner()
        }
    };
    backend.configure(spec)?;
    backend.engine.run_many(queries).map_err(|e| e.to_string())
}

/// Per-session mutable state.
struct Session {
    wire_spec: SessionSpec,
    spec: ResolvedSpec,
    /// The store namespace of `spec`, cached for the lookup fast path.
    space: StoreSpace,
    stats: WireSessionStats,
}

impl Session {
    fn apply(&mut self, wire_spec: SessionSpec, spec: ResolvedSpec, store: &QueryStore) {
        self.space = store.space(&spec.config().to_string());
        self.wire_spec = wire_spec;
        self.spec = spec;
    }
}

fn session_loop(stream: TcpStream, shared: &Arc<Shared>) {
    let Ok(read_stream) = stream.try_clone() else {
        return;
    };
    if read_stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        return;
    }
    let mut reader = BufReader::new(read_stream);
    let mut writer = stream;
    let spec = shared.default_spec.clone();
    let space = shared.store.space(&spec.config().to_string());
    let mut session = Session {
        wire_spec: SessionSpec::default(),
        spec,
        space,
        stats: WireSessionStats::default(),
    };

    let mut buf: Vec<u8> = Vec::new();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match read_line_bounded(&mut reader, &mut buf, MAX_REQUEST_BYTES) {
            Ok(LineRead::Eof) => break,
            Ok(LineRead::TooLong) => {
                // Every other daemon resource is bounded (miss slots,
                // expansions, the mbl crate's own expansion guard); the
                // request line must be too.
                let _ = write_response(
                    &mut writer,
                    &Response::Error {
                        message: format!("request line exceeds {MAX_REQUEST_BYTES} bytes"),
                    },
                );
                break;
            }
            Ok(LineRead::Line) => {
                let request = String::from_utf8_lossy(&buf).trim().to_string();
                buf.clear();
                if request.is_empty() {
                    continue;
                }
                let quit = match decode_request(&request) {
                    Ok(request) => {
                        let quit = matches!(request, Request::Quit);
                        // The span clones the recorder Arc so it borrows a
                        // local, not `shared`.
                        let recorder = shared.recorder.clone();
                        let mut span = obs::maybe_span(recorder.as_deref(), "cqd.request");
                        if let Some(span) = span.as_mut() {
                            span.set("cmd", request.tag());
                        }
                        let started = Instant::now();
                        let ok = handle_request(shared, &mut session, &request, &mut writer);
                        shared
                            .metrics
                            .request_ns
                            .record(started.elapsed().as_nanos() as u64);
                        drop(span);
                        if !ok {
                            break;
                        }
                        quit
                    }
                    Err(e) => {
                        let response = Response::Error {
                            message: e.to_string(),
                        };
                        if write_response(&mut writer, &response).is_err() {
                            break;
                        }
                        false
                    }
                };
                if quit {
                    break;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => break,
        }
    }
}

fn write_response(writer: &mut TcpStream, response: &Response) -> std::io::Result<()> {
    let mut line = encode_response(response);
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    writer.flush()
}

/// Result of one bounded line read.
enum LineRead {
    /// A complete line is in the buffer (newline stripped).
    Line,
    /// The peer closed the connection with nothing buffered.
    Eof,
    /// The line exceeded the byte bound.
    TooLong,
}

/// Reads one newline-terminated line into `buf`, never holding more than
/// `max` bytes, and preserving partial data across read timeouts (the
/// timeout surfaces as an `Err` the caller retries).
///
/// `std::io::BufRead::read_line` cannot be used here: with a fast sender it
/// appends inside a single call until a newline arrives, which would let a
/// newline-free stream grow the buffer without bound.
fn read_line_bounded(
    reader: &mut BufReader<TcpStream>,
    buf: &mut Vec<u8>,
    max: usize,
) -> std::io::Result<LineRead> {
    loop {
        let available = reader.fill_buf()?;
        if available.is_empty() {
            // EOF: deliver trailing unterminated data as a final line.
            return Ok(if buf.is_empty() {
                LineRead::Eof
            } else {
                LineRead::Line
            });
        }
        if let Some(position) = available.iter().position(|&b| b == b'\n') {
            buf.extend_from_slice(&available[..position]);
            reader.consume(position + 1);
            return Ok(LineRead::Line);
        }
        let n = available.len();
        buf.extend_from_slice(available);
        reader.consume(n);
        if buf.len() > max {
            return Ok(LineRead::TooLong);
        }
    }
}

/// Handles one request; returns `false` when the connection should close.
fn handle_request(
    shared: &Arc<Shared>,
    session: &mut Session,
    request: &Request,
    writer: &mut TcpStream,
) -> bool {
    let response = match request {
        Request::Hello => Response::Hello(ServerInfo {
            server: "cqd".to_string(),
            proto: PROTOCOL_VERSION,
            workers: shared.config.workers as u64,
        }),
        Request::Target(wire_spec) => match resolve(wire_spec) {
            Ok(spec) => {
                let message = match &spec.backend {
                    ResolvedBackend::Hardware { seed, .. } => format!(
                        "target: {} (model {}, seed {})",
                        spec.target, wire_spec.model, seed
                    ),
                    ResolvedBackend::Policy { kind, assoc, noise } => match noise {
                        None => format!("target: simulated policy {kind}@{assoc}"),
                        Some((noise_spec, reps)) => format!(
                            "target: simulated policy {kind}@{assoc} with noise \
                             [{noise_spec}] voted over {reps} repetitions"
                        ),
                    },
                };
                session.apply(wire_spec.clone(), spec, &shared.store);
                Response::Done { message }
            }
            Err(message) => Response::Error { message },
        },
        Request::Query { mbl } => match run_mbl(shared, session, mbl) {
            Ok(results) => Response::Outcomes { results },
            Err(message) => Response::Error { message },
        },
        Request::Batch { exprs } => {
            let mut groups = Vec::with_capacity(exprs.len());
            let mut error = None;
            for expr in exprs {
                match run_mbl(shared, session, expr) {
                    Ok(results) => groups.push(results),
                    Err(message) => {
                        error = Some(message);
                        break;
                    }
                }
            }
            match error {
                None => Response::Batch { groups },
                Some(message) => Response::Error { message },
            }
        }
        Request::Repl { line } => handle_repl(shared, session, line),
        Request::Learn { spec } => {
            let builder = thread::Builder::new().name("cqd-learn".to_string());
            handle_learn(shared, spec, builder)
        }
        Request::Replay {
            spec,
            generator,
            accesses,
            lines,
            seed,
            job,
        } => handle_replay(shared, spec, generator, *accesses, *lines, *seed, *job),
        Request::Map {
            model,
            seed,
            cat,
            slice,
            sets,
        } => handle_map(shared, model, *seed, *cat, *slice, *sets),
        Request::Job { id } => match job_status(shared, *id) {
            Some(status) => Response::JobStatus(status),
            None => Response::Error {
                message: format!("no such job: {id}"),
            },
        },
        Request::Wait { id } => return stream_wait(shared, *id, writer),
        Request::Stats => Response::Stats(ServerStats {
            global: shared.global_stats(),
            session: session.stats,
            namespaces: shared.namespace_stats(),
        }),
        Request::Metrics => shared.metrics_response(),
        Request::Persist => {
            // Blocks until the writer acknowledges the fsynced snapshot, so a
            // client that sees `done` knows its answers are on disk.
            shared.store.snapshot();
            let message = match shared.store.store_dir() {
                Some(dir) => format!("store persisted to {}", dir.display()),
                None => "store is memory-only (started without --store-dir)".to_string(),
            };
            Response::Done { message }
        }
        Request::Quit => Response::Bye,
    };
    write_response(writer, &response).is_ok()
}

/// Expands one MBL expression, serves what the store knows, executes the
/// rest on the session's machine, and answers in expansion order.
fn run_mbl(
    shared: &Arc<Shared>,
    session: &mut Session,
    mbl: &str,
) -> Result<Vec<WireOutcome>, String> {
    let queries = expand_query(mbl, session.spec.assoc).map_err(|e| e.to_string())?;
    if queries.len() > MAX_EXPANSIONS {
        return Err(format!(
            "expression expands to {} queries (limit {MAX_EXPANSIONS})",
            queries.len()
        ));
    }
    let mut results = Vec::with_capacity(queries.len());
    let mut slots = Vec::new();
    let mut misses = Vec::new();
    for query in queries {
        match session.space.lookup(&query) {
            Some(outcomes) => results.push(WireOutcome {
                query: render_query(&query),
                pattern: encode_pattern(&outcomes),
                consistent: true,
                cached: true,
            }),
            None => {
                // The slot is overwritten with the executed answer below.
                slots.push(results.len());
                results.push(WireOutcome::default());
                misses.push(query);
            }
        }
    }
    if !misses.is_empty() {
        let outcomes = execute_misses(shared, &session.spec, &misses)?;
        for (slot, outcome) in slots.into_iter().zip(outcomes) {
            if !outcome.from_cache {
                shared.metrics.backend_queries.inc();
            }
            results[slot] = WireOutcome {
                query: outcome.rendered,
                pattern: encode_pattern(&outcome.outcomes),
                consistent: outcome.consistent,
                cached: outcome.from_cache,
            };
        }
    }
    let hits = results.iter().filter(|r| r.cached).count() as u64;
    session.stats.queries += results.len() as u64;
    session.stats.store_hits += hits;
    shared.metrics.queries.add(results.len() as u64);
    shared.metrics.store_hits.add(hits);
    Ok(results)
}

/// Maps one line of the shared REPL command language onto the session: the
/// same [`Command`] values `mbl_repl` executes in-process reconfigure this
/// session's spec or run queries through the store/backend path.
fn handle_repl(shared: &Arc<Shared>, session: &mut Session, line: &str) -> Response {
    let Some(command) = parse_command(line) else {
        return Response::Done {
            message: String::new(),
        };
    };
    // Configuration commands stage a candidate spec and commit only if it
    // validates — mirroring the lazy-validation REPL but failing eagerly.
    let mut candidate = session.wire_spec.clone();
    let message = match &command {
        Command::Help => Ok(HELP_TEXT.to_string()),
        Command::Usage(usage) => Ok((*usage).to_string()),
        Command::Level(level) => {
            candidate.level = level.to_string();
            Ok(format!("target level set to {level}"))
        }
        Command::Set(set) => {
            candidate.set = *set as u64;
            Ok(format!("target set index set to {set}"))
        }
        Command::Slice(slice) => {
            candidate.slice = *slice as u64;
            Ok(format!("target slice set to {slice}"))
        }
        Command::Reps(reps) => {
            candidate.reps = (*reps as u64).max(1);
            // Report the effective (odd-rounded) count, like the in-process
            // shell does after Backend::set_repetitions.
            let r = (*reps).max(1);
            let effective = if r.is_multiple_of(2) { r + 1 } else { r };
            Ok(format!("repetitions set to {effective}"))
        }
        Command::Reset(reset) => {
            candidate.reset = reset.to_string();
            Ok(format!("reset sequence set to {reset}"))
        }
        Command::Cat(ways) => {
            candidate.cat = Some(*ways as u64);
            Ok(format!("last-level cache restricted to {ways} ways"))
        }
        Command::Assoc => Ok(format!("associativity: {}", session.spec.assoc)),
        Command::Target => Ok(format!(
            "target: {} set {} slice {}",
            session.spec.target.level, session.spec.target.set, session.spec.target.slice
        )),
        Command::Stats => Ok(format!(
            "queries: {} (store hits: {})",
            session.stats.queries, session.stats.store_hits
        )),
        Command::Query(mbl) => {
            return match run_mbl(shared, session, mbl) {
                Ok(results) => Response::Outcomes { results },
                Err(message) => Response::Error { message },
            };
        }
    };
    match message {
        Ok(message) => {
            if candidate != session.wire_spec {
                match resolve(&candidate) {
                    Ok(spec) => session.apply(candidate, spec, &shared.store),
                    Err(error) => {
                        return Response::Error { message: error };
                    }
                }
            }
            Response::Done { message }
        }
        Err(error) => Response::Error { message: error },
    }
}

/// Starts the `learn` campaign `spec` on a thread made by `builder`.  A
/// thread that cannot start is an `error` answer, and the daemon keeps
/// serving.
fn handle_learn(shared: &Arc<Shared>, spec: &str, builder: thread::Builder) -> Response {
    // The campaign's oracle runs through an engine over the daemon's shared
    // store: every concrete query it issues lands in the same namespace
    // `policy:` sessions (with the same noise spec) are served from.  Noisy
    // campaigns vote: only settled majorities reach the store.
    fn spawn_campaign<B>(
        shared: &Arc<Shared>,
        builder: thread::Builder,
        backend: B,
        namespace: &str,
        kind: PolicyKind,
    ) -> Result<LearnJob, String>
    where
        B: QueryBackend + Clone + Send + 'static,
    {
        let mut engine = QueryEngine::with_store(backend, Arc::clone(&shared.store));
        engine.set_recorder(shared.recorder.clone());
        let space = shared.store.space(namespace);
        let oracle = CacheQueryOracle::from_engine(engine).map_err(|e| e.to_string())?;
        let setup = LearnSetup {
            recorder: shared.recorder.clone(),
            ..LearnSetup::default()
        };
        polca::spawn_learn_job_on(builder, oracle, vec![kind], setup, Some(space))
            .map_err(|e| format!("cannot start a learning job: {e}"))
    }

    match parse_policy_spec(spec, MAX_LEARN_ASSOC) {
        Ok((kind, assoc, noise)) => {
            let job = match &noise {
                None => PolicySimBackend::new(kind, assoc)
                    .map_err(|e| e.to_string())
                    .and_then(|backend| {
                        let namespace = PolicySimBackend::config_for(kind, assoc).to_string();
                        spawn_campaign(shared, builder, backend, &namespace, kind)
                    }),
                Some((noise_spec, reps)) => noisy_sim_backend(kind, assoc, *noise_spec)
                    .map_err(|e| e.to_string())
                    .and_then(|backend| {
                        let namespace =
                            noisy_sim_config_for(kind, assoc, noise_spec, *reps).to_string();
                        let backend = backend.with_repetitions(*reps);
                        spawn_campaign(shared, builder, backend, &namespace, kind)
                    }),
            };
            let job = match job {
                Ok(job) => job,
                Err(message) => return Response::Error { message },
            };
            let id = shared.next_job_id.fetch_add(1, Ordering::Relaxed);
            lock_unpoisoned(&shared.jobs, &shared.metrics.lock_poisoned).insert(id, job);
            shared.metrics.jobs_spawned.inc();
            Response::JobStarted { id }
        }
        Err(message) => Response::Error { message },
    }
}

/// Hard ceiling on server-side replay length: a million accesses keep a
/// `replay` request comfortably in the low tens of milliseconds.
const MAX_REPLAY_ACCESSES: u64 = 1_000_000;
/// Hard ceiling on the replay working set (in cache lines).
const MAX_REPLAY_LINES: u64 = 1 << 16;

/// Serves a `replay` request: generates the trace server-side, replays it
/// through the ground-truth simulator and — when `job` names a finished
/// campaign — differentially through the learned machine, so a client can
/// evaluate a learning result under traffic without ever downloading it.
fn handle_replay(
    shared: &Arc<Shared>,
    spec: &str,
    generator: &str,
    accesses: u64,
    lines: u64,
    seed: u64,
    job: Option<u64>,
) -> Response {
    let (kind, assoc, noise) = match parse_policy_spec(spec, MAX_LEARN_ASSOC) {
        Ok(parsed) => parsed,
        Err(message) => return Response::Error { message },
    };
    if noise.is_some() {
        return Response::Error {
            message: "replay needs a deterministic ground truth; drop the +noise(...) suffix"
                .to_string(),
        };
    }
    let generator = match generator.parse::<GeneratorKind>() {
        Ok(generator) => generator,
        Err(e) => {
            return Response::Error {
                message: e.to_string(),
            }
        }
    };
    let trace_spec = TraceSpec {
        generator,
        accesses: accesses.clamp(1, MAX_REPLAY_ACCESSES) as usize,
        lines: lines.clamp(1, MAX_REPLAY_LINES) as usize,
        seed,
        ..TraceSpec::default()
    };
    // The machine is cloned out of the job table so the replay itself runs
    // without holding the daemon-wide lock.
    let machine = match job {
        None => None,
        Some(id) => {
            let jobs = lock_unpoisoned(&shared.jobs, &shared.metrics.lock_poisoned);
            let Some(job) = jobs.get(&id) else {
                return Response::Error {
                    message: format!("no such job: {id}"),
                };
            };
            match job.machine() {
                Some(machine) => Some(machine),
                None => {
                    return Response::Error {
                        message: format!(
                            "job {id} has no learned machine (still running or failed)"
                        ),
                    }
                }
            }
        }
    };
    let trace = generate(&trace_spec);
    let geometry = cache::CacheGeometry::new(assoc, 64, 1, 64);
    let mut reply = WireReplay {
        spec: format!("{kind}@{assoc}"),
        generator: generator.name().to_string(),
        accesses: 0,
        sim_hits: 0,
        sim_misses: 0,
        sim_evictions: 0,
        machine_states: 0,
        machine_hits: 0,
        machine_misses: 0,
        diverged: false,
        divergence: String::new(),
    };
    match machine {
        None => {
            let counts = match replay_policy(&trace, kind, geometry) {
                Ok(counts) => counts,
                Err(e) => {
                    return Response::Error {
                        message: e.to_string(),
                    }
                }
            };
            reply.accesses = counts.accesses;
            reply.sim_hits = counts.hits;
            reply.sim_misses = counts.misses;
            reply.sim_evictions = counts.evictions;
        }
        Some(machine) => {
            let report = match differential_replay(&trace, kind, geometry, &machine) {
                Ok(report) => report,
                Err(e) => {
                    return Response::Error {
                        message: e.to_string(),
                    }
                }
            };
            reply.accesses = report.simulator.accesses;
            reply.sim_hits = report.simulator.hits;
            reply.sim_misses = report.simulator.misses;
            reply.sim_evictions = report.simulator.evictions;
            reply.machine_states = machine.num_states() as u64;
            reply.machine_hits = report.machine.hits;
            reply.machine_misses = report.machine.misses;
            reply.diverged = !report.passed();
            reply.divergence = report.divergence.map(|d| d.to_string()).unwrap_or_default();
        }
    }
    Response::Replay(reply)
}

/// Hard ceiling on the number of sets one `map` request may sweep.  Leader
/// detection costs a few tens of milliseconds per set, so the cap keeps a
/// synchronous map request in single-digit seconds.
const MAX_MAP_SETS: u64 = 128;
/// Time budget for each leader group's learning campaign, so an unexpected
/// policy fails the request instead of wedging the session thread.
const MAP_LEARN_BUDGET: Duration = Duration::from_secs(120);
/// State bound for each leader group's learning campaign.
const MAP_MAX_STATES: usize = 4096;

fn map_class(class: cachequery::LeaderClass) -> String {
    match class {
        cachequery::LeaderClass::ThrashVulnerable => "thrash-vulnerable",
        cachequery::LeaderClass::ThrashResistant => "thrash-resistant",
        cachequery::LeaderClass::Adaptive => "adaptive",
    }
    .to_string()
}

fn wire_map(map: &CacheMap) -> WireCacheMap {
    let groups = map
        .groups
        .iter()
        .map(|group| {
            let mut wire = WireMapGroup {
                class: map_class(group.class),
                members: group.members.len() as u64,
                representative_set: group.representative.0 as u64,
                representative_slice: group.representative.1 as u64,
                namespace: group.namespace.clone(),
                outcome: String::new(),
                states: 0,
                queries: 0,
                identified: String::new(),
                disagreement_permille: 0,
                detail: String::new(),
            };
            match &group.outcome {
                GroupOutcome::Learned {
                    states,
                    membership_queries,
                    identified,
                } => {
                    wire.outcome = "learned".to_string();
                    wire.states = *states;
                    wire.queries = *membership_queries;
                    wire.identified = identified.clone().unwrap_or_default();
                }
                GroupOutcome::NotDeterministic { evidence } => {
                    wire.outcome = "not-deterministic".to_string();
                    wire.queries = evidence.voted_queries;
                    wire.disagreement_permille = evidence.disagreement_permille;
                    wire.detail = evidence.to_string();
                }
                GroupOutcome::Failed { error } => {
                    wire.outcome = "failed".to_string();
                    wire.detail = error.clone();
                }
            }
            wire
        })
        .collect();
    let sets = map
        .sets
        .iter()
        .map(|entry| {
            let mut wire = WireMapSet {
                set: entry.set as u64,
                slice: entry.slice as u64,
                class: map_class(entry.class),
                verdict: String::new(),
                policy: String::new(),
                states: 0,
                disagreement_permille: 0,
                detail: String::new(),
            };
            match &entry.verdict {
                SetVerdict::Fixed { policy, states } => {
                    wire.verdict = "fixed".to_string();
                    wire.policy = policy.clone().unwrap_or_default();
                    wire.states = *states;
                }
                SetVerdict::FixedNonDeterministic {
                    disagreement_permille,
                } => {
                    wire.verdict = "fixed-nondet".to_string();
                    wire.disagreement_permille = *disagreement_permille;
                }
                SetVerdict::AdaptiveFollower {
                    disagreement_permille,
                } => {
                    wire.verdict = "adaptive".to_string();
                    wire.disagreement_permille = *disagreement_permille;
                }
                SetVerdict::Unmapped { error } => {
                    wire.verdict = "unmapped".to_string();
                    wire.detail = error.clone();
                }
            }
            wire
        })
        .collect();
    WireCacheMap {
        model: map.model.clone(),
        level: map.level.to_string(),
        cat: map.cat_ways.map(|ways| ways as u64),
        groups,
        sets,
    }
}

/// Serves a `map` request: sweeps the first `sets` sets of the model's L3
/// server-side — leader detection, one learning campaign per leader group
/// through the daemon's shared store (so remapping the same CPU re-serves
/// the campaigns from memo), follower flip probes — and returns the per-set
/// policy map.  Synchronous, like `replay`: the campaign is seconds-scale
/// under the CAT restriction the associativity limit enforces.
fn handle_map(
    shared: &Arc<Shared>,
    model: &str,
    seed: u64,
    cat: Option<u64>,
    slice: u64,
    sets: u64,
) -> Response {
    let Some(model) = parse_model(model) else {
        return Response::Error {
            message: format!("unknown CPU model '{model}' (haswell|skylake|kabylake)"),
        };
    };
    let cpu_spec = model.spec();
    let geometry = cpu_spec
        .level(LevelId::L3)
        .expect("all modelled CPUs have an L3")
        .geometry;
    let cat_ways = match cat {
        None => None,
        Some(ways) => {
            if !cpu_spec.supports_cat {
                return Response::Error {
                    message: format!("{} does not support Intel CAT", cpu_spec.name),
                };
            }
            if ways == 0 || ways as usize > geometry.associativity {
                return Response::Error {
                    message: format!(
                        "CAT ways {ways} out of range (L3 has {} ways)",
                        geometry.associativity
                    ),
                };
            }
            Some(ways as usize)
        }
    };
    // The leader groups are learned at the effective associativity; hold it
    // to the same ceiling as `learn` so a map request cannot smuggle in a
    // campaign the server would refuse as a job.
    let assoc = cat_ways.unwrap_or(geometry.associativity);
    if assoc > MAX_LEARN_ASSOC {
        return Response::Error {
            message: format!(
                "mapping at associativity {assoc} exceeds this server's learning limit \
                 {MAX_LEARN_ASSOC}; restrict the L3 with 'cat'"
            ),
        };
    }
    if slice as usize >= geometry.slices {
        return Response::Error {
            message: format!(
                "slice {slice} out of range (L3 has {} slices)",
                geometry.slices
            ),
        };
    }
    let count = sets.clamp(1, MAX_MAP_SETS.min(geometry.sets_per_slice as u64)) as usize;
    let mut config = MapConfig::new(model, seed, (0..count).collect());
    config.slice = slice as usize;
    config.cat_ways = cat_ways;
    config.setup.max_states = MAP_MAX_STATES;
    config.setup.time_budget = Some(MAP_LEARN_BUDGET);
    config.setup.recorder = shared.recorder.clone();
    match map_cache(&config, Arc::clone(&shared.store)) {
        Ok(map) => Response::Map(wire_map(&map)),
        Err(error) => Response::Error {
            message: error.to_string(),
        },
    }
}

fn job_status(shared: &Arc<Shared>, id: u64) -> Option<WireJobStatus> {
    let jobs = lock_unpoisoned(&shared.jobs, &shared.metrics.lock_poisoned);
    let status = jobs.get(&id)?.status();
    Some(wire_status(id, &status))
}

fn wire_status(id: u64, status: &JobStatus) -> WireJobStatus {
    match status {
        JobStatus::Running {
            elapsed,
            states,
            membership_queries,
            store_hit_rate,
        } => WireJobStatus {
            id,
            state: "running".to_string(),
            detail: String::new(),
            finished: false,
            states: *states,
            queries: *membership_queries,
            hit_rate: *store_hit_rate,
            millis: elapsed.as_millis() as u64,
            phases: Vec::new(),
        },
        JobStatus::Done { result, elapsed } => WireJobStatus {
            id,
            state: "done".to_string(),
            detail: match &result.identified {
                Some(name) => format!("identified as {name}"),
                None => "not identified".to_string(),
            },
            finished: true,
            states: result.states as u64,
            queries: result.membership_queries,
            hit_rate: result.cache_hit_rate,
            millis: elapsed.as_millis() as u64,
            phases: result
                .profile
                .phases
                .iter()
                .map(|p| WirePhase {
                    name: p.name.clone(),
                    queries: p.queries,
                    millis: p.millis,
                })
                .collect(),
        },
        JobStatus::Failed { error, elapsed } => WireJobStatus {
            id,
            state: "failed".to_string(),
            detail: error.clone(),
            finished: true,
            states: 0,
            queries: 0,
            hit_rate: 0.0,
            millis: elapsed.as_millis() as u64,
            phases: Vec::new(),
        },
    }
}

/// Streams job status lines until the job finishes (or the daemon shuts
/// down); returns `false` when the connection should close.
fn stream_wait(shared: &Arc<Shared>, id: u64, writer: &mut TcpStream) -> bool {
    let mut last_emit: Option<std::time::Instant> = None;
    loop {
        let Some(mut status) = job_status(shared, id) else {
            return write_response(
                writer,
                &Response::Error {
                    message: format!("no such job: {id}"),
                },
            )
            .is_ok();
        };
        if status.finished {
            return write_response(writer, &Response::JobStatus(status)).is_ok();
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            status.detail = "server is shutting down".to_string();
            status.state = "failed".to_string();
            status.finished = true;
            let _ = write_response(writer, &Response::JobStatus(status));
            return false;
        }
        let due = last_emit.is_none_or(|t| t.elapsed() >= WAIT_STATUS_INTERVAL);
        if due {
            if write_response(writer, &Response::JobStatus(status)).is_err() {
                return false;
            }
            last_emit = Some(std::time::Instant::now());
        }
        thread::sleep(Duration::from_millis(10));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_session_thread_that_cannot_start_refuses_its_connection() {
        let daemon = spawn(CqdConfig::default()).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        // No stack this large can be mapped, so the spawn fails at once
        // without starting a thread.
        let builder = thread::Builder::new().stack_size(1 << 60);
        assert!(start_session(builder, accepted, &daemon.shared).is_none());
        let mut reader = BufReader::new(client);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with(r#"{"resp":"error""#), "{line}");
        assert!(line.contains("cannot start a session"), "{line}");
        // One error line, then the connection is closed.
        line.clear();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0);
        let metrics = &daemon.shared.metrics;
        assert_eq!(metrics.sessions_total.get(), 1);
        assert_eq!(metrics.sessions_active.get(), 0);
        // The daemon still serves new connections.
        let mut session = crate::Client::connect(daemon.addr()).unwrap();
        assert_eq!(session.hello().unwrap().server, "cqd");
        session.quit().unwrap();
        daemon.shutdown();
    }

    #[test]
    fn a_learn_job_that_cannot_start_is_an_error_and_the_daemon_keeps_serving() {
        let daemon = spawn(CqdConfig::default()).unwrap();
        // No stack this large can be mapped, so the spawn fails at once
        // without starting a thread.
        let builder = thread::Builder::new().stack_size(1 << 60);
        match handle_learn(&daemon.shared, "LRU@2", builder) {
            Response::Error { message } => {
                assert!(message.contains("cannot start a learning job"), "{message}");
            }
            other => panic!("expected an error, got {other:?}"),
        }
        assert_eq!(daemon.shared.metrics.jobs_spawned.get(), 0);
        // The daemon still serves, and still learns.
        let mut session = crate::Client::connect(daemon.addr()).unwrap();
        let id = session.learn("LRU@2").unwrap();
        let status = session.wait(id).unwrap();
        assert_eq!((status.state.as_str(), status.states), ("done", 2));
        session.quit().unwrap();
        daemon.shutdown();
    }

    #[test]
    fn specs_resolve_and_validate() {
        let spec = SessionSpec::default();
        let resolved = resolve(&spec).unwrap();
        assert_eq!(resolved.assoc, 8);
        assert_eq!(resolved.target, Target::new(LevelId::L1, 0, 0));
        assert_eq!(resolved.reps, 3);

        let bad_model = SessionSpec {
            model: "pentium".into(),
            ..SessionSpec::default()
        };
        assert!(resolve(&bad_model).is_err());
        let bad_set = SessionSpec {
            set: 10_000,
            ..SessionSpec::default()
        };
        assert!(resolve(&bad_set).is_err());
        let bad_reset = SessionSpec {
            reset: "(".into(),
            ..SessionSpec::default()
        };
        assert!(resolve(&bad_reset).is_err());
        let haswell_cat = SessionSpec {
            model: "haswell".into(),
            cat: Some(4),
            ..SessionSpec::default()
        };
        assert!(resolve(&haswell_cat).unwrap_err().contains("CAT"));
        // The vote count is bounded: past it, one query would pin a worker.
        let most_reps = SessionSpec {
            reps: MAX_REPS as u64,
            ..SessionSpec::default()
        };
        assert_eq!(resolve(&most_reps).unwrap().reps, MAX_REPS);
        let too_many_reps = SessionSpec {
            reps: MAX_REPS as u64 + 1,
            ..SessionSpec::default()
        };
        let error = resolve(&too_many_reps).unwrap_err();
        assert!(error.contains(&MAX_REPS.to_string()), "{error}");
    }

    #[test]
    fn cat_changes_the_effective_l3_associativity() {
        let spec = SessionSpec {
            level: "L3".into(),
            cat: Some(4),
            ..SessionSpec::default()
        };
        assert_eq!(resolve(&spec).unwrap().assoc, 4);
        // Repetition rounding matches the backend (even → odd).
        let spec = SessionSpec {
            reps: 4,
            ..SessionSpec::default()
        };
        assert_eq!(resolve(&spec).unwrap().reps, 5);
    }

    #[test]
    fn store_namespaces_capture_the_whole_configuration() {
        let a = resolve(&SessionSpec::default()).unwrap().config();
        let b = resolve(&SessionSpec {
            seed: 8,
            ..SessionSpec::default()
        })
        .unwrap()
        .config();
        assert_ne!(a.to_string(), b.to_string());
    }

    #[test]
    fn session_configs_match_the_backends_own_namespace() {
        // The keystone of the shared store: the namespace a session computes
        // from its spec must be byte-identical to the one the pooled engine
        // derives from its configured backend — otherwise lookups and
        // recordings never meet.
        let spec = SessionSpec {
            set: 13,
            reps: 4,
            ..SessionSpec::default()
        };
        let resolved = resolve(&spec).unwrap();
        let mut backend = Backend::new(SimulatedCpu::new(CpuModel::SkylakeI5_6500, 7));
        backend.set_repetitions(resolved.reps);
        backend.set_reset_sequence(resolved.reset.clone());
        backend.select_target(resolved.target).unwrap();
        assert_eq!(
            resolved.config().to_string(),
            QueryBackend::config(&backend).unwrap().to_string()
        );
        // Same for policy backends.
        let policy_spec = SessionSpec {
            policy: Some("LRU@4".into()),
            ..SessionSpec::default()
        };
        let resolved = resolve(&policy_spec).unwrap();
        let sim = PolicySimBackend::new(PolicyKind::Lru, 4).unwrap();
        assert_eq!(
            resolved.config().to_string(),
            QueryBackend::config(&sim).unwrap().to_string()
        );
    }

    #[test]
    fn policy_specs_resolve_and_validate() {
        let spec = SessionSpec {
            policy: Some("PLRU@4".into()),
            ..SessionSpec::default()
        };
        let resolved = resolve(&spec).unwrap();
        assert_eq!(resolved.assoc, 4);
        assert!(matches!(
            resolved.backend,
            ResolvedBackend::Policy {
                kind: PolicyKind::Plru,
                assoc: 4,
                noise: None
            }
        ));
        for bad in ["PLRU", "PLRU@0", "PLRU@64", "PLRU@3", "CLAIRVOYANT@2"] {
            let spec = SessionSpec {
                policy: Some(bad.into()),
                ..SessionSpec::default()
            };
            assert!(resolve(&spec).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn noisy_policy_specs_resolve_and_validate() {
        let spec = SessionSpec {
            policy: Some("LRU@4+noise(flip=0.05,drop=0.01,seed=9,reps=5)".into()),
            ..SessionSpec::default()
        };
        let resolved = resolve(&spec).unwrap();
        let ResolvedBackend::Policy {
            kind,
            assoc,
            noise: Some((noise, reps)),
        } = resolved.backend
        else {
            panic!("noisy spec resolved to {:?}", resolved.backend);
        };
        assert_eq!((kind, assoc, reps), (PolicyKind::Lru, 4, 5));
        assert_eq!(
            noise,
            NoiseSpec {
                flip_permille: 50,
                drop_permille: 10,
                evict_permille: 0,
                seed: 9,
            }
        );
        // The engine votes with the spec's repetition count.
        assert_eq!(resolved.reps, 5);
        // Omitted keys default; reps defaults to the noisy default.
        let spec = SessionSpec {
            policy: Some("FIFO@2+noise(flip=0.1)".into()),
            ..SessionSpec::default()
        };
        let resolved = resolve(&spec).unwrap();
        assert_eq!(resolved.reps, DEFAULT_NOISY_REPS);
        let spec = SessionSpec {
            policy: Some(format!("LRU@4+noise(flip=0.05,reps={MAX_REPS})")),
            ..SessionSpec::default()
        };
        assert_eq!(resolve(&spec).unwrap().reps, MAX_REPS);

        for bad in [
            "LRU@4+noise(flip=0.05",
            "LRU@4+noise(flip=2.0)",
            "LRU@4+noise(flip=-0.1)",
            "LRU@4+noise(warp=0.1)",
            "LRU@4+noise(flip)",
            "LRU@4+noise(seed=x)",
            &format!("LRU@4+noise(flip=0.05,reps={})", MAX_REPS + 1),
        ] {
            let spec = SessionSpec {
                policy: Some(bad.into()),
                ..SessionSpec::default()
            };
            assert!(resolve(&spec).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn noisy_session_configs_match_the_backends_own_namespace() {
        // Same keystone as the clean paths: the namespace a noisy session
        // computes must be byte-identical to what the pooled noisy engine
        // derives from its backend, or voted answers and lookups never meet.
        let spec = SessionSpec {
            policy: Some("PLRU@4+noise(flip=0.05,evict=0.002,seed=3)".into()),
            ..SessionSpec::default()
        };
        let resolved = resolve(&spec).unwrap();
        let ResolvedBackend::Policy {
            noise: Some((noise, reps)),
            ..
        } = &resolved.backend
        else {
            panic!("expected a noisy policy backend");
        };
        let backend = noisy_sim_backend(PolicyKind::Plru, 4, *noise)
            .unwrap()
            .with_repetitions(*reps);
        assert_eq!(
            resolved.config().to_string(),
            backend.config().unwrap().to_string()
        );
        // Different noise specs are different namespaces (noise can never
        // pollute the clean namespace).
        let clean = resolve(&SessionSpec {
            policy: Some("PLRU@4".into()),
            ..SessionSpec::default()
        })
        .unwrap();
        assert_ne!(resolved.config().to_string(), clean.config().to_string());
    }
}
