//! The query store: one namespaced, prefix-trie memoization layer for
//! concrete query outcomes — the LevelDB role of §4.2.
//!
//! The original frontend memoizes every query response in LevelDB so that
//! repeated queries — from the same client or a different one — never touch
//! the scarce hardware backend again.  This reproduction goes one step
//! further: instead of a flat key-value map it reuses
//! [`learning::QueryCache`], the thread-safe arena-backed prefix trie built
//! for membership queries.  Because a query's profiled outcomes are
//! *prefix-consistent* — the hit/miss classification of access `i` depends
//! only on the reset state and the accesses before it, never on what comes
//! after — recording one concrete query also answers every prefix of it, and
//! overlapping expansions from different clients share trie nodes instead of
//! duplicating whole key strings.
//!
//! The store is namespaced by the rendered [`QueryConfig`](crate::QueryConfig)
//! of the backend that produced an answer: the full backend identity (CPU
//! model, seed, CAT restriction — or a simulated-policy description), the
//! reset sequence, the repetition count and the target cache set.  Two
//! consumers share answers exactly when a backend would have executed their
//! queries identically.
//!
//! Only *consistent* answers (all repetitions agreed) are shared; a degraded
//! majority vote is returned to its requester but never memoized, so noise
//! cannot be frozen into the store.  A recording that contradicts an earlier
//! one (the nondeterminism signal of §7.1) is dropped and counted in
//! [`QueryStore::conflicts`].
//!
//! # Durability
//!
//! A store opened with [`QueryStore::open`] (or [`QueryStore::with_options`]
//! and a directory) is backed by the log-structured files of
//! [`persist`](crate::persist): every fresh recording is rendered as one
//! store line (`namespace \t pattern \t query`, the format of
//! [`QueryStore::export`] too) and handed to a dedicated writer thread over a
//! *bounded* channel (the hot lookup path never blocks on disk — a full
//! queue drops the append and counts it, and the next snapshot heals the gap
//! because snapshots capture the whole store), the writer compacts the log
//! into an atomic snapshot past a size threshold, and startup replays
//! snapshot-then-log so a restarted `cqd` serves yesterday's campaign from
//! memory.  [`QueryStore::flush`] — and dropping the store — is the
//! durability barrier: it fsyncs the log, and compacts first when appends
//! were dropped since the last snapshot.  A `kill -9` loses the unsynced
//! tail of the log and every append dropped since the last snapshot.
//!
//! # Bounded memory
//!
//! A store configured with [`StoreOptions::max_entries`] evicts at
//! *namespace granularity*: when the global entry count exceeds the cap, a
//! pluggable [`EvictionPolicy`] — by default an LRU simulator from
//! [`policies`], driven by namespace-touch events — names a victim namespace
//! whose trie is cleared in place.  Existing [`StoreSpace`] handles stay
//! valid and simply miss afterwards; the namespace refills on use.  Eviction
//! is thereby self-referential in the CacheQuery sense: the replacement
//! policies this system learns and simulates also decide what the system
//! itself forgets.
//!
//! One [`QueryStore`] instance sits behind every [`QueryEngine`]
//! (crate::QueryEngine); engines that should share answers (the `cqd`
//! daemon's sessions, workers and learn jobs; the per-worker oracle clones of
//! a parallel learning run) share one store through an [`Arc`].

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock, Weak};

use cache::HitMiss;
use learning::{QueryCache, TrieCursor};
use mbl::{expand_query, render_query_into, MemOp, Query, Tag};
use policies::{KeyedPolicy, PolicyError, PolicyKind, ReplacementPolicy};

use crate::persist;

/// One namespace's trie: symbols are whole memory operations (block + tag),
/// outputs are the classification of the access (`None` for unprofiled and
/// invalidating operations).
type Space = QueryCache<MemOp, Option<HitMiss>>;

/// Chooses which namespace a bounded [`QueryStore`] forgets when it exceeds
/// its entry cap.
///
/// The store drives the policy with namespace-*touch* events (every lookup
/// or recording against a namespace touches it) and asks for a victim when
/// over the cap.  [`PolicyEvictor`] adapts any registered replacement-policy
/// simulator to this interface; custom strategies only need these four
/// methods.
pub trait EvictionPolicy: Send + std::fmt::Debug {
    /// Records an access to `namespace` (insertion into tracking, or a
    /// promotion if already tracked).
    fn touch(&mut self, namespace: &str);

    /// Names one tracked namespace to discard, removing it from tracking.
    /// `None` when nothing is tracked.
    fn victim(&mut self) -> Option<String>;

    /// Drops `namespace` from tracking without an eviction (the store
    /// cleared it for another reason).
    fn forget(&mut self, namespace: &str);

    /// Display name of the strategy (e.g. `LRU`).
    fn name(&self) -> &'static str;
}

/// An [`EvictionPolicy`] backed by a replacement-policy simulator from
/// [`policies`]: the namespaces currently tracked are the "lines" of one
/// cache set, and the policy's victim selection decides which namespace the
/// store forgets.
///
/// The tracking associativity bounds how many namespaces the policy can
/// distinguish, not how many the store may hold — untracked namespaces are
/// still evictable through the store's fallback scan.
#[derive(Debug)]
pub struct PolicyEvictor {
    tracked: KeyedPolicy<String>,
}

/// Tracking associativity of [`PolicyEvictor::default`] (LRU@16): wider than
/// any realistic concurrent-campaign namespace count, narrow enough that the
/// linear way scan stays cheap.
pub const DEFAULT_EVICTOR_WAYS: usize = 16;

impl PolicyEvictor {
    /// Wraps an explicit policy instance; tracking capacity is the policy's
    /// associativity.
    pub fn new(policy: Box<dyn ReplacementPolicy>) -> Self {
        PolicyEvictor {
            tracked: KeyedPolicy::new(policy),
        }
    }

    /// Builds an evictor from a registered policy kind at `ways` tracking
    /// associativity.
    ///
    /// # Errors
    ///
    /// Fails when the kind does not support `ways` (e.g. PLRU at a
    /// non-power-of-two).
    pub fn of_kind(kind: PolicyKind, ways: usize) -> Result<Self, PolicyError> {
        Ok(PolicyEvictor::new(kind.build(ways)?))
    }

    /// Parses an evictor spec of the form `POLICY` or `POLICY@WAYS` (e.g.
    /// `lru`, `srrip-fp@8`) — the grammar of `cqd --store-evict`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown policies, malformed way
    /// counts and unsupported associativities.
    pub fn from_spec(spec: &str) -> Result<Self, String> {
        let (name, ways) = match spec.split_once('@') {
            None => (spec, DEFAULT_EVICTOR_WAYS),
            Some((name, ways)) => (
                name,
                ways.parse::<usize>()
                    .map_err(|_| format!("invalid way count in eviction spec '{spec}'"))?,
            ),
        };
        let kind: PolicyKind = name.parse().map_err(|e| format!("{e}"))?;
        PolicyEvictor::of_kind(kind, ways).map_err(|e| e.to_string())
    }
}

impl Default for PolicyEvictor {
    fn default() -> Self {
        PolicyEvictor::of_kind(PolicyKind::Lru, DEFAULT_EVICTOR_WAYS)
            .expect("LRU supports every associativity")
    }
}

impl EvictionPolicy for PolicyEvictor {
    fn touch(&mut self, namespace: &str) {
        // A displaced key here only falls out of *tracking* (the policy can
        // distinguish at most `ways` namespaces); the store's fallback scan
        // keeps untracked namespaces evictable.
        self.tracked.touch(namespace.to_string());
    }

    fn victim(&mut self) -> Option<String> {
        self.tracked.evict()
    }

    fn forget(&mut self, namespace: &str) {
        self.tracked.forget(&namespace.to_string());
    }

    fn name(&self) -> &'static str {
        self.tracked.policy_name()
    }
}

/// Observer of a store's traffic, attached at construction via
/// [`StoreOptions::tap`].
///
/// The tap sees every lookup (with its hit/miss fate) and every successful
/// recording — the event stream `storebench` captures from a live campaign
/// and replays against capped stores to measure eviction-policy degradation.
/// A store without a tap pays one `Option` check per operation.
pub trait StoreTap: Send + Sync + std::fmt::Debug {
    /// A lookup in `namespace`; `hit` is whether it was served from memory.
    fn on_lookup(&self, namespace: &str, query: &Query, hit: bool);

    /// A successful recording in `namespace` of the profiled `outcomes` of
    /// `query`.
    fn on_record(&self, namespace: &str, query: &Query, outcomes: &[HitMiss]);
}

/// Configuration of a [`QueryStore`] beyond the in-memory default — see
/// [`QueryStore::with_options`].
#[derive(Debug, Default)]
pub struct StoreOptions {
    /// Directory for the record log and snapshots; `None` keeps the store
    /// memory-only.
    pub dir: Option<PathBuf>,
    /// Global entry (trie node) cap; `None` leaves the store unbounded.
    pub max_entries: Option<u64>,
    /// Eviction strategy for a bounded store; defaults to
    /// [`PolicyEvictor::default`] (LRU@16).  Ignored when `max_entries` is
    /// `None`.
    pub evictor: Option<Box<dyn EvictionPolicy>>,
    /// Traffic observer (see [`StoreTap`]).
    pub tap: Option<Arc<dyn StoreTap>>,
}

/// Depth of the bounded channel feeding a durable store's writer thread.
/// When the writer falls behind, appends are dropped (and counted) instead
/// of blocking the query path; the next snapshot heals the gap.
const QUEUE_DEPTH: usize = 1024;

/// Log size past which the writer compacts the store into a snapshot.
const COMPACT_BYTES: u64 = 4 << 20;

/// Appends the hit/miss pattern of `outcomes` — `H` per hit, `M` per miss,
/// the pattern column of a store line and the `pattern` of a wire answer —
/// to `out`.
fn push_pattern<'a>(out: &mut String, outcomes: impl IntoIterator<Item = &'a HitMiss>) {
    out.extend(outcomes.into_iter().map(|outcome| match outcome {
        HitMiss::Hit => 'H',
        HitMiss::Miss => 'M',
    }));
}

/// The hit/miss pattern of `outcomes`: `H` per hit, `M` per miss — the
/// pattern column of a store line and the `pattern` of a wire answer.
pub fn encode_pattern(outcomes: &[HitMiss]) -> String {
    let mut pattern = String::with_capacity(outcomes.len());
    push_pattern(&mut pattern, outcomes);
    pattern
}

/// Decodes a hit/miss pattern written by [`encode_pattern`].
///
/// # Errors
///
/// Names the first character other than `H` or `M`: a corrupted pattern
/// must be rejected, never coerced into plausible-looking answers.
pub fn decode_pattern(pattern: &str) -> Result<Vec<HitMiss>, String> {
    pattern
        .chars()
        .map(|letter| match letter {
            'H' => Ok(HitMiss::Hit),
            'M' => Ok(HitMiss::Miss),
            other => Err(format!("pattern letter '{other}' is neither H nor M")),
        })
        .collect()
}

/// Appends one store line — `namespace \t pattern \t query`, the one format
/// of [`QueryStore::export`], snapshot lines and log records — to `out`.
fn push_line<'a>(
    out: &mut String,
    namespace: &str,
    outcomes: impl IntoIterator<Item = &'a HitMiss>,
    query: &[MemOp],
) {
    out.push_str(namespace);
    out.push('\t');
    push_pattern(out, outcomes);
    out.push('\t');
    render_query_into(out, query);
}

/// Counters of a store's persistence layer, all zero for a memory-only
/// store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PersistStats {
    /// Records handed to the writer thread since open.
    pub appended: u64,
    /// Appends lost: the writer's queue was full, or a write failed.  Lost
    /// appends are durability gaps (healed by the next snapshot), never
    /// in-memory data loss.
    pub dropped: u64,
    /// Compacted snapshots written since open.
    pub snapshots: u64,
    /// Records recovered at open (snapshot lines plus log records).
    pub replayed: u64,
}

/// Outcome of one [`QueryStore::import`] / startup replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ImportReport {
    /// Lines stored (possibly re-recording already-known answers).
    pub imported: u64,
    /// Lines rejected before touching the store: missing fields, pattern
    /// characters other than `H`/`M`, unparseable queries, or a pattern
    /// whose length mismatches the query's profiled-access count.
    pub malformed: u64,
    /// Well-formed lines dropped because they contradicted the current
    /// contents (also counted in [`QueryStore::conflicts`]).
    pub conflicted: u64,
}

/// One row of [`QueryStore::namespace_usage`]: a namespace with its size and
/// lifetime lookup counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NamespaceUsage {
    /// The namespace (a rendered backend configuration).
    pub name: String,
    /// Distinct cached access prefixes (trie nodes).
    pub entries: u64,
    /// Estimated heap footprint of the trie, in bytes.
    pub bytes: u64,
    /// Lookups served from memory (lifetime — survives eviction).
    pub hits: u64,
    /// Lookups that missed (lifetime — survives eviction).
    pub misses: u64,
}

/// A handle to one namespace of a [`QueryStore`]: the cheap, lock-free way to
/// issue many lookups/recordings against the same backend configuration.
///
/// Handles are obtained from [`QueryStore::space`] and can be cloned and sent
/// across threads freely; all clones address the same trie.  Handles stay
/// valid across evictions — a cleared namespace simply misses until refilled.
#[derive(Debug, Clone)]
pub struct StoreSpace {
    name: Arc<str>,
    trie: Arc<Space>,
    inner: Arc<StoreInner>,
}

impl StoreSpace {
    /// Returns the memoized profiled outcomes of `query` if the whole access
    /// sequence is cached.
    ///
    /// Served answers are always consistent (inconsistent runs are never
    /// recorded).
    pub fn lookup(&self, query: &Query) -> Option<Vec<HitMiss>> {
        self.served(query, self.trie.lookup(query))
    }

    /// [`lookup`](Self::lookup) resuming from `cursor`, whose last query
    /// shared its first `lcp` operations with `query` (see
    /// [`QueryCache::lookup_resumed`]): the walk starts at the shared
    /// prefix's trie position instead of the root.  Returns the profiled
    /// outcomes of `query[lcp..]`; the shared prefix's are the caller's.
    ///
    /// The lookup is counted, tapped and touched exactly as `lookup` is.
    pub fn lookup_resumed(
        &self,
        query: &Query,
        lcp: usize,
        cursor: &mut TrieCursor,
    ) -> Option<Vec<HitMiss>> {
        self.served(query, self.trie.lookup_resumed(query, lcp, cursor))
    }

    /// Reports one lookup's fate to the tap and the evictor, and flattens
    /// the trie outputs of a hit into profiled outcomes.
    fn served(&self, query: &Query, outputs: Option<Vec<Option<HitMiss>>>) -> Option<Vec<HitMiss>> {
        if let Some(tap) = &self.inner.tap {
            tap.on_lookup(&self.name, query, outputs.is_some());
        }
        self.inner.note_touch(&self.name);
        Some(outputs?.into_iter().flatten().collect())
    }

    /// Records the profiled `outcomes` of `query`.
    ///
    /// `consistent == false` runs are skipped (returning `false`): a degraded
    /// majority vote must not be served to other consumers as a clean answer.
    /// A recording that contradicts an existing entry is dropped and counted
    /// as a conflict.  Returns whether the answer was stored.
    pub fn record(&self, query: &Query, outcomes: &[HitMiss], consistent: bool) -> bool {
        self.commit(query, outcomes, consistent, |trie, outputs| {
            trie.record(query, outputs)
        })
    }

    /// [`record`](Self::record) resuming from `cursor`, whose last query
    /// shared its first `lcp` operations with `query` (see
    /// [`QueryCache::record_resumed`]): only the new nodes below the shared
    /// prefix are walked and inserted, and the cursor ends on `query`.
    ///
    /// The recording is counted, logged, tapped and touched exactly as
    /// `record`'s.
    pub fn record_resumed(
        &self,
        query: &Query,
        outcomes: &[HitMiss],
        consistent: bool,
        lcp: usize,
        cursor: &mut TrieCursor,
    ) -> bool {
        self.commit(query, outcomes, consistent, |trie, outputs| {
            trie.record_resumed(query, outputs, lcp, cursor)
        })
    }

    /// The recording path shared by [`record`](Self::record) and
    /// [`record_resumed`](Self::record_resumed); `insert` puts the per-access
    /// outputs into the trie.
    fn commit(
        &self,
        query: &Query,
        outcomes: &[HitMiss],
        consistent: bool,
        insert: impl FnOnce(&Space, &[Option<HitMiss>]) -> Result<usize, learning::OracleError>,
    ) -> bool {
        if !consistent {
            return false;
        }
        let profiled_ops = query
            .iter()
            .filter(|op| op.tag == Some(Tag::Profile))
            .count();
        if profiled_ops != outcomes.len() {
            // The outcome vector does not line up with the query's profiled
            // accesses; refusing to store is safer than storing garbage.
            self.inner.conflicts.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let mut profiled = outcomes.iter();
        let outputs: Vec<Option<HitMiss>> = query
            .iter()
            .map(|op| {
                if op.tag == Some(Tag::Profile) {
                    profiled.next().copied()
                } else {
                    None
                }
            })
            .collect();
        match insert(&self.trie, &outputs) {
            Ok(fresh) => {
                if fresh > 0 {
                    self.inner
                        .total_entries
                        .fetch_add(fresh as u64, Ordering::Relaxed);
                }
                // Append even when no nodes are fresh: a shorter query can
                // profile an interior node that existing entries only passed
                // through, and that outcome must survive a log-only replay.
                self.inner.append_to_log(&self.name, query, outcomes);
                if let Some(tap) = &self.inner.tap {
                    tap.on_record(&self.name, query, outcomes);
                }
                self.inner.note_touch(&self.name);
                true
            }
            Err(_) => {
                self.inner.conflicts.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// Lookups served from memory in this namespace.
    pub fn hits(&self) -> u64 {
        self.trie.hits()
    }

    /// Lookups that missed in this namespace.
    pub fn misses(&self) -> u64 {
        self.trie.misses()
    }

    /// One consistent `(hits, misses)` snapshot of this namespace (see
    /// [`learning::QueryCache::counts`]).
    pub fn counts(&self) -> (u64, u64) {
        self.trie.counts()
    }

    /// Distinct cached access prefixes (trie nodes) in this namespace.
    pub fn entries(&self) -> u64 {
        self.trie.entries()
    }

    /// Estimated heap footprint of this namespace's trie, in bytes (see
    /// [`learning::QueryCache::approx_bytes`]).
    pub fn approx_bytes(&self) -> u64 {
        self.trie.approx_bytes()
    }

    /// Fraction of this namespace's lookups served from memory, computed
    /// from one consistent counter snapshot.
    pub fn hit_rate(&self) -> f64 {
        let (hits, misses) = self.counts();
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    }
}

/// Aggregate statistics of the engine-level majority votes recorded against
/// a store (see `QueryEngine`'s `VoteConfig`): how many queries were voted,
/// how many needed escalation, how many never settled, and the worst final
/// vote margin observed — the noise dashboard `cqd stats` reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VoteStats {
    /// Queries that went through the engine's repetition vote.
    pub voted: u64,
    /// Backend executions those votes consumed (repetitions and escalations
    /// included): `executions / voted` is the effective repetition count.
    pub executions: u64,
    /// Voted queries that needed at least one escalation round.
    pub escalated: u64,
    /// Voted queries whose margin never reached the threshold; their
    /// (degraded) majority answer was returned but not stored.
    pub unsettled: u64,
    /// The smallest final vote margin observed, in permille (1000 until the
    /// first vote is recorded).
    pub min_margin_permille: u64,
}

impl Default for VoteStats {
    fn default() -> Self {
        VoteStats {
            voted: 0,
            executions: 0,
            escalated: 0,
            unsettled: 0,
            min_margin_permille: 1000,
        }
    }
}

/// Atomic counterparts of [`VoteStats`].
#[derive(Debug)]
struct VoteCounters {
    voted: AtomicU64,
    executions: AtomicU64,
    escalated: AtomicU64,
    unsettled: AtomicU64,
    min_margin_permille: AtomicU64,
}

impl Default for VoteCounters {
    fn default() -> Self {
        VoteCounters {
            voted: AtomicU64::new(0),
            executions: AtomicU64::new(0),
            escalated: AtomicU64::new(0),
            unsettled: AtomicU64::new(0),
            min_margin_permille: AtomicU64::new(1000),
        }
    }
}

/// Messages to the persistence writer thread.
#[derive(Debug)]
enum PersistMsg {
    /// Append one framed export line to the record log.
    Append(String),
    /// Flush and fsync the log — compacting instead when appends were
    /// dropped since the last snapshot — then acknowledge.
    Sync(SyncSender<()>),
    /// Compact the store into a snapshot (truncating the log), then
    /// acknowledge.
    Snapshot(SyncSender<()>),
}

/// The live persistence attachment of a durable store.
#[derive(Debug)]
struct Persist {
    dir: PathBuf,
    tx: SyncSender<PersistMsg>,
    appended: AtomicU64,
    dropped: AtomicU64,
    /// Appends dropped since the last snapshot: the gap only the next
    /// snapshot closes.
    unlogged: AtomicU64,
    snapshots: AtomicU64,
    replayed: u64,
}

impl Persist {
    /// Counts one append that will not reach the log.
    fn drop_append(&self) {
        self.dropped.fetch_add(1, Ordering::Relaxed);
        // Release: a compaction that sees this count also sees the recording
        // it stands for (inserted into the trie before the append).
        self.unlogged.fetch_add(1, Ordering::Release);
    }
}

/// The entry cap and its eviction strategy.
#[derive(Debug)]
struct Bound {
    max_entries: u64,
    evictor: Mutex<Box<dyn EvictionPolicy>>,
}

/// Shared state behind a [`QueryStore`] and all its [`StoreSpace`] handles.
#[derive(Debug)]
struct StoreInner {
    spaces: RwLock<HashMap<String, Arc<Space>>>,
    conflicts: AtomicU64,
    votes: VoteCounters,
    /// Exact global trie-node count, maintained from `record`'s fresh-node
    /// deltas and `clear`'s drop counts — the cheap load the entry cap is
    /// enforced against.
    total_entries: AtomicU64,
    /// Namespaces cleared by the entry cap.
    evictions: AtomicU64,
    bound: Option<Bound>,
    /// Set once at the end of `with_options` (after replay, so recovered
    /// records are not re-appended to the log they came from).
    persist: OnceLock<Persist>,
    tap: Option<Arc<dyn StoreTap>>,
}

impl Default for StoreInner {
    fn default() -> Self {
        StoreInner {
            spaces: RwLock::new(HashMap::new()),
            conflicts: AtomicU64::new(0),
            votes: VoteCounters::default(),
            total_entries: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            bound: None,
            persist: OnceLock::new(),
            tap: None,
        }
    }
}

impl StoreInner {
    /// Serializes every namespace to the tab-separated export format (also
    /// used by the writer thread for compaction).
    fn export(&self) -> String {
        // Every line goes into one buffer; the sort permutes their spans.
        let mut lines = String::new();
        let mut spans: Vec<std::ops::Range<usize>> = Vec::new();
        {
            let spaces = self.spaces.read().unwrap_or_else(PoisonError::into_inner);
            for (namespace, space) in spaces.iter() {
                space.for_each_maximal(|query, outputs| {
                    let start = lines.len();
                    push_line(&mut lines, namespace, outputs.iter().flatten(), query);
                    spans.push(start..lines.len());
                });
            }
        }
        spans.sort_unstable_by(|a, b| lines[a.clone()].cmp(&lines[b.clone()]));
        let mut text = String::with_capacity(lines.len() + spans.len());
        for (index, span) in spans.into_iter().enumerate() {
            if index > 0 {
                text.push('\n');
            }
            text.push_str(&lines[span]);
        }
        text
    }

    /// Hands one export line to the writer thread; never blocks — a full
    /// queue or a detached writer drops the append and counts it.
    fn append_to_log(&self, namespace: &str, query: &Query, outcomes: &[HitMiss]) {
        let Some(persist) = self.persist.get() else {
            return;
        };
        let mut line =
            String::with_capacity(namespace.len() + outcomes.len() + 3 * query.len() + 2);
        push_line(&mut line, namespace, outcomes, query);
        match persist.tx.try_send(PersistMsg::Append(line)) {
            Ok(()) => {
                persist.appended.fetch_add(1, Ordering::Relaxed);
            }
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                persist.drop_append();
            }
        }
    }

    /// Touches `namespace` on the eviction policy and enforces the entry cap
    /// (no-op for unbounded stores).
    fn note_touch(&self, namespace: &str) {
        let Some(bound) = &self.bound else {
            return;
        };
        let mut evictor = bound.evictor.lock().unwrap_or_else(PoisonError::into_inner);
        evictor.touch(namespace);
        while self.total_entries.load(Ordering::Relaxed) > bound.max_entries {
            if !self.evict_one(namespace, evictor.as_mut()) {
                break;
            }
        }
    }

    /// Clears one victim namespace; returns whether any entries were freed.
    ///
    /// The policy's candidates are tried first (each rejected candidate has
    /// already been dropped from tracking, so the loop terminates); when the
    /// policy runs dry the store falls back to any other resident namespace,
    /// and as a last resort clears `current` itself (the cap is smaller than
    /// one campaign's working set).
    fn evict_one(&self, current: &str, evictor: &mut dyn EvictionPolicy) -> bool {
        let mut popped_current = false;
        loop {
            match evictor.victim() {
                Some(name) if name == current => popped_current = true,
                Some(name) => {
                    if self.clear_namespace(&name) {
                        if popped_current {
                            evictor.touch(current);
                        }
                        return true;
                    }
                }
                None => break,
            }
        }
        let fallback = {
            let spaces = self.spaces.read().unwrap_or_else(PoisonError::into_inner);
            spaces
                .iter()
                .find(|(name, space)| name.as_str() != current && space.entries() > 0)
                .map(|(name, _)| name.clone())
        };
        if let Some(name) = fallback {
            if popped_current {
                evictor.touch(current);
            }
            if self.clear_namespace(&name) {
                return true;
            }
        }
        self.clear_namespace(current)
    }

    /// Clears `namespace`'s trie in place (handles stay valid; subsequent
    /// lookups miss).  Returns whether anything was dropped.
    fn clear_namespace(&self, namespace: &str) -> bool {
        let space = {
            let spaces = self.spaces.read().unwrap_or_else(PoisonError::into_inner);
            spaces.get(namespace).cloned()
        };
        let Some(space) = space else {
            return false;
        };
        let dropped = space.clear();
        if dropped == 0 {
            return false;
        }
        self.total_entries.fetch_sub(dropped, Ordering::Relaxed);
        self.evictions.fetch_add(1, Ordering::Relaxed);
        true
    }
}

/// A concurrent, namespaced memoization store for concrete query outcomes:
/// the single caching layer every query path of this reproduction goes
/// through.  [`QueryStore::new`] is memory-only and unbounded;
/// [`QueryStore::open`] adds the durable record log, and
/// [`QueryStore::with_options`] additionally bounds memory with
/// policy-driven eviction.
///
/// # Example
///
/// ```
/// use cache::HitMiss;
/// use cachequery::QueryStore;
/// use mbl::expand_query;
///
/// let store = QueryStore::new();
/// let space = store.space("skylake seed=7 cat=- reset=F+R reps=3 L1 set=0 slice=0");
/// let query = &expand_query("A B A?", 8).unwrap()[0];
/// assert_eq!(space.lookup(query), None);
/// space.record(query, &[HitMiss::Hit], true);
/// // The query itself — and any prefix of it — now hits.
/// assert_eq!(space.lookup(query), Some(vec![HitMiss::Hit]));
/// let prefix = &expand_query("A B", 8).unwrap()[0];
/// assert_eq!(space.lookup(prefix), Some(vec![]));
/// ```
#[derive(Debug)]
pub struct QueryStore {
    inner: Arc<StoreInner>,
}

impl Default for QueryStore {
    fn default() -> Self {
        QueryStore::new()
    }
}

impl Drop for QueryStore {
    /// Closing a durable store is a durability barrier: see
    /// [`QueryStore::flush`].
    fn drop(&mut self) {
        self.flush();
    }
}

impl QueryStore {
    /// Creates an empty, unbounded, memory-only store.
    pub fn new() -> Self {
        QueryStore::with_options(StoreOptions::default())
            .expect("a memory-only store performs no I/O")
    }

    /// Opens a durable store in `dir` with default options: unbounded
    /// memory, a 1024-deep writer queue and a 4 MiB compaction threshold
    /// (both fixed).  Replay costs one MBL parse and one trie insert per
    /// snapshot line and log record.  Call [`flush`](Self::flush), or drop
    /// the store, to make everything recorded so far durable.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from reading the snapshot/log or creating the
    /// directory.  See [`QueryStore::with_options`] for the replay contract.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        QueryStore::with_options(StoreOptions {
            dir: Some(dir.into()),
            ..StoreOptions::default()
        })
    }

    /// Creates a store from explicit [`StoreOptions`].
    ///
    /// With a directory, startup replays the compacted snapshot first, then
    /// the record log (stopping at the first torn or corrupt record and
    /// truncating the log back to the last valid boundary), and only then
    /// attaches the writer thread — so recovered records are never
    /// re-appended to the log they came from.  The entry cap, if any, is
    /// enforced during replay too.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; a memory-only configuration cannot fail.
    pub fn with_options(options: StoreOptions) -> io::Result<Self> {
        let StoreOptions {
            dir,
            max_entries,
            evictor,
            tap,
        } = options;
        let bound = max_entries.map(|max_entries| Bound {
            max_entries,
            evictor: Mutex::new(evictor.unwrap_or_else(|| Box::<PolicyEvictor>::default())),
        });
        let inner = Arc::new(StoreInner {
            bound,
            tap,
            ..StoreInner::default()
        });
        let store = QueryStore { inner };
        let Some(dir) = dir else {
            return Ok(store);
        };

        std::fs::create_dir_all(&dir)?;
        let mut replayed = 0u64;
        if let Some(snapshot) = persist::read_snapshot(&dir)? {
            replayed += store.import(&snapshot).imported;
        }
        let (records, valid_len) = persist::read_log(&dir)?;
        for line in &records {
            replayed += store.import(line).imported;
        }
        persist::truncate_log(&dir, valid_len)?;

        // Open the log eagerly so open-time I/O errors surface here, and so
        // the writer thread never races directory removal with file creation.
        let log = persist::open_log_for_append(&dir)?;
        let (tx, rx) = mpsc::sync_channel(QUEUE_DEPTH);
        let weak = Arc::downgrade(&store.inner);
        let writer_dir = dir.clone();
        std::thread::Builder::new()
            .name("cq-store-writer".to_string())
            .spawn(move || writer_loop(rx, log, writer_dir, weak, valid_len))?;
        let _ = store.inner.persist.set(Persist {
            dir,
            tx,
            appended: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            unlogged: AtomicU64::new(0),
            snapshots: AtomicU64::new(0),
            replayed,
        });
        Ok(store)
    }

    /// The store directory, when the store is durable.
    pub fn store_dir(&self) -> Option<&Path> {
        self.inner.persist.get().map(|p| p.dir.as_path())
    }

    /// Persistence counters (all zero for a memory-only store).
    pub fn persist_stats(&self) -> PersistStats {
        match self.inner.persist.get() {
            None => PersistStats::default(),
            Some(p) => PersistStats {
                appended: p.appended.load(Ordering::Relaxed),
                dropped: p.dropped.load(Ordering::Relaxed),
                snapshots: p.snapshots.load(Ordering::Relaxed),
                replayed: p.replayed,
            },
        }
    }

    /// The durability barrier: blocks until everything recorded so far is on
    /// disk and survives a reopen.  Appends handed to the writer are flushed
    /// and fsynced to the record log; when appends were dropped since the
    /// last snapshot (a full writer queue, a failed write), the store is
    /// compacted into a fresh snapshot instead, which covers them.  Dropping
    /// a durable store does the same.  No-op for a memory-only store.
    pub fn flush(&self) {
        let Some(persist) = self.inner.persist.get() else {
            return;
        };
        let (ack_tx, ack_rx) = mpsc::sync_channel(1);
        if persist.tx.send(PersistMsg::Sync(ack_tx)).is_ok() {
            let _ = ack_rx.recv();
        }
    }

    /// Blocks until the store is compacted into a fresh snapshot (and the
    /// log truncated).  No-op for a memory-only store.
    pub fn snapshot(&self) {
        let Some(persist) = self.inner.persist.get() else {
            return;
        };
        let (ack_tx, ack_rx) = mpsc::sync_channel(1);
        if persist.tx.send(PersistMsg::Snapshot(ack_tx)).is_ok() {
            let _ = ack_rx.recv();
        }
    }

    /// The namespace handle for `namespace`, created empty on first use.
    pub fn space(&self, namespace: &str) -> StoreSpace {
        if let Some(space) = self
            .inner
            .spaces
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(namespace)
        {
            return StoreSpace {
                name: Arc::from(namespace),
                trie: Arc::clone(space),
                inner: Arc::clone(&self.inner),
            };
        }
        let mut spaces = self
            .inner
            .spaces
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        let trie = Arc::clone(
            spaces
                .entry(namespace.to_string())
                .or_insert_with(|| Arc::new(QueryCache::new())),
        );
        drop(spaces);
        StoreSpace {
            name: Arc::from(namespace),
            trie,
            inner: Arc::clone(&self.inner),
        }
    }

    /// Returns the memoized profiled outcomes of `query` under `namespace`,
    /// if the whole access sequence is cached.
    pub fn lookup(&self, namespace: &str, query: &Query) -> Option<Vec<HitMiss>> {
        self.space(namespace).lookup(query)
    }

    /// Records the profiled `outcomes` of `query` under `namespace` (see
    /// [`StoreSpace::record`]).  Returns whether the answer was stored.
    pub fn record(
        &self,
        namespace: &str,
        query: &Query,
        outcomes: &[HitMiss],
        consistent: bool,
    ) -> bool {
        self.space(namespace).record(query, outcomes, consistent)
    }

    /// Lookups served from memory, across all namespaces.
    pub fn hits(&self) -> u64 {
        self.fold(|s| s.hits())
    }

    /// Lookups that missed, across all namespaces.
    pub fn misses(&self) -> u64 {
        self.fold(|s| s.misses())
    }

    /// One `(hits, misses)` snapshot across all namespaces, each namespace
    /// sampled consistently (see [`learning::QueryCache::counts`]) — what
    /// every stats rendering should use instead of separate
    /// [`hits`](Self::hits)/[`misses`](Self::misses) loads.
    pub fn counts(&self) -> (u64, u64) {
        let spaces = self
            .inner
            .spaces
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        spaces.values().fold((0, 0), |(hits, misses), space| {
            let (h, m) = space.counts();
            (hits + h, misses + m)
        })
    }

    /// Distinct cached access prefixes (trie nodes), across all namespaces.
    pub fn entries(&self) -> u64 {
        self.fold(|s| s.entries())
    }

    /// Namespaces cleared by the entry cap since the store opened.
    pub fn evictions(&self) -> u64 {
        self.inner.evictions.load(Ordering::Relaxed)
    }

    /// The configured entry cap, if any.
    pub fn max_entries(&self) -> Option<u64> {
        self.inner.bound.as_ref().map(|b| b.max_entries)
    }

    /// Recordings dropped because they contradicted the store or were
    /// malformed.
    pub fn conflicts(&self) -> u64 {
        self.inner.conflicts.load(Ordering::Relaxed)
    }

    /// Records the outcome of one engine-level majority vote: its final
    /// margin (permille), the backend executions it consumed, whether it
    /// escalated past the base repetition count, and whether it settled
    /// above the margin threshold.
    pub fn record_vote(
        &self,
        margin_permille: u64,
        executions: u64,
        escalated: bool,
        settled: bool,
    ) {
        let votes = &self.inner.votes;
        votes.voted.fetch_add(1, Ordering::Relaxed);
        votes.executions.fetch_add(executions, Ordering::Relaxed);
        if escalated {
            votes.escalated.fetch_add(1, Ordering::Relaxed);
        }
        if !settled {
            votes.unsettled.fetch_add(1, Ordering::Relaxed);
        }
        votes
            .min_margin_permille
            .fetch_min(margin_permille, Ordering::Relaxed);
    }

    /// Aggregate vote-margin statistics recorded against this store — one
    /// tally covering *every* engine sharing the store, pooled session
    /// backends and learning campaigns alike.
    pub fn vote_stats(&self) -> VoteStats {
        let votes = &self.inner.votes;
        VoteStats {
            voted: votes.voted.load(Ordering::Relaxed),
            executions: votes.executions.load(Ordering::Relaxed),
            escalated: votes.escalated.load(Ordering::Relaxed),
            unsettled: votes.unsettled.load(Ordering::Relaxed),
            min_margin_permille: votes.min_margin_permille.load(Ordering::Relaxed),
        }
    }

    /// Number of distinct backend configurations seen.
    pub fn namespaces(&self) -> usize {
        self.inner
            .spaces
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Every namespace with its entry (trie node) count, sorted by name —
    /// the per-namespace breakdown the `cqd` `stats` command reports.
    pub fn namespace_entries(&self) -> Vec<(String, u64)> {
        self.namespace_usage()
            .into_iter()
            .map(|usage| (usage.name, usage.entries))
            .collect()
    }

    /// Every namespace with its size and lifetime lookup counters, sorted by
    /// name (see [`NamespaceUsage`]) — what `cqd stats` reports so operators
    /// can see which backend configuration is eating the memory and which is
    /// actually being served from it.
    pub fn namespace_usage(&self) -> Vec<NamespaceUsage> {
        let mut usage: Vec<NamespaceUsage> = self
            .inner
            .spaces
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|(name, space)| {
                let (hits, misses) = space.counts();
                NamespaceUsage {
                    name: name.clone(),
                    entries: space.entries(),
                    bytes: space.approx_bytes(),
                    hits,
                    misses,
                }
            })
            .collect();
        usage.sort_by(|a, b| a.name.cmp(&b.name));
        usage
    }

    /// Estimated heap footprint of the whole store, in bytes (sum over
    /// namespaces).
    pub fn approx_bytes(&self) -> u64 {
        self.fold(|s| s.approx_bytes())
    }

    /// Fraction of lookups served from memory, computed from one
    /// [`counts`](Self::counts) snapshot.
    pub fn hit_rate(&self) -> f64 {
        let (hits, misses) = self.counts();
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    }

    /// Serializes the store to a plain-text format: one tab-separated line
    /// per maximal recorded query (`namespace \t pattern \t query`).  Because
    /// the trie is prefix-closed, exporting the maximal paths loses nothing.
    pub fn export(&self) -> String {
        self.inner.export()
    }

    /// Restores entries exported by [`QueryStore::export`] (also the replay
    /// path of [`QueryStore::open`]), reporting what happened to every line.
    ///
    /// Lines are *validated* before they touch the store: a pattern with any
    /// character other than `H`/`M`, or whose length does not match the
    /// query's profiled-access count, is rejected as malformed rather than
    /// silently coerced (a corrupted export must not become plausible-looking
    /// wrong answers).  Well-formed entries contradicting the current
    /// contents are dropped and counted as conflicts.
    pub fn import(&self, text: &str) -> ImportReport {
        let mut report = ImportReport::default();
        // Snapshot lines are sorted, so each namespace's lines are
        // contiguous and one handle serves them all.
        let mut space: Option<StoreSpace> = None;
        for line in text.lines() {
            if line.is_empty() {
                continue;
            }
            let mut parts = line.splitn(3, '\t');
            let (Some(namespace), Some(pattern), Some(rendered)) =
                (parts.next(), parts.next(), parts.next())
            else {
                report.malformed += 1;
                continue;
            };
            let Ok(outcomes) = decode_pattern(pattern) else {
                report.malformed += 1;
                continue;
            };
            // A rendered concrete query contains no macros, so it expands to
            // itself at any associativity.
            let Ok(mut queries) = expand_query(rendered, 1) else {
                report.malformed += 1;
                continue;
            };
            if queries.len() != 1 {
                report.malformed += 1;
                continue;
            }
            let query = queries.pop().expect("length checked");
            let profiled_ops = query
                .iter()
                .filter(|op| op.tag == Some(Tag::Profile))
                .count();
            if profiled_ops != outcomes.len() {
                report.malformed += 1;
                continue;
            }
            let space = match &mut space {
                Some(space) if &*space.name == namespace => space,
                slot => slot.insert(self.space(namespace)),
            };
            if space.record(&query, &outcomes, true) {
                report.imported += 1;
            } else {
                report.conflicted += 1;
            }
        }
        report
    }

    fn fold(&self, per_space: impl Fn(&Space) -> u64) -> u64 {
        self.inner
            .spaces
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
            .map(|s| per_space(s))
            .sum()
    }
}

/// The persistence writer: drains the bounded channel, buffers appends,
/// flushes when idle, fsyncs (or compacts, see [`QueryStore::flush`]) on
/// demand, and compacts the log into an atomic snapshot past
/// [`COMPACT_BYTES`].  Exits when every sender is gone (the store was
/// dropped) after a final flush.
fn writer_loop(
    rx: Receiver<PersistMsg>,
    log: std::fs::File,
    dir: PathBuf,
    store: Weak<StoreInner>,
    mut log_bytes: u64,
) {
    let mut log = io::BufWriter::new(log);
    loop {
        let Ok(first) = rx.recv() else {
            break;
        };
        let mut next = Some(first);
        while let Some(msg) = next.take() {
            match msg {
                PersistMsg::Append(line) => {
                    let frame = persist::encode_record(line.as_bytes());
                    match io::Write::write_all(&mut log, &frame) {
                        Ok(()) => log_bytes += frame.len() as u64,
                        Err(_) => {
                            if let Some(inner) = store.upgrade() {
                                if let Some(p) = inner.persist.get() {
                                    p.drop_append();
                                }
                            }
                        }
                    }
                }
                PersistMsg::Sync(ack) => {
                    let unlogged = store.upgrade().is_some_and(|inner| {
                        inner
                            .persist
                            .get()
                            .is_some_and(|p| p.unlogged.load(Ordering::Acquire) > 0)
                    });
                    if !(unlogged && compact(&mut log, &dir, &store, &mut log_bytes)) {
                        sync(&mut log);
                    }
                    let _ = ack.send(());
                }
                PersistMsg::Snapshot(ack) => {
                    if !compact(&mut log, &dir, &store, &mut log_bytes) {
                        sync(&mut log);
                    }
                    let _ = ack.send(());
                }
            }
            next = rx.try_recv().ok();
        }
        // The channel is idle: make the buffered tail visible on disk.
        let _ = io::Write::flush(&mut log);
        if log_bytes > COMPACT_BYTES {
            compact(&mut log, &dir, &store, &mut log_bytes);
        }
    }
    sync(&mut log);
}

/// Flushes the buffered log tail and fsyncs the log.
fn sync(log: &mut io::BufWriter<std::fs::File>) {
    let _ = io::Write::flush(log);
    let _ = log.get_ref().sync_data();
}

/// Compacts the store into a snapshot and truncates the log; returns
/// whether the snapshot was written.
///
/// Ordering is what makes this safe: buffered appends are flushed *before*
/// the export (every record processed so far was inserted into the trie
/// before it was sent, so the export covers it), the snapshot replaces its
/// predecessor atomically, and only then is the log truncated.  A crash at
/// any point replays either the old snapshot plus the old log, or the new
/// snapshot plus whatever was appended after it — both consistent.  Appends
/// dropped before the export are covered by it too, so their count restarts
/// from zero unless the snapshot fails.
fn compact(
    log: &mut io::BufWriter<std::fs::File>,
    dir: &Path,
    store: &Weak<StoreInner>,
    log_bytes: &mut u64,
) -> bool {
    let Some(inner) = store.upgrade() else {
        return false;
    };
    let Some(persist) = inner.persist.get() else {
        return false;
    };
    let _ = io::Write::flush(log);
    let unlogged = persist.unlogged.swap(0, Ordering::AcqRel);
    let text = inner.export();
    if persist::write_snapshot(dir, &text).is_ok() && log.get_ref().set_len(0).is_ok() {
        *log_bytes = 0;
        persist.snapshots.fetch_add(1, Ordering::Relaxed);
        true
    } else {
        persist.unlogged.fetch_add(unlogged, Ordering::Relaxed);
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn concrete(mbl: &str) -> Query {
        let mut queries = expand_query(mbl, 8).unwrap();
        assert_eq!(queries.len(), 1);
        queries.pop().unwrap()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cq_store_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    const NS: &str = "skylake seed=7 cat=- reset=F+R reps=3 L1 set=0 slice=0";
    const NS2: &str = "skylake seed=7 cat=- reset=F+R reps=3 L1 set=1 slice=0";

    #[test]
    fn lookups_miss_until_recorded_and_namespaces_are_isolated() {
        let store = QueryStore::new();
        let q = concrete("A B A?");
        assert_eq!(store.lookup(NS, &q), None);
        assert!(store.record(NS, &q, &[HitMiss::Hit], true));
        assert_eq!(store.lookup(NS, &q), Some(vec![HitMiss::Hit]));
        // A different target set is a different namespace.
        assert_eq!(store.lookup(NS2, &q), None);
        assert_eq!(store.namespaces(), 2);
        assert_eq!(store.hits(), 1);
        assert_eq!(store.misses(), 2);
        assert_eq!(store.counts(), (1, 2));
        assert!(store.hit_rate() > 0.0);
    }

    #[test]
    fn prefixes_of_recorded_queries_hit() {
        let store = QueryStore::new();
        store.record(NS, &concrete("A? B? C?"), &[HitMiss::Miss; 3], true);
        assert_eq!(
            store.lookup(NS, &concrete("A? B?")),
            Some(vec![HitMiss::Miss, HitMiss::Miss])
        );
        // Same blocks, different tags: a different access sequence.
        assert_eq!(store.lookup(NS, &concrete("A B")), None);
    }

    #[test]
    fn inconsistent_answers_are_not_shared() {
        let store = QueryStore::new();
        let q = concrete("A?");
        assert!(!store.record(NS, &q, &[HitMiss::Hit], false));
        assert_eq!(store.lookup(NS, &q), None);
    }

    #[test]
    fn contradictions_count_as_conflicts() {
        let store = QueryStore::new();
        let q = concrete("A?");
        assert!(store.record(NS, &q, &[HitMiss::Hit], true));
        assert!(!store.record(NS, &q, &[HitMiss::Miss], true));
        assert_eq!(store.conflicts(), 1);
        // The original answer survives.
        assert_eq!(store.lookup(NS, &q), Some(vec![HitMiss::Hit]));
    }

    #[test]
    fn malformed_outcome_vectors_are_rejected() {
        let store = QueryStore::new();
        let q = concrete("A? B?");
        assert!(!store.record(NS, &q, &[HitMiss::Hit], true));
        assert_eq!(store.conflicts(), 1);
    }

    #[test]
    fn namespace_entries_report_per_space_sizes() {
        let store = QueryStore::new();
        store.record(NS, &concrete("A B A?"), &[HitMiss::Hit], true);
        store.record(NS2, &concrete("A?"), &[HitMiss::Miss], true);
        assert_eq!(
            store.namespace_entries(),
            vec![(NS.to_string(), 3), (NS2.to_string(), 1)]
        );
    }

    #[test]
    fn namespace_usage_reports_bytes_and_lookup_counters() {
        let store = QueryStore::new();
        store.record(NS, &concrete("A B A?"), &[HitMiss::Hit], true);
        store.record(NS2, &concrete("A?"), &[HitMiss::Miss], true);
        store.lookup(NS, &concrete("A B A?"));
        let usage = store.namespace_usage();
        assert_eq!(usage.len(), 2);
        for row in &usage {
            assert!(row.entries > 0, "{} has entries", row.name);
            assert!(row.bytes > 0, "{} has a byte estimate", row.name);
        }
        // The bigger namespace costs more bytes, and the total folds exactly.
        assert!(
            usage[0].bytes > usage[1].bytes,
            "3-node trie outweighs 1-node trie"
        );
        assert_eq!(store.approx_bytes(), usage[0].bytes + usage[1].bytes);
        // The lookup above hit NS and is visible in its per-namespace row.
        assert_eq!((usage[0].hits, usage[0].misses), (1, 0));
        assert_eq!((usage[1].hits, usage[1].misses), (0, 0));
    }

    #[test]
    fn export_import_round_trips_across_stores() {
        let store = QueryStore::new();
        store.record(NS, &concrete("A B A?"), &[HitMiss::Hit], true);
        store.record(NS, &concrete("A B C?"), &[HitMiss::Miss], true);
        store.record(NS2, &concrete("X! A?"), &[HitMiss::Miss], true);
        let exported = store.export();

        let fresh = QueryStore::new();
        let report = fresh.import(&exported);
        assert_eq!(report.imported, 3);
        assert_eq!((report.malformed, report.conflicted), (0, 0));
        assert_eq!(
            fresh.lookup(NS, &concrete("A B A?")),
            Some(vec![HitMiss::Hit])
        );
        assert_eq!(
            fresh.lookup(NS, &concrete("A B C?")),
            Some(vec![HitMiss::Miss])
        );
        assert_eq!(
            fresh.lookup(NS2, &concrete("X! A?")),
            Some(vec![HitMiss::Miss])
        );
        assert_eq!(fresh.entries(), store.entries());
        // Garbage lines are rejected and counted, never stored.
        let report = fresh.import("not a store line\nns\tH");
        assert_eq!(report.malformed, 2);
        assert_eq!(fresh.entries(), store.entries());
    }

    #[test]
    fn corrupted_patterns_are_malformed_not_coerced() {
        // Regression test: a corrupted export line whose pattern contains a
        // non-H/M character used to be silently recorded with the garbage
        // coerced to Miss.  It must be rejected and counted instead.
        let store = QueryStore::new();
        let good = QueryStore::new();
        good.record(NS, &concrete("A B A?"), &[HitMiss::Hit], true);
        let exported = good.export();
        let corrupted = exported.replace("\tH\t", "\tX\t");
        assert_ne!(corrupted, exported, "the pattern column was rewritten");

        let report = store.import(&corrupted);
        assert_eq!(report.malformed, 1);
        assert_eq!(report.imported, 0);
        assert_eq!(store.entries(), 0, "nothing was stored from garbage");
        // The same query must still be answerable with the *correct* data.
        assert_eq!(store.lookup(NS, &concrete("A B A?")), None);
    }

    #[test]
    fn patterns_round_trip_and_reject_other_letters() {
        let outcomes = [HitMiss::Hit, HitMiss::Miss, HitMiss::Miss];
        assert_eq!(encode_pattern(&outcomes), "HMM");
        assert_eq!(decode_pattern("HMM"), Ok(outcomes.to_vec()));
        assert_eq!(decode_pattern(""), Ok(Vec::new()));
        assert!(decode_pattern("HX").is_err());
        assert!(decode_pattern("h").is_err());
    }

    #[test]
    fn block_names_past_u32_are_malformed() {
        // `AAAAAAAA` used to wrap onto block `MCNIOCE` and be stored under
        // that query.
        let store = QueryStore::new();
        let report = store.import(&format!("{NS}\tH\tA AAAAAAAA?\n{NS}\tH\tA MWLQKWV?"));
        assert_eq!((report.malformed, report.imported), (1, 1));
        assert_eq!(store.export(), format!("{NS}\tH\tA MWLQKWV?"));
    }

    #[test]
    fn pattern_length_mismatches_are_malformed() {
        let store = QueryStore::new();
        // "A B A?" has exactly one profiled access; two pattern characters
        // cannot line up with it.
        let line = format!("{NS}\tHH\tA B A?");
        let report = store.import(&line);
        assert_eq!(report.malformed, 1);
        assert_eq!(store.entries(), 0);
        assert_eq!(store.conflicts(), 0, "rejected before touching the trie");
    }

    #[test]
    fn import_counts_conflicts_separately() {
        let store = QueryStore::new();
        store.record(NS, &concrete("A?"), &[HitMiss::Hit], true);
        let line = format!("{NS}\tM\tA?");
        let report = store.import(&line);
        assert_eq!(report.conflicted, 1);
        assert_eq!(report.imported, 0);
        assert_eq!(store.lookup(NS, &concrete("A?")), Some(vec![HitMiss::Hit]));
    }

    #[test]
    fn concurrent_consumers_share_one_store() {
        let store = Arc::new(QueryStore::new());
        std::thread::scope(|scope| {
            for t in 0..4 {
                let store = Arc::clone(&store);
                scope.spawn(move || {
                    let q = concrete(&format!("{} A?", mbl::block_name(mbl::BlockId(t + 1))));
                    store.record(NS, &q, &[HitMiss::Miss], true);
                });
            }
        });
        assert_eq!(
            store.entries(),
            8,
            "4 distinct 2-op queries, no sharing of the first op"
        );
    }

    #[test]
    fn bounded_stores_evict_whole_namespaces() {
        let store = QueryStore::with_options(StoreOptions {
            max_entries: Some(4),
            ..StoreOptions::default()
        })
        .unwrap();
        // NS fills 3 entries, NS2 pushes the total to 5 > 4: the least
        // recently touched namespace (NS) is cleared whole.
        store.record(NS, &concrete("A B A?"), &[HitMiss::Hit], true);
        store.record(NS2, &concrete("X Y?"), &[HitMiss::Miss], true);
        assert_eq!(store.evictions(), 1);
        assert_eq!(store.lookup(NS, &concrete("A B A?")), None);
        assert_eq!(
            store.lookup(NS2, &concrete("X Y?")),
            Some(vec![HitMiss::Miss])
        );
        // The evicted namespace's handle is still usable and refills.
        store.record(NS, &concrete("A?"), &[HitMiss::Miss], true);
        assert_eq!(store.lookup(NS, &concrete("A?")), Some(vec![HitMiss::Miss]));
    }

    #[test]
    fn eviction_prefers_other_namespaces_over_the_current_one() {
        let store = QueryStore::with_options(StoreOptions {
            max_entries: Some(6),
            ..StoreOptions::default()
        })
        .unwrap();
        store.record(NS2, &concrete("X?"), &[HitMiss::Miss], true);
        // NS grows past the cap in one namespace; NS2 is sacrificed first,
        // then NS itself is cleared as the last resort.
        store.record(NS, &concrete("A B C D E F A?"), &[HitMiss::Hit], true);
        assert!(store.evictions() >= 1);
        assert_eq!(store.lookup(NS2, &concrete("X?")), None, "NS2 was evicted");
    }

    #[test]
    fn a_cap_wider_than_the_store_never_evicts() {
        let store = QueryStore::with_options(StoreOptions {
            max_entries: Some(1_000),
            ..StoreOptions::default()
        })
        .unwrap();
        store.record(NS, &concrete("A B A?"), &[HitMiss::Hit], true);
        store.record(NS2, &concrete("X Y?"), &[HitMiss::Miss], true);
        assert_eq!(store.evictions(), 0);
        assert_eq!(store.entries(), 5);
    }

    #[test]
    fn durable_stores_replay_their_log_on_open() {
        let dir = temp_dir("replay");
        {
            let store = QueryStore::open(&dir).unwrap();
            store.record(NS, &concrete("A B A?"), &[HitMiss::Hit], true);
            store.record(NS2, &concrete("X! A?"), &[HitMiss::Miss], true);
            store.flush();
            let stats = store.persist_stats();
            assert_eq!(stats.appended, 2);
            assert_eq!(stats.dropped, 0);
        }
        let reopened = QueryStore::open(&dir).unwrap();
        assert_eq!(reopened.persist_stats().replayed, 2);
        assert_eq!(
            reopened.lookup(NS, &concrete("A B A?")),
            Some(vec![HitMiss::Hit])
        );
        assert_eq!(
            reopened.lookup(NS2, &concrete("X! A?")),
            Some(vec![HitMiss::Miss])
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interior_outcomes_survive_a_log_only_replay() {
        let dir = temp_dir("interior");
        {
            let store = QueryStore::open(&dir).unwrap();
            // The long query creates the nodes; the short one adds no fresh
            // nodes but profiles an interior node the first only passed
            // through.  Both must be in the log.
            store.record(NS, &concrete("A B C?"), &[HitMiss::Miss], true);
            store.record(NS, &concrete("A B?"), &[HitMiss::Hit], true);
            store.flush();
            assert_eq!(store.persist_stats().appended, 2);
        }
        let reopened = QueryStore::open(&dir).unwrap();
        assert_eq!(
            reopened.lookup(NS, &concrete("A B?")),
            Some(vec![HitMiss::Hit])
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshots_compact_the_log_and_replay_first() {
        let dir = temp_dir("snapshot");
        {
            let store = QueryStore::open(&dir).unwrap();
            store.record(NS, &concrete("A B A?"), &[HitMiss::Hit], true);
            store.snapshot();
            assert_eq!(store.persist_stats().snapshots, 1);
            // Recorded after the snapshot: lives only in the log.
            store.record(NS, &concrete("A B C?"), &[HitMiss::Miss], true);
            store.flush();
        }
        assert!(persist::snapshot_path(&dir).exists());
        let reopened = QueryStore::open(&dir).unwrap();
        assert_eq!(
            reopened.lookup(NS, &concrete("A B A?")),
            Some(vec![HitMiss::Hit])
        );
        assert_eq!(
            reopened.lookup(NS, &concrete("A B C?")),
            Some(vec![HitMiss::Miss])
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_torn_log_tail_is_truncated_on_open() {
        let dir = temp_dir("torn");
        {
            let store = QueryStore::open(&dir).unwrap();
            store.record(NS, &concrete("A B A?"), &[HitMiss::Hit], true);
            store.flush();
        }
        // Simulate a kill -9 mid-append: chop bytes off the log's tail.
        let log_path = persist::log_path(&dir);
        let bytes = std::fs::read(&log_path).unwrap();
        std::fs::write(&log_path, &bytes[..bytes.len() - 3]).unwrap();

        let reopened = QueryStore::open(&dir).unwrap();
        assert_eq!(reopened.persist_stats().replayed, 0, "the record was torn");
        assert_eq!(reopened.lookup(NS, &concrete("A B A?")), None);
        // The log was truncated back to a record boundary: new appends work.
        reopened.record(NS, &concrete("A?"), &[HitMiss::Miss], true);
        reopened.flush();
        drop(reopened);
        let third = QueryStore::open(&dir).unwrap();
        assert_eq!(third.lookup(NS, &concrete("A?")), Some(vec![HitMiss::Miss]));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn evictor_specs_parse_policies_and_ways() {
        assert_eq!(PolicyEvictor::from_spec("lru").unwrap().name(), "LRU");
        assert_eq!(
            PolicyEvictor::from_spec("srrip-fp@8").unwrap().name(),
            "SRRIP-FP"
        );
        assert!(PolicyEvictor::from_spec("clairvoyant").is_err());
        assert!(PolicyEvictor::from_spec("lru@zero").is_err());
        assert!(
            PolicyEvictor::from_spec("plru@3").is_err(),
            "non-power-of-two"
        );
    }

    #[derive(Debug, Default)]
    struct CountingTap {
        lookups: AtomicU64,
        hits: AtomicU64,
        records: AtomicU64,
    }

    impl StoreTap for CountingTap {
        fn on_lookup(&self, _namespace: &str, _query: &Query, hit: bool) {
            self.lookups.fetch_add(1, Ordering::Relaxed);
            if hit {
                self.hits.fetch_add(1, Ordering::Relaxed);
            }
        }

        fn on_record(&self, _namespace: &str, _query: &Query, _outcomes: &[HitMiss]) {
            self.records.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn taps_see_every_lookup_and_record() {
        let tap = Arc::new(CountingTap::default());
        let store = QueryStore::with_options(StoreOptions {
            tap: Some(Arc::<CountingTap>::clone(&tap) as Arc<dyn StoreTap>),
            ..StoreOptions::default()
        })
        .unwrap();
        let q = concrete("A B A?");
        store.lookup(NS, &q);
        store.record(NS, &q, &[HitMiss::Hit], true);
        store.lookup(NS, &q);
        assert_eq!(tap.lookups.load(Ordering::Relaxed), 2);
        assert_eq!(tap.hits.load(Ordering::Relaxed), 1);
        assert_eq!(tap.records.load(Ordering::Relaxed), 1);
    }
}
