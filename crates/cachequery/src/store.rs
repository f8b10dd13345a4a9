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
//! [`persist`](crate::persist).  Every fresh recording is rendered as one
//! store line (`namespace \t pattern \t query`, the format of
//! [`QueryStore::export`] too) straight into a shared pending batch.  A
//! dedicated writer thread commits the batch as a group: it swaps the batch
//! out, frames and checksums its records off the query path, and writes
//! them with one `write`.  The writer is woken once per batch, never once
//! per record.  The batch is bounded in bytes, and a recording thread that
//! finds it full waits for the writer, so no append is dropped.  The writer
//! compacts the log into an atomic snapshot once the log outgrows both a
//! size threshold and the last snapshot, and startup replays
//! snapshot-then-log so a restarted `cqd` serves yesterday's campaign from
//! memory.  [`QueryStore::flush`] — and dropping the store — is the
//! durability barrier: it writes what is pending and fsyncs the log once.
//! A `kill -9` loses at most the records the writer had not written yet:
//! what survives is always a prefix of the recordings, in order.
//!
//! # Bounded memory
//!
//! A store configured with [`StoreOptions::max_entries`] evicts at
//! *namespace granularity*: every lookup or recording touches its namespace,
//! and while the global entry count exceeds the cap, the store clears the
//! least recently touched namespace that holds entries, other than the one
//! being touched — that one only when no other namespace holds any.  A
//! cleared trie is cleared in place: existing [`StoreSpace`] handles stay
//! valid and simply miss afterwards, and the namespace refills on use.
//! Whole namespaces go because a trie is prefix-closed: dropping single
//! nodes would leave it claiming prefixes it no longer backs.
//!
//! One [`QueryStore`] instance sits behind every [`QueryEngine`]
//! (crate::QueryEngine); engines that should share answers (the `cqd`
//! daemon's sessions and learn jobs; the clones of a `CacheQueryOracle`)
//! share one store through an [`Arc`].

use std::collections::HashMap;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, RwLock, Weak};
use std::time::{Duration, Instant};

use cache::HitMiss;
use learning::{QueryCache, TrieCursor};
use mbl::{parse_rendered, render_query_into, MemOp, Query, Tag};

use crate::persist;

/// One namespace's trie: symbols are whole memory operations (block + tag),
/// outputs are the classification of the access (`None` for unprofiled and
/// invalidating operations).
type Trie = QueryCache<MemOp, Option<HitMiss>>;

/// One namespace of the store: its trie, and when it was last touched.
#[derive(Debug)]
struct Space {
    trie: Trie,
    /// The [`Bound::clock`] tick of the last lookup or recording; written
    /// only by a capped store.
    touched: AtomicU64,
}

/// Observer of a store's traffic, attached at construction via
/// [`StoreOptions::tap`].
///
/// The tap sees every lookup (with its hit/miss fate) and every successful
/// recording — the event stream `storebench` captures from a live campaign
/// and replays against capped stores to measure how the hit rate degrades.
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
    /// Global entry (trie node) cap; `None` leaves the store unbounded.  A
    /// capped store keeps under it by clearing whole namespaces, the least
    /// recently touched first (see the module docs).
    pub max_entries: Option<u64>,
    /// Traffic observer (see [`StoreTap`]).
    pub tap: Option<Arc<dyn StoreTap>>,
}

/// Log size past which the writer compacts the store into a snapshot, once
/// the log has also outgrown the last snapshot: each export then costs at
/// most the log bytes written since the previous one, so a campaign's total
/// export work is linear in its size.
const COMPACT_BYTES: u64 = 4 << 20;

/// Rendered bytes the pending batch may hold: a producer that finds it
/// fuller waits for the writer to take it.
const PENDING_BYTES: usize = 16 << 20;

/// Pending bytes at which a producer wakes the writer before
/// [`BATCH_WAIT`] is over.
const BATCH_BYTES: usize = 256 << 10;

/// How long the writer lets a batch fill after its first record.
const BATCH_WAIT: Duration = Duration::from_millis(2);

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
    let mut outcomes = Vec::with_capacity(pattern.len());
    decode_pattern_into(pattern, &mut outcomes)?;
    Ok(outcomes)
}

/// [`decode_pattern`] into `outcomes`, replacing its contents.
fn decode_pattern_into(pattern: &str, outcomes: &mut Vec<HitMiss>) -> Result<(), String> {
    outcomes.clear();
    for letter in pattern.chars() {
        outcomes.push(match letter {
            'H' => HitMiss::Hit,
            'M' => HitMiss::Miss,
            other => return Err(format!("pattern letter '{other}' is neither H nor M")),
        });
    }
    Ok(())
}

/// Spreads the profiled `outcomes` of `query` over its operations into
/// `outputs`, replacing its contents (`None` for unprofiled and
/// invalidating operations); `false` when the outcomes do not line up with
/// the query's profiled accesses.
fn spread_outcomes(
    query: &[MemOp],
    outcomes: &[HitMiss],
    outputs: &mut Vec<Option<HitMiss>>,
) -> bool {
    outputs.clear();
    let mut profiled = outcomes.iter();
    for op in query {
        outputs.push(if op.tag == Some(Tag::Profile) {
            let Some(&outcome) = profiled.next() else {
                return false;
            };
            Some(outcome)
        } else {
            None
        });
    }
    profiled.next().is_none()
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
    /// Records that will not reach the log: a write failed, or the record
    /// is longer than [`persist::MAX_RECORD_LEN`].  A full writer makes
    /// producers wait, never drop.  A dropped record lives in memory, and
    /// the next snapshot ([`QueryStore::flush`] takes one) covers it.
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
    /// characters other than `H`/`M`, a query not in the rendered form of
    /// [`mbl::parse_rendered`] (other MBL, even a single-query expression,
    /// included), or a pattern whose length mismatches the query's
    /// profiled-access count.
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
    space: Arc<Space>,
    inner: Arc<StoreInner>,
}

impl StoreSpace {
    /// Returns the memoized profiled outcomes of `query` if the whole access
    /// sequence is cached.
    ///
    /// Served answers are always consistent (inconsistent runs are never
    /// recorded).
    pub fn lookup(&self, query: &Query) -> Option<Vec<HitMiss>> {
        self.served(query, self.space.trie.lookup(query))
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
        self.served(query, self.space.trie.lookup_resumed(query, lcp, cursor))
    }

    /// Reports one lookup's fate to the tap, touches the namespace, and
    /// flattens the trie outputs of a hit into profiled outcomes.
    fn served(&self, query: &Query, outputs: Option<Vec<Option<HitMiss>>>) -> Option<Vec<HitMiss>> {
        if let Some(tap) = &self.inner.tap {
            tap.on_lookup(&self.name, query, outputs.is_some());
        }
        self.inner.note_touch(&self.space);
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
        insert: impl FnOnce(&Trie, &[Option<HitMiss>]) -> Result<usize, learning::OracleError>,
    ) -> bool {
        if !consistent {
            return false;
        }
        let mut outputs = Vec::with_capacity(query.len());
        if !spread_outcomes(query, outcomes, &mut outputs) {
            // The outcome vector does not line up with the query's profiled
            // accesses; refusing to store is safer than storing garbage.
            self.inner.conflicts.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        self.settle(query, outcomes, insert(&self.space.trie, &outputs))
    }

    /// [`record_resumed`](Self::record_resumed) of a consistent answer whose
    /// `outcomes` the caller has already checked against `query` and spread
    /// over its operations as `outputs` (the importer's buffers).
    fn record_outputs_resumed(
        &self,
        query: &Query,
        outcomes: &[HitMiss],
        outputs: &[Option<HitMiss>],
        lcp: usize,
        cursor: &mut TrieCursor,
    ) -> bool {
        let inserted = self.space.trie.record_resumed(query, outputs, lcp, cursor);
        self.settle(query, outcomes, inserted)
    }

    /// Counts, logs, taps and touches one trie insert's result; returns
    /// whether the answer was stored.
    fn settle(
        &self,
        query: &Query,
        outcomes: &[HitMiss],
        inserted: Result<usize, learning::OracleError>,
    ) -> bool {
        match inserted {
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
                self.inner.note_touch(&self.space);
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
        self.space.trie.hits()
    }

    /// Lookups that missed in this namespace.
    pub fn misses(&self) -> u64 {
        self.space.trie.misses()
    }

    /// One consistent `(hits, misses)` snapshot of this namespace (see
    /// [`learning::QueryCache::counts`]).
    pub fn counts(&self) -> (u64, u64) {
        self.space.trie.counts()
    }

    /// Distinct cached access prefixes (trie nodes) in this namespace.
    pub fn entries(&self) -> u64 {
        self.space.trie.entries()
    }

    /// Estimated heap footprint of this namespace's trie, in bytes (see
    /// [`learning::QueryCache::approx_bytes`]).
    pub fn approx_bytes(&self) -> u64 {
        self.space.trie.approx_bytes()
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

/// Store lines waiting for the writer: rendered back to back, framed by
/// the writer.
#[derive(Debug)]
struct Batch {
    text: String,
    /// End offset in `text` of each line.
    ends: Vec<usize>,
}

impl Default for Batch {
    /// A batch with room for a full one: [`BATCH_BYTES`] plus the line
    /// that crosses it.
    fn default() -> Self {
        Batch {
            text: String::with_capacity(2 * BATCH_BYTES),
            ends: Vec::with_capacity(BATCH_BYTES / 32),
        }
    }
}

impl Batch {
    /// Empties the batch for reuse, releasing what a burst (records that
    /// piled up during a compaction) grew it past its default size.
    fn recycle(&mut self) {
        self.text.clear();
        self.text.shrink_to(2 * BATCH_BYTES);
        self.ends.clear();
        self.ends.shrink_to(BATCH_BYTES / 32);
    }
}

/// What producers hand the writer, under [`LogQueue::pending`].
#[derive(Debug, Default)]
struct Pending {
    batch: Batch,
    /// Barriers waiting for everything before them to be durable.
    acks: Vec<SyncSender<()>>,
    /// A barrier asked for a snapshot rather than an fsync.
    snapshot: bool,
    /// Producers waiting for room.
    waiting: usize,
    /// The store is gone: write what is pending and exit.
    closed: bool,
    /// The writer has exited: producers drop instead of waiting.
    detached: bool,
}

/// The group-commit queue between a durable store's producers and its
/// writer thread.
#[derive(Debug, Default)]
struct LogQueue {
    pending: Mutex<Pending>,
    /// Wakes the writer: a batch's first record, a full batch, a barrier,
    /// the store closing.
    work: Condvar,
    /// Wakes producers waiting for room.
    room: Condvar,
}

impl LogQueue {
    fn lock(&self) -> MutexGuard<'_, Pending> {
        self.pending.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The live persistence attachment of a durable store.
#[derive(Debug)]
struct Persist {
    dir: PathBuf,
    queue: Arc<LogQueue>,
    appended: AtomicU64,
    dropped: AtomicU64,
    /// Records dropped since the last snapshot: the gap only the next
    /// snapshot closes.
    unlogged: AtomicU64,
    snapshots: AtomicU64,
    replayed: u64,
}

impl Persist {
    /// Counts `records` that will not reach the log.
    fn drop_appends(&self, records: u64) {
        self.dropped.fetch_add(records, Ordering::Relaxed);
        // Release: a compaction that sees this count also sees the
        // recordings it stands for (inserted into the trie before the
        // append).
        self.unlogged.fetch_add(records, Ordering::Release);
    }

    /// Queues a durability barrier behind every record appended so far and
    /// blocks until the writer has served it.
    fn barrier(&self, snapshot: bool) {
        let (ack_tx, ack_rx) = mpsc::sync_channel(1);
        {
            let mut pending = self.queue.lock();
            if pending.detached {
                return;
            }
            pending.acks.push(ack_tx);
            pending.snapshot |= snapshot;
        }
        self.queue.work.notify_one();
        let _ = ack_rx.recv();
    }
}

impl Drop for Persist {
    /// The store is gone: the writer writes what is pending and exits.
    fn drop(&mut self) {
        self.queue.lock().closed = true;
        self.queue.work.notify_one();
    }
}

/// The entry cap, and the clock that orders namespace touches.
#[derive(Debug)]
struct Bound {
    max_entries: u64,
    /// Ticks once per touch.
    clock: AtomicU64,
    /// Held while clearing namespaces: touches that find the store over the
    /// cap at once clear victims one at a time, each after re-checking it.
    evicting: Mutex<()>,
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
                space.trie.for_each_maximal(|query, outputs| {
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

    /// Renders one store line into the pending batch for the writer thread
    /// to frame and write.  Waits while the batch holds [`PENDING_BYTES`];
    /// wakes the writer only for a batch's first record and when the batch
    /// fills.  A line `decode_log` would refuse, or a detached writer,
    /// drops the record and counts it.
    fn append_to_log(&self, namespace: &str, query: &Query, outcomes: &[HitMiss]) {
        let Some(persist) = self.persist.get() else {
            return;
        };
        let queue = &persist.queue;
        let mut pending = queue.lock();
        while pending.batch.text.len() >= PENDING_BYTES && !pending.detached {
            pending.waiting += 1;
            pending = queue
                .room
                .wait(pending)
                .unwrap_or_else(PoisonError::into_inner);
            pending.waiting -= 1;
        }
        if pending.detached {
            drop(pending);
            persist.drop_appends(1);
            return;
        }
        let batch = &mut pending.batch;
        let start = batch.text.len();
        push_line(&mut batch.text, namespace, outcomes, query);
        let end = batch.text.len();
        if end - start > persist::MAX_RECORD_LEN as usize {
            // Replay would take this frame for corruption and cut the log
            // there: the record is left to the next snapshot.
            batch.text.truncate(start);
            drop(pending);
            persist.drop_appends(1);
            return;
        }
        let wake = batch.ends.is_empty() || (start < BATCH_BYTES && end >= BATCH_BYTES);
        batch.ends.push(end);
        drop(pending);
        persist.appended.fetch_add(1, Ordering::Relaxed);
        if wake {
            queue.work.notify_one();
        }
    }

    /// In a capped store, stamps `current` with the next clock tick and,
    /// while the store is over its cap, clears namespaces: the least
    /// recently touched one that holds entries, other than `current`;
    /// `current` itself when no other holds any (the cap is smaller than
    /// its working set).  No-op for an unbounded store.
    fn note_touch(&self, current: &Space) {
        let Some(bound) = &self.bound else {
            return;
        };
        let tick = bound.clock.fetch_add(1, Ordering::Relaxed) + 1;
        current.touched.store(tick, Ordering::Relaxed);
        if self.total_entries.load(Ordering::Relaxed) <= bound.max_entries {
            return;
        }
        let _evicting = bound
            .evicting
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        while self.total_entries.load(Ordering::Relaxed) > bound.max_entries {
            let victim = self
                .spaces
                .read()
                .unwrap_or_else(PoisonError::into_inner)
                .values()
                .filter(|space| !std::ptr::eq(&***space, current) && space.trie.entries() > 0)
                .min_by_key(|space| space.touched.load(Ordering::Relaxed))
                .cloned();
            if !self.clear(victim.as_deref().unwrap_or(current)) {
                break;
            }
        }
    }

    /// Clears `space`'s trie in place (handles stay valid; subsequent
    /// lookups miss).  Returns whether anything was dropped.
    fn clear(&self, space: &Space) -> bool {
        let dropped = space.trie.clear();
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
/// [`QueryStore::with_options`] can also cap its entries.
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
    /// memory, and a writer thread that commits records in batches and
    /// compacts once the log outgrows both 4 MiB and the last snapshot.
    /// Recording never drops an append: when 16 MiB of records wait for the
    /// writer, the recording thread waits too.  Replay is one pass over the
    /// snapshot's lines and then the log's records: each line's query is
    /// read back with [`mbl::parse_rendered`], and its trie insert resumes
    /// where the previous line's left off (see [`QueryStore::import`]).
    /// Call [`flush`](Self::flush), or drop the store, to make everything
    /// recorded so far durable.
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
            tap,
        } = options;
        let bound = max_entries.map(|max_entries| Bound {
            max_entries,
            clock: AtomicU64::new(0),
            evicting: Mutex::new(()),
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
        let mut importer = Importer::new(&store);
        let mut snapshot_bytes = 0u64;
        if let Some(snapshot) = persist::read_snapshot(&dir)? {
            importer.text(&snapshot);
            snapshot_bytes = snapshot.len() as u64;
        }
        let mut log_bytes = Vec::new();
        let (records, valid_len) = persist::read_log(&dir, &mut log_bytes)?;
        for record in records {
            importer.text(record);
        }
        let replayed = importer.report.imported;
        persist::truncate_log(&dir, valid_len)?;

        // Open the log eagerly so open-time I/O errors surface here, and so
        // the writer thread never races directory removal with file creation.
        let log = Log {
            file: persist::open_log_for_append(&dir)?,
            dir: dir.clone(),
            frames: Vec::with_capacity(2 * BATCH_BYTES),
            bytes: valid_len,
            snapshot_bytes,
        };
        let queue = Arc::new(LogQueue::default());
        let weak = Arc::downgrade(&store.inner);
        let writer_queue = Arc::clone(&queue);
        std::thread::Builder::new()
            .name("cq-store-writer".to_string())
            .spawn(move || writer_loop(&writer_queue, log, &weak))?;
        let _ = store.inner.persist.set(Persist {
            dir,
            queue,
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
    /// disk and survives a reopen.  The writer writes every pending record
    /// and fsyncs the log once.  When records were dropped since the last
    /// snapshot (a failed write, or a record too long for a log frame), it
    /// compacts the store into a fresh snapshot instead, which covers them.
    /// Dropping a durable store does the same.  No-op for a memory-only
    /// store.
    pub fn flush(&self) {
        if let Some(persist) = self.inner.persist.get() {
            persist.barrier(false);
        }
    }

    /// Blocks until the store is compacted into a fresh snapshot (and the
    /// log truncated).  No-op for a memory-only store.
    pub fn snapshot(&self) {
        if let Some(persist) = self.inner.persist.get() {
            persist.barrier(true);
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
                space: Arc::clone(space),
                inner: Arc::clone(&self.inner),
            };
        }
        let mut spaces = self
            .inner
            .spaces
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        let space = Arc::clone(spaces.entry(namespace.to_string()).or_insert_with(|| {
            Arc::new(Space {
                trie: QueryCache::new(),
                touched: AtomicU64::new(0),
            })
        }));
        drop(spaces);
        StoreSpace {
            name: Arc::from(namespace),
            space,
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
        self.fold(Trie::hits)
    }

    /// Lookups that missed, across all namespaces.
    pub fn misses(&self) -> u64 {
        self.fold(Trie::misses)
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
            let (h, m) = space.trie.counts();
            (hits + h, misses + m)
        })
    }

    /// Distinct cached access prefixes (trie nodes), across all namespaces.
    pub fn entries(&self) -> u64 {
        self.fold(Trie::entries)
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
                let (hits, misses) = space.trie.counts();
                NamespaceUsage {
                    name: name.clone(),
                    entries: space.trie.entries(),
                    bytes: space.trie.approx_bytes(),
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
        self.fold(Trie::approx_bytes)
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
    /// Lines are *validated* before they touch the store: the query must be
    /// in the rendered form [`mbl::parse_rendered`] reads (any other MBL,
    /// even one that expands to a single query, is malformed), and a pattern
    /// with any character other than `H`/`M`, or whose length does not match
    /// the query's profiled-access count, is rejected as malformed rather
    /// than silently coerced (a corrupted export must not become
    /// plausible-looking wrong answers).  Well-formed entries contradicting
    /// the current contents are dropped and counted as conflicts.
    ///
    /// Each line is recorded from where the line before it left the trie:
    /// the operations and outputs the two lines share are not walked again.
    pub fn import(&self, text: &str) -> ImportReport {
        let mut importer = Importer::new(self);
        importer.text(text);
        importer.report
    }

    fn fold(&self, per_trie: impl Fn(&Trie) -> u64) -> u64 {
        self.inner
            .spaces
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
            .map(|space| per_trie(&space.trie))
            .sum()
    }
}

/// The one loop that restores store lines, behind both
/// [`QueryStore::import`] and the replay of a durable store's snapshot and
/// log.
///
/// Snapshot lines are sorted and log records follow a campaign's probe
/// sessions, so consecutive lines share most of their operations.  Each line
/// is therefore recorded as by [`StoreSpace::record_resumed`] at its longest
/// common prefix with the line before, compared as (operation, output)
/// pairs: a line that contradicts the one before it still walks the part
/// where they differ against the trie, and is counted as a conflict.  A
/// cursor left stale by an eviction walks from the root.
struct Importer<'a> {
    store: &'a QueryStore,
    report: ImportReport,
    /// The namespace of the last line, and the cursor on its trie.
    space: Option<StoreSpace>,
    cursor: TrieCursor,
    /// The operations and per-operation outputs of the last imported line,
    /// where the cursor stands.  A conflict or a namespace change empties
    /// them: the next line then shares no prefix, and its insert starts at
    /// the root.
    previous: Query,
    previous_outputs: Vec<Option<HitMiss>>,
    /// The line being imported.
    query: Query,
    outputs: Vec<Option<HitMiss>>,
    outcomes: Vec<HitMiss>,
}

impl<'a> Importer<'a> {
    fn new(store: &'a QueryStore) -> Self {
        Importer {
            store,
            report: ImportReport::default(),
            space: None,
            cursor: TrieCursor::new(),
            previous: Vec::new(),
            previous_outputs: Vec::new(),
            query: Vec::new(),
            outputs: Vec::new(),
            outcomes: Vec::new(),
        }
    }

    /// Imports every line of `text`.
    fn text(&mut self, text: &str) {
        for line in text.lines() {
            if !line.is_empty() {
                self.line(line);
            }
        }
    }

    /// Imports one store line, counting it in the report.
    fn line(&mut self, line: &str) {
        let mut parts = line.splitn(3, '\t');
        let (Some(namespace), Some(pattern), Some(rendered)) =
            (parts.next(), parts.next(), parts.next())
        else {
            self.report.malformed += 1;
            return;
        };
        if !self.parse(pattern, rendered) {
            self.report.malformed += 1;
            return;
        }
        let space = match &mut self.space {
            Some(space) if &*space.name == namespace => space,
            slot => {
                self.previous.clear();
                slot.insert(self.store.space(namespace))
            }
        };
        let lcp = self
            .previous
            .iter()
            .zip(&self.previous_outputs)
            .zip(self.query.iter().zip(&self.outputs))
            .take_while(|(previous, current)| previous == current)
            .count();
        if space.record_outputs_resumed(
            &self.query,
            &self.outcomes,
            &self.outputs,
            lcp,
            &mut self.cursor,
        ) {
            self.report.imported += 1;
            std::mem::swap(&mut self.previous, &mut self.query);
            std::mem::swap(&mut self.previous_outputs, &mut self.outputs);
        } else {
            self.report.conflicted += 1;
            self.previous.clear();
        }
    }

    /// Reads a line's pattern and query into the line buffers; `false` when
    /// either is malformed or the pattern does not cover exactly the
    /// query's profiled accesses.
    fn parse(&mut self, pattern: &str, rendered: &str) -> bool {
        decode_pattern_into(pattern, &mut self.outcomes).is_ok()
            && parse_rendered(rendered, &mut self.query).is_ok()
            && spread_outcomes(&self.query, &self.outcomes, &mut self.outputs)
    }
}

/// The writer's side of the store directory.
#[derive(Debug)]
struct Log {
    file: std::fs::File,
    dir: PathBuf,
    /// The framed records of the write in progress.
    frames: Vec<u8>,
    /// Bytes in the record log.
    bytes: u64,
    /// Bytes of the last snapshot, which the log must outgrow (as well as
    /// [`COMPACT_BYTES`]) before it is compacted.
    snapshot_bytes: u64,
}

impl Log {
    /// Frames and checksums the records of `batch` and appends them with
    /// one `write` — one per `2 * BATCH_BYTES` of frames for a batch that
    /// piled up during a compaction, so the frame buffer stays the size of
    /// a batch.  A failed write cuts the log back to its last record
    /// boundary (a torn frame would hide every later record from replay)
    /// and counts the records not written as dropped.
    fn write(&mut self, batch: &Batch, store: &Weak<StoreInner>) {
        let mut start = 0;
        let mut written = 0;
        for (index, &end) in batch.ends.iter().enumerate() {
            persist::encode_record_into(&mut self.frames, &batch.text.as_bytes()[start..end]);
            start = end;
            if self.frames.len() < 2 * BATCH_BYTES && index + 1 < batch.ends.len() {
                continue;
            }
            if self.file.write_all(&self.frames).is_err() {
                self.frames.clear();
                let _ = self.file.set_len(self.bytes);
                if let Some(inner) = store.upgrade() {
                    if let Some(persist) = inner.persist.get() {
                        persist.drop_appends((batch.ends.len() - written) as u64);
                    }
                }
                return;
            }
            self.bytes += self.frames.len() as u64;
            self.frames.clear();
            written = index + 1;
        }
    }

    /// Fsyncs the log.
    fn sync(&self) {
        let _ = self.file.sync_data();
    }

    /// Compacts the store into a snapshot and truncates the log; returns
    /// whether the snapshot was written.
    ///
    /// Ordering is what makes this safe: every record the writer has not
    /// written yet was inserted into the trie before it was appended, so
    /// the export covers it; the snapshot replaces its predecessor
    /// atomically, and only then is the log truncated.  A crash at any point
    /// replays either the old snapshot plus the old log, or the new snapshot
    /// plus whatever was appended after it — both consistent.  Records
    /// dropped before the export are covered by it too, so their count
    /// restarts from zero unless the snapshot fails.
    fn compact(&mut self, store: &Weak<StoreInner>) -> bool {
        let Some(inner) = store.upgrade() else {
            return false;
        };
        let Some(persist) = inner.persist.get() else {
            return false;
        };
        let unlogged = persist.unlogged.swap(0, Ordering::AcqRel);
        let text = inner.export();
        if persist::write_snapshot(&self.dir, &text).is_ok() && self.file.set_len(0).is_ok() {
            self.bytes = 0;
            self.snapshot_bytes = text.len() as u64;
            persist.snapshots.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            persist.unlogged.fetch_add(unlogged, Ordering::Relaxed);
            false
        }
    }
}

/// Whether records were dropped since the last snapshot.
fn unlogged(store: &Weak<StoreInner>) -> bool {
    store.upgrade().is_some_and(|inner| {
        inner
            .persist
            .get()
            .is_some_and(|p| p.unlogged.load(Ordering::Acquire) > 0)
    })
}

/// Marks the queue detached when the writer exits, by a panic too: waiting
/// producers then drop their records instead of waiting forever, and
/// barriers return.
struct Detach<'a>(&'a LogQueue);

impl Drop for Detach<'_> {
    fn drop(&mut self) {
        let mut pending = self.0.lock();
        pending.detached = true;
        pending.acks.clear();
        drop(pending);
        self.0.room.notify_all();
    }
}

/// The persistence writer (group commit): sleeps until a batch has its
/// first record, lets it fill for [`BATCH_WAIT`] (less when it is full or
/// a barrier waits), swaps it for an empty one, frames and writes it with
/// one `write`, then serves the barriers queued with it — an fsync, or a
/// snapshot when one was asked for or records were dropped since the last
/// (see [`QueryStore::flush`]).  Compacts the log into an atomic snapshot
/// once it outgrows both [`COMPACT_BYTES`] and the last snapshot.  Exits
/// after a final fsync when the store is gone.
fn writer_loop(queue: &LogQueue, mut log: Log, store: &Weak<StoreInner>) {
    let _detach = Detach(queue);
    let mut batch = Batch::default();
    loop {
        let (acks, snapshot, closed) = {
            let mut pending = queue.lock();
            while pending.batch.ends.is_empty() && pending.acks.is_empty() && !pending.closed {
                pending = queue
                    .work
                    .wait(pending)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            let deadline = Instant::now() + BATCH_WAIT;
            while pending.batch.text.len() < BATCH_BYTES
                && pending.acks.is_empty()
                && !pending.closed
            {
                let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                    break;
                };
                pending = queue
                    .work
                    .wait_timeout(pending, left)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
            std::mem::swap(&mut pending.batch, &mut batch);
            if pending.waiting > 0 {
                queue.room.notify_all();
            }
            (
                std::mem::take(&mut pending.acks),
                std::mem::take(&mut pending.snapshot),
                pending.closed,
            )
        };
        log.write(&batch, store);
        batch.recycle();
        if !acks.is_empty() {
            if !((snapshot || unlogged(store)) && log.compact(store)) {
                log.sync();
            }
            for ack in acks {
                let _ = ack.send(());
            }
        }
        if log.bytes > COMPACT_BYTES.max(log.snapshot_bytes) {
            log.compact(store);
        }
        if closed {
            break;
        }
    }
    log.sync();
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbl::expand_query;

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
        let entries: Vec<(String, u64)> = store
            .namespace_usage()
            .into_iter()
            .map(|usage| (usage.name, usage.entries))
            .collect();
        assert_eq!(entries, vec![(NS.to_string(), 3), (NS2.to_string(), 1)]);
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
    fn only_the_rendered_form_imports() {
        // Each of these expands to one query under the general MBL parser,
        // but none is how a store line renders it.
        let store = QueryStore::new();
        let lines = [
            "(A B) C?", "A  B?", "A B? ", " A B?", "A\tB?", "(A)2 B?", "a B?", "",
        ];
        let text: Vec<String> = lines
            .iter()
            .map(|query| format!("{NS}\tH\t{query}"))
            .collect();
        let report = store.import(&text.join("\n"));
        assert_eq!(report.malformed, lines.len() as u64);
        assert_eq!((report.imported, store.entries()), (0, 0));
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

    /// Records each line of `text` on its own, from the trie root: the
    /// reference the resumed importer must match.
    fn record_line_by_line(store: &QueryStore, text: &str) {
        for line in text.lines() {
            let mut parts = line.splitn(3, '\t');
            let (Some(namespace), Some(pattern), Some(rendered)) =
                (parts.next(), parts.next(), parts.next())
            else {
                panic!("not a store line: {line}");
            };
            let outcomes = decode_pattern(pattern).unwrap();
            store.record(namespace, &concrete(rendered), &outcomes, true);
        }
    }

    #[test]
    fn a_line_contradicting_the_previous_one_on_their_shared_prefix_conflicts() {
        // The two lines share `A B?`, but not its outcome: resuming at the
        // shared operations alone would skip the contradiction.
        let store = QueryStore::new();
        let report = store.import(&format!(
            "{NS}\tHM\tA B? C?\n{NS}\tMH\tA B? D?\n{NS}\tHH\tA B? D?"
        ));
        assert_eq!(report.conflicted, 1);
        assert_eq!(store.conflicts(), 1);
        assert_eq!(
            store.lookup(NS, &concrete("A B? C?")),
            Some(vec![HitMiss::Hit, HitMiss::Miss]),
            "the first answer stays"
        );
        // The good line after the conflict imports.
        assert_eq!((report.imported, report.malformed), (2, 0));
        assert_eq!(
            store.lookup(NS, &concrete("A B? D?")),
            Some(vec![HitMiss::Hit, HitMiss::Hit])
        );
    }

    #[test]
    fn a_line_after_a_conflict_resumes_on_its_own_prefix() {
        // The conflicting third line walks `A D?` before it fails at `E?`.
        // The fourth shares `A B?` with the last imported line, and must
        // not resume below the `D?` the conflict walked.
        let text =
            format!("{NS}\tHH\tA D? E?\n{NS}\tH\tA B?\n{NS}\tHM\tA D? E?\n{NS}\tHM\tA B? C?");
        let store = QueryStore::new();
        let report = store.import(&text);
        assert_eq!((report.imported, report.conflicted), (3, 1));
        let reference = QueryStore::new();
        record_line_by_line(&reference, &text);
        assert_eq!(store.export(), reference.export());
        assert_eq!(
            store.lookup(NS, &concrete("A B? C?")),
            Some(vec![HitMiss::Hit, HitMiss::Miss])
        );
    }

    #[test]
    fn interleaved_namespaces_import_as_recorded_line_by_line() {
        // Each namespace change restarts the cursor: an arena position of
        // one namespace's trie means nothing in another's.
        let text = format!(
            "{NS}\tM\tX Y Z?\n{NS}\tH\tA B?\n{NS2}\tM\tA C?\n{NS}\tH\tA C?\n\
             {NS2}\tMH\tA C? D?\n{NS}\tHM\tA C? D?"
        );
        let store = QueryStore::new();
        let report = store.import(&text);
        assert_eq!(
            (report.imported, report.conflicted, report.malformed),
            (6, 0, 0)
        );
        let reference = QueryStore::new();
        record_line_by_line(&reference, &text);
        assert_eq!(store.export(), reference.export());
        assert_eq!(store.entries(), reference.entries());
        assert_eq!(
            store.lookup(NS2, &concrete("A C? D?")),
            Some(vec![HitMiss::Miss, HitMiss::Hit])
        );
    }

    #[test]
    fn a_namespace_evicted_mid_import_matches_line_by_line_recording() {
        // The cap is below one namespace's lines: the store clears the
        // namespace it is importing into, and the next line's cursor is
        // stale and walks from the root.
        let bounded = || {
            QueryStore::with_options(StoreOptions {
                max_entries: Some(5),
                ..StoreOptions::default()
            })
            .unwrap()
        };
        let text = format!(
            "{NS2}\tM\tX?\n{NS}\tM\tA B C D?\n{NS}\tH\tA B C E?\n{NS}\tM\tA B F?\n\
             {NS}\tH\tA B G?\n{NS}\tHM\tA B G? H?\n{NS2}\tH\tX? Y\n{NS}\tH\tA B G?"
        );
        let store = bounded();
        let report = store.import(&text);
        let reference = bounded();
        record_line_by_line(&reference, &text);
        assert!(store.evictions() >= 2, "{} evictions", store.evictions());
        assert_eq!(report.imported, 8);
        assert_eq!(store.evictions(), reference.evictions());
        assert_eq!(store.entries(), reference.entries());
        assert_eq!(store.export(), reference.export());
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
    fn the_first_touched_of_seventeen_namespaces_is_the_one_cleared() {
        let store = QueryStore::with_options(StoreOptions {
            max_entries: Some(16),
            ..StoreOptions::default()
        })
        .unwrap();
        let namespaces: Vec<String> = (0..17).map(|set| format!("L1 set={set}")).collect();
        for namespace in &namespaces {
            store.record(namespace, &concrete("A?"), &[HitMiss::Miss], true);
        }
        assert_eq!((store.evictions(), store.entries()), (1, 16));
        let cleared: Vec<&String> = namespaces
            .iter()
            .filter(|namespace| store.lookup(namespace, &concrete("A?")).is_none())
            .collect();
        assert_eq!(cleared, [&namespaces[0]]);
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
    fn records_too_long_for_a_log_frame_survive_a_reopen() {
        // Regression test: a 600,001-operation query renders to a 1.2 MB
        // line, over `persist::MAX_RECORD_LEN`.  It used to be framed
        // anyway; replay took the frame for corruption and truncated it and
        // every later record away, so the store reopened empty.
        let dir = temp_dir("oversized");
        let long = concrete("(A B C D)150000 A?");
        let short = concrete("B C?");
        let (entries, stats) = {
            let store = QueryStore::open(&dir).unwrap();
            assert!(store.record(NS, &long, &[HitMiss::Hit], true));
            assert!(store.record(NS, &short, &[HitMiss::Miss], true));
            store.flush();
            (store.entries(), store.persist_stats())
        };
        let reopened = QueryStore::open(&dir).unwrap();
        assert_eq!(reopened.entries(), entries);
        assert_eq!(reopened.lookup(NS, &long), Some(vec![HitMiss::Hit]));
        assert_eq!(reopened.lookup(NS, &short), Some(vec![HitMiss::Miss]));
        drop(reopened);
        // The long record was left to the snapshot `flush` took.
        assert_eq!((stats.appended, stats.dropped, stats.snapshots), (1, 1, 1));
        std::fs::remove_dir_all(&dir).unwrap();
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
