//! A thread-safe prefix-trie memoization layer for membership queries.
//!
//! Active learning is query-bound (§3.1): the dominant cost of a run is the
//! number of words the teacher has to execute, and both the observation table
//! and the conformance test suites of the Wp-method re-ask heavily
//! overlapping words.  Because the systems under learning are deterministic,
//! output words are *prefix-consistent*: the answer to `w` determines the
//! answer to every prefix of `w`.  A prefix trie therefore memoizes an entire
//! query family in space proportional to the number of distinct symbols seen,
//! where a per-word map would store every prefix as a separate key.
//!
//! [`QueryCache`] is the trie: nodes live in one contiguous arena (an
//! index-linked `Vec`, which keeps lookups cache-friendly), lookups take a
//! read lock, insertions a write lock, and the hit/miss counters are atomics,
//! so one instance can be shared across threads (the query engine's store
//! shares one across `cqd` sessions).  Behind a
//! [`QueryPool`](crate::QueryPool) it is also the *central* query counter of
//! a learning run — membership statistics are derived from the cache layer
//! instead of trusting every oracle implementation to count for itself.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{PoisonError, RwLock};

use crate::oracle::OracleError;

/// One arena slot: the output of the symbol labelling the edge that leads
/// here, plus the children as `(symbol, arena index)` pairs.
///
/// Children are kept in a plain vector with linear scanning: learning
/// alphabets are tiny (`associativity + 1` symbols for replacement policies),
/// so a vector beats a hash map on both memory and lookup time.
#[derive(Debug)]
struct Node<I, O> {
    output: O,
    children: Vec<(I, u32)>,
}

/// The arena: all nodes plus the root's child list.
#[derive(Debug, Default)]
struct Trie<I, O> {
    nodes: Vec<Node<I, O>>,
    roots: Vec<(I, u32)>,
    /// Bumped by every [`QueryCache::clear`]: a [`TrieCursor`] taken in an
    /// older generation holds indices into an arena that no longer exists.
    generation: u64,
}

impl<I: Eq, O> Trie<I, O> {
    fn child(&self, children: &[(I, u32)], symbol: &I) -> Option<u32> {
        children
            .iter()
            .find(|(i, _)| i == symbol)
            .map(|&(_, index)| index)
    }

    /// The child list below `parent` (the root's when `None`).
    fn children(&self, parent: Option<u32>) -> &[(I, u32)] {
        match parent {
            None => &self.roots,
            Some(index) => &self.nodes[index as usize].children,
        }
    }

    /// Revalidates `cursor` for a word sharing its first `lcp` symbols with
    /// the cursor's last word: a cursor from an older generation is emptied
    /// (it re-finds its prefix from the root), then cut to `lcp`.
    fn resume(&self, cursor: &mut TrieCursor, lcp: usize) {
        if cursor.generation != self.generation {
            cursor.path.clear();
            cursor.generation = self.generation;
        }
        cursor.path.truncate(lcp);
    }
}

impl<I: Clone + Eq, O: Clone + PartialEq> Trie<I, O> {
    /// Inserts `word[from..]` below `parent` (the node matching
    /// `word[from - 1]`, or the root), checking already-recorded nodes
    /// against `outputs`, and passes every node of the walk to `visit`.
    /// Returns the number of fresh nodes.
    ///
    /// A contradiction is only detectable on the already-recorded part of
    /// the walk, which precedes the first fresh insertion — so an `Err`
    /// leaves the trie untouched.
    fn insert(
        &mut self,
        word: &[I],
        outputs: &[O],
        from: usize,
        parent: Option<u32>,
        mut visit: impl FnMut(u32),
    ) -> Result<usize, OracleError> {
        // Walk with explicit "root or node index" positions: arena nodes are
        // appended while walking, so child lists are re-borrowed per step.
        let mut position = parent;
        let mut inserted = 0usize;
        for (offset, (symbol, output)) in word.iter().zip(outputs).enumerate().skip(from) {
            if let Some(existing) = self.child(self.children(position), symbol) {
                if self.nodes[existing as usize].output != *output {
                    return Err(inconsistent_answer(offset));
                }
                position = Some(existing);
                visit(existing);
                continue;
            }
            let fresh = self.nodes.len() as u32;
            self.nodes.push(Node {
                output: output.clone(),
                children: Vec::new(),
            });
            match position {
                None => self.roots.push((symbol.clone(), fresh)),
                Some(index) => self.nodes[index as usize]
                    .children
                    .push((symbol.clone(), fresh)),
            }
            position = Some(fresh);
            visit(fresh);
            inserted += 1;
        }
        Ok(inserted)
    }
}

/// The error for an answer whose output at `position` differs from the one
/// already recorded for the same prefix.
pub(crate) fn inconsistent_answer(position: usize) -> OracleError {
    OracleError::new(format!(
        "inconsistent oracle answers: position {position} of a repeated prefix \
         produced a different output (the system under learning is behaving \
         non-deterministically)"
    ))
}

/// Resumable trie position for runs of operations over prefix-sharing words.
///
/// Conformance suites enumerate `prefix · middle · suffix` products, and a
/// probe session asks `prefix · b?` for a growing prefix, so consecutive
/// words share long prefixes; a cursor lets
/// [`QueryCache::check_against_resumed`], [`QueryCache::lookup_resumed`]
/// and [`QueryCache::record_resumed`] skip re-walking the shared part.  The
/// cursor stores the arena path of the last word's walked prefix — valid
/// across calls because the arena is append-only (nodes are never moved or
/// mutated once recorded) until [`QueryCache::clear`] drops it.  The cursor
/// therefore also carries the trie generation it was taken in: a stale
/// cursor (see [`QueryCache::is_stale`]) is never dereferenced, the next
/// resumed call re-finds its prefix from the root.
#[derive(Debug, Default, Clone)]
pub struct TrieCursor {
    /// `path[d]` is the arena index of the node matching symbol `d` of the
    /// last word, for every position that was walked (and, for checks,
    /// agreed with the prediction).
    path: Vec<u32>,
    /// The trie generation `path` indexes into.
    generation: u64,
}

impl TrieCursor {
    /// Creates an empty cursor (next call walks from the root).
    pub fn new() -> Self {
        TrieCursor::default()
    }

    /// Number of symbols of the last word the cursor holds a node for.
    pub(crate) fn depth(&self) -> usize {
        self.path.len()
    }

    /// Arena index of the deepest node the cursor holds (`None` at the
    /// root).
    pub(crate) fn node(&self) -> Option<u32> {
        self.path.last().copied()
    }
}

/// Verdict of [`QueryCache::check_against_resumed`]: what the cache knows
/// about a word compared to a predicted output word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheVerdict {
    /// Every cached position agrees with the prediction, and the whole word
    /// is cached: the prediction is correct.
    Match,
    /// The cached outputs contradict the prediction first at this position
    /// (a conformance-test failure, answered without touching the oracle).
    Mismatch(usize),
    /// The word is not fully cached and the cached part agrees with the
    /// prediction: the oracle must be consulted.
    Unknown,
}

/// A concurrent prefix-trie cache for membership-query outputs.
///
/// The cache exploits prefix-closedness: recording the answer to a word also
/// records the answer to every prefix of that word, and a lookup succeeds for
/// any word that is a prefix of (or equal to) a previously recorded word.
///
/// Recording an output that contradicts an already-stored one fails with an
/// [`OracleError`] — for deterministic systems this can only happen when the
/// system under learning misbehaves (the nondeterminism signal of §7.1), and
/// silently keeping either answer would corrupt the observation table.
///
/// # Example
///
/// ```
/// use learning::QueryCache;
///
/// let cache: QueryCache<char, bool> = QueryCache::new();
/// assert_eq!(cache.lookup(&['a', 'b']), None);
/// // `record` returns how many fresh trie nodes the word contributed.
/// assert_eq!(cache.record(&['a', 'b'], &[true, false]).unwrap(), 2);
/// // The word itself and all its prefixes are now cached.
/// assert_eq!(cache.lookup(&['a', 'b']), Some(vec![true, false]));
/// assert_eq!(cache.lookup(&['a']), Some(vec![true]));
/// assert_eq!((cache.hits(), cache.misses()), (2, 1));
/// ```
#[derive(Debug, Default)]
pub struct QueryCache<I, O> {
    trie: RwLock<Trie<I, O>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<I, O> QueryCache<I, O>
where
    I: Clone + Eq,
    O: Clone + PartialEq,
{
    /// Creates an empty cache.
    pub fn new() -> Self {
        QueryCache {
            trie: RwLock::new(Trie {
                nodes: Vec::new(),
                roots: Vec::new(),
                generation: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Returns the memoized output word for `word` if every symbol of it is
    /// cached, updating the hit/miss counters.
    ///
    /// The empty word always hits (its output word is empty).
    pub fn lookup(&self, word: &[I]) -> Option<Vec<O>> {
        let trie = self.trie.read().unwrap_or_else(PoisonError::into_inner);
        let mut children = &trie.roots;
        let mut outputs = Vec::with_capacity(word.len());
        for symbol in word {
            let Some(index) = trie.child(children, symbol) else {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            };
            let node = &trie.nodes[index as usize];
            outputs.push(node.output.clone());
            children = &node.children;
        }
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(outputs)
    }

    /// Compares `word` against a `predicted` output word without cloning any
    /// outputs — the allocation-free fast path of conformance testing —
    /// resuming from a cursor, and without counting.
    ///
    /// A [`CacheVerdict::Mismatch`] can be produced from a cached *prefix*
    /// alone (the first divergence already proves the test fails), so this
    /// can refute a hypothesis even for words the oracle never ran.
    ///
    /// The first `lcp` entries of `cursor` must come from a previous call
    /// whose word shared `lcp` symbols with `word` *and* whose predicted
    /// outputs agreed on that prefix (true for conformance testing, where a
    /// disagreeing prefix ends the suite run).  The walk then starts at
    /// position `min(lcp, cursor depth)` instead of the root — or at the
    /// root when the cursor is [stale](Self::is_stale) — and leaves the
    /// cursor on the agreeing part of `word`, so after a `Match` it ends on
    /// the node of `word` itself.
    ///
    /// The caller decides whether the walk was a lookup and counts it (the
    /// query pool skips repeats of earlier conformance tests uncounted).
    pub fn check_against_resumed(
        &self,
        word: &[I],
        predicted: &[O],
        lcp: usize,
        cursor: &mut TrieCursor,
    ) -> CacheVerdict {
        debug_assert_eq!(word.len(), predicted.len());
        debug_assert!(lcp <= word.len());
        let trie = self.trie.read().unwrap_or_else(PoisonError::into_inner);
        trie.resume(cursor, lcp);
        let mut children = trie.children(cursor.path.last().copied());
        for position in cursor.path.len()..word.len() {
            let Some(index) = trie.child(children, &word[position]) else {
                return CacheVerdict::Unknown;
            };
            let node = &trie.nodes[index as usize];
            if node.output != predicted[position] {
                return CacheVerdict::Mismatch(position);
            }
            cursor.path.push(index);
            children = &node.children;
        }
        CacheVerdict::Match
    }

    /// Counts one lookup the caller answered by an uncounted walk (see
    /// [`check_against_resumed`](Self::check_against_resumed)).
    pub(crate) fn count(&self, hit: bool) {
        let counter = if hit { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// [`lookup`](Self::lookup) resuming from a cursor whose last word shared
    /// its first `lcp` symbols with `word`; the walk starts at position
    /// `min(lcp, cursor depth)` (the root when the cursor is
    /// [stale](Self::is_stale)) and leaves the cursor on the walked prefix of
    /// `word`.
    ///
    /// Returns the outputs of `word[lcp..]` only: the caller already holds
    /// those of the shared prefix.  Counting is identical to `lookup` —
    /// exactly one hit or miss per call.
    pub fn lookup_resumed(
        &self,
        word: &[I],
        lcp: usize,
        cursor: &mut TrieCursor,
    ) -> Option<Vec<O>> {
        debug_assert!(lcp <= word.len());
        let trie = self.trie.read().unwrap_or_else(PoisonError::into_inner);
        trie.resume(cursor, lcp);
        let mut children = trie.children(cursor.path.last().copied());
        let mut outputs = Vec::with_capacity(word.len() - lcp);
        for (position, symbol) in word.iter().enumerate().skip(cursor.path.len()) {
            let Some(index) = trie.child(children, symbol) else {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            };
            let node = &trie.nodes[index as usize];
            if position >= lcp {
                outputs.push(node.output.clone());
            }
            cursor.path.push(index);
            children = &node.children;
        }
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(outputs)
    }

    /// Records the output word of `word` (and, implicitly, of all its
    /// prefixes), returning how many *fresh* trie nodes the word contributed
    /// (zero when the whole word was already cached).
    ///
    /// The count is exact even on failure: a contradiction is only detectable
    /// on the already-recorded part of the walk, which precedes the first
    /// fresh insertion — so an `Err` means the trie was left untouched.
    ///
    /// # Errors
    ///
    /// Fails if `outputs` has the wrong length or contradicts a previously
    /// recorded answer — the deterministic-system invariant every learner in
    /// this crate relies on.
    pub fn record(&self, word: &[I], outputs: &[O]) -> Result<usize, OracleError> {
        if word.len() != outputs.len() {
            return Err(OracleError::new(format!(
                "cannot cache {} outputs for a word of length {}",
                outputs.len(),
                word.len()
            )));
        }
        let mut trie = self.trie.write().unwrap_or_else(PoisonError::into_inner);
        trie.insert(word, outputs, 0, None, |_| {})
    }

    /// [`record`](Self::record) resuming from a cursor whose last word shared
    /// its first `lcp` symbols with `word` (pass `word.len()` right after a
    /// [`lookup_resumed`](Self::lookup_resumed) of the same word): only the
    /// part of `word` below the cursor's position is walked and inserted, and
    /// the cursor ends on the whole of `word`.
    ///
    /// The nodes the cursor already holds are not re-checked against
    /// `outputs` — they were matched symbol by symbol, and the caller vouches
    /// for their outputs (in a probe session they are unprofiled accesses,
    /// whose output is always `None`).  The returned count and the
    /// all-or-nothing failure are exactly `record`'s.
    ///
    /// # Errors
    ///
    /// As [`record`](Self::record), on the walked part of `word`.
    pub fn record_resumed(
        &self,
        word: &[I],
        outputs: &[O],
        lcp: usize,
        cursor: &mut TrieCursor,
    ) -> Result<usize, OracleError> {
        if word.len() != outputs.len() {
            return Err(OracleError::new(format!(
                "cannot cache {} outputs for a word of length {}",
                outputs.len(),
                word.len()
            )));
        }
        debug_assert!(lcp <= word.len());
        let mut trie = self.trie.write().unwrap_or_else(PoisonError::into_inner);
        trie.resume(cursor, lcp);
        let (from, parent) = (cursor.path.len(), cursor.path.last().copied());
        trie.insert(word, outputs, from, parent, |index| cursor.path.push(index))
    }

    /// Whether `cursor` holds a position taken before the last
    /// [`clear`](Self::clear).  Resumed calls never dereference such a
    /// position: they re-find the cursor's prefix from the root.
    pub fn is_stale(&self, cursor: &TrieCursor) -> bool {
        let trie = self.trie.read().unwrap_or_else(PoisonError::into_inner);
        !cursor.path.is_empty() && cursor.generation != trie.generation
    }

    /// Drops every recorded word, returning how many trie nodes were
    /// discarded.  The hit/miss counters are deliberately *not* reset: they
    /// are lifetime lookup statistics, and eviction must not erase the
    /// history a hit-rate dashboard is built on.
    ///
    /// Existing handles to this cache stay valid — subsequent lookups simply
    /// miss, exactly as if the entries had never been recorded — and every
    /// [`TrieCursor`] taken so far becomes [stale](Self::is_stale).
    pub fn clear(&self) -> u64 {
        let mut trie = self.trie.write().unwrap_or_else(PoisonError::into_inner);
        let dropped = trie.nodes.len() as u64;
        trie.nodes = Vec::new();
        trie.roots = Vec::new();
        trie.generation += 1;
        dropped
    }

    /// Number of lookups answered from the trie.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of lookups that could not be answered.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// One *consistent* `(hits, misses)` snapshot.
    ///
    /// Every lookup path bumps its counter while still holding the trie's
    /// read lock, so taking the write lock here excludes in-flight lookups:
    /// the two loads can never straddle another thread's increment the way
    /// two separate [`hits`](Self::hits)/[`misses`](Self::misses) calls can.
    /// Use this wherever both numbers are rendered together (hit rates,
    /// stats responses); use the individual getters for single counters.
    pub fn counts(&self) -> (u64, u64) {
        let _guard = self.trie.write().unwrap_or_else(PoisonError::into_inner);
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Total number of lookups (hits + misses): the central membership-query
    /// count of everything routed through this cache.
    pub fn total_lookups(&self) -> u64 {
        self.hits() + self.misses()
    }

    /// Calls `visit` with every *maximal* recorded word (root-to-leaf path
    /// of the trie) and its output word, in trie order, without copying
    /// either; the trie stays read-locked during the walk.  Because the trie
    /// is prefix-closed, re-recording the maximal words reconstructs the
    /// whole cache — which is exactly what a plain-text export/import needs.
    ///
    /// The walk keeps its path on the heap, so a word of any length (a
    /// store query may have millions of operations) walks in constant stack.
    pub fn for_each_maximal(&self, mut visit: impl FnMut(&[I], &[O])) {
        let trie = self.trie.read().unwrap_or_else(PoisonError::into_inner);
        let mut word = Vec::new();
        let mut outputs = Vec::new();
        // The unvisited children of every node on the current path.
        let mut levels = vec![trie.roots.iter()];
        while let Some(level) = levels.last_mut() {
            let Some((symbol, index)) = level.next() else {
                levels.pop();
                word.pop();
                outputs.pop();
                continue;
            };
            let node = &trie.nodes[*index as usize];
            word.push(symbol.clone());
            outputs.push(node.output.clone());
            if node.children.is_empty() {
                visit(&word, &outputs);
                word.pop();
                outputs.pop();
            } else {
                levels.push(node.children.iter());
            }
        }
    }

    /// Estimated heap footprint of the trie, in bytes: the node arena plus
    /// the capacity of every child edge list.  An estimate — allocator
    /// headers and the fixed cost of the lock and counters are not included
    /// — but it tracks growth faithfully, which is what capacity planning
    /// (the `cqd` per-namespace store report) needs.
    pub fn approx_bytes(&self) -> u64 {
        use std::mem::size_of;
        let trie = self.trie.read().unwrap_or_else(PoisonError::into_inner);
        let edge = size_of::<(I, u32)>();
        let mut bytes = trie.nodes.capacity() * size_of::<Node<I, O>>();
        bytes += trie.roots.capacity() * edge;
        for node in &trie.nodes {
            bytes += node.children.capacity() * edge;
        }
        bytes as u64
    }

    /// Number of trie nodes, i.e. distinct cached prefixes.
    pub fn entries(&self) -> u64 {
        self.trie
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .nodes
            .len() as u64
    }

    /// Fraction of lookups served from the trie (`0.0` when nothing was
    /// looked up yet), computed from one consistent [`counts`](Self::counts)
    /// snapshot.
    pub fn hit_rate(&self) -> f64 {
        let (hits, misses) = self.counts();
        let total = hits + misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_misses_until_recorded() {
        let cache: QueryCache<u8, u8> = QueryCache::new();
        assert_eq!(cache.lookup(&[1, 2]), None);
        cache.record(&[1, 2, 3], &[10, 20, 30]).unwrap();
        assert_eq!(cache.lookup(&[1, 2]), Some(vec![10, 20]));
        assert_eq!(cache.lookup(&[1, 2, 3]), Some(vec![10, 20, 30]));
        assert_eq!(cache.lookup(&[1, 3]), None);
        assert_eq!(cache.entries(), 3);
    }

    #[test]
    fn empty_word_always_hits() {
        let cache: QueryCache<u8, u8> = QueryCache::new();
        assert_eq!(cache.lookup(&[]), Some(vec![]));
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn overlapping_words_share_nodes() {
        let cache: QueryCache<u8, u8> = QueryCache::new();
        assert_eq!(cache.record(&[1, 2], &[10, 20]).unwrap(), 2);
        // The shared prefix `1` is stored once, so only `3` is fresh here.
        assert_eq!(cache.record(&[1, 3], &[10, 30]).unwrap(), 1);
        assert_eq!(cache.entries(), 3);
        // Re-recording a fully cached word contributes nothing.
        assert_eq!(cache.record(&[1, 2], &[10, 20]).unwrap(), 0);
    }

    #[test]
    fn contradictions_leave_the_trie_untouched() {
        let cache: QueryCache<u8, u8> = QueryCache::new();
        cache.record(&[1, 2], &[10, 20]).unwrap();
        let before = cache.entries();
        // The contradiction is on the recorded part of the walk, so no fresh
        // node can have been inserted — the exactness `record`'s return value
        // (and the store's entry accounting) relies on.
        assert!(cache.record(&[1, 2, 3], &[10, 99, 30]).is_err());
        assert_eq!(cache.entries(), before);
    }

    #[test]
    fn clear_drops_entries_but_keeps_lookup_history() {
        let cache: QueryCache<u8, u8> = QueryCache::new();
        cache.record(&[1, 2, 3], &[10, 20, 30]).unwrap();
        cache.lookup(&[1, 2]);
        assert_eq!(cache.clear(), 3);
        assert_eq!(cache.entries(), 0);
        assert_eq!(cache.lookup(&[1, 2]), None);
        // Lifetime lookup statistics survive the eviction.
        assert_eq!(cache.counts(), (1, 1));
        // The cache is reusable after a clear.
        assert_eq!(cache.record(&[4], &[40]).unwrap(), 1);
        assert_eq!(cache.entries(), 1);
    }

    #[test]
    fn counts_matches_the_individual_getters_when_quiescent() {
        let cache: QueryCache<u8, u8> = QueryCache::new();
        cache.lookup(&[9]);
        cache.record(&[9], &[90]).unwrap();
        cache.lookup(&[9]);
        assert_eq!(cache.counts(), (cache.hits(), cache.misses()));
    }

    #[test]
    fn contradictory_answers_are_rejected() {
        let cache: QueryCache<u8, u8> = QueryCache::new();
        cache.record(&[1, 2], &[10, 20]).unwrap();
        assert!(cache.record(&[1, 2], &[10, 99]).is_err());
        assert!(cache.record(&[1], &[11]).is_err());
        // Consistent re-recording is fine.
        cache.record(&[1, 2], &[10, 20]).unwrap();
    }

    #[test]
    fn length_mismatches_are_rejected() {
        let cache: QueryCache<u8, u8> = QueryCache::new();
        assert!(cache.record(&[1, 2], &[10]).is_err());
    }

    #[test]
    fn counters_track_hits_and_misses() {
        let cache: QueryCache<u8, u8> = QueryCache::new();
        cache.lookup(&[5]);
        cache.record(&[5], &[50]).unwrap();
        cache.lookup(&[5]);
        cache.lookup(&[5]);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.total_lookups(), 3);
        assert!((cache.hit_rate() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn check_against_classifies_predictions() {
        let cache: QueryCache<u8, u8> = QueryCache::new();
        cache.record(&[1, 2, 3], &[10, 20, 30]).unwrap();
        let check = |word: &[u8], predicted: &[u8]| {
            cache.check_against_resumed(word, predicted, 0, &mut TrieCursor::new())
        };
        // Fully cached, agreeing prediction.
        assert_eq!(check(&[1, 2, 3], &[10, 20, 30]), CacheVerdict::Match);
        // Cached prefix already contradicts the prediction — even though the
        // tail [9] was never cached.
        assert_eq!(check(&[1, 2, 9], &[10, 99, 0]), CacheVerdict::Mismatch(1));
        // Agreeing prefix, uncached tail: undecidable from the cache.
        assert_eq!(check(&[1, 2, 9], &[10, 20, 0]), CacheVerdict::Unknown);
        // The caller counts: a check is no lookup.
        assert_eq!(cache.total_lookups(), 0);
    }

    #[test]
    fn resumed_lookups_and_records_match_the_root_walks() {
        // A probe-session shape: `prefix · x` for a growing prefix, each word
        // looked up and, on a miss, recorded — once from the root, once
        // resumed from a cursor.  Counters, contents and answers agree.
        let plain: QueryCache<u8, u8> = QueryCache::new();
        let resumed: QueryCache<u8, u8> = QueryCache::new();
        let mut cursor = TrieCursor::new();
        let mut positioned = 0;
        let mut prefix: Vec<u8> = Vec::new();
        for (step, symbol) in [1u8, 2, 1, 3, 2, 2, 1].into_iter().enumerate() {
            for probe in [100 + symbol, 100 + (step as u8 % 3)] {
                let mut word = prefix.clone();
                word.push(probe);
                let outputs: Vec<u8> = word.iter().map(|s| s.wrapping_mul(3)).collect();
                let expected = plain.lookup(&word);
                let lcp = positioned;
                positioned = prefix.len();
                let got = resumed.lookup_resumed(&word, lcp, &mut cursor);
                assert_eq!(got, expected.as_ref().map(|o| o[lcp..].to_vec()));
                if expected.is_none() {
                    let fresh = plain.record(&word, &outputs).unwrap();
                    let len = word.len();
                    assert_eq!(
                        resumed
                            .record_resumed(&word, &outputs, len, &mut cursor)
                            .unwrap(),
                        fresh
                    );
                }
            }
            prefix.push(symbol);
        }
        assert_eq!(resumed.counts(), plain.counts());
        assert_eq!(resumed.entries(), plain.entries());
        assert_eq!(maximal_entries(&resumed), maximal_entries(&plain));
    }

    #[test]
    fn positions_taken_before_a_clear_are_stale_and_never_dereferenced() {
        let cache: QueryCache<u8, u8> = QueryCache::new();
        let mut cursor = TrieCursor::new();
        cache.record(&[1, 2, 3, 4], &[10, 20, 30, 40]).unwrap();
        assert!(cache
            .lookup_resumed(&[1, 2, 3, 4], 0, &mut cursor)
            .is_some());
        assert!(!cache.is_stale(&cursor));
        cache.clear();
        assert!(cache.is_stale(&cursor), "the arena it indexes is gone");
        // A smaller arena afterwards: the old indices (up to 3) would be out
        // of bounds or point at unrelated nodes.
        cache.record(&[7], &[70]).unwrap();
        assert_eq!(cache.lookup_resumed(&[1, 2, 3, 9], 3, &mut cursor), None);
        assert!(!cache.is_stale(&cursor), "re-found from the root");
        assert_eq!(cache.lookup_resumed(&[7], 0, &mut cursor), Some(vec![70]));
        // Records resume the same way: a stale cursor rebuilds from the root.
        cache.record(&[1, 2], &[10, 20]).unwrap();
        let mut stale = cursor.clone();
        assert!(cache.lookup_resumed(&[1, 2], 0, &mut stale).is_some());
        cache.clear();
        assert_eq!(
            cache
                .record_resumed(&[1, 2, 5], &[10, 20, 50], 2, &mut stale)
                .unwrap(),
            3,
            "nothing of the cleared path is reused"
        );
        assert_eq!(cache.lookup(&[1, 2, 5]), Some(vec![10, 20, 50]));
        // Conformance checks share the cursor machinery.
        let mut check = TrieCursor::new();
        assert_eq!(
            cache.check_against_resumed(&[1, 2, 5], &[10, 20, 50], 0, &mut check),
            CacheVerdict::Match
        );
        assert_eq!(
            cache.check_against_resumed(&[1, 2, 5], &[10, 20, 99], 2, &mut check),
            CacheVerdict::Mismatch(2),
            "resumed at depth 2, the walk still sees the contradicting output"
        );
        cache.clear();
        assert!(cache.is_stale(&check));
        assert_eq!(
            cache.check_against_resumed(&[1, 2, 5], &[10, 20, 50], 3, &mut check),
            CacheVerdict::Unknown
        );
    }

    fn maximal_entries(cache: &QueryCache<u8, u8>) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut entries = Vec::new();
        cache.for_each_maximal(|word, outputs| entries.push((word.to_vec(), outputs.to_vec())));
        entries
    }

    #[test]
    fn maximal_entries_cover_the_whole_trie() {
        let cache: QueryCache<u8, u8> = QueryCache::new();
        cache.record(&[1, 2, 3], &[10, 20, 30]).unwrap();
        cache.record(&[1, 4], &[10, 40]).unwrap();
        let mut entries = maximal_entries(&cache);
        entries.sort();
        assert_eq!(
            entries,
            vec![
                (vec![1, 2, 3], vec![10, 20, 30]),
                (vec![1, 4], vec![10, 40]),
            ]
        );
        // Re-recording the maximal words reconstructs an identical trie.
        let copy: QueryCache<u8, u8> = QueryCache::new();
        for (word, outputs) in maximal_entries(&cache) {
            copy.record(&word, &outputs).unwrap();
        }
        assert_eq!(copy.entries(), cache.entries());
    }

    #[test]
    fn maximal_entries_of_a_deep_word_walk_in_constant_stack() {
        // As deep as a 600,001-operation store query, which a `cqd` query
        // can expand to: a walk with one call frame per symbol overflows a
        // thread's stack long before.
        let cache: QueryCache<u8, u8> = QueryCache::new();
        let word = vec![7u8; 600_001];
        cache.record(&word, &word).unwrap();
        cache.record(&[8], &[8]).unwrap();
        let mut lengths = Vec::new();
        cache.for_each_maximal(|word, outputs| lengths.push((word.len(), outputs.len())));
        assert_eq!(lengths, vec![(600_001, 600_001), (1, 1)]);
    }

    #[test]
    fn approx_bytes_grows_with_the_trie() {
        let cache: QueryCache<u8, u8> = QueryCache::new();
        assert_eq!(cache.approx_bytes(), 0);
        cache.record(&[1, 2, 3], &[10, 20, 30]).unwrap();
        let small = cache.approx_bytes();
        assert!(small > 0);
        for i in 100..132u8 {
            cache.record(&[1, 2, i], &[10, 20, i]).unwrap();
        }
        assert!(cache.approx_bytes() > small);
    }

    #[test]
    fn cache_is_shareable_across_threads() {
        use std::sync::Arc;
        let cache: Arc<QueryCache<u8, u8>> = Arc::new(QueryCache::new());
        let writers: Vec<_> = (0..4u8)
            .map(|t| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..16u8 {
                        cache.record(&[t, i], &[t, i.wrapping_mul(2)]).unwrap();
                    }
                })
            })
            .collect();
        for writer in writers {
            writer.join().unwrap();
        }
        for t in 0..4u8 {
            for i in 0..16u8 {
                assert_eq!(cache.lookup(&[t, i]), Some(vec![t, i.wrapping_mul(2)]));
            }
        }
    }
}
