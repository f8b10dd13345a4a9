//! The learner's query pool: one membership oracle behind one prefix-trie
//! cache.
//!
//! The paper's learning runs are query-bound (§3.1, §6): every improvement to
//! how membership queries are answered translates directly into wall-clock
//! time.  Every query of a run — observation-table filling, Rivest–Schapire
//! analysis, conformance testing — goes through one [`QueryCache`], so
//! repeated words (and prefixes of longer words) never reach the system under
//! learning again.  Queries run one at a time, as on real silicon, where there
//! is only one cache set to probe; a run's membership-query count therefore
//! depends on nothing but the system and the learner.

use std::fmt;
use std::hash::Hash;

use automata::Mealy;

use crate::cache::{CacheVerdict, QueryCache, TrieCursor};
use crate::oracle::{MembershipOracle, OracleError};

/// A factory of membership oracles over the system under learning.
///
/// [`learn_mealy`](crate::learn_mealy) takes a factory rather than an oracle
/// and makes the one oracle its [`QueryPool`] drives.  Every closure
/// `Fn() -> M` producing an oracle is a factory, which keeps call sites
/// short.
///
/// For replacement-policy learning the factory contract is exactly the
/// `probeCache` contract of Algorithm 1: every instance must answer from the
/// same fixed initial cache state, so instances are interchangeable.
///
/// # Example
///
/// ```
/// use automata::MealyBuilder;
/// use learning::{MembershipOracle, MealyOracle, OracleFactory};
///
/// let mut b = MealyBuilder::new(vec!['t']);
/// let s = b.add_state();
/// b.add_transition(s, 't', s, 7u8);
/// let machine = b.build(s).unwrap();
///
/// // A closure cloning the target is already an `OracleFactory`.
/// let factory = move || MealyOracle::new(machine.clone());
/// let mut first = factory.make_oracle();
/// let mut second = factory.make_oracle();
/// assert_eq!(
///     first.query(&['t']).unwrap(),
///     second.query(&['t']).unwrap(),
/// );
/// ```
pub trait OracleFactory<I, O> {
    /// Creates a fresh, independent oracle for the system under learning.
    fn make_oracle(&self) -> Box<dyn MembershipOracle<I, O>>;
}

impl<I, O, M, F> OracleFactory<I, O> for F
where
    F: Fn() -> M,
    M: MembershipOracle<I, O> + 'static,
{
    fn make_oracle(&self) -> Box<dyn MembershipOracle<I, O>> {
        Box::new(self())
    }
}

/// Result of running one conformance test suite through
/// [`QueryPool::run_tests`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuiteOutcome<I> {
    /// The first failing test of the suite, truncated to its shortest failing
    /// prefix — or `None` if the whole suite passed.
    pub counterexample: Option<Vec<I>>,
    /// Number of test words executed, which is also the number pulled from
    /// the suite: a failing test ends the run.
    pub tests_executed: u64,
}

/// The query engine of a learning run: one oracle, made once by the
/// factory, in front of one prefix-trie cache.
///
/// The pool is the single entry point for every membership query of the
/// learner — observation-table filling, Rivest–Schapire analysis, and
/// conformance testing all go through it — which makes the cache's counters
/// the authoritative query statistics of the run.
///
/// `QueryPool` itself implements [`MembershipOracle`], so code written
/// against the plain oracle interface composes with it directly.
///
/// # Example
///
/// ```
/// use automata::MealyBuilder;
/// use learning::{MealyOracle, QueryPool};
///
/// let mut b = MealyBuilder::new(vec!['t']);
/// let s = b.add_state();
/// b.add_transition(s, 't', s, 1u8);
/// let machine = b.build(s).unwrap();
///
/// let factory = move || MealyOracle::new(machine.clone());
/// let mut pool = QueryPool::new(&factory);
/// assert_eq!(pool.query_word(&['t', 't']).unwrap(), vec![1, 1]);
/// // The repeat is served from the prefix trie.
/// assert_eq!(pool.query_word(&['t', 't']).unwrap(), vec![1, 1]);
/// assert_eq!((pool.cache_hits(), pool.cache_misses()), (1, 1));
/// ```
pub struct QueryPool<'f, I, O> {
    oracle: Box<dyn MembershipOracle<I, O> + 'f>,
    cache: QueryCache<I, O>,
    tests_run: u64,
}

impl<I, O> fmt::Debug for QueryPool<'_, I, O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QueryPool")
            .field("tests_run", &self.tests_run)
            .finish_non_exhaustive()
    }
}

/// Queries `oracle` for `word` and enforces the one-output-per-symbol
/// contract — every oracle-facing path validates, so a truncated answer from
/// a misbehaving backend errors instead of silently passing comparisons.
fn query_validated<I, O>(
    oracle: &mut dyn MembershipOracle<I, O>,
    word: &[I],
) -> Result<Vec<O>, OracleError> {
    let outputs = oracle.query(word)?;
    if outputs.len() != word.len() {
        return Err(OracleError::new(format!(
            "oracle returned {} outputs for a word of length {}",
            outputs.len(),
            word.len()
        )));
    }
    Ok(outputs)
}

/// Compares an output word against the hypothesis prediction and returns the
/// shortest failing prefix of `word`, if any.
pub(crate) fn shortest_failing_prefix<I, O>(
    word: &[I],
    actual: &[O],
    predicted: &[O],
) -> Option<Vec<I>>
where
    I: Clone,
    O: PartialEq,
{
    for (i, (a, p)) in actual.iter().zip(predicted).enumerate() {
        if a != p {
            return Some(word[..=i].to_vec());
        }
    }
    None
}

/// Resume state for a run of conformance tests against one fixed
/// hypothesis.
///
/// Suite words arrive in `prefix · middle · suffix` product order, so
/// consecutive tests share long prefixes.  The cursor keeps the previous
/// word, the hypothesis states and predicted outputs along it, and the trie
/// path of its verified prefix — each new test then re-walks only the part
/// *after* the longest common prefix, in both the hypothesis and the cache.
///
/// Soundness of resuming: every retained prefix was checked to *agree* with
/// the hypothesis prediction (a disagreeing position would have produced a
/// counterexample and ended the run), predictions on a shared prefix are
/// identical because the hypothesis is deterministic, and trie nodes are
/// append-only.  Cache hit/miss counting is per test, exactly as without
/// resuming, so resuming never changes membership-query statistics.
struct TestCursor<I, O> {
    /// The previous test word.
    word: Vec<I>,
    /// `states[d]` is the hypothesis state after consuming `word[..d]`
    /// (`states[0]` is the initial state, so the vector is never empty).
    states: Vec<automata::StateId>,
    /// Predicted outputs for `word`.
    predicted: Vec<O>,
    /// Trie path of the verified-agreeing prefix of `word`.
    trie: TrieCursor,
}

impl<I, O> TestCursor<I, O> {
    fn new(initial: automata::StateId) -> Self {
        TestCursor {
            word: Vec::new(),
            states: vec![initial],
            predicted: Vec::new(),
            trie: TrieCursor::new(),
        }
    }
}

/// Length of the longest common prefix of two words.
fn common_prefix_len<I: Eq>(a: &[I], b: &[I]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

impl<'f, I, O> QueryPool<'f, I, O>
where
    I: Clone + Eq + Hash + fmt::Debug,
    O: Clone + Eq + fmt::Debug,
{
    /// Creates a pool over the one oracle `factory` makes, with an empty
    /// cache.
    pub fn new(factory: &'f dyn OracleFactory<I, O>) -> Self {
        QueryPool {
            oracle: factory.make_oracle(),
            cache: QueryCache::new(),
            tests_run: 0,
        }
    }

    /// Membership queries answered so far (cache hits included).
    pub fn queries_answered(&self) -> u64 {
        self.cache.total_lookups()
    }

    /// Cache hits so far.
    pub fn cache_hits(&self) -> u64 {
        self.cache.hits()
    }

    /// Cache misses so far: the queries the oracle had to answer.
    pub fn cache_misses(&self) -> u64 {
        self.cache.misses()
    }

    /// Conformance tests executed so far across all [`Self::run_tests`]
    /// calls.
    pub fn tests_run(&self) -> u64 {
        self.tests_run
    }

    /// Answers a single membership query through the cache and the oracle.
    ///
    /// # Errors
    ///
    /// Propagates oracle failures and cache-consistency violations.
    pub fn query_word(&mut self, word: &[I]) -> Result<Vec<O>, OracleError> {
        if let Some(outputs) = self.cache.lookup(word) {
            return Ok(outputs);
        }
        let outputs = query_validated(&mut self.oracle, word)?;
        self.cache.record(word, &outputs)?;
        Ok(outputs)
    }

    /// Answers a batch of membership queries.  Results are returned in input
    /// order.
    ///
    /// This is the batched table-filling primitive of L*: the observation
    /// table collects every missing cell of a refinement step and issues them
    /// as one batch.  Every word is looked up in the cache before any is
    /// sent to the oracle, and each distinct missing word is sent once.
    ///
    /// # Errors
    ///
    /// Propagates the first oracle failure.
    pub fn query_batch(&mut self, words: &[Vec<I>]) -> Result<Vec<Vec<O>>, OracleError> {
        let mut results: Vec<Option<Vec<O>>> = words.iter().map(|w| self.cache.lookup(w)).collect();
        // Deduplicate outstanding words before touching the oracle: the same
        // word can appear under several batch indices (e.g. two observation
        // table cells with `p1·e1 == p2·e2`), and each oracle execution can
        // be an expensive hardware probe.  `representative` keeps the first
        // index of each distinct missing word.
        let mut representative: automata::fxhash::FxHashMap<&[I], usize> =
            automata::fxhash::FxHashMap::default();
        for index in 0..words.len() {
            if results[index].is_some() {
                continue;
            }
            match representative.entry(words[index].as_slice()) {
                std::collections::hash_map::Entry::Vacant(slot) => {
                    slot.insert(index);
                    // The lookups above already counted this word; query the
                    // oracle directly and record.
                    let outputs = query_validated(&mut self.oracle, &words[index])?;
                    self.cache.record(&words[index], &outputs)?;
                    results[index] = Some(outputs);
                }
                std::collections::hash_map::Entry::Occupied(slot) => {
                    results[index] = results[*slot.get()].clone();
                }
            }
        }
        Ok(results
            .into_iter()
            .map(|r| r.expect("all batch entries answered"))
            .collect())
    }

    /// Runs a conformance test suite against `hypothesis` and returns the
    /// outcome.
    ///
    /// The suite is pulled one word at a time and the run stops at the first
    /// failing test, so a hypothesis refuted by an early test never
    /// generates the (exponentially large) tail of the suite — pair this with
    /// [`wp_method_suite_iter`](crate::wp_method_suite_iter).  Fully cached
    /// tests are decided by walking the prefix trie against the hypothesis
    /// prediction without cloning outputs or touching the oracle (and a
    /// cached *prefix* that already diverges refutes a test all by itself).
    ///
    /// # Errors
    ///
    /// Propagates the first oracle failure.
    pub fn run_tests(
        &mut self,
        hypothesis: &Mealy<I, O>,
        suite: impl IntoIterator<Item = Vec<I>>,
    ) -> Result<SuiteOutcome<I>, OracleError> {
        let mut cursor = TestCursor::new(hypothesis.initial());
        let mut executed = 0;
        let mut counterexample = None;
        for word in suite {
            executed += 1;
            counterexample = self.run_one_test(hypothesis, &word, &mut cursor)?;
            if counterexample.is_some() {
                break;
            }
        }
        self.tests_run += executed;
        Ok(SuiteOutcome {
            counterexample,
            tests_executed: executed,
        })
    }

    /// Executes one conformance test: decides it from the cache where
    /// possible (without cloning outputs), otherwise queries the oracle and
    /// records the answer.  Returns the shortest failing prefix, if any.
    ///
    /// `cursor` carries the run's resume state (see [`TestCursor`]); the
    /// hypothesis prediction and the trie check both restart from the
    /// longest prefix shared with the previous test word.
    fn run_one_test(
        &mut self,
        hypothesis: &Mealy<I, O>,
        word: &[I],
        cursor: &mut TestCursor<I, O>,
    ) -> Result<Option<Vec<I>>, OracleError> {
        let lcp = common_prefix_len(&cursor.word, word);
        cursor.states.truncate(lcp + 1);
        cursor.predicted.truncate(lcp);
        let mut state = *cursor
            .states
            .last()
            .expect("cursor keeps the initial state");
        for input in &word[lcp..] {
            let ii = hypothesis
                .input_position(input)
                .unwrap_or_else(|| panic!("input {input:?} is not in the alphabet"));
            let (next, output) = hypothesis.step_by_index(state, ii);
            cursor.predicted.push(output.clone());
            cursor.states.push(next);
            state = next;
        }
        cursor.word.clear();
        cursor.word.extend_from_slice(word);
        match self
            .cache
            .check_against_resumed(word, &cursor.predicted, lcp, &mut cursor.trie)
        {
            CacheVerdict::Match => return Ok(None),
            CacheVerdict::Mismatch(i) => return Ok(Some(word[..=i].to_vec())),
            CacheVerdict::Unknown => {}
        }
        let actual = query_validated(&mut self.oracle, word)?;
        self.cache.record(word, &actual)?;
        Ok(shortest_failing_prefix(word, &actual, &cursor.predicted))
    }
}

impl<I, O> MembershipOracle<I, O> for QueryPool<'_, I, O>
where
    I: Clone + Eq + Hash + fmt::Debug,
    O: Clone + Eq + fmt::Debug,
{
    fn query(&mut self, word: &[I]) -> Result<Vec<O>, OracleError> {
        self.query_word(word)
    }

    fn queries_answered(&self) -> u64 {
        QueryPool::queries_answered(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::MealyOracle;
    use automata::MealyBuilder;

    /// A counter modulo `n` over inputs `t` (tick) and `r` (reset).
    fn counter(n: usize) -> Mealy<&'static str, bool> {
        let mut b = MealyBuilder::new(vec!["t", "r"]);
        let states: Vec<_> = (0..n).map(|_| b.add_state()).collect();
        for i in 0..n {
            b.add_transition(states[i], "t", states[(i + 1) % n], i + 1 == n);
            b.add_transition(states[i], "r", states[0], false);
        }
        b.build(states[0]).unwrap()
    }

    #[test]
    fn pool_memoizes_repeated_queries() {
        let target = counter(3);
        let factory = move || MealyOracle::new(target.clone());
        let mut pool = QueryPool::new(&factory);
        let first = pool.query_word(&["t", "t", "t"]).unwrap();
        let second = pool.query_word(&["t", "t", "t"]).unwrap();
        assert_eq!(first, second);
        assert_eq!(pool.cache_hits(), 1);
        assert_eq!(pool.queries_answered(), 2);
    }

    #[test]
    fn batches_answer_in_input_order() {
        let target = counter(4);
        let reference = target.clone();
        let factory = move || MealyOracle::new(target.clone());
        let mut pool = QueryPool::new(&factory);
        let words: Vec<Vec<&str>> = (1..=40)
            .map(|len| {
                (0..len)
                    .map(|i| if i % 5 == 0 { "r" } else { "t" })
                    .collect()
            })
            .collect();
        let answers = pool.query_batch(&words).unwrap();
        for (word, answer) in words.iter().zip(&answers) {
            assert_eq!(*answer, reference.output_word(word.iter()));
        }
    }

    #[test]
    fn batches_answer_duplicate_words_with_one_oracle_query() {
        let target = counter(3);
        let factory = move || MealyOracle::new(target.clone());
        let mut pool = QueryPool::new(&factory);
        // Every word is looked up before any is answered, so the repeats
        // miss the trie: suppressing them is the batch's own work.
        let words: Vec<Vec<&str>> = vec![
            vec!["t", "t"],
            vec!["t", "r"],
            vec!["t", "t"],
            vec!["t", "t"],
        ];
        let answers = pool.query_batch(&words).unwrap();
        assert_eq!(answers[0], answers[2]);
        assert_eq!(answers[0], answers[3]);
        assert_eq!(pool.cache_misses(), 4);
        // Two distinct words → exactly two queries reached the oracle.
        assert_eq!(pool.oracle.queries_answered(), 2);
    }

    #[test]
    fn run_tests_returns_the_first_counterexample_of_the_suite() {
        let system = counter(3);
        let hypothesis = counter(2);
        let factory = move || MealyOracle::new(system.clone());
        // The suite contains two failing words; the smaller index wins.
        let mut suite: Vec<Vec<&str>> = (0..40).map(|_| vec!["t", "r"]).collect();
        suite[7] = vec!["t", "t", "t"];
        suite[23] = vec!["r", "t", "t", "t"];
        let mut pool = QueryPool::new(&factory);
        let outcome = pool.run_tests(&hypothesis, suite.iter().cloned()).unwrap();
        // The index-7 word diverges at its second symbol (the 2-counter
        // wraps, the 3-counter does not), so the shortest failing prefix of
        // the smallest failing suite index is returned.
        assert_eq!(outcome.counterexample, Some(vec!["t", "t"]));
        assert_eq!(outcome.tests_executed, 8);
    }

    #[test]
    fn run_tests_pulls_only_the_words_it_executes() {
        let system = counter(3);
        let hypothesis = counter(2);
        let factory = move || MealyOracle::new(system.clone());
        // An endless suite whose 8th word is the first to refute the
        // hypothesis.
        let mut pulled = 0u64;
        let suite = std::iter::from_fn(|| {
            pulled += 1;
            Some(if pulled == 8 {
                vec!["t", "t", "t"]
            } else {
                vec!["t", "r"]
            })
        });
        let mut pool = QueryPool::new(&factory);
        let outcome = pool.run_tests(&hypothesis, suite).unwrap();
        assert!(outcome.counterexample.is_some());
        assert_eq!(outcome.tests_executed, 8);
        assert_eq!(pulled, outcome.tests_executed);
    }

    #[test]
    fn run_tests_passes_equivalent_machines() {
        let system = counter(3);
        let hypothesis = system.clone();
        let factory = move || MealyOracle::new(system.clone());
        let mut pool = QueryPool::new(&factory);
        let suite: Vec<Vec<&str>> = (1..=64)
            .map(|len| {
                (0..len)
                    .map(|i| if i % 3 == 0 { "r" } else { "t" })
                    .collect()
            })
            .collect();
        let outcome = pool.run_tests(&hypothesis, suite.iter().cloned()).unwrap();
        assert_eq!(outcome.counterexample, None);
        assert_eq!(outcome.tests_executed, 64);
        assert_eq!(pool.tests_run(), 64);
    }

    #[test]
    fn worker_errors_propagate() {
        /// An oracle that fails on words longer than 2 symbols.
        struct Flaky;
        impl MembershipOracle<&'static str, bool> for Flaky {
            fn query(&mut self, word: &[&'static str]) -> Result<Vec<bool>, OracleError> {
                if word.len() > 2 {
                    Err(OracleError::new("hardware glitch"))
                } else {
                    Ok(vec![false; word.len()])
                }
            }
            fn queries_answered(&self) -> u64 {
                0
            }
        }
        let factory = || Flaky;
        let hypothesis = counter(2);
        let suite: Vec<Vec<&str>> = (0..64).map(|_| vec!["t", "t", "t"]).collect();
        let mut pool = QueryPool::new(&factory);
        assert!(pool.run_tests(&hypothesis, suite.iter().cloned()).is_err());
    }
}
