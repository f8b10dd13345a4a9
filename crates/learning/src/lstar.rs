//! The main L* learning loop for Mealy machines.

use std::fmt;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use automata::Mealy;
use obs::Recorder;

use crate::oracle::{EquivalenceOracle, NonDeterminism, OracleError};
use crate::pool::{OracleFactory, QueryPool};
use crate::table::ObservationTable;

/// A live, thread-shared view of a learning run: the hypothesis size and the
/// central membership-query count, updated by [`learn_mealy`] at every
/// hypothesis round.  Hand an `Arc<LearnProgress>` to
/// [`LearnOptions::progress`] and poll it from another thread — the `cqd`
/// daemon streams these counters to clients while a learn job runs.
#[derive(Debug, Default)]
pub struct LearnProgress {
    states: AtomicU64,
    membership_queries: AtomicU64,
}

impl LearnProgress {
    /// Creates a zeroed progress tracker.
    pub fn new() -> Self {
        LearnProgress::default()
    }

    /// States of the current hypothesis (0 until the first table closure).
    pub fn states(&self) -> u64 {
        self.states.load(Ordering::Relaxed)
    }

    /// Membership queries issued so far (cache hits included).
    pub fn membership_queries(&self) -> u64 {
        self.membership_queries.load(Ordering::Relaxed)
    }

    fn record(&self, states: u64, membership_queries: u64) {
        self.states.store(states, Ordering::Relaxed);
        self.membership_queries
            .store(membership_queries, Ordering::Relaxed);
    }
}

/// Options controlling the learning loop.
#[derive(Debug, Clone)]
pub struct LearnOptions {
    /// Abort if the hypothesis grows beyond this many states.
    pub max_states: usize,
    /// Abort if learning exceeds this wall-clock budget (`None` = unlimited).
    /// Checked before every hypothesis round and, inside a conformance run,
    /// every 1,024 suite words.
    pub time_budget: Option<Duration>,
    /// Has no effect: the learner runs one query at a time.  Kept so that
    /// callers which still set it compile.
    pub workers: usize,
    /// Optional live progress counters, updated once per hypothesis round
    /// (table closure / equivalence query).  `None` (the default) costs
    /// nothing.
    pub progress: Option<Arc<LearnProgress>>,
    /// Optional span recorder: when present, every phase region (table fill,
    /// closure, equivalence, identification) is emitted as a child span of
    /// one `lstar.learn` root span, with its membership-query delta attached.
    /// `None` (the default) costs one predictable branch per phase.
    pub recorder: Option<Arc<Recorder>>,
}

impl Default for LearnOptions {
    fn default() -> Self {
        LearnOptions {
            max_states: 1 << 20,
            time_budget: None,
            workers: 0,
            progress: None,
            recorder: None,
        }
    }
}

/// The four query-issuing phases of the learner loop, in paper terms:
/// observation-table filling (§5 `fillTable`), closure (promoting unclosed
/// rows), equivalence (conformance testing the hypothesis, §3.3), and
/// identification (Rivest–Schapire counterexample analysis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LearnPhase {
    /// Filling observation-table cells (initial fill and post-suffix
    /// refills).
    TableFill,
    /// Closing the table: promoting unclosed rows and filling what that
    /// opens up.
    Closure,
    /// Equivalence queries: running the conformance suite against the
    /// hypothesis.
    Equivalence,
    /// Counterexample identification: replaying the counterexample and the
    /// Rivest–Schapire binary search for a distinguishing suffix.
    Identification,
}

impl LearnPhase {
    /// Every phase, in loop order.
    pub const ALL: [LearnPhase; 4] = [
        LearnPhase::TableFill,
        LearnPhase::Closure,
        LearnPhase::Equivalence,
        LearnPhase::Identification,
    ];

    /// Stable snake_case name (used in profiles and wire formats).
    pub fn name(self) -> &'static str {
        match self {
            LearnPhase::TableFill => "table_fill",
            LearnPhase::Closure => "closure",
            LearnPhase::Equivalence => "equivalence",
            LearnPhase::Identification => "identification",
        }
    }

    /// Span name emitted when tracing is on.
    pub fn span_name(self) -> &'static str {
        match self {
            LearnPhase::TableFill => "lstar.table_fill",
            LearnPhase::Closure => "lstar.closure",
            LearnPhase::Equivalence => "lstar.equivalence",
            LearnPhase::Identification => "lstar.identification",
        }
    }
}

/// Accumulated cost of one [`LearnPhase`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseStats {
    /// Membership queries issued during the phase (cache hits included).
    pub queries: u64,
    /// Wall-clock time spent in the phase.
    pub duration: Duration,
}

/// Per-phase breakdown of a learning run.
///
/// The regions partition the learner loop: every membership query the run
/// issues lands in exactly one phase, so
/// [`total_queries`](LearnPhases::total_queries) equals
/// [`LearnStats::membership_queries`] exactly (pinned by tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LearnPhases {
    /// Observation-table fills.
    pub table_fill: PhaseStats,
    /// Table closure.
    pub closure: PhaseStats,
    /// Equivalence queries.
    pub equivalence: PhaseStats,
    /// Counterexample identification.
    pub identification: PhaseStats,
}

impl LearnPhases {
    /// The accumulator for `phase`.
    pub fn get(&self, phase: LearnPhase) -> PhaseStats {
        match phase {
            LearnPhase::TableFill => self.table_fill,
            LearnPhase::Closure => self.closure,
            LearnPhase::Equivalence => self.equivalence,
            LearnPhase::Identification => self.identification,
        }
    }

    fn slot_mut(&mut self, phase: LearnPhase) -> &mut PhaseStats {
        match phase {
            LearnPhase::TableFill => &mut self.table_fill,
            LearnPhase::Closure => &mut self.closure,
            LearnPhase::Equivalence => &mut self.equivalence,
            LearnPhase::Identification => &mut self.identification,
        }
    }

    /// Membership queries summed over all phases (equals
    /// [`LearnStats::membership_queries`]).
    pub fn total_queries(&self) -> u64 {
        LearnPhase::ALL.iter().map(|&p| self.get(p).queries).sum()
    }

    /// Wall-clock summed over all phases (a lower bound on
    /// [`LearnStats::duration`]: hypothesis construction runs between
    /// regions).
    pub fn total_duration(&self) -> Duration {
        LearnPhase::ALL.iter().map(|&p| self.get(p).duration).sum()
    }
}

/// Scoped accounting for one phase region: membership-query delta from the
/// pool plus wall-clock, folded into [`LearnPhases`] — and, when tracing, a
/// child span of the run's root span carrying the query count.
struct PhaseRegion<'r> {
    span: Option<obs::Span<'r>>,
    start: Instant,
    queries_before: u64,
}

impl<'r> PhaseRegion<'r> {
    fn begin(
        recorder: Option<&'r Recorder>,
        root: Option<u64>,
        phase: LearnPhase,
        queries_before: u64,
    ) -> Self {
        PhaseRegion {
            span: recorder.map(|r| r.span_with_parent(phase.span_name(), root)),
            start: Instant::now(),
            queries_before,
        }
    }

    fn end(mut self, phases: &mut LearnPhases, phase: LearnPhase, queries_after: u64) {
        let queries = queries_after - self.queries_before;
        let slot = phases.slot_mut(phase);
        slot.queries += queries;
        slot.duration += self.start.elapsed();
        if let Some(span) = &mut self.span {
            span.set("queries", queries);
        }
        // Dropping `self` emits the span record, if any.
    }
}

/// Statistics of one learning run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LearnStats {
    /// Membership queries issued (counted centrally by the learner's query
    /// pool; cache hits included).
    pub membership_queries: u64,
    /// Membership queries answered from the prefix-trie cache.
    pub cache_hits: u64,
    /// Membership queries that had to be answered by the underlying oracle.
    pub cache_misses: u64,
    /// Equivalence queries issued.
    pub equivalence_queries: u64,
    /// Conformance tests executed across all equivalence queries.
    pub conformance_tests: u64,
    /// Counterexamples processed.
    pub counterexamples: u64,
    /// Number of states of the final hypothesis.
    pub states: usize,
    /// Number of distinguishing suffixes in the final observation table.
    pub suffixes: usize,
    /// Wall-clock learning time.
    pub duration: Duration,
    /// Per-phase breakdown: every membership query lands in exactly one
    /// phase, so `phases.total_queries() == membership_queries`.
    pub phases: LearnPhases,
}

impl LearnStats {
    /// Fraction of membership queries served from the query cache (`0.0`
    /// when no queries were asked).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// Errors raised by [`learn_mealy`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LearnError {
    /// The membership or equivalence oracle failed (hardware error, detected
    /// nondeterminism, …).
    Oracle(OracleError),
    /// The hypothesis exceeded [`LearnOptions::max_states`].
    StateLimitExceeded(usize),
    /// The time budget was exhausted before learning converged.
    TimeBudgetExceeded,
    /// A counterexample returned by the equivalence oracle was not actually a
    /// counterexample (this indicates a non-deterministic system under
    /// learning, cf. the reset-sequence discussion in §7.1).
    SpuriousCounterexample,
    /// The system under learning was *statistically detected* to be
    /// non-deterministic: repeated executions of the same query kept
    /// disagreeing past the voting margin, so the run aborted early with
    /// evidence instead of diverging on an unlearnable target (an adaptive
    /// follower set, a wrong reset sequence).
    NotDeterministic(NonDeterminism),
}

impl fmt::Display for LearnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LearnError::Oracle(e) => write!(f, "{e}"),
            LearnError::StateLimitExceeded(n) => {
                write!(f, "hypothesis exceeded the state limit of {n}")
            }
            LearnError::TimeBudgetExceeded => write!(f, "learning time budget exhausted"),
            LearnError::SpuriousCounterexample => write!(
                f,
                "equivalence oracle returned a spurious counterexample; \
                 the system under learning is probably non-deterministic"
            ),
            LearnError::NotDeterministic(evidence) => write!(
                f,
                "the system under learning is not deterministic: {evidence}"
            ),
        }
    }
}

impl std::error::Error for LearnError {}

impl From<OracleError> for LearnError {
    fn from(e: OracleError) -> Self {
        match e.non_determinism {
            Some(evidence) => LearnError::NotDeterministic(evidence),
            None if e.budget_exhausted => LearnError::TimeBudgetExceeded,
            None => LearnError::Oracle(e),
        }
    }
}

/// Learns a deterministic Mealy machine over `inputs` from an oracle factory
/// and an equivalence oracle (Angluin's L* adapted to Mealy machines, with
/// Rivest–Schapire counterexample processing).
///
/// The factory makes the one oracle of the learner's [`QueryPool`], which
/// answers every membership query of the run, one at a time, through a
/// prefix-trie cache.
///
/// # Errors
///
/// See [`LearnError`].
pub fn learn_mealy<I, O>(
    inputs: Vec<I>,
    factory: &dyn OracleFactory<I, O>,
    equivalence: &mut dyn EquivalenceOracle<I, O>,
    options: LearnOptions,
) -> Result<(Mealy<I, O>, LearnStats), LearnError>
where
    I: Clone + Eq + Hash + fmt::Debug,
    O: Clone + Eq + Hash + fmt::Debug,
{
    let start = Instant::now();
    let mut stats = LearnStats::default();
    let mut pool = QueryPool::new(factory);
    pool.set_deadline(options.time_budget.and_then(|b| start.checked_add(b)));
    let mut table = ObservationTable::new(inputs);
    let recorder = options.recorder.as_deref();
    let root = recorder.map(|r| r.span("lstar.learn"));
    let root_id = root.as_ref().map(obs::Span::id);
    let mut phases = LearnPhases::default();

    let region = PhaseRegion::begin(
        recorder,
        root_id,
        LearnPhase::TableFill,
        pool.queries_answered(),
    );
    table.fill(&mut pool)?;
    region.end(&mut phases, LearnPhase::TableFill, pool.queries_answered());

    let result = loop {
        if let Some(budget) = options.time_budget {
            if start.elapsed() > budget {
                return Err(LearnError::TimeBudgetExceeded);
            }
        }

        // Close the table.
        let region = PhaseRegion::begin(
            recorder,
            root_id,
            LearnPhase::Closure,
            pool.queries_answered(),
        );
        while let Some(witness) = table.find_unclosed() {
            table.promote(witness);
            if table.num_short() > options.max_states {
                return Err(LearnError::StateLimitExceeded(options.max_states));
            }
            table.fill(&mut pool)?;
        }
        region.end(&mut phases, LearnPhase::Closure, pool.queries_answered());

        let (hypothesis, access) = table.hypothesis();
        if let Some(progress) = &options.progress {
            progress.record(hypothesis.num_states() as u64, pool.queries_answered());
        }

        // Ask for a counterexample.
        stats.equivalence_queries += 1;
        let region = PhaseRegion::begin(
            recorder,
            root_id,
            LearnPhase::Equivalence,
            pool.queries_answered(),
        );
        let counterexample = equivalence.find_counterexample(&mut pool, &hypothesis)?;
        region.end(
            &mut phases,
            LearnPhase::Equivalence,
            pool.queries_answered(),
        );
        let Some(counterexample) = counterexample else {
            break hypothesis;
        };
        stats.counterexamples += 1;

        // Process the counterexample (Rivest–Schapire): find a distinguishing
        // suffix by binary search and add it to the table.  The same
        // counterexample may need to be processed several times before it
        // stops being one.
        let mut current_hypothesis = hypothesis;
        let mut current_access = access;
        loop {
            let region = PhaseRegion::begin(
                recorder,
                root_id,
                LearnPhase::Identification,
                pool.queries_answered(),
            );
            let actual = pool.query_word(&counterexample)?;
            let predicted = current_hypothesis.output_word(counterexample.iter());
            if actual == predicted {
                region.end(
                    &mut phases,
                    LearnPhase::Identification,
                    pool.queries_answered(),
                );
                break;
            }
            let suffix = find_distinguishing_suffix(
                &mut pool,
                &current_hypothesis,
                &current_access,
                &counterexample,
            )?;
            region.end(
                &mut phases,
                LearnPhase::Identification,
                pool.queries_answered(),
            );
            if !table.add_suffix(suffix) {
                // The suffix was already present: adding it cannot refine the
                // table, so the system is answering inconsistently.
                return Err(LearnError::SpuriousCounterexample);
            }
            let region = PhaseRegion::begin(
                recorder,
                root_id,
                LearnPhase::TableFill,
                pool.queries_answered(),
            );
            table.fill(&mut pool)?;
            region.end(&mut phases, LearnPhase::TableFill, pool.queries_answered());
            let region = PhaseRegion::begin(
                recorder,
                root_id,
                LearnPhase::Closure,
                pool.queries_answered(),
            );
            while let Some(witness) = table.find_unclosed() {
                table.promote(witness);
                if table.num_short() > options.max_states {
                    return Err(LearnError::StateLimitExceeded(options.max_states));
                }
                table.fill(&mut pool)?;
            }
            region.end(&mut phases, LearnPhase::Closure, pool.queries_answered());
            let (h, a) = table.hypothesis();
            current_hypothesis = h;
            current_access = a;
        }
    };

    if let Some(progress) = &options.progress {
        progress.record(result.num_states() as u64, pool.queries_answered());
    }
    stats.phases = phases;
    stats.membership_queries = pool.queries_answered();
    stats.cache_hits = pool.cache_hits();
    stats.cache_misses = pool.cache_misses();
    stats.conformance_tests = pool.tests_run();
    stats.states = result.num_states();
    stats.suffixes = table.suffixes().len();
    stats.duration = start.elapsed();
    Ok((result, stats))
}

/// Rivest–Schapire analysis: finds a suffix of the counterexample that
/// distinguishes two rows the current hypothesis merges.
///
/// For position `i`, the check word is `access(state after w[..i]) · w[i..]`;
/// its final output matches the hypothesis for `i = |w|−1` and mismatches for
/// `i = 0`, so a binary search locates an index where the answer flips, and
/// `w[i+1..]` is the distinguishing suffix.
fn find_distinguishing_suffix<I, O>(
    pool: &mut QueryPool<'_, I, O>,
    hypothesis: &Mealy<I, O>,
    access: &[Vec<I>],
    counterexample: &[I],
) -> Result<Vec<I>, OracleError>
where
    I: Clone + Eq + Hash + fmt::Debug,
    O: Clone + Eq + fmt::Debug,
{
    let expected = hypothesis
        .output_word(counterexample.iter())
        .last()
        .cloned()
        .expect("counterexamples are non-empty");

    let check = |pool: &mut QueryPool<'_, I, O>, i: usize| -> Result<bool, OracleError> {
        // Word: access string of the state reached after w[..i], followed by
        // the rest of the counterexample.
        let state = hypothesis.delta(hypothesis.initial(), counterexample[..i].iter());
        let mut word = access[state.index()].clone();
        word.extend(counterexample[i..].iter().cloned());
        if word.is_empty() {
            return Ok(true);
        }
        let out = pool
            .query_word(&word)?
            .pop()
            .expect("non-empty words have outputs");
        Ok(out == expected)
    };

    // Invariant: check(lo) = false, check(hi) = true.
    let mut lo = 0usize;
    let mut hi = counterexample.len() - 1;
    if check(pool, hi)? {
        // Binary search between lo and hi.
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if check(pool, mid)? {
                hi = mid;
            } else {
                lo = mid;
            }
        }
    } else {
        // The flip happens at the very last position: the distinguishing
        // suffix is the last symbol alone.
        lo = counterexample.len() - 1;
    }
    let suffix = counterexample[lo + 1..].to_vec();
    if suffix.is_empty() {
        // Fall back to the full last symbol (can only happen for length-1
        // counterexamples, where the single symbol must already distinguish).
        Ok(vec![counterexample[counterexample.len() - 1].clone()])
    } else {
        Ok(suffix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equivalence::WpMethodOracle;
    use crate::oracle::MealyOracle;
    use automata::{equivalent, MealyBuilder};

    fn counter(n: usize) -> Mealy<&'static str, bool> {
        let mut b = MealyBuilder::new(vec!["t", "r"]);
        let states: Vec<_> = (0..n).map(|_| b.add_state()).collect();
        for i in 0..n {
            b.add_transition(states[i], "t", states[(i + 1) % n], i + 1 == n);
            b.add_transition(states[i], "r", states[0], false);
        }
        b.build(states[0]).unwrap()
    }

    fn learn(
        target: &Mealy<&'static str, bool>,
        depth: usize,
    ) -> (Mealy<&'static str, bool>, LearnStats) {
        let teacher = target.clone();
        let factory = move || MealyOracle::new(teacher.clone());
        let mut eq = WpMethodOracle::new(depth);
        learn_mealy(
            target.inputs().to_vec(),
            &factory,
            &mut eq,
            LearnOptions::default(),
        )
        .unwrap()
    }

    #[test]
    fn learns_small_counters_exactly() {
        // The wrap-only counter needs a conformance depth of n - 1 to be
        // distinguishable from smaller hypotheses (Theorem 3.3), so the test
        // passes the counter size as the suite depth.
        for n in [1, 2, 3, 5, 6] {
            let target = counter(n);
            let (learned, stats) = learn(&target, n);
            assert!(equivalent(&learned, &target), "counter({n}) mislearned");
            assert_eq!(learned.num_states(), n);
            assert_eq!(stats.states, n);
            assert!(stats.membership_queries > 0);
        }
    }

    #[test]
    fn state_limit_is_enforced() {
        let target = counter(10);
        let teacher = target.clone();
        let factory = move || MealyOracle::new(teacher.clone());
        let mut eq = WpMethodOracle::new(10);
        let result = learn_mealy(
            target.inputs().to_vec(),
            &factory,
            &mut eq,
            LearnOptions {
                max_states: 4,
                ..LearnOptions::default()
            },
        );
        assert!(matches!(result, Err(LearnError::StateLimitExceeded(4))));
    }

    #[test]
    fn stats_reflect_the_run() {
        let target = counter(6);
        let (_, stats) = learn(&target, 6);
        assert!(stats.counterexamples >= 1);
        assert!(stats.equivalence_queries >= stats.counterexamples);
        assert!(stats.suffixes >= 2);
        assert!(stats.duration > Duration::ZERO);
        // The observation table refills overlapping words constantly: the
        // memoization layer must be seeing real traffic.
        assert!(stats.cache_hits > 0);
        assert!(stats.cache_misses > 0);
        assert_eq!(
            stats.membership_queries,
            stats.cache_hits + stats.cache_misses
        );
        assert!(stats.cache_hit_rate() > 0.0 && stats.cache_hit_rate() < 1.0);
        assert!(stats.conformance_tests > 0);
        // The phase regions partition the loop: per-phase query counts sum
        // exactly to the central total, and every phase did real work on a
        // multi-round learn.
        assert_eq!(stats.phases.total_queries(), stats.membership_queries);
        assert!(stats.phases.table_fill.queries > 0);
        assert!(stats.phases.equivalence.queries > 0);
        assert!(stats.phases.identification.queries > 0);
        assert!(stats.phases.total_duration() <= stats.duration);
    }

    #[test]
    fn recorder_emits_nested_phase_spans() {
        use obs::RingSink;
        let target = counter(4);
        let teacher = target.clone();
        let factory = move || MealyOracle::new(teacher.clone());
        let mut eq = WpMethodOracle::new(4);
        let sink = Arc::new(RingSink::new(4096));
        let recorder = Arc::new(Recorder::new(sink.clone()));
        let (_, stats) = learn_mealy(
            target.inputs().to_vec(),
            &factory,
            &mut eq,
            LearnOptions {
                recorder: Some(recorder),
                ..LearnOptions::default()
            },
        )
        .unwrap();
        let lines = sink.drain();
        assert_eq!(sink.dropped(), 0, "ring clipped the trace");
        // Exactly one root span, named lstar.learn, emitted last.
        let roots: Vec<&String> = lines
            .iter()
            .filter(|l| l.contains("\"parent\":null"))
            .collect();
        assert_eq!(roots.len(), 1);
        assert!(roots[0].contains("\"name\":\"lstar.learn\""));
        assert!(lines.last().unwrap().contains("\"name\":\"lstar.learn\""));
        // Every phase of a multi-round learn shows up as a child span.
        for phase in LearnPhase::ALL {
            assert!(
                lines
                    .iter()
                    .any(|l| l.contains(&format!("\"name\":\"{}\"", phase.span_name()))),
                "no span for {}",
                phase.name()
            );
        }
        // Phase spans carry the query delta that the profile accumulated.
        assert!(lines
            .iter()
            .any(|l| l.contains("\"fields\":{\"queries\":") && !l.contains("\"queries\":0}")));
        assert!(stats.phases.total_queries() > 0);
    }
}
