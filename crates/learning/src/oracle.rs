//! Teacher-side oracle interfaces and generic oracle adapters.

use std::fmt;
use std::hash::Hash;

use automata::Mealy;

use crate::pool::QueryPool;

/// Statistical evidence that the system under learning is not a
/// deterministic machine.
///
/// Produced by oracles that execute every query several times and vote
/// (the engine's 500‰ majority-margin rule): when repeated executions of the
/// same query keep disagreeing, the problem is not noise to be voted away
/// but genuine non-determinism — on hardware, typically an adaptive follower
/// set or a wrong reset sequence.  All rates are permille integers so the
/// evidence survives wire protocols without float round-tripping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NonDeterminism {
    /// Queries whose repeated executions never settled into a majority,
    /// per-mille of all voted queries (the disagreement rate).
    pub disagreement_permille: u64,
    /// The vote margin (per-mille) of the worst query observed — how far the
    /// closest vote was from unanimity (1000‰ = all repetitions agreed).
    pub worst_margin_permille: u64,
    /// Rendered text of the worst (lowest-margin) query.
    pub worst_query: String,
    /// The margin threshold (per-mille) a majority had to clear to settle.
    pub required_margin_permille: u64,
    /// Queries that were voted on in total.
    pub voted_queries: u64,
    /// Queries that never settled.
    pub unsettled_queries: u64,
}

impl fmt::Display for NonDeterminism {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} voted queries never settled ({}‰ disagreement; worst query '{}' at {}‰ \
             margin, {}‰ required)",
            self.unsettled_queries,
            self.voted_queries,
            self.disagreement_permille,
            self.worst_query,
            self.worst_margin_permille,
            self.required_margin_permille,
        )
    }
}

/// Error raised by an oracle (e.g. a hardware backend failure or detected
/// nondeterminism in the system under learning).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleError {
    /// Human-readable description.
    pub message: String,
    /// Statistical evidence attached when the failure is detected
    /// non-determinism rather than a plain backend fault.
    pub non_determinism: Option<NonDeterminism>,
    /// Whether the learner's time budget ran out (see
    /// [`time_budget`](Self::time_budget)).
    pub budget_exhausted: bool,
}

impl OracleError {
    /// Creates an error from any displayable message.
    pub fn new(message: impl Into<String>) -> Self {
        OracleError {
            message: message.into(),
            non_determinism: None,
            budget_exhausted: false,
        }
    }

    /// The error of a conformance run stopped by the learner's time budget
    /// ([`QueryPool::set_deadline`]); the learner reports it as
    /// `LearnError::TimeBudgetExceeded`.
    pub fn time_budget() -> Self {
        OracleError {
            budget_exhausted: true,
            ..OracleError::new("learning time budget exhausted")
        }
    }

    /// Creates an error carrying statistical non-determinism evidence.
    pub fn not_deterministic(message: impl Into<String>, evidence: NonDeterminism) -> Self {
        OracleError {
            non_determinism: Some(evidence),
            ..OracleError::new(message)
        }
    }
}

impl fmt::Display for OracleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "oracle error: {}", self.message)
    }
}

impl std::error::Error for OracleError {}

/// A membership oracle: answers output words for input words (§3.1, query
/// type 1).
pub trait MembershipOracle<I, O> {
    /// The output word produced by the system under learning on `word` (one
    /// output per input symbol).
    ///
    /// # Errors
    ///
    /// Implementations return an [`OracleError`] when the underlying system
    /// fails or behaves non-deterministically.
    fn query(&mut self, word: &[I]) -> Result<Vec<O>, OracleError>;

    /// Convenience: the output of the last symbol of `word`.
    ///
    /// # Errors
    ///
    /// Propagates [`MembershipOracle::query`] errors; also fails on the empty
    /// word.
    fn last_output(&mut self, word: &[I]) -> Result<O, OracleError> {
        self.query(word)?
            .pop()
            .ok_or_else(|| OracleError::new("last_output called on the empty word"))
    }

    /// Number of queries answered so far.
    ///
    /// This method is deliberately *required*: a default of `0` would let an
    /// implementation silently under-report and corrupt the statistics of a
    /// learning run.  Oracles that genuinely do not count should return the
    /// count of a wrapper such as [`QueryPool`](crate::QueryPool), which
    /// tracks queries centrally.
    fn queries_answered(&self) -> u64;
}

/// Boxed oracles answer queries by delegation, so a [`QueryPool`] can own
/// the `Box<dyn MembershipOracle>` its factory makes.
impl<I, O, M> MembershipOracle<I, O> for Box<M>
where
    M: MembershipOracle<I, O> + ?Sized,
{
    fn query(&mut self, word: &[I]) -> Result<Vec<O>, OracleError> {
        (**self).query(word)
    }

    fn queries_answered(&self) -> u64 {
        (**self).queries_answered()
    }
}

/// An equivalence oracle: searches for a counterexample distinguishing the
/// hypothesis from the system under learning (§3.1, query type 2).
///
/// Equivalence oracles receive the learner's [`QueryPool`] rather than a bare
/// membership oracle: the pool answers individual queries through its
/// prefix-trie cache and executes whole conformance suites against the
/// hypothesis (see [`QueryPool::run_tests`]).
pub trait EquivalenceOracle<I, O> {
    /// Returns a counterexample input word on which the system and the
    /// hypothesis disagree, or `None` if none was found.
    ///
    /// # Errors
    ///
    /// Propagates membership-oracle errors.
    fn find_counterexample(
        &mut self,
        pool: &mut QueryPool<'_, I, O>,
        hypothesis: &Mealy<I, O>,
    ) -> Result<Option<Vec<I>>, OracleError>;
}

/// A membership oracle backed by a known Mealy machine; the "software
/// simulator" teacher used in tests and ablations.
#[derive(Debug, Clone)]
pub struct MealyOracle<I, O> {
    machine: Mealy<I, O>,
    queries: u64,
    symbols: u64,
}

impl<I, O> MealyOracle<I, O>
where
    I: Clone + Eq + Hash + fmt::Debug,
    O: Clone + Eq + fmt::Debug,
{
    /// Wraps a machine as a teacher.
    pub fn new(machine: Mealy<I, O>) -> Self {
        MealyOracle {
            machine,
            queries: 0,
            symbols: 0,
        }
    }

    /// Total number of input symbols processed.
    pub fn symbols_processed(&self) -> u64 {
        self.symbols
    }
}

impl<I, O> MembershipOracle<I, O> for MealyOracle<I, O>
where
    I: Clone + Eq + Hash + fmt::Debug,
    O: Clone + Eq + fmt::Debug,
{
    fn query(&mut self, word: &[I]) -> Result<Vec<O>, OracleError> {
        self.queries += 1;
        self.symbols += word.len() as u64;
        Ok(self.machine.output_word(word.iter()))
    }

    fn queries_answered(&self) -> u64 {
        self.queries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use automata::MealyBuilder;

    fn toggle_machine() -> Mealy<&'static str, bool> {
        let mut b = MealyBuilder::new(vec!["a", "b"]);
        let s0 = b.add_state();
        let s1 = b.add_state();
        b.add_transition(s0, "a", s1, true);
        b.add_transition(s0, "b", s0, false);
        b.add_transition(s1, "a", s0, false);
        b.add_transition(s1, "b", s1, true);
        b.build(s0).unwrap()
    }

    #[test]
    fn mealy_oracle_answers_output_words() {
        let mut oracle = MealyOracle::new(toggle_machine());
        assert_eq!(
            oracle.query(&["a", "a", "b"]).unwrap(),
            vec![true, false, false]
        );
        assert!(oracle.last_output(&["a", "b"]).unwrap());
        assert_eq!(oracle.queries_answered(), 2);
        assert_eq!(oracle.symbols_processed(), 5);
    }

    #[test]
    fn last_output_of_empty_word_fails() {
        let mut oracle = MealyOracle::new(toggle_machine());
        assert!(oracle.last_output(&[]).is_err());
    }
}
