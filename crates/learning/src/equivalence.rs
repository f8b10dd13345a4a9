//! The equivalence oracle: Wp-method conformance testing.
//!
//! The oracle hands its lazily generated suite to
//! [`QueryPool::run_tests`], which answers each word from the prefix trie
//! where it can, skips the suite's repeated words there, and stops at the
//! first failing test (§3.3 — the test suite is *exponentially* large in the
//! suite depth, so a refuted hypothesis must not generate the rest of it).

use std::fmt;
use std::hash::Hash;

use automata::Mealy;

use crate::oracle::{EquivalenceOracle, OracleError};
use crate::pool::QueryPool;
use crate::wmethod::wp_method_suite_iter;

/// Conformance-testing equivalence oracle using the Wp-method with a
/// configurable extra depth `k` (the "depth of the suite" of §3.4; the paper's
/// experiments use `k = 1`).
#[derive(Debug, Clone)]
pub struct WpMethodOracle {
    depth: usize,
}

impl WpMethodOracle {
    /// Creates the oracle with extra depth `depth`.
    pub fn new(depth: usize) -> Self {
        WpMethodOracle { depth }
    }

    /// The extra depth `k`.
    pub fn depth(&self) -> usize {
        self.depth
    }
}

impl<I, O> EquivalenceOracle<I, O> for WpMethodOracle
where
    I: Clone + Eq + Hash + fmt::Debug,
    O: Clone + Eq + Hash + fmt::Debug,
{
    fn find_counterexample(
        &mut self,
        pool: &mut QueryPool<'_, I, O>,
        hypothesis: &Mealy<I, O>,
    ) -> Result<Option<Vec<I>>, OracleError> {
        let outcome = pool.run_tests(hypothesis, wp_method_suite_iter(hypothesis, self.depth))?;
        Ok(outcome.counterexample)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{MealyOracle, MembershipOracle};
    use automata::MealyBuilder;

    /// A counter modulo `n` over a single input, outputting whether it
    /// wrapped.
    fn counter(n: usize) -> Mealy<&'static str, bool> {
        let mut b = MealyBuilder::new(vec!["t"]);
        let states: Vec<_> = (0..n).map(|_| b.add_state()).collect();
        for i in 0..n {
            b.add_transition(states[i], "t", states[(i + 1) % n], i + 1 == n);
        }
        b.build(states[0]).unwrap()
    }

    /// A factory cloning `system` into fresh simulated teachers.
    fn factory_for(
        system: &Mealy<&'static str, bool>,
    ) -> impl Fn() -> MealyOracle<&'static str, bool> {
        let system = system.clone();
        move || MealyOracle::new(system.clone())
    }

    #[test]
    fn equivalent_machines_yield_no_counterexample() {
        let target = counter(3);
        let factory = factory_for(&target);
        let mut pool = QueryPool::new(&factory);
        let mut wp = WpMethodOracle::new(1);
        assert_eq!(wp.find_counterexample(&mut pool, &target).unwrap(), None);
        assert!(pool.tests_run() > 0);
    }

    #[test]
    fn wp_method_finds_missing_states_within_depth() {
        // Hypothesis: counter modulo 2; system: counter modulo 3.  The
        // difference needs 1 extra state, so depth 1 must find it.
        let factory = factory_for(&counter(3));
        let hypothesis = counter(2);
        let mut pool = QueryPool::new(&factory);
        let mut wp = WpMethodOracle::new(1);
        let cex = wp
            .find_counterexample(&mut pool, &hypothesis)
            .unwrap()
            .expect("a counterexample must exist");
        // Replay: outputs must differ on the last symbol.
        let mut replay = MealyOracle::new(counter(3));
        assert_ne!(
            replay.query(&cex).unwrap().last(),
            hypothesis.output_word(cex.iter()).last()
        );
    }

    #[test]
    fn counterexamples_are_shortest_failing_prefixes() {
        let system = counter(3);
        let factory = factory_for(&system);
        let hypothesis = counter(2);
        let mut pool = QueryPool::new(&factory);
        let mut wp = WpMethodOracle::new(1);
        let cex = wp
            .find_counterexample(&mut pool, &hypothesis)
            .unwrap()
            .unwrap();
        // Every proper prefix of the counterexample agrees.
        for len in 1..cex.len() {
            assert_eq!(
                system.output_word(cex[..len].iter()),
                hypothesis.output_word(cex[..len].iter())
            );
        }
    }
}
