//! Property tests for conformance-suite deduplication on the prefix trie:
//! `QueryPool::run_tests` over a lazy suite, repeats included, executes
//! exactly the suite's first occurrences, in order, up to and including the
//! counterexample — and counts and asks exactly what a run over the
//! pre-filtered suite does.

use std::cell::RefCell;
use std::rc::Rc;

use automata::{explore, ExploreLimit, Mealy};
use learning::{
    w_method_suite, w_method_suite_iter, wp_method_suite, wp_method_suite_iter, MembershipOracle,
    OracleError, QueryPool, SuiteOutcome,
};
use proptest::prelude::*;

const INPUTS: [&str; 3] = ["a", "b", "c"];

/// A random complete machine over `INPUTS` with outputs in `0..2`.
fn random_machine(states: usize, rows: Vec<Vec<(usize, u8)>>) -> Mealy<&'static str, u8> {
    explore(
        0usize,
        INPUTS.to_vec(),
        move |s, input| {
            let ii = INPUTS.iter().position(|i| i == input).expect("known input");
            let (next, out) = rows[*s % states][ii];
            (next % states, out)
        },
        ExploreLimit::default(),
    )
    .expect("bounded exploration")
}

fn machine_strategy() -> impl Strategy<Value = Mealy<&'static str, u8>> {
    (1usize..5)
        .prop_flat_map(|states| {
            let rows = proptest::collection::vec(
                proptest::collection::vec((0..states, 0u8..2), 3..=3),
                states..=states,
            );
            (Just(states), rows)
        })
        .prop_map(|(states, rows)| random_machine(states, rows))
}

/// A teacher that logs every word it is asked, in order.
struct Logged {
    machine: Mealy<&'static str, u8>,
    log: Rc<RefCell<Vec<Vec<&'static str>>>>,
}

impl MembershipOracle<&'static str, u8> for Logged {
    fn query(&mut self, word: &[&'static str]) -> Result<Vec<u8>, OracleError> {
        self.log.borrow_mut().push(word.to_vec());
        Ok(self.machine.output_word(word.iter()))
    }

    fn queries_answered(&self) -> u64 {
        self.log.borrow().len() as u64
    }
}

/// What one run observably did: its outcome, the pool's counters and the
/// words that reached the teacher.
type Observed = (SuiteOutcome<&'static str>, u64, u64, Vec<Vec<&'static str>>);

/// Runs `suite` against `hypothesis` on a fresh pool over `system`, after
/// the same warm-up queries every run gets.
fn observe(
    system: &Mealy<&'static str, u8>,
    hypothesis: &Mealy<&'static str, u8>,
    warm_up: &[Vec<&'static str>],
    suite: impl Iterator<Item = Vec<&'static str>>,
) -> Observed {
    let log = Rc::new(RefCell::new(Vec::new()));
    let (machine, shared) = (system.clone(), Rc::clone(&log));
    let factory = move || Logged {
        machine: machine.clone(),
        log: Rc::clone(&shared),
    };
    let mut pool = QueryPool::new(&factory);
    for word in warm_up {
        pool.query_word(word).unwrap();
    }
    let outcome = pool.run_tests(hypothesis, suite).unwrap();
    let asked = log.borrow().clone();
    (outcome, pool.cache_hits(), pool.cache_misses(), asked)
}

proptest! {
    #[test]
    fn runs_execute_the_first_occurrences_of_the_suite(
        system in machine_strategy(),
        hypothesis in machine_strategy(),
        depth in 0usize..3,
        warm_up in proptest::collection::vec(
            proptest::collection::vec(proptest::sample::select(INPUTS.to_vec()), 1..6),
            0..4,
        ),
    ) {
        for wp in [false, true] {
            let (distinct, candidates): (_, Box<dyn Iterator<Item = Vec<&str>>>) = if wp {
                (wp_method_suite(&hypothesis, depth), Box::new(wp_method_suite_iter(&hypothesis, depth)))
            } else {
                (w_method_suite(&hypothesis, depth), Box::new(w_method_suite_iter(&hypothesis, depth)))
            };
            // The reference: the first occurrences up to the first word the
            // system answers differently from the hypothesis.
            let failing = distinct.iter().position(|word| {
                system.output_word(word.iter()) != hypothesis.output_word(word.iter())
            });
            let executed = failing.map_or(distinct.len(), |i| i + 1);
            let counterexample = failing.map(|i| {
                let word = &distinct[i];
                let actual = system.output_word(word.iter());
                let predicted = hypothesis.output_word(word.iter());
                let cut = actual.iter().zip(&predicted).position(|(a, p)| a != p).unwrap();
                word[..=cut].to_vec()
            });

            let deduplicated = observe(&system, &hypothesis, &warm_up, candidates);
            prop_assert_eq!(
                &deduplicated.0,
                &SuiteOutcome { counterexample, tests_executed: executed as u64 }
            );
            // Counts and teacher traffic equal a run over the pre-filtered
            // suite, which has no repeat to skip.
            let filtered = observe(&system, &hypothesis, &warm_up, distinct.iter().cloned());
            prop_assert_eq!(deduplicated, filtered);
        }
    }
}
