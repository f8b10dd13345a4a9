//! Trace-equivalence checking of Mealy machines.
//!
//! Two deterministic complete Mealy machines over the same input alphabet are
//! trace-equivalent iff no input word distinguishes them; because both are
//! deterministic this can be decided by a breadth-first search of the product
//! machine (at most `|A| * |B|` pairs).
//!
//! For policies learned from hardware the numbering of cache lines is an
//! artifact of the reset sequence (the i-th line is "the line that holds the
//! i-th block of the initial content"); `polca::identify_policy` searches the
//! line permutations, which it knows from the policy alphabet.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::hash::Hash;

use crate::mealy::{Mealy, StateId};

/// A distinguishing input word together with the two conflicting outputs it
/// produces on the last symbol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample<I, O> {
    /// The distinguishing input word.
    pub word: Vec<I>,
    /// Output of the left machine on the last symbol of `word`.
    pub left_output: O,
    /// Output of the right machine on the last symbol of `word`.
    pub right_output: O,
}

/// Checks trace equivalence and returns a counterexample if the machines
/// differ.
///
/// Both machines must be over the same input alphabet (same set of symbols;
/// order may differ).  Inputs present in only one machine make the machines
/// trivially incomparable and are reported as a counterexample with an empty
/// word is not possible, so this function panics instead.
///
/// # Panics
///
/// Panics if the alphabets differ as sets.
pub fn check_equivalence<I, O>(a: &Mealy<I, O>, b: &Mealy<I, O>) -> Option<Counterexample<I, O>>
where
    I: Clone + Eq + Hash + fmt::Debug,
    O: Clone + Eq + fmt::Debug,
{
    let inputs = a.inputs();
    assert_eq!(
        {
            let mut x: Vec<_> = inputs.iter().map(|i| format!("{i:?}")).collect();
            x.sort();
            x
        },
        {
            let mut x: Vec<_> = b.inputs().iter().map(|i| format!("{i:?}")).collect();
            x.sort();
            x
        },
        "machines must share the same input alphabet"
    );

    // BFS over the product, remembering the predecessor to reconstruct a
    // shortest distinguishing word: product state -> (predecessor, input index)
    // or None for the start state.
    type ProductState = (StateId, StateId);
    type Predecessor = Option<(ProductState, usize)>;
    let mut visited: HashMap<ProductState, Predecessor> = HashMap::new();
    let start = (a.initial(), b.initial());
    visited.insert(start, None);
    let mut queue = VecDeque::new();
    queue.push_back(start);

    while let Some((sa, sb)) = queue.pop_front() {
        for (ia, input) in inputs.iter().enumerate() {
            let (na, oa) = a.step_by_index(sa, ia);
            let ib = b
                .input_position(input)
                .expect("alphabet mismatch checked above");
            let (nb, ob) = b.step_by_index(sb, ib);
            if oa != ob {
                // Reconstruct the path to (sa, sb), then append `input`.
                let mut word = vec![input.clone()];
                let mut cur = (sa, sb);
                while let Some(Some((prev, pi))) = visited.get(&cur) {
                    word.push(inputs[*pi].clone());
                    cur = *prev;
                }
                word.reverse();
                return Some(Counterexample {
                    word,
                    left_output: oa.clone(),
                    right_output: ob.clone(),
                });
            }
            let next = (na, nb);
            if let std::collections::hash_map::Entry::Vacant(e) = visited.entry(next) {
                e.insert(Some(((sa, sb), ia)));
                queue.push_back(next);
            }
        }
    }
    None
}

/// Returns `true` iff the two machines are trace-equivalent.
///
/// # Panics
///
/// Panics if the alphabets differ as sets (see [`check_equivalence`]).
pub fn equivalent<I, O>(a: &Mealy<I, O>, b: &Mealy<I, O>) -> bool
where
    I: Clone + Eq + Hash + fmt::Debug,
    O: Clone + Eq + fmt::Debug,
{
    check_equivalence(a, b).is_none()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mealy::MealyBuilder;

    fn machine(outputs: [&'static str; 2]) -> Mealy<&'static str, &'static str> {
        // One-state machine mapping input k to outputs[k].
        let mut b = MealyBuilder::new(vec!["a", "b"]);
        let s = b.add_state();
        b.add_transition(s, "a", s, outputs[0]);
        b.add_transition(s, "b", s, outputs[1]);
        b.build(s).unwrap()
    }

    fn lru2() -> Mealy<&'static str, &'static str> {
        let mut b = MealyBuilder::new(vec!["Ln(0)", "Ln(1)", "Evct"]);
        let cs0 = b.add_state();
        let cs1 = b.add_state();
        b.add_transition(cs0, "Ln(0)", cs1, "⊥");
        b.add_transition(cs0, "Ln(1)", cs0, "⊥");
        b.add_transition(cs0, "Evct", cs1, "0");
        b.add_transition(cs1, "Ln(0)", cs1, "⊥");
        b.add_transition(cs1, "Ln(1)", cs0, "⊥");
        b.add_transition(cs1, "Evct", cs0, "1");
        b.build(cs0).unwrap()
    }

    /// FIFO with 2 lines has the same alphabet but different traces than LRU:
    /// a hit does not refresh the line.
    fn fifo2() -> Mealy<&'static str, &'static str> {
        let mut b = MealyBuilder::new(vec!["Ln(0)", "Ln(1)", "Evct"]);
        let cs0 = b.add_state();
        let cs1 = b.add_state();
        b.add_transition(cs0, "Ln(0)", cs0, "⊥");
        b.add_transition(cs0, "Ln(1)", cs0, "⊥");
        b.add_transition(cs0, "Evct", cs1, "0");
        b.add_transition(cs1, "Ln(0)", cs1, "⊥");
        b.add_transition(cs1, "Ln(1)", cs1, "⊥");
        b.add_transition(cs1, "Evct", cs0, "1");
        b.build(cs0).unwrap()
    }

    #[test]
    fn identical_machines_are_equivalent() {
        assert!(equivalent(&lru2(), &lru2()));
        assert!(check_equivalence(&lru2(), &lru2()).is_none());
    }

    #[test]
    fn lru_and_fifo_differ_and_counterexample_is_replayable() {
        let lru = lru2();
        let fifo = fifo2();
        let cex = check_equivalence(&lru, &fifo).expect("must differ");
        let lo = lru.last_output(cex.word.iter()).unwrap();
        let fo = fifo.last_output(cex.word.iter()).unwrap();
        assert_ne!(lo, fo);
        assert_eq!(lo, cex.left_output);
        assert_eq!(fo, cex.right_output);
    }

    #[test]
    fn counterexample_is_shortest() {
        // LRU vs FIFO at associativity 2 first differ after a hit on line 0
        // followed by an eviction: LRU evicts line 1, FIFO evicts line 0.
        let cex = check_equivalence(&lru2(), &fifo2()).unwrap();
        assert_eq!(cex.word.len(), 2);
    }

    #[test]
    #[should_panic(expected = "same input alphabet")]
    fn different_alphabets_panic() {
        let a = machine(["x", "y"]);
        let mut b = MealyBuilder::new(vec!["a"]);
        let s = b.add_state();
        b.add_transition(s, "a", s, "x");
        let b = b.build(s).unwrap();
        check_equivalence(&a, &b);
    }
}
