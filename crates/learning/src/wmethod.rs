//! Test-suite generation for conformance testing: state cover,
//! characterization sets, and the Wp-method.
//!
//! The equivalence queries of the learning loop are approximated by
//! conformance testing (§3.3): an `(|H| + k)`-complete test suite guarantees
//! that if the system under learning agrees with the hypothesis on every test
//! word, then either the two machines are equivalent or the system has more
//! than `|H| + k` states (Theorem 3.3).
//!
//! The suite is *lazy*: [`wp_method_suite_iter`] yields test words on
//! demand, so an equivalence query that fails on an early test never
//! materializes the (exponentially large) tail of the suite.  It yields the
//! product's repeats too; [`QueryPool::run_tests`] skips a repeat on the
//! prefix trie it walks anyway.  The eager [`wp_method_suite`] collects the
//! distinct words, in first-occurrence order, for callers that want the
//! whole suite.
//!
//! [`QueryPool::run_tests`]: crate::QueryPool::run_tests

use std::fmt;
use std::hash::Hash;

use automata::fxhash::{FxHashMap, FxHashSet};
use automata::{Mealy, StateId};

/// Breadth-first state cover: for every state, a shortest input word reaching
/// it from the initial state.  The cover is returned indexed by state.
pub fn state_cover<I, O>(machine: &Mealy<I, O>) -> Vec<Vec<I>>
where
    I: Clone + Eq + Hash + fmt::Debug,
    O: Clone + Eq + fmt::Debug,
{
    let mut cover: Vec<Option<Vec<I>>> = vec![None; machine.num_states()];
    let mut queue = std::collections::VecDeque::new();
    cover[machine.initial().index()] = Some(Vec::new());
    queue.push_back(machine.initial());
    while let Some(state) = queue.pop_front() {
        let prefix = cover[state.index()]
            .clone()
            .expect("visited states have a prefix");
        for (ii, input) in machine.inputs().iter().enumerate() {
            let (next, _) = machine.step_by_index(state, ii);
            if cover[next.index()].is_none() {
                let mut word = prefix.clone();
                word.push(input.clone());
                cover[next.index()] = Some(word);
                queue.push_back(next);
            }
        }
    }
    cover
        .into_iter()
        .map(|c| c.expect("every state of a learned hypothesis is reachable"))
        .collect()
}

/// A characterization set `W`: a set of input words such that any two distinct
/// states of `machine` produce different output words on at least one element
/// of `W`.
///
/// Also returns, for every state, the indices into `W` that suffice to
/// distinguish that state from every other state (the per-state
/// identification sets `Wi` used by the Wp-method).
// Index loops over symmetric state pairs (writing both [a][b] and [b][a])
// read better than the iterator forms clippy suggests.
#[allow(clippy::needless_range_loop)]
pub fn characterization_set<I, O>(machine: &Mealy<I, O>) -> (Vec<Vec<I>>, Vec<Vec<usize>>)
where
    I: Clone + Eq + Hash + fmt::Debug,
    O: Clone + Eq + Hash + fmt::Debug,
{
    let n = machine.num_states();
    let mut w: Vec<Vec<I>> = Vec::new();

    // Partition refinement, remembering a distinguishing word for every pair
    // of states that ends up separated.
    // distinguishing[a][b] = index into `w` of a word separating a and b.
    let mut distinguishing: Vec<Vec<Option<usize>>> = vec![vec![None; n]; n];

    // Initial partition by the output row (single-symbol words).
    for (ii, input) in machine.inputs().iter().enumerate() {
        let mut word_index: Option<usize> = None;
        for a in 0..n {
            for b in (a + 1)..n {
                if distinguishing[a][b].is_some() {
                    continue;
                }
                let oa = machine.step_by_index(StateId::new(a), ii).1;
                let ob = machine.step_by_index(StateId::new(b), ii).1;
                if oa != ob {
                    let wi = *word_index.get_or_insert_with(|| {
                        w.push(vec![input.clone()]);
                        w.len() - 1
                    });
                    distinguishing[a][b] = Some(wi);
                    distinguishing[b][a] = Some(wi);
                }
            }
        }
    }

    // Iteratively: if two states are undistinguished but some input leads them
    // to distinguished successors, prepend that input to the successors'
    // distinguishing word.
    loop {
        let mut progress = false;
        for a in 0..n {
            for b in (a + 1)..n {
                if distinguishing[a][b].is_some() {
                    continue;
                }
                'inputs: for (ii, input) in machine.inputs().iter().enumerate() {
                    let (na, _) = machine.step_by_index(StateId::new(a), ii);
                    let (nb, _) = machine.step_by_index(StateId::new(b), ii);
                    if na == nb {
                        continue;
                    }
                    if let Some(wi) = distinguishing[na.index()][nb.index()] {
                        let mut word = vec![input.clone()];
                        word.extend(w[wi].iter().cloned());
                        w.push(word);
                        let new_index = w.len() - 1;
                        distinguishing[a][b] = Some(new_index);
                        distinguishing[b][a] = Some(new_index);
                        progress = true;
                        break 'inputs;
                    }
                }
            }
        }
        if !progress {
            break;
        }
    }

    // Deduplicate words while remapping indices.
    let mut dedup: FxHashMap<Vec<I>, usize> = FxHashMap::default();
    let mut compact: Vec<Vec<I>> = Vec::new();
    let mut remap = vec![0usize; w.len()];
    for (i, word) in w.iter().enumerate() {
        let idx = *dedup.entry(word.clone()).or_insert_with(|| {
            compact.push(word.clone());
            compact.len() - 1
        });
        remap[i] = idx;
    }

    let mut identification: Vec<Vec<usize>> = vec![Vec::new(); n];
    for a in 0..n {
        for b in 0..n {
            if a == b {
                continue;
            }
            if let Some(wi) = distinguishing[a][b] {
                let idx = remap[wi];
                if !identification[a].contains(&idx) {
                    identification[a].push(idx);
                }
            }
        }
        identification[a].sort_unstable();
    }

    if compact.is_empty() {
        // A one-state machine (or one whose states are indistinguishable —
        // impossible for minimal hypotheses): use a single arbitrary word so
        // that the test suite still exercises outputs.
        if let Some(first) = machine.inputs().first() {
            compact.push(vec![first.clone()]);
        }
        for ident in &mut identification {
            ident.push(0);
        }
    }

    (compact, identification)
}

/// All input words of length at most `k` (including the empty word), in
/// length-lexicographic order.
fn words_up_to<I: Clone>(inputs: &[I], k: usize) -> Vec<Vec<I>> {
    let mut result = vec![Vec::new()];
    let mut frontier = vec![Vec::new()];
    for _ in 0..k {
        let mut next = Vec::new();
        for word in &frontier {
            for input in inputs {
                let mut extended: Vec<I> = word.clone();
                extended.push(input.clone());
                next.push(extended);
            }
        }
        result.extend(next.iter().cloned());
        frontier = next;
    }
    result
}

/// Odometer over the `prefixes × middles × w` product of a test suite,
/// advanced by repeated increments instead of the three divisions per word
/// the linear-cursor form costs on a multi-million-word suite.
#[derive(Debug, Clone, Copy)]
struct ProductCursor {
    prefix: usize,
    middle: usize,
    word: usize,
}

impl ProductCursor {
    fn start() -> Self {
        ProductCursor {
            prefix: 0,
            middle: 0,
            word: 0,
        }
    }

    /// Advances to the next (prefix, middle, word) triple, rolling the
    /// rightmost position fastest — the same order as the linear cursor.
    fn advance(&mut self, middles: usize, words: usize) {
        self.word += 1;
        if self.word == words {
            self.word = 0;
            self.middle += 1;
            if self.middle == middles {
                self.middle = 0;
                self.prefix += 1;
            }
        }
    }
}

/// Lazy Wp-method suite; see [`wp_method_suite_iter`].
///
/// Phase 1 checks the state cover against the full characterization set
/// (`S · I^{≤k} · W`); phase 2 checks the remaining transitions against the
/// identification sets of the states they reach (`R · I^{≤k} ⊗ Wp`).  The
/// product repeats words (`ε · a · w` and `a · ε · w`, say): the suite
/// yields every candidate, and [`QueryPool::run_tests`] executes each
/// distinct word once, at its first occurrence.
///
/// [`QueryPool::run_tests`]: crate::QueryPool::run_tests
#[derive(Debug)]
pub struct WpMethodSuite<'m, I, O> {
    machine: &'m Mealy<I, O>,
    cover: Vec<Vec<I>>,
    cover_set: FxHashSet<Vec<I>>,
    middles: Vec<Vec<I>>,
    w: Vec<Vec<I>>,
    identification: Vec<Vec<usize>>,
    /// Odometer over the phase-1 `cover × middles × w` product, or past its
    /// end once phase 2 begins.
    phase1_cursor: ProductCursor,
    /// Phase-2 position: (cover index, input index, middle index).
    transition: (usize, usize, usize),
    /// The current phase-2 base word and its identification set.
    base: Option<(Vec<I>, usize, usize)>, // (base word, reached state, next ident position)
}

impl<I, O> WpMethodSuite<'_, I, O>
where
    I: Clone + Eq + Hash + fmt::Debug,
    O: Clone + Eq + fmt::Debug,
{
    /// Advances the phase-2 state machine to the next base word, if any.
    fn advance_base(&mut self) -> bool {
        let inputs = self.machine.inputs();
        if inputs.is_empty() {
            // Degenerate machines over an empty alphabet have no transitions
            // to test.
            return false;
        }
        let (mut ci, mut ii, mut mi) = self.transition;
        // Moves to the next transition word, resetting the middle index.
        let next_transition = |ci: usize, ii: usize| {
            if ii + 1 >= inputs.len() {
                (ci + 1, 0, 0)
            } else {
                (ci, ii + 1, 0)
            }
        };
        while ci < self.cover.len() {
            let mut transition_word = self.cover[ci].clone();
            transition_word.push(inputs[ii].clone());
            if self.cover_set.contains(&transition_word) {
                (ci, ii, mi) = next_transition(ci, ii);
                continue;
            }
            if mi < self.middles.len() {
                let mut base = transition_word;
                base.extend(self.middles[mi].iter().cloned());
                let reached = self.machine.delta(self.machine.initial(), base.iter());
                self.transition = (ci, ii, mi + 1);
                self.base = Some((base, reached.index(), 0));
                return true;
            }
            (ci, ii, mi) = next_transition(ci, ii);
        }
        self.transition = (ci, ii, mi);
        false
    }
}

impl<I, O> Iterator for WpMethodSuite<'_, I, O>
where
    I: Clone + Eq + Hash + fmt::Debug,
    O: Clone + Eq + fmt::Debug,
{
    type Item = Vec<I>;

    fn next(&mut self) -> Option<Vec<I>> {
        // Phase 1: state cover × I^{≤k} × W.
        if !self.middles.is_empty() && !self.w.is_empty() {
            let ProductCursor {
                prefix,
                middle,
                word,
            } = self.phase1_cursor;
            if let Some(prefix) = self.cover.get(prefix) {
                self.phase1_cursor.advance(self.middles.len(), self.w.len());
                return Some([&prefix[..], &self.middles[middle][..], &self.w[word][..]].concat());
            }
        }

        // Phase 2: transitions not in the state cover × I^{≤k} × the
        // identification set of the state the word reaches in the hypothesis.
        loop {
            if let Some((base, reached, ident_pos)) = &mut self.base {
                if let Some(&wi) = self.identification[*reached].get(*ident_pos) {
                    *ident_pos += 1;
                    return Some([base.as_slice(), &self.w[wi]].concat());
                }
                self.base = None;
            }
            if !self.advance_base() {
                return None;
            }
        }
    }
}

/// Lazily yields the Wp-method test suite for extra depth `k`: every
/// candidate, repeats included (see [`WpMethodSuite`]).
pub fn wp_method_suite_iter<I, O>(machine: &Mealy<I, O>, k: usize) -> WpMethodSuite<'_, I, O>
where
    I: Clone + Eq + Hash + fmt::Debug,
    O: Clone + Eq + Hash + fmt::Debug,
{
    let cover = state_cover(machine);
    let (w, identification) = characterization_set(machine);
    WpMethodSuite {
        machine,
        cover_set: cover.iter().cloned().collect(),
        cover,
        middles: words_up_to(machine.inputs(), k),
        w,
        identification,
        phase1_cursor: ProductCursor::start(),
        transition: (0, 0, 0),
        base: None,
    }
}

/// The Wp-method test suite for extra depth `k`, collected eagerly: the
/// distinct words of [`wp_method_suite_iter`], in first-occurrence order.
pub fn wp_method_suite<I, O>(machine: &Mealy<I, O>, k: usize) -> Vec<Vec<I>>
where
    I: Clone + Eq + Hash + fmt::Debug,
    O: Clone + Eq + Hash + fmt::Debug,
{
    let mut seen = FxHashSet::default();
    wp_method_suite_iter(machine, k)
        .filter(|word| seen.insert(word.clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use automata::MealyBuilder;

    fn three_state() -> Mealy<&'static str, u8> {
        let mut b = MealyBuilder::new(vec!["a", "b"]);
        let s: Vec<_> = (0..3).map(|_| b.add_state()).collect();
        for i in 0..3 {
            b.add_transition(s[i], "a", s[(i + 1) % 3], 0);
            b.add_transition(s[i], "b", s[i], i as u8);
        }
        b.build(s[0]).unwrap()
    }

    #[test]
    fn state_cover_reaches_every_state_shortest_first() {
        let m = three_state();
        let cover = state_cover(&m);
        assert_eq!(cover.len(), 3);
        assert_eq!(cover[0], Vec::<&str>::new());
        assert_eq!(cover[1], vec!["a"]);
        assert_eq!(cover[2], vec!["a", "a"]);
        for (i, word) in cover.iter().enumerate() {
            assert_eq!(m.delta(m.initial(), word.iter()).index(), i);
        }
    }

    #[test]
    fn characterization_set_separates_all_state_pairs() {
        let m = three_state();
        let (w, ident) = characterization_set(&m);
        assert!(!w.is_empty());
        for a in 0..3 {
            for b in (a + 1)..3 {
                let separated = w.iter().any(|word| {
                    let run = |s: usize| {
                        let mut state = StateId::new(s);
                        let mut outputs = Vec::new();
                        for i in word {
                            let (next, o) = m.step(state, i);
                            outputs.push(o);
                            state = next;
                        }
                        outputs
                    };
                    run(a) != run(b)
                });
                assert!(separated, "states {a} and {b} not separated by W");
            }
        }
        assert_eq!(ident.len(), 3);
        assert!(ident.iter().all(|ws| !ws.is_empty()));
    }

    #[test]
    fn single_state_machines_get_a_nonempty_suite() {
        let mut b = MealyBuilder::new(vec!["x"]);
        let s = b.add_state();
        b.add_transition(s, "x", s, 1u8);
        let m = b.build(s).unwrap();
        let (w, _) = characterization_set(&m);
        assert_eq!(w.len(), 1);
        assert!(!wp_method_suite(&m, 1).is_empty());
    }

    #[test]
    fn suites_contain_no_duplicates_or_empty_words() {
        let m = three_state();
        for k in [1, 2] {
            let mut seen = std::collections::HashSet::new();
            for word in &wp_method_suite(&m, k) {
                assert!(!word.is_empty());
                assert!(seen.insert(word.clone()), "duplicate word {word:?}");
            }
        }
    }

    #[test]
    fn lazy_and_eager_suites_agree() {
        // The eager suite is the lazy candidate stream with every repeat
        // dropped, in first-occurrence order.
        fn distinct(suite: impl Iterator<Item = Vec<&'static str>>) -> Vec<Vec<&'static str>> {
            let mut seen = std::collections::HashSet::new();
            suite.filter(|word| seen.insert(word.clone())).collect()
        }
        let m = three_state();
        for k in [0usize, 1, 2] {
            assert_eq!(
                wp_method_suite(&m, k),
                distinct(wp_method_suite_iter(&m, k))
            );
        }
        // The product does repeat words, which the lazy suite leaves to the
        // conformance run to skip.
        assert!(wp_method_suite_iter(&m, 1).count() > wp_method_suite(&m, 1).len());
    }

    #[test]
    fn lazy_suites_yield_without_full_materialization() {
        // Pulling a handful of words from a lazy suite must work (the whole
        // point: failing equivalence queries never build the full suite).
        let m = three_state();
        let first: Vec<_> = wp_method_suite_iter(&m, 2).take(3).collect();
        assert_eq!(first.len(), 3);
        assert_eq!(first, wp_method_suite(&m, 2)[..3].to_vec());
    }

    #[test]
    fn words_up_to_counts() {
        let words = words_up_to(&["a", "b"], 2);
        // ε, 2 words of length 1, 4 of length 2.
        assert_eq!(words.len(), 7);
    }

    #[test]
    fn empty_alphabet_machines_get_empty_suites() {
        // Degenerate but constructible: a machine with no inputs.  The lazy
        // iterator must terminate with an empty suite (as the eager function
        // always did) instead of panicking.
        let mut b: MealyBuilder<&str, u8> = MealyBuilder::new(vec![]);
        let s = b.add_state();
        let m = b.build(s).unwrap();
        assert_eq!(wp_method_suite(&m, 1), Vec::<Vec<&str>>::new());
    }
}
