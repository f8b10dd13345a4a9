//! The observation table of L* for Mealy machines.

use std::fmt;
use std::hash::Hash;

use automata::fxhash::{FxHashMap, FxHashSet};
use automata::{Mealy, MealyBuilder, StateId};

use crate::oracle::OracleError;
use crate::pool::QueryPool;

/// The observation table: prefixes (short rows `S` and their one-letter
/// extensions) × distinguishing suffixes `E`, filled with the output words the
/// system produces for the suffix after the prefix.
#[derive(Debug)]
pub struct ObservationTable<I, O> {
    inputs: Vec<I>,
    /// Short prefixes (access-string candidates).  Prefix-closed, `S[0] = ε`.
    short: Vec<Vec<I>>,
    /// Distinguishing suffixes (all non-empty).
    suffixes: Vec<Vec<I>>,
    /// Table contents: prefix → per-suffix output words.
    rows: FxHashMap<Vec<I>, Vec<Vec<O>>>,
}

impl<I, O> ObservationTable<I, O>
where
    I: Clone + Eq + Hash + fmt::Debug,
    O: Clone + Eq + Hash + fmt::Debug,
{
    /// Creates a table over `inputs` with `S = {ε}` and one suffix per input
    /// symbol (the canonical initialization for Mealy machines, which makes
    /// output functions observable from the start).
    pub fn new(inputs: Vec<I>) -> Self {
        let suffixes = inputs.iter().map(|i| vec![i.clone()]).collect();
        ObservationTable {
            inputs,
            short: vec![Vec::new()],
            suffixes,
            rows: FxHashMap::default(),
        }
    }

    /// The short prefixes currently in the table.
    pub fn short_prefixes(&self) -> &[Vec<I>] {
        &self.short
    }

    /// The distinguishing suffixes currently in the table.
    pub fn suffixes(&self) -> &[Vec<I>] {
        &self.suffixes
    }

    /// Fills any missing cells by querying the pool.
    ///
    /// All missing cells of a refinement step are gathered first and issued
    /// as one [`QueryPool::query_batch`], so the cells are answered from the
    /// prefix-trie cache where possible and each distinct missing word
    /// reaches the oracle once.
    ///
    /// # Errors
    ///
    /// Propagates oracle errors.
    pub fn fill(&mut self, pool: &mut QueryPool<'_, I, O>) -> Result<(), OracleError> {
        // Gather the missing cells: for every row prefix, the words
        // `prefix · suffix` for each not-yet-filled suffix column.
        let mut row_prefixes: Vec<Vec<I>> = Vec::new();
        for s in &self.short {
            row_prefixes.push(s.clone());
            for a in &self.inputs {
                let mut extended = s.clone();
                extended.push(a.clone());
                row_prefixes.push(extended);
            }
        }
        let mut pending: Vec<(Vec<I>, usize)> = Vec::new(); // (prefix, first missing column)
        let mut queued: FxHashSet<Vec<I>> = FxHashSet::default();
        let mut words: Vec<Vec<I>> = Vec::new();
        for prefix in row_prefixes {
            let filled = self.rows.get(&prefix).map(|r| r.len()).unwrap_or(0);
            if filled == self.suffixes.len() || !queued.insert(prefix.clone()) {
                continue;
            }
            for suffix in &self.suffixes[filled..] {
                let mut word = prefix.clone();
                word.extend(suffix.iter().cloned());
                words.push(word);
            }
            pending.push((prefix, filled));
        }
        if words.is_empty() {
            return Ok(());
        }

        let answers = pool.query_batch(&words)?;
        let mut cursor = 0usize;
        for (prefix, filled) in pending {
            let mut row = self.rows.remove(&prefix).unwrap_or_default();
            debug_assert_eq!(row.len(), filled);
            for _ in filled..self.suffixes.len() {
                let (word, outputs) = (&words[cursor], &answers[cursor]);
                cursor += 1;
                debug_assert!(word.starts_with(&prefix));
                if outputs.len() != word.len() {
                    return Err(OracleError::new(format!(
                        "oracle returned {} outputs for a word of length {}",
                        outputs.len(),
                        word.len()
                    )));
                }
                row.push(outputs[prefix.len()..].to_vec());
            }
            self.rows.insert(prefix, row);
        }
        debug_assert_eq!(cursor, words.len());
        Ok(())
    }

    /// The row signature of a prefix (its per-suffix output words).
    ///
    /// # Panics
    ///
    /// Panics if the row has not been filled.
    pub fn row(&self, prefix: &[I]) -> &[Vec<O>] {
        self.rows
            .get(prefix)
            .unwrap_or_else(|| panic!("row for prefix {prefix:?} has not been filled"))
    }

    /// Returns an unclosedness witness: a one-letter extension of a short
    /// prefix whose row matches no short row, if any.
    pub fn find_unclosed(&self) -> Option<Vec<I>> {
        let short_rows: FxHashSet<&[Vec<O>]> = self.short.iter().map(|s| self.row(s)).collect();
        for s in &self.short {
            for a in &self.inputs {
                let mut extended = s.clone();
                extended.push(a.clone());
                let row = self.row(&extended);
                if !short_rows.contains(row) {
                    return Some(extended);
                }
            }
        }
        None
    }

    /// Promotes a prefix to the short rows (used when closing the table).
    pub fn promote(&mut self, prefix: Vec<I>) {
        if !self.short.contains(&prefix) {
            self.short.push(prefix);
        }
    }

    /// Adds a distinguishing suffix.  Returns `false` if it was already
    /// present.
    pub fn add_suffix(&mut self, suffix: Vec<I>) -> bool {
        if suffix.is_empty() || self.suffixes.contains(&suffix) {
            return false;
        }
        self.suffixes.push(suffix);
        true
    }

    /// Builds the hypothesis machine from a closed table and returns it
    /// together with the access string of each state.
    ///
    /// # Panics
    ///
    /// Panics if the table is not closed or not filled.
    pub fn hypothesis(&self) -> (Mealy<I, O>, Vec<Vec<I>>) {
        // Assign a state to each distinct short row, keeping the first
        // occurrence as the access string.
        let mut state_of_row: FxHashMap<Vec<Vec<O>>, StateId> = FxHashMap::default();
        let mut access: Vec<Vec<I>> = Vec::new();
        for s in &self.short {
            let row = self.row(s).to_vec();
            if let std::collections::hash_map::Entry::Vacant(e) = state_of_row.entry(row) {
                let id = StateId::new(access.len());
                e.insert(id);
                access.push(s.clone());
            }
        }

        let mut builder = MealyBuilder::new(self.inputs.clone());
        for _ in 0..access.len() {
            builder.add_state();
        }
        for (state_index, s) in access.iter().enumerate() {
            for (input_index, a) in self.inputs.iter().enumerate() {
                let mut extended = s.clone();
                extended.push(a.clone());
                let successor_row = self.row(&extended).to_vec();
                let successor = *state_of_row
                    .get(&successor_row)
                    .expect("table must be closed before building a hypothesis");
                // The output of `a` from this state is the first symbol of the
                // cell for the single-symbol suffix `a` (suffix i is the i-th
                // input by construction of `new`; later suffixes do not change
                // this because suffix 0..|inputs| are the single symbols).
                let output = self.row(s)[input_index][0].clone();
                builder.add_transition(StateId::new(state_index), a.clone(), successor, output);
            }
        }
        let machine = builder
            .build(StateId::new(0))
            .expect("closed and filled tables produce complete machines");
        (machine, access)
    }

    /// Total number of cells currently stored (diagnostics).
    #[allow(dead_code)]
    pub fn cells(&self) -> usize {
        self.rows.values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::MealyOracle;
    use automata::MealyBuilder;

    fn target() -> Mealy<&'static str, u8> {
        // A 3-state cyclic machine: "a" advances and outputs the new index,
        // "b" stays and outputs 9.
        let mut b = MealyBuilder::new(vec!["a", "b"]);
        let s: Vec<_> = (0..3).map(|_| b.add_state()).collect();
        for i in 0..3 {
            b.add_transition(s[i], "a", s[(i + 1) % 3], ((i + 1) % 3) as u8);
            b.add_transition(s[i], "b", s[i], 9);
        }
        b.build(s[0]).unwrap()
    }

    #[test]
    fn initial_table_has_one_suffix_per_input() {
        let table: ObservationTable<&str, u8> = ObservationTable::new(vec!["a", "b"]);
        assert_eq!(table.suffixes().len(), 2);
        assert_eq!(table.short_prefixes().len(), 1);
    }

    #[test]
    fn closing_the_table_discovers_all_states() {
        let machine = target();
        let factory = move || MealyOracle::new(machine.clone());
        let mut pool = QueryPool::new(&factory);
        let mut table = ObservationTable::new(vec!["a", "b"]);
        table.fill(&mut pool).unwrap();
        // Close the table by promoting unclosed rows until stable.
        while let Some(witness) = table.find_unclosed() {
            table.promote(witness);
            table.fill(&mut pool).unwrap();
        }
        let (hypothesis, access) = table.hypothesis();
        assert_eq!(hypothesis.num_states(), 3);
        assert_eq!(access.len(), 3);
        assert!(automata::equivalent(&hypothesis, &target()));
    }

    #[test]
    fn add_suffix_ignores_duplicates_and_empty() {
        let mut table: ObservationTable<&str, u8> = ObservationTable::new(vec!["a"]);
        assert!(!table.add_suffix(vec![]));
        assert!(!table.add_suffix(vec!["a"]));
        assert!(table.add_suffix(vec!["a", "a"]));
        assert!(!table.add_suffix(vec!["a", "a"]));
    }

    #[test]
    fn rows_store_suffix_outputs_only() {
        let machine = target();
        let factory = move || MealyOracle::new(machine.clone());
        let mut pool = QueryPool::new(&factory);
        let mut table = ObservationTable::new(vec!["a", "b"]);
        table.fill(&mut pool).unwrap();
        // Row of prefix "a" for suffix "a": output of the second "a" only.
        let row = table.row(&["a"]);
        assert_eq!(row[0], vec![2]);
        assert_eq!(row[1], vec![9]);
    }
}
