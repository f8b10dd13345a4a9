//! The observation table of L* for Mealy machines.
//!
//! Rows are kept by id, in the order they were created.  As a row's cells are
//! filled they are hash-consed into a *signature* id — `sig ← intern(sig,
//! intern(cell))`, starting from the empty signature `0` — so two rows hold
//! the same cells exactly when their signatures are equal.  Closedness checks
//! and hypothesis construction therefore compare `u32`s and never clone a
//! row.

use std::fmt;
use std::hash::Hash;

use automata::fxhash::{FxHashMap, FxHashSet};
use automata::{Mealy, MealyBuilder, StateId};

use crate::oracle::OracleError;
use crate::pool::QueryPool;

/// One prefix of the table and the cells filled for it so far.
#[derive(Debug)]
struct Row<I> {
    prefix: Vec<I>,
    /// Interned cell ids, one per filled suffix column, in column order.
    cells: Vec<u32>,
    /// Signature of `cells`.
    sig: u32,
}

impl<I> Row<I> {
    fn new(prefix: Vec<I>) -> Self {
        Row {
            prefix,
            cells: Vec::new(),
            sig: 0,
        }
    }
}

/// The observation table: prefixes (short rows `S` and their one-letter
/// extensions) × distinguishing suffixes `E`, filled with the output words the
/// system produces for the suffix after the prefix.
#[derive(Debug)]
pub struct ObservationTable<I, O> {
    inputs: Vec<I>,
    /// Distinguishing suffixes (all non-empty).
    suffixes: Vec<Vec<I>>,
    /// Every row, in creation order: `ε`, then the extensions of each short
    /// row in promotion order.  That is also the order in which
    /// [`fill`](Self::fill) asks for cells.
    rows: Vec<Row<I>>,
    /// Short rows in promotion order (prefix-closed, `short[0]` is `ε`).
    short: Vec<usize>,
    /// `extensions[k * inputs.len() + i]` is the row of `short[k] · inputs[i]`.
    extensions: Vec<usize>,
    /// Rows before this index have every column filled.
    filled: usize,
    /// Interned cell contents: id → output word, and output word → id.
    cells: Vec<Vec<O>>,
    cell_ids: FxHashMap<Vec<O>, u32>,
    /// `(signature, cell) → signature` of a row extended by one cell.
    sigs: FxHashMap<(u32, u32), u32>,
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
        let mut table = ObservationTable {
            inputs,
            suffixes,
            rows: vec![Row::new(Vec::new())],
            short: Vec::new(),
            extensions: Vec::new(),
            filled: 0,
            cells: Vec::new(),
            cell_ids: FxHashMap::default(),
            sigs: FxHashMap::default(),
        };
        table.promote(0);
        table
    }

    /// Number of short rows.
    pub fn num_short(&self) -> usize {
        self.short.len()
    }

    /// The distinguishing suffixes currently in the table.
    pub fn suffixes(&self) -> &[Vec<I>] {
        &self.suffixes
    }

    /// Fills every missing cell by querying the pool.
    ///
    /// Only rows with missing cells are visited: those created since the
    /// last fill, or every row after a suffix was added.  Their cells are
    /// issued as one [`QueryPool::query_batch`], row by row in creation
    /// order, so they are answered from the prefix-trie cache where possible
    /// and each distinct missing word reaches the oracle once.
    ///
    /// # Errors
    ///
    /// Propagates oracle errors.
    pub fn fill(&mut self, pool: &mut QueryPool<'_, I, O>) -> Result<(), OracleError> {
        let mut words: Vec<Vec<I>> = Vec::new();
        for row in &self.rows[self.filled..] {
            for suffix in &self.suffixes[row.cells.len()..] {
                let mut word = Vec::with_capacity(row.prefix.len() + suffix.len());
                word.extend_from_slice(&row.prefix);
                word.extend_from_slice(suffix);
                words.push(word);
            }
        }
        let answers = pool.query_batch(&words)?;
        let mut answers = answers.iter();
        for index in self.filled..self.rows.len() {
            let start = self.rows[index].prefix.len();
            while self.rows[index].cells.len() < self.suffixes.len() {
                let outputs = answers.next().expect("one answer per missing cell");
                let cell = self.intern_cell(&outputs[start..]);
                let row = &mut self.rows[index];
                let next = self.sigs.len() as u32 + 1;
                row.sig = *self.sigs.entry((row.sig, cell)).or_insert(next);
                row.cells.push(cell);
            }
        }
        self.filled = self.rows.len();
        Ok(())
    }

    fn intern_cell(&mut self, outputs: &[O]) -> u32 {
        if let Some(&id) = self.cell_ids.get(outputs) {
            return id;
        }
        let id = self.cells.len() as u32;
        self.cells.push(outputs.to_vec());
        self.cell_ids.insert(outputs.to_vec(), id);
        id
    }

    /// Returns an unclosedness witness: the first one-letter extension of a
    /// short row (in short-row, then input order) whose row matches no short
    /// row, if any.
    pub fn find_unclosed(&self) -> Option<usize> {
        debug_assert_eq!(self.filled, self.rows.len(), "fill the table first");
        let short: FxHashSet<u32> = self.short.iter().map(|&r| self.rows[r].sig).collect();
        self.extensions
            .iter()
            .copied()
            .find(|&r| !short.contains(&self.rows[r].sig))
    }

    /// Promotes a row to the short rows (used when closing the table) and
    /// adds its one-letter extensions as new, unfilled rows.
    pub fn promote(&mut self, row: usize) {
        if self.short.contains(&row) {
            return;
        }
        self.short.push(row);
        for input in &self.inputs {
            let base = &self.rows[row].prefix;
            let mut prefix = Vec::with_capacity(base.len() + 1);
            prefix.extend_from_slice(base);
            prefix.push(input.clone());
            self.extensions.push(self.rows.len());
            self.rows.push(Row::new(prefix));
        }
    }

    /// Adds a distinguishing suffix.  Returns `false` if it was already
    /// present.
    pub fn add_suffix(&mut self, suffix: Vec<I>) -> bool {
        if suffix.is_empty() || self.suffixes.contains(&suffix) {
            return false;
        }
        self.suffixes.push(suffix);
        self.filled = 0;
        true
    }

    /// Builds the hypothesis machine from a closed table and returns it
    /// together with the access string of each state.
    ///
    /// # Panics
    ///
    /// Panics if the table is not closed or not filled.
    pub fn hypothesis(&self) -> (Mealy<I, O>, Vec<Vec<I>>) {
        debug_assert_eq!(self.filled, self.rows.len(), "fill the table first");
        // One state per distinct short-row signature; the first short row
        // with that signature is its access row.
        let mut state_of_sig: FxHashMap<u32, StateId> = FxHashMap::default();
        let mut access: Vec<usize> = Vec::new(); // short-row index per state
        for (k, &row) in self.short.iter().enumerate() {
            state_of_sig.entry(self.rows[row].sig).or_insert_with(|| {
                access.push(k);
                StateId::new(access.len() - 1)
            });
        }

        let mut builder = MealyBuilder::new(self.inputs.clone());
        for _ in 0..access.len() {
            builder.add_state();
        }
        let width = self.inputs.len();
        for (state, &k) in access.iter().enumerate() {
            let cells = &self.rows[self.short[k]].cells;
            for (i, input) in self.inputs.iter().enumerate() {
                let successor = *state_of_sig
                    .get(&self.rows[self.extensions[k * width + i]].sig)
                    .expect("table must be closed before building a hypothesis");
                // Column i is the single-symbol suffix `inputs[i]` (see
                // `new`), so its cell's only output is the transition's.
                let output = self.cells[cells[i] as usize][0].clone();
                builder.add_transition(StateId::new(state), input.clone(), successor, output);
            }
        }
        let machine = builder
            .build(StateId::new(0))
            .expect("closed and filled tables produce complete machines");
        let access = access
            .iter()
            .map(|&k| self.rows[self.short[k]].prefix.clone())
            .collect();
        (machine, access)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::MealyOracle;
    use automata::MealyBuilder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    /// The cells of the row of `prefix`.
    fn row<'t>(table: &'t ObservationTable<&str, u8>, prefix: &[&str]) -> Vec<&'t [u8]> {
        let row = table.rows.iter().find(|r| r.prefix == prefix).unwrap();
        row.cells
            .iter()
            .map(|&c| table.cells[c as usize].as_slice())
            .collect()
    }

    #[test]
    fn initial_table_has_one_suffix_per_input() {
        let table: ObservationTable<&str, u8> = ObservationTable::new(vec!["a", "b"]);
        assert_eq!(table.suffixes().len(), 2);
        assert_eq!(table.num_short(), 1);
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
        let row = row(&table, &["a"]);
        assert_eq!(row[0], [2]);
        assert_eq!(row[1], [9]);
    }

    fn extend(prefix: &[&'static str], input: &&'static str) -> Vec<&'static str> {
        let mut word = prefix.to_vec();
        word.push(*input);
        word
    }

    /// The row-vector table the interned one replaced: every row a
    /// `Vec<Vec<O>>` keyed by its prefix, rebuilt and compared whole.
    struct RowVecTable {
        inputs: Vec<&'static str>,
        short: Vec<Vec<&'static str>>,
        suffixes: Vec<Vec<&'static str>>,
        rows: FxHashMap<Vec<&'static str>, Vec<Vec<u8>>>,
    }

    impl RowVecTable {
        fn new(inputs: Vec<&'static str>) -> Self {
            let suffixes = inputs.iter().map(|i| vec![*i]).collect();
            RowVecTable {
                inputs,
                short: vec![Vec::new()],
                suffixes,
                rows: FxHashMap::default(),
            }
        }

        fn fill(&mut self, pool: &mut QueryPool<'_, &'static str, u8>) {
            let mut pending: Vec<(Vec<&str>, usize)> = Vec::new();
            let mut queued: FxHashSet<Vec<&str>> = FxHashSet::default();
            let mut words: Vec<Vec<&str>> = Vec::new();
            for s in &self.short {
                let extended = self.inputs.iter().map(|a| extend(s, a));
                for prefix in std::iter::once(s.clone()).chain(extended) {
                    let filled = self.rows.get(&prefix).map_or(0, Vec::len);
                    if filled == self.suffixes.len() || !queued.insert(prefix.clone()) {
                        continue;
                    }
                    for suffix in &self.suffixes[filled..] {
                        words.push([prefix.as_slice(), suffix.as_slice()].concat());
                    }
                    pending.push((prefix, filled));
                }
            }
            let answers = pool.query_batch(&words).unwrap();
            let mut answers = answers.into_iter();
            for (prefix, filled) in pending {
                let row = self.rows.entry(prefix.clone()).or_default();
                for _ in filled..self.suffixes.len() {
                    row.push(answers.next().unwrap()[prefix.len()..].to_vec());
                }
            }
        }

        fn find_unclosed(&self) -> Option<Vec<&'static str>> {
            let short_rows: FxHashSet<&Vec<Vec<u8>>> =
                self.short.iter().map(|s| &self.rows[s]).collect();
            for s in &self.short {
                for a in &self.inputs {
                    let extended = extend(s, a);
                    if !short_rows.contains(&self.rows[&extended]) {
                        return Some(extended);
                    }
                }
            }
            None
        }

        fn hypothesis(&self) -> (Mealy<&'static str, u8>, Vec<Vec<&'static str>>) {
            let mut state_of_row: FxHashMap<Vec<Vec<u8>>, StateId> = FxHashMap::default();
            let mut access: Vec<Vec<&str>> = Vec::new();
            for s in &self.short {
                let next = StateId::new(access.len());
                if *state_of_row.entry(self.rows[s].clone()).or_insert(next) == next {
                    access.push(s.clone());
                }
            }
            let mut builder = MealyBuilder::new(self.inputs.clone());
            for _ in 0..access.len() {
                builder.add_state();
            }
            for (state, s) in access.iter().enumerate() {
                for (i, a) in self.inputs.iter().enumerate() {
                    let extended = extend(s, a);
                    let successor = state_of_row[&self.rows[&extended]];
                    let output = self.rows[s][i][0];
                    builder.add_transition(StateId::new(state), *a, successor, output);
                }
            }
            (builder.build(StateId::new(0)).unwrap(), access)
        }
    }

    /// A random complete machine over `{a, b, c}` with outputs in `0..3`.
    fn random_machine(rng: &mut StdRng) -> Mealy<&'static str, u8> {
        let inputs = vec!["a", "b", "c"];
        let states = rng.gen_range(1..8usize);
        let mut b = MealyBuilder::new(inputs.clone());
        let ids: Vec<_> = (0..states).map(|_| b.add_state()).collect();
        for &from in &ids {
            for input in &inputs {
                let to = ids[rng.gen_range(0..states)];
                b.add_transition(from, *input, to, rng.gen_range(0..3u8));
            }
        }
        b.build(ids[0]).unwrap()
    }

    fn assert_same_machine(
        left: &(Mealy<&'static str, u8>, Vec<Vec<&'static str>>),
        right: &(Mealy<&'static str, u8>, Vec<Vec<&'static str>>),
    ) {
        assert_eq!(left.1, right.1, "access strings");
        assert_eq!(left.0.num_states(), right.0.num_states());
        assert_eq!(left.0.initial(), right.0.initial());
        for state in left.0.states() {
            assert_eq!(left.0.row(state), right.0.row(state));
        }
    }

    #[test]
    fn interned_table_matches_the_row_vector_table() {
        // Both tables run the same L* closing rounds over their own pool,
        // with random suffixes added between rounds: every witness, every
        // hypothesis and every query (hence every count) must agree.
        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let machine = random_machine(&mut rng);
            let inputs = machine.inputs().to_vec();
            let factory = move || MealyOracle::new(machine.clone());
            let (mut pool, mut reference_pool) =
                (QueryPool::new(&factory), QueryPool::new(&factory));
            let mut table = ObservationTable::new(inputs.clone());
            let mut reference = RowVecTable::new(inputs.clone());
            for _round in 0..4 {
                table.fill(&mut pool).unwrap();
                reference.fill(&mut reference_pool);
                loop {
                    let witness = table.find_unclosed();
                    let expected = reference.find_unclosed();
                    assert_eq!(witness.map(|r| table.rows[r].prefix.clone()), expected);
                    let Some(witness) = witness else { break };
                    table.promote(witness);
                    reference.short.push(expected.unwrap());
                    table.fill(&mut pool).unwrap();
                    reference.fill(&mut reference_pool);
                }
                assert_same_machine(&table.hypothesis(), &reference.hypothesis());
                assert_eq!(
                    (pool.cache_hits(), pool.cache_misses()),
                    (reference_pool.cache_hits(), reference_pool.cache_misses())
                );
                let length = rng.gen_range(1..5usize);
                let suffix: Vec<&str> = (0..length)
                    .map(|_| inputs[rng.gen_range(0..3usize)])
                    .collect();
                assert_eq!(
                    table.add_suffix(suffix.clone()),
                    !reference.suffixes.contains(&suffix)
                );
                if !reference.suffixes.contains(&suffix) {
                    reference.suffixes.push(suffix);
                }
            }
        }
    }
}
