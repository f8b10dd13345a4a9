//! Property tests for the prefix trie: random runs of `record`,
//! `record_resumed`, `lookup`, `lookup_resumed`, `check_against_resumed` and
//! `clear` on a `QueryCache` answer exactly what a map of the recorded
//! prefixes says — answers, fresh-node counts, entries, lookup counters and
//! maximal words — and a contradicting record changes nothing.

use std::collections::BTreeMap;

use learning::{CacheVerdict, QueryCache, TrieCursor};
use proptest::prelude::*;

/// One operation of a run.  `flip` names a position whose output is
/// changed (no change when it is past the word), `cap` bounds the shared
/// prefix a resumed call claims.
#[derive(Debug, Clone)]
enum Op {
    Record {
        word: Vec<u8>,
        flip: usize,
    },
    RecordResumed {
        word: Vec<u8>,
        flip: usize,
        cap: usize,
    },
    Lookup {
        word: Vec<u8>,
    },
    LookupResumed {
        word: Vec<u8>,
        cap: usize,
    },
    Check {
        word: Vec<u8>,
        flip: usize,
    },
    Clear,
}

fn op_strategy(symbols: u8) -> impl Strategy<Value = Op> {
    (
        0u8..20,
        proptest::collection::vec(0..symbols, 0..8),
        0usize..12,
        0usize..9,
    )
        .prop_map(|(kind, word, flip, cap)| match kind {
            0..=3 => Op::Record { word, flip },
            4..=7 => Op::RecordResumed { word, flip, cap },
            8..=10 => Op::Lookup { word },
            11..=13 => Op::LookupResumed { word, cap },
            14..=18 => Op::Check { word, flip },
            _ => Op::Clear,
        })
}

/// A run over an alphabet of 3 to 6 symbols.
fn run_strategy() -> impl Strategy<Value = Vec<Op>> {
    (3u8..=6).prop_flat_map(|symbols| proptest::collection::vec(op_strategy(symbols), 1..80))
}

/// The outputs a well-behaved system gives for `word`, with the output at
/// `flip` changed when the word is that long.
fn outputs(word: &[u8], flip: usize) -> Vec<u8> {
    let mut sum = 0u32;
    let mut outputs: Vec<u8> = word
        .iter()
        .map(|&symbol| {
            sum = sum * 5 + u32::from(symbol) + 1;
            (sum % 3) as u8
        })
        .collect();
    if let Some(output) = outputs.get_mut(flip) {
        *output = (*output + 1) % 3;
    }
    outputs
}

fn common_prefix_len<T: PartialEq>(a: &[T], b: &[T]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// A cursor's model: the last word it walked and how many of its symbols
/// it holds a node for.
#[derive(Default)]
struct CursorModel {
    last: Vec<(u8, u8)>,
    depth: usize,
    /// Whether a clear dropped the arena the held nodes (at least one)
    /// index.
    stale: bool,
}

impl CursorModel {
    /// The position a resumed call walks from, given the shared prefix it
    /// claims.
    fn start(&self, lcp: usize) -> usize {
        if self.stale {
            0
        } else {
            lcp.min(self.depth)
        }
    }

    fn walked(&mut self, last: Vec<(u8, u8)>, depth: usize) {
        self.last = last;
        self.depth = depth;
        self.stale = false;
    }
}

/// Every recorded prefix and the output of its last symbol.
#[derive(Default)]
struct Model {
    prefixes: BTreeMap<Vec<u8>, u8>,
    hits: u64,
    misses: u64,
}

impl Model {
    /// Length of the longest recorded prefix of `word`.
    fn recorded(&self, word: &[u8]) -> usize {
        (1..=word.len())
            .take_while(|&end| self.prefixes.contains_key(&word[..end]))
            .count()
    }

    fn output(&self, word: &[u8], position: usize) -> u8 {
        self.prefixes[&word[..=position]]
    }

    fn count(&mut self, hit: bool) {
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
    }

    /// What recording `outputs` for `word`, checking positions from `start`
    /// on, must return; applies it when it succeeds.
    fn record(&mut self, word: &[u8], outputs: &[u8], start: usize) -> Result<usize, usize> {
        let recorded = self.recorded(word);
        if let Some(position) =
            (start..recorded).find(|&position| self.output(word, position) != outputs[position])
        {
            return Err(position);
        }
        for end in recorded + 1..=word.len() {
            self.prefixes.insert(word[..end].to_vec(), outputs[end - 1]);
        }
        Ok(word.len() - recorded)
    }

    /// The recorded words no other recorded word extends.
    fn maximal(&self) -> Vec<Vec<u8>> {
        let keys: Vec<&Vec<u8>> = self.prefixes.keys().collect();
        keys.iter()
            .enumerate()
            .filter(|(i, key)| keys.get(i + 1).is_none_or(|next| !next.starts_with(key)))
            .map(|(_, key)| key.to_vec())
            .collect()
    }
}

/// Runs `ops` against a fresh cache and the model, checking every answer.
fn check_run(ops: &[Op]) -> Result<(), TestCaseError> {
    let cache: QueryCache<u8, u8> = QueryCache::new();
    let mut model = Model::default();
    // One cursor for lookups and records (the probe-session shape), one
    // for checks, whose resumed prefix must agree with its predictions.
    let (mut probe, mut probe_model) = (TrieCursor::new(), CursorModel::default());
    let (mut check, mut check_model) = (TrieCursor::new(), CursorModel::default());
    for op in ops {
        match op {
            Op::Record { word, flip } => {
                let outputs = outputs(word, *flip);
                let expected = model.record(word, &outputs, 0);
                let got = cache.record(word, &outputs);
                prop_assert_eq!(got.is_ok(), expected.is_ok(), "record {:?}", word);
                if let (Ok(got), Ok(expected)) = (got, expected) {
                    prop_assert_eq!(got, expected, "fresh nodes of {:?}", word);
                }
            }
            Op::RecordResumed { word, flip, cap } => {
                let outputs = outputs(word, *flip);
                let pairs: Vec<(u8, u8)> = word.iter().copied().zip(outputs.clone()).collect();
                let lcp = common_prefix_len(&probe_model.last, &pairs).min(*cap);
                // The held nodes are vouched for, not re-checked.
                let start = probe_model.start(lcp);
                let expected = model.record(word, &outputs, start);
                let got = cache.record_resumed(word, &outputs, lcp, &mut probe);
                match (got, expected) {
                    (Ok(got), Ok(expected)) => {
                        prop_assert_eq!(got, expected, "fresh nodes of {:?}", word);
                        probe_model.walked(pairs, word.len());
                    }
                    (Err(_), Err(position)) => probe_model.walked(pairs, position),
                    (got, expected) => {
                        prop_assert!(
                            false,
                            "record_resumed {word:?}: {got:?}, model {expected:?}"
                        )
                    }
                }
            }
            Op::Lookup { word } => {
                let hit = model.recorded(word) == word.len();
                let expected =
                    hit.then(|| (0..word.len()).map(|p| model.output(word, p)).collect());
                model.count(hit);
                prop_assert_eq!(cache.lookup(word), expected, "lookup {:?}", word);
            }
            Op::LookupResumed { word, cap } => {
                let recorded = model.recorded(word);
                let last: Vec<u8> = probe_model.last.iter().map(|&(symbol, _)| symbol).collect();
                let lcp = common_prefix_len(&last, word).min(*cap);
                let hit = recorded == word.len();
                let expected =
                    hit.then(|| (lcp..word.len()).map(|p| model.output(word, p)).collect());
                model.count(hit);
                prop_assert_eq!(
                    cache.lookup_resumed(word, lcp, &mut probe),
                    expected,
                    "lookup_resumed {:?} from {}",
                    word,
                    lcp
                );
                // The held prefix is recorded, so the walk reaches its end.
                let walked = (0..recorded).map(|p| (word[p], model.output(word, p)));
                probe_model.walked(walked.collect(), recorded);
            }
            Op::Check { word, flip } => {
                let predicted = outputs(word, *flip);
                let pairs: Vec<(u8, u8)> = word.iter().copied().zip(predicted.clone()).collect();
                let lcp = common_prefix_len(&check_model.last, &pairs);
                let recorded = model.recorded(word);
                let start = check_model.start(lcp);
                let disagreement =
                    (start..recorded).find(|&p| model.output(word, p) != predicted[p]);
                let (expected, depth) = match disagreement {
                    Some(position) => (CacheVerdict::Mismatch(position), position),
                    None if recorded == word.len() => (CacheVerdict::Match, recorded),
                    None => (CacheVerdict::Unknown, recorded),
                };
                prop_assert_eq!(
                    cache.check_against_resumed(word, &predicted, lcp, &mut check),
                    expected,
                    "check {:?} against {:?}",
                    word,
                    predicted
                );
                check_model.walked(pairs, depth);
            }
            Op::Clear => {
                prop_assert_eq!(cache.clear(), model.prefixes.len() as u64);
                model.prefixes.clear();
                for cursor in [&mut probe_model, &mut check_model] {
                    cursor.stale |= cursor.depth > 0;
                }
            }
        }
        prop_assert_eq!(
            cache.entries(),
            model.prefixes.len() as u64,
            "after {:?}",
            op
        );
        prop_assert_eq!(cache.counts(), (model.hits, model.misses), "after {:?}", op);
        prop_assert_eq!(cache.is_stale(&probe), probe_model.stale);
        prop_assert_eq!(cache.is_stale(&check), check_model.stale);
    }
    let mut maximal = Vec::new();
    cache.for_each_maximal(|word, outputs| maximal.push((word.to_vec(), outputs.to_vec())));
    for (word, outputs) in &maximal {
        let recorded: Vec<u8> = (0..word.len()).map(|p| model.output(word, p)).collect();
        prop_assert_eq!(outputs, &recorded, "outputs of maximal word {:?}", word);
    }
    let mut words: Vec<Vec<u8>> = maximal.into_iter().map(|(word, _)| word).collect();
    words.sort();
    prop_assert_eq!(words, model.maximal());
    Ok(())
}

proptest! {
    #[test]
    fn random_runs_match_a_map_of_the_recorded_prefixes(ops in run_strategy()) {
        check_run(&ops)?;
    }

    #[test]
    fn a_contradicting_record_changes_nothing(
        ops in run_strategy(),
        word in proptest::collection::vec(0u8..3, 1..8),
        pick in 0usize..64,
        flip in 0usize..7,
    ) {
        let cache: QueryCache<u8, u8> = QueryCache::new();
        for op in &ops {
            if let Op::Record { word, flip } | Op::RecordResumed { word, flip, .. } = op {
                let _ = cache.record(word, &outputs(word, *flip));
            }
        }
        // Either this records the non-empty word or a recorded prefix of it
        // contradicts: the trie is not empty.
        let _ = cache.record(&word, &outputs(&word, usize::MAX));
        let mut before = Vec::new();
        cache.for_each_maximal(|w, o| before.push((w.to_vec(), o.to_vec())));
        let entries = cache.entries();
        // A recorded word with one output changed and a fresh tail.
        let (mut longer, mut contradicting) = before[pick % before.len()].clone();
        let flip = flip % longer.len();
        contradicting[flip] = (contradicting[flip] + 1) % 3;
        longer.push(0);
        contradicting.push(0);
        prop_assert!(cache.record(&longer, &contradicting).is_err());
        let mut cursor = TrieCursor::new();
        prop_assert!(cache.record_resumed(&longer, &contradicting, 0, &mut cursor).is_err());
        let mut after = Vec::new();
        cache.for_each_maximal(|w, o| after.push((w.to_vec(), o.to_vec())));
        prop_assert_eq!(cache.entries(), entries);
        prop_assert_eq!(after, before);
    }
}
