//! Property-based tests for Polca: Theorem 3.1 on random words — the
//! membership oracle's answers coincide with the policy semantics — and the
//! cache-consistency invariant of the memoization layer.

use cachequery::QueryEngine;
use learning::{MembershipOracle, QueryPool};
use polca::{
    CacheOracle, CacheQueryOracle, CacheSession, PolcaOracle, PolicySimBackend, ReplaySession,
    SimulatedCacheOracle,
};
use policies::{policy_to_mealy, PolicyInput, PolicyKind};
use proptest::prelude::*;

fn word_strategy(assoc: usize) -> impl Strategy<Value = Vec<PolicyInput>> {
    proptest::collection::vec(0usize..=assoc, 1..40).prop_map(move |raw| {
        raw.into_iter()
            .map(|i| {
                if i == assoc {
                    PolicyInput::Evct
                } else {
                    PolicyInput::line(i)
                }
            })
            .collect()
    })
}

fn case_strategy() -> impl Strategy<Value = (PolicyKind, usize, Vec<PolicyInput>)> {
    (2usize..=6).prop_flat_map(|assoc| {
        let kinds: Vec<PolicyKind> = PolicyKind::ALL_DETERMINISTIC
            .into_iter()
            .filter(|k| k.supports_associativity(assoc))
            .collect();
        (
            proptest::sample::select(kinds),
            Just(assoc),
            word_strategy(assoc),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Theorem 3.1: for every policy and every input word, Polca applied to
    /// the induced cache produces exactly the policy's output word.
    #[test]
    fn polca_answers_equal_the_policy_semantics((kind, assoc, word) in case_strategy()) {
        let reference = policy_to_mealy(kind.build(assoc).unwrap().as_ref(), 1 << 18);
        let cache = SimulatedCacheOracle::new(kind, assoc).unwrap();
        let mut polca = PolcaOracle::new(cache);
        let answered = polca.query(&word).expect("the simulated cache never fails");
        prop_assert_eq!(answered, reference.output_word(word.iter()));
    }

    /// Polca is stateless across queries: asking the same word twice gives
    /// the same answer even after unrelated queries in between.
    #[test]
    fn polca_queries_are_independent((kind, assoc, word) in case_strategy(),
                                     other in proptest::collection::vec(0usize..4, 0..10)) {
        let cache = SimulatedCacheOracle::new(kind, assoc).unwrap();
        let mut polca = PolcaOracle::new(cache);
        let first = polca.query(&word).unwrap();
        let interleaved: Vec<PolicyInput> = other
            .into_iter()
            .map(|i| if i == 0 { PolicyInput::Evct } else { PolicyInput::line(i % assoc) })
            .collect();
        if !interleaved.is_empty() {
            polca.query(&interleaved).unwrap();
        }
        prop_assert_eq!(polca.query(&word).unwrap(), first);
    }

    /// Cache-consistency invariant: the learner's `QueryPool` returns
    /// byte-identical outputs to the uncached `PolcaOracle` for arbitrary
    /// query sequences — including repeats and overlapping words, where
    /// answers come from the prefix trie instead of the cache simulator.
    #[test]
    fn memoized_oracle_is_byte_identical_to_the_uncached_oracle(
        (kind, assoc, word) in case_strategy(),
        more in proptest::collection::vec(proptest::collection::vec(0usize..5, 1..20), 1..5),
    ) {
        let mut plain = PolcaOracle::new(SimulatedCacheOracle::new(kind, assoc).unwrap());
        let factory = move || PolcaOracle::new(SimulatedCacheOracle::new(kind, assoc).unwrap());
        let mut memoized = QueryPool::new(&factory);
        // The generated word, every word derived from it, and each word twice:
        // exercises cold paths, prefix hits, and exact repeats.
        let mut words: Vec<Vec<PolicyInput>> = vec![word.clone()];
        for raw in more {
            words.push(
                raw.into_iter()
                    .map(|i| if i % (assoc + 1) == assoc {
                        PolicyInput::Evct
                    } else {
                        PolicyInput::line(i % (assoc + 1))
                    })
                    .collect(),
            );
        }
        words.push(word[..word.len().div_ceil(2)].to_vec());
        for word in words.iter().chain(words.iter()) {
            if word.is_empty() {
                continue;
            }
            prop_assert_eq!(
                memoized.query(word).unwrap(),
                plain.query(word).unwrap(),
                "memoized and uncached answers diverged on {:?}", word
            );
        }
        // The repeats above must have produced real cache traffic.
        prop_assert!(memoized.cache_hits() >= words.len() as u64);
    }

    /// The incremental simulated probe session, and the session an
    /// engine-backed oracle steps through its store, agree with the paper's
    /// replay-based session on every step and speculation.
    #[test]
    fn incremental_and_replay_sessions_agree((kind, assoc, word) in case_strategy()) {
        let mut incremental_host = SimulatedCacheOracle::new(kind, assoc).unwrap();
        let mut engine_host = CacheQueryOracle::from_engine(QueryEngine::new(
            PolicySimBackend::new(kind, assoc).unwrap(),
        ))
        .unwrap();
        let mut replay_host = SimulatedCacheOracle::new(kind, assoc).unwrap();
        let mut incremental = incremental_host.begin();
        let mut stepped = engine_host.begin();
        let mut replay = ReplaySession::new(&mut replay_host);
        // Drive both sessions with the blocks a Polca run would use and
        // interleave speculations on every initially-resident block.
        for (step, input) in word.iter().enumerate() {
            let block = match input {
                PolicyInput::Line(i) => mbl::BlockId(*i as u32),
                PolicyInput::Evct => mbl::BlockId((assoc + step) as u32),
            };
            let expected = replay.access(block).unwrap();
            prop_assert_eq!(
                incremental.access(block).unwrap(),
                expected,
                "sessions diverged on access at step {}", step
            );
            prop_assert_eq!(
                stepped.access(block).unwrap(),
                expected,
                "the engine session diverged on access at step {}", step
            );
            let probe = mbl::BlockId((step % assoc) as u32);
            let expected = replay.speculate(probe).unwrap();
            prop_assert_eq!(
                incremental.speculate(probe).unwrap(),
                expected,
                "sessions diverged on speculation at step {}", step
            );
            prop_assert_eq!(
                stepped.speculate(probe).unwrap(),
                expected,
                "the engine session diverged on speculation at step {}", step
            );
        }
    }
}
