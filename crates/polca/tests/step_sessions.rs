//! Stepping probe sessions through the query engine.
//!
//! A `CacheQueryOracle` over a `PolicySimBackend` steps its probe sessions
//! (one backend step per store miss) instead of replaying every probe from
//! `cc0`.  Stepping must be invisible to everything but the block-access
//! count: the learned machine, the membership-query count, and every byte of
//! store traffic — lookups, recordings, persist appends, the exported
//! contents — equal those of the replayed campaign.  The exported contents
//! are pinned byte for byte, and a reopened store re-exports them.

use std::path::PathBuf;
use std::sync::Arc;

use cachequery::{persist, QueryEngine, QueryStore, StoreOptions};
use learning::OracleError;
use mbl::BlockId;
use polca::{
    learn_policy, CacheOracle, CacheQueryOracle, CacheSession, LearnOutcome, LearnSetup,
    PolicySimBackend, ReplaySession,
};
use policies::PolicyKind;

/// Forces any cache oracle onto the paper's replay cost model: every session
/// step re-probes the whole trace through [`CacheOracle::probe`].
#[derive(Debug, Clone)]
struct Replayed<C>(C);

impl<C: CacheOracle> CacheOracle for Replayed<C> {
    fn associativity(&self) -> usize {
        self.0.associativity()
    }

    fn probe(&mut self, trace: &[BlockId]) -> Result<cache::HitMiss, OracleError> {
        self.0.probe(trace)
    }

    fn begin(&mut self) -> Box<dyn CacheSession + '_> {
        Box::new(ReplaySession::new(self))
    }

    fn probes(&self) -> u64 {
        self.0.probes()
    }

    fn block_accesses(&self) -> u64 {
        self.0.block_accesses()
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("polca_step_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn setup() -> LearnSetup {
    LearnSetup {
        workers: 1,
        ..LearnSetup::default()
    }
}

/// What a campaign leaves behind in its store.
#[derive(Debug, PartialEq, Eq)]
struct Traffic {
    hits: u64,
    misses: u64,
    entries: u64,
    append_attempts: u64,
    export: String,
}

/// Learns `kind@assoc` through a fresh durable store, stepping or replayed,
/// and checks that reopening the store's directory re-exports its contents.
fn campaign(kind: PolicyKind, assoc: usize, replay: bool) -> (LearnOutcome, Traffic) {
    let dir = scratch_dir(&format!("{kind}_{assoc}_{replay}"));
    let store = Arc::new(QueryStore::open(&dir).expect("scratch store opens"));
    let backend = PolicySimBackend::new(kind, assoc).expect("supported associativity");
    let engine = QueryEngine::with_store(backend, Arc::clone(&store));
    let oracle = CacheQueryOracle::from_engine(engine).expect("simulated backend is configured");
    let outcome = if replay {
        learn_policy(Replayed(oracle), &setup())
    } else {
        learn_policy(oracle, &setup())
    }
    .expect("learning succeeds");
    store.flush();
    let namespace = PolicySimBackend::config_for(kind, assoc).to_string();
    let usage = store
        .namespace_usage()
        .into_iter()
        .find(|usage| usage.name == namespace)
        .expect("the campaign's namespace exists");
    let persist = store.persist_stats();
    let traffic = Traffic {
        hits: usage.hits,
        misses: usage.misses,
        entries: usage.entries,
        append_attempts: persist.appended + persist.dropped,
        export: store.export(),
    };
    drop(store);
    let reopened = QueryStore::open(&dir).expect("the store reopens");
    assert!(
        reopened.export() == traffic.export,
        "{kind}@{assoc}: the reopened store exports other bytes"
    );
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
    (outcome, traffic)
}

#[test]
fn stepping_and_replayed_campaigns_leave_identical_store_traffic() {
    // The export's length, line count and FNV-1a checksum (the log's record
    // checksum) pin the store's file format byte for byte.
    for (kind, assoc, states, queries, export) in [
        (
            PolicyKind::Lru,
            4,
            24,
            7_569,
            (876_033, 13_652, 0xd9b2_db6d),
        ),
        (
            PolicyKind::SrripFp,
            2,
            16,
            2_966,
            (250_940, 3_495, 0x153b_4a31),
        ),
    ] {
        let (stepped, stepped_traffic) = campaign(kind, assoc, false);
        let (replayed, replayed_traffic) = campaign(kind, assoc, true);
        assert_eq!(stepped.machine.num_states(), states, "{kind}@{assoc}");
        assert_eq!(stepped.stats.membership_queries, queries, "{kind}@{assoc}");
        assert_eq!(stepped.machine.num_states(), replayed.machine.num_states());
        assert_eq!(
            stepped.stats.membership_queries,
            replayed.stats.membership_queries
        );
        assert_eq!(stepped.cache_probes, replayed.cache_probes);
        assert_eq!(
            stepped_traffic, replayed_traffic,
            "{kind}@{assoc}: store traffic differs"
        );
        assert_eq!(
            stepped_traffic.append_attempts, stepped_traffic.misses,
            "one persist append attempt per store miss"
        );
        let text = &stepped_traffic.export;
        assert_eq!(
            (
                text.len(),
                text.lines().count(),
                persist::checksum(text.as_bytes())
            ),
            export,
            "{kind}@{assoc}: exported store bytes"
        );
        // The cost model is the one difference: one block access per probe
        // when stepping, whole-trace replays otherwise.
        assert_eq!(stepped.block_accesses, stepped.cache_probes);
        assert!(replayed.block_accesses > replayed.cache_probes);
    }
}

#[test]
fn a_store_cleared_mid_session_still_learns_lru_4() {
    // A 64-entry cap is far below the campaign's working set, so the
    // bounded store clears the campaign's own namespace over and over — in
    // the middle of probe sessions whose cursors point into it.
    let store = Arc::new(
        QueryStore::with_options(StoreOptions {
            max_entries: Some(64),
            ..StoreOptions::default()
        })
        .expect("a memory-only store performs no I/O"),
    );
    let backend = PolicySimBackend::new(PolicyKind::Lru, 4).expect("LRU supports 4 ways");
    let engine = QueryEngine::with_store(backend, Arc::clone(&store));
    let oracle = CacheQueryOracle::from_engine(engine).expect("simulated backend is configured");
    let outcome = learn_policy(oracle, &setup()).expect("learning succeeds");
    assert_eq!(outcome.machine.num_states(), 24);
    assert_eq!(outcome.stats.membership_queries, 7_569);
    assert_eq!(
        outcome.block_accesses, outcome.cache_probes,
        "still stepping"
    );
    assert!(
        store.evictions() > 100,
        "the namespace was cleared mid-campaign ({} evictions)",
        store.evictions()
    );
    assert!(store.entries() <= 64);
}
