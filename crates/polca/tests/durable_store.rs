//! Closing a durable store is a durability barrier.
//!
//! A campaign records answers faster than the store's writer thread logs
//! them while it compacts, so some appends are dropped (counted, never lost
//! from memory) and only a snapshot covers them.  `flush` and dropping the
//! store must take that snapshot: a reopened directory holds exactly what
//! the store held when it closed.

use std::path::PathBuf;
use std::sync::Arc;

use cachequery::{QueryEngine, QueryStore};
use polca::{learn_policy, CacheQueryOracle, LearnSetup, PolicySimBackend};
use policies::PolicyKind;

/// Learns New1@4 through a durable store in a fresh directory and returns
/// the store, with every engine on it gone, and the directory.
fn learn_new1_4(name: &str) -> (QueryStore, PathBuf) {
    let dir = std::env::temp_dir().join(format!("polca_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = Arc::new(QueryStore::open(&dir).expect("scratch store opens"));
    let backend = PolicySimBackend::new(PolicyKind::New1, 4).expect("New1 supports 4 ways");
    let engine = QueryEngine::with_store(backend, Arc::clone(&store));
    let oracle = CacheQueryOracle::from_engine(engine).expect("simulated backend is configured");
    let setup = LearnSetup {
        workers: 1,
        ..LearnSetup::default()
    };
    let outcome = learn_policy(oracle, &setup).expect("learning succeeds");
    assert_eq!(outcome.machine.num_states(), 160);
    assert_eq!(outcome.stats.membership_queries, 353_310);
    let store = Arc::try_unwrap(store).expect("no engine outlives the campaign");
    assert_eq!(store.entries(), 937_681);
    (store, dir)
}

/// Closes `store`, reopens `dir` and checks that it holds the same entries
/// and exports the same bytes.
fn reopens_with_every_entry(store: QueryStore, dir: PathBuf) {
    let (entries, export) = (store.entries(), store.export());
    drop(store);
    let reopened = QueryStore::open(&dir).expect("the store reopens");
    assert_eq!(
        reopened.entries(),
        entries,
        "entries lost across the reopen"
    );
    assert!(
        reopened.export() == export,
        "the reopened store exports other bytes"
    );
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_flushed_and_dropped_store_reopens_with_every_entry() {
    let (store, dir) = learn_new1_4("durable_flushed");
    store.flush();
    reopens_with_every_entry(store, dir);
}

#[test]
fn a_store_dropped_without_flush_reopens_with_every_entry() {
    let (store, dir) = learn_new1_4("durable_dropped");
    reopens_with_every_entry(store, dir);
}
