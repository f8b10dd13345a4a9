//! Learning over the network: `learn_policy` through a [`RemoteBackend`]
//! against a loopback `cqd` daemon must be **byte-identical** to the
//! in-process run — the same automaton (down to its textual rendering) and
//! the same membership-query count, for the Table 2 policies this suite
//! pins.
//!
//! This is the end-to-end guarantee of the unified query path: the learner
//! does not know (and cannot tell) whether its concrete queries are answered
//! by a local simulation or by a daemon on the other end of a socket.

use automata::render_mealy;
use cachequery::QueryEngine;
use polca::{learn_policy, learn_simulated_policy, CacheQueryOracle, LearnSetup};
use policies::PolicyKind;
use server::{spawn, CqdConfig, RemoteBackend, SessionSpec};

/// Runs the same learning campaign locally and over loopback and checks
/// byte-identity; returns the daemon-reported store hit rate for sanity.
fn assert_remote_matches_in_process(
    kind: PolicyKind,
    assoc: usize,
    expected_states: usize,
    expected_queries: u64,
) {
    let setup = LearnSetup::default();

    let local = learn_simulated_policy(kind, assoc, &setup).expect("in-process learning succeeds");

    let daemon = spawn(CqdConfig::default()).expect("ephemeral port is bindable");
    let spec = SessionSpec {
        policy: Some(format!("{kind}@{assoc}")),
        ..SessionSpec::default()
    };
    let backend =
        RemoteBackend::connect(daemon.addr(), &spec).expect("daemon accepts the session spec");
    let engine = QueryEngine::new(backend);
    let client_store = std::sync::Arc::clone(engine.store());
    let oracle = CacheQueryOracle::from_engine(engine).expect("the remote target is configured");
    let remote = learn_policy(oracle, &setup).expect("remote learning succeeds");

    assert_eq!(
        remote.machine.num_states(),
        expected_states,
        "{kind}/{assoc} must reproduce its Table 2 state count over the network"
    );
    assert_eq!(
        render_mealy(&remote.machine),
        render_mealy(&local.machine),
        "{kind}/{assoc}: the remotely learned automaton diverged from the in-process one"
    );
    assert_eq!(
        remote.stats.membership_queries, local.stats.membership_queries,
        "{kind}/{assoc}: the remote run issued a different number of membership queries"
    );
    assert_eq!(
        remote.stats.membership_queries, expected_queries,
        "{kind}/{assoc}: the batched wire path drifted from the pinned query count"
    );

    // The client-side engine store absorbs the replay-session blowup before
    // anything reaches the network: most probes are answered from the local
    // trie, and only genuinely novel queries cross the wire (which is why
    // the daemon itself sees practically no repeats).
    assert!(
        client_store.hits() > 0,
        "the client-side store never absorbed a replayed prefix"
    );
    assert!(
        client_store.hits() > client_store.misses(),
        "most probes should be served locally (hits {}, misses {})",
        client_store.hits(),
        client_store.misses()
    );
    daemon.shutdown();
}

#[test]
fn lru_4_learns_identically_over_the_network() {
    assert_remote_matches_in_process(PolicyKind::Lru, 4, 24, 7_569);
}

#[test]
fn srrip_fp_2_learns_identically_over_the_network() {
    assert_remote_matches_in_process(PolicyKind::SrripFp, 2, 16, 2_966);
}

#[test]
fn remote_batches_answer_like_per_query_round_trips() {
    // `RemoteBackend::execute_batch` maps an engine batch onto one wire
    // `batch` request; its answers must be byte-identical to issuing the same
    // concrete queries as individual `query` round trips.
    use cachequery::QueryBackend;

    let daemon = spawn(CqdConfig::default()).expect("ephemeral port is bindable");
    let spec = SessionSpec {
        policy: Some("LRU@4".to_string()),
        ..SessionSpec::default()
    };
    let mut backend =
        RemoteBackend::connect(daemon.addr(), &spec).expect("daemon accepts the session spec");

    let mut queries = Vec::new();
    for expr in ["@ X _?", "C B? A?", "A B X Y A? B? C?"] {
        queries.extend(mbl::expand_query(expr, 4).expect("well-formed MBL"));
    }
    let batched = backend
        .execute_batch(&queries)
        .expect("one wire batch answers the lot");
    let sequential: Vec<_> = queries
        .iter()
        .map(|q| backend.execute(q).expect("per-query round trip"))
        .collect();
    assert_eq!(batched, sequential, "the wire batch path diverged");
    daemon.shutdown();
}
