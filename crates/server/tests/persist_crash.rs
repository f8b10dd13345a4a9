//! Crash-recovery integration tests: a real `cqd` process with a durable
//! store is killed with SIGKILL mid-campaign.
//!
//! * Restarted over the same directory, it must serve the previously
//!   persisted campaign entirely from memory — zero re-executed backend
//!   queries.  The re-execution pin uses the store's own namespace
//!   counters: in the unified query path a store *miss* is exactly what
//!   triggers a backend execution, so a warm re-run of a fully persisted
//!   campaign must leave the campaign namespace at zero misses.
//! * Reopened in-process, the directory must hold a prefix of the killed
//!   campaign's records, in the order the campaign recorded them: only the
//!   tail the writer had not written yet may be missing, never a record
//!   before it.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cache::HitMiss;
use cachequery::{QueryEngine, QueryStore, StoreOptions, StoreTap};
use mbl::Query;
use polca::{learn_policy, CacheQueryOracle, LearnSetup, PolicySimBackend};
use policies::PolicyKind;
use server::Client;

/// Spawns a durable `cqd` on an ephemeral port and parses its bound
/// address from stdout.
fn spawn_daemon(store_dir: &Path) -> (Child, SocketAddr) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_cqd"))
        .args(["--addr", "127.0.0.1:0", "--store-dir"])
        .arg(store_dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .stdin(Stdio::null())
        .spawn()
        .expect("spawn cqd");
    let stdout = child.stdout.take().expect("cqd stdout");
    let mut lines = BufReader::new(stdout).lines();
    let banner = lines
        .next()
        .expect("cqd printed a banner")
        .expect("read cqd banner");
    let addr = banner
        .strip_prefix("cqd listening on ")
        .unwrap_or_else(|| panic!("unexpected cqd banner: {banner}"))
        .parse()
        .expect("parse cqd address");
    (child, addr)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cq_persist_crash_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn a_killed_daemon_restarts_warm_and_reexecutes_nothing() {
    let dir = temp_dir("warm");

    // First life: learn LRU@4 to completion, make it durable, then die
    // abruptly in the middle of a second campaign.
    let (mut child, addr) = spawn_daemon(&dir);
    let (cold_states, cold_queries, namespace) = {
        let mut client = Client::connect(addr).expect("connect");
        let id = client.learn("lru@4").expect("start lru@4 campaign");
        let status = client.wait(id).expect("finish lru@4 campaign");
        assert_eq!(
            status.state, "done",
            "cold campaign failed: {}",
            status.detail
        );
        assert!(status.states > 0 && status.queries > 0);

        // Fsync the log and write a compacted snapshot; everything the
        // campaign recorded is now on disk.
        client.persist().expect("persist the store");
        let stats = client.stats().expect("stats");
        assert!(
            stats.global.persist_appended > 0,
            "campaign appended nothing"
        );
        assert!(
            stats.global.persist_snapshots > 0,
            "persist wrote no snapshot"
        );
        let namespace = stats
            .namespaces
            .iter()
            .find(|ns| ns.name.starts_with("policy:LRU@4"))
            .expect("campaign namespace in stats")
            .name
            .clone();

        // Kill -9 mid-campaign: the second job's unsynced tail may be
        // lost, the persisted first campaign must not be.
        let _ = client.learn("plru@4").expect("start doomed campaign");
        (status.states, status.queries, namespace)
    };
    child.kill().expect("SIGKILL cqd");
    child.wait().expect("reap cqd");

    // Second life over the same directory: replay must restore the store,
    // and re-running the same campaign must touch the backend zero times.
    let (mut child, addr) = spawn_daemon(&dir);
    let mut client = Client::connect(addr).expect("reconnect");
    let stats = client.stats().expect("stats after restart");
    assert!(
        stats.global.persist_replayed > 0,
        "restart replayed no records"
    );

    let id = client.learn("lru@4").expect("re-run lru@4 campaign");
    let status = client.wait(id).expect("finish warm campaign");
    assert_eq!(
        status.state, "done",
        "warm campaign failed: {}",
        status.detail
    );
    // Same machine, same membership-query count: recovery is exact.
    assert_eq!(status.states, cold_states);
    assert_eq!(status.queries, cold_queries);

    let stats = client.stats().expect("stats after warm campaign");
    let ns = stats
        .namespaces
        .iter()
        .find(|ns| ns.name == namespace)
        .expect("campaign namespace survived the crash");
    // The pin: every store lookup of the warm campaign hit. A miss is the
    // only thing that sends a query to the backend, so zero misses means
    // zero re-executed backend queries.
    assert_eq!(
        ns.misses, 0,
        "warm campaign fell through to the backend {} times",
        ns.misses
    );
    assert!(ns.hits > 0, "warm campaign never touched the store");

    drop(client);
    child.kill().expect("SIGKILL cqd");
    child.wait().expect("reap cqd");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Appends (made or dropped) after which the prefix test kills the daemon:
/// about half of a cold New1@4 campaign's 604,205.
const KILL_AT: u64 = 300_000;

/// A twin campaign's records, in order, checked against the store a killed
/// daemon left behind: `mirror` re-records every record up to the first one
/// the reopened store does not answer.
#[derive(Debug)]
struct PrefixCheck {
    reopened: QueryStore,
    /// `(mirror, records seen, index of the first missing record)`.
    state: Mutex<(QueryStore, u64, Option<u64>)>,
}

impl StoreTap for PrefixCheck {
    fn on_lookup(&self, _namespace: &str, _query: &Query, _hit: bool) {}

    fn on_record(&self, namespace: &str, query: &Query, outcomes: &[HitMiss]) {
        let mut state = self.state.lock().expect("tap state");
        let (mirror, seen, first_missing) = &mut *state;
        *seen += 1;
        if first_missing.is_some() {
            return;
        }
        if self.reopened.lookup(namespace, query).as_deref() == Some(outcomes) {
            mirror.record(namespace, query, outcomes, true);
        } else {
            *first_missing = Some(*seen);
        }
    }
}

#[test]
fn a_killed_campaign_leaves_a_prefix_of_its_records() {
    let dir = temp_dir("prefix");
    let (mut child, addr) = spawn_daemon(&dir);
    let mut client = Client::connect(addr).expect("connect");
    client.learn("New1@4").expect("start New1@4 campaign");
    let deadline = Instant::now() + Duration::from_secs(300);
    let appends = loop {
        let stats = client.stats().expect("stats").global;
        let appends = stats.persist_appended + stats.persist_dropped;
        if appends >= KILL_AT {
            break appends;
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            panic!("campaign stalled at {appends} appends");
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    child.kill().expect("SIGKILL cqd");
    child.wait().expect("reap cqd");
    drop(client);

    // The same campaign in this process, in the order the daemon recorded
    // it, over an in-memory store.
    let check = Arc::new(PrefixCheck {
        reopened: QueryStore::open(&dir).expect("reopen the killed store"),
        state: Mutex::new((QueryStore::new(), 0, None)),
    });
    let twin = QueryStore::with_options(StoreOptions {
        tap: Some(Arc::clone(&check) as Arc<dyn StoreTap>),
        ..StoreOptions::default()
    })
    .expect("memory-only store");
    let backend = PolicySimBackend::new(PolicyKind::New1, 4).expect("New1 supports 4 ways");
    let engine = QueryEngine::with_store(backend, Arc::new(twin));
    let oracle = CacheQueryOracle::from_engine(engine).expect("simulated backend is configured");
    let setup = LearnSetup::default();
    let outcome = learn_policy(oracle, &setup).expect("twin campaign");
    assert_eq!(outcome.machine.num_states(), 160);

    let (mirror, seen, first_missing) = &*check.state.lock().expect("tap state");
    assert_eq!(*seen, 604_205, "the twin recorded the whole campaign");
    let survived = first_missing.map_or(*seen, |first| first - 1);
    assert!(
        survived > 0,
        "nothing survived a kill after {appends} appends"
    );
    // Everything the directory holds is the campaign's first `survived`
    // records: no record after a missing one was written.
    assert_eq!(
        check.reopened.entries(),
        mirror.entries(),
        "the reopened store is not the campaign's first {survived} records"
    );
    assert!(
        check.reopened.export() == mirror.export(),
        "the reopened store is not the campaign's first {survived} records"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
