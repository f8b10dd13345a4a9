//! Learning over the network: run the full `polca` learning pipeline against
//! a `cqd` daemon instead of an in-process cache.
//!
//! The unified query path makes this a one-line swap: `learn_policy` takes a
//! cache oracle, the oracle takes a `QueryEngine`, and the engine takes any
//! `QueryBackend` — here a [`server::RemoteBackend`] speaking the wire
//! protocol over loopback.  The client-side engine store absorbs the
//! replay-session blowup (most probes never reach the network), and the
//! daemon's shared store memoizes whatever does, so a second campaign — or
//! an interactive session replaying the campaign's queries — is served from
//! memory.
//!
//! Run with: `cargo run --example learn_over_server -- [POLICY] [ASSOC]`
//!
//! Defaults: LRU, 2.  An unknown policy, or an associativity it does not
//! support, exits with status 2.

mod common;

use std::sync::Arc;
use std::time::Instant;

use cachequery::QueryEngine;
use common::{positional, positional_with};
use polca::{learn_policy, learn_simulated_policy, CacheQueryOracle, LearnSetup};
use policies::PolicyKind;
use server::{spawn, Client, CqdConfig, RemoteBackend, SessionSpec};

const USAGE: &str = "usage: learn_over_server [POLICY] [ASSOC]";

fn main() {
    let kind: PolicyKind = positional(0, PolicyKind::Lru, USAGE);
    let assoc = positional_with(1, 2, USAGE, |text| {
        text.parse()
            .ok()
            .filter(|&a| kind.supports_associativity(a))
    });
    let setup = LearnSetup::default();

    // In production the daemon runs on another machine; an in-process one on
    // an ephemeral port speaks the identical protocol.
    let daemon = spawn(CqdConfig::default()).expect("ephemeral port is bindable");
    println!("cqd listening on {}", daemon.addr());

    // The whole learning pipeline, pointed at the network.
    let spec = SessionSpec {
        policy: Some(format!("{kind}@{assoc}")),
        ..SessionSpec::default()
    };
    let backend = RemoteBackend::connect(daemon.addr(), &spec).expect("daemon accepts the spec");
    let engine = QueryEngine::new(backend);
    let store = Arc::clone(engine.store());
    let oracle = CacheQueryOracle::from_engine(engine).expect("remote target configured");
    let started = Instant::now();
    let remote = learn_policy(oracle, &setup).expect("remote learning succeeds");
    println!(
        "learned {kind}@{assoc} over the server: {} states, {} membership queries in {:.3} s \
         (client store hit-rate {:.1}%)",
        remote.machine.num_states(),
        remote.stats.membership_queries,
        started.elapsed().as_secs_f64(),
        100.0 * store.hit_rate(),
    );

    // The in-process run answers identically — the learner cannot tell the
    // backends apart.
    let local = learn_simulated_policy(kind, assoc, &setup).expect("in-process learning succeeds");
    assert_eq!(
        automata::render_mealy(&remote.machine),
        automata::render_mealy(&local.machine)
    );
    assert_eq!(
        remote.stats.membership_queries,
        local.stats.membership_queries
    );
    println!("byte-identical to the in-process run");

    // The campaign filled the daemon's shared store: an interactive session
    // replaying one of its expansions is served from memory.
    let mut session = Client::connect(daemon.addr()).expect("daemon accepts connections");
    session.target(&spec).expect("valid target");
    let replay = session.query("A?").expect("well-formed MBL");
    println!(
        "replaying the campaign's first expansion: {} -> {} (cached: {})",
        replay[0].query, replay[0].pattern, replay[0].cached
    );
    session.quit().expect("clean disconnect");

    daemon.shutdown();
    println!("daemon stopped");
}
