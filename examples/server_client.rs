//! A complete `cqd` client session: spawn an in-process daemon, configure a
//! target, run queries from two sessions (demonstrating the shared
//! cross-session store), start a learning job, and read the metrics.
//!
//! Run with: `cargo run --example server_client -- [POLICY@ASSOC]`
//!
//! The learning job defaults to `LRU@2`; an argument that does not name a
//! policy at an associativity it supports exits with status 2.

mod common;

use std::str::FromStr;

use common::positional;
use policies::PolicyKind;
use server::{spawn, Client, CqdConfig, SessionSpec};

const USAGE: &str = "usage: server_client [POLICY@ASSOC]";

/// The learning job's `POLICY@ASSOC`: a policy at an associativity it
/// supports.
struct LearnSpec(PolicyKind, usize);

impl FromStr for LearnSpec {
    type Err = ();

    fn from_str(text: &str) -> Result<Self, ()> {
        let (policy, assoc) = text.split_once('@').ok_or(())?;
        let kind: PolicyKind = policy.parse().map_err(drop)?;
        let assoc: usize = assoc.parse().map_err(drop)?;
        kind.supports_associativity(assoc)
            .then_some(LearnSpec(kind, assoc))
            .ok_or(())
    }
}

fn main() {
    let LearnSpec(kind, assoc) = positional(0, LearnSpec(PolicyKind::Lru, 2), USAGE);
    let learn_spec = format!("{kind}@{assoc}");

    // In production `cqd` runs standalone (`cargo run -p server --bin cqd`);
    // for a self-contained example an in-process daemon on an ephemeral
    // port behaves identically.
    let daemon = spawn(CqdConfig::default()).expect("ephemeral port is bindable");
    println!("cqd listening on {}", daemon.addr());

    let mut client = Client::connect(daemon.addr()).expect("daemon accepts connections");
    let info = client.hello().expect("handshake");
    println!(
        "connected to {} (proto {}, {} workers)",
        info.server, info.proto, info.workers
    );

    // Target the simulated Skylake L2, set 63 — the Figure 1 configuration.
    let spec = SessionSpec {
        level: "L2".to_string(),
        set: 63,
        ..SessionSpec::default()
    };
    println!("{}", client.target(&spec).expect("valid target"));

    // Figure 1's trace: fill A B C, then profile the re-access of A.
    for outcome in client.query("A B C A?").expect("well-formed MBL") {
        println!(
            "  {} -> {} (cached: {})",
            outcome.query, outcome.pattern, outcome.cached
        );
    }

    // A second session asking an overlapping question is answered from the
    // shared store without touching the backend.
    let mut second = Client::connect(daemon.addr()).expect("daemon accepts connections");
    second.target(&spec).expect("valid target");
    for outcome in second.query("A B C A?").expect("well-formed MBL") {
        println!(
            "  second session: {} -> {} (cached: {})",
            outcome.query, outcome.pattern, outcome.cached
        );
    }

    // Learning runs asynchronously; `wait` streams status lines.
    let id = client.learn(&learn_spec).expect("valid learn spec");
    println!("learning {learn_spec} as job {id}");
    let done = client
        .wait_with(id, |status| {
            println!(
                "  job {}: {} ({} ms)",
                status.id, status.state, status.millis
            );
        })
        .expect("job exists");
    println!(
        "job {} finished: {} states, {} queries, {}",
        id, done.states, done.queries, done.detail
    );

    let stats = client.stats().expect("stats");
    let (global, session) = (stats.global, stats.session);
    println!(
        "served {} queries ({} from the shared store, hit rate {:.1}%), {} sessions",
        global.queries,
        global.store_hits,
        100.0 * global.hit_rate(),
        global.sessions_total,
    );
    println!("this session asked {} queries", session.queries);
    for namespace in &stats.namespaces {
        println!(
            "store namespace '{}': {} entries",
            namespace.name, namespace.entries
        );
    }

    client.quit().expect("clean shutdown");
    second.quit().expect("clean shutdown");
    daemon.shutdown();
    println!("daemon stopped");
}
