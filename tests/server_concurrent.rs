//! Integration test of the `cqd` daemon: many concurrent sessions with
//! overlapping workloads must get answers byte-identical to an in-process
//! `QueryEngine<Backend>`, while the shared cross-session store absorbs the
//! overlap.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::thread;

use cache::LevelId;
use cachequery::{encode_pattern, Backend, QueryEngine, Target};
use hardware::{CpuModel, SimulatedCpu};
use server::{spawn, Client, CqdConfig, Response, SessionSpec};

/// The overlapping workload: every client runs all of these expressions
/// against both target sets, in a client-specific order.
const EXPRESSIONS: &[&str] = &[
    "A B C A?",
    "@ X A?",
    "@ X _?",
    "X? X?",
    "A A! A?",
    "(@)?",
    "A B C D E F G H I J? A?",
];

const SETS: &[u64] = &[3, 9];
const CLIENTS: usize = 8;

fn spec_for(seed: u64, set: u64) -> SessionSpec {
    SessionSpec {
        seed,
        set,
        ..SessionSpec::default()
    }
}

/// (seed, set, expression) → the answers as `query -> pattern/consistent`
/// lines — the byte-level form the equality assertions compare.
type Answers = BTreeMap<(u64, u64, String), Vec<String>>;

fn render_answers(results: &[server::WireOutcome]) -> Vec<String> {
    results
        .iter()
        .map(|r| format!("{} -> {} ({})", r.query, r.pattern, r.consistent))
        .collect()
}

/// Runs `clients` concurrent sessions, each covering every (seed, set,
/// expression) triple in a client-specific order so the overlap arrives
/// interleaved, and returns what each one was answered.
fn run_clients(addr: SocketAddr, clients: usize, seeds: &[u64]) -> Vec<Answers> {
    let targets: Vec<(u64, u64)> = seeds
        .iter()
        .flat_map(|&seed| SETS.iter().map(move |&set| (seed, set)))
        .collect();
    let steps = EXPRESSIONS.len() * targets.len();
    thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client_index| {
                let targets = &targets;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("daemon accepts connections");
                    assert_eq!(client.hello().unwrap().server, "cqd");
                    let mut collected: Answers = BTreeMap::new();
                    for step in 0..steps {
                        let rotated = (step + client_index) % steps;
                        let (seed, set) = targets[rotated % targets.len()];
                        let expr = EXPRESSIONS[rotated / targets.len()];
                        client.target(&spec_for(seed, set)).unwrap();
                        let results = client.query(expr).unwrap();
                        collected.insert((seed, set, expr.to_string()), render_answers(&results));
                    }
                    client.quit().unwrap();
                    collected
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// The in-process oracle: the same simulated machines, driven directly.
fn direct_answers(seeds: &[u64]) -> Answers {
    let mut expected: Answers = BTreeMap::new();
    for &seed in seeds {
        let cpu = SimulatedCpu::new(CpuModel::SkylakeI5_6500, seed);
        let mut oracle = QueryEngine::new(Backend::new(cpu));
        for &set in SETS {
            oracle
                .backend_mut()
                .select_target(Target::new(LevelId::L1, set as usize, 0))
                .unwrap();
            for &expr in EXPRESSIONS {
                let results = oracle.query_mbl(expr).unwrap();
                let rendered: Vec<String> = results
                    .iter()
                    .map(|r| {
                        let pattern = encode_pattern(&r.outcomes);
                        format!("{} -> {} ({})", r.rendered, pattern, r.consistent)
                    })
                    .collect();
                expected.insert((seed, set, expr.to_string()), rendered);
            }
        }
    }
    expected
}

#[test]
fn concurrent_sessions_agree_with_the_direct_oracle() {
    let daemon = spawn(CqdConfig {
        // Two miss slots for eight clients, so the test also exercises the
        // backpressure path: sessions wait for a slot.
        workers: 2,
        ..CqdConfig::default()
    })
    .expect("ephemeral port is always bindable");

    // 8 concurrent clients on the default machine (seed 7).
    let answers = run_clients(daemon.addr(), CLIENTS, &[7]);
    let expected = direct_answers(&[7]);
    for (client_index, collected) in answers.iter().enumerate() {
        assert_eq!(
            collected, &expected,
            "client {client_index} diverged from the direct engine"
        );
    }

    // The workload overlaps massively (8 clients × identical queries), so
    // the shared store must have served a substantial share from memory.
    let hit_rate = daemon.store_hit_rate();
    assert!(
        hit_rate > 0.0,
        "no cross-session sharing happened (hit rate {hit_rate})"
    );
    // Only one backend configuration was used.
    assert_eq!(daemon.backend_instances(), 1);
    daemon.shutdown();
}

#[test]
fn two_machines_take_turns_on_one_miss_slot() {
    // With a single slot, the misses of sessions on two machines (seeds 7
    // and 8) execute one at a time, each session re-targeting its machine;
    // the answers must still be each machine's own.
    let daemon = spawn(CqdConfig {
        workers: 1,
        ..CqdConfig::default()
    })
    .unwrap();
    let answers = run_clients(daemon.addr(), 4, &[7, 8]);
    let expected = direct_answers(&[7, 8]);
    for (client_index, collected) in answers.iter().enumerate() {
        assert_eq!(
            collected, &expected,
            "client {client_index} diverged from the direct engines"
        );
    }
    assert_eq!(daemon.backend_instances(), 2);

    // Every slot was given back.
    let mut client = Client::connect(daemon.addr()).unwrap();
    let global = client.stats().unwrap().global;
    assert_eq!(global.workers, 1);
    assert_eq!(global.busy_workers, 0);
    assert!(global.backend_queries > 0);
    client.quit().unwrap();
    daemon.shutdown();
}

#[test]
fn stats_jobs_batch_and_repl_work_over_the_wire() {
    let daemon = spawn(CqdConfig::default()).unwrap();
    let mut client = Client::connect(daemon.addr()).unwrap();

    // Batch mode groups results per expression.
    let groups = client.batch(&["A?", "@ X _?"]).unwrap();
    assert_eq!(groups.len(), 2);
    assert_eq!(groups[0].len(), 1);
    assert_eq!(groups[1].len(), 8);

    // The REPL command language (the server crate's tests/repl.rs covers
    // each command); invalid configurations are rejected eagerly.
    match client.repl("A B C A?").unwrap() {
        Response::Outcomes { results } => assert_eq!(results[0].pattern, "H"),
        other => panic!("unexpected repl response: {other:?}"),
    }
    assert!(client.repl("set 100000").is_err());

    // Learning jobs run asynchronously and stream status over `wait`.
    let id = client.learn("LRU@2").unwrap();
    let mut status_lines = 0;
    let done = client.wait_with(id, |_| status_lines += 1).unwrap();
    assert_eq!(done.state, "done");
    assert_eq!(done.states, 2);
    assert_eq!(done.detail, "identified as LRU");
    assert!(status_lines >= 1);
    // Polling after completion still works.
    assert_eq!(client.job(id).unwrap().state, "done");
    // Unknown jobs and bad specs are errors.
    assert!(client.job(999).is_err());
    assert!(client.learn("LRU@64").is_err());
    assert!(client.learn("CLAIRVOYANT@2").is_err());

    // Global metrics reflect the traffic of this session.
    let stats = client.stats().unwrap();
    let (global, session) = (stats.global, stats.session);
    assert!(global.queries >= 9);
    assert_eq!(global.jobs_spawned, 1);
    assert_eq!(global.jobs_finished, 1);
    assert_eq!(global.sessions_active, 1);
    assert!(session.queries >= 9);
    // The stats response breaks the store down per namespace; this session
    // only used the default hardware namespace plus the learn campaign's.
    assert!(!stats.namespaces.is_empty());
    assert!(stats
        .namespaces
        .iter()
        .any(|ns| ns.name.starts_with("skylake seed=7") && ns.entries > 0));

    client.quit().unwrap();
    daemon.shutdown();

    let second = spawn(CqdConfig::default()).unwrap();
    // A second daemon starts cleanly after the first shut down (distinct
    // ephemeral ports, no leaked state).
    let mut client = Client::connect(second.addr()).unwrap();
    assert_eq!(client.query("A?").unwrap().len(), 1);
    second.shutdown();
}

#[test]
fn learn_campaigns_fill_the_store_sessions_read() {
    // The store-integrated learn path: a `learn LRU@2` campaign runs through
    // the daemon's shared query store, so a session targeting the same
    // simulated policy afterwards replays the campaign's expansions straight
    // from memory — cross-session hits, with zero backend executions.
    let daemon = spawn(CqdConfig::default()).unwrap();
    let mut client = Client::connect(daemon.addr()).unwrap();

    let id = client.learn("LRU@2").unwrap();
    let done = client.wait(id).unwrap();
    assert_eq!(done.state, "done");
    assert_eq!(done.states, 2);

    // A fresh session targets the campaign's namespace and replays some of
    // its expansions: the very first membership queries of the L* run touch
    // the initial content (blocks A and B), so these prefixes are cached.
    let mut replay = Client::connect(daemon.addr()).unwrap();
    replay
        .target(&SessionSpec {
            policy: Some("LRU@2".into()),
            ..SessionSpec::default()
        })
        .unwrap();
    let results = replay.query("A?").unwrap();
    assert!(
        results[0].cached,
        "the campaign's expansions must be served from the shared store"
    );
    assert_eq!(results[0].pattern, "H");

    let stats = replay.stats().unwrap();
    assert!(
        stats.session.store_hits > 0,
        "hit-rate must be > 0 for a session replaying the campaign"
    );
    assert!(stats
        .namespaces
        .iter()
        .any(|ns| ns.name.starts_with("policy:LRU@2") && ns.entries > 0));
    // The deterministic policy simulation never contradicts itself.
    assert_eq!(stats.global.store_conflicts, 0);

    client.quit().unwrap();
    replay.quit().unwrap();
    daemon.shutdown();
}

#[test]
fn noisy_sessions_vote_their_way_to_the_clean_answers() {
    // The noise-robustness path over the wire: a session targeting a
    // fault-injecting policy backend gets answers byte-identical to the
    // clean simulation — the daemon's engine votes server-side — and the
    // vote-margin statistics show up in `stats`.
    let daemon = spawn(CqdConfig::default()).unwrap();
    let mut clean = Client::connect(daemon.addr()).unwrap();
    clean
        .target(&SessionSpec {
            policy: Some("LRU@4".into()),
            ..SessionSpec::default()
        })
        .unwrap();
    let mut noisy = Client::connect(daemon.addr()).unwrap();
    noisy
        .target(&SessionSpec {
            policy: Some("LRU@4+noise(flip=0.05,seed=3)".into()),
            ..SessionSpec::default()
        })
        .unwrap();

    for expr in EXPRESSIONS {
        let reference = clean.query(expr).unwrap();
        let voted = noisy.query(expr).unwrap();
        assert_eq!(
            render_answers(&voted),
            render_answers(&reference),
            "voting failed to recover the clean answers for '{expr}'"
        );
        // Noisy answers live in their own namespace: nothing the clean
        // session executed can have pre-answered them.
        assert!(voted.iter().all(|r| r.consistent));
    }

    let stats = noisy.stats().unwrap();
    assert!(
        stats.global.votes > 0,
        "noisy queries must go through the vote"
    );
    assert!(stats.global.vote_min_margin_permille <= 1000);
    assert_eq!(
        stats.global.vote_unsettled, 0,
        "5% flips must settle within the escalation budget"
    );
    assert!(stats
        .namespaces
        .iter()
        .any(|ns| ns.name.starts_with("noisy[flip=50,") && ns.entries > 0));

    // A noisy learn campaign reaches the same automaton as the clean one.
    let clean_job = clean.learn("LRU@2").unwrap();
    let noisy_job = clean.learn("LRU@2+noise(flip=0.05,seed=5)").unwrap();
    let clean_done = clean.wait(clean_job).unwrap();
    let noisy_done = clean.wait(noisy_job).unwrap();
    assert_eq!(clean_done.state, "done");
    assert_eq!(noisy_done.state, "done");
    assert_eq!(noisy_done.states, clean_done.states);
    assert_eq!(noisy_done.detail, "identified as LRU");

    clean.quit().unwrap();
    noisy.quit().unwrap();
    daemon.shutdown();
}

#[test]
fn different_seeds_and_targets_do_not_share_answers() {
    let daemon = spawn(CqdConfig::default()).unwrap();
    let mut a = Client::connect(daemon.addr()).unwrap();
    let mut b = Client::connect(daemon.addr()).unwrap();
    a.target(&SessionSpec::default()).unwrap();
    b.target(&SessionSpec {
        seed: 8,
        ..SessionSpec::default()
    })
    .unwrap();

    let first = a.query("@ X A?").unwrap();
    assert!(!first[0].cached, "fresh query cannot be cached");
    // Different seed → different namespace → not served from the store.
    let other_seed = b.query("@ X A?").unwrap();
    assert!(!other_seed[0].cached, "seeds must not share a namespace");
    // Same seed and target, different session → shared.
    let mut c = Client::connect(daemon.addr()).unwrap();
    let shared = c.query("@ X A?").unwrap();
    assert!(shared[0].cached, "identical configurations must share");
    assert_eq!(shared[0].pattern, first[0].pattern);
    // Two distinct (model, seed, cat) combinations were instantiated.
    assert_eq!(daemon.backend_instances(), 2);
    daemon.shutdown();
}
