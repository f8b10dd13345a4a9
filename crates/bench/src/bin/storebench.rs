//! Store-eviction benchmark: replays real query-store traffic into capped
//! stores and reports how the hit rate degrades with the cap.
//!
//! Three phases:
//!
//! 1. **Capture** — learning campaigns for a set of policy simulators run
//!    through one shared [`QueryStore`] carrying a [`StoreTap`]; every
//!    lookup and record the campaigns issue is captured as an event.  A
//!    revisit pass then re-looks-up a sample of each namespace's recorded
//!    queries round-robin, modelling the cross-campaign reuse a long-lived
//!    daemon sees.
//! 2. **Replay** — the captured event stream is replayed into fresh
//!    bounded stores at shrinking entry caps (fractions of the uncapped
//!    peak); each clears its least recently touched namespace when over the
//!    cap.  The store-lookup hit rate at each cap, relative to the uncapped
//!    baseline, is the degradation curve (reported as `LRU`).
//! 3. **Durability pin** — an LRU campaign is learned cold through a
//!    durable store, then again warm after a reopen: the state and
//!    membership-query counts must be byte-identical to the in-memory
//!    baseline (`BENCH_learn.json`), and the warm run must never fall
//!    through to the backend.  This is the proof that persistence does not
//!    perturb the paper's pinned Table 2 numbers.
//!
//! The report lands under the `store` key of `BENCH_store.json`.
//!
//! Usage:
//!   storebench [--assoc N] [--json PATH] [--baseline PATH]

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bench::{merge_report, Args, TextTable};
use cache::HitMiss;
use cachequery::{QueryEngine, QueryStore, StoreOptions, StoreTap};
use mbl::{expand_query, render_query, Query};
use polca::{learn_policy, CacheQueryOracle, LearnSetup, PolicySimBackend};
use policies::PolicyKind;
use server::Json;

/// Default location of the committed learning baseline whose LRU entry the
/// durability pin compares against.
const DEFAULT_BASELINE: &str = "crates/bench/baselines/BENCH_learn.json";

/// One captured store event, namespaces interned.
enum Event {
    Lookup {
        ns: u32,
        query: Query,
    },
    Record {
        ns: u32,
        query: Query,
        outcomes: Vec<HitMiss>,
    },
}

/// One raw captured event: interned namespace, rendered query, and the
/// recorded outcomes (`None` for a lookup).
type RawEvent = (u32, String, Option<Vec<HitMiss>>);

/// Tap that captures the full store traffic of the capture campaigns.
#[derive(Debug, Default)]
struct CaptureTap {
    names: Mutex<HashMap<String, u32>>,
    events: Mutex<Vec<RawEvent>>,
}

impl CaptureTap {
    fn intern(&self, namespace: &str) -> u32 {
        let mut names = self.names.lock().unwrap();
        let next = names.len() as u32;
        *names.entry(namespace.to_string()).or_insert(next)
    }
}

impl StoreTap for CaptureTap {
    fn on_lookup(&self, namespace: &str, query: &Query, _hit: bool) {
        let ns = self.intern(namespace);
        self.events
            .lock()
            .unwrap()
            .push((ns, render_query(query), None));
    }

    fn on_record(&self, namespace: &str, query: &Query, outcomes: &[HitMiss]) {
        let ns = self.intern(namespace);
        self.events
            .lock()
            .unwrap()
            .push((ns, render_query(query), Some(outcomes.to_vec())));
    }
}

/// Runs the capture campaigns and returns the parsed event stream, the
/// namespace table and the uncapped peak entry count.
fn capture(kinds: &[PolicyKind], assoc: usize) -> (Vec<Event>, Vec<String>, u64) {
    let tap = Arc::new(CaptureTap::default());
    let store = Arc::new(
        QueryStore::with_options(StoreOptions {
            tap: Some(Arc::clone(&tap) as Arc<dyn StoreTap>),
            ..StoreOptions::default()
        })
        .expect("a memory-only store performs no I/O"),
    );
    let setup = LearnSetup::default();
    for &kind in kinds {
        let backend =
            PolicySimBackend::new(kind, assoc).unwrap_or_else(|e| panic!("{kind}@{assoc}: {e}"));
        let engine = QueryEngine::with_store(backend, Arc::clone(&store));
        let oracle = CacheQueryOracle::from_engine(engine).expect("configured backend");
        learn_policy(oracle, &setup).unwrap_or_else(|e| panic!("learning {kind}@{assoc}: {e}"));
    }

    // Revisit pass: walk the namespaces round-robin, re-looking-up every
    // 16th recorded query.  A long-lived daemon sees exactly this shape —
    // old campaigns queried again while new ones run — and it is what a
    // bad eviction policy gets wrong.
    let recorded: Vec<(String, Query)> = {
        let names = tap.names.lock().unwrap();
        let mut by_id: Vec<&String> = names.keys().collect();
        by_id.sort_by_key(|name| names[*name]);
        let events = tap.events.lock().unwrap();
        events
            .iter()
            .filter(|(_, _, outcomes)| outcomes.is_some())
            .step_by(16)
            .map(|(ns, mbl, _)| {
                let query = expand_query(mbl, assoc).unwrap().pop().unwrap();
                (by_id[*ns as usize].clone(), query)
            })
            .collect()
    };
    for (namespace, query) in &recorded {
        store.lookup(namespace, query);
    }

    let peak = store.entries();
    let names = std::mem::take(&mut *tap.names.lock().unwrap());
    let mut table = vec![String::new(); names.len()];
    for (name, id) in names {
        table[id as usize] = name;
    }
    let events = std::mem::take(&mut *tap.events.lock().unwrap())
        .into_iter()
        .map(|(ns, mbl, outcomes)| {
            let query = expand_query(&mbl, assoc).unwrap().pop().unwrap();
            match outcomes {
                None => Event::Lookup { ns, query },
                Some(outcomes) => Event::Record {
                    ns,
                    query,
                    outcomes,
                },
            }
        })
        .collect();
    (events, table, peak)
}

/// Interleaves the capture stream across namespaces in deterministic,
/// unevenly-sized bursts.  Capture runs the campaigns back to back; a live
/// daemon runs them concurrently, with some campaigns bursting while
/// others idle — and that skewed interleaving is what a capped store has to
/// cope with.  A fixed LCG drives the schedule so every replay sees the
/// identical stream.
fn interleave(events: Vec<Event>, namespaces: usize) -> Vec<Event> {
    let mut queues: Vec<std::collections::VecDeque<Event>> = (0..namespaces)
        .map(|_| std::collections::VecDeque::new())
        .collect();
    for event in events {
        let ns = match &event {
            Event::Lookup { ns, .. } | Event::Record { ns, .. } => *ns as usize,
        };
        queues[ns].push_back(event);
    }
    let mut out = Vec::with_capacity(queues.iter().map(|q| q.len()).sum());
    let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut lcg = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    while queues.iter().any(|q| !q.is_empty()) {
        let pick = lcg() as usize % queues.len();
        let burst = 16 + lcg() as usize % 241;
        for _ in 0..burst {
            let Some(event) = queues[pick].pop_front() else {
                break;
            };
            out.push(event);
        }
    }
    out
}

/// One point of a degradation curve.
struct Point {
    cap: u64,
    cap_permille: u32,
    hits: u64,
    misses: u64,
    evictions: u64,
    time_ms: f64,
}

impl Point {
    fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Replays the captured stream into a fresh store capped at `cap` entries;
/// `None` replays uncapped (the baseline).
fn replay(events: &[Event], names: &[String], cap: Option<u64>, cap_permille: u32) -> Point {
    let store = QueryStore::with_options(StoreOptions {
        max_entries: cap,
        ..StoreOptions::default()
    })
    .expect("a memory-only store performs no I/O");
    let started = Instant::now();
    for event in events {
        match event {
            Event::Lookup { ns, query } => {
                store.lookup(&names[*ns as usize], query);
            }
            Event::Record {
                ns,
                query,
                outcomes,
            } => {
                store.record(&names[*ns as usize], query, outcomes, true);
            }
        }
    }
    let (hits, misses) = store.counts();
    Point {
        cap: cap.unwrap_or(0),
        cap_permille,
        hits,
        misses,
        evictions: store.evictions(),
        time_ms: started.elapsed().as_secs_f64() * 1000.0,
    }
}

/// Result of the durability pin: the same campaign cold (fresh durable
/// store), then warm (after a reopen of the same directory).
struct DurablePin {
    states: u64,
    queries: u64,
    warm_states: u64,
    warm_queries: u64,
    replayed: u64,
    warm_misses: u64,
}

/// Learns LRU at `assoc` through a durable store twice — cold, then warm
/// over a reopened directory — so persistence itself is on the query path
/// of a pinned workload.
fn durable_pin(assoc: usize) -> DurablePin {
    let dir = std::env::temp_dir().join(format!("cq_storebench_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let setup = LearnSetup::default();
    let campaign = |store: &Arc<QueryStore>| {
        let backend = PolicySimBackend::new(PolicyKind::Lru, assoc).expect("LRU supports assoc");
        let engine = QueryEngine::with_store(backend, Arc::clone(store));
        let oracle = CacheQueryOracle::from_engine(engine).expect("configured backend");
        let outcome = learn_policy(oracle, &setup).expect("LRU campaign");
        (
            outcome.machine.num_states() as u64,
            outcome.stats.membership_queries,
        )
    };

    let store = Arc::new(QueryStore::open(&dir).expect("creatable store dir"));
    let (states, queries) = campaign(&store);
    // Graceful shutdown = snapshot, exactly like the daemon: a campaign
    // bursts records faster than the writer drains its bounded channel, and
    // the compacted snapshot is what heals any dropped appends.
    store.snapshot();
    drop(store);

    let store = Arc::new(QueryStore::open(&dir).expect("reopenable store dir"));
    let replayed = store.persist_stats().replayed;
    let (warm_states, warm_queries) = campaign(&store);
    let (_, warm_misses) = store.counts();
    store.flush();
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);

    DurablePin {
        states,
        queries,
        warm_states,
        warm_queries,
        replayed,
        warm_misses,
    }
}

/// Reads the pinned `(states, queries)` of `LRU@assoc` from the committed
/// learning baseline, `None` when the baseline is missing or lacks the row.
fn baseline_lru(path: &str, assoc: usize) -> Option<(u64, u64)> {
    let root = Json::parse(&std::fs::read_to_string(path).ok()?).ok()?;
    let workloads = root.get("learn")?.get("workloads")?.as_arr()?;
    for w in workloads {
        for u in w.get("units").and_then(Json::as_arr).unwrap_or(&[]) {
            if u.get("policy").and_then(Json::as_str) == Some("LRU")
                && u.get("assoc").and_then(Json::as_u64) == Some(assoc as u64)
            {
                return Some((
                    u.get("states").and_then(Json::as_u64)?,
                    u.get("queries").and_then(Json::as_u64)?,
                ));
            }
        }
    }
    None
}

fn main() {
    let args = Args::from_env();
    let assoc = args.value_or("assoc", 4usize);
    let json_path = args.value_of("json").unwrap_or("BENCH_store.json");
    let baseline_path = args.value_of("baseline").unwrap_or(DEFAULT_BASELINE);

    let kinds = [
        PolicyKind::Fifo,
        PolicyKind::Lru,
        PolicyKind::Plru,
        PolicyKind::Mru,
        PolicyKind::Lip,
    ];
    let caps_permille = [1000, 750, 500, 250, 125];

    println!(
        "storebench: capturing {} campaigns at associativity {assoc}",
        kinds.len()
    );
    let capture_start = Instant::now();
    let (events, names, peak) = capture(&kinds, assoc);
    let events = interleave(events, names.len());
    let lookups = events
        .iter()
        .filter(|e| matches!(e, Event::Lookup { .. }))
        .count() as u64;
    let records = events.len() as u64 - lookups;
    println!(
        "captured {} events ({} lookups, {} records) across {} namespaces, \
         peak {} entries, {:.1} ms",
        events.len(),
        lookups,
        records,
        names.len(),
        peak,
        capture_start.elapsed().as_secs_f64() * 1000.0
    );
    println!();

    let baseline_rate = replay(&events, &names, None, 1000).hit_rate();

    let mut table = TextTable::new(&[
        "Cap",
        "Cap %",
        "Hits",
        "Misses",
        "Hit rate",
        "Degradation",
        "Evictions",
    ]);
    let mut points = Vec::new();
    for permille in caps_permille {
        let cap = (peak * u64::from(permille) / 1000).max(1);
        let point = replay(&events, &names, Some(cap), permille);
        table.add_row(&[
            cap.to_string(),
            format!("{:.1}", f64::from(permille) / 10.0),
            point.hits.to_string(),
            point.misses.to_string(),
            format!("{:.4}", point.hit_rate()),
            format!("{:+.2}%", (point.hit_rate() - baseline_rate) * 100.0),
            point.evictions.to_string(),
        ]);
        points.push(point);
    }
    print!("{}", table.render());
    println!();

    println!("durability pin: LRU@{assoc} cold vs. warm over a reopened store");
    let pin = durable_pin(assoc);
    println!(
        "cold {} states / {} queries; warm {} states / {} queries \
         ({} records replayed, {} warm store misses)",
        pin.states, pin.queries, pin.warm_states, pin.warm_queries, pin.replayed, pin.warm_misses
    );

    let mut violations = Vec::new();
    if (pin.states, pin.queries) != (pin.warm_states, pin.warm_queries) {
        violations.push(format!(
            "warm campaign drifted: {}/{} vs. cold {}/{}",
            pin.warm_states, pin.warm_queries, pin.states, pin.queries
        ));
    }
    if pin.replayed == 0 {
        violations.push("reopen replayed zero records".to_string());
    }
    if pin.warm_misses > 0 {
        violations.push(format!(
            "warm campaign fell through to the backend {} times (recovery must be exact)",
            pin.warm_misses
        ));
    }
    match baseline_lru(baseline_path, assoc) {
        Some((states, queries)) => {
            if (pin.states, pin.queries) != (states, queries) {
                violations.push(format!(
                    "persistence perturbed the pinned counts: {}/{} vs. baseline {}/{}",
                    pin.states, pin.queries, states, queries
                ));
            } else {
                println!(
                    "pinned counts hold with persistence on: {states} states / {queries} queries"
                );
            }
        }
        None => println!("note: no LRU@{assoc} row in {baseline_path}; pin not compared"),
    }

    let report = Json::obj(vec![
        (
            "capture",
            Json::obj(vec![
                (
                    "policies",
                    Json::Arr(kinds.iter().map(|k| Json::str(k.to_string())).collect()),
                ),
                ("assoc", Json::num(assoc as u64)),
                ("namespaces", Json::num(names.len() as u64)),
                ("lookups", Json::num(lookups)),
                ("records", Json::num(records)),
                ("peak_entries", Json::num(peak)),
                ("baseline_hit_rate", Json::Num(baseline_rate)),
            ]),
        ),
        (
            "curves",
            Json::Arr(vec![Json::obj(vec![
                ("evictor", Json::str("LRU")),
                (
                    "points",
                    Json::Arr(
                        points
                            .iter()
                            .map(|p| {
                                Json::obj(vec![
                                    ("cap", Json::num(p.cap)),
                                    ("cap_permille", Json::num(u64::from(p.cap_permille))),
                                    ("hits", Json::num(p.hits)),
                                    ("misses", Json::num(p.misses)),
                                    ("hit_rate", Json::Num(p.hit_rate())),
                                    ("evictions", Json::num(p.evictions)),
                                    ("time_ms", Json::Num(p.time_ms)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])]),
        ),
        (
            "durable",
            Json::obj(vec![
                ("policy", Json::str("LRU")),
                ("assoc", Json::num(assoc as u64)),
                ("states", Json::num(pin.states)),
                ("queries", Json::num(pin.queries)),
                ("warm_states", Json::num(pin.warm_states)),
                ("warm_queries", Json::num(pin.warm_queries)),
                ("replayed", Json::num(pin.replayed)),
                ("warm_misses", Json::num(pin.warm_misses)),
            ]),
        ),
    ]);
    merge_report(json_path, "store", report);
    println!("report written: {json_path}");

    if !violations.is_empty() {
        println!();
        for v in &violations {
            eprintln!("FAILURE: {v}");
        }
        std::process::exit(1);
    }
}
