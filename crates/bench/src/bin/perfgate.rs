//! The CI perf-regression gate: re-runs the pinned learning workloads and
//! fails when performance or — worse — exactness drifts.
//!
//! Four workloads cover the learning hot path end to end: the two
//! previously-undocumented Intel policies (`New1/4`, `New2/4`), the
//! worst-case Table 2 row at the default associativity cap (`SRRIP-FP/4`),
//! and the whole `table2 --max-assoc 4` sweep.  For every learned unit the
//! gate records the state count, the membership-query count, Polca's cache
//! probes and block accesses, the learner's prefix-trie nodes and their
//! bytes, and the wall time, writes the report under the `learn` key of
//! `BENCH_learn.json`, and compares against the committed baseline:
//!
//! * a **membership-query, state or trie-node count drifting by even one**
//!   fails the gate unconditionally — those numbers are byte-pinned
//!   reproduction artifacts, and "faster but different" means the
//!   optimization changed the algorithm (the trie bytes are reported, not
//!   gated: they follow the node layout);
//! * a unit whose **block accesses differ from its probes** fails the gate
//!   unconditionally — simulated caches step their probe sessions, one
//!   block access per probe, so any gap is a campaign replaying probes from
//!   the initial state (the paper's hardware cost model) instead;
//! * a workload **slower than baseline by more than `--time-tolerance`**
//!   (default 40%) fails the gate as a performance regression.  Timing
//!   compares workload totals, not per-unit times, so sub-millisecond units
//!   do not produce noise failures.  The default tolerance is wide because
//!   per-workload wall time on a busy single-core box swings ±25% run to
//!   run; the regressions the gate exists to catch were 2–3×.
//!
//! Usage:
//!   perfgate [--baseline PATH] [--json PATH] [--time-tolerance PCT]
//!            [--store-dir DIR] [--workloads LIST] [--write-baseline]
//!
//! `--write-baseline` re-measures and overwrites the baseline file instead of
//! gating — run it (on the reference machine) whenever a deliberate
//! performance or pinned-count change lands.
//!
//! `--store-dir DIR` routes every campaign through a durable [`QueryStore`]
//! rooted at `DIR` instead of the memory-only simulated oracle.  The counts,
//! trie nodes included, are gated against the same baseline — persistence
//! must be invisible to the learner, byte for byte — and the engine path
//! steps its probe sessions through the store like the direct path steps
//! its simulator, so the probes-equal-block-accesses gate holds there too.  The *time* gate is
//! skipped: every probe also pays a store lookup, and every miss a recording
//! and a log append, which the memory-only baseline times do not include.
//! The persist counters are gated exactly: the gate fails unless the store
//! dropped no append and appended one record per store miss (604,205 for
//! `new1_4` on an empty directory); the snapshot count is printed.  After
//! the campaigns the store is exported, closed and `DIR` reopened: the gate
//! fails unless the reopened store holds exactly the entries the store
//! closed with (937,681 for `new1_4` on an empty directory) and exports
//! byte-identical text.  The export's FNV-1a and the reopen time are
//! printed; the time is not gated.
//!
//! `--workloads LIST` (comma-separated names) restricts the run to a subset
//! of the pinned workloads — CI uses it to keep the store-mode count pin
//! fast.

use std::sync::Arc;
use std::time::Instant;

use bench::{merge_report, Args, TextTable};
use cachequery::{persist, QueryEngine, QueryStore};
use polca::{learn_policy, learn_simulated_policy, CacheQueryOracle, LearnSetup, PolicySimBackend};
use policies::PolicyKind;
use server::Json;

/// Default location of the committed baseline, relative to the repo root
/// (where CI and the documented invocations run).
const DEFAULT_BASELINE: &str = "crates/bench/baselines/BENCH_learn.json";

/// One learning workload: a named set of `(policy, associativity)` units
/// whose aggregate wall time is gated.
struct Workload {
    name: &'static str,
    units: Vec<(PolicyKind, usize)>,
}

/// The pinned workloads.  `table2_max_assoc_4` mirrors the default rows of
/// the `table2` binary clamped to associativity 4; the three headline units
/// are also gated on their own so a regression there is named directly.
fn workloads() -> Vec<Workload> {
    let table2: Vec<(PolicyKind, usize)> = [
        (PolicyKind::Fifo, vec![2, 4]),
        (PolicyKind::Lru, vec![2, 4]),
        (PolicyKind::Plru, vec![2, 4]),
        (PolicyKind::Mru, vec![2, 4]),
        (PolicyKind::Lip, vec![2, 4]),
        (PolicyKind::SrripHp, vec![2, 4]),
        (PolicyKind::SrripFp, vec![2, 4]),
    ]
    .into_iter()
    .flat_map(|(kind, assocs)| assocs.into_iter().map(move |a| (kind, a)))
    .collect();
    vec![
        Workload {
            name: "new1_4",
            units: vec![(PolicyKind::New1, 4)],
        },
        Workload {
            name: "new2_4",
            units: vec![(PolicyKind::New2, 4)],
        },
        Workload {
            name: "srrip_fp_4",
            units: vec![(PolicyKind::SrripFp, 4)],
        },
        Workload {
            name: "table2_max_assoc_4",
            units: table2,
        },
    ]
}

/// Measured result of one learned unit.
struct Unit {
    policy: String,
    assoc: usize,
    states: u64,
    queries: u64,
    /// Polca's cache probes (session steps and speculations).
    probes: u64,
    /// Block accesses those probes cost: equal to `probes` when sessions
    /// step, larger when they replay.
    block_accesses: u64,
    /// Nodes and bytes of the learner's prefix trie at the end of the run.
    trie_nodes: u64,
    trie_bytes: u64,
    time_ms: f64,
}

/// Measured result of one workload.
struct Measured {
    name: &'static str,
    time_ms: f64,
    units: Vec<Unit>,
}

fn measure(workload: &Workload, store: Option<&Arc<QueryStore>>) -> Measured {
    // The default learning configuration the pinned numbers were taken with.
    let setup = LearnSetup::default();
    let mut units = Vec::new();
    let started = Instant::now();
    for &(kind, assoc) in &workload.units {
        let unit_start = Instant::now();
        let outcome = match store {
            None => learn_simulated_policy(kind, assoc, &setup),
            // The durable path: the same campaign through a persisting,
            // memoizing engine.  The query counts must not notice.
            Some(store) => {
                let backend = PolicySimBackend::new(kind, assoc)
                    .unwrap_or_else(|e| panic!("building {kind}@{assoc} failed: {e}"));
                let engine = QueryEngine::with_store(backend, Arc::clone(store));
                let oracle =
                    CacheQueryOracle::from_engine(engine).expect("simulated backend is configured");
                learn_policy(oracle, &setup)
            }
        };
        let outcome = outcome.unwrap_or_else(|e| panic!("learning {kind}@{assoc} failed: {e}"));
        units.push(Unit {
            policy: kind.to_string(),
            assoc,
            states: outcome.machine.num_states() as u64,
            queries: outcome.stats.membership_queries,
            probes: outcome.cache_probes,
            block_accesses: outcome.block_accesses,
            trie_nodes: outcome.stats.trie_nodes,
            trie_bytes: outcome.stats.trie_bytes,
            time_ms: unit_start.elapsed().as_secs_f64() * 1000.0,
        });
    }
    Measured {
        name: workload.name,
        time_ms: started.elapsed().as_secs_f64() * 1000.0,
        units,
    }
}

fn report_json(measured: &[Measured]) -> Json {
    Json::obj(vec![(
        "workloads",
        Json::Arr(
            measured
                .iter()
                .map(|w| {
                    Json::obj(vec![
                        ("name", Json::str(w.name)),
                        ("time_ms", Json::Num(w.time_ms)),
                        (
                            "units",
                            Json::Arr(
                                w.units
                                    .iter()
                                    .map(|u| {
                                        Json::obj(vec![
                                            ("policy", Json::str(u.policy.clone())),
                                            ("assoc", Json::num(u.assoc as u64)),
                                            ("states", Json::num(u.states)),
                                            ("queries", Json::num(u.queries)),
                                            ("probes", Json::num(u.probes)),
                                            ("block_accesses", Json::num(u.block_accesses)),
                                            ("trie_nodes", Json::num(u.trie_nodes)),
                                            ("trie_bytes", Json::num(u.trie_bytes)),
                                            ("time_ms", Json::Num(u.time_ms)),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        ),
    )])
}

/// A baseline workload entry, as parsed back from the committed JSON.
struct BaselineWorkload {
    time_ms: f64,
    units: Vec<BaselineUnit>,
}

/// The pinned counts of one baseline unit.
struct BaselineUnit {
    policy: String,
    assoc: u64,
    states: u64,
    queries: u64,
    trie_nodes: u64,
}

fn parse_baseline(text: &str) -> Result<Vec<(String, BaselineWorkload)>, String> {
    let root = Json::parse(text).map_err(|e| format!("baseline is not valid JSON: {e}"))?;
    let workloads = root
        .get("learn")
        .and_then(|l| l.get("workloads"))
        .and_then(Json::as_arr)
        .ok_or("baseline has no learn.workloads array")?;
    let mut out = Vec::new();
    for w in workloads {
        let name = w
            .get("name")
            .and_then(Json::as_str)
            .ok_or("workload without a name")?
            .to_string();
        let time_ms = w
            .get("time_ms")
            .and_then(Json::as_f64)
            .ok_or("workload without time_ms")?;
        let mut units = Vec::new();
        for u in w.get("units").and_then(Json::as_arr).unwrap_or(&[]) {
            let count = |key| {
                u.get(key)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("unit without {key}"))
            };
            units.push(BaselineUnit {
                policy: u
                    .get("policy")
                    .and_then(Json::as_str)
                    .ok_or("unit without a policy")?
                    .to_string(),
                assoc: count("assoc")?,
                states: count("states")?,
                queries: count("queries")?,
                trie_nodes: count("trie_nodes")?,
            });
        }
        out.push((name, BaselineWorkload { time_ms, units }));
    }
    Ok(out)
}

fn main() {
    let args = Args::from_env();
    let baseline_path = args.value_of("baseline").unwrap_or(DEFAULT_BASELINE);
    let json_path = args.value_of("json").unwrap_or("BENCH_learn.json");
    let tolerance_pct = args.value_or("time-tolerance", 40.0f64);
    let write_baseline = args.has_flag("write-baseline");
    let store = args.value_of("store-dir").map(|dir| {
        let store = QueryStore::open(dir).unwrap_or_else(|e| panic!("opening store {dir}: {e}"));
        println!("perfgate: campaigns run through a durable store at {dir}");
        Arc::new(store)
    });

    let selected: Vec<Workload> = match args.value_of("workloads") {
        None => workloads(),
        Some(list) => {
            let wanted: Vec<&str> = list.split(',').map(str::trim).collect();
            let selected: Vec<Workload> = workloads()
                .into_iter()
                .filter(|w| wanted.contains(&w.name))
                .collect();
            for name in &wanted {
                assert!(
                    selected.iter().any(|w| w.name == *name),
                    "unknown workload '{name}' (known: new1_4, new2_4, srrip_fp_4, table2_max_assoc_4)"
                );
            }
            selected
        }
    };

    println!("perfgate: pinned learning workloads (tolerance {tolerance_pct}%)");
    println!();

    let measured: Vec<Measured> = selected
        .iter()
        .map(|w| measure(w, store.as_ref()))
        .collect();
    // Dropping the store is the durability barrier; the reopened directory
    // must hold exactly what the store held, entry for entry and byte for
    // byte of its export.
    let reopen = store.map(|store| {
        let dir = args
            .value_of("store-dir")
            .expect("a store comes from --store-dir");
        let store = Arc::try_unwrap(store).expect("no engine outlives its campaign");
        let closed = store.entries();
        let exported = store.export();
        let (persist, misses) = (store.persist_stats(), store.misses());
        println!(
            "perfgate: {} appends for {misses} store misses, {} dropped, {} snapshots",
            persist.appended, persist.dropped, persist.snapshots
        );
        drop(store);
        let started = Instant::now();
        let reopened =
            QueryStore::open(dir).unwrap_or_else(|e| panic!("reopening store {dir}: {e}"));
        let open_s = started.elapsed().as_secs_f64();
        let same_export = reopened.export() == exported;
        println!(
            "perfgate: reopened {dir} in {open_s:.2} s: {} of {closed} entries, export \
             FNV-1a {:08x} ({} bytes) {}",
            reopened.entries(),
            persist::checksum(exported.as_bytes()),
            exported.len(),
            if same_export { "unchanged" } else { "CHANGED" }
        );
        (closed, reopened.entries(), same_export, persist, misses)
    });

    let mut table = TextTable::new(&[
        "Workload",
        "Policy",
        "Assoc.",
        "# States",
        "Queries",
        "Probes",
        "Block acc.",
        "Trie nodes",
        "Time",
    ]);
    for w in &measured {
        for u in &w.units {
            table.add_row(&[
                w.name.to_string(),
                u.policy.clone(),
                u.assoc.to_string(),
                u.states.to_string(),
                u.queries.to_string(),
                u.probes.to_string(),
                u.block_accesses.to_string(),
                u.trie_nodes.to_string(),
                format!("{:.1} ms", u.time_ms),
            ]);
        }
        table.add_row(&[
            w.name.to_string(),
            "(total)".to_string(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            format!("{:.1} ms", w.time_ms),
        ]);
    }
    print!("{}", table.render());
    println!();

    let report = report_json(&measured);
    if write_baseline {
        if let Some(dir) = std::path::Path::new(baseline_path).parent() {
            std::fs::create_dir_all(dir).expect("baseline directory is creatable");
        }
        merge_report(baseline_path, "learn", report);
        println!("baseline rewritten: {baseline_path}");
        return;
    }
    merge_report(json_path, "learn", report);

    let baseline_text = match std::fs::read_to_string(baseline_path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("perfgate: cannot read baseline {baseline_path}: {e}");
            eprintln!("perfgate: run with --write-baseline to create it");
            std::process::exit(1);
        }
    };
    let baseline = match parse_baseline(&baseline_text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("perfgate: {e}");
            std::process::exit(1);
        }
    };

    let mut violations: Vec<String> = Vec::new();
    if let Some((closed, reopened, same_export, persist, misses)) = reopen {
        if reopened != closed {
            violations.push(format!(
                "the reopened store holds {reopened} entries, {closed} when it closed"
            ));
        }
        if !same_export {
            violations.push("the reopened store exports other bytes than it closed with".into());
        }
        if persist.dropped != 0 {
            violations.push(format!("the store dropped {} appends", persist.dropped));
        }
        if persist.appended != misses {
            violations.push(format!(
                "the store appended {} records for {misses} store misses",
                persist.appended
            ));
        }
    }
    for w in &measured {
        let Some((_, base)) = baseline.iter().find(|(name, _)| name == w.name) else {
            violations.push(format!("workload {} has no baseline entry", w.name));
            continue;
        };
        // Exactness first: every learned unit must step its probe sessions
        // and match the baseline counts bit for bit.
        for u in &w.units {
            if u.block_accesses != u.probes {
                violations.push(format!(
                    "{}: {}@{} made {} block accesses for {} probes (probe sessions \
                     replayed instead of stepping)",
                    w.name, u.policy, u.assoc, u.block_accesses, u.probes
                ));
            }
            let Some(pinned) = base
                .units
                .iter()
                .find(|b| b.policy == u.policy && b.assoc == u.assoc as u64)
            else {
                violations.push(format!(
                    "{}: {}@{} is not in the baseline",
                    w.name, u.policy, u.assoc
                ));
                continue;
            };
            for (what, got, want) in [
                ("states", u.states, pinned.states),
                ("membership queries", u.queries, pinned.queries),
                ("trie nodes", u.trie_nodes, pinned.trie_nodes),
            ] {
                if got != want {
                    violations.push(format!(
                        "{}: {}@{} has {got} {what} (baseline {want})",
                        w.name, u.policy, u.assoc
                    ));
                }
            }
        }
        if reopen.is_some() {
            // The store-backed engine path is a different machine than the
            // memory-only oracle the baseline timed; only counts are gated.
            println!(
                "ok: {} counts pinned ({:.1} ms through the store, untimed)",
                w.name, w.time_ms
            );
            continue;
        }
        let limit = base.time_ms * (1.0 + tolerance_pct / 100.0);
        if w.time_ms > limit {
            violations.push(format!(
                "{}: {:.1} ms exceeds baseline {:.1} ms by more than {}%",
                w.name, w.time_ms, base.time_ms, tolerance_pct
            ));
        } else {
            println!(
                "ok: {} {:.1} ms (baseline {:.1} ms, limit {:.1} ms)",
                w.name, w.time_ms, base.time_ms, limit
            );
        }
    }

    if !violations.is_empty() {
        println!();
        for v in &violations {
            eprintln!("REGRESSION: {v}");
        }
        std::process::exit(1);
    }
    println!();
    println!("perfgate: all workloads within bounds, all counts pinned");
}
