//! `learn_durable`: a `cqd` with a store directory on an empty scratch
//! directory learns New1@4 (cold: store misses, records, log appends),
//! shuts down gracefully, restarts on the same directory (store replay),
//! and learns New1@4 again (warm: served entirely from the store); before,
//! between and after the campaigns, seeded membership queries run through
//! the same engine path, each pass on a fresh durable store.  The engine,
//! store and persistence layers do most of the work.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use cachequery::{QueryEngine, QueryStore};
use learning::MembershipOracle;
use polca::{learn_policy, CacheQueryOracle, PolcaOracle, PolicySimBackend};
use policies::{policy_alphabet, PolicyKind};
use server::{spawn, Client, CqdConfig, CqdHandle};

use crate::layers::{
    backend_metrics, campaign_metrics, traced_campaign, Ledger, TracedBackend, TracedCampaign,
};
use crate::{
    child, gen, ground_truth, learn_setup, pool_latencies, Args, Latencies, Report, Samples,
    TempDir,
};

const SPEC: &str = "New1@4";
const KIND: PolicyKind = PolicyKind::New1;
const ASSOC: usize = 4;
const STATES: u64 = 160;
const MQ: u64 = 353_310;
/// Rounds per run; the end-to-end figures are medians over the rounds.
const ROUNDS: usize = 2;
/// Membership queries per query pass.
const QUERY_WORDS: u64 = 2_000;
/// Untraced/traced pairs of in-process cold campaigns in a traced run, run
/// in the order untraced, traced, traced, untraced, … so a steady drift of
/// the machine's speed cancels out of the tracing overhead.
const OVERHEAD_PAIRS: usize = 2;

fn config(dir: &Path) -> CqdConfig {
    CqdConfig {
        workers: 2,
        store_dir: Some(dir.to_path_buf()),
        ..CqdConfig::default()
    }
}

fn namespace() -> String {
    PolicySimBackend::config_for(KIND, ASSOC).to_string()
}

/// The deterministic counts of one campaign through a durable store.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
struct Counts {
    states: u64,
    mq: u64,
    hits: u64,
    misses: u64,
    entries: u64,
    /// Persist appends attempted (appended + dropped).
    appends: u64,
}

/// Starts a daemon on `dir` and waits for its `hello`: the restart path.
fn start(dir: &Path) -> Result<(CqdHandle, Client), String> {
    let daemon = spawn(config(dir)).map_err(|e| format!("starting cqd: {e}"))?;
    let mut client = Client::connect(daemon.addr()).map_err(|e| e.to_string())?;
    client.hello().map_err(|e| e.to_string())?;
    Ok((daemon, client))
}

/// Runs one `learn` → `wait` campaign over the wire; returns its wall time,
/// the daemon's counts after it, and its unlogged share.
fn campaign(
    report: &mut Report,
    client: &mut Client,
    label: &str,
) -> Result<(f64, Counts, f64), String> {
    let before = client.stats().map_err(|e| e.to_string())?;
    let started = Instant::now();
    let id = client.learn(SPEC).map_err(|e| e.to_string())?;
    let status = client.wait(id).map_err(|e| e.to_string())?;
    let elapsed = started.elapsed().as_secs_f64();
    let after = client.stats().map_err(|e| e.to_string())?;
    report.check(
        status.state == "done" && status.states == STATES && status.queries == MQ,
        || {
            format!(
                "{label} {SPEC}: {} with {}/{} (pinned {STATES}/{MQ})",
                status.state, status.states, status.queries
            )
        },
    );
    let ns = namespace();
    let usage = |stats: &server::ServerStats| {
        stats
            .namespaces
            .iter()
            .find(|n| n.name == ns)
            .map_or((0, 0, 0), |n| (n.hits, n.misses, n.entries))
    };
    let (h0, m0, _) = usage(&before);
    let (h1, m1, entries) = usage(&after);
    let appended = after.global.persist_appended - before.global.persist_appended;
    let dropped = after.global.persist_dropped - before.global.persist_dropped;
    let counts = Counts {
        states: status.states,
        mq: status.queries,
        hits: h1 - h0,
        misses: m1 - m0,
        entries,
        appends: appended + dropped,
    };
    let unlogged = dropped as f64 / (appended + dropped).max(1) as f64;
    Ok((elapsed, counts, unlogged))
}

pub fn run(args: &Args) -> Result<Report, String> {
    let dir = || args.dir.clone().ok_or("a phase needs --dir");
    match args.phase.as_deref() {
        _ if args.trace => {
            let dir = TempDir::new("learn_durable").map_err(|e| e.to_string())?;
            traced(Report::default(), &dir)
        }
        None => phases(args),
        Some("cold") => cold_phase(&dir()?),
        Some("warm") => warm_phase(&dir()?),
        Some("query") => query_phase(args),
        Some(other) => Err(format!("unknown phase '{other}'")),
    }
}

/// Runs every phase in a child process of its own, so each starts on a
/// fresh heap.  Each round takes an empty directory through a cold
/// campaign and a restart with a warm campaign, with a query pass (on a
/// fresh store of its own) before, between and after them; rounds
/// interleave the phases so a slow spell of the machine touches one sample
/// of each rather than every sample of one.
fn phases(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let mut samples = Samples::default();
    for _ in 0..ROUNDS {
        let dir = TempDir::new("learn_durable").map_err(|e| e.to_string())?;
        for phase in ["query", "cold", "query", "warm", "query"] {
            let dir = (phase != "query").then(|| dir.path());
            samples.absorb(&mut report, child(args, phase, dir)?);
        }
    }
    samples.report_into(&mut report);
    Ok(report)
}

/// One cold campaign on an empty store directory, then a graceful
/// shutdown (which snapshots the store).
fn cold_phase(dir: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let (daemon, mut client) = start(dir)?;
    let (cold, _, unlogged) = campaign(&mut report, &mut client, "cold")?;
    let _ = client.quit();
    daemon.shutdown();
    report.set("learn_s", cold);
    report.set("unlogged_share", unlogged);
    Ok(report)
}

/// A restart on the populated directory (until `hello` is answered: the
/// store replay), then the warm campaign, which must not miss the store.
fn warm_phase(dir: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let started = Instant::now();
    let (daemon, mut client) = start(dir)?;
    report.set("setup_s", started.elapsed().as_secs_f64());
    let (warm, counts, _) = campaign(&mut report, &mut client, "warm")?;
    report.check(counts.appends == 0 && counts.misses == 0, || {
        format!("warm campaign missed the store: {counts:?}")
    });
    let _ = client.quit();
    daemon.shutdown();
    report.set("warm_learn_s", warm);
    Ok(report)
}

/// Seeded membership queries through the engine path the campaign uses,
/// over a fresh durable store in a scratch directory of its own: the first
/// probes of a word miss, run on the backend and are appended to the log;
/// shared prefixes hit.  A fixed count keeps the hit/miss mix the same on
/// every run.  Answers are checked against the policy's ground-truth
/// automaton.
fn query_phase(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let dir = TempDir::new("learn_durable_query").map_err(|e| e.to_string())?;
    let store = Arc::new(QueryStore::open(dir.path()).map_err(|e| e.to_string())?);
    let backend = PolicySimBackend::new(KIND, ASSOC).map_err(|e| e.to_string())?;
    let engine = QueryEngine::with_store(backend, Arc::clone(&store));
    let mut oracle =
        PolcaOracle::new(CacheQueryOracle::from_engine(engine).map_err(|e| e.message)?);
    let truth = ground_truth(KIND, ASSOC)?;
    let alphabet = policy_alphabet(ASSOC);
    let mut latencies = Latencies::default();
    for i in 0..QUERY_WORDS {
        let word = gen::word(args.seed, i, &alphabet, 8, 32);
        let started = Instant::now();
        let answer = oracle.query(&word);
        latencies.record(started.elapsed());
        let ok = answer.is_ok_and(|a| a == truth.output_word(word.iter()));
        report.check(ok, || format!("membership query {i} disagrees with {SPEC}"));
    }
    pool_latencies(&mut report, vec![latencies]);
    store.flush();
    Ok(report)
}

/// The traced run: the daemon campaigns untraced, for the counts to
/// reproduce; then the same cold campaign in this process, composed from
/// the public pieces the `learn` job composes, alternately untraced and
/// with the layer boundaries decorated, each on a fresh store directory;
/// then the store reopened and the warm campaign traced.
fn traced(mut report: Report, dir: &TempDir) -> Result<Report, String> {
    let (daemon, mut client) = start(dir.path())?;
    let (_, cold, unlogged) = campaign(&mut report, &mut client, "cold")?;
    let stats = client.stats().map_err(|e| e.to_string())?;
    let _ = client.quit();
    daemon.shutdown();
    let (daemon, mut client) = start(dir.path())?;
    let (_, warm, _) = campaign(&mut report, &mut client, "warm")?;
    let _ = client.quit();
    daemon.shutdown();

    // The first traced campaign's directory is kept for the reopen and the
    // warm campaign; its ledger gives the layer figures.
    let ledger = Arc::new(Ledger::default());
    let mut kept: Option<(TempDir, TracedCampaign)> = None;
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let mut mismatches = Vec::new();
    for pair in 0..OVERHEAD_PAIRS {
        let order = if pair % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for traced in order {
            let local = TempDir::new("learn_durable_traced").map_err(|e| e.to_string())?;
            let run_ledger = if kept.is_none() {
                Arc::clone(&ledger)
            } else {
                Arc::default()
            };
            let (elapsed, counts, campaign) = in_process(&local, traced.then_some(&run_ledger))?;
            if counts != cold {
                mismatches.push(format!("traced={traced} cold {counts:?}"));
            }
            if traced {
                traced_s += elapsed;
                if kept.is_none() {
                    kept = campaign.map(|c| (local, c));
                }
            } else {
                untraced_s += elapsed;
            }
        }
    }
    let (local, campaign) = kept.ok_or("no traced campaign ran")?;
    report.set("persist.bytes", local.bytes() as f64);
    let started = Instant::now();
    let reopened = QueryStore::open(local.path()).map_err(|e| e.to_string())?;
    report.set("persist.open_s", started.elapsed().as_secs_f64());
    report.set("persist.replayed", reopened.persist_stats().replayed as f64);
    drop(reopened);
    let (_, traced_warm, _) = in_process(&local, Some(&Arc::new(Ledger::default())))?;
    if traced_warm != warm {
        mismatches.push(format!("traced warm {traced_warm:?}"));
    }

    let matched = mismatches.is_empty();
    report.check(matched, || {
        format!(
            "in-process counts {} differ from the daemon's cold {cold:?} warm {warm:?}",
            mismatches.join(", ")
        )
    });
    campaign_metrics(&mut report, &ledger, std::slice::from_ref(&campaign));
    backend_metrics(&mut report, &ledger);
    report.set("engine.lookups", (cold.hits + cold.misses) as f64);
    report.set("engine.hits", cold.hits as f64);
    report.set("engine.misses", cold.misses as f64);
    report.set("engine.entries", cold.entries as f64);
    report.set("persist.appended", stats.global.persist_appended as f64);
    report.set("persist.dropped", stats.global.persist_dropped as f64);
    report.set("persist.unlogged_share", unlogged);
    report.set("trace.overhead_share", (traced_s - untraced_s) / untraced_s);
    report.set("trace.counts_match", f64::from(u8::from(matched)));
    Ok(report)
}

/// One campaign in this process over a durable store in `dir`, exactly as
/// the daemon's `learn` job builds it — through `polca::learn_policy`, or
/// with the layer boundaries decorated when `ledger` is given.  Returns the
/// campaign's wall time, its counts, and the traced campaign if any.
fn in_process(
    dir: &TempDir,
    ledger: Option<&Arc<Ledger>>,
) -> Result<(f64, Counts, Option<TracedCampaign>), String> {
    let store = Arc::new(QueryStore::open(dir.path()).map_err(|e| e.to_string())?);
    let space = store.space(&namespace());
    let (h0, m0) = space.counts();
    let before = store.persist_stats();
    let backend = PolicySimBackend::new(KIND, ASSOC).map_err(|e| e.to_string())?;
    let started = Instant::now();
    let (states, mq, traced) = match ledger {
        None => {
            let engine = QueryEngine::with_store(backend, Arc::clone(&store));
            let oracle = CacheQueryOracle::from_engine(engine).map_err(|e| e.message)?;
            let outcome = learn_policy(oracle, &learn_setup()).map_err(|e| e.to_string())?;
            (
                outcome.machine.num_states(),
                outcome.stats.membership_queries,
                None,
            )
        }
        Some(ledger) => {
            let backend = TracedBackend {
                inner: backend,
                ledger: Arc::clone(ledger),
            };
            let engine = QueryEngine::with_store(backend, Arc::clone(&store));
            let oracle = CacheQueryOracle::from_engine(engine).map_err(|e| e.message)?;
            let campaign = traced_campaign(oracle, true, ledger).map_err(|e| e.to_string())?;
            let (states, mq) = (
                campaign.machine.num_states(),
                campaign.stats.membership_queries,
            );
            (states, mq, Some(campaign))
        }
    };
    let elapsed = started.elapsed().as_secs_f64();
    store.flush();
    let (h1, m1) = space.counts();
    let after = store.persist_stats();
    let counts = Counts {
        states: states as u64,
        mq,
        hits: h1 - h0,
        misses: m1 - m0,
        entries: space.entries(),
        appends: (after.appended + after.dropped) - (before.appended + before.dropped),
    };
    store.snapshot();
    Ok((elapsed, counts, traced))
}
