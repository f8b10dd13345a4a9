//! `serve_mix`: a `cqd` serving two closed-loop clients.  Each holds a
//! session on a different L1 set of one simulated Skylake (reps 3) and sends
//! seeded MBL queries (see `gen::ServeStream`): mostly `loadgen`'s hot pool,
//! warmed up before the timed phase so its answers are store hits served in
//! the session, and a fixed share of novel expressions, store misses run on
//! the shared per-machine backend with voting, re-targeting between the
//! sets.  The run alternates such serving parts, each on a fresh daemon,
//! with remote parts: on a fresh daemon, an LRU@4 campaign learned through a
//! `RemoteBackend` against the cold `policy:LRU@4` namespace, and once more
//! against the warm one.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use cache::LevelId;
use cachequery::{Backend, QueryEngine, QueryStore, Target};
use hardware::{CpuModel, SimulatedCpu};
use polca::{learn_policy, CacheQueryOracle};
use server::{
    decode_request, decode_response, encode_request, encode_response, spawn, Client, CqdConfig,
    CqdHandle, RemoteBackend, Request, Response, SessionSpec, WireOutcome, WireStats,
};

use crate::gen::{ServeRequest, ServeStream};
use crate::layers::{campaign_metrics, traced_campaign, Ledger, TracedBackend, TracedCampaign};
use crate::{
    child, closed_loop, learn_setup, median, peak_rss_mb, percentile, pool_latencies, Args,
    Latencies, Report, Samples,
};

/// The two L1 sets the clients target: `loadgen`'s default two target sets
/// (client `i` on set `i % 2`).
const SETS: [u64; 2] = [0, 1];
/// Serving parts per run (each a set-up plus `1/SERVE_PARTS` of the query
/// phase), each followed by a remote campaign pair.
const SERVE_PARTS: usize = 9;
/// The remote campaign and its pinned state and membership-query counts.
const REMOTE: &str = "LRU@4";
const REMOTE_STATES: usize = 24;
const REMOTE_MQ: u64 = 7_569;
/// Request/response pairs kept for the codec and MBL timings.
const CODEC_SAMPLE: usize = 2_000;
/// Remote campaign pairs in a traced run, each campaign on a fresh daemon,
/// untraced and traced in the order untraced, traced, traced, untraced, …
/// so a steady drift of the machine's speed cancels out of the tracing
/// overhead.
const OVERHEAD_PAIRS: usize = 3;

/// A memory-only daemon with two workers (the machine has two cores).
fn daemon_config() -> CqdConfig {
    CqdConfig {
        workers: 2,
        ..CqdConfig::default()
    }
}

/// A session on L1 set `set` of the default machine, a Skylake voting over
/// three repetitions, as `loadgen` targets.
fn session(set: u64) -> SessionSpec {
    SessionSpec {
        set,
        ..SessionSpec::default()
    }
}

/// Starts a daemon, targets both sessions and runs one query on each (which
/// calibrates each target): the serving set-up.
fn start() -> Result<(CqdHandle, Vec<Client>), String> {
    let daemon = spawn(daemon_config()).map_err(|e| format!("starting cqd: {e}"))?;
    let mut clients = Vec::new();
    for set in SETS {
        let mut client = Client::connect(daemon.addr()).map_err(|e| e.to_string())?;
        client.hello().map_err(|e| e.to_string())?;
        client.target(&session(set)).map_err(|e| e.to_string())?;
        let results = client.query("A?").map_err(|e| e.to_string())?;
        if results.len() != 1 || results[0].pattern.len() != 1 {
            return Err(format!("calibration query answered {results:?}"));
        }
        clients.push(client);
    }
    Ok((daemon, clients))
}

/// What one query client saw.
#[derive(Default)]
struct Tally {
    /// First answer to each hot expression.
    hot: Vec<Option<String>>,
    /// Answers checked, and the failures among them.
    answered: u64,
    failures: Vec<String>,
    /// Latencies (ns) of timed answers served from the store and of the
    /// rest.
    hit_ns: Vec<u64>,
    miss_ns: Vec<u64>,
    /// Request and response line bytes, counted in traced runs.
    request_bytes: u64,
    response_bytes: u64,
    /// The first request/response pairs, kept in traced runs.
    sample: Vec<(Request, Response)>,
}

impl Tally {
    fn new(stream: &ServeStream) -> Tally {
        Tally {
            hot: vec![None; stream.hot().len()],
            ..Tally::default()
        }
    }

    /// Checks one answer (see `check_answer`), counting it and any failure;
    /// returns whether it was served from the store.
    fn record(
        &mut self,
        stream: &ServeStream,
        request: ServeRequest,
        answer: Result<Vec<WireOutcome>, server::ClientError>,
        trace: bool,
    ) -> bool {
        self.answered += 1;
        let cached = answer
            .as_ref()
            .is_ok_and(|r| r.first().is_some_and(|o| o.cached));
        if let Err(message) = self.check_answer(stream, request, answer, trace) {
            self.failures.push(message);
        }
        cached
    }

    /// Checks one answer: no error, one well-formed outcome whose pattern
    /// has one letter per profiled access, and a hot expression always
    /// answered alike.
    fn check_answer(
        &mut self,
        stream: &ServeStream,
        request: ServeRequest,
        answer: Result<Vec<WireOutcome>, server::ClientError>,
        trace: bool,
    ) -> Result<(), String> {
        let text = stream.text(&request);
        let results = answer.map_err(|e| format!("'{text}': {e}"))?;
        let profiled = text.matches('?').count();
        if results.len() != 1 || results[0].pattern.len() != profiled || !results[0].consistent {
            return Err(format!("'{text}' answered {results:?}"));
        }
        if let ServeRequest::Hot(i) = request {
            match &self.hot[i] {
                None => self.hot[i] = Some(results[0].pattern.clone()),
                Some(first) if *first != results[0].pattern => {
                    return Err(format!(
                        "hot expression '{text}' answered {} after {first}",
                        results[0].pattern
                    ))
                }
                Some(_) => {}
            }
        }
        if trace {
            let request = Request::Query {
                mbl: text.to_string(),
            };
            let response = Response::Outcomes { results };
            self.request_bytes += encode_request(&request).len() as u64 + 1;
            self.response_bytes += encode_response(&response).len() as u64 + 1;
            if self.sample.len() < CODEC_SAMPLE {
                self.sample.push((request, response));
            }
        }
        Ok(())
    }
}

/// The untimed warm-up: each client asks every hot expression once, so the
/// timed phase meets each as a store hit and only novel expressions miss.
fn warm_up(clients: &mut [Client], tallies: &mut [Tally], stream: &ServeStream) {
    for (client, tally) in clients.iter_mut().zip(tallies.iter_mut()) {
        for index in 0..stream.hot().len() {
            let request = ServeRequest::Hot(index);
            let answer = client.query(stream.text(&request));
            tally.record(stream, request, answer, false);
        }
    }
}

/// The timed query phase: every client sends its stream, closed loop, for
/// `seconds`, filing each answer's latency as a hit or a miss in its tally.
/// Returns each client's latencies.
fn serve_phase(
    clients: &mut [Client],
    tallies: &mut [Tally],
    stream: &ServeStream,
    seconds: f64,
    trace: bool,
) -> Vec<Latencies> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(tallies.iter_mut())
            .enumerate()
            .map(|(index, (client, tally))| {
                scope.spawn(move || {
                    let mut cached = Vec::new();
                    let latencies = closed_loop(
                        seconds,
                        |i| stream.request(index as u64, i),
                        |request| client.query(stream.text(request)),
                        |_, request, answer| {
                            cached.push(tally.record(stream, request, answer, trace));
                        },
                    );
                    for (&ns, hit) in latencies.samples.iter().zip(cached) {
                        if hit {
                            tally.hit_ns.push(ns);
                        } else {
                            tally.miss_ns.push(ns);
                        }
                    }
                    latencies
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("query client thread"))
            .collect()
    })
}

/// Counts every client's checked answers into `report`, and checks that
/// each hot expression was answered alike by both clients.
fn check_tallies(report: &mut Report, stream: &ServeStream, tallies: &mut [Tally]) {
    for tally in tallies.iter_mut() {
        report.passed(tally.answered - tally.failures.len() as u64);
        for failure in tally.failures.drain(..) {
            report.fail(failure);
        }
    }
    for (index, text) in stream.hot().iter().enumerate() {
        let answers: Vec<&String> = tallies
            .iter()
            .filter_map(|t| t.hot[index].as_ref())
            .collect();
        report.check(answers.windows(2).all(|w| w[0] == w[1]), || {
            format!("hot expression '{text}' answered {answers:?} across clients")
        });
    }
}

/// Counts of one remote campaign.
#[derive(Debug, PartialEq, Eq)]
struct RemoteCounts {
    states: usize,
    mq: u64,
    probes: u64,
    block_accesses: u64,
}

/// Learns LRU@4 through a `RemoteBackend` session on `addr`; returns its
/// wall time (connection included) and counts.
fn remote_campaign(report: &mut Report, addr: SocketAddr) -> Result<(f64, RemoteCounts), String> {
    let started = Instant::now();
    let backend = RemoteBackend::connect(addr, &remote_spec()).map_err(|e| e.to_string())?;
    let oracle = CacheQueryOracle::from_engine(QueryEngine::new(backend)).map_err(|e| e.message)?;
    let outcome = learn_policy(oracle, &learn_setup()).map_err(|e| e.to_string())?;
    let elapsed = started.elapsed().as_secs_f64();
    let counts = RemoteCounts {
        states: outcome.machine.num_states(),
        mq: outcome.stats.membership_queries,
        probes: outcome.cache_probes,
        block_accesses: outcome.block_accesses,
    };
    report.check(
        counts.states == REMOTE_STATES && counts.mq == REMOTE_MQ,
        || format!("remote {REMOTE}: {counts:?} (pinned {REMOTE_STATES}/{REMOTE_MQ})"),
    );
    Ok((elapsed, counts))
}

/// The same campaign with the layer boundaries decorated, the wire client
/// as the traced `QueryBackend`; returns its wall time (connection
/// included), the campaign, and the client-side store.
fn traced_remote_campaign(
    addr: SocketAddr,
    ledger: &Arc<Ledger>,
) -> Result<(f64, TracedCampaign, Arc<QueryStore>), String> {
    let started = Instant::now();
    let backend = TracedBackend {
        inner: RemoteBackend::connect(addr, &remote_spec()).map_err(|e| e.to_string())?,
        ledger: Arc::clone(ledger),
    };
    let engine = QueryEngine::new(backend);
    let store = Arc::clone(engine.store());
    let oracle = CacheQueryOracle::from_engine(engine).map_err(|e| e.message)?;
    let campaign = traced_campaign(oracle, true, ledger).map_err(|e| e.to_string())?;
    Ok((started.elapsed().as_secs_f64(), campaign, store))
}

fn remote_spec() -> SessionSpec {
    SessionSpec {
        policy: Some(REMOTE.to_string()),
        ..SessionSpec::default()
    }
}

pub fn run(args: &Args) -> Result<Report, String> {
    let stream = ServeStream::new(args.seed);
    match args.phase.as_deref() {
        Some("serve") => serve_part(&stream, args.seconds / SERVE_PARTS as f64),
        Some("remote") => remote_phase(),
        _ if args.trace => traced(args, &stream),
        _ => parts(args),
    }
}

/// Serving parts alternating with remote campaign pairs, each in a process
/// of its own, so every part starts from the same fresh state and a slow
/// spell of the machine touches one sample of each kind rather than every
/// sample of one.
fn parts(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let mut samples = Samples::default();
    for _ in 0..SERVE_PARTS {
        samples.absorb(&mut report, child(args, "serve", None)?);
        samples.absorb(&mut report, child(args, "remote", None)?);
    }
    samples.add("peak_rss_mb", peak_rss_mb());
    samples.report_into(&mut report);
    Ok(report)
}

/// One serving part: the timed set-up (daemon start, both sessions
/// targeted, one calibrating query per target), the untimed warm-up, then
/// both clients' query streams for `seconds`.
fn serve_part(stream: &ServeStream, seconds: f64) -> Result<Report, String> {
    let mut report = Report::default();
    let started = Instant::now();
    let (daemon, mut clients) = start()?;
    report.set("setup_s", started.elapsed().as_secs_f64());
    let mut tallies: Vec<Tally> = clients.iter().map(|_| Tally::new(stream)).collect();
    warm_up(&mut clients, &mut tallies, stream);
    let latencies = serve_phase(&mut clients, &mut tallies, stream, seconds, false);
    pool_latencies(&mut report, latencies);
    check_tallies(&mut report, stream, &mut tallies);
    stop(daemon, clients);
    Ok(report)
}

/// One remote campaign pair on a fresh daemon: the first meets a cold
/// `policy:LRU@4` namespace, the second the warm one.
fn remote_phase() -> Result<Report, String> {
    let mut report = Report::default();
    let daemon = spawn(daemon_config()).map_err(|e| e.to_string())?;
    let (cold, _) = remote_campaign(&mut report, daemon.addr())?;
    let (warm, _) = remote_campaign(&mut report, daemon.addr())?;
    daemon.shutdown();
    report.set("learn_s", cold);
    report.set("warm_learn_s", warm);
    Ok(report)
}

fn stop(daemon: CqdHandle, clients: Vec<Client>) {
    for client in clients {
        let _ = client.quit();
    }
    daemon.shutdown();
}

/// The daemon's counters over the timed query phase.
fn stats(client: &mut Client) -> Result<WireStats, String> {
    Ok(client.stats().map_err(|e| e.to_string())?.global)
}

/// The traced run's per-layer figures: one serving query phase of
/// `--seconds` split by answer source, the daemon's own counters over it,
/// codec/MBL/re-targeting timings on the run's inputs, and the remote
/// campaign alternately untraced and with its boundaries decorated.
fn traced(args: &Args, stream: &ServeStream) -> Result<Report, String> {
    let mut report = Report::default();
    let (daemon, mut clients) = start()?;
    let mut tallies: Vec<Tally> = clients.iter().map(|_| Tally::new(stream)).collect();
    warm_up(&mut clients, &mut tallies, stream);
    let before = stats(&mut clients[0])?;
    let latencies = serve_phase(&mut clients, &mut tallies, stream, args.seconds, true);
    let after = stats(&mut clients[0])?;
    pool_latencies(&mut report, latencies);
    check_tallies(&mut report, stream, &mut tallies);
    stop(daemon, clients);

    let p50_us = |mut ns: Vec<u64>| {
        ns.sort_unstable();
        percentile(&ns, 50.0).map_or(0.0, |v| v as f64 / 1000.0)
    };
    let hits: usize = tallies.iter().map(|t| t.hit_ns.len()).sum();
    let misses: usize = tallies.iter().map(|t| t.miss_ns.len()).sum();
    report.set("server.requests", (hits + misses) as f64);
    report.set(
        "server.miss_share",
        misses as f64 / (hits + misses).max(1) as f64,
    );
    let bytes = |f: fn(&Tally) -> u64| tallies.iter().map(f).sum::<u64>() as f64;
    report.set("server.bytes_in", bytes(|t| t.request_bytes));
    report.set("server.bytes_out", bytes(|t| t.response_bytes));
    report.set(
        "server.hit_us",
        p50_us(tallies.iter().flat_map(|t| t.hit_ns.clone()).collect()),
    );
    report.set(
        "server.miss_us",
        p50_us(tallies.iter().flat_map(|t| t.miss_ns.clone()).collect()),
    );
    report.set("server.handle_p50_us", after.request_p50_ns as f64 / 1000.0);
    report.set("server.handle_p99_us", after.request_p99_ns as f64 / 1000.0);
    let delta = |f: fn(&WireStats) -> u64| (f(&after) - f(&before)) as f64;
    report.set("server.store_hits", delta(|s| s.store_hits));
    report.set("server.backend_queries", delta(|s| s.backend_queries));
    report.set("server.votes", delta(|s| s.votes));
    report.set("server.vote_executions", delta(|s| s.vote_executions));
    // The hardware backend, seen from the daemon: every backend query is
    // one voted call, executed once per repetition.
    let executions = delta(|s| s.vote_executions);
    let queries = delta(|s| s.backend_queries);
    report.set("backend.executions", executions);
    report.set("backend.batches", queries);
    report.set("backend.batch_len", executions / queries.max(1.0));
    report.set("backend.retarget_us", retarget_us()?);

    let sample: Vec<&(Request, Response)> = tallies.iter().flat_map(|t| &t.sample).collect();
    let started = Instant::now();
    for (request, response) in &sample {
        let line = encode_request(request);
        let decoded = decode_request(&line);
        let reply = encode_response(response);
        if decoded.is_err() || decode_response(&reply).is_err() {
            report.fail("codec round trip failed");
        }
    }
    report.set(
        "server.codec_us",
        started.elapsed().as_secs_f64() * 1e6 / sample.len().max(1) as f64,
    );
    let started = Instant::now();
    let mut expanded = 0;
    for (request, _) in &sample {
        if let Request::Query { mbl } = request {
            expanded += mbl::expand_query(mbl, 8).map_or(0, |q| q.len());
        }
    }
    report.check(expanded == sample.len(), || {
        format!("{expanded} expansions for {} expressions", sample.len())
    });
    report.set(
        "mbl.expand_us",
        started.elapsed().as_secs_f64() * 1e6 / sample.len().max(1) as f64,
    );

    traced_remote(&mut report)?;
    Ok(report)
}

/// The remote LRU@4 campaign, alternately untraced and traced, each on a
/// fresh daemon's cold namespace.  The first traced campaign gives the
/// learner, Polca, engine and client figures; every traced campaign must
/// reproduce the untraced counts.
fn traced_remote(report: &mut Report) -> Result<(), String> {
    let ledger = Arc::new(Ledger::default());
    let mut first: Option<(TracedCampaign, Arc<QueryStore>)> = None;
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    for pair in 0..OVERHEAD_PAIRS {
        let order = if pair % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        for decorated in order {
            let daemon = spawn(daemon_config()).map_err(|e| e.to_string())?;
            if decorated {
                let run_ledger = if first.is_none() {
                    Arc::clone(&ledger)
                } else {
                    Arc::default()
                };
                let (elapsed, campaign, store) =
                    traced_remote_campaign(daemon.addr(), &run_ledger)?;
                traced_s += elapsed;
                traced.push(RemoteCounts {
                    states: campaign.machine.num_states(),
                    mq: campaign.stats.membership_queries,
                    probes: campaign.probes,
                    block_accesses: campaign.block_accesses,
                });
                if first.is_none() {
                    first = Some((campaign, store));
                }
            } else {
                let (elapsed, counts) = remote_campaign(report, daemon.addr())?;
                untraced_s += elapsed;
                untraced.push(counts);
            }
            daemon.shutdown();
        }
    }
    let matched = traced.iter().chain(&untraced).all(|c| *c == untraced[0]);
    report.check(matched, || {
        format!("traced remote counts {traced:?} differ from untraced {untraced:?}")
    });
    let (campaign, store) = first.ok_or("no traced remote campaign ran")?;
    campaign_metrics(report, &ledger, std::slice::from_ref(&campaign));
    let (hits, misses) = store.counts();
    report.set("engine.lookups", (hits + misses) as f64);
    report.set("engine.hits", hits as f64);
    report.set("engine.misses", misses as f64);
    report.set("engine.entries", store.entries() as f64);
    report.set("client.round_trips", Ledger::get(&ledger.batches) as f64);
    report.set(
        "client.wire_queries",
        Ledger::get(&ledger.executions) as f64,
    );
    report.set(
        "client.store_hit_share",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    report.set("client.s", Ledger::secs(&ledger.backend_ns));
    report.set("trace.overhead_share", (traced_s - untraced_s) / untraced_s);
    report.set("trace.counts_match", f64::from(u8::from(matched)));
    Ok(())
}

/// Median time to re-target the simulated Skylake between the two sets,
/// which every store miss pays when the sessions alternate.
fn retarget_us() -> Result<f64, String> {
    let mut backend = Backend::new(SimulatedCpu::new(CpuModel::SkylakeI5_6500, 7));
    let mut samples = Vec::new();
    for round in 0..20 {
        let set = SETS[round % 2] as usize;
        let started = Instant::now();
        backend
            .select_target(Target::new(LevelId::L1, set, 0))
            .map_err(|e| e.to_string())?;
        samples.push(started.elapsed().as_secs_f64() * 1e6);
    }
    Ok(median(&samples))
}
