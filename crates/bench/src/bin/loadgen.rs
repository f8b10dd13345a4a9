//! Load generator for the `cqd` daemon: K concurrent clients × M queries
//! against an in-process server on an ephemeral port.
//!
//! The workload is deliberately *overlapping* — every client draws from the
//! same bounded pool of MBL expressions per target set — so it measures the
//! three things the server subsystem exists for: sustained throughput
//! (queries/s), tail latency under concurrency (p50/p99), and the
//! cross-session hit-rate of the shared query store.
//!
//! Usage:
//!   `loadgen [--mode queries|learn-remote|noisy|trace|map]
//!            [--clients K] [--queries M] [--sets S] [--distinct D]
//!            [--workers W] [--json PATH]
//!            [--policy POLICY@ASSOC] [--flip RATE]
//!            [--accesses N] [--lines L] [--seed S]
//!            [--model NAME] [--cat WAYS] [--slice I]`
//!
//! `--mode queries` (the default) measures interactive query traffic;
//! `--mode learn-remote` runs the same learning campaign in-process and over
//! a loopback daemon (`polca::learn_policy` through a `RemoteBackend`) and
//! reports the network overhead of distributed learning;
//! `--mode noisy` drives the same overlapping workload against a
//! fault-injecting policy session (`POLICY@ASSOC+noise(flip=…)`) and against
//! its clean twin, reporting the voting overhead and the daemon's
//! vote-margin statistics;
//! `--mode trace` sweeps the daemon's `replay` endpoint — every
//! deterministic policy × every trace generator — and then proves a whole
//! learn-then-replay round trip: a `learn` campaign, `wait` for the machine,
//! and a differential replay of the learned machine against its source
//! simulator, entirely server-side;
//! `--mode map` runs a whole-cache cartography campaign through the daemon's
//! `map` endpoint (leader detection, one learning campaign per leader group,
//! a per-set policy map) and then remaps the same CPU to measure how far the
//! shared store amortizes a repeat sweep.
//!
//! Results are printed as a table and written as JSON (default
//! `BENCH_server.json`) for regression tracking; the learn-remote record is
//! merged into an existing report instead of clobbering it.

use std::time::Instant;

use bench::{merge_report, Args, TextTable};
use cachequery::QueryEngine;
use polca::{learn_policy, learn_simulated_policy, CacheQueryOracle, LearnSetup};
use policies::PolicyKind;
use server::{spawn, Client, CqdConfig, Json, RemoteBackend, SessionSpec};

/// Deterministic per-client generator (xorshift64*): the workload must not
/// depend on thread scheduling.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

/// The `i`-th expression of the shared pool: a three-block fill followed by
/// a profiled re-access (each expands to exactly one concrete query, so one
/// request equals one backend-or-store answer).
fn expression(i: u64) -> String {
    let name = |n: u64| mbl::block_name(mbl::BlockId((n % 6) as u32));
    let (a, b, c) = (i % 6, (i / 6) % 6, (i / 36) % 6);
    format!("{} {} {} {}?", name(a), name(b), name(c), name(a))
}

/// Times one request and records its latency (in nanoseconds) into the
/// shared histogram.  Every mode funnels its per-request latencies through
/// here, so the p50/p99 columns below mean the same thing everywhere.
fn timed<T>(latency: &obs::Histogram, run: impl FnOnce() -> T) -> T {
    let begin = Instant::now();
    let out = run();
    latency.record(begin.elapsed().as_nanos() as u64);
    out
}

/// The shared latency summary: (p50, p99) in microseconds, straight from the
/// log-linear histogram — no sorted vector of every sample needed.
fn latency_us(latency: &obs::Histogram) -> (f64, f64) {
    let snapshot = latency.snapshot();
    (snapshot.p50 as f64 / 1000.0, snapshot.p99 as f64 / 1000.0)
}

/// The learn-remote mode: the same campaign in-process and over loopback.
fn run_learn_remote(args: &Args) {
    let policy = args.value_of("policy").unwrap_or("LRU@4");
    let json_path = args.value_of("json").unwrap_or("BENCH_server.json");
    let (name, assoc) = policy.split_once('@').expect("policy spec is POLICY@ASSOC");
    let kind: PolicyKind = name.parse().expect("known policy");
    let assoc: usize = assoc.parse().expect("numeric associativity");
    let setup = LearnSetup {
        workers: 1,
        ..LearnSetup::default()
    };

    println!("loadgen: mode learn-remote, campaign {kind}@{assoc}");
    let started = Instant::now();
    let local = learn_simulated_policy(kind, assoc, &setup).expect("in-process learning succeeds");
    let local_elapsed = started.elapsed();

    let daemon = spawn(CqdConfig::default()).expect("ephemeral port is bindable");
    let spec = SessionSpec {
        policy: Some(policy.to_string()),
        ..SessionSpec::default()
    };
    let started = Instant::now();
    let backend = RemoteBackend::connect(daemon.addr(), &spec).expect("daemon accepts the spec");
    let engine = QueryEngine::new(backend);
    let client_store = std::sync::Arc::clone(engine.store());
    let oracle = CacheQueryOracle::from_engine(engine).expect("remote target configured");
    let remote = learn_policy(oracle, &setup).expect("remote learning succeeds");
    let remote_elapsed = started.elapsed();
    daemon.shutdown();

    assert_eq!(
        remote.machine.num_states(),
        local.machine.num_states(),
        "remote learning must reproduce the in-process automaton"
    );
    let overhead = remote_elapsed.as_secs_f64() / local_elapsed.as_secs_f64().max(1e-9);
    let mut table = TextTable::new(&[
        "campaign",
        "states",
        "memb. queries",
        "in-process",
        "over server",
        "overhead",
        "client store hit-rate",
    ]);
    table.add_row(&[
        format!("{kind}@{assoc}"),
        remote.machine.num_states().to_string(),
        remote.stats.membership_queries.to_string(),
        format!("{:.3} s", local_elapsed.as_secs_f64()),
        format!("{:.3} s", remote_elapsed.as_secs_f64()),
        format!("{overhead:.1}x"),
        format!(
            "{:.1}%",
            100.0 * client_store.hits() as f64
                / (client_store.hits() + client_store.misses()).max(1) as f64
        ),
    ]);
    print!("{}", table.render());

    let report = Json::obj(vec![
        ("campaign", Json::str(policy)),
        ("states", Json::num(remote.machine.num_states() as u64)),
        (
            "membership_queries",
            Json::num(remote.stats.membership_queries),
        ),
        ("in_process_s", Json::Num(local_elapsed.as_secs_f64())),
        ("over_server_s", Json::Num(remote_elapsed.as_secs_f64())),
        ("overhead", Json::Num(overhead)),
        ("client_store_hits", Json::num(client_store.hits())),
        ("client_store_misses", Json::num(client_store.misses())),
    ]);
    merge_report(json_path, "learn_remote", report);
}

/// Drives `clients × queries` of the shared expression pool through one
/// daemon session spec and returns the elapsed seconds.
fn drive_clients(
    addr: std::net::SocketAddr,
    spec: &SessionSpec,
    clients: usize,
    queries: usize,
) -> f64 {
    let started = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client_index| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("daemon accepts connections");
                    client.target(spec).expect("valid target");
                    let mut rng = Rng(0x9e37_79b9_7f4a_7c15 ^ (client_index as u64 + 1));
                    for _ in 0..queries {
                        let expr = expression(rng.next() % 64);
                        let results = client.query(&expr).expect("well-formed MBL");
                        assert_eq!(results.len(), 1, "pool expressions expand to one query");
                    }
                    client.quit().expect("clean disconnect");
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("client thread");
        }
    });
    started.elapsed().as_secs_f64()
}

/// The noisy mode: the overlapping workload against a fault-injecting
/// policy session and its clean twin, plus the daemon's vote statistics.
fn run_noisy(args: &Args) {
    let clients: usize = args.value_or("clients", 4);
    let queries: usize = args.value_or("queries", 200);
    let policy = args.value_of("policy").unwrap_or("LRU@4");
    let flip = args.value_of("flip").unwrap_or("0.05");
    let json_path = args.value_of("json").unwrap_or("BENCH_server.json");
    let noisy_policy = format!("{policy}+noise(flip={flip},seed=1)");

    println!(
        "loadgen: mode noisy, {clients} clients x {queries} queries, \
         {noisy_policy} vs clean {policy}"
    );
    let daemon = spawn(CqdConfig::default()).expect("ephemeral port is bindable");
    let addr = daemon.addr();

    let clean_spec = SessionSpec {
        policy: Some(policy.to_string()),
        ..SessionSpec::default()
    };
    let clean_s = drive_clients(addr, &clean_spec, clients, queries);

    let noisy_spec = SessionSpec {
        policy: Some(noisy_policy.clone()),
        ..SessionSpec::default()
    };
    let noisy_s = drive_clients(addr, &noisy_spec, clients, queries);
    let mut probe = Client::connect(addr).expect("daemon accepts connections");
    let stats = probe.stats().expect("stats are served");
    probe.quit().expect("clean disconnect");
    daemon.shutdown();

    let total = (clients * queries) as f64;
    let overhead = noisy_s / clean_s.max(1e-9);
    let global = stats.global;
    // The store amortizes voting out of the wall-clock (every repeated
    // request is a hit), so the honest cost metric is executions per voted
    // query — the effective repetition count of the novel traffic.  Only
    // noisy queries vote (the clean policy runs at reps = 1), so the
    // store-wide vote tally is exactly the noisy workload's.
    let reps_per_vote = global.vote_executions as f64 / (global.votes.max(1)) as f64;
    let mut table = TextTable::new(&[
        "workload",
        "queries",
        "elapsed",
        "queries/s",
        "votes",
        "escalated",
        "unsettled",
        "min margin",
        "reps/vote",
        "store hit-rate",
    ]);
    table.add_row(&[
        policy.to_string(),
        format!("{}", clients * queries),
        format!("{clean_s:.3} s"),
        format!("{:.0}", total / clean_s),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
    ]);
    table.add_row(&[
        noisy_policy.clone(),
        format!("{}", clients * queries),
        format!("{noisy_s:.3} s"),
        format!("{:.0}", total / noisy_s),
        global.votes.to_string(),
        global.vote_escalations.to_string(),
        global.vote_unsettled.to_string(),
        format!("{:.1}%", global.vote_min_margin_permille as f64 / 10.0),
        format!("{reps_per_vote:.1}"),
        format!("{:.1}%", 100.0 * global.hit_rate()),
    ]);
    print!("{}", table.render());
    println!(
        "voting overhead: {reps_per_vote:.1} executions per voted query; \
         wall-clock {overhead:.2}x vs clean (store-amortized)"
    );

    let report = Json::obj(vec![
        ("policy", Json::str(&noisy_policy)),
        ("clients", Json::num(clients as u64)),
        ("queries_per_client", Json::num(queries as u64)),
        ("clean_s", Json::Num(clean_s)),
        ("noisy_s", Json::Num(noisy_s)),
        ("wall_clock_overhead", Json::Num(overhead)),
        ("executions_per_vote", Json::Num(reps_per_vote)),
        ("votes", Json::num(global.votes)),
        ("vote_escalations", Json::num(global.vote_escalations)),
        ("vote_unsettled", Json::num(global.vote_unsettled)),
        (
            "vote_min_margin_permille",
            Json::num(global.vote_min_margin_permille),
        ),
        ("store_hit_rate", Json::Num(global.hit_rate())),
    ]);
    merge_report(json_path, "noisy", report);
}

/// The trace mode: the daemon's `replay` endpoint across every deterministic
/// policy × generator, plus a full learn → wait → differential-replay round
/// trip against the learned machine.
fn run_trace(args: &Args) {
    let accesses: u64 = args.value_or("accesses", 50_000);
    let lines: u64 = args.value_or("lines", 256);
    let seed: u64 = args.value_or("seed", 1);
    let policy = args.value_of("policy").unwrap_or("LRU@2");
    let json_path = args.value_of("json").unwrap_or("BENCH_trace.json");
    let generators = ["sequential", "strided", "zipfian", "pointer-chase"];

    println!("loadgen: mode trace, {accesses} accesses x {lines} lines per replay, seed {seed}");
    let daemon = spawn(CqdConfig::default()).expect("ephemeral port is bindable");
    let mut client = Client::connect(daemon.addr()).expect("daemon accepts connections");

    let mut table = TextTable::new(&[
        "policy",
        "sequential",
        "strided",
        "zipfian",
        "pointer-chase",
    ]);
    let mut rows = Vec::new();
    let latency = obs::Histogram::new();
    let started = Instant::now();
    let mut replayed = 0u64;
    for kind in PolicyKind::ALL_DETERMINISTIC {
        let spec = format!("{kind}@2");
        let mut cells = vec![spec.clone()];
        let mut rates = Vec::new();
        for generator in generators {
            let reply = timed(&latency, || {
                client.replay(&spec, generator, accesses, lines, seed, None)
            })
            .expect("replay request succeeds");
            assert_eq!(reply.sim_hits + reply.sim_misses, reply.accesses);
            replayed += reply.accesses;
            let rate = reply.sim_hits as f64 / reply.accesses as f64;
            cells.push(format!("{:.1}%", 100.0 * rate));
            rates.push((generator, rate));
        }
        table.add_row(&cells);
        rows.push((spec, rates));
    }
    let sweep_s = started.elapsed().as_secs_f64();
    let (p50_us, p99_us) = latency_us(&latency);
    print!("{}", table.render());
    println!(
        "swept {} replays ({replayed} accesses) in {sweep_s:.3} s \
         (per-request p50 {p50_us:.1} us, p99 {p99_us:.1} us)",
        rows.len() * generators.len()
    );

    // The round trip the endpoint exists for: learn server-side, then replay
    // the *learned machine* against its source simulator without the model
    // ever leaving the daemon.
    let job = client.learn(policy).expect("learn starts");
    let status = client.wait(job).expect("campaign finishes");
    assert_eq!(status.state, "done", "campaign failed: {}", status.detail);
    let reply = client
        .replay(policy, "zipfian", accesses, lines, seed, Some(job))
        .expect("machine replay succeeds");
    assert!(
        !reply.diverged,
        "learned {policy} diverged from its simulator: {}",
        reply.divergence
    );
    assert_eq!(reply.sim_hits, reply.machine_hits);
    println!(
        "learned {policy} ({} states) replayed {} accesses with zero divergences",
        reply.machine_states, reply.accesses
    );

    let report_rows: Vec<(String, Json)> = rows
        .iter()
        .map(|(spec, rates)| {
            let pairs = rates
                .iter()
                .map(|(generator, rate)| (generator.to_string(), Json::Num(*rate)))
                .collect();
            (spec.clone(), Json::Obj(pairs))
        })
        .collect();
    let report = Json::obj(vec![
        ("accesses", Json::num(accesses)),
        ("lines", Json::num(lines)),
        ("seed", Json::num(seed)),
        ("sweep_s", Json::Num(sweep_s)),
        ("p50_us", Json::Num(p50_us)),
        ("p99_us", Json::Num(p99_us)),
        ("hit_rates", Json::Obj(report_rows)),
        ("machine_campaign", Json::str(policy)),
        ("machine_states", Json::num(reply.machine_states)),
        ("machine_diverged", Json::Bool(reply.diverged)),
    ]);
    merge_report(json_path, "server_replay", report);

    client.quit().expect("clean disconnect");
    daemon.shutdown();
}

/// The map mode: one whole-cache cartography sweep through the daemon, then
/// a remap of the same CPU to measure the store's amortization of repeats.
fn run_map(args: &Args) {
    let model = args.value_of("model").unwrap_or("skylake");
    let seed: u64 = args.value_or("seed", 99);
    let cat: u64 = args.value_or("cat", 2);
    let slice: u64 = args.value_or("slice", 0);
    let sets: u64 = args.value_or("sets", 40);
    let json_path = args.value_of("json").unwrap_or("BENCH_server.json");

    println!("loadgen: mode map, {model} seed {seed} cat {cat}, slice {slice}, {sets} sets");
    let daemon = spawn(CqdConfig::default()).expect("ephemeral port is bindable");
    let mut client = Client::connect(daemon.addr()).expect("daemon accepts connections");

    let latency = obs::Histogram::new();
    let started = Instant::now();
    let map = timed(&latency, || client.map(model, seed, Some(cat), slice, sets))
        .expect("map campaign succeeds");
    let sweep_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let again = timed(&latency, || client.map(model, seed, Some(cat), slice, sets))
        .expect("remap succeeds");
    let remap_s = started.elapsed().as_secs_f64();
    assert_eq!(again, map, "remapping the same CPU must be deterministic");
    let (p50_us, p99_us) = latency_us(&latency);

    let mut table = TextTable::new(&[
        "group",
        "members",
        "representative",
        "outcome",
        "states",
        "queries",
        "identified",
    ]);
    for group in &map.groups {
        table.add_row(&[
            group.class.clone(),
            group.members.to_string(),
            format!(
                "set {}/{}",
                group.representative_set, group.representative_slice
            ),
            group.outcome.clone(),
            group.states.to_string(),
            group.queries.to_string(),
            if group.identified.is_empty() {
                "-".into()
            } else {
                group.identified.clone()
            },
        ]);
    }
    print!("{}", table.render());
    let fixed = map.sets.iter().filter(|s| s.verdict == "fixed").count();
    let adaptive = map.sets.iter().filter(|s| s.verdict == "adaptive").count();
    let other = map.sets.len() - fixed - adaptive;
    // A remap re-runs leader detection (live duel probes are never cached)
    // but serves both learning campaigns from the shared store.
    println!(
        "mapped {} sets ({fixed} fixed, {adaptive} adaptive followers, {other} other) \
         in {sweep_s:.3} s; remap with store-served campaigns {remap_s:.3} s ({:.2}x); \
         per-request p50 {p50_us:.1} us, p99 {p99_us:.1} us",
        map.sets.len(),
        sweep_s / remap_s.max(1e-9)
    );

    client.quit().expect("clean disconnect");
    daemon.shutdown();

    let report = Json::obj(vec![
        ("model", Json::str(model)),
        ("seed", Json::num(seed)),
        ("cat", Json::num(cat)),
        ("slice", Json::num(slice)),
        ("sets", Json::num(map.sets.len() as u64)),
        ("groups", Json::num(map.groups.len() as u64)),
        ("fixed_sets", Json::num(fixed as u64)),
        ("adaptive_sets", Json::num(adaptive as u64)),
        ("sweep_s", Json::Num(sweep_s)),
        ("remap_s", Json::Num(remap_s)),
        ("p50_us", Json::Num(p50_us)),
        ("p99_us", Json::Num(p99_us)),
    ]);
    merge_report(json_path, "map", report);
}

fn main() {
    let args = Args::from_env();
    if args.value_of("mode") == Some("learn-remote") {
        run_learn_remote(&args);
        return;
    }
    if args.value_of("mode") == Some("noisy") {
        run_noisy(&args);
        return;
    }
    if args.value_of("mode") == Some("trace") {
        run_trace(&args);
        return;
    }
    if args.value_of("mode") == Some("map") {
        run_map(&args);
        return;
    }
    let clients: usize = args.value_or("clients", 8);
    let queries: usize = args.value_or("queries", 2000);
    let sets: u64 = args.value_or("sets", 2);
    let distinct: u64 = args.value_or("distinct", 128);
    let workers: usize = args.value_or("workers", 4);
    let json_path = args.value_of("json").unwrap_or("BENCH_server.json");

    let daemon = spawn(CqdConfig {
        workers,
        ..CqdConfig::default()
    })
    .expect("ephemeral port is bindable");
    let addr = daemon.addr();
    println!(
        "loadgen: {clients} clients x {queries} queries, {sets} target sets, \
         {distinct} distinct expressions per set, {workers} workers"
    );

    // One lock-free histogram shared by every client thread: quantiles come
    // out without ever materializing (or sorting) the per-sample vector.
    let latency = obs::Histogram::new();
    let started = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client_index| {
                let latency = &latency;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("daemon accepts connections");
                    let set = (client_index as u64) % sets;
                    client
                        .target(&SessionSpec {
                            set,
                            ..SessionSpec::default()
                        })
                        .expect("valid target");
                    let mut rng = Rng(0x9e37_79b9_7f4a_7c15 ^ (client_index as u64 + 1));
                    for _ in 0..queries {
                        let expr = expression(rng.next() % distinct);
                        let results =
                            timed(latency, || client.query(&expr)).expect("well-formed MBL");
                        assert_eq!(results.len(), 1, "pool expressions expand to one query");
                    }
                    client.quit().expect("clean disconnect");
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("client thread");
        }
    });
    let elapsed = started.elapsed();

    let total = latency.count() as usize;
    let throughput = total as f64 / elapsed.as_secs_f64();
    let (p50_us, p99_us) = latency_us(&latency);
    let hit_rate = daemon.store_hit_rate();

    let mut table = TextTable::new(&[
        "clients",
        "queries",
        "elapsed",
        "queries/s",
        "p50",
        "p99",
        "store hit-rate",
    ]);
    table.add_row(&[
        clients.to_string(),
        total.to_string(),
        format!("{:.3} s", elapsed.as_secs_f64()),
        format!("{throughput:.0}"),
        format!("{p50_us:.1} us"),
        format!("{p99_us:.1} us"),
        format!("{:.1}%", 100.0 * hit_rate),
    ]);
    print!("{}", table.render());

    let report = Json::obj(vec![
        ("clients", Json::num(clients as u64)),
        ("queries_per_client", Json::num(queries as u64)),
        ("total_queries", Json::num(total as u64)),
        ("target_sets", Json::num(sets)),
        ("distinct_expressions", Json::num(distinct)),
        ("workers", Json::num(workers as u64)),
        ("elapsed_s", Json::Num(elapsed.as_secs_f64())),
        ("throughput_qps", Json::Num(throughput)),
        ("p50_us", Json::Num(p50_us)),
        ("p99_us", Json::Num(p99_us)),
        ("store_hit_rate", Json::Num(hit_rate)),
    ]);
    merge_report(json_path, "queries", report);

    daemon.shutdown();
}
