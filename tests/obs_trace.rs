//! End-to-end observability: the span timeline of a learning run and the
//! metrics surface of a live `cqd` daemon.
//!
//! Four guarantees are pinned here:
//!
//! * **JSONL schema** — every record a [`obs::Recorder`] emits is one JSON
//!   object per line with exactly `{ts_ns, span_id, parent, name, dur_ns,
//!   fields}`, and the learner's phase spans nest under the `lstar.learn`
//!   root (the §5 learner loop, phase by phase);
//! * **map campaigns trace their engine** — a traced `map_cache` records the
//!   `engine.run_batch` spans of its per-group learning campaigns;
//! * **metrics coverage** — a daemon that has answered queries and run a
//!   learning campaign reports them through the `metrics` request: query
//!   and store-hit counters, vote gauges (§4.3), and a request-latency
//!   histogram, in both Prometheus text and typed form;
//! * **profile conservation** — the per-phase query counts a finished job
//!   reports over the wire sum exactly to the job's total membership
//!   queries.

use std::sync::Arc;

use cachequery::QueryStore;
use hardware::CpuModel;
use obs::{Recorder, RingSink};
use polca::{learn_simulated_policy, map_cache, LearnSetup, MapConfig};
use policies::PolicyKind;
use server::{spawn, Client, CqdConfig, Json};

/// Parses one JSONL record and asserts the exact schema, returning
/// `(span_id, parent, name)`.
fn parse_record(line: &str) -> (u64, Option<u64>, String) {
    let record =
        Json::parse(line).unwrap_or_else(|e| panic!("unparseable JSONL line {line:?}: {e}"));
    let Json::Obj(pairs) = &record else {
        panic!("JSONL line is not an object: {line:?}");
    };
    let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        ["ts_ns", "span_id", "parent", "name", "dur_ns", "fields"],
        "span record schema drifted: {line:?}"
    );
    record
        .get("ts_ns")
        .and_then(Json::as_u64)
        .expect("ts_ns is a u64");
    record
        .get("dur_ns")
        .and_then(Json::as_u64)
        .expect("dur_ns is a u64");
    assert!(
        matches!(record.get("fields"), Some(Json::Obj(_))),
        "fields must be an object: {line:?}"
    );
    let span_id = record
        .get("span_id")
        .and_then(Json::as_u64)
        .expect("span_id is a u64");
    let parent = match record.get("parent").expect("parent is present") {
        Json::Null => None,
        p => Some(p.as_u64().expect("parent is a u64 or null")),
    };
    let name = record
        .get("name")
        .and_then(Json::as_str)
        .expect("name is a string")
        .to_string();
    (span_id, parent, name)
}

#[test]
fn a_learning_run_emits_a_nested_jsonl_timeline() {
    let sink = Arc::new(RingSink::new(1 << 16));
    let recorder = Arc::new(Recorder::new(sink.clone() as Arc<dyn obs::EventSink>));
    let setup = LearnSetup {
        recorder: Some(Arc::clone(&recorder)),
        ..LearnSetup::default()
    };
    let outcome = learn_simulated_policy(PolicyKind::Lru, 2, &setup).expect("LRU@2 learns");
    recorder.flush();
    assert_eq!(
        sink.dropped(),
        0,
        "the ring must be large enough for a small learn"
    );

    let lines = sink.drain();
    assert!(!lines.is_empty(), "an instrumented learn must emit spans");
    let records: Vec<(u64, Option<u64>, String)> = lines.iter().map(|l| parse_record(l)).collect();

    // Exactly one root: the learner loop itself.
    let roots: Vec<&(u64, Option<u64>, String)> = records
        .iter()
        .filter(|(_, _, name)| name == "lstar.learn")
        .collect();
    assert_eq!(roots.len(), 1, "exactly one lstar.learn root span");
    let (root_id, root_parent, _) = roots[0];
    assert_eq!(*root_parent, None, "lstar.learn is a root span");

    // Every phase of the §5 loop nests under it.
    for phase in ["lstar.table_fill", "lstar.closure", "lstar.equivalence"] {
        let children: Vec<_> = records
            .iter()
            .filter(|(_, _, name)| name == phase)
            .collect();
        assert!(!children.is_empty(), "{phase} spans must be emitted");
        for (_, parent, _) in &children {
            assert_eq!(
                *parent,
                Some(*root_id),
                "{phase} must be a child of lstar.learn"
            );
        }
    }

    // The profile derived from the same run is conservative: phase query
    // counts sum exactly to the learner's membership-query total.
    assert_eq!(
        outcome.profile.total_queries(),
        outcome.stats.membership_queries,
        "CampaignProfile must conserve the membership-query total"
    );
}

#[test]
fn a_traced_map_records_the_engine_batches_of_its_group_campaigns() {
    // The cartography bin's defaults: seed 99, sets 0–47 of the Skylake at
    // CAT 2, a sample holding primary leaders.
    let sink = Arc::new(RingSink::new(1 << 18));
    let recorder = Arc::new(Recorder::new(sink.clone() as Arc<dyn obs::EventSink>));
    let mut config = MapConfig::new(CpuModel::SkylakeI5_6500, 99, (0..48).collect());
    config.cat_ways = Some(2);
    config.setup.recorder = Some(Arc::clone(&recorder));
    let map = map_cache(&config, Arc::new(QueryStore::new())).expect("the campaign runs");
    assert!(!map.groups.is_empty(), "the sample holds a leader group");
    recorder.flush();

    // (start, end) of every span with `name`, in nanoseconds.
    let lines = sink.drain();
    let spans = |name: &str| -> Vec<(u64, u64)> {
        lines
            .iter()
            .filter(|line| parse_record(line).2 == name)
            .map(|line| {
                let record = Json::parse(line).expect("parsed above");
                let field = |key| record.get(key).and_then(Json::as_u64).expect("a u64");
                (field("ts_ns"), field("ts_ns") + field("dur_ns"))
            })
            .collect()
    };
    let groups = spans("polca.learn_group");
    assert_eq!(
        groups.len(),
        map.groups.len(),
        "one span per group campaign"
    );
    // Engine spans are roots, so they are matched to a campaign by time.
    let batches = spans("engine.run_batch");
    for (start, end) in groups {
        assert!(
            batches
                .iter()
                .any(|(batch, _)| (start..=end).contains(batch)),
            "no engine.run_batch starts inside the group campaign at {start}..{end} ns"
        );
    }
}

#[test]
fn the_daemon_reports_metrics_and_per_phase_profiles() {
    let daemon = spawn(CqdConfig::default()).expect("ephemeral port is bindable");
    let mut client = Client::connect(daemon.addr()).expect("daemon accepts connections");

    // Generate traffic on every surface the registry covers: ad-hoc
    // queries, then a full learning campaign.
    client.query("A B C A?").expect("query runs");
    client.query("@ X A?").expect("query runs");
    let id = client.learn("LRU@2").expect("learn job spawns");
    let status = client.wait(id).expect("job finishes");
    assert_eq!(
        status.state, "done",
        "LRU@2 must learn cleanly: {}",
        status.detail
    );

    // Per-phase profile: present on the final status, conservative in its
    // query counts, and covering the learner's phases.
    assert!(
        !status.phases.is_empty(),
        "a finished job must carry its phase profile"
    );
    let phase_total: u64 = status.phases.iter().map(|p| p.queries).sum();
    assert_eq!(
        phase_total, status.queries,
        "wire phase queries must sum to the job's membership-query total"
    );
    assert!(
        status.phases.iter().any(|p| p.name == "table_fill"),
        "the profile must include the table-fill phase: {:?}",
        status.phases
    );

    // The typed metrics surface.
    let (text, metrics) = client.metrics().expect("metrics request answers");
    let find = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} missing from {metrics:?}"))
    };
    assert!(find("cqd_queries_total").value > 0, "queries were answered");
    assert_eq!(find("cqd_queries_total").kind, "counter");
    assert_eq!(find("cqd_store_hits_total").kind, "counter");
    assert_eq!(find("cqd_votes").kind, "gauge");
    let latency = find("cqd_request_ns");
    assert_eq!(latency.kind, "histogram");
    assert!(latency.value > 0, "requests were timed");
    // Quantiles are log-linear bucket upper bounds, so p99 may exceed the
    // exact raw max — only monotonicity among quantiles is guaranteed.
    assert!(latency.p50 > 0 && latency.p99 >= latency.p50 && latency.max > 0);

    // The Prometheus text form carries the same instruments.
    for needle in [
        "# TYPE cqd_queries_total counter",
        "# TYPE cqd_request_ns summary",
        "cqd_store_hits_total",
        "cqd_votes",
    ] {
        assert!(
            text.contains(needle),
            "prometheus text missing {needle:?}:\n{text}"
        );
    }

    // Stats gained uptime, request-latency quantiles and store byte sizes.
    let stats = client.stats().expect("stats request answers");
    assert!(
        stats.global.request_p50_ns > 0,
        "latency histogram feeds stats"
    );
    assert!(
        stats.global.request_max_ns > 0,
        "latency histogram records a max"
    );
    assert!(
        stats.namespaces.iter().any(|ns| ns.bytes > 0),
        "the learn campaign must leave sized store namespaces: {:?}",
        stats.namespaces
    );

    daemon.shutdown();
}

#[test]
fn trace_log_writes_parseable_jsonl_with_request_spans() {
    let path = std::env::temp_dir().join(format!("cqd_trace_{}.jsonl", std::process::id()));
    let daemon = spawn(CqdConfig {
        trace_log: Some(path.clone()),
        ..CqdConfig::default()
    })
    .expect("ephemeral port is bindable");

    let mut client = Client::connect(daemon.addr()).expect("daemon accepts connections");
    client.query("A B C A?").expect("query runs");
    client.stats().expect("stats request answers");
    drop(client);
    daemon.shutdown(); // flushes the trace writer

    let contents = std::fs::read_to_string(&path).expect("trace log was written");
    std::fs::remove_file(&path).ok();
    let mut request_spans = 0usize;
    for line in contents.lines() {
        let (_, _, name) = parse_record(line);
        if name == "cqd.request" {
            request_spans += 1;
            let record = Json::parse(line).expect("parsed above");
            let cmd = record
                .get("fields")
                .and_then(|f| f.get("cmd"))
                .and_then(Json::as_str)
                .expect("cqd.request spans carry the cmd field");
            assert!(
                ["hello", "target", "query", "stats", "quit"].contains(&cmd),
                "unexpected request span cmd {cmd:?}"
            );
        }
    }
    assert!(
        request_spans >= 2,
        "the query and stats requests must both leave cqd.request spans"
    );
}
