//! Property-based tests for the `cqd` wire protocol: every request and
//! response variant must survive encode → decode exactly, for arbitrary
//! field contents (including JSON-hostile strings).

use proptest::prelude::*;

use server::{
    decode_request, decode_response, encode_request, encode_response, Json, Request, Response,
    ServerInfo, ServerStats, SessionSpec, WireCacheMap, WireJobStatus, WireMapGroup, WireMapSet,
    WireMetric, WireNamespace, WireOutcome, WirePhase, WireReplay, WireSessionStats, WireStats,
};

/// A string strategy that loves JSON metacharacters: quotes, backslashes,
/// braces, control characters, non-ASCII and astral-plane codepoints.
fn wire_string() -> impl Strategy<Value = String> {
    let ch = prop_oneof![
        Just('a'),
        Just('Z'),
        Just('0'),
        Just(' '),
        Just('"'),
        Just('\\'),
        Just('/'),
        Just('{'),
        Just('}'),
        Just('['),
        Just(','),
        Just(':'),
        Just('\n'),
        Just('\t'),
        Just('\r'),
        Just('\u{8}'),
        Just('\u{c}'),
        Just('\u{1}'),
        Just('ü'),
        Just('∘'),
        Just('🦀'),
    ];
    proptest::collection::vec(ch, 0..12).prop_map(|chars| chars.into_iter().collect())
}

fn session_spec() -> impl Strategy<Value = SessionSpec> {
    (
        prop_oneof![
            Just("skylake".to_string()),
            Just("haswell".to_string()),
            wire_string(),
        ],
        0u64..1000,
        (
            prop_oneof![
                Just("L1".to_string()),
                Just("L3".to_string()),
                wire_string()
            ],
            0u64..4096,
            0u64..8,
        ),
        prop_oneof![Just(None), (1u64..16).prop_map(Some)],
        1u64..9,
        (
            prop_oneof![Just("F+R".to_string()), wire_string()],
            prop_oneof![
                Just(None),
                Just(Some("LRU@4".to_string())),
                wire_string().prop_map(Some),
            ],
        ),
    )
        .prop_map(
            |(model, seed, (level, set, slice), cat, reps, (reset, policy))| SessionSpec {
                model,
                seed,
                level,
                set,
                slice,
                cat,
                reps,
                reset,
                policy,
            },
        )
}

fn request() -> impl Strategy<Value = Request> {
    prop_oneof![
        Just(Request::Hello),
        session_spec().prop_map(Request::Target),
        wire_string().prop_map(|mbl| Request::Query { mbl }),
        proptest::collection::vec(wire_string(), 0..4).prop_map(|exprs| Request::Batch { exprs }),
        wire_string().prop_map(|line| Request::Repl { line }),
        wire_string().prop_map(|spec| Request::Learn { spec }),
        (
            wire_string(),
            wire_string(),
            (0u64..1_000_000, 0u64..100_000, 0u64..1000),
            prop_oneof![Just(None), (0u64..100).prop_map(Some)],
        )
            .prop_map(|(spec, generator, (accesses, lines, seed), job)| {
                Request::Replay {
                    spec,
                    generator,
                    accesses,
                    lines,
                    seed,
                    job,
                }
            }),
        (
            wire_string(),
            0u64..1000,
            prop_oneof![Just(None), (1u64..16).prop_map(Some)],
            0u64..8,
            0u64..4096,
        )
            .prop_map(|(model, seed, cat, slice, sets)| Request::Map {
                model,
                seed,
                cat,
                slice,
                sets,
            }),
        (0u64..100).prop_map(|id| Request::Job { id }),
        (0u64..100).prop_map(|id| Request::Wait { id }),
        Just(Request::Stats),
        Just(Request::Metrics),
        Just(Request::Persist),
        Just(Request::Quit),
    ]
}

fn wire_outcome() -> impl Strategy<Value = WireOutcome> {
    (wire_string(), wire_string(), 0u64..2, 0u64..2).prop_map(
        |(query, pattern, consistent, cached)| WireOutcome {
            query,
            pattern,
            consistent: consistent == 1,
            cached: cached == 1,
        },
    )
}

fn phase() -> impl Strategy<Value = WirePhase> {
    (
        prop_oneof![
            Just("table_fill".to_string()),
            Just("closure".to_string()),
            Just("equivalence".to_string()),
            Just("identification".to_string()),
            wire_string(),
        ],
        0u64..5_000_000,
        0u64..100_000,
    )
        .prop_map(|(name, queries, millis)| WirePhase {
            name,
            queries,
            millis,
        })
}

fn job_status() -> impl Strategy<Value = WireJobStatus> {
    (
        0u64..100,
        prop_oneof![
            Just("running".to_string()),
            Just("done".to_string()),
            Just("failed".to_string()),
        ],
        wire_string(),
        0u64..2,
        (0u64..1000, 0u64..5_000_000, 0u64..100_000),
        (
            // Arbitrary finite f64 values round-trip (Rust renders the
            // shortest representation), but keep the strategy on
            // human-shaped rates.
            (0u64..=1000u64).prop_map(|thousandths| thousandths as f64 / 1000.0),
            proptest::collection::vec(phase(), 0..5),
        ),
    )
        .prop_map(
            |(id, state, detail, finished, (states, queries, millis), (hit_rate, phases))| {
                WireJobStatus {
                    id,
                    state,
                    detail,
                    finished: finished == 1,
                    states,
                    queries,
                    hit_rate,
                    millis,
                    phases,
                }
            },
        )
}

fn namespace() -> impl Strategy<Value = WireNamespace> {
    (
        wire_string(),
        0u64..100_000,
        0u64..10_000_000,
        0u64..100_000,
        0u64..100_000,
    )
        .prop_map(|(name, entries, bytes, hits, misses)| WireNamespace {
            name,
            entries,
            bytes,
            hits,
            misses,
        })
}

fn metric() -> impl Strategy<Value = WireMetric> {
    (
        (
            wire_string(),
            prop_oneof![
                Just("counter".to_string()),
                Just("gauge".to_string()),
                Just("histogram".to_string()),
            ],
        ),
        (0u64..1_000_000, 0u64..1_000_000_000),
        (0u64..1_000_000, 0u64..1_000_000),
        (0u64..1_000_000, 0u64..1_000_000, 0u64..1_000_000),
    )
        .prop_map(
            |((name, kind), (value, sum), (min, max), (p50, p90, p99))| WireMetric {
                name,
                kind,
                value,
                sum,
                min,
                max,
                p50,
                p90,
                p99,
            },
        )
}

fn wire_replay() -> impl Strategy<Value = WireReplay> {
    (
        (wire_string(), wire_string()),
        (
            0u64..1_000_000,
            0u64..1_000_000,
            0u64..1_000_000,
            0u64..1_000_000,
        ),
        (0u64..300, 0u64..1_000_000, 0u64..1_000_000),
        0u64..2,
        wire_string(),
    )
        .prop_map(
            |(
                (spec, generator),
                (accesses, sim_hits, sim_misses, sim_evictions),
                (machine_states, machine_hits, machine_misses),
                diverged,
                divergence,
            )| WireReplay {
                spec,
                generator,
                accesses,
                sim_hits,
                sim_misses,
                sim_evictions,
                machine_states,
                machine_hits,
                machine_misses,
                diverged: diverged == 1,
                divergence,
            },
        )
}

fn map_group() -> impl Strategy<Value = WireMapGroup> {
    (
        (
            prop_oneof![
                Just("thrash-vulnerable".to_string()),
                Just("thrash-resistant".to_string()),
                wire_string(),
            ],
            0u64..100,
            0u64..4096,
            0u64..8,
        ),
        wire_string(),
        prop_oneof![
            Just("learned".to_string()),
            Just("not-deterministic".to_string()),
            Just("failed".to_string()),
        ],
        (0u64..1000, 0u64..1_000_000),
        (wire_string(), 0u64..=1000, wire_string()),
    )
        .prop_map(
            |(
                (class, members, representative_set, representative_slice),
                namespace,
                outcome,
                (states, queries),
                (identified, disagreement_permille, detail),
            )| WireMapGroup {
                class,
                members,
                representative_set,
                representative_slice,
                namespace,
                outcome,
                states,
                queries,
                identified,
                disagreement_permille,
                detail,
            },
        )
}

fn map_set() -> impl Strategy<Value = WireMapSet> {
    (
        (0u64..4096, 0u64..8),
        prop_oneof![Just("adaptive".to_string()), wire_string()],
        prop_oneof![
            Just("fixed".to_string()),
            Just("fixed-nondet".to_string()),
            Just("adaptive".to_string()),
            Just("unmapped".to_string()),
        ],
        (wire_string(), 0u64..1000, 0u64..=1000),
        wire_string(),
    )
        .prop_map(
            |((set, slice), class, verdict, (policy, states, disagreement_permille), detail)| {
                WireMapSet {
                    set,
                    slice,
                    class,
                    verdict,
                    policy,
                    states,
                    disagreement_permille,
                    detail,
                }
            },
        )
}

fn cache_map() -> impl Strategy<Value = WireCacheMap> {
    (
        wire_string(),
        prop_oneof![Just("L3".to_string()), wire_string()],
        prop_oneof![Just(None), (1u64..16).prop_map(Some)],
        proptest::collection::vec(map_group(), 0..3),
        proptest::collection::vec(map_set(), 0..5),
    )
        .prop_map(|(model, level, cat, groups, sets)| WireCacheMap {
            model,
            level,
            cat,
            groups,
            sets,
        })
}

fn response() -> impl Strategy<Value = Response> {
    let stats = (
        (0u64..10, 0u64..100),
        (0u64..100_000, 0u64..100_000),
        (0u64..100_000, 0u64..10, 0u64..10),
        (0u64..8, 1u64..9, 0u64..50),
        (
            0u64..100_000_000,
            (
                0u64..1_000_000_000,
                0u64..1_000_000_000,
                0u64..1_000_000_000,
            ),
        ),
        (
            (
                (0u64..100_000, 0u64..1_000_000),
                0u64..1000,
                0u64..100,
                0u64..=1000,
            ),
            (
                (0u64..1_000_000, 0u64..1000),
                (0u64..1_000_000, 0u64..1000),
                (0u64..100, 0u64..1_000_000),
                0u64..100,
            ),
        ),
    )
        .prop_map(
            |(
                (sessions_active, sessions_total),
                (queries, store_hits),
                (backend_queries, jobs_spawned, jobs_finished),
                (busy_workers, workers, store_conflicts),
                (uptime_ms, (request_p50_ns, request_p99_ns, request_max_ns)),
                (
                    (
                        (votes, vote_executions),
                        vote_escalations,
                        vote_unsettled,
                        vote_min_margin_permille,
                    ),
                    (
                        (store_entries, store_evictions),
                        (persist_appended, persist_dropped),
                        (persist_snapshots, persist_replayed),
                        lock_poisoned,
                    ),
                ),
            )| WireStats {
                sessions_active,
                sessions_total,
                queries,
                store_hits,
                backend_queries,
                uptime_ms,
                request_p50_ns,
                request_p99_ns,
                request_max_ns,
                jobs_spawned,
                jobs_finished,
                busy_workers,
                workers,
                store_conflicts,
                store_entries,
                store_evictions,
                persist_appended,
                persist_dropped,
                persist_snapshots,
                persist_replayed,
                lock_poisoned,
                votes,
                vote_executions,
                vote_escalations,
                vote_unsettled,
                vote_min_margin_permille,
            },
        );
    prop_oneof![
        (wire_string(), 0u64..10, 0u64..8).prop_map(|(server, proto, workers)| {
            Response::Hello(ServerInfo {
                server,
                proto,
                workers,
            })
        }),
        wire_string().prop_map(|message| Response::Done { message }),
        proptest::collection::vec(wire_outcome(), 0..4)
            .prop_map(|results| Response::Outcomes { results }),
        proptest::collection::vec(proptest::collection::vec(wire_outcome(), 0..3), 0..3)
            .prop_map(|groups| Response::Batch { groups }),
        (0u64..100).prop_map(|id| Response::JobStarted { id }),
        job_status().prop_map(Response::JobStatus),
        wire_replay().prop_map(Response::Replay),
        cache_map().prop_map(Response::Map),
        (
            stats,
            (0u64..1000, 0u64..1000),
            proptest::collection::vec(namespace(), 0..4),
        )
            .prop_map(|(global, (queries, store_hits), namespaces)| {
                Response::Stats(ServerStats {
                    global,
                    session: WireSessionStats {
                        queries,
                        store_hits,
                    },
                    namespaces,
                })
            }),
        (wire_string(), proptest::collection::vec(metric(), 0..4))
            .prop_map(|(text, metrics)| Response::Metrics { text, metrics }),
        wire_string().prop_map(|message| Response::Error { message }),
        Just(Response::Bye),
    ]
}

/// A strategy over arbitrary JSON value trees (depth-bounded).
fn json_value() -> impl Strategy<Value = Json> {
    let leaf = prop_oneof![
        Just(Json::Null),
        Just(Json::Bool(true)),
        Just(Json::Bool(false)),
        (0u64..1_000_000).prop_map(|n| Json::Num(n as f64)),
        Just(Json::Num(-2.5)),
        wire_string().prop_map(Json::Str),
    ];
    let inner = leaf.clone().boxed();
    prop_oneof![
        leaf,
        proptest::collection::vec(inner.clone(), 0..4).prop_map(Json::Arr),
        proptest::collection::vec((wire_string(), inner), 0..4).prop_map(|pairs| {
            // Duplicate keys would make `get`-based decoding ambiguous; the
            // protocol never produces them, so neither does the strategy.
            let mut seen = std::collections::HashSet::new();
            Json::Obj(
                pairs
                    .into_iter()
                    .filter(|(k, _)| seen.insert(k.clone()))
                    .collect(),
            )
        }),
    ]
}

proptest! {
    /// Every request survives one encode → decode round trip.
    #[test]
    fn requests_round_trip(request in request()) {
        let line = encode_request(&request);
        prop_assert!(!line.contains('\n'), "encoded request spans lines: {line}");
        let decoded = decode_request(&line);
        prop_assert_eq!(decoded.unwrap(), request);
    }

    /// Every response survives one encode → decode round trip.
    #[test]
    fn responses_round_trip(response in response()) {
        let line = encode_response(&response);
        prop_assert!(!line.contains('\n'), "encoded response spans lines: {line}");
        let decoded = decode_response(&line);
        prop_assert_eq!(decoded.unwrap(), response);
    }

    /// The JSON layer itself round-trips arbitrary value trees, and
    /// rendering is deterministic.
    #[test]
    fn json_round_trips(value in json_value()) {
        let rendered = value.render();
        let parsed = Json::parse(&rendered).unwrap();
        prop_assert_eq!(&parsed, &value);
        prop_assert_eq!(parsed.render(), rendered);
    }
}
