//! Observability overhead gate: pins the cost of the `obs` layer on the
//! membership-query hot path.
//!
//! Three workloads, each timed as the minimum over `--trials` interleaved
//! runs (interleaving cancels thermal/frequency drift; the minimum is the
//! least-noisy estimator for deterministic work):
//!
//! * **query path (micro)** — raw `PolicySimBackend::execute` calls, run
//!   bare, with a *disabled* span per batch (`maybe_span(None)`, the exact
//!   shape `QueryEngine::run_many` compiles when no recorder is attached),
//!   and with an *enabled* span per batch feeding a `RingSink`.  Gated:
//!   disabled < 2 % over bare.  The enabled variant is reported as the
//!   worst-case per-span cost (the micro work unit is far cheaper than any
//!   real backend query); the on-path gate runs on the engine workload.
//! * **query path (engine)** — `QueryEngine::run_many` over a fresh store,
//!   recorder detached vs. attached: the product query path.  Gated:
//!   attached < 10 % over detached.
//! * **learn (end-to-end)** — `learn_simulated_policy` with and without a
//!   recorder; reported for context, not gated (learning time is dominated
//!   by the conformance search and varies more than the budget).
//!
//! Writes its numbers under the `overhead_obs` key of `--json` (default
//! `BENCH_obs.json`) and exits non-zero when a gated bound is violated, so
//! CI can run it directly.  `--no-gate` keeps the measurements but skips the
//! exit code for local experimentation.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use bench::{merge_report, Args, TextTable};
use cachequery::{QueryBackend, QueryEngine};
use mbl::{block_name, expand_query, BlockId, Query};
use obs::{maybe_span, Recorder, RingSink};
use polca::{learn_simulated_policy, LearnSetup, PolicySimBackend};
use policies::PolicyKind;
use server::Json;

/// Queries per emitted span: `run_many` opens one span per batch, so the
/// micro workload models the same granularity.
const BATCH: usize = 32;

/// Deltas below this are timer noise on an otherwise-identical loop; a
/// workload that finishes within the floor of its baseline passes its gate
/// regardless of the ratio.
const FLOOR_NS: u64 = 100_000;

/// Instrumentation-off budget over the bare loop, in basis points (2 %).
const OFF_BUDGET_BPS: u64 = 200;

/// Instrumentation-on budget over the uninstrumented path, in basis points
/// (10 %).
const ON_BUDGET_BPS: u64 = 1_000;

fn main() {
    let args = Args::from_env();
    let queries: usize = args.value_or("queries", 8_192);
    let trials: usize = args.value_or("trials", 5);
    let assoc: usize = args.value_or("assoc", 4);
    let json_path = args.value_of("json").unwrap_or("BENCH_obs.json");

    let workload = build_workload(queries, assoc);
    println!(
        "obs overhead gate: {} queries @ assoc {}, batch {}, min of {} trials",
        workload.len(),
        assoc,
        BATCH,
        trials
    );

    let micro = measure_micro(&workload, assoc, trials);
    let engine = measure_engine(&workload, assoc, trials);
    let learn = measure_learn(trials.min(3));

    let rows = vec![
        GateRow::gated(
            "query micro",
            "off (span disabled)",
            micro.bare,
            micro.off,
            OFF_BUDGET_BPS,
        ),
        GateRow::reported("query micro", "on (RingSink)", micro.bare, micro.on),
        GateRow::gated(
            "query engine",
            "on (RingSink)",
            engine.bare,
            engine.on,
            ON_BUDGET_BPS,
        ),
        GateRow::reported("learn lru@3", "on (RingSink)", learn.bare, learn.on),
    ];

    let mut table = TextTable::new(&[
        "workload", "variant", "baseline", "timed", "overhead", "budget", "verdict",
    ]);
    for row in &rows {
        table.add_row(&[
            row.workload.to_string(),
            row.variant.to_string(),
            format!("{:.3} ms", row.base_ns as f64 / 1e6),
            format!("{:.3} ms", row.timed_ns as f64 / 1e6),
            format!("{:+.2}%", row.overhead_bps() as f64 / 100.0),
            row.budget_bps
                .map(|b| format!("<{:.0}%", b as f64 / 100.0))
                .unwrap_or_else(|| "-".to_string()),
            row.verdict().to_string(),
        ]);
    }
    println!("{}", table.render());

    let report = Json::obj(vec![
        ("queries", Json::num(workload.len() as u64)),
        ("trials", Json::num(trials as u64)),
        ("batch", Json::num(BATCH as u64)),
        (
            "rows",
            Json::Arr(
                rows.iter()
                    .map(|row| {
                        Json::obj(vec![
                            ("workload", Json::str(row.workload)),
                            ("variant", Json::str(row.variant)),
                            ("base_ns", Json::num(row.base_ns)),
                            ("timed_ns", Json::num(row.timed_ns)),
                            ("overhead_bps", Json::num(row.overhead_bps())),
                            ("budget_bps", Json::num(row.budget_bps.unwrap_or(0))),
                            ("pass", Json::str(row.verdict())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    merge_report(json_path, "overhead_obs", report);
    println!("report merged into {json_path} under key \"overhead_obs\"");

    let violations: Vec<&GateRow> = rows.iter().filter(|r| r.verdict() == "FAIL").collect();
    if !violations.is_empty() {
        for row in &violations {
            eprintln!(
                "overhead gate violated: {} / {} at {:+.2}% (budget <{:.0}%)",
                row.workload,
                row.variant,
                row.overhead_bps() as f64 / 100.0,
                row.budget_bps.unwrap_or(0) as f64 / 100.0
            );
        }
        if args.has_flag("no-gate") {
            eprintln!("--no-gate: reporting only, exit 0");
        } else {
            std::process::exit(1);
        }
    }
}

/// One gate line: a timed variant against its baseline.
struct GateRow {
    workload: &'static str,
    variant: &'static str,
    base_ns: u64,
    timed_ns: u64,
    budget_bps: Option<u64>,
}

impl GateRow {
    fn gated(
        workload: &'static str,
        variant: &'static str,
        base_ns: u64,
        timed_ns: u64,
        budget_bps: u64,
    ) -> Self {
        GateRow {
            workload,
            variant,
            base_ns,
            timed_ns,
            budget_bps: Some(budget_bps),
        }
    }

    fn reported(
        workload: &'static str,
        variant: &'static str,
        base_ns: u64,
        timed_ns: u64,
    ) -> Self {
        GateRow {
            workload,
            variant,
            base_ns,
            timed_ns,
            budget_bps: None,
        }
    }

    /// Overhead of the timed variant over its baseline, in basis points;
    /// clamped at zero (faster-than-baseline is noise, not a speedup).
    fn overhead_bps(&self) -> u64 {
        if self.timed_ns <= self.base_ns || self.base_ns == 0 {
            return 0;
        }
        (self.timed_ns - self.base_ns) * 10_000 / self.base_ns
    }

    fn verdict(&self) -> &'static str {
        let Some(budget) = self.budget_bps else {
            return "info";
        };
        if self.timed_ns.saturating_sub(self.base_ns) < FLOOR_NS || self.overhead_bps() < budget {
            "ok"
        } else {
            "FAIL"
        }
    }
}

/// Access operations per query — roughly a membership query's reset-prefix
/// plus distinguishing suffix at small associativities.
const DEPTH: usize = 12;

/// Builds `count` distinct concrete queries over `assoc + 4` blocks:
/// [`DEPTH`]-access patterns with a profiled tail, the shape the learner's
/// membership queries take.
fn build_workload(count: usize, assoc: usize) -> Vec<Query> {
    let blocks = assoc + 4;
    let mut out = Vec::with_capacity(count);
    let mut seed = 0usize;
    while out.len() < count {
        let mut expr = String::new();
        let mut n = seed;
        for step in 0..DEPTH {
            if step > 0 {
                expr.push(' ');
            }
            // Low steps cycle fast, high steps slow: distinct, varied traces.
            expr.push_str(&block_name(BlockId(((n + step) % blocks) as u32)));
            if step % 3 == 2 {
                n /= blocks;
            }
        }
        expr.push('?');
        let mut expanded = expand_query(&expr, assoc).expect("workload query expands");
        out.push(expanded.pop().expect("expansion yields a query"));
        seed += 1;
    }
    out
}

struct ThreeWay {
    bare: u64,
    off: u64,
    on: u64,
}

struct TwoWay {
    bare: u64,
    on: u64,
}

fn time_ns(run: impl FnOnce()) -> u64 {
    let begin = Instant::now();
    run();
    begin.elapsed().as_nanos() as u64
}

fn execute_all(backend: &mut PolicySimBackend, queries: &[Query]) -> u64 {
    let mut hits = 0u64;
    for query in queries {
        let (outcomes, _) = backend.execute(query).expect("sim backend is total");
        hits += outcomes
            .iter()
            .filter(|o| **o == cache::HitMiss::Hit)
            .count() as u64;
    }
    hits
}

/// The micro workload: raw backend execution, bare vs. disabled-span vs.
/// enabled-span, one span per [`BATCH`] queries (the `run_many` granularity).
fn measure_micro(workload: &[Query], assoc: usize, trials: usize) -> ThreeWay {
    let recorder = Recorder::new(Arc::new(RingSink::new(8_192)));
    let mut result = ThreeWay {
        bare: u64::MAX,
        off: u64::MAX,
        on: u64::MAX,
    };
    for _ in 0..trials {
        let mut backend = PolicySimBackend::new(PolicyKind::Lru, assoc).expect("lru builds");
        let bare = time_ns(|| {
            for chunk in workload.chunks(BATCH) {
                black_box(execute_all(&mut backend, chunk));
            }
        });

        let mut backend = PolicySimBackend::new(PolicyKind::Lru, assoc).expect("lru builds");
        let off = time_ns(|| {
            for chunk in workload.chunks(BATCH) {
                let none: Option<&Recorder> = None;
                let mut span = maybe_span(none, "bench.batch");
                let hits = black_box(execute_all(&mut backend, chunk));
                if let Some(span) = span.as_mut() {
                    span.set("queries", chunk.len());
                    span.set("hits", hits);
                }
            }
        });

        let mut backend = PolicySimBackend::new(PolicyKind::Lru, assoc).expect("lru builds");
        let on = time_ns(|| {
            for chunk in workload.chunks(BATCH) {
                let mut span = recorder.span("bench.batch");
                let hits = black_box(execute_all(&mut backend, chunk));
                span.set("queries", chunk.len());
                span.set("hits", hits);
            }
        });

        result.bare = result.bare.min(bare);
        result.off = result.off.min(off);
        result.on = result.on.min(on);
    }
    result
}

/// The engine workload: `run_many` over a fresh engine and store per trial,
/// recorder detached vs. attached.
fn measure_engine(workload: &[Query], assoc: usize, trials: usize) -> TwoWay {
    let recorder = Arc::new(Recorder::new(Arc::new(RingSink::new(8_192))));
    let mut result = TwoWay {
        bare: u64::MAX,
        on: u64::MAX,
    };
    for _ in 0..trials {
        let backend = PolicySimBackend::new(PolicyKind::Lru, assoc).expect("lru builds");
        let mut engine = QueryEngine::new(backend);
        let bare = time_ns(|| {
            for chunk in workload.chunks(BATCH) {
                black_box(engine.run_many(chunk).expect("sim queries succeed"));
            }
        });

        let backend = PolicySimBackend::new(PolicyKind::Lru, assoc).expect("lru builds");
        let mut engine = QueryEngine::new(backend);
        engine.set_recorder(Some(Arc::clone(&recorder)));
        let on = time_ns(|| {
            for chunk in workload.chunks(BATCH) {
                black_box(engine.run_many(chunk).expect("sim queries succeed"));
            }
        });

        result.bare = result.bare.min(bare);
        result.on = result.on.min(on);
    }
    result
}

/// The end-to-end workload: a full LRU@3 learning run with and without a
/// recorder attached.  Reported for context only — conformance search time
/// dominates and varies run to run.
fn measure_learn(trials: usize) -> TwoWay {
    let mut result = TwoWay {
        bare: u64::MAX,
        on: u64::MAX,
    };
    for _ in 0..trials.max(1) {
        let setup = LearnSetup::default();
        let bare = time_ns(|| {
            black_box(learn_simulated_policy(PolicyKind::Lru, 3, &setup).expect("lru@3 learns"));
        });

        let setup = LearnSetup {
            recorder: Some(Arc::new(Recorder::new(Arc::new(RingSink::new(8_192))))),
            ..LearnSetup::default()
        };
        let on = time_ns(|| {
            black_box(learn_simulated_policy(PolicyKind::Lru, 3, &setup).expect("lru@3 learns"));
        });

        result.bare = result.bare.min(bare);
        result.on = result.on.min(on);
    }
    result
}
