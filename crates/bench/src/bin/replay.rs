//! Trace-replay harness: the per-policy hit-rate sweep and the headline
//! learned-machine guarantee.
//!
//! Usage:
//!   `replay [--accesses N] [--lines L] [--seed S] [--max-assoc W]
//!           [--json PATH] [--sweep-only]`
//!
//! Two experiments, both written into `BENCH_trace.json`:
//!
//! 1. **Sweep** — every deterministic policy at ways 2 and 4 × every trace
//!    generator, replayed in-process through the ground-truth simulator:
//!    the per-policy hit-rate table plus a replay-throughput baseline
//!    (accesses/s).
//! 2. **Conformance replay** — every learned automaton of the conformance
//!    set (the same 33 cases the `conformance` bin walks) replayed
//!    *differentially* against its source simulator on all four generators.
//!    Any hit/miss or victim-line disagreement prints the offending access
//!    and sets exit code 1; CI pins the zero-divergence verdict on
//!    100k-access traces.

use std::time::Instant;

use bench::{merge_report, Args, TextTable};
use cache::CacheGeometry;
use polca::{conformance_cases, exact_learn_setup, learn_simulated_policy};
use policies::PolicyKind;
use server::Json;
use trace::{differential_replay, generate, replay_policy, GeneratorKind, TraceSpec};

/// Canonical replay geometry: 64 sets of `assoc` ways with 64-byte lines —
/// the shape of a slice-less L1.
fn geometry(assoc: usize) -> CacheGeometry {
    CacheGeometry::new(assoc, 64, 1, 64)
}

fn trace_spec(generator: GeneratorKind, accesses: usize, lines: usize, seed: u64) -> TraceSpec {
    TraceSpec {
        generator,
        accesses,
        lines,
        seed,
        ..TraceSpec::default()
    }
}

/// Experiment 1: policy × generator hit rates through the simulator, with
/// an accesses/s throughput baseline.  Returns the JSON record.
fn run_sweep(accesses: usize, lines: usize, seed: u64) -> Json {
    let mut table = TextTable::new(&[
        "policy",
        "ways",
        "sequential",
        "strided",
        "zipfian",
        "pointer-chase",
    ]);
    let mut rows: Vec<(String, Json)> = Vec::new();
    let mut replayed = 0u64;
    let started = Instant::now();
    for assoc in [2usize, 4] {
        for kind in PolicyKind::ALL_DETERMINISTIC {
            if !kind.supports_associativity(assoc) {
                continue;
            }
            let mut cells = vec![kind.to_string(), assoc.to_string()];
            let mut rates: Vec<(String, Json)> = Vec::new();
            for generator in GeneratorKind::ALL {
                let trace = generate(&trace_spec(generator, accesses, lines, seed));
                let counts =
                    replay_policy(&trace, kind, geometry(assoc)).expect("supported associativity");
                assert_eq!(counts.hits + counts.misses, counts.accesses);
                replayed += counts.accesses;
                cells.push(format!("{:.1}%", 100.0 * counts.hit_rate()));
                rates.push((generator.name().to_string(), Json::Num(counts.hit_rate())));
            }
            table.add_row(&cells);
            rows.push((format!("{kind}@{assoc}"), Json::Obj(rates)));
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    let throughput = replayed as f64 / elapsed;
    print!("{}", table.render());
    println!(
        "sweep: replayed {replayed} accesses in {elapsed:.3} s \
         ({throughput:.0} accesses/s, generation included)"
    );
    Json::obj(vec![
        ("accesses", Json::num(accesses as u64)),
        ("lines", Json::num(lines as u64)),
        ("seed", Json::num(seed)),
        ("replayed_accesses", Json::num(replayed)),
        ("elapsed_s", Json::Num(elapsed)),
        ("throughput_accesses_per_s", Json::Num(throughput)),
        ("hit_rates", Json::Obj(rows)),
    ])
}

/// Experiment 2: learn the whole conformance set and replay every learned
/// machine differentially against its simulator on every generator.
/// Returns the JSON record and the number of diverged cases.
fn run_conformance_replay(
    accesses: usize,
    lines: usize,
    seed: u64,
    max_assoc: usize,
) -> (Json, usize) {
    let mut table = TextTable::new(&[
        "policy", "ways", "states", "replayed", "hit-rate", "verdict",
    ]);
    let mut divergences = 0usize;
    let mut cases = 0usize;
    let mut replayed = 0u64;
    let started = Instant::now();
    for (kind, assoc) in conformance_cases(max_assoc) {
        cases += 1;
        let outcome = match learn_simulated_policy(kind, assoc, &exact_learn_setup(assoc)) {
            Ok(outcome) => outcome,
            Err(e) => {
                println!("learning {kind}@{assoc} failed: {e}");
                divergences += 1;
                continue;
            }
        };
        let mut case_replayed = 0u64;
        let mut hits = 0u64;
        let mut verdict = "ok".to_string();
        for generator in GeneratorKind::ALL {
            let trace = generate(&trace_spec(generator, accesses, lines, seed));
            let report = differential_replay(&trace, kind, geometry(assoc), &outcome.machine)
                .expect("the learned machine matches the geometry");
            case_replayed += report.simulator.accesses;
            hits += report.simulator.hits;
            if let Some(divergence) = report.divergence {
                verdict = format!("DIVERGED ({generator}): {divergence}");
                divergences += 1;
                break;
            }
        }
        replayed += case_replayed;
        table.add_row(&[
            kind.to_string(),
            assoc.to_string(),
            outcome.machine.num_states().to_string(),
            case_replayed.to_string(),
            format!("{:.1}%", 100.0 * hits as f64 / case_replayed.max(1) as f64),
            verdict,
        ]);
    }
    let elapsed = started.elapsed().as_secs_f64();
    print!("{}", table.render());
    println!(
        "conformance replay: {cases} learned machines x {} generators, \
         {replayed} accesses in {elapsed:.1} s, {divergences} divergence(s)",
        GeneratorKind::ALL.len()
    );
    let record = Json::obj(vec![
        ("accesses_per_trace", Json::num(accesses as u64)),
        ("lines", Json::num(lines as u64)),
        ("seed", Json::num(seed)),
        ("cases", Json::num(cases as u64)),
        ("replayed_accesses", Json::num(replayed)),
        ("elapsed_s", Json::Num(elapsed)),
        ("divergences", Json::num(divergences as u64)),
    ]);
    (record, divergences)
}

fn main() {
    let args = Args::from_env();
    let accesses: usize = args.value_or("accesses", 100_000);
    let lines: usize = args.value_or("lines", 256);
    let seed: u64 = args.value_or("seed", 1);
    let max_assoc: usize = args.value_or("max-assoc", 4);
    let json_path = args.value_of("json").unwrap_or("BENCH_trace.json");

    println!("replay: {accesses} accesses x {lines}-line working set per trace, seed {seed}");
    let sweep = run_sweep(accesses, lines, seed);
    merge_report(json_path, "replay", sweep);

    if args.has_flag("sweep-only") {
        return;
    }
    let (record, divergences) = run_conformance_replay(accesses, lines, seed, max_assoc);
    merge_report(json_path, "conformance_replay", record);
    if divergences > 0 {
        println!("replay: {divergences} case(s) diverged");
        std::process::exit(1);
    }
    println!("replay: every learned machine agrees with its simulator under traffic");
}
