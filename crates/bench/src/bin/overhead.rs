//! §7.2 "Cost of learning from hardware": the overhead of the hardware path
//! relative to the software-simulated path, and the per-level cost of a
//! single MBL query.
//!
//! The paper reports (1) a ~1500x overhead of learning PLRU (associativity 8)
//! through CacheQuery with pre-computed (LevelDB-cached) responses compared
//! with learning from the software simulator, dominated by the communication
//! and bookkeeping around each query, and (2) the average execution time of
//! the MBL query `@ M _?` per cache level (~10-20 ms on silicon).  This
//! binary reproduces the *shape* of both measurements on the simulated
//! machine: learning through the full CacheQuery pipeline is orders of
//! magnitude more expensive than the direct simulator path, and the per-level
//! query cost grows with the amount of cache filtering required.
//!
//! Usage:
//!   overhead [--policy NAME] [--assoc N] [--repeats N] [--seed N]

use std::time::Instant;

use bench::{format_duration, Args, TextTable};
use cache::LevelId;
use cachequery::{Backend, QueryEngine, ResetSequence, Target};
use hardware::{CpuModel, SimulatedCpu};
use polca::{learn_hardware_policy, learn_simulated_policy, HardwareTarget, LearnSetup};
use policies::PolicyKind;

fn main() {
    let args = Args::from_env();
    let assoc = args.value_or("assoc", 4usize);
    let repeats = args.value_or("repeats", 100usize);
    let seed = args.value_or("seed", 7u64);
    let policy = args.value_or("policy", PolicyKind::New1);

    println!("§7.2 cost analysis on the simulated hardware");
    println!();

    // Part 1: learning overhead, software simulator vs CacheQuery pipeline.
    // The paper's comparison uses PLRU at associativity 8; the default here is
    // the Skylake L2 policy at its native associativity 4 so the run completes
    // in minutes, and the ratio's order of magnitude is what matters.
    let setup = LearnSetup::default();
    println!(
        "Learning {policy} at associativity {assoc}: software simulator vs CacheQuery pipeline"
    );

    let start = Instant::now();
    let simulated = learn_simulated_policy(policy, assoc, &setup).expect("simulated learning");
    let simulated_time = start.elapsed();
    println!(
        "  simulator path : {} states in {} ({} membership queries, {} cache probes)",
        simulated.machine.num_states(),
        format_duration(simulated_time),
        simulated.stats.membership_queries,
        simulated.cache_probes,
    );

    let hardware = HardwareTarget {
        model: CpuModel::SkylakeI5_6500,
        target: Target::new(LevelId::L2, 63, 0),
        reset: ResetSequence::Custom("D C B A @".to_string()),
        cat_ways: None,
        seed,
    };
    let start = Instant::now();
    match learn_hardware_policy(&hardware, &setup) {
        Ok(outcome) => {
            let hardware_time = start.elapsed();
            let ratio = hardware_time.as_secs_f64() / simulated_time.as_secs_f64().max(1e-9);
            println!(
                "  hardware path  : {} states in {} ({} membership queries, {} cache probes)",
                outcome.machine.num_states(),
                format_duration(hardware_time),
                outcome.stats.membership_queries,
                outcome.cache_probes,
            );
            println!("  overhead       : {ratio:.0}x (paper: ~1500x for PLRU assoc. 8 with cached responses)");
        }
        Err(e) => println!("  hardware path  : failed ({e})"),
    }

    // Part 2: average execution time of the MBL query `@ M _?` per level.
    println!();
    println!("Average execution time of the MBL query '@ M _?' ({repeats} executions per level)");
    let mut table = TextTable::new(&[
        "Level",
        "Wall-clock per query",
        "Simulated loads per query",
        "Simulated cycles per query",
    ]);
    for level in LevelId::ALL {
        let cpu = SimulatedCpu::new(CpuModel::SkylakeI5_6500, seed);
        let mut engine = QueryEngine::new(Backend::new(cpu));
        engine.set_memoize(false);
        engine
            .backend_mut()
            .select_target(Target::new(level, 5, 0))
            .expect("valid target");
        let loads_before = engine.backend().query_loads();
        let cycles_before = engine.backend().cpu().rdtsc();
        let start = Instant::now();
        for _ in 0..repeats {
            engine.query_mbl("@ M _?").expect("query runs");
        }
        let elapsed = start.elapsed();
        let loads = engine.backend().query_loads() - loads_before;
        let cycles = engine.backend().cpu().rdtsc() - cycles_before;
        table.add_row(&[
            level.to_string(),
            format!("{:.3} ms", elapsed.as_secs_f64() * 1000.0 / repeats as f64),
            (loads / repeats as u64).to_string(),
            (cycles / repeats as u64).to_string(),
        ]);
    }
    println!("{}", table.render());
    println!("Paper reference (§7.2): 16 ms on L1, 11 ms on L2, 20 ms on L3 per '@ M _?' query;");
    println!("the shape to compare is the relative growth of work with the cache level, driven");
    println!("by the extra eviction loads needed for cache filtering.");
}
