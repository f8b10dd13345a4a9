//! Appendix B: detecting leader sets of the adaptive last-level cache with
//! thrashing queries.
//!
//! The harness samples cache sets of slice 0 of the simulated Skylake (or
//! Kaby Lake / Haswell) L3, runs the two-phase thrashing experiment of
//! Appendix B, and compares the sets it classifies as fixed
//! thrash-vulnerable leaders against the roles the simulated machine
//! planted.  On Skylake and Kaby Lake those follow the selection formula the
//! paper reports (`((set & 0x3e0) >> 5) ^ (set & 0x1f) == 0 && set & 0x2 ==
//! 0`); on Haswell the leaders are sets 512–575 of slice 0.
//!
//! Usage:
//!   leader_sets [--cpu skylake|kabylake|haswell] [--sets N] [--cat WAYS] [--seed N]
//!
//! `--cat` applies only on a model with CAT (not the Haswell).

use bench::{Args, TextTable};
use cache::{DuelingRole, LevelId};
use cachequery::{detect_leader_sets, Backend, LeaderClass, QueryEngine};
use hardware::{CpuModel, SimulatedCpu};

fn main() {
    let args = Args::from_env();
    let model = args.value_or("cpu", CpuModel::SkylakeI5_6500);
    let sample = args.value_or("sets", 48usize);
    // The CAT restriction applied, if the model supports one.
    let cat = model
        .spec()
        .supports_cat
        .then_some(args.value_or("cat", 4usize));
    let seed = args.value_or("seed", 99u64);

    let cat_note = cat.map_or_else(String::new, |ways| format!("CAT {ways} ways, "));
    println!("Appendix B: leader-set detection on the simulated {model} L3");
    println!("(thrashing working set = associativity + 1, {cat_note}{sample} sampled sets)");
    println!();

    let mut backend = Backend::new(SimulatedCpu::new(model, seed));
    if let Some(ways) = cat {
        backend
            .apply_cat(ways)
            .expect("CAT is supported on this model");
    } else {
        println!("note: {model} does not support CAT; thrashing runs at full associativity");
    }
    let mut engine = QueryEngine::new(backend);

    // Sample the first `sample` set indices of slice 0, which contains the
    // first few Skylake leader sets of the published selection formula (0,
    // 33, ...).
    let candidates: Vec<(usize, usize)> = (0..sample).map(|set| (set, 0)).collect();
    let report =
        detect_leader_sets(&mut engine, LevelId::L3, &candidates, 2).expect("detection runs");

    // Ground truth straight from the simulated machine's dueling controller.
    let truth_cpu = SimulatedCpu::new(model, seed);
    let sets_per_slice = model
        .spec()
        .level(LevelId::L3)
        .expect("the models have an L3")
        .geometry
        .sets_per_slice;

    let mut table = TextTable::new(&[
        "Set",
        "Miss rate (phase 1)",
        "Miss rate (phase 2)",
        "Classified as",
        "Simulator ground truth",
    ]);
    let mut correct_leaders = 0usize;
    let mut reported_leaders = 0usize;
    for info in &report.sets {
        let truth = match truth_cpu.l3_role(info.slice * sets_per_slice + info.set) {
            DuelingRole::LeaderPrimary => "leader (thrash-vulnerable)",
            DuelingRole::LeaderAlternate => "leader (thrash-resistant)",
            DuelingRole::Follower => "follower",
        };
        let classified = match info.class {
            LeaderClass::ThrashVulnerable => {
                reported_leaders += 1;
                if truth.starts_with("leader (thrash-vulnerable") {
                    correct_leaders += 1;
                }
                "thrash-vulnerable"
            }
            LeaderClass::ThrashResistant => "thrash-resistant",
            LeaderClass::Adaptive => "adaptive follower",
        };
        table.add_row(&[
            info.set.to_string(),
            format!("{:.2}", info.miss_rate_initial),
            format!("{:.2}", info.miss_rate_after_duel),
            classified.to_string(),
            truth.to_string(),
        ]);
    }
    println!("{}", table.render());

    println!(
        "thrash-vulnerable leaders reported: {reported_leaders}, of which {correct_leaders} are \
         planted leaders"
    );
    let planted_leaders: Vec<usize> = (0..sample)
        .filter(|&set| truth_cpu.l3_role(set) == DuelingRole::LeaderPrimary)
        .collect();
    println!(
        "the simulated machine plants leaders at sets {planted_leaders:?} within the sampled range"
    );
    if planted_leaders.is_empty() {
        // Only primary leaders' misses vote the duel towards the
        // thrash-resistant policy between the two phases.
        println!(
            "no sampled set is a primary leader, so the duel cannot move: followers keep one \
             policy through both phases and read as fixed"
        );
    }
    println!();
    println!("Paper reference (Appendix B / Table 4): leader sets 0, 33, 132, 165, 264, 297, 396,");
    println!("429, 528, 561, 660, 693, 792, 825, 924, 957 per slice on Skylake and Kaby Lake;");
    println!("the remaining sets adapt via set dueling.");
}
