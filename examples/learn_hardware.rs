//! The §7 case study for a single cache set: learn the replacement policy of
//! one set of a simulated Intel CPU through the full CacheQuery pipeline.
//!
//! Run with:
//!   cargo run --release --example learn_hardware -- [CPU] [LEVEL] [SET] [CAT_WAYS]
//! e.g.
//!   cargo run --release --example learn_hardware -- skylake L3 33 2
//!
//! A missing argument takes its default (skylake, L3, 33, 2 ways of CAT on
//! the L3); one that does not parse exits with status 2.
//!
//! Learning the Skylake L2 (160-state New1) or an L1 (128-state PLRU) takes
//! several minutes; the L3 leader set with CAT reduced to 2-4 ways finishes
//! much faster and already demonstrates the undocumented New2 policy.

mod common;

use cache::LevelId;
use cachequery::{ResetSequence, Target};
use common::{positional, positional_with};
use hardware::CpuModel;
use polca::{identify_policy, learn_hardware_policy, HardwareTarget, LearnSetup};
use policies::PolicyKind;

const USAGE: &str = "usage: learn_hardware [skylake|haswell|kabylake] [L1|L2|L3] [SET] [CAT_WAYS]";

fn main() {
    let cpu = positional(0, CpuModel::SkylakeI5_6500, USAGE);
    let level = positional_with(1, LevelId::L3, USAGE, LevelId::parse);
    let set: usize = positional(2, 33, USAGE);
    let cat_ways: Option<usize> = positional_with(3, None, USAGE, |w| w.parse().ok().map(Some));

    // Table 4: the Skylake/Kaby Lake L2 needs the custom reset sequence.
    let reset = if level == LevelId::L2 && cpu != CpuModel::HaswellI7_4790 {
        ResetSequence::Custom("D C B A @".to_string())
    } else {
        ResetSequence::FlushRefill
    };
    let cat_ways = if level == LevelId::L3 {
        Some(cat_ways.unwrap_or(2))
    } else {
        None
    };

    println!(
        "Learning {} {level} set {set} (reset '{reset}', CAT {cat_ways:?})",
        cpu.spec().name
    );
    let hardware = HardwareTarget {
        model: cpu,
        target: Target::new(level, set, 0),
        reset,
        cat_ways,
        seed: 2024,
    };
    match learn_hardware_policy(&hardware, &LearnSetup::default()) {
        Ok(outcome) => {
            let assoc =
                cat_ways.unwrap_or_else(|| cpu.spec().level(level).unwrap().geometry.associativity);
            println!("  states              : {}", outcome.machine.num_states());
            println!(
                "  membership queries  : {}",
                outcome.stats.membership_queries
            );
            println!("  cache probes        : {}", outcome.cache_probes);
            println!("  wall-clock time     : {:?}", outcome.stats.duration);
            let identified =
                identify_policy(&outcome.machine, assoc, &PolicyKind::ALL_DETERMINISTIC);
            println!(
                "  identified policy   : {}",
                identified
                    .map(|(k, _)| k.name())
                    .unwrap_or("unknown (possibly a new policy)")
            );
        }
        Err(e) => {
            println!("  learning failed: {e}");
            println!("  (expected for follower sets, adaptive policies, or wrong reset sequences)");
        }
    }
}
