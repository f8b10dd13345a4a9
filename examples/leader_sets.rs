//! Appendix B in miniature: detect the leader sets of the simulated Skylake
//! last-level cache with thrashing queries.
//!
//! Run with: `cargo run --release --example leader_sets -- [NUM_SETS]`
//! (40 when absent; a count that does not parse exits with status 2).

mod common;

use cache::LevelId;
use cachequery::{detect_leader_sets, CacheQuery, LeaderClass};
use common::positional;
use hardware::{CpuModel, SimulatedCpu};

fn main() {
    let sample: usize = positional(0, 40, "usage: leader_sets [NUM_SETS]");

    let cpu = SimulatedCpu::new(CpuModel::SkylakeI5_6500, 5);
    let mut tool = CacheQuery::new(cpu);
    tool.apply_cat(4)
        .expect("the simulated Skylake supports CAT");

    println!("Thrashing the first {sample} sets of the simulated Skylake L3 (slice 0)");
    let candidates: Vec<(usize, usize)> = (0..sample).map(|set| (set, 0)).collect();
    let report =
        detect_leader_sets(&mut tool, LevelId::L3, &candidates, 2).expect("detection runs");

    for info in &report.sets {
        let label = match info.class {
            LeaderClass::ThrashVulnerable => "LEADER (thrash-vulnerable, fixed policy)",
            LeaderClass::ThrashResistant => "thrash-resistant",
            LeaderClass::Adaptive => "adaptive follower",
        };
        println!(
            "  set {:>3}: miss rate {:.2} -> {:.2}  {label}",
            info.set, info.miss_rate_initial, info.miss_rate_after_duel
        );
    }
    println!();
    println!(
        "thrash-vulnerable leader sets found: {:?}",
        report
            .thrash_vulnerable()
            .iter()
            .map(|(s, _)| s)
            .collect::<Vec<_>>()
    );
    println!("paper (Appendix B): leaders at sets 0, 33, 132, 165, ... (16 per slice)");
}
