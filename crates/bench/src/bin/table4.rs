//! Table 4: learning replacement policies from (simulated) hardware caches.
//!
//! Every row drives the full pipeline — CacheQuery against the simulated CPU,
//! Polca as the membership oracle, L* with Wp-method conformance testing —
//! and reports the learned automaton's size, the policy it is identified as,
//! and the reset sequence used.
//!
//! Usage:
//!   table4 [--full] [--depth K] [--seed N] [--cat WAYS] [--time-budget SECS]
//!
//! The default (quick) configuration runs the rows that demonstrate the
//! paper's findings within minutes: the Skylake L2 (undocumented policy New1,
//! custom reset sequence), the Skylake L3 leader set under CAT (undocumented
//! policy New2, Flush+Refill reset), the failure of learning the Skylake L2
//! with a plain Flush+Refill reset, and the failure on the Haswell L3 (no
//! CAT).  `--full` adds the L1 caches (128-state PLRU), the Haswell L2 and
//! the Kaby Lake rows.

use std::time::Duration;

use bench::{format_duration, Args, TextTable};
use cache::LevelId;
use cachequery::{ResetSequence, Target};
use hardware::CpuModel;
use polca::{identify_policy, learn_hardware_policy, LearnSetup};
use policies::PolicyKind;

struct Experiment {
    cpu: CpuModel,
    level: LevelId,
    set: usize,
    slice: usize,
    cat_ways: Option<usize>,
    reset: ResetSequence,
    note: &'static str,
}

fn experiments(full: bool, cat: usize) -> Vec<Experiment> {
    let mut rows = vec![
        Experiment {
            cpu: CpuModel::SkylakeI5_6500,
            level: LevelId::L2,
            set: 63,
            slice: 0,
            cat_ways: None,
            reset: ResetSequence::Custom("D C B A @".to_string()),
            note: "custom reset (Table 4)",
        },
        Experiment {
            cpu: CpuModel::SkylakeI5_6500,
            level: LevelId::L2,
            set: 63,
            slice: 0,
            cat_ways: None,
            reset: ResetSequence::FlushRefill,
            note: "expected to fail: F+R is not a reset for this cache",
        },
        Experiment {
            cpu: CpuModel::SkylakeI5_6500,
            level: LevelId::L3,
            set: 33,
            slice: 0,
            cat_ways: Some(cat),
            reset: ResetSequence::FlushRefill,
            note: "leader set, CAT-reduced",
        },
        Experiment {
            cpu: CpuModel::HaswellI7_4790,
            level: LevelId::L3,
            set: 768,
            slice: 0,
            cat_ways: Some(cat),
            reset: ResetSequence::FlushRefill,
            note: "expected to fail: no CAT support, non-deterministic leader",
        },
    ];
    if full {
        rows.extend([
            Experiment {
                cpu: CpuModel::SkylakeI5_6500,
                level: LevelId::L1,
                set: 13,
                slice: 0,
                cat_ways: None,
                reset: ResetSequence::FlushRefill,
                note: "",
            },
            Experiment {
                cpu: CpuModel::HaswellI7_4790,
                level: LevelId::L1,
                set: 13,
                slice: 0,
                cat_ways: None,
                reset: ResetSequence::FlushRefill,
                note: "",
            },
            Experiment {
                cpu: CpuModel::HaswellI7_4790,
                level: LevelId::L2,
                set: 200,
                slice: 0,
                cat_ways: None,
                reset: ResetSequence::FlushRefill,
                note: "",
            },
            Experiment {
                cpu: CpuModel::KabyLakeI7_8550U,
                level: LevelId::L2,
                set: 63,
                slice: 0,
                cat_ways: None,
                reset: ResetSequence::Custom("D C B A @".to_string()),
                note: "custom reset (Table 4)",
            },
            Experiment {
                cpu: CpuModel::KabyLakeI7_8550U,
                level: LevelId::L3,
                set: 33,
                slice: 0,
                cat_ways: Some(cat),
                reset: ResetSequence::FlushRefill,
                note: "leader set, CAT-reduced",
            },
        ]);
    }
    rows
}

fn main() {
    let args = Args::from_env();
    let full = args.has_flag("full");
    let depth = args.value_or("depth", 1usize);
    let seed = args.value_or("seed", 2024u64);
    let cat = args.value_or("cat", 4usize);
    let time_budget = args.value_or("time-budget", 1800u64);

    let setup = LearnSetup {
        conformance_depth: depth,
        max_states: 4096,
        time_budget: Some(Duration::from_secs(time_budget)),
        ..LearnSetup::default()
    };

    println!("Table 4: learning policies from (simulated) hardware caches");
    println!("(conformance depth k = {depth}, CAT reduction to {cat} ways, seed {seed})");
    println!();

    let mut table = TextTable::new(&[
        "CPU",
        "Level",
        "Assoc.",
        "Set",
        "# States",
        "Policy",
        "Reset seq.",
        "Time",
        "Note",
    ]);

    for experiment in experiments(full, cat) {
        let spec = experiment.cpu.spec();
        let assoc = experiment
            .cat_ways
            .filter(|_| experiment.level == LevelId::L3)
            .unwrap_or_else(|| {
                spec.level(experiment.level)
                    .expect("all modelled CPUs have three levels")
                    .geometry
                    .associativity
            });
        let hardware = polca::HardwareTarget {
            model: experiment.cpu,
            target: Target::new(experiment.level, experiment.set, experiment.slice),
            reset: experiment.reset.clone(),
            cat_ways: experiment.cat_ways,
            seed,
        };
        eprintln!(
            "learning {} {} set {} (reset '{}')...",
            spec.name, experiment.level, experiment.set, experiment.reset
        );
        match learn_hardware_policy(&hardware, &setup) {
            Ok(outcome) => {
                let identified =
                    identify_policy(&outcome.machine, assoc, &PolicyKind::ALL_DETERMINISTIC)
                        .map(|(kind, _)| kind.name().to_string())
                        .unwrap_or_else(|| "unknown".to_string());
                table.add_row(&[
                    spec.name.to_string(),
                    experiment.level.to_string(),
                    format!(
                        "{}{}",
                        assoc,
                        if experiment.cat_ways.is_some() {
                            "*"
                        } else {
                            ""
                        }
                    ),
                    experiment.set.to_string(),
                    outcome.machine.num_states().to_string(),
                    identified,
                    experiment.reset.to_string(),
                    format_duration(outcome.stats.duration),
                    experiment.note.to_string(),
                ]);
            }
            Err(e) => {
                table.add_row(&[
                    spec.name.to_string(),
                    experiment.level.to_string(),
                    assoc.to_string(),
                    experiment.set.to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    experiment.reset.to_string(),
                    "-".to_string(),
                    format!("{} ({e})", experiment.note),
                ]);
            }
        }
    }

    println!("{}", table.render());
    println!("* associativity virtually reduced with Intel CAT, as in the paper.");
    println!("Paper reference (Table 4): L1/Haswell-L2 = 128-state PLRU, Skylake/Kaby Lake L2 =");
    println!("160-state New1 with reset 'D C B A @', Skylake/Kaby Lake L3 leader sets =");
    println!("175-state New2 with F+R, Haswell L3 not learnable.");
}
