//! Table 2: learning replacement policies from software-simulated caches.
//!
//! For every policy and associativity the harness runs the full Polca + L* +
//! Wp-method pipeline against a noiseless simulated cache, reports the number
//! of states of the learned automaton and the learning time, and checks the
//! learned machine against the executable ground-truth policy.  Each row is
//! also printed to stderr as soon as it finishes (states, membership queries,
//! probes, ground-truth verdict, or the error), so a run that is killed
//! keeps the rows it finished.
//!
//! Usage:
//!   table2 [--full] [--max-assoc N] [--depth K] [--policy NAME] [--time-budget SECS]
//!
//! The default configuration covers the associativities where every policy
//! learns within seconds to a few minutes; `--full` selects the paper's full
//! ranges (which for PLRU at associativity 16 means tens of hours, exactly as
//! in the paper).

use std::time::Duration;

use automata::check_equivalence;
use bench::{format_duration, Args, TextTable};
use polca::{learn_simulated_policy, LearnSetup};
use policies::{policy_to_mealy, PolicyKind};

struct Row {
    policy: PolicyKind,
    associativities: Vec<usize>,
}

fn default_rows(max_assoc: usize, full: bool) -> Vec<Row> {
    let clamp = |v: Vec<usize>| -> Vec<usize> {
        v.into_iter().filter(|&a| full || a <= max_assoc).collect()
    };
    vec![
        Row {
            policy: PolicyKind::Fifo,
            associativities: clamp(vec![2, 4, 8, 12, 16]),
        },
        Row {
            policy: PolicyKind::Lru,
            associativities: clamp(if full { vec![2, 4, 6] } else { vec![2, 4] }),
        },
        Row {
            policy: PolicyKind::Plru,
            associativities: clamp(if full {
                vec![2, 4, 8, 16]
            } else {
                vec![2, 4, 8]
            }),
        },
        Row {
            policy: PolicyKind::Mru,
            associativities: clamp(if full {
                vec![2, 4, 6, 8, 10, 12]
            } else {
                vec![2, 4, 6]
            }),
        },
        Row {
            policy: PolicyKind::Lip,
            associativities: clamp(if full { vec![2, 4, 6] } else { vec![2, 4] }),
        },
        Row {
            policy: PolicyKind::SrripHp,
            associativities: clamp(if full { vec![2, 4, 6] } else { vec![2, 4] }),
        },
        Row {
            policy: PolicyKind::SrripFp,
            associativities: clamp(if full { vec![2, 4, 6] } else { vec![2, 4] }),
        },
    ]
}

fn main() {
    let args = Args::from_env();
    let full = args.has_flag("full");
    let max_assoc = args.value_or("max-assoc", 8usize);
    let depth = args.value_or("depth", 1usize);
    let time_budget = args.value_or("time-budget", 0u64);
    let only_policy: Option<PolicyKind> = args.parsed("policy");

    let setup = LearnSetup {
        conformance_depth: depth,
        max_states: 1 << 17,
        time_budget: (time_budget > 0).then(|| Duration::from_secs(time_budget)),
        ..LearnSetup::default()
    };

    println!("Table 2: learning policies from software-simulated caches");
    println!(
        "(conformance depth k = {depth}; {} configuration)",
        if full { "full paper" } else { "default" }
    );
    println!();

    let mut table = TextTable::new(&[
        "Policy",
        "Assoc.",
        "# States",
        "Time",
        "Memb. queries",
        "Hit-rate",
        "Cache probes",
        "Matches ground truth",
    ]);

    for row in default_rows(max_assoc, full) {
        if let Some(only) = only_policy {
            if only != row.policy {
                continue;
            }
        }
        for assoc in row.associativities {
            if !row.policy.supports_associativity(assoc) {
                continue;
            }
            match learn_simulated_policy(row.policy, assoc, &setup) {
                Ok(outcome) => {
                    let reference =
                        policy_to_mealy(row.policy.build(assoc).unwrap().as_ref(), 1 << 20);
                    let matches = check_equivalence(&outcome.machine, &reference).is_none();
                    let verdict = if matches { "yes" } else { "NO" };
                    table.add_row(&[
                        row.policy.name().to_string(),
                        assoc.to_string(),
                        outcome.machine.num_states().to_string(),
                        format_duration(outcome.stats.duration),
                        outcome.stats.membership_queries.to_string(),
                        format!("{:.1}%", outcome.stats.cache_hit_rate() * 100.0),
                        outcome.cache_probes.to_string(),
                        verdict.to_string(),
                    ]);
                    eprintln!(
                        "learned {} at associativity {assoc}: {} states, {} MQ, {} probes, \
                         matches ground truth: {verdict}, in {}",
                        row.policy,
                        outcome.machine.num_states(),
                        outcome.stats.membership_queries,
                        outcome.cache_probes,
                        format_duration(outcome.stats.duration)
                    );
                }
                Err(e) => {
                    eprintln!("failed {} at associativity {assoc}: {e}", row.policy);
                    table.add_row(&[
                        row.policy.name().to_string(),
                        assoc.to_string(),
                        "-".to_string(),
                        "-".to_string(),
                        "-".to_string(),
                        "-".to_string(),
                        "-".to_string(),
                        format!("failed: {e}"),
                    ]);
                }
            }
        }
    }

    println!("{}", table.render());
    println!("Paper reference (Table 2): FIFO n states; LRU/LIP n!; PLRU 2^(n-1); MRU 2^n - 2;");
    println!("SRRIP-HP 12/178/2762 and SRRIP-FP 16/256/4096 states at associativities 2/4/6.");
}
