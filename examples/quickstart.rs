//! Quickstart: the toy pipeline of Figure 1.
//!
//! A 2-way set-associative cache set is queried through CacheQuery (Figure
//! 1c), Polca translates policy-level questions into block accesses (Figure
//! 1b), and the automata learner reconstructs the replacement policy (Figure
//! 1a).
//!
//! Run with: `cargo run --example quickstart`

use cache::LevelId;
use cachequery::{Backend, QueryEngine, Target};
use hardware::{CpuModel, SimulatedCpu};
use learning::MembershipOracle;
use polca::{
    identify_policy, learn_simulated_policy, LearnSetup, PolcaOracle, SimulatedCacheOracle,
};
use policies::{PolicyInput, PolicyKind};

fn main() {
    // ---- Figure 1c: CacheQuery turns abstract block patterns into hit/miss
    // traces measured on the (simulated) hardware. -------------------------
    println!("== CacheQuery (Figure 1c) ==");
    let cpu = SimulatedCpu::new(CpuModel::SkylakeI5_6500, 42);
    let mut engine = QueryEngine::new(Backend::new(cpu));
    engine
        .backend_mut()
        .select_target(Target::new(LevelId::L2, 63, 0))
        .expect("the simulated Skylake has an L2 set 63");
    for pattern in ["A B C (A)?", "A B C (B)?"] {
        let results = engine.query_mbl(pattern).expect("query runs");
        for r in &results {
            println!("  {:<12} -> {:?}", r.rendered, r.outcomes);
        }
    }

    // ---- Figure 1b: Polca answers policy-level queries (over cache lines
    // and eviction requests) by tracking the cache content. ----------------
    println!();
    println!("== Polca (Figure 1b) ==");
    let oracle = SimulatedCacheOracle::new(PolicyKind::Lru, 2).expect("LRU supports 2 ways");
    let mut polca = PolcaOracle::new(oracle);
    let word = vec![
        PolicyInput::Line(0),
        PolicyInput::Line(1),
        PolicyInput::Evct,
    ];
    let outputs = polca.query(&word).expect("the simulated cache answers");
    println!(
        "  {:?}",
        word.iter().map(ToString::to_string).collect::<Vec<_>>()
    );
    println!(
        "  -> {:?}",
        outputs.iter().map(ToString::to_string).collect::<Vec<_>>()
    );

    // ---- Figure 1a: the learner reconstructs the policy automaton. --------
    println!();
    println!("== Learning (Figure 1a) ==");
    let outcome = learn_simulated_policy(PolicyKind::Lru, 2, &LearnSetup::default())
        .expect("learning a 2-state policy is instantaneous");
    println!(
        "  learned a {}-state machine with {} membership queries",
        outcome.machine.num_states(),
        outcome.stats.membership_queries
    );
    let identified = identify_policy(&outcome.machine, 2, &PolicyKind::ALL_DETERMINISTIC);
    println!(
        "  identified as: {}",
        identified.map(|(k, _)| k.name()).unwrap_or("unknown")
    );
    println!();
    println!("Learned automaton (Graphviz):");
    println!("{}", automata::to_dot(&outcome.machine, "lru2"));
}
