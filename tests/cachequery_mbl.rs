//! Integration tests spanning the MBL language, the query engine over the
//! CacheQuery backend, and the simulated hardware.

use cache::{HitMiss, LevelId};
use cachequery::{detect_leader_sets, Backend, LeaderClass, QueryEngine, Target};
use hardware::{CpuModel, SimulatedCpu};

fn tool(model: CpuModel, seed: u64) -> QueryEngine<Backend> {
    QueryEngine::new(Backend::new(SimulatedCpu::new(model, seed)))
}

/// Selects set `set` of slice 0 of `level` as the tool's target.
fn select(cq: &mut QueryEngine<Backend>, level: LevelId, set: usize) {
    cq.backend_mut()
        .select_target(Target::new(level, set, 0))
        .unwrap();
}

#[test]
fn example_4_1_against_every_cache_level() {
    // The '@ X _?' query (Example 4.1 / the findEvicted building block):
    // exactly one of the originally loaded blocks must miss after loading one
    // extra block, at every cache level of the simulated Skylake.
    let mut cq = tool(CpuModel::SkylakeI5_6500, 3);
    for (level, set) in [(LevelId::L1, 7), (LevelId::L2, 100), (LevelId::L3, 33)] {
        select(&mut cq, level, set);
        let results = cq.query_mbl("@ X _?").unwrap();
        let assoc = cq.backend().associativity().unwrap();
        assert_eq!(results.len(), assoc, "wrong expansion count at {level}");
        let misses = results
            .iter()
            .filter(|r| r.outcomes[0] == HitMiss::Miss)
            .count();
        assert_eq!(misses, 1, "expected exactly one eviction at {level}");
    }
}

#[test]
fn l2_behaviour_differs_between_haswell_and_skylake() {
    // The Haswell L2 is an 8-way PLRU set while the Skylake L2 is a 4-way
    // set running the New1 policy: a five-block working set fits in the
    // former but thrashes the latter, so the same MBL query distinguishes the
    // two simulated CPUs purely from hit/miss observations.
    let query = "A B C D E (A)?";
    let mut haswell = tool(CpuModel::HaswellI7_4790, 5);
    select(&mut haswell, LevelId::L2, 50);
    let hw = &haswell.query_mbl(query).unwrap()[0].outcomes;

    let mut skylake = tool(CpuModel::SkylakeI5_6500, 5);
    select(&mut skylake, LevelId::L2, 50);
    let sky = &skylake.query_mbl(query).unwrap()[0].outcomes;

    assert_eq!(
        hw,
        &vec![HitMiss::Hit],
        "five blocks fit in the 8-way Haswell L2"
    );
    assert_eq!(
        sky,
        &vec![HitMiss::Miss],
        "the 4-way Skylake L2 evicts block A"
    );
}

#[test]
fn query_cache_survives_export_import_across_tools() {
    let mut cq = tool(CpuModel::SkylakeI5_6500, 9);
    select(&mut cq, LevelId::L1, 2);
    cq.query_mbl("@ X _?").unwrap();
    let exported = cq.store().export();
    assert!(cq.store().entries() > 0);

    let mut other = tool(CpuModel::SkylakeI5_6500, 9);
    select(&mut other, LevelId::L1, 2);
    other.store().import(&exported);
    let results = other.query_mbl("@ X _?").unwrap();
    assert!(results.iter().all(|r| r.from_cache));
}

#[test]
fn leader_detection_flags_the_formula_sets() {
    let mut cq = tool(CpuModel::SkylakeI5_6500, 17);
    cq.backend_mut().apply_cat(4).unwrap();
    let candidates = [(0, 0), (33, 0), (2, 0), (40, 0)];
    let report = detect_leader_sets(&mut cq, LevelId::L3, &candidates, 1).unwrap();
    let vulnerable = report.thrash_vulnerable();
    assert!(vulnerable.contains(&(0, 0)));
    assert!(vulnerable.contains(&(33, 0)));
    for info in &report.sets {
        if info.set == 2 || info.set == 40 {
            assert_ne!(info.class, LeaderClass::ThrashVulnerable);
        }
    }
}
