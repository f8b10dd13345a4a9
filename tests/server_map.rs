//! End-to-end test of the `map` request: a `cqd` daemon sweeps the first
//! sets of the simulated Skylake-like L3 and returns a per-set policy map
//! that must agree with the roles the simulator actually planted.

use cache::{DuelingRole, LevelId};
use hardware::{CpuModel, SimulatedCpu};
use server::{spawn, Client, CqdConfig};

/// Sets to sweep: covers both primary leaders (0, 33) and one alternate
/// leader (31) of the 64-set dueling period, plus plenty of followers.
const SETS: u64 = 40;

#[test]
fn map_labels_every_set_like_the_simulator() {
    let daemon = spawn(CqdConfig::default()).unwrap();
    let mut client = Client::connect(daemon.addr()).unwrap();

    let map = client
        .map("skylake", 99, Some(2), 0, SETS)
        .expect("the map campaign runs");
    assert_eq!(map.model, "skylake");
    assert_eq!(map.level, "L3");
    assert_eq!(map.cat, Some(2));
    assert_eq!(map.sets.len(), SETS as usize);

    // Both leader groups ran a campaign; the primary (thrash-vulnerable)
    // group's fixed policy is the planted New2, learned and identified.
    assert_eq!(map.groups.len(), 2);
    let primary = map
        .groups
        .iter()
        .find(|g| g.class == "thrash-vulnerable")
        .expect("a primary leader group");
    assert_eq!(primary.outcome, "learned");
    assert_eq!(primary.identified, "New2");
    assert!(primary.states > 0 && primary.queries > 0);
    assert!(primary.namespace.contains("cat=2"));
    let alternate = map
        .groups
        .iter()
        .find(|g| g.class == "thrash-resistant")
        .expect("an alternate leader group");
    // The planted alternate policy is randomized: the campaign either
    // aborts with statistical evidence or learns a non-library skeleton.
    match alternate.outcome.as_str() {
        "learned" => assert!(
            alternate.identified.is_empty(),
            "skeleton must not identify"
        ),
        "not-deterministic" => assert!(alternate.disagreement_permille > 0),
        other => panic!("unexpected alternate outcome '{other}'"),
    }

    // Every per-set verdict agrees with the simulator's planted role.
    let truth = SimulatedCpu::new(CpuModel::SkylakeI5_6500, 99);
    let sets_per_slice = CpuModel::SkylakeI5_6500
        .spec()
        .level(LevelId::L3)
        .unwrap()
        .geometry
        .sets_per_slice;
    for entry in &map.sets {
        let role = truth.l3_role(entry.slice as usize * sets_per_slice + entry.set as usize);
        match role {
            DuelingRole::LeaderPrimary => {
                assert_eq!(entry.verdict, "fixed", "set {}", entry.set);
                assert_eq!(entry.policy, "New2", "set {}", entry.set);
            }
            DuelingRole::LeaderAlternate => {
                assert_eq!(entry.class, "thrash-resistant", "set {}", entry.set);
                match entry.verdict.as_str() {
                    "fixed" => assert!(entry.policy.is_empty(), "set {}", entry.set),
                    "fixed-nondet" => {
                        assert!(entry.disagreement_permille > 0, "set {}", entry.set);
                    }
                    other => panic!(
                        "unexpected alternate verdict '{other}' on set {}",
                        entry.set
                    ),
                }
            }
            DuelingRole::Follower => {
                assert_eq!(entry.verdict, "adaptive", "set {}", entry.set);
                assert!(
                    entry.disagreement_permille > 0,
                    "set {}: a follower must flip with the forced duel polarity",
                    entry.set
                );
            }
        }
    }

    // Remapping the same CPU is deterministic — and served from the same
    // store namespaces the first sweep filled.
    let again = client.map("skylake", 99, Some(2), 0, SETS).unwrap();
    assert_eq!(again, map);
    let stats = client.stats().unwrap();
    assert!(
        stats
            .namespaces
            .iter()
            .any(|ns| ns.name == primary.namespace && ns.entries > 0),
        "the campaign namespace must be visible in the store: {:?}",
        stats.namespaces
    );
}

#[test]
fn map_rejects_bad_arguments() {
    let daemon = spawn(CqdConfig::default()).unwrap();
    let mut client = Client::connect(daemon.addr()).unwrap();

    let mut error = |model: &str, cat: Option<u64>, slice: u64| {
        client.map(model, 1, cat, slice, 4).unwrap_err().to_string()
    };
    // Unknown model.
    assert!(error("pentium", Some(2), 0).contains("pentium"));
    // Haswell has no CAT.
    assert_eq!(
        error("haswell", Some(2), 0),
        "server error: i7-4790 (Haswell) does not support Intel CAT"
    );
    // CAT ways beyond the Skylake L3's 12 ways, and none at all.
    for ways in [0, 13] {
        assert_eq!(
            error("skylake", Some(ways), 0),
            format!("server error: CAT ways {ways} out of range (L3 has 12 ways)")
        );
    }
    // No CAT restriction: learning at 12 ways exceeds the server's limit.
    assert!(error("skylake", None, 0).contains("learning limit"));
    // Slice out of range (the Skylake L3 has 8 slices).
    assert!(error("skylake", Some(2), 9).contains("slice 9 out of range"));
}
