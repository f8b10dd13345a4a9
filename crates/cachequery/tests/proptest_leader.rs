//! Property-based tests of leader-set detection: for planted role layouts —
//! the published Skylake/Haswell selection functions as well as arbitrary
//! random layouts — under random machine seeds and random initial PSEL
//! states, [`detect_leader_sets_with`] must recover the exact planted role
//! of every candidate set.
//!
//! The candidate list always covers the planted leaders: the disambiguation
//! phases work by making leaders *vote* the duel in a known direction, so a
//! sweep that skips every leader of one class has no way to move the duel —
//! exactly like the real experiment, which sweeps the whole cache.

use proptest::prelude::*;

use cache::{skylake_like_roles, CacheGeometry, DuelingRole, LevelId};
use cachequery::{detect_leader_sets_with, Backend, LeaderClass, LeaderDetectConfig, QueryEngine};
use hardware::{CpuModel, CpuSpec, LevelPolicy, LevelSpec, SimulatedCpu};
use policies::PolicyKind;

/// Sets of the planted adaptive L3 — small enough that one detection run is
/// milliseconds, large enough for the Skylake selection function to plant
/// two leaders of each class (0/33 primary, 31/62 alternate).
const L3_SETS: usize = 64;

/// A small three-level CPU whose adaptive L3 uses the given role layout.
fn planted_spec(roles: Vec<DuelingRole>) -> CpuSpec {
    const LINE: u64 = 64;
    CpuSpec {
        name: "planted (test)",
        supports_cat: true,
        levels: vec![
            LevelSpec {
                level: LevelId::L1,
                geometry: CacheGeometry::new(2, 8, 1, LINE),
                policy: LevelPolicy::Fixed(PolicyKind::Plru),
                inclusive: false,
            },
            LevelSpec {
                level: LevelId::L2,
                geometry: CacheGeometry::new(4, 16, 1, LINE),
                policy: LevelPolicy::Fixed(PolicyKind::New1),
                inclusive: false,
            },
            LevelSpec {
                level: LevelId::L3,
                geometry: CacheGeometry::new(4, L3_SETS, 1, LINE),
                policy: LevelPolicy::Adaptive { roles },
                inclusive: true,
            },
        ],
    }
}

fn expected_class(role: DuelingRole) -> LeaderClass {
    match role {
        DuelingRole::LeaderPrimary => LeaderClass::ThrashVulnerable,
        DuelingRole::LeaderAlternate => LeaderClass::ThrashResistant,
        DuelingRole::Follower => LeaderClass::Adaptive,
    }
}

/// Runs detection on `candidates` of a machine with the planted `roles`,
/// after forcing the initial PSEL, and asserts every candidate's recovered
/// class matches its planted role.
fn assert_layout_recovered(
    roles: &[DuelingRole],
    seed: u64,
    initial_psel: i32,
    candidates: &[usize],
    config: &LeaderDetectConfig,
) -> Result<(), TestCaseError> {
    let cpu = SimulatedCpu::new_planted(roles, seed);
    let mut cq = QueryEngine::new(Backend::new(cpu));
    cq.backend()
        .cpu()
        .l3_dueling()
        .expect("the planted L3 is adaptive")
        .force_psel(initial_psel);
    let pairs: Vec<(usize, usize)> = candidates.iter().map(|&s| (s, 0)).collect();
    let report = detect_leader_sets_with(&mut cq, LevelId::L3, &pairs, config)
        .expect("detection runs on the planted machine");
    for info in &report.sets {
        let planted = roles[info.set];
        prop_assert_eq!(
            info.class,
            expected_class(planted),
            "set {} (planted {:?}, psel {}, seed {}): {:?}",
            info.set,
            planted,
            initial_psel,
            seed,
            info
        );
    }
    Ok(())
}

/// Convenience constructor used by the assertions above.
trait Planted {
    fn new_planted(roles: &[DuelingRole], seed: u64) -> SimulatedCpu;
}

impl Planted for SimulatedCpu {
    fn new_planted(roles: &[DuelingRole], seed: u64) -> SimulatedCpu {
        SimulatedCpu::with_spec(CpuModel::SkylakeI5_6500, planted_spec(roles.to_vec()), seed)
    }
}

/// Initial PSEL states the *default* drive rounds are sized for.  The drives
/// move the counter by a bounded number of leader votes per round, so a
/// counter planted at saturation (±511 for 10 bits) needs proportionally
/// more rounds — which `saturated_psel_recovery_with_generous_drive_rounds`
/// pins.
fn moderate_psel() -> impl Strategy<Value = i32> {
    (0u32..=192).prop_map(|v| v as i32 - 96)
}

/// A random role layout over [`L3_SETS`] sets with at least one leader of
/// each class: `(primary, alternate, follower-noise)` — the two leader
/// indices are distinct by construction.
fn random_layout() -> impl Strategy<Value = Vec<DuelingRole>> {
    (
        0usize..L3_SETS,
        0usize..L3_SETS - 1,
        proptest::collection::vec(0u8..=16, L3_SETS),
    )
        .prop_map(|(primary, alt_raw, noise)| {
            let alternate = if alt_raw == primary {
                L3_SETS - 1
            } else {
                alt_raw
            };
            let mut roles: Vec<DuelingRole> = noise
                .into_iter()
                .map(|n| match n {
                    // Mostly followers, with a sprinkle of extra leaders.
                    0 => DuelingRole::LeaderPrimary,
                    1 => DuelingRole::LeaderAlternate,
                    _ => DuelingRole::Follower,
                })
                .collect();
            roles[primary] = DuelingRole::LeaderPrimary;
            roles[alternate] = DuelingRole::LeaderAlternate;
            roles
        })
}

/// Candidate sample: all planted leaders (the voters the drives rely on)
/// plus a handful of followers picked by index.
fn candidates_for(roles: &[DuelingRole], picks: &[usize]) -> Vec<usize> {
    let mut candidates: Vec<usize> = roles
        .iter()
        .enumerate()
        .filter(|(_, &r)| r != DuelingRole::Follower)
        .map(|(i, _)| i)
        .collect();
    for &p in picks {
        let follower = p % L3_SETS;
        if roles[follower] == DuelingRole::Follower && !candidates.contains(&follower) {
            candidates.push(follower);
        }
    }
    candidates
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The Skylake-style selection function is recovered exactly for any
    /// machine seed, any moderate initial duel state, and any follower
    /// sample.
    #[test]
    fn planted_skylake_layout_is_recovered(
        seed in 0u64..1000,
        psel in moderate_psel(),
        picks in proptest::collection::vec(0usize..L3_SETS, 1..5),
    ) {
        let roles = skylake_like_roles(L3_SETS, 1);
        let candidates = candidates_for(&roles, &picks);
        assert_layout_recovered(&roles, seed, psel, &candidates, &LeaderDetectConfig::default())?;
    }

    /// A Haswell-style layout — contiguous leader blocks, like the published
    /// selection restricted to slice 0 — is recovered exactly.
    #[test]
    fn planted_haswell_style_layout_is_recovered(
        seed in 0u64..1000,
        psel in moderate_psel(),
        picks in proptest::collection::vec(0usize..L3_SETS, 1..5),
    ) {
        // The published function plants 64-set blocks at 512 and 768 of a
        // 2048-set slice; scaled to the small planted L3 the blocks are
        // 16–23 (primary) and 40–47 (alternate).
        let mut roles = vec![DuelingRole::Follower; L3_SETS];
        roles[16..24].fill(DuelingRole::LeaderPrimary);
        roles[40..48].fill(DuelingRole::LeaderAlternate);
        let candidates = candidates_for(&roles, &picks);
        assert_layout_recovered(&roles, seed, psel, &candidates, &LeaderDetectConfig::default())?;
    }

    /// Arbitrary random layouts (with at least one leader of each class) are
    /// recovered exactly.
    #[test]
    fn random_planted_layouts_are_recovered(
        roles in random_layout(),
        seed in 0u64..1000,
        psel in moderate_psel(),
        picks in proptest::collection::vec(0usize..L3_SETS, 1..5),
    ) {
        let candidates = candidates_for(&roles, &picks);
        assert_layout_recovered(&roles, seed, psel, &candidates, &LeaderDetectConfig::default())?;
    }
}

/// A duel planted at *saturation* is beyond the default drive budget by
/// design; generously sized drive rounds recover the layout even from the
/// counter's extremes.
#[test]
fn saturated_psel_recovery_with_generous_drive_rounds() {
    let roles = skylake_like_roles(L3_SETS, 1);
    let candidates = candidates_for(&roles, &[1, 7, 40]);
    let config = LeaderDetectConfig {
        extra_duel_rounds: 2,
        down_drive_rounds: 48,
        up_drive_rounds: 48,
    };
    for psel in [-511, 511] {
        assert_layout_recovered(&roles, 7, psel, &candidates, &config)
            .expect("saturated duel states must still be recoverable");
    }
}
