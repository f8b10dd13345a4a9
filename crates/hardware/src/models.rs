//! The three CPU models evaluated in the paper (Table 3 / Table 4).

use std::fmt;
use std::str::FromStr;

use cache::{haswell_like_roles, skylake_like_roles, CacheGeometry, DuelingRole, LevelId};
use policies::PolicyKind;

/// How the replacement policy of a level is configured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LevelPolicy {
    /// Every set runs the same fixed deterministic policy.
    Fixed(PolicyKind),
    /// The level is adaptive: leader sets (selected by the role table) run
    /// fixed policies and follower sets duel between them.
    Adaptive {
        /// Role of each flat set index.
        roles: Vec<DuelingRole>,
    },
}

/// Specification of one cache level of a CPU model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelSpec {
    /// Which level this is.
    pub level: LevelId,
    /// Geometry (Table 3).
    pub geometry: CacheGeometry,
    /// Replacement policy configuration (Table 4 / Appendix B).
    pub policy: LevelPolicy,
    /// Whether the level is inclusive of the levels above it.
    pub inclusive: bool,
}

/// Specification of a complete CPU model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CpuSpec {
    /// Marketing name, e.g. `"i5-6500 (Skylake)"`.
    pub name: &'static str,
    /// Level specifications, ordered L1 outward.
    pub levels: Vec<LevelSpec>,
    /// Whether the part supports Intel CAT (cache allocation technology);
    /// Table 4 notes that the Haswell i7-4790 does not.
    pub supports_cat: bool,
}

impl CpuSpec {
    /// The specification of `level`, if the model has it.
    pub fn level(&self, level: LevelId) -> Option<&LevelSpec> {
        self.levels.iter().find(|l| l.level == level)
    }
}

/// The three processors analysed in §7 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CpuModel {
    /// Intel Core i7-4790 (Haswell).
    HaswellI7_4790,
    /// Intel Core i5-6500 (Skylake).
    SkylakeI5_6500,
    /// Intel Core i7-8550U (Kaby Lake).
    KabyLakeI7_8550U,
}

impl fmt::Display for CpuModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.spec().name)
    }
}

/// A name that is none of the modelled CPUs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownCpu(pub String);

impl fmt::Display for UnknownCpu {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown CPU model '{}' (haswell|skylake|kabylake)",
            self.0
        )
    }
}

impl std::error::Error for UnknownCpu {}

/// Parses a [`CpuModel::short_name`], ignoring case and hyphens (so
/// `kaby-lake` names the Kaby Lake too).
impl FromStr for CpuModel {
    type Err = UnknownCpu;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let name = s.to_ascii_lowercase().replace('-', "");
        CpuModel::ALL
            .into_iter()
            .find(|model| model.short_name() == name)
            .ok_or_else(|| UnknownCpu(s.to_string()))
    }
}

impl CpuModel {
    /// All three modelled CPUs, in the order of Table 3.
    pub const ALL: [CpuModel; 3] = [
        CpuModel::HaswellI7_4790,
        CpuModel::SkylakeI5_6500,
        CpuModel::KabyLakeI7_8550U,
    ];

    /// The short microarchitecture name (`haswell`, `skylake`, `kabylake`):
    /// the token used by the `cqd` wire protocol and by query-store
    /// namespace strings.
    pub fn short_name(self) -> &'static str {
        match self {
            CpuModel::HaswellI7_4790 => "haswell",
            CpuModel::SkylakeI5_6500 => "skylake",
            CpuModel::KabyLakeI7_8550U => "kabylake",
        }
    }

    /// The full specification (geometries of Table 3, policies of Table 4).
    pub fn spec(self) -> CpuSpec {
        const LINE: u64 = 64;
        match self {
            CpuModel::HaswellI7_4790 => CpuSpec {
                name: "i7-4790 (Haswell)",
                supports_cat: false,
                levels: vec![
                    LevelSpec {
                        level: LevelId::L1,
                        geometry: CacheGeometry::new(8, 64, 1, LINE),
                        policy: LevelPolicy::Fixed(PolicyKind::Plru),
                        inclusive: false,
                    },
                    LevelSpec {
                        level: LevelId::L2,
                        geometry: CacheGeometry::new(8, 512, 1, LINE),
                        policy: LevelPolicy::Fixed(PolicyKind::Plru),
                        inclusive: false,
                    },
                    LevelSpec {
                        level: LevelId::L3,
                        geometry: CacheGeometry::new(16, 2048, 4, LINE),
                        policy: LevelPolicy::Adaptive {
                            roles: haswell_like_roles(2048, 4),
                        },
                        inclusive: true,
                    },
                ],
            },
            CpuModel::SkylakeI5_6500 => CpuSpec {
                name: "i5-6500 (Skylake)",
                supports_cat: true,
                levels: vec![
                    LevelSpec {
                        level: LevelId::L1,
                        geometry: CacheGeometry::new(8, 64, 1, LINE),
                        policy: LevelPolicy::Fixed(PolicyKind::Plru),
                        inclusive: false,
                    },
                    LevelSpec {
                        level: LevelId::L2,
                        geometry: CacheGeometry::new(4, 1024, 1, LINE),
                        policy: LevelPolicy::Fixed(PolicyKind::New1),
                        inclusive: false,
                    },
                    LevelSpec {
                        level: LevelId::L3,
                        geometry: CacheGeometry::new(12, 1024, 8, LINE),
                        policy: LevelPolicy::Adaptive {
                            roles: skylake_like_roles(1024, 8),
                        },
                        inclusive: true,
                    },
                ],
            },
            CpuModel::KabyLakeI7_8550U => CpuSpec {
                name: "i7-8550U (Kaby Lake)",
                supports_cat: true,
                levels: vec![
                    LevelSpec {
                        level: LevelId::L1,
                        geometry: CacheGeometry::new(8, 64, 1, LINE),
                        policy: LevelPolicy::Fixed(PolicyKind::Plru),
                        inclusive: false,
                    },
                    LevelSpec {
                        level: LevelId::L2,
                        geometry: CacheGeometry::new(4, 1024, 1, LINE),
                        policy: LevelPolicy::Fixed(PolicyKind::New1),
                        inclusive: false,
                    },
                    LevelSpec {
                        level: LevelId::L3,
                        geometry: CacheGeometry::new(16, 1024, 8, LINE),
                        policy: LevelPolicy::Adaptive {
                            roles: skylake_like_roles(1024, 8),
                        },
                        inclusive: true,
                    },
                ],
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometries_match_table_3() {
        let hw = CpuModel::HaswellI7_4790.spec();
        assert_eq!(hw.level(LevelId::L1).unwrap().geometry.associativity, 8);
        assert_eq!(hw.level(LevelId::L2).unwrap().geometry.sets_per_slice, 512);
        assert_eq!(hw.level(LevelId::L3).unwrap().geometry.slices, 4);
        assert_eq!(hw.level(LevelId::L3).unwrap().geometry.associativity, 16);

        let sky = CpuModel::SkylakeI5_6500.spec();
        assert_eq!(sky.level(LevelId::L2).unwrap().geometry.associativity, 4);
        assert_eq!(sky.level(LevelId::L3).unwrap().geometry.associativity, 12);
        assert_eq!(sky.level(LevelId::L3).unwrap().geometry.slices, 8);

        let kbl = CpuModel::KabyLakeI7_8550U.spec();
        assert_eq!(kbl.level(LevelId::L3).unwrap().geometry.associativity, 16);
        assert_eq!(
            kbl.level(LevelId::L2).unwrap().geometry.sets_per_slice,
            1024
        );
    }

    #[test]
    fn policies_match_table_4() {
        for model in CpuModel::ALL {
            let spec = model.spec();
            assert_eq!(
                spec.level(LevelId::L1).unwrap().policy,
                LevelPolicy::Fixed(PolicyKind::Plru)
            );
        }
        assert_eq!(
            CpuModel::HaswellI7_4790
                .spec()
                .level(LevelId::L2)
                .unwrap()
                .policy,
            LevelPolicy::Fixed(PolicyKind::Plru)
        );
        assert_eq!(
            CpuModel::SkylakeI5_6500
                .spec()
                .level(LevelId::L2)
                .unwrap()
                .policy,
            LevelPolicy::Fixed(PolicyKind::New1)
        );
        assert_eq!(
            CpuModel::KabyLakeI7_8550U
                .spec()
                .level(LevelId::L2)
                .unwrap()
                .policy,
            LevelPolicy::Fixed(PolicyKind::New1)
        );
    }

    #[test]
    fn every_model_parses_back_from_its_short_name() {
        for model in CpuModel::ALL {
            assert_eq!(model.short_name().parse(), Ok(model));
            assert_eq!(model.short_name().to_ascii_uppercase().parse(), Ok(model));
        }
        assert_eq!("Kaby-Lake".parse(), Ok(CpuModel::KabyLakeI7_8550U));
        assert_eq!(
            "bogus".parse::<CpuModel>(),
            Err(UnknownCpu("bogus".to_string()))
        );
    }

    #[test]
    fn only_haswell_lacks_cat() {
        assert!(!CpuModel::HaswellI7_4790.spec().supports_cat);
        assert!(CpuModel::SkylakeI5_6500.spec().supports_cat);
        assert!(CpuModel::KabyLakeI7_8550U.spec().supports_cat);
    }

    #[test]
    fn l3_caches_are_inclusive_and_adaptive() {
        for model in CpuModel::ALL {
            let spec = model.spec();
            let l3 = spec.level(LevelId::L3).unwrap();
            assert!(l3.inclusive);
            assert!(matches!(l3.policy, LevelPolicy::Adaptive { .. }));
        }
    }
}
