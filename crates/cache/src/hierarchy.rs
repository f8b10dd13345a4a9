//! An inclusive multi-level cache hierarchy.

use std::fmt;

use crate::address::PhysAddr;
use crate::level::CacheLevel;
use crate::set::HitMiss;

/// Identifier of a cache level within a [`Hierarchy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LevelId {
    /// First-level data cache.
    L1,
    /// Second-level cache.
    L2,
    /// Last-level cache.
    L3,
}

impl LevelId {
    /// All levels, ordered from the core outward.
    pub const ALL: [LevelId; 3] = [LevelId::L1, LevelId::L2, LevelId::L3];

    /// Dense index of the level (L1 = 0).
    pub fn index(self) -> usize {
        match self {
            LevelId::L1 => 0,
            LevelId::L2 => 1,
            LevelId::L3 => 2,
        }
    }

    /// Parses `"L1"`, `"L2"`, `"L3"` (case-insensitive).
    pub fn parse(s: &str) -> Option<LevelId> {
        match s.to_ascii_uppercase().as_str() {
            "L1" => Some(LevelId::L1),
            "L2" => Some(LevelId::L2),
            "L3" | "LLC" => Some(LevelId::L3),
            _ => None,
        }
    }
}

impl fmt::Display for LevelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LevelId::L1 => write!(f, "L1"),
            LevelId::L2 => write!(f, "L2"),
            LevelId::L3 => write!(f, "L3"),
        }
    }
}

/// Result of a hierarchy access: the per-level outcomes for the levels that
/// were consulted, in lookup order (L1 outward).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Outcome per consulted level.
    pub per_level: Vec<(LevelId, HitMiss)>,
}

impl AccessOutcome {
    /// The innermost level that supplied the data, or `None` if the access
    /// went to memory.
    pub fn served_by(&self) -> Option<LevelId> {
        self.per_level
            .iter()
            .find(|(_, o)| *o == HitMiss::Hit)
            .map(|(l, _)| *l)
    }

    /// Outcome at a specific level, if that level was consulted.
    pub fn at(&self, level: LevelId) -> Option<HitMiss> {
        self.per_level
            .iter()
            .find(|(l, _)| *l == level)
            .map(|(_, o)| *o)
    }
}

/// Configuration wrapper for building a [`Hierarchy`].
#[derive(Debug)]
pub struct HierarchyConfig {
    /// Levels ordered from the core outward (L1 first).  One to three levels
    /// are supported.
    pub levels: Vec<CacheLevel>,
}

/// A multi-level cache hierarchy with lookup, fill and back-invalidation.
///
/// Lookups proceed from L1 outward; the first hit stops the walk and the
/// block is filled into every level closer to the core (the common
/// fill-on-miss behaviour).  Evictions from levels marked inclusive
/// back-invalidate all closer levels, which is how the modelled Intel L3
/// behaves and is one of the interference sources CacheQuery must deal with.
///
/// Hierarchies are `Clone` so that a simulated CPU can be duplicated into
/// independent per-worker instances for parallel learning.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    levels: Vec<CacheLevel>,
}

impl Hierarchy {
    /// Creates a hierarchy from levels ordered L1 outward.
    ///
    /// # Panics
    ///
    /// Panics if no level or more than three levels are supplied.
    pub fn new(config: HierarchyConfig) -> Self {
        assert!(
            (1..=3).contains(&config.levels.len()),
            "a hierarchy has between one and three levels"
        );
        Hierarchy {
            levels: config.levels,
        }
    }

    /// Read-only access to a level.
    ///
    /// # Panics
    ///
    /// Panics if the hierarchy does not contain `level`.
    pub fn level(&self, level: LevelId) -> &CacheLevel {
        &self.levels[level.index()]
    }

    /// Mutable access to a level.
    ///
    /// # Panics
    ///
    /// Panics if the hierarchy does not contain `level`.
    pub fn level_mut(&mut self, level: LevelId) -> &mut CacheLevel {
        &mut self.levels[level.index()]
    }

    /// Performs a load of `addr`, updating every consulted level, and returns
    /// the per-level outcomes.
    pub fn access(&mut self, addr: PhysAddr) -> AccessOutcome {
        let mut per_level = Vec::with_capacity(self.levels.len());
        let mut hit_level: Option<usize> = None;

        for (i, level) in self.levels.iter_mut().enumerate() {
            let level_id = LevelId::ALL[i];
            if level.contains(addr) {
                // Record the hit and update that level's replacement state.
                let (result, _) = level.access(addr);
                debug_assert_eq!(result.outcome(), HitMiss::Hit);
                per_level.push((level_id, HitMiss::Hit));
                hit_level = Some(i);
                break;
            } else {
                per_level.push((level_id, HitMiss::Miss));
            }
        }

        // Fill the block into every level closer to the core than the one
        // that served it (or into all levels on a full miss), collecting
        // evictions from inclusive levels for back-invalidation.
        let fill_upto = hit_level.unwrap_or(self.levels.len());
        let mut back_invalidate: Vec<PhysAddr> = Vec::new();
        for i in (0..fill_upto).rev() {
            let (result, evicted) = self.levels[i].access(addr);
            debug_assert_eq!(result.outcome(), HitMiss::Miss);
            if let Some(victim) = evicted {
                if self.levels[i].config().inclusive {
                    back_invalidate.push(victim);
                }
            }
        }
        for victim in back_invalidate {
            self.back_invalidate(victim);
        }

        AccessOutcome { per_level }
    }

    /// Invalidates `victim` from every level closer to the core than the
    /// inclusive level it was evicted from.
    fn back_invalidate(&mut self, victim: PhysAddr) {
        for level in &mut self.levels {
            if !level.config().inclusive {
                level.invalidate(victim);
            }
        }
    }

    /// Flushes `addr` from the entire hierarchy (models `clflush`).
    pub fn flush(&mut self, addr: PhysAddr) {
        for level in &mut self.levels {
            level.invalidate(addr);
        }
    }

    /// Invalidates every line of every level (models `wbinvd`).
    pub fn flush_all(&mut self) {
        for level in &mut self.levels {
            level.invalidate_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::CacheGeometry;
    use crate::level::LevelConfig;
    use policies::PolicyKind;

    /// A miniature three-level hierarchy: 2-way 4-set L1, 4-way 8-set L2,
    /// 8-way 16-set inclusive L3.
    fn small_hierarchy() -> Hierarchy {
        let mk = |name: &str, assoc: usize, sets: usize, inclusive: bool| {
            CacheLevel::new(
                LevelConfig {
                    name: name.to_string(),
                    geometry: CacheGeometry::new(assoc, sets, 1, 64),
                    inclusive,
                },
                move |_| PolicyKind::Lru.build(assoc).unwrap(),
            )
        };
        Hierarchy::new(HierarchyConfig {
            levels: vec![
                mk("L1", 2, 4, false),
                mk("L2", 4, 8, false),
                mk("L3", 8, 16, true),
            ],
        })
    }

    #[test]
    fn first_access_misses_everywhere_then_hits_l1() {
        let mut h = small_hierarchy();
        let outcome = h.access(PhysAddr(0x1000));
        assert_eq!(outcome.served_by(), None);
        assert_eq!(outcome.per_level.len(), 3);
        let outcome = h.access(PhysAddr(0x1000));
        assert_eq!(outcome.served_by(), Some(LevelId::L1));
        assert_eq!(outcome.per_level.len(), 1);
    }

    #[test]
    fn l1_eviction_leaves_the_block_in_l2() {
        let mut h = small_hierarchy();
        let target = PhysAddr(0x0);
        h.access(target);
        // Evict the target from L1 by loading two more lines congruent in L1
        // (L1 set stride = 4 sets * 64 B = 256 B) but not congruent in L2
        // (stride 512 B).
        h.access(PhysAddr(256));
        h.access(PhysAddr(256 * 3));
        assert!(!h.level(LevelId::L1).contains(target));
        let outcome = h.access(target);
        assert_eq!(outcome.served_by(), Some(LevelId::L2));
    }

    #[test]
    fn inclusive_l3_eviction_back_invalidates_l1() {
        let mut h = small_hierarchy();
        let target = PhysAddr(0);
        h.access(target);
        // Fill the L3 set of `target` with 8 more congruent lines
        // (L3 set stride = 16 * 64 = 1024 B) so that `target` is evicted from
        // the inclusive L3.
        for i in 1..=8u64 {
            h.access(PhysAddr(i * 1024));
        }
        assert!(!h.level(LevelId::L3).contains(target));
        // Inclusivity: it must have disappeared from L1/L2 as well.
        assert!(!h.level(LevelId::L1).contains(target));
        assert!(!h.level(LevelId::L2).contains(target));
    }

    #[test]
    fn flush_removes_the_block_from_all_levels() {
        let mut h = small_hierarchy();
        let target = PhysAddr(0x2000);
        h.access(target);
        h.flush(target);
        for level in LevelId::ALL {
            assert!(!h.level(level).contains(target));
        }
        let outcome = h.access(target);
        assert_eq!(outcome.served_by(), None);
    }

    #[test]
    fn flush_all_empties_everything() {
        let mut h = small_hierarchy();
        for i in 0..32u64 {
            h.access(PhysAddr(i * 64));
        }
        h.flush_all();
        let outcome = h.access(PhysAddr(0));
        assert_eq!(outcome.served_by(), None);
    }

    #[test]
    fn level_id_parsing() {
        assert_eq!(LevelId::parse("l2"), Some(LevelId::L2));
        assert_eq!(LevelId::parse("LLC"), Some(LevelId::L3));
        assert_eq!(LevelId::parse("L4"), None);
    }
}
