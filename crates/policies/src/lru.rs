//! Least Recently Used replacement.

use crate::{
    AgeExpr, EvictRule, Guard, InsertRule, NormalizeRule, PolicyProgram, PromoteRule, RuleCase,
};

/// Least Recently Used (LRU) replacement.
///
/// Each line's age is its recency rank: `0` is the most recently used line
/// and `assoc − 1` the least recently used one.  A hit or a fill makes the
/// line age 0 and ages every line that was younger by one; the oldest line
/// is the victim.  The ages stay a permutation, so the induced Mealy machine
/// has `assoc!` states (Table 2: 24 at associativity 4, 720 at 6).  The
/// initial ages are those of a set filled in index order: line `assoc − 1`
/// is the most recently used.
pub(crate) fn program(assoc: usize) -> PolicyProgram {
    let oldest =
        u8::try_from(assoc - 1).expect("recency ranks fit a u8 (see supports_associativity)");
    let age_younger_lines = Some(RuleCase::new(Guard::LtTouched, AgeExpr::Inc));
    PolicyProgram {
        max_age: oldest,
        initial_ages: (0..=oldest).rev().collect(),
        promote: PromoteRule {
            self_cases: vec![RuleCase::new(Guard::Always, AgeExpr::Const(0))],
            others: age_younger_lines,
        },
        evict: EvictRule::FirstWithMaxAge,
        insert: InsertRule {
            self_age: 0,
            others: age_younger_lines,
        },
        normalize: NormalizeRule::identity(),
    }
}

#[cfg(test)]
mod tests {
    use crate::PolicyKind;

    #[test]
    fn initial_victim_is_line_zero() {
        // Lines were filled in order 0..n, so line 0 is the least recent.
        assert_eq!(PolicyKind::Lru.build_reference(4).unwrap().on_miss(), 0);
    }

    #[test]
    fn hits_protect_lines() {
        let mut p = PolicyKind::Lru.build_reference(4).unwrap();
        p.on_hit(0);
        p.on_hit(1);
        // Recency order (MRU..LRU) is now 1, 0, 3, 2.
        assert_eq!(p.on_miss(), 2);
        assert_eq!(p.on_miss(), 3);
        assert_eq!(p.on_miss(), 0);
        assert_eq!(p.on_miss(), 1);
    }

    #[test]
    fn ages_remain_a_permutation() {
        let mut p = PolicyKind::Lru.build_reference(5).unwrap();
        for i in [0, 3, 1, 4, 2, 2, 0] {
            p.on_hit(i);
            let mut ages = p.state_key();
            ages.sort_unstable();
            assert_eq!(ages, vec![0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn matches_example_2_2_behaviour() {
        // The 2-way LRU machine of Example 2.2: after touching line 0, an
        // eviction frees line 1, then line 0.
        let mut p = PolicyKind::Lru.build_reference(2).unwrap();
        p.on_hit(0);
        assert_eq!(p.on_miss(), 1);
        assert_eq!(p.on_miss(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_lines() {
        PolicyKind::Lru.build_reference(4).unwrap().on_hit(4);
    }
}
