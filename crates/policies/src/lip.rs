//! LRU Insertion Policy (Qureshi et al., ISCA 2007).

use crate::{AgeExpr, Guard, InsertRule, PolicyProgram, RuleCase};

/// LRU Insertion Policy (LIP): LRU's program with insertion at the *least*
/// recently used position.
///
/// A new block is the next victim unless it is hit while cached, which makes
/// the policy resistant to thrashing workloads.  The filled line takes the
/// maximum age and every line that was older gets one rank younger, closing
/// the gap; on a regular miss the victim already is the oldest line, so
/// nothing else changes.  Like LRU, the induced Mealy machine has `assoc!` states
/// (Table 2).
pub(crate) fn program(assoc: usize) -> PolicyProgram {
    let lru = crate::lru::program(assoc);
    PolicyProgram {
        insert: InsertRule {
            self_age: lru.max_age,
            others: Some(RuleCase::new(Guard::GtTouched, AgeExpr::Dec)),
        },
        ..lru
    }
}

#[cfg(test)]
mod tests {
    use crate::PolicyKind;

    #[test]
    fn new_blocks_stay_at_lru_until_hit() {
        let mut p = PolicyKind::Lip.build_reference(4).unwrap();
        let v1 = p.on_miss();
        // Without a hit, the same line keeps being evicted (thrash
        // resistance for the rest of the working set).
        let v2 = p.on_miss();
        assert_eq!(v1, v2);
    }

    #[test]
    fn hit_promotes_inserted_block() {
        let mut p = PolicyKind::Lip.build_reference(4).unwrap();
        let v1 = p.on_miss();
        p.on_hit(v1);
        let v2 = p.on_miss();
        assert_ne!(v1, v2);
    }

    #[test]
    fn ages_remain_a_permutation() {
        let mut p = PolicyKind::Lip.build_reference(4).unwrap();
        for _ in 0..10 {
            p.on_miss();
            let mut ages = p.state_key();
            ages.sort_unstable();
            assert_eq!(ages, vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn hits_behave_like_lru() {
        let mut p = PolicyKind::Lip.build_reference(3).unwrap();
        p.on_hit(0);
        p.on_hit(2);
        // Recency order: 2, 0, 1 → victim is 1.
        assert_eq!(p.victim(), 1);
    }
}
