//! MRU-bit based replacement (bit-PLRU / NRU), Malamy et al. patent.

use crate::{
    AgeExpr, EvictRule, Guard, InsertRule, NormalizeOp, NormalizeRule, PolicyProgram, PromoteRule,
    RuleCase,
};

/// MRU-bit replacement (also known as bit-PLRU or Not-Recently-Used), after
/// the Malamy et al. patent cited as \[26\] in the paper.
///
/// Each line's age is its *MRU bit*.  Accessing or filling a line sets its
/// bit; when this would make every bit 1, all other bits are cleared (the
/// normalization rule).  The victim is the left-most line whose bit is 0.
/// The reachable control states are all bit vectors except the all-zeros
/// and all-ones vectors, so the induced machine has `2^associativity − 2`
/// states (Table 2: 14 at associativity 4, 62 at 6, 254 at 8, 1022 at 10,
/// 4094 at 12).  The initial state marks only the last line, as in a set
/// just filled in index order.  MRU needs at least 2 lines: with one, the
/// all-ones/all-zeros exclusion leaves no valid state.
pub(crate) fn program(assoc: usize) -> PolicyProgram {
    let mut initial_ages = vec![0; assoc];
    initial_ages[assoc - 1] = 1;
    PolicyProgram {
        max_age: 1,
        initial_ages,
        promote: PromoteRule {
            self_cases: vec![RuleCase::new(Guard::Always, AgeExpr::Const(1))],
            others: None,
        },
        evict: EvictRule::FirstWithAge(0),
        insert: InsertRule {
            self_age: 1,
            others: None,
        },
        normalize: NormalizeRule {
            op: Some(NormalizeOp::ResetOthersWhenAllEqual {
                value: 1,
                reset_to: 0,
            }),
            after_hit: true,
            before_miss: false,
            after_miss: true,
        },
    }
}

#[cfg(test)]
mod tests {
    use crate::PolicyKind;

    #[test]
    fn victim_is_leftmost_clear_bit() {
        let mut p = PolicyKind::Mru.build_reference(4).unwrap();
        p.on_hit(0);
        p.on_hit(2);
        assert_eq!(p.victim(), 1);
    }

    #[test]
    fn saturation_clears_other_bits() {
        let mut p = PolicyKind::Mru.build_reference(3).unwrap();
        // Initial state marks only line 2; hitting line 0 then line 1 would
        // set all bits, so normalization keeps only the last accessed line.
        p.on_hit(0);
        assert_eq!(p.state_key(), vec![1, 0, 1]);
        p.on_hit(1);
        assert_eq!(p.state_key(), vec![0, 1, 0]);
        assert_eq!(p.victim(), 0);
    }

    #[test]
    fn never_reaches_all_zero_or_all_one() {
        let mut p = PolicyKind::Mru.build_reference(4).unwrap();
        for step in 0..64 {
            if step % 3 == 0 {
                p.on_miss();
            } else {
                p.on_hit(step % 4);
            }
            let ones = p.state_key().iter().sum::<u32>();
            assert!(ones > 0 && ones < 4, "invalid state {:?}", p.state_key());
        }
    }

    #[test]
    fn misses_walk_left_to_right() {
        let mut p = PolicyKind::Mru.build_reference(4).unwrap();
        // Initial state: only line 3 marked.
        assert_eq!(p.on_miss(), 0);
        assert_eq!(p.on_miss(), 1);
        assert_eq!(p.on_miss(), 2);
        // All bits would now saturate; line 2 stays marked after clearing.
        assert_eq!(p.on_miss(), 0);
    }
}
