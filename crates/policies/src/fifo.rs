//! First-In First-Out replacement.

use crate::{PolicyProgram, PromoteRule};

/// First-In First-Out (FIFO) replacement: LRU's program without promotion.
///
/// Each line's age is its rank in fill order (`0` = filled last).  Hits do
/// not change the control state, the oldest line is the victim, and the
/// filled line becomes the youngest.  The ages stay a permutation that only
/// rotates on a miss, so the induced Mealy machine has exactly `assoc`
/// states (Table 2).
pub(crate) fn program(assoc: usize) -> PolicyProgram {
    PolicyProgram {
        promote: PromoteRule::default(),
        ..crate::lru::program(assoc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PolicyKind, ProgramPolicy};

    #[test]
    fn evicts_round_robin() {
        let mut p = PolicyKind::Fifo.build_reference(3).unwrap();
        assert_eq!(p.on_miss(), 0);
        assert_eq!(p.on_miss(), 1);
        assert_eq!(p.on_miss(), 2);
        assert_eq!(p.on_miss(), 0);
    }

    #[test]
    fn hits_do_not_change_the_victim() {
        let mut p = PolicyKind::Fifo.build_reference(4).unwrap();
        p.on_hit(3);
        p.on_hit(1);
        assert_eq!(p.on_miss(), 0);
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut p = PolicyKind::Fifo.build_reference(4).unwrap();
        p.on_miss();
        p.on_miss();
        p.reset();
        assert_eq!(
            p.state_key(),
            PolicyKind::Fifo.build_reference(4).unwrap().state_key()
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_lines() {
        PolicyKind::Fifo.build_reference(2).unwrap().on_hit(2);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn rejects_zero_associativity() {
        assert!(PolicyKind::Fifo.build_reference(0).is_err());
        ProgramPolicy::new(PolicyProgram {
            initial_ages: Vec::new(),
            ..program(1)
        });
    }
}
