//! Static and Bimodal Re-Reference Interval Prediction (Jaleel et al., ISCA
//! 2010): the two SRRIP programs, and the hand-written probabilistic BRRIP.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{
    assert_line_in_range, assert_valid_associativity, AgeExpr, EvictRule, Guard, InsertRule,
    NormalizeOp, NormalizeRule, PolicyProgram, PromoteRule, ReplacementPolicy, RuleCase,
};

/// Maximum re-reference prediction value for the 2-bit (4 ages) configuration
/// the paper evaluates.
pub(crate) const MAX_RRPV: u8 = 3;
/// RRPV assigned to newly inserted blocks ("long re-reference interval").
pub(crate) const INSERT_RRPV: u8 = 2;

/// Static Re-Reference Interval Prediction (SRRIP) with 2-bit RRPVs,
/// hit-priority variant (SRRIP-HP, §6 of the paper, "4 ages").
///
/// Each line's age is its re-reference prediction value (RRPV) in `0..=3`.
/// Insertion predicts a *long* re-reference interval (RRPV 2); a victim is
/// the left-most line with RRPV 3, ageing every line until one exists.  A
/// hit predicts a near re-reference: the line's RRPV becomes 0.  The initial
/// state is all lines at the maximum RRPV, i.e. every line predicts a
/// distant re-reference, as after an invalidation; it is the initial state
/// that reproduces the learned state counts of Table 2 (12/178 states at
/// associativity 2/4).
pub(crate) fn hit_priority(assoc: usize) -> PolicyProgram {
    PolicyProgram {
        max_age: MAX_RRPV,
        initial_ages: vec![MAX_RRPV; assoc],
        promote: PromoteRule {
            self_cases: vec![RuleCase::new(Guard::Always, AgeExpr::Const(0))],
            others: None,
        },
        evict: EvictRule::FirstWithAge(MAX_RRPV),
        insert: InsertRule {
            self_age: INSERT_RRPV,
            others: None,
        },
        normalize: NormalizeRule {
            op: Some(NormalizeOp::AgeUpWhileNoMax {
                except_touched: false,
            }),
            after_hit: false,
            before_miss: true,
            after_miss: false,
        },
    }
}

/// SRRIP's frequency-priority variant (SRRIP-FP): [`hit_priority`] except
/// that a hit only decrements the line's RRPV, saturating at 0 (Table 2: 16
/// states at associativity 2, 256 at 4).
pub(crate) fn frequency_priority(assoc: usize) -> PolicyProgram {
    PolicyProgram {
        promote: PromoteRule {
            self_cases: vec![RuleCase::new(Guard::Always, AgeExpr::Dec)],
            others: None,
        },
        ..hit_priority(assoc)
    }
}

/// Ages all lines until at least one has the maximum RRPV, then returns the
/// index of the left-most such line.
pub(crate) fn srrip_select_victim(rrpv: &mut [u8]) -> usize {
    loop {
        if let Some(i) = rrpv.iter().position(|&r| r == MAX_RRPV) {
            return i;
        }
        for r in rrpv.iter_mut() {
            *r += 1;
        }
    }
}

/// Bimodal RRIP (BRRIP): like SRRIP, but most insertions predict a *distant*
/// re-reference interval (RRPV 3) and only a small fraction (1/32, as in the
/// original proposal) predict a long one (RRPV 2).
///
/// BRRIP is *probabilistic* and therefore not learnable by the pipeline; it
/// exists to emulate the thrash-resistant half of the set-dueling adaptive
/// policy that the simulated last-level caches implement in their follower
/// sets (Appendix B observes this adaptivity on Skylake and Kaby Lake, and a
/// non-deterministic leader group on Haswell).
#[derive(Debug, Clone)]
pub struct Brrip {
    rrpv: Vec<u8>,
    rng: StdRng,
    seed: u64,
    /// Probability (out of `u32::MAX`) of inserting with a long interval.
    long_insert_threshold: u32,
}

impl Brrip {
    /// Probability of a "long" insertion, as in the original BRRIP proposal.
    pub const LONG_INSERT_PROBABILITY: f64 = 1.0 / 32.0;

    /// Creates a BRRIP policy with the given RNG seed.
    ///
    /// # Panics
    ///
    /// Panics if `assoc == 0`.
    pub fn new(assoc: usize, seed: u64) -> Self {
        assert_valid_associativity(assoc);
        Brrip {
            rrpv: vec![MAX_RRPV; assoc],
            rng: StdRng::seed_from_u64(seed),
            seed,
            long_insert_threshold: (Self::LONG_INSERT_PROBABILITY * u32::MAX as f64) as u32,
        }
    }
}

impl ReplacementPolicy for Brrip {
    fn associativity(&self) -> usize {
        self.rrpv.len()
    }

    fn on_hit(&mut self, line: usize) {
        assert_line_in_range(line, self.rrpv.len());
        self.rrpv[line] = 0;
    }

    fn victim(&mut self) -> usize {
        srrip_select_victim(&mut self.rrpv)
    }

    fn on_insert(&mut self, line: usize) {
        assert_line_in_range(line, self.rrpv.len());
        let long = self.rng.gen::<u32>() < self.long_insert_threshold;
        self.rrpv[line] = if long { INSERT_RRPV } else { MAX_RRPV };
    }

    fn reset(&mut self) {
        self.rrpv.iter_mut().for_each(|r| *r = MAX_RRPV);
        self.rng = StdRng::seed_from_u64(self.seed);
    }

    fn state_key(&self) -> Vec<u32> {
        // The RNG state is deliberately excluded: BRRIP is documented as
        // non-deterministic and must not be fed to `policy_to_mealy`.
        self.rrpv.iter().map(|&r| r as u32).collect()
    }

    fn name(&self) -> &'static str {
        "BRRIP"
    }

    fn clone_box(&self) -> Box<dyn ReplacementPolicy> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PolicyKind;

    #[test]
    fn victim_selection_ages_until_max() {
        let mut rrpv = vec![0, 1, 2, 1];
        let v = srrip_select_victim(&mut rrpv);
        assert_eq!(v, 2);
        assert_eq!(rrpv, vec![1, 2, 3, 2]);
    }

    #[test]
    fn hp_hit_resets_to_zero() {
        let mut p = PolicyKind::SrripHp.build_reference(4).unwrap();
        p.on_hit(1);
        assert_eq!(p.state_key()[1], 0);
    }

    #[test]
    fn fp_hit_decrements() {
        let mut p = PolicyKind::SrripFp.build_reference(4).unwrap();
        // Initial RRPV is 3; each hit lowers it by one, saturating at 0.
        p.on_hit(1);
        assert_eq!(p.state_key()[1], 2);
        p.on_hit(1);
        assert_eq!(p.state_key()[1], 1);
        p.on_hit(1);
        assert_eq!(p.state_key()[1], 0);
        p.on_hit(1);
        assert_eq!(p.state_key()[1], 0);
    }

    #[test]
    fn miss_inserts_with_long_interval() {
        let mut p = PolicyKind::SrripHp.build_reference(2).unwrap();
        let v = p.on_miss();
        assert_eq!(p.state_key()[v] as u8, INSERT_RRPV);
    }

    #[test]
    fn scanning_workload_does_not_evict_hot_line() {
        // A line that is re-referenced keeps winning against a scan: this is
        // the motivating property of RRIP.
        let mut p = PolicyKind::SrripHp.build_reference(4).unwrap();
        p.on_hit(0);
        for _ in 0..8 {
            let v = p.on_miss();
            assert_ne!(v, 0, "the recently re-referenced line was evicted");
            p.on_hit(0);
        }
    }

    #[test]
    fn brrip_is_reproducible_for_a_fixed_seed() {
        let mut a = Brrip::new(4, 42);
        let mut b = Brrip::new(4, 42);
        for _ in 0..100 {
            assert_eq!(a.on_miss(), b.on_miss());
        }
    }

    #[test]
    fn brrip_mostly_inserts_distant() {
        let mut p = Brrip::new(4, 7);
        let mut distant = 0;
        for _ in 0..1000 {
            let v = p.on_miss();
            if p.state_key()[v] as u8 == MAX_RRPV {
                distant += 1;
            }
        }
        assert!(distant > 900, "only {distant}/1000 distant insertions");
    }
}
