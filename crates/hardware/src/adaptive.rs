//! The adaptive (set-dueling) replacement policy of the simulated last-level
//! caches.

use cache::{DuelingRole, SetDueling};
use policies::ReplacementPolicy;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const MAX_AGE: u8 = 3;

/// An RRIP-style aged policy whose insertion behaviour depends on its role in
/// the set-dueling scheme (Appendix B of the paper):
///
/// * **primary leader** sets behave exactly like the deterministic New2
///   policy (its program is [`PolicyKind::program`](policies::PolicyKind::program);
///   thrash-vulnerable — a scanning workload evicts everything), and report
///   their misses to the shared PSEL counter;
/// * **alternate leader** sets insert with a *distant* prediction most of the
///   time (BRRIP-like, thrash-resistant) and also report their misses;
/// * **follower** sets pick the insertion behaviour of whichever leader group
///   currently wins the duel.
///
/// Only the primary leaders are deterministic, which is precisely why the
/// paper learns the L3 policy from leader sets only; follower and alternate
/// sets make the learning pipeline observe non-determinism, and the
/// reproduction preserves that property.
#[derive(Debug, Clone)]
pub struct AdaptiveRrip {
    ages: Vec<u8>,
    role: DuelingRole,
    dueling: SetDueling,
    rng: StdRng,
    seed: u64,
}

impl AdaptiveRrip {
    /// Probability that a thrash-resistant insertion still uses the "long"
    /// prediction (as in BRRIP's 1/32 bimodal throttle).
    const BIMODAL_LONG_PROBABILITY: f64 = 1.0 / 32.0;

    /// Creates the policy for one set.
    ///
    /// # Panics
    ///
    /// Panics if `assoc == 0`.
    pub fn new(assoc: usize, role: DuelingRole, dueling: SetDueling, seed: u64) -> Self {
        assert!(assoc >= 1, "associativity must be at least 1");
        AdaptiveRrip {
            ages: vec![MAX_AGE; assoc],
            role,
            dueling,
            rng: StdRng::seed_from_u64(seed),
            seed,
        }
    }

    /// The set-dueling role of this set.
    pub fn role(&self) -> DuelingRole {
        self.role
    }

    fn thrash_resistant_insertion(&mut self) -> bool {
        match self.role {
            DuelingRole::LeaderPrimary => false,
            DuelingRole::LeaderAlternate => true,
            DuelingRole::Follower => self.dueling.followers_use_alternate(),
        }
    }

    fn normalize(&mut self) {
        while !self.ages.contains(&MAX_AGE) {
            self.ages.iter_mut().for_each(|a| *a += 1);
        }
    }
}

impl ReplacementPolicy for AdaptiveRrip {
    fn associativity(&self) -> usize {
        self.ages.len()
    }

    fn on_hit(&mut self, line: usize) {
        assert!(line < self.ages.len(), "line index out of range");
        // New2 promotion: age 1 → 0, ages ≥ 2 → 1, age 0 stays.
        let age = self.ages[line];
        if age == 1 {
            self.ages[line] = 0;
        } else if age > 1 {
            self.ages[line] = 1;
        }
        self.normalize();
    }

    fn victim(&mut self) -> usize {
        self.ages
            .iter()
            .position(|&a| a == MAX_AGE)
            .expect("normalization keeps an age-3 line")
    }

    fn on_insert(&mut self, line: usize) {
        assert!(line < self.ages.len(), "line index out of range");
        self.dueling.record_miss(self.role);
        let resistant = self.thrash_resistant_insertion();
        let age = if resistant {
            if self.rng.gen::<f64>() < Self::BIMODAL_LONG_PROBABILITY {
                1
            } else {
                MAX_AGE
            }
        } else {
            1
        };
        self.ages[line] = age;
        self.normalize();
    }

    fn reset(&mut self) {
        self.ages.iter_mut().for_each(|a| *a = MAX_AGE);
        self.rng = StdRng::seed_from_u64(self.seed);
    }

    fn on_invalidate(&mut self, line: usize) {
        // The modelled last-level cache clears the line's re-reference
        // prediction when the line is invalidated; this is what makes
        // Flush+Refill a valid reset sequence for the L3 leader sets
        // (Table 4) even though it is not one for the L2.
        self.ages[line] = MAX_AGE;
    }

    fn state_key(&self) -> Vec<u32> {
        self.ages.iter().map(|&a| a as u32).collect()
    }

    fn name(&self) -> &'static str {
        match self.role {
            DuelingRole::LeaderPrimary => "Adaptive(New2-leader)",
            DuelingRole::LeaderAlternate => "Adaptive(BRRIP-leader)",
            DuelingRole::Follower => "Adaptive(follower)",
        }
    }

    fn clone_box(&self) -> Box<dyn ReplacementPolicy> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use automata::check_equivalence;
    use cache::SetDueling;
    use policies::{policy_to_mealy, PolicyKind};

    fn dueling() -> SetDueling {
        SetDueling::all_followers(4)
    }

    #[test]
    fn primary_leader_is_trace_equivalent_to_new2() {
        let leader = AdaptiveRrip::new(4, DuelingRole::LeaderPrimary, dueling(), 0);
        let learned = policy_to_mealy(&leader, 1 << 16);
        let new2 = PolicyKind::New2.build_reference(4).unwrap();
        let reference = policy_to_mealy(new2.as_ref(), 1 << 16);
        assert!(check_equivalence(&learned, &reference).is_none());
    }

    #[test]
    fn alternate_leader_resists_thrashing() {
        // Under a thrashing access pattern (insert, never hit), the alternate
        // leader mostly predicts "distant" so a re-accessed block stays longer.
        let mut p = AdaptiveRrip::new(4, DuelingRole::LeaderAlternate, dueling(), 1);
        let mut distant = 0;
        for _ in 0..200 {
            let v = p.on_miss();
            if p.state_key()[v] == MAX_AGE as u32 {
                distant += 1;
            }
        }
        assert!(distant > 150, "only {distant}/200 distant insertions");
    }

    #[test]
    fn followers_switch_with_the_duel() {
        let shared = SetDueling::all_followers(4);
        let mut follower = AdaptiveRrip::new(4, DuelingRole::Follower, shared.clone(), 2);
        // PSEL at zero: follower behaves like the primary policy
        // (deterministic insertion age 1).
        let v = follower.on_miss();
        assert_eq!(follower.state_key()[v], 1);
        // Push the duel towards the alternate policy and observe distant
        // insertions.
        for _ in 0..16 {
            shared.record_miss(DuelingRole::LeaderPrimary);
        }
        let mut distant = 0;
        for _ in 0..100 {
            let v = follower.on_miss();
            if follower.state_key()[v] == MAX_AGE as u32 {
                distant += 1;
            }
        }
        assert!(distant > 60, "follower did not adopt the alternate policy");
    }

    #[test]
    fn leader_misses_update_psel() {
        let shared = SetDueling::all_followers(4);
        let mut leader = AdaptiveRrip::new(4, DuelingRole::LeaderPrimary, shared.clone(), 3);
        for _ in 0..8 {
            leader.on_miss();
        }
        assert!(shared.psel() > 0);
    }
}
