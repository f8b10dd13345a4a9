//! Construction of policies by name, used by the benchmark harness and the
//! simulated hardware configuration.

use std::fmt;
use std::str::FromStr;

use crate::{Brrip, Plru, PolicyProgram, ProgramPolicy, ReplacementPolicy};

/// Identifier of a concrete replacement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PolicyKind {
    /// First-In First-Out.
    Fifo,
    /// Least Recently Used.
    Lru,
    /// Tree-based Pseudo-LRU.
    Plru,
    /// MRU-bit replacement (bit-PLRU / NRU).
    Mru,
    /// LRU Insertion Policy.
    Lip,
    /// Static RRIP, hit-priority variant.
    SrripHp,
    /// Static RRIP, frequency-priority variant.
    SrripFp,
    /// Bimodal RRIP (probabilistic; follower sets of the simulated LLC).
    Brrip,
    /// Undocumented Skylake / Kaby Lake L2 policy.
    New1,
    /// Undocumented Skylake / Kaby Lake L3 leader-set policy.
    New2,
}

/// Error returned when a policy cannot be constructed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyError {
    /// The associativity is not supported by the policy (e.g. PLRU requires a
    /// power of two).
    UnsupportedAssociativity {
        /// Policy that rejected the associativity.
        kind: PolicyKind,
        /// The offending associativity.
        assoc: usize,
    },
    /// The policy name is unknown (returned by [`PolicyKind::from_str`]).
    UnknownPolicy(String),
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyError::UnsupportedAssociativity { kind, assoc } => {
                write!(f, "{} does not support associativity {assoc}", kind.name())
            }
            PolicyError::UnknownPolicy(name) => write!(f, "unknown policy name '{name}'"),
        }
    }
}

impl std::error::Error for PolicyError {}

impl PolicyKind {
    /// All deterministic policies evaluated in the paper's §6 case study, in
    /// the order of Table 2, followed by the two policies learned from
    /// hardware in §7.
    pub const ALL_DETERMINISTIC: [PolicyKind; 9] = [
        PolicyKind::Fifo,
        PolicyKind::Lru,
        PolicyKind::Plru,
        PolicyKind::Mru,
        PolicyKind::Lip,
        PolicyKind::SrripHp,
        PolicyKind::SrripFp,
        PolicyKind::New1,
        PolicyKind::New2,
    ];

    /// Canonical display name, matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Fifo => "FIFO",
            PolicyKind::Lru => "LRU",
            PolicyKind::Plru => "PLRU",
            PolicyKind::Mru => "MRU",
            PolicyKind::Lip => "LIP",
            PolicyKind::SrripHp => "SRRIP-HP",
            PolicyKind::SrripFp => "SRRIP-FP",
            PolicyKind::Brrip => "BRRIP",
            PolicyKind::New1 => "New1",
            PolicyKind::New2 => "New2",
        }
    }

    /// Whether the policy is a deterministic finite-state machine (BRRIP is
    /// the only exception).
    pub fn is_deterministic(self) -> bool {
        self != PolicyKind::Brrip
    }

    /// Whether `assoc` is a supported associativity for this policy.
    pub fn supports_associativity(self, assoc: usize) -> bool {
        match self {
            PolicyKind::Plru => assoc >= 2 && assoc.is_power_of_two(),
            PolicyKind::Mru => assoc >= 2,
            // Recency ranks `0..assoc` are `u8` ages.
            PolicyKind::Fifo | PolicyKind::Lru | PolicyKind::Lip => (1..=256).contains(&assoc),
            _ => assoc >= 1,
        }
    }

    /// The policy's §5 program, which defines it: promotion, eviction,
    /// insertion and normalization rules over per-line ages.  `None` for
    /// tree-based PLRU (the rule language cannot express its global tree
    /// state, §8.2) and probabilistic BRRIP, and for an associativity the
    /// policy does not support.
    ///
    /// [`PolicyKind::build_reference`] runs the program; [`PolicyKind::build`]
    /// runs its bit-packed twin at up to [`crate::PACKED_MAX_ASSOC`] ways.
    /// The programs of New1 and New2 are the paper's Figure 5, their only
    /// description; `ARCHITECTURE.md` prints both with `Display`.
    pub fn program(self, assoc: usize) -> Option<PolicyProgram> {
        if !self.supports_associativity(assoc) {
            return None;
        }
        Some(match self {
            PolicyKind::Fifo => crate::fifo::program(assoc),
            PolicyKind::Lru => crate::lru::program(assoc),
            PolicyKind::Mru => crate::mru::program(assoc),
            PolicyKind::Lip => crate::lip::program(assoc),
            PolicyKind::SrripHp => crate::srrip::hit_priority(assoc),
            PolicyKind::SrripFp => crate::srrip::frequency_priority(assoc),
            PolicyKind::New1 => crate::new_intel::new1(assoc),
            PolicyKind::New2 => crate::new_intel::new2(assoc),
            PolicyKind::Plru | PolicyKind::Brrip => return None,
        })
    }

    /// Builds a boxed policy instance of this kind.
    ///
    /// Probabilistic policies are seeded with a fixed default seed; use
    /// [`PolicyKind::build_seeded`] to control it.
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError::UnsupportedAssociativity`] if `assoc` is not
    /// supported (see [`PolicyKind::supports_associativity`]).
    pub fn build(self, assoc: usize) -> Result<Box<dyn ReplacementPolicy>, PolicyError> {
        self.build_seeded(assoc, 0)
    }

    /// Builds a boxed policy instance, seeding probabilistic policies with
    /// `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError::UnsupportedAssociativity`] if `assoc` is not
    /// supported.
    pub fn build_seeded(
        self,
        assoc: usize,
        seed: u64,
    ) -> Result<Box<dyn ReplacementPolicy>, PolicyError> {
        if crate::PackedPolicy::supports(self, assoc) {
            let packed = crate::PackedPolicy::new(self, assoc).expect("support was checked above");
            return Ok(Box::new(packed));
        }
        match self {
            PolicyKind::Brrip if self.supports_associativity(assoc) => {
                Ok(Box::new(Brrip::new(assoc, seed)))
            }
            _ => self.build_reference(assoc),
        }
    }

    /// Builds the reference form of this kind, bypassing the packed fast
    /// path: its [`program`](PolicyKind::program) run by a
    /// [`ProgramPolicy`] named [`PolicyKind::name`], or the hand-written
    /// [`Plru`] or [`Brrip`] (seeded with 0).
    ///
    /// The reference is the oracle the packed simulators are differentially
    /// tested against; it also covers associativities beyond
    /// [`crate::PACKED_MAX_ASSOC`].
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError::UnsupportedAssociativity`] if `assoc` is not
    /// supported.
    pub fn build_reference(self, assoc: usize) -> Result<Box<dyn ReplacementPolicy>, PolicyError> {
        if !self.supports_associativity(assoc) {
            return Err(PolicyError::UnsupportedAssociativity { kind: self, assoc });
        }
        Ok(match self {
            PolicyKind::Plru => {
                Box::new(Plru::new(assoc).expect("associativity support was checked above"))
            }
            PolicyKind::Brrip => Box::new(Brrip::new(assoc, 0)),
            _ => Box::new(ProgramPolicy::named(
                self.name(),
                self.program(assoc)
                    .expect("every other kind is defined by a program"),
            )),
        })
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for PolicyKind {
    type Err = PolicyError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let normalized = s.to_ascii_uppercase().replace('_', "-");
        Ok(match normalized.as_str() {
            "FIFO" => PolicyKind::Fifo,
            "LRU" => PolicyKind::Lru,
            "PLRU" => PolicyKind::Plru,
            "MRU" => PolicyKind::Mru,
            "LIP" => PolicyKind::Lip,
            "SRRIP-HP" | "SRRIPHP" => PolicyKind::SrripHp,
            "SRRIP-FP" | "SRRIPFP" => PolicyKind::SrripFp,
            "BRRIP" => PolicyKind::Brrip,
            "NEW1" => PolicyKind::New1,
            "NEW2" => PolicyKind::New2,
            _ => return Err(PolicyError::UnknownPolicy(s.to_string())),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_every_deterministic_policy_at_assoc_4() {
        for kind in PolicyKind::ALL_DETERMINISTIC {
            let p = kind.build(4).unwrap();
            assert_eq!(p.associativity(), 4);
            assert_eq!(p.name(), kind.name());
        }
    }

    #[test]
    fn plru_rejects_non_power_of_two() {
        assert!(matches!(
            PolicyKind::Plru.build(6),
            Err(PolicyError::UnsupportedAssociativity { .. })
        ));
    }

    #[test]
    fn names_round_trip_through_from_str() {
        for kind in PolicyKind::ALL_DETERMINISTIC {
            assert_eq!(kind.name().parse::<PolicyKind>().unwrap(), kind);
        }
        assert_eq!("brrip".parse::<PolicyKind>().unwrap(), PolicyKind::Brrip);
        assert!("clairvoyant".parse::<PolicyKind>().is_err());
    }

    #[test]
    fn build_prefers_the_packed_fast_path() {
        for kind in PolicyKind::ALL_DETERMINISTIC {
            let packed = kind.build(4).unwrap();
            let reference = kind.build_reference(4).unwrap();
            assert!(
                format!("{packed:?}").starts_with("PackedPolicy"),
                "{kind} did not build packed"
            );
            assert!(!format!("{reference:?}").starts_with("PackedPolicy"));
            assert_eq!(packed.state_key(), reference.state_key());
        }
        // Beyond the packed lane budget the reference form is used.
        let wide = PolicyKind::Lru.build(12).unwrap();
        assert!(!format!("{wide:?}").starts_with("PackedPolicy"));
        // BRRIP is probabilistic and never packed.
        let brrip = PolicyKind::Brrip.build(4).unwrap();
        assert!(!format!("{brrip:?}").starts_with("PackedPolicy"));
    }

    #[test]
    fn brrip_is_flagged_nondeterministic() {
        assert!(!PolicyKind::Brrip.is_deterministic());
        assert!(PolicyKind::SrripHp.is_deterministic());
    }
}
