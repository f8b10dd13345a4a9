//! Bit-packed policy simulators: every deterministic policy's control state
//! in a single `u64`.
//!
//! At associativity ≤ 8 every control state this crate models fits in one
//! machine word of 4-bit lanes (lane `i` = bits `4i..4i+4`):
//!
//! * FIFO / LRU / LIP — one rank (`0..assoc`) per lane: fill order for FIFO,
//!   recency for LRU and LIP;
//! * SRRIP-HP / SRRIP-FP — one 2-bit RRPV per lane;
//! * New1 / New2 — one age in `0..=3` per lane;
//! * MRU — one MRU bit per line (plain bit `i`);
//! * PLRU — `assoc − 1` heap-ordered tree bits (plain bit `i` = node `i`).
//!
//! `step` then becomes shift/mask/compare lane arithmetic instead of
//! `Vec<u8>` loops: "increment every age below the promoted one" is a
//! carry-less SWAR add over a comparison mask, "left-most line with the
//! maximum age" is an XOR, a zero-lane detect, and a `trailing_zeros`.
//! Because lane values never exceed 7 at associativity ≤ 8, bit 3 of each
//! lane is free to serve as the borrow guard for the comparison masks.
//!
//! Each lane layout is a fast path of the policy's §5 program
//! ([`PolicyKind::program`](crate::PolicyKind::program)), and of the
//! hand-written [`Plru`](crate::Plru) for PLRU: [`PackedPolicy`] renders
//! byte-for-byte identical [`state_key`](ReplacementPolicy::state_key)
//! vectors, victims, and names as
//! [`PolicyKind::build_reference`](crate::PolicyKind::build_reference)
//! (see `tests/proptest_packed.rs` for the differential suite).
//! [`PolicyKind::build`](crate::PolicyKind::build) returns the packed form
//! transparently whenever [`PackedPolicy::supports`] holds.

use crate::registry::{PolicyError, PolicyKind};
use crate::{assert_line_in_range, ReplacementPolicy};

/// Largest associativity whose control states fit the packed layout.
///
/// Ages and recency ranks reach `assoc − 1`, so 8 ways keep every lane value
/// in `0..=7` and leave bit 3 of each 4-bit lane free as the SWAR guard bit.
pub const PACKED_MAX_ASSOC: usize = 8;

/// Bit 0 of each 4-bit lane.
const LANE_LSB: u64 = 0x1111_1111_1111_1111;
/// Number of state bits per lane.
const LANE_BITS: u32 = 4;
/// Value mask of a single lane.
const LANE_MASK: u64 = 0xF;
/// Maximum RRPV / age for the SRRIP and New* families (2-bit, "4 ages").
const MAX_AGE: u64 = 3;
/// RRPV / age assigned to freshly inserted blocks.
const INSERT_AGE: u64 = 1;
/// RRPV assigned by SRRIP insertion ("long re-reference interval").
const SRRIP_INSERT_RRPV: u64 = 2;

/// A deterministic replacement policy whose whole control state lives in one
/// `u64` of 4-bit lanes (or plain bits, for the bit-vector policies).
///
/// Behaviourally identical to the policy's reference form — same victims,
/// same hit updates, same [`state_key`](ReplacementPolicy::state_key)
/// renderings — just faster to step, clone, and compare.
///
/// # Example
///
/// ```
/// use policies::{PackedPolicy, PolicyKind, ReplacementPolicy};
///
/// let mut packed = PackedPolicy::new(PolicyKind::Lru, 4).unwrap();
/// let mut reference = PolicyKind::Lru.build_reference(4).unwrap();
/// packed.on_hit(0);
/// reference.on_hit(0);
/// assert_eq!(packed.on_miss(), reference.on_miss());
/// assert_eq!(packed.state_key(), reference.state_key());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PackedPolicy {
    kind: PolicyKind,
    assoc: u32,
    /// Bit 0 of each used lane; doubles as the "+1 to every lane" addend.
    lanes_lsb: u64,
    state: u64,
    /// The state `reset` restores.
    initial: u64,
}

impl PackedPolicy {
    /// Whether `kind` at `assoc` has a packed representation: deterministic,
    /// an associativity the policy itself supports, and at most
    /// [`PACKED_MAX_ASSOC`] ways.
    pub fn supports(kind: PolicyKind, assoc: usize) -> bool {
        kind.is_deterministic() && kind.supports_associativity(assoc) && assoc <= PACKED_MAX_ASSOC
    }

    /// Creates a packed policy in its canonical initial state.
    ///
    /// # Errors
    ///
    /// Returns [`PolicyError::UnsupportedAssociativity`] if
    /// [`PackedPolicy::supports`] does not hold (probabilistic BRRIP has no
    /// packed form; it is rejected the same way).
    pub fn new(kind: PolicyKind, assoc: usize) -> Result<Self, PolicyError> {
        if !Self::supports(kind, assoc) {
            return Err(PolicyError::UnsupportedAssociativity { kind, assoc });
        }
        // The program's initial ages, one lane (MRU: one bit) per line; the
        // PLRU tree starts all zero.
        let ages = kind
            .program(assoc)
            .map_or_else(Vec::new, |p| p.initial_ages);
        let width = if kind == PolicyKind::Mru {
            1
        } else {
            LANE_BITS
        };
        let initial = (0..)
            .zip(ages)
            .fold(0, |state, (i, age)| state | u64::from(age) << (width * i));
        Ok(PackedPolicy {
            kind,
            assoc: assoc as u32,
            lanes_lsb: LANE_LSB & ((1u64 << (LANE_BITS * assoc as u32)) - 1),
            state: initial,
            initial,
        })
    }

    #[inline]
    fn lane(&self, i: usize) -> u64 {
        (self.state >> (LANE_BITS * i as u32)) & LANE_MASK
    }

    #[inline]
    fn set_lane(&mut self, i: usize, v: u64) {
        let shift = LANE_BITS * i as u32;
        self.state = (self.state & !(LANE_MASK << shift)) | (v << shift);
    }

    /// Guard-bit positions (bit 3) of every used lane.
    #[inline]
    fn guards(&self) -> u64 {
        self.lanes_lsb << 3
    }

    /// Guard-bit mask of used lanes whose value is strictly below `v`.
    ///
    /// Setting the guard bit makes every minuend lane ≥ 8 > `v`, so the
    /// subtraction never borrows across a lane boundary; a cleared guard bit
    /// in the difference therefore means exactly "this lane < v".
    #[inline]
    fn lanes_below(&self, v: u64) -> u64 {
        let diff = (self.state | self.guards()) - v * self.lanes_lsb;
        !diff & self.guards()
    }

    /// Guard-bit mask of used lanes whose value is strictly above `v`.
    #[inline]
    fn lanes_above(&self, v: u64) -> u64 {
        let diff = ((v * self.lanes_lsb) | self.guards()) - self.state;
        !diff & self.guards()
    }

    /// Index of the left-most used lane equal to `v`, if any.
    ///
    /// XOR makes matching lanes zero; the classic zero-lane detect
    /// `(x − 1̄) & !x & guards` then flags the least significant zero lane
    /// exactly (borrows only corrupt lanes *above* the first match, and a
    /// word with no zero lane produces no borrows and no false flags).
    #[inline]
    fn leftmost_eq(&self, v: u64) -> Option<usize> {
        let x = self.state ^ (v * self.lanes_lsb);
        let flagged = x.wrapping_sub(self.lanes_lsb) & !x & self.guards();
        if flagged == 0 {
            None
        } else {
            Some((flagged.trailing_zeros() / LANE_BITS) as usize)
        }
    }

    /// LRU promotion (and FIFO and LRU insertion): age every line younger
    /// than `line`, make `line` the youngest.
    #[inline]
    fn lru_promote(&mut self, line: usize) {
        let old = self.lane(line);
        let below = self.lanes_below(old);
        self.state += below >> 3;
        self.set_lane(line, 0);
    }

    /// Left-most lane holding the maximum rank (the LRU line, the FIFO
    /// line filled first).
    #[inline]
    fn lru_victim(&self) -> usize {
        self.leftmost_eq(u64::from(self.assoc) - 1)
            .expect("ages form a permutation, so the maximum age is present")
    }

    /// MRU-bit touch with saturation normalization.
    #[inline]
    fn mru_touch(&mut self, line: usize) {
        self.state |= 1 << line;
        let full = (1u64 << self.assoc) - 1;
        if self.state == full {
            self.state = 1 << line;
        }
    }

    /// PLRU path update: flip the root-to-leaf bits away from `line`.
    #[inline]
    fn plru_touch(&mut self, line: usize) {
        let mut node = 0u32;
        let mut lo = 0usize;
        let mut hi = self.assoc as usize;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if line < mid {
                self.state |= 1 << node;
                node = 2 * node + 1;
                hi = mid;
            } else {
                self.state &= !(1 << node);
                node = 2 * node + 2;
                lo = mid;
            }
        }
    }

    /// PLRU victim: follow the tree bits to the cold leaf.
    #[inline]
    fn plru_victim(&self) -> usize {
        let mut node = 0u32;
        let mut lo = 0usize;
        let mut hi = self.assoc as usize;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if (self.state >> node) & 1 == 1 {
                node = 2 * node + 2;
                lo = mid;
            } else {
                node = 2 * node + 1;
                hi = mid;
            }
        }
        lo
    }

    /// SRRIP victim selection: age all lines until one reaches RRPV 3, then
    /// take the left-most such line.  Inside the loop every lane is below the
    /// maximum, so the whole-word add never overflows a lane.
    #[inline]
    fn srrip_victim(&mut self) -> usize {
        loop {
            if let Some(i) = self.leftmost_eq(MAX_AGE) {
                return i;
            }
            self.state += self.lanes_lsb;
        }
    }

    /// New1/New2 normalization: age lines (minus an exempt one, for New1)
    /// until some line has the maximum age again.
    #[inline]
    fn normalize(&mut self, exempt: Option<usize>) {
        let addend = match exempt {
            Some(line) => self.lanes_lsb & !(LANE_MASK << (LANE_BITS * line as u32)),
            None => self.lanes_lsb,
        };
        loop {
            if self.leftmost_eq(MAX_AGE).is_some() {
                return;
            }
            if addend == 0 {
                // Degenerate single-line configuration where the only line is
                // exempted; give up rather than loop forever.
                return;
            }
            self.state += addend;
        }
    }

    /// Left-most lane at the maximum age (the New* eviction rule).  Only
    /// New1 at one way has no age-3 line (its one line is exempt from the
    /// normalization): the program then evicts the left-most line of the
    /// largest age.
    #[inline]
    fn aged_victim(&self) -> usize {
        self.leftmost_eq(MAX_AGE).unwrap_or_else(|| {
            let assoc = self.assoc as usize;
            let oldest = (0..assoc).map(|i| self.lane(i)).max();
            (0..assoc)
                .position(|i| Some(self.lane(i)) == oldest)
                .expect("a packed policy has at least one line")
        })
    }
}

impl ReplacementPolicy for PackedPolicy {
    fn associativity(&self) -> usize {
        self.assoc as usize
    }

    fn on_hit(&mut self, line: usize) {
        assert_line_in_range(line, self.assoc as usize);
        match self.kind {
            PolicyKind::Fifo => {}
            PolicyKind::Lru | PolicyKind::Lip => self.lru_promote(line),
            PolicyKind::Plru => self.plru_touch(line),
            PolicyKind::Mru => self.mru_touch(line),
            PolicyKind::SrripHp => self.set_lane(line, 0),
            PolicyKind::SrripFp => {
                let v = self.lane(line);
                self.set_lane(line, v.saturating_sub(1));
            }
            PolicyKind::New1 => {
                self.set_lane(line, 0);
                self.normalize(Some(line));
            }
            PolicyKind::New2 => {
                let v = self.lane(line);
                if v == 1 {
                    self.set_lane(line, 0);
                } else if v > 1 {
                    self.set_lane(line, 1);
                }
                self.normalize(None);
            }
            PolicyKind::Brrip => unreachable!("BRRIP has no packed form"),
        }
    }

    fn victim(&mut self) -> usize {
        match self.kind {
            PolicyKind::Fifo | PolicyKind::Lru | PolicyKind::Lip => self.lru_victim(),
            PolicyKind::Plru => self.plru_victim(),
            PolicyKind::Mru => {
                let clear = !self.state & ((1u64 << self.assoc) - 1);
                debug_assert!(clear != 0, "the all-ones state is normalized away");
                clear.trailing_zeros() as usize
            }
            PolicyKind::SrripHp | PolicyKind::SrripFp => self.srrip_victim(),
            PolicyKind::New1 | PolicyKind::New2 => self.aged_victim(),
            PolicyKind::Brrip => unreachable!("BRRIP has no packed form"),
        }
    }

    fn on_insert(&mut self, line: usize) {
        assert_line_in_range(line, self.assoc as usize);
        match self.kind {
            PolicyKind::Fifo | PolicyKind::Lru => self.lru_promote(line),
            PolicyKind::Lip => {
                // Insertion in the LRU position: demote `line` to the oldest
                // age, closing the rank gap it leaves behind.
                let old = self.lane(line);
                let above = self.lanes_above(old);
                self.state -= above >> 3;
                self.set_lane(line, u64::from(self.assoc) - 1);
            }
            PolicyKind::Plru => self.plru_touch(line),
            PolicyKind::Mru => self.mru_touch(line),
            PolicyKind::SrripHp | PolicyKind::SrripFp => self.set_lane(line, SRRIP_INSERT_RRPV),
            PolicyKind::New1 => {
                self.set_lane(line, INSERT_AGE);
                self.normalize(Some(line));
            }
            PolicyKind::New2 => {
                self.set_lane(line, INSERT_AGE);
                self.normalize(None);
            }
            PolicyKind::Brrip => unreachable!("BRRIP has no packed form"),
        }
    }

    fn reset(&mut self) {
        self.state = self.initial;
    }

    fn state_key(&self) -> Vec<u32> {
        let assoc = self.assoc as usize;
        match self.kind {
            PolicyKind::Fifo
            | PolicyKind::Lru
            | PolicyKind::Lip
            | PolicyKind::SrripHp
            | PolicyKind::SrripFp
            | PolicyKind::New1
            | PolicyKind::New2 => (0..assoc).map(|i| self.lane(i) as u32).collect(),
            PolicyKind::Plru => (0..assoc - 1)
                .map(|i| (self.state >> i) as u32 & 1)
                .collect(),
            PolicyKind::Mru => (0..assoc).map(|i| (self.state >> i) as u32 & 1).collect(),
            PolicyKind::Brrip => unreachable!("BRRIP has no packed form"),
        }
    }

    fn name(&self) -> &'static str {
        self.kind.name()
    }

    fn clone_box(&self) -> Box<dyn ReplacementPolicy> {
        Box::new(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(kind: PolicyKind, assoc: usize) -> (PackedPolicy, Box<dyn ReplacementPolicy>) {
        (
            PackedPolicy::new(kind, assoc).unwrap(),
            kind.build_reference(assoc).unwrap(),
        )
    }

    #[test]
    fn initial_states_match_the_reference() {
        for kind in PolicyKind::ALL_DETERMINISTIC {
            for assoc in 1..=PACKED_MAX_ASSOC {
                if !PackedPolicy::supports(kind, assoc) {
                    continue;
                }
                let (packed, reference) = pair(kind, assoc);
                assert_eq!(
                    packed.state_key(),
                    reference.state_key(),
                    "{kind} at assoc {assoc}"
                );
                assert_eq!(packed.name(), reference.name());
                assert_eq!(packed.associativity(), reference.associativity());
            }
        }
    }

    #[test]
    fn reset_restores_the_initial_state() {
        for kind in PolicyKind::ALL_DETERMINISTIC {
            let mut p = PackedPolicy::new(kind, 4).unwrap();
            let initial = p.state_key();
            p.on_miss();
            p.on_miss();
            p.reset();
            assert_eq!(p.state_key(), initial, "{kind}");
        }
    }

    #[test]
    fn rejects_unpackable_configurations() {
        assert!(PackedPolicy::new(PolicyKind::Brrip, 4).is_err());
        assert!(PackedPolicy::new(PolicyKind::Lru, 9).is_err());
        assert!(PackedPolicy::new(PolicyKind::Plru, 6).is_err());
        assert!(PackedPolicy::new(PolicyKind::Mru, 1).is_err());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_lines() {
        PackedPolicy::new(PolicyKind::Lru, 4).unwrap().on_hit(4);
    }
}
