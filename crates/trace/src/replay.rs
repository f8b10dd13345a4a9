//! The replay engine: drive a trace through policy simulators and learned
//! Mealy machines, counting hits and reporting the first divergence
//! access-for-access.
//!
//! Two single-level replayers share one contract:
//!
//! * [`SimReplayer`] executes the *ground-truth* policy code
//!   ([`policies`] + [`cache::CacheSet`]) — what the hardware model does;
//! * [`MachineReplayer`] executes a *learned* automaton
//!   (a [`PolicyMealy`]) and tracks cache content externally — what a
//!   policy-evaluation service built on learned models would do.
//!
//! Both start every touched set **full**, pre-filled with per-set priming
//! blocks, because learned machines are learned from the canonical full
//! initial state `cc0` with identity line naming (see
//! `polca::conformance_walk`): starting empty would exercise the
//! fill-invalid-lines path the machine has no input symbol for, and the two
//! sides would disagree on the very first miss.  Priming blocks live at
//! `2^63` and above, where [`crate::generate()`] refuses to place a working
//! set, so they can never alias trace lines.
//!
//! [`differential_replay`] runs both sides access-for-access and reports
//! the *first* divergence with its position, address and set — not just a
//! final aggregate — which is what makes a failure actionable.

use std::collections::HashMap;
use std::fmt;

use automata::StateId;
use cache::{AccessResult, Block, CacheGeometry, CacheSet, HitMiss, PhysAddr};
use policies::{PolicyError, PolicyInput, PolicyKind, PolicyMealy, PolicyOutput};

use crate::format::Trace;

/// Base of the priming-block address range (the top bit of the address
/// space).  [`crate::generate()`] asserts working sets stay below it.
pub const PRIME_BASE: u64 = 1 << 63;

/// The `(flat set, tag)` coordinates of an address under a geometry: the
/// mapping every replayer uses to route accesses to per-set state.
pub fn set_and_tag(geometry: &CacheGeometry, addr: PhysAddr) -> (usize, u64) {
    let tag = addr.0 >> (geometry.offset_bits() + geometry.set_bits());
    (geometry.flat_index(addr), tag)
}

/// Priming block for `way` of flat set `flat`: distinct per (set, way),
/// disjoint from every generatable trace address.
fn priming_block(geometry: &CacheGeometry, flat: usize, way: usize) -> Block {
    Block::new(PRIME_BASE | (flat as u64 * geometry.associativity as u64 + way as u64))
}

/// What one replayed access did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayEvent {
    /// Hit or miss.
    pub outcome: HitMiss,
    /// Line whose block was evicted, on a miss (always `Some` for the
    /// single-level replayers, which keep their sets full).
    pub evicted_line: Option<usize>,
}

/// Aggregate counters of one replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplayCounts {
    /// Accesses replayed.
    pub accesses: u64,
    /// Hits.
    pub hits: u64,
    /// Misses.
    pub misses: u64,
    /// Evictions (misses that displaced a valid block).
    pub evictions: u64,
}

impl ReplayCounts {
    /// Hit rate in `[0, 1]` (0 for an empty replay).
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }

    fn record(&mut self, event: ReplayEvent) {
        self.accesses += 1;
        match event.outcome {
            HitMiss::Hit => self.hits += 1,
            HitMiss::Miss => {
                self.misses += 1;
                if event.evicted_line.is_some() {
                    self.evictions += 1;
                }
            }
        }
    }
}

/// Anything that can replay one access of a trace.
pub trait Replayer {
    /// Replays one access and reports what happened.
    fn access(&mut self, addr: PhysAddr) -> ReplayEvent;
}

/// Replays a whole trace through `replayer`.
pub fn replay(trace: &Trace, replayer: &mut impl Replayer) -> ReplayCounts {
    let mut counts = ReplayCounts::default();
    for &addr in trace.accesses() {
        counts.record(replayer.access(addr));
    }
    counts
}

/// A single-level cache of executable policy sets, created lazily per
/// touched set and primed full (see the module docs for why).
#[derive(Debug)]
pub struct SimReplayer {
    kind: PolicyKind,
    geometry: CacheGeometry,
    sets: HashMap<usize, CacheSet>,
}

impl SimReplayer {
    /// Creates a replayer simulating `kind` at `geometry`'s associativity.
    ///
    /// # Errors
    ///
    /// Returns a [`PolicyError`] if the policy does not support the
    /// geometry's associativity.
    pub fn new(kind: PolicyKind, geometry: CacheGeometry) -> Result<Self, PolicyError> {
        // Fail construction, not the first access, on a bad associativity.
        kind.build(geometry.associativity)?;
        Ok(SimReplayer {
            kind,
            geometry,
            sets: HashMap::new(),
        })
    }

    /// The geometry accesses are mapped through.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }
}

impl Replayer for SimReplayer {
    fn access(&mut self, addr: PhysAddr) -> ReplayEvent {
        assert!(addr.0 < PRIME_BASE, "trace addresses must stay below 2^63");
        let (flat, _) = set_and_tag(&self.geometry, addr);
        let geometry = self.geometry;
        let kind = self.kind;
        let set = self.sets.entry(flat).or_insert_with(|| {
            CacheSet::filled(
                kind.build(geometry.associativity)
                    .expect("associativity was validated at construction"),
                (0..geometry.associativity).map(|way| priming_block(&geometry, flat, way)),
            )
        });
        let block = Block::new(addr.line_base(geometry.line_size).0);
        match set.access(block) {
            AccessResult::Hit { .. } => ReplayEvent {
                outcome: HitMiss::Hit,
                evicted_line: None,
            },
            AccessResult::Miss { line, .. } => ReplayEvent {
                outcome: HitMiss::Miss,
                evicted_line: Some(line),
            },
        }
    }
}

/// Why a machine-backed replayer cannot be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// The policy rejected the associativity.
    Policy(PolicyError),
    /// The machine's input alphabet does not match
    /// `policy_alphabet(associativity)`.
    AlphabetMismatch {
        /// Inputs the machine actually has.
        machine_inputs: usize,
        /// Inputs `Ln(0..n-1), Evct` requires.
        expected: usize,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Policy(e) => write!(f, "{e}"),
            ReplayError::AlphabetMismatch {
                machine_inputs,
                expected,
            } => write!(
                f,
                "machine alphabet has {machine_inputs} inputs, the geometry requires {expected}"
            ),
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<PolicyError> for ReplayError {
    fn from(e: PolicyError) -> Self {
        ReplayError::Policy(e)
    }
}

/// Per-set state of the machine-backed replayer: the automaton's control
/// state plus the externally tracked content.
#[derive(Debug, Clone)]
struct MachineSet {
    state: StateId,
    content: Vec<Block>,
}

/// A single-level cache whose replacement decisions come from a *learned*
/// Mealy machine instead of executable policy code.
///
/// Content is tracked outside the machine (the machine only knows lines):
/// a hit on line `i` feeds `Ln(i)`, a miss feeds `Evct` and installs the
/// block into the line the machine's `Evicted(v)` output names.  If the
/// machine ever answers `Evct` with `⊥` — which no correctly learned policy
/// does — the content is left unchanged and the miss counts no eviction;
/// [`differential_replay`] then reports the divergence instead of
/// panicking.
#[derive(Debug)]
pub struct MachineReplayer<'m> {
    machine: &'m PolicyMealy,
    geometry: CacheGeometry,
    /// Alphabet positions of `Ln(0..n-1)`, then `Evct`.
    line_inputs: Vec<usize>,
    evct_input: usize,
    sets: HashMap<usize, MachineSet>,
}

impl<'m> MachineReplayer<'m> {
    /// Creates a replayer that drives `machine` (learned at the geometry's
    /// associativity) over `geometry`.
    ///
    /// # Errors
    ///
    /// Returns [`ReplayError::AlphabetMismatch`] if the machine's alphabet
    /// is not exactly `Ln(0..n-1), Evct` for the geometry's associativity.
    pub fn new(machine: &'m PolicyMealy, geometry: CacheGeometry) -> Result<Self, ReplayError> {
        let assoc = geometry.associativity;
        let expected = assoc + 1;
        let mismatch = || ReplayError::AlphabetMismatch {
            machine_inputs: machine.inputs().len(),
            expected,
        };
        if machine.inputs().len() != expected {
            return Err(mismatch());
        }
        let line_inputs = (0..assoc)
            .map(|i| {
                machine
                    .input_position(&PolicyInput::line(i))
                    .ok_or_else(mismatch)
            })
            .collect::<Result<Vec<_>, _>>()?;
        let evct_input = machine
            .input_position(&PolicyInput::Evct)
            .ok_or_else(mismatch)?;
        Ok(MachineReplayer {
            machine,
            geometry,
            line_inputs,
            evct_input,
            sets: HashMap::new(),
        })
    }

    /// The geometry accesses are mapped through.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }
}

impl Replayer for MachineReplayer<'_> {
    fn access(&mut self, addr: PhysAddr) -> ReplayEvent {
        assert!(addr.0 < PRIME_BASE, "trace addresses must stay below 2^63");
        let (flat, _) = set_and_tag(&self.geometry, addr);
        let geometry = self.geometry;
        let initial = self.machine.initial();
        let set = self.sets.entry(flat).or_insert_with(|| MachineSet {
            state: initial,
            content: (0..geometry.associativity)
                .map(|way| priming_block(&geometry, flat, way))
                .collect(),
        });
        let block = Block::new(addr.line_base(geometry.line_size).0);
        match set.content.iter().position(|&b| b == block) {
            Some(line) => {
                let (next, _) = self
                    .machine
                    .step_by_index(set.state, self.line_inputs[line]);
                set.state = next;
                ReplayEvent {
                    outcome: HitMiss::Hit,
                    evicted_line: None,
                }
            }
            None => {
                let (next, output) = self.machine.step_by_index(set.state, self.evct_input);
                set.state = next;
                let evicted_line = match *output {
                    PolicyOutput::Evicted(v) if usize::from(v) < set.content.len() => {
                        set.content[usize::from(v)] = block;
                        Some(usize::from(v))
                    }
                    _ => None,
                };
                ReplayEvent {
                    outcome: HitMiss::Miss,
                    evicted_line,
                }
            }
        }
    }
}

/// The first access on which simulator and machine disagreed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayDivergence {
    /// Position in the trace (0-based).
    pub index: usize,
    /// The address being accessed.
    pub addr: PhysAddr,
    /// Flat set the address maps to.
    pub flat_set: usize,
    /// What the ground-truth simulator did.
    pub expected: ReplayEvent,
    /// What the learned machine did.
    pub actual: ReplayEvent,
}

impl fmt::Display for ReplayDivergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "access {} ({} in set {}): simulator {:?}, machine {:?}",
            self.index, self.addr, self.flat_set, self.expected, self.actual
        )
    }
}

/// Outcome of a differential replay: both sides' counters plus the first
/// divergence, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DifferentialReport {
    /// Counters of the ground-truth simulator side.
    pub simulator: ReplayCounts,
    /// Counters of the learned-machine side (equal to `simulator` when the
    /// replay passed).
    pub machine: ReplayCounts,
    /// First disagreement; `None` is the pass verdict.
    pub divergence: Option<ReplayDivergence>,
}

impl DifferentialReport {
    /// Whether the whole trace replayed without a divergence.
    pub fn passed(&self) -> bool {
        self.divergence.is_none()
    }
}

/// Replays `trace` access-for-access through a fresh ground-truth simulator
/// of `kind` *and* through `machine`, stopping at the first access on which
/// the two disagree (hit/miss outcome or victim line).
///
/// # Errors
///
/// Returns a [`ReplayError`] if the policy does not support the geometry's
/// associativity or the machine's alphabet does not match it.
pub fn differential_replay(
    trace: &Trace,
    kind: PolicyKind,
    geometry: CacheGeometry,
    machine: &PolicyMealy,
) -> Result<DifferentialReport, ReplayError> {
    let mut sim = SimReplayer::new(kind, geometry)?;
    let mut learned = MachineReplayer::new(machine, geometry)?;
    let mut sim_counts = ReplayCounts::default();
    let mut machine_counts = ReplayCounts::default();
    let mut divergence = None;
    for (index, &addr) in trace.accesses().iter().enumerate() {
        let expected = sim.access(addr);
        let actual = learned.access(addr);
        sim_counts.record(expected);
        machine_counts.record(actual);
        if expected != actual {
            divergence = Some(ReplayDivergence {
                index,
                addr,
                flat_set: set_and_tag(&geometry, addr).0,
                expected,
                actual,
            });
            break;
        }
    }
    Ok(DifferentialReport {
        simulator: sim_counts,
        machine: machine_counts,
        divergence,
    })
}

/// Replays `trace` through a ground-truth simulator of `kind` and returns
/// the counters — the one-call form of the policy × generator sweep.
///
/// # Errors
///
/// Returns a [`PolicyError`] if the policy does not support the geometry's
/// associativity.
pub fn replay_policy(
    trace: &Trace,
    kind: PolicyKind,
    geometry: CacheGeometry,
) -> Result<ReplayCounts, PolicyError> {
    let mut sim = SimReplayer::new(kind, geometry)?;
    Ok(replay(trace, &mut sim))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate, GeneratorKind, TraceSpec};
    use policies::policy_to_mealy;

    fn small_geometry(assoc: usize) -> CacheGeometry {
        CacheGeometry::new(assoc, 16, 1, 64)
    }

    #[test]
    fn a_fitting_working_set_only_misses_cold() {
        // 16 sets x 2 ways = 32 lines; a 32-line sequential scan fits
        // exactly, so after the first lap everything hits.
        let trace = generate(&TraceSpec {
            accesses: 320,
            lines: 32,
            ..TraceSpec::default()
        });
        let counts = replay_policy(&trace, PolicyKind::Lru, small_geometry(2)).unwrap();
        assert_eq!(counts.misses, 32);
        assert_eq!(counts.hits, 320 - 32);
        // Full-start replay: every miss evicts (a priming block, at first).
        assert_eq!(counts.evictions, counts.misses);
    }

    #[test]
    fn an_overflowing_scan_thrashes_lru() {
        // 3 congruent lines in every 2-way set, accessed cyclically: LRU
        // evicts exactly the line about to be used (the Figure 1 pathology).
        let trace = generate(&TraceSpec {
            accesses: 3 * 16 * 20,
            lines: 3 * 16,
            ..TraceSpec::default()
        });
        let counts = replay_policy(&trace, PolicyKind::Lru, small_geometry(2)).unwrap();
        assert_eq!(counts.hits, 0, "sequential overflow must thrash LRU");
    }

    #[test]
    fn ground_truth_machines_replay_without_divergence() {
        let geometry = small_geometry(2);
        for kind in PolicyKind::ALL_DETERMINISTIC {
            let machine = policy_to_mealy(kind.build(2).unwrap().as_ref(), 1 << 16);
            for generator in GeneratorKind::ALL {
                let trace = generate(&TraceSpec {
                    generator,
                    accesses: 2000,
                    lines: 48,
                    ..TraceSpec::default()
                });
                let report = differential_replay(&trace, kind, geometry, &machine).unwrap();
                assert!(
                    report.passed(),
                    "{kind}/{generator} diverged: {:?}",
                    report.divergence
                );
                assert_eq!(report.simulator, report.machine);
            }
        }
    }

    #[test]
    fn a_wrong_machine_is_pinpointed() {
        // Replay the FIFO machine against the LRU simulator: contents
        // diverge as soon as a hit reorders LRU but not FIFO, and the
        // report names the first disagreeing access.
        let machine = policy_to_mealy(PolicyKind::Fifo.build(2).unwrap().as_ref(), 1 << 16);
        let trace = generate(&TraceSpec {
            generator: GeneratorKind::Zipfian,
            accesses: 5000,
            lines: 48,
            ..TraceSpec::default()
        });
        let report =
            differential_replay(&trace, PolicyKind::Lru, small_geometry(2), &machine).unwrap();
        let divergence = report.divergence.expect("FIFO cannot emulate LRU");
        assert_ne!(divergence.expected, divergence.actual);
        assert!(!divergence.to_string().is_empty());
        // Counters stop at the divergence.
        assert_eq!(report.simulator.accesses as usize, divergence.index + 1);
    }

    #[test]
    fn alphabet_mismatches_are_rejected() {
        let machine = policy_to_mealy(PolicyKind::Lru.build(2).unwrap().as_ref(), 1 << 16);
        assert!(matches!(
            MachineReplayer::new(&machine, small_geometry(4)),
            Err(ReplayError::AlphabetMismatch {
                machine_inputs: 3,
                expected: 5
            })
        ));
    }

    #[test]
    fn set_and_tag_split_the_address() {
        let geometry = small_geometry(2);
        // 16 sets x 64 B lines: set bits are addr[9:6], the tag sits above.
        let (flat, tag) = set_and_tag(&geometry, PhysAddr(0x2_0040));
        assert_eq!(flat, 1);
        assert_eq!(tag, 0x2_0040 >> 10);
    }
}
