//! Trace-driven workload replay: the scenario engine that proves learned
//! policies on realistic traffic.
//!
//! The learning pipeline (`polca`) validates learned automata with
//! membership and equivalence queries; this crate validates them the way
//! the trace-driven caching literature does — by **replaying memory
//! traffic** through both the learned machine and its source policy and
//! demanding access-for-access agreement.  Three layers:
//!
//! * [`mod@format`] — the [`Trace`] container and its line-oriented text
//!   form (one hex address per line) for fixtures and hand-written traces;
//! * [`mod@generate`] — seeded synthetic generators (sequential, strided,
//!   zipfian, pointer-chase), each a pure function of its [`TraceSpec`];
//! * [`mod@replay`] — the engines: a ground-truth policy simulator
//!   ([`SimReplayer`]), a learned-machine executor ([`MachineReplayer`]),
//!   and the differential harness ([`differential_replay`]).
//!
//! # Example
//!
//! ```
//! use cache::CacheGeometry;
//! use policies::{policy_to_mealy, PolicyKind};
//! use trace::{differential_replay, generate, GeneratorKind, TraceSpec};
//!
//! let trace = generate(&TraceSpec {
//!     generator: GeneratorKind::Zipfian,
//!     accesses: 5_000,
//!     lines: 128,
//!     ..TraceSpec::default()
//! });
//! let geometry = CacheGeometry::new(2, 16, 1, 64);
//! let machine = policy_to_mealy(PolicyKind::Lru.build(2).unwrap().as_ref(), 1 << 16);
//! let report = differential_replay(&trace, PolicyKind::Lru, geometry, &machine).unwrap();
//! assert!(report.passed());
//! assert_eq!(report.simulator, report.machine);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod format;
pub mod generate;
pub mod replay;

pub use format::{Trace, TraceError};
pub use generate::{generate, GeneratorKind, TraceSpec, UnknownGenerator};
pub use replay::{
    differential_replay, replay, replay_policy, set_and_tag, DifferentialReport, MachineReplayer,
    ReplayCounts, ReplayDivergence, ReplayError, ReplayEvent, Replayer, SimReplayer, PRIME_BASE,
};
