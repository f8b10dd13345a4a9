//! CacheQuery: an abstract interface to individual hardware cache sets.
//!
//! This crate reproduces the tool of §4 of the paper on top of the simulated
//! silicon CPUs of the [`hardware`] crate.  Users pick a cache level and a
//! cache set, write queries in [MemBlockLang](mbl) over *abstract* blocks
//! (`A`, `B`, `C`, …), and receive the hit/miss outcome of every profiled
//! access — without ever dealing with virtual-to-physical translation, slice
//! hashing, congruent-address selection, interference from other cache
//! levels, or measurement noise.
//!
//! The split mirrors the original tool — with one query path for everything:
//!
//! * [`Backend`] plays the role of the Linux kernel module: it owns the
//!   (simulated) machine, quiesces it, allocates memory pools, selects
//!   congruent addresses for the target set, generates the access plan
//!   (including the higher-level eviction loads used for *cache filtering*),
//!   executes it, measures latencies and classifies them against calibrated
//!   thresholds.  It is one implementation of the [`QueryBackend`] trait —
//!   the abstraction every "scarce oracle" of this repo implements.
//! * [`QueryEngine`] is the single memoization layer (the LevelDB role of
//!   §4.2): a namespaced prefix-trie [`QueryStore`] in front of any
//!   [`QueryBackend`].  Engines that should share answers — concurrent `cqd`
//!   sessions, learning jobs, per-worker oracle clones — share one store.
//! * [`CacheQuery`] is the frontend: a thin MBL shell (expansion, batching,
//!   the interactive/batch entry points) over one engine.
//! * [`leader`](detect_leader_sets) implements the thrashing-based leader-set
//!   detection of Appendix B.
//!
//! # Example
//!
//! ```
//! use cachequery::{CacheQuery, Target};
//! use cache::LevelId;
//! use hardware::{CpuModel, SimulatedCpu};
//!
//! let cpu = SimulatedCpu::new(CpuModel::SkylakeI5_6500, 7);
//! let mut cq = CacheQuery::new(cpu);
//! cq.set_target(Target::new(LevelId::L1, 13, 0)).unwrap();
//! // Fill the set, access one more block, and probe whether A survived.
//! let results = cq.query("@ X A?").unwrap();
//! assert_eq!(results.len(), 1);        // one expanded query
//! assert_eq!(results[0].outcomes.len(), 1); // one profiled access
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod backend;
mod engine;
mod frontend;
mod leader;
mod noise;
pub mod persist;
mod repl;
mod reset;
mod store;

pub use backend::{Backend, BackendError, Target};
pub use engine::{
    EngineStats, QueryBackend, QueryConfig, QueryEngine, QueryOutcome, QueryStepper, StepSession,
    VoteConfig, VoteEvidence,
};
pub use frontend::{CacheQuery, QueryStats};
pub use leader::{
    detect_leader_sets, detect_leader_sets_with, LeaderClass, LeaderDetectConfig, LeaderReport,
    LeaderSetInfo,
};
pub use noise::{NoiseSpec, NoiseStats, NoisyBackend, DEFAULT_NOISY_REPS};
pub use repl::{execute_command, parse_command, process_command, Command, ReplSession, HELP_TEXT};
pub use reset::ResetSequence;
pub use store::{
    decode_pattern, encode_pattern, ImportReport, NamespaceUsage, PersistStats, QueryStore,
    StoreOptions, StoreSpace, StoreTap, VoteStats,
};
