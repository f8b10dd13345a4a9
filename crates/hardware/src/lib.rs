//! Simulated silicon CPUs.
//!
//! The paper runs CacheQuery against three Intel machines (i7-4790 Haswell,
//! i5-6500 Skylake, i7-8550U Kaby Lake).  This reproduction has no silicon to
//! measure, so this crate provides the *substitute substrate*: a deterministic
//! (seeded) simulation of those machines exposing exactly the interface the
//! CacheQuery backend needs — virtual memory loads with cycle latencies,
//! `clflush`/`wbinvd`, virtual-to-physical translation, Intel CAT way
//! restriction, and toggleable interference sources (adjacent-line prefetcher,
//! other cores, frequency scaling, stray interrupts).
//!
//! The cache geometries follow Table 3 of the paper and the per-level
//! replacement policies follow Table 4 / Appendix B:
//!
//! | CPU | L1 | L2 | L3 leader sets | L3 followers |
//! |-----|----|----|----------------|--------------|
//! | Haswell i7-4790 | PLRU | PLRU | New2-style / noisy alternate (slice 0 only) | adaptive |
//! | Skylake i5-6500 | PLRU | New1 | New2 / BRRIP-like | adaptive |
//! | Kaby Lake i7-8550U | PLRU | New1 | New2 / BRRIP-like | adaptive |
//!
//! The simulation is *behaviourally* faithful where it matters to the
//! learning pipeline: hit/miss sequences per cache set are produced by the
//! exact policies above, timing separates hit and miss distributions per
//! level, and every interference source can be silenced the same way
//! CacheQuery silences it on real hardware.
//!
//! # Example
//!
//! ```
//! use hardware::{CpuModel, SimulatedCpu};
//!
//! let mut cpu = SimulatedCpu::new(CpuModel::SkylakeI5_6500, 42);
//! cpu.quiesce(true); // what CacheQuery does before measuring
//! let pool = cpu.allocate_pool(1 << 20);
//! let first = cpu.load(pool);   // cold: misses every level
//! let second = cpu.load(pool);  // hot: L1 hit
//! assert!(second < first);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adaptive;
mod cpu;
mod models;
mod pagetable;
mod timing;

pub use adaptive::AdaptiveRrip;
pub use cpu::{CatError, SimulatedCpu, VirtAddr};
pub use models::{CpuModel, CpuSpec, LevelPolicy, LevelSpec, UnknownCpu};
pub use pagetable::PageTable;
pub use timing::{NoiseConfig, TimingModel};
