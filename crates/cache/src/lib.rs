//! The cache model of §2.3 of the paper and the set-associative machinery the
//! simulated hardware is built from.
//!
//! The central abstraction is the [`CacheSet`]: the labelled transition system
//! induced by a replacement policy (Definition 2.3, Figure 2), storing memory
//! [`Block`]s and answering accesses with [`HitMiss`].  On top of it this
//! crate provides the pieces needed to assemble a realistic memory hierarchy:
//!
//! * [`CacheGeometry`] and address mapping — line offsets, set indices and
//!   the XOR-folding slice hash used by Intel last-level caches;
//! * [`CacheLevel`] — a full level (all slices × sets) with invalidation;
//! * [`Hierarchy`] — an inclusive L1/L2/L3 hierarchy that reports per-level
//!   hits and misses for each access;
//! * [`SetDueling`] — the leader/follower adaptive-policy mechanism observed
//!   on the simulated last-level caches (Appendix B of the paper).
//!
//! # Example
//!
//! ```
//! use cache::{Block, CacheSet, HitMiss};
//! use policies::PolicyKind;
//!
//! let policy = PolicyKind::Lru.build(2).unwrap();
//! let mut set = CacheSet::filled(policy, (0..2).map(Block::new));
//! // Figure 1 of the paper: A B C A produces Hit Hit Miss Miss on a 2-way
//! // LRU set that already contains A and B.
//! let outcomes: Vec<HitMiss> = [0, 1, 2, 0]
//!     .iter()
//!     .map(|&b| set.access(Block::new(b)).outcome())
//!     .collect();
//! assert_eq!(
//!     outcomes,
//!     vec![HitMiss::Hit, HitMiss::Hit, HitMiss::Miss, HitMiss::Miss]
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod address;
mod dueling;
mod geometry;
mod hierarchy;
mod level;
mod set;

pub use address::{slice_hash, PhysAddr, SetIndex, SliceIndex};
pub use dueling::{
    haswell_like_roles, skylake_like_roles, DuelingRole, SetDueling, SetDuelingConfig,
};
pub use geometry::CacheGeometry;
pub use hierarchy::{AccessOutcome, Hierarchy, HierarchyConfig, LevelId};
pub use level::{CacheLevel, LevelConfig};
pub use set::{AccessResult, Block, CacheSet, HitMiss};
