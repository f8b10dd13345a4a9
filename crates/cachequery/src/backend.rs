//! The CacheQuery backend: the part that talks to the (simulated) machine.
//!
//! The original backend is a Linux kernel module; its responsibilities
//! (§4.2/§4.3) are reproduced here one by one:
//!
//! * **Set mapping / address selection** — find virtual addresses whose
//!   physical translations are congruent in the target cache set, so that the
//!   abstract blocks `A`, `B`, `C`, … of a query can be bound to concrete
//!   loads.  The scan is a pure function of the target and the page table, so
//!   its result is memoized per target; re-selecting a target restores the
//!   addresses and still re-calibrates.
//! * **Cache filtering** — when the target is L2 or L3, every access is
//!   followed by loads to *non-interfering eviction sets* (congruent in the
//!   smaller caches, not congruent in the target level) so the next access to
//!   the block is served by the target level.
//! * **Profiling and classification** — profiled accesses measure latency and
//!   are classified as hit or miss at the target level against a calibrated
//!   threshold.
//! * **Noise handling** — the machine is quiesced and every query is executed
//!   several times with a majority vote.

use std::collections::{HashMap, HashSet};
use std::fmt;

use cache::{CacheGeometry, HitMiss, LevelId};
use hardware::{CatError, CpuModel, SimulatedCpu, VirtAddr};
use mbl::{BlockId, ExpandError, MemOp, Query, Tag};

use crate::engine::QueryConfig;
use crate::reset::ResetSequence;

/// A cache set chosen as the target of queries: a level, a set index within a
/// slice, and a slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Target {
    /// Cache level.
    pub level: LevelId,
    /// Set index within the slice.
    pub set: usize,
    /// Slice index (0 for single-slice levels).
    pub slice: usize,
}

impl Target {
    /// Creates a target.
    pub fn new(level: LevelId, set: usize, slice: usize) -> Self {
        Target { level, set, slice }
    }

    /// The flat set index (`slice * sets_per_slice + set`) under `geometry`.
    pub fn flat_index(&self, geometry: CacheGeometry) -> usize {
        self.slice * geometry.sets_per_slice + self.set
    }
}

impl fmt::Display for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} set {} slice {}", self.level, self.set, self.slice)
    }
}

/// Errors raised by the backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendError {
    /// The requested set index is out of range for the level.
    SetOutOfRange {
        /// Requested set.
        set: usize,
        /// Number of sets per slice.
        sets_per_slice: usize,
    },
    /// The requested slice index is out of range for the level.
    SliceOutOfRange {
        /// Requested slice.
        slice: usize,
        /// Number of slices.
        slices: usize,
    },
    /// Not enough congruent addresses could be found in the memory pools.
    AddressSelection {
        /// How many addresses were needed.
        needed: usize,
        /// How many were found.
        found: usize,
    },
    /// No target has been selected yet.
    NoTarget,
    /// An MBL expression failed to parse or expand.
    Expand(ExpandError),
    /// Applying CAT failed.
    Cat(CatError),
    /// A non-hardware backend (a remote `cqd` session, a simulated-policy
    /// backend) failed; the payload is its rendered error.
    Service(String),
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::SetOutOfRange {
                set,
                sets_per_slice,
            } => write!(
                f,
                "set {set} out of range (level has {sets_per_slice} sets per slice)"
            ),
            BackendError::SliceOutOfRange { slice, slices } => {
                write!(f, "slice {slice} out of range (level has {slices} slices)")
            }
            BackendError::AddressSelection { needed, found } => write!(
                f,
                "could not find enough congruent addresses (needed {needed}, found {found})"
            ),
            BackendError::NoTarget => write!(f, "no target cache set selected"),
            BackendError::Expand(e) => write!(f, "{e}"),
            BackendError::Cat(e) => write!(f, "{e}"),
            BackendError::Service(message) => write!(f, "{message}"),
        }
    }
}

impl std::error::Error for BackendError {}

impl From<ExpandError> for BackendError {
    fn from(e: ExpandError) -> Self {
        BackendError::Expand(e)
    }
}

impl From<CatError> for BackendError {
    fn from(e: CatError) -> Self {
        BackendError::Cat(e)
    }
}

/// Per-target state: the bound block addresses, the filter (eviction) sets and
/// the calibrated classification threshold.
#[derive(Debug, Clone)]
struct TargetState {
    target: Target,
    /// Flat set index in the target level.
    flat: usize,
    /// Virtual address bound to each abstract block (`blocks[i]` is block `i`).
    blocks: Vec<VirtAddr>,
    /// Eviction addresses congruent with the target blocks in L1 but in
    /// different L2/L3 sets.
    l1_filter: Vec<VirtAddr>,
    /// Eviction addresses congruent in L2 but in a different L3 set (only
    /// populated for L3 targets).
    l2_filter: Vec<VirtAddr>,
    /// Latencies at or below this value are classified as a hit in the target
    /// level.
    hit_threshold: u64,
}

/// What the address scan of [`Backend::select_target`] found for one target:
/// the eagerly bound blocks and both filter sets.  The scan reads only the
/// target, the page table and the memory pools; translations never change
/// once made and pools only grow, so a re-scan would find exactly these
/// addresses again (and translate no new page).
#[derive(Debug, Clone)]
struct Selection {
    /// The first [`INITIAL_BLOCKS`] congruent addresses.
    blocks: Vec<VirtAddr>,
    l1_filter: Vec<VirtAddr>,
    l2_filter: Vec<VirtAddr>,
}

/// Number of filter passes performed when evicting a block from the caches
/// above the target level.
const FILTER_PASSES: usize = 3;
/// Filter sets contain `FILTER_FACTOR * associativity` addresses.
const FILTER_FACTOR: usize = 2;
/// Number of measurement pairs used to calibrate the hit/miss threshold.
const CALIBRATION_SAMPLES: usize = 21;
/// Number of abstract blocks bound eagerly when a target is selected.
const INITIAL_BLOCKS: usize = 48;
/// Size of each memory pool allocation (bytes).
const POOL_BYTES: u64 = 8 << 20;

/// The backend: owns the simulated CPU and executes concrete queries against
/// a selected target cache set.
///
/// `Clone` duplicates the whole simulated machine (CPU, bound addresses,
/// calibration), yielding an independent backend that answers identically —
/// the basis for per-worker oracle instances in parallel learning.
#[derive(Debug, Clone)]
pub struct Backend {
    cpu: SimulatedCpu,
    /// Line-aligned virtual addresses available for address selection.
    pool_lines: Vec<VirtAddr>,
    /// How far `pool_lines` has been scanned for each selection predicate is
    /// not tracked; selection simply skips addresses that are already in use.
    in_use: HashSet<u64>,
    /// The scan result of every target selected so far: at most one entry
    /// per set of the machine.  Cleared when CAT changes the geometry.
    selections: HashMap<Target, Selection>,
    state: Option<TargetState>,
    repetitions: usize,
    reset: ResetSequence,
    /// Total number of loads issued for queries (excludes calibration).
    query_loads: u64,
}

impl Backend {
    /// Wraps a simulated CPU, quiescing it and allocating the first memory
    /// pool (the equivalent of loading the kernel module).
    pub fn new(mut cpu: SimulatedCpu) -> Self {
        cpu.quiesce(true);
        let mut backend = Backend {
            cpu,
            pool_lines: Vec::new(),
            in_use: HashSet::new(),
            selections: HashMap::new(),
            state: None,
            repetitions: 3,
            reset: ResetSequence::default(),
            query_loads: 0,
        };
        backend.grow_pool();
        backend
    }

    /// The wrapped CPU (read-only).
    pub fn cpu(&self) -> &SimulatedCpu {
        &self.cpu
    }

    /// Sets the number of repetitions, rounded by [`odd_repetitions`].
    pub fn set_repetitions(&mut self, repetitions: usize) {
        self.repetitions = odd_repetitions(repetitions);
    }

    /// The memoization namespace of a backend configured this way — exposed
    /// so servers can compute a session's namespace without a machine.
    pub fn config_for(
        model: CpuModel,
        seed: u64,
        cat: Option<usize>,
        reset: &ResetSequence,
        reps: usize,
        target: Target,
    ) -> QueryConfig {
        let cat = cat.map_or_else(|| "-".to_string(), |ways| ways.to_string());
        QueryConfig {
            backend: format!("{} seed={seed} cat={cat}", model.short_name()),
            reset: reset.to_string(),
            reps,
            target,
        }
    }

    /// Sets the reset sequence.
    pub fn set_reset_sequence(&mut self, reset: ResetSequence) {
        self.reset = reset;
    }

    /// Applies Intel CAT to restrict the last-level cache to `ways` ways.
    /// Memoized selections are forgotten and the current target (if any) is
    /// re-selected afterwards because the effective associativity changed.
    ///
    /// # Errors
    ///
    /// Propagates [`CatError`] and address-selection failures.
    pub fn apply_cat(&mut self, ways: usize) -> Result<(), BackendError> {
        self.cpu.apply_cat(LevelId::L3, ways)?;
        self.selections.clear();
        if let Some(state) = self.state.take() {
            self.select_target(state.target)?;
        }
        Ok(())
    }

    /// The currently selected target, if any.
    pub fn target(&self) -> Option<Target> {
        self.state.as_ref().map(|s| s.target)
    }

    /// The associativity of the currently selected target level (after CAT).
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::NoTarget`] if no target is selected.
    pub fn associativity(&self) -> Result<usize, BackendError> {
        let state = self.state.as_ref().ok_or(BackendError::NoTarget)?;
        Ok(self.cpu.geometry(state.target.level).associativity)
    }

    /// Number of loads issued on behalf of queries so far.
    pub fn query_loads(&self) -> u64 {
        self.query_loads
    }

    /// Selects the target cache set: binds abstract blocks to congruent
    /// addresses, builds the filter sets and calibrates the classification
    /// threshold.
    ///
    /// The addresses are found by a scan on the first selection of `target`
    /// and restored from the memo on every later one, leaving `in_use` as the
    /// scan would; calibration runs every time, so the machine sees the same
    /// loads, flushes and latency draws either way.
    ///
    /// # Errors
    ///
    /// Returns an error if the target is out of range or address selection
    /// fails.
    pub fn select_target(&mut self, target: Target) -> Result<(), BackendError> {
        let geometry = self.cpu.geometry(target.level);
        if target.set >= geometry.sets_per_slice {
            return Err(BackendError::SetOutOfRange {
                set: target.set,
                sets_per_slice: geometry.sets_per_slice,
            });
        }
        if target.slice >= geometry.slices {
            return Err(BackendError::SliceOutOfRange {
                slice: target.slice,
                slices: geometry.slices,
            });
        }
        let flat = target.flat_index(geometry);
        let selection = match self.selections.get(&target) {
            Some(selection) => {
                let Selection {
                    blocks,
                    l1_filter,
                    l2_filter,
                } = selection;
                let addresses = blocks.iter().chain(l1_filter).chain(l2_filter);
                self.in_use = addresses.map(|addr| addr.0).collect();
                selection.clone()
            }
            None => {
                let selection = self.scan(target, flat)?;
                self.selections.insert(target, selection.clone());
                selection
            }
        };
        let mut state = TargetState {
            target,
            flat,
            blocks: selection.blocks,
            l1_filter: selection.l1_filter,
            l2_filter: selection.l2_filter,
            hit_threshold: 0,
        };
        self.calibrate(&mut state);
        self.state = Some(state);
        Ok(())
    }

    /// Finds the addresses of a first selection of `target` (flat set index
    /// `flat`), starting from an empty `in_use`.
    fn scan(&mut self, target: Target, flat: usize) -> Result<Selection, BackendError> {
        self.in_use.clear();

        // Bind the abstract blocks to addresses congruent in the target set.
        let blocks = self.find_addresses(INITIAL_BLOCKS, |cpu, phys| {
            cpu.geometry(target.level).flat_index(phys) == flat
        })?;

        // Build the filter (eviction) sets from the physical location of the
        // first block: all congruent blocks share their L1 and L2 set, so a
        // single filter set per level works for every block.
        let probe = blocks[0];
        let probe_phys = self.cpu.translate(probe);
        let l1_flat = self.cpu.geometry(LevelId::L1).flat_index(probe_phys);
        let l2_flat = self.cpu.geometry(LevelId::L2).flat_index(probe_phys);
        let l3_flat = self.cpu.geometry(LevelId::L3).flat_index(probe_phys);

        let l1_ways = self.cpu.geometry(LevelId::L1).associativity;
        let l1_filter = self.find_addresses(FILTER_FACTOR * l1_ways, |cpu, phys| {
            cpu.geometry(LevelId::L1).flat_index(phys) == l1_flat
                && cpu.geometry(LevelId::L2).flat_index(phys) != l2_flat
                && cpu.geometry(LevelId::L3).flat_index(phys) != l3_flat
        })?;

        let l2_filter = if target.level == LevelId::L3 {
            let l2_ways = self.cpu.geometry(LevelId::L2).associativity;
            self.find_addresses(FILTER_FACTOR * l2_ways, |cpu, phys| {
                cpu.geometry(LevelId::L2).flat_index(phys) == l2_flat
                    && cpu.geometry(LevelId::L3).flat_index(phys) != l3_flat
            })?
        } else {
            Vec::new()
        };
        Ok(Selection {
            blocks,
            l1_filter,
            l2_filter,
        })
    }

    /// Executes a concrete query **once**: reset, replay, measure, classify.
    ///
    /// This is the raw single-measurement path — the *only* execution entry
    /// point.  Repetition and majority voting live in `QueryEngine` (which
    /// reads the count from [`QueryConfig::reps`](crate::QueryConfig::reps)),
    /// so every backend shares one noise-handling implementation; run this
    /// backend through an engine to get voted answers.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::NoTarget`] if no target is selected, or an
    /// address-selection error if the query uses more distinct blocks than can
    /// be bound.
    pub fn run_single(&mut self, query: &Query) -> Result<Vec<HitMiss>, BackendError> {
        if self.state.is_none() {
            return Err(BackendError::NoTarget);
        }
        self.ensure_blocks(query)?;
        Ok(self.run_once(query))
    }

    /// Executes the reset sequence followed by the query once, returning raw
    /// classifications.
    fn run_once(&mut self, query: &Query) -> Vec<HitMiss> {
        self.reset_target_set();
        let state = self.state.as_ref().expect("caller checked the target");
        let level = state.target.level;
        let threshold = state.hit_threshold;
        let ops: Vec<MemOp> = query.clone();

        let mut outcomes = Vec::new();
        for op in &ops {
            match op.tag {
                Some(Tag::Invalidate) => {
                    let addr = self.block_address(op.block);
                    self.cpu.clflush(addr);
                }
                tag => {
                    let addr = self.block_address(op.block);
                    let latency = self.cpu.load(addr);
                    self.query_loads += 1;
                    if tag == Some(Tag::Profile) {
                        outcomes.push(if latency <= threshold {
                            HitMiss::Hit
                        } else {
                            HitMiss::Miss
                        });
                    }
                    if level != LevelId::L1 {
                        self.filter_higher_levels();
                    }
                }
            }
        }
        outcomes
    }

    /// Brings the target set into the fixed initial state: flush every bound
    /// block, then run the refill part of the reset sequence.
    fn reset_target_set(&mut self) {
        let (blocks, assoc) = {
            let state = self.state.as_ref().expect("caller checked the target");
            (
                state.blocks.clone(),
                self.cpu.geometry(state.target.level).associativity,
            )
        };
        for addr in &blocks {
            self.cpu.clflush(*addr);
        }
        let refill = self
            .reset
            .refill_query(assoc)
            .expect("reset sequences are validated when set");
        let level = self.state.as_ref().expect("target checked").target.level;
        for op in &refill {
            let addr = self.block_address(op.block);
            if op.tag == Some(Tag::Invalidate) {
                self.cpu.clflush(addr);
            } else {
                self.cpu.load(addr);
                self.query_loads += 1;
                if level != LevelId::L1 {
                    self.filter_higher_levels();
                }
            }
        }
    }

    /// Evicts the most recently accessed block from the cache levels above
    /// the target by touching the non-interfering filter sets.
    fn filter_higher_levels(&mut self) {
        let (l1_filter, l2_filter) = {
            let state = self.state.as_ref().expect("caller checked the target");
            (state.l1_filter.clone(), state.l2_filter.clone())
        };
        for _ in 0..FILTER_PASSES {
            for &addr in &l1_filter {
                self.cpu.load(addr);
                self.query_loads += 1;
            }
            for &addr in &l2_filter {
                self.cpu.load(addr);
                self.query_loads += 1;
            }
        }
    }

    /// The virtual address bound to `block`.
    ///
    /// # Panics
    ///
    /// Panics if the block has not been bound ([`Backend::ensure_blocks`] is
    /// called before running a query).
    fn block_address(&self, block: BlockId) -> VirtAddr {
        self.state
            .as_ref()
            .expect("caller checked the target")
            .blocks[block.0 as usize]
    }

    /// Makes sure every block mentioned in `query` is bound to a congruent
    /// address, extending the binding if necessary.
    fn ensure_blocks(&mut self, query: &Query) -> Result<(), BackendError> {
        let max_block = query.iter().map(|op| op.block.0 as usize).max();
        let Some(max_block) = max_block else {
            return Ok(());
        };
        let (flat, level, current) = {
            let state = self.state.as_ref().ok_or(BackendError::NoTarget)?;
            (state.flat, state.target.level, state.blocks.len())
        };
        if max_block < current {
            return Ok(());
        }
        let extra = self.find_addresses(max_block + 1 - current, |cpu, phys| {
            cpu.geometry(level).flat_index(phys) == flat
        })?;
        let state = self.state.as_mut().expect("checked above");
        state.blocks.extend(extra);
        Ok(())
    }

    /// Finds `count` line-aligned virtual addresses whose physical translation
    /// satisfies `predicate`, growing the memory pool as needed.
    fn find_addresses(
        &mut self,
        count: usize,
        predicate: impl Fn(&SimulatedCpu, cache::PhysAddr) -> bool,
    ) -> Result<Vec<VirtAddr>, BackendError> {
        let mut found = Vec::with_capacity(count);
        let mut scanned = 0;
        let mut grow_attempts = 0;
        while found.len() < count {
            while scanned < self.pool_lines.len() && found.len() < count {
                let addr = self.pool_lines[scanned];
                scanned += 1;
                if self.in_use.contains(&addr.0) {
                    continue;
                }
                let phys = self.cpu.translate(addr);
                if predicate(&self.cpu, phys) {
                    self.in_use.insert(addr.0);
                    found.push(addr);
                }
            }
            if found.len() < count {
                if grow_attempts >= 8 {
                    return Err(BackendError::AddressSelection {
                        needed: count,
                        found: found.len(),
                    });
                }
                self.grow_pool();
                grow_attempts += 1;
            }
        }
        Ok(found)
    }

    /// Allocates another memory pool and registers its line addresses.
    fn grow_pool(&mut self) {
        let base = self.cpu.allocate_pool(POOL_BYTES);
        let line = 64u64;
        for offset in (0..POOL_BYTES).step_by(line as usize) {
            self.pool_lines.push(base.offset(offset));
        }
    }

    /// Calibrates the hit/miss classification threshold for the target level:
    /// the midpoint between the median latency of a known target-level hit and
    /// the median latency of a known target-level miss (i.e. an access served
    /// by the next level, or by memory for the last-level cache).
    fn calibrate(&mut self, state: &mut TargetState) {
        let level = state.target.level;
        let block = state.blocks[0];
        let mut hits = Vec::with_capacity(CALIBRATION_SAMPLES);
        let mut misses = Vec::with_capacity(CALIBRATION_SAMPLES);

        for _ in 0..CALIBRATION_SAMPLES {
            // Known hit at the target level: load, evict from the levels
            // above the target, load again.
            self.cpu.clflush(block);
            self.cpu.load(block);
            if level != LevelId::L1 {
                Self::run_filter(&mut self.cpu, &state.l1_filter, &state.l2_filter);
            }
            hits.push(self.cpu.load(block));

            // Known miss at the target level: for L1/L2, evict the block from
            // the target level *and everything above* by touching the filter
            // set of the target level itself is not possible without
            // disturbing the set, so instead the block is pushed to the next
            // level by eviction sets; for the last-level cache a clflush
            // yields a memory access.
            match level {
                LevelId::L1 => {
                    // Evict from L1 only: the L1 filter set is non-congruent
                    // in L2/L3, so the block stays in L2.
                    Self::run_filter(&mut self.cpu, &state.l1_filter, &[]);
                    misses.push(self.cpu.load(block));
                }
                LevelId::L2 => {
                    // Evict from L1 and L2: the block remains in L3.
                    Self::run_filter(&mut self.cpu, &state.l1_filter, &state.l2_filter);
                    let l2_ways = self.cpu.geometry(LevelId::L2).associativity;
                    let l2_evict = self.find_l2_evict_set(state, 2 * l2_ways);
                    Self::run_filter(&mut self.cpu, &l2_evict, &[]);
                    misses.push(self.cpu.load(block));
                }
                LevelId::L3 => {
                    self.cpu.clflush(block);
                    misses.push(self.cpu.load(block));
                }
            }
            self.cpu.clflush(block);
        }

        hits.sort_unstable();
        misses.sort_unstable();
        let hit_median = hits[hits.len() / 2];
        let miss_median = misses[misses.len() / 2];
        state.hit_threshold = (hit_median + miss_median) / 2;
    }

    /// For L2-target calibration: an eviction set congruent with the target in
    /// L2 (and hence L1) but not in L3, used to push the calibration block to
    /// L3.  Cached in `l2_filter` when the target is L3; recomputed lazily for
    /// L2 targets.
    fn find_l2_evict_set(&mut self, state: &TargetState, count: usize) -> Vec<VirtAddr> {
        if !state.l2_filter.is_empty() {
            return state.l2_filter.clone();
        }
        let probe_phys = self.cpu.translate(state.blocks[0]);
        let l2_flat = self.cpu.geometry(LevelId::L2).flat_index(probe_phys);
        let l3_flat = self.cpu.geometry(LevelId::L3).flat_index(probe_phys);
        self.find_addresses(count, |cpu, phys| {
            cpu.geometry(LevelId::L2).flat_index(phys) == l2_flat
                && cpu.geometry(LevelId::L3).flat_index(phys) != l3_flat
        })
        .unwrap_or_default()
    }

    fn run_filter(cpu: &mut SimulatedCpu, first: &[VirtAddr], second: &[VirtAddr]) {
        for _ in 0..FILTER_PASSES {
            for &addr in first {
                cpu.load(addr);
            }
            for &addr in second {
                cpu.load(addr);
            }
        }
    }
}

/// The repetition count a vote actually uses: `reps` rounded up to an odd
/// number, so a majority always exists (0 counts as 1).
pub fn odd_repetitions(reps: usize) -> usize {
    reps | 1
}

impl crate::engine::QueryBackend for Backend {
    fn execute(&mut self, query: &Query) -> Result<(Vec<HitMiss>, bool), BackendError> {
        // One raw measurement: the engine repeats and votes per
        // `QueryConfig::reps`, so the backend must not vote on top.
        self.run_single(query).map(|outcomes| (outcomes, true))
    }

    fn config(&self) -> Result<QueryConfig, BackendError> {
        let target = self.target().ok_or(BackendError::NoTarget)?;
        Ok(Backend::config_for(
            self.cpu.model(),
            self.cpu.seed(),
            self.cpu.cat_ways(),
            &self.reset,
            self.repetitions,
            target,
        ))
    }

    fn associativity(&self) -> Result<usize, BackendError> {
        Backend::associativity(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::QueryEngine;
    use hardware::CpuModel;
    use mbl::expand_query;

    /// Backend tests drive the production path — a memoization-disabled
    /// [`QueryEngine`], which performs the backend's `reps` majority vote —
    /// so there is exactly one voting implementation in the crate.
    fn engine(model: CpuModel) -> QueryEngine<Backend> {
        let mut engine = QueryEngine::new(Backend::new(SimulatedCpu::new(model, 99)));
        engine.set_memoize(false);
        engine
    }

    fn run_str(e: &mut QueryEngine<Backend>, q: &str) -> Vec<HitMiss> {
        let assoc = e.backend().associativity().unwrap();
        let queries = expand_query(q, assoc).unwrap();
        assert_eq!(queries.len(), 1, "test queries must expand to one query");
        e.run(&queries[0]).unwrap().outcomes
    }

    #[test]
    fn l1_fill_and_probe_behaves_like_plru() {
        let mut e = engine(CpuModel::SkylakeI5_6500);
        e.backend_mut()
            .select_target(Target::new(LevelId::L1, 5, 0))
            .unwrap();
        // After the reset fill A..H, probing every block must hit.
        let outcomes = run_str(&mut e, "(@)?");
        assert_eq!(outcomes, vec![HitMiss::Hit; 8]);
        // An extra block X misses, and probing X afterwards hits.
        let outcomes = run_str(&mut e, "X? X?");
        assert_eq!(outcomes, vec![HitMiss::Miss, HitMiss::Hit]);
    }

    #[test]
    fn l1_eviction_is_observable() {
        let mut e = engine(CpuModel::SkylakeI5_6500);
        e.backend_mut()
            .select_target(Target::new(LevelId::L1, 9, 0))
            .unwrap();
        // Fill the 8-way set, access one more block: exactly one of the
        // original blocks must have been evicted.
        let assoc = e.backend().associativity().unwrap();
        let queries = expand_query("@ X _?", assoc).unwrap();
        assert_eq!(queries.len(), assoc);
        let mut misses = 0;
        for q in &queries {
            if e.run(q).unwrap().outcomes[0] == HitMiss::Miss {
                misses += 1;
            }
        }
        assert_eq!(misses, 1, "exactly one block should have been evicted");
    }

    #[test]
    fn l2_target_sees_the_new1_policy_not_l1_hits() {
        let mut e = engine(CpuModel::SkylakeI5_6500);
        e.backend_mut()
            .select_target(Target::new(LevelId::L2, 77, 0))
            .unwrap();
        assert_eq!(e.backend().associativity().unwrap(), 4);
        // Without cache filtering these probes would all be L1 hits and the
        // query would be meaningless; with filtering the profiled accesses
        // reflect the L2 state: after filling A B C D, all four blocks are
        // cached.
        let outcomes = run_str(&mut e, "(@)?");
        assert_eq!(outcomes, vec![HitMiss::Hit; 4]);
    }

    #[test]
    fn invalidation_tag_flushes_the_block() {
        let mut e = engine(CpuModel::SkylakeI5_6500);
        e.backend_mut()
            .select_target(Target::new(LevelId::L1, 3, 0))
            .unwrap();
        let outcomes = run_str(&mut e, "A A! A?");
        assert_eq!(outcomes, vec![HitMiss::Miss]);
    }

    #[test]
    fn target_validation_errors() {
        let mut b = Backend::new(SimulatedCpu::new(CpuModel::SkylakeI5_6500, 99));
        assert!(matches!(
            b.select_target(Target::new(LevelId::L1, 64, 0)),
            Err(BackendError::SetOutOfRange { .. })
        ));
        assert!(matches!(
            b.select_target(Target::new(LevelId::L1, 0, 1)),
            Err(BackendError::SliceOutOfRange { .. })
        ));
        let q = expand_query("A?", 4).unwrap();
        assert!(matches!(b.run_single(&q[0]), Err(BackendError::NoTarget)));
    }

    #[test]
    fn repetitions_are_forced_odd() {
        assert_eq!(odd_repetitions(4), 5);
        assert_eq!(odd_repetitions(5), 5);
        assert_eq!(odd_repetitions(0), 1);
    }

    #[test]
    fn cat_restricts_the_l3_target() {
        let mut b = Backend::new(SimulatedCpu::new(CpuModel::SkylakeI5_6500, 99));
        b.apply_cat(4).unwrap();
        b.select_target(Target::new(LevelId::L3, 0, 0)).unwrap();
        assert_eq!(b.associativity().unwrap(), 4);
    }

    #[test]
    fn blocks_beyond_the_initial_binding_are_bound_on_demand() {
        let mut e = engine(CpuModel::SkylakeI5_6500);
        e.backend_mut()
            .select_target(Target::new(LevelId::L1, 1, 0))
            .unwrap();
        // Block index 59 ("BH") is far beyond the initial binding of 48.
        let outcomes = run_str(&mut e, "BH?");
        assert_eq!(outcomes, vec![HitMiss::Miss]);
    }

    /// The selection script of the memo tests: every level, each target
    /// selected, left and selected again, with a query after each selection
    /// (two of them binding block `BH`, past the 48 initial blocks).
    fn selection_script() -> [(Target, &'static str); 9] {
        [
            (Target::new(LevelId::L1, 0, 0), "(@)? X?"),
            (Target::new(LevelId::L1, 1, 0), "@ X A?"),
            (Target::new(LevelId::L1, 0, 0), "@ BH? A?"),
            (Target::new(LevelId::L2, 3, 0), "(@)?"),
            (Target::new(LevelId::L2, 4, 0), "@ X A?"),
            (Target::new(LevelId::L2, 3, 0), "@ X A?"),
            (Target::new(LevelId::L3, 5, 0), "(@)?"),
            (Target::new(LevelId::L3, 9, 2), "@ X A?"),
            (Target::new(LevelId::L3, 5, 0), "@ BH? A?"),
        ]
    }

    /// Re-selections restore memoized addresses instead of scanning, and the
    /// machine must not notice: the answers, the load count and the
    /// time-stamp counter (the sum of every jittered latency and flush, so
    /// one extra or missing load, flush or RNG draw moves it) equal the
    /// values this script produced when every selection scanned.
    #[test]
    fn reselection_keeps_every_machine_operation() {
        let mut e = engine(CpuModel::SkylakeI5_6500);
        let mut patterns = Vec::new();
        for (target, query) in selection_script() {
            e.backend_mut().select_target(target).unwrap();
            patterns.push(crate::encode_pattern(&run_str(&mut e, query)));
        }
        assert_eq!(
            patterns.join(" "),
            "HHHHHHHHM M MM HHHH M M HHHHHHHHHHHH M MM"
        );
        assert_eq!(e.backend().selections.len(), 6);
        assert_eq!(e.backend().cpu().load_count(), 45_240);
        assert_eq!(e.backend().cpu().rdtsc(), 1_753_160);
    }

    #[test]
    fn a_restored_selection_equals_a_rescan() {
        let mut restored = Backend::new(SimulatedCpu::new(CpuModel::SkylakeI5_6500, 99));
        for (target, _) in &selection_script()[..5] {
            restored.select_target(*target).unwrap();
        }
        let mut rescanned = restored.clone();
        rescanned.selections.clear();
        let target = Target::new(LevelId::L2, 3, 0);
        restored.select_target(target).unwrap();
        rescanned.select_target(target).unwrap();
        let (a, b) = (restored.state.unwrap(), rescanned.state.unwrap());
        assert_eq!(a.blocks, b.blocks);
        assert_eq!(a.l1_filter, b.l1_filter);
        assert_eq!(a.l2_filter, b.l2_filter);
        assert_eq!(a.hit_threshold, b.hit_threshold);
        assert_eq!(restored.in_use, rescanned.in_use);
        assert_eq!(restored.cpu.rdtsc(), rescanned.cpu.rdtsc());
    }

    #[test]
    fn cat_forgets_memoized_selections() {
        let mut b = Backend::new(SimulatedCpu::new(CpuModel::SkylakeI5_6500, 99));
        b.select_target(Target::new(LevelId::L1, 0, 0)).unwrap();
        b.select_target(Target::new(LevelId::L3, 0, 0)).unwrap();
        assert_eq!(b.selections.len(), 2);
        b.apply_cat(4).unwrap();
        // Only the current target, re-selected under the new geometry, is
        // memoized.
        let memoized: Vec<Target> = b.selections.keys().copied().collect();
        assert_eq!(memoized, [Target::new(LevelId::L3, 0, 0)]);
    }
}
