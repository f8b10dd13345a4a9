//! The simulated CPU: memory loads with latencies, flushes, CAT, and noise.

use std::fmt;

use cache::{
    CacheGeometry, CacheLevel, DuelingRole, Hierarchy, HierarchyConfig, LevelConfig, LevelId,
    PhysAddr, SetDueling, SetDuelingConfig,
};
use policies::ReplacementPolicy;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::adaptive::AdaptiveRrip;
use crate::models::{CpuModel, CpuSpec, LevelPolicy, LevelSpec};
use crate::pagetable::PageTable;
use crate::timing::{NoiseConfig, TimingModel};

/// A virtual address in the simulated machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VirtAddr(pub u64);

impl VirtAddr {
    /// Adds a byte offset.
    pub fn offset(self, bytes: u64) -> VirtAddr {
        VirtAddr(self.0 + bytes)
    }
}

impl fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v0x{:x}", self.0)
    }
}

/// Error returned by [`SimulatedCpu::apply_cat`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatError {
    /// The CPU model does not support CAT (the Haswell i7-4790, cf. §7.1).
    Unsupported,
    /// CAT can only restrict the last-level cache.
    NotLastLevel(LevelId),
    /// The requested number of ways is zero or exceeds the level's
    /// associativity.
    InvalidWays {
        /// Requested ways.
        requested: usize,
        /// Available ways.
        available: usize,
    },
}

impl fmt::Display for CatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CatError::Unsupported => write!(f, "this CPU model does not support CAT"),
            CatError::NotLastLevel(l) => write!(f, "CAT cannot be applied to {l}"),
            CatError::InvalidWays {
                requested,
                available,
            } => write!(
                f,
                "cannot restrict to {requested} ways (level has {available})"
            ),
        }
    }
}

impl std::error::Error for CatError {}

/// The simulated silicon CPU.
///
/// This is the substitute for the machines of Table 3: it owns a cache
/// [`Hierarchy`] configured per the CPU model, a [`PageTable`] providing a
/// scattered virtual-to-physical mapping, a [`TimingModel`] with configurable
/// noise, and the interference sources (adjacent-line prefetcher, other-core
/// pollution) that CacheQuery has to disable on real hardware.
///
/// The CPU is `Clone`: a clone is an independent, bit-identical machine,
/// which is what lets the parallel learner hand every worker its own copy of
/// the (deterministic) simulated hardware.
#[derive(Debug, Clone)]
pub struct SimulatedCpu {
    model: CpuModel,
    spec: CpuSpec,
    hierarchy: Hierarchy,
    dueling: Option<SetDueling>,
    page_table: PageTable,
    timing: TimingModel,
    noise: NoiseConfig,
    quiesced: bool,
    cat_ways: Option<usize>,
    rng: StdRng,
    tsc: u64,
    next_pool_base: u64,
    loads: u64,
    seed: u64,
}

impl SimulatedCpu {
    /// Creates a simulated CPU of the given model; all pseudo-random aspects
    /// (page-frame allocation, noise, bimodal insertions) derive from `seed`.
    pub fn new(model: CpuModel, seed: u64) -> Self {
        Self::with_spec(model, model.spec(), seed)
    }

    /// Creates a simulated CPU from an explicit specification instead of the
    /// model's canonical one.
    ///
    /// `model` is kept only as the machine's nameplate (display, wire
    /// protocol, memoization namespaces); geometry and policies come from
    /// `spec`.  This is the experimenter's knob: leader-set detection and
    /// cartography tests plant small adaptive levels with known role layouts
    /// and verify the planted layout is recovered.
    pub fn with_spec(model: CpuModel, spec: CpuSpec, seed: u64) -> Self {
        let (hierarchy, dueling) = build_hierarchy(&spec, None, seed);
        SimulatedCpu {
            model,
            spec,
            hierarchy,
            dueling,
            page_table: PageTable::new(seed.wrapping_add(0x9e37)),
            timing: TimingModel::default(),
            noise: NoiseConfig::noisy(),
            quiesced: false,
            cat_ways: None,
            rng: StdRng::seed_from_u64(seed.wrapping_add(0x51ce)),
            tsc: 0,
            next_pool_base: 0x1000_0000,
            loads: 0,
            seed,
        }
    }

    /// The CPU model being simulated.
    pub fn model(&self) -> CpuModel {
        self.model
    }

    /// The seed every source of simulated nondeterminism derives from.  Two
    /// machines with the same model and seed behave identically, which is
    /// what makes the seed part of a query's memoization namespace.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The static specification (Table 3 geometry, Table 4 policies).
    pub fn spec(&self) -> &CpuSpec {
        &self.spec
    }

    /// Whether the model supports Intel CAT.
    pub fn supports_cat(&self) -> bool {
        self.spec.supports_cat
    }

    /// Puts the machine in (or out of) the low-noise measurement state:
    /// hardware prefetchers, frequency scaling and the other cores are
    /// disabled, exactly what the CacheQuery backend does before profiling
    /// (§4.3 "Interferences").
    pub fn quiesce(&mut self, on: bool) {
        self.quiesced = on;
        self.noise = if on {
            NoiseConfig::quiet()
        } else {
            NoiseConfig::noisy()
        };
    }

    /// Reserves a fresh virtual memory pool of `bytes` bytes and returns its
    /// base address.  Pages are mapped to physical frames on first access.
    pub fn allocate_pool(&mut self, bytes: u64) -> VirtAddr {
        let base = self.next_pool_base;
        // Keep pools page-aligned and separated by a guard page.
        let pages = bytes.div_ceil(crate::pagetable::PAGE_SIZE) + 1;
        self.next_pool_base += pages * crate::pagetable::PAGE_SIZE;
        VirtAddr(base)
    }

    /// Translates a virtual address (allocating the page on first use), like
    /// the kernel-module backend does to learn physical addresses.
    pub fn translate(&mut self, addr: VirtAddr) -> PhysAddr {
        self.page_table.translate(addr.0)
    }

    /// Performs a memory load and returns its measured latency in cycles.
    pub fn load(&mut self, addr: VirtAddr) -> u64 {
        let phys = self.page_table.translate(addr.0);
        let outcome = self.hierarchy.access(phys);
        let served = outcome.served_by();
        let latency = self.timing.sample(served, &self.noise, &mut self.rng);
        self.loads += 1;

        if !self.quiesced {
            self.interfere(phys);
        }

        self.tsc += latency + 10; // fixed instruction overhead
        latency
    }

    /// Flushes the line containing `addr` from the whole hierarchy
    /// (`clflush`).
    pub fn clflush(&mut self, addr: VirtAddr) {
        let phys = self.page_table.translate(addr.0);
        self.hierarchy.flush(phys);
        self.tsc += 100;
    }

    /// Invalidates all caches (`wbinvd`).
    pub fn wbinvd(&mut self) {
        self.hierarchy.flush_all();
        self.tsc += 20_000;
    }

    /// Current value of the time-stamp counter.
    pub fn rdtsc(&self) -> u64 {
        self.tsc
    }

    /// Total number of loads executed (a stand-in for a performance counter).
    pub fn load_count(&self) -> u64 {
        self.loads
    }

    /// Effective geometry of `level`, taking a CAT restriction into account.
    ///
    /// # Panics
    ///
    /// Panics if the model does not have `level`.
    pub fn geometry(&self, level: LevelId) -> CacheGeometry {
        self.hierarchy.level(level).geometry()
    }

    /// Restricts the last-level cache to `ways` ways using CAT, flushing it in
    /// the process (the paper uses this to reduce the L3 associativity to 4 on
    /// Skylake and Kaby Lake, §7.1).
    ///
    /// # Errors
    ///
    /// Returns [`CatError`] if the model lacks CAT support, `level` is not the
    /// last-level cache, or `ways` is out of range.
    pub fn apply_cat(&mut self, level: LevelId, ways: usize) -> Result<(), CatError> {
        if !self.spec.supports_cat {
            return Err(CatError::Unsupported);
        }
        if level != LevelId::L3 {
            return Err(CatError::NotLastLevel(level));
        }
        let full = self
            .spec
            .level(LevelId::L3)
            .expect("every modelled CPU has an L3")
            .geometry
            .associativity;
        if ways == 0 || ways > full {
            return Err(CatError::InvalidWays {
                requested: ways,
                available: full,
            });
        }
        self.cat_ways = Some(ways);
        let (hierarchy, dueling) = build_hierarchy(&self.spec, Some(ways), self.seed);
        self.hierarchy = hierarchy;
        self.dueling = dueling;
        Ok(())
    }

    /// The CAT restriction currently applied to the last-level cache, if any.
    pub fn cat_ways(&self) -> Option<usize> {
        self.cat_ways
    }

    /// The set-dueling role of the L3 set with the given flat index.
    ///
    /// # Panics
    ///
    /// Panics if the flat index is out of range.
    pub fn l3_role(&self, flat_set: usize) -> DuelingRole {
        match &self.dueling {
            Some(d) => d.role(flat_set),
            None => DuelingRole::Follower,
        }
    }

    /// A handle on the L3 set-dueling controller, if the model's L3 is
    /// adaptive.  The handle shares the live PSEL counter (cloning a
    /// [`SetDueling`] shares its `Arc`), so experiments can observe — or,
    /// via [`SetDueling::force_psel`], plant — the duel state of the running
    /// machine.
    ///
    /// Note that [`SimulatedCpu::apply_cat`] rebuilds the hierarchy and with
    /// it the controller: handles taken before a CAT change go stale.
    pub fn l3_dueling(&self) -> Option<SetDueling> {
        self.dueling.clone()
    }

    /// Read-only view of the cache hierarchy (used by white-box tests).
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hierarchy
    }

    /// The replacement-policy name of the set that `addr` maps to in `level`
    /// (diagnostics).
    pub fn policy_name_for(&mut self, level: LevelId, addr: VirtAddr) -> &'static str {
        let phys = self.page_table.translate(addr.0);
        let geometry = self.hierarchy.level(level).geometry();
        let flat = geometry.flat_index(phys);
        self.hierarchy.level(level).set(flat).policy_name()
    }

    /// Background interference from the rest of the (un-quiesced) machine: the
    /// adjacent-line prefetcher pulls in the buddy line, and other cores
    /// occasionally touch random lines.
    fn interfere(&mut self, just_loaded: PhysAddr) {
        // Adjacent-line prefetcher: fetch the buddy of the accessed line.
        if self.rng.gen::<f64>() < 0.5 {
            let buddy = PhysAddr(just_loaded.0 ^ 64);
            self.hierarchy.access(buddy);
        }
        // Other cores: sporadic accesses to arbitrary physical lines.
        if self.rng.gen::<f64>() < 0.2 {
            let addr = PhysAddr(self.rng.gen_range(0..(1u64 << 30)) & !63);
            self.hierarchy.access(addr);
        }
    }
}

/// Builds the cache hierarchy (and the L3 set-dueling controller, if the
/// model's L3 is adaptive) for `spec`, optionally restricting the L3
/// associativity to `cat_ways`.
fn build_hierarchy(
    spec: &CpuSpec,
    cat_ways: Option<usize>,
    seed: u64,
) -> (Hierarchy, Option<SetDueling>) {
    let mut levels = Vec::new();
    let mut dueling_out = None;
    for level_spec in &spec.levels {
        let (level, dueling) = build_level(level_spec, cat_ways, seed);
        if level_spec.level == LevelId::L3 {
            dueling_out = dueling;
        }
        levels.push(level);
    }
    (Hierarchy::new(HierarchyConfig { levels }), dueling_out)
}

fn build_level(
    spec: &LevelSpec,
    cat_ways: Option<usize>,
    seed: u64,
) -> (CacheLevel, Option<SetDueling>) {
    let mut geometry = spec.geometry;
    if spec.level == LevelId::L3 {
        if let Some(ways) = cat_ways {
            geometry = CacheGeometry::new(
                ways,
                geometry.sets_per_slice,
                geometry.slices,
                geometry.line_size,
            );
        }
    }
    let config = LevelConfig {
        name: spec.level.to_string(),
        geometry,
        inclusive: spec.inclusive,
    };
    match &spec.policy {
        LevelPolicy::Fixed(kind) => {
            let level = CacheLevel::new(config, |flat| {
                kind.build_seeded(geometry.associativity, seed ^ flat as u64)
                    .expect("the model specs only use supported associativities")
            });
            (level, None)
        }
        LevelPolicy::Adaptive { roles } => {
            let dueling = SetDueling::new(SetDuelingConfig {
                roles: roles.clone(),
                psel_bits: 10,
            });
            let dueling_for_sets = dueling.clone();
            let level = CacheLevel::new(config, |flat| {
                let role = dueling_for_sets.role(flat);
                Box::new(AdaptiveRrip::new(
                    geometry.associativity,
                    role,
                    dueling_for_sets.clone(),
                    seed ^ (flat as u64).wrapping_mul(0x9e3779b97f4a7c15),
                )) as Box<dyn ReplacementPolicy>
            });
            (level, Some(dueling))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_cpu(model: CpuModel) -> SimulatedCpu {
        let mut cpu = SimulatedCpu::new(model, 1234);
        cpu.quiesce(true);
        cpu
    }

    #[test]
    fn repeated_loads_hit_l1() {
        let mut cpu = quiet_cpu(CpuModel::SkylakeI5_6500);
        let pool = cpu.allocate_pool(1 << 16);
        cpu.load(pool);
        // Subsequent loads are L1 hits: close to the 4-cycle base latency.
        let mut total = 0;
        for _ in 0..50 {
            total += cpu.load(pool).min(100);
        }
        assert!(
            total / 50 < 10,
            "average {} too high for L1 hits",
            total / 50
        );
    }

    #[test]
    fn clflush_makes_the_next_load_slow() {
        let mut cpu = quiet_cpu(CpuModel::SkylakeI5_6500);
        let pool = cpu.allocate_pool(1 << 16);
        cpu.load(pool);
        cpu.clflush(pool);
        let latency = cpu.load(pool);
        assert!(
            latency > 100,
            "latency {latency} too small for a DRAM access"
        );
    }

    #[test]
    fn distinct_pools_do_not_overlap() {
        let mut cpu = quiet_cpu(CpuModel::SkylakeI5_6500);
        let a = cpu.allocate_pool(1 << 20);
        let b = cpu.allocate_pool(1 << 20);
        assert!(b.0 >= a.0 + (1 << 20));
    }

    #[test]
    fn cat_reduces_l3_associativity() {
        let mut cpu = quiet_cpu(CpuModel::SkylakeI5_6500);
        assert_eq!(cpu.geometry(LevelId::L3).associativity, 12);
        cpu.apply_cat(LevelId::L3, 4).unwrap();
        assert_eq!(cpu.geometry(LevelId::L3).associativity, 4);
        assert_eq!(cpu.cat_ways(), Some(4));
        // L1/L2 are unaffected.
        assert_eq!(cpu.geometry(LevelId::L2).associativity, 4);
    }

    #[test]
    fn haswell_rejects_cat() {
        let mut cpu = quiet_cpu(CpuModel::HaswellI7_4790);
        assert_eq!(cpu.apply_cat(LevelId::L3, 4), Err(CatError::Unsupported));
    }

    #[test]
    fn cat_rejects_invalid_requests() {
        let mut cpu = quiet_cpu(CpuModel::SkylakeI5_6500);
        assert!(matches!(
            cpu.apply_cat(LevelId::L2, 2),
            Err(CatError::NotLastLevel(LevelId::L2))
        ));
        assert!(matches!(
            cpu.apply_cat(LevelId::L3, 0),
            Err(CatError::InvalidWays { .. })
        ));
        assert!(matches!(
            cpu.apply_cat(LevelId::L3, 13),
            Err(CatError::InvalidWays { .. })
        ));
    }

    #[test]
    fn l2_policy_matches_the_model() {
        let mut sky = quiet_cpu(CpuModel::SkylakeI5_6500);
        let pool = sky.allocate_pool(1 << 12);
        assert_eq!(sky.policy_name_for(LevelId::L2, pool), "New1");
        let mut hw = quiet_cpu(CpuModel::HaswellI7_4790);
        let pool = hw.allocate_pool(1 << 12);
        assert_eq!(hw.policy_name_for(LevelId::L2, pool), "PLRU");
    }

    #[test]
    fn l3_leader_roles_follow_the_skylake_pattern() {
        let cpu = quiet_cpu(CpuModel::SkylakeI5_6500);
        assert_eq!(cpu.l3_role(0), DuelingRole::LeaderPrimary);
        assert_eq!(cpu.l3_role(33), DuelingRole::LeaderPrimary);
        assert_eq!(cpu.l3_role(1), DuelingRole::Follower);
    }

    #[test]
    fn unquiesced_machine_is_noisier() {
        let mut cpu = SimulatedCpu::new(CpuModel::SkylakeI5_6500, 7);
        let pool = cpu.allocate_pool(1 << 16);
        cpu.load(pool);
        // Noisy mode: L1-hit latencies fluctuate a lot more.
        let noisy: Vec<u64> = (0..200).map(|_| cpu.load(pool)).collect();
        cpu.quiesce(true);
        let quiet: Vec<u64> = (0..200).map(|_| cpu.load(pool)).collect();
        let spread = |v: &[u64]| {
            let lo = *v.iter().min().unwrap() as i64;
            let hi = *v.iter().filter(|&&x| x < 300).max().unwrap() as i64;
            hi - lo
        };
        assert!(spread(&noisy) > spread(&quiet));
    }

    #[test]
    fn rdtsc_increases_monotonically() {
        let mut cpu = quiet_cpu(CpuModel::KabyLakeI7_8550U);
        let pool = cpu.allocate_pool(4096);
        let t0 = cpu.rdtsc();
        cpu.load(pool);
        let t1 = cpu.rdtsc();
        assert!(t1 > t0);
    }
}
