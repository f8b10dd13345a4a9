//! Polca: the membership oracle for replacement policies, and the end-to-end
//! learning pipeline.
//!
//! Polca (§3 of the paper) sits between the automata-learning algorithm and a
//! cache: learning asks questions about the *replacement policy* (over the
//! alphabet `Ln(i)` / `Evct` of Table 1), while a cache only answers *block
//! accesses* with hits and misses.  Polca translates between the two by
//! keeping track of which block currently occupies which cache line
//! (Algorithm 1), issuing additional probes to discover which line a miss
//! evicted (`findEvicted`), and picking fresh blocks for eviction requests —
//! exploiting the data-independence of replacement policies that makes
//! learning tractable.
//!
//! The crate provides:
//!
//! * [`CacheOracle`] — the abstract cache interface Polca needs, implemented
//!   by [`SimulatedCacheOracle`] (the noiseless software-simulated caches of
//!   the §6 case study) and [`CacheQueryOracle`] (real — here: simulated —
//!   hardware through CacheQuery, §7);
//! * [`CacheSession`] / [`ReplaySession`] — stateful probe sessions: the
//!   simulated caches step once per accessed block (linear-cost queries),
//!   directly or through the query engine and its store, while hardware
//!   sessions replay the whole trace per step, which is the cost model of
//!   the paper;
//! * [`PolcaOracle`] — Algorithm 1 as a [`learning::MembershipOracle`];
//!   `|| PolcaOracle::new(cache.clone())` is the [`learning::OracleFactory`]
//!   the learner makes its oracle with;
//! * [`learn_policy`], [`learn_simulated_policy`] and
//!   [`learn_hardware_policy`] — the complete learning loop (L* + Wp-method
//!   behind the learner's prefix-trie query cache) over either kind of
//!   cache;
//! * [`spawn_learn_job_on`] — the job-oriented asynchronous form of the
//!   pipeline (a background thread plus a pollable [`JobStatus`]), which the
//!   `cqd` server uses to run learning campaigns without blocking its query
//!   traffic;
//! * [`identify_policy`] — matching a learned automaton against the library
//!   of reference policies, up to the renaming of cache lines induced by the
//!   reset sequence;
//! * [`NoisySimBackend`] / [`learn_noisy_policy`] — the noise-robustness
//!   path: the exact simulation with seeded fault injection on top, learned
//!   through the engine's repetition/majority vote (§5's noise handling,
//!   manufactured deterministically);
//! * [`conformance_walk`] — the differential harness: random-walk a learned
//!   automaton against the ground-truth policy simulator and report the
//!   first divergence.
//!
//! # Example: the §6 case study in one call
//!
//! ```
//! use polca::{learn_simulated_policy, LearnSetup};
//! use policies::PolicyKind;
//!
//! let outcome = learn_simulated_policy(PolicyKind::Lru, 2, &LearnSetup::default()).unwrap();
//! assert_eq!(outcome.machine.num_states(), 2); // Example 2.2: 2-state LRU
//! // Query statistics are tracked centrally by the learner's cache layer.
//! assert_eq!(
//!     outcome.stats.membership_queries,
//!     outcome.stats.cache_hits + outcome.stats.cache_misses,
//! );
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod cache_oracle;
mod cartography;
mod conformance;
mod hierarchy_backend;
mod identify;
mod job;
mod membership;
mod pipeline;
mod sim_backend;

pub use cache_oracle::{
    CacheOracle, CacheQueryOracle, CacheSession, ReplaySession, SimulatedCacheOracle,
};
pub use cartography::{
    map_cache, CacheMap, GroupOutcome, GroupReport, MapConfig, SetEntry, SetVerdict,
};
pub use conformance::{
    conformance_cases, conformance_walk, exact_learn_setup, ConformanceDivergence,
    ConformanceReport,
};
pub use hierarchy_backend::HierarchyBackend;
pub use identify::{identify_policy, LinePermutation};
pub use job::{spawn_learn_job_on, JobResult, JobStatus, LearnJob};
pub use membership::PolcaOracle;
pub use pipeline::{
    learn_hardware_policy, learn_hierarchy_policy, learn_noisy_policy, learn_policy,
    learn_simulated_policy, CampaignProfile, HardwareTarget, LearnOutcome, LearnSetup,
    PhaseProfile,
};
pub use sim_backend::{noisy_sim_backend, noisy_sim_config_for, NoisySimBackend, PolicySimBackend};
