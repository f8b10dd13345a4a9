//! Active learning of Mealy machines: the LearnLib replacement.
//!
//! The paper (§3) plugs its Polca membership oracle into LearnLib's
//! implementation of Angluin-style active learning for Mealy machines and
//! uses the Wp-method for conformance-testing-based equivalence queries.
//! This crate provides the same ingredients, plus the query-efficiency
//! subsystem that makes large policies tractable:
//!
//! * [`MembershipOracle`] / [`EquivalenceOracle`] — the teacher interface of
//!   the student–teacher paradigm (§3.1);
//! * [`OracleFactory`] / [`QueryPool`] — the factory that makes the
//!   learner's oracle, and the query engine that puts that one oracle behind
//!   a prefix trie, answering every membership query and conformance test of
//!   a run one at a time (and skipping a suite's repeated words on that
//!   trie);
//! * [`QueryCache`] — the prefix-trie memoization layer itself (exploiting
//!   the prefix-closedness of deterministic output words);
//! * [`learn_mealy`] — L* for Mealy machines with an observation table whose
//!   rows are interned signature ids, batched row filling, and
//!   Rivest–Schapire counterexample processing;
//! * [`WpMethodOracle`] / [`WMethodOracle`] — `(|H| + k)`-complete conformance
//!   test suites (§3.3, Theorem 3.3), generated lazily, used as the
//!   equivalence oracle;
//! * [`RandomWalkOracle`] — the cheaper randomized alternative mentioned in
//!   §6 as a possible optimization;
//! * [`MealyOracle`] — a simulated teacher backed by a known machine, used in
//!   tests and for the ablation benchmarks.
//!
//! # Example: learning a toy machine
//!
//! ```
//! use automata::MealyBuilder;
//! use learning::{learn_mealy, LearnOptions, MealyOracle, WpMethodOracle};
//!
//! // Build the 2-way LRU policy machine of Example 2.2 and learn it back.
//! let mut b = MealyBuilder::new(vec!["Ln(0)", "Ln(1)", "Evct"]);
//! let cs0 = b.add_state();
//! let cs1 = b.add_state();
//! b.add_transition(cs0, "Ln(0)", cs1, "⊥");
//! b.add_transition(cs0, "Ln(1)", cs0, "⊥");
//! b.add_transition(cs0, "Evct", cs1, "0");
//! b.add_transition(cs1, "Ln(0)", cs1, "⊥");
//! b.add_transition(cs1, "Ln(1)", cs0, "⊥");
//! b.add_transition(cs1, "Evct", cs0, "1");
//! let target = b.build(cs0).unwrap();
//!
//! // Any closure producing a teacher is an `OracleFactory`.
//! let teacher = target.clone();
//! let factory = move || MealyOracle::new(teacher.clone());
//! let mut equivalence = WpMethodOracle::new(1);
//! let (learned, stats) = learn_mealy(
//!     target.inputs().to_vec(),
//!     &factory,
//!     &mut equivalence,
//!     LearnOptions::default(),
//! )
//! .unwrap();
//! assert_eq!(learned.num_states(), 2);
//! assert!(automata::equivalent(&learned, &target));
//! assert!(stats.membership_queries > 0);
//! assert_eq!(
//!     stats.membership_queries,
//!     stats.cache_hits + stats.cache_misses,
//! );
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod cache;
mod equivalence;
mod lstar;
mod oracle;
mod pool;
mod table;
mod wmethod;

pub use cache::{CacheVerdict, QueryCache, TrieCursor};
pub use equivalence::{RandomWalkOracle, WMethodOracle, WpMethodOracle};
pub use lstar::{
    learn_mealy, LearnError, LearnOptions, LearnPhase, LearnPhases, LearnProgress, LearnStats,
    PhaseStats,
};
pub use oracle::{EquivalenceOracle, MealyOracle, MembershipOracle, NonDeterminism, OracleError};
pub use pool::{OracleFactory, QueryPool, SuiteOutcome};
pub use wmethod::{
    characterization_set, state_cover, transition_cover, w_method_suite, w_method_suite_iter,
    wp_method_suite, wp_method_suite_iter, WMethodSuite, WpMethodSuite,
};
