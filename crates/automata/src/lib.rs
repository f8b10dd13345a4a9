//! Deterministic Mealy machines and the automata-theoretic toolbox used by the
//! CacheQuery/Polca reproduction.
//!
//! The paper models replacement policies as deterministic, finite-state Mealy
//! machines (Definition 2.1) and caches as the labelled transition systems they
//! induce (Definition 2.3).  Everything the learning pipeline produces or
//! consumes — hypotheses, ground-truth policy automata, synthesized programs —
//! is ultimately compared at the level of Mealy-machine trace semantics, so
//! this crate provides:
//!
//! * [`Mealy`] — a compact, table-based deterministic Mealy machine over
//!   arbitrary input/output alphabets;
//! * [`explore`] — reachability construction that turns any deterministic
//!   step function into a [`Mealy`] (it builds the small machines of tests
//!   and examples; the policy automata come from `policies::policy_to_mealy`);
//! * [`equivalent`] — product-based trace-equivalence checking (the search
//!   over cache-line relabellings lives in `polca::identify_policy`);
//! * [`minimize`] — partition-refinement minimization;
//! * [`to_dot`] and [`render_mealy`] — Graphviz and plain-text export of
//!   learned and reference models.
//!
//! # Example
//!
//! ```
//! use automata::MealyBuilder;
//!
//! // The 2-way LRU policy of Example 2.2 in the paper.
//! let mut b = MealyBuilder::new(vec!["Ln(0)", "Ln(1)", "Evct"]);
//! let cs0 = b.add_state();
//! let cs1 = b.add_state();
//! b.add_transition(cs0, "Ln(0)", cs1, "⊥");
//! b.add_transition(cs0, "Ln(1)", cs0, "⊥");
//! b.add_transition(cs0, "Evct", cs1, "0");
//! b.add_transition(cs1, "Ln(0)", cs1, "⊥");
//! b.add_transition(cs1, "Ln(1)", cs0, "⊥");
//! b.add_transition(cs1, "Evct", cs0, "1");
//! let lru = b.build(cs0).unwrap();
//! assert_eq!(lru.num_states(), 2);
//! assert_eq!(
//!     lru.output_word(["Ln(1)", "Evct", "Evct"].iter()),
//!     vec!["⊥", "0", "1"]
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dot;
mod equivalence;
mod explore;
pub mod fxhash;
mod mealy;
mod minimize;
mod text;
mod walk;

pub use dot::to_dot;
pub use equivalence::{check_equivalence, equivalent, Counterexample};
pub use explore::{explore, ExploreError, ExploreLimit};
pub use mealy::{Mealy, MealyBuildError, MealyBuilder, StateId};
pub use minimize::minimize;
pub use text::render_mealy;
pub use walk::{random_walk_check, WalkDivergence};
