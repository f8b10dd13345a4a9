//! Template-based synthesis of human-readable policy explanations.
//!
//! Section 5 of the paper turns learned automata into small programs built
//! from four rules — *promotion* (what happens to the accessed line on a
//! hit), *eviction* (how the victim is selected), *insertion* (the age given
//! to the filled line) and *normalization* (how control-state invariants are
//! restored) — over per-line ages.  The language, [`policies::PolicyProgram`],
//! and its interpreter, [`policies::ProgramPolicy`], live in `policies`,
//! where programs define eight of the built-in policies; this crate keeps
//! the enumerator of the rule space, the [`Template`] flavours and the
//! search that verifies candidates.  The original implementation encodes the
//! template in Sketch and asks a SyGuS solver for an instantiation that
//! matches the learned automaton; this reproduction performs a staged
//! enumerative search over the same rule space and verifies candidates by
//! building their induced Mealy machine and checking trace equivalence
//! against the learned automaton, which gives the same end-to-end guarantee
//! (a returned program behaves exactly like the learned policy).
//!
//! Like the paper, two template flavours exist: the *Simple* template fixes
//! normalization to the identity and restricts rules to a single case, the
//! *Extended* template adds normalization and two-case promotion (§8.1,
//! Table 5).
//!
//! # Example
//!
//! ```
//! use policies::{policy_to_mealy, PolicyKind};
//! use synth::{synthesize, SynthesisConfig};
//!
//! let learned = policy_to_mealy(PolicyKind::Fifo.build(4).unwrap().as_ref(), 1 << 16);
//! let result = synthesize(&learned, 4, &SynthesisConfig::default()).expect("FIFO is explainable");
//! assert_eq!(result.template, synth::Template::Simple);
//! println!("{}", result.program);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ast;
mod enumerate;
mod synthesize;

pub use ast::Template;
pub use synthesize::{synthesize, SynthesisConfig, SynthesisResult, SynthesisStats};
