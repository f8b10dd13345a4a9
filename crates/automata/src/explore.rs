//! Reachability construction: turn a deterministic step function into a
//! [`Mealy`] machine by breadth-first exploration.
//!
//! It builds the small machines of this crate's tests and examples.  The
//! policy automata — the Table 2 ground truth and the machines of the §5
//! synthesized programs — come from `policies::policy_to_mealy`, which runs
//! the same breadth-first walk over a policy's state keys.

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;

use crate::mealy::{Mealy, MealyBuildError, StateId};

/// Bound on the exploration to guard against non-terminating or unexpectedly
/// large state spaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExploreLimit {
    /// Maximum number of distinct states to enumerate.
    pub max_states: usize,
}

impl Default for ExploreLimit {
    fn default() -> Self {
        // PLRU at associativity 16 has 32768 states (Table 2); default to a
        // bound comfortably above that.
        ExploreLimit {
            max_states: 1 << 20,
        }
    }
}

/// Error raised by [`explore`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExploreError {
    /// The exploration exceeded [`ExploreLimit::max_states`].
    StateLimitExceeded(usize),
    /// The resulting machine could not be built (should not happen for a
    /// deterministic step function; kept for completeness).
    Build(MealyBuildError),
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExploreError::StateLimitExceeded(n) => {
                write!(f, "reachable state space exceeds the limit of {n} states")
            }
            ExploreError::Build(e) => write!(f, "failed to build explored machine: {e}"),
        }
    }
}

impl std::error::Error for ExploreError {}

impl From<MealyBuildError> for ExploreError {
    fn from(e: MealyBuildError) -> Self {
        ExploreError::Build(e)
    }
}

/// Enumerates the reachable state space of a deterministic transition system
/// and returns it as a [`Mealy`] machine.
///
/// * `initial` — the initial semantic state;
/// * `inputs` — the input alphabet (canonical order preserved);
/// * `step` — the deterministic step function `(state, input) -> (state', output)`.
///
/// Semantic states are deduplicated by equality/hash, so `S` must encode the
/// *complete* control state (two states comparing equal must behave
/// identically forever).
///
/// # Errors
///
/// Returns [`ExploreError::StateLimitExceeded`] if more than
/// `limit.max_states` distinct states are reachable.
///
/// # Example
///
/// ```
/// use automata::{explore, ExploreLimit};
///
/// // A modulo-3 counter that outputs whether the counter wrapped.
/// let m = explore(
///     0u8,
///     vec!["tick"],
///     |s, _| ((s + 1) % 3, (s + 1) % 3 == 0),
///     ExploreLimit::default(),
/// )
/// .unwrap();
/// assert_eq!(m.num_states(), 3);
/// assert_eq!(m.output_word(["tick", "tick", "tick"].iter()), vec![false, false, true]);
/// ```
pub fn explore<S, I, O>(
    initial: S,
    inputs: Vec<I>,
    mut step: impl FnMut(&S, &I) -> (S, O),
    limit: ExploreLimit,
) -> Result<Mealy<I, O>, ExploreError>
where
    S: Clone + Eq + Hash,
    I: Clone + Eq + Hash + fmt::Debug,
    O: Clone + Eq + fmt::Debug,
{
    let mut ids: HashMap<S, StateId> = HashMap::new();
    let mut worklist: Vec<S> = Vec::new();
    let mut transitions: Vec<Vec<(StateId, O)>> = Vec::new();

    ids.insert(initial.clone(), StateId(0));
    worklist.push(initial);
    let mut next_unprocessed = 0usize;

    while next_unprocessed < worklist.len() {
        let state = worklist[next_unprocessed].clone();
        next_unprocessed += 1;
        let mut row = Vec::with_capacity(inputs.len());
        for input in &inputs {
            let (succ, out) = step(&state, input);
            let next_id = match ids.get(&succ) {
                Some(&id) => id,
                None => {
                    let id = StateId(ids.len());
                    if ids.len() >= limit.max_states {
                        return Err(ExploreError::StateLimitExceeded(limit.max_states));
                    }
                    ids.insert(succ.clone(), id);
                    worklist.push(succ);
                    id
                }
            };
            row.push((next_id, out));
        }
        transitions.push(row);
    }

    Ok(Mealy::from_tables(inputs, transitions, StateId(0))?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explores_a_counter() {
        let m = explore(
            0u32,
            vec![1u32, 2u32],
            |s, i| ((s + i) % 4, (s + i) % 4),
            ExploreLimit::default(),
        )
        .unwrap();
        assert_eq!(m.num_states(), 4);
        assert_eq!(m.output_word([&1, &1, &2].into_iter()), vec![1, 2, 0]);
    }

    #[test]
    fn respects_state_limit() {
        let err = explore(
            0u64,
            vec![()],
            |s, _| (s + 1, ()),
            ExploreLimit { max_states: 10 },
        )
        .unwrap_err();
        assert_eq!(err, ExploreError::StateLimitExceeded(10));
    }

    #[test]
    fn single_state_machine() {
        let m = explore(
            0u8,
            vec!["a", "b"],
            |_, i| (0, i.len()),
            ExploreLimit::default(),
        )
        .unwrap();
        assert_eq!(m.num_states(), 1);
        assert_eq!(m.output_word(["a", "b"].iter()), vec![1, 1]);
    }
}
