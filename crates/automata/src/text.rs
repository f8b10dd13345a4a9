//! Plain-text rendering of Mealy machines.
//!
//! The original artifact stores learned models on disk (and the CacheQuery
//! frontend caches query responses in LevelDB).  This reproduction writes a
//! small line-based format instead, which the byte-identity tests compare
//! and the examples print:
//!
//! ```text
//! mealy v1
//! inputs <i0> <i1> ...
//! states <n>
//! initial <k>
//! trans <state> <input-index> <next-state> <output>
//! ...
//! ```
//!
//! Symbols are rendered with `Display`.

use std::fmt;
use std::hash::Hash;

use crate::mealy::Mealy;

/// Renders `m` in the plain-text model format.
pub fn render_mealy<I, O>(m: &Mealy<I, O>) -> String
where
    I: Clone + Eq + Hash + fmt::Debug + fmt::Display,
    O: Clone + Eq + fmt::Debug + fmt::Display,
{
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "mealy v1");
    let _ = write!(out, "inputs");
    for i in m.inputs() {
        let _ = write!(out, " {i}");
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "states {}", m.num_states());
    let _ = writeln!(out, "initial {}", m.initial().index());
    for s in m.states() {
        for (ii, _) in m.inputs().iter().enumerate() {
            let (t, o) = m.step_by_index(s, ii);
            let _ = writeln!(out, "trans {} {} {} {}", s.index(), ii, t.index(), o);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mealy::MealyBuilder;

    #[test]
    fn renders_the_header_and_one_line_per_transition() {
        let mut b = MealyBuilder::new(vec!["Ln(0)".to_string(), "Evct".to_string()]);
        let s0 = b.add_state();
        let s1 = b.add_state();
        b.add_transition(s0, "Ln(0)".into(), s0, "none".into());
        b.add_transition(s0, "Evct".into(), s1, "0".into());
        b.add_transition(s1, "Ln(0)".into(), s0, "none".into());
        b.add_transition(s1, "Evct".into(), s1, "0".into());
        let m: Mealy<String, String> = b.build(s0).unwrap();
        assert_eq!(
            render_mealy(&m),
            "mealy v1\n\
             inputs Ln(0) Evct\n\
             states 2\n\
             initial 0\n\
             trans 0 0 0 none\n\
             trans 0 1 1 0\n\
             trans 1 0 0 none\n\
             trans 1 1 1 0\n"
        );
    }
}
