//! The two template flavours of the §5 language (Table 5's "Template"
//! column).  The language itself, [`PolicyProgram`], lives in `policies`,
//! where it defines the built-in policies.

use std::fmt;

use policies::PolicyProgram;

/// Which template flavour a program fits in (Table 5's "Template" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Template {
    /// Normalization fixed to the identity, single-case rules, expressions
    /// over constants and the line's own age only.
    Simple,
    /// Full template: normalization rules, two-case promotion, expressions
    /// that may refer to the accessed line's age.
    Extended,
}

impl Template {
    /// The flavour `program` belongs to: Simple iff normalization is the
    /// identity and promotion needs a single case.
    pub fn of(program: &PolicyProgram) -> Template {
        if program.normalize.op.is_none() && program.promote.self_cases.len() <= 1 {
            Template::Simple
        } else {
            Template::Extended
        }
    }
}

impl fmt::Display for Template {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Template::Simple => write!(f, "Simple"),
            Template::Extended => write!(f, "Extended"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use policies::{NormalizeOp, NormalizeRule, PolicyKind};

    #[test]
    fn template_classification() {
        let mut program = PolicyKind::Lru.program(4).unwrap();
        // LRU's others-guard refers to the touched line, but normalization is
        // the identity and promotion has one case: the paper classifies LRU
        // under the Simple template, and so do we.
        assert_eq!(Template::of(&program), Template::Simple);
        program.normalize = NormalizeRule {
            op: Some(NormalizeOp::AgeUpWhileNoMax {
                except_touched: false,
            }),
            after_hit: true,
            before_miss: false,
            after_miss: true,
        };
        assert_eq!(Template::of(&program), Template::Extended);
    }
}
