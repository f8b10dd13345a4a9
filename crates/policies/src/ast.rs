//! The abstract syntax of the paper's §5 policy programs.
//!
//! A program is four rules over per-line ages: *promotion* (what a hit does
//! to the accessed line and the others), *eviction* (which line is the
//! victim), *insertion* (the age given to the filled line, and what the fill
//! does to the others) and *normalization* (how an invariant such as "some
//! line has the maximum age" is restored).  [`PolicyKind::program`] defines
//! eight of the crate's ten policies this way, and the synthesizer of §5
//! searches the same language for an explanation of a learned automaton.
//!
//! [`PolicyKind::program`]: crate::PolicyKind::program

use std::fmt;

/// A guard over ages, evaluated against a line's age (and, where applicable,
/// the age of the line being promoted/inserted).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Guard {
    /// Always true.
    Always,
    /// The age equals the constant.
    AgeEq(u8),
    /// The age is strictly less than the constant.
    AgeLt(u8),
    /// The age is strictly greater than the constant.
    AgeGt(u8),
    /// The age is strictly less than the touched line's (pre-update) age.
    LtTouched,
    /// The age is strictly greater than the touched line's (pre-update) age.
    GtTouched,
    /// The age equals the touched line's (pre-update) age.
    EqTouched,
}

impl Guard {
    /// Evaluates the guard for a line of age `age`, where `touched` is the
    /// pre-update age of the accessed/inserted line.
    pub fn eval(self, age: u8, touched: u8) -> bool {
        match self {
            Guard::Always => true,
            Guard::AgeEq(k) => age == k,
            Guard::AgeLt(k) => age < k,
            Guard::AgeGt(k) => age > k,
            Guard::LtTouched => age < touched,
            Guard::GtTouched => age > touched,
            Guard::EqTouched => age == touched,
        }
    }
}

impl fmt::Display for Guard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Guard::Always => write!(f, "true"),
            Guard::AgeEq(k) => write!(f, "age == {k}"),
            Guard::AgeLt(k) => write!(f, "age < {k}"),
            Guard::AgeGt(k) => write!(f, "age > {k}"),
            Guard::LtTouched => write!(f, "age < age[pos]"),
            Guard::GtTouched => write!(f, "age > age[pos]"),
            Guard::EqTouched => write!(f, "age == age[pos]"),
        }
    }
}

/// An age-update expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AgeExpr {
    /// Keep the age unchanged.
    Keep,
    /// Set the age to a constant.
    Const(u8),
    /// Increment the age, saturating at the maximum age.
    Inc,
    /// Decrement the age, saturating at zero.
    Dec,
}

impl AgeExpr {
    /// Evaluates the expression on `age` with the given maximum age.
    pub fn eval(self, age: u8, max_age: u8) -> u8 {
        match self {
            AgeExpr::Keep => age,
            AgeExpr::Const(k) => k.min(max_age),
            AgeExpr::Inc => (age + 1).min(max_age),
            AgeExpr::Dec => age.saturating_sub(1),
        }
    }
}

impl fmt::Display for AgeExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AgeExpr::Keep => write!(f, "age"),
            AgeExpr::Const(k) => write!(f, "{k}"),
            AgeExpr::Inc => write!(f, "age + 1"),
            AgeExpr::Dec => write!(f, "age - 1"),
        }
    }
}

/// One guarded update case (`if guard then age := expr`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RuleCase {
    /// Condition on the (pre-update) age.
    pub guard: Guard,
    /// Update applied when the guard holds.
    pub expr: AgeExpr,
}

impl RuleCase {
    /// The case `if guard then age := expr`.
    pub const fn new(guard: Guard, expr: AgeExpr) -> Self {
        RuleCase { guard, expr }
    }
}

impl fmt::Display for RuleCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "if {} then age := {}", self.guard, self.expr)
    }
}

/// The promotion rule: how a cache hit updates the control state.  The
/// default changes nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct PromoteRule {
    /// Guarded update cases for the accessed line, evaluated in order
    /// (first match wins); if no case matches the age is kept.
    pub self_cases: Vec<RuleCase>,
    /// Optional guarded update of every other line (the guard compares the
    /// other line's age with the accessed line's pre-update age).
    pub others: Option<RuleCase>,
}

/// The eviction rule: how the victim line is selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EvictRule {
    /// The left-most line whose age equals the constant; if no line matches,
    /// the left-most line with the maximum age is used as a fallback.
    FirstWithAge(u8),
    /// The left-most line holding the maximum age currently present.
    FirstWithMaxAge,
    /// The left-most line holding the minimum age currently present.
    FirstWithMinAge,
}

impl fmt::Display for EvictRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "first line (from the left) with ")?;
        match self {
            EvictRule::FirstWithAge(k) => write!(f, "age == {k}"),
            EvictRule::FirstWithMaxAge => write!(f, "the largest age"),
            EvictRule::FirstWithMinAge => write!(f, "the smallest age"),
        }
    }
}

/// The insertion rule: how a miss updates the control state after the victim
/// has been chosen.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct InsertRule {
    /// Age assigned to the inserted line.
    pub self_age: u8,
    /// Optional guarded update of every other line (guard compares with the
    /// victim's pre-insertion age).
    pub others: Option<RuleCase>,
}

/// A normalization operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NormalizeOp {
    /// While no line has the maximum age, increment the age of every line
    /// (optionally except the just accessed/inserted one).
    AgeUpWhileNoMax {
        /// Whether the touched line is exempt from the increments.
        except_touched: bool,
    },
    /// If every line has age `value`, set all lines except the touched one to
    /// `reset_to` (the MRU-bit style normalization).
    ResetOthersWhenAllEqual {
        /// The age value that triggers the reset.
        value: u8,
        /// The age the other lines are reset to.
        reset_to: u8,
    },
}

impl fmt::Display for NormalizeOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NormalizeOp::AgeUpWhileNoMax { except_touched } => {
                let lines = if *except_touched {
                    "other line"
                } else {
                    "line"
                };
                write!(
                    f,
                    "while no line has the maximum age, increment every {lines}'s age"
                )
            }
            NormalizeOp::ResetOthersWhenAllEqual { value, reset_to } => write!(
                f,
                "if every line has age {value}, set every other line's age to {reset_to}"
            ),
        }
    }
}

/// Where and how the control state is normalized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NormalizeRule {
    /// The operation (`None` = identity, the Simple template).
    pub op: Option<NormalizeOp>,
    /// Apply after a hit.
    pub after_hit: bool,
    /// Apply before selecting the victim of a miss.
    pub before_miss: bool,
    /// Apply after the insertion of a miss.
    pub after_miss: bool,
}

impl NormalizeRule {
    /// The identity normalization (Simple template).
    pub fn identity() -> Self {
        NormalizeRule {
            op: None,
            after_hit: false,
            before_miss: false,
            after_miss: false,
        }
    }
}

/// A complete policy program: the definition of a built-in policy
/// ([`PolicyKind::program`](crate::PolicyKind::program)) or a synthesized
/// explanation of a learned one.  [`ProgramPolicy`](crate::ProgramPolicy)
/// runs it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PolicyProgram {
    /// Maximum age value: 3 for the 2-bit ages of SRRIP, New1 and New2 (and
    /// the paper's synthesis runs), 1 for MRU's bits, `associativity − 1`
    /// for the ranks of FIFO, LRU and LIP.
    pub max_age: u8,
    /// Initial per-line ages (the `s0` hole of the template), each at most
    /// `max_age`; one per cache line.
    pub initial_ages: Vec<u8>,
    /// Promotion rule.
    pub promote: PromoteRule,
    /// Eviction rule.
    pub evict: EvictRule,
    /// Insertion rule.
    pub insert: InsertRule,
    /// Normalization rule.
    pub normalize: NormalizeRule,
}

impl fmt::Display for PolicyProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "policy program (associativity {}, ages 0..={}):",
            self.initial_ages.len(),
            self.max_age
        )?;
        writeln!(f, "  initial control state: {:?}", self.initial_ages)?;
        writeln!(f, "  promote (on a hit to line pos):")?;
        if self.promote.self_cases.is_empty() {
            writeln!(f, "    leave the accessed line's age unchanged")?;
        }
        for case in &self.promote.self_cases {
            writeln!(f, "    {case}")?;
        }
        if let Some(case) = &self.promote.others {
            writeln!(f, "    for every other line: {case}")?;
        }
        writeln!(f, "  evict: {}", self.evict)?;
        writeln!(
            f,
            "  insert: set the filled line's age to {}",
            self.insert.self_age
        )?;
        if let Some(case) = &self.insert.others {
            writeln!(f, "    for every other line: {case}")?;
        }
        match self.normalize.op {
            None => write!(f, "  normalize: identity"),
            Some(op) => {
                let n = &self.normalize;
                let sites = [
                    (n.after_hit, "after a hit"),
                    (n.before_miss, "before a miss"),
                    (n.after_miss, "after a miss"),
                ];
                let sites: Vec<_> = sites.iter().filter(|s| s.0).map(|s| s.1).collect();
                write!(f, "  normalize ({}): {}", sites.join(", "), op)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PolicyKind;

    #[test]
    fn guards_and_expressions_evaluate() {
        assert!(Guard::Always.eval(2, 0));
        assert!(Guard::AgeEq(2).eval(2, 0));
        assert!(!Guard::AgeEq(2).eval(1, 0));
        assert!(Guard::LtTouched.eval(1, 2));
        assert!(!Guard::GtTouched.eval(1, 2));
        assert_eq!(AgeExpr::Inc.eval(3, 3), 3);
        assert_eq!(AgeExpr::Dec.eval(0, 3), 0);
        assert_eq!(AgeExpr::Const(7).eval(0, 3), 3);
        assert_eq!(AgeExpr::Keep.eval(2, 3), 2);
    }

    #[test]
    fn display_is_human_readable() {
        let text = PolicyKind::Lru.program(4).unwrap().to_string();
        assert!(text.contains("initial control state: [3, 2, 1, 0]"));
        assert!(text.contains("evict: first line"));
        assert!(text.ends_with("normalize: identity"));
    }
}
