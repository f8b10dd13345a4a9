//! Enumeration of the template's rule space (the "generators" of §5).

use policies::{
    AgeExpr, EvictRule, Guard, InsertRule, NormalizeOp, NormalizeRule, PromoteRule, RuleCase,
};

/// Guards available for the accessed line's own update.
pub fn self_guards(max_age: u8) -> Vec<Guard> {
    let mut guards = vec![Guard::Always];
    for k in 0..=max_age {
        guards.push(Guard::AgeEq(k));
    }
    for k in 1..=max_age {
        guards.push(Guard::AgeLt(k));
    }
    for k in 0..max_age {
        guards.push(Guard::AgeGt(k));
    }
    guards
}

/// Guards available for the "all other lines" updates (they may compare with
/// the touched line's age).
pub fn other_guards(max_age: u8) -> Vec<Guard> {
    let mut guards = self_guards(max_age);
    guards.extend([Guard::LtTouched, Guard::GtTouched, Guard::EqTouched]);
    guards
}

/// Age-update expressions.
pub fn age_exprs(max_age: u8) -> Vec<AgeExpr> {
    let mut exprs = vec![AgeExpr::Keep, AgeExpr::Inc, AgeExpr::Dec];
    for k in 0..=max_age {
        exprs.push(AgeExpr::Const(k));
    }
    exprs
}

/// Single guarded cases (guard × expression), excluding no-ops.
fn cases(guards: &[Guard], exprs: &[AgeExpr]) -> Vec<RuleCase> {
    let mut result = Vec::new();
    for &guard in guards {
        for &expr in exprs {
            if expr == AgeExpr::Keep {
                continue; // a Keep case is equivalent to omitting the case
            }
            result.push(RuleCase { guard, expr });
        }
    }
    result
}

/// Optional "update all other lines" components: `None` plus every case.
pub fn other_updates(max_age: u8) -> Vec<Option<RuleCase>> {
    let mut result = vec![None];
    result.extend(
        cases(&other_guards(max_age), &age_exprs(max_age))
            .into_iter()
            .map(Some),
    );
    result
}

/// Promotion rules with a single case (searched first; sufficient for every
/// policy of §8 except New2).
pub fn single_case_promotes(max_age: u8) -> Vec<PromoteRule> {
    let self_cases: Vec<Vec<RuleCase>> = std::iter::once(Vec::new())
        .chain(
            cases(&self_guards(max_age), &age_exprs(max_age))
                .into_iter()
                .map(|c| vec![c]),
        )
        .collect();
    let mut result = Vec::new();
    for self_case in &self_cases {
        for others in other_updates(max_age) {
            result.push(PromoteRule {
                self_cases: self_case.clone(),
                others,
            });
        }
    }
    result
}

/// Promotion rules with exactly two cases (Extended template; needed for
/// New2's two-step promotion).  To keep the space manageable the two-case
/// rules do not update other lines — none of the known two-case policies
/// needs both.
pub fn two_case_promotes(max_age: u8) -> Vec<PromoteRule> {
    let all_cases = cases(&self_guards(max_age), &age_exprs(max_age));
    let mut result = Vec::new();
    for first in &all_cases {
        // An unconditional first case shadows the second.
        if first.guard == Guard::Always {
            continue;
        }
        for second in &all_cases {
            result.push(PromoteRule {
                self_cases: vec![*first, *second],
                others: None,
            });
        }
    }
    result
}

/// Eviction rules.
pub fn evict_rules(max_age: u8) -> Vec<EvictRule> {
    let mut result = vec![EvictRule::FirstWithMaxAge, EvictRule::FirstWithMinAge];
    for k in 0..=max_age {
        result.push(EvictRule::FirstWithAge(k));
    }
    result
}

/// Insertion rules.
pub fn insert_rules(max_age: u8) -> Vec<InsertRule> {
    let mut result = Vec::new();
    for self_age in 0..=max_age {
        for others in other_updates(max_age) {
            result.push(InsertRule { self_age, others });
        }
    }
    result
}

/// Normalization rules for the given template flavour.
pub fn normalize_rules(max_age: u8, extended: bool) -> Vec<NormalizeRule> {
    if !extended {
        return vec![NormalizeRule::identity()];
    }
    let mut ops = vec![
        NormalizeOp::AgeUpWhileNoMax {
            except_touched: false,
        },
        NormalizeOp::AgeUpWhileNoMax {
            except_touched: true,
        },
    ];
    for value in 0..=max_age {
        for reset_to in 0..=max_age {
            if reset_to != value {
                ops.push(NormalizeOp::ResetOthersWhenAllEqual { value, reset_to });
            }
        }
    }
    let mut result = vec![NormalizeRule::identity()];
    for op in ops {
        for mask in 1..8u8 {
            result.push(NormalizeRule {
                op: Some(op),
                after_hit: mask & 1 != 0,
                before_miss: mask & 2 != 0,
                after_miss: mask & 4 != 0,
            });
        }
    }
    result
}

/// Normalization rules restricted to the miss path (used by the first search
/// phase, which only observes eviction-only traces).
pub fn miss_normalize_rules(max_age: u8, extended: bool) -> Vec<NormalizeRule> {
    normalize_rules(max_age, extended)
        .into_iter()
        .filter(|r| !r.after_hit)
        .collect()
}

/// All candidate initial age vectors for the given associativity, bounded by
/// `max_age`.
pub fn initial_age_vectors(associativity: usize, max_age: u8) -> Vec<Vec<u8>> {
    let mut result: Vec<Vec<u8>> = vec![Vec::new()];
    for _ in 0..associativity {
        let mut next = Vec::with_capacity(result.len() * (max_age as usize + 1));
        for prefix in &result {
            for age in 0..=max_age {
                let mut v = prefix.clone();
                v.push(age);
                next.push(v);
            }
        }
        result = next;
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumerations_have_expected_sizes() {
        // max_age = 3: 1 + 4 + 3 + 3 = 11 self guards, 14 other guards,
        // 3 + 4 = 7 expressions (6 without Keep).
        assert_eq!(self_guards(3).len(), 11);
        assert_eq!(other_guards(3).len(), 14);
        assert_eq!(age_exprs(3).len(), 7);
        assert_eq!(other_updates(3).len(), 1 + 14 * 6);
        assert_eq!(evict_rules(3).len(), 6);
        assert_eq!(insert_rules(3).len(), 4 * (1 + 14 * 6));
        assert_eq!(initial_age_vectors(2, 3).len(), 16);
        assert_eq!(initial_age_vectors(4, 1).len(), 16);
    }

    #[test]
    fn simple_normalization_is_identity_only() {
        assert_eq!(normalize_rules(3, false).len(), 1);
        assert!(normalize_rules(3, true).len() > 1);
        assert!(miss_normalize_rules(3, true).iter().all(|r| !r.after_hit));
    }

    #[test]
    fn two_case_promotes_skip_shadowed_cases() {
        assert!(two_case_promotes(3)
            .iter()
            .all(|p| p.self_cases[0].guard != Guard::Always));
    }

    #[test]
    fn promote_enumeration_contains_the_known_rules() {
        // LRU: self := 0 unconditionally, others < touched += 1.
        let lru = policies::PolicyKind::Lru.program(4).unwrap().promote;
        assert!(single_case_promotes(3).contains(&lru));
        // New2: two-case promotion.
        let new2 = policies::PolicyKind::New2.program(4).unwrap().promote;
        assert!(two_case_promotes(3).contains(&new2));
    }
}
