//! Running a [`PolicyProgram`] as a replacement policy: the eight policies
//! defined by their §5 programs
//! ([`PolicyKind::build_reference`](crate::PolicyKind::build_reference)),
//! and the synthesizer's candidates, whose induced Mealy machines
//! ([`policy_to_mealy`](crate::policy_to_mealy)) it compares with the
//! learned automaton.

use std::sync::Arc;

use crate::ast::{EvictRule, NormalizeOp, PolicyProgram, RuleCase};
use crate::{assert_line_in_range, assert_valid_associativity, ReplacementPolicy};

/// A running instance of a [`PolicyProgram`]: the program, shared by every
/// clone, plus the current per-line ages.
///
/// A step (hit, victim, insertion, reset) allocates nothing, and a clone
/// copies only the ages.
#[derive(Debug, Clone)]
pub struct ProgramPolicy {
    rules: Arc<Rules>,
    ages: Vec<u8>,
}

/// A program with its per-line rules tabulated: every age is at most
/// `max_age`, so a rule case is a map from the ages `0..=max_age` (and, for
/// the updates of the other lines, the touched line's old age) to new ages.
#[derive(Debug)]
struct Rules {
    program: PolicyProgram,
    name: &'static str,
    /// `promoted[age]`: the accessed line's age after a hit at `age`.
    promoted: Box<[u8]>,
    /// `hit_others[touched * (max_age + 1) + age]`: a line's age after a hit
    /// on a line of age `touched`.
    hit_others: Option<Box<[u8]>>,
    /// As `hit_others`, for a fill of a line of age `touched`.
    fill_others: Option<Box<[u8]>>,
}

impl Rules {
    fn new(name: &'static str, program: PolicyProgram) -> Self {
        let max_age = program.max_age;
        let ages = || 0..=max_age;
        let cases = &program.promote.self_cases;
        let promote = |age| match cases.iter().find(|case| case.guard.eval(age, age)) {
            Some(case) => case.expr.eval(age, max_age),
            None => age,
        };
        let others = |rule: Option<RuleCase>| {
            let case = rule?;
            let update = move |touched, age| match case.guard.eval(age, touched) {
                true => case.expr.eval(age, max_age),
                false => age,
            };
            let table = ages().flat_map(|touched| ages().map(move |age| update(touched, age)));
            Some(table.collect())
        };
        Rules {
            hit_others: others(program.promote.others),
            fill_others: others(program.insert.others),
            promoted: ages().map(promote).collect(),
            program,
            name,
        }
    }
}

impl ProgramPolicy {
    /// Instantiates a synthesized program in its initial control state; its
    /// [`name`](ReplacementPolicy::name) is `"synthesized"`.
    ///
    /// # Panics
    ///
    /// Panics if the program has no lines, or an initial age exceeds
    /// `max_age`.
    pub fn new(program: PolicyProgram) -> Self {
        Self::named("synthesized", program)
    }

    /// Instantiates `program` under `name` (see [`ProgramPolicy::new`]).
    pub(crate) fn named(name: &'static str, program: PolicyProgram) -> Self {
        assert_valid_associativity(program.initial_ages.len());
        let ages_fit = program.initial_ages.iter().all(|&a| a <= program.max_age);
        assert!(ages_fit, "initial ages must not exceed the maximum age");
        ProgramPolicy {
            ages: program.initial_ages.clone(),
            rules: Arc::new(Rules::new(name, program)),
        }
    }
}

/// Applies a tabulated "every other line" update for a touched line of age
/// `touched`, to the touched line too: every caller overwrites it.
fn update_others(table: Option<&[u8]>, max_age: u8, ages: &mut [u8], touched: u8) {
    if let Some(table) = table {
        let stride = usize::from(max_age) + 1;
        let row = &table[usize::from(touched) * stride..][..stride];
        for age in ages.iter_mut() {
            *age = row[usize::from(*age)];
        }
    }
}

// Inlined into every step: the MRU, New1 and New2 programs run it per access.
#[inline(always)]
fn normalize(program: &PolicyProgram, ages: &mut [u8], touched: Option<usize>) {
    let max_age = program.max_age;
    match program.normalize.op {
        Some(NormalizeOp::AgeUpWhileNoMax { except_touched }) => {
            while !ages.contains(&max_age) {
                let mut changed = false;
                for (i, age) in ages.iter_mut().enumerate() {
                    let exempt = except_touched && Some(i) == touched;
                    if !exempt && *age < max_age {
                        *age += 1;
                        changed = true;
                    }
                }
                if !changed {
                    // A single line that is itself exempt: nothing can age.
                    break;
                }
            }
        }
        Some(NormalizeOp::ResetOthersWhenAllEqual { value, reset_to })
            if ages.iter().all(|&a| a == value) =>
        {
            for (i, age) in ages.iter_mut().enumerate() {
                if Some(i) != touched {
                    *age = reset_to.min(max_age);
                }
            }
        }
        _ => {}
    }
}

impl ReplacementPolicy for ProgramPolicy {
    fn associativity(&self) -> usize {
        self.ages.len()
    }

    fn on_hit(&mut self, line: usize) {
        assert_line_in_range(line, self.ages.len());
        let (rules, ages) = (&*self.rules, &mut self.ages);
        let program = &rules.program;
        let old = ages[line];
        update_others(rules.hit_others.as_deref(), program.max_age, ages, old);
        ages[line] = rules.promoted[usize::from(old)];
        if program.normalize.after_hit {
            normalize(program, ages, Some(line));
        }
    }

    fn victim(&mut self) -> usize {
        let (program, ages) = (&self.rules.program, &mut self.ages);
        if program.normalize.before_miss {
            normalize(program, ages, None);
        }
        let first = |target| ages.iter().position(|&a| a == target);
        let oldest = || ages.iter().max().and_then(|&max| first(max));
        match program.evict {
            EvictRule::FirstWithAge(k) => first(k).or_else(oldest),
            // No age exceeds `max_age` (the initial ages are checked, and every
            // rule clamps), so a line at `max_age` holds the largest age.
            EvictRule::FirstWithMaxAge => first(program.max_age).or_else(oldest),
            EvictRule::FirstWithMinAge => ages.iter().min().and_then(|&min| first(min)),
        }
        .expect("a program has at least one line")
    }

    fn on_insert(&mut self, line: usize) {
        assert_line_in_range(line, self.ages.len());
        let (rules, ages) = (&*self.rules, &mut self.ages);
        let program = &rules.program;
        let old = ages[line];
        update_others(rules.fill_others.as_deref(), program.max_age, ages, old);
        ages[line] = program.insert.self_age.min(program.max_age);
        if program.normalize.after_miss {
            normalize(program, ages, Some(line));
        }
    }

    fn reset(&mut self) {
        self.ages.copy_from_slice(&self.rules.program.initial_ages);
    }

    fn state_key(&self) -> Vec<u32> {
        self.ages.iter().map(|&a| u32::from(a)).collect()
    }

    fn name(&self) -> &'static str {
        self.rules.name
    }

    fn clone_box(&self) -> Box<dyn ReplacementPolicy> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{policy_to_mealy, PolicyKind};
    use automata::check_equivalence;

    fn matches_packed(kind: PolicyKind, assoc: usize) -> bool {
        let program = ProgramPolicy::new(kind.program(assoc).unwrap());
        let machine = policy_to_mealy(&program, 1 << 16);
        let packed = policy_to_mealy(kind.build(assoc).unwrap().as_ref(), 1 << 16);
        check_equivalence(&machine, &packed).is_none()
    }

    #[test]
    fn hand_written_lru_program_matches_lru() {
        assert!(matches_packed(PolicyKind::Lru, 4));
    }

    #[test]
    fn figure_5b_new2_program_matches_new2() {
        assert!(matches_packed(PolicyKind::New2, 4));
    }

    #[test]
    fn reset_restores_the_initial_ages() {
        let mut program = ProgramPolicy::new(PolicyKind::New2.program(4).unwrap());
        program.on_miss();
        program.on_hit(0);
        program.reset();
        assert_eq!(program.state_key(), vec![3, 3, 3, 3]);
    }

    #[test]
    fn evict_rule_falls_back_to_the_maximum() {
        // FirstWithAge(3) on a state without any 3 must still pick a victim.
        let mut program = PolicyKind::Lru.program(4).unwrap();
        program.evict = EvictRule::FirstWithAge(3);
        program.initial_ages = vec![0, 2, 1, 0];
        let mut policy = ProgramPolicy::new(program);
        assert_eq!(policy.victim(), 1);
    }
}
