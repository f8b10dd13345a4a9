//! The staged enumerative synthesizer.

use std::time::{Duration, Instant};

use automata::check_equivalence;
use policies::{
    policy_to_mealy, PolicyInput, PolicyMealy, PolicyOutput, PolicyProgram, ProgramPolicy,
    PromoteRule, ReplacementPolicy,
};

use crate::ast::Template;
use crate::enumerate::{
    evict_rules, initial_age_vectors, insert_rules, miss_normalize_rules, single_case_promotes,
    two_case_promotes,
};

/// Configuration of the synthesis search.
#[derive(Debug, Clone)]
pub struct SynthesisConfig {
    /// Maximum age value (the paper uses 4 age values, i.e. `max_age = 3`).
    pub max_age: u8,
    /// Try the Simple template before the Extended one (as in §8.1).
    pub try_simple_first: bool,
    /// Upper bound on the number of phase-A survivors carried into phase B.
    pub max_phase_a_survivors: usize,
    /// Abort the search after this much wall-clock time.
    pub time_budget: Option<Duration>,
}

impl Default for SynthesisConfig {
    fn default() -> Self {
        SynthesisConfig {
            max_age: 3,
            try_simple_first: true,
            max_phase_a_survivors: 100_000,
            time_budget: None,
        }
    }
}

/// Statistics of a synthesis run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SynthesisStats {
    /// Candidates evaluated in the eviction-only phase.
    pub phase_a_candidates: u64,
    /// Candidates that survived the eviction-only phase.
    pub phase_a_survivors: u64,
    /// Full candidates evaluated in phase B.
    pub phase_b_candidates: u64,
    /// Candidates that reached the full equivalence check.
    pub equivalence_checks: u64,
    /// Wall-clock time of the search.
    pub duration: Duration,
}

/// A successful synthesis.
#[derive(Debug, Clone)]
pub struct SynthesisResult {
    /// The synthesized explanation, trace-equivalent to the learned machine.
    pub program: PolicyProgram,
    /// The template flavour the program belongs to.
    pub template: Template,
    /// Search statistics.
    pub stats: SynthesisStats,
}

/// Eviction-only test words (exercise the evict/insert/normalize rules and
/// the initial state, but never the promotion rule).
fn eviction_words(assoc: usize) -> Vec<Vec<PolicyInput>> {
    (1..=2 * assoc + 4)
        .map(|k| vec![PolicyInput::Evct; k])
        .collect()
}

/// Mixed test words exercising promotion interleaved with evictions.
fn mixed_words(assoc: usize) -> Vec<Vec<PolicyInput>> {
    let mut words = Vec::new();
    let prefixes: Vec<Vec<PolicyInput>> = vec![
        vec![],
        vec![PolicyInput::Evct],
        vec![PolicyInput::Evct, PolicyInput::Evct],
        vec![PolicyInput::Evct; assoc],
    ];
    for prefix in &prefixes {
        for i in 0..assoc {
            for j in 0..assoc {
                let mut word = prefix.clone();
                word.push(PolicyInput::line(i));
                if i != j {
                    word.push(PolicyInput::line(j));
                }
                word.push(PolicyInput::line(i));
                word.extend(vec![PolicyInput::Evct; assoc + 1]);
                words.push(word);
            }
        }
    }
    // Repeated hit/evict alternation catches promotion/normalization timing.
    for i in 0..assoc {
        let mut word = Vec::new();
        for _ in 0..assoc + 2 {
            word.push(PolicyInput::line(i));
            word.push(PolicyInput::Evct);
        }
        words.push(word);
    }
    words
}

/// A test word with the outputs the learned machine gives it.
type Trace = (Vec<PolicyInput>, Vec<PolicyOutput>);

/// Each word with `machine`'s outputs for it.
fn traces(machine: &PolicyMealy, words: Vec<Vec<PolicyInput>>) -> Vec<Trace> {
    let trace = |word: Vec<PolicyInput>| {
        let outputs = machine.output_word(word.iter());
        (word, outputs)
    };
    words.into_iter().map(trace).collect()
}

/// Runs `program` on each trace's word from its initial state, comparing
/// against the trace's outputs and stopping at the first difference.
fn program_matches(program: &PolicyProgram, traces: &[Trace]) -> bool {
    let mut policy = ProgramPolicy::new(program.clone());
    traces.iter().all(|(word, expected)| {
        policy.reset();
        word.iter()
            .zip(expected)
            .all(|(input, exp)| policy.apply(*input) == *exp)
    })
}

/// Synthesizes an explanation for the learned policy automaton `learned` of
/// the given associativity, or returns `None` if the template space contains
/// no equivalent program (e.g. for tree-based PLRU, cf. §8.2).
pub fn synthesize(
    learned: &PolicyMealy,
    associativity: usize,
    config: &SynthesisConfig,
) -> Option<SynthesisResult> {
    let start = Instant::now();
    let mut stats = SynthesisStats::default();

    let templates: &[bool] = if config.try_simple_first {
        &[false, true] // extended = false first (Simple), then Extended
    } else {
        &[true]
    };

    let evict_traces = traces(learned, eviction_words(associativity));
    let mix_traces = traces(learned, mixed_words(associativity));
    let state_bound = (config.max_age as usize + 1).pow(associativity as u32) + 1;

    for &extended in templates {
        if let Some(result) = synthesize_with_template(
            learned,
            associativity,
            config,
            extended,
            &evict_traces,
            &mix_traces,
            state_bound,
            start,
            &mut stats,
        ) {
            return Some(result);
        }
        if exceeded(config, start) {
            break;
        }
    }
    None
}

fn exceeded(config: &SynthesisConfig, start: Instant) -> bool {
    config
        .time_budget
        .is_some_and(|budget| start.elapsed() > budget)
}

#[allow(clippy::too_many_arguments)]
fn synthesize_with_template(
    learned: &PolicyMealy,
    associativity: usize,
    config: &SynthesisConfig,
    extended: bool,
    evict_traces: &[Trace],
    mix_traces: &[Trace],
    state_bound: usize,
    start: Instant,
    stats: &mut SynthesisStats,
) -> Option<SynthesisResult> {
    let max_age = config.max_age;

    // Phase A: fix everything the eviction-only traces can observe.
    let mut survivors: Vec<PolicyProgram> = Vec::new();
    'phase_a: for initial in initial_age_vectors(associativity, max_age) {
        for evict in evict_rules(max_age) {
            for normalize in miss_normalize_rules(max_age, extended) {
                for insert in insert_rules(max_age) {
                    stats.phase_a_candidates += 1;
                    let candidate = PolicyProgram {
                        max_age,
                        initial_ages: initial.clone(),
                        promote: PromoteRule::default(),
                        evict,
                        insert: insert.clone(),
                        normalize,
                    };
                    if program_matches(&candidate, evict_traces) {
                        survivors.push(candidate);
                        if survivors.len() >= config.max_phase_a_survivors {
                            break 'phase_a;
                        }
                    }
                }
            }
            if exceeded(config, start) {
                break 'phase_a;
            }
        }
    }
    stats.phase_a_survivors += survivors.len() as u64;

    // Phase B: complete each survivor with a promotion rule (and possibly
    // hit-site normalization) and verify.
    let mut promotes = single_case_promotes(max_age);
    if extended {
        promotes.extend(two_case_promotes(max_age));
    }

    for survivor in &survivors {
        for promote in &promotes {
            let hit_norm_options: &[bool] = if survivor.normalize.op.is_some() {
                &[false, true]
            } else {
                &[false]
            };
            for &after_hit in hit_norm_options {
                if exceeded(config, start) {
                    return None;
                }
                stats.phase_b_candidates += 1;
                let mut candidate = survivor.clone();
                candidate.promote = promote.clone();
                candidate.normalize.after_hit = after_hit;

                if !program_matches(&candidate, mix_traces) {
                    continue;
                }
                stats.equivalence_checks += 1;
                let policy = ProgramPolicy::new(candidate.clone());
                let machine = policy_to_mealy(&policy, state_bound);
                if check_equivalence(&machine, learned).is_none() {
                    stats.duration = start.elapsed();
                    let template = Template::of(&candidate);
                    return Some(SynthesisResult {
                        program: candidate,
                        template,
                        stats: *stats,
                    });
                }
            }
        }
    }
    stats.duration = start.elapsed();
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use policies::PolicyKind;

    fn learned(kind: PolicyKind, assoc: usize) -> PolicyMealy {
        policy_to_mealy(kind.build(assoc).unwrap().as_ref(), 1 << 16)
    }

    #[test]
    fn reference_programs_match_their_policies() {
        // Every program the synthesizer could be cross-checked against runs
        // like the packed fast path of its policy.
        for kind in PolicyKind::ALL_DETERMINISTIC {
            let Some(program) = kind.program(4) else {
                continue;
            };
            let machine = policy_to_mealy(&ProgramPolicy::new(program), 1 << 16);
            assert!(
                check_equivalence(&machine, &learned(kind, 4)).is_none(),
                "reference explanation for {kind} is wrong"
            );
        }
    }

    #[test]
    fn plru_has_no_reference_program() {
        assert!(PolicyKind::Plru.program(4).is_none());
    }

    #[test]
    fn synthesizes_fifo_at_assoc_2_with_the_simple_template() {
        // FIFO at associativity 2 only needs ages 0..1; shrinking the age
        // bound keeps the exhaustive search fast enough for a unit test.
        let config = SynthesisConfig {
            max_age: 1,
            ..SynthesisConfig::default()
        };
        let result = synthesize(&learned(PolicyKind::Fifo, 2), 2, &config)
            .expect("FIFO must be synthesizable");
        assert_eq!(result.template, Template::Simple);
        assert!(result.stats.phase_a_candidates > 0);
    }

    #[test]
    fn synthesizes_lru_at_assoc_3() {
        let config = SynthesisConfig {
            max_age: 2,
            ..SynthesisConfig::default()
        };
        let result = synthesize(&learned(PolicyKind::Lru, 3), 3, &config)
            .expect("LRU must be synthesizable");
        assert_eq!(result.template, Template::Simple);
        // Verify end to end: the synthesized program is equivalent to LRU.
        let machine = policy_to_mealy(&ProgramPolicy::new(result.program), 1 << 16);
        assert!(check_equivalence(&machine, &learned(PolicyKind::Lru, 3)).is_none());
    }

    #[test]
    fn synthesizes_mru_at_assoc_2() {
        // At associativity 2 the MRU-bit policy degenerates to LRU, so the
        // Simple template suffices; the Extended classification of MRU at
        // associativity 4 (Table 5) is exercised by the benchmark harness and
        // the integration tests.
        let config = SynthesisConfig {
            max_age: 1,
            ..SynthesisConfig::default()
        };
        let result = synthesize(&learned(PolicyKind::Mru, 2), 2, &config)
            .expect("MRU must be synthesizable");
        let machine = policy_to_mealy(&ProgramPolicy::new(result.program), 1 << 16);
        assert!(check_equivalence(&machine, &learned(PolicyKind::Mru, 2)).is_none());
    }

    #[test]
    fn plru_at_assoc_4_is_not_synthesizable() {
        // Tree-based PLRU has a global control state that the per-line age
        // template cannot express (§8.2, point 3).
        let config = SynthesisConfig {
            max_phase_a_survivors: 20_000,
            time_budget: Some(Duration::from_secs(5)),
            ..SynthesisConfig::default()
        };
        assert!(synthesize(&learned(PolicyKind::Plru, 4), 4, &config).is_none());
    }

    #[test]
    fn time_budget_is_respected() {
        let config = SynthesisConfig {
            time_budget: Some(Duration::ZERO),
            ..SynthesisConfig::default()
        };
        // With a zero budget the search gives up without finding anything.
        assert!(synthesize(&learned(PolicyKind::Lru, 4), 4, &config).is_none());
    }
}
