//! Integration tests for the §8 synthesis step on top of learned automata.

use automata::check_equivalence;
use polca::{learn_simulated_policy, LearnSetup};
use policies::{policy_to_mealy, PolicyKind, ProgramPolicy};
use synth::{synthesize, SynthesisConfig, Template};

#[test]
fn learned_fifo_yields_a_simple_template_program() {
    let outcome = learn_simulated_policy(PolicyKind::Fifo, 3, &LearnSetup::default()).unwrap();
    let config = SynthesisConfig {
        max_age: 2,
        ..SynthesisConfig::default()
    };
    let result = synthesize(&outcome.machine, 3, &config).expect("FIFO is explainable");
    assert_eq!(result.template, Template::Simple);
    let program_machine = policy_to_mealy(&ProgramPolicy::new(result.program), 1 << 16);
    assert!(check_equivalence(&program_machine, &outcome.machine).is_none());
}

#[test]
fn learned_new2_matches_the_figure_5_reference_explanation() {
    // Learn New2 from the simulated cache and check that the learned machine
    // is exactly explained by the Figure 5b program (the synthesized search
    // at associativity 4 runs in the benchmark harness; here we verify the
    // explanation itself end to end).
    let outcome = learn_simulated_policy(PolicyKind::New2, 4, &LearnSetup::default()).unwrap();
    let reference = PolicyKind::New2.program(4).unwrap();
    let reference_machine = policy_to_mealy(&ProgramPolicy::new(reference), 1 << 16);
    assert!(check_equivalence(&reference_machine, &outcome.machine).is_none());
}

#[test]
fn reference_explanations_cover_every_table_5_policy_except_plru() {
    for kind in PolicyKind::ALL_DETERMINISTIC {
        let Some(program) = kind.program(4) else {
            assert_eq!(kind, PolicyKind::Plru, "only PLRU has no program");
            continue;
        };
        let machine = policy_to_mealy(&ProgramPolicy::new(program.clone()), 1 << 16);
        let target = policy_to_mealy(kind.build(4).unwrap().as_ref(), 1 << 16);
        assert!(
            check_equivalence(&machine, &target).is_none(),
            "reference explanation for {kind} mismatches the policy"
        );
        // Table 5's template column.
        let expected_template = match kind {
            PolicyKind::Fifo | PolicyKind::Lru | PolicyKind::Lip => Template::Simple,
            _ => Template::Extended,
        };
        assert_eq!(
            Template::of(&program),
            expected_template,
            "template of {kind}"
        );
    }
}

#[test]
fn synthesized_programs_execute_as_policies() {
    // A synthesized program can be plugged back into the cache model and
    // behaves like the original policy in a cache simulation.
    let learned = policy_to_mealy(PolicyKind::Lru.build(3).unwrap().as_ref(), 1 << 16);
    let config = SynthesisConfig {
        max_age: 2,
        ..SynthesisConfig::default()
    };
    let program = synthesize(&learned, 3, &config).unwrap().program;
    let mut synthesized_set = cache::CacheSet::filled(
        Box::new(ProgramPolicy::new(program)),
        (0..3).map(cache::Block::new),
    );
    let mut reference_set = cache::CacheSet::filled(
        PolicyKind::Lru.build(3).unwrap(),
        (0..3).map(cache::Block::new),
    );
    for b in [0u64, 3, 1, 4, 4, 2, 5, 0, 3, 1, 6, 2] {
        assert_eq!(
            synthesized_set.access(cache::Block::new(b)).outcome(),
            reference_set.access(cache::Block::new(b)).outcome(),
            "divergence at block {b}"
        );
    }
}
