//! Ablation benches for the design choices called out in ARCHITECTURE.md's
//! query-efficiency section: Wp-method vs W-method conformance suites, and
//! the conformance depth.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use learning::{learn_mealy, LearnOptions, MealyOracle, WMethodOracle, WpMethodOracle};
use policies::{policy_to_mealy, PolicyKind};

/// Wp vs W method on the same target (MRU at associativity 4, 14 states).
fn bench_conformance_method(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_conformance");
    group.sample_size(10);
    let target = policy_to_mealy(PolicyKind::Mru.build(4).unwrap().as_ref(), 1 << 16);
    let teacher = target.clone();
    let factory = move || MealyOracle::new(teacher.clone());
    group.bench_function("wp_method", |b| {
        b.iter(|| {
            let mut eq = WpMethodOracle::new(1);
            learn_mealy(
                target.inputs().to_vec(),
                &factory,
                &mut eq,
                LearnOptions::default(),
            )
            .expect("learns")
            .1
            .membership_queries
        })
    });
    group.bench_function("w_method", |b| {
        b.iter(|| {
            let mut eq = WMethodOracle::new(1);
            learn_mealy(
                target.inputs().to_vec(),
                &factory,
                &mut eq,
                LearnOptions::default(),
            )
            .expect("learns")
            .1
            .membership_queries
        })
    });
    group.finish();
}

/// Conformance depth k: cost of the stronger completeness guarantee.
fn bench_conformance_depth(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_depth");
    group.sample_size(10);
    let target = policy_to_mealy(PolicyKind::Plru.build(4).unwrap().as_ref(), 1 << 16);
    let teacher = target.clone();
    let factory = move || MealyOracle::new(teacher.clone());
    for depth in [1usize, 2, 3] {
        group.bench_with_input(BenchmarkId::new("plru4", depth), &depth, |b, &depth| {
            b.iter(|| {
                let mut eq = WpMethodOracle::new(depth);
                learn_mealy(
                    target.inputs().to_vec(),
                    &factory,
                    &mut eq,
                    LearnOptions::default(),
                )
                .expect("learns")
                .1
                .membership_queries
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_conformance_method, bench_conformance_depth);
criterion_main!(benches);
