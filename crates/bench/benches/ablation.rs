//! Ablation bench for the conformance depth called out in ARCHITECTURE.md's
//! query-efficiency section: the Wp-method suite at `k = 1, 2, 3`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use learning::{learn_mealy, LearnOptions, MealyOracle, WpMethodOracle};
use policies::{policy_to_mealy, PolicyKind};

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

criterion_group!(benches, bench_conformance_depth);
criterion_main!(benches);
