//! Criterion bench backing the §7.2 per-level MBL query measurement: the cost
//! of executing `@ M _?` against each cache level of the simulated Skylake.

use cache::LevelId;
use cachequery::{Backend, QueryEngine, Target};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hardware::{CpuModel, SimulatedCpu};

fn bench_mbl_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("mbl_query");
    group.sample_size(20);
    for level in LevelId::ALL {
        let cpu = SimulatedCpu::new(CpuModel::SkylakeI5_6500, 1);
        let mut engine = QueryEngine::new(Backend::new(cpu));
        engine.set_memoize(false);
        engine
            .backend_mut()
            .select_target(Target::new(level, 5, 0))
            .expect("valid target");
        group.bench_with_input(
            BenchmarkId::new("at_m_wildcard", level.to_string()),
            &level,
            |b, _| b.iter(|| engine.query_mbl("@ M _?").expect("query runs").len()),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_mbl_query);
criterion_main!(benches);
