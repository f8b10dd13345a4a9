//! Property-based tests of the trace layer: generator determinism for
//! arbitrary specs, lossless text round-trips for arbitrary traces, and
//! set-index validity of every generated access under every
//! cache geometry.

use proptest::prelude::*;

use cache::CacheGeometry;
use trace::{generate, set_and_tag, GeneratorKind, Trace, TraceSpec};

fn generator_kind() -> impl Strategy<Value = GeneratorKind> {
    prop_oneof![
        Just(GeneratorKind::Sequential),
        Just(GeneratorKind::Strided),
        Just(GeneratorKind::Zipfian),
        Just(GeneratorKind::PointerChase),
    ]
}

/// Arbitrary-but-bounded specs: enough spread to exercise every code path
/// (tiny and large working sets, all strides, extreme skews, varied bases)
/// while keeping each generated trace small.
fn trace_spec() -> impl Strategy<Value = TraceSpec> {
    (
        generator_kind(),
        (0usize..600, 1usize..300),
        (0usize..10, 0u32..3000),
        (
            0u64..u64::MAX,
            prop_oneof![Just(64u64), Just(128), Just(32)],
        ),
        0u64..(1u64 << 40),
    )
        .prop_map(
            |(generator, (accesses, lines), (stride, zipf_s_permille), (seed, line_size), base)| {
                TraceSpec {
                    generator,
                    accesses,
                    lines,
                    stride,
                    zipf_s_permille,
                    seed,
                    line_size,
                    base,
                }
            },
        )
}

/// Arbitrary traces (not necessarily generator-shaped) for round-trips.
fn arbitrary_trace() -> impl Strategy<Value = Trace> {
    proptest::collection::vec(0u64..u64::MAX, 0..200)
        .prop_map(|addresses| Trace::new(addresses.into_iter().map(cache::PhysAddr).collect()))
}

/// The geometries the repo actually models: L1-like through sliced-L3-like.
fn geometry() -> impl Strategy<Value = CacheGeometry> {
    (
        prop_oneof![Just(2usize), Just(3), Just(4), Just(8), Just(12)],
        prop_oneof![Just(16usize), Just(64), Just(1024)],
        prop_oneof![Just(1usize), Just(2), Just(4), Just(8)],
        prop_oneof![Just(64u64), Just(128)],
    )
        .prop_map(|(assoc, sets, slices, line)| CacheGeometry::new(assoc, sets, slices, line))
}

proptest! {
    /// Byte-identical regeneration: the whole reproducibility story rests
    /// on a spec being a complete description of its trace.
    #[test]
    fn generators_are_deterministic(spec in trace_spec()) {
        prop_assert_eq!(generate(&spec), generate(&spec));
    }

    /// Every generated access stays inside the declared working set and
    /// below the priming-address boundary.
    #[test]
    fn generated_accesses_stay_in_the_working_set(spec in trace_spec()) {
        let trace = generate(&spec);
        prop_assert_eq!(trace.len(), spec.accesses);
        let top = spec.base + spec.lines as u64 * spec.line_size;
        for &addr in trace.accesses() {
            prop_assert!(addr.0 >= spec.base && addr.0 < top);
            prop_assert!(addr.0 < 1 << 63);
            prop_assert_eq!((addr.0 - spec.base) % spec.line_size, 0);
        }
    }

    /// Text encode → decode is lossless for arbitrary traces.
    #[test]
    fn text_round_trips(trace in arbitrary_trace()) {
        let text = trace.to_text();
        prop_assert_eq!(Trace::from_text(&text).unwrap(), trace);
    }

    /// Every access of a zipfian trace (arbitrary skew) maps to a valid
    /// flat set index under every modelled geometry — the contract the
    /// replayers' per-set routing relies on.
    #[test]
    fn zipfian_set_indices_are_valid_for_every_geometry(
        geometry in geometry(),
        lines in 1usize..2000,
        zipf_s_permille in 0u32..4000,
        seed in 0u64..1000,
    ) {
        let spec = TraceSpec {
            generator: GeneratorKind::Zipfian,
            accesses: 200,
            lines,
            zipf_s_permille,
            seed,
            line_size: geometry.line_size,
            ..TraceSpec::default()
        };
        for &addr in generate(&spec).accesses() {
            let (flat, _) = set_and_tag(&geometry, addr);
            prop_assert!(flat < geometry.total_sets());
        }
    }
}
