//! Timing-analysis benchmarks: STA, the longest-path walk, best-first path
//! enumeration, and the three computed-delay models on the paper's
//! circuits.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};
use kms_gen::paper::fig4_c2_cone;
use kms_timing::{
    computed_delay, longest_paths, InputArrivals, PathCondition, PathEnumerator, Sta,
};

fn bench_sta(c: &mut Criterion) {
    let mut g = c.benchmark_group("timing/sta");
    for bits in [8usize, 16, 32] {
        let net = kms_bench::table1_csa(bits, 4);
        g.bench_function(format!("csa_{bits}.4"), |b| {
            b.iter(|| {
                let sta = Sta::run(black_box(&net), &InputArrivals::zero());
                black_box(sta.delay())
            })
        });
    }
    g.finish();
}

fn bench_path_enumeration(c: &mut Criterion) {
    let mut g = c.benchmark_group("timing/paths");
    for bits in [8usize, 16] {
        let net = kms_bench::table1_csa(bits, 4);
        g.bench_function(format!("longest_paths_csa_{bits}.4"), |b| {
            b.iter(|| {
                let (paths, delay) = longest_paths(black_box(&net), &InputArrivals::zero(), 64);
                black_box((paths.len(), delay))
            })
        });
        g.bench_function(format!("first_1000_paths_csa_{bits}.4"), |b| {
            b.iter(|| {
                let n = PathEnumerator::new(black_box(&net), &InputArrivals::zero())
                    .take(1000)
                    .count();
                black_box(n)
            })
        });
    }
    g.finish();
}

fn bench_delay_models(c: &mut Criterion) {
    let net = fig4_c2_cone();
    let cin = net.input_by_name("cin").expect("cin exists");
    let arr = InputArrivals::zero().with(cin, 5);
    let mut g = c.benchmark_group("timing/computed_delay_fig4");
    for (name, cond) in [
        ("topological", PathCondition::Topological),
        ("static_sens", PathCondition::StaticSensitization),
        ("viability", PathCondition::Viability),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let d = computed_delay(black_box(&net), &arr, cond, 1 << 22).unwrap();
                black_box(d.delay)
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_sta,
    bench_path_enumeration,
    bench_delay_models
);
criterion_main!(benches);
