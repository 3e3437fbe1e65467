//! ATPG benchmarks: PODEM vs SAT-miter testability over the carry-skip
//! adder fault universe, plus bit-parallel fault-simulation throughput.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};
use kms_atpg::{collapsed_faults, fault_simulate, is_testable, podem, Engine, PodemResult};

fn bench_engines(c: &mut Criterion) {
    let net = kms_bench::table1_csa(8, 4);
    let faults = collapsed_faults(&net);
    let mut g = c.benchmark_group("atpg/engines_csa8.4");
    g.sample_size(10);
    g.bench_function("podem_all_faults", |b| {
        b.iter(|| {
            let mut redundant = 0;
            for &f in &faults {
                if podem(black_box(&net), f, 100_000) == PodemResult::Redundant {
                    redundant += 1;
                }
            }
            assert_eq!(redundant, 4);
        })
    });
    g.bench_function("sat_all_faults", |b| {
        b.iter(|| {
            let mut redundant = 0;
            for &f in &faults {
                if is_testable(black_box(&net), f, Engine::Sat).is_redundant() {
                    redundant += 1;
                }
            }
            assert_eq!(redundant, 4);
        })
    });
    g.finish();
}

fn bench_fault_sim(c: &mut Criterion) {
    let net = kms_bench::table1_csa(8, 2);
    let faults = collapsed_faults(&net);
    // 256 deterministic pseudo-random vectors.
    let mut state = 0x9E37_79B9u64;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    let tests: Vec<Vec<bool>> = (0..256)
        .map(|_| (0..net.inputs().len()).map(|_| next() & 1 == 1).collect())
        .collect();
    c.bench_function("atpg/fault_sim_csa8.2_256v", |b| {
        b.iter(|| {
            let report = fault_simulate(black_box(&net), &faults, &tests);
            black_box(report.detected())
        })
    });
}

criterion_group!(benches, bench_engines, bench_fault_sim);
criterion_main!(benches);
