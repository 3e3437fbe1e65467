//! BDD benchmarks: node-function construction over the adders (the test
//! oracle's substrate) and the smoothing operator.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};
use kms_bdd::{BddManager, NodeFunctions};

fn bench_node_functions(c: &mut Criterion) {
    let mut g = c.benchmark_group("bdd/node_functions");
    for bits in [4usize, 8, 12] {
        let net = kms_bench::table1_csa(bits, 4);
        g.bench_function(format!("csa_{bits}.4"), |b| {
            b.iter(|| {
                let mut m = BddManager::new(net.inputs().len());
                let funcs = NodeFunctions::build(black_box(&net), &mut m);
                black_box(m.node_count() + funcs.of(net.outputs()[0].src).is_true() as usize)
            })
        });
    }
    g.finish();
}

fn bench_smoothing(c: &mut Criterion) {
    // Smooth each variable out of the 12-bit adder carry function.
    let net = kms_bench::table1_csa(12, 4);
    let mut m = BddManager::new(net.inputs().len());
    let funcs = NodeFunctions::build(&net, &mut m);
    let carry = funcs.of(net.outputs().last().expect("cout exists").src);
    c.bench_function("bdd/smooth_carry_csa12.4", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for v in 0..net.inputs().len() {
                let s = m.exists(black_box(carry), v);
                acc += usize::from(s.is_true());
            }
            black_box(acc)
        })
    });
}

fn bench_count_sats(c: &mut Criterion) {
    let net = kms_bench::table1_csa(10, 5);
    let mut m = BddManager::new(net.inputs().len());
    let funcs = NodeFunctions::build(&net, &mut m);
    let carry = funcs.of(net.outputs().last().expect("cout exists").src);
    c.bench_function("bdd/count_sats_carry_csa10.5", |b| {
        b.iter(|| black_box(m.count_sats(black_box(carry))))
    });
}

criterion_group!(
    benches,
    bench_node_functions,
    bench_smoothing,
    bench_count_sats
);
criterion_main!(benches);
