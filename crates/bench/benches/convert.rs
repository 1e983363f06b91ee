//! Criterion bench: Algorithm 1 conversion (the host-side one-time
//! preprocessing, §4.1) for each kernel type, and the fleet's per-job
//! cold-path gates (conversion-cache key, alverify preflight).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use alrescha::convert::{convert, KernelType};
use alrescha_sparse::gen;

fn bench_preprocessing(c: &mut Criterion) {
    use alrescha::program::ProgramBinary;
    use alrescha_sparse::reorder::apply_rcm;

    let sci = gen::stencil27(10);
    let mut group = c.benchmark_group("preprocessing");
    let (_, table) = convert(KernelType::SymGs, &sci, 8).expect("suite matrix");
    group.bench_function("program-binary-encode", |b| {
        b.iter(|| ProgramBinary::encode(KernelType::SymGs, &table, sci.rows(), 8));
    });
    let binary = ProgramBinary::encode(KernelType::SymGs, &table, sci.rows(), 8);
    group.bench_function("program-binary-decode", |b| {
        b.iter(|| binary.decode().expect("valid binary"));
    });
    group.bench_function("rcm-reorder", |b| {
        b.iter(|| apply_rcm(&sci).expect("square"));
    });
    group.finish();
}

fn bench_convert(c: &mut Criterion) {
    let sci = gen::stencil27(10);
    let graph = gen::GraphClass::Social.generate(1000, 2020);
    let mut group = c.benchmark_group("convert");
    for (kernel, coo, label) in [
        (KernelType::SpMv, &sci, "spmv/stencil27"),
        (KernelType::SymGs, &sci, "symgs/stencil27"),
        (KernelType::PageRank, &graph, "pagerank/social"),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &(), |b, ()| {
            b.iter(|| convert(kernel, coo, 8).expect("suite matrix"));
        });
    }
    group.finish();
}

/// The fleet's cold-path gates per job, on `cold_batch`-sized matrices
/// (n = 1000, one per science class): the alverify preflight of a
/// programmed SpMV, and the conversion-cache key.
fn bench_cold_path_gates(c: &mut Criterion) {
    use alrescha::fleet::matrix_fingerprint;
    use alrescha::Alrescha;
    use alrescha_lint::verify_programmed;
    use alrescha_sim::SimConfig;
    use alrescha_sparse::gen::ScienceClass;

    let config = SimConfig::paper();
    let mut acc = Alrescha::new(config.clone());
    let matrices: Vec<_> = ScienceClass::ALL
        .iter()
        .map(|class| (class.name(), class.generate(1000, 7)))
        .collect();
    let mut group = c.benchmark_group("preflight");
    for (name, a) in &matrices {
        let prog = acc.program(KernelType::SpMv, a).expect("suite matrix");
        group.bench_function(format!("spmv/{name}"), |b| {
            b.iter(|| verify_programmed(&prog, &config));
        });
    }
    group.finish();
    let mut group = c.benchmark_group("fingerprint");
    for (name, a) in &matrices {
        group.bench_function(name, |b| b.iter(|| matrix_fingerprint(a)));
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_convert,
    bench_preprocessing,
    bench_cold_path_gates
);
criterion_main!(benches);
