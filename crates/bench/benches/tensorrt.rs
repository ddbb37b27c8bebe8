//! Criterion bench for E4 (§6.4 / Figure 8 / Appendix D): the traced
//! graph vs the TensorRT-like lowered (fused) graph, on ResNet-18 and
//! the LearningToPaint actor. `repro-trt` runs the full-scale ResNet50
//! version plus the roofline-simulated V100 rows.

use fx_bench::criterion::{criterion_group, criterion_main, Criterion};
use fx_backend::lower;
use fx_core::{symbolic_trace, Value};
use fx_models::{resnet18, LearningToPaintActor};
use fx_tensor::Tensor;
use fx_tensor::rng::StdRng;
use fx_tensor::rng::SeedableRng;

fn tensorrt(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0);
    let mut group = c.benchmark_group("backend_lowering");
    group.sample_size(10);

    let rn18 = resnet18(3, 1000, &mut rng);
    let gm = symbolic_trace(&rn18).unwrap();
    let (lowered, report) = lower(&gm).unwrap();
    println!(
        "[tensorrt] RN18: {} nodes -> {} fused instructions ({} partitions)",
        report.source_nodes, report.engine_instructions, report.engine_partitions
    );
    let x = Value::Tensor(Tensor::randn(&[1, 3, 64, 64], &mut rng));
    group.bench_function("eager_resnet18", |b| {
        b.iter(|| gm.run(std::slice::from_ref(&x)).unwrap())
    });
    group.bench_function("lowered_resnet18", |b| {
        b.iter(|| lowered.run(std::slice::from_ref(&x)).unwrap())
    });

    let actor = LearningToPaintActor::new(&mut rng);
    let agm = symbolic_trace(&actor).unwrap();
    let (alowered, _) = lower(&agm).unwrap();
    let ax = Value::Tensor(Tensor::randn(&[1, 9, 64, 64], &mut rng));
    group.bench_function("eager_learningtopaint", |b| {
        b.iter(|| agm.run(std::slice::from_ref(&ax)).unwrap())
    });
    group.bench_function("lowered_learningtopaint", |b| {
        b.iter(|| alowered.run(std::slice::from_ref(&ax)).unwrap())
    });
    group.finish();
}

criterion_group!(benches, tensorrt);
criterion_main!(benches);
