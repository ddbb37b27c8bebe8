//! Ablation bench for the backend engine's design choices (DESIGN.md
//! §5): how much of the TensorRT-style win comes from each mechanism —
//! conv-BN folding, activation-epilogue fusion, unary-chain fusion, and
//! the executor's memory planning (buffer pooling + in-place rewrites).

use fx_bench::criterion::{criterion_group, criterion_main, Criterion};
use fx_backend::{compile_with, CompileOptions};
use fx_core::{symbolic_trace, Executor, Value};
use fx_models::resnet18;
use fx_tensor::Tensor;
use fx_tensor::rng::StdRng;
use fx_tensor::rng::SeedableRng;

fn ablation(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0);
    let model = resnet18(3, 1000, &mut rng);
    let gm = symbolic_trace(&model).unwrap();
    let x = [Value::Tensor(Tensor::randn(&[1, 3, 64, 64], &mut rng))];

    // (row, fusion passes, executor memory planning)
    let variants: [(&str, CompileOptions, bool); 5] = [
        ("full", CompileOptions::default(), true),
        (
            "no_conv_bn_fold",
            CompileOptions {
                fuse_conv_bn: false,
                ..Default::default()
            },
            true,
        ),
        (
            "no_epilogue_fusion",
            CompileOptions {
                fuse_epilogues: false,
                ..Default::default()
            },
            true,
        ),
        (
            "no_unary_chains",
            CompileOptions {
                fuse_unary_chains: false,
                ..Default::default()
            },
            true,
        ),
        ("no_memory_planning", CompileOptions::default(), false),
    ];

    let mut group = c.benchmark_group("engine_ablation_resnet18");
    group.sample_size(10);
    for (name, opts, planning) in variants {
        let engine = compile_with(&gm, opts).unwrap();
        println!("[ablation] {name}: {} instructions", engine.instruction_count());
        let fused = engine.graph_module();
        group.bench_function(name, |b| {
            b.iter(|| Executor::new(fused).with_memory_planning(planning).run(&x).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, ablation);
criterion_main!(benches);
