//! Device lowering with automatic splitting (§6.4): compile a model
//! into the TensorRT-like engine, watching unsupported ops fall back to
//! the plain executor — the fx2trt flow.
//!
//! Run: `cargo run --release --example lower_to_backend`

use fx::backend::{compile, lower};
use fx::prelude::*;
use fx::tensor::Tensor;
use fx_models::resnet18;
use fx_tensor::rng::StdRng;
use fx_tensor::rng::SeedableRng;
use std::time::Instant;

fn main() {
    let mut rng = StdRng::seed_from_u64(0);

    // --- a fully-supported model compiles into one engine ---
    let model = resnet18(3, 1000, &mut rng);
    let mut gm = symbolic_trace(&model).expect("trace");
    let x = Value::Tensor(Tensor::randn(&[1, 3, 64, 64], &mut rng));
    // Shape metadata lets the executor's memory planner assign buffers.
    fx::passes::shape_prop(&mut gm, std::slice::from_ref(&x)).expect("shape_prop");
    let engine = compile(&gm).expect("compile");
    println!(
        "ResNet18: {} graph nodes -> {} fused instructions, {} planned buffers",
        gm.graph().len(),
        engine.instruction_count(),
        engine.register_count()
    );
    println!("\nengine disassembly (first 12 instructions):");
    for line in engine.disassemble().lines().take(12) {
        println!("  {line}");
    }

    let y0 = gm.run(std::slice::from_ref(&x)).expect("eager");
    let y1 = engine
        .run(&[x.as_tensor().unwrap().clone()])
        .expect("engine");
    println!(
        "\nmax |eager - engine| = {:.2e}",
        y0.as_tensor().unwrap().max_abs_diff(&y1).unwrap()
    );

    let time = |f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        for _ in 0..10 {
            f();
        }
        t0.elapsed().as_secs_f64() / 10.0
    };
    let t_eager = time(&mut || {
        std::hint::black_box(gm.run(std::slice::from_ref(&x)).unwrap());
    });
    let xt = x.as_tensor().unwrap().clone();
    let t_engine = time(&mut || {
        std::hint::black_box(engine.run(std::slice::from_ref(&xt)).unwrap());
    });
    println!(
        "latency: eager {:.2} ms -> engine {:.2} ms ({:.2}x)",
        t_eager * 1e3,
        t_engine * 1e3,
        t_eager / t_engine
    );

    // --- a model with an engine-unsupported op splits automatically ---
    println!("\n--- automatic splitting around unsupported ops ---");
    let mixed = symbolic_trace_fn(1, |xs| {
        let a = func::relu(&xs[0])?; // engine
        let b = func::softmax(&a, -1)?; // NOT engine-supported
        func::neg(&b) // engine
    })
    .expect("trace");
    let (lowered, report) = lower(&mixed).expect("lower");
    println!(
        "partitions: {} engine, {} unfused fallback",
        report.engine_partitions, report.fallback_partitions
    );
    println!("{}", lowered.code());
    let small = Value::Tensor(Tensor::from_vec(vec![0.3, -0.7, 1.2], &[1, 3]));
    let a = mixed.run(std::slice::from_ref(&small)).unwrap();
    let b = lowered.run(std::slice::from_ref(&small)).unwrap();
    println!(
        "outputs agree: {}",
        a.as_tensor()
            .unwrap()
            .allclose(b.as_tensor().unwrap(), 1e-6)
    );
}
