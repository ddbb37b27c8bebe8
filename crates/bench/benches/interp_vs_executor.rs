//! Sequential vs. parallel execution of the plan-cached [`Executor`] on
//! a ResNet-50 forward pass, sweeping worker counts. The 1-thread
//! executor *is* the sequential baseline: it runs the plan's
//! levelization in submission order on the caller's thread.
//!
//! Kernel-level threading is pinned to 1 (`set_num_threads(1)`) so the
//! sweep isolates *graph-level* parallelism — the wavefront scheduling
//! the executor's `ExecPlan` provides. Besides the printed criterion
//! lines, the measured numbers are written to `BENCH_executor.json` at
//! the workspace root so `scripts/verify.sh` (and CI) can archive them.
//! On a single-core host the parallel configurations are expected to
//! only match the sequential path; the JSON records whatever this
//! machine actually measured, plus the hardware parallelism it saw.
//!
//! The JSON also carries an `allocator` section: steady-state heap
//! allocations per run with memory planning off vs. on, the buffer-pool
//! hit rate, and the pool's peak parked bytes — the numbers behind the
//! static memory planner's "(near-)zero allocation" claim.

use fx_bench::criterion::{criterion_group, criterion_main, Criterion};
use fx_core::{symbolic_trace, Executor, GraphModule, Value};
use fx_models::resnet50;
use fx_passes::DeviceSpec;
use fx_tensor::rng::{SeedableRng, StdRng};
use fx_tensor::{num_threads, ops, pool, set_num_threads, Tensor};
use std::io::Write;

const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

struct Row {
    name: String,
    threads: usize,
    kernel_threads: usize,
    mean_s: f64,
    stdev_s: f64,
}

struct AllocStats {
    fresh_per_run: f64,
    hits_per_run: f64,
    hit_rate: f64,
    pool_peak_bytes: u64,
}

struct KernelRow {
    name: String,
    flops: u64,
    mean_s: f64,
    gflops: f64,
    fraction_of_peak: f64,
    int8: bool,
}

/// Raw kernel throughput vs. the host roofline: GEMM and convolution
/// GFLOP/s measured directly (no graph machinery), divided by the
/// single-core peak of [`DeviceSpec::host_cpu_single_core`] — which
/// follows whichever engine (AVX-512 or AVX2 microkernel, or portable
/// scalar) the kernel library selected at startup. Int8 rows count multiply-adds
/// the same way (2·m·k·n "flops") but report `fraction_of_peak`
/// against the **int8 roofline** `peak_flops × int8_speedup`.
fn kernel_rows(device: &DeviceSpec) -> Vec<KernelRow> {
    let mut rng = StdRng::seed_from_u64(90);
    let mut rows = Vec::new();
    // Measure kernels the way a model runs them: with the buffer pool
    // active, so scratch (im2col panels, i32 accumulators) is reused
    // across calls instead of hitting the allocator every iteration.
    let _pool = pool::activate();
    let mut push = |name: String, flops: u64, int8: bool, mut f: Box<dyn FnMut()>| {
        let stats = fx_bench::time_trials(8, 2, || f());
        let gflops = flops as f64 / stats.mean / 1e9;
        let peak = if int8 {
            device.peak_flops * device.int8_speedup
        } else {
            device.peak_flops
        };
        rows.push(KernelRow {
            name,
            flops,
            mean_s: stats.mean,
            gflops,
            fraction_of_peak: gflops * 1e9 / peak,
            int8,
        });
    };

    // Square-ish GEMMs (nn) plus a Linear-shaped (nt) case.
    for &(m, k, n) in &[(256usize, 256usize, 256usize), (512, 512, 512), (384, 1152, 128)] {
        let a = Tensor::rand_uniform(&[m, k], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[k, n], -1.0, 1.0, &mut rng);
        push(
            format!("gemm_nn {m}x{k}x{n}"),
            (2 * m * k * n) as u64,
            false,
            Box::new(move || {
                pool::recycle_tensor(ops::matmul(&a, &b).expect("gemm bench"));
            }),
        );
    }
    let x = Tensor::rand_uniform(&[64, 512], -1.0, 1.0, &mut rng);
    let w = Tensor::rand_uniform(&[512, 512], -1.0, 1.0, &mut rng);
    let bias = Tensor::rand_uniform(&[512], -1.0, 1.0, &mut rng);
    push(
        "linear+relu 64x512x512".to_string(),
        (2 * 64 * 512 * 512) as u64,
        false,
        Box::new(move || {
            pool::recycle_tensor(ops::linear_act(&x, &w, Some(&bias), true).expect("linear bench"));
        }),
    );

    // Int8 GEMM through the quantized linear kernel, shape-matched to
    // the 256³ f32 `gemm_nn` row so the two throughputs are directly
    // comparable (the epilogue — zero-point correction + requantize —
    // is included in the measured time, as it would be in a model).
    {
        use fx_tensor::quant;
        let (m, k, n) = (256usize, 256usize, 256usize);
        let x = Tensor::rand_uniform(&[m, k], -1.0, 1.0, &mut rng);
        let w = Tensor::rand_uniform(&[n, k], -0.5, 0.5, &mut rng);
        let (xs, xzp) = quant::choose_qparams(-1.0, 1.0);
        let xq = quant::quantize_per_tensor(&x, xs, xzp).expect("quantize activations");
        let wq = quant::quantize_per_channel(&w, 0).expect("quantize weights");
        push(
            format!("gemm_i8 {m}x{k}x{n} (quantized_linear)"),
            (2 * m * k * n) as u64,
            true,
            Box::new(move || {
                let out = quant::quantized_linear(&xq, &wq, None, 0.02, 0, false)
                    .expect("i8 gemm bench");
                pool::recycle_tensor(out);
            }),
        );
    }

    // ResNet-shaped convs: a 3x3 mid-stage block and a 1x1 pointwise.
    let x3 = Tensor::rand_uniform(&[1, 64, 56, 56], -1.0, 1.0, &mut rng);
    let w3 = Tensor::rand_uniform(&[64, 64, 3, 3], -0.5, 0.5, &mut rng);
    let conv3_flops = 2u64 * 64 * 56 * 56 * 64 * 9;
    push(
        "conv3x3 64->64 @56x56".to_string(),
        conv3_flops,
        false,
        Box::new(move || {
            pool::recycle_tensor(
                ops::conv2d(&x3, &w3, None, (1, 1), (1, 1), (1, 1), 1).expect("conv bench"),
            );
        }),
    );
    let x1 = Tensor::rand_uniform(&[1, 256, 28, 28], -1.0, 1.0, &mut rng);
    let w1 = Tensor::rand_uniform(&[128, 256, 1, 1], -0.5, 0.5, &mut rng);
    let conv1_flops = 2u64 * 128 * 28 * 28 * 256;
    push(
        "conv1x1 256->128 @28x28".to_string(),
        conv1_flops,
        false,
        Box::new(move || {
            pool::recycle_tensor(ops::conv2d_pointwise(&x1, &w1, None).expect("pointwise bench"));
        }),
    );

    // The int8 microkernel only pays off when it actually runs: with
    // AVX2 selected, demand the i8 GEMM clear 1.5× the matching f32
    // row's GFLOP/s (int8 peak is 2× — §acceptance criteria). Under
    // AVX-512 the f32 tiles are ZMM while the int8 ones are still YMM,
    // so the two peaks coincide and there is no ratio to demand.
    if fx_tensor::simd_level() == "avx2" {
        let f32_row = rows
            .iter()
            .find(|r| r.name.starts_with("gemm_nn 256x256x256"))
            .expect("f32 gemm row present");
        let i8_row = rows
            .iter()
            .find(|r| r.int8)
            .expect("i8 gemm row present");
        assert!(
            i8_row.gflops >= 1.5 * f32_row.gflops,
            "i8 GEMM too slow: {:.2} GFLOP/s vs f32 {:.2} GFLOP/s (need 1.5x)",
            i8_row.gflops,
            f32_row.gflops
        );
    }
    rows
}

/// Steady-state allocator traffic per run: warm the pool, then average
/// the global counters over a fixed number of runs.
fn measure_allocs(gm: &GraphModule, x: &[Value], planning: bool) -> AllocStats {
    let mut ex = Executor::new(gm).with_memory_planning(planning);
    for _ in 0..2 {
        ex.run(x).expect("allocator warm-up run");
    }
    const RUNS: u64 = 10;
    let base = pool::stats();
    for _ in 0..RUNS {
        ex.run(x).expect("allocator measured run");
    }
    let d = pool::stats().since(&base);
    AllocStats {
        fresh_per_run: d.fresh_allocs as f64 / RUNS as f64,
        hits_per_run: d.pool_hits as f64 / RUNS as f64,
        hit_rate: d.hit_rate(),
        pool_peak_bytes: d.in_pool_peak_bytes,
    }
}

fn bench_interp_vs_executor(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(50);
    let model = resnet50(3, 10, &mut rng);
    let gm = symbolic_trace(&model).expect("resnet50 traces");
    let mut xrng = StdRng::seed_from_u64(1);
    let x = vec![Value::Tensor(Tensor::randn(&[1, 3, 32, 32], &mut xrng))];

    // Isolate graph-level parallelism from kernel-level parallelism.
    set_num_threads(1);

    // Warm the plan cache once and check the observability contract:
    // every subsequent run below must be a cache hit.
    let (_, first) = Executor::new(&gm).run_profiled(&x).expect("first run");
    assert!(!first.plan_cache_hit, "first run compiles the plan");
    let (_, second) = Executor::new(&gm).run_profiled(&x).expect("second run");
    assert!(second.plan_cache_hit, "plan must be cached across runs");
    assert_eq!(second.plan_compiles, 1, "no recompile on a hit");

    let alloc_off = measure_allocs(&gm, &x, false);
    let alloc_on = measure_allocs(&gm, &x, true);

    let mut rows: Vec<Row> = Vec::new();
    let mut group = c.benchmark_group("resnet50_forward");
    group.sample_size(10);

    // On a single-core host the t2/t4/t8 configurations cannot beat t1
    // — they only time-slice one core and their `speedup_vs_t1 < 1`
    // rows read as regressions. Skip them and record why in the JSON.
    let hardware_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let sweep: &[usize] = if hardware_parallelism == 1 {
        &THREAD_SWEEP[..1]
    } else {
        &THREAD_SWEEP
    };

    for &threads in sweep {
        let name = format!("executor_t{threads}");
        group.bench_function(&name, |b| {
            b.iter(|| Executor::new(&gm).with_threads(threads).run(&x).unwrap());
        });
        // Re-measure outside the printed run for the JSON record (the
        // shim does not expose its samples back to the caller).
        let stats = fx_bench::time_trials(10, 1, || {
            Executor::new(&gm).with_threads(threads).run(&x).unwrap();
        });
        rows.push(Row {
            name,
            threads,
            kernel_threads: num_threads(),
            mean_s: stats.mean,
            stdev_s: stats.stdev,
        });
    }
    group.finish();

    // Kernel roofline rows under the same pinned conditions.
    let device = DeviceSpec::host_cpu_single_core();
    let kernel_rows = kernel_rows(&device);
    set_num_threads(0);

    write_json(&rows, &kernel_rows, &device, &second, &alloc_off, &alloc_on)
        .expect("write BENCH_executor.json");
}

fn write_json(
    rows: &[Row],
    kernel_rows: &[KernelRow],
    device: &DeviceSpec,
    profile: &fx_core::RunProfile,
    alloc_off: &AllocStats,
    alloc_on: &AllocStats,
) -> std::io::Result<()> {
    let seq = rows
        .iter()
        .find(|r| r.threads == 1)
        .map(|r| r.mean_s)
        .unwrap_or(0.0);
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"interp_vs_executor\",\n");
    out.push_str("  \"model\": \"resnet50(3,10) @ [1,3,32,32]\",\n");
    out.push_str("  \"kernel_threads\": 1,\n");
    let hardware_parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    out.push_str(&format!(
        "  \"hardware_parallelism\": {hardware_parallelism},\n"
    ));
    if hardware_parallelism == 1 {
        out.push_str(
            "  \"thread_sweep_note\": \"single-core host: multi-thread rows skipped \
             (time-slicing one core cannot exceed t1)\",\n",
        );
    }
    out.push_str(&format!(
        "  \"plan_cache\": {{ \"hit\": {}, \"compiles\": {}, \"hits\": {} }},\n",
        profile.plan_cache_hit, profile.plan_compiles, profile.plan_hits
    ));
    let reduction = if alloc_on.fresh_per_run > 0.0 {
        alloc_off.fresh_per_run / alloc_on.fresh_per_run
    } else {
        f64::INFINITY
    };
    out.push_str(&format!(
        "  \"allocator\": {{\n    \"memory_planning_off\": {{ \"fresh_allocs_per_run\": {:.1}, \"pool_hits_per_run\": {:.1} }},\n    \"memory_planning_on\": {{ \"fresh_allocs_per_run\": {:.1}, \"pool_hits_per_run\": {:.1}, \"hit_rate\": {:.4}, \"pool_peak_bytes\": {} }},\n    \"alloc_reduction_x\": {}\n  }},\n",
        alloc_off.fresh_per_run,
        alloc_off.hits_per_run,
        alloc_on.fresh_per_run,
        alloc_on.hits_per_run,
        alloc_on.hit_rate,
        alloc_on.pool_peak_bytes,
        if reduction.is_finite() {
            format!("{reduction:.1}")
        } else {
            "\"inf\"".to_string()
        }
    ));
    out.push_str(&format!(
        "  \"kernels\": {{\n    \"simd\": {},\n    \"simd_level\": \"{}\",\n    \"roofline_device\": \"{}\",\n    \"roofline_peak_gflops\": {:.1},\n    \"int8_roofline_peak_gflops\": {:.1},\n    \"rows\": [\n",
        fx_tensor::simd_enabled(),
        fx_tensor::simd_level(),
        device.name,
        device.peak_flops / 1e9,
        device.peak_flops * device.int8_speedup / 1e9
    ));
    for (i, r) in kernel_rows.iter().enumerate() {
        out.push_str(&format!(
            "      {{ \"name\": \"{}\", \"flops\": {}, \"int8\": {}, \"mean_s\": {:.6}, \"gflops\": {:.2}, \"fraction_of_peak\": {:.3} }}{}\n",
            r.name,
            r.flops,
            r.int8,
            r.mean_s,
            r.gflops,
            r.fraction_of_peak,
            if i + 1 < kernel_rows.len() { "," } else { "" }
        ));
    }
    out.push_str("    ]\n  },\n");
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let speedup = if r.mean_s > 0.0 { seq / r.mean_s } else { 0.0 };
        out.push_str(&format!(
            "    {{ \"name\": \"{}\", \"threads\": {}, \"kernel_threads\": {}, \"mean_s\": {:.6}, \"stdev_s\": {:.6}, \"speedup_vs_t1\": {:.3} }}{}\n",
            r.name,
            r.threads,
            r.kernel_threads,
            r.mean_s,
            r.stdev_s,
            speedup,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");

    // crates/bench -> workspace root.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_executor.json");
    let mut f = std::fs::File::create(path)?;
    f.write_all(out.as_bytes())?;
    println!("wrote {path}");
    Ok(())
}

criterion_group!(benches, bench_interp_vs_executor);
criterion_main!(benches);
