//! Program analysis (§6.3): shape propagation, FLOPs/memory/runtime
//! estimation on simulated devices, two-stream overlap scheduling and
//! Graphviz rendering.
//!
//! Run: `cargo run --release --example shape_analysis`

use fx::passes::{
    display_sym_shape, estimate, fuse_conv_bn, infer_shapes, infer_sym_shapes, schedule_overlap,
    shape_prop, to_dot, DeviceSpec, SymDim,
};
use fx::prelude::*;
use fx::tensor::Tensor;
use fx_models::resnet_tiny;
use fx_tensor::rng::StdRng;
use fx_tensor::rng::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(0);
    let model = resnet_tiny(&mut rng);
    let mut gm = symbolic_trace(&model).expect("trace");

    // Concrete shape propagation: run a real input, record shapes.
    let x = Value::Tensor(Tensor::randn(&[1, 3, 32, 32], &mut rng));
    shape_prop(&mut gm, std::slice::from_ref(&x)).expect("shape prop");
    println!("per-node shapes (first 10):");
    for node in gm.graph().nodes().take(10) {
        println!(
            "  {:<24} {:?}",
            node.name(),
            node.shape_meta().unwrap_or(&[])
        );
    }

    // Abstract shape inference needs no data at all (§5.5: a single
    // forward pass, no fixpoint, because the IR has no control flow).
    let mut gm_abs = symbolic_trace(&model).expect("trace");
    let shapes = infer_shapes(&mut gm_abs, &[vec![1, 3, 32, 32]]).expect("infer");
    println!("\nabstract inference annotated {} nodes (no tensor data touched)", shapes.len());

    // The same rules with the batch left free: one walk gives every shape
    // as an expression over `N`. A leaf is read through its traced
    // forward, so this works on the graphs the stack ships — int8 after
    // PTQ, and after the backend's fusion passes — not just as traced.
    let batch_free: Vec<SymDim> = std::iter::once(SymDim::var("N"))
        .chain([3, 32, 32].map(SymDim::Const))
        .collect();
    let mut bn_fused = symbolic_trace(&model).expect("trace");
    fuse_conv_bn(&mut bn_fused).expect("conv-BN fusion");
    let int8 = fx::quant::quantize_ptq(&bn_fused, &[vec![x.clone()]], &Default::default())
        .expect("post-training quantization");
    let mut backend_fused = bn_fused.clone();
    fx::backend::fuse(&mut backend_fused, Default::default()).expect("backend fusion");
    println!("\nsymbolic shapes, batch free:");
    for (label, graph) in [("PTQ int8", &int8), ("backend-fused", &backend_fused)] {
        let sym = infer_sym_shapes(graph, std::slice::from_ref(&batch_free)).expect("symbolic");
        println!("  {label}:");
        for node in graph.graph().nodes().filter(|n| sym.contains_key(n.name())).take(6) {
            println!("    {:<24} {}", node.name(), display_sym_shape(&sym[node.name()]));
        }
        println!("    {:<24} {}", "output", display_sym_shape(&sym["output"]));
    }

    // Roofline estimation across device models.
    println!("\ninference simulation:");
    for device in [DeviceSpec::v100(), DeviceSpec::xeon_6138(), DeviceSpec::tpu_like()] {
        let report = estimate(&gm, &device).expect("estimate");
        println!(
            "  {:<34} {:>8.3} ms  ({:.2} GFLOP, {:.1} MB moved, peak act {:.2} MB)",
            device.name,
            report.total_time * 1e3,
            report.total_flops as f64 / 1e9,
            report.total_bytes as f64 / 1e6,
            report.peak_activation_bytes as f64 / 1e6
        );
    }
    println!("\n{}", estimate(&gm, &DeviceSpec::v100()).unwrap());

    // Software pipelining (§6.2.3): offload heavy ops to an async device
    // stream.
    let schedule = schedule_overlap(&gm, &DeviceSpec::xeon_6138(), &DeviceSpec::v100(), |n| {
        n.target().contains("conv") || n.target().contains("fc")
    })
    .expect("schedule");
    println!(
        "overlap schedule: sequential {:.1} us -> overlapped {:.1} us ({:.2}x)",
        schedule.sequential * 1e6,
        schedule.makespan * 1e6,
        schedule.speedup()
    );

    // Graph drawing.
    let dot = to_dot(&gm, "resnet_tiny");
    let path = std::env::temp_dir().join("fx_resnet_tiny.dot");
    std::fs::write(&path, &dot).expect("write dot");
    println!("\nDOT written to {} — render with `dot -Tpng`", path.display());
}
