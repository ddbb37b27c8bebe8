//! E4 — §6.4 / Figure 8 + Appendix D: lowering ResNet50 and
//! LearningToPaint to the TensorRT-like backend.
//!
//! Reproduces Appendix D's four rows: baseline vs lowered runtime for
//! both models. "Baseline" is the traced graph on the executor (the
//! per-op path); "lowered" is the same executor running the graph the
//! `fx-backend` fusion passes produce. Also prints roofline-simulated V100 rows
//! for the GPU-side reading (DESIGN.md substitution).
//!
//! Usage: `cargo run --release -p fx-bench --bin repro-trt --
//! [--size 96] [--paint-size 64] [--trials 10]`

use fx_backend::{fuse, lower, CompileOptions};
use fx_bench::{arg_usize, print_table, time_trials, Stats};
use fx_core::{symbolic_trace, GraphModule, Value};
use fx_models::{resnet50, LearningToPaintActor};
use fx_passes::{estimate, shape_prop, DeviceSpec};
use fx_tensor::Tensor;
use fx_tensor::rng::StdRng;
use fx_tensor::rng::SeedableRng;

struct Row {
    config: String,
    stats: Stats,
    speedup: Option<f64>,
}

fn bench_model(name: &str, gm: &GraphModule, x: &Value, trials: usize) -> (Vec<Row>, f64) {
    let (lowered, report) = lower(gm).expect("lowering");
    println!(
        "{name}: {} engine partition(s), {} fallback; {} graph nodes -> {} fused instructions",
        report.engine_partitions,
        report.fallback_partitions,
        report.source_nodes,
        report.engine_instructions
    );
    let base = time_trials(trials, 1, || {
        std::hint::black_box(gm.run(std::slice::from_ref(x)).unwrap());
    });
    let eng = time_trials(trials, 1, || {
        std::hint::black_box(lowered.run(std::slice::from_ref(x)).unwrap());
    });
    let speedup = base.mean / eng.mean;
    (
        vec![
            Row {
                config: format!("eager {name}"),
                stats: base,
                speedup: None,
            },
            Row {
                config: format!("fx lowered {name}"),
                stats: eng,
                speedup: Some(speedup),
            },
        ],
        speedup,
    )
}

/// Roofline view: baseline pays per-op dispatch on the unfused graph;
/// the lowered engine pays one launch per node of the graph
/// `fx_backend::fuse` actually produces (TensorRT's actual economics),
/// each fused leaf costed through its function form.
fn simulate(gm: &GraphModule, x: &Value) -> (f64, f64) {
    let v100 = DeviceSpec::v100();
    let total_time = |mut gm: GraphModule| {
        shape_prop(&mut gm, std::slice::from_ref(x)).expect("shapes");
        estimate(&gm, &v100).expect("estimate").total_time
    };
    let mut fused = gm.clone();
    fuse(&mut fused, CompileOptions::default()).expect("fuse");
    (total_time(gm.clone()), total_time(fused))
}

fn main() {
    let size = arg_usize("--size", 96);
    let paint_size = arg_usize("--paint-size", 64);
    let trials = arg_usize("--trials", 10);
    let mut rng = StdRng::seed_from_u64(0);

    println!("== ResNet50 [1,3,{size},{size}] / LearningToPaint [1,9,{paint_size},{paint_size}], {trials} trials ==\n");

    let rn50 = resnet50(3, 1000, &mut rng);
    let rn50_gm = symbolic_trace(&rn50).expect("trace rn50");
    let rn50_x = Value::Tensor(Tensor::randn(&[1, 3, size, size], &mut rng));
    let (rn_rows, rn_speedup) = bench_model("RN50", &rn50_gm, &rn50_x, trials);

    let actor = LearningToPaintActor::new(&mut rng);
    let actor_gm = symbolic_trace(&actor).expect("trace actor");
    let actor_x = Value::Tensor(Tensor::randn(&[1, 9, paint_size, paint_size], &mut rng));
    let (ltp_rows, ltp_speedup) = bench_model("LearningToPaint", &actor_gm, &actor_x, trials);

    println!("\n=== Appendix D analogue: measured CPU runtime (seconds) ===\n");
    let rows: Vec<Vec<String>> = rn_rows
        .iter()
        .chain(&ltp_rows)
        .map(|r| {
            vec![
                r.config.clone(),
                format!("{:.4}", r.stats.mean),
                format!("{:.5}", r.stats.stdev),
                r.speedup
                    .map(|s| format!("{s:.2}x"))
                    .unwrap_or_else(|| "-".into()),
            ]
        })
        .collect();
    print_table(&["configuration", "avg runtime (s)", "stdev", "speedup"], &rows);

    let (rn_sim_base, rn_sim_eng) = simulate(&rn50_gm, &rn50_x);
    let (ltp_sim_base, ltp_sim_eng) = simulate(&actor_gm, &actor_x);
    println!("\n=== V100 roofline simulation (GPU-side reading) ===\n");
    print_table(
        &["configuration", "sim runtime (s)", "speedup"],
        &[
            vec!["eager RN50 (sim)".into(), format!("{rn_sim_base:.5}"), "-".into()],
            vec![
                "TRT-like RN50 (sim)".into(),
                format!("{rn_sim_eng:.5}"),
                format!("{:.2}x", rn_sim_base / rn_sim_eng),
            ],
            vec![
                "eager LearningToPaint (sim)".into(),
                format!("{ltp_sim_base:.5}"),
                "-".into(),
            ],
            vec![
                "TRT-like LearningToPaint (sim)".into(),
                format!("{ltp_sim_eng:.5}"),
                format!("{:.2}x", ltp_sim_base / ltp_sim_eng),
            ],
        ],
    );

    println!("\n=== Figure 8 analogue: normalized runtime (eager = 1.0, measured) ===\n");
    for (label, s) in [("RN50           ", rn_speedup), ("LearningToPaint", ltp_speedup)] {
        let r = 1.0 / s;
        let bar = "#".repeat((r * 40.0).round() as usize);
        println!("  {label} lowered {r:>5.2}  {bar}");
    }
    println!("\npaper shape: lowered wins on both; RN50 3.7x, LearningToPaint 1.54x (V100+TensorRT)");
}
