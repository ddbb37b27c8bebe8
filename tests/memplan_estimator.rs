//! Cross-validation of the three memory views on the paper's
//! evaluation models:
//!
//! * the **estimator**'s analytic peak ([`peak_activation_bytes`]) —
//!   a liveness walk over shape metadata;
//! * the **memory planner**'s compile-time simulation
//!   ([`ExecPlan::mem`]) — the same liveness, plus bucketed buffer
//!   assignment;
//! * the **executor**'s measured behavior — profiled peak live bytes
//!   and buffer-pool counters over steady-state runs, in f32 and on an
//!   int8 PTQ model.
//!
//! Everything lives in ONE `#[test]` because the pool statistics are
//! process-global: concurrent test threads would pollute the deltas.
//! (Cargo runs separate test binaries sequentially, so other suites
//! can't interleave.)

use fx::passes::{cross_check_peak, infer_shapes};
use fx::prelude::*;
use fx_models::{resnet50, resnet_tiny, DeepRecommender, LearningToPaintActor};
use fx_tensor::pool;
use fx_tensor::rng::{SeedableRng, StdRng};

fn randn(shape: &[usize], seed: u64) -> Value {
    let mut rng = StdRng::seed_from_u64(seed);
    Value::Tensor(Tensor::randn(shape, &mut rng))
}

fn annotated_models() -> Vec<(&'static str, GraphModule, Vec<usize>)> {
    let mut out = Vec::new();
    let mut rng = StdRng::seed_from_u64(90);
    let gm = symbolic_trace(&resnet50(3, 10, &mut rng)).unwrap();
    out.push(("resnet50", gm, vec![1usize, 3, 32, 32]));
    let mut rng = StdRng::seed_from_u64(91);
    let gm = symbolic_trace(&DeepRecommender::new(64, &mut rng)).unwrap();
    out.push(("deep-recommender", gm, vec![2, 64]));
    let mut rng = StdRng::seed_from_u64(92);
    let gm = symbolic_trace(&LearningToPaintActor::new(&mut rng)).unwrap();
    out.push(("paint-actor", gm, vec![1, 9, 32, 32]));
    for (label, gm, shape) in &mut out {
        infer_shapes(gm, std::slice::from_ref(shape))
            .unwrap_or_else(|e| panic!("{label}: infer_shapes: {e}"));
    }
    out
}

/// resnet_tiny → conv+BN fusion → PTQ (prepare, calibrate, convert) →
/// shape annotation: an int8 graph whose i8 and i32 buffers live in
/// their own pool buckets.
fn int8_model() -> (&'static str, GraphModule, Vec<usize>) {
    let shape = vec![1usize, 3, 32, 32];
    let mut rng = StdRng::seed_from_u64(93);
    let mut gm = symbolic_trace(&resnet_tiny(&mut rng)).unwrap();
    fx::passes::fuse_conv_bn(&mut gm).unwrap();
    let cal: Vec<Vec<Value>> = (0..3)
        .map(|i| vec![randn(&[2, 3, 32, 32], 40 + i)])
        .collect();
    let mut qgm = fx::quant::quantize_ptq(&gm, &cal, &fx::quant::QConfig::default()).unwrap();
    infer_shapes(&mut qgm, std::slice::from_ref(&shape)).unwrap();
    ("resnet-tiny int8", qgm, shape)
}

#[test]
fn planner_estimator_and_measurement_agree() {
    for (label, gm, shape) in annotated_models() {
        let check = cross_check_peak(&gm).unwrap_or_else(|e| panic!("{label}: {e}"));

        // The planner's exact-size walk IS the estimator's walk: they
        // must agree to the byte, not approximately.
        assert_eq!(
            check.estimator_peak_bytes, check.planner_exact_peak_bytes,
            "{label}: estimator and planner disagree on the exact peak"
        );
        assert!(
            check.planned_reuses > 0,
            "{label}: a deep model must reuse buffers"
        );
        // Bucketing rounds each buffer up to a power of two, so the
        // steady-state pool footprint can exceed the exact peak, but by
        // less than 2x per buffer.
        assert!(
            check.planner_pool_peak_bytes < 2 * check.estimator_peak_bytes,
            "{label}: pool footprint {} not within 2x of exact peak {}",
            check.planner_pool_peak_bytes,
            check.estimator_peak_bytes
        );

        // Measured peak (planning off = classic allocation accounting)
        // never exceeds the estimate: the estimator is an upper bound.
        let x = randn(&shape, 7);
        let (_, profile) = Executor::new(&gm)
            .with_memory_planning(false)
            .run_profiled(std::slice::from_ref(&x))
            .unwrap_or_else(|e| panic!("{label}: profiled run: {e}"));
        let measured = profile.peak_live_bytes as u64;
        assert!(
            measured <= check.estimator_peak_bytes,
            "{label}: measured peak {measured} exceeds the estimate {}",
            check.estimator_peak_bytes
        );
        // ... and a tight one: within 25% + the output value the
        // runtime returns instead of keeping live.
        let out_bytes: u64 = gm
            .graph()
            .output_node()
            .and_then(|n| n.shape_meta())
            .map(|s| s.iter().product::<usize>() as u64 * 4)
            .unwrap_or(0);
        assert!(
            check.estimator_peak_bytes <= measured * 5 / 4 + out_bytes,
            "{label}: estimate {} is not tight against measured {measured}",
            check.estimator_peak_bytes
        );

        // Planned runs may only lower the peak (in-place rewrites).
        let (_, planned_profile) = Executor::new(&gm)
            .with_memory_planning(true)
            .run_profiled(std::slice::from_ref(&x))
            .unwrap_or_else(|e| panic!("{label}: planned profiled run: {e}"));
        assert!(planned_profile.memory_planning);
        assert!(
            planned_profile.peak_live_bytes as u64 <= measured,
            "{label}: planning raised the measured peak"
        );
    }

    // Steady-state allocation behavior, measured on the pool's global
    // counters (hence: same single test), in f32 and in int8.
    // Warm-up runs compile the plan and stock the pool buckets: two for
    // f32; three for int8, whose YMM tiles (FX_SIMD=avx2) still take one
    // extra fresh buffer on the third run.
    for ((label, gm, shape), warm_up) in [(annotated_models().remove(1), 2), (int8_model(), 3)] {
        let x = randn(&shape, 8);
        let mut ex = Executor::new(&gm).with_memory_planning(true);
        for _ in 0..warm_up {
            ex.run(std::slice::from_ref(&x)).unwrap();
        }

        let base = pool::stats();
        const RUNS: u64 = 5;
        for _ in 0..RUNS {
            ex.run(std::slice::from_ref(&x)).unwrap();
        }
        let delta = pool::stats().since(&base);
        assert!(
            delta.fresh_allocs <= RUNS,
            "{label}: steady state must average <=1 fresh allocation per run, got {} over {RUNS}",
            delta.fresh_allocs
        );
        assert!(
            delta.pool_hits >= 10 * delta.fresh_allocs,
            "{label}: pool hits ({}) must dominate fresh allocations ({})",
            delta.pool_hits,
            delta.fresh_allocs
        );

        // With planning off, every kernel allocation is fresh again.
        let base = pool::stats();
        Executor::new(&gm)
            .with_memory_planning(false)
            .run(std::slice::from_ref(&x))
            .unwrap();
        let off = pool::stats().since(&base);
        assert_eq!(
            off.pool_hits, 0,
            "{label}: unplanned runs must not touch the pool"
        );
        assert!(off.fresh_allocs > 0, "{label}: unplanned runs allocate");
    }
}
