//! Integration tests for the multi-tenant registry: concurrent
//! multi-model serving, per-model admission control and stats, hot
//! swap (zero downtime, version isolation), unregister draining,
//! adaptive batching, and typed `Shutdown` instead of hangs when a
//! backend dies.

use fx_core::{
    symbolic_trace, ExecConfig, ExecutionBackend, Executor, GraphModule, PreparedModel,
    Result as CoreResult, RunProfile, Value,
};
use fx_models::Mlp;
use fx_serve::{Error, ModelConfig, Registry};
use fx_tensor::rng::{SeedableRng, StdRng};
use fx_tensor::Tensor;
use std::sync::Arc;
use std::time::Duration;

const IN_A: usize = 8;
const OUT_A: usize = 4;
const IN_B: usize = 6;
const OUT_B: usize = 3;

fn mlp_a(seed: u64) -> GraphModule {
    let mut rng = StdRng::seed_from_u64(seed);
    symbolic_trace(&Mlp::new(&[IN_A, 16, OUT_A], &mut rng)).unwrap()
}

fn mlp_b(seed: u64) -> GraphModule {
    let mut rng = StdRng::seed_from_u64(seed);
    symbolic_trace(&Mlp::new(&[IN_B, 12, OUT_B], &mut rng)).unwrap()
}

fn randn(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::randn(shape, &mut rng)
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_f32().unwrap().iter().map(|f| f.to_bits()).collect()
}

fn solo(gm: &GraphModule, x: &Tensor) -> Vec<u32> {
    let out = Executor::new(gm)
        .with_threads(1)
        .run(&[Value::Tensor(x.clone())])
        .unwrap();
    bits(out.as_tensor().unwrap())
}

#[test]
fn two_models_serve_concurrently_bit_identically() {
    let gm_a = mlp_a(7);
    let gm_b = mlp_b(8);
    let registry = Registry::builder().workers(2).build().unwrap();
    let ha = registry
        .register("alpha", gm_a.clone(), &[vec![1, IN_A]])
        .unwrap();
    let hb = registry
        .register("beta", gm_b.clone(), &[vec![1, IN_B]])
        .unwrap();
    assert_eq!(registry.models(), vec!["alpha", "beta"]);
    assert_eq!(ha.model(), "alpha");
    assert_eq!(ha.version(), 1);

    const PER_CLIENT: u64 = 20;
    std::thread::scope(|s| {
        for c in 0..2u64 {
            let (ha, hb) = (ha.clone(), hb.clone());
            let (gm_a, gm_b) = (&gm_a, &gm_b);
            s.spawn(move || {
                for i in 0..PER_CLIENT {
                    let xa = randn(&[1, IN_A], 100 + c * 1000 + i);
                    let xb = randn(&[1, IN_B], 200 + c * 1000 + i);
                    let ya = ha.infer(vec![xa.clone()]).unwrap();
                    let yb = hb.infer(vec![xb.clone()]).unwrap();
                    assert_eq!(bits(&ya[0]), solo(gm_a, &xa), "alpha diverged");
                    assert_eq!(bits(&yb[0]), solo(gm_b, &xb), "beta diverged");
                }
            });
        }
    });

    let snap = registry.shutdown();
    assert_eq!(snap.models.len(), 2);
    let alpha = &snap.models[0];
    let beta = &snap.models[1];
    assert_eq!(alpha.name, "alpha");
    assert_eq!(beta.name, "beta");
    assert_eq!(alpha.stats.requests_ok, 2 * PER_CLIENT);
    assert_eq!(beta.stats.requests_ok, 2 * PER_CLIENT);
    assert_eq!(alpha.stats.requests_err + beta.stats.requests_err, 0);
    assert_eq!(snap.aggregate.requests_ok, 4 * PER_CLIENT);
    assert_eq!(snap.total_swaps, 0);
}

#[test]
fn queue_full_names_the_model() {
    let registry = Registry::builder().build().unwrap();
    let h = registry
        .register_with(
            "tiny",
            mlp_a(1),
            &[vec![1, IN_A]],
            ModelConfig::new()
                .queue_depth(1)
                .max_batch_size(64)
                .max_batch_delay(Duration::from_millis(300)),
        )
        .unwrap();

    let shed = std::thread::scope(|s| {
        let h2 = h.clone();
        let blocked = s.spawn(move || h2.infer(vec![randn(&[1, IN_A], 1)]));
        std::thread::sleep(Duration::from_millis(60));
        // The first request is being lingered on by the batcher with a
        // second one possibly queued; fill until shed.
        let mut shed = None;
        for i in 0..10 {
            match h.infer(vec![randn(&[1, IN_A], 10 + i)]) {
                Err(e) => {
                    shed = Some(e);
                    break;
                }
                Ok(_) => {}
            }
        }
        blocked.join().unwrap().unwrap();
        shed
    });

    match shed {
        Some(Error::QueueFull {
            model,
            depth,
            capacity,
        }) => {
            assert_eq!(model, "tiny");
            assert_eq!(capacity, 1);
            assert!(depth >= 1);
        }
        other => panic!("expected QueueFull naming 'tiny', got {other:?}"),
    }
    registry.shutdown();
}

#[test]
fn register_errors_are_typed() {
    let registry = Registry::builder().build().unwrap();
    registry
        .register("dup", mlp_a(1), &[vec![1, IN_A]])
        .unwrap();
    assert!(matches!(
        registry.register("dup", mlp_a(2), &[vec![1, IN_A]]),
        Err(Error::AlreadyRegistered(name)) if name == "dup"
    ));
    assert!(matches!(
        registry.handle("ghost"),
        Err(Error::UnknownModel(name)) if name == "ghost"
    ));
    assert!(matches!(
        registry.unregister("ghost"),
        Err(Error::UnknownModel(_))
    ));
    assert!(matches!(
        registry.swap("ghost", mlp_a(3)),
        Err(Error::UnknownModel(_))
    ));
    registry.shutdown();
}

#[test]
fn unregister_drains_and_frees_the_name() {
    let registry = Registry::builder().build().unwrap();
    let h = registry
        .register("m", mlp_a(5), &[vec![1, IN_A]])
        .unwrap();
    for i in 0..5 {
        h.infer(vec![randn(&[1, IN_A], i)]).unwrap();
    }
    let stats = registry.unregister("m").unwrap();
    assert_eq!(stats.requests_ok, 5);
    // The old handle is dead...
    assert!(matches!(
        h.infer(vec![randn(&[1, IN_A], 9)]),
        Err(Error::Closed)
    ));
    // ...the name is reusable...
    let h2 = registry
        .register("m", mlp_b(6), &[vec![1, IN_B]])
        .unwrap();
    h2.infer(vec![randn(&[1, IN_B], 9)]).unwrap();
    // ...and the aggregate still remembers the retired model.
    let snap = registry.stats();
    assert_eq!(snap.aggregate.requests_ok, 6);
    registry.shutdown();
}

#[test]
fn hot_swap_serves_new_version_after_drain() {
    let v1 = mlp_a(21);
    let v2 = mlp_a(22); // same interface, different weights
    let registry = Registry::builder().build().unwrap();
    let h = registry
        .register("m", v1.clone(), &[vec![1, IN_A]])
        .unwrap();

    let x = randn(&[1, IN_A], 3);
    assert_eq!(bits(&h.infer(vec![x.clone()]).unwrap()[0]), solo(&v1, &x));
    assert_eq!(h.version(), 1);

    let new_version = registry.swap("m", v2.clone()).unwrap();
    assert_eq!(new_version, 2);
    assert_eq!(h.version(), 2);
    // After swap() returns (old version drained), every response is v2.
    assert_eq!(bits(&h.infer(vec![x.clone()]).unwrap()[0]), solo(&v2, &x));

    let snap = registry.shutdown();
    assert_eq!(snap.total_swaps, 1);
    assert_eq!(snap.models[0].version, 2);
    assert_eq!(snap.models[0].stats.swaps, 1);
}

#[test]
fn swap_rejects_interface_changes() {
    let registry = Registry::builder().build().unwrap();
    registry
        .register("m", mlp_a(1), &[vec![1, IN_A]])
        .unwrap();
    // A model with different trailing dims must be rejected.
    let err = registry.swap("m", mlp_b(2)).unwrap_err();
    assert!(
        matches!(&err, Error::Build(msg) if msg.contains("swap rejected")),
        "got {err}"
    );
    // The original keeps serving.
    let h = registry.handle("m").unwrap();
    assert_eq!(h.version(), 1);
    h.infer(vec![randn(&[1, IN_A], 4)]).unwrap();
    registry.shutdown();
}

/// Admission names what is actually wrong: a shape error or a missing
/// shape rule is reported as itself (node, op, reason), and "not
/// batch-polymorphic" is reserved for a graph whose shapes are fine but
/// whose output does not lead with the batch. Both `register` and
/// `swap` surface the analysis text unchanged.
#[test]
fn admission_reports_the_actual_diagnosis() {
    use fx_core::{func, symbolic_trace_fn, Arg, Graph};
    let registry = Registry::builder().build().unwrap();
    registry
        .register("m", mlp_a(1), &[vec![1, IN_A]])
        .unwrap();
    let build_text = |result: Result<String, Error>| match result {
        Err(Error::Build(msg)) => msg,
        other => panic!("expected a build error, got {other:?}"),
    };
    let attempts = |gm: &GraphModule| {
        [
            build_text(registry.register("n", gm.clone(), &[vec![1, IN_A]]).map(|_| "registered".into())),
            build_text(registry.swap("m", gm.clone()).map(|v| format!("swapped to v{v}"))),
        ]
    };

    // flatten(0, -1) folds the batch into the payload.
    let folded = symbolic_trace_fn(1, |xs| func::flatten(&xs[0], 0, -1)).unwrap();
    for msg in attempts(&folded) {
        assert!(msg.contains("not batch-polymorphic") && msg.contains("[(N * 8)]"), "{msg}");
    }
    // A contraction mismatch is a shape error, at its node.
    for msg in attempts(&mlp_b(2)) {
        assert!(
            msg.contains("`fc0`") && msg.contains("does not match weight in-features (8 vs 6)"),
            "{msg}"
        );
        assert!(!msg.contains("batch-polymorphic"), "{msg}");
    }
    // An op the analysis has no rule for is reported as that.
    let mut g = Graph::new();
    let x = g.placeholder("x");
    let call = g.call_function("mystery", vec![Arg::Node(x)], vec![]);
    g.output(Arg::Node(call));
    let unknown =
        GraphModule::new(g, Default::default(), Default::default(), vec!["x".to_string()]).unwrap();
    for msg in attempts(&unknown) {
        assert!(msg.contains("no shape rule for op `mystery`"), "{msg}");
        assert!(!msg.contains("batch-polymorphic"), "{msg}");
    }
    assert_eq!(registry.handle("m").unwrap().version(), 1, "nothing was swapped in");
    registry.shutdown();
}

#[test]
fn adaptive_batching_collapses_delay_under_tight_budget() {
    // A p99 budget far below the configured 50ms delay: the control
    // loop must walk the effective delay down.
    let registry = Registry::builder().build().unwrap();
    let h = registry
        .register_with(
            "m",
            mlp_a(11),
            &[vec![1, IN_A]],
            ModelConfig::new()
                .max_batch_delay(Duration::from_millis(50))
                .p99_budget(Duration::from_micros(500)),
        )
        .unwrap();
    for i in 0..200u64 {
        h.infer(vec![randn(&[1, IN_A], i)]).unwrap();
    }
    let stats = h.stats();
    assert!(
        stats.batch_delay_s < 0.050,
        "tight budget must shrink the 50ms delay, still at {:.6}s",
        stats.batch_delay_s
    );
    registry.shutdown();
}

#[test]
fn adaptive_batching_keeps_delay_under_loose_budget() {
    // A huge budget: the delay should stay at the configured maximum.
    let registry = Registry::builder().build().unwrap();
    let h = registry
        .register_with(
            "m",
            mlp_a(12),
            &[vec![1, IN_A]],
            ModelConfig::new()
                .max_batch_delay(Duration::from_micros(200))
                .p99_budget(Duration::from_secs(10)),
        )
        .unwrap();
    for i in 0..100u64 {
        h.infer(vec![randn(&[1, IN_A], i)]).unwrap();
    }
    let stats = h.stats();
    assert!(
        (stats.batch_delay_s - 200e-6).abs() < 1e-9,
        "loose budget must leave the configured delay alone, got {:.6}s",
        stats.batch_delay_s
    );
    registry.shutdown();
}

/// A backend whose prepared model panics on every run — simulates a
/// worker dying mid-batch.
struct PanicBackend;
struct PanicModel;
impl PreparedModel for PanicModel {
    fn run(&self, _inputs: &[Value]) -> CoreResult<Value> {
        panic!("injected backend failure");
    }
    fn run_profiled(&self, _inputs: &[Value]) -> CoreResult<(Value, RunProfile)> {
        panic!("injected backend failure");
    }
    fn describe(&self) -> String {
        "panic-backend".to_string()
    }
}
impl ExecutionBackend for PanicBackend {
    fn name(&self) -> &'static str {
        "panic"
    }
    fn prepare_with(
        &self,
        _gm: &GraphModule,
        _cfg: ExecConfig,
    ) -> CoreResult<Box<dyn PreparedModel>> {
        Ok(Box::new(PanicModel))
    }
}

#[test]
fn dead_backend_returns_typed_shutdown_not_a_hang() {
    let registry = Registry::builder().build().unwrap();
    let bad = registry
        .register_with(
            "bad",
            mlp_a(1),
            &[vec![1, IN_A]],
            ModelConfig::new().backend(Arc::new(PanicBackend)),
        )
        .unwrap();
    let good = registry
        .register("good", mlp_b(2), &[vec![1, IN_B]])
        .unwrap();

    // The panicking batch must answer with a typed Shutdown, not hang
    // the client or kill the registry.
    let res = bad.infer(vec![randn(&[1, IN_A], 1)]);
    assert!(
        matches!(res, Err(Error::Shutdown)),
        "expected typed Shutdown from a dead backend, got {res:?}"
    );

    // The shared worker survived the panic and still serves the
    // healthy model.
    let x = randn(&[1, IN_B], 2);
    let y = good.infer(vec![x.clone()]).unwrap();
    assert_eq!(bits(&y[0]), solo(&mlp_b(2), &x));

    let snap = registry.shutdown();
    let bad_stats = snap.models.iter().find(|m| m.name == "bad").unwrap();
    assert_eq!(bad_stats.stats.requests_err, 1);
}

#[test]
fn registry_drop_drains_like_shutdown() {
    let registry = Registry::builder().build().unwrap();
    let h = registry
        .register_with(
            "m",
            mlp_a(3),
            &[vec![1, IN_A]],
            ModelConfig::new().max_batch_delay(Duration::from_millis(50)),
        )
        .unwrap();
    std::thread::scope(|s| {
        let j = s.spawn(move || h.infer(vec![randn(&[1, IN_A], 3)]));
        std::thread::sleep(Duration::from_millis(10));
        drop(registry);
        j.join().unwrap().expect("drained on drop");
    });
}

#[test]
fn exec_error_from_core_does_not_use_shutdown() {
    // fx_core contains its own panics via catch_unwind; a plain Exec
    // error must still come back as Exec, reserved Shutdown is only for
    // dead serving threads. A shape the executor rejects at run time
    // cannot happen here (validation catches it), so just confirm the
    // happy path distinguishes: infer Ok, then Closed after shutdown.
    let registry = Registry::builder().build().unwrap();
    let h = registry.register("m", mlp_a(4), &[vec![1, IN_A]]).unwrap();
    h.infer(vec![randn(&[1, IN_A], 1)]).unwrap();
    registry.shutdown();
    assert!(matches!(
        h.infer(vec![randn(&[1, IN_A], 2)]),
        Err(Error::Closed)
    ));
}
