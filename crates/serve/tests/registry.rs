//! Integration tests for the multi-tenant registry: concurrent
//! multi-model serving, per-model admission control and stats, hot
//! swap (zero downtime, version isolation), unregister draining,
//! adaptive batching, a typed error instead of a dead worker when a
//! kernel panics, and admission of graphs that call a user op.

use fx_core::dispatch::{register_function, Inputs, OpKind};
use fx_core::{
    func, symbolic_trace, Arg, ArcModule, ExecConfig, Executor, Graph, GraphModule, Module,
    Result as CoreResult, Value,
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

/// A leaf that traces as `relu` — so the graph passes admission — and
/// panics whenever it runs on real tensors.
#[derive(Debug)]
struct Tripwire;

impl Module for Tripwire {
    fn forward(&self, xs: &[Value]) -> CoreResult<Value> {
        if xs[0].contains_proxy() {
            return func::relu(&xs[0]);
        }
        panic!("injected kernel failure");
    }

    fn type_name(&self) -> &'static str {
        "Tripwire"
    }

    fn is_builtin_leaf(&self) -> bool {
        true
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// `x -> tripwire -> output`.
fn tripwire_graph() -> GraphModule {
    let mut g = Graph::new();
    let x = g.placeholder("x");
    let y = g.call_module("tripwire", vec![Arg::Node(x)], vec![]);
    g.output(Arg::Node(y));
    let modules = [("tripwire".to_string(), Arc::new(Tripwire) as ArcModule)].into();
    GraphModule::new(g, modules, Default::default(), vec!["x".to_string()]).unwrap()
}

#[test]
fn panicking_kernel_is_a_typed_error_and_the_other_model_serves() {
    let registry = Registry::builder().build().unwrap();
    let bad = registry
        .register("bad", tripwire_graph(), &[vec![1, IN_A]])
        .unwrap();
    let good = registry
        .register("good", mlp_b(2), &[vec![1, IN_B]])
        .unwrap();

    // The executor contains the panic: the client gets a typed error
    // naming the node, not a hang or a dead worker.
    let res = bad.infer(vec![randn(&[1, IN_A], 1)]);
    let Err(Error::Exec(e)) = &res else {
        panic!("expected Error::Exec from a panicking kernel, got {res:?}");
    };
    let msg = e.to_string();
    assert!(msg.contains("tripwire"), "names the node: {msg}");
    assert!(msg.contains("panicked"), "says it panicked: {msg}");

    // The shared worker still serves the healthy model.
    let x = randn(&[1, IN_B], 2);
    let y = good.infer(vec![x.clone()]).unwrap();
    assert_eq!(bits(&y[0]), solo(&mlp_b(2), &x));

    let snap = registry.shutdown();
    let bad_stats = snap.models.iter().find(|m| m.name == "bad").unwrap();
    assert_eq!(bad_stats.stats.requests_err, 1);
    assert_eq!(bad_stats.stats.requests_ok, 0);
}

/// Registration compiles the plan, so the first batch already hits it;
/// the snapshot's `backend` line names the resolved kernel threads,
/// memory planning and SIMD level.
#[test]
fn registration_warms_the_plan_cache() {
    let registry = Registry::builder().build().unwrap();
    let h = registry.register("m", mlp_a(4), &[vec![1, IN_A]]).unwrap();
    let pinned = registry
        .register_with(
            "pinned",
            mlp_b(5),
            &[vec![1, IN_B]],
            ModelConfig::new().exec_config(ExecConfig::from_env().with_threads(3)),
        )
        .unwrap();
    h.infer(vec![randn(&[1, IN_A], 4)]).unwrap();
    let stats = h.stats();
    assert_eq!(stats.plan_compiles, 1, "compiled once, at registration");
    assert_eq!(stats.plan_cache_hits, stats.batches, "every batch hits the warmed plan");

    let snap = registry.stats();
    let line = |name: &str| {
        snap.models.iter().find(|m| m.name == name).unwrap().backend.clone()
    };
    let m = line("m");
    assert!(m.starts_with("executor("), "{m}");
    let threads = fx_tensor::threading::with_num_threads(
        ExecConfig::from_env().threads,
        fx_tensor::threading::num_threads,
    );
    assert!(m.contains(&format!("threads={threads} ")), "resolved, not 0: {m}");
    assert!(m.contains(&format!("simd={}", fx_tensor::simd_level())), "{m}");
    assert!(line("pinned").starts_with("executor(threads=3 "), "{}", line("pinned"));
    // A swapped-in version runs under the model's registered config.
    registry.swap("pinned", mlp_b(6)).unwrap();
    let snap = registry.stats();
    let pinned_line = &snap.models.iter().find(|m| m.name == "pinned").unwrap().backend;
    assert!(pinned_line.starts_with("executor(threads=3 "), "{pinned_line}");
    drop(pinned);
    registry.shutdown();
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

// ----- user ops -----------------------------------------------------------
//
// A user op enters the IR as one row of the operator table: its kernel
// and the `OpKind` its output obeys. The table is process-wide, so the
// tests that (re)register `custom::noop` with different kinds take
// turns.

static USER_OP: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn noop(i: &Inputs<'_>) -> CoreResult<Value> {
    Ok(Value::Tensor(i.tensor(0)?.clone()))
}

/// Register `custom::noop` as `kind` and hold the table until the guard
/// drops.
fn user_op(kind: OpKind) -> std::sync::MutexGuard<'static, ()> {
    let guard = USER_OP.lock().unwrap_or_else(|p| p.into_inner());
    register_function("custom::noop", noop, kind);
    guard
}

/// A graph over one placeholder `x`; `body` adds the calls and returns
/// the output node.
fn graph_of(body: impl FnOnce(&mut Graph, fx_core::NodeId) -> fx_core::NodeId) -> GraphModule {
    let mut g = Graph::new();
    let x = g.placeholder("x");
    let out = body(&mut g, x);
    g.output(Arg::Node(out));
    GraphModule::new(g, Default::default(), Default::default(), vec!["x".to_string()]).unwrap()
}

/// `x → custom::noop` (unused) beside `x → relu → output`.
fn dead_noop_graph() -> GraphModule {
    graph_of(|g, x| {
        g.call_function("custom::noop", vec![Arg::Node(x)], vec![]);
        g.call_function("relu", vec![Arg::Node(x)], vec![])
    })
}

/// `x → custom::noop → relu → output`.
fn live_noop_graph() -> GraphModule {
    graph_of(|g, x| {
        let n = g.call_function("custom::noop", vec![Arg::Node(x)], vec![]);
        g.call_function("relu", vec![Arg::Node(n)], vec![])
    })
}

fn served_equals_solo(gm: GraphModule) {
    let registry = Registry::builder().build().unwrap();
    let h = registry.register("user", gm.clone(), &[vec![1, IN_A]]).unwrap();
    let x = randn(&[2, IN_A], 11);
    let y = h.infer(vec![x.clone()]).unwrap();
    assert_eq!(bits(&y[0]), solo(&gm, &x));
    registry.shutdown();
}

#[test]
fn a_user_op_of_a_known_kind_on_a_dead_branch_registers_and_serves() {
    let _op = user_op(OpKind::Same);
    served_equals_solo(dead_noop_graph());
}

#[test]
fn an_opaque_user_op_on_a_dead_branch_registers_and_serves() {
    let _op = user_op(OpKind::Opaque);
    served_equals_solo(dead_noop_graph());
}

#[test]
fn an_opaque_user_op_on_the_live_path_is_refused_by_name() {
    let _op = user_op(OpKind::Opaque);
    let registry = Registry::builder().build().unwrap();
    let Err(Error::Build(msg)) = registry.register("user", live_noop_graph(), &[vec![1, IN_A]])
    else {
        panic!("expected Error::Build");
    };
    assert!(msg.contains("custom::noop") && msg.contains("OpKind"), "{msg}");
    registry.shutdown();
}

/// An opaque value is not a scalar operand: `add(x, opaque)` must not be
/// typed as `x`'s shape.
#[test]
fn an_opaque_value_feeding_add_is_refused() {
    let _op = user_op(OpKind::Opaque);
    let gm = graph_of(|g, x| {
        let n = g.call_function("custom::noop", vec![Arg::Node(x)], vec![]);
        g.call_function("add", vec![Arg::Node(x), Arg::Node(n)], vec![])
    });
    let registry = Registry::builder().build().unwrap();
    let Err(Error::Build(msg)) = registry.register("user", gm, &[vec![1, IN_A]]) else {
        panic!("expected Error::Build");
    };
    assert!(msg.contains("custom::noop"), "{msg}");
    registry.shutdown();
}

/// A user op of a known kind is typed and costed like a built-in one of
/// that kind: the data-free walk agrees with the observed shape, the
/// estimator charges it, and the registry admits it on the live path.
#[test]
fn a_user_op_of_a_known_kind_is_typed_and_costed() {
    let _op = user_op(OpKind::Same);
    let mut gm = live_noop_graph();
    let x = randn(&[3, IN_A], 12);
    fx_passes::shape_prop(&mut gm, &[Value::Tensor(x)]).unwrap();
    let noop_node = gm
        .graph()
        .nodes()
        .find(|n| n.target() == "custom::noop")
        .unwrap();
    assert_eq!(noop_node.shape_meta(), Some(&[3, IN_A][..]));
    let inferred = fx_passes::infer_shapes(&mut gm.clone(), &[vec![3, IN_A]]).unwrap();
    assert_eq!(inferred[noop_node.name()], vec![3, IN_A]);

    let report = fx_passes::estimate(&gm, &fx_passes::DeviceSpec::v100()).unwrap();
    let row = report
        .nodes
        .iter()
        .find(|r| r.target == "custom::noop")
        .expect("a row for the user op");
    assert_eq!(row.flops, (3 * IN_A) as u64, "one op per element, like a unary");
    assert!(row.bytes > 0 && row.time > 0.0, "{row:?}");

    served_equals_solo(live_noop_graph());
}
