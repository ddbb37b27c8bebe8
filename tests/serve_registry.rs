//! Multi-tenant registry suite: hot swap under sustained load must be
//! zero-downtime and version-exact, and randomized concurrent
//! register / swap / unregister / infer schedules (TorchProbe-style,
//! seeded and offline) must never hang, strand, or serve bits that no
//! registered version of the model would produce.

use fx::prelude::*;
use fx::serve::{Error as ServeError, ModelConfig, Registry};
use fx_models::{resnet50, Mlp};
use fx_tensor::rng::{Rng, SeedableRng, StdRng};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

fn randn(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::randn(shape, &mut rng)
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_f32()
        .expect("model output is f32")
        .iter()
        .map(|f| f.to_bits())
        .collect()
}

fn solo(gm: &GraphModule, x: &Tensor) -> Vec<u32> {
    bits(
        Executor::new(gm)
            .with_threads(1)
            .run(&[Value::Tensor(x.clone())])
            .expect("solo run")
            .as_tensor()
            .expect("model output is a tensor"),
    )
}

/// Swap ResNet-50's weights while 4 concurrent clients hammer the
/// registry. The acceptance bar from the paper's serving story:
///
/// * **zero downtime** — not a single request fails across the swap;
/// * **version exactness** — every response is bit-identical to a solo
///   `Executor` run of *whichever version served it* (v1 or v2, never a
///   mixture), and every request submitted after `swap` returned (old
///   version fully drained) is answered by v2.
#[test]
fn resnet50_hot_swap_under_load_is_zero_downtime_and_version_exact() {
    let mut rng = StdRng::seed_from_u64(60);
    let v1 = symbolic_trace(&resnet50(3, 10, &mut rng)).expect("resnet50 v1 traces");
    let mut rng = StdRng::seed_from_u64(61);
    let v2 = symbolic_trace(&resnet50(3, 10, &mut rng)).expect("resnet50 v2 traces");

    // A small fixed input set so the expected answers of both versions
    // can be precomputed exactly.
    const SHAPE: [usize; 4] = [1, 3, 32, 32];
    let inputs: Vec<Tensor> = (0..3u64).map(|i| randn(&SHAPE, 7000 + i)).collect();
    let want_v1: Vec<Vec<u32>> = inputs.iter().map(|x| solo(&v1, x)).collect();
    let want_v2: Vec<Vec<u32>> = inputs.iter().map(|x| solo(&v2, x)).collect();

    let registry = Registry::builder().workers(2).build().expect("registry builds");
    let handle = registry
        .register_with(
            "resnet50",
            v1,
            &[SHAPE.to_vec()],
            ModelConfig::new()
                .max_batch_size(4)
                .max_batch_delay(Duration::from_millis(2)),
        )
        .expect("resnet50 registers");

    const CLIENTS: u64 = 4;
    const PER_CLIENT: u64 = 6;
    let swapped = AtomicBool::new(false);

    std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let handle = handle.clone();
                let (inputs, want_v1, want_v2, swapped) = (&inputs, &want_v1, &want_v2, &swapped);
                s.spawn(move || {
                    for i in 0..PER_CLIENT {
                        let k = ((c + i) % inputs.len() as u64) as usize;
                        // Read the flag *before* submitting: if the swap
                        // had already drained by then, only v2 can serve
                        // this request.
                        let after_swap = swapped.load(Ordering::SeqCst);
                        let out = handle
                            .infer(vec![inputs[k].clone()])
                            .unwrap_or_else(|e| panic!("client {c} request {i} failed: {e}"));
                        let got = bits(&out[0]);
                        if after_swap {
                            assert_eq!(
                                got, want_v2[k],
                                "client {c} request {i}: submitted after the swap drained \
                                 but not answered by v2"
                            );
                        } else {
                            assert!(
                                got == want_v1[k] || got == want_v2[k],
                                "client {c} request {i}: response matches neither version \
                                 of the model"
                            );
                        }
                    }
                })
            })
            .collect();

        // Let the first wave land on v1, then swap mid-stream.
        std::thread::sleep(Duration::from_millis(30));
        let new_version = registry.swap("resnet50", v2).expect("hot swap succeeds");
        assert_eq!(new_version, 2);
        swapped.store(true, Ordering::SeqCst);

        for c in clients {
            c.join().expect("client thread survives the swap");
        }
    });

    let snap = registry.shutdown();
    let model = &snap.models[0];
    assert_eq!(model.version, 2);
    assert_eq!(model.stats.swaps, 1);
    assert_eq!(
        model.stats.requests_ok,
        CLIENTS * PER_CLIENT,
        "zero downtime: every request answered Ok across the swap"
    );
    assert_eq!(model.stats.requests_err, 0);
}

// ---------------------------------------------------------------------
// TorchProbe-style schedule fuzz: randomized concurrent lifecycles.
// ---------------------------------------------------------------------

const NAMES: [&str; 3] = ["m0", "m1", "m2"];
const IN: usize = 8;

/// Admission is real for every form the stack ships a model in: the
/// registry admits ResNet-50 as traced, conv–BN fused, backend-fused,
/// lowered to an engine leaf and PTQ-quantized (each then answers one
/// request with its solo bits), and still refuses a graph that folds the
/// batch into the payload — saying so.
#[test]
fn registry_admits_every_compiled_form_and_names_a_real_rejection() {
    let mut rng = StdRng::seed_from_u64(62);
    let traced = symbolic_trace(&resnet50(3, 10, &mut rng)).expect("resnet50 traces");
    const SHAPE: [usize; 4] = [1, 3, 32, 32];
    let mut bn_fused = traced.clone();
    fx::passes::fuse_conv_bn(&mut bn_fused).expect("conv-BN fusion");
    let mut backend_fused = traced.clone();
    fx::backend::fuse(&mut backend_fused, Default::default()).expect("backend fusion");
    let lowered = fx::backend::lower(&traced).expect("lowering").0;
    let calibration = vec![vec![Value::Tensor(randn(&[2, 3, 32, 32], 7100))]];
    let int8 = fx::quant::quantize_ptq(&bn_fused, &calibration, &Default::default())
        .expect("post-training quantization");

    let registry = Registry::builder().workers(1).build().expect("registry builds");
    let x = randn(&SHAPE, 7101);
    for (name, gm) in [
        ("traced", traced),
        ("conv-bn-fused", bn_fused),
        ("backend-fused", backend_fused),
        ("lowered", lowered),
        ("ptq-int8", int8),
    ] {
        let handle = registry
            .register(name, gm.clone(), &[SHAPE.to_vec()])
            .unwrap_or_else(|e| panic!("{name} must be admitted: {e}"));
        let served = handle.infer(vec![x.clone()]).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(bits(&served[0]), solo(&gm, &x), "{name}: served bits differ from solo");
    }
    let folded = symbolic_trace_fn(1, |xs| func::flatten(&xs[0], 0, -1)).expect("traces");
    match registry.register("folded", folded, &[vec![1, 4]]) {
        Err(ServeError::Build(msg)) => assert!(msg.contains("not batch-polymorphic"), "{msg}"),
        other => panic!("flatten(0, -1) must be refused, got {:?}", other.map(|_| ())),
    }
    registry.shutdown();
}

fn mlp(seed: u64) -> GraphModule {
    let mut rng = StdRng::seed_from_u64(seed);
    symbolic_trace(&Mlp::new(&[IN, 12, 4], &mut rng)).expect("mlp traces")
}

/// Every graph ever registered or swapped under each name, appended
/// *before* the registry call — so by the time any response could have
/// come from a version, that version is already in the superset.
type VersionLog = Mutex<HashMap<&'static str, Vec<GraphModule>>>;

fn fuzz_cases() -> u64 {
    std::env::var("FX_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(6)
}

/// A seeded sweep of concurrent register / swap / unregister / infer
/// schedules across ≥2 models sharing one worker pool. Invariants:
///
/// * nothing panics, hangs, or strands a client;
/// * every `Ok` response is bit-identical to a solo run of **some**
///   version ever registered under that name;
/// * every `Err` is one of the typed lifecycle errors;
/// * the final snapshot's aggregate `requests_ok` equals the number of
///   `Ok`s clients observed.
#[test]
fn fuzzed_concurrent_schedules_keep_registry_invariants() {
    for case in 0..fuzz_cases() {
        let seed = 0xC0FFEE ^ (case * 0x9E37_79B9);
        fuzz_one_schedule(case, seed);
    }
}

fn fuzz_one_schedule(case: u64, seed: u64) {
    let registry = Registry::builder().workers(2).build().expect("registry builds");
    let versions: VersionLog = Mutex::new(HashMap::new());

    // Seed two models so infer has something to hit from the start.
    for (i, name) in NAMES.iter().take(2).enumerate() {
        let gm = mlp(seed + i as u64);
        versions.lock().unwrap().entry(name).or_default().push(gm.clone());
        registry
            .register(name, gm, &[vec![1, IN]])
            .expect("seed registration");
    }

    const THREADS: u64 = 3;
    const OPS: u64 = 25;
    let total_ok: u64 = std::thread::scope(|s| {
        let joins: Vec<_> = (0..THREADS)
            .map(|t| {
                let registry = &registry;
                let versions = &versions;
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed ^ (0xA5A5 + t));
                    let mut ok = 0u64;
                    for op in 0..OPS {
                        let name = NAMES[(rng.next_u64() % NAMES.len() as u64) as usize];
                        let op_seed = seed ^ (t << 32) ^ op;
                        match rng.next_u64() % 10 {
                            // Mostly infer: the datapath under churn.
                            0..=5 => match registry.handle(name) {
                                Ok(h) => match h.infer(vec![randn(&[1, IN], op_seed)]) {
                                    Ok(out) => {
                                        let got = bits(&out[0]);
                                        let x = randn(&[1, IN], op_seed);
                                        let vs = versions.lock().unwrap();
                                        let served_by_known = vs
                                            .get(name)
                                            .map(|gs| gs.iter().any(|g| solo(g, &x) == got))
                                            .unwrap_or(false);
                                        assert!(
                                            served_by_known,
                                            "case {case} t{t} op{op}: response for `{name}` \
                                             matches no version ever registered"
                                        );
                                        ok += 1;
                                    }
                                    // Raced an unregister/shutdown or a
                                    // full queue: typed, never a hang.
                                    Err(ServeError::Closed)
                                    | Err(ServeError::QueueFull { .. }) => {}
                                    Err(e) => {
                                        panic!("case {case} t{t} op{op}: unexpected infer error: {e}")
                                    }
                                },
                                Err(ServeError::UnknownModel(_)) => {}
                                Err(e) => {
                                    panic!("case {case} t{t} op{op}: unexpected handle error: {e}")
                                }
                            },
                            6..=7 => {
                                let gm = mlp(op_seed);
                                versions.lock().unwrap().entry(name).or_default().push(gm.clone());
                                match registry.register(name, gm, &[vec![1, IN]]) {
                                    Ok(_) | Err(ServeError::AlreadyRegistered(_)) => {}
                                    Err(e) => panic!(
                                        "case {case} t{t} op{op}: unexpected register error: {e}"
                                    ),
                                }
                            }
                            8 => {
                                let gm = mlp(op_seed);
                                versions.lock().unwrap().entry(name).or_default().push(gm.clone());
                                match registry.swap(name, gm) {
                                    Ok(_) | Err(ServeError::UnknownModel(_)) => {}
                                    Err(e) => panic!(
                                        "case {case} t{t} op{op}: unexpected swap error: {e}"
                                    ),
                                }
                            }
                            _ => match registry.unregister(name) {
                                Ok(_) | Err(ServeError::UnknownModel(_)) => {}
                                Err(e) => panic!(
                                    "case {case} t{t} op{op}: unexpected unregister error: {e}"
                                ),
                            },
                        }
                    }
                    ok
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("fuzz thread survives"))
            .sum()
    });

    let snap = registry.shutdown();
    assert_eq!(
        snap.aggregate.requests_ok, total_ok,
        "case {case}: aggregate stats must count exactly the Oks clients observed"
    );
    assert_eq!(
        snap.aggregate.requests_err, 0,
        "case {case}: graceful lifecycles never fail an accepted request"
    );
}
