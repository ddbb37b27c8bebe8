//! Integration tests for dynamic batching, each on one model served
//! through a [`Registry`]: coalescing, bit-identity with solo
//! execution, per-request shape rejection that never poisons
//! batch-mates, typed backpressure, and draining under load.
//! (Several models at once and hot swap are `registry.rs`'s.)

use fx_core::{symbolic_trace, symbolic_trace_fn, func, Executor, GraphModule, Value};
use fx_models::Mlp;
use fx_serve::{Error, Handle, ModelConfig, Registry};
use fx_tensor::rng::{Rng, SeedableRng, StdRng};
use fx_tensor::Tensor;
use std::time::Duration;

const IN: usize = 8;
const OUT: usize = 4;
const MODEL: &str = "mlp";

fn mlp_gm() -> GraphModule {
    let mut rng = StdRng::seed_from_u64(7);
    symbolic_trace(&Mlp::new(&[IN, 16, OUT], &mut rng)).unwrap()
}

fn randn(shape: &[usize], seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::randn(shape, &mut rng)
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_f32().unwrap().iter().map(|f| f.to_bits()).collect()
}

/// `gm` as the only model of a fresh one-worker registry.
fn serve(gm: GraphModule, cfg: ModelConfig) -> (Registry, Handle) {
    let registry = Registry::builder().build().unwrap();
    let handle = registry.register_with(MODEL, gm, &[vec![1, IN]], cfg).unwrap();
    (registry, handle)
}

/// The bit-exact solo answer for `x`, from a fresh single-threaded run.
fn solo(gm: &GraphModule, x: &Tensor) -> Tensor {
    let out = Executor::new(gm)
        .with_threads(1)
        .run(&[Value::Tensor(x.clone())])
        .unwrap();
    out.as_tensor().unwrap().clone()
}

#[test]
fn single_request_roundtrip_is_bit_identical() {
    let gm = mlp_gm();
    let (registry, handle) = serve(gm.clone(), ModelConfig::new());
    let x = randn(&[1, IN], 1);
    let want = solo(&gm, &x);
    let got = handle.infer(vec![x]).unwrap();
    assert_eq!(got.len(), 1, "MLP has one output");
    assert_eq!(bits(&got[0]), bits(&want));
    let stats = registry.unregister(MODEL).unwrap();
    assert_eq!(stats.requests_ok, 1);
    assert_eq!(stats.batches, 1);
}

#[test]
fn concurrent_clients_coalesce_and_stay_bit_identical() {
    let gm = mlp_gm();
    let (registry, handle) = serve(
        gm.clone(),
        ModelConfig::new()
            .max_batch_size(8)
            .max_batch_delay(Duration::from_millis(20)),
    );

    const CLIENTS: usize = 6;
    const PER_CLIENT: usize = 20;
    let results: Vec<(u64, Vec<u32>)> = std::thread::scope(|s| {
        let mut joins = Vec::new();
        for c in 0..CLIENTS as u64 {
            let handle = handle.clone();
            joins.push(s.spawn(move || {
                let mut out = Vec::new();
                for i in 0..PER_CLIENT as u64 {
                    let seed = 100 + c * 1000 + i;
                    let x = randn(&[1, IN], seed);
                    let y = handle.infer(vec![x]).unwrap();
                    out.push((seed, bits(&y[0])));
                }
                out
            }));
        }
        joins.into_iter().flat_map(|j| j.join().unwrap()).collect()
    });

    for (seed, got) in &results {
        let want = solo(&gm, &randn(&[1, IN], *seed));
        assert_eq!(got, &bits(&want), "response for seed {seed} diverged from solo run");
    }

    let stats = registry.unregister(MODEL).unwrap();
    assert_eq!(stats.requests_ok, (CLIENTS * PER_CLIENT) as u64);
    assert_eq!(stats.requests_err, 0);
    assert!(
        stats.mean_batch_rows > 1.0,
        "concurrent load should coalesce: {stats}"
    );
    assert!(stats.plan_cache_hits >= stats.batches - 1, "plan must be reused");
    assert_eq!(stats.plan_compiles, 1, "one compile for an unmutated module");
    let hist_total: u64 = stats.batch_rows_histogram.iter().sum();
    assert_eq!(hist_total, stats.batches);
}

#[test]
fn multi_row_requests_are_split_back_correctly() {
    let gm = mlp_gm();
    let (registry, handle) = serve(
        gm.clone(),
        ModelConfig::new()
            .max_batch_size(16)
            .max_batch_delay(Duration::from_millis(20)),
    );
    let sizes = [1usize, 3, 2, 5];
    let results = std::thread::scope(|s| {
        let joins: Vec<_> = sizes
            .iter()
            .enumerate()
            .map(|(i, &rows)| {
                let handle = handle.clone();
                s.spawn(move || {
                    let x = randn(&[rows, IN], 500 + i as u64);
                    (rows, 500 + i as u64, handle.infer(vec![x]).unwrap())
                })
            })
            .collect();
        joins.into_iter().map(|j| j.join().unwrap()).collect::<Vec<_>>()
    });
    for (rows, seed, got) in results {
        assert_eq!(got[0].shape(), &[rows, OUT]);
        let want = solo(&gm, &randn(&[rows, IN], seed));
        assert_eq!(bits(&got[0]), bits(&want));
    }
    registry.unregister(MODEL).unwrap();
}

#[test]
fn bad_shape_gets_typed_error_without_poisoning_batchmates() {
    let gm = mlp_gm();
    // A long delay forces the good and bad requests into one batch.
    let (registry, handle) = serve(
        gm.clone(),
        ModelConfig::new()
            .max_batch_size(64)
            .max_batch_delay(Duration::from_millis(100)),
    );

    let (goods, bad) = std::thread::scope(|s| {
        let good_joins: Vec<_> = (0..4u64)
            .map(|i| {
                let handle = handle.clone();
                s.spawn(move || {
                    let x = randn(&[1, IN], 700 + i);
                    (700 + i, handle.infer(vec![x]))
                })
            })
            .collect();
        let bad_join = {
            let handle = handle.clone();
            s.spawn(move || handle.infer(vec![randn(&[1, IN + 3], 999)]))
        };
        (
            good_joins.into_iter().map(|j| j.join().unwrap()).collect::<Vec<_>>(),
            bad_join.join().unwrap(),
        )
    });

    match bad {
        Err(Error::ShapeMismatch {
            placeholder,
            expected,
            got,
        }) => {
            assert_eq!(placeholder, 0);
            assert_eq!(expected, vec![IN]);
            assert_eq!(got, vec![1, IN + 3]);
        }
        other => panic!("expected ShapeMismatch, got {other:?}"),
    }
    for (seed, res) in goods {
        let got = res.unwrap_or_else(|e| panic!("batchmate of the bad request failed: {e}"));
        let want = solo(&gm, &randn(&[1, IN], seed));
        assert_eq!(bits(&got[0]), bits(&want), "batchmate answer poisoned");
    }

    let stats = registry.unregister(MODEL).unwrap();
    assert_eq!(stats.requests_ok, 4);
    assert_eq!(stats.requests_err, 1);
}

#[test]
fn queue_full_is_typed_backpressure() {
    let gm = mlp_gm();
    // Tiny queue + long linger: the first submissions sit in the queue
    // while the batcher waits out the delay, so the next one is shed.
    let (registry, handle) = serve(
        gm,
        ModelConfig::new()
            .queue_depth(2)
            .max_batch_size(64)
            .max_batch_delay(Duration::from_millis(300)),
    );

    let shed = std::thread::scope(|s| {
        let blocked: Vec<_> = (0..2u64)
            .map(|i| {
                let handle = handle.clone();
                s.spawn(move || handle.infer(vec![randn(&[1, IN], 40 + i)]))
            })
            .collect();
        // Give the two submissions time to land in the queue.
        std::thread::sleep(Duration::from_millis(80));
        let shed = handle.infer(vec![randn(&[1, IN], 49)]);
        for j in blocked {
            j.join().unwrap().expect("queued requests still complete");
        }
        shed
    });

    match &shed {
        Err(Error::QueueFull {
            model,
            depth,
            capacity,
        }) => {
            assert_eq!(model, MODEL, "QueueFull names the model");
            assert_eq!(*depth, 2);
            assert_eq!(*capacity, 2);
        }
        other => panic!("expected QueueFull, got {other:?}"),
    }
    let stats = registry.unregister(MODEL).unwrap();
    assert_eq!(stats.rejected_queue_full, 1);
    assert_eq!(stats.requests_ok, 2);
    assert_eq!(stats.queue_high_water, 2);
}

#[test]
fn shutdown_drains_in_flight_requests() {
    let gm = mlp_gm();
    let (registry, handle) = serve(
        gm,
        ModelConfig::new()
            .max_batch_size(4)
            .max_batch_delay(Duration::from_millis(5)),
    );

    let (stats, answered) = std::thread::scope(|s| {
        let joins: Vec<_> = (0..32u64)
            .map(|i| {
                let handle = handle.clone();
                s.spawn(move || handle.infer(vec![randn(&[1, IN], i)]))
            })
            .collect();
        // Unregister (drain and close) while clients are still
        // submitting: every request must get either a real answer or a
        // typed rejection — never a hang or a panic.
        let stats = registry.unregister(MODEL).unwrap();
        let mut answered = 0u64;
        for j in joins {
            match j.join().unwrap() {
                Ok(out) => {
                    assert_eq!(out[0].shape(), &[1, OUT]);
                    answered += 1;
                }
                Err(Error::Closed) | Err(Error::QueueFull { .. }) => {}
                Err(e) => panic!("unexpected error under shutdown: {e}"),
            }
        }
        (stats, answered)
    });
    assert_eq!(
        stats.requests_ok, answered,
        "stats must agree with what clients observed"
    );
}

#[test]
fn infer_after_shutdown_is_closed() {
    let gm = mlp_gm();
    let (registry, handle) = serve(gm, ModelConfig::new());
    registry.unregister(MODEL).unwrap();
    assert!(matches!(
        handle.infer(vec![randn(&[1, IN], 1)]),
        Err(Error::Closed)
    ));
}

#[test]
fn malformed_requests_are_rejected_before_queueing() {
    let gm = mlp_gm();
    let (registry, handle) = serve(gm, ModelConfig::new());
    // Wrong arity.
    assert!(matches!(
        handle.infer(vec![randn(&[1, IN], 1), randn(&[1, IN], 2)]),
        Err(Error::BadRequest(_))
    ));
    // Zero rows.
    assert!(matches!(
        handle.infer(vec![Tensor::zeros(&[0, IN])]),
        Err(Error::BadRequest(_))
    ));
    // None of these touched the serving pipeline.
    let stats = registry.unregister(MODEL).unwrap();
    assert_eq!(stats.requests_ok + stats.requests_err, 0);
}

#[test]
fn non_batch_polymorphic_model_is_rejected_at_build() {
    let gm = symbolic_trace_fn(1, |xs| func::flatten(&xs[0], 0, -1)).unwrap();
    let registry = Registry::builder().build().unwrap();
    let err = match registry.register(MODEL, gm, &[vec![2, 6]]) {
        Ok(_) => panic!("flatten(0,-1) must not be admitted"),
        Err(e) => e,
    };
    assert!(
        matches!(&err, Error::Build(msg) if msg.contains("batch")),
        "expected a batch-polymorphism build error, got {err}"
    );
}

#[test]
fn dropped_server_answers_like_shutdown() {
    // Dropping the registry (not unregistering) must still drain and
    // join, so a client blocked in infer gets its real answer rather
    // than being stranded.
    let gm = mlp_gm();
    let x = randn(&[1, IN], 3);
    let want = solo(&gm, &x);
    let (registry, handle) = serve(gm, ModelConfig::new().max_batch_delay(Duration::from_millis(50)));
    std::thread::scope(|s| {
        let j = s.spawn(move || handle.infer(vec![x]));
        std::thread::sleep(Duration::from_millis(10));
        drop(registry);
        let out = j.join().unwrap().expect("drained on drop");
        assert_eq!(bits(&out[0]), bits(&want));
    });
}

/// `Rng` is imported for `Tensor::randn`'s bound; silence the unused
/// warning on toolchains where the bound is inferred.
#[allow(dead_code)]
fn _rng_used<R: Rng>(_r: &mut R) {}
