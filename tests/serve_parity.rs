//! Serving parity suite: responses from the `fx_serve` dynamic batcher
//! must be **bit-identical** to solo `Executor` runs of the same
//! request, for every evaluation model, under concurrent clients —
//! whether the registry was handed the graph as traced or its exact-mode
//! fused twin (`fx_backend::fuse` without conv–BN folding), which is
//! compared against the solo run of the **un-fused** graph.
//!
//! Bit-identity (not `allclose`) holds because dim-0 stacking of
//! contiguous row-major tensors is pure buffer concatenation and every
//! kernel computes each output row of a batch from its own input rows
//! alone, with a batch-independent reduction order (see DESIGN.md §7).
//! Coalescing therefore cannot perturb a single bit of any response,
//! and exact-mode fusion keeps every fused kernel on the same
//! accumulation order as the eager ops.

use fx::backend::{fuse, CompileOptions};
use fx::prelude::*;
use fx::serve::{ModelConfig, Registry};
use fx_models::{resnet50, DeepRecommender, LearningToPaintActor};
use fx_tensor::rng::{SeedableRng, StdRng};
use std::time::Duration;

const CLIENTS: usize = 4;
const PER_CLIENT: usize = 3;

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

fn solo(gm: &GraphModule, x: &Tensor) -> Tensor {
    Executor::new(gm)
        .with_threads(1)
        .run(&[Value::Tensor(x.clone())])
        .expect("solo run")
        .as_tensor()
        .expect("model output is a tensor")
        .clone()
}

/// N clients hammer the served model concurrently; every response must match
/// the solo run of the same input bit-for-bit.
fn assert_served_parity(gm: &GraphModule, input_shape: &[usize], label: &str) {
    assert_served_parity_with(gm, gm.clone(), input_shape, label);
}

/// Serve `served` and compare every response with the solo run of
/// `reference` — the same graph, or the graph `served` was fused from.
fn assert_served_parity_with(
    reference: &GraphModule,
    served: GraphModule,
    input_shape: &[usize],
    label: &str,
) {
    let registry = Registry::builder().build().expect("registry builds");
    let cfg = ModelConfig::new()
        .max_batch_size(2 * input_shape[0].max(1))
        .max_batch_delay(Duration::from_millis(10));
    let handle = registry
        .register_with(label, served, &[input_shape.to_vec()], cfg)
        .unwrap_or_else(|e| panic!("{label}: registration failed: {e}"));

    let responses: Vec<(u64, Vec<u32>)> = std::thread::scope(|s| {
        let joins: Vec<_> = (0..CLIENTS as u64)
            .map(|c| {
                let handle = handle.clone();
                s.spawn(move || {
                    (0..PER_CLIENT as u64)
                        .map(|i| {
                            let seed = 1000 * c + i;
                            let x = randn(input_shape, seed);
                            let out = handle
                                .infer(vec![x])
                                .unwrap_or_else(|e| panic!("infer failed: {e}"));
                            assert_eq!(out.len(), 1, "one output tensor");
                            (seed, bits(&out[0]))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        joins.into_iter().flat_map(|j| j.join().unwrap()).collect()
    });

    for (seed, served) in &responses {
        let want = bits(&solo(reference, &randn(input_shape, *seed)));
        assert_eq!(
            served, &want,
            "{label}: served response for seed {seed} diverged from the solo executor run"
        );
    }

    let stats = registry.unregister(label).expect("registered above");
    assert_eq!(stats.requests_ok, (CLIENTS * PER_CLIENT) as u64, "{label}: {stats}");
    assert_eq!(stats.requests_err, 0, "{label}: {stats}");
    assert_eq!(stats.plan_compiles, 1, "{label}: plan compiled once, then shared");
}

#[test]
fn resnet50_served_responses_are_bit_identical() {
    let mut rng = StdRng::seed_from_u64(50);
    let gm = symbolic_trace(&resnet50(3, 10, &mut rng)).expect("resnet50 traces");
    assert_served_parity(&gm, &[1, 3, 32, 32], "resnet50");
}

#[test]
fn deep_recommender_served_responses_are_bit_identical() {
    let mut rng = StdRng::seed_from_u64(52);
    let gm = symbolic_trace(&DeepRecommender::new(64, &mut rng)).expect("recommender traces");
    // Two-row requests: the batcher stacks multi-row requests too.
    assert_served_parity(&gm, &[2, 64], "deep_recommender");
}

#[test]
fn learning_to_paint_served_responses_are_bit_identical() {
    let mut rng = StdRng::seed_from_u64(51);
    let gm = symbolic_trace(&LearningToPaintActor::new(&mut rng)).expect("paint actor traces");
    assert_served_parity(&gm, &[1, 9, 32, 32], "learning_to_paint");
}

/// The same three models, served as their exact-mode fused graphs —
/// fused by the caller before they are registered — all bit-identical
/// to the solo run of the un-fused graph.
#[test]
fn all_backends_serve_bit_identically() {
    let mut rng = StdRng::seed_from_u64(50);
    let resnet = symbolic_trace(&resnet50(3, 10, &mut rng)).expect("resnet50 traces");
    let mut rng = StdRng::seed_from_u64(52);
    let recommender = symbolic_trace(&DeepRecommender::new(64, &mut rng)).expect("recommender");
    let mut rng = StdRng::seed_from_u64(51);
    let actor = symbolic_trace(&LearningToPaintActor::new(&mut rng)).expect("paint actor");

    for (gm, shape, label) in [
        (&resnet, vec![1usize, 3, 32, 32], "resnet50"),
        (&recommender, vec![2, 64], "deep_recommender"),
        (&actor, vec![1, 9, 32, 32], "learning_to_paint"),
    ] {
        let mut fused = gm.clone();
        fuse(&mut fused, CompileOptions { fuse_conv_bn: false })
            .unwrap_or_else(|e| panic!("{label}: exact-mode fuse failed: {e}"));
        assert_served_parity_with(gm, fused, &shape, &format!("{label}/exact-fused"));
    }
}

/// Shutdown while clients are mid-flight: every request is answered
/// (result or typed rejection), stats agree with what clients saw, and
/// nothing hangs or panics.
#[test]
fn shutdown_under_load_strands_no_request() {
    let mut rng = StdRng::seed_from_u64(52);
    let gm = symbolic_trace(&DeepRecommender::new(64, &mut rng)).expect("recommender traces");
    let registry = Registry::builder().build().expect("registry builds");
    let cfg = ModelConfig::new()
        .max_batch_size(4)
        .max_batch_delay(Duration::from_millis(1))
        .queue_depth(16);
    let handle = registry
        .register_with("recommender", gm, &[vec![1, 64]], cfg)
        .expect("recommender registers");

    let (stats, ok_seen) = std::thread::scope(|s| {
        let joins: Vec<_> = (0..6u64)
            .map(|c| {
                let handle = handle.clone();
                s.spawn(move || {
                    let mut ok = 0u64;
                    for i in 0..50u64 {
                        match handle.infer(vec![randn(&[1, 64], c * 100 + i)]) {
                            Ok(out) => {
                                assert_eq!(out[0].shape()[0], 1);
                                ok += 1;
                            }
                            Err(fx::serve::Error::Closed)
                            | Err(fx::serve::Error::QueueFull { .. }) => {}
                            Err(e) => panic!("unexpected error under shutdown: {e}"),
                        }
                    }
                    ok
                })
            })
            .collect();
        // Let some requests land, then pull the plug mid-stream.
        std::thread::sleep(Duration::from_millis(5));
        let stats = registry.unregister("recommender").expect("registered above");
        let ok_seen: u64 = joins.into_iter().map(|j| j.join().unwrap()).sum();
        (stats, ok_seen)
    });

    assert_eq!(
        stats.requests_ok, ok_seen,
        "every Ok seen by a client is counted, none stranded: {stats}"
    );
}
