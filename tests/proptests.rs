//! Randomized property tests over the whole stack: randomized models
//! and graph-edit sequences checking the invariants DESIGN.md commits
//! to.
//!
//! Each property runs a fixed number of cases drawn from the in-repo
//! deterministic [`StdRng`] (SplitMix64), so failures reproduce exactly
//! from the printed case seed — no external property-testing framework
//! and no shrinking, but the generators are kept small enough that a
//! failing case is directly debuggable.

use fx::backend::compile;
use fx::passes::{
    eliminate_common_subexpressions, infer_shapes, peak_activation_bytes, shape_prop,
};
use fx::prelude::*;
use fx_core::Arg;
use fx_models::Mlp;
use fx_tensor::rng::{Rng, SeedableRng, StdRng};

const CASES: u64 = 24;

fn value(shape: &[usize], seed: u64) -> Value {
    let mut rng = StdRng::seed_from_u64(seed);
    Value::Tensor(Tensor::rand_uniform(shape, -1.0, 1.0, &mut rng))
}

fn random_widths(rng: &mut StdRng, n: std::ops::Range<usize>, w: std::ops::Range<usize>) -> Vec<usize> {
    let len = rng.gen_range(n);
    (0..len).map(|_| rng.gen_range(w.clone())).collect()
}

/// Eager forward == traced-graph execution == compiled engine, for
/// random MLP architectures and batch sizes.
#[test]
fn eager_interpreter_engine_agree() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xA0 + case);
        let widths = random_widths(&mut rng, 2..5, 1..24);
        let batch = rng.gen_range(1usize..5);
        let seed = rng.next_u64();

        let mut mrng = StdRng::seed_from_u64(seed);
        let mlp = Mlp::new(&widths, &mut mrng);
        let gm = symbolic_trace(&mlp).unwrap();
        let x = value(&[batch, widths[0]], seed ^ 0x5eed);

        let eager = mlp.forward(std::slice::from_ref(&x)).unwrap();
        let interp = gm.run(std::slice::from_ref(&x)).unwrap();
        assert!(
            eager
                .as_tensor()
                .unwrap()
                .allclose(interp.as_tensor().unwrap(), 1e-4),
            "case {case}: eager vs traced"
        );

        let engine = compile(&gm).unwrap();
        let out = engine.run(&[x.as_tensor().unwrap().clone()]).unwrap();
        assert!(
            out.allclose(eager.as_tensor().unwrap(), 1e-4),
            "case {case}: eager vs engine"
        );
    }
}

/// Abstract shape inference agrees with concrete shape propagation on
/// random MLPs.
#[test]
fn abstract_shapes_match_concrete() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xB0 + case);
        let widths = random_widths(&mut rng, 2..6, 1..16);
        let batch = rng.gen_range(1usize..4);
        let seed = rng.next_u64();

        let mut mrng = StdRng::seed_from_u64(seed);
        let mlp = Mlp::new(&widths, &mut mrng);
        let mut gm_c = symbolic_trace(&mlp).unwrap();
        let mut gm_a = gm_c.clone();
        shape_prop(&mut gm_c, &[value(&[batch, widths[0]], seed)]).unwrap();
        let inferred = infer_shapes(&mut gm_a, &[vec![batch, widths[0]]]).unwrap();
        for node in gm_c.graph().nodes() {
            if let Some(s) = node.shape_meta() {
                assert_eq!(
                    inferred.get(node.name()).map(|v| v.as_slice()),
                    Some(s),
                    "case {case}: node `{}`",
                    node.name()
                );
            }
        }
    }
}

/// Random chains of unary ops: graph surgery (CSE on a duplicated
/// chain) never changes observable behaviour, and lint stays green.
#[test]
fn cse_preserves_random_unary_chains() {
    const NAMES: [&str; 5] = ["relu", "sigmoid", "tanh", "abs", "exp"];
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xC0 + case);
        let n_ops = rng.gen_range(1usize..6);
        let ops: Vec<usize> = (0..n_ops).map(|_| rng.gen_range(0usize..5)).collect();
        let seed = rng.next_u64();

        let build = |xs: &[Value]| -> fx_core::Result<Value> {
            let mut a = xs[0].clone();
            let mut b = xs[0].clone();
            for &o in &ops {
                a = func::call(NAMES[o], &[a])?;
                b = func::call(NAMES[o], &[b])?; // duplicate chain
            }
            func::add(&a, &b)
        };
        let mut gm = symbolic_trace_fn(1, build).unwrap();
        let x = value(&[7], seed);
        let before = gm.run(std::slice::from_ref(&x)).unwrap();
        let removed = eliminate_common_subexpressions(&mut gm).unwrap();
        assert_eq!(removed, ops.len(), "case {case}: whole duplicate chain merges");
        gm.graph().lint().unwrap();
        let after = gm.run(std::slice::from_ref(&x)).unwrap();
        assert_eq!(before, after, "case {case}");
    }
}

/// Random insert/retarget/erase edit sequences keep the graph
/// lint-clean, and DCE never breaks executability.
#[test]
fn graph_edits_preserve_invariants() {
    const UNARY: [&str; 4] = ["relu", "sigmoid", "tanh", "abs"];
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xD0 + case);
        let n_edits = rng.gen_range(0usize..12);
        let edits: Vec<(usize, usize)> = (0..n_edits)
            .map(|_| (rng.gen_range(0usize..3), rng.gen_range(0usize..8)))
            .collect();
        let seed = rng.next_u64();

        let mut gm = symbolic_trace_fn(1, |xs| {
            let a = func::relu(&xs[0])?;
            let b = func::tanh(&a)?;
            func::add(&a, &b)
        })
        .unwrap();
        for (kind, pick) in edits {
            let ids = gm.graph().node_ids();
            let graph = gm.graph_mut();
            match kind {
                // Insert a unary op before some node, consuming the
                // placeholder (always legal).
                0 => {
                    let ph = graph.placeholders()[0];
                    let target = ids[pick % ids.len()];
                    if graph.node(target).op() != Opcode::Placeholder {
                        let mut g = graph.inserting_before(target);
                        g.call_function(UNARY[pick % 4], vec![Arg::Node(ph)], vec![]);
                    }
                }
                // Retarget a unary call_function.
                1 => {
                    let candidates: Vec<_> = ids
                        .iter()
                        .copied()
                        .filter(|&id| {
                            let n = graph.node(id);
                            n.op() == Opcode::CallFunction && UNARY.contains(&n.target())
                        })
                        .collect();
                    if !candidates.is_empty() {
                        graph
                            .set_target(candidates[pick % candidates.len()], UNARY[(pick + 1) % 4])
                            .unwrap();
                    }
                }
                // Erase an arbitrary dead node if one exists.
                _ => {
                    let dead: Vec<_> = ids
                        .iter()
                        .copied()
                        .filter(|&id| {
                            let n = graph.node(id);
                            n.op() == Opcode::CallFunction && graph.users(id).is_empty()
                        })
                        .collect();
                    if !dead.is_empty() {
                        graph.erase_node(dead[pick % dead.len()]).unwrap();
                    }
                }
            }
        }
        gm.graph_mut().eliminate_dead_code();
        gm.recompile().unwrap();
        gm.graph().lint().unwrap();
        // Still runs — at the default and at 4 kernel threads.
        let x = value(&[4], seed);
        assert!(gm.run(std::slice::from_ref(&x)).is_ok(), "case {case}");
        assert!(
            Executor::new(&gm)
                .with_threads(4)
                .run(std::slice::from_ref(&x))
                .is_ok(),
            "case {case}: 4 kernel threads"
        );
    }
}

/// Quantize→dequantize of arbitrary data is bounded by half a step.
#[test]
fn quant_roundtrip_error_bounded() {
    use fx::tensor::quant::{choose_qparams, dequantize, quantize_per_tensor};
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xE0 + case);
        let n = rng.gen_range(1usize..64);
        let data: Vec<f32> = (0..n).map(|_| rng.gen_range(-10.0f32..10.0)).collect();

        let lo = data.iter().cloned().fold(f32::MAX, f32::min);
        let hi = data.iter().cloned().fold(f32::MIN, f32::max);
        let (scale, zp) = choose_qparams(lo, hi);
        let t = Tensor::from_vec(data, &[n]);
        let q = quantize_per_tensor(&t, scale, zp).unwrap();
        let back = dequantize(&q).unwrap();
        assert!(
            t.max_abs_diff(&back).unwrap() <= scale / 2.0 + 1e-6,
            "case {case}"
        );
    }
}

/// The estimator's liveness-based peak activation memory is at least
/// the largest single intermediate and at most the sum of all of them.
#[test]
fn peak_memory_bounds() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xF0 + case);
        let widths = random_widths(&mut rng, 2..6, 1..32);
        let seed = rng.next_u64();

        let mut mrng = StdRng::seed_from_u64(seed);
        let mlp = Mlp::new(&widths, &mut mrng);
        let mut gm = symbolic_trace(&mlp).unwrap();
        shape_prop(&mut gm, &[value(&[2, widths[0]], seed)]).unwrap();
        let peak = peak_activation_bytes(&gm);
        let sizes: Vec<u64> = gm
            .graph()
            .nodes()
            .filter_map(|n| n.shape_meta())
            .map(|s| 4 * s.iter().product::<usize>() as u64)
            .collect();
        let max_single = sizes.iter().copied().max().unwrap_or(0);
        let total: u64 = sizes.iter().sum();
        assert!(peak >= max_single, "case {case}");
        assert!(peak <= total, "case {case}");
    }
}
