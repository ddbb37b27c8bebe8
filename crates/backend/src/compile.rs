//! The engine compiler — the fx2trt translation layer (§6.4) as a pass
//! pipeline: check the graph is inside the backend's operator set, run
//! the [fusion passes](crate::passes) over a copy of it, and warm the
//! fused graph's execution plan into an [`Engine`].

use crate::engine::Engine;
use crate::passes;
use fx_core::{Arg, Error, GraphModule, Node, Opcode, Result};

/// Is this node inside the backend's operator set? (The predicate
/// [`lower`](crate::lower) hands to the splitter, and the gate
/// [`compile`] applies to every node.) Closed under the fusion passes:
/// everything they emit is supported too.
pub fn is_supported(gm: &GraphModule, node: &Node) -> bool {
    match node.op() {
        Opcode::Placeholder | Opcode::Output | Opcode::GetAttr => true,
        Opcode::CallModule => match gm.get_module(node.target()) {
            Some(m) => matches!(
                m.type_name(),
                "Conv2d"
                    | "Linear"
                    | "BatchNorm2d"
                    | "MaxPool2d"
                    | "AvgPool2d"
                    | "AdaptiveAvgPool2d"
                    | "Flatten"
                    | "Dropout"
                    | "Identity"
                    | "ReLU"
                    | "GELU"
                    | "SELU"
                    | "Sigmoid"
                    | "Tanh"
                    | "FusedConv2d"
                    | "FusedLinear"
                    | "ChannelAffine"
            ),
            None => false,
        },
        Opcode::CallFunction | Opcode::CallMethod => {
            let t = node.target();
            if fx_tensor::ops::unary_scalar(t).is_some() {
                return true;
            }
            match t {
                "flatten" | "dropout" | "contiguous" => true,
                "add" | "mul" | "add_act" | "mul_act" | "unary_chain" => true,
                "max_pool2d" | "avg_pool2d" | "adaptive_avg_pool2d" => true,
                "batch_norm" | "conv2d" | "linear" | "conv2d_act" | "linear_act" => {
                    // Function forms need compile-time weights: every
                    // tensor operand after the input must be a get_attr.
                    node.args()
                        .iter()
                        .skip(1)
                        .filter_map(Arg::as_node)
                        .all(|id| gm.graph().node(id).op() == Opcode::GetAttr)
                }
                _ => false,
            }
        }
    }
}

/// Whether the numerics-changing fusion pass runs (default: yes). The
/// bit-preserving passes — identity elision, BN → channel affine,
/// epilogue fusion, unary chains, DCE — always run.
#[derive(Debug, Clone, Copy)]
pub struct CompileOptions {
    /// Fold BatchNorm into preceding convs (`fx_passes::fuse_conv_bn`).
    /// Changes numerics: folded weights round differently, so results
    /// agree to `allclose`, not bitwise.
    pub fuse_conv_bn: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions { fuse_conv_bn: true }
    }
}

/// Run the fusion pipeline over `gm` in place and return the total
/// number of rewrites. Total over any graph: nodes outside the backend's
/// operator set are left untouched.
pub fn fuse(gm: &mut GraphModule, opts: CompileOptions) -> Result<usize> {
    let mut rewrites = 0;
    if opts.fuse_conv_bn {
        rewrites += fx_passes::fuse_conv_bn(gm)?;
    }
    rewrites += passes::elide_identities(gm)?;
    rewrites += passes::bn_to_affine(gm)?;
    rewrites += passes::fuse_epilogues(gm)?;
    rewrites += passes::fuse_unary_chains(gm)?;
    Ok(rewrites + passes::eliminate_dead_code(gm)?)
}

/// Compile a fully-supported [`GraphModule`] into an [`Engine`].
/// Errors on the first unsupported node — use [`lower`](crate::lower)
/// for automatic fallback splitting.
pub fn compile(gm: &GraphModule) -> Result<Engine> {
    compile_with(gm, CompileOptions::default())
}

/// Compile with explicit [`CompileOptions`]: with conv–BN folding off,
/// the engine reproduces the traced graph's bits.
pub fn compile_with(gm: &GraphModule, opts: CompileOptions) -> Result<Engine> {
    if let Some(node) = gm.graph().nodes().find(|n| !is_supported(gm, n)) {
        return Err(Error::UnknownOp {
            kind: "function",
            name: format!(
                "engine compile: `{}` ({}) is outside the backend's operator set",
                node.name(),
                node.target()
            ),
        });
    }
    let mut fused = gm.clone();
    fuse(&mut fused, opts)?;
    Engine::new(fused)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_core::{func, symbolic_trace, symbolic_trace_fn, Executor, ModuleExt, Value};
    use fx_models::{resnet_tiny, Mlp};
    use fx_tensor::rng::{SeedableRng, StdRng};
    use fx_tensor::Tensor;

    #[test]
    fn mlp_compiles_and_matches_interpreter() {
        let mut rng = StdRng::seed_from_u64(0);
        let mlp = Mlp::new(&[16, 32, 8], &mut rng);
        let gm = symbolic_trace(&mlp).unwrap();
        let engine = compile(&gm).unwrap();
        // fc0+relu fuse into one instruction; fc1 is another.
        assert_eq!(engine.instruction_count(), 2, "{}", engine.disassemble());
        let x = Tensor::rand_uniform(&[4, 16], -1.0, 1.0, &mut rng);
        let y_ref = gm.run(&[Value::Tensor(x.clone())]).unwrap();
        let y = engine.run(&[x]).unwrap();
        assert_eq!(
            &y,
            y_ref.as_tensor().unwrap(),
            "no numerics-changing pass applies"
        );
    }

    #[test]
    fn resnet_tiny_engine_matches_eager() {
        let mut rng = StdRng::seed_from_u64(1);
        let model = resnet_tiny(&mut rng);
        let mut gm = symbolic_trace(&model).unwrap();
        let x = Tensor::randn(&[1, 3, 32, 32], &mut rng);
        fx_passes::shape_prop(&mut gm, &[Value::Tensor(x.clone())]).unwrap();
        let engine = compile(&gm).unwrap();
        // Fusion shrinks the program: BNs fold away, relus fold into
        // convs/adds.
        assert!(
            engine.instruction_count() * 2 < gm.graph().len(),
            "{} instrs vs {} nodes",
            engine.instruction_count(),
            gm.graph().len()
        );
        // The one memory planner reuses buffers across the fused graph.
        assert!(engine.register_count() > 0, "shapes present => planned");
        assert!(engine.register_count() < engine.instruction_count());
        let y_ref = model.call(&[Value::Tensor(x.clone())]).unwrap();
        let y = engine.run(&[x]).unwrap();
        assert!(
            y.allclose(y_ref.as_tensor().unwrap(), 1e-2),
            "engine diverged: {}",
            y.max_abs_diff(y_ref.as_tensor().unwrap()).unwrap()
        );
    }

    #[test]
    fn residual_add_relu_fuses() {
        let mut rng = StdRng::seed_from_u64(2);
        let model = resnet_tiny(&mut rng);
        let gm = symbolic_trace(&model).unwrap();
        let engine = compile(&gm).unwrap();
        let disasm = engine.disassemble();
        assert!(disasm.contains("target=add_act"), "{disasm}");
        assert!(
            disasm.contains("FusedConv2d") && disasm.contains("act=relu"),
            "{disasm}"
        );
        let fused = engine.graph_module();
        assert!(
            !fused.modules().values().any(|m| m.type_name() == "ReLU"),
            "every relu was absorbed:\n{disasm}"
        );
    }

    #[test]
    fn ablation_options_change_instruction_count_not_semantics() {
        let mut rng = StdRng::seed_from_u64(4);
        let model = resnet_tiny(&mut rng);
        let gm = symbolic_trace(&model).unwrap();
        let full = compile(&gm).unwrap();
        let exact = compile_with(
            &gm,
            CompileOptions { fuse_conv_bn: false },
        )
        .unwrap();
        let unfused = Engine::new(gm.clone()).unwrap();
        assert!(
            unfused.instruction_count() > exact.instruction_count()
                && exact.instruction_count() > full.instruction_count(),
            "each fusion level drops instructions: {} > {} > {}",
            unfused.instruction_count(),
            exact.instruction_count(),
            full.instruction_count()
        );
        let x = Tensor::randn(&[1, 3, 32, 32], &mut rng);
        let a = full.run(&[x.clone()]).unwrap();
        let b = exact.run(&[x.clone()]).unwrap();
        assert!(a.allclose(&b, 1e-2), "ablated engine diverged");
        // With only bit-preserving passes left on, nothing moves at all.
        let want = gm.run(&[Value::Tensor(x)]).unwrap();
        assert_eq!(&b, want.as_tensor().unwrap());
    }

    #[test]
    fn unsupported_op_reports_clearly() {
        let gm = fx_core::symbolic_trace_fn(1, |xs| fx_core::func::softmax(&xs[0], -1)).unwrap();
        let err = compile(&gm).unwrap_err();
        assert!(err.to_string().contains("softmax"), "{err}");
    }

    #[test]
    fn supported_predicate_matches_compiler() {
        let mut rng = StdRng::seed_from_u64(3);
        let model = resnet_tiny(&mut rng);
        let gm = symbolic_trace(&model).unwrap();
        // Closed under the passes: the fused graph is supported too, and
        // compiling it again finds nothing left to rewrite.
        let fused = compile(&gm).unwrap();
        for gm in [&gm, fused.graph_module()] {
            for node in gm.graph().nodes() {
                assert!(
                    is_supported(gm, node),
                    "resnet node `{}` should be supported",
                    node.name()
                );
            }
        }
        let again = compile(fused.graph_module()).unwrap();
        assert_eq!(again.instruction_count(), fused.instruction_count());
        assert_eq!(
            fuse(&mut fused.graph_module().clone(), CompileOptions::default()).unwrap(),
            0
        );
    }

    fn bits(v: &Value) -> Vec<u32> {
        v.as_tensor()
            .unwrap()
            .as_f32()
            .unwrap()
            .iter()
            .map(|f| f.to_bits())
            .collect()
    }

    /// Exact-mode `fuse`, then the one `Executor`: the traced graph's
    /// bits. With conv–BN folding on, the same answer to `allclose`.
    #[test]
    fn exact_engine_is_bit_identical_to_executor() {
        let mut rng = StdRng::seed_from_u64(7);
        // resnet_tiny exercises both exact-mode exclusions: BatchNorms
        // (must become ChannelAffine, not fold) and 1×1 downsample convs.
        for (gm, shape) in [
            (
                symbolic_trace(&resnet_tiny(&mut rng)).unwrap(),
                vec![2, 3, 32, 32],
            ),
            (
                symbolic_trace(&Mlp::new(&[16, 32, 8], &mut rng)).unwrap(),
                vec![4, 16],
            ),
        ] {
            let x = vec![Value::Tensor(Tensor::randn(&shape, &mut rng))];
            let want = gm.run(&x).unwrap();
            let mut exact = gm.clone();
            fuse(&mut exact, CompileOptions { fuse_conv_bn: false }).unwrap();
            assert_eq!(bits(&want), bits(&Executor::new(&exact).run(&x).unwrap()));
            let mut folded = gm.clone();
            fuse(&mut folded, CompileOptions::default()).unwrap();
            let got = Executor::new(&folded).run(&x).unwrap();
            assert!(got.as_tensor().unwrap().allclose(want.as_tensor().unwrap(), 1e-2));
        }
    }

    #[test]
    fn unsupported_ops_are_left_unfused_bit_identically() {
        let gm = symbolic_trace_fn(1, |xs| {
            let a = func::relu(&func::neg(&xs[0])?)?;
            func::softmax(&a, -1)
        })
        .unwrap();
        let x = vec![Value::Tensor(Tensor::from_vec(
            vec![0.1, 0.9, -1.0, 0.4],
            &[1, 4],
        ))];
        let want = bits(&gm.run(&x).unwrap());
        let mut fused = gm.clone();
        fuse(&mut fused, CompileOptions { fuse_conv_bn: false }).unwrap();
        // neg+relu fused into one chain; softmax rides along untouched.
        let engine = Engine::new(fused).unwrap();
        assert_eq!(engine.instruction_count(), 2, "{}", engine.disassemble());
        assert_eq!(want, bits(&Executor::new(engine.graph_module()).run(&x).unwrap()));
    }
}
