//! The AoT fusion passes: every optimization the backend performs is an
//! ordinary graph→graph rewrite on a [`GraphModule`], producing fused
//! leaf modules (`fx_nn::FusedConv2d`, `FusedLinear`, `ChannelAffine`)
//! and fused `call_function`s (`add_act`, `unary_chain`, …) that the one
//! [`Executor`](fx_core::Executor) runs like any other node.
//!
//! Each pass returns the number of rewrites it made, validates on exit
//! ([`validate::after_pass`]) and is idempotent. All are total: a node
//! a pass does not recognize is left as it is. Every pass preserves
//! float bits — the fused node applies the same scalar kernels to the
//! same values in the same order.

use fx_core::{validate, ArcModule, Arg, GraphModule, Node, NodeId, Opcode, Result};
use fx_nn::{BatchNorm2d, ChannelAffine, Conv2d, FusedConv2d, FusedLinear, Linear};
use fx_tensor::ops::unary_scalar;
use std::any::Any;
use std::sync::Arc;

/// The unaries a conv/linear/add/mul absorbs as an epilogue.
const EPILOGUES: &[&str] = &["relu", "sigmoid", "tanh", "gelu"];

/// The scalar unary op `node` computes (one with a scalar kernel in
/// [`unary_scalar`]), whether it is spelled as a function, a method or
/// an activation module.
fn unary_name<'a>(gm: &GraphModule, node: &'a Node) -> Option<&'a str> {
    match node.op() {
        Opcode::CallFunction | Opcode::CallMethod
            if node.args().len() == 1 && node.kwargs().is_empty() =>
        {
            Some(node.target()).filter(|t| unary_scalar(t).is_some())
        }
        Opcode::CallModule => match gm.get_module(node.target())?.type_name() {
            "ReLU" => Some("relu"),
            "GELU" => Some("gelu"),
            "SELU" => Some("selu"),
            "Sigmoid" => Some("sigmoid"),
            "Tanh" => Some("tanh"),
            _ => None,
        },
        _ => None,
    }
}

/// `node` as `unary_chain` step arguments: a scalar unary's name, or
/// `add`/`mul` of one tensor with one immediate scalar.
fn chain_step(gm: &GraphModule, node: &Node) -> Option<Vec<Arg>> {
    if let Some(name) = unary_name(gm, node) {
        return Some(vec![Arg::Str(name.to_string())]);
    }
    let scalar_binary = matches!(node.op(), Opcode::CallFunction | Opcode::CallMethod)
        && matches!(node.target(), "add" | "mul")
        && node.args().len() == 2
        && node.kwargs().is_empty()
        && node.input_nodes().len() == 1;
    if !scalar_binary {
        return None;
    }
    let is_scalar = |a: &&Arg| matches!(a, Arg::Float(_) | Arg::Int(_));
    let scalar = node.args().iter().find(is_scalar)?;
    Some(vec![Arg::Str(node.target().to_string()), scalar.clone()])
}

/// The node that alone consumes `id`, with `id` as its only tensor
/// input — the precondition of every producer→consumer fusion here.
fn sole_consumer(gm: &GraphModule, id: NodeId) -> Option<&Node> {
    let graph = gm.graph();
    let [user] = graph.users(id)[..] else {
        return None;
    };
    let user = graph.node(user);
    (user.op() != Opcode::Output && user.input_nodes() == [id]).then_some(user)
}

/// Common pass exit: drop state the rewrites orphaned, regenerate code,
/// validate.
fn finish(gm: &mut GraphModule, pass: &str, rewrites: usize) -> Result<usize> {
    if rewrites > 0 {
        gm.delete_unused_state();
        gm.recompile()?;
    }
    validate::after_pass(gm, pass)?;
    Ok(rewrites)
}

/// [`Graph::eliminate_dead_code`](fx_core::Graph::eliminate_dead_code)
/// as a pass: drop nodes whose value nothing consumes.
pub fn eliminate_dead_code(gm: &mut GraphModule) -> Result<usize> {
    let dead = gm.graph_mut().eliminate_dead_code();
    finish(gm, "eliminate_dead_code", dead)
}

/// Remove inference-time identities (`Dropout`/`Identity` modules, the
/// `dropout` function, the `contiguous` method), rewiring their users to
/// their input.
pub fn elide_identities(gm: &mut GraphModule) -> Result<usize> {
    let mut elided = 0;
    for id in gm.graph().node_ids() {
        let node = gm.graph().node(id);
        let identity = match node.op() {
            Opcode::CallFunction | Opcode::CallMethod => {
                matches!(node.target(), "dropout" | "contiguous")
            }
            Opcode::CallModule => gm
                .get_module(node.target())
                .is_some_and(|m| matches!(m.type_name(), "Dropout" | "Identity")),
            _ => false,
        };
        let Some(input) = node.args().first().and_then(Arg::as_node) else {
            continue;
        };
        if identity {
            let graph = gm.graph_mut();
            graph.replace_all_uses_with(id, input);
            graph.erase_node(id)?;
            elided += 1;
        }
    }
    finish(gm, "elide_identities", elided)
}

/// Swap every installed module that `replace` maps to a new one — the
/// shape of the rewrites that touch a layer but not the graph around it.
fn replace_modules(
    gm: &mut GraphModule,
    pass: &str,
    replace: impl Fn(&dyn Any) -> Result<Option<ArcModule>>,
) -> Result<usize> {
    let mut swaps = Vec::new();
    for (path, module) in gm.modules() {
        if let Some(new) = replace(module.as_any())? {
            swaps.push((path.clone(), new));
        }
    }
    let count = swaps.len();
    for (path, new) in swaps {
        gm.set_module(&path, new);
    }
    finish(gm, pass, count)
}

/// Replace every `BatchNorm2d` that conv–BN folding did not absorb by a
/// [`ChannelAffine`] with the statistics folded ahead of time.
pub fn bn_to_affine(gm: &mut GraphModule) -> Result<usize> {
    replace_modules(gm, "bn_to_affine", |m| {
        let Some(bn) = m.downcast_ref::<BatchNorm2d>() else {
            return Ok(None);
        };
        Ok(Some(Arc::new(ChannelAffine::from_batch_norm(bn)?)))
    })
}

/// `module` with `act` as its epilogue, if it is a conv or linear layer
/// that does not already carry one.
fn with_epilogue(module: &dyn Any, act: &'static str) -> Option<ArcModule> {
    if let Some(conv) = module.downcast_ref::<Conv2d>() {
        Some(Arc::new(FusedConv2d::new(conv.clone(), act)))
    } else {
        let linear = module.downcast_ref::<Linear>()?;
        Some(Arc::new(FusedLinear::new(linear.clone(), act)))
    }
}

/// The full positional argument list of a function-form producer
/// (`conv2d`, `linear`, two-tensor `add`/`mul`); its fused twin
/// `<target>_act` takes these followed by the activation name.
fn producer_args(node: &Node) -> Option<Vec<Arg>> {
    if !node.kwargs().is_empty() {
        return None;
    }
    let mut args = node.args().to_vec();
    match (node.target(), args.len()) {
        ("add" | "mul", 2) if args.iter().all(|a| a.as_node().is_some()) => {}
        ("linear", 2) => args.push(Arg::None),
        ("conv2d", 6) => args.push(Arg::Int(1)),
        ("linear", 3) | ("conv2d", 7) => {}
        _ => return None,
    }
    Some(args)
}

/// Pull a `relu`/`sigmoid`/`tanh`/`gelu` that alone consumes a conv,
/// linear, or two-tensor add/mul into that producer: module-form layers
/// become [`FusedConv2d`]/[`FusedLinear`], function forms become
/// `conv2d_act`/`linear_act`/`add_act`/`mul_act`.
pub fn fuse_epilogues(gm: &mut GraphModule) -> Result<usize> {
    // A module is rewritten in place, so it must serve one call site.
    let call_sites = |gm: &GraphModule, target: &str| {
        let calls = |n: &&Node| n.op() == Opcode::CallModule && n.target() == target;
        gm.graph().nodes().filter(calls).count()
    };
    let mut fused = 0;
    for id in gm.graph().node_ids() {
        if !gm.graph().contains(id) {
            continue;
        }
        let Some(consumer) = sole_consumer(gm, id) else {
            continue;
        };
        let act = unary_name(gm, consumer);
        let Some(act) = EPILOGUES.iter().copied().find(|e| Some(*e) == act) else {
            continue;
        };
        let (act_id, act_meta) = (consumer.id(), consumer.meta.clone());
        let node = gm.graph().node(id).clone();
        match node.op() {
            Opcode::CallModule if call_sites(gm, node.target()) == 1 => {
                let module = gm.get_module(node.target());
                let Some(module) = module.and_then(|m| with_epilogue(m.as_any(), act)) else {
                    continue;
                };
                gm.set_module(node.target(), module);
                let graph = gm.graph_mut();
                graph.replace_all_uses_with(act_id, id);
                graph.erase_node(act_id)?;
            }
            Opcode::CallFunction | Opcode::CallMethod => {
                let Some(mut args) = producer_args(&node) else {
                    continue;
                };
                args.push(Arg::Str(act.to_string()));
                let graph = gm.graph_mut();
                let target = format!("{}_act", node.target());
                let twin = graph
                    .inserting_before(act_id)
                    .call_function(&target, args, vec![]);
                *graph.node_meta_mut(twin) = act_meta;
                graph.replace_all_uses_with(act_id, twin);
                graph.erase_node(act_id)?;
                graph.erase_node(id)?;
            }
            _ => continue,
        }
        fused += 1;
    }
    finish(gm, "fuse_epilogues", fused)
}

/// Collapse each maximal run of two or more unary elementwise ops
/// (scalar unaries in any spelling, add/mul by an immediate) into one
/// `unary_chain` call: one pass over the data instead of one per op.
pub fn fuse_unary_chains(gm: &mut GraphModule) -> Result<usize> {
    let mut fused = 0;
    for head in gm.graph().node_ids() {
        if !gm.graph().contains(head) {
            continue;
        }
        let head_node = gm.graph().node(head);
        let (Some(mut steps), Some(&input)) =
            (chain_step(gm, head_node), head_node.input_nodes().first())
        else {
            continue;
        };
        let mut members = vec![head];
        while let Some(next) = sole_consumer(gm, members[members.len() - 1]) {
            let Some(step) = chain_step(gm, next) else {
                break;
            };
            steps.extend(step);
            members.push(next.id());
        }
        if members.len() < 2 {
            continue;
        }
        let last = members[members.len() - 1];
        let meta = gm.graph().node(last).meta.clone();
        let graph = gm.graph_mut();
        let args = vec![Arg::Node(input), Arg::List(steps)];
        let chain = graph
            .inserting_before(last)
            .call_function("unary_chain", args, vec![]);
        *graph.node_meta_mut(chain) = meta;
        graph.replace_all_uses_with(last, chain);
        for id in members.into_iter().rev() {
            graph.erase_node(id)?;
        }
        fused += 1;
    }
    finish(gm, "fuse_unary_chains", fused)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_core::{func, parse_graph, symbolic_trace, symbolic_trace_fn, Value};
    use fx_nn::{Dropout, ReLU, Sequential};
    use fx_tensor::rng::{SeedableRng, StdRng};
    use fx_tensor::Tensor;

    fn bits(v: &Value) -> Vec<u32> {
        let t = v.as_tensor().unwrap().as_f32().unwrap();
        t.iter().map(|f| f.to_bits()).collect()
    }

    /// Print → parse → rebuild over the same state, as a fused graph
    /// must survive like any other.
    fn round_trip(gm: &GraphModule) -> GraphModule {
        let parsed = parse_graph(&gm.graph().to_string()).expect("fused graph reparses");
        let (_, modules, attrs, names) = gm.clone().into_parts();
        GraphModule::new(parsed, modules, attrs, names).expect("reparsed graph lints")
    }

    #[test]
    fn function_form_producers_fuse_and_round_trip() {
        let mut rng = StdRng::seed_from_u64(0);
        let w = Value::Tensor(Tensor::randn(&[4, 6], &mut rng));
        let mut gm = symbolic_trace_fn(1, |xs| {
            let h = func::tanh(&func::linear(&xs[0], &w, None)?)?;
            let sum = func::add(&h, &h.method("contiguous", &[])?)?;
            let act = func::relu(&sum)?;
            // A three-step run: scalar mul, neg, then gelu.
            func::gelu(&func::neg(&func::mul(&act, &Value::Float(0.5))?)?)
        })
        .unwrap();
        let x = [Value::Tensor(Tensor::randn(&[3, 6], &mut rng))];
        let want = bits(&gm.run(&x).unwrap());

        assert_eq!(elide_identities(&mut gm).unwrap(), 1);
        assert_eq!(fuse_epilogues(&mut gm).unwrap(), 2);
        assert_eq!(fuse_unary_chains(&mut gm).unwrap(), 1);
        let targets: Vec<&str> = gm.graph().nodes().map(|n| n.target()).collect();
        assert_eq!(
            targets,
            [
                "x",
                "_tensor_constant0",
                "linear_act",
                "add_act",
                "unary_chain",
                "output"
            ],
            "{}",
            gm.graph()
        );
        assert!(
            gm.code().contains(r#"["mul", 0.5, "neg", "gelu"]"#),
            "{}",
            gm.code()
        );
        assert_eq!(want, bits(&gm.run(&x).unwrap()));
        assert_eq!(want, bits(&round_trip(&gm).run(&x).unwrap()));
    }

    #[test]
    fn module_rewrites_respect_shared_call_sites() {
        let mut rng = StdRng::seed_from_u64(1);
        let lin: fx_core::ArcModule = Arc::new(Linear::new(5, 5, &mut rng));
        // The same Linear twice: fusing a relu into the module would
        // change the other call site, so only the Dropout goes.
        let model = Sequential::new(vec![
            lin.clone(),
            Arc::new(ReLU),
            Arc::new(Dropout::new(0.5)),
            lin,
        ]);
        let mut gm = symbolic_trace(&model).unwrap();
        let x = [Value::Tensor(Tensor::randn(&[2, 5], &mut rng))];
        let want = bits(&gm.run(&x).unwrap());
        let before = gm.graph().len();
        assert_eq!(elide_identities(&mut gm).unwrap(), 1);
        assert_eq!(fuse_epilogues(&mut gm).unwrap(), 0);
        assert_eq!(gm.graph().len(), before - 1);
        assert_eq!(want, bits(&gm.run(&x).unwrap()));
    }
}
