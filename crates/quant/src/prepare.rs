//! The *prepare* and *calibrate* phases of FX-graph-mode post-training
//! quantization (paper §6.2.1, stages 1–2).
//!
//! `prepare` instruments a traced [`GraphModule`] with observer
//! submodules after every tensor-producing node — exactly the
//! "introspection not available in eager mode" the paper credits the
//! graph representation with enabling. `calibrate` then just runs
//! batches through the instrumented module; the observers populate
//! themselves.

use crate::qconfig::QConfig;
use fx_core::dispatch::{op_kind, OpKind};
use fx_core::{Arg, GraphModule, NodeId, Opcode, Result, Value};

fn observable(gm: &GraphModule, id: NodeId) -> bool {
    let node = gm.graph().node(id);
    match node.op() {
        Opcode::Placeholder => true,
        // A value that is not a single tensor is not observable.
        Opcode::CallFunction | Opcode::CallMethod => {
            op_kind(node.target()) != Some(OpKind::NonTensor)
        }
        Opcode::CallModule => true,
        Opcode::GetAttr | Opcode::Output => false,
    }
}

/// Insert an activation observer after every observable node. Observers
/// are registered as submodules named `activation_post_process_<n>`,
/// mirroring torch.fx graph-mode quantization.
pub fn prepare(gm: &GraphModule, qconfig: &QConfig) -> Result<GraphModule> {
    let mut gm = gm.clone();
    let ids = gm.graph().node_ids();
    // Observers may not be inserted between placeholders (lint requires
    // placeholders first); everything goes after the last one.
    let after_placeholders = ids
        .iter()
        .copied()
        .take_while(|&id| gm.graph().node(id).op() == Opcode::Placeholder)
        .last();
    let mut counter = 0usize;
    for id in ids {
        if !observable(&gm, id) {
            continue;
        }
        let obs_name = format!("activation_post_process_{counter}");
        counter += 1;
        gm.set_module(&obs_name, qconfig.make_observer());
        let graph = gm.graph_mut();
        let insert_after = if graph.node(id).op() == Opcode::Placeholder {
            after_placeholders.unwrap_or(id)
        } else {
            id
        };
        let obs = graph
            .inserting_after(insert_after)
            .call_module(&obs_name, vec![Arg::Node(id)], vec![]);
        // Point all *other* users of `id` at the observer.
        graph.replace_all_uses_with(id, obs);
        graph.set_args(obs, vec![Arg::Node(id)])?;
    }
    gm.recompile()?;
    fx_core::validate::after_pass(&gm, "quant::prepare")?;
    Ok(gm)
}

/// Run calibration batches through an observed module, populating its
/// observers. Returns the number of batches processed.
pub fn calibrate(gm: &GraphModule, batches: &[Vec<Value>]) -> Result<usize> {
    for batch in batches {
        gm.run(batch)?;
    }
    Ok(batches.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::{is_observer, observed_qparams};
    use fx_core::{symbolic_trace, ModuleExt};
    use fx_models::Mlp;
    use fx_tensor::Tensor;
    use fx_tensor::rng::StdRng;
    use fx_tensor::rng::SeedableRng;

    #[test]
    fn prepare_inserts_observers_and_stays_identity() {
        let mut rng = StdRng::seed_from_u64(0);
        let mlp = Mlp::new(&[4, 8, 2], &mut rng);
        let gm = symbolic_trace(&mlp).unwrap();
        let observed = prepare(&gm, &QConfig::default()).unwrap();
        observed.graph().lint().unwrap();
        // One observer per observable node: placeholder + fc0 + relu0 + fc1.
        let n_obs = observed
            .modules()
            .values()
            .filter(|m| is_observer(m.as_ref()))
            .count();
        assert_eq!(n_obs, 4);
        // Observation is semantically the identity.
        let x = Value::Tensor(Tensor::rand_uniform(&[3, 4], -1.0, 1.0, &mut rng));
        let a = mlp.call(&[x.clone()]).unwrap();
        let b = observed.run(&[x]).unwrap();
        assert!(a
            .as_tensor()
            .unwrap()
            .allclose(b.as_tensor().unwrap(), 1e-6));
    }

    #[test]
    fn calibration_populates_observers() {
        let mut rng = StdRng::seed_from_u64(1);
        let mlp = Mlp::new(&[4, 4], &mut rng);
        let gm = symbolic_trace(&mlp).unwrap();
        let observed = prepare(&gm, &QConfig::default()).unwrap();
        let batches: Vec<Vec<Value>> = (0..3)
            .map(|_| vec![Value::Tensor(Tensor::rand_uniform(&[2, 4], -1.0, 1.0, &mut rng))])
            .collect();
        assert_eq!(calibrate(&observed, &batches).unwrap(), 3);
        for m in observed.modules().values() {
            if is_observer(m.as_ref()) {
                assert!(
                    observed_qparams(m.as_ref()).is_some(),
                    "observer still empty after calibration"
                );
            }
        }
    }
}
