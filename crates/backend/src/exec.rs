//! The AoT engine as an [`ExecutionBackend`]: the fusion passes, then
//! the ordinary [`ExecutorBackend`].
//!
//! By default only the bit-preserving passes run (epilogue fusion,
//! unary chains, BN → channel affine, identity elision), so an
//! `EngineBackend` serves traffic **bit-identically** to the plain
//! executor — the property `tests/serve_parity.rs` locks in. A config
//! with [`ExecConfig::fusion`] additionally turns on the one
//! numerics-changing pass, conv–BN folding, for speed at `allclose`
//! accuracy.

use crate::compile::{fuse, CompileOptions};
use crate::engine::Engine;
use fx_core::exec::{ExecConfig, ExecutionBackend, ExecutorBackend, PreparedModel};
use fx_core::{GraphModule, Result, RunProfile, Value};

/// Fuse, then execute: total over every runnable `GraphModule`, since a
/// node the passes do not recognize is simply left unfused.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineBackend;

impl EngineBackend {
    /// The backend (stateless; same as `EngineBackend`).
    pub fn new() -> EngineBackend {
        EngineBackend
    }
}

/// A prepared executor over the fused graph, labelled with what fusion
/// produced so `describe` (and `fx_serve`'s registry snapshot) show it.
struct PreparedEngine {
    inner: Box<dyn PreparedModel>,
    label: String,
}

impl PreparedModel for PreparedEngine {
    fn run(&self, inputs: &[Value]) -> Result<Value> {
        self.inner.run(inputs)
    }

    fn run_profiled(&self, inputs: &[Value]) -> Result<(Value, RunProfile)> {
        self.inner.run_profiled(inputs)
    }

    fn describe(&self) -> String {
        format!("{} on {}", self.label, self.inner.describe())
    }
}

impl ExecutionBackend for EngineBackend {
    fn name(&self) -> &'static str {
        "engine"
    }

    fn prepare_with(&self, gm: &GraphModule, cfg: ExecConfig) -> Result<Box<dyn PreparedModel>> {
        let opts = CompileOptions { fuse_conv_bn: cfg.fusion };
        let mut fused = gm.clone();
        fuse(&mut fused, opts)?;
        let engine = Engine::new(fused)?;
        Ok(Box::new(PreparedEngine {
            label: format!(
                "engine({} fused instrs, {} buffers)",
                engine.instruction_count(),
                engine.register_count()
            ),
            inner: ExecutorBackend.prepare_with(engine.graph_module(), cfg)?,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_core::{func, symbolic_trace, symbolic_trace_fn};
    use fx_models::{resnet_tiny, Mlp};
    use fx_tensor::rng::{SeedableRng, StdRng};
    use fx_tensor::Tensor;

    fn bits(v: &Value) -> Vec<u32> {
        v.as_tensor()
            .unwrap()
            .as_f32()
            .unwrap()
            .iter()
            .map(|f| f.to_bits())
            .collect()
    }

    #[test]
    fn exact_engine_is_bit_identical_to_executor() {
        let mut rng = StdRng::seed_from_u64(7);
        // resnet_tiny exercises both exact-mode exclusions: BatchNorms
        // (must become ChannelAffine, not fold) and 1×1 downsample convs
        // (must stay on the im2col path).
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
            let want = bits(&gm.run(&x).unwrap());
            let prepared = EngineBackend::new().prepare(&gm).unwrap();
            assert!(
                prepared.describe().starts_with("engine("),
                "{}",
                prepared.describe()
            );
            assert_eq!(want, bits(&prepared.run(&x).unwrap()));
            // Fusion on: same answer to allclose, fewer instructions.
            let cfg = ExecConfig::from_env().with_fusion(true);
            let fast = EngineBackend::new().prepare_with(&gm, cfg).unwrap();
            let got = fast.run(&x).unwrap();
            let (got, want) = (got.as_tensor().unwrap(), gm.run(&x).unwrap());
            assert!(got.allclose(want.as_tensor().unwrap(), 1e-2));
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
        let prepared = EngineBackend::new().prepare(&gm).unwrap();
        // neg+relu fused into one chain; softmax rides along untouched.
        assert!(
            prepared.describe().starts_with("engine(2 fused instrs"),
            "{}",
            prepared.describe()
        );
        assert_eq!(want, bits(&prepared.run(&x).unwrap()));
    }
}
