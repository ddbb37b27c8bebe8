//! The LearningToPaint actor network (Huang et al. 2019) — the smaller
//! of the paper's two TensorRT-lowering workloads (§6.4).
//!
//! The actor is a ResNet-18 policy network over a 9-channel 128×128
//! canvas state (canvas, target image and step embedding stacked), whose
//! head emits 65 stroke parameters squashed by a sigmoid.

use crate::resnet::{resnet18, ResNet};
use fx_core::{func, ArcModule, Module, ModuleExt, Result, Value};
use fx_tensor::rng::Rng;
use std::sync::Arc;

/// Canvas-state channels (canvas 3 + target 3 + coord 2 + step 1).
pub const STATE_CHANNELS: usize = 9;
/// Stroke-parameter dimensionality.
pub const ACTION_DIM: usize = 65;

/// The LearningToPaint actor: ResNet-18 backbone + sigmoid head.
#[derive(Debug)]
pub struct LearningToPaintActor {
    backbone: Arc<ResNet>,
}

impl LearningToPaintActor {
    /// A freshly initialized actor.
    pub fn new<R: Rng>(rng: &mut R) -> LearningToPaintActor {
        LearningToPaintActor {
            backbone: Arc::new(resnet18(STATE_CHANNELS, ACTION_DIM, rng)),
        }
    }
}

impl Module for LearningToPaintActor {
    fn forward(&self, inputs: &[Value]) -> Result<Value> {
        let logits = self.backbone.call(&[inputs[0].clone()])?;
        func::sigmoid(&logits)
    }

    fn type_name(&self) -> &'static str {
        "LearningToPaintActor"
    }

    fn children(&self) -> Vec<(String, ArcModule)> {
        vec![("backbone".to_string(), self.backbone.clone())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_core::symbolic_trace;
    use fx_tensor::Tensor;
    use fx_tensor::rng::StdRng;
    use fx_tensor::rng::SeedableRng;

    #[test]
    fn emits_bounded_stroke_parameters() {
        let mut rng = StdRng::seed_from_u64(0);
        let actor = LearningToPaintActor::new(&mut rng);
        let state = Value::Tensor(Tensor::randn(&[1, STATE_CHANNELS, 32, 32], &mut rng));
        let action = actor.call(&[state]).unwrap();
        let a = action.as_tensor().unwrap();
        assert_eq!(a.shape(), &[1, ACTION_DIM]);
        assert!(a.as_f32().unwrap().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn traces_through_backbone() {
        let mut rng = StdRng::seed_from_u64(0);
        let actor = LearningToPaintActor::new(&mut rng);
        let traced = symbolic_trace(&actor).unwrap();
        traced.graph().lint().unwrap();
        // Backbone modules appear under the `backbone.` prefix, and the
        // sigmoid head is a call_function.
        assert!(traced
            .graph()
            .nodes()
            .any(|n| n.target().starts_with("backbone.conv1")));
        assert!(traced.graph().nodes().any(|n| n.target() == "sigmoid"));
    }
}
