//! Container modules.

use fx_core::{ArcModule, Module, ModuleExt, Result, Value};

/// A chain of modules applied in order, `nn.Sequential`.
///
/// Children are named `"0"`, `"1"`, ... as in PyTorch. **Not** a leaf:
/// the tracer walks through it, which is how "control flow in a model
/// not dependent on inputs, such as the loop over sequential modules"
/// is eliminated at capture time (paper §5.1).
#[derive(Debug, Clone, Default)]
pub struct Sequential {
    layers: Vec<ArcModule>,
}

impl Sequential {
    /// A sequential container over `layers`.
    pub fn new(layers: Vec<ArcModule>) -> Sequential {
        Sequential { layers }
    }

    /// Append a layer.
    pub fn push(&mut self, layer: ArcModule) {
        self.layers.push(layer);
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the container is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// The contained layers.
    pub fn layers(&self) -> &[ArcModule] {
        &self.layers
    }
}

impl Module for Sequential {
    fn forward(&self, inputs: &[Value]) -> Result<Value> {
        let mut x = inputs
            .first()
            .cloned()
            .unwrap_or(Value::None);
        // The Python-level loop the tracer unrolls away.
        for layer in &self.layers {
            x = layer.call(&[x])?;
        }
        Ok(x)
    }

    fn type_name(&self) -> &'static str {
        "Sequential"
    }

    fn children(&self) -> Vec<(String, ArcModule)> {
        self.layers
            .iter()
            .enumerate()
            .map(|(i, l)| (i.to_string(), l.clone()))
            .collect()
    }
}

/// The identity module, `nn.Identity` — useful as a structural
/// placeholder (e.g. what fusion leaves behind for a folded-away batch
/// norm).
#[derive(Debug, Clone, Copy, Default)]
pub struct Identity;

impl Module for Identity {
    fn forward(&self, inputs: &[Value]) -> Result<Value> {
        Ok(inputs.first().cloned().unwrap_or(Value::None))
    }

    fn type_name(&self) -> &'static str {
        "Identity"
    }

    fn is_builtin_leaf(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Linear, ReLU};
    use fx_core::symbolic_trace;
    use fx_tensor::Tensor;
    use fx_tensor::rng::StdRng;
    use fx_tensor::rng::SeedableRng;
    use std::sync::Arc;

    #[test]
    fn sequential_applies_in_order() {
        let w1 = Tensor::from_vec(vec![2.0], &[1, 1]);
        let w2 = Tensor::from_vec(vec![3.0], &[1, 1]);
        let s = Sequential::new(vec![
            Arc::new(Linear::from_parts(w1, None)),
            Arc::new(Linear::from_parts(w2, None)),
        ]);
        let y = s
            .call(&[Value::Tensor(Tensor::from_vec(vec![1.0], &[1, 1]))])
            .unwrap();
        assert_eq!(y.as_tensor().unwrap().as_f32().unwrap(), &[6.0]);
    }

    #[test]
    fn tracer_unrolls_the_sequential_loop() {
        let mut rng = StdRng::seed_from_u64(0);
        let s = Sequential::new(vec![
            Arc::new(Linear::new(2, 2, &mut rng)),
            Arc::new(ReLU),
            Arc::new(Linear::new(2, 2, &mut rng)),
        ]);
        let traced = symbolic_trace(&s).unwrap();
        // No loop in the IR: three call_module nodes named 0, 1, 2.
        let code = traced.code();
        assert!(code.contains("getattr(self, \"0\")(x)"), "got {code}");
        assert!(code.contains("getattr(self, \"2\")"));
        traced.graph().lint().unwrap();
    }

    #[test]
    fn identity_passes_through() {
        let v = Value::Int(7);
        assert_eq!(Identity.call(&[v.clone()]).unwrap(), v);
    }

    #[test]
    fn child_names_are_indices() {
        let s = Sequential::new(vec![Arc::new(Identity), Arc::new(Identity)]);
        let names: Vec<String> = s.children().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["0", "1"]);
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
    }
}
