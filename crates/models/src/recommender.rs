//! DeepRecommender (Kuchaiev & Ginsburg 2017): the deep autoencoder for
//! collaborative filtering quantized in the paper's §6.2.1 evaluation.
//!
//! The network is a 6-layer MLP autoencoder with SELU activations and a
//! dropout bottleneck: `n → 512 → 512 → 1024 → 512 → 512 → n`. Inputs
//! are sparse rating vectors; here they are dense `f32` vectors of item
//! dimension `n`, which exercises the identical compute path (wide
//! `linear` layers dominated by GEMM bandwidth — exactly what int8
//! quantization accelerates).

use fx_core::{ArcModule, Module, ModuleExt, Result, Value};
use fx_nn::{Dropout, Linear, SELU};
use fx_tensor::rng::Rng;
use std::sync::Arc;

/// The DeepRecommender autoencoder.
#[derive(Debug)]
pub struct DeepRecommender {
    layers: Vec<(String, ArcModule)>,
    n_items: usize,
}

impl DeepRecommender {
    /// Build with the paper's layer plan for an `n_items`-dimensional
    /// rating vector.
    pub fn new<R: Rng>(n_items: usize, rng: &mut R) -> DeepRecommender {
        let widths = [n_items, 512, 512, 1024, 512, 512, n_items];
        let mut layers: Vec<(String, ArcModule)> = Vec::new();
        for (i, pair) in widths.windows(2).enumerate() {
            layers.push((
                format!("fc{i}"),
                Arc::new(Linear::new(pair[0], pair[1], rng)),
            ));
            // SELU after every layer except the final reconstruction.
            if i + 2 < widths.len() {
                layers.push((format!("act{i}"), Arc::new(SELU)));
            }
            // Dropout at the code (bottleneck) layer, as in the paper.
            if i == 2 {
                layers.push(("drop".to_string(), Arc::new(Dropout::new(0.8))));
            }
        }
        DeepRecommender { layers, n_items }
    }

    /// Dimensionality of the rating vector.
    pub fn n_items(&self) -> usize {
        self.n_items
    }
}

impl Module for DeepRecommender {
    fn forward(&self, inputs: &[Value]) -> Result<Value> {
        let mut x = inputs[0].clone();
        for (_, layer) in &self.layers {
            x = layer.call(&[x])?;
        }
        Ok(x)
    }

    fn type_name(&self) -> &'static str {
        "DeepRecommender"
    }

    fn children(&self) -> Vec<(String, ArcModule)> {
        self.layers.clone()
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
    fn reconstruction_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let model = DeepRecommender::new(256, &mut rng);
        let x = Value::Tensor(Tensor::rand_uniform(&[4, 256], 0.0, 5.0, &mut rng));
        let y = model.call(&[x]).unwrap();
        assert_eq!(y.as_tensor().unwrap().shape(), &[4, 256]);
    }

    #[test]
    fn has_six_linear_layers_and_selu() {
        let mut rng = StdRng::seed_from_u64(0);
        let model = DeepRecommender::new(128, &mut rng);
        let traced = symbolic_trace(&model).unwrap();
        let linears = traced
            .graph()
            .nodes()
            .filter(|n| n.target().starts_with("fc"))
            .count();
        assert_eq!(linears, 6);
        let selus = traced
            .graph()
            .nodes()
            .filter(|n| n.target().starts_with("act"))
            .count();
        assert_eq!(selus, 5);
        assert!(traced.graph().nodes().any(|n| n.target() == "drop"));
    }

    #[test]
    fn trace_matches_eager() {
        let mut rng = StdRng::seed_from_u64(7);
        let model = DeepRecommender::new(64, &mut rng);
        let traced = symbolic_trace(&model).unwrap();
        let x = Value::Tensor(Tensor::rand_uniform(&[2, 64], 0.0, 1.0, &mut rng));
        let a = model.call(&[x.clone()]).unwrap();
        let b = traced.run(&[x]).unwrap();
        assert!(a
            .as_tensor()
            .unwrap()
            .allclose(b.as_tensor().unwrap(), 1e-4));
    }
}
