//! A configurable multilayer perceptron — the simplest "basic block"
//! program class from the paper's §2.3, used widely in tests and as a
//! quantization/estimation workload.

use fx_core::{ArcModule, Module, ModuleExt, Result, Value};
use fx_nn::{Linear, ReLU};
use fx_tensor::rng::Rng;
use std::sync::Arc;

/// Fully-connected network with ReLU between layers.
#[derive(Debug)]
pub struct Mlp {
    layers: Vec<(String, ArcModule)>,
    widths: Vec<usize>,
}

impl Mlp {
    /// An MLP through the given layer `widths`
    /// (e.g. `[784, 128, 64, 10]` builds three linear layers).
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given.
    pub fn new<R: Rng>(widths: &[usize], rng: &mut R) -> Mlp {
        assert!(widths.len() >= 2, "an MLP needs at least input and output widths");
        let mut layers: Vec<(String, ArcModule)> = Vec::new();
        for (i, pair) in widths.windows(2).enumerate() {
            layers.push((
                format!("fc{i}"),
                Arc::new(Linear::new(pair[0], pair[1], rng)),
            ));
            if i + 2 < widths.len() {
                layers.push((format!("relu{i}"), Arc::new(ReLU)));
            }
        }
        Mlp {
            layers,
            widths: widths.to_vec(),
        }
    }

    /// The layer widths this MLP was built with.
    pub fn widths(&self) -> &[usize] {
        &self.widths
    }
}

impl Module for Mlp {
    fn forward(&self, inputs: &[Value]) -> Result<Value> {
        let mut x = inputs[0].clone();
        for (_, layer) in &self.layers {
            x = layer.call(&[x])?;
        }
        Ok(x)
    }

    fn type_name(&self) -> &'static str {
        "Mlp"
    }

    fn children(&self) -> Vec<(String, ArcModule)> {
        self.layers.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_tensor::Tensor;
    use fx_tensor::rng::StdRng;
    use fx_tensor::rng::SeedableRng;

    #[test]
    fn forward_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let mlp = Mlp::new(&[8, 16, 4], &mut rng);
        let y = mlp
            .call(&[Value::Tensor(Tensor::ones(&[3, 8]))])
            .unwrap();
        assert_eq!(y.as_tensor().unwrap().shape(), &[3, 4]);
        assert_eq!(mlp.widths(), &[8, 16, 4]);
    }

    #[test]
    #[should_panic(expected = "at least")]
    fn rejects_degenerate_widths() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = Mlp::new(&[8], &mut rng);
    }
}
