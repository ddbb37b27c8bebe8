//! Fully-connected layer.

use crate::init;
use fx_core::{func, Module, ModuleExt, Result, Value};
use fx_tensor::Tensor;
use fx_tensor::rng::Rng;

/// Affine transform `y = x @ weightᵀ + bias`, PyTorch `nn.Linear`.
#[derive(Debug, Clone)]
pub struct Linear {
    weight: Tensor,
    bias: Option<Tensor>,
    in_features: usize,
    out_features: usize,
}

impl Linear {
    /// A linear layer with Kaiming-uniform weights and uniform bias.
    pub fn new<R: Rng>(in_features: usize, out_features: usize, rng: &mut R) -> Linear {
        Linear {
            weight: init::kaiming_uniform(&[out_features, in_features], in_features, rng),
            bias: Some(init::bias_uniform(out_features, in_features, rng)),
            in_features,
            out_features,
        }
    }

    /// A linear layer without bias.
    pub fn new_no_bias<R: Rng>(in_features: usize, out_features: usize, rng: &mut R) -> Linear {
        let mut l = Linear::new(in_features, out_features, rng);
        l.bias = None;
        l
    }

    /// Build from explicit parameters (`weight: [out, in]`).
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not 2-d or `bias` length mismatches.
    pub fn from_parts(weight: Tensor, bias: Option<Tensor>) -> Linear {
        assert_eq!(weight.rank(), 2, "Linear weight must be [out, in]");
        let (out_features, in_features) = (weight.shape()[0], weight.shape()[1]);
        if let Some(b) = &bias {
            assert_eq!(b.shape(), [out_features], "Linear bias length mismatch");
        }
        Linear {
            weight,
            bias,
            in_features,
            out_features,
        }
    }

    /// The weight matrix `[out, in]`.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// The bias vector, if present.
    pub fn bias(&self) -> Option<&Tensor> {
        self.bias.as_ref()
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }
}

impl Module for Linear {
    fn forward(&self, inputs: &[Value]) -> Result<Value> {
        let w = self.attr("weight")?;
        let b = match self.bias {
            Some(_) => Some(self.attr("bias")?),
            None => None,
        };
        func::linear(&inputs[0], &w, b.as_ref())
    }

    fn type_name(&self) -> &'static str {
        "Linear"
    }

    fn own_parameters(&self) -> Vec<(String, Tensor)> {
        let mut p = vec![("weight".to_string(), self.weight.clone())];
        if let Some(b) = &self.bias {
            p.push(("bias".to_string(), b.clone()));
        }
        p
    }

    fn is_builtin_leaf(&self) -> bool {
        true
    }

    fn extra_repr(&self) -> String {
        format!(
            "in_features={}, out_features={}, bias={}",
            self.in_features,
            self.out_features,
            self.bias.is_some()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_tensor::rng::StdRng;
    use fx_tensor::rng::SeedableRng;

    #[test]
    fn forward_matches_manual() {
        let w = Tensor::from_vec(vec![1.0, 2.0, 0.0, -1.0], &[2, 2]);
        let b = Tensor::from_vec(vec![0.5, -0.5], &[2]);
        let l = Linear::from_parts(w, Some(b));
        let x = Value::Tensor(Tensor::from_vec(vec![3.0, 4.0], &[1, 2]));
        let y = l.call(&[x]).unwrap();
        assert_eq!(y.as_tensor().unwrap().as_f32().unwrap(), &[11.5, -4.5]);
    }

    #[test]
    fn no_bias_variant() {
        let mut rng = StdRng::seed_from_u64(0);
        let l = Linear::new_no_bias(3, 2, &mut rng);
        assert!(l.bias().is_none());
        assert_eq!(l.own_parameters().len(), 1);
        let y = l
            .call(&[Value::Tensor(Tensor::zeros(&[1, 3]))])
            .unwrap();
        assert_eq!(y.as_tensor().unwrap().as_f32().unwrap(), &[0.0, 0.0]);
    }

    #[test]
    fn parameter_count() {
        let mut rng = StdRng::seed_from_u64(0);
        let l = Linear::new(10, 5, &mut rng);
        assert_eq!(fx_core::num_parameters(&l), 10 * 5 + 5);
        assert!(l.extra_repr().contains("in_features=10"));
    }

    #[test]
    #[should_panic(expected = "bias length")]
    fn from_parts_validates() {
        let _ = Linear::from_parts(Tensor::ones(&[2, 3]), Some(Tensor::ones(&[5])));
    }
}
