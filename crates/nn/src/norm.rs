//! Normalization layers.

use fx_core::{func, Module, ModuleExt, Result, Value};
use fx_tensor::Tensor;

/// Inference-mode 2-d batch normalization, PyTorch `nn.BatchNorm2d`.
///
/// Holds the learned affine (`weight` = γ, `bias` = β) and the running
/// statistics. The paper's §5.6 point is embodied here: the module
/// *contains* mutable-looking state, but that state is well understood
/// and hidden behind the module boundary, so the IR stays functional.
#[derive(Debug, Clone)]
pub struct BatchNorm2d {
    weight: Tensor,
    bias: Tensor,
    running_mean: Tensor,
    running_var: Tensor,
    eps: f32,
    num_features: usize,
}

impl BatchNorm2d {
    /// Identity-initialized batch norm (γ=1, β=0, mean=0, var=1).
    pub fn new(num_features: usize) -> BatchNorm2d {
        BatchNorm2d {
            weight: Tensor::ones(&[num_features]),
            bias: Tensor::zeros(&[num_features]),
            running_mean: Tensor::zeros(&[num_features]),
            running_var: Tensor::ones(&[num_features]),
            eps: 1e-5,
            num_features,
        }
    }

    /// Replace the running statistics (e.g. to simulate a trained
    /// network; the fusion benchmark does this so folding is
    /// non-trivial).
    pub fn with_stats(mut self, mean: Tensor, var: Tensor) -> BatchNorm2d {
        assert_eq!(mean.shape(), [self.num_features]);
        assert_eq!(var.shape(), [self.num_features]);
        self.running_mean = mean;
        self.running_var = var;
        self
    }

    /// Replace the affine parameters.
    pub fn with_affine(mut self, weight: Tensor, bias: Tensor) -> BatchNorm2d {
        assert_eq!(weight.shape(), [self.num_features]);
        assert_eq!(bias.shape(), [self.num_features]);
        self.weight = weight;
        self.bias = bias;
        self
    }

    /// γ (scale).
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// β (shift).
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// Running mean.
    pub fn running_mean(&self) -> &Tensor {
        &self.running_mean
    }

    /// Running variance.
    pub fn running_var(&self) -> &Tensor {
        &self.running_var
    }

    /// Numerical-stability epsilon.
    pub fn eps(&self) -> f32 {
        self.eps
    }
}

impl Module for BatchNorm2d {
    fn forward(&self, inputs: &[Value]) -> Result<Value> {
        let g = self.attr("weight")?;
        let b = self.attr("bias")?;
        let m = self.attr("running_mean")?;
        let v = self.attr("running_var")?;
        func::batch_norm(&inputs[0], &g, &b, &m, &v, self.eps as f64)
    }

    fn type_name(&self) -> &'static str {
        "BatchNorm2d"
    }

    fn own_parameters(&self) -> Vec<(String, Tensor)> {
        vec![
            ("weight".to_string(), self.weight.clone()),
            ("bias".to_string(), self.bias.clone()),
            ("running_mean".to_string(), self.running_mean.clone()),
            ("running_var".to_string(), self.running_var.clone()),
        ]
    }

    fn is_builtin_leaf(&self) -> bool {
        true
    }

    fn extra_repr(&self) -> String {
        format!("{}, eps={}", self.num_features, self.eps)
    }
}

/// Layer normalization over the trailing dimensions, PyTorch
/// `nn.LayerNorm`.
#[derive(Debug, Clone)]
pub struct LayerNorm {
    weight: Tensor,
    bias: Tensor,
    normalized_shape: Vec<usize>,
    eps: f32,
}

impl LayerNorm {
    /// Identity-initialized layer norm over `normalized_shape` (the
    /// trailing dims of the input).
    pub fn new(normalized_shape: &[usize]) -> LayerNorm {
        LayerNorm {
            weight: Tensor::ones(normalized_shape),
            bias: Tensor::zeros(normalized_shape),
            normalized_shape: normalized_shape.to_vec(),
            eps: 1e-5,
        }
    }

    /// The normalized trailing shape.
    pub fn normalized_shape(&self) -> &[usize] {
        &self.normalized_shape
    }
}

impl Module for LayerNorm {
    fn forward(&self, inputs: &[Value]) -> Result<Value> {
        let g = self.attr("weight")?;
        let b = self.attr("bias")?;
        func::layer_norm(
            &inputs[0],
            self.normalized_shape.len(),
            &g,
            &b,
            self.eps as f64,
        )
    }

    fn type_name(&self) -> &'static str {
        "LayerNorm"
    }

    fn own_parameters(&self) -> Vec<(String, Tensor)> {
        vec![
            ("weight".to_string(), self.weight.clone()),
            ("bias".to_string(), self.bias.clone()),
        ]
    }

    fn is_builtin_leaf(&self) -> bool {
        true
    }

    fn extra_repr(&self) -> String {
        format!("{:?}, eps={}", self.normalized_shape, self.eps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_bn_passes_through() {
        let bn = BatchNorm2d::new(2);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 2, 2, 1]);
        let y = bn.call(&[Value::Tensor(x.clone())]).unwrap();
        assert!(y.as_tensor().unwrap().allclose(&x, 1e-4));
    }

    #[test]
    fn bn_with_stats_normalizes() {
        let bn = BatchNorm2d::new(1).with_stats(
            Tensor::from_vec(vec![10.0], &[1]),
            Tensor::from_vec(vec![4.0], &[1]),
        );
        let x = Tensor::from_vec(vec![12.0], &[1, 1, 1, 1]);
        let y = bn.call(&[Value::Tensor(x)]).unwrap();
        // (12-10)/2 = 1
        assert!((y.as_tensor().unwrap().as_f32().unwrap()[0] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn bn_parameters_use_pytorch_names() {
        let bn = BatchNorm2d::new(3);
        let names: Vec<String> = bn.own_parameters().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["weight", "bias", "running_mean", "running_var"]);
    }

    #[test]
    fn layer_norm_normalizes_rows() {
        let ln = LayerNorm::new(&[4]);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 4]);
        let y = ln.call(&[Value::Tensor(x)]).unwrap();
        let yd = y.as_tensor().unwrap().as_f32().unwrap();
        let mean: f32 = yd.iter().sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
    }

    #[test]
    #[should_panic]
    fn with_stats_validates_shape() {
        let _ = BatchNorm2d::new(2).with_stats(Tensor::ones(&[3]), Tensor::ones(&[2]));
    }
}
