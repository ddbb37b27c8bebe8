//! Activation modules. All stateless leaves wrapping the corresponding
//! [`fx_core::func`] ops.

use fx_core::{func, Module, Result, Value};

macro_rules! activation {
    ($(#[$doc:meta])* $name:ident, $func:path) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, Default)]
        pub struct $name;

        impl Module for $name {
            fn forward(&self, inputs: &[Value]) -> Result<Value> {
                $func(&inputs[0])
            }
            fn type_name(&self) -> &'static str {
                stringify!($name)
            }
            fn is_builtin_leaf(&self) -> bool {
                true
            }
        }
    };
}

activation!(
    /// Rectified linear unit, `nn.ReLU`.
    ReLU,
    func::relu
);
activation!(
    /// Gaussian error linear unit, `nn.GELU`.
    GELU,
    func::gelu
);
activation!(
    /// Scaled exponential linear unit, `nn.SELU` — DeepRecommender's
    /// activation.
    SELU,
    func::selu
);
activation!(
    /// Logistic sigmoid, `nn.Sigmoid`.
    Sigmoid,
    func::sigmoid
);
activation!(
    /// Hyperbolic tangent, `nn.Tanh`.
    Tanh,
    func::tanh
);

/// Leaky ReLU with configurable negative slope, `nn.LeakyReLU`.
#[derive(Debug, Clone, Copy)]
pub struct LeakyReLU {
    /// Slope for negative inputs.
    pub negative_slope: f64,
}

impl Default for LeakyReLU {
    fn default() -> Self {
        LeakyReLU {
            negative_slope: 0.01,
        }
    }
}

impl Module for LeakyReLU {
    fn forward(&self, inputs: &[Value]) -> Result<Value> {
        func::leaky_relu(&inputs[0], self.negative_slope)
    }

    fn type_name(&self) -> &'static str {
        "LeakyReLU"
    }

    fn is_builtin_leaf(&self) -> bool {
        true
    }

    fn extra_repr(&self) -> String {
        format!("negative_slope={}", self.negative_slope)
    }
}

/// ReLU clipped at 6 (`nn.ReLU6`), common in mobile architectures.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReLU6;

impl Module for ReLU6 {
    fn forward(&self, inputs: &[Value]) -> Result<Value> {
        func::clamp(&inputs[0], 0.0, 6.0)
    }

    fn type_name(&self) -> &'static str {
        "ReLU6"
    }

    fn is_builtin_leaf(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_core::ModuleExt;
    use fx_tensor::Tensor;

    fn run(m: &dyn Module, data: Vec<f32>) -> Vec<f32> {
        let x = Value::Tensor(Tensor::from_vec(data.clone(), &[data.len()]));
        m.call(&[x])
            .unwrap()
            .as_tensor()
            .unwrap()
            .as_f32()
            .unwrap()
            .to_vec()
    }

    #[test]
    fn relu_family() {
        assert_eq!(run(&ReLU, vec![-1.0, 2.0]), vec![0.0, 2.0]);
        assert_eq!(run(&ReLU6, vec![-1.0, 9.0]), vec![0.0, 6.0]);
        assert_eq!(
            run(
                &LeakyReLU {
                    negative_slope: 0.5
                },
                vec![-2.0, 2.0]
            ),
            vec![-1.0, 2.0]
        );
    }

    #[test]
    fn smooth_activations_at_zero() {
        assert_eq!(run(&GELU, vec![0.0]), vec![0.0]);
        assert_eq!(run(&SELU, vec![0.0]), vec![0.0]);
        assert_eq!(run(&Tanh, vec![0.0]), vec![0.0]);
        assert_eq!(run(&Sigmoid, vec![0.0]), vec![0.5]);
    }

    #[test]
    fn all_are_leaves() {
        assert!(ReLU.is_builtin_leaf());
        assert!(GELU.is_builtin_leaf());
        assert!(SELU.is_builtin_leaf());
        assert!(LeakyReLU::default().is_builtin_leaf());
    }
}
