//! Pooling modules.

use fx_core::{func, Module, Result, Value};

/// Max pooling, `nn.MaxPool2d`.
#[derive(Debug, Clone, Copy)]
pub struct MaxPool2d {
    /// Window size.
    pub kernel_size: (usize, usize),
    /// Window stride.
    pub stride: (usize, usize),
    /// Zero padding.
    pub padding: (usize, usize),
}

impl MaxPool2d {
    /// Max pooling with stride equal to the kernel and no padding.
    pub fn new(kernel_size: (usize, usize)) -> MaxPool2d {
        MaxPool2d {
            kernel_size,
            stride: kernel_size,
            padding: (0, 0),
        }
    }

    /// Set the stride.
    pub fn with_stride(mut self, stride: (usize, usize)) -> MaxPool2d {
        self.stride = stride;
        self
    }

    /// Set the padding.
    pub fn with_padding(mut self, padding: (usize, usize)) -> MaxPool2d {
        self.padding = padding;
        self
    }
}

impl Module for MaxPool2d {
    fn forward(&self, inputs: &[Value]) -> Result<Value> {
        func::max_pool2d(&inputs[0], self.kernel_size, self.stride, self.padding)
    }

    fn type_name(&self) -> &'static str {
        "MaxPool2d"
    }

    fn is_builtin_leaf(&self) -> bool {
        true
    }

    fn extra_repr(&self) -> String {
        format!(
            "kernel_size={:?}, stride={:?}, padding={:?}",
            self.kernel_size, self.stride, self.padding
        )
    }
}

/// Average pooling, `nn.AvgPool2d`.
#[derive(Debug, Clone, Copy)]
pub struct AvgPool2d {
    /// Window size.
    pub kernel_size: (usize, usize),
    /// Window stride.
    pub stride: (usize, usize),
    /// Zero padding.
    pub padding: (usize, usize),
}

impl AvgPool2d {
    /// Average pooling with stride equal to the kernel.
    pub fn new(kernel_size: (usize, usize)) -> AvgPool2d {
        AvgPool2d {
            kernel_size,
            stride: kernel_size,
            padding: (0, 0),
        }
    }
}

impl Module for AvgPool2d {
    fn forward(&self, inputs: &[Value]) -> Result<Value> {
        func::avg_pool2d(&inputs[0], self.kernel_size, self.stride, self.padding)
    }

    fn type_name(&self) -> &'static str {
        "AvgPool2d"
    }

    fn is_builtin_leaf(&self) -> bool {
        true
    }
}

/// Adaptive average pooling to a fixed output size,
/// `nn.AdaptiveAvgPool2d`.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveAvgPool2d {
    /// Target `(h, w)`.
    pub output_size: (usize, usize),
}

impl AdaptiveAvgPool2d {
    /// Pool to `output_size`; `(1, 1)` is global average pooling.
    pub fn new(output_size: (usize, usize)) -> AdaptiveAvgPool2d {
        AdaptiveAvgPool2d { output_size }
    }
}

impl Module for AdaptiveAvgPool2d {
    fn forward(&self, inputs: &[Value]) -> Result<Value> {
        func::adaptive_avg_pool2d(&inputs[0], self.output_size)
    }

    fn type_name(&self) -> &'static str {
        "AdaptiveAvgPool2d"
    }

    fn is_builtin_leaf(&self) -> bool {
        true
    }

    fn extra_repr(&self) -> String {
        format!("output_size={:?}", self.output_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_core::ModuleExt;
    use fx_tensor::Tensor;

    #[test]
    fn resnet_stem_pool() {
        let pool = MaxPool2d::new((3, 3)).with_stride((2, 2)).with_padding((1, 1));
        let x = Value::Tensor(Tensor::ones(&[1, 64, 112, 112]));
        let y = pool.call(&[x]).unwrap();
        assert_eq!(y.as_tensor().unwrap().shape(), &[1, 64, 56, 56]);
    }

    #[test]
    fn global_average_pool() {
        let gap = AdaptiveAvgPool2d::new((1, 1));
        let x = Value::Tensor(Tensor::from_vec(vec![1.0, 3.0, 5.0, 7.0], &[1, 1, 2, 2]));
        let y = gap.call(&[x]).unwrap();
        assert_eq!(y.as_tensor().unwrap().as_f32().unwrap(), &[4.0]);
    }

    #[test]
    fn avg_pool_module() {
        let pool = AvgPool2d::new((2, 2));
        let x = Value::Tensor(Tensor::ones(&[1, 1, 4, 4]));
        let y = pool.call(&[x]).unwrap();
        assert_eq!(y.as_tensor().unwrap().shape(), &[1, 1, 2, 2]);
    }
}
