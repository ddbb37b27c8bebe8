//! 2-d convolution layer.

use crate::init;
use fx_core::{func, Module, ModuleExt, Result, Value};
use fx_tensor::Tensor;
use fx_tensor::rng::Rng;

/// 2-d convolution, PyTorch `nn.Conv2d`.
///
/// Construct with [`Conv2d::new`] then refine with the builder methods:
///
/// ```
/// use fx_nn::Conv2d;
/// use fx_tensor::rng::{SeedableRng, StdRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// // ResNet stem: 7x7/2, pad 3, no bias.
/// let conv = Conv2d::new(3, 64, (7, 7), &mut rng)
///     .with_stride((2, 2))
///     .with_padding((3, 3))
///     .without_bias();
/// assert_eq!(conv.weight().shape(), &[64, 3, 7, 7]);
/// ```
#[derive(Debug, Clone)]
pub struct Conv2d {
    weight: Tensor,
    bias: Option<Tensor>,
    in_channels: usize,
    out_channels: usize,
    kernel_size: (usize, usize),
    stride: (usize, usize),
    padding: (usize, usize),
    dilation: (usize, usize),
    groups: usize,
}

impl Conv2d {
    /// A convolution with Kaiming-uniform weights, bias, stride 1, no
    /// padding, dilation 1 and a single group.
    pub fn new<R: Rng>(
        in_channels: usize,
        out_channels: usize,
        kernel_size: (usize, usize),
        rng: &mut R,
    ) -> Conv2d {
        let fan_in = in_channels * kernel_size.0 * kernel_size.1;
        Conv2d {
            weight: init::kaiming_uniform(
                &[out_channels, in_channels, kernel_size.0, kernel_size.1],
                fan_in,
                rng,
            ),
            bias: Some(init::bias_uniform(out_channels, fan_in, rng)),
            in_channels,
            out_channels,
            kernel_size,
            stride: (1, 1),
            padding: (0, 0),
            dilation: (1, 1),
            groups: 1,
        }
    }

    /// Set the stride.
    pub fn with_stride(mut self, stride: (usize, usize)) -> Conv2d {
        self.stride = stride;
        self
    }

    /// Set the zero padding.
    pub fn with_padding(mut self, padding: (usize, usize)) -> Conv2d {
        self.padding = padding;
        self
    }

    /// Set the dilation.
    pub fn with_dilation(mut self, dilation: (usize, usize)) -> Conv2d {
        self.dilation = dilation;
        self
    }

    /// Set the group count, reshaping the weight to
    /// `[out, in/groups, kh, kw]`.
    ///
    /// # Panics
    ///
    /// Panics if channels are not divisible by `groups`.
    pub fn with_groups<R: Rng>(mut self, groups: usize, rng: &mut R) -> Conv2d {
        assert!(
            groups > 0 && self.in_channels % groups == 0 && self.out_channels % groups == 0,
            "channels must divide groups"
        );
        let fan_in = self.in_channels / groups * self.kernel_size.0 * self.kernel_size.1;
        self.weight = init::kaiming_uniform(
            &[
                self.out_channels,
                self.in_channels / groups,
                self.kernel_size.0,
                self.kernel_size.1,
            ],
            fan_in,
            rng,
        );
        self.groups = groups;
        self
    }

    /// Drop the bias (conv layers followed by batch norm, as throughout
    /// ResNet).
    pub fn without_bias(mut self) -> Conv2d {
        self.bias = None;
        self
    }

    /// Build from explicit parameters and geometry — used by the fusion
    /// pass to construct the folded conv.
    pub fn from_parts(
        weight: Tensor,
        bias: Option<Tensor>,
        stride: (usize, usize),
        padding: (usize, usize),
        dilation: (usize, usize),
        groups: usize,
    ) -> Conv2d {
        assert_eq!(weight.rank(), 4, "Conv2d weight must be [O, I/g, kh, kw]");
        let s = weight.shape();
        Conv2d {
            in_channels: s[1] * groups,
            out_channels: s[0],
            kernel_size: (s[2], s[3]),
            weight,
            bias,
            stride,
            padding,
            dilation,
            groups,
        }
    }

    /// The weight tensor `[O, I/g, kh, kw]`.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// The bias, if present.
    pub fn bias(&self) -> Option<&Tensor> {
        self.bias.as_ref()
    }

    /// `(stride, padding, dilation, groups)` geometry.
    pub fn geometry(&self) -> ((usize, usize), (usize, usize), (usize, usize), usize) {
        (self.stride, self.padding, self.dilation, self.groups)
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Input channel count.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }
}

impl Module for Conv2d {
    fn forward(&self, inputs: &[Value]) -> Result<Value> {
        let w = self.attr("weight")?;
        let b = match self.bias {
            Some(_) => Some(self.attr("bias")?),
            None => None,
        };
        func::conv2d(
            &inputs[0],
            &w,
            b.as_ref(),
            self.stride,
            self.padding,
            self.dilation,
            self.groups,
        )
    }

    fn type_name(&self) -> &'static str {
        "Conv2d"
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
            "{}, {}, kernel_size={:?}, stride={:?}, padding={:?}",
            self.in_channels, self.out_channels, self.kernel_size, self.stride, self.padding
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_tensor::rng::StdRng;
    use fx_tensor::rng::SeedableRng;

    #[test]
    fn forward_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let conv = Conv2d::new(3, 8, (3, 3), &mut rng)
            .with_stride((2, 2))
            .with_padding((1, 1));
        let x = Value::Tensor(Tensor::ones(&[2, 3, 16, 16]));
        let y = conv.call(&[x]).unwrap();
        assert_eq!(y.as_tensor().unwrap().shape(), &[2, 8, 8, 8]);
    }

    #[test]
    fn identity_kernel() {
        // 1x1 conv with identity weight passes channels through.
        let w = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2, 1, 1]);
        let conv = Conv2d::from_parts(w, None, (1, 1), (0, 0), (1, 1), 1);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 2, 2, 1]);
        let y = conv.call(&[Value::Tensor(x.clone())]).unwrap();
        assert_eq!(y.as_tensor().unwrap(), &x);
    }

    #[test]
    fn grouped_builder() {
        let mut rng = StdRng::seed_from_u64(0);
        let conv = Conv2d::new(4, 8, (3, 3), &mut rng).with_groups(2, &mut rng);
        assert_eq!(conv.weight().shape(), &[8, 2, 3, 3]);
        let y = conv
            .call(&[Value::Tensor(Tensor::ones(&[1, 4, 5, 5]))])
            .unwrap();
        assert_eq!(y.as_tensor().unwrap().shape(), &[1, 8, 3, 3]);
    }

    #[test]
    fn param_count_resnet_stem() {
        let mut rng = StdRng::seed_from_u64(0);
        let conv = Conv2d::new(3, 64, (7, 7), &mut rng).without_bias();
        assert_eq!(fx_core::num_parameters(&conv), 64 * 3 * 7 * 7);
    }
}
