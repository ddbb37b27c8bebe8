//! Quantized replacement modules installed by the *convert* phase.

use fx_core::{func, Module, ModuleExt, Result, Value};
use fx_tensor::quant::quantize_per_channel;
use fx_tensor::Tensor;

/// Int8 linear layer (optionally with a fused ReLU epilogue) — the
/// FBGEMM-style replacement for `Linear`.
///
/// Holds the per-channel-quantized weight, the original `f32` bias and
/// the calibrated output quantization parameters. Its forward dispatches
/// `quantized::linear` / `quantized::linear_relu`.
#[derive(Debug)]
pub struct QuantizedLinear {
    qweight: Tensor,
    bias: Option<Tensor>,
    out_scale: f32,
    out_zero_point: i32,
    relu: bool,
}

impl QuantizedLinear {
    /// Quantize an `f32` weight `[out, in]` per-channel and wrap it with
    /// calibrated output qparams. `relu` fuses a ReLU before
    /// requantization.
    pub fn from_float(
        weight: &Tensor,
        bias: Option<Tensor>,
        out_scale: f32,
        out_zero_point: i32,
        relu: bool,
    ) -> Result<QuantizedLinear> {
        Ok(QuantizedLinear {
            qweight: quantize_per_channel(weight, 0)?,
            bias,
            out_scale,
            out_zero_point,
            relu,
        })
    }

    /// The quantized weight.
    pub fn qweight(&self) -> &Tensor {
        &self.qweight
    }

    /// Output quantization parameters.
    pub fn output_qparams(&self) -> (f32, i32) {
        (self.out_scale, self.out_zero_point)
    }

    /// Whether a ReLU is fused into the epilogue.
    pub fn has_fused_relu(&self) -> bool {
        self.relu
    }
}

impl Module for QuantizedLinear {
    fn forward(&self, inputs: &[Value]) -> Result<Value> {
        let w = self.attr("weight")?;
        let b = match self.bias {
            Some(_) => self.attr("bias")?,
            None => Value::None,
        };
        let target = if self.relu {
            "quantized::linear_relu"
        } else {
            "quantized::linear"
        };
        func::call(
            target,
            &[
                inputs[0].clone(),
                w,
                b,
                Value::Float(self.out_scale as f64),
                Value::Int(self.out_zero_point as i64),
            ],
        )
    }

    fn type_name(&self) -> &'static str {
        if self.relu {
            "QuantizedLinearReLU"
        } else {
            "QuantizedLinear"
        }
    }

    fn own_parameters(&self) -> Vec<(String, Tensor)> {
        let mut p = vec![("weight".to_string(), self.qweight.clone())];
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
            "out={}, scale={:.6}, zero_point={}",
            self.qweight.shape()[0],
            self.out_scale,
            self.out_zero_point
        )
    }
}

/// Int8 convolution (optionally with a fused ReLU epilogue) — the
/// replacement for `Conv2d`.
#[derive(Debug)]
pub struct QuantizedConv2d {
    qweight: Tensor,
    bias: Option<Tensor>,
    stride: (usize, usize),
    padding: (usize, usize),
    out_scale: f32,
    out_zero_point: i32,
    relu: bool,
}

impl QuantizedConv2d {
    /// Quantize an `f32` conv weight `[O, C, kh, kw]` per-channel.
    /// Dilation and groups are not supported in the quantized path.
    pub fn from_float(
        weight: &Tensor,
        bias: Option<Tensor>,
        stride: (usize, usize),
        padding: (usize, usize),
        out_scale: f32,
        out_zero_point: i32,
        relu: bool,
    ) -> Result<QuantizedConv2d> {
        Ok(QuantizedConv2d {
            qweight: quantize_per_channel(weight, 0)?,
            bias,
            stride,
            padding,
            out_scale,
            out_zero_point,
            relu,
        })
    }

    /// Output quantization parameters.
    pub fn output_qparams(&self) -> (f32, i32) {
        (self.out_scale, self.out_zero_point)
    }

    /// The quantized weight, `[O, C, kh, kw]`.
    pub fn qweight(&self) -> &Tensor {
        &self.qweight
    }

    /// Convolution geometry `(stride, padding)` — dilation is fixed at
    /// `(1, 1)` and groups at 1 in the quantized path. Static shape
    /// inference uses this to admit batch-polymorphic quantized graphs.
    pub fn geometry(&self) -> ((usize, usize), (usize, usize)) {
        (self.stride, self.padding)
    }
}

impl Module for QuantizedConv2d {
    fn forward(&self, inputs: &[Value]) -> Result<Value> {
        let w = self.attr("weight")?;
        let b = match self.bias {
            Some(_) => self.attr("bias")?,
            None => Value::None,
        };
        let pair = |p: (usize, usize)| {
            Value::Tuple(vec![Value::Int(p.0 as i64), Value::Int(p.1 as i64)])
        };
        let target = if self.relu {
            "quantized::conv2d_relu"
        } else {
            "quantized::conv2d"
        };
        func::call(
            target,
            &[
                inputs[0].clone(),
                w,
                b,
                pair(self.stride),
                pair(self.padding),
                Value::Float(self.out_scale as f64),
                Value::Int(self.out_zero_point as i64),
            ],
        )
    }

    fn type_name(&self) -> &'static str {
        if self.relu {
            "QuantizedConv2dReLU"
        } else {
            "QuantizedConv2d"
        }
    }

    fn own_parameters(&self) -> Vec<(String, Tensor)> {
        let mut p = vec![("weight".to_string(), self.qweight.clone())];
        if let Some(b) = &self.bias {
            p.push(("bias".to_string(), b.clone()));
        }
        p
    }

    fn is_builtin_leaf(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_tensor::quant::{choose_qparams, dequantize, quantize_per_tensor};
    use fx_tensor::rng::StdRng;
    use fx_tensor::rng::SeedableRng;

    #[test]
    fn quantized_linear_close_to_float() {
        let mut rng = StdRng::seed_from_u64(0);
        let w = Tensor::rand_uniform(&[4, 8], -0.5, 0.5, &mut rng);
        let b = Tensor::rand_uniform(&[4], -0.1, 0.1, &mut rng);
        let x = Tensor::rand_uniform(&[2, 8], -1.0, 1.0, &mut rng);
        let y_float = fx_tensor::ops::linear(&x, &w, Some(&b)).unwrap();
        let lo = y_float.as_f32().unwrap().iter().cloned().fold(f32::MAX, f32::min);
        let hi = y_float.as_f32().unwrap().iter().cloned().fold(f32::MIN, f32::max);
        let (os, ozp) = choose_qparams(lo, hi);
        let ql = QuantizedLinear::from_float(&w, Some(b), os, ozp, false).unwrap();
        let (xs, xzp) = choose_qparams(-1.0, 1.0);
        let xq = Value::Tensor(quantize_per_tensor(&x, xs, xzp).unwrap());
        let yq = ql.call(&[xq]).unwrap();
        let y = dequantize(yq.as_tensor().unwrap()).unwrap();
        assert!(y.max_abs_diff(&y_float).unwrap() < 6.0 * os);
        assert_eq!(ql.output_qparams(), (os, ozp));
        assert!(!ql.has_fused_relu());
    }

    #[test]
    fn fused_relu_type_name() {
        let w = Tensor::ones(&[2, 2]);
        let ql = QuantizedLinear::from_float(&w, None, 0.1, 0, true).unwrap();
        assert_eq!(ql.type_name(), "QuantizedLinearReLU");
    }

    #[test]
    fn quantized_conv_runs() {
        let mut rng = StdRng::seed_from_u64(0);
        let w = Tensor::rand_uniform(&[2, 1, 3, 3], -0.5, 0.5, &mut rng);
        let qc =
            QuantizedConv2d::from_float(&w, None, (1, 1), (1, 1), 0.05, 0, false).unwrap();
        let x = Tensor::rand_uniform(&[1, 1, 4, 4], -1.0, 1.0, &mut rng);
        let (xs, xzp) = choose_qparams(-1.0, 1.0);
        let xq = Value::Tensor(quantize_per_tensor(&x, xs, xzp).unwrap());
        let y = qc.call(&[xq]).unwrap();
        assert_eq!(y.as_tensor().unwrap().shape(), &[1, 2, 4, 4]);
        assert_eq!(y.as_tensor().unwrap().dtype(), fx_tensor::DType::QI8);
    }
}
