//! Fused leaf modules — what the `fx_backend` fusion passes install in
//! place of a layer and the activation that follows it (torch's
//! `nn.intrinsic.ConvReLU2d` family). Each forwards to one fused
//! dispatcher op, so a fused graph runs on the ordinary executor.

use crate::{BatchNorm2d, Conv2d, Linear};
use fx_core::{func, Module, ModuleExt, Result, Value};
use fx_tensor::Tensor;
use std::any::Any;

fn pair(p: (usize, usize)) -> Value {
    Value::Tuple(vec![Value::Int(p.0 as i64), Value::Int(p.1 as i64)])
}

/// A [`Conv2d`] carrying an activation epilogue (the name of a scalar
/// unary op such as `"relu"`).
#[derive(Debug, Clone)]
pub struct FusedConv2d {
    conv: Conv2d,
    act: &'static str,
}

impl FusedConv2d {
    /// `conv` followed by the scalar unary op `act`.
    pub fn new(conv: Conv2d, act: &'static str) -> FusedConv2d {
        FusedConv2d { conv, act }
    }
}

impl Module for FusedConv2d {
    fn forward(&self, inputs: &[Value]) -> Result<Value> {
        let (stride, padding, dilation, groups) = self.conv.geometry();
        let bias = match self.conv.bias() {
            Some(_) => self.attr("bias")?,
            None => Value::None,
        };
        func::call(
            "conv2d_act",
            &[
                inputs[0].clone(),
                self.attr("weight")?,
                bias,
                pair(stride),
                pair(padding),
                pair(dilation),
                Value::Int(groups as i64),
                Value::Str(self.act.to_string()),
            ],
        )
    }

    fn type_name(&self) -> &'static str {
        "FusedConv2d"
    }

    fn own_parameters(&self) -> Vec<(String, Tensor)> {
        self.conv.own_parameters()
    }

    fn is_builtin_leaf(&self) -> bool {
        true
    }

    fn extra_repr(&self) -> String {
        format!("{}, act={}", self.conv.extra_repr(), self.act)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// A [`Linear`] carrying an activation epilogue.
#[derive(Debug, Clone)]
pub struct FusedLinear {
    linear: Linear,
    act: &'static str,
}

impl FusedLinear {
    /// `linear` followed by the scalar unary op `act`.
    pub fn new(linear: Linear, act: &'static str) -> FusedLinear {
        FusedLinear { linear, act }
    }
}

impl Module for FusedLinear {
    fn forward(&self, inputs: &[Value]) -> Result<Value> {
        let bias = match self.linear.bias() {
            Some(_) => self.attr("bias")?,
            None => Value::None,
        };
        func::call(
            "linear_act",
            &[
                inputs[0].clone(),
                self.attr("weight")?,
                bias,
                Value::Str(self.act.to_string()),
            ],
        )
    }

    fn type_name(&self) -> &'static str {
        "FusedLinear"
    }

    fn own_parameters(&self) -> Vec<(String, Tensor)> {
        self.linear.own_parameters()
    }

    fn is_builtin_leaf(&self) -> bool {
        true
    }

    fn extra_repr(&self) -> String {
        format!("{}, act={}", self.linear.extra_repr(), self.act)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Per-channel `x * scale + shift`: a [`BatchNorm2d`] whose running
/// statistics were folded into two vectors ahead of time. Bit-identical
/// to the batch norm it came from.
#[derive(Debug, Clone)]
pub struct ChannelAffine {
    scale: Tensor,
    shift: Tensor,
}

impl ChannelAffine {
    /// Fold `bn`'s affine and statistics, with the same float
    /// operations the `batch_norm` kernel performs per call.
    pub fn from_batch_norm(bn: &BatchNorm2d) -> Result<ChannelAffine> {
        let (g, b) = (bn.weight().as_f32()?, bn.bias().as_f32()?);
        let (m, v) = (bn.running_mean().as_f32()?, bn.running_var().as_f32()?);
        let scale: Vec<f32> = g
            .iter()
            .zip(v)
            .map(|(g, v)| g / (v + bn.eps()).sqrt())
            .collect();
        let shift: Vec<f32> = b
            .iter()
            .zip(m.iter().zip(&scale))
            .map(|(b, (m, s))| b - m * s)
            .collect();
        let c = scale.len();
        Ok(ChannelAffine {
            scale: Tensor::from_vec(scale, &[c]),
            shift: Tensor::from_vec(shift, &[c]),
        })
    }
}

impl Module for ChannelAffine {
    fn forward(&self, inputs: &[Value]) -> Result<Value> {
        func::call(
            "channel_affine",
            &[inputs[0].clone(), self.attr("scale")?, self.attr("shift")?],
        )
    }

    fn type_name(&self) -> &'static str {
        "ChannelAffine"
    }

    fn own_parameters(&self) -> Vec<(String, Tensor)> {
        vec![
            ("scale".to_string(), self.scale.clone()),
            ("shift".to_string(), self.shift.clone()),
        ]
    }

    fn is_builtin_leaf(&self) -> bool {
        true
    }

    fn extra_repr(&self) -> String {
        self.scale.numel().to_string()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_tensor::rng::{SeedableRng, StdRng};

    fn bits(v: &Value) -> Vec<u32> {
        let t = v.as_tensor().unwrap().as_f32().unwrap();
        t.iter().map(|f| f.to_bits()).collect()
    }

    #[test]
    fn fused_layers_match_layer_then_activation_bitwise() {
        let mut rng = StdRng::seed_from_u64(0);
        let conv = Conv2d::new(3, 5, (3, 3), &mut rng).with_padding((1, 1));
        let x = Value::Tensor(Tensor::randn(&[2, 3, 8, 8], &mut rng));
        for (act, eager) in [
            ("relu", func::relu as fn(&Value) -> Result<Value>),
            ("gelu", func::gelu),
        ] {
            let want = eager(&conv.call(&[x.clone()]).unwrap()).unwrap();
            let fused = FusedConv2d::new(conv.clone(), act);
            assert_eq!(
                bits(&want),
                bits(&fused.call(&[x.clone()]).unwrap()),
                "{act}"
            );
        }

        let lin = Linear::new(6, 4, &mut rng);
        let x = Value::Tensor(Tensor::randn(&[3, 6], &mut rng));
        let want = func::tanh(&lin.call(&[x.clone()]).unwrap()).unwrap();
        let fused = FusedLinear::new(lin, "tanh");
        assert_eq!(bits(&want), bits(&fused.call(&[x]).unwrap()));
    }

    #[test]
    fn channel_affine_is_bit_identical_to_its_batch_norm() {
        let mut rng = StdRng::seed_from_u64(2);
        let bn = BatchNorm2d::new(3)
            .with_stats(
                Tensor::rand_uniform(&[3], -0.5, 0.5, &mut rng),
                Tensor::rand_uniform(&[3], 0.2, 2.0, &mut rng),
            )
            .with_affine(
                Tensor::rand_uniform(&[3], 0.5, 1.5, &mut rng),
                Tensor::rand_uniform(&[3], -0.3, 0.3, &mut rng),
            );
        let x = Value::Tensor(Tensor::randn(&[2, 3, 4, 4], &mut rng));
        let affine = ChannelAffine::from_batch_norm(&bn).unwrap();
        assert_eq!(
            bits(&bn.call(&[x.clone()]).unwrap()),
            bits(&affine.call(&[x]).unwrap())
        );
    }
}
