//! A Transformer encoder layer (Vaswani et al. 2017).
//!
//! The paper (§2.3, §5.5) argues Transformers are expressible as basic
//! block programs — the encoder contains no control flow. This module
//! demonstrates that: multi-head self-attention built entirely from
//! traceable ops (linear projections, reshapes, batched matmuls,
//! softmax), so it captures to a flat DAG.

use fx_core::{func, ArcModule, Module, ModuleExt, Result, Value};
use fx_nn::{LayerNorm, Linear};
use fx_tensor::rng::Rng;
use std::sync::Arc;

/// One pre-norm Transformer encoder layer: multi-head self-attention +
/// feed-forward, each with a residual connection and layer norm.
#[derive(Debug)]
pub struct TransformerEncoderLayer {
    q_proj: ArcModule,
    k_proj: ArcModule,
    v_proj: ArcModule,
    out_proj: ArcModule,
    ff1: ArcModule,
    ff2: ArcModule,
    norm1: ArcModule,
    norm2: ArcModule,
    d_model: usize,
    n_heads: usize,
}

impl TransformerEncoderLayer {
    /// Build with model width `d_model`, `n_heads` attention heads and a
    /// `4 * d_model` feed-forward.
    ///
    /// # Panics
    ///
    /// Panics if `d_model` is not divisible by `n_heads`.
    pub fn new<R: Rng>(d_model: usize, n_heads: usize, rng: &mut R) -> TransformerEncoderLayer {
        assert_eq!(d_model % n_heads, 0, "d_model must divide n_heads");
        TransformerEncoderLayer {
            q_proj: Arc::new(Linear::new(d_model, d_model, rng)),
            k_proj: Arc::new(Linear::new(d_model, d_model, rng)),
            v_proj: Arc::new(Linear::new(d_model, d_model, rng)),
            out_proj: Arc::new(Linear::new(d_model, d_model, rng)),
            ff1: Arc::new(Linear::new(d_model, 4 * d_model, rng)),
            ff2: Arc::new(Linear::new(4 * d_model, d_model, rng)),
            norm1: Arc::new(LayerNorm::new(&[d_model])),
            norm2: Arc::new(LayerNorm::new(&[d_model])),
            d_model,
            n_heads,
        }
    }

    /// `[B, L, D] -> [B*H, L, D/H]`.
    fn split_heads(&self, x: &Value, b: i64, l: i64) -> Result<Value> {
        let h = self.n_heads as i64;
        let dh = (self.d_model / self.n_heads) as i64;
        let x = func::reshape(x, &[b, l, h, dh])?;
        let x = func::permute(&x, &[0, 2, 1, 3])?;
        func::reshape(&x, &[b * h, l, dh])
    }
}

impl Module for TransformerEncoderLayer {
    /// `inputs[0]`: `[B, L, D]` activations. The static `(B, L)` used in
    /// reshapes comes from `inputs[1]`/`inputs[2]` immediates so the
    /// layer stays traceable without shape specialization.
    fn forward(&self, inputs: &[Value]) -> Result<Value> {
        let x = &inputs[0];
        let b = inputs[1].try_int()?;
        let l = inputs[2].try_int()?;
        let h = self.n_heads as i64;
        let dh = (self.d_model / self.n_heads) as i64;

        // --- self-attention block (pre-norm) ---
        let normed = self.norm1.call(&[x.clone()])?;
        let q = self.split_heads(&self.q_proj.call(&[normed.clone()])?, b, l)?;
        let k = self.split_heads(&self.k_proj.call(&[normed.clone()])?, b, l)?;
        let v = self.split_heads(&self.v_proj.call(&[normed])?, b, l)?;
        let kt = func::transpose(&k, 1, 2)?;
        let scores = func::matmul(&q, &kt)?;
        let scale = 1.0 / ((dh as f64).sqrt());
        let scores = func::mul(&scores, &Value::Float(scale))?;
        let attn = func::softmax(&scores, -1)?;
        let ctx = func::matmul(&attn, &v)?;
        // [B*H, L, Dh] -> [B, L, D]
        let ctx = func::reshape(&ctx, &[b, h, l, dh])?;
        let ctx = func::permute(&ctx, &[0, 2, 1, 3])?;
        let ctx = func::reshape(&ctx, &[b, l, self.d_model as i64])?;
        let attn_out = self.out_proj.call(&[ctx])?;
        let x = func::add(x, &attn_out)?;

        // --- feed-forward block (pre-norm) ---
        let normed = self.norm2.call(&[x.clone()])?;
        let ff = self.ff1.call(&[normed])?;
        let ff = func::gelu(&ff)?;
        let ff = self.ff2.call(&[ff])?;
        func::add(&x, &ff)
    }

    fn type_name(&self) -> &'static str {
        "TransformerEncoderLayer"
    }

    fn children(&self) -> Vec<(String, ArcModule)> {
        vec![
            ("q_proj".to_string(), self.q_proj.clone()),
            ("k_proj".to_string(), self.k_proj.clone()),
            ("v_proj".to_string(), self.v_proj.clone()),
            ("out_proj".to_string(), self.out_proj.clone()),
            ("ff1".to_string(), self.ff1.clone()),
            ("ff2".to_string(), self.ff2.clone()),
            ("norm1".to_string(), self.norm1.clone()),
            ("norm2".to_string(), self.norm2.clone()),
        ]
    }

    fn input_names(&self) -> Vec<String> {
        vec!["x".to_string(), "batch".to_string(), "seq_len".to_string()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_tensor::Tensor;
    use fx_tensor::rng::StdRng;
    use fx_tensor::rng::SeedableRng;

    #[test]
    fn forward_preserves_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let layer = TransformerEncoderLayer::new(32, 4, &mut rng);
        let x = Value::Tensor(Tensor::randn(&[2, 5, 32], &mut rng));
        let y = layer
            .call(&[x, Value::Int(2), Value::Int(5)])
            .unwrap();
        assert_eq!(y.as_tensor().unwrap().shape(), &[2, 5, 32]);
    }

    #[test]
    #[should_panic(expected = "divide")]
    fn head_divisibility_checked() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = TransformerEncoderLayer::new(30, 4, &mut rng);
    }
}
