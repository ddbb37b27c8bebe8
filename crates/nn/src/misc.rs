//! Structural and embedding modules.

use fx_core::{func, Module, ModuleExt, Result, Value};
use fx_tensor::Tensor;
use fx_tensor::rng::Rng;

/// Flattens a contiguous range of dims, `nn.Flatten`.
#[derive(Debug, Clone, Copy)]
pub struct Flatten {
    /// First dim to flatten (default 1, preserving the batch dim).
    pub start_dim: i64,
    /// Last dim to flatten (default -1).
    pub end_dim: i64,
}

impl Default for Flatten {
    fn default() -> Self {
        Flatten {
            start_dim: 1,
            end_dim: -1,
        }
    }
}

impl Module for Flatten {
    fn forward(&self, inputs: &[Value]) -> Result<Value> {
        func::flatten(&inputs[0], self.start_dim, self.end_dim)
    }

    fn type_name(&self) -> &'static str {
        "Flatten"
    }

    fn is_builtin_leaf(&self) -> bool {
        true
    }

    fn extra_repr(&self) -> String {
        format!("start_dim={}, end_dim={}", self.start_dim, self.end_dim)
    }
}

/// Dropout, `nn.Dropout` — the identity at inference time, but recorded
/// in the IR so transforms can observe and strip it.
#[derive(Debug, Clone, Copy)]
pub struct Dropout {
    /// Drop probability (training-time semantics; unused at inference).
    pub p: f64,
}

impl Dropout {
    /// Dropout with probability `p`.
    pub fn new(p: f64) -> Dropout {
        Dropout { p }
    }
}

impl Module for Dropout {
    fn forward(&self, inputs: &[Value]) -> Result<Value> {
        func::dropout(&inputs[0], self.p)
    }

    fn type_name(&self) -> &'static str {
        "Dropout"
    }

    fn is_builtin_leaf(&self) -> bool {
        true
    }

    fn extra_repr(&self) -> String {
        format!("p={}", self.p)
    }
}

/// Embedding table, `nn.Embedding`.
#[derive(Debug, Clone)]
pub struct Embedding {
    weight: Tensor,
    num_embeddings: usize,
    embedding_dim: usize,
}

impl Embedding {
    /// A table of `num_embeddings` vectors of `embedding_dim`, normal
    /// initialized.
    pub fn new<R: Rng>(num_embeddings: usize, embedding_dim: usize, rng: &mut R) -> Embedding {
        Embedding {
            weight: Tensor::randn(&[num_embeddings, embedding_dim], rng),
            num_embeddings,
            embedding_dim,
        }
    }

    /// The table `[V, D]`.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }
}

impl Module for Embedding {
    fn forward(&self, inputs: &[Value]) -> Result<Value> {
        let w = self.attr("weight")?;
        func::embedding(&w, &inputs[0])
    }

    fn type_name(&self) -> &'static str {
        "Embedding"
    }

    fn own_parameters(&self) -> Vec<(String, Tensor)> {
        vec![("weight".to_string(), self.weight.clone())]
    }

    fn is_builtin_leaf(&self) -> bool {
        true
    }

    fn extra_repr(&self) -> String {
        format!("{}, {}", self.num_embeddings, self.embedding_dim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_tensor::rng::StdRng;
    use fx_tensor::rng::SeedableRng;

    #[test]
    fn flatten_keeps_batch_dim() {
        let x = Value::Tensor(Tensor::ones(&[2, 3, 4]));
        let y = Flatten::default().call(&[x]).unwrap();
        assert_eq!(y.as_tensor().unwrap().shape(), &[2, 12]);
    }

    #[test]
    fn dropout_is_identity() {
        let x = Value::Tensor(Tensor::ones(&[4]));
        let y = Dropout::new(0.8).call(&[x.clone()]).unwrap();
        assert_eq!(y, x);
    }

    #[test]
    fn embedding_lookup() {
        let mut rng = StdRng::seed_from_u64(0);
        let e = Embedding::new(10, 4, &mut rng);
        let idx = Value::Tensor(Tensor::from_i64(vec![0, 3, 0], &[3]));
        let y = e.call(&[idx]).unwrap();
        let yt = y.as_tensor().unwrap();
        assert_eq!(yt.shape(), &[3, 4]);
        // Row 0 and row 2 are the same vector.
        let d = yt.as_f32().unwrap();
        assert_eq!(&d[0..4], &d[8..12]);
    }
}
