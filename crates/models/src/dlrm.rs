//! A DLRM-style personalization/recommendation model (Naumov et al.
//! 2019) — the third model family the paper's §2.3 names as "easily
//! expressed" as a basic-block program: dense features through a bottom
//! MLP, sparse categorical features through embedding tables, pairwise
//! dot-product feature interactions, and a top MLP.

use crate::mlp::Mlp;
use fx_core::{func, ArcModule, Module, ModuleExt, Result, Value};
use fx_nn::Embedding;
use fx_tensor::rng::Rng;
use std::sync::Arc;

/// Deep Learning Recommendation Model, structured like the reference
/// implementation at inference time.
///
/// Inputs: `[dense, idx_0, idx_1, ..., idx_{F-1}]` where `dense` is
/// `[N, num_dense]` f32 and each `idx_f` is `[N]` i64 indices into
/// field `f`'s embedding table. Output: `[N, 1]` click probability.
#[derive(Debug)]
pub struct Dlrm {
    bottom: Arc<Mlp>,
    embeddings: Vec<(String, ArcModule)>,
    top: Arc<Mlp>,
    num_fields: usize,
    embedding_dim: usize,
}

impl Dlrm {
    /// Build with `num_dense` dense features, `fields` categorical
    /// vocabulary sizes, and `embedding_dim`-wide tables.
    pub fn new<R: Rng>(
        num_dense: usize,
        fields: &[usize],
        embedding_dim: usize,
        rng: &mut R,
    ) -> Dlrm {
        let bottom = Arc::new(Mlp::new(&[num_dense, 2 * embedding_dim, embedding_dim], rng));
        let embeddings: Vec<(String, ArcModule)> = fields
            .iter()
            .enumerate()
            .map(|(i, &vocab)| {
                (
                    format!("emb{i}"),
                    Arc::new(Embedding::new(vocab, embedding_dim, rng)) as ArcModule,
                )
            })
            .collect();
        // Interactions: (F+1)^2 pairwise dots, flattened, plus the dense
        // representation.
        let f1 = fields.len() + 1;
        let top_in = embedding_dim + f1 * f1;
        let top = Arc::new(Mlp::new(&[top_in, 2 * embedding_dim, 1], rng));
        Dlrm {
            bottom,
            embeddings,
            top,
            num_fields: fields.len(),
            embedding_dim,
        }
    }

    /// Number of categorical fields.
    pub fn num_fields(&self) -> usize {
        self.num_fields
    }
}

impl Module for Dlrm {
    fn forward(&self, inputs: &[Value]) -> Result<Value> {
        let dense = &inputs[0];
        // Bottom MLP over the dense features -> [N, E].
        let x = self.bottom.call(&[dense.clone()])?;
        // One embedding lookup per field -> [N, E] each.
        let mut features = vec![func::unsqueeze(&x, 1)?];
        for (i, (_, table)) in self.embeddings.iter().enumerate() {
            let e = table.call(&[inputs[1 + i].clone()])?;
            features.push(func::unsqueeze(&e, 1)?);
        }
        // [N, F+1, E]
        let feats = func::cat(&features, 1)?;
        // Pairwise dot interactions: feats @ featsᵀ -> [N, F+1, F+1].
        let featst = func::transpose(&feats, 1, 2)?;
        let inter = func::matmul(&feats, &featst)?;
        let inter = func::flatten(&inter, 1, -1)?;
        // Concatenate dense representation with interactions, top MLP,
        // sigmoid.
        let top_in = func::cat(&[x, inter], 1)?;
        let logits = self.top.call(&[top_in])?;
        func::sigmoid(&logits)
    }

    fn type_name(&self) -> &'static str {
        "Dlrm"
    }

    fn children(&self) -> Vec<(String, ArcModule)> {
        let mut c: Vec<(String, ArcModule)> = vec![("bottom".to_string(), self.bottom.clone())];
        c.extend(self.embeddings.iter().cloned());
        c.push(("top".to_string(), self.top.clone()));
        c
    }

    fn input_names(&self) -> Vec<String> {
        let mut names = vec!["dense".to_string()];
        names.extend((0..self.num_fields).map(|i| format!("idx{i}")));
        names
    }

    fn extra_repr(&self) -> String {
        format!(
            "fields={}, embedding_dim={}",
            self.num_fields, self.embedding_dim
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_core::symbolic_trace;
    use fx_tensor::Tensor;
    use fx_tensor::rng::StdRng;
    use fx_tensor::rng::SeedableRng;

    fn inputs<R: Rng>(n: usize, fields: &[usize], rng: &mut R) -> Vec<Value> {
        let mut v = vec![Value::Tensor(Tensor::rand_uniform(&[n, 4], 0.0, 1.0, rng))];
        for &vocab in fields {
            let idx: Vec<i64> = (0..n).map(|_| rng.gen_range(0..vocab as i64)).collect();
            v.push(Value::Tensor(Tensor::from_i64(idx, &[n])));
        }
        v
    }

    #[test]
    fn emits_probabilities() {
        let mut rng = StdRng::seed_from_u64(0);
        let fields = [100, 50, 20];
        let model = Dlrm::new(4, &fields, 8, &mut rng);
        let y = model.call(&inputs(5, &fields, &mut rng)).unwrap();
        let yt = y.as_tensor().unwrap();
        assert_eq!(yt.shape(), &[5, 1]);
        assert!(yt.as_f32().unwrap().iter().all(|p| (0.0..=1.0).contains(p)));
    }

    #[test]
    fn traces_to_flat_dag_with_embeddings() {
        let mut rng = StdRng::seed_from_u64(1);
        let fields = [30, 30];
        let model = Dlrm::new(4, &fields, 8, &mut rng);
        let traced = symbolic_trace(&model).unwrap();
        traced.graph().lint().unwrap();
        assert_eq!(
            traced.placeholder_names(),
            vec!["dense", "idx0", "idx1"]
        );
        // Embedding tables appear as call_module leaves; interactions as
        // matmul; and there is no control flow anywhere.
        let targets: Vec<&str> = traced.graph().nodes().map(|n| n.target()).collect();
        assert!(targets.contains(&"emb0"));
        assert!(targets.contains(&"emb1"));
        assert!(targets.contains(&"matmul"));
        // Trace == eager.
        let ins = inputs(3, &fields, &mut rng);
        let a = model.call(&ins).unwrap();
        let b = traced.run(&ins).unwrap();
        assert!(a
            .as_tensor()
            .unwrap()
            .allclose(b.as_tensor().unwrap(), 1e-5));
    }
}
