//! Batch-polymorphism check — the admission gate of the serving layer.
//!
//! A dynamic batcher (`fx_serve`) stacks independent requests along
//! dim 0, runs the graph once, and splits the output back by rows. That
//! is only sound when the graph treats the leading extent of every
//! placeholder as free: a graph that hard-codes the batch size (a
//! `reshape` to a fixed extent, a `flatten` across dim 0, a transpose
//! that moves the batch axis into the payload) would silently mix rows
//! of unrelated requests.
//!
//! [`batch_polymorphic`] decides this *statically*, with one symbolic
//! shape walk ([`infer_sym_shapes`]) in which every placeholder's
//! leading extent is the same free variable `N`: the property *is* "the
//! output's leading dim is exactly `N` and every trailing dim is a
//! constant". No tensor data is touched, so the check is cheap enough
//! to run at server-construction time.

use crate::sym_shape::{display_sym_shape, infer_sym_shapes, SymDim, SymShape};
use fx_core::{Error, GraphModule, Result};

/// Check that `gm` is polymorphic in the batch (leading) dimension, and
/// return the canonical per-placeholder **trailing** dims (everything
/// under dim 0) a server should validate requests against.
///
/// `sample_shapes` gives one full shape per placeholder (leading dim =
/// any representative batch extent, e.g. `[1, 3, 32, 32]`). Every
/// placeholder is assumed to carry the batch on dim 0, so each is
/// analysed as `[N, trailing…]`.
///
/// Errors with a descriptive [`Error::Graph`] when:
/// * a sample shape is rank 0 (no batch dimension to vary),
/// * shape inference itself fails — a missing rule or an inconsistent
///   shape, reported as itself with its node, op and reason — or
/// * the graph is "not batch-polymorphic": the output's leading dim is
///   not exactly `N`, or a trailing dim depends on `N`.
pub fn batch_polymorphic(
    gm: &GraphModule,
    sample_shapes: &[Vec<usize>],
) -> Result<Vec<Vec<usize>>> {
    let n_placeholders = gm.graph().placeholders().len();
    if sample_shapes.len() != n_placeholders {
        return Err(Error::Graph(format!(
            "batch_polymorphic: {n_placeholders} placeholder(s) but {} sample shape(s)",
            sample_shapes.len()
        )));
    }
    let trailing: Vec<Vec<usize>> = sample_shapes
        .iter()
        .enumerate()
        .map(|(i, s)| {
            if s.is_empty() {
                Err(Error::Graph(format!(
                    "batch_polymorphic: sample shape for placeholder {i} is 0-d; \
                     batching needs a leading batch dimension"
                )))
            } else {
                Ok(s[1..].to_vec())
            }
        })
        .collect::<Result<_>>()?;

    let batch = SymDim::var("N");
    let inputs: Vec<SymShape> = trailing
        .iter()
        .map(|t| {
            std::iter::once(batch.clone())
                .chain(t.iter().map(|&d| SymDim::Const(d)))
                .collect()
        })
        .collect();
    let shapes = infer_sym_shapes(gm, &inputs)?;
    let out_shape = gm
        .graph()
        .output_node()
        .and_then(|out| shapes.get(out.name()))
        .ok_or_else(|| {
            Error::Graph(
                "not batch-polymorphic: the output is not a tensor of inferable shape".to_string(),
            )
        })?;
    match out_shape.split_first() {
        Some((lead, rest)) if *lead == batch && rest.iter().all(|d| d.as_const().is_some()) => {
            Ok(trailing)
        }
        _ => Err(Error::Graph(format!(
            "not batch-polymorphic: with every input batched as [N, …] the output has shape \
             {}; its leading dim must be exactly N and its trailing dims constant for \
             per-request splitting to be row-aligned",
            display_sym_shape(out_shape)
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_core::{func, symbolic_trace, symbolic_trace_fn};
    use fx_models::Mlp;
    use fx_tensor::rng::{SeedableRng, StdRng};

    #[test]
    fn mlp_is_batch_polymorphic() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = Mlp::new(&[8, 16, 4], &mut rng);
        let gm = symbolic_trace(&m).unwrap();
        let trailing = batch_polymorphic(&gm, &[vec![1, 8]]).unwrap();
        assert_eq!(trailing, vec![vec![8]]);
    }

    #[test]
    fn elementwise_function_graph_passes() {
        let gm = symbolic_trace_fn(2, |xs| {
            let s = func::add(&xs[0], &xs[1])?;
            func::relu(&s)
        })
        .unwrap();
        let trailing = batch_polymorphic(&gm, &[vec![4, 3], vec![4, 3]]).unwrap();
        assert_eq!(trailing, vec![vec![3], vec![3]]);
    }

    #[test]
    fn quantized_conv_graph_is_admissible() {
        // The serve registry admits models through this check; a
        // PTQ-converted conv net (QuantizedConv2d/QuantizedLinear
        // modules plus quantize/dequantize boundary nodes) must pass so
        // int8 models can be served batched.
        use fx_core::Value;
        use fx_tensor::Tensor;
        let mut rng = StdRng::seed_from_u64(11);
        let model = fx_models::resnet_tiny(&mut rng);
        let mut gm = symbolic_trace(&model).unwrap();
        crate::fuse_conv_bn(&mut gm).unwrap();
        let cal: Vec<Vec<Value>> = (0..2)
            .map(|_| {
                vec![Value::Tensor(Tensor::rand_uniform(
                    &[2, 3, 32, 32],
                    -1.0,
                    1.0,
                    &mut rng,
                ))]
            })
            .collect();
        let qgm = fx_quant::quantize_ptq(&gm, &cal, &fx_quant::QConfig::default()).unwrap();
        let trailing = batch_polymorphic(&qgm, &[vec![1, 3, 32, 32]]).unwrap();
        assert_eq!(trailing, vec![vec![3, 32, 32]]);
        // So must the graph half-way there: `prepare`d, its observer
        // leaves analysed like any other leaf (each traces to `x -> x`).
        let mut observed = fx_quant::prepare(&gm, &fx_quant::QConfig::default()).unwrap();
        assert!(observed
            .modules()
            .values()
            .any(|m| fx_quant::is_observer(m.as_ref())));
        batch_polymorphic(&observed, &[vec![1, 3, 32, 32]]).unwrap();
        let shapes = crate::infer_shapes(&mut observed, &[vec![2, 3, 32, 32]]).unwrap();
        assert_eq!(shapes["output"], vec![2, 10]);
    }

    #[test]
    fn flatten_across_batch_is_rejected() {
        // flatten(0, -1) folds the batch into the payload: output [b*k]
        // is never leading-dim == b (k > 1), so splitting by request
        // rows would hand each request a slice of someone else's data.
        let gm = symbolic_trace_fn(1, |xs| func::flatten(&xs[0], 0, -1)).unwrap();
        let err = batch_polymorphic(&gm, &[vec![1, 4]]).unwrap_err();
        assert!(err.to_string().contains("not batch-polymorphic"), "{err}");
    }

    #[test]
    fn hardcoded_reshape_is_rejected() {
        // reshape to a fixed [2, 6] only works at one batch extent.
        let gm = symbolic_trace_fn(1, |xs| func::reshape(&xs[0], &[2, 6])).unwrap();
        let err = batch_polymorphic(&gm, &[vec![2, 6]]).unwrap_err();
        assert!(err.to_string().contains("not batch-polymorphic"), "{err}");
    }

    #[test]
    fn scalar_output_is_rejected() {
        // A global reduction has no batch dim to split on.
        let gm = symbolic_trace_fn(1, |xs| func::sum(&xs[0])).unwrap();
        assert!(batch_polymorphic(&gm, &[vec![1, 4]]).is_err());
    }

    #[test]
    fn wrong_arity_and_scalar_samples_are_rejected() {
        let gm = symbolic_trace_fn(1, |xs| func::relu(&xs[0])).unwrap();
        assert!(batch_polymorphic(&gm, &[]).is_err());
        assert!(batch_polymorphic(&gm, &[vec![]]).is_err());
    }
}
