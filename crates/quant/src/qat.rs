//! Quantization-aware-training instrumentation (paper §6.2.1: "The
//! process for Quantization-Aware Training is analogous to phases (1)
//! and (2) ... but with 'fake quantize' observers that snap floating
//! point values to the corresponding values under quantized numerics").
//!
//! A [`FakeQuantize`] module both observes (EMA min/max) and *simulates*
//! int8 numerics in the f32 domain — values are snapped to the nearest
//! representable quantized value on the way through, so downstream
//! computation (and, in a training setting, gradients) see quantization
//! error during calibration.

use crate::observer::MovingAverageObserver;
use crate::qconfig::QConfig;
use fx_core::{GraphModule, Module, Result, Value};
use fx_tensor::quant::{dequantize, quantize_per_tensor};

/// Observe-and-snap module: forward records min/max like an observer,
/// then rounds the tensor through int8 numerics using the statistics
/// collected *so far*.
#[derive(Debug)]
pub struct FakeQuantize {
    observer: MovingAverageObserver,
}

impl Default for FakeQuantize {
    fn default() -> Self {
        FakeQuantize {
            observer: MovingAverageObserver::new(0.01),
        }
    }
}

impl FakeQuantize {
    /// A fresh fake-quantize stage with PyTorch's default EMA momentum.
    pub fn new() -> FakeQuantize {
        FakeQuantize::default()
    }

    /// The quantization parameters learned so far.
    pub fn qparams(&self) -> Option<(f32, i32)> {
        self.observer.qparams()
    }
}

impl Module for FakeQuantize {
    fn forward(&self, inputs: &[Value]) -> Result<Value> {
        // Observe first (updates the EMA)...
        let observed = self.observer.forward(inputs)?;
        // ...then snap through int8 numerics if calibrated.
        match self.observer.qparams() {
            Some((scale, zp)) => {
                let t = observed.as_tensor()?;
                let snapped = dequantize(&quantize_per_tensor(t, scale, zp)?)?;
                Ok(Value::Tensor(snapped))
            }
            None => Ok(observed),
        }
    }

    fn type_name(&self) -> &'static str {
        "FakeQuantize"
    }

    fn is_builtin_leaf(&self) -> bool {
        true
    }
}

/// QAT variant of [`prepare`](crate::prepare): instrument with
/// [`FakeQuantize`] stages instead of passive observers. The returned
/// module *changes numerics* — it simulates int8 end to end — which is
/// the point.
pub fn prepare_qat(gm: &GraphModule) -> Result<GraphModule> {
    // Reuse prepare's insertion logic by post-replacing the observers:
    // positions are identical, only the module kind differs.
    let mut observed = crate::prepare::prepare(gm, &QConfig::default())?;
    let names: Vec<String> = observed
        .modules()
        .iter()
        .filter(|(_, m)| crate::observer::is_observer(m.as_ref()))
        .map(|(name, _)| name.clone())
        .collect();
    for name in names {
        observed.set_module(&name, std::sync::Arc::new(FakeQuantize::new()));
    }
    fx_core::validate::after_pass(&observed, "quant::prepare_qat")?;
    Ok(observed)
}

/// Convert a QAT-prepared module after calibration: identical to PTQ
/// conversion, reading qparams out of the [`FakeQuantize`] stages.
pub fn convert_qat(observed: &GraphModule) -> Result<GraphModule> {
    crate::convert::convert(observed)
}

#[cfg(test)]
mod tests {
    use super::*;
    // `.call()` on modules comes from the extension trait; the tests use
    // it, the library code above does not.
    use fx_core::{symbolic_trace, ModuleExt};
    use fx_models::Mlp;
    use fx_tensor::Tensor;
    use fx_tensor::rng::StdRng;
    use fx_tensor::rng::SeedableRng;

    #[test]
    fn fake_quantize_snaps_values() {
        let fq = FakeQuantize::new();
        let x = Value::Tensor(Tensor::from_vec(vec![-1.0, 0.333_333, 1.0], &[3]));
        // First pass calibrates; second pass snaps with those stats.
        let _ = fq.call(std::slice::from_ref(&x)).unwrap();
        let y = fq.call(std::slice::from_ref(&x)).unwrap();
        let (scale, _) = fq.qparams().unwrap();
        let yd = y.as_tensor().unwrap().as_f32().unwrap();
        // Snapped values are multiples of the scale (relative to zero).
        for &v in yd {
            let steps = v / scale;
            assert!(
                (steps - steps.round()).abs() < 1e-3,
                "{v} is not on the int8 grid (scale {scale})"
            );
        }
        // And close to the originals.
        assert!(y
            .as_tensor()
            .unwrap()
            .allclose(x.as_tensor().unwrap(), scale));
    }

    #[test]
    fn qat_pipeline_roundtrips() {
        let mut rng = StdRng::seed_from_u64(0);
        let model = Mlp::new(&[16, 32, 4], &mut rng);
        let gm = symbolic_trace(&model).unwrap();
        let qat = prepare_qat(&gm).unwrap();
        let fq_count = qat
            .modules()
            .values()
            .filter(|m| m.type_name() == "FakeQuantize")
            .count();
        assert_eq!(fq_count, 4, "placeholder + fc0 + relu0 + fc1");

        // "Train" (calibrate) for a few batches; outputs stay close to
        // the float model but exhibit quantization snapping.
        for i in 0..6 {
            let x = Value::Tensor(Tensor::rand_uniform(&[8, 16], -1.0, 1.0, &mut rng));
            let _ = qat.run(std::slice::from_ref(&x)).unwrap();
            let _ = i;
        }
        let x = Value::Tensor(Tensor::rand_uniform(&[4, 16], -1.0, 1.0, &mut rng));
        let y_float = gm.run(std::slice::from_ref(&x)).unwrap();
        let y_qat = qat.run(std::slice::from_ref(&x)).unwrap();
        let diff = y_float
            .as_tensor()
            .unwrap()
            .max_abs_diff(y_qat.as_tensor().unwrap())
            .unwrap();
        assert!(diff > 0.0, "fake quant must actually perturb numerics");
        // Snapping error compounds per stage and the EMA range clips
        // out-of-range activations (real QAT behaviour), so the bound is
        // loose — but the perturbation must stay the same order as the
        // signal's quantization, not wreck the output.
        assert!(diff < 1.0, "quantization-sized error only: {diff}");

        // Convert to a real int8 model and check it runs.
        let converted = convert_qat(&qat).unwrap();
        assert!(converted
            .modules()
            .values()
            .any(|m| m.type_name().starts_with("QuantizedLinear")));
        assert!(converted.run(std::slice::from_ref(&x)).is_ok());
    }
}
