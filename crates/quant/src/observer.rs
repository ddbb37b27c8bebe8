//! Observer modules: the instrumentation inserted during the *prepare*
//! phase of post-training quantization (paper §6.2.1, stage 1).
//!
//! An observer is an identity [`Module`] that records statistics about
//! the `f32` tensors flowing through it. After calibration (stage 2),
//! [`observed_qparams`] extracts the `(scale, zero_point)` each observer
//! has chosen, which the *convert* phase embeds into quantized ops
//! (stage 3). Interior mutability (a `Mutex`) is used because `forward`
//! takes `&self` — the same reason PyTorch observers are stateful
//! buffers.

use fx_core::{Module, Result, Value};
use fx_tensor::quant::{choose_qparams, min_max};
use std::sync::Mutex;

/// Running min/max statistics shared by the observer implementations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Range {
    /// Smallest value seen.
    pub min: f32,
    /// Largest value seen.
    pub max: f32,
}

impl Range {
    fn empty() -> Range {
        Range {
            min: f32::MAX,
            max: f32::MIN,
        }
    }

    fn is_empty(&self) -> bool {
        self.min > self.max
    }

    /// `self` widened by every non-NaN value of `data` — the `f32::min` /
    /// `f32::max` fold, scanned in independent lanes ([`min_max`]).
    fn widened(self, data: &[f32]) -> Range {
        let (min, max) = min_max(data, (self.min, self.max));
        Range { min, max }
    }
}

/// The range of a tensor's values; `None` for any other value. An
/// observer is the identity on those (nothing to record), which is what
/// makes it traceable: on a proxy its function form is `x -> x`.
fn tensor_range(v: &Value) -> Result<Option<Range>> {
    let Value::Tensor(t) = v else {
        return Ok(None);
    };
    Ok(Some(Range::empty().widened(t.as_f32()?)))
}

/// Records the global min/max of everything it sees — PyTorch's
/// `MinMaxObserver`.
#[derive(Debug)]
pub struct MinMaxObserver {
    state: Mutex<Range>,
}

impl Default for MinMaxObserver {
    fn default() -> Self {
        MinMaxObserver {
            state: Mutex::new(Range::empty()),
        }
    }
}

impl MinMaxObserver {
    /// A fresh observer.
    pub fn new() -> MinMaxObserver {
        MinMaxObserver::default()
    }

    /// The calibrated quantization parameters, or `None` if no data was
    /// observed.
    pub fn qparams(&self) -> Option<(f32, i32)> {
        let r = *self.state.lock().expect("observer poisoned");
        if r.is_empty() {
            return None;
        }
        Some(choose_qparams(r.min, r.max))
    }
}

impl Module for MinMaxObserver {
    fn forward(&self, inputs: &[Value]) -> Result<Value> {
        let Some(r) = tensor_range(&inputs[0])? else {
            return Ok(inputs[0].clone());
        };
        let mut state = self.state.lock().expect("observer poisoned");
        state.min = state.min.min(r.min);
        state.max = state.max.max(r.max);
        drop(state);
        Ok(inputs[0].clone())
    }

    fn type_name(&self) -> &'static str {
        "MinMaxObserver"
    }

    fn is_builtin_leaf(&self) -> bool {
        true
    }
}

/// Exponential-moving-average min/max — PyTorch's
/// `MovingAverageMinMaxObserver`, the default for quantization-aware
/// training. Smooths out batch-to-batch outliers.
#[derive(Debug)]
pub struct MovingAverageObserver {
    state: Mutex<Range>,
    momentum: f32,
}

impl MovingAverageObserver {
    /// EMA observer with the given momentum (PyTorch default 0.01 means
    /// `new = old + 0.01 * (batch - old)`).
    pub fn new(momentum: f32) -> MovingAverageObserver {
        MovingAverageObserver {
            state: Mutex::new(Range::empty()),
            momentum,
        }
    }

    /// The calibrated quantization parameters.
    pub fn qparams(&self) -> Option<(f32, i32)> {
        let r = *self.state.lock().expect("observer poisoned");
        if r.is_empty() {
            return None;
        }
        Some(choose_qparams(r.min, r.max))
    }
}

impl Module for MovingAverageObserver {
    fn forward(&self, inputs: &[Value]) -> Result<Value> {
        let Some(r) = tensor_range(&inputs[0])? else {
            return Ok(inputs[0].clone());
        };
        let mut state = self.state.lock().expect("observer poisoned");
        if state.is_empty() {
            *state = r;
        } else {
            state.min += self.momentum * (r.min - state.min);
            state.max += self.momentum * (r.max - state.max);
        }
        drop(state);
        Ok(inputs[0].clone())
    }

    fn type_name(&self) -> &'static str {
        "MovingAverageObserver"
    }

    fn is_builtin_leaf(&self) -> bool {
        true
    }
}

/// Histogram observer: accumulates a fixed-range histogram and clips the
/// quantization range to central percentiles, discarding outliers —
/// a simplified `HistogramObserver`.
#[derive(Debug)]
pub struct HistogramObserver {
    state: Mutex<HistState>,
    bins: usize,
    /// Fraction of probability mass to keep (e.g. 0.999).
    keep: f32,
}

#[derive(Debug)]
struct HistState {
    range: Range,
    samples: Vec<f32>,
}

impl HistogramObserver {
    /// Histogram observer with `bins` buckets keeping the central `keep`
    /// mass (e.g. `HistogramObserver::new(256, 0.999)`).
    pub fn new(bins: usize, keep: f32) -> HistogramObserver {
        HistogramObserver {
            state: Mutex::new(HistState {
                range: Range::empty(),
                samples: Vec::new(),
            }),
            bins,
            keep,
        }
    }

    /// The calibrated quantization parameters from percentile clipping.
    pub fn qparams(&self) -> Option<(f32, i32)> {
        let state = self.state.lock().expect("observer poisoned");
        if state.range.is_empty() || state.samples.is_empty() {
            return None;
        }
        // Rebuild an exact histogram from retained samples.
        let (lo, hi) = (state.range.min, state.range.max);
        let width = (hi - lo).max(f32::EPSILON) / self.bins as f32;
        let mut counts = vec![0u64; self.bins];
        for &s in &state.samples {
            let b = (((s - lo) / width) as usize).min(self.bins - 1);
            counts[b] += 1;
        }
        let total: u64 = counts.iter().sum();
        let cut = ((1.0 - self.keep) / 2.0 * total as f32) as u64;
        let mut acc = 0u64;
        let mut lo_bin = 0;
        for (i, &c) in counts.iter().enumerate() {
            acc += c;
            if acc > cut {
                lo_bin = i;
                break;
            }
        }
        let mut acc = 0u64;
        let mut hi_bin = self.bins - 1;
        for (i, &c) in counts.iter().enumerate().rev() {
            acc += c;
            if acc > cut {
                hi_bin = i;
                break;
            }
        }
        let min = lo + lo_bin as f32 * width;
        let max = lo + (hi_bin + 1) as f32 * width;
        Some(choose_qparams(min, max))
    }
}

impl Module for HistogramObserver {
    fn forward(&self, inputs: &[Value]) -> Result<Value> {
        let Value::Tensor(t) = &inputs[0] else {
            return Ok(inputs[0].clone());
        };
        let data = t.as_f32()?;
        let mut state = self.state.lock().expect("observer poisoned");
        state.range = state.range.widened(data);
        // Reservoir-lite: keep up to 64k samples for the final histogram.
        const CAP: usize = 65_536;
        let room = CAP.saturating_sub(state.samples.len());
        state.samples.extend(data.iter().copied().take(room));
        drop(state);
        Ok(inputs[0].clone())
    }

    fn type_name(&self) -> &'static str {
        "HistogramObserver"
    }

    fn is_builtin_leaf(&self) -> bool {
        true
    }
}

/// Extract calibrated qparams from any known observer type (including
/// the QAT [`FakeQuantize`](crate::FakeQuantize) stage).
pub fn observed_qparams(m: &dyn Module) -> Option<(f32, i32)> {
    let any = m.as_any();
    if let Some(o) = any.downcast_ref::<MinMaxObserver>() {
        return o.qparams();
    }
    if let Some(o) = any.downcast_ref::<MovingAverageObserver>() {
        return o.qparams();
    }
    if let Some(o) = any.downcast_ref::<HistogramObserver>() {
        return o.qparams();
    }
    if let Some(o) = any.downcast_ref::<crate::qat::FakeQuantize>() {
        return o.qparams();
    }
    None
}

/// Whether a module is an observer/fake-quantize stage inserted by
/// `prepare` / `prepare_qat`.
pub fn is_observer(m: &dyn Module) -> bool {
    matches!(
        m.type_name(),
        "MinMaxObserver" | "MovingAverageObserver" | "HistogramObserver" | "FakeQuantize"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_core::ModuleExt;
    use fx_tensor::Tensor;

    fn feed(m: &dyn Module, data: Vec<f32>) {
        let n = data.len();
        let out = m
            .call(&[Value::Tensor(Tensor::from_vec(data, &[n]))])
            .unwrap();
        assert!(out.as_tensor().is_ok(), "observer must be identity");
    }

    #[test]
    fn minmax_tracks_global_extremes() {
        let o = MinMaxObserver::new();
        assert!(o.qparams().is_none());
        feed(&o, vec![-1.0, 0.5]);
        feed(&o, vec![0.0, 3.0]);
        let (scale, zp) = o.qparams().unwrap();
        // Range [-1, 3] over 255 steps.
        assert!((scale - 4.0 / 255.0).abs() < 1e-6);
        assert!((-128..=127).contains(&zp));
    }

    /// The lane-wise scan calibrates exactly what the one-scalar-at-a-time
    /// `f32::min`/`f32::max` fold did, on tensors holding NaN, ±0 and
    /// ±inf at every position mod 16 (and none at all, or only NaN).
    #[test]
    fn range_scan_calibrates_like_the_scalar_fold() {
        let fold = |data: &[f32]| {
            let mut r = Range::empty();
            for &x in data {
                r.min = r.min.min(x);
                r.max = r.max.max(x);
            }
            r
        };
        let specials = [f32::NAN, 0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, -3.5, 2.25];
        let mut cases: Vec<Vec<f32>> = vec![vec![], vec![f32::NAN; 21], vec![-0.0, 0.0], vec![0.0, -0.0]];
        for len in [1usize, 15, 16, 17, 40] {
            for (s, &special) in specials.iter().enumerate() {
                for at in 0..len {
                    let mut data: Vec<f32> = (0..len).map(|i| ((i * 7 + s) % 11) as f32 * 0.3 - 1.4).collect();
                    data[at] = special;
                    data[(at * 5 + 3) % len] = specials[(s + 1) % specials.len()];
                    cases.push(data);
                }
            }
        }
        for data in cases {
            let (old, new) = (fold(&data), Range::empty().widened(&data));
            assert_eq!(old.is_empty(), new.is_empty(), "{data:?}");
            if !old.is_empty() {
                assert_eq!(choose_qparams(old.min, old.max), choose_qparams(new.min, new.max), "{data:?}");
            }
            // The EMA observer keeps the range itself, not just qparams.
            assert!(old.min == new.min && old.max == new.max, "{data:?}: {old:?} vs {new:?}");
        }
    }

    #[test]
    fn moving_average_smooths() {
        let o = MovingAverageObserver::new(0.5);
        feed(&o, vec![0.0, 4.0]);
        feed(&o, vec![0.0, 0.0]); // max EMA: 4 + 0.5*(0-4) = 2
        let (scale, _) = o.qparams().unwrap();
        assert!((scale - 2.0 / 255.0).abs() < 1e-6);
    }

    #[test]
    fn histogram_clips_outliers() {
        let o = HistogramObserver::new(128, 0.95);
        // 1000 values in [0,1] plus one extreme outlier at 100.
        let mut data: Vec<f32> = (0..1000).map(|i| i as f32 / 1000.0).collect();
        data.push(100.0);
        feed(&o, data);
        let (scale, _) = o.qparams().unwrap();
        // Without clipping scale would be ~100/255 = 0.39; with clipping
        // it must be far smaller.
        assert!(scale < 0.05, "outlier not clipped: scale={scale}");
    }

    #[test]
    fn qparams_extraction_by_downcast() {
        let o = MinMaxObserver::new();
        feed(&o, vec![-1.0, 1.0]);
        assert!(observed_qparams(&o).is_some());
        assert!(is_observer(&o));
        let m = MovingAverageObserver::new(0.1);
        assert!(is_observer(&m));
        assert!(observed_qparams(&m).is_none());
    }

    /// Regression: observers failed on a proxy (`expected a tensor, got
    /// proxy`) — the only library leaves that could not be traced, so a
    /// prepared graph could not be analysed through its leaves.
    #[test]
    fn observers_trace_to_the_identity_and_record_nothing() {
        let observers: [Box<dyn Module>; 3] = [
            Box::new(MinMaxObserver::new()),
            Box::new(MovingAverageObserver::new(0.1)),
            Box::new(HistogramObserver::new(128, 0.95)),
        ];
        for o in observers {
            let traced = fx_core::symbolic_trace(o.as_ref()).unwrap();
            let ops: Vec<_> = traced.graph().nodes().map(|n| n.op()).collect();
            assert_eq!(
                ops,
                [fx_core::Opcode::Placeholder, fx_core::Opcode::Output],
                "{}",
                o.type_name()
            );
            assert!(observed_qparams(o.as_ref()).is_none(), "{} recorded a proxy", o.type_name());
        }
    }
}
