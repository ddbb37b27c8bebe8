//! Output checks. None of the references compared against here come
//! from the path under test.

/// Bit-for-bit equality: `0.0 != -0.0`, and a NaN equals only the same
/// NaN.
pub fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

pub fn max_abs(a: &[f32]) -> f32 {
    a.iter().fold(0.0, |m, v| m.max(v.abs()))
}

pub fn max_abs_diff(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).fold(0.0, |m, (x, y)| m.max((x - y).abs()))
}

/// How far a conv–BN-folded graph may sit from eager execution of the
/// unfolded model. Folding reassociates the arithmetic, so the outputs
/// agree to rounding, not to the bit. Randomly initialised ResNet-50
/// logits reach the hundreds, so the bound scales with the output:
/// `max|a − b| ≤ 1e-3 · max(1, max|eager|)`.
pub const FOLD_TOLERANCE: f32 = 1e-3;

pub fn within_fold_tolerance(out: &[f32], eager: &[f32]) -> bool {
    out.len() == eager.len()
        && out.iter().all(|v| v.is_finite())
        && max_abs_diff(out, eager) <= FOLD_TOLERANCE * max_abs(eager).max(1.0)
}

/// The int8 graph must keep this signal-to-quantization-noise ratio
/// against eager f32 execution.
pub const MIN_SQNR_DB: f64 = 20.0;

/// Signal-to-quantization-noise ratio in dB.
pub fn sqnr_db(reference: &[f32], quantized: &[f32]) -> f64 {
    if reference.len() != quantized.len() {
        return f64::NEG_INFINITY;
    }
    let signal: f64 = reference.iter().map(|v| f64::from(*v).powi(2)).sum();
    let noise: f64 = reference
        .iter()
        .zip(quantized)
        .map(|(a, b)| (f64::from(*a) - f64::from(*b)).powi(2))
        .sum();
    10.0 * (signal / noise.max(1e-30)).log10()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_equality_is_stricter_than_float_equality() {
        assert!(bits_equal(&[1.0, f32::NAN], &[1.0, f32::NAN]));
        assert!(!bits_equal(&[0.0], &[-0.0]));
        assert!(!bits_equal(&[1.0], &[1.0, 2.0]));
    }

    #[test]
    fn fold_tolerance_scales_with_the_output() {
        assert!(within_fold_tolerance(&[600.3], &[600.0]));
        assert!(!within_fold_tolerance(&[601.0], &[600.0]));
        assert!(within_fold_tolerance(&[0.0005], &[0.0]));
        assert!(!within_fold_tolerance(&[0.002], &[0.0]));
        assert!(!within_fold_tolerance(&[f32::NAN], &[0.0]));
    }

    #[test]
    fn sqnr_of_one_percent_noise_is_forty_db() {
        let r = [1.0f32; 100];
        let q = [1.01f32; 100];
        assert!((sqnr_db(&r, &q) - 40.0).abs() < 0.1);
        assert_eq!(sqnr_db(&r, &q[..50]), f64::NEG_INFINITY);
    }
}
