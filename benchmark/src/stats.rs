//! Order statistics and the sample-count rule.

/// Nearest-rank percentile (`percent` in 0..=100) of an ascending slice;
/// 0 for an empty one.
pub fn percentile(sorted: &[f64], percent: usize) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    // Whole percents keep the rank exact: ceil(n * percent / 100).
    let rank = (sorted.len() * percent.min(100)).div_ceil(100);
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Half-widths, in percent, of the bands `op_p50_s` and `op_p90_s`
/// average: the middle half of the latencies (the interquartile mean),
/// and the 85th to the 95th percentile.
pub const P50_BAND: usize = 25;
pub const P90_BAND: usize = 5;

/// The mean of the values between the `percent − band`th and `percent +
/// band`th percentiles of an ascending slice (always at least the
/// nearest-rank percentile itself).
///
/// Serve latencies cluster by batch size: a request waits for its own
/// rows and for the rows it is batched with or queued behind, and with
/// the 1/1/2/4-row mix exactly half of those pairs carry three rows or
/// fewer. The plain median sits in the gap between a 60 ms and a 95 ms
/// cluster and lands on either side as the seed or the weather decides;
/// the band mean moves with the share of ops on each side instead. On a
/// single cluster the two agree.
pub fn band_percentile(sorted: &[f64], percent: usize, band: usize) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    let rank = (n * percent.min(100)).div_ceil(100).clamp(1, n);
    let lo = (n * percent.saturating_sub(band) / 100).min(rank - 1);
    let hi = (n * (percent + band).min(100)).div_ceil(100).clamp(rank, n);
    mean(&sorted[lo..hi])
}

/// A percentile is supported by a sample when at least ten samples lie
/// beyond it: p90 needs 100 samples, p99 needs 1000.
pub fn supported(samples: usize, percent: usize) -> bool {
    // Whole percents keep the rule exact: 1.0 - 0.9 is not 0.1 in f64.
    samples * (100 - percent.min(100)) >= 1000
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median with the mean of the two middle values for even counts
/// (what `statistics.median` gives), 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values.to_vec());
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 90), 90.0);
        assert_eq!(percentile(&v, 99), 99.0);
        assert_eq!(percentile(&v, 100), 100.0);
        assert_eq!(percentile(&v[..1], 90), 1.0);
        assert_eq!(percentile(&[], 50), 0.0);
        let odd = [1.0, 2.0, 3.0];
        assert_eq!(percentile(&odd, 50), 2.0);
    }

    #[test]
    fn band_percentile_does_not_jump_between_clusters() {
        // One cluster: the band mean is the percentile.
        let flat = [7.0; 40];
        assert_eq!(band_percentile(&flat, 50, P50_BAND), 7.0);
        assert_eq!(band_percentile(&flat, 90, P90_BAND), 7.0);
        assert_eq!(band_percentile(&[3.0], 90, P90_BAND), 3.0);
        assert_eq!(band_percentile(&[], 50, P50_BAND), 0.0);
        // Two clusters split 44/56 and 56/44 (one pair of sixteen moved):
        // the plain median jumps from 95 to 60, the interquartile mean
        // moves by a quarter of the gap.
        let split = |low: usize| -> Vec<f64> {
            let mut v = vec![60.0; low];
            v.resize(100, 95.0);
            v
        };
        assert_eq!(percentile(&split(44), 50), 95.0);
        assert_eq!(percentile(&split(56), 50), 60.0);
        let a = band_percentile(&split(44), 50, P50_BAND);
        let b = band_percentile(&split(56), 50, P50_BAND);
        assert!((a - b).abs() < 9.0, "{a} vs {b}");
        assert!(a > 60.0 && a < 95.0 && b > 60.0 && b < 95.0);
        // The bands are ranks 26..=75 and 86..=95 of 100.
        let ramp: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(band_percentile(&ramp, 50, P50_BAND), 50.5);
        assert_eq!(band_percentile(&ramp, 90, P90_BAND), 90.5);
    }

    #[test]
    fn sample_count_rule_wants_ten_beyond() {
        assert!(supported(20, 50));
        assert!(!supported(19, 50));
        assert!(supported(100, 90));
        assert!(!supported(99, 90));
        assert!(supported(1000, 99));
        assert!(!supported(999, 99));
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }
}
