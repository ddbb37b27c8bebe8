//! # fx-bench — harnesses reproducing the paper's tables and figures
//!
//! One binary per experiment (run with `--release`):
//!
//! | binary | paper result |
//! |---|---|
//! | `repro-ir` | §6.1 / Figure 5 — IR complexity counts + excerpts |
//! | `repro-quant` | §6.2.1 / Figure 6 + Appendix B — DeepRecommender PTQ |
//! | `repro-fusion` | §6.2.2 / Figure 7 + Appendix C — conv–BN fusion |
//! | `repro-trt` | §6.4 / Figure 8 + Appendix D — backend lowering |
//! | `repro-analysis` | §6.3 — FLOPs/memory/runtime estimation, shapes, DOT |
//!
//! Measured-CPU numbers and roofline-simulated numbers are always
//! labelled separately; see `EXPERIMENTS.md` at the workspace root for
//! the paper-vs-measured record. Performance claims are measured by the
//! benchmark of record in `benchmark/`.

#![warn(missing_docs)]

use std::time::Instant;

/// Mean/stdev over timing trials.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stats {
    /// Mean seconds per trial.
    pub mean: f64,
    /// Standard deviation of seconds per trial.
    pub stdev: f64,
}

impl Stats {
    /// Compute from raw per-trial seconds.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn from_samples(samples: &[f64]) -> Stats {
        assert!(!samples.is_empty(), "need at least one sample");
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n;
        Stats {
            mean,
            stdev: var.sqrt(),
        }
    }
}

/// Run `f` `warmup + trials` times, timing the last `trials`.
pub fn time_trials(trials: usize, warmup: usize, mut f: impl FnMut()) -> Stats {
    for _ in 0..warmup {
        f();
    }
    let samples: Vec<f64> = (0..trials.max(1))
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    Stats::from_samples(&samples)
}

/// Fixed-width table printer for the harness outputs.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut out = String::new();
        for (i, c) in cells.iter().enumerate() {
            out.push_str(&format!("{:<width$}  ", c, width = widths[i]));
        }
        println!("{}", out.trim_end());
    };
    line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    println!(
        "{}",
        widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("  ")
    );
    for row in rows {
        line(row);
    }
}

/// `--flag value` style argument lookup with a default.
pub fn arg_usize(name: &str, default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_basics() {
        let s = Stats::from_samples(&[1.0, 1.0, 1.0]);
        assert_eq!(s.mean, 1.0);
        assert_eq!(s.stdev, 0.0);
        let s = Stats::from_samples(&[1.0, 3.0]);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.stdev, 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn stats_rejects_empty() {
        let _ = Stats::from_samples(&[]);
    }

    #[test]
    fn timing_returns_positive_mean() {
        let s = time_trials(3, 1, || {
            std::hint::black_box((0..1000).sum::<usize>());
        });
        assert!(s.mean >= 0.0);
    }
}
