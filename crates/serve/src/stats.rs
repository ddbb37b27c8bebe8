//! Serving observability: bounded-memory latency histogram, the
//! per-model [`ServeStats`] snapshot, and the multi-tenant
//! [`RegistrySnapshot`] aggregation.

use std::fmt;
use std::time::Duration;

/// Geometric latency histogram: bucket `i` covers
/// `BASE * RATIO^i .. BASE * RATIO^(i+1)` with `RATIO = 2^(1/8)`
/// (~9% resolution), `BASE = 1µs`. 256 geometric buckets span 1µs to
/// ~4×10⁹ s, plus one **saturating top bucket**: a latency beyond the
/// last geometric bucket is counted there and reported via the exact
/// observed maximum instead of a (meaningless) geometric midpoint — so
/// pathological outliers are never dropped *or* misreported. Memory
/// stays fixed no matter how many requests are recorded — the usual
/// HDR-style trade for a server that should run forever.
#[derive(Debug, Clone)]
pub(crate) struct LatencyHistogram {
    /// `BUCKETS` geometric buckets followed by the saturating overflow
    /// bucket at index `BUCKETS`.
    buckets: Vec<u64>,
    count: u64,
    sum_s: f64,
    max_s: f64,
}

const BUCKETS: usize = 256;
const BASE_S: f64 = 1e-6;
const LOG2_PER_BUCKET: f64 = 1.0 / 8.0;

impl LatencyHistogram {
    pub(crate) fn new() -> LatencyHistogram {
        LatencyHistogram {
            buckets: vec![0; BUCKETS + 1],
            count: 0,
            sum_s: 0.0,
            max_s: 0.0,
        }
    }

    /// Bucket index for a latency; `BUCKETS` is the overflow bucket.
    fn bucket_of(seconds: f64) -> usize {
        if seconds <= BASE_S {
            return 0;
        }
        let idx = ((seconds / BASE_S).log2() / LOG2_PER_BUCKET).floor();
        (idx as usize).min(BUCKETS)
    }

    /// Lower bound of bucket `i`, in seconds.
    fn bucket_low(i: usize) -> f64 {
        BASE_S * (2.0f64).powf(i as f64 * LOG2_PER_BUCKET)
    }

    pub(crate) fn record(&mut self, latency: Duration) {
        let s = latency.as_secs_f64();
        self.buckets[Self::bucket_of(s)] += 1;
        self.count += 1;
        self.sum_s += s;
        if s > self.max_s {
            self.max_s = s;
        }
    }

    pub(crate) fn count(&self) -> u64 {
        self.count
    }

    /// Approximate quantile (`q` in 0..=1): the geometric midpoint of
    /// the bucket containing the q-th sample; samples in the saturating
    /// top bucket report the exact observed maximum. 0 when nothing
    /// recorded.
    pub(crate) fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                if i >= BUCKETS {
                    return self.max_s;
                }
                return (Self::bucket_low(i) * Self::bucket_low(i + 1)).sqrt();
            }
        }
        self.max_s
    }

    pub(crate) fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_s / self.count as f64
        }
    }

    /// Fold `other`'s samples into `self` (bucket-wise), for aggregate
    /// registry snapshots.
    pub(crate) fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_s += other.sum_s;
        if other.max_s > self.max_s {
            self.max_s = other.max_s;
        }
    }

    /// Forget every sample (used by the adaptive batcher's windowed
    /// copy between control-loop rounds).
    pub(crate) fn clear(&mut self) {
        self.buckets.iter_mut().for_each(|b| *b = 0);
        self.count = 0;
        self.sum_s = 0.0;
        self.max_s = 0.0;
    }
}

/// Mutable counters behind one model entry's stats mutex.
#[derive(Debug, Clone)]
pub(crate) struct StatsState {
    pub(crate) requests_ok: u64,
    pub(crate) requests_err: u64,
    pub(crate) rejected_queue_full: u64,
    pub(crate) batches: u64,
    pub(crate) batch_rows_hist: Vec<u64>,
    pub(crate) total_rows: u64,
    /// Summed wall time of this model's backend runs, seconds — the
    /// worker time the model actually consumed (the quantity the
    /// weighted-fair scheduler allocates).
    pub(crate) exec_seconds: f64,
    pub(crate) latency: LatencyHistogram,
    /// Sliding window for the adaptive-batching control loop: cleared
    /// every time the batcher recomputes the model's batch delay.
    pub(crate) recent: LatencyHistogram,
    pub(crate) queue_high_water: usize,
    pub(crate) plan_cache_hits: u64,
    pub(crate) plan_compiles: u64,
    pub(crate) swaps: u64,
    /// Effective (possibly adapted) batch delay at snapshot time, µs.
    pub(crate) batch_delay_us: u64,
    /// Buffer-pool counters at entry creation; snapshots report deltas.
    /// The pool is process-global, so per-model deltas overlap when
    /// models serve concurrently — they bound, rather than partition,
    /// each model's pool traffic. The registry-level aggregate uses the
    /// registry's own base and is exact.
    pub(crate) pool_base: fx_tensor::pool::PoolStats,
}

impl StatsState {
    pub(crate) fn new(max_batch_size: usize) -> StatsState {
        StatsState {
            requests_ok: 0,
            requests_err: 0,
            rejected_queue_full: 0,
            batches: 0,
            // Index = rows in an executed batch; oversized batches (a
            // single request larger than max_batch_size) clamp to the
            // last slot.
            batch_rows_hist: vec![0; max_batch_size + 1],
            total_rows: 0,
            exec_seconds: 0.0,
            latency: LatencyHistogram::new(),
            recent: LatencyHistogram::new(),
            queue_high_water: 0,
            plan_cache_hits: 0,
            plan_compiles: 0,
            swaps: 0,
            batch_delay_us: 0,
            pool_base: fx_tensor::pool::stats(),
        }
    }

    pub(crate) fn record_batch(&mut self, rows: usize, seconds: f64) {
        self.batches += 1;
        self.total_rows += rows as u64;
        self.exec_seconds += seconds;
        let slot = rows.min(self.batch_rows_hist.len() - 1);
        self.batch_rows_hist[slot] += 1;
    }

    pub(crate) fn record_latency(&mut self, latency: Duration) {
        self.latency.record(latency);
        self.recent.record(latency);
    }

    /// Fold `other` into `self` for the registry-wide aggregate.
    /// Histograms add bucket-wise; high-water marks take the max; the
    /// pool base is left to the caller (the registry substitutes its
    /// own so aggregate pool deltas are exact, not double-counted).
    pub(crate) fn merge(&mut self, other: &StatsState) {
        self.requests_ok += other.requests_ok;
        self.requests_err += other.requests_err;
        self.rejected_queue_full += other.rejected_queue_full;
        self.batches += other.batches;
        self.total_rows += other.total_rows;
        self.exec_seconds += other.exec_seconds;
        if self.batch_rows_hist.len() < other.batch_rows_hist.len() {
            self.batch_rows_hist.resize(other.batch_rows_hist.len(), 0);
        }
        for (i, &n) in other.batch_rows_hist.iter().enumerate() {
            // An oversized clamp slot in a shorter histogram still
            // lands inside `self`'s (resized) histogram.
            let slot = i.min(self.batch_rows_hist.len() - 1);
            self.batch_rows_hist[slot] += n;
        }
        self.latency.merge(&other.latency);
        self.queue_high_water = self.queue_high_water.max(other.queue_high_water);
        self.plan_cache_hits += other.plan_cache_hits;
        self.plan_compiles += other.plan_compiles;
        self.swaps += other.swaps;
    }

    pub(crate) fn snapshot(&self) -> ServeStats {
        let pool = fx_tensor::pool::stats().since(&self.pool_base);
        ServeStats {
            requests_ok: self.requests_ok,
            requests_err: self.requests_err,
            rejected_queue_full: self.rejected_queue_full,
            batches: self.batches,
            batch_rows_histogram: self.batch_rows_hist.clone(),
            mean_batch_rows: if self.batches == 0 {
                0.0
            } else {
                self.total_rows as f64 / self.batches as f64
            },
            exec_seconds: self.exec_seconds,
            p50_latency_s: self.latency.quantile(0.50),
            p95_latency_s: self.latency.quantile(0.95),
            p99_latency_s: self.latency.quantile(0.99),
            mean_latency_s: self.latency.mean(),
            queue_high_water: self.queue_high_water,
            plan_cache_hits: self.plan_cache_hits,
            plan_compiles: self.plan_compiles,
            swaps: self.swaps,
            batch_delay_s: self.batch_delay_us as f64 * 1e-6,
            pool_fresh_allocs: pool.fresh_allocs,
            pool_hits: pool.pool_hits,
            pool_hit_rate: pool.hit_rate(),
            pool_peak_bytes: pool.in_pool_peak_bytes,
        }
    }
}

/// A point-in-time snapshot of everything one served model has
/// observed, as returned by `Handle::stats` and `Registry::unregister`,
/// and per model inside [`RegistrySnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServeStats {
    /// Requests answered successfully.
    pub requests_ok: u64,
    /// Requests answered with an error (shape mismatch, exec failure).
    pub requests_err: u64,
    /// Requests refused at submission with `Error::QueueFull`.
    pub rejected_queue_full: u64,
    /// Batched executor runs.
    pub batches: u64,
    /// Executed-batch size distribution: `histogram[r]` counts batches
    /// of `r` stacked rows (the last slot also absorbs oversized
    /// single-request batches).
    pub batch_rows_histogram: Vec<u64>,
    /// Mean stacked rows per executed batch — the coalescing factor.
    pub mean_batch_rows: f64,
    /// Summed wall time of the model's backend runs, seconds — the
    /// worker time it actually consumed. Under the weighted-fair
    /// scheduler, concurrently loaded models' `exec_seconds` grow in
    /// proportion to their weights.
    pub exec_seconds: f64,
    /// Median end-to-end request latency (enqueue → response), seconds.
    pub p50_latency_s: f64,
    /// 95th-percentile end-to-end request latency, seconds.
    pub p95_latency_s: f64,
    /// 99th-percentile end-to-end request latency, seconds.
    pub p99_latency_s: f64,
    /// Mean end-to-end request latency, seconds.
    pub mean_latency_s: f64,
    /// Deepest the submission queue ever got.
    pub queue_high_water: usize,
    /// Executor plan-cache hits across all batched runs (every run
    /// after the first should hit — the plan is compiled once and
    /// shared through the `Arc<GraphModule>`).
    pub plan_cache_hits: u64,
    /// Cumulative plan compilations (1 for an unmutated module).
    pub plan_compiles: u64,
    /// Completed hot swaps of this model (each bumped the version).
    pub swaps: u64,
    /// The effective batch delay at snapshot time, seconds. Equals the
    /// configured `max_batch_delay` unless adaptive batching (a p99
    /// budget) has tuned it down/up.
    pub batch_delay_s: f64,
    /// Heap allocations the kernel buffer pool could not serve while
    /// this entry ran (planned runs trend toward zero in steady state).
    pub pool_fresh_allocs: u64,
    /// Kernel allocations served by recycling a pooled buffer.
    pub pool_hits: u64,
    /// `pool_hits / (pool_hits + pool_fresh_allocs)`; 0 when idle.
    pub pool_hit_rate: f64,
    /// High-water mark of bytes parked in the buffer pool.
    pub pool_peak_bytes: u64,
}

impl fmt::Display for ServeStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "requests: {} ok, {} err, {} shed (queue full)",
            self.requests_ok, self.requests_err, self.rejected_queue_full
        )?;
        writeln!(
            f,
            "batches:  {} runs, mean {:.2} rows/batch, delay {:.3} ms",
            self.batches,
            self.mean_batch_rows,
            self.batch_delay_s * 1e3
        )?;
        write!(f, "  batch-size histogram:")?;
        for (rows, &n) in self.batch_rows_histogram.iter().enumerate().skip(1) {
            if n > 0 {
                write!(f, " {rows}r×{n}")?;
            }
        }
        writeln!(f)?;
        writeln!(
            f,
            "latency:  p50 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms, mean {:.3} ms",
            self.p50_latency_s * 1e3,
            self.p95_latency_s * 1e3,
            self.p99_latency_s * 1e3,
            self.mean_latency_s * 1e3
        )?;
        writeln!(f, "queue:    high-water {}", self.queue_high_water)?;
        writeln!(
            f,
            "plan:     {} compiles, {} cache hits; {} hot swap(s)",
            self.plan_compiles, self.plan_cache_hits, self.swaps
        )?;
        write!(
            f,
            "pool:     {} hits, {} fresh allocs ({:.1}% hit rate), peak {:.1} KB pooled",
            self.pool_hits,
            self.pool_fresh_allocs,
            self.pool_hit_rate * 100.0,
            self.pool_peak_bytes as f64 / 1e3
        )
    }
}

/// One model's row in a [`RegistrySnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct ModelStats {
    /// The name the model was registered under.
    pub name: String,
    /// The version currently being served (1 + completed swaps).
    pub version: u64,
    /// The model's weighted-fair scheduling weight.
    pub weight: u32,
    /// One line describing the backend serving this model.
    pub backend: String,
    /// The model's own serving statistics.
    pub stats: ServeStats,
}

/// A point-in-time view across every model in a
/// [`Registry`](crate::Registry): per-model rows plus an exact
/// aggregate (histograms merged bucket-wise, pool deltas taken against
/// the registry's own baseline so they are not double-counted).
#[derive(Debug, Clone, PartialEq)]
pub struct RegistrySnapshot {
    /// Per-model statistics, sorted by model name. Models that were
    /// unregistered before the snapshot are not included.
    pub models: Vec<ModelStats>,
    /// Everything merged: request counts summed, latency histograms
    /// merged, queue high-water maxed.
    pub aggregate: ServeStats,
    /// Hot swaps completed across all models, including unregistered
    /// ones.
    pub total_swaps: u64,
}

impl fmt::Display for RegistrySnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "registry: {} model(s), {} hot swap(s)",
            self.models.len(),
            self.total_swaps
        )?;
        for m in &self.models {
            writeln!(
                f,
                "-- {} (v{}, weight {}, {}) --",
                m.name, m.version, m.weight, m.backend
            )?;
            writeln!(f, "{}", m.stats)?;
        }
        writeln!(f, "-- aggregate --")?;
        write!(f, "{}", self.aggregate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_the_data() {
        let mut h = LatencyHistogram::new();
        for _ in 0..90 {
            h.record(Duration::from_millis(1));
        }
        for _ in 0..10 {
            h.record(Duration::from_millis(100));
        }
        let p50 = h.quantile(0.50);
        assert!(
            (0.8e-3..1.3e-3).contains(&p50),
            "p50 ≈ 1ms within bucket resolution, got {p50}"
        );
        let p95 = h.quantile(0.95);
        assert!(
            (80e-3..130e-3).contains(&p95),
            "p95 ≈ 100ms within bucket resolution, got {p95}"
        );
        let p99 = h.quantile(0.99);
        assert!(
            (80e-3..130e-3).contains(&p99),
            "p99 ≈ 100ms within bucket resolution, got {p99}"
        );
        assert!(h.mean() > p50 && h.mean() < p99);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn extremes_clamp_to_end_buckets() {
        let mut h = LatencyHistogram::new();
        h.record(Duration::from_nanos(1));
        h.record(Duration::from_secs(1_000_000));
        assert_eq!(h.count, 2);
        assert!(h.quantile(0.01) < h.quantile(0.99));
    }

    #[test]
    fn saturating_top_bucket_reports_exact_max() {
        // ~4.3e9 s is past the last geometric bucket; such a sample
        // must land in the overflow bucket and report the observed
        // value, not a geometric midpoint beyond it.
        let mut h = LatencyHistogram::new();
        let huge = Duration::from_secs(5_000_000_000);
        h.record(huge);
        assert_eq!(h.count, 1);
        assert_eq!(h.quantile(0.99), huge.as_secs_f64());
        // And merging preserves it.
        let mut other = LatencyHistogram::new();
        other.record(Duration::from_millis(1));
        other.merge(&h);
        assert_eq!(other.count, 2);
        assert_eq!(other.quantile(1.0), huge.as_secs_f64());
    }

    #[test]
    fn merge_combines_histograms() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for _ in 0..50 {
            a.record(Duration::from_millis(1));
            b.record(Duration::from_millis(100));
        }
        a.merge(&b);
        assert_eq!(a.count, 100);
        let p50 = a.quantile(0.50);
        assert!((0.8e-3..1.3e-3).contains(&p50), "got {p50}");
        let p99 = a.quantile(0.99);
        assert!((80e-3..130e-3).contains(&p99), "got {p99}");
        a.clear();
        assert_eq!(a.count(), 0);
        assert_eq!(a.quantile(0.99), 0.0);
    }

    #[test]
    fn batch_histogram_clamps_oversized() {
        let mut s = StatsState::new(4);
        s.record_batch(2, 0.01);
        s.record_batch(9, 0.02);
        assert_eq!(s.batch_rows_hist[2], 1);
        assert_eq!(s.batch_rows_hist[4], 1, "oversized clamps to last slot");
        let snap = s.snapshot();
        assert_eq!(snap.batches, 2);
        assert!((snap.mean_batch_rows - 5.5).abs() < 1e-9);
    }

    #[test]
    fn stats_merge_sums_and_maxes() {
        let mut a = StatsState::new(4);
        a.requests_ok = 10;
        a.queue_high_water = 3;
        a.record_batch(2, 0.01);
        let mut b = StatsState::new(8);
        b.requests_ok = 5;
        b.requests_err = 1;
        b.queue_high_water = 7;
        b.record_batch(8, 0.03);
        a.merge(&b);
        let snap = a.snapshot();
        assert_eq!(snap.requests_ok, 15);
        assert_eq!(snap.requests_err, 1);
        assert_eq!(snap.queue_high_water, 7);
        assert_eq!(snap.batches, 2);
        assert_eq!(snap.batch_rows_histogram[8], 1, "resized to the longer hist");
    }

    #[test]
    fn display_is_human_readable() {
        let mut s = StatsState::new(8);
        s.requests_ok = 5;
        s.record_batch(5, 0.01);
        let text = s.snapshot().to_string();
        assert!(text.contains("5 ok"));
        assert!(text.contains("5r×1"));
        assert!(text.contains("p95"));
    }
}
