//! The six workloads and the driver that runs one of them in this
//! process: set-up (several times, median reported), reference
//! outputs, a timed window, and — in a traced run — the per-layer
//! numbers.

mod exec;
mod serve;
mod transform;

pub use serve::clients as client_threads;

use crate::layers::{self, Res};
use crate::metrics;
use crate::span::{self, Recorder, NONE};
use crate::stats;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Fixed names; later issues cite them.
pub const NAMES: [&str; 6] = [
    "transform_resnet50",
    "exec_resnet50_f32",
    "exec_resnet50_int8",
    "exec_tiny_f32",
    "serve_resnet50",
    "serve_swap",
];

/// Workloads in which one stream drives the executor, so allocator
/// counts repeat exactly.
pub fn is_single_stream(name: &str) -> bool {
    !name.starts_with("serve_")
}

/// Set-up runs this many times in a child and `setup_s` is the median:
/// one pass is a single sample of a sub-second interval, and a single
/// sample moves with whatever else the host was doing at that instant.
const SETUP_REPS: usize = 3;

/// Share of a traced run's `--seconds` spent on an untraced window of
/// the same ops, the denominator of `bench.trace_overhead_ratio`.
const BASELINE_SHARE: f64 = 0.25;

/// Ops whose spans a trace file keeps (see `Recorder::write_jsonl`).
const TRACE_FILE_OPS: u32 = 1000;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// How the ops of a window are run and what their spans are called.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// Warm-up inside set-up: not verified, not counted.
    Warmup,
    /// The untraced window: `bench.op`, public entry points only.
    Untraced,
    /// The untraced comparison window of a traced run.
    Baseline,
    /// The traced window: `bench.op` with per-layer children.
    Traced,
}

impl Mode {
    pub fn span(self) -> &'static str {
        match self {
            Mode::Warmup => "bench.warmup_op",
            Mode::Baseline => "bench.baseline_op",
            Mode::Untraced | Mode::Traced => "bench.op",
        }
    }
}

/// When a window ends: after a number of ops (warm-up) or once the
/// clock has run for a number of seconds.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    Ops(u64),
    Seconds(f64),
}

/// One attempted op.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpRecord {
    /// When the op ended on the window's clock, seconds. A single
    /// stream's clock runs only inside ops (verification is off it);
    /// concurrent clients share the wall clock.
    pub end_s: f64,
    /// Latency at the caller, seconds.
    pub seconds: f64,
    /// Returned without error and passed its output check.
    pub ok: bool,
}

/// What one window produced: every attempted op, in any order.
#[derive(Debug, Default)]
pub struct Window {
    pub ops: Vec<OpRecord>,
}

impl Window {
    pub fn attempted(&self) -> u64 {
        self.ops.len() as u64
    }

    pub fn failed(&self) -> u64 {
        self.ops.iter().filter(|o| !o.ok).count() as u64
    }
}

/// A window is cut into this many segments of equal op count and each
/// timing is the **median over segments** of the segment's own
/// statistic (latency percentiles as [`stats::band_percentile`]). A
/// neighbour on the host that steals the cache or a core for a few
/// seconds then moves two segments, not the result.
const SEGMENTS: usize = 5;

/// Segment-median latency percentiles and throughput of a window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub p50_s: f64,
    pub p90_s: f64,
    /// Verified ops per second of the window's clock.
    pub ops_per_s: f64,
}

pub fn summarize(ops: &[OpRecord]) -> Summary {
    let mut ops = ops.to_vec();
    ops.sort_by(|a, b| a.end_s.total_cmp(&b.end_s));
    let segments = SEGMENTS.min(ops.len()).max(1);
    let (mut p50, mut p90, mut rate) = (Vec::new(), Vec::new(), Vec::new());
    let mut prev_end = 0.0;
    for k in 0..segments {
        let seg = &ops[k * ops.len() / segments..(k + 1) * ops.len() / segments];
        let Some(last) = seg.last() else { continue };
        let lat = stats::sorted(seg.iter().map(|o| o.seconds).collect());
        p50.push(stats::band_percentile(&lat, 50, stats::P50_BAND));
        p90.push(stats::band_percentile(&lat, 90, stats::P90_BAND));
        let span = last.end_s - prev_end;
        if span > 0.0 {
            rate.push(seg.iter().filter(|o| o.ok).count() as f64 / span);
        }
        prev_end = last.end_s;
    }
    Summary {
        p50_s: stats::median(&p50),
        p90_s: stats::median(&p90),
        ops_per_s: stats::median(&rate),
    }
}

/// Per-run context: the seed, the span buffer, and lines for people.
pub struct Cx {
    pub seed: u64,
    pub rec: Recorder,
    pub notes: Vec<String>,
}

pub type Layer = BTreeMap<&'static str, f64>;

pub trait Workload {
    type State;

    /// Build the model, capture, transform, prepare or register, warm
    /// up. Everything here is on the `setup_s` clock.
    fn setup(&self, cx: &mut Cx) -> Res<Self::State>;

    /// Compute reference outputs, off every clock but `bench.reference_s`.
    fn reference(&self, st: &mut Self::State, cx: &mut Cx) -> Res<()>;

    /// Run ops until `until`, verifying each unless `mode` is warm-up.
    fn window(&self, st: &mut Self::State, cx: &mut Cx, until: Until, mode: Mode) -> Res<Window>;

    /// Per-layer numbers after the traced window; may run probes.
    fn layer_metrics(&self, st: &mut Self::State, cx: &mut Cx, out: &mut Layer) -> Res<()>;
}

/// The result line's content.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in `metrics` order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub notes: Vec<String>,
}

pub fn run(args: &Args, out_dir: &Path) -> Res<Outcome> {
    match args.workload.as_str() {
        "transform_resnet50" => drive(&transform::Transform, args, out_dir),
        "exec_resnet50_f32" => drive(&exec::Exec::F32, args, out_dir),
        "exec_resnet50_int8" => drive(&exec::Exec::Int8, args, out_dir),
        "exec_tiny_f32" => drive(&exec::Exec::Tiny, args, out_dir),
        "serve_resnet50" => drive(&serve::Serve { swap: false }, args, out_dir),
        "serve_swap" => drive(&serve::Serve { swap: true }, args, out_dir),
        other => Err(format!("unknown workload {other:?}; one of {NAMES:?}")),
    }
}

fn drive<W: Workload>(w: &W, args: &Args, out_dir: &Path) -> Res<Outcome> {
    let mut cx = Cx {
        seed: args.seed,
        rec: Recorder::new(Instant::now()),
        notes: Vec::new(),
    };

    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for _ in 0..SETUP_REPS {
        // The previous pass's model, pool contents and (for serve) its
        // threads go first, so each pass starts from the same place.
        drop(state.take());
        layers::pool_clear();
        let id = cx.rec.begin("bench.setup");
        let built = w.setup(&mut cx);
        setup_times.push(cx.rec.end(id));
        state = Some(built?);
    }
    let mut state = state.expect("SETUP_REPS is at least 1");
    let setup_s = stats::median(&setup_times);

    let id = cx.rec.begin("bench.reference");
    let referenced = w.reference(&mut state, &mut cx);
    let reference_s = cx.rec.end(id);
    referenced?;

    let mut layer = Layer::new();
    let win = if args.trace {
        let base = w.window(
            &mut state,
            &mut cx,
            Until::Seconds(args.seconds * BASELINE_SHARE),
            Mode::Baseline,
        )?;
        let pool_before = layers::pool_stats();
        let win = w.window(
            &mut state,
            &mut cx,
            Until::Seconds(args.seconds * (1.0 - BASELINE_SHARE)),
            Mode::Traced,
        )?;
        let pool = layers::pool_stats().since(&pool_before);
        let ops = win.attempted().max(1) as f64;
        layer.insert(
            "fx_tensor.pool.fresh_allocs_per_op",
            pool.fresh_allocs as f64 / ops,
        );
        layer.insert("fx_tensor.pool.hits_per_op", pool.pool_hits as f64 / ops);
        layer.insert("fx_tensor.pool.hit_rate", pool.hit_rate());
        layer.insert("fx_tensor.pool.peak_bytes", pool.in_pool_peak_bytes as f64);
        let base_p50 = summarize(&base.ops).p50_s;
        if base_p50 > 0.0 {
            layer.insert(
                "bench.trace_overhead_ratio",
                summarize(&win.ops).p50_s / base_p50,
            );
        }
        w.layer_metrics(&mut state, &mut cx, &mut layer)?;
        stage_metrics(&cx.rec, &mut layer);
        win
    } else {
        w.window(
            &mut state,
            &mut cx,
            Until::Seconds(args.seconds),
            Mode::Untraced,
        )?
    };
    // Serve workloads stop their threads here, before the result prints.
    drop(state);

    let lat = stats::sorted(win.ops.iter().map(|o| o.seconds).collect());
    let summary = summarize(&win.ops);
    let mut notes = std::mem::take(&mut cx.notes);
    let metrics = if args.trace {
        layer.insert("bench.samples", lat.len() as f64);
        layer.insert("bench.reference_s", reference_s);
        if stats::supported(lat.len(), 99) {
            layer.insert("bench.op_p99_s", stats::percentile(&lat, 99));
        }
        std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
        let path = out_dir.join(format!("trace-{}.jsonl", args.workload));
        cx.rec
            .write_jsonl(&path, TRACE_FILE_OPS)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        notes.push(format!(
            "{} spans recorded; {}",
            cx.rec.spans.len(),
            path.display()
        ));
        metrics::PER_LAYER
            .iter()
            .map(|def| {
                (
                    def.name,
                    layer.get(def.name).copied().unwrap_or(0.0),
                    def.unit,
                )
            })
            .collect()
    } else {
        if !stats::supported(lat.len(), 90) {
            notes.push(format!(
                "op_p90_s rests on {} samples; 100 are needed for ten beyond it",
                lat.len()
            ));
        }
        let value = |name: &str| match name {
            "setup_s" => setup_s,
            "op_p50_s" => summary.p50_s,
            "op_p90_s" => summary.p90_s,
            "ops_per_s" => summary.ops_per_s,
            "peak_rss_mib" => peak_rss_mib(),
            other => unreachable!("no value for end-to-end metric {other}"),
        };
        metrics::END_TO_END
            .iter()
            .map(|def| (def.name, value(def.name), def.unit))
            .collect()
    };
    Ok(Outcome {
        attempted: win.attempted(),
        failed: win.failed(),
        metrics,
        notes,
    })
}

/// `<stage>.s` for every pipeline stage: the mean duration of its
/// spans inside ops if it ran there (`transform_resnet50`), else of
/// its spans in set-up.
fn stage_metrics(rec: &Recorder, out: &mut Layer) {
    const STAGES: [(&str, &str); 11] = [
        ("fx_core.trace", "fx_core.trace.s"),
        ("fx_passes.shape_prop", "fx_passes.shape_prop.s"),
        ("fx_passes.fuse", "fx_passes.fuse.s"),
        ("fx_passes.cse", "fx_passes.cse.s"),
        ("fx_passes.constfold", "fx_passes.constfold.s"),
        ("fx_core.validate", "fx_core.validate.s"),
        ("fx_core.exec_plan.compile", "fx_core.exec_plan.compile_s"),
        ("fx_backend.compile", "fx_backend.compile.s"),
        ("fx_quant.prepare", "fx_quant.prepare.s"),
        ("fx_quant.calibrate", "fx_quant.calibrate.s"),
        ("fx_quant.convert", "fx_quant.convert.s"),
    ];
    let in_ops = span::aggregate(&rec.spans, |s| s.op != NONE);
    let in_setup = span::aggregate(&rec.spans, |s| s.op == NONE);
    for (span_name, metric) in STAGES {
        if let Some(agg) = in_ops.get(span_name).or_else(|| in_setup.get(span_name)) {
            out.insert(metric, agg.mean_s());
        }
    }
}

/// The counts every workload reports about the graph it executes.
pub fn plan_metrics(facts: &crate::pipeline::Facts, plan: &layers::ExecPlan, out: &mut Layer) {
    out.insert("fx_core.trace.nodes", facts.nodes_after_trace as f64);
    out.insert("fx_passes.fuse.applied", facts.fusions_applied as f64);
    out.insert("fx_passes.fuse.nodes_after", facts.nodes_after_fuse as f64);
    out.insert("fx_passes.cse.applied", facts.cse_applied as f64);
    out.insert(
        "fx_passes.constfold.applied",
        facts.constfold_applied as f64,
    );
    if let Some(n) = facts.engine_instructions {
        out.insert("fx_backend.compile.instructions", n as f64);
    }
    if let Some(n) = facts.observers {
        out.insert("fx_quant.prepare.observers", n as f64);
    }
    if let Some(n) = facts.nodes_after_convert {
        out.insert("fx_quant.convert.nodes_after", n as f64);
    }
    out.insert("fx_core.exec_plan.levels", plan.levels.len() as f64);
    out.insert("fx_core.exec_plan.slots", plan.len() as f64);
    if let Some(mem) = &plan.mem {
        out.insert(
            "fx_core.exec_plan.planned_reuses",
            mem.planned_reuses as f64,
        );
        out.insert("fx_core.exec_plan.peak_bytes", mem.exact_peak_bytes as f64);
    }
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run `op` until `until`, timing each call as a span named after
/// `mode` and verifying its result off the clock. The single-stream
/// loop shared by the transform and exec workloads.
pub fn single_stream<T>(
    cx: &mut Cx,
    until: Until,
    mode: Mode,
    mut op: impl FnMut(&mut Recorder, u64) -> Res<T>,
    mut verify: impl FnMut(u64, &T) -> bool,
) -> Window {
    let mut win = Window::default();
    let mut clock_s = 0.0;
    let mut errors = 0;
    loop {
        let k = win.attempted();
        let done = match until {
            Until::Ops(n) => k >= n,
            Until::Seconds(s) => clock_s >= s,
        };
        if done {
            return win;
        }
        if mode != Mode::Warmup {
            cx.rec.set_op(k as u32);
        }
        let id = cx.rec.begin(mode.span());
        let result = op(&mut cx.rec, k);
        let seconds = cx.rec.end(id);
        cx.rec.set_op(NONE);
        clock_s += seconds;
        let ok = match &result {
            Ok(out) => mode == Mode::Warmup || verify(k, out),
            Err(e) => {
                errors += 1;
                if errors <= 3 {
                    cx.notes.push(format!("op {k} failed: {e}"));
                }
                false
            }
        };
        win.ops.push(OpRecord {
            end_s: clock_s,
            seconds,
            ok,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(end_s: f64, seconds: f64, ok: bool) -> OpRecord {
        OpRecord { end_s, seconds, ok }
    }

    #[test]
    fn summary_is_the_median_over_segments() {
        // 50 ops of 10 ms back to back, except that the second fifth of
        // the window ran at 30 ms: one slow segment moves nothing.
        let mut ops = Vec::new();
        let mut t = 0.0;
        for k in 0..50 {
            let s = if (10..20).contains(&k) { 0.030 } else { 0.010 };
            t += s;
            ops.push(op(t, s, true));
        }
        let sum = summarize(&ops);
        assert!((sum.p50_s - 0.010).abs() < 1e-12);
        assert!((sum.p90_s - 0.010).abs() < 1e-12);
        assert!((sum.ops_per_s - 100.0).abs() < 1e-6);
        // Order of arrival does not matter; failed ops leave the rate.
        ops.reverse();
        assert_eq!(summarize(&ops), sum);
        for o in ops.iter_mut().filter(|o| o.seconds < 0.02) {
            o.ok = false;
        }
        assert!(summarize(&ops).ops_per_s < 1e-9);
    }

    #[test]
    fn summary_of_few_or_no_ops() {
        assert_eq!(summarize(&[]).p50_s, 0.0);
        let one = summarize(&[op(0.5, 0.5, true)]);
        assert_eq!((one.p50_s, one.p90_s, one.ops_per_s), (0.5, 0.5, 2.0));
    }
}
