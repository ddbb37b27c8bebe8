//! One object-safe surface over every way to ready a [`GraphModule`]
//! for repeated execution.
//!
//! Graphs run on exactly one machine, the plan-cached [`Executor`];
//! backends differ only in which graph→graph passes they apply before
//! handing the graph to it (`fx_backend::EngineBackend` runs the AoT
//! fusion passes first). The [`ExecutionBackend`] / [`PreparedModel`]
//! pair hides that choice behind one trait object, so consumers —
//! `fx_serve`, benches — hold a `Box<dyn PreparedModel>`:
//!
//! ```text
//! backend.prepare(&gm)? -> Box<dyn PreparedModel>   // passes + plan, once
//! prepared.run(&inputs)?                            // &self, &[Value], Send + Sync
//! ```
//!
//! [`ExecConfig`] is the unified knob set both `Executor` and
//! `fx_serve::ServerBuilder` accept; the `FX_THREADS` (kernel threads)
//! and `FX_MEMPLAN` environment overrides are resolved here, in exactly
//! one place ([`ExecConfig::from_env`]).

use crate::error::Result;
use crate::executor::{Executor, RunProfile};
use crate::graph_module::GraphModule;
use crate::value::Value;
use std::sync::OnceLock;

/// Unified execution configuration, accepted by [`Executor`] (via its
/// builder methods) and `fx_serve::ServerBuilder::exec_config`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecConfig {
    /// Kernel threads of each run ([`Executor::with_threads`]); `0`
    /// means the process setting ([`fx_tensor::threading::num_threads`]).
    pub threads: usize,
    /// Buffer-pool recycling of dead intermediates plus in-place unary
    /// rewrites. Bit-identical to plain allocation by construction.
    pub memory_planning: bool,
    /// Allow conv–BN folding, the one numerics-changing fusion pass, in
    /// backends that have it (`fx_backend::EngineBackend`'s constant
    /// folding of BatchNorm into the preceding conv). Off by default:
    /// every backend then computes results **bit-identical** to the
    /// default `Executor`. The plain executor backend ignores this flag.
    pub fusion: bool,
}

/// Process-wide `FX_MEMPLAN` default: on unless the env var is `0`.
fn memplan_from_env() -> bool {
    static DEFAULT: OnceLock<bool> = OnceLock::new();
    *DEFAULT.get_or_init(|| std::env::var("FX_MEMPLAN").map_or(true, |v| v != "0"))
}

/// Process-wide `FX_THREADS` default, read once.
fn threads_from_env() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        let var = std::env::var("FX_THREADS").ok();
        let (threads, note) = resolve_threads(var.as_deref());
        if let Some(note) = note {
            eprintln!("{note}");
        }
        threads
    })
}

/// What `FX_THREADS=var` selects, plus the line to print when the value
/// does not parse: unset or junk means `0`, the process setting.
fn resolve_threads(var: Option<&str>) -> (usize, Option<String>) {
    match var.map(str::trim) {
        None => (0, None),
        Some(v) => match v.parse() {
            Ok(n) => (n, None),
            Err(_) => {
                let note = format!(
                    "fx_core: FX_THREADS={v:?} is not a thread count; using the process setting"
                );
                (0, Some(note))
            }
        },
    }
}

impl ExecConfig {
    /// The process default configuration — **the** single resolution
    /// point for the `FX_THREADS` and `FX_MEMPLAN` environment
    /// overrides (read once per process). Without overrides: the
    /// process's kernel threads (`threads: 0`), memory planning on,
    /// fusion off.
    pub fn from_env() -> ExecConfig {
        ExecConfig {
            threads: threads_from_env(),
            memory_planning: memplan_from_env(),
            fusion: false,
        }
    }

    /// Replace the kernel thread count (`0` = the process setting).
    pub fn with_threads(mut self, n: usize) -> ExecConfig {
        self.threads = n;
        self
    }

    /// Enable or disable memory planning.
    pub fn with_memory_planning(mut self, on: bool) -> ExecConfig {
        self.memory_planning = on;
        self
    }

    /// Enable or disable conv–BN folding in backends that have it.
    pub fn with_fusion(mut self, on: bool) -> ExecConfig {
        self.fusion = on;
        self
    }
}

impl Default for ExecConfig {
    /// Same as [`ExecConfig::from_env`].
    fn default() -> ExecConfig {
        ExecConfig::from_env()
    }
}

impl std::fmt::Display for ExecConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "threads={} memplan={} fusion={}",
            self.threads, self.memory_planning, self.fusion
        )
    }
}

/// A model readied for repeated execution: plan compiled (or engine
/// built), shareable across threads, runnable through `&self`.
///
/// Implementations promise `run` is semantically identical to a solo
/// [`Executor::run`] of the same graph; backends prepared with
/// [`ExecConfig::fusion`] off are additionally **bit-identical** to it.
pub trait PreparedModel: Send + Sync {
    /// Run on `inputs` (one per placeholder).
    fn run(&self, inputs: &[Value]) -> Result<Value>;

    /// Run and return the output with a [`RunProfile`] in the common
    /// shape (per-node/per-instruction times, plan-cache counters where
    /// the backend has them).
    fn run_profiled(&self, inputs: &[Value]) -> Result<(Value, RunProfile)>;

    /// One line describing what will execute (backend, configuration),
    /// for logs and stats.
    fn describe(&self) -> String;
}

/// An execution strategy that can ready a [`GraphModule`] for serving:
/// the object-safe factory side of the trait pair.
pub trait ExecutionBackend: Send + Sync {
    /// Stable backend name (`"executor"`, `"engine"`).
    fn name(&self) -> &'static str;

    /// Prepare `gm` with the process-default [`ExecConfig`].
    fn prepare(&self, gm: &GraphModule) -> Result<Box<dyn PreparedModel>> {
        self.prepare_with(gm, ExecConfig::from_env())
    }

    /// Prepare `gm` with an explicit configuration.
    fn prepare_with(&self, gm: &GraphModule, cfg: ExecConfig) -> Result<Box<dyn PreparedModel>>;
}

/// The plan-cached [`Executor`] as an [`ExecutionBackend`] — the default
/// everywhere an `ExecutionBackend` is accepted.
///
/// `prepare` snapshots the `GraphModule` and compiles its execution plan
/// once; every `run` then constructs a throwaway `Executor` over the
/// shared snapshot (hitting the warmed plan cache), which normalizes the
/// executor's `&mut self` run methods behind the trait's `&self`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecutorBackend;

struct PreparedExecutor {
    gm: GraphModule,
    cfg: ExecConfig,
}

impl PreparedModel for PreparedExecutor {
    fn run(&self, inputs: &[Value]) -> Result<Value> {
        Executor::new(&self.gm)
            .with_threads(self.cfg.threads)
            .with_memory_planning(self.cfg.memory_planning)
            .run(inputs)
    }

    fn run_profiled(&self, inputs: &[Value]) -> Result<(Value, RunProfile)> {
        Executor::new(&self.gm)
            .with_threads(self.cfg.threads)
            .with_memory_planning(self.cfg.memory_planning)
            .run_profiled(inputs)
    }

    /// Shows the kernel threads a run from this thread would use, not a
    /// `0` that means "the process setting".
    fn describe(&self) -> String {
        let threads = fx_tensor::threading::with_num_threads(
            self.cfg.threads,
            fx_tensor::threading::num_threads,
        );
        let cfg = ExecConfig {
            threads,
            ..self.cfg
        };
        format!("executor({cfg} simd={})", fx_tensor::simd_level())
    }
}

impl ExecutionBackend for ExecutorBackend {
    fn name(&self) -> &'static str {
        "executor"
    }

    fn prepare_with(&self, gm: &GraphModule, cfg: ExecConfig) -> Result<Box<dyn PreparedModel>> {
        let gm = gm.clone();
        // Compile the plan at prepare time so the first request does not
        // pay plan compilation; runs then share it via the snapshot's cache.
        gm.exec_plan()?;
        Ok(Box::new(PreparedExecutor { gm, cfg }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func;
    use crate::trace::symbolic_trace_fn;
    use fx_tensor::Tensor;

    fn gm() -> GraphModule {
        symbolic_trace_fn(1, |xs| {
            let r = func::relu(&xs[0])?;
            let n = func::neg(&xs[0])?;
            func::add(&r, &n)
        })
        .unwrap()
    }

    fn x() -> Value {
        Value::Tensor(Tensor::from_vec(
            (0..64).map(|i| i as f32 - 32.0).collect(),
            &[64],
        ))
    }

    fn bits(v: &Value) -> Vec<u32> {
        v.as_tensor()
            .unwrap()
            .as_f32()
            .unwrap()
            .iter()
            .map(|f| f.to_bits())
            .collect()
    }

    #[test]
    fn prepared_executor_matches_direct_executor() {
        let gm = gm();
        let input = [x()];
        let want = bits(&Executor::new(&gm).run(&input).unwrap());
        for cfg in [
            ExecConfig::from_env(),
            ExecConfig::from_env().with_threads(4),
            ExecConfig::from_env().with_memory_planning(false),
        ] {
            let prepared = ExecutorBackend.prepare_with(&gm, cfg).unwrap();
            assert_eq!(want, bits(&prepared.run(&input).unwrap()), "{}", cfg);
        }
    }

    #[test]
    fn prepare_warms_the_plan_cache() {
        let prepared = ExecutorBackend.prepare(&gm()).unwrap();
        let (_, profile) = prepared.run_profiled(&[x()]).unwrap();
        assert!(profile.plan_cache_hit, "prepare must pre-compile the plan");
        assert_eq!(profile.plan_compiles, 1);
        let line = prepared.describe();
        assert!(line.starts_with("executor("), "{line}");
        let threads = fx_tensor::threading::num_threads();
        assert!(
            line.contains(&format!("threads={threads} ")),
            "resolved, not 0: {line}"
        );
        let pinned = ExecutorBackend.prepare_with(&gm(), ExecConfig::from_env().with_threads(3));
        assert!(pinned.unwrap().describe().contains("threads=3 "));
        assert!(line.contains(&format!("simd={}", fx_tensor::simd_level())), "{line}");
    }

    #[test]
    fn prepared_model_is_shareable_across_threads() {
        let prepared = ExecutorBackend.prepare(&gm()).unwrap();
        let want = bits(&prepared.run(&[x()]).unwrap());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let p = &prepared;
                let want = &want;
                s.spawn(move || {
                    assert_eq!(want, &bits(&p.run(&[x()]).unwrap()));
                });
            }
        });
    }

    #[test]
    fn fx_threads_resolves_or_notes_junk() {
        assert_eq!(resolve_threads(None), (0, None));
        assert_eq!(resolve_threads(Some("0")), (0, None));
        assert_eq!(resolve_threads(Some("3")), (3, None));
        assert_eq!(resolve_threads(Some(" 2\n")), (2, None));
        let (threads, note) = resolve_threads(Some("all"));
        assert_eq!(threads, 0);
        let note = note.expect("junk gets a note");
        assert!(note.contains("FX_THREADS=\"all\""), "{note}");
    }
}
