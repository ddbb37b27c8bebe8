//! [`ExecConfig`]: the one knob set for running a graph.
//!
//! Graphs run on exactly one machine, the plan-cached [`Executor`](crate::Executor).
//! Anything that changes *what* runs — conv–BN folding, the backend's
//! fusion passes, lowering, quantization — is a graph→graph pass the
//! caller applies first; `fx_serve` then serves the graph it is given.
//! [`ExecConfig`] says only *how* a run goes: its kernel threads and
//! whether memory planning is on. `Executor::with_config` and
//! `fx_serve::ModelConfig::exec_config` accept it, and the
//! `FX_THREADS` (kernel threads) environment override is resolved here,
//! in exactly one place ([`ExecConfig::from_env`]). Memory planning has
//! no environment knob: it is on unless a run turns it off.

use std::sync::OnceLock;

/// Unified execution configuration, accepted by
/// [`Executor::with_config`](crate::Executor::with_config) and
/// `fx_serve::ModelConfig::exec_config`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecConfig {
    /// Kernel threads of each run ([`Executor::with_threads`](crate::Executor::with_threads)); `0`
    /// means the process setting ([`fx_tensor::threading::num_threads`]).
    pub threads: usize,
    /// Buffer-pool recycling of dead intermediates plus in-place unary
    /// rewrites. Bit-identical to plain allocation by construction.
    pub memory_planning: bool,
    /// Inert: nothing reads it. Conv–BN folding is chosen by the graph a
    /// caller runs (`fx_backend::fuse` with `CompileOptions {
    /// fuse_conv_bn }`), not by a run's configuration. The field stays
    /// until the benchmark's struct literal stops naming it.
    pub fusion: bool,
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
    /// point for the `FX_THREADS` environment override (read once per
    /// process). Without it: the process's kernel threads
    /// (`threads: 0`). Memory planning is on.
    pub fn from_env() -> ExecConfig {
        ExecConfig {
            threads: threads_from_env(),
            memory_planning: true,
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
}

impl Default for ExecConfig {
    /// Same as [`ExecConfig::from_env`].
    fn default() -> ExecConfig {
        ExecConfig::from_env()
    }
}

impl std::fmt::Display for ExecConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "threads={} memplan={}", self.threads, self.memory_planning)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
