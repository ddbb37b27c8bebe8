//! The multi-tenant model registry: N models served concurrently, each
//! behind its own bounded queue and batcher, sharing one weighted-fair
//! worker pool.
//!
//! ```text
//!  Handle::infer("resnet")      Handle::infer("recommender")
//!        │                             │
//!   entry queue (bounded)        entry queue (bounded)
//!        │ batcher thread              │ batcher thread
//!        │  (coalesce + adaptive      │  (coalesce + adaptive
//!        │   delay control loop)      │   delay control loop)
//!        ▼                             ▼
//!   ┌────────── scheduler: deficit round-robin ──────────┐
//!   │  lane[resnet]  lane[recommender]  ... (× weight)   │
//!   └───────────────────────┬─────────────────────────────┘
//!                     shared worker pool
//!            (validate → stack → one Executor run → split)
//! ```
//!
//! Each registered model owns: a bounded submission queue (per-model
//! admission control — [`Error::QueueFull`] names the model), a batcher
//! thread, a [`VersionSlot`] holding its current graph version, and
//! its own [`ServeStats`]. Workers are shared and scheduled by
//! time-charged deficit round-robin (see [`crate::scheduler`]), so one
//! hot model cannot starve its neighbours of worker time.
//!
//! **Hot swap** ([`Registry::swap`]) admits the replacement and warms
//! its plan off the serving path, flips the version slot atomically,
//! then waits for every batch formed against the old version to finish.
//! Requests keep flowing the whole time — they simply start landing on
//! the new version — and because a batch captures its version exactly
//! once at formation, no batch ever mixes versions.
//!
//! **Adaptive batching**: a model registered with a
//! [`ModelConfig::p99_budget`] gets a control loop in its batcher that
//! tunes the effective batch delay between 0 and the configured
//! `max_batch_delay` from the observed latency histogram — halving the
//! delay whenever the windowed p99 exceeds the budget, regrowing it
//! while p99 sits below half the budget (more coalescing, better
//! throughput, still inside the budget).

use crate::error::{Error, Result};
use crate::scheduler::Scheduler;
use crate::server::{batcher_loop, worker_loop, Batch, Handle, QueueState};
use crate::stats::{ModelStats, RegistrySnapshot, StatsState};
use crate::swap::{Version, VersionSlot};
use fx_core::{ExecConfig, GraphModule};
use fx_passes::batch_polymorphic;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// Per-model serving configuration handed to
/// [`Registry::register_with`] ([`Registry::register`] uses the
/// defaults): queue depth 256, max batch 8 rows, max batch delay 2 ms,
/// weight 1, no p99 budget (fixed delay), the environment's
/// [`ExecConfig`] (the process's kernel threads unless `FX_THREADS`
/// says otherwise).
///
/// There is no backend to choose: every model runs on the one
/// [`Executor`](fx_core::Executor), on exactly the graph registered.
/// To serve a fused graph, apply `fx_backend::fuse` (or any other
/// graph→graph pass) before [`Registry::register`] and
/// [`Registry::swap`].
#[derive(Clone)]
pub struct ModelConfig {
    pub(crate) queue_depth: usize,
    pub(crate) max_batch_size: usize,
    pub(crate) max_batch_delay: Duration,
    pub(crate) weight: u32,
    pub(crate) p99_budget: Option<Duration>,
    pub(crate) exec: ExecConfig,
}

impl Default for ModelConfig {
    fn default() -> ModelConfig {
        ModelConfig {
            queue_depth: 256,
            max_batch_size: 8,
            max_batch_delay: Duration::from_millis(2),
            weight: 1,
            p99_budget: None,
            exec: ExecConfig::from_env(),
        }
    }
}

impl ModelConfig {
    /// A fresh default configuration (see the type docs for values).
    pub fn new() -> ModelConfig {
        ModelConfig::default()
    }

    /// Bound on queued (not yet batched) requests; submissions past it
    /// get [`Error::QueueFull`] naming this model. Clamped to ≥ 1.
    pub fn queue_depth(mut self, n: usize) -> ModelConfig {
        self.queue_depth = n.max(1);
        self
    }

    /// Maximum stacked rows per batched run. Clamped to ≥ 1.
    pub fn max_batch_size(mut self, rows: usize) -> ModelConfig {
        self.max_batch_size = rows.max(1);
        self
    }

    /// How long the batcher waits for more requests after the first one
    /// arrives. With a [`ModelConfig::p99_budget`] this is the *upper
    /// bound* the adaptive controller tunes within.
    pub fn max_batch_delay(mut self, d: Duration) -> ModelConfig {
        self.max_batch_delay = d;
        self
    }

    /// Weighted-fair share of the shared worker pool relative to other
    /// models (deficit round-robin credit per round is proportional to
    /// this). Clamped to ≥ 1.
    pub fn weight(mut self, w: u32) -> ModelConfig {
        self.weight = w.max(1);
        self
    }

    /// Target 99th-percentile end-to-end latency. Setting it enables
    /// the adaptive-batching control loop: the effective batch delay
    /// shrinks while observed p99 exceeds the budget and regrows (up to
    /// `max_batch_delay`) while p99 sits well below it.
    pub fn p99_budget(mut self, budget: Duration) -> ModelConfig {
        self.p99_budget = Some(budget);
        self
    }

    /// How every batched run of this model goes — kernel threads and
    /// memory planning — at registration and after every swap.
    pub fn exec_config(mut self, cfg: ExecConfig) -> ModelConfig {
        self.exec = cfg;
        self
    }
}

/// Everything one registered model owns. Shared (via `Arc`) between its
/// handles, its batcher thread, the scheduler's batches, and the
/// registry itself.
pub(crate) struct ModelEntry {
    pub(crate) name: String,
    /// The configuration it was registered with; every version runs
    /// under its `exec`.
    pub(crate) cfg: ModelConfig,
    /// Canonical trailing (non-batch) dims per placeholder, fixed at
    /// registration; swaps must preserve them.
    pub(crate) trailing: Vec<Vec<usize>>,
    pub(crate) sample_shapes: Vec<Vec<usize>>,
    /// The current graph version (hot-swappable).
    pub(crate) slot: VersionSlot,
    pub(crate) queue: Mutex<QueueState>,
    /// Signalled on every push and on close.
    pub(crate) arrived: Condvar,
    pub(crate) stats: Mutex<StatsState>,
    pub(crate) next_id: AtomicU64,
    /// Effective batch delay in µs — `max_batch_delay` unless the
    /// adaptive controller has tuned it.
    pub(crate) delay_us: AtomicU64,
    /// EWMA of observed seconds per stacked row (f64 bits); the
    /// scheduler charges `rows × this` against the model's lane.
    pub(crate) row_seconds_bits: AtomicU64,
    /// Batches formed but not yet finished; unregister/shutdown drain
    /// on this, and a swap waits on `all_done` for the batches that
    /// hold the old version.
    pub(crate) outstanding: Mutex<u64>,
    pub(crate) all_done: Condvar,
    /// This model's lane id in the shared scheduler.
    pub(crate) lane: usize,
}

impl ModelEntry {
    /// The effective batch delay right now.
    pub(crate) fn current_delay(&self) -> Duration {
        Duration::from_micros(self.delay_us.load(Ordering::Relaxed))
    }

    /// EWMA seconds per stacked row (0.0 until the first batch runs).
    pub(crate) fn row_seconds(&self) -> f64 {
        f64::from_bits(self.row_seconds_bits.load(Ordering::Relaxed))
    }

    /// Fold one measured batch into the per-row EWMA.
    pub(crate) fn observe_batch(&self, rows: usize, seconds: f64) {
        if rows == 0 {
            return;
        }
        let per_row = seconds / rows as f64;
        let old = self.row_seconds();
        let new = if old == 0.0 {
            per_row
        } else {
            0.7 * old + 0.3 * per_row
        };
        self.row_seconds_bits.store(new.to_bits(), Ordering::Relaxed);
    }

    pub(crate) fn close_queue(&self) {
        let mut q = self.queue.lock().unwrap_or_else(|p| p.into_inner());
        q.closed = true;
        drop(q);
        self.arrived.notify_all();
    }

    /// One batch was formed against this entry: count it and capture
    /// the current version it runs on.
    pub(crate) fn batch_started(&self) -> Arc<Version> {
        let mut n = self.outstanding.lock().unwrap_or_else(|p| p.into_inner());
        *n += 1;
        self.slot.acquire()
    }

    /// One batch finished (ran, or was dropped with its requests
    /// answered `Error::Shutdown`). Its version is dropped under the
    /// count's lock, so a drain waiter in [`Registry::swap`] cannot miss
    /// the wakeup.
    pub(crate) fn batch_finished(&self, version: Option<Arc<Version>>) {
        let mut n = self.outstanding.lock().unwrap_or_else(|p| p.into_inner());
        *n = n.saturating_sub(1);
        drop(version);
        drop(n);
        self.all_done.notify_all();
    }

    fn wait_batches_done(&self) {
        let mut n = self.outstanding.lock().unwrap_or_else(|p| p.into_inner());
        while *n > 0 {
            n = self.all_done.wait(n).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// One line naming what runs this model's batches, for logs and
    /// stats: the executor with the kernel threads a run from this
    /// thread would use (not a `0` that means "the process setting"),
    /// memory planning, the SIMD level and the int8 element
    /// ([`fx_tensor::int8_element`]).
    pub(crate) fn describe(&self) -> String {
        let exec = self.cfg.exec;
        let threads = fx_tensor::threading::with_num_threads(
            exec.threads,
            fx_tensor::threading::num_threads,
        );
        let exec = ExecConfig { threads, ..exec };
        format!("executor({exec} simd={} int8={})", fx_tensor::simd_level(), fx_tensor::int8_element())
    }

    /// The stats, locked, with the effective batch delay stamped in.
    pub(crate) fn stats_now(&self) -> MutexGuard<'_, StatsState> {
        let mut st = self.stats.lock().unwrap_or_else(|p| p.into_inner());
        st.batch_delay_us = self.delay_us.load(Ordering::Relaxed);
        st
    }

    /// Current per-model stats row (name, version, weight, stats).
    fn model_stats(&self) -> ModelStats {
        ModelStats {
            name: self.name.clone(),
            version: self.slot.current_version(),
            weight: self.cfg.weight,
            backend: self.describe(),
            stats: self.stats_now().snapshot(),
        }
    }
}

struct Entries {
    map: HashMap<String, Arc<ModelEntry>>,
    /// The batcher thread of each registered model, joined at
    /// unregister / shutdown.
    batchers: HashMap<String, JoinHandle<()>>,
}

pub(crate) struct RegistryInner {
    entries: Mutex<Entries>,
    pub(crate) sched: Scheduler<Batch>,
    closed: AtomicBool,
    total_swaps: AtomicU64,
    /// Final stats of unregistered models, folded into the aggregate.
    retired: Mutex<StatsState>,
    /// Pool counters at registry creation: the aggregate's pool delta
    /// baseline (exact, unlike the overlapping per-model deltas).
    pool_base: fx_tensor::pool::PoolStats,
}

/// Configures and builds a [`Registry`].
pub struct RegistryBuilder {
    workers: usize,
}

impl RegistryBuilder {
    /// Defaults: 1 shared worker thread.
    pub fn new() -> RegistryBuilder {
        RegistryBuilder { workers: 1 }
    }

    /// Number of shared batch-executing worker threads (distinct
    /// batches — same or different models — run concurrently). Clamped
    /// to ≥ 1.
    pub fn workers(mut self, n: usize) -> RegistryBuilder {
        self.workers = n.max(1);
        self
    }

    /// Spawn the worker pool and return the (initially empty) registry.
    pub fn build(self) -> Result<Registry> {
        let inner = Arc::new(RegistryInner {
            entries: Mutex::new(Entries {
                map: HashMap::new(),
                batchers: HashMap::new(),
            }),
            sched: Scheduler::new(),
            closed: AtomicBool::new(false),
            total_swaps: AtomicU64::new(0),
            retired: Mutex::new(StatsState::new(0)),
            pool_base: fx_tensor::pool::stats(),
        });
        let mut workers = Vec::with_capacity(self.workers);
        for i in 0..self.workers {
            let inner = inner.clone();
            let handle = std::thread::Builder::new()
                .name(format!("fx-serve-worker-{i}"))
                .spawn(move || worker_loop(&inner.sched))
                .map_err(|e| Error::Build(format!("cannot spawn worker: {e}")))?;
            workers.push(handle);
        }
        Ok(Registry { inner, workers })
    }
}

impl Default for RegistryBuilder {
    fn default() -> RegistryBuilder {
        RegistryBuilder::new()
    }
}

/// A multi-tenant model-serving registry. Register any number of
/// batch-polymorphic models under unique names; each gets its own
/// queue, batcher, stats, and hot-swappable graph version, all
/// sharing one weighted-fair worker pool. See the module docs for the
/// architecture.
pub struct Registry {
    inner: Arc<RegistryInner>,
    workers: Vec<JoinHandle<()>>,
}

impl Registry {
    /// Start configuring a registry; see [`RegistryBuilder`].
    pub fn builder() -> RegistryBuilder {
        RegistryBuilder::new()
    }

    /// Register `gm` under `name` with default [`ModelConfig`] and
    /// return a client [`Handle`] for it.
    pub fn register(
        &self,
        name: &str,
        gm: GraphModule,
        sample_shapes: &[Vec<usize>],
    ) -> Result<Handle> {
        self.register_with(name, gm, sample_shapes, ModelConfig::default())
    }

    /// Register `gm` under `name`: run the batch-polymorphism admission
    /// check, compile the execution plan (here, not on the first
    /// request), open a scheduler lane, and spawn the model's batcher
    /// thread.
    pub fn register_with(
        &self,
        name: &str,
        gm: GraphModule,
        sample_shapes: &[Vec<usize>],
        cfg: ModelConfig,
    ) -> Result<Handle> {
        if self.inner.closed.load(Ordering::SeqCst) {
            return Err(Error::Closed);
        }
        let trailing = batch_polymorphic(&gm, sample_shapes)
            .map_err(|e| Error::Build(e.to_string()))?;
        gm.exec_plan()
            .map_err(|e| Error::Build(format!("execution plan does not compile: {e}")))?;

        let mut entries = self.inner.entries.lock().unwrap_or_else(|p| p.into_inner());
        if entries.map.contains_key(name) {
            return Err(Error::AlreadyRegistered(name.to_string()));
        }
        let lane = self.inner.sched.add_lane(cfg.weight);
        let mut stats = StatsState::new(cfg.max_batch_size);
        stats.batch_delay_us = cfg.max_batch_delay.as_micros() as u64;
        let entry = Arc::new(ModelEntry {
            name: name.to_string(),
            trailing,
            sample_shapes: sample_shapes.to_vec(),
            slot: VersionSlot::new(gm),
            queue: Mutex::new(QueueState {
                q: VecDeque::new(),
                closed: false,
            }),
            arrived: Condvar::new(),
            stats: Mutex::new(stats),
            next_id: AtomicU64::new(0),
            delay_us: AtomicU64::new(cfg.max_batch_delay.as_micros() as u64),
            row_seconds_bits: AtomicU64::new(0f64.to_bits()),
            outstanding: Mutex::new(0),
            all_done: Condvar::new(),
            lane,
            cfg,
        });
        let batcher = {
            let entry = entry.clone();
            let inner = self.inner.clone();
            std::thread::Builder::new()
                .name(format!("fx-serve-batcher-{name}"))
                .spawn(move || batcher_loop(&entry, &inner.sched))
                .map_err(|e| {
                    // Roll the half-registration back before erroring.
                    self.inner.sched.remove_lane(lane);
                    Error::Build(format!("cannot spawn batcher: {e}"))
                })?
        };
        entries.map.insert(name.to_string(), entry.clone());
        entries.batchers.insert(name.to_string(), batcher);
        drop(entries);
        Ok(Handle::new(entry))
    }

    /// Hot-swap the model under `name` to `gm` — **zero downtime**:
    ///
    /// 1. `gm` is admission-checked (it must expose the same input
    ///    interface — trailing dims — as the registered model) and its
    ///    execution plan is compiled, all off the serving path; requests
    ///    keep flowing to the old version meanwhile. `gm` runs as given,
    ///    with the model's [`ModelConfig::exec_config`]: a fused model
    ///    is swapped for a graph the caller has fused too.
    /// 2. The entry's version slot flips atomically: batches formed
    ///    from this instant run the new version. No batch ever mixes
    ///    versions (a batch captures its version exactly once).
    /// 3. The call blocks until every batch formed against the old
    ///    version has finished (in-flight drain), then drops the old
    ///    graph and returns the new version number.
    pub fn swap(&self, name: &str, gm: GraphModule) -> Result<u64> {
        let entry = self.lookup(name)?;
        let trailing = batch_polymorphic(&gm, &entry.sample_shapes)
            .map_err(|e| Error::Build(format!("swap rejected: {e}")))?;
        if trailing != entry.trailing {
            return Err(Error::Build(format!(
                "swap rejected: replacement changes the model's input interface \
                 (trailing dims {:?} vs registered {:?})",
                trailing, entry.trailing
            )));
        }
        gm.exec_plan().map_err(|e| {
            Error::Build(format!("swap rejected: execution plan does not compile: {e}"))
        })?;
        let old = entry.slot.swap(gm);
        // Every batch formed against `old` holds a clone of it and drops
        // it in `batch_finished`, under `outstanding`'s lock: once the
        // count is 1 this call holds the last reference, and the old
        // graph goes with it.
        let mut n = entry.outstanding.lock().unwrap_or_else(|p| p.into_inner());
        while Arc::strong_count(&old) > 1 {
            n = entry.all_done.wait(n).unwrap_or_else(|p| p.into_inner());
        }
        drop(n);
        let new_version = old.number + 1;
        entry
            .stats
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .swaps += 1;
        self.inner.total_swaps.fetch_add(1, Ordering::Relaxed);
        Ok(new_version)
    }

    /// Remove the model under `name`: stop accepting requests, drain
    /// its queue and in-flight batches (every request still gets its
    /// response), close its lane, and return its final stats.
    pub fn unregister(&self, name: &str) -> Result<crate::ServeStats> {
        let (entry, batcher) = {
            let mut entries = self.inner.entries.lock().unwrap_or_else(|p| p.into_inner());
            let entry = entries
                .map
                .remove(name)
                .ok_or_else(|| Error::UnknownModel(name.to_string()))?;
            let batcher = entries.batchers.remove(name);
            (entry, batcher)
        };
        entry.close_queue();
        if let Some(b) = batcher {
            let _ = b.join();
        }
        entry.wait_batches_done();
        // The lane is empty now (no outstanding batches); anything left
        // is a failure-path leftover whose Drop answers `Shutdown`.
        drop(self.inner.sched.remove_lane(entry.lane));
        let final_stats = entry.stats_now().clone();
        self.inner
            .retired
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .merge(&final_stats);
        Ok(final_stats.snapshot())
    }

    /// A client handle for the model under `name`.
    pub fn handle(&self, name: &str) -> Result<Handle> {
        Ok(Handle::new(self.lookup(name)?))
    }

    /// Names of every registered model, sorted.
    pub fn models(&self) -> Vec<String> {
        let entries = self.inner.entries.lock().unwrap_or_else(|p| p.into_inner());
        let mut names: Vec<String> = entries.map.keys().cloned().collect();
        names.sort();
        names
    }

    /// A point-in-time snapshot across every registered model, plus an
    /// exact aggregate (which also folds in models unregistered
    /// earlier).
    pub fn stats(&self) -> RegistrySnapshot {
        let entries: Vec<Arc<ModelEntry>> = {
            let e = self.inner.entries.lock().unwrap_or_else(|p| p.into_inner());
            e.map.values().cloned().collect()
        };
        self.snapshot_of(&entries)
    }

    /// Graceful shutdown: stop accepting requests on every model, drain
    /// all queues and in-flight batches (each request still gets its
    /// response), join every thread, and return the final snapshot.
    pub fn shutdown(mut self) -> RegistrySnapshot {
        self.stop();
        let entries: Vec<Arc<ModelEntry>> = {
            let e = self.inner.entries.lock().unwrap_or_else(|p| p.into_inner());
            e.map.values().cloned().collect()
        };
        self.snapshot_of(&entries)
    }

    pub(crate) fn lookup(&self, name: &str) -> Result<Arc<ModelEntry>> {
        self.inner
            .entries
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .map
            .get(name)
            .cloned()
            .ok_or_else(|| Error::UnknownModel(name.to_string()))
    }

    fn snapshot_of(&self, entries: &[Arc<ModelEntry>]) -> RegistrySnapshot {
        let mut models: Vec<ModelStats> = entries.iter().map(|e| e.model_stats()).collect();
        models.sort_by(|a, b| a.name.cmp(&b.name));
        let mut agg = self
            .inner
            .retired
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone();
        agg.pool_base = self.inner.pool_base;
        for e in entries {
            let st = e.stats.lock().unwrap_or_else(|p| p.into_inner());
            agg.merge(&st);
        }
        agg.batch_delay_us = 0; // meaningless across models
        RegistrySnapshot {
            models,
            aggregate: agg.snapshot(),
            total_swaps: self.inner.total_swaps.load(Ordering::Relaxed),
        }
    }

    /// Close queues, join batchers, close the scheduler, join workers,
    /// and answer any leftover batches. Idempotent.
    fn stop(&mut self) {
        self.inner.closed.store(true, Ordering::SeqCst);
        let (entries, batchers): (Vec<Arc<ModelEntry>>, Vec<JoinHandle<()>>) = {
            let mut e = self.inner.entries.lock().unwrap_or_else(|p| p.into_inner());
            (
                e.map.values().cloned().collect(),
                e.batchers.drain().map(|(_, h)| h).collect(),
            )
        };
        for entry in &entries {
            entry.close_queue();
        }
        // Batchers drain their queues into the scheduler, then exit.
        for b in batchers {
            let _ = b.join();
        }
        // Workers drain everything already queued, then see None.
        self.inner.sched.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // If a worker died (a panic outside the run), batches may be left in
        // the lanes; dropping them answers their requests `Shutdown`.
        for entry in &entries {
            drop(self.inner.sched.remove_lane(entry.lane));
            entry.wait_batches_done();
        }
    }
}

impl Drop for Registry {
    fn drop(&mut self) {
        self.stop();
    }
}
