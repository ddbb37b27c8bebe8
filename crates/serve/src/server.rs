//! Per-model serving machinery — request queue, batcher loop, shared
//! worker loop — plus the single-model [`Server`] wrapper.
//!
//! ```text
//!  Handle::infer ──►  entry queue (bounded, Error::QueueFull past depth)
//!                       │
//!                  batcher thread (one per model): pop first request,
//!                  coalesce until max_batch_size rows or the effective
//!                  (possibly adapted) batch delay; capture the model's
//!                  current version exactly once per batch
//!                       │  Batch
//!                  scheduler (deficit round-robin across models)
//!                       │
//!                  shared worker pool: validate each request → evict
//!                  offenders with a typed error → stack dim 0 → one
//!                  backend run → split outputs → respond
//! ```
//!
//! Responses travel back over per-request channels, so `infer` is a
//! plain blocking call from any number of client threads. Since PR 8
//! the queue/batcher/worker state lives per *model entry*
//! ([`crate::registry::ModelEntry`]); [`Server`] is now a thin
//! single-model wrapper over a one-entry [`Registry`].
//!
//! Execution is pluggable: each entry runs whatever
//! [`ExecutionBackend`](fx_core::ExecutionBackend) it was registered
//! with — the plan-cached `ExecutorBackend` by default. The backend is
//! `prepare`d at registration (and again at each hot swap) and the
//! resulting [`PreparedModel`](fx_core::PreparedModel) is shared by
//! every worker through the entry's version slot.

use crate::error::{Error, Result};
use crate::registry::{ModelConfig, ModelEntry, Registry, RegistryBuilder};
use crate::scheduler::Scheduler;
use crate::stats::ServeStats;
use crate::swap::PreparedVersion;
use fx_core::{ExecConfig, ExecutionBackend, GraphModule, Value};
use fx_tensor::ops::{split_batch, stack_batch};
use fx_tensor::Tensor;
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// One queued inference request.
pub(crate) struct Request {
    pub(crate) id: u64,
    pub(crate) inputs: Vec<Tensor>,
    pub(crate) rows: usize,
    pub(crate) enqueued: Instant,
    pub(crate) resp: mpsc::Sender<Result<Vec<Tensor>>>,
}

pub(crate) struct QueueState {
    pub(crate) q: VecDeque<Request>,
    pub(crate) closed: bool,
}

/// One coalesced batch: the unit the scheduler hands to workers. The
/// prepared version was captured exactly once, at formation — a batch
/// can never mix model versions.
///
/// Dropping a batch settles all its accounting: leftover requests (a
/// worker died before running it) are answered [`Error::Shutdown`], the
/// captured version releases its in-flight charge, and the entry's
/// outstanding-batch count decrements. `run_batch` takes the requests
/// out first, so on the normal path the drop only settles accounting.
pub(crate) struct Batch {
    pub(crate) entry: Arc<ModelEntry>,
    pub(crate) requests: Vec<Request>,
    pub(crate) prepared: Arc<PreparedVersion>,
}

impl Drop for Batch {
    fn drop(&mut self) {
        for req in self.requests.drain(..) {
            respond(&self.entry, req, Err(Error::Shutdown));
        }
        self.entry.slot.release(&self.prepared);
        self.entry.batch_finished();
    }
}

/// A cheap, cloneable client of one served model. Safe to use from many
/// threads at once. Obtained from [`Server::handle`],
/// [`Registry::register`](crate::Registry::register), or
/// [`Registry::handle`](crate::Registry::handle).
#[derive(Clone)]
pub struct Handle {
    entry: Arc<ModelEntry>,
}

impl Handle {
    pub(crate) fn new(entry: Arc<ModelEntry>) -> Handle {
        Handle { entry }
    }

    /// The name this model is registered under.
    pub fn model(&self) -> &str {
        &self.entry.name
    }

    /// The model version new requests will be served by (bumped by each
    /// completed hot swap; starts at 1).
    pub fn version(&self) -> u64 {
        self.entry.slot.current_version()
    }

    /// Submit one request — one tensor per model input, each with a
    /// leading batch dimension (a single sample is `[1, ...]`) — and
    /// block until its response.
    ///
    /// Returns the model's output tensors (one per output), covering
    /// exactly this request's rows, bit-identical to a solo
    /// `Executor::run` of the same input on whichever model version
    /// served the batch. Backpressure surfaces as [`Error::QueueFull`]
    /// (naming the model) without blocking; a mismatched shape comes
    /// back as [`Error::ShapeMismatch`]; if the serving threads die
    /// after accepting the request, it is answered [`Error::Shutdown`]
    /// rather than left hanging.
    pub fn infer(&self, inputs: Vec<Tensor>) -> Result<Vec<Tensor>> {
        let entry = &*self.entry;
        let n_inputs = entry.trailing.len();
        if inputs.len() != n_inputs {
            return Err(Error::BadRequest(format!(
                "model takes {n_inputs} input(s), request has {}",
                inputs.len()
            )));
        }
        let rows = match inputs.first() {
            Some(t) if t.rank() > 0 => t.shape()[0],
            Some(_) => {
                return Err(Error::BadRequest(
                    "input 0 is 0-d; requests need a leading batch dimension".to_string(),
                ))
            }
            // Nullary models are rejected at build by batch_polymorphic.
            None => return Err(Error::BadRequest("model takes no inputs".to_string())),
        };
        if rows == 0 {
            return Err(Error::BadRequest("request has 0 rows".to_string()));
        }
        for (i, t) in inputs.iter().enumerate() {
            if t.rank() == 0 || t.shape()[0] != rows {
                return Err(Error::BadRequest(format!(
                    "input {i} has leading extent {:?}; all inputs of one request must \
                     share leading extent {rows}",
                    t.shape().first()
                )));
            }
        }

        let (tx, rx) = mpsc::channel();
        {
            let mut q = entry.queue.lock().unwrap_or_else(|p| p.into_inner());
            if q.closed {
                return Err(Error::Closed);
            }
            if q.q.len() >= entry.queue_depth {
                let depth = q.q.len();
                drop(q);
                let mut stats = entry.stats.lock().unwrap_or_else(|p| p.into_inner());
                stats.rejected_queue_full += 1;
                return Err(Error::QueueFull {
                    model: entry.name.clone(),
                    depth,
                    capacity: entry.queue_depth,
                });
            }
            q.q.push_back(Request {
                id: entry.next_id.fetch_add(1, Ordering::Relaxed),
                inputs,
                rows,
                enqueued: Instant::now(),
                resp: tx,
            });
            let depth = q.q.len();
            drop(q);
            let mut stats = entry.stats.lock().unwrap_or_else(|p| p.into_inner());
            if depth > stats.queue_high_water {
                stats.queue_high_water = depth;
            }
        }
        entry.arrived.notify_all();
        // A dropped sender without a response means the serving threads
        // died with the request in hand — surface that as a typed
        // `Shutdown`, never a hang (graceful shutdown drains with real
        // responses; `Closed` is only judged at submission).
        rx.recv().map_err(|_| Error::Shutdown)?
    }

    /// A point-in-time snapshot of this model's statistics.
    pub fn stats(&self) -> ServeStats {
        let mut st = self.entry.stats.lock().unwrap_or_else(|p| p.into_inner());
        st.batch_delay_us = self.entry.delay_us.load(Ordering::Relaxed);
        st.snapshot()
    }
}

/// Builder for a single-model [`Server`] wrapping one compiled
/// [`GraphModule`] — a thin shim over [`Registry`] kept for the common
/// one-model case and backwards compatibility.
///
/// `sample_shapes` gives one full tensor shape per model input (any
/// representative batch extent); `build` runs the
/// [`fx_passes::batch_polymorphic`] admission check against them and
/// rejects models whose graph hard-codes the batch dimension.
pub struct ServerBuilder {
    gm: GraphModule,
    sample_shapes: Vec<Vec<usize>>,
    cfg: ModelConfig,
    workers: usize,
}

impl ServerBuilder {
    /// Start configuring a server for `gm`. Defaults: queue depth 256,
    /// max batch size 8 rows, max batch delay 2 ms, 1 worker, the
    /// plan-cached `ExecutorBackend` with the environment's
    /// [`ExecConfig`] (the process's kernel threads unless `FX_THREADS`
    /// says otherwise).
    pub fn new(gm: GraphModule, sample_shapes: &[Vec<usize>]) -> ServerBuilder {
        ServerBuilder {
            gm,
            sample_shapes: sample_shapes.to_vec(),
            cfg: ModelConfig::default(),
            workers: 1,
        }
    }

    /// Bound on queued (not yet batched) requests; submissions past it
    /// get [`Error::QueueFull`]. Clamped to ≥ 1.
    pub fn queue_depth(mut self, n: usize) -> ServerBuilder {
        self.cfg = self.cfg.queue_depth(n);
        self
    }

    /// Maximum stacked rows per batched run. The batcher dispatches as
    /// soon as a batch reaches this size. Clamped to ≥ 1.
    pub fn max_batch_size(mut self, rows: usize) -> ServerBuilder {
        self.cfg = self.cfg.max_batch_size(rows);
        self
    }

    /// How long the batcher waits for more requests after the first one
    /// arrives, trading latency for batch size. Zero means "take
    /// whatever is already queued".
    pub fn max_batch_delay(mut self, d: Duration) -> ServerBuilder {
        self.cfg = self.cfg.max_batch_delay(d);
        self
    }

    /// Target p99 latency: enables adaptive batching, which tunes the
    /// effective batch delay between 0 and `max_batch_delay` to hold
    /// this budget (see [`ModelConfig::p99_budget`]).
    pub fn p99_budget(mut self, budget: Duration) -> ServerBuilder {
        self.cfg = self.cfg.p99_budget(budget);
        self
    }

    /// Number of batch-executing worker threads (distinct batches run
    /// concurrently). Clamped to ≥ 1.
    pub fn workers(mut self, n: usize) -> ServerBuilder {
        self.workers = n.max(1);
        self
    }

    /// Kernel threads each worker's batched run uses, set per run so
    /// workers do not share one process setting (`0` = the process
    /// setting). Shorthand for setting [`ExecConfig::threads`] via
    /// [`ServerBuilder::exec_config`].
    pub fn executor_threads(mut self, n: usize) -> ServerBuilder {
        self.cfg.exec.threads = n;
        self
    }

    /// Full execution configuration (threads, memory planning, fusion)
    /// handed to the backend's `prepare_with` at build time. Replaces
    /// any prior [`ServerBuilder::executor_threads`] setting.
    pub fn exec_config(mut self, cfg: ExecConfig) -> ServerBuilder {
        self.cfg = self.cfg.exec_config(cfg);
        self
    }

    /// Serve through `backend` instead of the default
    /// `ExecutorBackend`. Any [`ExecutionBackend`] works — e.g.
    /// `fx_backend::EngineBackend::new()`, which runs the AoT fusion
    /// passes before preparing the same executor and (with
    /// `ExecConfig::fusion` off) serves traffic bit-identically.
    pub fn with_backend(mut self, backend: Arc<dyn ExecutionBackend>) -> ServerBuilder {
        self.cfg = self.cfg.backend(backend);
        self
    }

    /// Run the admission check, prepare the execution backend (graph
    /// passes and plan compilation happen here, not on the first
    /// request), and spawn the batcher and worker threads.
    pub fn build(self) -> Result<Server> {
        let registry = RegistryBuilder::new().workers(self.workers).build()?;
        let handle =
            registry.register_with(Server::MODEL, self.gm, &self.sample_shapes, self.cfg)?;
        Ok(Server { registry, handle })
    }
}

/// A running single-model inference server: a one-entry [`Registry`].
/// Obtain cloneable [`Handle`]s with [`Server::handle`]; hot-swap the
/// model with [`Server::swap`]; stop it with [`Server::shutdown`]
/// (drains all queued and in-flight work first).
pub struct Server {
    registry: Registry,
    handle: Handle,
}

impl Server {
    /// The name the wrapped model is registered under.
    pub const MODEL: &'static str = "model";

    /// Configure a server for `gm`; see [`ServerBuilder::new`].
    pub fn builder(gm: GraphModule, sample_shapes: &[Vec<usize>]) -> ServerBuilder {
        ServerBuilder::new(gm, sample_shapes)
    }

    /// A cloneable, thread-safe client handle.
    pub fn handle(&self) -> Handle {
        self.handle.clone()
    }

    /// Hot-swap the served model to `gm` with zero downtime; see
    /// [`Registry::swap`]. Returns the new version number.
    pub fn swap(&self, gm: GraphModule) -> Result<u64> {
        self.registry.swap(Self::MODEL, gm)
    }

    /// Graceful shutdown: stop accepting new requests, drain every
    /// queued request through the batcher and workers (each still gets
    /// its response), join all threads, and return the final stats.
    pub fn shutdown(self) -> ServeStats {
        let snap = self.registry.shutdown();
        snap.models
            .into_iter()
            .find(|m| m.name == Self::MODEL)
            .map(|m| m.stats)
            .unwrap_or(snap.aggregate)
    }
}

/// The per-model batcher: pop the oldest request, then coalesce
/// follow-ups until the batch is full or the effective batch delay
/// elapses; capture the model's current version; hand the batch to the
/// shared scheduler. Runs the adaptive-delay control loop when the
/// model has a p99 budget. On close, keeps going until the queue is
/// fully drained, then exits.
pub(crate) fn batcher_loop(entry: &Arc<ModelEntry>, sched: &Scheduler<Batch>) {
    loop {
        let mut q = entry.queue.lock().unwrap_or_else(|p| p.into_inner());
        // Wait for work (or close with an empty queue).
        loop {
            if !q.q.is_empty() {
                break;
            }
            if q.closed {
                return;
            }
            q = entry.arrived.wait(q).unwrap_or_else(|p| p.into_inner());
        }
        // First request opens the batch; linger up to the effective
        // delay for more, unless the batch is already full or we're
        // draining.
        let deadline = Instant::now() + entry.current_delay();
        loop {
            let rows: usize = q.q.iter().map(|r| r.rows).sum();
            if rows >= entry.max_batch_size || q.closed {
                break;
            }
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (guard, timeout) = entry
                .arrived
                .wait_timeout(q, deadline - now)
                .unwrap_or_else(|p| p.into_inner());
            q = guard;
            if timeout.timed_out() {
                break;
            }
        }
        // Take whole requests until the row budget is spent. A single
        // request larger than the budget still ships alone. Peeking and
        // popping are separate borrows, so pop while the peek is still
        // in scope rather than re-fronting and asserting the queue is
        // non-empty — no panic path even if the loop shape changes.
        let mut requests = Vec::new();
        let mut rows = 0usize;
        loop {
            let Some(front_rows) = q.q.front().map(|r| r.rows) else {
                break;
            };
            if !requests.is_empty() && rows + front_rows > entry.max_batch_size {
                break;
            }
            let Some(r) = q.q.pop_front() else { break };
            rows += r.rows;
            requests.push(r);
            if rows >= entry.max_batch_size {
                break;
            }
        }
        drop(q);
        if !requests.is_empty() {
            // Capture the current version exactly once per batch: the
            // single point that guarantees a batch never mixes model
            // versions across a hot swap.
            let prepared = entry.slot.acquire();
            entry.batch_started();
            let batch = Batch {
                entry: entry.clone(),
                requests,
                prepared,
            };
            // Charged against the model's lane: rows × the observed
            // per-row EWMA.
            let cost_s = rows as f64 * entry.row_seconds();
            if let Err(batch) = sched.submit(entry.lane, cost_s, batch) {
                // Scheduler or lane closed under us (shutdown racing a
                // drain): the batch's Drop answers every request with a
                // typed `Shutdown` and settles the accounting.
                drop(batch);
            }
        }
        adapt_batch_delay(entry);
    }
}

/// Adaptive-batching control loop (runs in the batcher thread, so it
/// costs the serving path nothing): once enough fresh latency samples
/// accumulate, compare the windowed p99 against the model's budget.
/// Over budget → halve the delay (shed coalescing latency fast); under
/// half the budget → double it back toward the configured maximum
/// (recover throughput). The window then resets.
fn adapt_batch_delay(entry: &ModelEntry) {
    const WINDOW: u64 = 32;
    let Some(budget) = entry.p99_budget else {
        return;
    };
    let budget_s = budget.as_secs_f64();
    let max_us = entry.max_batch_delay.as_micros() as u64;
    let mut stats = entry.stats.lock().unwrap_or_else(|p| p.into_inner());
    if stats.recent.count() < WINDOW {
        return;
    }
    let p99 = stats.recent.quantile(0.99);
    stats.recent.clear();
    let cur = entry.delay_us.load(Ordering::Relaxed);
    let new = if p99 > budget_s {
        cur / 2
    } else if p99 < 0.5 * budget_s {
        // Regrow from 0 via max_us/8 so the delay can recover after
        // fully collapsing.
        (cur.saturating_mul(2)).clamp((max_us / 8).max(1), max_us)
    } else {
        cur
    };
    if new != cur {
        entry.delay_us.store(new, Ordering::Relaxed);
        stats.batch_delay_us = new;
    }
}

/// A shared worker: pull weighted-fair batches from the scheduler until
/// it closes and drains. A panicking backend is contained — the batch's
/// requests are answered (`Error::Shutdown` via the batch's Drop during
/// unwind) and the worker lives on to serve other models.
pub(crate) fn worker_loop(sched: &Scheduler<Batch>) {
    while let Some(batch) = sched.next() {
        let _ = std::panic::catch_unwind(AssertUnwindSafe(|| run_batch(batch)));
    }
}

/// Record `req`'s fate in the entry's stats, then answer it. Counting
/// first means a client that reads `stats()` after its reply always
/// sees its own request counted.
pub(crate) fn respond(entry: &ModelEntry, req: Request, result: Result<Vec<Tensor>>) {
    {
        let mut stats = entry.stats.lock().unwrap_or_else(|p| p.into_inner());
        if result.is_ok() {
            stats.requests_ok += 1;
        } else {
            stats.requests_err += 1;
        }
        stats.record_latency(req.enqueued.elapsed());
    }
    // A receiver that hung up just discards the response.
    let _ = req.resp.send(result);
}

/// Execute one coalesced batch: validate, evict offenders with typed
/// errors, stack along dim 0, run once on the batch's captured version,
/// split the outputs back per request.
fn run_batch(mut batch: Batch) {
    let entry = batch.entry.clone();
    let requests = std::mem::take(&mut batch.requests);

    // 1. Shape admission per request — a mismatch answers only that
    //    request; the rest of the batch is unaffected.
    let mut valid = Vec::with_capacity(requests.len());
    for req in requests {
        match validate_request(&entry, &req) {
            Ok(()) => valid.push(req),
            Err(e) => respond(&entry, req, Err(e)),
        }
    }

    // 2. Stack each placeholder across requests. Validation checked
    //    shapes against the canonical dims, but dtype (or a future
    //    invariant) can still evict a member here: `stack_batch` names
    //    the offender by index, so evict exactly it and retry.
    let stacked = loop {
        if valid.is_empty() {
            return;
        }
        match stack_requests(&valid, entry.trailing.len()) {
            Ok(s) => break s,
            Err((Some(victim), err)) => {
                let req = valid.remove(victim);
                respond(&entry, req, Err(err));
            }
            Err((None, err)) => {
                for req in valid {
                    respond(&entry, req, Err(err.clone()));
                }
                return;
            }
        }
    };

    // 3. One backend run over the whole batch, on the version captured
    //    at batch formation (shared by all workers; never mixed). The
    //    requests are parked back inside the batch across the call so
    //    that a panicking backend unwinds through `Batch`'s Drop — each
    //    client is then answered `Error::Shutdown` and counted, instead
    //    of being stranded on a dead channel.
    let rows: usize = valid.iter().map(|r| r.rows).sum();
    batch.requests = valid;
    let t0 = Instant::now();
    let run = batch.prepared.prepared.run_profiled(&stacked);
    let batch_seconds = t0.elapsed().as_secs_f64();
    let mut valid = std::mem::take(&mut batch.requests);
    let (out, profile) = match run {
        Ok(v) => v,
        Err(e) => {
            let err = Error::Exec(e);
            for req in valid {
                respond(&entry, req, Err(err.clone()));
            }
            return;
        }
    };
    // Feed the scheduler's cost model with the measured time.
    entry.observe_batch(rows, batch_seconds);
    {
        let mut stats = entry.stats.lock().unwrap_or_else(|p| p.into_inner());
        stats.record_batch(rows, batch_seconds);
        if profile.plan_cache_hit {
            stats.plan_cache_hits += 1;
        }
        stats.plan_compiles = profile.plan_compiles;
    }

    // 4. Split the batched outputs back into per-request rows.
    let sizes: Vec<usize> = valid.iter().map(|r| r.rows).collect();
    match split_outputs(&out, &sizes) {
        Ok(mut per_request) => {
            // Respond in reverse so we can pop without shifting.
            while let (Some(req), Some(outs)) = (valid.pop(), per_request.pop()) {
                respond(&entry, req, Ok(outs));
            }
        }
        Err(err) => {
            for req in valid {
                respond(&entry, req, Err(err.clone()));
            }
        }
    }
}

/// Check one request's tensors against the canonical trailing dims.
fn validate_request(entry: &ModelEntry, req: &Request) -> Result<()> {
    for (i, (t, want)) in req.inputs.iter().zip(&entry.trailing).enumerate() {
        if t.rank() == 0 || &t.shape()[1..] != want.as_slice() {
            return Err(Error::ShapeMismatch {
                placeholder: i,
                expected: want.clone(),
                got: t.shape().to_vec(),
            });
        }
    }
    Ok(())
}

/// Stack placeholder `p` of every request along dim 0, for all `p`.
/// On failure returns the offending request's index (when the tensor
/// layer names one) so the caller can evict it.
fn stack_requests(
    valid: &[Request],
    n_placeholders: usize,
) -> std::result::Result<Vec<Value>, (Option<usize>, Error)> {
    let mut stacked = Vec::with_capacity(n_placeholders);
    for p in 0..n_placeholders {
        let parts: Vec<&Tensor> = valid.iter().map(|r| &r.inputs[p]).collect();
        match stack_batch(&parts) {
            Ok(t) => stacked.push(Value::Tensor(t)),
            Err(fx_tensor::Error::BatchMismatch { index, .. }) => {
                let got = valid[index].inputs[p].shape().to_vec();
                return Err((
                    Some(index),
                    Error::ShapeMismatch {
                        placeholder: p,
                        expected: valid
                            .iter()
                            .find(|r| r.id != valid[index].id)
                            .map(|r| r.inputs[p].shape()[1..].to_vec())
                            .unwrap_or_default(),
                        got,
                    },
                ));
            }
            Err(e) => return Err((None, Error::Exec(fx_core::Error::Tensor(e)))),
        }
    }
    Ok(stacked)
}

/// Slice the batched output back into per-request tensors: row ranges
/// of every output tensor, in request order.
fn split_outputs(out: &Value, sizes: &[usize]) -> Result<Vec<Vec<Tensor>>> {
    let outputs: Vec<&Tensor> = match out {
        Value::Tensor(t) => vec![t],
        Value::Tuple(items) | Value::List(items) => items
            .iter()
            .map(|v| {
                v.as_tensor().map_err(|_| {
                    Error::Exec(fx_core::Error::Graph(
                        "batched output contains a non-tensor element".to_string(),
                    ))
                })
            })
            .collect::<Result<_>>()?,
        _ => {
            return Err(Error::Exec(fx_core::Error::Graph(format!(
                "batched output is not splittable (got {})",
                out.kind_name()
            ))))
        }
    };
    let mut per_request: Vec<Vec<Tensor>> = vec![Vec::with_capacity(outputs.len()); sizes.len()];
    for t in outputs {
        let pieces =
            split_batch(t, sizes).map_err(|e| Error::Exec(fx_core::Error::Tensor(e)))?;
        for (slot, piece) in per_request.iter_mut().zip(pieces) {
            slot.push(piece);
        }
    }
    Ok(per_request)
}
