//! Per-model serving machinery: request queue, batcher loop, shared
//! worker loop. [`Registry`](crate::Registry) owns and wires it.
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
//!                  Executor run → split outputs → respond
//! ```
//!
//! Responses travel back over per-request channels, so `infer` is a
//! plain blocking call from any number of client threads. The
//! queue/batcher/worker state lives per *model entry*
//! ([`crate::registry::ModelEntry`]).
//!
//! Execution is the one [`Executor`], run on the graph the model was
//! registered (or last swapped) with, under the
//! [`ExecConfig`](fx_core::ExecConfig) it was registered with. The plan
//! is compiled at registration and at each hot swap, and the version —
//! the graph — is shared by every worker through the entry's version
//! slot. A fused model is a graph the caller fused (`fx_backend::fuse`)
//! before handing it over.

use crate::error::{Error, Result};
use crate::registry::ModelEntry;
use crate::scheduler::Scheduler;
use crate::stats::ServeStats;
use crate::swap::Version;
use fx_core::{Executor, Value};
use fx_tensor::ops::{split_batch, stack_batch};
use fx_tensor::Tensor;
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::Instant;

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
/// model version was captured exactly once, at formation — a batch
/// can never mix model versions.
///
/// Dropping a batch settles all its accounting: leftover requests (a
/// worker died before running it) are answered [`Error::Shutdown`], the
/// captured version is handed back to its slot, and the entry's
/// outstanding-batch count decrements. `run_batch` takes the requests
/// out first, so on the normal path the drop only settles accounting.
pub(crate) struct Batch {
    pub(crate) entry: Arc<ModelEntry>,
    pub(crate) requests: Vec<Request>,
    /// Taken only by `Drop`, which hands it back to the version slot.
    pub(crate) version: Option<Arc<Version>>,
}

impl Drop for Batch {
    fn drop(&mut self) {
        for req in self.requests.drain(..) {
            respond(&self.entry, req, Err(Error::Shutdown));
        }
        if let Some(version) = self.version.take() {
            self.entry.slot.release(version);
        }
        self.entry.batch_finished();
    }
}

/// A cheap, cloneable client of one served model. Safe to use from many
/// threads at once. Obtained from
/// [`Registry::register`](crate::Registry::register) or
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
            if q.q.len() >= entry.cfg.queue_depth {
                let depth = q.q.len();
                drop(q);
                let mut stats = entry.stats.lock().unwrap_or_else(|p| p.into_inner());
                stats.rejected_queue_full += 1;
                return Err(Error::QueueFull {
                    model: entry.name.clone(),
                    depth,
                    capacity: entry.cfg.queue_depth,
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
        self.entry.stats_now().snapshot()
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
            if rows >= entry.cfg.max_batch_size || q.closed {
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
            if !requests.is_empty() && rows + front_rows > entry.cfg.max_batch_size {
                break;
            }
            let Some(r) = q.q.pop_front() else { break };
            rows += r.rows;
            requests.push(r);
            if rows >= entry.cfg.max_batch_size {
                break;
            }
        }
        drop(q);
        if !requests.is_empty() {
            // Capture the current version exactly once per batch: the
            // single point that guarantees a batch never mixes model
            // versions across a hot swap.
            let version = entry.slot.acquire();
            entry.batch_started();
            let batch = Batch {
                entry: entry.clone(),
                requests,
                version: Some(version),
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
    let Some(budget) = entry.cfg.p99_budget else {
        return;
    };
    let budget_s = budget.as_secs_f64();
    let max_us = entry.cfg.max_batch_delay.as_micros() as u64;
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
/// it closes and drains. A kernel panic is already an error of the run
/// (the executor contains it); a panic anywhere else in the batch is
/// contained here — the batch's requests are answered
/// (`Error::Shutdown` via the batch's Drop during unwind) and the
/// worker lives on to serve other models.
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

    // 3. One executor run over the whole batch, on the version captured
    //    at batch formation (shared by all workers; never mixed). The
    //    requests are parked back inside the batch across the call so
    //    that a panic unwinds through `Batch`'s Drop — each client is
    //    then answered `Error::Shutdown` and counted, instead of being
    //    stranded on a dead channel.
    let rows: usize = valid.iter().map(|r| r.rows).sum();
    batch.requests = valid;
    #[cfg(test)]
    if entry.name == tests::PANICS_AFTER_STACKING {
        panic!("fault injected after stacking");
    }
    let Some(version) = &batch.version else { return };
    let t0 = Instant::now();
    let run = Executor::with_config(&version.gm, entry.cfg.exec).run_profiled(&stacked);
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

#[cfg(test)]
mod tests {
    use crate::{Error, Registry};
    use fx_core::{func, symbolic_trace_fn, Executor, Value};
    use fx_tensor::Tensor;
    use std::sync::mpsc;
    use std::time::Duration;

    /// A model registered under this name panics in `run_batch` after
    /// its requests are stacked and parked in the batch: the one place a
    /// fault reaches `worker_loop`'s `catch_unwind` and `Batch`'s `Drop`.
    pub(super) const PANICS_AFTER_STACKING: &str = "fault:panics-after-stacking";

    #[test]
    fn a_panicking_batch_answers_shutdown_and_its_worker_serves_on() {
        let gm = symbolic_trace_fn(1, |xs| func::relu(&xs[0])).unwrap();
        let registry = Registry::builder().workers(1).build().unwrap();
        let faulty = registry.register(PANICS_AFTER_STACKING, gm.clone(), &[vec![1, 4]]).unwrap();
        let healthy = registry.register("relu", gm.clone(), &[vec![1, 4]]).unwrap();
        let x = Tensor::from_vec(vec![-1.5, 0.0, 2.25, -0.0], &[1, 4]);

        assert!(matches!(faulty.infer(vec![x.clone()]), Err(Error::Shutdown)));
        let stats = faulty.stats();
        assert_eq!((stats.requests_ok, stats.requests_err), (0, 1), "{stats}");

        // The one worker caught the panic and serves the next model; a
        // dead worker would leave this request waiting forever.
        let want = Executor::new(&gm).run(&[Value::Tensor(x.clone())]).unwrap();
        let (tx, rx) = mpsc::channel();
        let client = std::thread::spawn(move || tx.send(healthy.infer(vec![x])));
        let got = rx.recv_timeout(Duration::from_secs(60)).expect("the worker died").unwrap();
        client.join().unwrap().unwrap();
        let bits = |t: &Tensor| t.as_f32().unwrap().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got[0]), bits(want.as_tensor().unwrap()));
        let snap = registry.shutdown();
        assert_eq!(snap.aggregate.requests_ok, 1);
        assert_eq!(snap.aggregate.requests_err, 1);
    }
}
