//! Intra-op threading control, analogous to `OMP_NUM_THREADS` /
//! `torch.set_num_threads` in the paper's fusion evaluation (Appendix C
//! compares "Threaded" against "Unthreaded", i.e. `OMP_NUM_THREADS=1`).
//!
//! Parallel kernels used to spawn scoped threads on every call, which
//! made intra-op threading a net loss for ResNet-sized ops (a thread
//! spawn costs ~10µs; many conv GEMMs run in less). Kernels now share a
//! single lazily-started **persistent worker pool**: submitting a task
//! is a mutex push + condvar notify, and the submitting thread claims
//! chunks itself, so a saturated (or empty) pool degrades to inline
//! execution instead of deadlocking.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

static NUM_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Set the number of worker threads used by parallel kernels (GEMM,
/// convolution). `0` resets to the machine's available parallelism.
///
/// This caps how many pool workers a single kernel call will enlist; it
/// does not resize the pool itself, so flipping it back and forth is
/// cheap.
pub fn set_num_threads(n: usize) {
    NUM_THREADS.store(n, Ordering::Relaxed);
}

/// The number of worker threads parallel kernels will use.
pub fn num_threads() -> usize {
    let n = NUM_THREADS.load(Ordering::Relaxed);
    if n == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    } else {
        n
    }
}

/// One submitted kernel: `total` chunks claimed by atomic increment.
///
/// `body` is a lifetime-erased pointer to the caller's closure. It is
/// only dereferenced after a successful chunk claim, and the submitting
/// call does not return until `done == total`, so the pointee outlives
/// every dereference. A stale queue entry popped *after* the submitter
/// returned finds `next >= total` and never touches `body`.
struct Task {
    body: *const (dyn Fn(usize) + Sync),
    next: AtomicUsize,
    total: usize,
    done: Mutex<usize>,
    all_done: Condvar,
    panic_msg: Mutex<Option<String>>,
}

// SAFETY: `body` is only read through `&dyn Fn(usize) + Sync`, and the
// liveness protocol above keeps the pointee valid for every read.
unsafe impl Send for Task {}
unsafe impl Sync for Task {}

impl Task {
    /// Claim and run chunks until the task is exhausted. A panicking
    /// chunk is caught (pool workers must survive), recorded, and still
    /// counted as done so the submitter cannot hang.
    fn work(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.total {
                return;
            }
            let body = unsafe { &*self.body };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| body(i))) {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "kernel chunk panicked".to_string());
                *self.panic_msg.lock().unwrap() = Some(msg);
            }
            let mut done = self.done.lock().unwrap();
            *done += 1;
            if *done == self.total {
                self.all_done.notify_all();
            }
        }
    }
}

struct Pool {
    queue: Mutex<VecDeque<Arc<Task>>>,
    wake: Condvar,
    workers: usize,
}

/// The process-wide kernel pool, started on first parallel kernel call
/// with `available_parallelism - 1` detached workers (the submitting
/// thread is the N-th worker). A single-core host gets zero workers and
/// every kernel runs inline — same results, no spawns.
fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let workers = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .saturating_sub(1);
        let pool = Pool {
            queue: Mutex::new(VecDeque::new()),
            wake: Condvar::new(),
            workers,
        };
        for i in 0..workers {
            std::thread::Builder::new()
                .name(format!("fx-kernel-{i}"))
                .spawn(worker_loop)
                .expect("spawn kernel pool worker");
        }
        pool
    })
}

fn worker_loop() {
    let pool = pool();
    loop {
        let task = {
            let mut q = pool.queue.lock().unwrap();
            loop {
                if let Some(t) = q.pop_front() {
                    break t;
                }
                q = pool.wake.wait(q).unwrap();
            }
        };
        task.work();
    }
}

/// Number of persistent pool workers (excluding the submitting thread).
/// Does not start the pool.
pub fn pool_workers() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .saturating_sub(1)
}

/// Run `body(0) .. body(total-1)` with up to `helpers` pool workers
/// assisting the calling thread. Chunks are claimed atomically, the
/// caller participates, and the call returns only when every chunk has
/// finished. Panics in any chunk are re-raised on the caller.
fn pool_run(total: usize, helpers: usize, body: &(dyn Fn(usize) + Sync)) {
    debug_assert!(total >= 1);
    let pool = pool();
    let helpers = helpers.min(pool.workers).min(total.saturating_sub(1));
    if helpers == 0 {
        for i in 0..total {
            body(i);
        }
        return;
    }
    let task = Arc::new(Task {
        // SAFETY: erased to 'static; see the liveness protocol on `Task`.
        body: unsafe {
            std::mem::transmute::<*const (dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(
                body as *const _,
            )
        },
        next: AtomicUsize::new(0),
        total,
        done: Mutex::new(0),
        all_done: Condvar::new(),
        panic_msg: Mutex::new(None),
    });
    {
        let mut q = pool.queue.lock().unwrap();
        for _ in 0..helpers {
            q.push_back(Arc::clone(&task));
        }
    }
    pool.wake.notify_all();
    task.work();
    let mut done = task.done.lock().unwrap();
    while *done < task.total {
        done = task.all_done.wait(done).unwrap();
    }
    drop(done);
    let panicked = task.panic_msg.lock().unwrap().take();
    if let Some(msg) = panicked {
        std::panic::resume_unwind(Box::new(msg));
    }
}

/// Split `0..len` into contiguous chunks and run `body(range)` on each,
/// using the persistent pool when more than one thread is configured.
///
/// `body` receives disjoint ranges, so it may safely write disjoint
/// slices of a shared output (the callers split the *output* dimension).
pub fn parallel_chunks<F>(len: usize, body: F)
where
    F: Fn(std::ops::Range<usize>) + Sync,
{
    let threads = num_threads().min(len.max(1));
    if threads <= 1 || len < 2 {
        body(0..len);
        return;
    }
    let chunk = len.div_ceil(threads);
    let n_chunks = len.div_ceil(chunk);
    let run = |ci: usize| {
        let start = ci * chunk;
        let end = (start + chunk).min(len);
        body(start..end);
    };
    pool_run(n_chunks, threads - 1, &run);
}

/// Run `coordinator` on the calling thread while `workers` copies of
/// `worker(idx)` run on scoped threads, returning the coordinator's
/// result once **both** the coordinator and every worker have finished.
///
/// This is the inter-op counterpart to [`parallel_chunks`]: a
/// coordinator/worker-pool shape for graph-level parallelism, where the
/// caller hands out work (typically over channels) and workers must not
/// outlive the call. Workers are responsible for terminating when the
/// coordinator is done — e.g. by observing a closed channel. These stay
/// on scoped threads deliberately: inter-op workers *block* on channels,
/// and parking blockers in a bounded pool can deadlock under saturation,
/// while one spawn per executor run (not per op) is already amortized.
pub fn with_workers<W, C, R>(workers: usize, worker: W, coordinator: C) -> R
where
    W: Fn(usize) + Sync,
    C: FnOnce() -> R,
{
    std::thread::scope(|scope| {
        let worker = &worker;
        for idx in 0..workers {
            scope.spawn(move || worker(idx));
        }
        coordinator()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn with_workers_runs_pool_alongside_coordinator() {
        let (tx, rx) = std::sync::mpsc::channel::<usize>();
        let (out_tx, out_rx) = std::sync::mpsc::channel::<usize>();
        let rx = Mutex::new(rx);
        let total = with_workers(
            4,
            |_idx| {
                loop {
                    let job = { rx.lock().unwrap().recv() };
                    match job {
                        Ok(n) => out_tx.send(n * 2).unwrap(),
                        Err(_) => break,
                    }
                }
            },
            || {
                for n in 0..100 {
                    tx.send(n).unwrap();
                }
                drop(tx); // close the queue so workers exit
                (0..100).map(|_| out_rx.recv().unwrap()).sum::<usize>()
            },
        );
        assert_eq!(total, (0..100).map(|n| n * 2).sum());
    }

    #[test]
    fn parallel_chunks_covers_range_disjointly() {
        let seen = Mutex::new(vec![0u32; 103]);
        parallel_chunks(103, |r| {
            let mut guard = seen.lock().unwrap();
            for i in r {
                guard[i] += 1;
            }
        });
        assert!(seen.lock().unwrap().iter().all(|&c| c == 1));
    }

    #[test]
    fn parallel_chunks_covers_under_forced_threads() {
        // Force multi-thread submission even on a single-core host: the
        // pool may have zero workers, in which case the caller runs all
        // chunks inline — coverage must be identical either way.
        let prev = NUM_THREADS.load(Ordering::Relaxed);
        set_num_threads(4);
        let seen = Mutex::new(vec![0u32; 1009]);
        parallel_chunks(1009, |r| {
            let mut guard = seen.lock().unwrap();
            for i in r {
                guard[i] += 1;
            }
        });
        set_num_threads(prev);
        assert!(seen.lock().unwrap().iter().all(|&c| c == 1));
    }

    #[test]
    fn pool_panic_propagates_to_caller() {
        let prev = NUM_THREADS.load(Ordering::Relaxed);
        set_num_threads(4);
        let r = std::panic::catch_unwind(|| {
            parallel_chunks(8, |r| {
                if r.contains(&3) {
                    panic!("chunk blew up");
                }
            });
        });
        set_num_threads(prev);
        let payload = r.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(msg.contains("chunk blew up"), "got: {msg}");
    }

    #[test]
    fn zero_length_is_fine() {
        parallel_chunks(0, |r| assert!(r.is_empty()));
    }

    #[test]
    fn num_threads_round_trips() {
        let prev = num_threads();
        set_num_threads(3);
        assert_eq!(num_threads(), 3);
        set_num_threads(0);
        assert!(num_threads() >= 1);
        set_num_threads(prev);
    }
}
