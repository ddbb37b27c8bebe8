//! Kernel threading, the one notion of threads in a run (the executor
//! runs one node at a time), analogous to `OMP_NUM_THREADS` /
//! `torch.set_num_threads` in the paper's fusion evaluation (Appendix C
//! compares "Threaded" against "Unthreaded", i.e. `OMP_NUM_THREADS=1`).
//!
//! Kernels share one lazily-started **persistent worker pool**:
//! submitting a task is a mutex push + condvar notify, and the
//! submitting thread claims chunks itself, so a saturated (or empty)
//! pool degrades to inline execution instead of deadlocking. The count
//! is a process setting ([`set_num_threads`]) that a thread can override
//! for one closure ([`with_num_threads`]), as each executor run does.

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

static NUM_THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's [`with_num_threads`] override; `0` means none.
    static OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// Set the number of worker threads used by parallel kernels (GEMM,
/// convolution). `0` resets to the machine's available parallelism.
///
/// This caps how many pool workers a single kernel call will enlist; it
/// does not resize the pool itself, so flipping it back and forth is
/// cheap.
pub fn set_num_threads(n: usize) {
    NUM_THREADS.store(n, Ordering::Relaxed);
}

/// The number of worker threads parallel kernels called from this
/// thread will use: the innermost [`with_num_threads`] override, else
/// the process setting.
pub fn num_threads() -> usize {
    let n = match OVERRIDE.with(Cell::get) {
        0 => NUM_THREADS.load(Ordering::Relaxed),
        n => n,
    };
    if n == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    } else {
        n
    }
}

/// Run `f` with parallel kernels called from this thread using `n`
/// threads; `0` keeps the current count (the process setting unless an
/// enclosing call overrides it). The previous count comes back when `f`
/// returns or unwinds. Threads `f` spawns, and the pool workers that
/// run its chunks, see the process setting.
pub fn with_num_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            // `try_with`: a drop must not panic, even during thread exit.
            let _ = OVERRIDE.try_with(|o| o.set(self.0));
        }
    }
    if n == 0 {
        return f();
    }
    let _restore = Restore(OVERRIDE.with(|o| o.replace(n)));
    f()
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

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
        let seen = Mutex::new(vec![0u32; 1009]);
        with_num_threads(4, || {
            parallel_chunks(1009, |r| {
                let mut guard = seen.lock().unwrap();
                for i in r {
                    guard[i] += 1;
                }
            })
        });
        assert!(seen.lock().unwrap().iter().all(|&c| c == 1));
    }

    #[test]
    fn pool_panic_propagates_to_caller() {
        let r = std::panic::catch_unwind(|| {
            with_num_threads(4, || {
                parallel_chunks(8, |r| {
                    if r.contains(&3) {
                        panic!("chunk blew up");
                    }
                })
            })
        });
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

    // The override tests use counts (11, 12, 13) that no test sets as
    // the process setting, so they hold while other tests change it.

    #[test]
    fn nested_overrides_restore_in_order() {
        with_num_threads(11, || {
            assert_eq!(num_threads(), 11);
            with_num_threads(12, || {
                assert_eq!(num_threads(), 12);
                with_num_threads(0, || assert_eq!(num_threads(), 12, "0 keeps the count"));
            });
            assert_eq!(num_threads(), 11);
        });
        assert_eq!(OVERRIDE.with(Cell::get), 0, "no override left behind");
    }

    #[test]
    fn override_is_restored_on_unwind() {
        with_num_threads(11, || {
            let r = std::panic::catch_unwind(|| {
                with_num_threads(12, || panic!("closure blew up"));
            });
            assert!(r.is_err());
            assert_eq!(num_threads(), 11, "the inner count unwound with the panic");
        });
        assert_eq!(OVERRIDE.with(Cell::get), 0);
    }

    #[test]
    fn spawned_threads_see_the_process_setting() {
        with_num_threads(13, || {
            std::thread::spawn(|| {
                assert_eq!(
                    OVERRIDE.with(Cell::get),
                    0,
                    "the override is this thread's only"
                );
                assert_ne!(num_threads(), 13);
            })
            .join()
            .unwrap();
            assert_eq!(num_threads(), 13);
        });
    }
}
