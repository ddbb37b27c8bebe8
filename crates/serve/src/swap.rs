//! Hot-swap machinery: a versioned model slot with in-flight batch
//! accounting.
//!
//! Each registered model owns one [`VersionSlot`]. The batcher
//! [`acquire`](VersionSlot::acquire)s the current version exactly once
//! per coalesced batch, so a batch can never mix two versions: whatever
//! `Arc<Version>` the batch captured is the model that runs it,
//! even if a swap lands while the batch sits in the scheduler.
//!
//! [`VersionSlot::swap`] installs a new version with a plain pointer
//! flip under a short mutex (requests keep flowing — zero downtime) and
//! returns the displaced version so the caller can
//! [`wait_drained`](VersionSlot::wait_drained) on it: the swap call
//! completes only once every batch formed against the old version has
//! finished, at which point the old weights are provably out of the
//! serving path and can be dropped.

use fx_core::{ExecConfig, GraphModule};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// One served model version: the graph (its plan warmed before it is
/// installed) and the configuration its runs use, plus the count of
/// batches formed against it that have not yet finished.
pub(crate) struct Version {
    pub(crate) gm: GraphModule,
    pub(crate) exec: ExecConfig,
    /// Monotonic per-model version number, starting at 1.
    pub(crate) number: u64,
    inflight: AtomicUsize,
}

impl Version {
    pub(crate) fn inflight(&self) -> usize {
        self.inflight.load(Ordering::SeqCst)
    }
}

/// The atomically-replaceable "current version" of one served model.
pub(crate) struct VersionSlot {
    current: Mutex<Arc<Version>>,
    /// Guards nothing; paired with `drained` so `release` can signal
    /// waiters without a lost-wakeup race.
    drain: Mutex<()>,
    drained: Condvar,
}

impl VersionSlot {
    pub(crate) fn new(gm: GraphModule, exec: ExecConfig) -> VersionSlot {
        VersionSlot {
            current: Mutex::new(Arc::new(Version {
                gm,
                exec,
                number: 1,
                inflight: AtomicUsize::new(0),
            })),
            drain: Mutex::new(()),
            drained: Condvar::new(),
        }
    }

    /// Clone the current version and charge one in-flight batch to it.
    /// The increment happens under the same lock as the read, so a
    /// concurrent [`swap`](VersionSlot::swap) either sees the charge or
    /// hands out the new version — never a missed drain.
    pub(crate) fn acquire(&self) -> Arc<Version> {
        let cur = self.current.lock().unwrap_or_else(|p| p.into_inner());
        cur.inflight.fetch_add(1, Ordering::SeqCst);
        cur.clone()
    }

    /// Un-charge one batch from `v` and wake any drain waiter.
    pub(crate) fn release(&self, v: &Version) {
        v.inflight.fetch_sub(1, Ordering::SeqCst);
        // Take and drop the drain lock so a waiter between its check
        // and its wait cannot miss this notification.
        drop(self.drain.lock().unwrap_or_else(|p| p.into_inner()));
        self.drained.notify_all();
    }

    /// Install `gm` as the next version (old number + 1, same
    /// [`ExecConfig`]) and return the displaced version. New batches
    /// capture the new version from this instant; in-flight batches
    /// keep the old one.
    pub(crate) fn swap(&self, gm: GraphModule) -> Arc<Version> {
        let mut cur = self.current.lock().unwrap_or_else(|p| p.into_inner());
        let next = Arc::new(Version {
            gm,
            exec: cur.exec,
            number: cur.number + 1,
            inflight: AtomicUsize::new(0),
        });
        std::mem::replace(&mut *cur, next)
    }

    /// Block until every batch charged to `old` has finished. Returns
    /// immediately if none are in flight.
    pub(crate) fn wait_drained(&self, old: &Version) {
        let mut guard = self.drain.lock().unwrap_or_else(|p| p.into_inner());
        while old.inflight() > 0 {
            guard = self
                .drained
                .wait(guard)
                .unwrap_or_else(|p| p.into_inner());
        }
    }

    /// The version number currently being handed to new batches.
    pub(crate) fn current_version(&self) -> u64 {
        self.current
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .number
    }

    /// One line naming what runs new batches, for logs and stats: the
    /// executor with the kernel threads a run from this thread would
    /// use (not a `0` that means "the process setting"), memory
    /// planning and the SIMD level.
    pub(crate) fn describe(&self) -> String {
        let exec = self.current.lock().unwrap_or_else(|p| p.into_inner()).exec;
        let threads = fx_tensor::threading::with_num_threads(
            exec.threads,
            fx_tensor::threading::num_threads,
        );
        let exec = ExecConfig { threads, ..exec };
        format!("executor({exec} simd={})", fx_tensor::simd_level())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_core::{func, symbolic_trace_fn};

    fn gm() -> GraphModule {
        symbolic_trace_fn(1, |xs| func::relu(&xs[0])).unwrap()
    }

    #[test]
    fn swap_flips_version_and_waits_for_drain() {
        let slot = VersionSlot::new(gm(), ExecConfig::from_env());
        assert_eq!(slot.current_version(), 1);

        let held = slot.acquire(); // a batch in flight on v1
        assert_eq!(held.number, 1);
        assert_eq!(held.inflight(), 1);

        let old = slot.swap(gm());
        assert_eq!(slot.current_version(), 2);
        assert!(Arc::ptr_eq(&old, &held), "swap returns the displaced version");

        // New acquisitions land on v2 while v1 is still draining.
        let fresh = slot.acquire();
        assert_eq!(fresh.number, 2);
        slot.release(&fresh);

        // wait_drained blocks until the old batch releases.
        std::thread::scope(|s| {
            let slot = &slot;
            let old2 = old.clone();
            let t = s.spawn(move || slot.wait_drained(&old2));
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert!(!t.is_finished(), "must wait while a v1 batch is in flight");
            slot.release(&held);
            t.join().unwrap();
        });
        assert_eq!(old.inflight(), 0);
    }

    #[test]
    fn acquire_release_balances() {
        let slot = VersionSlot::new(gm(), ExecConfig::from_env().with_threads(3));
        let a = slot.acquire();
        let b = slot.acquire();
        assert_eq!(a.inflight(), 2);
        slot.release(&a);
        slot.release(&b);
        slot.wait_drained(&a); // returns immediately
        let line = slot.describe();
        assert!(line.starts_with("executor(threads=3 "), "{line}");
    }
}
