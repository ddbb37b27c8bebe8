//! Hot-swap machinery: a versioned model slot.
//!
//! Each registered model owns one [`VersionSlot`]. The batcher
//! [`acquire`](VersionSlot::acquire)s the current version exactly once
//! per coalesced batch, so a batch can never mix two versions: whatever
//! `Arc<Version>` the batch captured is the model that runs it,
//! even if a swap lands while the batch sits in the scheduler.
//!
//! [`VersionSlot::swap`] installs a new version with a plain pointer
//! flip under a short mutex (requests keep flowing — zero downtime) and
//! returns the displaced version. A batch's `Arc<Version>` is its drain
//! token: [`Registry::swap`](crate::Registry::swap) completes only once
//! it holds the last reference to the old version, i.e. once every
//! batch formed against it has finished, so the old weights are provably
//! out of the serving path and the swap drops them.

use fx_core::GraphModule;
use std::sync::{Arc, Mutex};

/// One served model version: the graph (its plan warmed before it is
/// installed). Its runs use the model's registered
/// [`ExecConfig`](fx_core::ExecConfig).
pub(crate) struct Version {
    pub(crate) gm: GraphModule,
    /// Monotonic per-model version number, starting at 1.
    pub(crate) number: u64,
}

/// The atomically-replaceable "current version" of one served model.
pub(crate) struct VersionSlot {
    current: Mutex<Arc<Version>>,
}

impl VersionSlot {
    pub(crate) fn new(gm: GraphModule) -> VersionSlot {
        VersionSlot {
            current: Mutex::new(Arc::new(Version { gm, number: 1 })),
        }
    }

    /// Clone the current version for one batch. The clone is taken under
    /// the same lock as [`swap`](VersionSlot::swap)'s flip, so a
    /// concurrent swap either sees this reference or hands out the new
    /// version — never a missed drain.
    pub(crate) fn acquire(&self) -> Arc<Version> {
        self.current
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// Install `gm` as the next version (old number + 1) and return the
    /// displaced version. New batches
    /// capture the new version from this instant; in-flight batches
    /// keep the old one.
    pub(crate) fn swap(&self, gm: GraphModule) -> Arc<Version> {
        let mut cur = self.current.lock().unwrap_or_else(|p| p.into_inner());
        let next = Arc::new(Version {
            gm,
            number: cur.number + 1,
        });
        std::mem::replace(&mut *cur, next)
    }

    /// The version number currently being handed to new batches.
    pub(crate) fn current_version(&self) -> u64 {
        self.current
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .number
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ModelEntry;
    use crate::server::Batch;
    use crate::Registry;
    use fx_core::{func, symbolic_trace_fn};
    use std::time::Duration;

    fn gm() -> GraphModule {
        symbolic_trace_fn(1, |xs| func::relu(&xs[0])).unwrap()
    }

    /// A batch with no requests, formed as the batcher forms one; its
    /// drop finishes it, even when an assertion unwinds past it.
    fn batch(entry: &Arc<ModelEntry>) -> Batch {
        Batch {
            entry: entry.clone(),
            requests: Vec::new(),
            version: Some(entry.batch_started()),
        }
    }

    fn number(b: &Batch) -> u64 {
        b.version.as_ref().map_or(0, |v| v.number)
    }

    #[test]
    fn swap_flips_version_and_waits_for_drain() {
        let slot = VersionSlot::new(gm());
        let held = slot.acquire(); // a batch in flight on v1
        let old = slot.swap(gm());
        assert_eq!(slot.current_version(), 2);
        assert!(Arc::ptr_eq(&old, &held), "swap returns the displaced version");
        // The slot let go of v1: only the batch and the swap hold it.
        assert_eq!(Arc::strong_count(&old), 2);

        // `Registry::swap` blocks until the batch holding v1 finishes.
        let registry = Registry::builder().workers(1).build().unwrap();
        registry.register("relu", gm(), &[vec![1, 4]]).unwrap();
        let entry = registry.lookup("relu").unwrap();
        let held = batch(&entry);
        assert_eq!(number(&held), 1);
        std::thread::scope(|s| {
            let swap = s.spawn(|| registry.swap("relu", gm()));
            while entry.slot.current_version() == 1 {
                std::thread::sleep(Duration::from_millis(1));
            }
            // New batches land on v2 while v1 drains.
            assert_eq!(number(&batch(&entry)), 2);
            std::thread::sleep(Duration::from_millis(20));
            assert!(!swap.is_finished(), "swap must wait while a v1 batch is in flight");
            drop(held);
            assert_eq!(swap.join().unwrap().unwrap(), 2);
        });
    }

    #[test]
    fn acquire_release_balances() {
        let registry = Registry::builder().workers(1).build().unwrap();
        registry.register("relu", gm(), &[vec![1, 4]]).unwrap();
        let entry = registry.lookup("relu").unwrap();
        let (a, b) = (batch(&entry), batch(&entry));
        assert_eq!(*entry.outstanding.lock().unwrap(), 2);
        drop((a, b));
        assert_eq!(*entry.outstanding.lock().unwrap(), 0);
        // Nothing holds v1, so neither call waits.
        assert_eq!(registry.swap("relu", gm()).unwrap(), 2);
        registry.unregister("relu").unwrap();
    }
}
