//! Size-bucketed, dtype-aware buffer pool backing the executor's static
//! memory planning (Relay-style ahead-of-time buffer reuse brought to
//! the 6-opcode IR).
//!
//! Kernels request output and scratch buffers through one generic API,
//! [`alloc`] / [`alloc_zeroed`] / [`alloc_empty`], for each [`PoolElem`]
//! (`f32`, and `i8` / `i32` / `[i8; 4]` for the quantized path); the
//! executor returns a dying intermediate's storage via [`recycle_tensor`] (or a
//! kernel its scratch via [`recycle`]) the moment liveness says it is
//! dead. Buffers live in power-of-two element buckets, **segregated by
//! element type** — an `i8` buffer can never be handed back as an `f32`
//! one — so a steady-state run of a fixed-shape graph (f32 or int8)
//! recycles the same few buffers instead of touching the heap.
//!
//! The pool is process-wide but **inert by default**: allocation
//! helpers fall through to plain `Vec` construction unless a
//! [`PoolGuard`] is live (the executor holds one per planned run).
//! Counters are maintained in both modes so benchmarks can report
//! allocations-per-run for the planned and unplanned paths with the
//! same instrumentation. All counters are shared across dtypes; byte
//! gauges weight each buffer by its element size.
//!
//! Recycled buffers keep their stale contents; [`alloc`] therefore
//! hands out buffers whose prefix is arbitrary (but initialized) data,
//! and every consumer must overwrite each element before reading it —
//! kernels that accumulate use [`alloc_zeroed`].

use crate::tensor::Tensor;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Buckets cover element counts up to 2^32 — a 16 GiB f32 buffer, far
/// beyond anything the kernels handle.
const N_BUCKETS: usize = 33;
/// Free buffers retained per bucket; extras are dropped to the heap so
/// a burst of odd shapes cannot pin memory forever.
const MAX_PER_BUCKET: usize = 16;

type Buckets<T> = [Mutex<Vec<Vec<T>>>; N_BUCKETS];

static BUCKETS_F32: Buckets<f32> = [const { Mutex::new(Vec::new()) }; N_BUCKETS];
static BUCKETS_I8: Buckets<i8> = [const { Mutex::new(Vec::new()) }; N_BUCKETS];
static BUCKETS_I32: Buckets<i32> = [const { Mutex::new(Vec::new()) }; N_BUCKETS];
static BUCKETS_QUAD: Buckets<[i8; 4]> = [const { Mutex::new(Vec::new()) }; N_BUCKETS];

/// Element types the pool can bucket. Each type owns a separate static
/// bucket array so recycled storage never crosses dtypes.
pub trait PoolElem: Copy + Send + Sync + 'static {
    /// The all-zero element, for the `_zeroed` allocation variants.
    const ZERO: Self;
    /// Element size in bytes (weights the shared byte gauges).
    const SIZE: usize;
    #[doc(hidden)]
    fn buckets() -> &'static Buckets<Self>;
}

macro_rules! pool_elem {
    ($ty:ty, $zero:expr, $buckets:ident) => {
        impl PoolElem for $ty {
            const ZERO: Self = $zero;
            const SIZE: usize = std::mem::size_of::<$ty>();
            fn buckets() -> &'static Buckets<Self> {
                &$buckets
            }
        }
    };
}

pool_elem!(f32, 0.0, BUCKETS_F32);
pool_elem!(i8, 0, BUCKETS_I8);
pool_elem!(i32, 0, BUCKETS_I32);
pool_elem!([i8; 4], [0; 4], BUCKETS_QUAD);

/// Nesting depth of live [`PoolGuard`]s; pooling is active when > 0.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

// Counters (always maintained, even when the pool is inactive, so the
// two modes are measured identically). Shared across dtypes.
static FRESH_ALLOCS: AtomicU64 = AtomicU64::new(0);
static POOL_HITS: AtomicU64 = AtomicU64::new(0);
static RECYCLED: AtomicU64 = AtomicU64::new(0);
static RECYCLE_DROPS: AtomicU64 = AtomicU64::new(0);
static IN_POOL_BYTES: AtomicU64 = AtomicU64::new(0);
static IN_POOL_PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

/// RAII activation for the buffer pool: kernels recycle and reuse
/// buffers only while at least one guard is live. The executor holds
/// one for the duration of each memory-planned run.
#[must_use = "the pool is active only while the guard lives"]
pub struct PoolGuard(());

impl Drop for PoolGuard {
    fn drop(&mut self) {
        ACTIVE.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Activate the pool for the lifetime of the returned guard. Guards
/// nest; concurrent executors simply keep the pool active together.
pub fn activate() -> PoolGuard {
    ACTIVE.fetch_add(1, Ordering::Relaxed);
    PoolGuard(())
}

#[inline]
pub(crate) fn is_active() -> bool {
    ACTIVE.load(Ordering::Relaxed) > 0
}

#[inline]
fn bucket_of(len: usize) -> usize {
    (usize::BITS - len.next_power_of_two().leading_zeros() - 1) as usize
}

fn take_from_bucket<T: PoolElem>(len: usize) -> Option<Vec<T>> {
    if !is_active() || len == 0 {
        return None;
    }
    let b = bucket_of(len);
    if b >= N_BUCKETS {
        return None;
    }
    let v = T::buckets()[b].lock().unwrap().pop();
    if let Some(v) = &v {
        IN_POOL_BYTES.fetch_sub((v.capacity() * T::SIZE) as u64, Ordering::Relaxed);
        POOL_HITS.fetch_add(1, Ordering::Relaxed);
    }
    v
}

/// A length-`len` buffer of **arbitrary (stale) but initialized**
/// contents. The caller must overwrite every element before reading.
pub fn alloc<T: PoolElem>(len: usize) -> Vec<T> {
    match take_from_bucket::<T>(len) {
        Some(mut v) => {
            v.resize(len, T::ZERO);
            v
        }
        None => {
            FRESH_ALLOCS.fetch_add(1, Ordering::Relaxed);
            vec![T::ZERO; len]
        }
    }
}

/// A length-`len` buffer of zeros, for kernels that accumulate.
pub fn alloc_zeroed<T: PoolElem>(len: usize) -> Vec<T> {
    match take_from_bucket::<T>(len) {
        Some(mut v) => {
            v.clear();
            v.resize(len, T::ZERO);
            v
        }
        None => {
            FRESH_ALLOCS.fetch_add(1, Ordering::Relaxed);
            vec![T::ZERO; len]
        }
    }
}

/// An empty buffer with capacity for at least `cap` elements, for
/// kernels that build their output with `push`/`extend`.
pub fn alloc_empty<T: PoolElem>(cap: usize) -> Vec<T> {
    match take_from_bucket::<T>(cap) {
        Some(mut v) => {
            v.clear();
            v
        }
        None => {
            FRESH_ALLOCS.fetch_add(1, Ordering::Relaxed);
            Vec::with_capacity(cap)
        }
    }
}

/// Return a buffer to its size bucket. Dropped (not retained) when the
/// pool is inactive, the buffer is empty, or the bucket is full.
pub fn recycle<T: PoolElem>(v: Vec<T>) {
    if !is_active() || v.capacity() == 0 {
        return;
    }
    let b = bucket_of(v.capacity());
    // Bucket by capacity: `alloc(len)` for any len in (cap/2, cap]
    // finds this buffer again.
    if b >= N_BUCKETS {
        RECYCLE_DROPS.fetch_add(1, Ordering::Relaxed);
        return;
    }
    let mut bucket = T::buckets()[b].lock().unwrap();
    if bucket.len() >= MAX_PER_BUCKET {
        RECYCLE_DROPS.fetch_add(1, Ordering::Relaxed);
        return;
    }
    IN_POOL_BYTES.fetch_add((v.capacity() * T::SIZE) as u64, Ordering::Relaxed);
    let now = IN_POOL_BYTES.load(Ordering::Relaxed);
    IN_POOL_PEAK_BYTES.fetch_max(now, Ordering::Relaxed);
    RECYCLED.fetch_add(1, Ordering::Relaxed);
    bucket.push(v);
}

/// Recycle a dying tensor's storage if it is uniquely owned f32 or
/// quantized i8; shared or other storage is simply dropped.
pub fn recycle_tensor(t: Tensor) {
    match t.dtype() {
        crate::dtype::DType::QI8 => {
            if let Some(v) = t.try_take_qi8() {
                recycle(v);
            }
        }
        _ => {
            if let Some(v) = t.try_take_f32() {
                recycle(v);
            }
        }
    }
}

/// Point-in-time allocator counters (process-wide, monotonic except the
/// `in_pool_bytes` gauge). Benchmarks snapshot before/after a batch of
/// runs and difference the counters. Counters aggregate over all dtypes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers obtained from the heap by `alloc_*` (pool miss or pool
    /// inactive).
    pub fresh_allocs: u64,
    /// Buffers served from a free bucket.
    pub pool_hits: u64,
    /// Buffers accepted back into a bucket.
    pub recycled: u64,
    /// Recycle attempts dropped (bucket full / oversized).
    pub recycle_drops: u64,
    /// Bytes currently parked in free buckets (all dtypes).
    pub in_pool_bytes: u64,
    /// High-water mark of `in_pool_bytes` — the pool's peak footprint.
    pub in_pool_peak_bytes: u64,
}

impl PoolStats {
    /// Counter-wise difference vs an earlier snapshot (gauges are
    /// carried over, not differenced).
    pub fn since(&self, base: &PoolStats) -> PoolStats {
        PoolStats {
            fresh_allocs: self.fresh_allocs - base.fresh_allocs,
            pool_hits: self.pool_hits - base.pool_hits,
            recycled: self.recycled - base.recycled,
            recycle_drops: self.recycle_drops - base.recycle_drops,
            in_pool_bytes: self.in_pool_bytes,
            in_pool_peak_bytes: self.in_pool_peak_bytes,
        }
    }

    /// Fraction of pooled-path allocations served from the pool.
    pub fn hit_rate(&self) -> f64 {
        let total = self.fresh_allocs + self.pool_hits;
        if total == 0 {
            0.0
        } else {
            self.pool_hits as f64 / total as f64
        }
    }
}

/// Snapshot the allocator counters.
pub fn stats() -> PoolStats {
    PoolStats {
        fresh_allocs: FRESH_ALLOCS.load(Ordering::Relaxed),
        pool_hits: POOL_HITS.load(Ordering::Relaxed),
        recycled: RECYCLED.load(Ordering::Relaxed),
        recycle_drops: RECYCLE_DROPS.load(Ordering::Relaxed),
        in_pool_bytes: IN_POOL_BYTES.load(Ordering::Relaxed),
        in_pool_peak_bytes: IN_POOL_PEAK_BYTES.load(Ordering::Relaxed),
    }
}

fn clear_buckets<T: PoolElem>() {
    for b in T::buckets() {
        let mut bucket = b.lock().unwrap();
        for v in bucket.drain(..) {
            IN_POOL_BYTES.fetch_sub((v.capacity() * T::SIZE) as u64, Ordering::Relaxed);
        }
    }
}

/// Drop every free buffer (all dtypes) back to the heap (tests; memory
/// pressure).
pub fn clear() {
    clear_buckets::<f32>();
    clear_buckets::<i8>();
    clear_buckets::<i32>();
    clear_buckets::<[i8; 4]>();
}

#[cfg(test)]
mod tests {
    use super::*;

    // The tests that assert deltas of the process-wide counters live in
    // `tests/pool_counters.rs`: their own process, one `#[test]`, so no
    // other test's pool traffic can land between a snapshot and its
    // assertion.

    #[test]
    fn zeroed_alloc_really_zeroes_recycled_garbage() {
        let _g = activate();
        let len = 7_777;
        let mut v = alloc::<f32>(len);
        v.iter_mut().for_each(|x| *x = 3.5);
        recycle::<f32>(v);
        let v2 = alloc_zeroed::<f32>(len);
        assert!(v2.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn bucket_of_is_power_of_two_index() {
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(1025), 11);
    }
}
