//! The buffer pool's counter contract, checked where nothing else can
//! move the counters.
//!
//! `pool::stats()` is process-wide, so a test that snapshots it, acts,
//! and asserts an exact delta is only sound while no other thread
//! touches the pool. Inside the crate's unit-test binary dozens of
//! kernel tests allocate concurrently (the old in-crate versions of
//! these checks failed about 2 runs in 40). This binary holds exactly
//! one `#[test]`, which runs the checks one after another: its own
//! process, nothing else touching the pool.

use fx_tensor::pool::{self, stats};
use fx_tensor::quant::QScheme;
use fx_tensor::Tensor;

fn inactive_pool_is_passthrough() {
    // No guard live: recycle drops, alloc goes to the heap.
    let before = stats();
    let v = pool::alloc_f32(64);
    assert_eq!(v.len(), 64);
    pool::recycle_f32(v);
    let after = stats();
    assert_eq!(after.fresh_allocs, before.fresh_allocs + 1);
    assert_eq!(after.recycled, before.recycled);
    assert_eq!(after.pool_hits, before.pool_hits);
}

fn round_trip_hits_the_bucket() {
    let _g = pool::activate();
    let len = 12_345;
    let v = pool::alloc_f32_zeroed(len);
    let cap = v.capacity();
    let before = stats();
    pool::recycle_f32(v);
    let v2 = pool::alloc_f32(len);
    let delta = stats().since(&before);
    assert!(v2.capacity() >= cap.min(len));
    assert_eq!(v2.len(), len);
    assert_eq!((delta.recycled, delta.pool_hits, delta.fresh_allocs), (1, 1, 0), "second alloc must hit");
}

fn tensor_recycling_respects_sharing() {
    let _g = pool::activate();
    let t = Tensor::from_vec(vec![1.0f32; 4_321], &[4_321]);
    let alias = t.clone();
    let before = stats();
    pool::recycle_tensor(t); // shared -> dropped, not pooled
    assert_eq!(stats().recycled, before.recycled);
    pool::recycle_tensor(alias); // unique now -> pooled
    assert_eq!(stats().recycled, before.recycled + 1);
}

fn dtype_buckets_are_segregated() {
    let _g = pool::activate();
    // Recycling an i8 buffer must never satisfy an f32 alloc of the
    // same element count (and vice versa).
    let len = 9_111;
    let v8 = pool::alloc_i8(len);
    let before = stats();
    pool::recycle_i8(v8);
    // Same-bucket f32 alloc: must be a fresh alloc, not a hit.
    let vf = pool::alloc_f32(len);
    assert_eq!(stats().pool_hits, before.pool_hits, "no cross-dtype hit");
    // The i8 buffer is still there for an i8 alloc.
    let v8b = pool::alloc_i8(len);
    assert_eq!(stats().pool_hits, before.pool_hits + 1, "i8 round-trip hits");
    assert_eq!(v8b.len(), len);
    drop(vf);
    pool::recycle_i8(v8b);
    assert_eq!(stats().recycled, before.recycled + 2);
}

fn i8_bytes_weighted_by_element_size() {
    let _g = pool::activate();
    pool::clear();
    let len = 6_000; // bucket cap 8192
    let v8 = pool::alloc_i8(len);
    let cap8 = v8.capacity();
    let b0 = stats().in_pool_bytes;
    pool::recycle_i8(v8);
    let b1 = stats().in_pool_bytes;
    assert_eq!(b1 - b0, cap8 as u64, "i8 weighs 1 byte per element");
    let v32 = pool::alloc_i32(len);
    let cap32 = v32.capacity();
    pool::recycle_i32(v32);
    let b2 = stats().in_pool_bytes;
    assert_eq!(b2 - b1, (cap32 * 4) as u64, "i32 weighs 4 bytes");
    pool::clear();
    assert_eq!(stats().in_pool_bytes, 0, "clear empties every dtype's buckets");
}

fn qi8_tensor_recycling_round_trips() {
    let _g = pool::activate();
    let len = 5_431;
    let scheme = QScheme::PerTensor { scale: 0.1, zero_point: 0 };
    let t = Tensor::from_qi8(vec![7i8; len], &[len], scheme);
    let before = stats();
    pool::recycle_tensor(t);
    assert_eq!(stats().recycled, before.recycled + 1);
    let v = pool::alloc_i8(len);
    assert_eq!(v.len(), len);
    assert_eq!(stats().pool_hits, before.pool_hits + 1, "i8 alloc hits");
    pool::recycle_i8(v);
}

/// The quantized kernels draw every per-call buffer — packed panels,
/// the i8 gather stage, the i32 block, the padded conv input, a
/// linear's widened input rows, the requantization coefficients — from
/// the pool: once warm, a call allocates nothing fresh.
fn warm_quantized_kernels_allocate_nothing() {
    use fx_tensor::quant::{quantize_per_channel, quantize_per_tensor, quantized_conv2d, quantized_linear};
    let _g = pool::activate();
    let x = quantize_per_tensor(&Tensor::ones(&[2, 8, 9, 9]), 0.1, 3).unwrap();
    let w = quantize_per_channel(&Tensor::ones(&[16, 8, 3, 3]), 0).unwrap();
    let rows = quantize_per_tensor(&Tensor::ones(&[5, 40]), 0.1, 3).unwrap();
    let lw = quantize_per_channel(&Tensor::ones(&[12, 40]), 0).unwrap();
    let run = || {
        pool::recycle_tensor(quantized_conv2d(&x, &w, None, (1, 1), (1, 1), 0.5, 0, true).unwrap());
        pool::recycle_tensor(quantized_linear(&rows, &lw, None, 0.5, 0, false).unwrap());
    };
    run();
    run();
    let before = stats();
    run();
    assert_eq!(stats().since(&before).fresh_allocs, 0, "a warm quantized kernel touched the heap");
    pool::clear();
}

#[test]
fn pool_counters_in_isolation() {
    inactive_pool_is_passthrough();
    round_trip_hits_the_bucket();
    tensor_recycling_respects_sharing();
    dtype_buckets_are_segregated();
    i8_bytes_weighted_by_element_size();
    qi8_tensor_recycling_round_trips();
    warm_quantized_kernels_allocate_nothing();
}
