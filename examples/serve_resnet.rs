//! Serve a traced ResNet-50 through the `fx_serve` dynamic batcher:
//! register it on a registry, fire concurrent requests from several
//! client threads, and print the serving statistics.
//!
//! ```text
//! cargo run --release --example serve_resnet
//! ```

use fx::prelude::*;
use fx::serve::{ModelConfig, Registry};
use fx_models::resnet50;
use fx_tensor::rng::{SeedableRng, StdRng};
use std::time::{Duration, Instant};

const CLIENTS: usize = 4;
const PER_CLIENT: usize = 8;

fn main() {
    // 1. Capture the model. The registry takes any batch-polymorphic
    //    GraphModule — traced, fused, quantized, ...
    let mut rng = StdRng::seed_from_u64(50);
    let gm = symbolic_trace(&resnet50(3, 10, &mut rng)).expect("resnet50 traces");

    // 2. Register it. `sample_shapes` tells the admission check what
    //    one request looks like; batching limits trade latency
    //    (max_batch_delay) for throughput (max_batch_size rows).
    let registry = Registry::builder().build().expect("registry starts");
    let cfg = ModelConfig::new()
        .max_batch_size(8)
        .max_batch_delay(Duration::from_millis(2))
        .queue_depth(64);
    let handle = registry
        .register_with("resnet50", gm, &[vec![1, 3, 32, 32]], cfg)
        .expect("resnet50 is batch-polymorphic");

    // 3. Hammer it from concurrent clients. Each client just calls
    //    `infer` with a single [1, 3, 32, 32] sample; coalescing into
    //    batches happens behind the scenes and is invisible in the
    //    responses (they are bit-identical to solo runs).
    let start = Instant::now();
    std::thread::scope(|s| {
        for c in 0..CLIENTS as u64 {
            let handle = handle.clone();
            s.spawn(move || {
                let mut xrng = StdRng::seed_from_u64(c);
                for i in 0..PER_CLIENT {
                    let x = Tensor::randn(&[1, 3, 32, 32], &mut xrng);
                    let out = handle.infer(vec![x]).expect("served inference");
                    println!(
                        "client {c} request {i}: logits shape {:?}, first logit {:+.4}",
                        out[0].shape(),
                        out[0].as_f32().unwrap()[0]
                    );
                }
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();

    // 4. Drain and report.
    let stats = registry.unregister("resnet50").expect("registered above");
    let total = (CLIENTS * PER_CLIENT) as f64;
    println!("\n{total} requests in {wall:.2}s ({:.1} req/s)\n", total / wall);
    println!("{stats}");
}
