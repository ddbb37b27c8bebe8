//! The benchmark's own generators. `--seed` drives these and nothing
//! else: the program under test only ever sees the tensors made here.

use crate::layers::{self, StdRng, Tensor, Value};

/// Independent streams of one seed, so adding a draw to one generator
/// does not shift another's values.
pub mod stream {
    pub const WEIGHTS: u64 = 1;
    pub const INPUTS: u64 = 2;
    pub const ROWS: u64 = 3;
}

/// A generator for stream `stream`, lane `lane` (a tenant, a version, a
/// client) of `seed`.
pub fn rng(seed: u64, stream: u64, lane: u64) -> StdRng {
    let mut mix = layers::seeded_rng(
        seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ lane.wrapping_mul(0xD1B5_4A32_D192_ED03),
    );
    let derived = layers::next_u64(&mut mix);
    layers::seeded_rng(derived)
}

/// `[C, H, W]` of the images `transform_resnet50` calibrates on and
/// `exec_tiny_f32` runs: capture and per-node costs do not care.
pub const SMALL_IMAGE: [usize; 3] = [3, 32, 32];

/// `[C, H, W]` of the images the ResNet-50 exec and serve workloads run.
///
/// ResNet-50 holds 102 MB of f32 weights and every run reads them all.
/// At `[1,3,32,32]` that read is half the run: it took 10 ms while the
/// host's shared L3 held the weights and 21 ms once a neighbour evicted
/// them, flipping between the two for minutes at a time — a 2× step no
/// bound survives. Sixteen times the pixels (here, and four rows per
/// exec op) leave the read at about a seventh of the run.
pub const IMAGE: [usize; 3] = [3, 64, 64];

pub fn image_batch(rows: usize, chw: [usize; 3], rng: &mut StdRng) -> Tensor {
    layers::randn(&[rows, chw[0], chw[1], chw[2]], rng)
}

/// `n` inputs of `rows` images each, the cycle an exec workload runs
/// through.
pub fn images(seed: u64, n: usize, rows: usize, chw: [usize; 3]) -> Vec<Value> {
    let mut rng = rng(seed, stream::INPUTS, 0);
    (0..n)
        .map(|_| Value::Tensor(image_batch(rows, chw, &mut rng)))
        .collect()
}

/// The request mix: 1, 1, 2 or 4 rows, equally likely.
pub const ROW_MIX: [usize; 4] = [1, 1, 2, 4];

/// Rows per request, one sequence per client: every one of the
/// `4^clients` combinations of [`ROW_MIX`] across the clients, once, in
/// a seeded order. Each client sends each size equally often, and so
/// does every set of requests that can meet in the queue — closed-loop
/// clients fall into step, the k-th request of one batched with the
/// k-th of the other, and a plain per-client shuffle then makes the mix
/// of batch sizes, and with it every latency percentile and the peak
/// memory, a property of the seed.
pub fn request_rows(seed: u64, clients: usize) -> Vec<Vec<usize>> {
    let clients = clients.clamp(1, 4);
    let combos = ROW_MIX.len().pow(clients as u32);
    let mut order: Vec<usize> = (0..combos).collect();
    let mut rng = rng(seed, stream::ROWS, 0);
    for i in (1..order.len()).rev() {
        let j = (layers::next_u64(&mut rng) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    (0..clients)
        .map(|c| {
            let digit = ROW_MIX.len().pow(c as u32);
            order
                .iter()
                .map(|k| ROW_MIX[k / digit % ROW_MIX.len()])
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_draw_is_reproducible_from_the_seed() {
        let a = request_rows(42, 2);
        assert_eq!(a, request_rows(42, 2));
        assert_ne!(a, request_rows(43, 2), "another seed, another order");
        assert_ne!(a[0], a[1], "clients differ");
    }

    #[test]
    fn every_combination_of_sizes_meets_exactly_once() {
        for clients in 1..=3 {
            let rows = request_rows(7, clients);
            assert_eq!(rows.len(), clients);
            let combos = 4usize.pow(clients as u32);
            let mut met = std::collections::BTreeMap::new();
            for k in 0..combos {
                let tuple: Vec<usize> = rows.iter().map(|r| r[k]).collect();
                *met.entry(tuple).or_insert(0) += 1;
            }
            // [1,1,2,4] names size 1 twice, so tuples of sizes repeat
            // 2^(number of ones) times; the total is all combinations.
            assert_eq!(met.values().sum::<usize>(), combos);
            for (tuple, count) in &met {
                let ones = tuple.iter().filter(|&&r| r == 1).count();
                assert_eq!(*count, 1 << ones, "{tuple:?}");
            }
            for client in &rows {
                assert_eq!(
                    client.iter().sum::<usize>(),
                    combos / 4 * 8,
                    "8 rows per 4 requests"
                );
            }
        }
    }

    #[test]
    fn inputs_depend_only_on_the_seed() {
        let bits = |seed| -> Vec<u32> {
            images(seed, 2, 1, SMALL_IMAGE)
                .iter()
                .flat_map(|v| {
                    let t = layers::output_tensor(v).unwrap();
                    layers::f32_data(t)
                        .unwrap()
                        .iter()
                        .map(|f| f.to_bits())
                        .collect::<Vec<_>>()
                })
                .collect()
        };
        assert_eq!(bits(5), bits(5));
        assert_ne!(bits(5), bits(6));
    }
}
