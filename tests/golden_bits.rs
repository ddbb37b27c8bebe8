//! Golden bits: FNV-1a hashes of what ResNet-50 computes on fixed seeds,
//! held in `tests/golden_bits.txt`, one line per dtype × engine — so a
//! change to any output bit across commits fails the tier-1 gate, not
//! only a comparison within one process.
//!
//! * `f32-output` — the conv–BN-fused model on one `[4, 3, 64, 64]`
//!   input. Its bits depend on the dot step of the tiles `FX_SIMD`
//!   selects: `fma` (every AVX2 / AVX-512 tile) or `portable` (level
//!   `0`: a rounded multiply, then the add).
//! * `int8-output` and `int8-weights` — the PTQ model's output on the
//!   same input, and every tensor `convert` put in it (quantized weights
//!   with their scales, f32 biases). Integer accumulation is exact, so
//!   these are one line for every engine (`any`). Calibration runs the
//!   f32 model, so each observer's range is first widened to ends of
//!   four significant bits: the int8 model is then the same whichever
//!   f32 tiles calibrated it.
//!
//! A deliberate bit change updates the file; the test prints every line
//! it computed (`cargo test --test golden_bits -- --nocapture`).

use fx::prelude::*;
use fx::quant::{calibrate, convert, is_observer, observed_qparams, prepare, QConfig};
use fx_tensor::quant::{QScheme, QMAX, QMIN};
use fx_tensor::rng::{SeedableRng, StdRng};

const GOLDEN: &str = include_str!("golden_bits.txt");

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }

    /// A tensor's shape and elements (and a quantized one's scheme).
    fn tensor(&mut self, t: &Tensor) {
        self.write(format!("{:?}", t.shape()).as_bytes());
        if let Ok(v) = t.as_f32() {
            v.iter().for_each(|f| self.write(&f.to_bits().to_le_bytes()));
        } else {
            let q = t.as_qi8().expect("f32 or int8 tensor");
            self.write(&q.iter().map(|&b| b as u8).collect::<Vec<_>>());
            if let Some(QScheme::PerChannel { scales, axis }) = t.qscheme() {
                scales.iter().for_each(|s| self.write(&s.to_bits().to_le_bytes()));
                self.write(&axis.to_le_bytes());
            } else {
                self.write(format!("{:?}", t.qscheme()).as_bytes());
            }
        }
    }
}

fn output_hash(gm: &GraphModule, x: &Tensor) -> u64 {
    let out = Executor::new(gm).run(&[Value::Tensor(x.clone())]).expect("ResNet-50 runs");
    let mut h = Fnv::new();
    h.tensor(out.as_tensor().expect("a tensor output"));
    h.0
}

/// `v` rounded away from zero to four significant bits.
fn coarse(v: f32) -> f32 {
    const DROPPED: u32 = (1 << 19) - 1;
    let bits = v.to_bits();
    f32::from_bits(if bits & DROPPED == 0 { bits } else { (bits | DROPPED) + 1 })
}

/// PTQ over `gm`, calibrated on `x`, with every observer's range widened
/// to ends of four significant bits (fed back to the MinMax observer,
/// which widens to exactly that range).
fn snapped_ptq(gm: &GraphModule, x: &Tensor) -> GraphModule {
    let observed = prepare(gm, &QConfig::default()).expect("prepare");
    calibrate(&observed, &[vec![Value::Tensor(x.clone())]]).expect("calibrate");
    for m in observed.modules().values().filter(|m| is_observer(m.as_ref())) {
        let (scale, zp) = observed_qparams(m.as_ref()).expect("every observer saw data");
        // One step of margin: the zero point is rounded, so the range it
        // and the scale describe may miss the observed one by half a step.
        let lo = coarse((QMIN - zp - 1) as f32 * scale);
        let hi = coarse((QMAX - zp + 1) as f32 * scale);
        m.forward(&[Value::Tensor(Tensor::from_vec(vec![lo, hi], &[2]))]).expect("observer");
    }
    convert(&observed).expect("convert")
}

#[test]
fn resnet50_outputs_and_ptq_weights_match_the_golden_hashes() {
    let mut rng = StdRng::seed_from_u64(0x601D);
    let model = fx::models::resnet50(3, 10, &mut rng);
    let mut gm = symbolic_trace(&model).expect("ResNet-50 traces");
    fx::passes::fuse_conv_bn(&mut gm).expect("conv+bn fuses");
    let x = Tensor::rand_uniform(&[4, 3, 64, 64], -1.0, 1.0, &mut rng);
    let qgm = snapped_ptq(&gm, &x);
    let mut weights = Fnv::new();
    for (name, m) in qgm.modules() {
        for (param, t) in m.own_parameters() {
            weights.write(format!("{name}.{param}").as_bytes());
            weights.tensor(&t);
        }
    }
    for (name, t) in qgm.attrs() {
        weights.write(name.as_bytes());
        weights.tensor(t);
    }

    let engine = if fx_tensor::simd_level() == "scalar" { "portable" } else { "fma" };
    let computed = [
        ("f32-output", engine, output_hash(&gm, &x)),
        ("int8-output", "any", output_hash(&qgm, &x)),
        ("int8-weights", "any", weights.0),
    ];
    for (what, engine, hash) in computed {
        eprintln!("{what} {engine} {hash:016x}");
    }
    for (what, engine, hash) in computed {
        let line = GOLDEN
            .lines()
            .find(|l| l.split_whitespace().take(2).eq([what, engine]))
            .unwrap_or_else(|| panic!("golden_bits.txt has no `{what} {engine}` line"));
        let want = line.split_whitespace().nth(2).expect("a hash");
        assert_eq!(format!("{hash:016x}"), want, "{what} under the {engine} tiles changed bits");
    }
}
