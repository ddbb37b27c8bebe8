//! ResNet (He et al. 2015), structured exactly like
//! `torchvision.models.resnet` so the captured graphs match the paper's
//! §6.1 study: same stem, same v1.5 stride placement (stride on the 3×3
//! conv of a bottleneck), bias-free convs before batch norms, and
//! `torch.flatten(x, 1)` as a *function* call between pooling and the
//! classifier head.

use fx_core::{func, ArcModule, Module, ModuleExt, Result, Value};
use fx_nn::{AdaptiveAvgPool2d, BatchNorm2d, Conv2d, Linear, MaxPool2d, ReLU, Sequential};
use fx_tensor::rng::Rng;
use std::sync::Arc;

/// Which residual block a [`ResNet`] is built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockKind {
    Basic,
    Bottleneck,
}

impl BlockKind {
    fn expansion(self) -> usize {
        match self {
            BlockKind::Basic => 1,
            BlockKind::Bottleneck => 4,
        }
    }
}

fn conv3x3<R: Rng>(inp: usize, out: usize, stride: usize, rng: &mut R) -> Conv2d {
    Conv2d::new(inp, out, (3, 3), rng)
        .with_stride((stride, stride))
        .with_padding((1, 1))
        .without_bias()
}

fn conv1x1<R: Rng>(inp: usize, out: usize, stride: usize, rng: &mut R) -> Conv2d {
    Conv2d::new(inp, out, (1, 1), rng)
        .with_stride((stride, stride))
        .without_bias()
}

/// Randomized-but-plausible batch-norm statistics, so conv–BN fusion and
/// quantization are tested against non-identity normalization.
fn bn_with_stats<R: Rng>(features: usize, rng: &mut R) -> BatchNorm2d {
    let mean = fx_tensor::Tensor::rand_uniform(&[features], -0.2, 0.2, rng);
    let var = fx_tensor::Tensor::rand_uniform(&[features], 0.5, 1.5, rng);
    let gamma = fx_tensor::Tensor::rand_uniform(&[features], 0.8, 1.2, rng);
    let beta = fx_tensor::Tensor::rand_uniform(&[features], -0.1, 0.1, rng);
    BatchNorm2d::new(features)
        .with_stats(mean, var)
        .with_affine(gamma, beta)
}

/// The two-conv residual block of ResNet-18/34.
#[derive(Debug)]
pub struct BasicBlock {
    conv1: ArcModule,
    bn1: ArcModule,
    relu: ArcModule,
    conv2: ArcModule,
    bn2: ArcModule,
    downsample: Option<ArcModule>,
}

impl BasicBlock {
    fn new<R: Rng>(
        inplanes: usize,
        planes: usize,
        stride: usize,
        downsample: Option<ArcModule>,
        rng: &mut R,
    ) -> BasicBlock {
        BasicBlock {
            conv1: Arc::new(conv3x3(inplanes, planes, stride, rng)),
            bn1: Arc::new(bn_with_stats(planes, rng)),
            relu: Arc::new(ReLU),
            conv2: Arc::new(conv3x3(planes, planes, 1, rng)),
            bn2: Arc::new(bn_with_stats(planes, rng)),
            downsample,
        }
    }
}

impl Module for BasicBlock {
    fn forward(&self, inputs: &[Value]) -> Result<Value> {
        let x = &inputs[0];
        let identity = match &self.downsample {
            Some(ds) => ds.call(&[x.clone()])?,
            None => x.clone(),
        };
        let out = self.conv1.call(&[x.clone()])?;
        let out = self.bn1.call(&[out])?;
        let out = self.relu.call(&[out])?;
        let out = self.conv2.call(&[out])?;
        let out = self.bn2.call(&[out])?;
        let out = func::add(&out, &identity)?;
        self.relu.call(&[out])
    }

    fn type_name(&self) -> &'static str {
        "BasicBlock"
    }

    fn children(&self) -> Vec<(String, ArcModule)> {
        let mut c = vec![
            ("conv1".to_string(), self.conv1.clone()),
            ("bn1".to_string(), self.bn1.clone()),
            ("relu".to_string(), self.relu.clone()),
            ("conv2".to_string(), self.conv2.clone()),
            ("bn2".to_string(), self.bn2.clone()),
        ];
        if let Some(ds) = &self.downsample {
            c.push(("downsample".to_string(), ds.clone()));
        }
        c
    }
}

/// The three-conv residual block of ResNet-50/101/152 (1×1 reduce, 3×3
/// with the stride, 1×1 expand ×4).
#[derive(Debug)]
pub struct Bottleneck {
    conv1: ArcModule,
    bn1: ArcModule,
    conv2: ArcModule,
    bn2: ArcModule,
    conv3: ArcModule,
    bn3: ArcModule,
    relu: ArcModule,
    downsample: Option<ArcModule>,
}

impl Bottleneck {
    fn new<R: Rng>(
        inplanes: usize,
        planes: usize,
        stride: usize,
        downsample: Option<ArcModule>,
        rng: &mut R,
    ) -> Bottleneck {
        Bottleneck {
            conv1: Arc::new(conv1x1(inplanes, planes, 1, rng)),
            bn1: Arc::new(bn_with_stats(planes, rng)),
            conv2: Arc::new(conv3x3(planes, planes, stride, rng)),
            bn2: Arc::new(bn_with_stats(planes, rng)),
            conv3: Arc::new(conv1x1(planes, planes * 4, 1, rng)),
            bn3: Arc::new(bn_with_stats(planes * 4, rng)),
            relu: Arc::new(ReLU),
            downsample,
        }
    }
}

impl Module for Bottleneck {
    fn forward(&self, inputs: &[Value]) -> Result<Value> {
        let x = &inputs[0];
        let identity = match &self.downsample {
            Some(ds) => ds.call(&[x.clone()])?,
            None => x.clone(),
        };
        let out = self.conv1.call(&[x.clone()])?;
        let out = self.bn1.call(&[out])?;
        let out = self.relu.call(&[out])?;
        let out = self.conv2.call(&[out])?;
        let out = self.bn2.call(&[out])?;
        let out = self.relu.call(&[out])?;
        let out = self.conv3.call(&[out])?;
        let out = self.bn3.call(&[out])?;
        let out = func::add(&out, &identity)?;
        self.relu.call(&[out])
    }

    fn type_name(&self) -> &'static str {
        "Bottleneck"
    }

    fn children(&self) -> Vec<(String, ArcModule)> {
        let mut c = vec![
            ("conv1".to_string(), self.conv1.clone()),
            ("bn1".to_string(), self.bn1.clone()),
            ("conv2".to_string(), self.conv2.clone()),
            ("bn2".to_string(), self.bn2.clone()),
            ("conv3".to_string(), self.conv3.clone()),
            ("bn3".to_string(), self.bn3.clone()),
            ("relu".to_string(), self.relu.clone()),
        ];
        if let Some(ds) = &self.downsample {
            c.push(("downsample".to_string(), ds.clone()));
        }
        c
    }
}

/// A full residual network (stem → 4 stages → global pool → classifier).
#[derive(Debug)]
pub struct ResNet {
    conv1: ArcModule,
    bn1: ArcModule,
    relu: ArcModule,
    maxpool: ArcModule,
    layer1: ArcModule,
    layer2: ArcModule,
    layer3: ArcModule,
    layer4: ArcModule,
    avgpool: ArcModule,
    fc: ArcModule,
}

impl ResNet {
    fn build<R: Rng>(
        kind: BlockKind,
        layers: [usize; 4],
        in_channels: usize,
        num_classes: usize,
        base_width: usize,
        rng: &mut R,
    ) -> ResNet {
        let mut inplanes = base_width;
        let mut make_stage = |planes: usize, blocks: usize, stride: usize, rng: &mut R| {
            let expansion = kind.expansion();
            let mut stage: Vec<ArcModule> = Vec::new();
            for b in 0..blocks {
                let s = if b == 0 { stride } else { 1 };
                let needs_ds = s != 1 || inplanes != planes * expansion;
                let downsample: Option<ArcModule> = if b == 0 && needs_ds {
                    Some(Arc::new(Sequential::new(vec![
                        Arc::new(conv1x1(inplanes, planes * expansion, s, rng)),
                        Arc::new(bn_with_stats(planes * expansion, rng)),
                    ])))
                } else {
                    None
                };
                let block: ArcModule = match kind {
                    BlockKind::Basic => {
                        Arc::new(BasicBlock::new(inplanes, planes, s, downsample, rng))
                    }
                    BlockKind::Bottleneck => {
                        Arc::new(Bottleneck::new(inplanes, planes, s, downsample, rng))
                    }
                };
                stage.push(block);
                inplanes = planes * expansion;
            }
            Arc::new(Sequential::new(stage))
        };
        let layer1 = make_stage(base_width, layers[0], 1, rng);
        let layer2 = make_stage(base_width * 2, layers[1], 2, rng);
        let layer3 = make_stage(base_width * 4, layers[2], 2, rng);
        let layer4 = make_stage(base_width * 8, layers[3], 2, rng);
        ResNet {
            conv1: Arc::new(
                Conv2d::new(in_channels, base_width, (7, 7), rng)
                    .with_stride((2, 2))
                    .with_padding((3, 3))
                    .without_bias(),
            ),
            bn1: Arc::new(bn_with_stats(base_width, rng)),
            relu: Arc::new(ReLU),
            maxpool: Arc::new(MaxPool2d::new((3, 3)).with_stride((2, 2)).with_padding((1, 1))),
            layer1,
            layer2,
            layer3,
            layer4,
            avgpool: Arc::new(AdaptiveAvgPool2d::new((1, 1))),
            fc: Arc::new(Linear::new(base_width * 8 * kind.expansion(), num_classes, rng)),
        }
    }
}

impl Module for ResNet {
    fn forward(&self, inputs: &[Value]) -> Result<Value> {
        let x = self.conv1.call(&[inputs[0].clone()])?;
        let x = self.bn1.call(&[x])?;
        let x = self.relu.call(&[x])?;
        let x = self.maxpool.call(&[x])?;
        let x = self.layer1.call(&[x])?;
        let x = self.layer2.call(&[x])?;
        let x = self.layer3.call(&[x])?;
        let x = self.layer4.call(&[x])?;
        let x = self.avgpool.call(&[x])?;
        // As in torchvision: flatten is a free function, not a module.
        let x = func::flatten(&x, 1, -1)?;
        self.fc.call(&[x])
    }

    fn type_name(&self) -> &'static str {
        "ResNet"
    }

    fn children(&self) -> Vec<(String, ArcModule)> {
        vec![
            ("conv1".to_string(), self.conv1.clone()),
            ("bn1".to_string(), self.bn1.clone()),
            ("relu".to_string(), self.relu.clone()),
            ("maxpool".to_string(), self.maxpool.clone()),
            ("layer1".to_string(), self.layer1.clone()),
            ("layer2".to_string(), self.layer2.clone()),
            ("layer3".to_string(), self.layer3.clone()),
            ("layer4".to_string(), self.layer4.clone()),
            ("avgpool".to_string(), self.avgpool.clone()),
            ("fc".to_string(), self.fc.clone()),
        ]
    }
}

/// ResNet-18: `BasicBlock`, stages `[2, 2, 2, 2]`.
pub fn resnet18<R: Rng>(in_channels: usize, num_classes: usize, rng: &mut R) -> ResNet {
    ResNet::build(BlockKind::Basic, [2, 2, 2, 2], in_channels, num_classes, 64, rng)
}

/// ResNet-50: `Bottleneck`, stages `[3, 4, 6, 3]` — the paper's workhorse
/// model (25,557,032 trainable parameters).
pub fn resnet50<R: Rng>(in_channels: usize, num_classes: usize, rng: &mut R) -> ResNet {
    ResNet::build(
        BlockKind::Bottleneck,
        [3, 4, 6, 3],
        in_channels,
        num_classes,
        64,
        rng,
    )
}

/// A width-8 BasicBlock ResNet with stages `[1, 1, 1, 1]`, for fast
/// tests that still exercise the full residual topology (downsamples,
/// adds, stem, head).
pub fn resnet_tiny<R: Rng>(rng: &mut R) -> ResNet {
    ResNet::build(BlockKind::Basic, [1, 1, 1, 1], 3, 10, 8, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_core::{named_parameters, symbolic_trace};
    use fx_tensor::Tensor;
    use fx_tensor::rng::StdRng;
    use fx_tensor::rng::SeedableRng;

    /// Trainable parameters only (running stats excluded), the number
    /// torchvision reports.
    fn trainable(m: &dyn Module) -> usize {
        named_parameters(m)
            .into_iter()
            .filter(|(n, _)| !n.contains("running_"))
            .map(|(_, t)| t.numel())
            .sum()
    }

    #[test]
    fn resnet50_has_canonical_parameter_count() {
        let mut rng = StdRng::seed_from_u64(0);
        let model = resnet50(3, 1000, &mut rng);
        assert_eq!(trainable(&model), 25_557_032);
    }

    #[test]
    fn resnet18_has_canonical_parameter_count() {
        let mut rng = StdRng::seed_from_u64(0);
        let model = resnet18(3, 1000, &mut rng);
        assert_eq!(trainable(&model), 11_689_512);
    }

    #[test]
    fn tiny_forward_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let model = resnet_tiny(&mut rng);
        let x = Value::Tensor(Tensor::randn(&[2, 3, 32, 32], &mut rng));
        let y = model.call(&[x]).unwrap();
        assert_eq!(y.as_tensor().unwrap().shape(), &[2, 10]);
    }

    #[test]
    fn tiny_traces_and_interprets_identically() {
        let mut rng = StdRng::seed_from_u64(1);
        let model = resnet_tiny(&mut rng);
        let traced = symbolic_trace(&model).unwrap();
        traced.graph().lint().unwrap();
        let x = Value::Tensor(Tensor::randn(&[1, 3, 32, 32], &mut rng));
        let eager = model.call(&[x.clone()]).unwrap();
        let interp = traced.run(&[x]).unwrap();
        assert!(eager
            .as_tensor()
            .unwrap()
            .allclose(interp.as_tensor().unwrap(), 1e-4));
        // Residual adds appear as call_function add nodes.
        assert!(traced.code().contains(" + "));
        // Downsample paths appear with qualified Sequential names.
        assert!(traced
            .graph()
            .nodes()
            .any(|n| n.target().contains("downsample")));
    }

    #[test]
    fn stage_zero_blocks_downsample_only_when_needed() {
        let mut rng = StdRng::seed_from_u64(0);
        let model = resnet_tiny(&mut rng);
        let traced = symbolic_trace(&model).unwrap();
        // layer1 block 0 has no downsample (stride 1, channels equal);
        // layers 2-4 block 0 do.
        let targets: Vec<&str> = traced
            .graph()
            .nodes()
            .map(|n| n.target())
            .filter(|t| t.contains("downsample"))
            .collect();
        assert!(targets.iter().all(|t| !t.starts_with("layer1")));
        assert!(targets.iter().any(|t| t.starts_with("layer2")));
    }
}
