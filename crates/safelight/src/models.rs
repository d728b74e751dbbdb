//! The paper's three CNN workloads (Table I) and their accelerator maps.
//!
//! | Model | Paper | This reproduction |
//! |---|---|---|
//! | `CNN_1` | MNIST, 2 CONV + 3 FC, 44.2 K params | digits stand-in, same layer composition, ≈40 K params (full scale) |
//! | `ResNet18` | CIFAR-10, 17 CONV + 1 FC, 4.7 M params | tinted-shapes stand-in, same 17-convolution residual topology, widths ÷8 |
//! | `VGG16_v` | Imagenette, 6 CONV + 3 FC, 123.5 M params | textured-scenes stand-in, same 6 CONV + 3 FC composition, FC-dominated (>90 % of params) |
//!
//! The width scaling (forced by the 2-CPU-core budget) preserves the three
//! properties the paper's susceptibility analysis depends on: layer
//! composition (CONV/FC balance), depth, and — together with
//! [`AcceleratorConfig::scaled_experiment`] — the ordering of
//! parameter-to-capacity reuse rounds.
//!
//! [`AcceleratorConfig::scaled_experiment`]: safelight_onn::AcceleratorConfig::scaled_experiment

use safelight_datasets::SyntheticKind;
use safelight_neuro::{
    BatchNorm2d, Conv2d, Flatten, GlobalAvgPool2d, Layer, Linear, MaxPool2d, Network, Relu,
    ResidualBlock,
};
use safelight_onn::{AcceleratorConfig, BlockConfig, BlockKind, LayerSpec};

use crate::SafelightError;

/// Which of the paper's CNN models to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// The simple MNIST-style classifier (2 CONV + 3 FC).
    Cnn1,
    /// The ResNet-18-style residual network (17 CONV + 1 FC).
    ResNet18s,
    /// The VGG16 variant (6 CONV + 3 FC, FC-dominated).
    Vgg16s,
}

impl ModelKind {
    /// All three models in the paper's presentation order.
    #[must_use]
    pub fn all() -> [ModelKind; 3] {
        [Self::Cnn1, Self::ResNet18s, Self::Vgg16s]
    }

    /// The short display label used in figures and reports.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Self::Cnn1 => "CNN_1",
            Self::ResNet18s => "ResNet18",
            Self::Vgg16s => "VGG16_v",
        }
    }
}

impl std::fmt::Display for ModelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// The synthetic dataset a model trains and evaluates on.
#[must_use]
pub fn dataset_kind_for(kind: ModelKind) -> SyntheticKind {
    match kind {
        ModelKind::Cnn1 => SyntheticKind::Digits,
        ModelKind::ResNet18s => SyntheticKind::TintedShapes,
        ModelKind::Vgg16s => SyntheticKind::TexturedScenes,
    }
}

/// A built network plus the layer specs that map its weight tensors onto
/// the accelerator (one spec per decayed parameter tensor, in order).
#[derive(Debug, Clone)]
pub struct ModelBundle {
    /// The freshly initialized network.
    pub network: Network,
    /// Weight-stationary mapping specs, aligned with the network's weight
    /// tensors.
    pub layer_specs: Vec<LayerSpec>,
    /// Which model this is.
    pub kind: ModelKind,
}

impl ModelBundle {
    /// Convolution-block parameter count (weights only).
    #[must_use]
    pub fn conv_weights(&self) -> usize {
        self.layer_specs
            .iter()
            .filter(|s| s.kind == BlockKind::Conv)
            .map(|s| s.weights)
            .sum()
    }

    /// FC-block parameter count (weights only).
    #[must_use]
    pub fn fc_weights(&self) -> usize {
        self.layer_specs
            .iter()
            .filter(|s| s.kind == BlockKind::Fc)
            .map(|s| s.weights)
            .sum()
    }
}

/// Helper that pushes a layer and records its mapping spec when it carries
/// mapped weights.
struct Builder {
    network: Network,
    specs: Vec<LayerSpec>,
    seed: u64,
}

impl Builder {
    fn new(seed: u64) -> Self {
        Self {
            network: Network::new(),
            specs: Vec::new(),
            seed,
        }
    }

    fn next_seed(&mut self) -> u64 {
        self.seed = self
            .seed
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        self.seed
    }

    fn conv(
        &mut self,
        name: &str,
        in_c: usize,
        out_c: usize,
        k: usize,
    ) -> Result<(), SafelightError> {
        let seed = self.next_seed();
        let conv = Conv2d::new(in_c, out_c, k, seed)?;
        self.specs
            .push(LayerSpec::new(name, BlockKind::Conv, out_c * in_c * k * k));
        self.network.push(conv);
        Ok(())
    }

    fn residual(
        &mut self,
        name: &str,
        in_c: usize,
        out_c: usize,
        stride: usize,
    ) -> Result<(), SafelightError> {
        let seed = self.next_seed();
        let block = ResidualBlock::new(in_c, out_c, stride, seed)?;
        // Decayed-parameter order inside the block: conv1.w, conv2.w,
        // then the projection shortcut's weight when present.
        self.specs.push(LayerSpec::new(
            format!("{name}.conv1"),
            BlockKind::Conv,
            out_c * in_c * 9,
        ));
        self.specs.push(LayerSpec::new(
            format!("{name}.conv2"),
            BlockKind::Conv,
            out_c * out_c * 9,
        ));
        if stride != 1 || in_c != out_c {
            self.specs.push(LayerSpec::new(
                format!("{name}.proj"),
                BlockKind::Conv,
                out_c * in_c,
            ));
        }
        self.network.push(block);
        Ok(())
    }

    fn linear(&mut self, name: &str, in_f: usize, out_f: usize) -> Result<(), SafelightError> {
        let seed = self.next_seed();
        let fc = Linear::new(in_f, out_f, seed)?;
        self.specs
            .push(LayerSpec::new(name, BlockKind::Fc, out_f * in_f));
        self.network.push(fc);
        Ok(())
    }

    fn push<L: Layer + 'static>(&mut self, layer: L) {
        self.network.push(layer);
    }

    fn finish(self, kind: ModelKind) -> ModelBundle {
        ModelBundle {
            network: self.network,
            layer_specs: self.specs,
            kind,
        }
    }
}

/// Builds `CNN_1`: 2 CONV + 3 FC on 1×28×28 inputs, ≈40 K parameters.
fn build_cnn1(seed: u64) -> Result<ModelBundle, SafelightError> {
    let mut b = Builder::new(seed ^ 0xC991);
    b.conv("conv1", 1, 8, 5)?;
    b.push(Relu::new());
    b.push(MaxPool2d::new(2)?); // 28 → 14
    b.conv("conv2", 8, 16, 3)?;
    b.push(Relu::new());
    b.push(MaxPool2d::new(2)?); // 14 → 7
    b.push(Flatten::new()); // 16·7·7 = 784
    b.linear("fc1", 784, 48)?;
    b.push(Relu::new());
    b.linear("fc2", 48, 24)?;
    b.push(Relu::new());
    b.linear("fc3", 24, 10)?;
    Ok(b.finish(ModelKind::Cnn1))
}

/// Builds the ResNet-18-style network: stem + 8 basic blocks (16 block
/// convolutions) = 17 weight convolutions, widths `[8, 16, 24, 32]`, on
/// 3×32×32 inputs.
fn build_resnet18s(seed: u64) -> Result<ModelBundle, SafelightError> {
    let mut b = Builder::new(seed ^ 0x4E57);
    b.conv("stem", 3, 8, 3)?;
    b.push(BatchNorm2d::new(8)?);
    b.push(Relu::new());
    // layer1: 8 → 8, two identity blocks at 32×32.
    b.residual("layer1.0", 8, 8, 1)?;
    b.residual("layer1.1", 8, 8, 1)?;
    // layer2: 8 → 16, stride 2 (32 → 16).
    b.residual("layer2.0", 8, 16, 2)?;
    b.residual("layer2.1", 16, 16, 1)?;
    // layer3: 16 → 24, stride 2 (16 → 8).
    b.residual("layer3.0", 16, 24, 2)?;
    b.residual("layer3.1", 24, 24, 1)?;
    // layer4: 24 → 32, stride 2 (8 → 4).
    b.residual("layer4.0", 24, 32, 2)?;
    b.residual("layer4.1", 32, 32, 1)?;
    b.push(GlobalAvgPool2d::new());
    b.linear("fc", 32, 10)?;
    Ok(b.finish(ModelKind::ResNet18s))
}

/// Builds the VGG16 variant: 6 CONV + 3 FC on 3×64×64 inputs, with the FC
/// stack holding >90 % of the parameters as in the paper's 123.5 M-param
/// original.
///
/// Each convolution is followed by batch normalization: the width-scaled
/// plain-VGG stack does not train reliably at this size, and BN executes in
/// the electronic post-processing path (its parameters are not mapped to
/// microrings, so the attack surface is unchanged).
fn build_vgg16s(seed: u64) -> Result<ModelBundle, SafelightError> {
    let mut b = Builder::new(seed ^ 0x5997);
    b.conv("conv1", 3, 8, 3)?;
    b.push(BatchNorm2d::new(8)?);
    b.push(Relu::new());
    b.push(MaxPool2d::new(2)?); // 64 → 32
    b.conv("conv2", 8, 16, 3)?;
    b.push(BatchNorm2d::new(16)?);
    b.push(Relu::new());
    b.push(MaxPool2d::new(2)?); // 32 → 16
    b.conv("conv3", 16, 16, 3)?;
    b.push(BatchNorm2d::new(16)?);
    b.push(Relu::new());
    b.conv("conv4", 16, 32, 3)?;
    b.push(BatchNorm2d::new(32)?);
    b.push(Relu::new());
    b.push(MaxPool2d::new(2)?); // 16 → 8
    b.conv("conv5", 32, 32, 3)?;
    b.push(BatchNorm2d::new(32)?);
    b.push(Relu::new());
    b.conv("conv6", 32, 32, 3)?;
    b.push(BatchNorm2d::new(32)?);
    b.push(Relu::new());
    b.push(MaxPool2d::new(2)?); // 8 → 4
    b.push(Flatten::new()); // 32·4·4 = 512
    b.linear("fc1", 512, 384)?;
    b.push(Relu::new());
    b.linear("fc2", 384, 256)?;
    b.push(Relu::new());
    b.linear("fc3", 256, 10)?;
    Ok(b.finish(ModelKind::Vgg16s))
}

/// Builds a freshly initialized model of `kind`, seeded by `seed`.
///
/// # Errors
///
/// Propagates layer construction errors (none for valid built-in shapes).
///
/// # Example
///
/// ```
/// use safelight::models::{build_model, ModelKind};
///
/// # fn main() -> Result<(), safelight::SafelightError> {
/// let bundle = build_model(ModelKind::Cnn1, 1)?;
/// // 2 CONV + 3 FC weight tensors.
/// assert_eq!(bundle.layer_specs.len(), 5);
/// # Ok(())
/// # }
/// ```
pub fn build_model(kind: ModelKind, seed: u64) -> Result<ModelBundle, SafelightError> {
    match kind {
        ModelKind::Cnn1 => build_cnn1(seed),
        ModelKind::ResNet18s => build_resnet18s(seed),
        ModelKind::Vgg16s => build_vgg16s(seed),
    }
}

/// The accelerator profile whose *structural attack quantities* match the
/// paper's for `kind`.
///
/// The paper runs all three CNNs on one accelerator (CONV: 100 VDP units of
/// 20×20 MRs; FC: 60 of 150×150). Susceptibility is driven by three
/// structural ratios of model-to-accelerator:
///
/// 1. **block utilization** — what fraction of a block's rings carry
///    weights (low utilization shields a model: most attacked banks hit
///    unused rings, e.g. CNN_1's FC layers occupy only 3 % of the paper's
///    FC block);
/// 2. **reuse rounds** — how many parameters share one ring
///    (≈117× for ResNet18's CONV weights, ≈89× for VGG16_v's FC weights);
/// 3. **bank granularity** — hotspot attacks are bank-quantized, so the
///    bank count sets the minimum attack footprint.
///
/// Because this reproduction's models are width-scaled *non-uniformly*
/// (CNN_1 full scale, ResNet ÷8 widths, VGG ÷~20), no single scaled
/// accelerator preserves all three ratios for all three models. Instead,
/// each model gets a profile with the paper's bank counts (100 CONV / 60
/// FC) and bank sizes chosen so its utilization and reuse rounds match the
/// paper's:
///
/// | Model | CONV util/rounds (paper) | FC util/rounds (paper) |
/// |---|---|---|
/// | CNN_1 | 6.5 % util | 3.1 % util |
/// | ResNet18 | ≈109 rounds (117) | 0.4 % util |
/// | VGG16_v | ≈89 rounds (97) | ≈89 rounds (89) |
///
/// # Errors
///
/// Propagates configuration errors (none for the built-in shapes).
pub fn matched_accelerator(kind: ModelKind) -> Result<AcceleratorConfig, SafelightError> {
    let (conv, fc) = match kind {
        // CNN_1: conv 1 352 / 20 800 = 6.5 % util; fc 39 024 / 1.26 M = 3.1 %.
        ModelKind::Cnn1 => (
            BlockConfig {
                vdp_units: 100,
                bank_rows: 13,
                bank_cols: 16,
            },
            BlockConfig {
                vdp_units: 60,
                bank_rows: 140,
                bank_cols: 150,
            },
        ),
        // ResNet18s: conv 65 432 / 600 ≈ 109 rounds; fc 320 / 79 920 = 0.4 %.
        ModelKind::ResNet18s => (
            BlockConfig {
                vdp_units: 100,
                bank_rows: 2,
                bank_cols: 3,
            },
            BlockConfig {
                vdp_units: 60,
                bank_rows: 36,
                bank_cols: 37,
            },
        ),
        // VGG16s: conv 26 712 / 300 ≈ 89 rounds; fc 297 472 / 3 360 ≈ 89.
        ModelKind::Vgg16s => (
            BlockConfig {
                vdp_units: 100,
                bank_rows: 1,
                bank_cols: 3,
            },
            BlockConfig {
                vdp_units: 60,
                bank_rows: 7,
                bank_cols: 8,
            },
        ),
    };
    Ok(AcceleratorConfig::custom(conv, fc)?)
}

/// One row of Table I: the paper's reported values next to this
/// reproduction's.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Model label.
    pub model: &'static str,
    /// Dataset names: (paper, stand-in).
    pub dataset: (&'static str, String),
    /// CONV layer counts: (paper, ours).
    pub conv_layers: (usize, usize),
    /// CONV parameter counts: (paper, ours).
    pub conv_params: (usize, usize),
    /// FC layer counts: (paper, ours).
    pub fc_layers: (usize, usize),
    /// FC parameter counts: (paper, ours).
    pub fc_params: (usize, usize),
    /// Total parameter counts: (paper, ours).
    pub total_params: (usize, usize),
}

/// Regenerates Table I with paper-reported and reproduction values side by
/// side.
///
/// # Errors
///
/// Propagates model construction errors.
pub fn table1() -> Result<Vec<Table1Row>, SafelightError> {
    let paper: [(&str, &str, usize, usize, usize, usize, usize); 3] = [
        ("CNN_1", "MNIST", 2, 2_600, 3, 41_600, 44_200),
        ("ResNet18", "CIFAR10", 17, 4_700_000, 1, 5_100, 4_700_000),
        (
            "VGG16_v",
            "Imagenette",
            6,
            3_900_000,
            3,
            119_600_000,
            123_500_000,
        ),
    ];
    let mut rows = Vec::with_capacity(3);
    for (kind, p) in ModelKind::all().into_iter().zip(paper) {
        let bundle = build_model(kind, 0)?;
        // Count only primary convolutions (projection shortcuts are 1×1
        // mapping helpers, not counted by the paper's layer tally).
        let conv_layers_ours = bundle
            .layer_specs
            .iter()
            .filter(|s| s.kind == BlockKind::Conv && !s.name.ends_with(".proj"))
            .count();
        let fc_layers_ours = bundle
            .layer_specs
            .iter()
            .filter(|s| s.kind == BlockKind::Fc)
            .count();
        rows.push(Table1Row {
            model: p.0,
            dataset: (p.1, dataset_kind_for(kind).to_string()),
            conv_layers: (p.2, conv_layers_ours),
            conv_params: (p.3, bundle.conv_weights()),
            fc_layers: (p.4, fc_layers_ours),
            fc_params: (p.5, bundle.fc_weights()),
            total_params: (p.6, bundle.conv_weights() + bundle.fc_weights()),
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use safelight_neuro::Tensor;

    #[test]
    fn cnn1_has_two_conv_three_fc() {
        let b = build_model(ModelKind::Cnn1, 1).unwrap();
        let conv = b
            .layer_specs
            .iter()
            .filter(|s| s.kind == BlockKind::Conv)
            .count();
        let fc = b
            .layer_specs
            .iter()
            .filter(|s| s.kind == BlockKind::Fc)
            .count();
        assert_eq!((conv, fc), (2, 3));
    }

    #[test]
    fn resnet_has_seventeen_primary_convs_and_one_fc() {
        let b = build_model(ModelKind::ResNet18s, 1).unwrap();
        let primary = b
            .layer_specs
            .iter()
            .filter(|s| s.kind == BlockKind::Conv && !s.name.ends_with(".proj"))
            .count();
        let fc = b
            .layer_specs
            .iter()
            .filter(|s| s.kind == BlockKind::Fc)
            .count();
        assert_eq!((primary, fc), (17, 1));
    }

    #[test]
    fn vgg_is_fc_dominated() {
        let b = build_model(ModelKind::Vgg16s, 1).unwrap();
        let fc = b.fc_weights() as f64;
        let total = (b.fc_weights() + b.conv_weights()) as f64;
        assert!(fc / total > 0.9, "FC share {}", fc / total);
    }

    #[test]
    fn layer_specs_match_network_weight_tensors() {
        for kind in ModelKind::all() {
            let b = build_model(kind, 3).unwrap();
            let weight_lens: Vec<usize> = b
                .network
                .params()
                .iter()
                .filter(|p| p.decay)
                .map(|p| p.value.len())
                .collect();
            assert_eq!(weight_lens.len(), b.layer_specs.len(), "{kind}: spec count");
            for (len, spec) in weight_lens.iter().zip(&b.layer_specs) {
                assert_eq!(*len, spec.weights, "{kind}: layer `{}`", spec.name);
            }
        }
    }

    #[test]
    fn models_forward_on_their_dataset_shapes() {
        let shapes = [
            (ModelKind::Cnn1, vec![2, 1, 28, 28]),
            (ModelKind::ResNet18s, vec![2, 3, 32, 32]),
            (ModelKind::Vgg16s, vec![2, 3, 64, 64]),
        ];
        for (kind, shape) in shapes {
            let mut b = build_model(kind, 5).unwrap();
            let y = b.network.forward(&Tensor::zeros(shape), false).unwrap();
            assert_eq!(y.shape(), &[2, 10], "{kind} logits shape");
        }
    }

    #[test]
    fn checkpoints_restore_eval_logits_bitwise() {
        use safelight_neuro::{
            load_network_params, save_network_params, InMemoryDataset, Trainer, TrainerConfig,
        };
        // Deterministic pseudo-image pixels in [0, 1).
        let pixels = |len: usize, salt: usize| -> Vec<f32> {
            (0..len)
                .map(|j| ((j * 7 + salt * 31) % 13) as f32 / 13.0)
                .collect()
        };
        let shapes = [
            (ModelKind::Cnn1, vec![1, 28, 28]),
            (ModelKind::ResNet18s, vec![3, 32, 32]),
            (ModelKind::Vgg16s, vec![3, 64, 64]),
        ];
        for (kind, chw) in shapes {
            let len: usize = chw.iter().product();
            let images = (0..4)
                .map(|i| Tensor::from_vec(chw.clone(), pixels(len, i)).unwrap())
                .collect();
            let data = InMemoryDataset::new(images, vec![0, 1, 2, 3]).unwrap();
            let mut trained = build_model(kind, 5).unwrap().network;
            Trainer::new(TrainerConfig {
                epochs: 1,
                batch_size: 2,
                ..TrainerConfig::default()
            })
            .fit(&mut trained, &data)
            .unwrap();

            let path = std::env::temp_dir().join(format!(
                "safelight-checkpoint-{kind}-{}.slnn",
                std::process::id()
            ));
            save_network_params(&trained, &path).unwrap();
            let mut loaded = build_model(kind, 6).unwrap().network;
            load_network_params(&mut loaded, &path).unwrap();
            std::fs::remove_file(&path).ok();

            let mut shape = vec![2];
            shape.extend(&chw);
            let batch = Tensor::from_vec(shape, pixels(2 * len, 99)).unwrap();
            let bits = |net: &mut safelight_neuro::Network| -> Vec<u32> {
                let logits = net.forward(&batch, false).unwrap();
                logits.as_slice().iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(bits(&mut trained), bits(&mut loaded), "{kind} logits");
        }
    }

    #[test]
    fn params_only_backward_matches_full_backward_bitwise() {
        // The trainer back-propagates without the input gradient; every
        // parameter gradient must still equal the full backward's, on the
        // plain CNN and on the residual/BatchNorm net (stride-2 blocks
        // with 1×1 projections).
        let shapes = [
            (ModelKind::Cnn1, vec![1, 28, 28]),
            (ModelKind::ResNet18s, vec![3, 32, 32]),
        ];
        for (kind, chw) in shapes {
            // Five samples: one full batch block plus a ragged one.
            let mut shape = vec![5];
            shape.extend(&chw);
            let len: usize = shape.iter().product();
            let batch = Tensor::from_vec(
                shape,
                (0..len).map(|j| ((j * 7) % 13) as f32 / 13.0).collect(),
            )
            .unwrap();
            let mut full = build_model(kind, 3).unwrap().network;
            let mut params_only = full.clone();
            let logits = full.forward(&batch, true).unwrap();
            params_only.forward(&batch, true).unwrap();
            let grad = Tensor::from_vec(
                logits.shape().to_vec(),
                (0..logits.len()).map(|j| (j as f32 * 0.37).sin()).collect(),
            )
            .unwrap();
            full.backward(&grad).unwrap();
            params_only.backward_params(&grad).unwrap();
            let grads = |net: &Network| -> Vec<Vec<u32>> {
                net.params()
                    .iter()
                    .map(|p| p.grad.as_slice().iter().map(|v| v.to_bits()).collect())
                    .collect()
            };
            assert_eq!(grads(&full), grads(&params_only), "{kind}");
            assert!(grads(&full).iter().flatten().any(|&b| b != 0), "{kind}");
        }
    }

    #[test]
    fn table1_columns_are_consistent() {
        let rows = table1().unwrap();
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert_eq!(
                row.total_params.1,
                row.conv_params.1 + row.fc_params.1,
                "{}: totals",
                row.model
            );
            // Layer composition matches the paper exactly.
            assert_eq!(row.conv_layers.0, row.conv_layers.1, "{}", row.model);
            assert_eq!(row.fc_layers.0, row.fc_layers.1, "{}", row.model);
        }
    }

    #[test]
    fn cnn1_is_roughly_paper_scale() {
        let rows = table1().unwrap();
        let cnn1 = &rows[0];
        let ratio = cnn1.total_params.1 as f64 / cnn1.total_params.0 as f64;
        assert!((0.5..=1.5).contains(&ratio), "CNN_1 scale ratio {ratio}");
    }

    #[test]
    fn different_seeds_give_different_weights() {
        let a = build_model(ModelKind::Cnn1, 1).unwrap();
        let b = build_model(ModelKind::Cnn1, 2).unwrap();
        let wa = a.network.params()[0].value.as_slice().to_vec();
        let wb = b.network.params()[0].value.as_slice().to_vec();
        assert_ne!(wa, wb);
    }
}
