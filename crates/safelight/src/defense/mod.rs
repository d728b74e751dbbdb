//! Software-based HT-attack mitigation (paper §V): L2 regularization and
//! Gaussian noise-aware training, alone and combined.

mod variants;

pub use variants::{fig8_variants, noise_ablation_variants, VariantKind};

use std::path::{Path, PathBuf};

use safelight_datasets::SplitDataset;
use safelight_neuro::{
    load_network_params_stamped, save_network_params_stamped, Network, Trainer, TrainerConfig,
};

use crate::attack::{fold, mix64};
use crate::models::{build_model, ModelKind};
use crate::SafelightError;

/// How a model variant is trained: base hyper-parameters shared by every
/// variant of a model; the [`VariantKind`] then sets `weight_decay` and
/// `noise_std` on top.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingRecipe {
    /// Epochs per variant.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Initial learning rate.
    pub learning_rate: f32,
    /// L2 strength used by the `L2_reg` and `l2+nX` variants.
    pub l2_lambda: f32,
    /// Training seed (shared across variants so they differ only in the
    /// mitigation technique, as in the paper).
    pub seed: u64,
}

impl TrainingRecipe {
    /// A sensible default recipe for `kind` under the CPU budget
    /// (learning rates selected by a small grid search; see DESIGN.md).
    #[must_use]
    pub fn for_model(kind: ModelKind) -> Self {
        match kind {
            ModelKind::Cnn1 => Self {
                epochs: 12,
                batch_size: 32,
                learning_rate: 0.02,
                l2_lambda: 1e-4,
                seed: 17,
            },
            ModelKind::ResNet18s => Self {
                epochs: 8,
                batch_size: 32,
                learning_rate: 0.02,
                l2_lambda: 1e-4,
                seed: 18,
            },
            ModelKind::Vgg16s => Self {
                epochs: 10,
                batch_size: 32,
                learning_rate: 0.02,
                l2_lambda: 1e-4,
                seed: 19,
            },
        }
    }

    /// The trainer configuration for one variant.
    #[must_use]
    pub fn trainer_config(&self, variant: VariantKind) -> TrainerConfig {
        TrainerConfig {
            epochs: self.epochs,
            batch_size: self.batch_size,
            learning_rate: self.learning_rate,
            momentum: 0.9,
            weight_decay: if variant.uses_l2() {
                self.l2_lambda
            } else {
                0.0
            },
            noise_std: variant.noise_std(),
            lr_decay_epochs: (self.epochs / 2).max(1),
            lr_decay_factor: 0.3,
            seed: self.seed,
            verbose: false,
        }
    }
}

/// File name for a cached variant.
fn cache_file(
    dir: &Path,
    kind: ModelKind,
    variant: VariantKind,
    recipe: &TrainingRecipe,
) -> PathBuf {
    dir.join(format!(
        "{}-{}-e{}-s{}.slnn",
        kind.label().to_lowercase(),
        variant.file_tag(),
        recipe.epochs,
        recipe.seed
    ))
}

/// The cache-integrity stamp of one `(model, variant, recipe, layout)`
/// configuration: every training knob and the model's layer layout is
/// avalanche-mixed into a 64-bit hash recorded in the checkpoint header.
/// `bundle` is the freshly built (untrained) model whose layout the stamp
/// covers — passed in so the caller's existing build is reused.
///
/// The file *name* only encodes the epoch count and seed; the stamp covers
/// everything else — so a checkpoint trained under an older learning rate,
/// L2 strength, batch size or model architecture is rejected by
/// [`safelight_neuro::load_network_params_stamped`] instead of silently
/// loaded.
fn cache_stamp(
    kind: ModelKind,
    variant: VariantKind,
    recipe: &TrainingRecipe,
    bundle: &crate::models::ModelBundle,
) -> u64 {
    let mut h = 0x5AFE_CAC4_E5A1_7ED5_u64;
    for byte in kind.label().bytes() {
        h = fold(h, u64::from(byte));
    }
    for byte in variant.file_tag().bytes() {
        h = fold(h, u64::from(byte));
    }
    h = fold(h, recipe.epochs as u64);
    h = fold(h, recipe.batch_size as u64);
    h = fold(h, u64::from(recipe.learning_rate.to_bits()));
    h = fold(h, u64::from(recipe.l2_lambda.to_bits()));
    h = fold(h, recipe.seed);
    // Training numerics depend on the active GEMM kernel tier (each tier
    // sums in its own register-block order) and, within the SIMD tier, on
    // the detected ISA — so a checkpoint trained under one kernel must
    // not be silently reused under another.
    let tier = safelight_neuro::GemmImpl::active();
    for byte in tier.name().bytes().chain(tier.isa().bytes()) {
        h = fold(h, u64::from(byte));
    }
    // The model layout: shapes of every parameter tensor, so architecture
    // changes (new layers, resized blocks) invalidate old checkpoints even
    // when the total parameter count happens to line up.
    for spec in &bundle.layer_specs {
        h = fold(h, spec.weights as u64);
    }
    for p in bundle.network.params() {
        for &dim in p.value.shape() {
            h = fold(h, dim as u64);
        }
    }
    mix64(h)
}

/// Trains (or loads from `cache_dir`, if given) one mitigation variant of
/// `kind` on `data`, returning the trained network.
///
/// Variants share the model seed and training schedule; only the §V
/// mitigation knobs differ, mirroring the paper's methodology.
///
/// # Errors
///
/// Propagates model construction and training errors; cache I/O errors are
/// treated as cache misses, not failures.
pub fn train_variant(
    kind: ModelKind,
    variant: VariantKind,
    data: &SplitDataset,
    recipe: &TrainingRecipe,
    cache_dir: Option<&Path>,
) -> Result<Network, SafelightError> {
    let bundle = build_model(kind, recipe.seed)?;
    // Only computed when a cache participates; reuses the build above.
    let stamp = cache_dir.map(|_| cache_stamp(kind, variant, recipe, &bundle));
    let mut network = bundle.network;

    if let (Some(dir), Some(stamp)) = (cache_dir, stamp) {
        let path = cache_file(dir, kind, variant, recipe);
        // A stamp mismatch (older recipe/layout/format) is a cache miss:
        // the checkpoint is ignored and the variant retrained.
        if path.exists() && load_network_params_stamped(&mut network, &path, stamp).is_ok() {
            return Ok(network);
        }
    }

    let trainer = Trainer::new(recipe.trainer_config(variant));
    trainer.fit(&mut network, &data.train)?;

    if let (Some(dir), Some(stamp)) = (cache_dir, stamp) {
        if std::fs::create_dir_all(dir).is_ok() {
            let path = cache_file(dir, kind, variant, recipe);
            // Best-effort cache write; a failure only costs a retrain later.
            let _ = save_network_params_stamped(&network, path, stamp);
        }
    }
    Ok(network)
}

#[cfg(test)]
mod tests {
    use super::*;
    use safelight_datasets::{digits, SyntheticSpec};

    fn tiny_data() -> SplitDataset {
        digits(&SyntheticSpec {
            train: 60,
            test: 20,
            ..SyntheticSpec::default()
        })
        .unwrap()
    }

    fn tiny_recipe() -> TrainingRecipe {
        TrainingRecipe {
            epochs: 2,
            batch_size: 16,
            ..TrainingRecipe::for_model(ModelKind::Cnn1)
        }
    }

    #[test]
    fn variant_knobs_flow_into_trainer_config() {
        let recipe = TrainingRecipe::for_model(ModelKind::Cnn1);
        let orig = recipe.trainer_config(VariantKind::Original);
        assert_eq!(orig.weight_decay, 0.0);
        assert_eq!(orig.noise_std, 0.0);
        let l2n3 = recipe.trainer_config(VariantKind::L2Noise(3));
        assert!(l2n3.weight_decay > 0.0);
        assert!((l2n3.noise_std - 0.3).abs() < 1e-6);
    }

    #[test]
    fn training_produces_a_working_classifier() {
        let data = tiny_data();
        let net = train_variant(
            ModelKind::Cnn1,
            VariantKind::Original,
            &data,
            &tiny_recipe(),
            None,
        )
        .unwrap();
        assert!(net.parameter_count() > 10_000);
    }

    #[test]
    fn truncated_cache_file_retrains_from_a_fresh_model() {
        // A checkpoint that passes the stamp but ends early must be a clean
        // cache miss: the retrain starts from the untouched initial weights,
        // not from a half-loaded network.
        let dir = std::env::temp_dir().join(format!(
            "safelight-truncated-cache-test-{}",
            std::process::id()
        ));
        let data = tiny_data();
        let recipe = tiny_recipe();
        let train = |cache: Option<&Path>| {
            train_variant(
                ModelKind::Cnn1,
                VariantKind::Original,
                &data,
                &recipe,
                cache,
            )
            .unwrap()
        };
        let uncached = train(None);
        let path = cache_file(&dir, ModelKind::Cnn1, VariantKind::Original, &recipe);
        let bundle = build_model(ModelKind::Cnn1, recipe.seed).unwrap();
        let stamp = cache_stamp(ModelKind::Cnn1, VariantKind::Original, &recipe, &bundle);
        std::fs::create_dir_all(&dir).unwrap();
        // Cached weights that differ from the fresh initialization, cut off
        // halfway through the payload.
        save_network_params_stamped(&uncached, &path, stamp).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let retrained = train(Some(&dir));
        let bits = |net: &Network| -> Vec<u32> {
            net.params()
                .iter()
                .flat_map(|p| p.value.as_slice().iter().map(|v| v.to_bits()))
                .collect()
        };
        assert_eq!(bits(&uncached), bits(&retrained));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_cache_configurations_are_rejected() {
        // Regression for the silent-stale-load bug: the cache *file name*
        // only carries epochs and seed, so two recipes differing in (say)
        // the L2 strength collide on the same path. The header stamp must
        // force a retrain instead of silently loading the old weights.
        let dir = std::env::temp_dir().join(format!("safelight-stamp-test-{}", std::process::id()));
        let data = tiny_data();
        let recipe_a = tiny_recipe();
        let recipe_b = TrainingRecipe {
            l2_lambda: recipe_a.l2_lambda * 10.0,
            ..recipe_a
        };
        assert_eq!(
            cache_file(&dir, ModelKind::Cnn1, VariantKind::L2Only, &recipe_a),
            cache_file(&dir, ModelKind::Cnn1, VariantKind::L2Only, &recipe_b),
            "recipes must collide on the cache path for this test to bite"
        );
        let bundle = build_model(ModelKind::Cnn1, recipe_a.seed).unwrap();
        assert_ne!(
            cache_stamp(ModelKind::Cnn1, VariantKind::L2Only, &recipe_a, &bundle),
            cache_stamp(ModelKind::Cnn1, VariantKind::L2Only, &recipe_b, &bundle)
        );
        let a = train_variant(
            ModelKind::Cnn1,
            VariantKind::L2Only,
            &data,
            &recipe_a,
            Some(&dir),
        )
        .unwrap();
        // Same path, different stamp: must retrain (different L2 ⇒
        // different weights), then overwrite the checkpoint.
        let b = train_variant(
            ModelKind::Cnn1,
            VariantKind::L2Only,
            &data,
            &recipe_b,
            Some(&dir),
        )
        .unwrap();
        let differs = a
            .params()
            .iter()
            .zip(b.params().iter())
            .any(|(pa, pb)| pa.value.as_slice() != pb.value.as_slice());
        assert!(differs, "stale checkpoint was silently loaded");
        // And the overwritten cache now round-trips under recipe B.
        let c = train_variant(
            ModelKind::Cnn1,
            VariantKind::L2Only,
            &data,
            &recipe_b,
            Some(&dir),
        )
        .unwrap();
        for (pb, pc) in b.params().iter().zip(c.params().iter()) {
            assert_eq!(pb.value.as_slice(), pc.value.as_slice());
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn cache_round_trips_weights() {
        let dir = std::env::temp_dir().join(format!("safelight-cache-test-{}", std::process::id()));
        let data = tiny_data();
        let recipe = tiny_recipe();
        let a = train_variant(
            ModelKind::Cnn1,
            VariantKind::L2Only,
            &data,
            &recipe,
            Some(&dir),
        )
        .unwrap();
        // Second call must hit the cache and return identical weights.
        let b = train_variant(
            ModelKind::Cnn1,
            VariantKind::L2Only,
            &data,
            &recipe,
            Some(&dir),
        )
        .unwrap();
        for (pa, pb) in a.params().iter().zip(b.params().iter()) {
            assert_eq!(pa.value.as_slice(), pb.value.as_slice());
        }
        std::fs::remove_dir_all(dir).ok();
    }
}
