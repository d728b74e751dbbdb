//! Training loop with L2 regularization and Gaussian noise-aware training —
//! the two software mitigation techniques evaluated by the paper (§V).

use crate::data::Dataset;
use crate::metrics::accuracy;
use crate::model::Network;
use crate::optim::{Sgd, SgdConfig};
use crate::rng::SimRng;
use crate::tensor::Tensor;
use crate::{softmax_cross_entropy, NeuroError};
use safelight_obs::profile_span;

/// Configuration for [`Trainer`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainerConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Initial learning rate.
    pub learning_rate: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// L2 regularization strength λ (0 disables). This is the paper's
    /// §V.A mitigation: `R(w) = λ/(2m)·Σ‖w‖²` added to the loss.
    pub weight_decay: f32,
    /// Relative Gaussian noise σ for noise-aware training (0 disables).
    /// This is the paper's §V.B mitigation: during each training forward
    /// pass, every weight tensor `W` is perturbed by
    /// `N(0, (σ·rms(W))²)`, gradients are taken at the perturbed point, and
    /// the update is applied to the clean weights — the scheme used for
    /// noise-resilient PCM accelerators (paper ref.\[32\]) with the noise
    /// scale tied to each layer's weight magnitude.
    pub noise_std: f32,
    /// Multiply the learning rate by [`lr_decay_factor`](Self::lr_decay_factor)
    /// every `lr_decay_epochs` epochs (0 disables the schedule).
    pub lr_decay_epochs: usize,
    /// Step-schedule decay factor.
    pub lr_decay_factor: f32,
    /// Seed for shuffling and noise.
    pub seed: u64,
    /// Print one progress line per epoch when true.
    pub verbose: bool,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        Self {
            epochs: 10,
            batch_size: 32,
            learning_rate: 0.05,
            momentum: 0.9,
            weight_decay: 0.0,
            noise_std: 0.0,
            lr_decay_epochs: 0,
            lr_decay_factor: 0.5,
            seed: 0,
            verbose: false,
        }
    }
}

/// Summary of a completed training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Mean loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Accuracy over the training set after the final epoch.
    pub final_train_accuracy: f64,
}

/// Mini-batch SGD trainer.
///
/// # Example
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone)]
pub struct Trainer {
    config: TrainerConfig,
}

impl Trainer {
    /// Creates a trainer with the given configuration.
    #[must_use]
    pub fn new(config: TrainerConfig) -> Self {
        Self { config }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &TrainerConfig {
        &self.config
    }

    /// Trains `network` on `data`.
    ///
    /// # Errors
    ///
    /// Returns [`NeuroError::InvalidParameter`] for a zero batch size or
    /// epoch count, and propagates dataset/layer errors.
    pub fn fit<D: Dataset + ?Sized>(
        &self,
        network: &mut Network,
        data: &D,
    ) -> Result<TrainReport, NeuroError> {
        let _span = profile_span("train");
        let cfg = &self.config;
        if cfg.batch_size == 0 {
            return Err(NeuroError::InvalidParameter {
                name: "batch_size",
                value: 0.0,
            });
        }
        if cfg.epochs == 0 {
            return Err(NeuroError::InvalidParameter {
                name: "epochs",
                value: 0.0,
            });
        }
        if !(0.0..=10.0).contains(&cfg.noise_std) {
            return Err(NeuroError::InvalidParameter {
                name: "noise_std",
                value: f64::from(cfg.noise_std),
            });
        }

        let mut sgd = Sgd::new(SgdConfig {
            learning_rate: cfg.learning_rate,
            momentum: cfg.momentum,
            weight_decay: cfg.weight_decay,
        });
        let mut rng = SimRng::seed_from(cfg.seed);
        let mut order: Vec<usize> = (0..data.len()).collect();
        let mut epoch_losses = Vec::with_capacity(cfg.epochs);
        let mut lr = cfg.learning_rate;

        for epoch in 0..cfg.epochs {
            if cfg.lr_decay_epochs > 0 && epoch > 0 && epoch % cfg.lr_decay_epochs == 0 {
                lr *= cfg.lr_decay_factor;
                sgd.set_learning_rate(lr);
            }
            rng.shuffle(&mut order);
            // Noise warm-up: σ ramps linearly over the first half of
            // training, then holds. Early epochs learn the task at full
            // fidelity; later epochs harden the loss landscape — the
            // schedule used by noise-resilient analog-accelerator training
            // so hardening does not cost clean accuracy at small epoch
            // budgets.
            let sigma = if cfg.noise_std > 0.0 {
                let half = (cfg.epochs as f32 / 2.0).max(1.0);
                cfg.noise_std * (((epoch + 1) as f32) / half).min(1.0)
            } else {
                0.0
            };
            let mut epoch_loss = 0.0f64;
            let mut batches = 0usize;
            for chunk in order.chunks(cfg.batch_size) {
                let (batch, labels) = data.batch(chunk)?;
                network.zero_grad();

                let forward = profile_span("train.forward");
                let clean = if sigma > 0.0 {
                    Some(perturb_weights(network, sigma, &mut rng))
                } else {
                    None
                };
                let logits = network.forward(&batch, true)?;
                let (loss, grad) = softmax_cross_entropy(&logits, &labels)?;
                drop(forward);
                {
                    // Nothing reads the gradient of the input batch.
                    let _span = profile_span("train.backward");
                    network.backward_params(&grad)?;
                }
                let _step = profile_span("train.step");
                if let Some(clean_values) = clean {
                    restore_weights(network, clean_values);
                }

                sgd.step(&mut network.params_mut())?;
                epoch_loss += f64::from(loss);
                batches += 1;
            }
            let mean_loss = (epoch_loss / batches.max(1) as f64) as f32;
            epoch_losses.push(mean_loss);
            if cfg.verbose {
                safelight_obs::info!(
                    "epoch {:>3}: loss {:.4} (lr {:.4})",
                    epoch + 1,
                    mean_loss,
                    lr
                );
            }
        }

        let final_train_accuracy = accuracy(network, data, cfg.batch_size)?;
        Ok(TrainReport {
            epoch_losses,
            final_train_accuracy,
        })
    }
}

/// Adds `N(0, (σ·rms(W))²)` noise to every decayed (weight) parameter,
/// returning the clean values for later restoration.
fn perturb_weights(network: &mut Network, sigma: f32, rng: &mut SimRng) -> Vec<Tensor> {
    let mut clean = Vec::new();
    for param in network.params_mut() {
        if !param.decay {
            continue;
        }
        clean.push(param.value.clone());
        let scale = sigma * param.value.rms();
        if scale > 0.0 {
            for v in param.value.as_mut_slice() {
                *v += rng.gaussian_with(0.0, f64::from(scale)) as f32;
            }
        }
    }
    clean
}

/// Restores the clean weight values captured by [`perturb_weights`].
fn restore_weights(network: &mut Network, clean: Vec<Tensor>) {
    let mut iter = clean.into_iter();
    for param in network.params_mut() {
        if !param.decay {
            continue;
        }
        param.value = iter.next().expect("clean snapshot matches weight params");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::InMemoryDataset;
    use crate::layers::{Linear, Relu};

    /// Linearly separable 2-class toy data.
    fn toy_data(n: usize) -> InMemoryDataset {
        let mut images = Vec::new();
        let mut labels = Vec::new();
        let mut rng = SimRng::seed_from(99);
        for _ in 0..n {
            let cls = usize::from(rng.uniform() > 0.5);
            let sign = if cls == 1 { 1.0 } else { -1.0 };
            let x = sign * (0.5 + rng.uniform()) as f32;
            let y = rng.uniform_in(-1.0, 1.0) as f32;
            images.push(Tensor::from_vec(vec![2], vec![x, y]).unwrap());
            labels.push(cls);
        }
        InMemoryDataset::new(images, labels).unwrap()
    }

    fn toy_net(seed: u64) -> Network {
        let mut net = Network::new();
        net.push(Linear::new(2, 16, seed).unwrap());
        net.push(Relu::new());
        net.push(Linear::new(16, 2, seed + 1).unwrap());
        net
    }

    #[test]
    fn training_reduces_loss_and_fits_toy_data() {
        let data = toy_data(128);
        let mut net = toy_net(1);
        let cfg = TrainerConfig {
            epochs: 15,
            batch_size: 16,
            ..TrainerConfig::default()
        };
        let report = Trainer::new(cfg).fit(&mut net, &data).unwrap();
        assert!(report.epoch_losses.first().unwrap() > report.epoch_losses.last().unwrap());
        assert!(
            report.final_train_accuracy > 0.95,
            "{}",
            report.final_train_accuracy
        );
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let data = toy_data(64);
        let cfg = TrainerConfig {
            epochs: 3,
            batch_size: 8,
            ..TrainerConfig::default()
        };
        let mut a = toy_net(2);
        let mut b = toy_net(2);
        Trainer::new(cfg).fit(&mut a, &data).unwrap();
        Trainer::new(cfg).fit(&mut b, &data).unwrap();
        for (pa, pb) in a.params().iter().zip(b.params().iter()) {
            assert_eq!(pa.value.as_slice(), pb.value.as_slice());
        }
    }

    #[test]
    fn weight_decay_shrinks_weight_norm() {
        let data = toy_data(64);
        let cfg_plain = TrainerConfig {
            epochs: 10,
            batch_size: 8,
            ..TrainerConfig::default()
        };
        let cfg_l2 = TrainerConfig {
            weight_decay: 0.05,
            ..cfg_plain
        };
        let mut plain = toy_net(3);
        let mut decayed = toy_net(3);
        Trainer::new(cfg_plain).fit(&mut plain, &data).unwrap();
        Trainer::new(cfg_l2).fit(&mut decayed, &data).unwrap();
        let norm = |n: &Network| -> f32 {
            n.params()
                .iter()
                .filter(|p| p.decay)
                .map(|p| p.value.as_slice().iter().map(|w| w * w).sum::<f32>())
                .sum()
        };
        assert!(norm(&decayed) < norm(&plain));
    }

    #[test]
    fn noise_aware_training_still_learns() {
        let data = toy_data(128);
        let cfg = TrainerConfig {
            epochs: 20,
            batch_size: 16,
            noise_std: 0.3,
            ..TrainerConfig::default()
        };
        let mut net = toy_net(4);
        let report = Trainer::new(cfg).fit(&mut net, &data).unwrap();
        assert!(
            report.final_train_accuracy > 0.9,
            "{}",
            report.final_train_accuracy
        );
    }

    #[test]
    fn noise_restoration_keeps_weights_clean() {
        // After training with noise, running two evaluations in a row gives
        // identical results: no residual perturbation is left in the model.
        let data = toy_data(32);
        let cfg = TrainerConfig {
            epochs: 2,
            batch_size: 8,
            noise_std: 0.5,
            ..TrainerConfig::default()
        };
        let mut net = toy_net(5);
        Trainer::new(cfg).fit(&mut net, &data).unwrap();
        let a = accuracy(&mut net, &data, 8).unwrap();
        let b = accuracy(&mut net, &data, 8).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn fit_leaves_no_training_cache_behind() {
        // `fit` ends with an inference-mode accuracy pass, which drops
        // every training cache: a backward right after has nothing to use.
        let data = toy_data(16);
        let cfg = TrainerConfig {
            epochs: 1,
            batch_size: 8,
            ..TrainerConfig::default()
        };
        let mut net = toy_net(7);
        Trainer::new(cfg).fit(&mut net, &data).unwrap();
        let err = net.backward(&Tensor::zeros(vec![16, 2])).unwrap_err();
        assert!(err.to_string().contains("before forward"), "{err}");
    }

    #[test]
    fn invalid_config_is_rejected() {
        let data = toy_data(8);
        let mut net = toy_net(6);
        let bad_batch = TrainerConfig {
            batch_size: 0,
            ..TrainerConfig::default()
        };
        assert!(Trainer::new(bad_batch).fit(&mut net, &data).is_err());
        let bad_epochs = TrainerConfig {
            epochs: 0,
            ..TrainerConfig::default()
        };
        assert!(Trainer::new(bad_epochs).fit(&mut net, &data).is_err());
    }
}
