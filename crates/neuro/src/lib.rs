//! A minimal, dependency-light CPU tensor and convolutional-neural-network
//! library.
//!
//! This crate replaces the PyTorch training/inference stack the SafeLight
//! paper uses. It provides exactly what the paper's evaluation needs and no
//! more:
//!
//! * a dense [`Tensor`] with the blocked matrix kernels behind it;
//! * CNN layers — [`Conv2d`], [`Linear`], [`MaxPool2d`], [`BatchNorm2d`],
//!   [`Relu`], [`Flatten`] — each with hand-written forward *and* backward
//!   passes (verified against finite differences in the test suite);
//! * residual blocks and a [`Network`] container able to express the
//!   paper's three models (CNN_1, a ResNet-18-style network, a VGG16
//!   variant);
//! * softmax cross-entropy loss, SGD with momentum, **L2 regularization**
//!   via weight decay (§V.A of the paper), and **Gaussian noise-aware
//!   training** (§V.B) in the [`Trainer`];
//! * deterministic data pipelines and metrics.
//!
//! # Example
//!
//! Train a tiny classifier on an in-memory dataset:
//!
//! ```
//! use safelight_neuro::{
//!     InMemoryDataset, Linear, Network, Relu, Tensor, Trainer, TrainerConfig,
//! };
//!
//! # fn main() -> Result<(), safelight_neuro::NeuroError> {
//! // A 2-feature, 2-class toy problem: class = sign of the first feature.
//! let mut images = Vec::new();
//! let mut labels = Vec::new();
//! for i in 0..64 {
//!     let x = if i % 2 == 0 { 1.0 } else { -1.0 };
//!     images.push(Tensor::from_vec(vec![2], vec![x, 0.5])?);
//!     labels.push(usize::from(i % 2 == 0));
//! }
//! let data = InMemoryDataset::new(images, labels)?;
//!
//! let mut net = Network::new();
//! net.push(Linear::new(2, 8, 1)?);
//! net.push(Relu::new());
//! net.push(Linear::new(8, 2, 2)?);
//!
//! let config = TrainerConfig { epochs: 20, batch_size: 8, ..TrainerConfig::default() };
//! let report = Trainer::new(config).fit(&mut net, &data)?;
//! assert!(report.final_train_accuracy > 0.95);
//! # Ok(())
//! # }
//! ```

// `deny` rather than `forbid`: three modules carry documented `unsafe`
// behind local `allow`s — the worker pool in `parallel` (scoped-job
// lifetime erasure) and the runtime-detected SIMD kernels in `simd` and
// `linalg::int` (arch intrinsics guarded by CPU feature detection).
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod data;
mod error;
mod init;
pub mod layers;
pub mod linalg;
mod loss;
mod metrics;
mod model;
mod optim;
pub mod parallel;
mod rng;
mod scratch;
mod serialize;
mod simd;
mod tensor;
mod train;

pub use data::{Dataset, InMemoryDataset, Subset};
pub use error::NeuroError;
pub use init::{he_normal, xavier_uniform};
pub use layers::{
    BatchNorm2d, Conv2d, Flatten, GlobalAvgPool2d, IntSpec, Layer, Linear, MaxPool2d, Param, Relu,
    ResidualBlock,
};
pub use linalg::{matmul, matmul_a_bt, matmul_at_b, matmul_with, GemmImpl};
pub use loss::{softmax, softmax_cross_entropy};
pub use metrics::accuracy;
pub use model::Network;
pub use optim::{Sgd, SgdConfig};
pub use rng::SimRng;
pub use serialize::{
    load_network_params, load_network_params_stamped, save_network_params,
    save_network_params_stamped,
};
pub use tensor::Tensor;
pub use train::{TrainReport, Trainer, TrainerConfig};
