//! A CrossLight-style non-coherent optical neural-network (ONN) accelerator
//! simulator.
//!
//! This crate models the accelerator of the SafeLight paper's Fig. 3: a
//! photonic substrate of vector-dot-product (VDP) units built from microring
//! (MR) banks, split into a CONV block and an FC block, with DAC-driven
//! tuning, photodetector summation and ADC readout. It provides:
//!
//! * [`AcceleratorConfig`] — block dimensions (the paper's CONV block of
//!   100 VDP units × 20×20 MRs and FC block of 60 × 150×150, plus scaled
//!   profiles for CPU-budget experiments), converter resolutions, and the
//!   device models from [`safelight_photonics`];
//! * [`WeightMapping`] — the weight-stationary mapper that pins every model
//!   parameter to an MR coordinate, wrapping around in *reuse rounds* when a
//!   model exceeds the block's MR capacity (the mechanism behind the paper's
//!   insight that larger models degrade faster under attack);
//! * [`MrCondition`] / [`ConditionMap`] — the per-device fault state that
//!   attack injectors produce (healthy, actuation-parked, or heated by ΔT);
//! * [`DropResponseModel`] — the *single* drop-response/condition physics
//!   core every datapath implementation consumes;
//! * [`backend`] — the [`InferenceBackend`] abstraction unifying the
//!   three datapaths (fast analytic, slow physical, finite-bit-depth
//!   quantized) behind one trait the attack, detection and serving
//!   layers consume;
//! * [`corrupt_network`] — the fast evaluation path: derive the *effective*
//!   weights a faulty accelerator applies (including thermal channel-slide
//!   crosstalk) and bake them into a [`safelight_neuro::Network`] clone;
//! * [`OpticalVdp`] — the slow, fully physical dot-product datapath
//!   (laser → imprint banks → balanced photodetector → ADC), usable
//!   end-to-end via [`backend::PhysicalBackend`] and for micro-benchmarks;
//! * [`BlockLayout`] — physical placement of VDP banks on a thermal grid;
//! * [`TelemetryFrame`] / [`TelemetryProbe`] — the runtime-detection sensor
//!   taps: per-bank drop-port monitor photocurrents, thermal sensors,
//!   laser-rail and trim-DAC readback, plus sentinel probe weights on idle
//!   rings, emitted as one serializable frame per inference batch.
//!
//! # Example
//!
//! ```
//! use safelight_onn::{AcceleratorConfig, BlockKind, LayerSpec, WeightMapping};
//!
//! # fn main() -> Result<(), safelight_onn::OnnError> {
//! let config = AcceleratorConfig::scaled_experiment()?;
//! let layers = vec![
//!     LayerSpec::new("conv1", BlockKind::Conv, 1_000),
//!     LayerSpec::new("fc1", BlockKind::Fc, 30_000),
//! ];
//! let mapping = WeightMapping::new(&config, &layers)?;
//! // Every parameter has a home MR; reuse rounds appear when a block
//! // holds more parameters than it has microrings.
//! assert!(mapping.rounds(BlockKind::Conv) >= 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
mod condition;
mod config;
mod datapath;
mod error;
mod executor;
mod layout;
mod mapping;
mod response;
mod telemetry;

pub use backend::{
    AnalyticBackend, BackendKind, InferenceBackend, PhysicalBackend, QuantizedBackend,
};
pub use condition::{ConditionMap, MrCondition};
pub use config::{AcceleratorConfig, BlockConfig, BlockKind, WeightEncoding};
pub use datapath::{OpticalVdp, RowTap};
pub use error::OnnError;
pub use executor::{
    corrupt_network, corrupt_network_with, effective_weight_row, AnalyticRows, RowEvaluator,
};
pub use layout::BlockLayout;
pub use mapping::{LayerSpec, MappedParam, RemapOutcome, WeightMapping};
pub use response::{channel_power_factor, DropResponseModel};
pub use telemetry::{BankTelemetry, SensorChannel, SentinelPlan, TelemetryFrame, TelemetryProbe};
