//! The datapath abstraction: one [`InferenceBackend`] trait, three
//! implementations, zero duplicated physics.
//!
//! Every layer above the accelerator substrate — the attack engine, the
//! detection/serving evaluations, the fleet runtime, the `repro` drivers —
//! needs the same three answers from a datapath:
//!
//! 1. **derive** — what *effective* network does a (possibly faulty)
//!    accelerator compute with, given the clean weights, a
//!    [`WeightMapping`] and a [`ConditionMap`]?
//! 2. **forward** — batched class predictions through that derived
//!    network;
//! 3. **telemetry** — what do the monitor taps read, as a
//!    [`TelemetryProbe`] that stamps out per-batch [`TelemetryFrame`]s?
//!
//! [`InferenceBackend`] is that contract. All implementations consume the
//! single shared physics core ([`DropResponseModel`]) — they differ only in
//! *how* they evaluate it:
//!
//! * [`AnalyticBackend`] — the fast closed-form path (the figure-scale
//!   default): per-channel effective weights via the executor's row
//!   algebra, analytic telemetry means.
//! * [`PhysicalBackend`] — the slow device-level path: every affected
//!   channel is read back through the full [`OpticalVdp`] simulation
//!   (laser → imprint rings → balanced detection → ADC), and telemetry
//!   slots are sampled from physically simulated microrings. Usable
//!   end-to-end in the evaluation pipelines, not just in unit comparisons.
//! * [`QuantizedBackend`] — finite-resolution converters on the analytic
//!   physics: a coarser weight DAC and a finite-bit photocurrent readout,
//!   for studying how converter budgets interact with the threat model.
//!
//! [`TelemetryFrame`]: crate::TelemetryFrame
//!
//! # Example
//!
//! ```
//! use safelight_onn::backend::{BackendKind, InferenceBackend};
//! use safelight_onn::{AcceleratorConfig, ConditionMap};
//!
//! # fn main() -> Result<(), safelight_onn::OnnError> {
//! let config = AcceleratorConfig::scaled_experiment()?;
//! let backend = BackendKind::Fast.build(&config);
//! assert_eq!(backend.name(), "fast");
//! assert_eq!(backend.config().conv, config.conv);
//! # Ok(())
//! # }
//! ```

use std::collections::HashMap;

use safelight_neuro::{Network, Tensor};

use crate::condition::{ConditionMap, MrCondition};
use crate::config::AcceleratorConfig;
use crate::datapath::OpticalVdp;
use crate::executor::{corrupt_network_with, AnalyticRows, RowEvaluator};
use crate::mapping::WeightMapping;
use crate::response::{channel_power_factor, DropResponseModel};
use crate::telemetry::{SentinelPlan, TelemetryProbe};
use crate::OnnError;

/// A datapath implementation: how clean weights, a mapping and fault
/// conditions become an effective network, predictions and telemetry.
///
/// Implementations must be cheap to clone (via
/// [`InferenceBackend::clone_box`]) and hold no per-derivation state, so
/// evaluation sweeps can share one backend across parallel workers and
/// fleets can box one per member.
pub trait InferenceBackend: Send + Sync + std::fmt::Debug {
    /// Stable identifier used in CLI flags, report labels and CSV stems.
    fn name(&self) -> &'static str;

    /// The accelerator profile this backend simulates.
    fn config(&self) -> &AcceleratorConfig;

    /// The shared physics model the backend evaluates. Exactly one
    /// drop-response implementation exists ([`DropResponseModel`]); this
    /// accessor is how callers (and tests) verify a backend's constants.
    fn model(&self) -> &DropResponseModel;

    /// Clones the backend behind a fresh box.
    fn clone_box(&self) -> Box<dyn InferenceBackend>;

    /// Derives the *effective* network the accelerator computes with under
    /// `conditions` (an empty map reduces to converter quantization alone —
    /// the clean baseline).
    ///
    /// # Errors
    ///
    /// Returns [`OnnError::MappingMismatch`] when the network's weight
    /// tensors do not line up with the mapping, and propagates device
    /// errors from physical evaluation.
    fn derive_network(
        &self,
        clean: &Network,
        mapping: &WeightMapping,
        conditions: &ConditionMap,
    ) -> Result<Network, OnnError>;

    /// Builds the telemetry probe of `(clean, mapping, conditions)`: the
    /// noiseless per-bank sensor means under this backend's physics, ready
    /// to stamp out noisy per-batch frames.
    ///
    /// # Errors
    ///
    /// Returns [`OnnError::MappingMismatch`] / [`OnnError::MrOutOfRange`]
    /// for inconsistent inputs and propagates device errors.
    fn probe(
        &self,
        clean: &Network,
        mapping: &WeightMapping,
        conditions: &ConditionMap,
        sentinels: &SentinelPlan,
    ) -> Result<TelemetryProbe, OnnError>;

    /// Batched forward through a previously derived network → class
    /// predictions, one per input.
    ///
    /// The default runs the derived network's batched electronic forward
    /// pass: every backend bakes its datapath effects into
    /// [`InferenceBackend::derive_network`], so the forward itself is
    /// backend-independent.
    ///
    /// # Errors
    ///
    /// Propagates forward-pass errors.
    fn predict_batch(
        &self,
        effective: &mut Network,
        inputs: &[&Tensor],
    ) -> Result<Vec<usize>, OnnError> {
        effective
            .predict_many(inputs.iter().copied())
            .map_err(OnnError::from)
    }
}

impl Clone for Box<dyn InferenceBackend> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// The fast closed-form backend: today's figure-scale default path.
#[derive(Debug, Clone)]
pub struct AnalyticBackend {
    config: AcceleratorConfig,
    model: DropResponseModel,
}

impl AnalyticBackend {
    /// Builds the analytic backend for `config`.
    #[must_use]
    pub fn new(config: &AcceleratorConfig) -> Self {
        Self {
            config: config.clone(),
            model: DropResponseModel::from_config(config),
        }
    }
}

impl InferenceBackend for AnalyticBackend {
    fn name(&self) -> &'static str {
        "fast"
    }

    fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    fn model(&self) -> &DropResponseModel {
        &self.model
    }

    fn clone_box(&self) -> Box<dyn InferenceBackend> {
        Box::new(self.clone())
    }

    fn derive_network(
        &self,
        clean: &Network,
        mapping: &WeightMapping,
        conditions: &ConditionMap,
    ) -> Result<Network, OnnError> {
        corrupt_network_with(
            clean,
            mapping,
            conditions,
            &self.config,
            &self.model,
            &mut AnalyticRows::new(&self.model),
        )
    }

    fn probe(
        &self,
        clean: &Network,
        mapping: &WeightMapping,
        conditions: &ConditionMap,
        sentinels: &SentinelPlan,
    ) -> Result<TelemetryProbe, OnnError> {
        TelemetryProbe::new_with(
            clean,
            mapping,
            conditions,
            &self.config,
            sentinels,
            &self.model,
            None,
        )
    }
}

/// Row evaluator reading every affected channel back through the simulated
/// optical datapath (one-hot dot products per channel).
struct PhysicalRows<'a> {
    config: &'a AcceleratorConfig,
    /// One simulated VDP row per distinct row width (CONV and FC banks
    /// differ), constructed lazily and reused across rows.
    vdps: HashMap<usize, OpticalVdp>,
}

impl RowEvaluator for PhysicalRows<'_> {
    fn effective_channel(
        &mut self,
        col: usize,
        weights: &[f64],
        conditions: &[MrCondition],
    ) -> Result<f64, OnnError> {
        let vdp = match self.vdps.entry(weights.len()) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(OpticalVdp::new(self.config, weights.len())?)
            }
        };
        vdp.effective_weight_at(col, weights, conditions)
    }
}

/// The slow device-level backend: effective weights and telemetry read
/// through physically simulated microrings, photodetectors and ADCs.
///
/// Orders of magnitude slower than [`AnalyticBackend`] — every affected
/// channel costs a full optical dot product — but it exercises the entire
/// device stack, which is exactly its point: evaluation pipelines can now
/// run end-to-end against the physical model instead of trusting the
/// closed form, and the cross-backend equivalence tests quantify the gap.
#[derive(Debug, Clone)]
pub struct PhysicalBackend {
    config: AcceleratorConfig,
    model: DropResponseModel,
}

impl PhysicalBackend {
    /// Builds the physical backend for `config`.
    #[must_use]
    pub fn new(config: &AcceleratorConfig) -> Self {
        Self {
            config: config.clone(),
            model: DropResponseModel::from_config(config),
        }
    }
}

impl InferenceBackend for PhysicalBackend {
    fn name(&self) -> &'static str {
        "optical"
    }

    fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    fn model(&self) -> &DropResponseModel {
        &self.model
    }

    fn clone_box(&self) -> Box<dyn InferenceBackend> {
        Box::new(self.clone())
    }

    fn derive_network(
        &self,
        clean: &Network,
        mapping: &WeightMapping,
        conditions: &ConditionMap,
    ) -> Result<Network, OnnError> {
        let mut rows = PhysicalRows {
            config: &self.config,
            vdps: HashMap::new(),
        };
        corrupt_network_with(
            clean,
            mapping,
            conditions,
            &self.config,
            &self.model,
            &mut rows,
        )
    }

    fn probe(
        &self,
        clean: &Network,
        mapping: &WeightMapping,
        conditions: &ConditionMap,
        sentinels: &SentinelPlan,
    ) -> Result<TelemetryProbe, OnnError> {
        // One single-channel VDP row provides the physically simulated
        // per-slot monitor response; the probe sweep drives it per slot.
        // Responses depend only on the (DAC-quantized) magnitude and the
        // fault condition, and both repeat heavily across a block's slots
        // (healthy rings at a few hundred DAC levels dominate), so memoize
        // on the exact bit patterns — this is what keeps paper-scale
        // optical probes (millions of slots) tractable.
        let vdp = OpticalVdp::new(&self.config, 1)?;
        let mut memo: HashMap<(u64, ConditionKey), f64> = HashMap::new();
        let mut response = |m: f64, cond: MrCondition| -> Result<f64, OnnError> {
            let key = (m.to_bits(), condition_key(cond));
            if let Some(&cached) = memo.get(&key) {
                return Ok(cached);
            }
            let value = vdp.slot_monitor_response(m, cond)?;
            memo.insert(key, value);
            Ok(value)
        };
        TelemetryProbe::new_with(
            clean,
            mapping,
            conditions,
            &self.config,
            sentinels,
            &self.model,
            Some(&mut response),
        )
    }
}

/// Bit-exact hash key of an [`MrCondition`] (discriminant + parameter bit
/// patterns), for memoizing per-slot device simulations.
type ConditionKey = (u8, u64, u64);

fn condition_key(cond: MrCondition) -> ConditionKey {
    match cond {
        MrCondition::Healthy => (0, 0, 0),
        MrCondition::Parked => (1, 0, 0),
        MrCondition::Heated { delta_kelvin } => (2, delta_kelvin.to_bits(), 0),
        MrCondition::Attenuated {
            factor,
            delta_kelvin,
        } => (3, factor.to_bits(), delta_kelvin.to_bits()),
        MrCondition::Detuned {
            offset_nm,
            delta_kelvin,
        } => (4, offset_nm.to_bits(), delta_kelvin.to_bits()),
    }
}

/// Row evaluator adding finite-resolution readout on top of the analytic
/// closed form.
struct QuantizedRows<'a> {
    inner: AnalyticRows<'a>,
    readout_steps: u32,
}

impl RowEvaluator for QuantizedRows<'_> {
    fn effective_channel(
        &mut self,
        col: usize,
        weights: &[f64],
        conditions: &[MrCondition],
    ) -> Result<f64, OnnError> {
        let w = self.inner.effective_channel(col, weights, conditions)?;
        Ok(DropResponseModel::snap_signed(w, self.readout_steps))
    }
}

/// The finite-bit-depth backend: analytic physics behind a coarser weight
/// DAC and a finite-resolution photocurrent readout.
///
/// `weight_bits` replaces the configuration's DAC resolution for weight
/// imprinting; `readout_bits` quantizes every decoded effective weight and
/// every monitor-tap sample to `2^bits − 1` uniform levels. With both at
/// the configuration's native resolutions this backend converges to
/// [`AnalyticBackend`]; dropping either models a cheaper converter budget.
#[derive(Debug, Clone)]
pub struct QuantizedBackend {
    config: AcceleratorConfig,
    model: DropResponseModel,
    readout_steps: u32,
}

impl QuantizedBackend {
    /// Builds the quantized backend with explicit converter bit depths.
    #[must_use]
    pub fn new(config: &AcceleratorConfig, weight_bits: u8, readout_bits: u8) -> Self {
        Self {
            config: config.clone(),
            model: DropResponseModel::with_dac_bits(config, weight_bits),
            readout_steps: DropResponseModel::steps_from_bits(readout_bits),
        }
    }
}

impl InferenceBackend for QuantizedBackend {
    fn name(&self) -> &'static str {
        "quantized"
    }

    fn config(&self) -> &AcceleratorConfig {
        &self.config
    }

    fn model(&self) -> &DropResponseModel {
        &self.model
    }

    fn clone_box(&self) -> Box<dyn InferenceBackend> {
        Box::new(self.clone())
    }

    fn derive_network(
        &self,
        clean: &Network,
        mapping: &WeightMapping,
        conditions: &ConditionMap,
    ) -> Result<Network, OnnError> {
        let mut rows = QuantizedRows {
            inner: AnalyticRows::new(&self.model),
            readout_steps: self.readout_steps,
        };
        let mut net = corrupt_network_with(
            clean,
            mapping,
            conditions,
            &self.config,
            &self.model,
            &mut rows,
        )?;
        // With finite converters on both operands the forward pass itself
        // can run as exact integer MACs: activations on the *input*-DAC
        // grid (the configuration's native resolution — `weight_bits`
        // only overrides the weight-imprinting DAC), weights on the
        // readout grid the derivation above already snapped them to, one
        // dequantize on store. `bits == 0` means "converter disabled" in
        // the response model, so either depth at 0 keeps the float path —
        // preserving the native-depth ≡ analytic equivalence.
        let spec = safelight_neuro::IntSpec {
            act_steps: DropResponseModel::steps_from_bits(self.config.dac_bits),
            weight_steps: self.readout_steps,
        };
        if spec.is_valid() {
            net.set_int_mode(Some(spec));
        }
        Ok(net)
    }

    fn probe(
        &self,
        clean: &Network,
        mapping: &WeightMapping,
        conditions: &ConditionMap,
        sentinels: &SentinelPlan,
    ) -> Result<TelemetryProbe, OnnError> {
        let model = self.model;
        let steps = self.readout_steps;
        // The monitor ADC samples each slot at finite resolution.
        let mut response = |m: f64, cond: MrCondition| -> Result<f64, OnnError> {
            let analytic =
                channel_power_factor(cond) * model.drop_response(model.offset_under(m, cond));
            Ok(DropResponseModel::snap_unit(analytic, steps))
        };
        TelemetryProbe::new_with(
            clean,
            mapping,
            conditions,
            &self.config,
            sentinels,
            &self.model,
            Some(&mut response),
        )
    }
}

/// A serializable backend selector: what `repro --backend` and the
/// experiment options carry, resolved into a boxed [`InferenceBackend`]
/// per accelerator profile via [`BackendKind::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// [`AnalyticBackend`] — the fast closed-form path.
    Fast,
    /// [`PhysicalBackend`] — the slow device-level path.
    Optical,
    /// [`QuantizedBackend`] with the given converter bit depths.
    Quantized {
        /// Weight-DAC resolution in bits.
        weight_bits: u8,
        /// Photocurrent-readout resolution in bits.
        readout_bits: u8,
    },
}

impl BackendKind {
    /// Default weight-DAC bit depth of `--backend quantized`.
    pub const DEFAULT_WEIGHT_BITS: u8 = 5;
    /// Default readout bit depth of `--backend quantized`.
    pub const DEFAULT_READOUT_BITS: u8 = 6;

    /// The quantized selector at its default bit depths.
    #[must_use]
    pub fn quantized_default() -> Self {
        Self::Quantized {
            weight_bits: Self::DEFAULT_WEIGHT_BITS,
            readout_bits: Self::DEFAULT_READOUT_BITS,
        }
    }

    /// Every selector at its defaults, in CLI order.
    #[must_use]
    pub fn all() -> [Self; 3] {
        [Self::Fast, Self::Optical, Self::quantized_default()]
    }

    /// Resolves the selector into a backend for `config`.
    #[must_use]
    pub fn build(&self, config: &AcceleratorConfig) -> Box<dyn InferenceBackend> {
        match *self {
            Self::Fast => Box::new(AnalyticBackend::new(config)),
            Self::Optical => Box::new(PhysicalBackend::new(config)),
            Self::Quantized {
                weight_bits,
                readout_bits,
            } => Box::new(QuantizedBackend::new(config, weight_bits, readout_bits)),
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Self::Fast => write!(f, "fast"),
            Self::Optical => write!(f, "optical"),
            Self::Quantized {
                weight_bits,
                readout_bits,
            } => write!(f, "quantized:{weight_bits}:{readout_bits}"),
        }
    }
}

impl std::str::FromStr for BackendKind {
    type Err = String;

    /// Parses `fast`, `optical`, `quantized`, `quantized:W` or
    /// `quantized:W:R` (W = weight bits, R = readout bits).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "fast" | "analytic" => return Ok(Self::Fast),
            "optical" | "physical" => return Ok(Self::Optical),
            "quantized" => return Ok(Self::quantized_default()),
            _ => {}
        }
        if let Some(rest) = s.strip_prefix("quantized:") {
            let mut parts = rest.split(':');
            let bits = |p: Option<&str>, fallback: u8| -> Result<u8, String> {
                match p {
                    None => Ok(fallback),
                    Some(v) => v
                        .parse::<u8>()
                        .map_err(|e| format!("bad bit depth `{v}`: {e}")),
                }
            };
            let weight_bits = bits(parts.next(), Self::DEFAULT_WEIGHT_BITS)?;
            let readout_bits = bits(parts.next(), Self::DEFAULT_READOUT_BITS)?;
            if parts.next().is_some() {
                return Err(format!("too many `:` fields in `{s}`"));
            }
            return Ok(Self::Quantized {
                weight_bits,
                readout_bits,
            });
        }
        Err(format!(
            "unknown backend `{s}` (expected fast, optical or quantized[:WBITS[:RBITS]])"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BlockConfig, BlockKind};
    use crate::mapping::LayerSpec;
    use safelight_neuro::{Flatten, Layer, Linear, Tensor};

    fn fixture() -> (Network, WeightMapping, AcceleratorConfig) {
        let mut net = Network::new();
        net.push(Flatten::new());
        let mut fc = Linear::new(4, 4, 3).unwrap();
        fc.params_mut()[0].value = Tensor::from_vec(
            vec![4, 4],
            (0..16).map(|i| (i as f32 - 8.0) / 8.0).collect(),
        )
        .unwrap();
        net.push(fc);
        let config = AcceleratorConfig::custom(
            BlockConfig {
                vdp_units: 2,
                bank_rows: 2,
                bank_cols: 4,
            },
            BlockConfig {
                vdp_units: 2,
                bank_rows: 2,
                bank_cols: 4,
            },
        )
        .unwrap();
        let mapping =
            WeightMapping::new(&config, &[LayerSpec::new("fc", BlockKind::Fc, 16)]).unwrap();
        (net, mapping, config)
    }

    fn weight_vec(net: &Network) -> Vec<f32> {
        net.params()
            .iter()
            .filter(|p| p.decay)
            .flat_map(|p| p.value.as_slice().to_vec())
            .collect()
    }

    fn attack() -> ConditionMap {
        let mut conditions = ConditionMap::new();
        conditions.set(BlockKind::Fc, 1, MrCondition::Parked);
        conditions.set(BlockKind::Fc, 6, MrCondition::Heated { delta_kelvin: 8.0 });
        conditions
    }

    #[test]
    fn analytic_backend_matches_corrupt_network_bitwise() {
        let (net, mapping, config) = fixture();
        let backend = AnalyticBackend::new(&config);
        let conditions = attack();
        let via_backend = backend.derive_network(&net, &mapping, &conditions).unwrap();
        let direct =
            crate::executor::corrupt_network(&net, &mapping, &conditions, &config).unwrap();
        assert_eq!(weight_vec(&via_backend), weight_vec(&direct));
    }

    #[test]
    fn physical_backend_agrees_with_analytic_within_tolerance() {
        let (net, mapping, config) = fixture();
        let conditions = attack();
        let analytic = AnalyticBackend::new(&config)
            .derive_network(&net, &mapping, &conditions)
            .unwrap();
        let physical = PhysicalBackend::new(&config)
            .derive_network(&net, &mapping, &conditions)
            .unwrap();
        // The residual gap concentrates on rings whose response falls below
        // the drop floor: the analytic per-rail decode clamps there (ADC
        // saturation per rail), while the physical balanced detector sees
        // the full unclamped swing. That bounds the disagreement at
        // ~drop_floor/(1 − drop_floor) ≈ 0.13; everything else agrees to
        // DAC/ADC precision.
        for (i, (a, p)) in weight_vec(&analytic)
            .iter()
            .zip(&weight_vec(&physical))
            .enumerate()
        {
            assert!(
                (a - p).abs() < 0.13,
                "weight {i}: analytic {a} vs physical {p}"
            );
        }
    }

    #[test]
    fn physical_probe_agrees_with_analytic_within_tolerance() {
        let (net, mapping, config) = fixture();
        let sentinels = SentinelPlan::new(&mapping, &config, 4);
        let conditions = attack();
        let probe = |backend: &dyn InferenceBackend| {
            backend
                .probe(&net, &mapping, &conditions, &sentinels)
                .unwrap()
                .noiseless(0)
        };
        let a = probe(&AnalyticBackend::new(&config));
        let p = probe(&PhysicalBackend::new(&config));
        for kind in [BlockKind::Conv, BlockKind::Fc] {
            for (i, (ba, bp)) in a.banks(kind).iter().zip(p.banks(kind)).enumerate() {
                assert!(
                    (ba.drop_current - bp.drop_current).abs() < 0.02,
                    "{kind} bank {i}: {} vs {}",
                    ba.drop_current,
                    bp.drop_current
                );
                assert_eq!(ba.delta_kelvin, bp.delta_kelvin);
                assert_eq!(ba.rail_power, bp.rail_power);
                assert_eq!(ba.trim_offset_nm, bp.trim_offset_nm);
            }
            for (sa, sp) in a.sentinels(kind).iter().zip(p.sentinels(kind)) {
                assert!((sa - sp).abs() < 0.02, "sentinel {sa} vs {sp}");
            }
        }
    }

    #[test]
    fn quantized_backend_snaps_weights_to_the_coarse_grid() {
        let (net, mapping, config) = fixture();
        let backend = QuantizedBackend::new(&config, 2, 8);
        let clean = backend
            .derive_network(&net, &mapping, &ConditionMap::new())
            .unwrap();
        // A 2-bit DAC leaves 3 magnitude steps: every normalized weight
        // lands on k/3 of the layer's full scale.
        let weights = weight_vec(&clean);
        let scale = weights.iter().fold(0.0f32, |a, w| a.max(w.abs()));
        for w in &weights {
            let m = (w / scale).abs();
            let snapped = (m * 3.0).round() / 3.0;
            assert!(
                (m - snapped).abs() < 1e-6,
                "weight {w} (m {m}) off the 2-bit grid"
            );
        }
    }

    #[test]
    fn quantized_backend_at_native_depth_matches_analytic() {
        let (net, mapping, config) = fixture();
        let conditions = attack();
        // Native weight DAC and effectively-continuous readout.
        let quantized = QuantizedBackend::new(&config, config.dac_bits, 0)
            .derive_network(&net, &mapping, &conditions)
            .unwrap();
        let analytic = AnalyticBackend::new(&config)
            .derive_network(&net, &mapping, &conditions)
            .unwrap();
        assert_eq!(weight_vec(&quantized), weight_vec(&analytic));
    }

    #[test]
    fn backend_kind_round_trips_and_builds() {
        let config = AcceleratorConfig::scaled_experiment().unwrap();
        for (text, name) in [
            ("fast", "fast"),
            ("analytic", "fast"),
            ("optical", "optical"),
            ("physical", "optical"),
            ("quantized", "quantized"),
            ("quantized:4", "quantized"),
            ("quantized:4:8", "quantized"),
        ] {
            let kind: BackendKind = text.parse().unwrap();
            assert_eq!(kind.build(&config).name(), name, "`{text}`");
        }
        assert_eq!(
            "quantized:3:9".parse::<BackendKind>().unwrap(),
            BackendKind::Quantized {
                weight_bits: 3,
                readout_bits: 9
            }
        );
        assert!("gpu".parse::<BackendKind>().is_err());
        assert!("quantized:x".parse::<BackendKind>().is_err());
        assert!("quantized:1:2:3".parse::<BackendKind>().is_err());
    }

    #[test]
    fn boxed_backends_clone() {
        let config = AcceleratorConfig::scaled_experiment().unwrap();
        for kind in BackendKind::all() {
            let b = kind.build(&config);
            let c = b.clone();
            assert_eq!(b.name(), c.name());
            assert_eq!(b.model(), c.model());
        }
    }

    #[test]
    fn predict_batch_runs_the_derived_network() {
        let (net, mapping, config) = fixture();
        let backend = AnalyticBackend::new(&config);
        let mut effective = backend
            .derive_network(&net, &mapping, &ConditionMap::new())
            .unwrap();
        let inputs: Vec<Tensor> = (0..3)
            .map(|i| {
                let mut data = vec![0.0f32; 4];
                data[i] = 1.0;
                Tensor::from_vec(vec![1, 2, 2], data).unwrap()
            })
            .collect();
        let refs: Vec<&Tensor> = inputs.iter().collect();
        let out = backend.predict_batch(&mut effective, &refs).unwrap();
        assert_eq!(out.len(), 3);
    }
}
