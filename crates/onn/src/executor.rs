//! The fast attack-evaluation path: derive the *effective* weights a
//! faulty accelerator applies and bake them into a network clone.
//!
//! # Physical model
//!
//! Signed weights use differential rails: `|w|` is imprinted on the ring of
//! the rail matching `sign(w)`, the other rail's ring is calibrated to
//! zero, and a balanced photodetector subtracts the rails. A fault applies
//! to the ring that actually carries the weight (the active rail).
//!
//! All device physics (Lorentzian responses, encoding conventions, fault
//! offsets, DAC steps) lives in the shared
//! [`DropResponseModel`](crate::DropResponseModel) core; this module owns
//! only the *row algebra* — how per-ring responses combine into effective
//! channel weights — and the mapping-aware scaffolding that bakes them
//! into a network clone.
//!
//! Two encoding conventions are modeled (see
//! [`WeightEncoding`](crate::WeightEncoding)):
//!
//! * **Drop port** (default): ring `r` *drops* its channel's power onto the
//!   detector bus; on-resonance = full weight, detuned = zero. Per rail the
//!   collected power at channel `c` is additive across rings,
//!
//!   ```text
//!   P(c) = D_c(λ_c | cond_c) + Σ_{r≠c, r faulty} [D_r(λ_c | fault) − D_r(λ_c | healthy)]
//!   ```
//!
//!   so an actuation-parked or strongly heated ring contributes ≈ 0
//!   (dropout-like corruption), while a ring red-shifted by one channel
//!   spacing *hands its weight to the next channel* — the wavelength slide
//!   of the paper's Fig. 5.
//! * **Through port** (ablation): the product stays on the bus and
//!   detuning increases transmission, so attacked weights *saturate to
//!   full scale*; channel corruption is the multiplicative deviation
//!   product of the faulty rings' transmissions.
//!
//! Decoded magnitudes clamp to the accelerator's `[0, 1]` full scale per
//! rail, exactly as the ADC saturates.
//!
//! The row-level evaluation is pluggable: [`corrupt_network`] uses the
//! closed-form analytic evaluator, while [`corrupt_network_with`] accepts
//! any [`RowEvaluator`] — the hook through which the physical and
//! quantized backends ([`crate::backend`]) reuse the same mapping-aware
//! scaffolding with a different per-channel physics evaluation.

use safelight_neuro::Network;

use crate::condition::{ConditionMap, MrCondition};
use crate::config::{AcceleratorConfig, BlockKind, WeightEncoding};
use crate::mapping::WeightMapping;
use crate::response::{channel_power_factor, DropResponseModel};
use crate::OnnError;

/// How many channels away a faulty ring can still meaningfully perturb a
/// carrier (the Lorentzian tail is negligible beyond this).
pub(crate) const CROSSTALK_WINDOW: isize = 2;

/// Evaluates the effective signed weight of one channel of a bank row.
///
/// `weights` and `conditions` describe the whole row (DAC-quantized signed
/// normalized weights and active-rail fault states); implementations may
/// read any channel but only the value at `col` is requested. The analytic
/// evaluator computes the closed form; the physical evaluator reads the
/// channel back through the simulated optical datapath; the quantized
/// evaluator adds finite-resolution readout on top of the analytic form.
pub trait RowEvaluator {
    /// Effective signed weight on channel `col` of the row.
    ///
    /// # Errors
    ///
    /// Propagates device-construction or datapath errors (the analytic
    /// evaluator is infallible).
    fn effective_channel(
        &mut self,
        col: usize,
        weights: &[f64],
        conditions: &[MrCondition],
    ) -> Result<f64, OnnError>;
}

/// The closed-form analytic row evaluator (the fast path).
#[derive(Debug, Clone, Copy)]
pub struct AnalyticRows<'a> {
    model: &'a DropResponseModel,
}

impl<'a> AnalyticRows<'a> {
    /// Wraps a shared physics model.
    #[must_use]
    pub fn new(model: &'a DropResponseModel) -> Self {
        Self { model }
    }
}

impl RowEvaluator for AnalyticRows<'_> {
    fn effective_channel(
        &mut self,
        col: usize,
        weights: &[f64],
        conditions: &[MrCondition],
    ) -> Result<f64, OnnError> {
        Ok(effective_channel(col, weights, conditions, self.model))
    }
}

/// Effective *signed* weight on channel `c` of one bank row.
///
/// `weights[r]` is the DAC-quantized signed normalized weight of ring `r`
/// in this row/round; `conditions[r]` its active-rail fault state.
fn effective_channel(
    c: usize,
    weights: &[f64],
    conditions: &[MrCondition],
    p: &DropResponseModel,
) -> f64 {
    match p.encoding {
        WeightEncoding::ThroughPort => effective_channel_through(c, weights, conditions, p),
        WeightEncoding::DropPort => effective_channel_drop(c, weights, conditions, p),
    }
}

fn effective_channel_through(
    c: usize,
    weights: &[f64],
    conditions: &[MrCondition],
    p: &DropResponseModel,
) -> f64 {
    let m_c = weights[c].abs();
    let sign = if weights[c] < 0.0 { -1.0 } else { 1.0 };
    let mut t =
        channel_power_factor(conditions[c]) * p.transmission(p.offset_under(m_c, conditions[c]));
    for dr in -CROSSTALK_WINDOW..=CROSSTALK_WINDOW {
        if dr == 0 {
            continue;
        }
        let r = c as isize + dr;
        if r < 0 || r as usize >= weights.len() {
            continue;
        }
        let r = r as usize;
        if !conditions[r].is_faulty() {
            continue;
        }
        // Ring r's resonance sits at λ_c + dr·spacing + offset; its
        // deviation from the calibrated transmission at λ_c corrupts this
        // channel multiplicatively.
        let m_r = weights[r].abs();
        let healthy = dr as f64 * p.spacing_nm + p.detuning_for_magnitude(m_r);
        let faulty = dr as f64 * p.spacing_nm + p.offset_under(m_r, conditions[r]);
        t *= p.transmission(faulty) / p.transmission(healthy);
    }
    sign * p.decode(t)
}

fn effective_channel_drop(
    c: usize,
    weights: &[f64],
    conditions: &[MrCondition],
    p: &DropResponseModel,
) -> f64 {
    // Per-rail additive collection. The active rail of ring r is chosen by
    // sign(w_r); the inactive rail ring idles at zero imprint (maximum
    // detuning) and is unaffected by the fault model (active-rail faults).
    // An upstream power fault throttles *all* λ_c light before it reaches
    // the row, so every term collected at this carrier — both rails' own
    // responses and neighbour crosstalk alike — scales by the same factor,
    // exactly as the slow optical datapath scales the channel's launch
    // power.
    let power_c = channel_power_factor(conditions[c]);
    let mut pos;
    let mut neg;
    {
        let m_c = weights[c].abs();
        let own = power_c * p.drop_response(p.offset_under(m_c, conditions[c]));
        let idle = power_c * p.drop_floor;
        if weights[c] >= 0.0 {
            pos = own;
            neg = idle;
        } else {
            pos = idle;
            neg = own;
        }
    }
    for dr in -CROSSTALK_WINDOW..=CROSSTALK_WINDOW {
        if dr == 0 {
            continue;
        }
        let r = c as isize + dr;
        if r < 0 || r as usize >= weights.len() {
            continue;
        }
        let r = r as usize;
        if !conditions[r].is_faulty() {
            continue;
        }
        // Deviation of ring r's drop response at λ_c from calibration,
        // landed on ring r's active rail.
        let m_r = weights[r].abs();
        let healthy = p.drop_response(dr as f64 * p.spacing_nm + p.detuning_for_magnitude(m_r));
        let faulty = p.drop_response(dr as f64 * p.spacing_nm + p.offset_under(m_r, conditions[r]));
        let dev = power_c * (faulty - healthy);
        if weights[r] >= 0.0 {
            pos += dev;
        } else {
            neg += dev;
        }
    }
    p.decode(pos) - p.decode(neg)
}

/// Effective signed weights of a whole bank row under fault conditions.
///
/// This is the row-level primitive shared by [`corrupt_network`] and the
/// slow physical datapath; exposed for tests and benchmarks. Inputs are
/// normalized signed weights in `[−1, 1]`.
///
/// # Panics
///
/// Panics when `weights` and `conditions` differ in length.
///
/// # Example
///
/// ```
/// use safelight_onn::{
///     AcceleratorConfig, effective_weight_row, DropResponseModel, MrCondition,
/// };
///
/// # fn main() -> Result<(), safelight_onn::OnnError> {
/// let p = DropResponseModel::from_config(&AcceleratorConfig::paper()?);
/// let clean = [0.25, -0.5, 0.75];
/// let healthy = [MrCondition::Healthy; 3];
/// let out = effective_weight_row(&clean, &healthy, &p);
/// // Healthy rows read back their imprinted weights (sign included).
/// for (a, b) in out.iter().zip(&clean) {
///     assert!((a - b).abs() < 1e-6);
/// }
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn effective_weight_row(
    weights: &[f64],
    conditions: &[MrCondition],
    params: &DropResponseModel,
) -> Vec<f64> {
    assert_eq!(
        weights.len(),
        conditions.len(),
        "weights and conditions must be parallel"
    );
    (0..weights.len())
        .map(|c| effective_channel(c, weights, conditions, params))
        .collect()
}

/// Produces a clone of `network` whose weights are the *effective* values a
/// faulty accelerator computes with, per the module-level physical model,
/// using the closed-form analytic row evaluation.
///
/// The i-th decayed (weight) parameter tensor of the network must
/// correspond to the i-th [`LayerSpec`](crate::LayerSpec) of `mapping`.
/// With an empty `conditions` map this reduces to DAC quantization alone —
/// the accelerator's clean baseline.
///
/// # Errors
///
/// Returns [`OnnError::MappingMismatch`] when the network's weight tensors
/// do not line up with the mapping.
pub fn corrupt_network(
    network: &Network,
    mapping: &WeightMapping,
    conditions: &ConditionMap,
    config: &AcceleratorConfig,
) -> Result<Network, OnnError> {
    let model = DropResponseModel::from_config(config);
    corrupt_network_with(
        network,
        mapping,
        conditions,
        config,
        &model,
        &mut AnalyticRows::new(&model),
    )
}

/// As [`corrupt_network`], but with an explicit physics `model` (whose DAC
/// steps quantize the imprinted weights) and a pluggable [`RowEvaluator`]
/// deciding how each affected channel's effective weight is computed.
///
/// This is the scaffolding every [`InferenceBackend`](crate::backend)
/// shares: mapping validation, per-layer calibration scales, in-place DAC
/// quantization and the batched per-row gathering of affected sites are
/// identical across backends; only the per-channel evaluation differs.
///
/// # Errors
///
/// Returns [`OnnError::MappingMismatch`] when the network's weight tensors
/// do not line up with the mapping, and propagates evaluator errors.
pub fn corrupt_network_with(
    network: &Network,
    mapping: &WeightMapping,
    conditions: &ConditionMap,
    config: &AcceleratorConfig,
    p: &DropResponseModel,
    rows_eval: &mut dyn RowEvaluator,
) -> Result<Network, OnnError> {
    let _span = safelight_obs::profile_span("derive_network");
    let mut out = network.clone();

    // Validate that the weight tensors line up with the mapping.
    let specs = mapping.layer_specs();
    {
        let weight_lens: Vec<usize> = out
            .params()
            .iter()
            .filter(|q| q.decay)
            .map(|q| q.value.len())
            .collect();
        if weight_lens.len() != specs.len() {
            return Err(OnnError::MappingMismatch {
                context: format!(
                    "network has {} weight tensors, mapping has {} layers",
                    weight_lens.len(),
                    specs.len()
                ),
            });
        }
        for (i, (len, spec)) in weight_lens.iter().zip(&specs).enumerate() {
            if *len != spec.weights {
                return Err(OnnError::MappingMismatch {
                    context: format!(
                        "layer {i} (`{}`): tensor has {len} weights, spec says {}",
                        spec.name, spec.weights
                    ),
                });
            }
        }
    }

    // Per-layer calibration scales, then in-place DAC quantization.
    let mut scales = Vec::with_capacity(specs.len());
    {
        let mut weights: Vec<_> = out.params_mut().into_iter().filter(|q| q.decay).collect();
        for q in &mut weights {
            let scale = q.value.max_abs();
            scales.push(scale);
            if scale > 0.0 && p.dac_steps > 0 {
                for w in q.value.as_mut_slice() {
                    let m = p.quantize(f64::from(w.abs() / scale));
                    *w = w.signum() * (m as f32) * scale;
                }
            }
        }
    }

    if conditions.is_empty() {
        return Ok(out);
    }

    // Snapshot of clean (quantized) signed normalized weights per layer.
    let snapshot: Vec<Vec<f32>> = out
        .params()
        .iter()
        .filter(|q| q.decay)
        .zip(&scales)
        .map(|(q, &scale)| {
            if scale > 0.0 {
                q.value.as_slice().iter().map(|w| w / scale).collect()
            } else {
                vec![0.0; q.value.len()]
            }
        })
        .collect();

    // Signed normalized weight at a linear slot (0 when the slot is beyond
    // the used range — the ring is calibrated to zero in that round).
    let weight_at_slot = |kind: BlockKind, slot: u64| -> f64 {
        mapping
            .param_at_slot(kind, slot)
            .map_or(0.0, |(li, off)| f64::from(snapshot[li][off]))
    };

    let mut weights: Vec<_> = out.params_mut().into_iter().filter(|q| q.decay).collect();

    for kind in [BlockKind::Conv, BlockKind::Fc] {
        let shape = *config.block(kind);
        let cols = shape.bank_cols as i64;
        // Affected rings: every faulty ring plus same-row neighbours within
        // the crosstalk window, skipping rings that carry no parameter (a
        // ring whose physical slot lies past the used range has nothing
        // for `params_on_mr` to return).
        let used = mapping.used_slots(kind);
        let mut affected: Vec<u64> = Vec::new();
        for (mr, _) in conditions.iter(kind) {
            if mr >= shape.total_mrs() {
                return Err(OnnError::MrOutOfRange {
                    index: mr,
                    capacity: shape.total_mrs(),
                });
            }
            let col = (mr as i64) % cols;
            for d in -(CROSSTALK_WINDOW as i64)..=(CROSSTALK_WINDOW as i64) {
                let nc = col + d;
                let ring = (mr as i64 + d) as u64;
                if nc >= 0 && nc < cols && mapping.physical_ring(kind, ring) < used {
                    affected.push(ring);
                }
            }
        }
        affected.sort_unstable();
        affected.dedup();

        let cap = shape.total_mrs();

        // Batched per-row derivation: group the affected parameter sites by
        // (reuse round, bank row), gather each row's weights and conditions
        // exactly once, and evaluate every affected channel against that
        // shared row view. The seed re-gathered a ±CROSSTALK_WINDOW window
        // through the mapping for every single site, so a fully-attacked
        // row cost ~(2W+1)× more mapping lookups than this path; the
        // per-channel physics (and its numerics) are unchanged, since
        // crosstalk beyond the window never contributes.
        // Keyed by (reuse round, bank-row base ring); each site is
        // (column, layer index, offset).
        type RowSites = Vec<(usize, usize, usize)>;
        let mut rows: std::collections::BTreeMap<(u64, u64), RowSites> =
            std::collections::BTreeMap::new();
        for &mr in &affected {
            let col = (mr % cols as u64) as usize;
            let row_base = mr - col as u64;
            for (li, off) in mapping.params_on_mr(kind, mr)? {
                // The round of this parameter's slot identifies which pass
                // over the bank the weight is applied in.
                let home = mapping.locate(li, off)?;
                rows.entry((home.round, row_base))
                    .or_default()
                    .push((col, li, off));
            }
        }
        let row_len = cols as usize;
        let mut row_weights = vec![0.0f64; row_len];
        let mut conds = vec![MrCondition::Healthy; row_len];
        let mut needed = vec![false; row_len];
        for ((round, row_base), sites) in rows {
            // Only columns within the crosstalk window of some affected
            // site are ever read by the analytic evaluator; gather exactly
            // that union once (≤ one lookup per column, versus one per
            // site-window entry before). Columns outside the union are
            // reset to zero/healthy so evaluators that read the whole row
            // (the physical datapath read-back) never see a stale gather
            // from the previous row.
            needed.fill(false);
            for &(col, _, _) in &sites {
                let lo = col.saturating_sub(CROSSTALK_WINDOW as usize);
                let hi = (col + CROSSTALK_WINDOW as usize).min(row_len - 1);
                needed[lo..=hi].fill(true);
            }
            for (c, &want) in needed.iter().enumerate() {
                if want {
                    let ring = row_base + c as u64;
                    let w = weight_at_slot(kind, round * cap + ring);
                    row_weights[c] = w.signum() * p.quantize(w.abs());
                    conds[c] = conditions.condition(kind, ring);
                } else {
                    row_weights[c] = 0.0;
                    conds[c] = MrCondition::Healthy;
                }
            }
            for (col, li, off) in sites {
                let w_eff = rows_eval.effective_channel(col, &row_weights, &conds)? as f32;
                let scale = scales[li];
                if scale > 0.0 {
                    weights[li].value.as_mut_slice()[off] = w_eff * scale;
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BlockConfig;
    use crate::mapping::LayerSpec;
    use safelight_neuro::{Flatten, Layer, Linear, Network, Tensor};

    fn params_for(encoding: WeightEncoding) -> DropResponseModel {
        let mut config = AcceleratorConfig::paper().unwrap();
        config.encoding = encoding;
        DropResponseModel::from_config(&config)
    }

    fn params() -> DropResponseModel {
        params_for(WeightEncoding::DropPort)
    }

    #[test]
    fn healthy_row_round_trips_both_encodings() {
        for encoding in [WeightEncoding::DropPort, WeightEncoding::ThroughPort] {
            let p = params_for(encoding);
            let w = [0.0, 0.1, -0.33, 0.66, -1.0];
            let conds = [MrCondition::Healthy; 5];
            let out = effective_weight_row(&w, &conds, &p);
            for (o, expect) in out.iter().zip(&w) {
                assert!(
                    (o - expect).abs() < 1e-9,
                    "{encoding:?}: w {expect} read back {o}"
                );
            }
        }
    }

    #[test]
    fn parked_ring_drops_its_weight_to_zero() {
        let p = params();
        let w = [0.6, -0.6, 0.6];
        let conds = [
            MrCondition::Healthy,
            MrCondition::Parked,
            MrCondition::Healthy,
        ];
        let out = effective_weight_row(&w, &conds, &p);
        assert!(out[1].abs() < 1e-9, "parked weight reads {}", out[1]);
        // Neighbours barely perturbed.
        assert!((out[0] - 0.6).abs() < 0.05);
        assert!((out[2] - 0.6).abs() < 0.05);
    }

    #[test]
    fn parked_ring_saturates_under_through_port_encoding() {
        let p = params_for(WeightEncoding::ThroughPort);
        let w = [0.2, -0.2, 0.2];
        let conds = [
            MrCondition::Healthy,
            MrCondition::Parked,
            MrCondition::Healthy,
        ];
        let out = effective_weight_row(&w, &conds, &p);
        assert!(
            (out[1] + 1.0).abs() < 1e-9,
            "through-port parked reads {}",
            out[1]
        );
    }

    #[test]
    fn one_spacing_heat_slides_weights_onto_neighbours() {
        let p = params();
        let cfg = AcceleratorConfig::paper().unwrap();
        let dt = cfg.one_channel_delta_kelvin();
        // All three rings heated by one channel: Fig. 5.
        let w = [0.9, 0.1, -0.5];
        let heated = MrCondition::Heated { delta_kelvin: dt };
        let out = effective_weight_row(&w, &[heated; 3], &p);
        // Channel 1 now reads ring 0's weight (sign included), channel 2
        // reads ring 1's.
        assert!(
            (out[1] - 0.9).abs() < 0.15,
            "channel 1 should read ring 0's weight, got {}",
            out[1]
        );
        assert!(
            (out[2] - 0.1).abs() < 0.15,
            "channel 2 should read ring 1's weight, got {}",
            out[2]
        );
        // Channel 0 lost its ring entirely → reads ≈ 0 (unsupported λ).
        assert!(
            out[0].abs() < 0.1,
            "channel 0 should drop out, got {}",
            out[0]
        );
    }

    #[test]
    fn partial_heat_attenuates_gradually() {
        let p = params();
        let cfg = AcceleratorConfig::paper().unwrap();
        let slight = cfg.one_channel_delta_kelvin() / 16.0;
        let w = [0.5, 0.5, 0.5];
        let conds = [
            MrCondition::Healthy,
            MrCondition::Heated {
                delta_kelvin: slight,
            },
            MrCondition::Healthy,
        ];
        let out = effective_weight_row(&w, &conds, &p);
        // Drop-port heating detunes the ring away from resonance, so the
        // weight shrinks — partially for slight heat.
        assert!(out[1] > 0.0 && out[1] < 0.5, "slight heat gave {}", out[1]);
        // A half-channel shift effectively erases the weight.
        let strong = MrCondition::Heated {
            delta_kelvin: cfg.one_channel_delta_kelvin() / 2.0,
        };
        let conds = [MrCondition::Healthy, strong, MrCondition::Healthy];
        let out = effective_weight_row(&w, &conds, &p);
        assert!(out[1].abs() < 0.05, "half-channel heat gave {}", out[1]);
    }

    #[test]
    fn attenuation_scales_the_weight_without_touching_neighbours() {
        let p = params();
        let w = [0.6, 0.6, 0.6];
        let conds = [
            MrCondition::Healthy,
            MrCondition::Attenuated {
                factor: 0.5,
                delta_kelvin: 0.0,
            },
            MrCondition::Healthy,
        ];
        let out = effective_weight_row(&w, &conds, &p);
        // The throttled channel reads roughly half its weight (exactly half
        // of the collected power, slightly less after the drop-floor
        // subtraction in decode).
        assert!(
            out[1] > 0.2 && out[1] < 0.35,
            "attenuated weight reads {}",
            out[1]
        );
        // An upstream power fault has no Lorentzian tail: neighbours are
        // bit-exact.
        let clean = effective_weight_row(&w, &[MrCondition::Healthy; 3], &p);
        assert_eq!(out[0], clean[0]);
        assert_eq!(out[2], clean[2]);
    }

    #[test]
    fn attenuation_scales_neighbour_crosstalk_too() {
        // Stacked-scenario regression: an upstream power fault darkens the
        // whole carrier, so a parked neighbour's crosstalk deviation at λ_c
        // must scale by the same factor as the own-ring response (the slow
        // datapath scales the channel's launch power before every ring). A
        // fully dark channel therefore reads exactly zero even with a
        // deviating neighbour.
        let p = params();
        let w = [0.9, 0.6, 0.9];
        let conds = [
            MrCondition::Parked,
            MrCondition::Attenuated {
                factor: 0.0,
                delta_kelvin: 0.0,
            },
            MrCondition::Healthy,
        ];
        let out = effective_weight_row(&w, &conds, &p);
        assert!(
            out[1].abs() < 1e-12,
            "dark channel leaked neighbour crosstalk: {}",
            out[1]
        );
        // At a partial tap, the attacked channel's reading (own + crosstalk)
        // is the factor-scaled version of the unattenuated stacked reading.
        let factor = 0.5;
        let conds_half = [
            MrCondition::Parked,
            MrCondition::Attenuated {
                factor,
                delta_kelvin: 0.0,
            },
            MrCondition::Healthy,
        ];
        let conds_full_power = [
            MrCondition::Parked,
            MrCondition::Healthy,
            MrCondition::Healthy,
        ];
        let half = effective_weight_row(&w, &conds_half, &p);
        let full = effective_weight_row(&w, &conds_full_power, &p);
        // Undo the decode's affine floor subtraction to compare raw rails:
        // response = decode⁻¹, and the λ_1 rails must scale exactly.
        let raw = |v: f64| v * (1.0 - p.drop_floor) + p.drop_floor;
        assert!(
            (raw(half[1]) - factor * raw(full[1])).abs() < 1e-12,
            "half-power reading {} vs scaled full-power {}",
            raw(half[1]),
            factor * raw(full[1])
        );
    }

    #[test]
    fn attenuated_rings_still_respond_to_heat() {
        // Stacked laser+hotspot regression: the tap is upstream, so
        // spill-over heat recorded on an Attenuated condition must detune
        // the ring exactly as it would a merely Heated one.
        let p = params();
        let cfg = AcceleratorConfig::paper().unwrap();
        let half = cfg.one_channel_delta_kelvin() / 2.0;
        let w = [0.5, 0.5, 0.5];
        let cold = effective_weight_row(
            &w,
            &[
                MrCondition::Healthy,
                MrCondition::Attenuated {
                    factor: 0.5,
                    delta_kelvin: 0.0,
                },
                MrCondition::Healthy,
            ],
            &p,
        );
        let hot = effective_weight_row(
            &w,
            &[
                MrCondition::Healthy,
                MrCondition::Attenuated {
                    factor: 0.5,
                    delta_kelvin: half,
                },
                MrCondition::Healthy,
            ],
            &p,
        );
        // A half-channel slide erases the weight on top of the power loss.
        assert!(hot[1].abs() < 0.05, "heated tap still reads {}", hot[1]);
        // Half power on a 0.5 weight reads ≈ 0.19 after the drop-floor
        // subtraction in decode.
        assert!(cold[1] > 0.15, "cold tap reads {}", cold[1]);
    }

    #[test]
    fn full_attenuation_zeroes_the_weight() {
        let p = params();
        let out = effective_weight_row(
            &[0.8],
            &[MrCondition::Attenuated {
                factor: 0.0,
                delta_kelvin: 0.0,
            }],
            &p,
        );
        assert!(out[0].abs() < 1e-9, "dark channel reads {}", out[0]);
    }

    #[test]
    fn trim_drift_interpolates_between_healthy_and_parked() {
        let p = params();
        let w = [0.5, 0.5, 0.5];
        let slight = MrCondition::Detuned {
            offset_nm: p.fwhm_nm / 4.0,
            delta_kelvin: 0.0,
        };
        let out = effective_weight_row(
            &w,
            &[MrCondition::Healthy, slight, MrCondition::Healthy],
            &p,
        );
        assert!(
            out[1] > 0.0 && out[1] < 0.5,
            "slight trim drift gave {}",
            out[1]
        );
        // A drift past the modulator's full range behaves like Parked.
        let severe = MrCondition::Detuned {
            offset_nm: p.max_detuning_nm * 2.0,
            delta_kelvin: 0.0,
        };
        let out = effective_weight_row(
            &w,
            &[MrCondition::Healthy, severe, MrCondition::Healthy],
            &p,
        );
        let parked = effective_weight_row(
            &w,
            &[
                MrCondition::Healthy,
                MrCondition::Parked,
                MrCondition::Healthy,
            ],
            &p,
        );
        assert!(
            (out[1] - parked[1]).abs() < 0.05,
            "severe drift {} vs parked {}",
            out[1],
            parked[1]
        );
    }

    #[test]
    fn trim_drift_of_one_spacing_hands_the_weight_to_the_neighbour() {
        let p = params();
        let drift = MrCondition::Detuned {
            offset_nm: p.spacing_nm,
            delta_kelvin: 0.0,
        };
        let w = [0.9, 0.1, -0.5];
        let out = effective_weight_row(&w, &[drift; 3], &p);
        // Same wavelength-slide mechanism as one-channel heating (Fig. 5).
        assert!((out[1] - 0.9).abs() < 0.15, "channel 1 read {}", out[1]);
        assert!(out[0].abs() < 0.1, "channel 0 read {}", out[0]);
    }

    #[test]
    fn quantize_respects_dac_steps() {
        let mut p = params();
        p.dac_steps = 3; // 2-bit DAC: levels 0, 1/3, 2/3, 1
        assert!((p.quantize(0.4) - 1.0 / 3.0).abs() < 1e-12);
        assert!((p.quantize(0.95) - 1.0).abs() < 1e-12);
        p.dac_steps = 0;
        assert_eq!(p.quantize(0.4), 0.4);
    }

    fn tiny_setup() -> (Network, WeightMapping, AcceleratorConfig) {
        // One linear layer of 4×4 = 16 weights mapped to the FC block.
        let mut net = Network::new();
        net.push(Flatten::new());
        let mut fc = Linear::new(4, 4, 3).unwrap();
        // Deterministic, distinctive weights.
        fc.params_mut()[0].value = Tensor::from_vec(
            vec![4, 4],
            (0..16).map(|i| (i as f32 - 8.0) / 8.0).collect(),
        )
        .unwrap();
        net.push(fc);
        let config = AcceleratorConfig::custom(
            BlockConfig {
                vdp_units: 1,
                bank_rows: 2,
                bank_cols: 4,
            },
            BlockConfig {
                vdp_units: 2,
                bank_rows: 2,
                bank_cols: 4,
            }, // 16 MRs
        )
        .unwrap();
        let mapping =
            WeightMapping::new(&config, &[LayerSpec::new("fc", BlockKind::Fc, 16)]).unwrap();
        (net, mapping, config)
    }

    #[test]
    fn clean_corruption_is_just_quantization() {
        let (net, mapping, config) = tiny_setup();
        let out = corrupt_network(&net, &mapping, &ConditionMap::new(), &config).unwrap();
        let orig: Vec<f32> = net
            .params()
            .iter()
            .filter(|p| p.decay)
            .flat_map(|p| p.value.as_slice().to_vec())
            .collect();
        let got: Vec<f32> = out
            .params()
            .iter()
            .filter(|p| p.decay)
            .flat_map(|p| p.value.as_slice().to_vec())
            .collect();
        let lsb = 1.0 / 255.0;
        for (a, b) in orig.iter().zip(&got) {
            assert!((a - b).abs() <= lsb + 1e-6, "quantization moved {a} to {b}");
        }
    }

    #[test]
    fn parked_mr_zeroes_its_weight() {
        let (net, mapping, config) = tiny_setup();
        let mut conditions = ConditionMap::new();
        // Ring 5 carries weight (5−8)/8 = −0.375.
        conditions.set(BlockKind::Fc, 5, MrCondition::Parked);
        let out = corrupt_network(&net, &mapping, &conditions, &config).unwrap();
        let weights: Vec<f32> = out
            .params()
            .iter()
            .filter(|p| p.decay)
            .flat_map(|p| p.value.as_slice().to_vec())
            .collect();
        assert!(
            weights[5].abs() < 1e-5,
            "parked weight not zeroed: {}",
            weights[5]
        );
    }

    #[test]
    fn mismatched_network_is_rejected() {
        let (net, _, config) = tiny_setup();
        let bad_mapping =
            WeightMapping::new(&config, &[LayerSpec::new("fc", BlockKind::Fc, 99)]).unwrap();
        assert!(matches!(
            corrupt_network(&net, &bad_mapping, &ConditionMap::new(), &config),
            Err(OnnError::MappingMismatch { .. })
        ));
    }

    #[test]
    fn corruption_only_touches_affected_rings() {
        let (net, mapping, config) = tiny_setup();
        let mut conditions = ConditionMap::new();
        // Ring 1 carries weight (1−8)/8 = −0.875.
        conditions.set(BlockKind::Fc, 1, MrCondition::Parked);
        let out = corrupt_network(&net, &mapping, &conditions, &config).unwrap();
        let clean = corrupt_network(&net, &mapping, &ConditionMap::new(), &config).unwrap();
        let a: Vec<f32> = out
            .params()
            .iter()
            .filter(|p| p.decay)
            .flat_map(|p| p.value.as_slice().to_vec())
            .collect();
        let b: Vec<f32> = clean
            .params()
            .iter()
            .filter(|p| p.decay)
            .flat_map(|p| p.value.as_slice().to_vec())
            .collect();
        // Ring 1 sits in row 0 (cols 0..4); rings in the other rows (weights
        // 4..8 are row 1 of bank 0, etc.) must be untouched.
        for i in 4..8 {
            assert_eq!(a[i], b[i], "weight {i} in another row changed");
        }
        assert_ne!(a[1], b[1], "attacked weight unchanged");
        assert!(a[1].abs() < 1e-5, "parked weight not zeroed: {}", a[1]);
    }

    #[test]
    fn remap_restores_a_quarantined_weight() {
        // The closed-loop response primitive: park an attacked ring, remap
        // its parameter onto a spare, and the re-derived effective network
        // reads the weight back cleanly.
        let (_, _, config) = tiny_setup();
        // A 12-weight layer on the 16-ring FC block: rings 12..16 are spare.
        let mut net12 = Network::new();
        net12.push(Flatten::new());
        let mut fc = Linear::new(4, 3, 3).unwrap();
        fc.params_mut()[0].value = Tensor::from_vec(
            vec![3, 4],
            (0..12).map(|i| (i as f32 + 1.0) / 16.0).collect(),
        )
        .unwrap();
        net12.push(fc);
        let mut mapping =
            WeightMapping::new(&config, &[LayerSpec::new("fc", BlockKind::Fc, 12)]).unwrap();
        let mut conditions = ConditionMap::new();
        conditions.set(BlockKind::Fc, 5, MrCondition::Parked);
        let attacked = corrupt_network(&net12, &mapping, &conditions, &config).unwrap();
        let w_attacked: Vec<f32> = attacked
            .params()
            .iter()
            .filter(|p| p.decay)
            .flat_map(|p| p.value.as_slice().to_vec())
            .collect();
        assert!(w_attacked[5].abs() < 1e-5, "attack did not land");
        // Respond: quarantine ring 5 and remap its parameter to a spare.
        let outcome = mapping.remap_params(BlockKind::Fc, &[5]).unwrap();
        assert!(outcome.fully_placed());
        let recovered = corrupt_network(&net12, &mapping, &conditions, &config).unwrap();
        let w_rec: Vec<f32> = recovered
            .params()
            .iter()
            .filter(|p| p.decay)
            .flat_map(|p| p.value.as_slice().to_vec())
            .collect();
        let clean = corrupt_network(&net12, &mapping, &ConditionMap::new(), &config).unwrap();
        let w_clean: Vec<f32> = clean
            .params()
            .iter()
            .filter(|p| p.decay)
            .flat_map(|p| p.value.as_slice().to_vec())
            .collect();
        // The remapped weight reads back its clean (quantized) value again.
        assert!(
            (w_rec[5] - w_clean[5]).abs() < 1e-6,
            "remapped weight reads {} vs clean {}",
            w_rec[5],
            w_clean[5]
        );
        assert!(w_rec[5].abs() > 0.1, "weight still zeroed after remap");
    }

    #[test]
    fn reuse_rounds_inherit_corruption() {
        // 16 weights on an 8-MR FC block ⇒ 2 rounds; parking MR 2 corrupts
        // weights 2 and 10.
        let mut net = Network::new();
        net.push(Flatten::new());
        let mut fc = Linear::new(4, 4, 3).unwrap();
        fc.params_mut()[0].value = Tensor::from_vec(
            vec![4, 4],
            (0..16).map(|i| 0.4 + (i as f32) / 40.0).collect(),
        )
        .unwrap();
        net.push(fc);
        let config = AcceleratorConfig::custom(
            BlockConfig {
                vdp_units: 1,
                bank_rows: 1,
                bank_cols: 4,
            },
            BlockConfig {
                vdp_units: 1,
                bank_rows: 2,
                bank_cols: 4,
            }, // 8 MRs
        )
        .unwrap();
        let mapping =
            WeightMapping::new(&config, &[LayerSpec::new("fc", BlockKind::Fc, 16)]).unwrap();
        let mut conditions = ConditionMap::new();
        conditions.set(BlockKind::Fc, 2, MrCondition::Parked);
        let out = corrupt_network(&net, &mapping, &conditions, &config).unwrap();
        let w: Vec<f32> = out
            .params()
            .iter()
            .filter(|p| p.decay)
            .flat_map(|p| p.value.as_slice().to_vec())
            .collect();
        assert!(w[2].abs() < 1e-5, "round-0 weight survived: {}", w[2]);
        assert!(w[10].abs() < 1e-5, "round-1 weight survived: {}", w[10]);
        // A weight on another ring is untouched.
        assert!(w[5].abs() > 0.1);
    }
}
