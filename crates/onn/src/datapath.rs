//! The slow, fully physical optical vector-dot-product datapath.
//!
//! [`OpticalVdp`] builds real [`Microring`] device objects for one bank row
//! (input-imprint array plus differential weight rails), runs light through
//! every transfer function including *all* crosstalk terms, detects with a
//! balanced photodetector and digitizes with the ADC. It exists to validate
//! the fast effective-weight path in `executor` and to benchmark the device
//! stack; figure-scale experiments use the fast path.

use safelight_photonics::{Adc, BalancedPhotodetector, Laser, Microring, MicroringState, WdmGrid};

use crate::condition::MrCondition;
use crate::config::AcceleratorConfig;
use crate::response::DropResponseModel;
use crate::OnnError;

/// A physically simulated vector-dot-product row.
///
/// # Example
///
/// ```
/// use safelight_onn::{AcceleratorConfig, MrCondition, OpticalVdp};
///
/// # fn main() -> Result<(), safelight_onn::OnnError> {
/// let config = AcceleratorConfig::paper()?;
/// let mut vdp = OpticalVdp::new(&config, 4)?;
/// let healthy = vec![MrCondition::Healthy; 4];
/// let dot = vdp.dot(&[0.5, 1.0, 0.25, 0.0], &[0.5, -0.5, 1.0, 0.75], &healthy)?;
/// let exact = 0.25 - 0.5 + 0.25 + 0.0;
/// assert!((dot - exact).abs() < 0.05, "dot {dot} vs {exact}");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct OpticalVdp {
    grid: WdmGrid,
    laser: Laser,
    pd: BalancedPhotodetector,
    adc: Adc,
    params: DropResponseModel,
    channels: usize,
    responsivity: f64,
}

impl OpticalVdp {
    /// Builds a VDP row with `channels` WDM channels from `config`.
    ///
    /// # Errors
    ///
    /// Propagates photonic device construction errors.
    pub fn new(config: &AcceleratorConfig, channels: usize) -> Result<Self, OnnError> {
        let grid = WdmGrid::new(config.grid_start_nm, config.channel_spacing_nm, channels)?;
        let laser = Laser::new(grid.clone(), config.laser_power_mw)?;
        let pd = BalancedPhotodetector::new(config.pd_responsivity)?;
        // The ADC digitizes the balanced photocurrent; full scale covers
        // ±(all channels at full power).
        let full_scale = config.pd_responsivity * config.laser_power_mw * channels as f64;
        let adc = Adc::new(config.adc_bits, -full_scale, full_scale)?;
        Ok(Self {
            grid,
            laser,
            pd,
            adc,
            params: DropResponseModel::from_config(config),
            channels,
            responsivity: config.pd_responsivity,
        })
    }

    /// The shared physics model this datapath was built from.
    #[must_use]
    pub fn model(&self) -> &DropResponseModel {
        &self.params
    }

    /// Number of WDM channels (row length).
    #[must_use]
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Through-port transmission that encodes magnitude `m` under the
    /// configured weight encoding.
    fn imprint_through_for(&self, m: f64) -> f64 {
        let p = &self.params;
        let m = p.quantize(m);
        match p.encoding {
            crate::WeightEncoding::ThroughPort => p.t_min + m * (p.t_max - p.t_min),
            // Drop-port: m = 1 means on-resonance (minimum through).
            crate::WeightEncoding::DropPort => {
                1.0 - (1.0 - p.t_min) * (p.drop_floor + m * (1.0 - p.drop_floor))
            }
        }
    }

    /// Builds one bank of rings imprinted with `magnitudes`, applying
    /// `conditions` (thermal shifts and parking).
    fn build_bank(
        &self,
        magnitudes: &[f64],
        conditions: &[MrCondition],
    ) -> Result<Vec<Microring>, OnnError> {
        let mut bank = Vec::with_capacity(self.channels);
        for (c, (&m, &cond)) in magnitudes.iter().zip(conditions).enumerate() {
            let mut ring = Microring::with_geometry(
                safelight_photonics::MicroringGeometry::default(),
                &self.grid,
                c,
            )?;
            let t = self.imprint_through_for(m);
            ring.imprint_transmission(t.clamp(ring.min_transmission(), ring.max_transmission()))?;
            apply_condition(&mut ring, cond, &self.params);
            bank.push(ring);
        }
        Ok(bank)
    }

    /// Input-imprint transmission for an activation `a ∈ [0, 1]` (the input
    /// array always modulates the through port).
    fn input_through_for(&self, a: f64) -> f64 {
        let p = &self.params;
        p.t_min + p.quantize(a) * (p.t_max - p.t_min)
    }

    /// Per-channel through transmission of a bank (all crosstalk terms).
    fn bank_transmissions(&self, bank: &[Microring]) -> Vec<f64> {
        (0..self.channels)
            .map(|c| {
                let lambda = self.grid.channel_wavelength(c).expect("channel in range");
                bank.iter()
                    .map(|r| r.through_transmission(lambda))
                    .product()
            })
            .collect()
    }

    /// Per-channel *collected drop* response of a bank: the power fraction
    /// of channel `c` routed onto the detector bus by all rings.
    fn bank_drop_collection(&self, bank: &[Microring]) -> Vec<f64> {
        (0..self.channels)
            .map(|c| {
                let lambda = self.grid.channel_wavelength(c).expect("channel in range");
                bank.iter().map(|r| r.drop_transmission(lambda)).sum()
            })
            .collect()
    }

    /// Computes `Σ inputs[c]·weights[c]` optically.
    ///
    /// `inputs` are activation magnitudes in `[0, 1]`; `weights` are signed
    /// values in `[−1, 1]` encoded on differential positive/negative rails;
    /// `conditions` are the fault states of the *weight* rings (the
    /// weight-stationary attack surface).
    ///
    /// # Errors
    ///
    /// Returns [`OnnError::MappingMismatch`] when slice lengths differ from
    /// the row width.
    pub fn dot(
        &mut self,
        inputs: &[f64],
        weights: &[f64],
        conditions: &[MrCondition],
    ) -> Result<f64, OnnError> {
        Ok(self.dot_with_tap(inputs, weights, conditions)?.0)
    }

    /// As [`OpticalVdp::dot`], but additionally reads the row's monitor
    /// photocurrents off the detector bus — the physical counterpart of the
    /// analytic [`TelemetryProbe`](crate::TelemetryProbe) drop-port taps.
    /// The returned [`RowTap`] carries the per-rail summed photocurrents
    /// the balanced detector subtracts, which a cheap monitor ADC can
    /// sample without touching the inference datapath.
    ///
    /// # Errors
    ///
    /// Returns [`OnnError::MappingMismatch`] when slice lengths differ from
    /// the row width.
    pub fn dot_with_tap(
        &mut self,
        inputs: &[f64],
        weights: &[f64],
        conditions: &[MrCondition],
    ) -> Result<(f64, RowTap), OnnError> {
        if inputs.len() != self.channels
            || weights.len() != self.channels
            || conditions.len() != self.channels
        {
            return Err(OnnError::MappingMismatch {
                context: format!(
                    "expected {} inputs/weights/conditions, got {}/{}/{}",
                    self.channels,
                    inputs.len(),
                    weights.len(),
                    conditions.len()
                ),
            });
        }
        // The input array imprints activations on the through port.
        let input_bank: Vec<Microring> = {
            let mut bank = Vec::with_capacity(self.channels);
            for (c, &a) in inputs.iter().enumerate() {
                let mut ring = Microring::with_geometry(
                    safelight_photonics::MicroringGeometry::default(),
                    &self.grid,
                    c,
                )?;
                let t = self.input_through_for(a);
                ring.imprint_transmission(
                    t.clamp(ring.min_transmission(), ring.max_transmission()),
                )?;
                bank.push(ring);
            }
            bank
        };
        let t_in = self.bank_transmissions(&input_bank);

        // Differential weight encoding: |w| on the rail matching sign(w),
        // zero on the other rail. A fault applies to the *active* rail —
        // the ring that actually carries the weight — matching the fast
        // effective-weight path (see executor module docs).
        let pos: Vec<f64> = weights.iter().map(|&w| w.max(0.0)).collect();
        let neg: Vec<f64> = weights.iter().map(|&w| (-w).max(0.0)).collect();
        let pos_conds: Vec<MrCondition> = weights
            .iter()
            .zip(conditions)
            .map(|(&w, &c)| if w >= 0.0 { c } else { MrCondition::Healthy })
            .collect();
        let neg_conds: Vec<MrCondition> = weights
            .iter()
            .zip(conditions)
            .map(|(&w, &c)| if w < 0.0 { c } else { MrCondition::Healthy })
            .collect();
        let pos_bank = self.build_bank(&pos, &pos_conds)?;
        let neg_bank = self.build_bank(&neg, &neg_conds)?;

        let p = &self.params;
        let p0 = self.laser.power_per_channel_mw();
        // Laser power-degradation faults throttle a channel's launch power
        // upstream of both rails; everything measured at λ_c scales.
        let launch: Vec<f64> = conditions
            .iter()
            .map(|&cond| match cond {
                MrCondition::Attenuated { factor, .. } => p0 * factor.clamp(0.0, 1.0),
                _ => p0,
            })
            .collect();
        let delta_in = p.t_max - p.t_min;
        let signed_weight_sum: f64 = weights
            .iter()
            .map(|&w| p.quantize(w.abs()) * w.signum())
            .sum();

        let (pos_powers, neg_powers): (Vec<f64>, Vec<f64>) = match p.encoding {
            crate::WeightEncoding::ThroughPort => {
                let t_pos = self.bank_transmissions(&pos_bank);
                let t_neg = self.bank_transmissions(&neg_bank);
                (
                    launch
                        .iter()
                        .zip(t_in.iter().zip(&t_pos))
                        .map(|(l, (a, b))| l * a * b)
                        .collect(),
                    launch
                        .iter()
                        .zip(t_in.iter().zip(&t_neg))
                        .map(|(l, (a, b))| l * a * b)
                        .collect(),
                )
            }
            crate::WeightEncoding::DropPort => {
                let d_pos = self.bank_drop_collection(&pos_bank);
                let d_neg = self.bank_drop_collection(&neg_bank);
                (
                    launch
                        .iter()
                        .zip(t_in.iter().zip(&d_pos))
                        .map(|(l, (a, b))| l * a * b)
                        .collect(),
                    launch
                        .iter()
                        .zip(t_in.iter().zip(&d_neg))
                        .map(|(l, (a, b))| l * a * b)
                        .collect(),
                )
            }
        };
        let current = self
            .pd
            .detect(pos_powers.iter().copied(), neg_powers.iter().copied());
        let (positive_ma, negative_ma) = self
            .pd
            .monitor(pos_powers.iter().copied(), neg_powers.iter().copied());
        let tap = RowTap {
            positive_ma,
            negative_ma,
        };
        let (_, digitized) = self.adc.convert(current);
        let raw = digitized / (self.responsivity * p0);

        // Affine decode per encoding; the controller knows the Σw it
        // programmed, so constant terms calibrate out.
        let dot = match p.encoding {
            crate::WeightEncoding::ThroughPort => {
                // Σ T_in·(T⁺ − T⁻) = t_min·Δ·Σw + Δ²·Σ a·w.
                (raw - p.t_min * delta_in * signed_weight_sum) / (delta_in * delta_in)
            }
            crate::WeightEncoding::DropPort => {
                // D = (1 − t_min)·(l + m·(1 − l)) on the active rail, so
                // Σ T_in·(D⁺ − D⁻) = K·(t_min·Σw + Δ·Σ a·w) with
                // K = (1 − t_min)(1 − l).
                let k = (1.0 - p.t_min) * (1.0 - p.drop_floor);
                (raw / k - p.t_min * signed_weight_sum) / delta_in
            }
        };
        Ok((dot, tap))
    }

    /// Reads the row's *effective* signed weights back through the full
    /// physical datapath: channel `c`'s effective weight is the dot product
    /// with the one-hot activation `e_c` (laser → imprint banks → balanced
    /// detection → ADC → affine decode), calibrated differentially against
    /// the same measurement on the healthy row — real accelerators store
    /// exactly that per-channel commissioning baseline, so static
    /// Lorentzian-tail biases cancel and only the fault-induced deviation
    /// survives.
    ///
    /// This is the physical counterpart of the analytic
    /// [`effective_weight_row`](crate::effective_weight_row) and the
    /// primitive behind [`PhysicalBackend`](crate::backend::PhysicalBackend):
    /// it picks up every device-level effect the closed form approximates —
    /// full Lorentzian crosstalk across the row, the balanced detector's
    /// unclamped rail swing and the ADC's finite resolution — so agreement
    /// is within tolerance, not bitwise.
    ///
    /// # Errors
    ///
    /// Returns [`OnnError::MappingMismatch`] when slice lengths differ from
    /// the row width.
    pub fn effective_weight_readback(
        &mut self,
        weights: &[f64],
        conditions: &[MrCondition],
    ) -> Result<Vec<f64>, OnnError> {
        (0..self.channels)
            .map(|c| self.effective_weight_at(c, weights, conditions))
            .collect()
    }

    /// One channel of [`OpticalVdp::effective_weight_readback`].
    ///
    /// # Errors
    ///
    /// Returns [`OnnError::MappingMismatch`] when slice lengths differ from
    /// the row width.
    pub fn effective_weight_at(
        &mut self,
        channel: usize,
        weights: &[f64],
        conditions: &[MrCondition],
    ) -> Result<f64, OnnError> {
        let mut one_hot = vec![0.0f64; self.channels];
        if channel >= self.channels {
            return Err(OnnError::MrOutOfRange {
                index: channel as u64,
                capacity: self.channels as u64,
            });
        }
        one_hot[channel] = 1.0;
        let healthy = vec![MrCondition::Healthy; self.channels];
        let faulty = self.dot(&one_hot, weights, conditions)?;
        let baseline = self.dot(&one_hot, weights, &healthy)?;
        let expected = {
            let w = weights[channel];
            w.signum() * self.params.quantize(w.abs())
        };
        Ok((expected + faulty - baseline).clamp(-1.0, 1.0))
    }

    /// The normalized drop-port response of one physically simulated ring
    /// at its own carrier, imprinted with magnitude `m` under `condition` —
    /// what the bank's monitor photodetector integrates per slot. The
    /// launch-power scaling of an upstream tap is applied, matching the
    /// per-channel scaling of [`OpticalVdp::dot`].
    ///
    /// # Errors
    ///
    /// Propagates photonic device construction errors.
    pub fn slot_monitor_response(&self, m: f64, condition: MrCondition) -> Result<f64, OnnError> {
        let mut ring = Microring::with_geometry(
            safelight_photonics::MicroringGeometry::default(),
            &self.grid,
            0,
        )?;
        let t = self.imprint_through_for(m);
        ring.imprint_transmission(t.clamp(ring.min_transmission(), ring.max_transmission()))?;
        apply_condition(&mut ring, condition, &self.params);
        let lambda = self.grid.channel_wavelength(0).expect("channel 0 exists");
        // drop = (1 − t_min)·L(δ); normalize to the on-resonance peak the
        // analytic model reports, and scale by the surviving launch power.
        let normalized = ring.drop_transmission(lambda) / (1.0 - self.params.t_min);
        Ok(crate::response::channel_power_factor(condition) * normalized)
    }
}

/// Applies an [`MrCondition`] to a physically simulated ring — the single
/// condition→device-state mapping, shared by the dot-product bank builder
/// and the per-slot monitor response so the two can never drift apart:
///
/// * `Parked` — the actuation trojan holds the ring at the modulator's
///   maximum detuning;
/// * `Heated` — the thermo-optic shift of the recorded ΔT;
/// * `Detuned` — a pinned resonance offset, applied as the equivalent
///   thermo-optic shift, plus any spill-over heat;
/// * `Attenuated` — the fault lives *upstream* of the ring (the channel's
///   launch power is scaled by the caller via
///   [`channel_power_factor`](crate::channel_power_factor)); only
///   spill-over heat (intact thermal response) shifts the resonance.
fn apply_condition(ring: &mut Microring, condition: MrCondition, params: &DropResponseModel) {
    match condition {
        MrCondition::Healthy => {}
        MrCondition::Parked => ring.set_state(MicroringState::ParkedOffResonance),
        MrCondition::Heated { delta_kelvin } => ring.set_temperature_delta(delta_kelvin),
        MrCondition::Detuned {
            offset_nm,
            delta_kelvin,
        } => ring.set_temperature_delta(offset_nm / params.shift_per_kelvin_nm + delta_kelvin),
        MrCondition::Attenuated { delta_kelvin, .. } => {
            if delta_kelvin > 0.0 {
                ring.set_temperature_delta(delta_kelvin);
            }
        }
    }
}

/// The monitor photocurrents of one VDP row, in milliamps: what the
/// runtime-detection telemetry layer samples from the detector bus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RowTap {
    /// Summed photocurrent of the positive rail's detector.
    pub positive_ma: f64,
    /// Summed photocurrent of the negative rail's detector.
    pub negative_ma: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vdp(channels: usize) -> OpticalVdp {
        OpticalVdp::new(&AcceleratorConfig::paper().unwrap(), channels).unwrap()
    }

    #[test]
    fn healthy_dot_matches_arithmetic() {
        let mut v = vdp(6);
        let inputs = [1.0, 0.8, 0.6, 0.4, 0.2, 0.0];
        let weights = [0.9, -0.7, 0.5, -0.3, 0.1, 1.0];
        let healthy = vec![MrCondition::Healthy; 6];
        let dot = v.dot(&inputs, &weights, &healthy).unwrap();
        let exact: f64 = inputs.iter().zip(&weights).map(|(a, w)| a * w).sum();
        assert!((dot - exact).abs() < 0.08, "dot {dot} vs exact {exact}");
    }

    #[test]
    fn zero_weights_give_zero_dot() {
        let mut v = vdp(4);
        let dot = v
            .dot(&[1.0; 4], &[0.0; 4], &[MrCondition::Healthy; 4])
            .unwrap();
        assert!(dot.abs() < 0.05, "dot {dot}");
    }

    #[test]
    fn parked_weight_ring_drops_its_term() {
        // Default (drop-port) encoding: a parked ring's term vanishes.
        let mut v = vdp(4);
        let inputs = [1.0, 1.0, 1.0, 1.0];
        let weights = [0.5, 0.5, 0.5, 0.5];
        let healthy = vec![MrCondition::Healthy; 4];
        let clean = v.dot(&inputs, &weights, &healthy).unwrap();
        let mut attacked = healthy.clone();
        attacked[1] = MrCondition::Parked;
        let corrupted = v.dot(&inputs, &weights, &attacked).unwrap();
        // Term 1 falls from 0.5 toward 0: the dot must drop by ~0.5.
        assert!(
            clean - corrupted > 0.3,
            "parked ring moved dot only {clean} → {corrupted}"
        );
    }

    #[test]
    fn parked_weight_ring_inflates_under_through_port() {
        let mut config = AcceleratorConfig::paper().unwrap();
        config.encoding = crate::WeightEncoding::ThroughPort;
        let mut v = OpticalVdp::new(&config, 4).unwrap();
        let inputs = [1.0, 1.0, 1.0, 1.0];
        let weights = [0.2, 0.2, 0.2, 0.2];
        let healthy = vec![MrCondition::Healthy; 4];
        let clean = v.dot(&inputs, &weights, &healthy).unwrap();
        let mut attacked = healthy.clone();
        attacked[1] = MrCondition::Parked;
        let corrupted = v.dot(&inputs, &weights, &attacked).unwrap();
        // Term 1 jumps from 0.2 toward 1.0: the dot must rise by ~0.8.
        assert!(
            corrupted - clean > 0.5,
            "parked ring moved dot only {clean} → {corrupted}"
        );
    }

    #[test]
    fn heated_row_corrupts_multiple_terms() {
        let mut v = vdp(5);
        let config = AcceleratorConfig::paper().unwrap();
        let dt = config.one_channel_delta_kelvin();
        let inputs = [1.0; 5];
        let weights = [0.5, -0.5, 0.5, -0.5, 0.5];
        let healthy = vec![MrCondition::Healthy; 5];
        let clean = v.dot(&inputs, &weights, &healthy).unwrap();
        let heated = vec![MrCondition::Heated { delta_kelvin: dt }; 5];
        let corrupted = v.dot(&inputs, &weights, &heated).unwrap();
        assert!(
            (corrupted - clean).abs() > 0.3,
            "hotspot barely moved dot: {clean} → {corrupted}"
        );
    }

    #[test]
    fn tap_reads_the_rails_and_matches_dot() {
        let mut v = vdp(4);
        let inputs = [1.0, 1.0, 1.0, 1.0];
        let weights = [0.5, -0.5, 0.5, 0.5];
        let healthy = vec![MrCondition::Healthy; 4];
        let (dot, tap) = v.dot_with_tap(&inputs, &weights, &healthy).unwrap();
        assert_eq!(dot, v.dot(&inputs, &weights, &healthy).unwrap());
        // Three positive-rail weights vs one negative: the positive monitor
        // collects more light.
        assert!(tap.positive_ma > tap.negative_ma);
        // Parking a positive-rail ring removes its drop-port contribution
        // from the monitored current — the detection signature.
        let mut attacked = healthy.clone();
        attacked[0] = MrCondition::Parked;
        let (_, tapped) = v.dot_with_tap(&inputs, &weights, &attacked).unwrap();
        assert!(
            tapped.positive_ma < tap.positive_ma - 1e-3,
            "monitor current did not drop: {} vs {}",
            tapped.positive_ma,
            tap.positive_ma
        );
    }

    #[test]
    fn physical_readback_matches_analytic_row_within_tolerance() {
        let mut v = vdp(5);
        let p = *v.model();
        let weights = [0.8, -0.4, 0.6, 0.0, -0.9];
        let conds = [
            MrCondition::Healthy,
            MrCondition::Parked,
            MrCondition::Heated { delta_kelvin: 4.0 },
            MrCondition::Attenuated {
                factor: 0.5,
                delta_kelvin: 0.0,
            },
            MrCondition::Healthy,
        ];
        let physical = v.effective_weight_readback(&weights, &conds).unwrap();
        let analytic = crate::executor::effective_weight_row(&weights, &conds, &p);
        for (c, (a, b)) in physical.iter().zip(&analytic).enumerate() {
            assert!(
                (a - b).abs() < 0.05,
                "channel {c}: physical {a} vs analytic {b}"
            );
        }
    }

    #[test]
    fn slot_monitor_response_matches_the_analytic_model() {
        let v = vdp(4);
        let p = *v.model();
        for (m, cond) in [
            (0.7, MrCondition::Healthy),
            (0.7, MrCondition::Parked),
            (0.3, MrCondition::Heated { delta_kelvin: 6.0 }),
            (
                0.5,
                MrCondition::Attenuated {
                    factor: 0.5,
                    delta_kelvin: 0.0,
                },
            ),
            (
                0.5,
                MrCondition::Detuned {
                    offset_nm: 0.1,
                    delta_kelvin: 0.0,
                },
            ),
        ] {
            let physical = v.slot_monitor_response(m, cond).unwrap();
            let analytic = crate::response::channel_power_factor(cond)
                * p.drop_response(p.offset_under(p.quantize(m), cond));
            assert!(
                (physical - analytic).abs() < 0.01,
                "m {m}, {cond:?}: physical {physical} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn wrong_length_is_rejected() {
        let mut v = vdp(4);
        assert!(v
            .dot(&[0.0; 3], &[0.0; 4], &[MrCondition::Healthy; 4])
            .is_err());
    }
}
