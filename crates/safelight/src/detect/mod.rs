//! Runtime trojan detectors over the accelerator's telemetry taps.
//!
//! The telemetry layer ([`safelight_onn::TelemetryProbe`]) emits one
//! [`TelemetryFrame`] per inference batch; a [`Detector`] turns a stream of
//! frames into a scalar anomaly score per frame. Scores are normalized so
//! that "larger = more anomalous"; an alarm is raised when the score
//! crosses a threshold calibrated from attack-free runs (the evaluation
//! pipeline in [`crate::eval`] sweeps that threshold to trace ROC curves).
//!
//! Three complementary detectors ship in-tree:
//!
//! * [`GuardBandDetector`] — a memoryless per-bank guard band: every sensor
//!   field of every bank is z-scored against its calibrated mean/σ, and the
//!   frame's score is the worst excursion. Catches strong localized shifts
//!   (clustered attacks, single hot banks) in one frame.
//! * [`EwmaCusumDetector`] — a sequential change-point detector: the
//!   cross-bank mean drop-current z-score is EWMA-smoothed and accumulated
//!   by a two-sided CUSUM. Catches small *persistent* global shifts (low
//!   attack fractions, laser taps spread across banks) at the cost of a few
//!   frames of latency.
//! * [`SentinelDetector`] — integrity checking of known probe weights
//!   mapped onto rings the model leaves idle
//!   ([`safelight_onn::SentinelPlan`]): any fault landing on a sentinel
//!   ring perturbs a readback whose exact value is known a priori.
//!
//! See `docs/detection.md` for the sensor model and the detector math.

mod cusum;
mod guard;
mod health;
mod sentinel;

pub use cusum::EwmaCusumDetector;
pub use guard::GuardBandDetector;
pub use health::{FrameHealth, HealthReason, MaskedChannel, SensorHealthScreen};
pub use sentinel::SentinelDetector;

use safelight_onn::TelemetryFrame;

use crate::SafelightError;

/// A pluggable runtime trojan detector.
///
/// Lifecycle: [`Detector::calibrate`] once on attack-free frames, then feed
/// frames through [`Detector::score`] in batch order; [`Detector::reset`]
/// clears any sequential state between runs while keeping the calibration.
pub trait Detector: Send + Sync {
    /// Stable identifier used in report tables and CSV columns.
    fn name(&self) -> &'static str;

    /// Fits the detector's baseline statistics to attack-free `frames`.
    ///
    /// # Errors
    ///
    /// Returns [`SafelightError::InvalidParameter`] when `frames` is empty.
    fn calibrate(&mut self, frames: &[TelemetryFrame]) -> Result<(), SafelightError>;

    /// Clears sequential state (scores already emitted do not change the
    /// calibration), so one calibrated detector can evaluate many runs.
    fn reset(&mut self);

    /// The anomaly score of `frame` (larger = more anomalous; `0.0` before
    /// calibration). Sequential detectors may update internal state.
    fn score(&mut self, frame: &TelemetryFrame) -> f64;

    /// Clones the detector — calibration and all — behind a fresh box, so
    /// evaluation sweeps can hand independent copies to parallel workers.
    fn clone_box(&self) -> Box<dyn Detector>;
}

impl Clone for Box<dyn Detector> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// The detection subsystem's stock detector suite with default knobs, in
/// report order.
#[must_use]
pub fn default_detectors() -> Vec<Box<dyn Detector>> {
    vec![
        Box::new(GuardBandDetector::default()),
        Box::new(EwmaCusumDetector::default()),
        Box::new(SentinelDetector::default()),
    ]
}

/// Mean and standard deviation of one calibrated sensor channel.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct ChannelStat {
    pub mean: f64,
    pub sigma: f64,
}

/// σ floor protecting z-scores against noiseless calibration channels.
pub(crate) const SIGMA_FLOOR: f64 = 1e-9;

impl ChannelStat {
    /// Fits mean/σ over the *finite* entries of `values` (population σ;
    /// calibration runs are the whole population of attack-free behaviour
    /// we get to see). A NaN or ±∞ in the calibration window — a sensor
    /// already faulted at baseline time — would otherwise poison the mean
    /// and make every later z-score NaN, which compares false against any
    /// threshold and silently suppresses alarms. A channel with no finite
    /// calibration sample at all gets `{mean: 0, sigma: ∞}`: it z-scores
    /// ≈ 0 for any finite reading, i.e. it abstains rather than alarms
    /// (the sensor-health screen reports it separately). σ is floored at
    /// [`SIGMA_FLOOR`] so a zero-variance channel still yields finite z.
    pub(crate) fn fit(values: &[f64]) -> Self {
        let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
        if finite.is_empty() {
            return Self {
                mean: 0.0,
                sigma: f64::INFINITY,
            };
        }
        let n = finite.len() as f64;
        let mean = finite.iter().sum::<f64>() / n;
        let var = finite.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
        Self {
            mean,
            sigma: var.sqrt().max(SIGMA_FLOOR),
        }
    }

    /// The z-score of `value` against this channel, with a σ floor.
    pub(crate) fn z(&self, value: f64) -> f64 {
        (value - self.mean) / self.sigma.max(SIGMA_FLOOR)
    }
}

/// Rejects an empty calibration set.
pub(crate) fn require_frames(frames: &[TelemetryFrame]) -> Result<(), SafelightError> {
    if frames.is_empty() {
        return Err(SafelightError::InvalidParameter {
            name: "calibration frames",
            value: 0.0,
        });
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod testutil {
    use safelight_neuro::{Flatten, Layer, Linear, Network, Tensor};
    use safelight_onn::{
        AcceleratorConfig, BlockConfig, BlockKind, ConditionMap, LayerSpec, SentinelPlan,
        TelemetryFrame, TelemetryProbe, WeightMapping,
    };

    /// A deterministic 16-weight FC setup with idle CONV rings hosting
    /// sentinels, mirroring the telemetry module's unit fixture.
    pub(crate) fn fixture() -> (Network, WeightMapping, AcceleratorConfig, SentinelPlan) {
        let mut net = Network::new();
        net.push(Flatten::new());
        let mut fc = Linear::new(4, 4, 3).unwrap();
        fc.params_mut()[0].value = Tensor::from_vec(
            vec![4, 4],
            (0..16).map(|i| 0.2 + (i as f32) / 32.0).collect(),
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
        let sentinels = SentinelPlan::new(&mapping, &config, 4);
        (net, mapping, config, sentinels)
    }

    /// Noisy frames from the fixture under `conditions`.
    pub(crate) fn frames(
        conditions: &ConditionMap,
        count: usize,
        seed: u64,
    ) -> Vec<TelemetryFrame> {
        let (net, mapping, config, sentinels) = fixture();
        let probe = TelemetryProbe::new(&net, &mapping, conditions, &config, &sentinels).unwrap();
        (0..count as u64).map(|b| probe.frame(b, seed)).collect()
    }

    /// A map parking `count` FC rings.
    pub(crate) fn parked(count: u64) -> ConditionMap {
        let mut map = ConditionMap::new();
        for mr in 0..count {
            map.set(BlockKind::Fc, mr, safelight_onn::MrCondition::Parked);
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_stat_fits_mean_and_sigma() {
        let s = ChannelStat::fit(&[1.0, 3.0]);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.sigma, 1.0);
        assert_eq!(s.z(4.0), 2.0);
        // Degenerate channels fall back to the σ floor instead of dividing
        // by zero.
        let flat = ChannelStat::fit(&[0.5, 0.5]);
        assert!(flat.z(0.5 + 1e-6).is_finite());
    }

    #[test]
    fn channel_stat_ignores_non_finite_calibration_samples() {
        // A NaN baseline sample must not poison the fit: the finite samples
        // alone define the channel.
        let s = ChannelStat::fit(&[1.0, f64::NAN, 3.0, f64::INFINITY]);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.sigma, 1.0);
        assert_eq!(s.z(4.0), 2.0);
        // An all-non-finite channel abstains: z ≈ 0 for finite readings,
        // never NaN (a NaN z would compare false against every threshold
        // and silently suppress alarms).
        let dead = ChannelStat::fit(&[f64::NAN, f64::NAN]);
        assert_eq!(dead.z(123.0), 0.0);
        assert!(dead.z(0.0).is_finite());
    }

    #[test]
    fn zero_variance_calibration_yields_finite_z() {
        // Regression: a zero-variance baseline used to produce 0/0 = NaN
        // z-scores in degenerate paths; the σ floor guarantees finite z.
        let s = ChannelStat::fit(&[0.7; 16]);
        assert!(s.sigma >= SIGMA_FLOOR);
        let z = s.z(0.7);
        assert!(z.is_finite() && z.abs() < 1.0, "z {z}");
        assert!(s.z(0.7 + 1e-6).is_finite());
    }

    #[test]
    fn default_suite_has_three_distinct_detectors() {
        let suite = default_detectors();
        assert_eq!(suite.len(), 3);
        let names: Vec<&str> = suite.iter().map(|d| d.name()).collect();
        assert_eq!(names, vec!["guard_band", "ewma_cusum", "sentinel"]);
    }

    #[test]
    fn boxed_detectors_clone_with_calibration() {
        let frames = testutil::frames(&safelight_onn::ConditionMap::new(), 6, 1);
        let mut suite = default_detectors();
        for d in &mut suite {
            d.calibrate(&frames).unwrap();
        }
        let attacked = testutil::frames(&testutil::parked(4), 1, 2);
        for d in &mut suite {
            let mut copy = d.clone();
            copy.reset();
            assert_eq!(copy.name(), d.name());
            // The clone scores without re-calibration.
            let s = copy.score(&attacked[0]);
            assert!(s.is_finite());
        }
    }
}
