//! Per-sensor health screening: the frame-validation layer in front of the
//! trojan detectors.
//!
//! A deployed accelerator's telemetry is not guaranteed trustworthy: a
//! drop-port monitor can die (non-finite readback), a thermal sensor can
//! latch its last value, a DAC readback can rail out of its physical
//! range. Feeding such readings straight into the detector suite either
//! poisons the scores (NaN propagates and compares false against every
//! threshold) or raises a *trojan* alarm for what is really a *maintenance*
//! event — and the closed-loop response would burn spare rings on a broken
//! sensor.
//!
//! [`SensorHealthScreen`] sits between the probe and the suite. It is
//! calibrated on the same attack-free frames as the detectors; at run time
//! [`SensorHealthScreen::screen`] classifies every channel of a frame
//! (healthy / non-finite / out-of-physical-range / stuck / operator-
//! quarantined) and [`SensorHealthScreen::sanitize`] replaces the masked
//! readings with their calibrated means so the detectors score on the
//! surviving channels only. The sensor-health verdict ([`FrameHealth`])
//! travels separately from the trojan verdict.

use safelight_onn::{BlockKind, SensorChannel, TelemetryFrame};

use crate::detect::{require_frames, ChannelStat, SIGMA_FLOOR};
use crate::SafelightError;

/// Why a channel was masked out of detector scoring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HealthReason {
    /// The reading is NaN or ±∞ — a dead or disconnected sensor.
    NonFinite,
    /// The reading is finite but outside the channel's physical range —
    /// a railed ADC or a wild readback.
    OutOfRange,
    /// The reading has repeated bit-exactly across consecutive frames on a
    /// channel whose calibrated noise makes exact repeats implausible — a
    /// latched sensor.
    Stuck,
    /// The channel was quarantined by the response policy after repeated
    /// single-sensor anomalies.
    Quarantined,
}

impl HealthReason {
    /// Stable short token used in reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::NonFinite => "non_finite",
            Self::OutOfRange => "out_of_range",
            Self::Stuck => "stuck",
            Self::Quarantined => "quarantined",
        }
    }
}

/// One masked sensor channel of a screened frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MaskedChannel {
    /// The block the sensor belongs to.
    pub block: BlockKind,
    /// Bank index for bank channels, plan index for sentinels.
    pub index: usize,
    /// Which sensor of that bank/plan slot.
    pub channel: SensorChannel,
    /// Why it was masked.
    pub reason: HealthReason,
}

/// The sensor-health verdict of one screened frame: which channels were
/// masked and why. Reported separately from the trojan verdict — a dead
/// sensor is a maintenance flag, not a quarantine.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FrameHealth {
    /// The masked channels, in fixed conv-banks/fc-banks/sentinels order.
    pub masked: Vec<MaskedChannel>,
}

impl FrameHealth {
    /// `true` when every channel passed screening.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.masked.is_empty()
    }
}

/// Physical plausibility range of a channel, generous enough that no
/// attack-induced excursion the trojan grid produces ever leaves it —
/// out-of-range means *broken sensor*, not *big anomaly*.
fn physical_range(channel: SensorChannel) -> (f64, f64) {
    match channel {
        SensorChannel::DropCurrent => (-0.25, 2.0),
        SensorChannel::DeltaKelvin => (-5.0, 500.0),
        SensorChannel::RailPower => (-0.25, 2.0),
        SensorChannel::TrimOffsetNm => (-1.0, 50.0),
        SensorChannel::Sentinel => (-0.5, 2.0),
    }
}

/// Consecutive bit-identical readings before a channel counts as stuck.
const STUCK_RUN_LEN: u32 = 3;

/// Per-channel run tracker for stuck-at detection.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct StuckRun {
    bits: u64,
    count: u32,
}

impl StuckRun {
    fn observe(&mut self, value: f64) -> u32 {
        let bits = value.to_bits();
        if self.count > 0 && bits == self.bits {
            self.count += 1;
        } else {
            self.bits = bits;
            self.count = 1;
        }
        self.count
    }
}

/// The four bank-level sensor channels, in calibration order.
const BANK_CHANNELS: [SensorChannel; 4] = [
    SensorChannel::DropCurrent,
    SensorChannel::DeltaKelvin,
    SensorChannel::RailPower,
    SensorChannel::TrimOffsetNm,
];

/// Calibrated per-channel statistics and stuck-run state of one block.
#[derive(Debug, Clone, Default, PartialEq)]
struct BlockScreen {
    banks: Vec<[ChannelStat; 4]>,
    sentinels: Vec<ChannelStat>,
    bank_runs: Vec<[StuckRun; 4]>,
    sentinel_runs: Vec<StuckRun>,
}

/// Frame validation and per-sensor health screening (see the module docs).
///
/// Lifecycle mirrors a [`Detector`](crate::detect::Detector): calibrate on
/// attack-free frames, [`SensorHealthScreen::screen`] each live frame in
/// batch order (stuck-at tracking is sequential), `reset` between runs.
/// Operator quarantines survive both `reset` and re-calibration.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SensorHealthScreen {
    conv: BlockScreen,
    fc: BlockScreen,
    /// Channels masked by policy, sorted for deterministic reports.
    quarantined: Vec<(BlockKind, usize, SensorChannel)>,
    calibrated: bool,
}

impl SensorHealthScreen {
    fn block(&self, kind: BlockKind) -> &BlockScreen {
        match kind {
            BlockKind::Conv => &self.conv,
            BlockKind::Fc => &self.fc,
        }
    }

    fn block_mut(&mut self, kind: BlockKind) -> &mut BlockScreen {
        match kind {
            BlockKind::Conv => &mut self.conv,
            BlockKind::Fc => &mut self.fc,
        }
    }

    /// Fits per-channel baselines on attack-free `frames` and clears the
    /// stuck-run state. Operator quarantines are kept — re-baselining a
    /// member does not un-break a sensor.
    ///
    /// # Errors
    ///
    /// Returns [`SafelightError::InvalidParameter`] when `frames` is empty.
    pub fn calibrate(&mut self, frames: &[TelemetryFrame]) -> Result<(), SafelightError> {
        require_frames(frames)?;
        for kind in [BlockKind::Conv, BlockKind::Fc] {
            let banks = frames.first().map_or(0, |f| f.banks(kind).len());
            let sentinels = frames.first().map_or(0, |f| f.sentinels(kind).len());
            let block = self.block_mut(kind);
            block.banks = (0..banks)
                .map(|bank| {
                    let mut stats = [ChannelStat::default(); 4];
                    for (field, stat) in stats.iter_mut().enumerate() {
                        let values: Vec<f64> = frames
                            .iter()
                            .filter_map(|f| f.channel(kind, bank, BANK_CHANNELS[field]))
                            .collect();
                        *stat = ChannelStat::fit(&values);
                    }
                    stats
                })
                .collect();
            block.sentinels = (0..sentinels)
                .map(|i| {
                    let values: Vec<f64> = frames
                        .iter()
                        .filter_map(|f| f.channel(kind, i, SensorChannel::Sentinel))
                        .collect();
                    ChannelStat::fit(&values)
                })
                .collect();
            block.bank_runs = vec![[StuckRun::default(); 4]; banks];
            block.sentinel_runs = vec![StuckRun::default(); sentinels];
        }
        self.calibrated = true;
        Ok(())
    }

    /// Clears sequential (stuck-run) state, keeping calibration and
    /// quarantines.
    pub fn reset(&mut self) {
        for kind in [BlockKind::Conv, BlockKind::Fc] {
            let block = self.block_mut(kind);
            for runs in &mut block.bank_runs {
                *runs = [StuckRun::default(); 4];
            }
            for run in &mut block.sentinel_runs {
                *run = StuckRun::default();
            }
        }
    }

    /// Masks a channel by policy: every later screening reports it as
    /// [`HealthReason::Quarantined`] until the hardware is serviced.
    pub fn quarantine_channel(&mut self, block: BlockKind, index: usize, channel: SensorChannel) {
        let key = (block, index, channel);
        if let Err(at) = self.quarantined.binary_search(&key) {
            self.quarantined.insert(at, key);
        }
    }

    /// The channels currently quarantined by policy.
    #[must_use]
    pub fn quarantined_channels(&self) -> &[(BlockKind, usize, SensorChannel)] {
        &self.quarantined
    }

    fn classify(
        &mut self,
        kind: BlockKind,
        index: usize,
        channel: SensorChannel,
        value: f64,
        stat: ChannelStat,
    ) -> Option<HealthReason> {
        if self
            .quarantined
            .binary_search(&(kind, index, channel))
            .is_ok()
        {
            return Some(HealthReason::Quarantined);
        }
        if !value.is_finite() {
            // A non-finite reading never feeds the stuck tracker: the bit
            // pattern of a dead sensor is meaningless as a "run".
            return Some(HealthReason::NonFinite);
        }
        let (lo, hi) = physical_range(channel);
        if value < lo || value > hi {
            return Some(HealthReason::OutOfRange);
        }
        let block = self.block_mut(kind);
        let run = match channel {
            SensorChannel::Sentinel => block.sentinel_runs.get_mut(index)?,
            _ => {
                let field = BANK_CHANNELS.iter().position(|c| *c == channel)?;
                block.bank_runs.get_mut(index).map(|r| &mut r[field])?
            }
        };
        // Exact repeats only count as "stuck" on channels whose calibrated
        // noise makes them implausible; a genuinely constant channel (σ at
        // the floor) legitimately repeats.
        if run.observe(value) >= STUCK_RUN_LEN && stat.sigma > 10.0 * SIGMA_FLOOR {
            return Some(HealthReason::Stuck);
        }
        None
    }

    /// Screens every channel of `frame`, advancing the stuck-at trackers,
    /// and returns the frame's sensor-health verdict. Channels the screen
    /// was never calibrated for (frame wider than the baseline) are
    /// ignored. Call once per frame in batch order.
    pub fn screen(&mut self, frame: &TelemetryFrame) -> FrameHealth {
        let mut health = FrameHealth::default();
        if !self.calibrated {
            return health;
        }
        for kind in [BlockKind::Conv, BlockKind::Fc] {
            let banks = self.block(kind).banks.len().min(frame.banks(kind).len());
            for bank in 0..banks {
                for (field, channel) in BANK_CHANNELS.iter().enumerate() {
                    let value = frame.channel(kind, bank, *channel).unwrap_or(f64::NAN);
                    let stat = self.block(kind).banks[bank][field];
                    if let Some(reason) = self.classify(kind, bank, *channel, value, stat) {
                        health.masked.push(MaskedChannel {
                            block: kind,
                            index: bank,
                            channel: *channel,
                            reason,
                        });
                    }
                }
            }
            let sentinels = self
                .block(kind)
                .sentinels
                .len()
                .min(frame.sentinels(kind).len());
            for i in 0..sentinels {
                let value = frame
                    .channel(kind, i, SensorChannel::Sentinel)
                    .unwrap_or(f64::NAN);
                let stat = self.block(kind).sentinels[i];
                if let Some(reason) = self.classify(kind, i, SensorChannel::Sentinel, value, stat) {
                    health.masked.push(MaskedChannel {
                        block: kind,
                        index: i,
                        channel: SensorChannel::Sentinel,
                        reason,
                    });
                }
            }
        }
        health
    }

    /// The calibrated mean of one channel (0 when uncalibrated or the
    /// channel never produced a finite baseline sample).
    #[must_use]
    pub fn baseline_mean(&self, block: BlockKind, index: usize, channel: SensorChannel) -> f64 {
        let b = self.block(block);
        let stat = match channel {
            SensorChannel::Sentinel => b.sentinels.get(index).copied(),
            _ => BANK_CHANNELS
                .iter()
                .position(|c| *c == channel)
                .and_then(|field| b.banks.get(index).map(|s| s[field])),
        };
        match stat {
            Some(s) if s.mean.is_finite() => s.mean,
            _ => 0.0,
        }
    }

    /// Replaces every masked channel of `frame` with its calibrated mean,
    /// so detectors score ≈ 0 on the dead sensor and at full strength on
    /// the surviving channels. Returns the sanitized copy.
    #[must_use]
    pub fn sanitize(&self, frame: &TelemetryFrame, health: &FrameHealth) -> TelemetryFrame {
        let mut clean = frame.clone();
        for m in &health.masked {
            let mean = self.baseline_mean(m.block, m.index, m.channel);
            clean.set_channel(m.block, m.index, m.channel, mean);
        }
        clean
    }

    /// The channels of `frame` whose |z| against the calibrated baseline
    /// meets `z_threshold`, as `(block, index, channel, |z|)` in screen
    /// order. Non-finite readings are skipped (they are health events, not
    /// excursions). This is the single-sensor localization primitive the
    /// response policy uses to tell "one broken sensor" from "an attack
    /// moving the physics".
    #[must_use]
    pub fn excursions(
        &self,
        frame: &TelemetryFrame,
        z_threshold: f64,
    ) -> Vec<(BlockKind, usize, SensorChannel, f64)> {
        let mut out = Vec::new();
        for kind in [BlockKind::Conv, BlockKind::Fc] {
            let b = self.block(kind);
            let banks = b.banks.len().min(frame.banks(kind).len());
            for bank in 0..banks {
                for (field, channel) in BANK_CHANNELS.iter().enumerate() {
                    let Some(value) = frame.channel(kind, bank, *channel) else {
                        continue;
                    };
                    let z = b.banks[bank][field].z(value).abs();
                    if z.is_finite() && z >= z_threshold {
                        out.push((kind, bank, *channel, z));
                    }
                }
            }
            let sentinels = b.sentinels.len().min(frame.sentinels(kind).len());
            for i in 0..sentinels {
                let Some(value) = frame.channel(kind, i, SensorChannel::Sentinel) else {
                    continue;
                };
                let z = b.sentinels[i].z(value).abs();
                if z.is_finite() && z >= z_threshold {
                    out.push((kind, i, SensorChannel::Sentinel, z));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::testutil::frames;
    use safelight_onn::ConditionMap;

    fn calibrated() -> SensorHealthScreen {
        let mut screen = SensorHealthScreen::default();
        screen
            .calibrate(&frames(&ConditionMap::new(), 24, 1))
            .unwrap();
        screen
    }

    #[test]
    fn clean_frames_pass_screening() {
        let mut screen = calibrated();
        for f in frames(&ConditionMap::new(), 6, 99) {
            assert!(screen.screen(&f).is_clean());
        }
    }

    #[test]
    fn uncalibrated_screen_abstains() {
        let mut screen = SensorHealthScreen::default();
        let mut f = frames(&ConditionMap::new(), 1, 0).remove(0);
        f.set_channel(BlockKind::Fc, 0, SensorChannel::DropCurrent, f64::NAN);
        assert!(screen.screen(&f).is_clean());
        assert!(screen.calibrate(&[]).is_err());
    }

    #[test]
    fn dead_sensor_is_masked_as_non_finite() {
        let mut screen = calibrated();
        let mut f = frames(&ConditionMap::new(), 1, 7).remove(0);
        f.set_channel(BlockKind::Fc, 0, SensorChannel::DropCurrent, f64::NAN);
        let health = screen.screen(&f);
        assert_eq!(
            health.masked,
            vec![MaskedChannel {
                block: BlockKind::Fc,
                index: 0,
                channel: SensorChannel::DropCurrent,
                reason: HealthReason::NonFinite,
            }]
        );
        // Sanitizing restores the calibrated mean, so a guard-band z on the
        // masked channel is ≈ 0.
        let clean = screen.sanitize(&f, &health);
        let restored = clean
            .channel(BlockKind::Fc, 0, SensorChannel::DropCurrent)
            .unwrap();
        assert!(restored.is_finite());
        assert!(
            (restored - screen.baseline_mean(BlockKind::Fc, 0, SensorChannel::DropCurrent)).abs()
                < 1e-12
        );
    }

    #[test]
    fn railed_sensor_is_masked_as_out_of_range() {
        let mut screen = calibrated();
        let mut f = frames(&ConditionMap::new(), 1, 7).remove(0);
        f.set_channel(BlockKind::Conv, 1, SensorChannel::DeltaKelvin, 1e6);
        let health = screen.screen(&f);
        assert_eq!(health.masked.len(), 1);
        assert_eq!(health.masked[0].reason, HealthReason::OutOfRange);
    }

    #[test]
    fn latched_sensor_is_masked_as_stuck_after_a_run() {
        let mut screen = calibrated();
        let stream = frames(&ConditionMap::new(), 6, 42);
        let latched = 0.512_345_678_9;
        let mut verdicts = Vec::new();
        for mut f in stream {
            f.set_channel(BlockKind::Fc, 1, SensorChannel::RailPower, latched);
            verdicts.push(screen.screen(&f));
        }
        // The first two repeats pass; from the third identical reading on,
        // the channel is stuck.
        assert!(verdicts[0].is_clean());
        assert!(verdicts[1].is_clean());
        for v in &verdicts[2..] {
            assert_eq!(v.masked.len(), 1, "{v:?}");
            assert_eq!(v.masked[0].reason, HealthReason::Stuck);
            assert_eq!(v.masked[0].channel, SensorChannel::RailPower);
        }
        // reset clears the run; the next repeat starts counting afresh.
        screen.reset();
        let mut f = frames(&ConditionMap::new(), 1, 43).remove(0);
        f.set_channel(BlockKind::Fc, 1, SensorChannel::RailPower, latched);
        assert!(screen.screen(&f).is_clean());
    }

    #[test]
    fn quarantined_channels_survive_reset_and_recalibration() {
        let mut screen = calibrated();
        screen.quarantine_channel(BlockKind::Conv, 0, SensorChannel::Sentinel);
        let f = frames(&ConditionMap::new(), 1, 5).remove(0);
        let health = screen.screen(&f);
        assert_eq!(health.masked.len(), 1);
        assert_eq!(health.masked[0].reason, HealthReason::Quarantined);
        screen.reset();
        screen
            .calibrate(&frames(&ConditionMap::new(), 8, 2))
            .unwrap();
        let health = screen.screen(&f);
        assert_eq!(health.masked.len(), 1);
        assert_eq!(health.masked[0].reason, HealthReason::Quarantined);
        assert_eq!(
            screen.quarantined_channels(),
            &[(BlockKind::Conv, 0, SensorChannel::Sentinel)]
        );
    }

    #[test]
    fn excursions_localize_single_channel_shifts() {
        let mut screen = calibrated();
        let mut f = frames(&ConditionMap::new(), 1, 7).remove(0);
        let base = screen.baseline_mean(BlockKind::Fc, 0, SensorChannel::TrimOffsetNm);
        f.set_channel(BlockKind::Fc, 0, SensorChannel::TrimOffsetNm, base + 0.5);
        let hits = screen.excursions(&f, 8.0);
        assert_eq!(hits.len(), 1, "{hits:?}");
        let (kind, bank, channel, z) = hits[0];
        assert_eq!(
            (kind, bank, channel),
            (BlockKind::Fc, 0, SensorChannel::TrimOffsetNm)
        );
        assert!(z >= 8.0);
        // Non-finite readings never appear as excursions.
        f.set_channel(BlockKind::Fc, 1, SensorChannel::DropCurrent, f64::NAN);
        let hits = screen.excursions(&f, 8.0);
        assert_eq!(hits.len(), 1);
        // The screen itself reports the dead channel.
        assert!(!screen.screen(&f).is_clean());
    }
}
