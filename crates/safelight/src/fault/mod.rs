//! The benign-fault model: hardware going *wrong* rather than hardware
//! going *rogue*.
//!
//! The attack engine ([`crate::attack`]) perturbs the physics a trojan
//! controls; this module perturbs everything a trojan does **not** control
//! but production hardware still breaks — sensors and fleet members:
//!
//! * **dead sensors** — a drop-port monitor, thermal sensor, rail or
//!   trim-DAC readback returning NaN (disconnected / powered down);
//! * **stuck-at sensors** — a readback latching its value at fault onset;
//! * **drifting sensors** — a readback accumulating a per-batch bias plus
//!   extra noise (aging reference, leaking integrator);
//! * **transient laser-rail glitches** — a supply dip darkening every
//!   bank's rail readback *and* drop current for a bounded number of
//!   batches, then recovering;
//! * **member crashes** — a fleet member dying at a given tick and coming
//!   back through cache recovery.
//!
//! A [`FaultSpec`] mirrors [`ScenarioSpec`](crate::attack::ScenarioSpec):
//! it round-trips through a canonical string
//! (`vector/target/fraction/onset/trial`), and [`inject_fault`] expands it
//! into a concrete [`FaultPlan`] — which sensors break, in which mode —
//! deterministically from `(seed, spec)` via the same in-tree RNG stream
//! derivation the attack engine uses, so every chaos run is replayable
//! bit-for-bit at any thread count.
//!
//! The fault plan *corrupts telemetry frames*, not the optical physics:
//! a broken sensor lies about a healthy accelerator. Distinguishing that
//! lie from a real trojan is exactly what the fault-tolerant serving
//! policy (`safelight-serve`) is evaluated on.

use safelight_neuro::SimRng;
use safelight_onn::{AcceleratorConfig, BlockKind, SensorChannel, TelemetryFrame};

use crate::attack::{fold, target_token, AttackTarget};
use crate::SafelightError;

/// One benign-fault vector: what breaks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultVector {
    /// The selected sensors of `channel` read NaN from onset on.
    DeadSensor {
        /// Which sensor of each selected bank/sentinel slot dies.
        channel: SensorChannel,
    },
    /// The selected sensors latch their reading at fault onset.
    StuckSensor {
        /// Which sensor of each selected bank/sentinel slot latches.
        channel: SensorChannel,
    },
    /// The selected sensors accumulate a per-batch bias plus extra noise.
    DriftSensor {
        /// Which sensor of each selected bank/sentinel slot drifts.
        channel: SensorChannel,
        /// Additive bias per batch since onset (sensor units).
        per_batch: f64,
        /// Extra Gaussian read-noise σ on the drifting sensor.
        noise: f64,
    },
    /// A transient supply dip: for `duration` batches from onset, every
    /// selected bank's rail readback drops by `depth` and its drop-port
    /// current scales by `1 − depth`; afterwards the supply recovers.
    RailGlitch {
        /// Fractional launch-power dip in `(0, 1]`.
        depth: f64,
        /// Batches the glitch lasts (≥ 1).
        duration: u64,
    },
    /// The fleet member hosting this accelerator dies at the onset batch.
    Crash,
}

impl FaultVector {
    /// The sensor channel this vector corrupts (`None` for crashes).
    #[must_use]
    pub fn channel(&self) -> Option<SensorChannel> {
        match *self {
            Self::DeadSensor { channel }
            | Self::StuckSensor { channel }
            | Self::DriftSensor { channel, .. } => Some(channel),
            Self::RailGlitch { .. } => Some(SensorChannel::RailPower),
            Self::Crash => None,
        }
    }

    /// Compact label used in spec strings and CSV columns.
    #[must_use]
    pub fn label(&self) -> String {
        match *self {
            Self::DeadSensor { channel } => format!("dead:{}", channel.label()),
            Self::StuckSensor { channel } => format!("stuck:{}", channel.label()),
            Self::DriftSensor {
                channel,
                per_batch,
                noise,
            } => format!("drift:{}:{per_batch}:{noise}", channel.label()),
            Self::RailGlitch { depth, duration } => format!("glitch:{depth}:{duration}"),
            Self::Crash => "crash".into(),
        }
    }

    /// Words folded into the per-spec RNG stream key (full parameter bit
    /// patterns, so nearby parameter values never alias onto one stream).
    fn stream_words(&self) -> [u64; 3] {
        match *self {
            Self::DeadSensor { channel } => [0xDEAD, channel as u64, 0],
            Self::StuckSensor { channel } => [0x57CC, channel as u64, 0],
            Self::DriftSensor {
                channel,
                per_batch,
                noise,
            } => [
                0xD81F ^ (channel as u64) << 16,
                per_batch.to_bits(),
                noise.to_bits(),
            ],
            Self::RailGlitch { depth, duration } => [0x611C, depth.to_bits(), duration],
            Self::Crash => [0xC4A5, 0, 0],
        }
    }
}

impl std::fmt::Display for FaultVector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(&self.label())
    }
}

impl std::str::FromStr for FaultVector {
    type Err = SafelightError;

    /// Parses a fault-vector label. Drift parameters must be finite (the
    /// noise σ also ≥ 0); a glitch needs a depth in `(0, 1]` and a
    /// duration of at least one batch.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let parts: Vec<&str> = s.split(':').collect();
        let channel = |token: &str| {
            SensorChannel::from_label(token).ok_or_else(|| {
                SafelightError::Parse(format!(
                    "unknown sensor channel `{token}` (expected drop|temp|rail|trim|sentinel)"
                ))
            })
        };
        // A number of field `name` that must satisfy `valid` (described
        // by `expect` in the error).
        let num = |name: &str, token: &str, valid: fn(f64) -> bool, expect: &str| {
            let value = token
                .parse::<f64>()
                .map_err(|e| SafelightError::Parse(format!("`{s}`: {name}: {e}")))?;
            if valid(value) {
                Ok(value)
            } else {
                Err(SafelightError::Parse(format!(
                    "`{s}`: {name} must be {expect}"
                )))
            }
        };
        match parts.as_slice() {
            ["dead", ch] => Ok(Self::DeadSensor {
                channel: channel(ch)?,
            }),
            ["stuck", ch] => Ok(Self::StuckSensor {
                channel: channel(ch)?,
            }),
            ["drift", ch, per_batch, noise] => Ok(Self::DriftSensor {
                channel: channel(ch)?,
                per_batch: num("per_batch", per_batch, f64::is_finite, "finite")?,
                noise: num(
                    "noise",
                    noise,
                    |v| v.is_finite() && v >= 0.0,
                    "finite and >= 0",
                )?,
            }),
            ["glitch", depth, duration] => Ok(Self::RailGlitch {
                depth: num("depth", depth, |v| v > 0.0 && v <= 1.0, "in (0, 1]")?,
                duration: duration
                    .parse::<u64>()
                    .ok()
                    .filter(|&d| d >= 1)
                    .ok_or_else(|| {
                        SafelightError::Parse(format!("`{s}`: duration must be an integer >= 1"))
                    })?,
            }),
            ["crash"] => Ok(Self::Crash),
            _ => Err(SafelightError::Parse(format!(
                "unknown fault vector `{s}` (expected dead:<ch>|stuck:<ch>|\
                 drift:<ch>:<per_batch>:<noise>|glitch:<depth>:<batches>|crash)"
            ))),
        }
    }
}

/// One benign-fault instance: a vector × target block(s) × affected
/// fraction × onset batch × trial index, round-tripping through the
/// canonical string `vector/target/fraction/onset/trial`.
///
/// # Example
///
/// ```
/// use safelight::fault::FaultSpec;
///
/// let spec: FaultSpec = "drift:temp:0.05:0.01/fc/0.25/8/2".parse().unwrap();
/// assert_eq!(spec.to_spec_string(), "drift:temp:0.05:0.01/fc/0.25/8/2");
/// assert_eq!(spec.onset_batch, 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// What breaks.
    pub vector: FaultVector,
    /// Which block(s) host the affected sensors.
    pub target: AttackTarget,
    /// Fraction of the candidate sensors that break, in `(0, 1]`
    /// (crashes ignore it; the grid writes 0).
    pub fraction: f64,
    /// Batch index the fault manifests at.
    pub onset_batch: u64,
    /// Trial index: distinct trials draw independent fault sites.
    pub trial: u64,
}

impl FaultSpec {
    /// A fault spec with trial 0.
    #[must_use]
    pub fn new(vector: FaultVector, target: AttackTarget, fraction: f64, onset_batch: u64) -> Self {
        Self {
            vector,
            target,
            fraction,
            onset_batch,
            trial: 0,
        }
    }

    /// The canonical machine-readable form
    /// (`vector/target/fraction/onset/trial`).
    #[must_use]
    pub fn to_spec_string(&self) -> String {
        format!(
            "{}/{}/{}/{}/{}",
            self.vector.label(),
            target_token(self.target),
            self.fraction,
            self.onset_batch,
            self.trial
        )
    }

    /// The RNG stream key of this spec: every field avalanche-mixed
    /// separately (same discipline as the attack engine's scenario keys,
    /// under a distinct seed constant so fault and attack streams can
    /// never alias).
    #[must_use]
    pub fn stream_key(&self) -> u64 {
        let mut h = 0xFA17_5EED_0DD5_EED1_u64;
        h = fold(h, self.trial);
        h = fold(h, self.target.stream_word());
        h = fold(h, self.fraction.to_bits());
        h = fold(h, self.onset_batch);
        for word in self.vector.stream_words() {
            h = fold(h, word);
        }
        h
    }
}

impl std::fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {}% on {} at batch {} (trial {})",
            self.vector,
            self.fraction * 100.0,
            self.target,
            self.onset_batch,
            self.trial
        )
    }
}

impl std::str::FromStr for FaultSpec {
    type Err = SafelightError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let parts: Vec<&str> = s.split('/').collect();
        let [vector, target, fraction, onset, trial] = parts.as_slice() else {
            return Err(SafelightError::Parse(format!(
                "`{s}`: expected vector/target/fraction/onset/trial"
            )));
        };
        let vector: FaultVector = vector.parse()?;
        let fraction = fraction
            .parse::<f64>()
            .map_err(|e| SafelightError::Parse(format!("fraction `{fraction}`: {e}")))?;
        // A crash selects no sensors, so its fraction only has to be a
        // fraction (the grid writes 0); every sensor fault breaks some.
        let in_range = match vector {
            FaultVector::Crash => (0.0..=1.0).contains(&fraction),
            _ => fraction > 0.0 && fraction <= 1.0,
        };
        if !in_range {
            return Err(SafelightError::Parse(format!(
                "`{s}`: fraction must lie in (0, 1] ([0, 1] for a crash)"
            )));
        }
        Ok(Self {
            vector,
            target: target.parse()?,
            fraction,
            onset_batch: onset
                .parse::<u64>()
                .map_err(|e| SafelightError::Parse(format!("onset `{onset}`: {e}")))?,
            trial: trial
                .parse::<u64>()
                .map_err(|e| SafelightError::Parse(format!("trial `{trial}`: {e}")))?,
        })
    }
}

/// How one selected sensor misbehaves at run time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultMode {
    /// Reads NaN.
    Dead,
    /// Latches the reading it has at onset.
    Stuck,
    /// Accumulates `per_batch` bias per batch plus `noise`-σ extra noise.
    Drift {
        /// Additive bias per batch since onset.
        per_batch: f64,
        /// Extra Gaussian read-noise σ.
        noise: f64,
    },
    /// Supply dip for `duration` batches: rail readings lose `depth`,
    /// drop currents scale by `1 − depth`.
    Glitch {
        /// Fractional dip.
        depth: f64,
        /// Batches the dip lasts.
        duration: u64,
    },
}

/// One concrete broken sensor of a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SensorFault {
    /// The block hosting the sensor.
    pub block: BlockKind,
    /// Bank index for bank channels, plan index for sentinels.
    pub index: usize,
    /// Which sensor breaks.
    pub channel: SensorChannel,
    /// How it misbehaves.
    pub mode: FaultMode,
}

/// Per-sensor mutable state a fault plan carries across batches (stuck-at
/// latches). One [`FaultState`] per served stream; replaying a stream with
/// a fresh state reproduces it exactly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultState {
    latched: Vec<Option<f64>>,
}

impl FaultState {
    /// Fresh state sized for `plan`.
    #[must_use]
    pub fn for_plan(plan: &FaultPlan) -> Self {
        Self {
            latched: vec![None; plan.sensors.len()],
        }
    }
}

/// A fully expanded benign fault: which sensors break (and how), and
/// whether the member crashes. Produced by [`inject_fault`]; applied to
/// live telemetry by [`FaultPlan::corrupt`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Batch index the fault manifests at.
    pub onset_batch: u64,
    /// The broken sensors, in deterministic selection order.
    pub sensors: Vec<SensorFault>,
    /// Whether the hosting fleet member crashes at onset.
    pub crash: bool,
}

impl FaultPlan {
    /// Overwrites the readings of `frame` (batch index `batch`) with this
    /// plan's faulted values. No-op before the onset batch. Deterministic
    /// in `(seed, batch, sensor index)` — drift noise draws its own RNG
    /// stream per sensor per batch, independent of scheduling.
    pub fn corrupt(
        &self,
        frame: &mut TelemetryFrame,
        batch: u64,
        state: &mut FaultState,
        seed: u64,
    ) {
        if batch < self.onset_batch {
            return;
        }
        debug_assert_eq!(state.latched.len(), self.sensors.len());
        let rel = batch - self.onset_batch;
        for (i, s) in self.sensors.iter().enumerate() {
            let Some(current) = frame.channel(s.block, s.index, s.channel) else {
                continue;
            };
            let value = match s.mode {
                FaultMode::Dead => f64::NAN,
                FaultMode::Stuck => match state.latched.get_mut(i) {
                    Some(slot) => *slot.get_or_insert(current),
                    None => current,
                },
                FaultMode::Drift { per_batch, noise } => {
                    let mut rng =
                        SimRng::seed_from(seed).derive(fold(fold(0xD81F_7001, batch), i as u64));
                    current + per_batch * (rel + 1) as f64 + rng.gaussian_with(0.0, noise)
                }
                FaultMode::Glitch { depth, duration } => {
                    if rel < duration {
                        match s.channel {
                            SensorChannel::DropCurrent => current * (1.0 - depth),
                            _ => current - depth,
                        }
                    } else {
                        current // supply recovered
                    }
                }
            };
            frame.set_channel(s.block, s.index, s.channel, value);
        }
    }
}

/// Expands `spec` into a concrete [`FaultPlan`] on `config`'s sensor
/// population. `sentinel_counts` is `(conv, fc)` sentinel readbacks, since
/// the sentinel channel indexes the plan, not the banks. Site selection is
/// a deterministic function of `(seed, spec)`.
///
/// # Errors
///
/// Returns [`SafelightError::InvalidParameter`] when `fraction` is outside
/// `(0, 1]` for sensor faults, a glitch has non-positive depth/duration,
/// or the spec selects sentinels on a block that has none.
pub fn inject_fault(
    spec: &FaultSpec,
    config: &AcceleratorConfig,
    sentinel_counts: (usize, usize),
    seed: u64,
) -> Result<FaultPlan, SafelightError> {
    if let FaultVector::Crash = spec.vector {
        return Ok(FaultPlan {
            onset_batch: spec.onset_batch,
            sensors: Vec::new(),
            crash: true,
        });
    }
    if !(spec.fraction > 0.0 && spec.fraction <= 1.0) {
        return Err(SafelightError::InvalidParameter {
            name: "fault fraction",
            value: spec.fraction,
        });
    }
    if let FaultVector::RailGlitch { depth, duration } = spec.vector {
        if !(depth > 0.0 && depth <= 1.0) {
            return Err(SafelightError::InvalidParameter {
                name: "glitch depth",
                value: depth,
            });
        }
        if duration == 0 {
            return Err(SafelightError::InvalidParameter {
                name: "glitch duration",
                value: 0.0,
            });
        }
    }
    let channel = spec.vector.channel().expect("crash handled above");
    // Candidate sites: one per bank of each targeted block, or one per
    // sentinel slot for the sentinel channel.
    let mut candidates: Vec<(BlockKind, usize)> = Vec::new();
    for kind in spec.target.blocks() {
        let count = if channel == SensorChannel::Sentinel {
            match kind {
                BlockKind::Conv => sentinel_counts.0,
                BlockKind::Fc => sentinel_counts.1,
            }
        } else {
            config.block(kind).vdp_units
        };
        candidates.extend((0..count).map(|i| (kind, i)));
    }
    if candidates.is_empty() {
        return Err(SafelightError::InvalidParameter {
            name: "fault candidate sensors",
            value: 0.0,
        });
    }
    let mut rng = SimRng::seed_from(seed).derive(spec.stream_key());
    rng.shuffle(&mut candidates);
    let picked =
        ((spec.fraction * candidates.len() as f64).ceil() as usize).clamp(1, candidates.len());
    candidates.truncate(picked);
    // Deterministic report order independent of the shuffle.
    candidates.sort_unstable();

    let mode = match spec.vector {
        FaultVector::DeadSensor { .. } => FaultMode::Dead,
        FaultVector::StuckSensor { .. } => FaultMode::Stuck,
        FaultVector::DriftSensor {
            per_batch, noise, ..
        } => FaultMode::Drift { per_batch, noise },
        FaultVector::RailGlitch { depth, duration } => FaultMode::Glitch { depth, duration },
        FaultVector::Crash => unreachable!(),
    };
    let mut sensors = Vec::new();
    for (block, index) in candidates {
        if let FaultVector::RailGlitch { .. } = spec.vector {
            // A supply dip is visible on the rail readback AND the bank's
            // drop-port current (less light reaches the rings).
            sensors.push(SensorFault {
                block,
                index,
                channel: SensorChannel::DropCurrent,
                mode,
            });
            sensors.push(SensorFault {
                block,
                index,
                channel: SensorChannel::RailPower,
                mode,
            });
        } else {
            sensors.push(SensorFault {
                block,
                index,
                channel,
                mode,
            });
        }
    }
    Ok(FaultPlan {
        onset_batch: spec.onset_batch,
        sensors,
        crash: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use safelight_onn::BlockConfig;

    fn config() -> AcceleratorConfig {
        AcceleratorConfig::custom(
            BlockConfig {
                vdp_units: 4,
                bank_rows: 2,
                bank_cols: 4,
            },
            BlockConfig {
                vdp_units: 4,
                bank_rows: 2,
                bank_cols: 4,
            },
        )
        .unwrap()
    }

    fn frame() -> TelemetryFrame {
        TelemetryFrame {
            batch: 0,
            conv: vec![
                safelight_onn::BankTelemetry {
                    drop_current: 0.4,
                    delta_kelvin: 0.0,
                    rail_power: 1.0,
                    trim_offset_nm: 0.0,
                };
                4
            ],
            fc: vec![
                safelight_onn::BankTelemetry {
                    drop_current: 0.5,
                    delta_kelvin: 0.1,
                    rail_power: 1.0,
                    trim_offset_nm: 0.0,
                };
                4
            ],
            conv_sentinels: vec![0.7; 2],
            fc_sentinels: vec![],
        }
    }

    #[test]
    fn specs_round_trip_through_their_string_form() {
        for s in [
            "dead:drop/fc/0.5/8/0",
            "stuck:temp/conv/0.25/4/3",
            "drift:rail:-0.002:0.0005/both/0.5/6/1",
            "drift:temp:0.05:0.01/fc/0.25/8/2",
            "glitch:0.3:2/both/1/10/0",
            "crash/both/0/12/5",
        ] {
            let spec: FaultSpec = s.parse().unwrap();
            assert_eq!(spec.to_spec_string(), s, "round-trip broke for `{s}`");
        }
        for bad in [
            "",
            "dead/fc/0.5/8/0",
            "dead:volts/fc/0.5/8/0",
            "drift:rail:x:y/fc/0.5/8/0",
            "glitch:0.3/both/1/10/0",
            "crash/both/0/12",
            "melt:drop/fc/0.5/8/0",
        ] {
            assert!(bad.parse::<FaultSpec>().is_err(), "`{bad}` parsed");
        }
    }

    #[test]
    fn injection_is_deterministic_and_trial_dependent() {
        let spec: FaultSpec = "dead:drop/both/0.5/8/0".parse().unwrap();
        let a = inject_fault(&spec, &config(), (2, 0), 42).unwrap();
        let b = inject_fault(&spec, &config(), (2, 0), 42).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.sensors.len(), 4); // ceil(0.5 × 8 banks)
        assert!(!a.crash);
        assert_eq!(a.onset_batch, 8);
        // A different trial (or seed) reshuffles the site selection.
        let mut other = spec;
        other.trial = 1;
        let c = inject_fault(&other, &config(), (2, 0), 42).unwrap();
        assert_eq!(c.sensors.len(), 4);
        assert_ne!(a.sensors, c.sensors, "trials alias onto one stream");
        let d = inject_fault(&spec, &config(), (2, 0), 43).unwrap();
        assert_ne!(a.sensors, d.sensors, "seeds alias onto one stream");
    }

    #[test]
    fn invalid_fractions_and_glitches_are_rejected() {
        let cfg = config();
        // The parser rejects them, naming the field ...
        for (s, field) in [
            ("dead:drop/fc/0/8/0", "fraction"),
            ("dead:drop/fc/1.5/8/0", "fraction"),
            ("crash/both/NaN/8/0", "fraction"),
            ("glitch:0:2/fc/1/8/0", "depth"),
            ("glitch:0.5:0/fc/1/8/0", "duration"),
            ("drift:temp:inf:0.01/fc/0.5/8/0", "per_batch"),
            ("drift:temp:0.05:-1/fc/0.5/8/0", "noise"),
        ] {
            let err = s.parse::<FaultSpec>().expect_err(s).to_string();
            assert!(err.contains(field), "`{s}`: {err}");
        }
        // ... and injection still refuses specs built directly.
        let dead = FaultVector::DeadSensor {
            channel: SensorChannel::DropCurrent,
        };
        for (vector, fraction) in [
            (dead, 0.0),
            (dead, 1.5),
            (
                FaultVector::RailGlitch {
                    depth: 0.0,
                    duration: 2,
                },
                1.0,
            ),
            (
                FaultVector::RailGlitch {
                    depth: 0.5,
                    duration: 0,
                },
                1.0,
            ),
        ] {
            let spec = FaultSpec::new(vector, AttackTarget::FcBlock, fraction, 8);
            assert!(
                inject_fault(&spec, &cfg, (2, 0), 1).is_err(),
                "`{}` accepted",
                spec.to_spec_string()
            );
        }
        // Sentinels on a block that has none: no candidates.
        let spec: FaultSpec = "dead:sentinel/fc/0.5/8/0".parse().unwrap();
        assert!(inject_fault(&spec, &cfg, (2, 0), 1).is_err());
        // Crash ignores the fraction and selects no sensors.
        let crash: FaultSpec = "crash/both/0/12/0".parse().unwrap();
        let plan = inject_fault(&crash, &cfg, (2, 0), 1).unwrap();
        assert!(plan.crash && plan.sensors.is_empty());
    }

    #[test]
    fn corrupt_applies_each_mode_from_onset_only() {
        let cfg = config();
        // Dead: NaN from onset.
        let plan = inject_fault(&"dead:drop/fc/1/4/0".parse().unwrap(), &cfg, (2, 0), 7).unwrap();
        let mut state = FaultState::for_plan(&plan);
        let mut f = frame();
        plan.corrupt(&mut f, 3, &mut state, 7);
        assert_eq!(f, frame(), "fault fired before onset");
        plan.corrupt(&mut f, 4, &mut state, 7);
        for bank in 0..4 {
            assert!(f
                .channel(BlockKind::Fc, bank, SensorChannel::DropCurrent)
                .unwrap()
                .is_nan());
            // Other channels untouched.
            assert_eq!(
                f.channel(BlockKind::Fc, bank, SensorChannel::RailPower),
                Some(1.0)
            );
        }

        // Stuck: latches the onset reading across later batches.
        let plan = inject_fault(&"stuck:temp/fc/1/2/0".parse().unwrap(), &cfg, (2, 0), 7).unwrap();
        let mut state = FaultState::for_plan(&plan);
        let mut first = frame();
        plan.corrupt(&mut first, 2, &mut state, 7);
        let latched = first
            .channel(BlockKind::Fc, 0, SensorChannel::DeltaKelvin)
            .unwrap();
        let mut later = frame();
        later.set_channel(BlockKind::Fc, 0, SensorChannel::DeltaKelvin, 99.0);
        plan.corrupt(&mut later, 5, &mut state, 7);
        assert_eq!(
            later.channel(BlockKind::Fc, 0, SensorChannel::DeltaKelvin),
            Some(latched)
        );

        // Drift: bias grows with exposure, deterministically.
        let plan = inject_fault(
            &"drift:trim:0.1:0/conv/1/0/0".parse().unwrap(),
            &cfg,
            (2, 0),
            7,
        )
        .unwrap();
        let mut state = FaultState::for_plan(&plan);
        let mut early = frame();
        plan.corrupt(&mut early, 0, &mut state, 7);
        let mut late = frame();
        plan.corrupt(&mut late, 9, &mut state, 7);
        let e = early
            .channel(BlockKind::Conv, 0, SensorChannel::TrimOffsetNm)
            .unwrap();
        let l = late
            .channel(BlockKind::Conv, 0, SensorChannel::TrimOffsetNm)
            .unwrap();
        assert!((e - 0.1).abs() < 1e-12, "first-batch drift {e}");
        assert!((l - 1.0).abs() < 1e-12, "tenth-batch drift {l}");
        let mut replay = frame();
        plan.corrupt(&mut replay, 9, &mut FaultState::for_plan(&plan), 7);
        assert_eq!(replay, late, "drift replay diverged");

        // Glitch: rail and drop dip together, then recover.
        let plan =
            inject_fault(&"glitch:0.3:2/fc/1/4/0".parse().unwrap(), &cfg, (2, 0), 7).unwrap();
        let mut state = FaultState::for_plan(&plan);
        let mut dipped = frame();
        plan.corrupt(&mut dipped, 5, &mut state, 7);
        assert!(
            (dipped
                .channel(BlockKind::Fc, 0, SensorChannel::RailPower)
                .unwrap()
                - 0.7)
                .abs()
                < 1e-12
        );
        assert!(
            (dipped
                .channel(BlockKind::Fc, 0, SensorChannel::DropCurrent)
                .unwrap()
                - 0.35)
                .abs()
                < 1e-12
        );
        let mut recovered = frame();
        plan.corrupt(&mut recovered, 6, &mut state, 7);
        assert_eq!(recovered, frame(), "glitch outlived its duration");
    }
}
