//! Runtime telemetry taps: the sensor layer of the trojan-detection
//! subsystem.
//!
//! A deployed accelerator already produces physical side-channels a cheap
//! on-chip monitor can watch:
//!
//! * **Drop-port monitor photodetectors** — one low-bandwidth tap per VDP
//!   bank integrating the drop-port power the bank's rings route onto the
//!   detector bus. Every fault vector perturbs this reading: a parked ring
//!   stops dropping its channel, a heated or trim-drifted ring detunes off
//!   resonance, and an upstream laser tap darkens the whole channel.
//! * **Thermal sensors** — one per bank (see
//!   [`Floorplan::sensor_sites`](safelight_thermal::Floorplan::sensor_sites)),
//!   reading the local temperature rise; the analytic fast path reports the
//!   mean recorded spill-over/attack heat across the bank's rings.
//! * **Laser-rail readback** — the mean per-channel launch-power fraction
//!   reaching each bank (a photocurrent tap on the distribution waveguide).
//! * **Heater/trim-DAC readback** — the mean absolute deviation of each
//!   bank's analog trim rails from their calibrated set points. Readback is
//!   taken from the analog rail, not the (spoofable) digital register.
//!
//! One [`TelemetryFrame`] summarizes these sensors per inference batch.
//! [`TelemetryProbe`] is the analytic fast path matching the effective
//! weight executor: it derives the noiseless per-bank sensor means once per
//! `(network, conditions)` pair and then stamps out cheap noisy frames, so
//! detection sweeps stay as fast as the attack sweeps they ride on. The
//! slow physical counterpart is
//! [`OpticalVdp::dot_with_tap`](crate::OpticalVdp::dot_with_tap), which
//! reads the same monitor photocurrents off the simulated detector bus.

use safelight_neuro::{Network, SimRng};

use crate::condition::{ConditionMap, MrCondition};
use crate::config::{AcceleratorConfig, BlockKind};
use crate::mapping::WeightMapping;
use crate::response::{channel_power_factor, DropResponseModel};
use crate::OnnError;

/// How one (magnitude, condition) slot turns into a monitor response: the
/// analytic closed form of the shared [`DropResponseModel`], or a custom
/// evaluator supplied by a backend (device-level simulation, quantized
/// readout).
pub(crate) type SlotResponseFn<'a> = &'a mut dyn FnMut(f64, MrCondition) -> Result<f64, OnnError>;

/// Read-noise σ of a bank's drop-port monitor, in normalized per-slot
/// response units (the noiseless reading lives in `[0, 1]`).
const DROP_NOISE: f64 = 2e-3;
/// Read-noise σ of a bank's thermal sensor, kelvin.
const TEMP_NOISE_KELVIN: f64 = 0.02;
/// Read-noise σ of a bank's laser-rail readback (power fraction).
const RAIL_NOISE: f64 = 1e-3;
/// Read-noise σ of a bank's trim-DAC readback, nanometres.
const TRIM_NOISE_NM: f64 = 1e-3;
/// Read-noise σ of a sentinel magnitude readback.
const SENTINEL_NOISE: f64 = 2e-3;

/// The known probe magnitude imprinted on every sentinel ring (normalized
/// weight units, `[0, 1]`).
const SENTINEL_MAGNITUDE: f64 = 0.7;

/// One addressable sensor channel of a telemetry frame: the four bank-level
/// taps plus the sentinel readbacks. The fault-injection and sensor-health
/// layers address individual readings through this enum (see
/// [`TelemetryFrame::channel`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SensorChannel {
    /// A bank's drop-port monitor photocurrent.
    DropCurrent,
    /// A bank's thermal sensor.
    DeltaKelvin,
    /// A bank's laser-rail readback.
    RailPower,
    /// A bank's trim-DAC readback.
    TrimOffsetNm,
    /// A sentinel magnitude readback (indexed in plan order, not by bank).
    Sentinel,
}

impl SensorChannel {
    /// Stable short token used in fault-spec strings and reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::DropCurrent => "drop",
            Self::DeltaKelvin => "temp",
            Self::RailPower => "rail",
            Self::TrimOffsetNm => "trim",
            Self::Sentinel => "sentinel",
        }
    }

    /// Parses the token [`SensorChannel::label`] emits.
    #[must_use]
    pub fn from_label(s: &str) -> Option<Self> {
        match s {
            "drop" => Some(Self::DropCurrent),
            "temp" => Some(Self::DeltaKelvin),
            "rail" => Some(Self::RailPower),
            "trim" => Some(Self::TrimOffsetNm),
            "sentinel" => Some(Self::Sentinel),
            _ => None,
        }
    }
}

impl std::fmt::Display for SensorChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One bank's sensor readings within a [`TelemetryFrame`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BankTelemetry {
    /// Mean per-slot drop-port monitor response of the bank, normalized to
    /// the on-resonance peak (`[0, 1]` plus read noise).
    pub drop_current: f64,
    /// Thermal-sensor reading: mean temperature rise across the bank's
    /// rings, kelvin.
    pub delta_kelvin: f64,
    /// Laser-rail readback: mean launch-power fraction across the bank's
    /// channels (1 when no tap throttles them).
    pub rail_power: f64,
    /// Trim-DAC readback: mean absolute deviation of the bank's trim rails
    /// from calibration, nanometres.
    pub trim_offset_nm: f64,
}

/// One serializable telemetry frame, emitted per inference batch.
///
/// # Example
///
/// ```
/// use safelight_onn::{BankTelemetry, TelemetryFrame};
///
/// let frame = TelemetryFrame {
///     batch: 3,
///     conv: vec![BankTelemetry {
///         drop_current: 0.41,
///         delta_kelvin: 0.1,
///         rail_power: 1.0,
///         trim_offset_nm: 0.0,
///     }],
///     fc: vec![],
///     conv_sentinels: vec![0.7],
///     fc_sentinels: vec![],
/// };
/// let back = TelemetryFrame::from_csv(&frame.to_csv()).unwrap();
/// assert_eq!(back, frame);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryFrame {
    /// Index of the inference batch this frame summarizes.
    pub batch: u64,
    /// Per-bank readings of the CONV block, in bank order.
    pub conv: Vec<BankTelemetry>,
    /// Per-bank readings of the FC block, in bank order.
    pub fc: Vec<BankTelemetry>,
    /// Sentinel magnitude readbacks of the CONV block, in plan order.
    pub conv_sentinels: Vec<f64>,
    /// Sentinel magnitude readbacks of the FC block, in plan order.
    pub fc_sentinels: Vec<f64>,
}

fn block_token(kind: BlockKind) -> &'static str {
    match kind {
        BlockKind::Conv => "conv",
        BlockKind::Fc => "fc",
    }
}

/// Canonical CSV form of one sensor reading. Finite values print through
/// `Display` (exact round-trip); non-finite values get the fixed tokens
/// `nan`, `inf` and `-inf`, which `f64::from_str` parses back bit-exactly
/// (every NaN canonicalizes to the quiet NaN) — so faulted frames survive
/// the byte-equality discipline instead of serializing as whatever
/// `Display` happens to print.
fn fmt_reading(x: f64) -> String {
    if x.is_nan() {
        "nan".into()
    } else if x == f64::INFINITY {
        "inf".into()
    } else if x == f64::NEG_INFINITY {
        "-inf".into()
    } else {
        format!("{x}")
    }
}

impl TelemetryFrame {
    /// The per-bank readings of `kind`'s block.
    #[must_use]
    pub fn banks(&self, kind: BlockKind) -> &[BankTelemetry] {
        match kind {
            BlockKind::Conv => &self.conv,
            BlockKind::Fc => &self.fc,
        }
    }

    /// The sentinel readbacks of `kind`'s block.
    #[must_use]
    pub fn sentinels(&self, kind: BlockKind) -> &[f64] {
        match kind {
            BlockKind::Conv => &self.conv_sentinels,
            BlockKind::Fc => &self.fc_sentinels,
        }
    }

    /// Reads one addressed sensor: bank `index`'s tap for the four bank
    /// channels, or sentinel `index`'s readback for
    /// [`SensorChannel::Sentinel`]. `None` when `index` is out of range.
    #[must_use]
    pub fn channel(&self, kind: BlockKind, index: usize, channel: SensorChannel) -> Option<f64> {
        match channel {
            SensorChannel::Sentinel => self.sentinels(kind).get(index).copied(),
            _ => self.banks(kind).get(index).map(|b| match channel {
                SensorChannel::DropCurrent => b.drop_current,
                SensorChannel::DeltaKelvin => b.delta_kelvin,
                SensorChannel::RailPower => b.rail_power,
                SensorChannel::TrimOffsetNm => b.trim_offset_nm,
                SensorChannel::Sentinel => unreachable!(),
            }),
        }
    }

    /// Overwrites one addressed sensor reading (the fault injectors' write
    /// path). Returns `false` when `index` is out of range.
    pub fn set_channel(
        &mut self,
        kind: BlockKind,
        index: usize,
        channel: SensorChannel,
        value: f64,
    ) -> bool {
        let sentinels = match kind {
            BlockKind::Conv => &mut self.conv_sentinels,
            BlockKind::Fc => &mut self.fc_sentinels,
        };
        if let SensorChannel::Sentinel = channel {
            return match sentinels.get_mut(index) {
                Some(s) => {
                    *s = value;
                    true
                }
                None => false,
            };
        }
        let banks = match kind {
            BlockKind::Conv => &mut self.conv,
            BlockKind::Fc => &mut self.fc,
        };
        match banks.get_mut(index) {
            Some(b) => {
                match channel {
                    SensorChannel::DropCurrent => b.drop_current = value,
                    SensorChannel::DeltaKelvin => b.delta_kelvin = value,
                    SensorChannel::RailPower => b.rail_power = value,
                    SensorChannel::TrimOffsetNm => b.trim_offset_nm = value,
                    SensorChannel::Sentinel => unreachable!(),
                }
                true
            }
            None => false,
        }
    }

    /// Serializes the frame as CSV: a `# batch` header, one `bank,…` row
    /// per bank and one `sentinel,…` row per sentinel. Finite `f64` values
    /// round-trip exactly through their `Display` form; non-finite readings
    /// (faulted sensors) serialize as the canonical tokens `nan`, `inf` and
    /// `-inf`.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = format!("# batch,{}\n", self.batch);
        out.push_str("record,block,index,drop_current,delta_kelvin,rail_power,trim_offset_nm\n");
        for kind in [BlockKind::Conv, BlockKind::Fc] {
            for (i, b) in self.banks(kind).iter().enumerate() {
                out.push_str(&format!(
                    "bank,{},{i},{},{},{},{}\n",
                    block_token(kind),
                    fmt_reading(b.drop_current),
                    fmt_reading(b.delta_kelvin),
                    fmt_reading(b.rail_power),
                    fmt_reading(b.trim_offset_nm)
                ));
            }
        }
        for kind in [BlockKind::Conv, BlockKind::Fc] {
            for (i, s) in self.sentinels(kind).iter().enumerate() {
                out.push_str(&format!(
                    "sentinel,{},{i},{},0,0,0\n",
                    block_token(kind),
                    fmt_reading(*s)
                ));
            }
        }
        out
    }

    /// Parses a frame serialized by [`TelemetryFrame::to_csv`].
    ///
    /// # Errors
    ///
    /// Returns [`OnnError::TelemetryParse`] for malformed headers, rows or
    /// fields.
    pub fn from_csv(text: &str) -> Result<Self, OnnError> {
        let bad = |context: String| OnnError::TelemetryParse { context };
        let mut lines = text.lines();
        let header = lines.next().ok_or_else(|| bad("empty input".into()))?;
        let batch = header
            .strip_prefix("# batch,")
            .ok_or_else(|| bad(format!("bad header `{header}`")))?
            .parse::<u64>()
            .map_err(|e| bad(format!("batch: {e}")))?;
        let columns = lines
            .next()
            .ok_or_else(|| bad("missing column header".into()))?;
        if !columns.starts_with("record,block,index,") {
            return Err(bad(format!("bad column header `{columns}`")));
        }
        let mut frame = Self {
            batch,
            conv: Vec::new(),
            fc: Vec::new(),
            conv_sentinels: Vec::new(),
            fc_sentinels: Vec::new(),
        };
        for line in lines.filter(|l| !l.is_empty()) {
            let fields: Vec<&str> = line.split(',').collect();
            let [record, block, _index, a, b, c, d] = fields.as_slice() else {
                return Err(bad(format!("bad row `{line}`")));
            };
            let kind = match *block {
                "conv" => BlockKind::Conv,
                "fc" => BlockKind::Fc,
                other => return Err(bad(format!("unknown block `{other}`"))),
            };
            let num = |s: &str| -> Result<f64, OnnError> {
                s.parse::<f64>().map_err(|e| OnnError::TelemetryParse {
                    context: format!("`{s}`: {e}"),
                })
            };
            match *record {
                "bank" => {
                    let entry = BankTelemetry {
                        drop_current: num(a)?,
                        delta_kelvin: num(b)?,
                        rail_power: num(c)?,
                        trim_offset_nm: num(d)?,
                    };
                    match kind {
                        BlockKind::Conv => frame.conv.push(entry),
                        BlockKind::Fc => frame.fc.push(entry),
                    }
                }
                "sentinel" => match kind {
                    BlockKind::Conv => frame.conv_sentinels.push(num(a)?),
                    BlockKind::Fc => frame.fc_sentinels.push(num(a)?),
                },
                other => return Err(bad(format!("unknown record `{other}`"))),
            }
        }
        Ok(frame)
    }
}

/// The sentinel-ring provisioning of one accelerator/model pair: known
/// probe weights imprinted on rings that carry no model parameter in the
/// mapping's final reuse round, so checking their readback costs no model
/// capacity.
#[derive(Debug, Clone, PartialEq)]
pub struct SentinelPlan {
    conv: Vec<u64>,
    fc: Vec<u64>,
}

impl SentinelPlan {
    /// Picks up to `per_block` evenly spaced sentinel sites per block from
    /// the rings left idle by `mapping`'s final reuse round, probing each
    /// with the known magnitude `SENTINEL_MAGNITUDE` (0.7).
    ///
    /// A fully utilized block (its last round fills every ring) gets no
    /// sentinels — the plan's coverage is honest about that limit; the
    /// drop-port and thermal taps still cover such blocks.
    #[must_use]
    pub fn new(mapping: &WeightMapping, config: &AcceleratorConfig, per_block: usize) -> Self {
        let sites_for = |kind: BlockKind| -> Vec<u64> {
            let cap = config.block(kind).total_mrs();
            let used = mapping.used_slots(kind);
            let idle_start = if used == 0 { 0 } else { used % cap };
            if used > 0 && idle_start == 0 {
                return Vec::new(); // block fully utilized in its last round
            }
            let idle = cap - idle_start;
            let count = (per_block as u64).min(idle);
            (0..count)
                .map(|i| idle_start + (i * idle) / count.max(1))
                .collect()
        };
        Self {
            conv: sites_for(BlockKind::Conv),
            fc: sites_for(BlockKind::Fc),
        }
    }

    /// Builds a plan from explicit sentinel sites per block (sorted and
    /// deduplicated here), probing each with `SENTINEL_MAGNITUDE` (0.7).
    ///
    /// This is the constructor the serving runtime uses after a
    /// quarantine/remap cycle: the idle region computed from
    /// `used_slots` alone no longer tells the truth once spares absorb
    /// relocated parameters, so the caller provisions sentinels from
    /// [`WeightMapping::idle_slots`](crate::WeightMapping::idle_slots)
    /// instead.
    #[must_use]
    pub fn on_sites(mut conv: Vec<u64>, mut fc: Vec<u64>) -> Self {
        conv.sort_unstable();
        conv.dedup();
        fc.sort_unstable();
        fc.dedup();
        Self { conv, fc }
    }

    /// The sentinel ring indices of `kind`'s block, ascending.
    #[must_use]
    pub fn sites(&self, kind: BlockKind) -> &[u64] {
        match kind {
            BlockKind::Conv => &self.conv,
            BlockKind::Fc => &self.fc,
        }
    }
}

/// Per-block noiseless sensor means.
#[derive(Debug, Clone, PartialEq)]
struct BlockMeans {
    banks: Vec<BankTelemetry>,
    sentinels: Vec<f64>,
}

/// The analytic telemetry tap: precomputes the noiseless per-bank sensor
/// means of one `(network, conditions)` pair and stamps out noisy
/// [`TelemetryFrame`]s, deterministic in `(seed, batch)`.
///
/// This is the fast-path counterpart of the physical monitor photodetectors
/// (see [`OpticalVdp::dot_with_tap`](crate::OpticalVdp::dot_with_tap)):
/// it evaluates the same drop-port responses the executor's effective
/// weight model uses, so a detection sweep costs one pass over the mapped
/// slots per scenario instead of a full optical simulation per frame.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryProbe {
    conv: BlockMeans,
    fc: BlockMeans,
}

impl TelemetryProbe {
    /// Derives the noiseless sensor means of `network` mapped by `mapping`
    /// onto `config` under the fault `conditions`.
    ///
    /// # Errors
    ///
    /// Returns [`OnnError::MappingMismatch`] when the network's weight
    /// tensors do not line up with the mapping, and
    /// [`OnnError::MrOutOfRange`] when `conditions` reference rings beyond
    /// a block.
    pub fn new(
        network: &Network,
        mapping: &WeightMapping,
        conditions: &ConditionMap,
        config: &AcceleratorConfig,
        sentinels: &SentinelPlan,
    ) -> Result<Self, OnnError> {
        let model = DropResponseModel::from_config(config);
        Self::new_with(
            network, mapping, conditions, config, sentinels, &model, None,
        )
    }

    /// As [`TelemetryProbe::new`], but with an explicit physics `model`
    /// (whose DAC steps quantize imprinted magnitudes) and an optional
    /// custom per-slot response evaluator. With `response: None` the
    /// analytic closed forms of the shared model apply — the fast path;
    /// backends pass `Some` to read each slot through their own physics
    /// (device simulation, finite-resolution monitor ADCs).
    pub(crate) fn new_with(
        network: &Network,
        mapping: &WeightMapping,
        conditions: &ConditionMap,
        config: &AcceleratorConfig,
        sentinels: &SentinelPlan,
        p: &DropResponseModel,
        mut response: Option<SlotResponseFn<'_>>,
    ) -> Result<Self, OnnError> {
        let _span = safelight_obs::profile_span("probe_build");
        let drop_port = p.encoding == crate::config::WeightEncoding::DropPort;

        // Normalized, quantized |weight| snapshot per layer, mirroring the
        // executor's calibration (per-layer full-scale, then DAC steps).
        let weights: Vec<_> = network.params().into_iter().filter(|q| q.decay).collect();
        let specs = mapping.layer_specs();
        if weights.len() != specs.len() {
            return Err(OnnError::MappingMismatch {
                context: format!(
                    "network has {} weight tensors, mapping has {} layers",
                    weights.len(),
                    specs.len()
                ),
            });
        }
        let mut snapshot: Vec<Vec<f64>> = Vec::with_capacity(weights.len());
        for (q, spec) in weights.iter().zip(&specs) {
            if q.value.len() != spec.weights {
                return Err(OnnError::MappingMismatch {
                    context: format!(
                        "layer `{}`: tensor has {} weights, spec says {}",
                        spec.name,
                        q.value.len(),
                        spec.weights
                    ),
                });
            }
            let scale = f64::from(q.value.max_abs());
            snapshot.push(if scale > 0.0 {
                q.value
                    .as_slice()
                    .iter()
                    .map(|w| p.quantize(f64::from(w.abs()) / scale))
                    .collect()
            } else {
                vec![0.0; q.value.len()]
            });
        }

        let mut means_for = |kind: BlockKind| -> Result<BlockMeans, OnnError> {
            let shape = *config.block(kind);
            let cap = shape.total_mrs();
            let per_bank = shape.mrs_per_bank() as u64;
            for (mr, _) in conditions.iter(kind) {
                if mr >= cap {
                    return Err(OnnError::MrOutOfRange {
                        index: mr,
                        capacity: cap,
                    });
                }
            }
            // One condition lookup per ring (sweeps construct probes per
            // scenario, so per-slot hash lookups would dominate).
            let conds: Vec<MrCondition> = (0..cap).map(|r| conditions.condition(kind, r)).collect();
            // This block's layers with their start slots, in mapping order
            // (reconstructed exactly as `WeightMapping::new` assigns them),
            // so the slot sweep below resolves magnitudes with a monotone
            // cursor instead of a per-slot layer scan.
            let mut block_layers: Vec<(u64, usize)> = Vec::new();
            let mut used = 0u64;
            for (li, spec) in specs.iter().enumerate() {
                if spec.kind == kind {
                    block_layers.push((used, li));
                    used += spec.weights as u64;
                }
            }
            debug_assert_eq!(used, mapping.used_slots(kind));
            let rounds = mapping.rounds(kind).max(1);
            let mut drop_sum = vec![0.0f64; shape.vdp_units];
            // Drop-port monitor: every reuse round re-imprints the block, so
            // the per-batch monitor integral is the mean response over all
            // `rounds × cap` slots. An idle slot imprints zero magnitude —
            // unless the ring hosts a sentinel, whose known probe weight is
            // exactly what the final-round idle region carries (keeping the
            // bank monitor and the sentinel readback models of the same
            // physical ring consistent).
            let sentinel_sites = sentinels.sites(kind);
            let m_sentinel = p.quantize(SENTINEL_MAGNITUDE);
            // After a quarantine/remap cycle the mapping relocates logical
            // rings onto physical spares; the sweep below walks logical
            // slots (so the monotone layer cursor keeps working) and
            // attributes each response to the ring that physically drops
            // the light. Pristine mappings skip the indirection entirely.
            let remapped = mapping.has_remaps(kind);
            let mut cursor = 0usize;
            for slot in 0..rounds * cap {
                let logical = slot % cap;
                let ring = if remapped {
                    mapping.physical_ring(kind, logical)
                } else {
                    logical
                };
                let cond = conds[ring as usize];
                let m = if slot < used {
                    while cursor + 1 < block_layers.len() && block_layers[cursor + 1].0 <= slot {
                        cursor += 1;
                    }
                    let (start, li) = block_layers[cursor];
                    snapshot[li][(slot - start) as usize]
                } else if sentinel_sites.binary_search(&ring).is_ok() {
                    m_sentinel
                } else {
                    0.0
                };
                let slot_response = match &mut response {
                    Some(eval) => eval(m, cond)?,
                    // Fast paths for the two exact closed forms: under the
                    // drop-port encoding a healthy ring's drop response is
                    // the encoding target itself (`detuning_for_magnitude`
                    // is its inverse), and a parked ring sits at max
                    // detuning — i.e. exactly the drop floor, whatever the
                    // encoding. Most rings hit one of these, skipping the
                    // sqrt/Lorentzian round-trip that dominates probe
                    // construction in sweeps.
                    None => match cond {
                        MrCondition::Healthy if drop_port => {
                            p.drop_floor + m * (1.0 - p.drop_floor)
                        }
                        MrCondition::Parked => p.drop_floor,
                        _ => channel_power_factor(cond) * p.drop_response(p.offset_under(m, cond)),
                    },
                };
                drop_sum[(ring / per_bank) as usize] += slot_response;
            }
            // Thermal / rail / trim readbacks are per-ring, independent of
            // the imprinted weights.
            let mut temp_sum = vec![0.0f64; shape.vdp_units];
            let mut rail_sum = vec![0.0f64; shape.vdp_units];
            let mut trim_sum = vec![0.0f64; shape.vdp_units];
            for (ring, &cond) in conds.iter().enumerate() {
                let bank = ring / per_bank as usize;
                rail_sum[bank] += channel_power_factor(cond);
                match cond {
                    MrCondition::Heated { delta_kelvin }
                    | MrCondition::Attenuated { delta_kelvin, .. } => {
                        temp_sum[bank] += delta_kelvin;
                    }
                    MrCondition::Detuned {
                        offset_nm,
                        delta_kelvin,
                    } => {
                        temp_sum[bank] += delta_kelvin;
                        trim_sum[bank] += offset_nm.abs();
                    }
                    MrCondition::Healthy | MrCondition::Parked => {}
                }
            }
            let banks = (0..shape.vdp_units)
                .map(|bank| BankTelemetry {
                    drop_current: drop_sum[bank] / (rounds * per_bank) as f64,
                    delta_kelvin: temp_sum[bank] / per_bank as f64,
                    rail_power: rail_sum[bank] / per_bank as f64,
                    trim_offset_nm: trim_sum[bank] / per_bank as f64,
                })
                .collect();
            // Sentinel readback: the decoded magnitude of the known probe
            // weight on each sentinel ring, through the same physics.
            let m = p.quantize(SENTINEL_MAGNITUDE);
            let mut readbacks = Vec::with_capacity(sentinels.sites(kind).len());
            for &ring in sentinels.sites(kind) {
                let cond = conditions.condition(kind, ring);
                let slot_response = match &mut response {
                    Some(eval) => eval(m, cond)?,
                    None => channel_power_factor(cond) * p.drop_response(p.offset_under(m, cond)),
                };
                readbacks.push(p.decode(slot_response));
            }
            Ok(BlockMeans {
                banks,
                sentinels: readbacks,
            })
        };

        Ok(Self {
            conv: means_for(BlockKind::Conv)?,
            fc: means_for(BlockKind::Fc)?,
        })
    }

    /// The noiseless frame (sensor means) for batch `batch`.
    #[must_use]
    pub fn noiseless(&self, batch: u64) -> TelemetryFrame {
        TelemetryFrame {
            batch,
            conv: self.conv.banks.clone(),
            fc: self.fc.banks.clone(),
            conv_sentinels: self.conv.sentinels.clone(),
            fc_sentinels: self.fc.sentinels.clone(),
        }
    }

    /// Emits the telemetry frame of batch `batch`: the sensor means plus
    /// Gaussian read noise, deterministic in `(seed, batch)` and
    /// independent of how frames are scheduled across threads.
    #[must_use]
    pub fn frame(&self, batch: u64, seed: u64) -> TelemetryFrame {
        let _span = safelight_obs::profile_span("probe_frame");
        let mut rng = SimRng::seed_from(seed).derive(0x7E1E_F4A3 ^ batch);
        let mut frame = self.noiseless(batch);
        for banks in [&mut frame.conv, &mut frame.fc] {
            for b in banks.iter_mut() {
                b.drop_current += rng.gaussian_with(0.0, DROP_NOISE);
                b.delta_kelvin += rng.gaussian_with(0.0, TEMP_NOISE_KELVIN);
                b.rail_power += rng.gaussian_with(0.0, RAIL_NOISE);
                b.trim_offset_nm += rng.gaussian_with(0.0, TRIM_NOISE_NM);
            }
        }
        for sentinels in [&mut frame.conv_sentinels, &mut frame.fc_sentinels] {
            for s in sentinels.iter_mut() {
                *s += rng.gaussian_with(0.0, SENTINEL_NOISE);
            }
        }
        frame
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BlockConfig;
    use crate::mapping::LayerSpec;
    use safelight_neuro::{Flatten, Layer, Linear, Network, Tensor};

    /// One linear layer of 16 weights on a 2-bank FC block of 8 rings each,
    /// leaving the CONV block idle.
    fn setup() -> (Network, WeightMapping, AcceleratorConfig) {
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
        (net, mapping, config)
    }

    fn probe(conditions: &ConditionMap) -> TelemetryProbe {
        let (net, mapping, config) = setup();
        let sentinels = SentinelPlan::new(&mapping, &config, 4);
        TelemetryProbe::new(&net, &mapping, conditions, &config, &sentinels).unwrap()
    }

    #[test]
    fn clean_probe_reads_nominal_sensors() {
        let frame = probe(&ConditionMap::new()).noiseless(0);
        for b in frame.banks(BlockKind::Fc) {
            assert!(b.drop_current > 0.1, "drop {}", b.drop_current);
            assert_eq!(b.delta_kelvin, 0.0);
            assert_eq!(b.rail_power, 1.0);
            assert_eq!(b.trim_offset_nm, 0.0);
        }
        // Idle CONV banks read the drop floor (≈ 0.11 for the default
        // devices) plus their two sentinels' 0.7-magnitude responses —
        // the same rings the sentinel readback models.
        for b in frame.banks(BlockKind::Conv) {
            assert!(
                b.drop_current > 0.2 && b.drop_current < 0.35,
                "idle bank reads {}",
                b.drop_current
            );
        }
    }

    #[test]
    fn each_vector_moves_its_signature_sensor() {
        let clean = probe(&ConditionMap::new()).noiseless(0);
        // Actuation: parked rings lower the drop current, nothing else.
        let mut parked = ConditionMap::new();
        parked.set(BlockKind::Fc, 1, MrCondition::Parked);
        let f = probe(&parked).noiseless(0);
        assert!(f.fc[0].drop_current < clean.fc[0].drop_current - 0.01);
        assert_eq!(f.fc[0].delta_kelvin, clean.fc[0].delta_kelvin);
        assert_eq!(f.fc[1], clean.fc[1], "other bank perturbed");
        // Hotspot: heat raises the thermal sensor and lowers the drop.
        let mut heated = ConditionMap::new();
        heated.add_heat(BlockKind::Fc, 2, 10.0);
        let f = probe(&heated).noiseless(0);
        assert!(f.fc[0].delta_kelvin > 1.0 / 8.0);
        assert!(f.fc[0].drop_current < clean.fc[0].drop_current);
        // Laser tap: rail power falls.
        let mut tapped = ConditionMap::new();
        tapped.set(
            BlockKind::Fc,
            3,
            MrCondition::Attenuated {
                factor: 0.5,
                delta_kelvin: 0.0,
            },
        );
        let f = probe(&tapped).noiseless(0);
        assert!(f.fc[0].rail_power < 1.0 - 0.05);
        // Trim drift: the trim readback moves.
        let mut drifted = ConditionMap::new();
        drifted.set(
            BlockKind::Fc,
            0,
            MrCondition::Detuned {
                offset_nm: 0.3,
                delta_kelvin: 0.0,
            },
        );
        let f = probe(&drifted).noiseless(0);
        assert!(f.fc[0].trim_offset_nm > 0.3 / 8.0 - 1e-12);
    }

    #[test]
    fn sentinels_read_their_probe_weight_until_attacked() {
        let (_, mapping, config) = setup();
        let plan = SentinelPlan::new(&mapping, &config, 4);
        // The FC block is fully used (16 slots = 16 rings): no sentinels.
        assert!(plan.sites(BlockKind::Fc).is_empty());
        // The idle CONV block hosts them all.
        assert_eq!(plan.sites(BlockKind::Conv).len(), 4);
        let clean = probe(&ConditionMap::new()).noiseless(0);
        for &s in clean.sentinels(BlockKind::Conv) {
            assert!((s - 0.7).abs() < 0.01, "sentinel reads {s}");
        }
        // Parking a sentinel ring zeroes its readback.
        let site = plan.sites(BlockKind::Conv)[1];
        let mut attacked = ConditionMap::new();
        attacked.set(BlockKind::Conv, site, MrCondition::Parked);
        let f = probe(&attacked).noiseless(0);
        assert!(
            f.conv_sentinels[1] < 0.05,
            "parked sentinel reads {}",
            f.conv_sentinels[1]
        );
        assert!((f.conv_sentinels[0] - 0.7).abs() < 0.01);
        // The bank drop monitor models the same physical ring: parking the
        // sentinel darkens its bank's monitor too (site 1 = ring 4, bank 0).
        assert!(
            f.conv[0].drop_current < clean.conv[0].drop_current - 0.05,
            "bank monitor missed the parked sentinel: {} vs {}",
            f.conv[0].drop_current,
            clean.conv[0].drop_current
        );
    }

    #[test]
    fn frames_are_deterministic_and_noise_is_bounded() {
        let p = probe(&ConditionMap::new());
        let a = p.frame(5, 42);
        let b = p.frame(5, 42);
        assert_eq!(a, b);
        let c = p.frame(6, 42);
        assert_ne!(a, c);
        let noiseless = p.noiseless(5);
        for (x, y) in a.fc.iter().zip(&noiseless.fc) {
            assert!((x.drop_current - y.drop_current).abs() < 10.0 * DROP_NOISE);
        }
    }

    #[test]
    fn csv_round_trips() {
        let p = probe(&ConditionMap::new());
        let frame = p.frame(9, 7);
        let text = frame.to_csv();
        let back = TelemetryFrame::from_csv(&text).unwrap();
        assert_eq!(back, frame);
        for bad in [
            "",
            "# not a header\n",
            "# batch,1\nrecord,block,index,a,b,c,d\nbank,gpu,0,1,2,3,4\n",
            // A missing column-header line must error, not silently eat
            // the first data row.
            "# batch,1\nbank,conv,0,0.4,0,1,0\n",
            "# batch,1\n",
        ] {
            assert!(TelemetryFrame::from_csv(bad).is_err(), "`{bad}` parsed");
        }
    }

    #[test]
    fn csv_round_trips_non_finite_readings() {
        let p = probe(&ConditionMap::new());
        let mut frame = p.frame(3, 11);
        // A dead drop monitor, a railed-out thermal sensor, a sentinel
        // readback gone to -inf: the canonical tokens must survive a full
        // serialize/parse/serialize cycle byte-identically, and the NaN
        // must come back as a NaN (PartialEq can't see that).
        assert!(frame.set_channel(BlockKind::Fc, 0, SensorChannel::DropCurrent, f64::NAN));
        assert!(frame.set_channel(BlockKind::Fc, 1, SensorChannel::DeltaKelvin, f64::INFINITY));
        assert!(frame.set_channel(
            BlockKind::Conv,
            0,
            SensorChannel::Sentinel,
            f64::NEG_INFINITY
        ));
        let text = frame.to_csv();
        assert!(text.contains(",nan,"), "{text}");
        assert!(text.contains(",inf,"), "{text}");
        assert!(text.contains(",-inf,"), "{text}");
        let back = TelemetryFrame::from_csv(&text).unwrap();
        assert!(back
            .channel(BlockKind::Fc, 0, SensorChannel::DropCurrent)
            .unwrap()
            .is_nan());
        assert_eq!(
            back.channel(BlockKind::Fc, 1, SensorChannel::DeltaKelvin),
            Some(f64::INFINITY)
        );
        assert_eq!(
            back.channel(BlockKind::Conv, 0, SensorChannel::Sentinel),
            Some(f64::NEG_INFINITY)
        );
        assert_eq!(back.to_csv(), text, "second serialization diverged");
    }

    #[test]
    fn channel_accessors_address_every_sensor() {
        let p = probe(&ConditionMap::new());
        let mut frame = p.noiseless(0);
        for kind in [BlockKind::Conv, BlockKind::Fc] {
            for (i, b) in frame.banks(kind).to_vec().iter().enumerate() {
                assert_eq!(
                    frame.channel(kind, i, SensorChannel::DropCurrent),
                    Some(b.drop_current)
                );
                assert_eq!(
                    frame.channel(kind, i, SensorChannel::TrimOffsetNm),
                    Some(b.trim_offset_nm)
                );
            }
        }
        assert!(frame.set_channel(BlockKind::Fc, 1, SensorChannel::RailPower, 0.25));
        assert_eq!(
            frame.channel(BlockKind::Fc, 1, SensorChannel::RailPower),
            Some(0.25)
        );
        // Out-of-range indices are rejected, not silently dropped.
        assert!(frame
            .channel(BlockKind::Fc, 99, SensorChannel::DropCurrent)
            .is_none());
        assert!(!frame.set_channel(BlockKind::Fc, 99, SensorChannel::Sentinel, 1.0));
        // Label round-trip for every channel.
        for ch in [
            SensorChannel::DropCurrent,
            SensorChannel::DeltaKelvin,
            SensorChannel::RailPower,
            SensorChannel::TrimOffsetNm,
            SensorChannel::Sentinel,
        ] {
            assert_eq!(SensorChannel::from_label(ch.label()), Some(ch));
        }
        assert_eq!(SensorChannel::from_label("voltage"), None);
    }

    #[test]
    fn mismatched_network_is_rejected() {
        let (net, _, config) = setup();
        let wrong =
            WeightMapping::new(&config, &[LayerSpec::new("fc", BlockKind::Fc, 99)]).unwrap();
        let plan = SentinelPlan::new(&wrong, &config, 4);
        assert!(matches!(
            TelemetryProbe::new(&net, &wrong, &ConditionMap::new(), &config, &plan),
            Err(OnnError::MappingMismatch { .. })
        ));
    }

    #[test]
    fn on_sites_sorts_and_dedups_for_binary_search() {
        let plan = SentinelPlan::on_sites(vec![9, 2, 2, 5], vec![]);
        assert_eq!(plan.sites(BlockKind::Conv), &[2, 5, 9]);
        assert!(plan.sites(BlockKind::Fc).is_empty());
    }

    #[test]
    fn probe_follows_parameter_relocation() {
        // Map 16 FC weights onto bank 0+1 of a 4-bank block (8 rings each):
        // plenty of idle capacity in banks 2..4 to remap onto.
        let mut net = Network::new();
        net.push(Flatten::new());
        let mut fc = Linear::new(4, 4, 3).unwrap();
        fc.params_mut()[0].value = Tensor::from_vec(vec![4, 4], vec![0.8; 16]).unwrap();
        net.push(fc);
        let config = AcceleratorConfig::custom(
            BlockConfig {
                vdp_units: 1,
                bank_rows: 2,
                bank_cols: 4,
            },
            BlockConfig {
                vdp_units: 4,
                bank_rows: 2,
                bank_cols: 4,
            },
        )
        .unwrap();
        let mut mapping =
            WeightMapping::new(&config, &[LayerSpec::new("fc", BlockKind::Fc, 16)]).unwrap();
        let sentinels = SentinelPlan::on_sites(Vec::new(), Vec::new());
        let probe = |mapping: &WeightMapping, conditions: &ConditionMap| {
            TelemetryProbe::new(&net, mapping, conditions, &config, &sentinels).unwrap()
        };
        let before = probe(&mapping, &ConditionMap::new()).noiseless(0);
        // Banks 0/1 carry the uniform 0.8 weights, banks 2/3 idle.
        assert!(before.fc[0].drop_current > before.fc[3].drop_current + 0.1);
        // Quarantine all of bank 0 (rings 0..8): parameters relocate onto
        // the idle tail (bank 3 first), and the parked quarantined rings
        // darken bank 0.
        let quarantined: Vec<u64> = (0..8).collect();
        let outcome = mapping.remap_params(BlockKind::Fc, &quarantined).unwrap();
        assert!(outcome.fully_placed());
        let mut conditions = ConditionMap::new();
        for &q in &quarantined {
            conditions.set(BlockKind::Fc, q, MrCondition::Parked);
        }
        let after = probe(&mapping, &conditions).noiseless(0);
        // Bank 0 reads near the drop floor; the relocated weights light up
        // the spare banks that absorbed them.
        assert!(after.fc[0].drop_current < before.fc[3].drop_current + 0.05);
        let spare_total: f64 = after.fc[2].drop_current + after.fc[3].drop_current;
        let idle_total: f64 = before.fc[2].drop_current + before.fc[3].drop_current;
        assert!(
            spare_total > idle_total + 0.1,
            "relocated weights invisible: {spare_total} vs {idle_total}"
        );
        // Bank 1 (untouched parameters) is bit-identical.
        assert_eq!(after.fc[1], before.fc[1]);
    }

    #[test]
    fn out_of_range_conditions_are_rejected() {
        let (net, mapping, config) = setup();
        let plan = SentinelPlan::new(&mapping, &config, 4);
        let mut conditions = ConditionMap::new();
        conditions.set(BlockKind::Fc, 999, MrCondition::Parked);
        assert!(matches!(
            TelemetryProbe::new(&net, &mapping, &conditions, &config, &plan),
            Err(OnnError::MrOutOfRange { .. })
        ));
    }
}
