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
use crate::config::{AcceleratorConfig, BlockKind, WeightEncoding};
use crate::mapping::{LayerSpec, WeightMapping};
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
    /// instead. A site beyond its block's capacity makes every probe built
    /// on the plan fail with [`OnnError::MrOutOfRange`].
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

/// What one probe construction reads: the quantized weight snapshot plus
/// the mapping, faults, sentinels and physics the slots are swept through.
struct Sweep<'a> {
    /// Normalized, quantized |weight| per mapped layer, mirroring the
    /// executor's calibration (per-layer full-scale, then DAC steps).
    snapshot: Vec<Vec<f64>>,
    specs: Vec<&'a LayerSpec>,
    mapping: &'a WeightMapping,
    conditions: &'a ConditionMap,
    config: &'a AcceleratorConfig,
    sentinels: &'a SentinelPlan,
    p: &'a DropResponseModel,
}

impl<'a> Sweep<'a> {
    fn new(
        network: &Network,
        mapping: &'a WeightMapping,
        conditions: &'a ConditionMap,
        config: &'a AcceleratorConfig,
        sentinels: &'a SentinelPlan,
        p: &'a DropResponseModel,
    ) -> Result<Self, OnnError> {
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
        Ok(Self {
            snapshot,
            specs,
            mapping,
            conditions,
            config,
            sentinels,
            p,
        })
    }

    /// `kind`'s layers with their start slots, in mapping order
    /// (reconstructed exactly as `WeightMapping::new` assigns them), so a
    /// slot sweep resolves magnitudes with a monotone cursor instead of a
    /// per-slot layer scan.
    fn block_layers(&self, kind: BlockKind) -> Vec<(u64, usize)> {
        let mut block_layers = Vec::new();
        let mut used = 0u64;
        for (li, spec) in self.specs.iter().enumerate() {
            if spec.kind == kind {
                block_layers.push((used, li));
                used += spec.weights as u64;
            }
        }
        debug_assert_eq!(used, self.mapping.used_slots(kind));
        block_layers
    }

    /// The monitor response of one slot imprinting magnitude `m` on a ring
    /// under `cond`: the backend's evaluator when it supplies one, else
    /// the shared model's closed forms.
    fn slot_response(
        &self,
        m: f64,
        cond: MrCondition,
        response: &mut Option<SlotResponseFn<'_>>,
    ) -> Result<f64, OnnError> {
        let p = self.p;
        Ok(match response {
            Some(eval) => eval(m, cond)?,
            // Fast paths for the two exact closed forms: under the
            // drop-port encoding a healthy ring's drop response is the
            // encoding target itself (`detuning_for_magnitude` is its
            // inverse), and a parked ring sits at max detuning — i.e.
            // exactly the drop floor, whatever the encoding. Most rings hit
            // one of these, skipping the sqrt/Lorentzian round-trip.
            None => match cond {
                MrCondition::Healthy if p.encoding == WeightEncoding::DropPort => {
                    p.drop_floor + m * (1.0 - p.drop_floor)
                }
                MrCondition::Parked => p.drop_floor,
                _ => channel_power_factor(cond) * p.drop_response(p.offset_under(m, cond)),
            },
        })
    }

    /// The noiseless sensor means of `kind`'s block.
    ///
    /// The sweeps walk rings in order with cursors over the ring-sorted
    /// faults, the sentinel sites and the relocation table, so a healthy,
    /// unrelocated ring costs one closed-form response and one add, with
    /// no lookup; only a relocated slot searches the faults (and, in the
    /// idle range, the sentinel sites) for its physical ring. Every sum
    /// still takes one add per slot or ring, in slot or ring order, so the
    /// means are bit-identical to a dense per-ring evaluation.
    fn means(
        &self,
        kind: BlockKind,
        response: &mut Option<SlotResponseFn<'_>>,
    ) -> Result<BlockMeans, OnnError> {
        let shape = *self.config.block(kind);
        let cap = shape.total_mrs();
        let per_bank = shape.mrs_per_bank() as u64;
        let mut faults: Vec<(u64, MrCondition)> = self.conditions.iter(kind).collect();
        faults.sort_unstable_by_key(|&(ring, _)| ring);
        let sites = self.sentinels.sites(kind);
        // Both lists are sorted, so their last entries bound every index.
        for index in [faults.last().map(|&(ring, _)| ring), sites.last().copied()]
            .into_iter()
            .flatten()
        {
            if index >= cap {
                return Err(OnnError::MrOutOfRange {
                    index,
                    capacity: cap,
                });
            }
        }
        let condition_of = |ring: u64| match faults.binary_search_by_key(&ring, |&(r, _)| r) {
            Ok(i) => faults[i].1,
            Err(_) => MrCondition::Healthy,
        };
        let block_layers = self.block_layers(kind);
        let used = self.mapping.used_slots(kind);
        let rounds = self.mapping.rounds(kind).max(1);
        let m_sentinel = self.p.quantize(SENTINEL_MAGNITUDE);
        // Drop-port monitor: every reuse round re-imprints the block, so
        // the per-batch monitor integral is the mean response over all
        // `rounds × cap` slots. An idle slot imprints zero magnitude —
        // unless the ring hosts a sentinel, whose known probe weight is
        // exactly what the final-round idle region carries (keeping the
        // bank monitor and the sentinel readback models of the same
        // physical ring consistent).
        let mut drop_sum = vec![0.0f64; shape.vdp_units];
        let mut layer = 0usize;
        for round in 0..rounds {
            // Each round walks the logical rings 0..cap again, so the ring
            // cursors restart. After a quarantine/remap cycle a relocated
            // logical ring's response is attributed to the physical ring
            // that drops its light; every other ring is its own physical
            // ring.
            let mut relocations = self.mapping.relocations(kind).peekable();
            let mut fault = 0usize;
            let mut site = 0usize;
            for bank in 0..shape.vdp_units {
                // The bank's own running sum, in a register; relocated
                // slots landing on another bank add to that bank's entry,
                // so each bank still sees its adds in slot order.
                let mut bank_sum = drop_sum[bank];
                let first = bank as u64 * per_bank;
                for logical in first..first + per_bank {
                    let slot = round * cap + logical;
                    let (ring, cond) = match relocations.next_if(|&(l, _)| l == logical) {
                        Some((_, ring)) => (ring, condition_of(ring)),
                        None => {
                            while faults.get(fault).is_some_and(|&(r, _)| r < logical) {
                                fault += 1;
                            }
                            match faults.get(fault) {
                                Some(&(r, cond)) if r == logical => (logical, cond),
                                _ => (logical, MrCondition::Healthy),
                            }
                        }
                    };
                    let m = if slot < used {
                        while layer + 1 < block_layers.len() && block_layers[layer + 1].0 <= slot {
                            layer += 1;
                        }
                        let (start, li) = block_layers[layer];
                        self.snapshot[li][(slot - start) as usize]
                    } else {
                        let hosts_sentinel = if ring == logical {
                            while sites.get(site).is_some_and(|&s| s < logical) {
                                site += 1;
                            }
                            sites.get(site) == Some(&logical)
                        } else {
                            sites.binary_search(&ring).is_ok()
                        };
                        if hosts_sentinel {
                            m_sentinel
                        } else {
                            0.0
                        }
                    };
                    let slot_response = self.slot_response(m, cond, response)?;
                    let ring_bank = if ring == logical {
                        bank
                    } else {
                        (ring / per_bank) as usize
                    };
                    if ring_bank == bank {
                        bank_sum += slot_response;
                    } else {
                        drop_sum[ring_bank] += slot_response;
                    }
                }
                drop_sum[bank] = bank_sum;
            }
        }
        // Thermal / rail / trim readbacks are per-ring, independent of the
        // imprinted weights.
        let mut faulty = faults.iter().peekable();
        let banks = (0..shape.vdp_units)
            .map(|bank| {
                let (mut temp_sum, mut rail_sum, mut trim_sum) = (0.0f64, 0.0f64, 0.0f64);
                let first = bank as u64 * per_bank;
                for ring in first..first + per_bank {
                    let cond = faulty
                        .next_if(|&&(r, _)| r == ring)
                        .map_or(MrCondition::Healthy, |&(_, cond)| cond);
                    rail_sum += channel_power_factor(cond);
                    match cond {
                        MrCondition::Heated { delta_kelvin }
                        | MrCondition::Attenuated { delta_kelvin, .. } => {
                            temp_sum += delta_kelvin;
                        }
                        MrCondition::Detuned {
                            offset_nm,
                            delta_kelvin,
                        } => {
                            temp_sum += delta_kelvin;
                            trim_sum += offset_nm.abs();
                        }
                        MrCondition::Healthy | MrCondition::Parked => {}
                    }
                }
                BankTelemetry {
                    drop_current: drop_sum[bank] / (rounds * per_bank) as f64,
                    delta_kelvin: temp_sum / per_bank as f64,
                    rail_power: rail_sum / per_bank as f64,
                    trim_offset_nm: trim_sum / per_bank as f64,
                }
            })
            .collect();
        // Sentinel readback: the decoded magnitude of the known probe
        // weight on each sentinel ring, through the same physics.
        let mut readbacks = Vec::with_capacity(sites.len());
        for &ring in sites {
            let cond = condition_of(ring);
            let slot_response = match response {
                Some(eval) => eval(m_sentinel, cond)?,
                None => {
                    channel_power_factor(cond)
                        * self.p.drop_response(self.p.offset_under(m_sentinel, cond))
                }
            };
            readbacks.push(self.p.decode(slot_response));
        }
        Ok(BlockMeans {
            banks,
            sentinels: readbacks,
        })
    }
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
    /// [`OnnError::MrOutOfRange`] when `conditions` or `sentinels`
    /// reference rings beyond a block.
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
        let sweep = Sweep::new(network, mapping, conditions, config, sentinels, p)?;
        Ok(Self {
            conv: sweep.means(BlockKind::Conv, &mut response)?,
            fc: sweep.means(BlockKind::Fc, &mut response)?,
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
    use crate::backend::{InferenceBackend, QuantizedBackend};
    use crate::config::BlockConfig;
    use crate::mapping::LayerSpec;
    use proptest::prelude::*;
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

    #[test]
    fn out_of_range_sentinels_are_rejected() {
        let (net, mapping, config) = setup();
        let cap = config.block(BlockKind::Conv).total_mrs();
        for sites in [vec![cap], vec![0, cap + 7]] {
            let plan = SentinelPlan::on_sites(sites, Vec::new());
            assert!(matches!(
                TelemetryProbe::new(&net, &mapping, &ConditionMap::new(), &config, &plan),
                Err(OnnError::MrOutOfRange { index, capacity }) if index >= cap && capacity == cap
            ));
        }
        // The last ring of the block is still a valid site.
        let plan = SentinelPlan::on_sites(vec![cap - 1], Vec::new());
        assert!(TelemetryProbe::new(&net, &mapping, &ConditionMap::new(), &config, &plan).is_ok());
    }

    /// The dense per-ring evaluation the probe used before its cursor
    /// sweep: a condition vector with one hash lookup per ring, a
    /// relocation lookup per slot and a sentinel `binary_search` per idle
    /// slot. The oracle the cursor sweep must match bit for bit.
    fn dense_means(
        sweep: &Sweep<'_>,
        kind: BlockKind,
        response: &mut Option<SlotResponseFn<'_>>,
    ) -> Result<BlockMeans, OnnError> {
        let (mapping, conditions, sentinels, p) =
            (sweep.mapping, sweep.conditions, sweep.sentinels, sweep.p);
        let drop_port = p.encoding == WeightEncoding::DropPort;
        let shape = *sweep.config.block(kind);
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
        let conds: Vec<MrCondition> = (0..cap).map(|r| conditions.condition(kind, r)).collect();
        let block_layers = sweep.block_layers(kind);
        let used = mapping.used_slots(kind);
        let rounds = mapping.rounds(kind).max(1);
        let mut drop_sum = vec![0.0f64; shape.vdp_units];
        let sentinel_sites = sentinels.sites(kind);
        let m_sentinel = p.quantize(SENTINEL_MAGNITUDE);
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
                sweep.snapshot[li][(slot - start) as usize]
            } else if sentinel_sites.binary_search(&ring).is_ok() {
                m_sentinel
            } else {
                0.0
            };
            let slot_response = match response {
                Some(eval) => eval(m, cond)?,
                None => match cond {
                    MrCondition::Healthy if drop_port => p.drop_floor + m * (1.0 - p.drop_floor),
                    MrCondition::Parked => p.drop_floor,
                    _ => channel_power_factor(cond) * p.drop_response(p.offset_under(m, cond)),
                },
            };
            drop_sum[(ring / per_bank) as usize] += slot_response;
        }
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
        let mut readbacks = Vec::with_capacity(sentinel_sites.len());
        for &ring in sentinel_sites {
            let cond = conditions.condition(kind, ring);
            let slot_response = match response {
                Some(eval) => eval(m_sentinel, cond)?,
                None => {
                    channel_power_factor(cond) * p.drop_response(p.offset_under(m_sentinel, cond))
                }
            };
            readbacks.push(p.decode(slot_response));
        }
        Ok(BlockMeans {
            banks,
            sentinels: readbacks,
        })
    }

    /// [`TelemetryProbe::new_with`] through [`dense_means`].
    fn dense_probe(
        case: &RandomCase,
        p: &DropResponseModel,
        mut response: Option<SlotResponseFn<'_>>,
    ) -> TelemetryProbe {
        let sweep = Sweep::new(
            &case.net,
            &case.mapping,
            &case.conditions,
            &case.config,
            &case.sentinels,
            p,
        )
        .unwrap();
        TelemetryProbe {
            conv: dense_means(&sweep, BlockKind::Conv, &mut response).unwrap(),
            fc: dense_means(&sweep, BlockKind::Fc, &mut response).unwrap(),
        }
    }

    /// Every reading of a frame as raw bits, so `-0.0`/`0.0` and NaN
    /// payloads count as differences.
    fn frame_bits(frame: &TelemetryFrame) -> Vec<u64> {
        let mut bits = Vec::new();
        for kind in [BlockKind::Conv, BlockKind::Fc] {
            for b in frame.banks(kind) {
                bits.extend(
                    [
                        b.drop_current,
                        b.delta_kelvin,
                        b.rail_power,
                        b.trim_offset_nm,
                    ]
                    .map(f64::to_bits),
                );
            }
            bits.extend(frame.sentinels(kind).iter().map(|s| s.to_bits()));
        }
        bits
    }

    struct RandomCase {
        net: Network,
        mapping: WeightMapping,
        conditions: ConditionMap,
        config: AcceleratorConfig,
        sentinels: SentinelPlan,
    }

    /// A random fault of any variant.
    fn random_condition(rng: &mut SimRng) -> MrCondition {
        match rng.index(4) {
            0 => MrCondition::Parked,
            1 => MrCondition::Heated {
                delta_kelvin: rng.uniform_in(0.5, 40.0),
            },
            2 => MrCondition::Attenuated {
                factor: rng.uniform_in(0.05, 0.95),
                delta_kelvin: if rng.index(2) == 0 {
                    0.0
                } else {
                    rng.uniform_in(0.5, 20.0)
                },
            },
            _ => MrCondition::Detuned {
                offset_nm: rng.uniform_in(-0.5, 0.5),
                delta_kelvin: if rng.index(2) == 0 {
                    0.0
                } else {
                    rng.uniform_in(0.5, 20.0)
                },
            },
        }
    }

    /// A small random probe setup: blocks of a few banks, up to three
    /// layers spread over both blocks (sometimes wrapping into several
    /// reuse rounds), faults of every variant stacked onto each other,
    /// chained remaps, and sentinels on idle, quarantined and relocated
    /// rings.
    fn random_case(seed: u64) -> RandomCase {
        let mut rng = SimRng::seed_from(seed);
        let mut block = || BlockConfig {
            vdp_units: 1 + rng.index(3),
            bank_rows: 1 + rng.index(3),
            bank_cols: 1 + rng.index(4),
        };
        let (conv, fc) = (block(), block());
        let mut config = AcceleratorConfig::custom(conv, fc).unwrap();
        if rng.index(4) == 0 {
            config.encoding = WeightEncoding::ThroughPort;
        }
        let mut net = Network::new();
        net.push(Flatten::new());
        let mut specs = Vec::new();
        for li in 0..1 + rng.index(3) {
            let (rows, cols) = (1 + rng.index(6), 1 + rng.index(6));
            let mut layer = Linear::new(cols, rows, seed ^ li as u64).unwrap();
            let zero = rng.index(8) == 0;
            let values = (0..rows * cols)
                .map(|_| if zero { 0.0 } else { rng.gaussian() as f32 })
                .collect();
            layer.params_mut()[0].value = Tensor::from_vec(vec![rows, cols], values).unwrap();
            net.push(layer);
            let kind = if rng.index(2) == 0 {
                BlockKind::Conv
            } else {
                BlockKind::Fc
            };
            specs.push(LayerSpec::new(format!("l{li}"), kind, rows * cols));
        }
        let mut mapping = WeightMapping::new(&config, &specs).unwrap();
        let mut conditions = ConditionMap::new();
        let mut sites = [Vec::new(), Vec::new()];
        for (kind, sites) in [BlockKind::Conv, BlockKind::Fc].into_iter().zip(&mut sites) {
            let cap = config.block(kind).total_mrs();
            let ring = |rng: &mut SimRng| rng.index(cap as usize) as u64;
            for _ in 0..rng.index(3) {
                let quarantined: Vec<u64> = (0..1 + rng.index(3)).map(|_| ring(&mut rng)).collect();
                mapping.remap_params(kind, &quarantined).unwrap();
                // The runtime parks what it quarantines; leaving some
                // quarantined rings unparked also exposes the imprint on
                // the idle slots relocated onto them.
                if rng.index(2) == 0 {
                    for &q in &quarantined {
                        conditions.stack(kind, q, MrCondition::Parked);
                    }
                }
            }
            for _ in 0..rng.index(cap as usize + 1) {
                let r = ring(&mut rng);
                match rng.index(3) {
                    0 => conditions.add_heat(kind, r, rng.uniform_in(0.5, 30.0)),
                    _ => {
                        let cond = random_condition(&mut rng);
                        conditions.stack(kind, r, cond);
                    }
                }
            }
            sites.extend((0..rng.index(4)).map(|_| ring(&mut rng)));
            // A ring of the relocation table, when there is one.
            let relocated: Vec<u64> = mapping.relocations(kind).map(|(l, _)| l).collect();
            if !relocated.is_empty() {
                sites.push(relocated[rng.index(relocated.len())]);
            }
        }
        let [conv_sites, fc_sites] = sites;
        RandomCase {
            net,
            mapping,
            conditions,
            config,
            sentinels: SentinelPlan::on_sites(conv_sites, fc_sites),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The cursor sweep reads every sensor mean bit for bit as the
        /// dense per-ring reference, through the analytic closed forms and
        /// through a backend's own slot evaluator alike.
        #[test]
        fn cursor_sweep_matches_the_dense_reference(seed in any::<u64>()) {
            let case = random_case(seed);
            let model = DropResponseModel::from_config(&case.config);
            let fast = TelemetryProbe::new(
                &case.net,
                &case.mapping,
                &case.conditions,
                &case.config,
                &case.sentinels,
            )
            .unwrap();
            prop_assert_eq!(
                frame_bits(&fast.noiseless(0)),
                frame_bits(&dense_probe(&case, &model, None).noiseless(0)),
                "analytic sweep diverged (seed {})", seed
            );

            // The quantized backend's monitor ADC, rebuilt for the reference.
            let (weight_bits, readout_bits) = (4, 6);
            let quantized = QuantizedBackend::new(&case.config, weight_bits, readout_bits)
                .probe(&case.net, &case.mapping, &case.conditions, &case.sentinels)
                .unwrap();
            let model = DropResponseModel::with_dac_bits(&case.config, weight_bits);
            let steps = DropResponseModel::steps_from_bits(readout_bits);
            let mut adc = |m: f64, cond: MrCondition| -> Result<f64, OnnError> {
                let analytic =
                    channel_power_factor(cond) * model.drop_response(model.offset_under(m, cond));
                Ok(DropResponseModel::snap_unit(analytic, steps))
            };
            prop_assert_eq!(
                frame_bits(&quantized.noiseless(0)),
                frame_bits(&dense_probe(&case, &model, Some(&mut adc)).noiseless(0)),
                "quantized sweep diverged (seed {})", seed
            );
        }
    }
}
