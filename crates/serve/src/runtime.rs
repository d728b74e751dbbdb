//! The accelerator fleet and its closed-loop response policy.
//!
//! A [`FleetMember`] is one simulated accelerator: the clean trained
//! weights, a [`WeightMapping`] (which learns relocations as the closed
//! loop remaps), the ground-truth fault [`ConditionMap`], the derived
//! *effective* executor network, the analytic [`TelemetryProbe`], and a
//! calibrated detector suite of its own. A [`Fleet`] serves an ordered
//! request stream one micro-batch per active member per tick, fanning the
//! per-member work over the shared worker pool. Ticks are units of
//! *virtual time*: requests become eligible when their
//! [`Request::arrived_at`] stamp is reached, wait in a bounded
//! [`AdmissionQueue`], and the continuous batcher fills each tick's
//! micro-batches from whatever has arrived ([`Fleet::serve_queue`]).
//! With every request stamped `0.0` and an unbounded queue this
//! degenerates to the closed loop, which reproduces the pre-request-plane
//! contiguous partition byte-for-byte.
//!
//! # Response-policy state machine
//!
//! Per member and batch, the inline detectors score the batch's telemetry
//! frame against the operating thresholds. On an alarm:
//!
//! 1. **Implicate** — the guard-band detector's per-bank excursions
//!    localize the compromise to the banks whose worst z-score exceeds
//!    `IMPLICATE_Z`.
//! 2. **Quarantine + remap** — every ring of the implicated banks is
//!    retired and its parameters relocated onto the mapping's idle spare
//!    rings ([`WeightMapping::remap_params`]); the quarantined rings are
//!    parked by an operator overlay so they stop contributing corrupted
//!    responses, and the member re-derives its executor network, telemetry
//!    probe and sentinel plan from the remapped state.
//! 3. **Failover** — when the spare pool cannot absorb the quarantined
//!    parameters (or the alarm persists without localizing), the shard
//!    fails over: the member leaves the routing set and its traffic
//!    redistributes to the healthy members.
//! 4. **Re-baseline** — after a remap the member recalibrates its
//!    detectors against the expected post-remediation sensor signature
//!    (the operator knows the remap it just performed), restoring the
//!    calibrated false-positive rate instead of re-alarming forever on
//!    its own repair.
//!
//! Every decision derives from detector scores and deterministic seeds,
//! so a served stream is byte-identical across worker-thread counts.

use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use safelight::detect::{Detector, GuardBandDetector, MaskedChannel, SensorHealthScreen};
use safelight::fault::{FaultPlan, FaultState};
use safelight::SafelightError;
use safelight_neuro::parallel::par_map;
use safelight_neuro::{Network, Tensor};
use safelight_obs::profile_span;
use safelight_onn::{
    BlockKind, ConditionMap, InferenceBackend, MrCondition, SensorChannel, SentinelPlan,
    TelemetryFrame, TelemetryProbe, WeightMapping,
};

use crate::observe::ServeObserver;
use crate::scheduler::{AdmissionQueue, Request, RequestOutcome};

/// The workspace's shared stream-key fold (full avalanche per field),
/// used here to derive independent noise streams for members,
/// recalibration windows and scenario replays.
pub(crate) use safelight::attack::fold;

/// Guard-band excursion (in σ) above which a bank is implicated and
/// quarantined.
pub(crate) const IMPLICATE_Z: f64 = 6.0;
/// Consecutive unlocalized alarms tolerated before the member fails over
/// anyway (a persistent alarm the guard bands cannot pin down).
pub(crate) const UNLOCALIZED_PATIENCE: usize = 3;
/// Batches a crashed member spends in [`MemberState::Restarting`] before
/// cache recovery brings it back into the routing set.
pub const RESTART_BATCHES: u64 = 2;
/// Failed remap attempts retried (with backoff) before the member fails
/// over.
pub(crate) const REMAP_RETRIES: usize = 1;
/// Batches to back off after a failed remap attempt (doubled per
/// consecutive failure).
pub(crate) const REMAP_BACKOFF_BATCHES: u64 = 2;
/// Coherent rail excursion (in σ, per [`GuardBandDetector::coherent_rail_shift`])
/// above which an alarm is classified as a supply-side transient
/// (maintenance) instead of a trojan: a glitch dims every bank of a block
/// at once, a tap on a fraction of the rings cannot.
pub(crate) const RAIL_GLITCH_Z: f64 = 4.0;

/// Knobs of the closed-loop response policy. The rule parameters no
/// workload varies are constants of this module.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyConfig {
    /// Per-detector alarm thresholds, aligned with the member suites'
    /// detector order (calibrated so the per-run false-positive rate stays
    /// below a target; see [`crate::eval::operating_thresholds`]).
    pub thresholds: Vec<f64>,
    /// Frames synthesized from the post-remediation probe to re-baseline
    /// the detectors after a remap.
    pub recalibration_frames: usize,
    /// Whether the response policy acts on alarms at all (`false` = the
    /// no-response baseline: detection still scores, nothing reacts).
    pub respond: bool,
    /// Whether telemetry frames are emitted and scored inline at all
    /// (`false` strips the detection path entirely — the steady-state
    /// baseline the overhead benchmark compares against).
    pub inline_detection: bool,
}

impl PolicyConfig {
    /// A responding policy with the given operating thresholds and default
    /// knobs.
    #[must_use]
    pub fn new(thresholds: Vec<f64>) -> Self {
        Self {
            thresholds,
            recalibration_frames: 32,
            respond: true,
            inline_detection: true,
        }
    }

    /// The no-response baseline: scores frames, never acts.
    #[must_use]
    pub fn baseline(thresholds: Vec<f64>) -> Self {
        Self {
            respond: false,
            ..Self::new(thresholds)
        }
    }

    /// Serving without any inline detection (bench baseline).
    #[must_use]
    pub fn without_detection() -> Self {
        Self {
            inline_detection: false,
            ..Self::baseline(Vec::new())
        }
    }
}

/// Routing state of one fleet member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberState {
    /// In the routing set, serving traffic.
    Healthy,
    /// In the routing set with a maintenance flag raised: one or more of
    /// its sensors are masked as faulty (or a supply transient is in
    /// progress). The member keeps serving — a broken *sensor* does not
    /// degrade the *datapath* — but the flag tells the operator which
    /// hardware to service. Clears back to [`MemberState::Healthy`] when
    /// the masks clear.
    Suspect,
    /// Crashed: out of the routing set while cache recovery re-derives the
    /// member's state; returns to the routing set after
    /// [`RESTART_BATCHES`].
    Restarting,
    /// Failed over: out of the routing set for good.
    Failed,
}

/// A sensor channel key: block, bank (or sentinel) index, channel.
pub type ChannelKey = (BlockKind, usize, SensorChannel);

/// What the policy did with banks the guard bands implicated.
#[derive(Debug, Clone, PartialEq)]
pub enum Disposition {
    /// Banks were quarantined and their parameters remapped onto spares.
    Remap {
        /// Banks quarantined (across both blocks).
        quarantined_banks: usize,
        /// Parameter-carrying rings successfully relocated.
        remapped_rings: usize,
        /// Parameter-carrying rings the spare pool could not absorb
        /// (non-zero only when no healthy peer was left to fail over to —
        /// their parameters are parked to zero instead of serving
        /// corrupted values).
        unplaced_rings: usize,
        /// Idle spare rings left on the member after the remap.
        spare_level: usize,
    },
    /// A failed remap is backing off: alarm without spending spares.
    Backoff {
        /// Global batch index before which no remap is retried.
        retry_after: u64,
    },
    /// The spare pool could not absorb the remap; it is retried after a
    /// backoff.
    RemapFailed {
        /// Consecutive failed remap attempts.
        attempts: usize,
        /// Global batch index before which no remap is retried.
        retry_after: u64,
    },
    /// Spares exhausted beyond the retry budget: the member failed over.
    Failover,
}

/// One response-policy decision with the inputs that drove it.
///
/// This is the single record of a decision: [`Fleet`] appends it to
/// [`StreamOutcome::events`] (as a [`PolicyEvent`]), and an attached
/// [`ServeObserver`] renders the same value as the audit-trace line and
/// counts it in the metrics.
#[derive(Debug, Clone, PartialEq)]
pub enum Decision {
    /// The sensor-health screen masked new channels: maintenance verdict.
    SensorMask {
        /// Channels masked for the first time on this batch.
        newly: Vec<ChannelKey>,
        /// Channels the screen masks on this batch in total.
        total_masked: usize,
    },
    /// Every mask cleared and the detectors went quiet: the maintenance
    /// flag dropped.
    MaskClear,
    /// An alarm classified as a coherent supply transient: maintenance.
    RailGlitch {
        /// Coherent rail excursion (σ).
        rail_z: f64,
        /// The policy's rail-glitch threshold (σ).
        threshold: f64,
    },
    /// The guard bands implicated banks; `disposition` says what followed.
    Implicate {
        /// Implicated banks with their four per-field excursions (σ).
        banks: Vec<(BlockKind, usize, [f64; 4])>,
        /// The policy's response.
        disposition: Disposition,
    },
    /// A lone-sensor verdict: the sensors are quarantined, not the bank.
    SensorQuarantine {
        /// Quarantined sensor channels.
        suspects: Vec<ChannelKey>,
    },
    /// An alarm the guard bands could not localize.
    Unlocalized {
        /// Consecutive unlocalized alarms so far.
        consecutive: usize,
        /// Whether patience ran out and the member failed over.
        failover: bool,
    },
    /// The member crashed and left the routing set for recovery.
    Crash {
        /// Global batch index at which the member rejoins.
        restart_until: u64,
    },
    /// The member recovered from the version-stamped model cache and
    /// rejoined the routing set with re-baselined detectors.
    Recover {
        /// Batches from the crash to the recovery.
        latency_batches: u64,
    },
}

/// One policy decision, stamped with when and where it happened.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyEvent {
    /// Global micro-batch index of the alarming frame (of the crash or
    /// recovery for those decisions).
    pub batch: u64,
    /// Member the event concerns.
    pub member: usize,
    /// The worst suite score of the batch (0 for crash and recovery).
    pub score: f64,
    /// What the policy decided.
    pub decision: Decision,
}

/// Writes `items` as a bracketed, comma-separated list.
fn write_list<T>(
    f: &mut fmt::Formatter<'_>,
    items: &[T],
    mut item: impl FnMut(&mut fmt::Formatter<'_>, &T) -> fmt::Result,
) -> fmt::Result {
    f.write_str("[")?;
    for (i, x) in items.iter().enumerate() {
        if i > 0 {
            f.write_str(",")?;
        }
        item(f, x)?;
    }
    f.write_str("]")
}

/// Channel keys render as `fc:1:DeltaKelvin`.
fn write_channels(f: &mut fmt::Formatter<'_>, keys: &[ChannelKey]) -> fmt::Result {
    write_list(f, keys, |f, (kind, index, channel)| {
        write!(f, "{kind}:{index}:{channel:?}")
    })
}

/// The audit-trace line of the decision: the `event=` name, the member,
/// the decision's inputs and (for verdicts) the score and `action=`.
impl fmt::Display for PolicyEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (member, score, batch) = (self.member, self.score, self.batch);
        match &self.decision {
            Decision::SensorMask {
                newly,
                total_masked,
            } => {
                write!(f, "event=sensor_mask member={member} masked=")?;
                write_channels(f, newly)?;
                write!(
                    f,
                    " total={total_masked} score={score:.4} action=maintenance"
                )
            }
            Decision::MaskClear => write!(f, "event=mask_clear member={member}"),
            Decision::RailGlitch { rail_z, threshold } => write!(
                f,
                "event=rail_glitch member={member} rail_z={rail_z:.3} threshold={threshold} \
                 score={score:.4} action=maintenance"
            ),
            Decision::Implicate { banks, disposition } => {
                write!(f, "event=implicate member={member} banks=")?;
                // Each bank with its worst field excursion: `conv:1(z=7.123)`.
                write_list(f, banks, |f, (kind, bank, zs)| {
                    let worst = zs.iter().fold(f64::NEG_INFINITY, |a, &z| a.max(z));
                    write!(f, "{kind}:{bank}(z={worst:.3})")
                })?;
                write!(f, " score={score:.4} action=")?;
                match disposition {
                    Disposition::Remap {
                        quarantined_banks,
                        remapped_rings,
                        unplaced_rings,
                        ..
                    } => write!(
                        f,
                        "remap quarantined={quarantined_banks} remapped={remapped_rings} \
                         unplaced={unplaced_rings}"
                    ),
                    Disposition::Backoff { retry_after } => {
                        write!(f, "backoff retry_after={retry_after}")
                    }
                    Disposition::RemapFailed {
                        attempts,
                        retry_after,
                    } => write!(
                        f,
                        "remap_failed attempts={attempts} retry_after={retry_after}"
                    ),
                    Disposition::Failover => f.write_str("failover reason=spares_exhausted"),
                }
            }
            Decision::SensorQuarantine { suspects } => {
                write!(f, "event=sensor_quarantine member={member} suspects=")?;
                write_channels(f, suspects)?;
                write!(f, " score={score:.4} action=maintenance")
            }
            Decision::Unlocalized {
                consecutive,
                failover,
            } => write!(
                f,
                "event=unlocalized member={member} consecutive={consecutive} score={score:.4} \
                 action={}",
                if *failover { "failover" } else { "alarm" }
            ),
            Decision::Crash { restart_until } => write!(
                f,
                "event=crash member={member} batch={batch} restart_until={restart_until}"
            ),
            Decision::Recover { latency_batches } => write!(
                f,
                "event=recover member={member} batch={batch} latency_batches={latency_batches}"
            ),
        }
    }
}

/// The per-batch result a member hands back to the fleet loop.
#[derive(Debug, Clone)]
pub struct ServedBatch {
    /// Member that served the batch.
    pub member: usize,
    /// Global micro-batch index.
    pub batch: u64,
    /// Per-request class predictions, in request order.
    pub predictions: Vec<usize>,
    /// Per-detector scores of the batch's telemetry frame (empty when
    /// inline detection is off or the member is a fresh alarm cooldown).
    pub scores: Vec<f64>,
    /// Whether any score crossed its operating threshold.
    pub alarmed: bool,
    /// The *sanitized* telemetry frame the detectors scored (masked
    /// channels replaced by their calibrated means; kept for bank
    /// implication), when detection ran.
    pub frame: Option<TelemetryFrame>,
    /// Channels the sensor-health screen masked on the raw frame.
    pub masked: Vec<MaskedChannel>,
    /// Ground truth: the member was compromised and not yet remediated.
    pub degraded: bool,
}

/// One simulated accelerator of the serving fleet.
pub struct FleetMember {
    id: usize,
    /// The datapath implementation this member simulates — boxed, so one
    /// fleet can mix backends (e.g. a physical-model canary next to fast
    /// analytic members).
    backend: Box<dyn InferenceBackend>,
    mapping: WeightMapping,
    clean: Network,
    /// Injected trojan state (ground truth).
    attack: ConditionMap,
    /// Operator overlay: quarantined rings parked out of the datapath.
    overlay: ConditionMap,
    /// The derived effective executor network.
    effective: Network,
    /// Whether `effective` is still the clean derive the member was built
    /// with: every re-derivation (compromise, remap, cache recovery) clears
    /// it, and only a pristine member may take [`CleanPredictions`].
    pristine: bool,
    probe: TelemetryProbe,
    sentinels: SentinelPlan,
    suite: Vec<Box<dyn Detector>>,
    guard: GuardBandDetector,
    state: MemberState,
    frames_emitted: u64,
    noise_salt: u64,
    unlocalized_alarms: usize,
    compromised: bool,
    remediated: bool,
    remediations: usize,
    /// Per-sensor health screen masking broken channels ahead of scoring.
    screen: SensorHealthScreen,
    /// Version stamp of the clean model held by the recovery cache.
    cache_stamp: u64,
    /// Factory mapping snapshot the recovery cache restores.
    cache_mapping: WeightMapping,
    /// Factory sentinel plan the recovery cache restores.
    cache_sentinels: SentinelPlan,
    /// Armed benign-fault plan corrupting this member's raw telemetry.
    fault: Option<FaultPlan>,
    fault_state: FaultState,
    /// Global batch index at which a crashed member rejoins the routing
    /// set.
    restart_until: Option<u64>,
    restarts: usize,
    /// Consecutive failed remap attempts (drives the retry backoff).
    remap_attempts: usize,
    /// Global batch index before which remap retries back off.
    retry_after_batch: u64,
    /// Masked channels already reported, deduping maintenance events.
    flagged: Vec<ChannelKey>,
}

/// The four bank-level sensor fields in [`GuardBandDetector::field_excursions`]
/// order.
const FIELD_CHANNELS: [SensorChannel; 4] = [
    SensorChannel::DropCurrent,
    SensorChannel::DeltaKelvin,
    SensorChannel::RailPower,
    SensorChannel::TrimOffsetNm,
];

/// Fixed seed and frame base of the sensor-health screen's factory
/// calibration — deliberately *not* member-salted, so a prototype and its
/// [`FleetMember::clone_as`] clones carry bit-identical screens.
const SCREEN_CAL_SEED: u64 = 0x5C4E_E27A_B1E5;
const SCREEN_CAL_BASE: u64 = 1 << 47;
const SCREEN_CAL_FRAMES: u64 = 32;

/// Version stamp of a clean model for the crash-recovery cache: every
/// parameter tensor's shape and exact bit pattern, avalanche-folded. A
/// member only restores from a cache whose stamp matches its clean model.
fn model_stamp(network: &Network) -> u64 {
    let mut h = 0x5AFE_C4A5_4EC0_7E41_u64;
    for p in network.params() {
        for &dim in p.value.shape() {
            h = fold(h, dim as u64);
        }
        for &w in p.value.as_slice() {
            h = fold(h, u64::from(w.to_bits()));
        }
    }
    h
}

impl std::fmt::Debug for FleetMember {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetMember")
            .field("id", &self.id)
            .field("state", &self.state)
            .field("compromised", &self.compromised)
            .field("pristine", &self.pristine)
            .field("remediated", &self.remediated)
            .field("remediations", &self.remediations)
            .field("frames_emitted", &self.frames_emitted)
            .finish_non_exhaustive()
    }
}

/// Re-baselines a member's detector suite, localization guard and health
/// screen on `frames` (at least one) attack-free frames synthesized from
/// `probe` at indices `base..` under `seed`. The screen keeps its operator
/// quarantines: re-baselining does not un-break a sensor.
fn rebaseline(
    suite: &mut [Box<dyn Detector>],
    guard: &mut GuardBandDetector,
    screen: &mut SensorHealthScreen,
    probe: &TelemetryProbe,
    base: u64,
    seed: u64,
    frames: usize,
) -> Result<(), SafelightError> {
    let synth: Vec<TelemetryFrame> = (0..frames.max(1) as u64)
        .map(|i| probe.frame(base + i, seed))
        .collect();
    for d in suite {
        d.calibrate(&synth)?;
        d.reset();
    }
    guard.calibrate(&synth)?;
    screen.calibrate(&synth)?;
    Ok(())
}

impl FleetMember {
    /// Builds a member from the clean trained `network`, deriving the
    /// effective executor network, sentinel plan and telemetry probe
    /// through `backend` (which also fixes the accelerator profile).
    ///
    /// `suite` and `guard` must already be calibrated on attack-free
    /// telemetry of this accelerator profile; the member takes ownership
    /// and [`Detector::reset`]s them so one calibration pass serves any
    /// number of members and streams without re-fitting.
    ///
    /// # Errors
    ///
    /// Propagates mapping/derivation errors.
    pub fn new(
        id: usize,
        network: &Network,
        mapping: WeightMapping,
        backend: Box<dyn InferenceBackend>,
        sentinels_per_block: usize,
        mut suite: Vec<Box<dyn Detector>>,
        guard: GuardBandDetector,
    ) -> Result<Self, SafelightError> {
        let sentinels = SentinelPlan::new(&mapping, backend.config(), sentinels_per_block);
        let effective = backend.derive_network(network, &mapping, &ConditionMap::new())?;
        let probe = backend
            .probe(network, &mapping, &ConditionMap::new(), &sentinels)
            .map_err(SafelightError::from)?;
        for d in &mut suite {
            d.reset();
        }
        // Factory calibration of the sensor-health screen, on synthesized
        // attack-free frames of this member's own probe.
        let mut screen = SensorHealthScreen::default();
        let screen_frames: Vec<TelemetryFrame> = (0..SCREEN_CAL_FRAMES)
            .map(|i| probe.frame(SCREEN_CAL_BASE + i, SCREEN_CAL_SEED))
            .collect();
        screen.calibrate(&screen_frames)?;
        Ok(Self {
            id,
            backend,
            cache_stamp: model_stamp(network),
            cache_mapping: mapping.clone(),
            cache_sentinels: sentinels.clone(),
            mapping,
            clean: network.clone(),
            attack: ConditionMap::new(),
            overlay: ConditionMap::new(),
            effective,
            pristine: true,
            probe,
            sentinels,
            suite,
            guard,
            state: MemberState::Healthy,
            frames_emitted: 0,
            noise_salt: fold(0x0005_E4EF_1EE7, id as u64),
            unlocalized_alarms: 0,
            compromised: false,
            remediated: false,
            remediations: 0,
            screen,
            fault: None,
            fault_state: FaultState::default(),
            restart_until: None,
            restarts: 0,
            remap_attempts: 0,
            retry_after_batch: 0,
            flagged: Vec::new(),
        })
    }

    /// Clones this member as fleet index `id`: identical derived state
    /// (effective network, probe, sentinels, calibrated detectors) with
    /// its own noise stream. Building one prototype and cloning it for
    /// the rest of an identical-hardware fleet skips the redundant
    /// executor/probe derivations — the members differ only by id and
    /// noise salt.
    #[must_use]
    pub fn clone_as(&self, id: usize) -> Self {
        Self {
            id,
            backend: self.backend.clone_box(),
            mapping: self.mapping.clone(),
            clean: self.clean.clone(),
            attack: self.attack.clone(),
            overlay: self.overlay.clone(),
            effective: self.effective.clone(),
            pristine: self.pristine,
            probe: self.probe.clone(),
            sentinels: self.sentinels.clone(),
            suite: self.suite.clone(),
            guard: self.guard.clone(),
            state: self.state,
            frames_emitted: self.frames_emitted,
            noise_salt: fold(0x0005_E4EF_1EE7, id as u64),
            unlocalized_alarms: self.unlocalized_alarms,
            compromised: self.compromised,
            remediated: self.remediated,
            remediations: self.remediations,
            screen: self.screen.clone(),
            cache_stamp: self.cache_stamp,
            cache_mapping: self.cache_mapping.clone(),
            cache_sentinels: self.cache_sentinels.clone(),
            fault: self.fault.clone(),
            fault_state: self.fault_state.clone(),
            restart_until: self.restart_until,
            restarts: self.restarts,
            remap_attempts: self.remap_attempts,
            retry_after_batch: self.retry_after_batch,
            flagged: self.flagged.clone(),
        }
    }

    /// The member's fleet index.
    #[must_use]
    pub fn id(&self) -> usize {
        self.id
    }

    /// Current routing state.
    #[must_use]
    pub fn state(&self) -> MemberState {
        self.state
    }

    /// Whether the member is in the routing set. A [`MemberState::Suspect`]
    /// member still serves — its maintenance flag concerns a sensor, not
    /// the datapath.
    #[must_use]
    pub fn serves(&self) -> bool {
        matches!(self.state, MemberState::Healthy | MemberState::Suspect)
    }

    /// Ground truth: compromised with no remediation applied yet. A
    /// remediation clears this even when it only covered the implicated
    /// banks — residual corruption on unimplicated rings is reported
    /// through the post-recovery *accuracy* (measured against labels),
    /// not through this flag.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.compromised && !self.remediated
    }

    /// Remediations (remaps) the member has performed.
    #[must_use]
    pub fn remediations(&self) -> usize {
        self.remediations
    }

    /// Crash recoveries the member has performed.
    #[must_use]
    pub fn restarts(&self) -> usize {
        self.restarts
    }

    /// Arms a benign-fault plan: from its onset batch the plan corrupts
    /// this member's *raw telemetry* (sensors lying about a healthy
    /// datapath — the optical physics is untouched).
    pub fn arm_fault(&mut self, plan: &FaultPlan) {
        self.fault_state = FaultState::for_plan(plan);
        self.fault = Some(plan.clone());
    }

    /// Shared view of the member's (possibly remapped) mapping.
    #[must_use]
    pub fn mapping(&self) -> &WeightMapping {
        &self.mapping
    }

    /// The member's datapath backend.
    #[must_use]
    pub fn backend(&self) -> &dyn InferenceBackend {
        self.backend.as_ref()
    }

    /// The member's current sentinel plan.
    #[must_use]
    pub fn sentinels(&self) -> &SentinelPlan {
        &self.sentinels
    }

    /// Re-derives the effective executor network, sentinel plan and
    /// telemetry probe from the current mapping and fault state.
    ///
    /// The sentinel plan keeps its existing sites (the probe weights are
    /// physically imprinted — they don't move when other rings do) minus
    /// any site the closed loop retired or consumed as a relocation spare.
    /// Rebuilding from `idle_slots` instead would silently drop every
    /// sentinel of a multi-round block (whose final-round idle rings are
    /// never *fully* idle), shifting the telemetry signature at
    /// re-derivation time and tripping the guard bands on healthy banks.
    fn rederive(&mut self) -> Result<(), SafelightError> {
        let mut conditions = self.attack.clone();
        conditions.stack_map(&self.overlay);
        let surviving_sites = |kind: BlockKind| -> Vec<u64> {
            self.sentinels
                .sites(kind)
                .iter()
                .copied()
                .filter(|&s| {
                    !self.mapping.is_retired(kind, s) && self.mapping.physical_ring(kind, s) == s
                })
                .collect()
        };
        self.sentinels = SentinelPlan::on_sites(
            surviving_sites(BlockKind::Conv),
            surviving_sites(BlockKind::Fc),
        );
        self.effective = self
            .backend
            .derive_network(&self.clean, &self.mapping, &conditions)?;
        self.pristine = false;
        self.probe = self
            .backend
            .probe(&self.clean, &self.mapping, &conditions, &self.sentinels)
            .map_err(SafelightError::from)?;
        Ok(())
    }

    /// Injects (stacks) trojan `conditions` into the member mid-stream and
    /// re-derives its executor and telemetry state.
    ///
    /// # Errors
    ///
    /// Propagates derivation errors.
    pub fn apply_compromise(&mut self, conditions: &ConditionMap) -> Result<(), SafelightError> {
        self.attack.stack_map(conditions);
        self.compromised = true;
        self.remediated = false;
        self.rederive()
    }

    /// Serves one micro-batch — the requests at stream positions `ids`
    /// (in admission order; shedding can make them non-contiguous) — as a
    /// single batched forward pass through the effective network, plus
    /// (when enabled) one telemetry frame scored by the member's detector
    /// suite.
    ///
    /// A pristine member takes the predictions `reference` holds for the
    /// exact same request ids instead of running the forward pass: its
    /// effective network is bit-identical to the one that served them.
    ///
    /// # Errors
    ///
    /// Propagates forward-pass errors.
    pub fn serve_batch(
        &mut self,
        requests: &[Request],
        ids: &[usize],
        batch: u64,
        stream_seed: u64,
        policy: &PolicyConfig,
        reference: Option<&CleanPredictions>,
    ) -> Result<ServedBatch, SafelightError> {
        let known = reference
            .filter(|_| self.pristine)
            .and_then(|r| r.lookup(requests, ids));
        let predictions = match known {
            Some(known) => known.to_vec(),
            None => {
                let inputs: Vec<&Tensor> = ids.iter().map(|&i| &requests[i].input).collect();
                let _span = profile_span("serve_predict");
                self.backend.predict_batch(&mut self.effective, &inputs)?
            }
        };
        let degraded = self.is_degraded();
        let (scores, alarmed, frame, masked) = if policy.inline_detection {
            let _span = profile_span("serve_detect");
            let mut raw = self
                .probe
                .frame(self.frames_emitted, fold(stream_seed, self.noise_salt));
            self.frames_emitted += 1;
            // Any armed benign fault corrupts the raw readings first —
            // the screen and detectors see what the broken sensors report.
            if let Some(plan) = &self.fault {
                plan.corrupt(
                    &mut raw,
                    batch,
                    &mut self.fault_state,
                    fold(stream_seed, self.noise_salt),
                );
            }
            let health = self.screen.screen(&raw);
            let frame = self.screen.sanitize(&raw, &health);
            let scores: Vec<f64> = self.suite.iter_mut().map(|d| d.score(&frame)).collect();
            let alarmed = scores.iter().zip(&policy.thresholds).any(|(s, t)| s > t);
            (scores, alarmed, Some(frame), health.masked)
        } else {
            (Vec::new(), false, None, Vec::new())
        };
        Ok(ServedBatch {
            member: self.id,
            batch,
            predictions,
            scores,
            alarmed,
            frame,
            masked,
            degraded,
        })
    }

    /// Re-baselines the detector suite and localization guard against the
    /// member's *current* (post-remediation) telemetry signature: the
    /// operator knows the remap it just performed, so the expected sensor
    /// means are the remediated probe's, not the factory calibration's.
    fn recalibrate(&mut self, stream_seed: u64, frames: usize) -> Result<(), SafelightError> {
        let _span = profile_span("recalibrate");
        let seed = fold(
            fold(stream_seed, self.noise_salt),
            0xCA11_B8A7 ^ self.remediations as u64,
        );
        // Frame indices far above any serving stream keep the synthesized
        // calibration noise disjoint from scored frames.
        rebaseline(
            &mut self.suite,
            &mut self.guard,
            &mut self.screen,
            &self.probe,
            1 << 48,
            seed,
            frames,
        )
    }

    /// Quarantines every ring of the implicated `banks`, remaps the
    /// parameters they carry onto spare rings, parks the quarantined rings
    /// via the operator overlay, re-derives the executor/probe state and
    /// re-baselines the detectors.
    ///
    /// Returns the applied [`Disposition::Remap`], or `None` when the
    /// spare pool ran dry and `allow_partial` is off. `allow_partial`
    /// permits applying a remap whose spare pool ran dry (last-member
    /// graceful degradation); otherwise the caller is expected to fail the
    /// member over and the mapping mutation is irrelevant because the
    /// member leaves service.
    fn quarantine_and_remap(
        &mut self,
        banks: &[(BlockKind, usize, [f64; 4])],
        stream_seed: u64,
        policy: &PolicyConfig,
        allow_partial: bool,
    ) -> Result<Option<Disposition>, SafelightError> {
        let _span = profile_span("remap");
        // Snapshot for rollback: a refused partial remap must leave the
        // mapping untouched, or the retry (and the eventual failover
        // accounting) would start from a half-consumed spare pool.
        let snapshot = self.mapping.clone();
        let mut remapped = 0usize;
        let mut unplaced = 0usize;
        let mut quarantined: Vec<(BlockKind, u64)> = Vec::new();
        for kind in [BlockKind::Conv, BlockKind::Fc] {
            let per_bank = self.backend.config().block(kind).mrs_per_bank() as u64;
            let rings: Vec<u64> = banks
                .iter()
                .filter(|(k, _, _)| *k == kind)
                .flat_map(|&(_, bank, _)| {
                    let base = bank as u64 * per_bank;
                    base..base + per_bank
                })
                .collect();
            if rings.is_empty() {
                continue;
            }
            let outcome = self.mapping.remap_params(kind, &rings)?;
            remapped += outcome.remapped.len();
            unplaced += outcome.unplaced.len();
            quarantined.extend(rings.into_iter().map(|r| (kind, r)));
        }
        if unplaced > 0 && !allow_partial {
            self.mapping = snapshot;
            return Ok(None);
        }
        for (kind, ring) in quarantined {
            self.overlay.stack(kind, ring, MrCondition::Parked);
        }
        self.remediated = true;
        self.remediations += 1;
        self.unlocalized_alarms = 0;
        self.remap_attempts = 0;
        self.retry_after_batch = 0;
        self.rederive()?;
        self.recalibrate(stream_seed, policy.recalibration_frames)?;
        Ok(Some(Disposition::Remap {
            quarantined_banks: banks.len(),
            remapped_rings: remapped,
            unplaced_rings: unplaced,
            spare_level: self.mapping.spare_count(BlockKind::Conv)
                + self.mapping.spare_count(BlockKind::Fc),
        }))
    }

    /// Brings a crashed member back from the version-stamped model cache:
    /// verifies the stamp, restores the factory mapping and sentinel plan,
    /// drops the operator overlay, and re-derives the executor and probe.
    /// The trojan map is deliberately *kept* — a restart does not exorcise
    /// hardware that is physically present — and the detectors, guard and
    /// screen re-baseline on frames synthesized from the cached *clean*
    /// state, so a trojan that survives the crash re-alarms instead of
    /// being baselined into the post-recovery calibration.
    fn recover_from_cache(
        &mut self,
        stream_seed: u64,
        recalibration_frames: usize,
    ) -> Result<(), SafelightError> {
        let _span = profile_span("cache_recovery");
        if model_stamp(&self.clean) != self.cache_stamp {
            return Err(SafelightError::InvalidParameter {
                name: "recovery cache stamp",
                value: self.cache_stamp as f64,
            });
        }
        self.mapping = self.cache_mapping.clone();
        self.overlay = ConditionMap::new();
        self.sentinels = self.cache_sentinels.clone();
        self.remediated = false;
        self.restarts += 1;
        self.unlocalized_alarms = 0;
        self.remap_attempts = 0;
        self.retry_after_batch = 0;
        self.flagged.clear();
        self.rederive()?;
        let clean_probe = self
            .backend
            .probe(
                &self.clean,
                &self.mapping,
                &ConditionMap::new(),
                &self.sentinels,
            )
            .map_err(SafelightError::from)?;
        let seed = fold(
            fold(stream_seed, self.noise_salt),
            0x4EC0_7E4A ^ self.restarts as u64,
        );
        rebaseline(
            &mut self.suite,
            &mut self.guard,
            &mut self.screen,
            &clean_probe,
            1 << 46,
            seed,
            recalibration_frames,
        )?;
        self.state = MemberState::Healthy;
        self.restart_until = None;
        Ok(())
    }

    /// Raises the maintenance flag and drops the detectors' integrated
    /// state.
    fn flag_suspect(&mut self) {
        if self.state == MemberState::Healthy {
            self.state = MemberState::Suspect;
        }
        for d in &mut self.suite {
            d.reset();
        }
    }

    /// Sensor-health bookkeeping of one scored batch, independent of the
    /// trojan verdict: newly masked channels raise maintenance, and a
    /// quiet, fully unmasked batch clears it.
    fn screen_batch(&mut self, batch: &ServedBatch) -> Option<Decision> {
        let newly: Vec<ChannelKey> = batch
            .masked
            .iter()
            .map(|m| (m.block, m.index, m.channel))
            .filter(|key| !self.flagged.contains(key))
            .collect();
        if !newly.is_empty() {
            self.flagged.extend(&newly);
            // The sequential detectors may have integrated corrupt
            // pre-mask readings (a stuck sensor takes a few frames to
            // catch): drop that state rather than let it decay into a
            // late false alarm.
            self.flag_suspect();
            Some(Decision::SensorMask {
                newly,
                total_masked: batch.masked.len(),
            })
        } else if batch.masked.is_empty() && self.state == MemberState::Suspect && !batch.alarmed {
            // Every mask cleared (e.g. a transient ended) and the
            // detectors are quiet: drop the maintenance flag.
            self.state = MemberState::Healthy;
            self.flagged.clear();
            Some(Decision::MaskClear)
        } else {
            None
        }
    }

    /// The fault-vs-trojan discrimination rule for an alarmed batch,
    /// cheapest benign explanation first. Only a bank whose *physics*
    /// moved (drop current, or several sensor fields together) spends
    /// spares; a lone broken readback or a coherent supply transient
    /// raises maintenance. `None` for a quiet batch.
    fn respond_to_alarm(
        &mut self,
        batch: &ServedBatch,
        healthy_peers: usize,
        policy: &PolicyConfig,
        seed: u64,
    ) -> Result<Option<Decision>, SafelightError> {
        if !batch.alarmed {
            // A quiet scored batch breaks the run of *consecutive*
            // unlocalized alarms — isolated calibrated-rate false
            // positives must not accumulate into a failover.
            self.unlocalized_alarms = 0;
            return Ok(None);
        }
        let frame = batch
            .frame
            .as_ref()
            .expect("an alarm implies a scored frame");

        // 1. A coherent rail dip across *every* bank of a block is a
        //    supply-side transient: a trojan tapping a fraction of the
        //    rings cannot dim them all at once.
        let rail_z = self.guard.coherent_rail_shift(frame);
        if rail_z >= RAIL_GLITCH_Z {
            self.flag_suspect();
            return Ok(Some(Decision::RailGlitch {
                rail_z,
                threshold: RAIL_GLITCH_Z,
            }));
        }

        // 2. Bank implication: the compute-coupled drop channel moved, or
        //    at least two sensor fields moved together. One lone non-drop
        //    field is a sensor story, not a physics story.
        let fields = self.guard.field_excursions(frame);
        let banks: Vec<(BlockKind, usize, [f64; 4])> = fields
            .iter()
            .filter(|(_, _, zs)| {
                zs[0] >= IMPLICATE_Z || zs.iter().filter(|&&z| z >= IMPLICATE_Z).count() >= 2
            })
            .copied()
            .collect();
        if !banks.is_empty() {
            let disposition = if batch.batch < self.retry_after_batch {
                // Backing off a failed remap attempt: keep alarming
                // without spending spares until the retry window opens.
                Disposition::Backoff {
                    retry_after: self.retry_after_batch,
                }
            } else if let Some(remap) =
                self.quarantine_and_remap(&banks, seed, policy, healthy_peers == 0)?
            {
                remap
            } else {
                self.remap_attempts += 1;
                if self.remap_attempts > REMAP_RETRIES {
                    // Spares exhausted beyond patience and a healthy peer
                    // exists: fail over.
                    self.state = MemberState::Failed;
                    Disposition::Failover
                } else {
                    self.retry_after_batch =
                        batch.batch + (REMAP_BACKOFF_BATCHES << (self.remap_attempts - 1));
                    Disposition::RemapFailed {
                        attempts: self.remap_attempts,
                        retry_after: self.retry_after_batch,
                    }
                }
            };
            return Ok(Some(Decision::Implicate { banks, disposition }));
        }

        // 3. Single-sensor stories: exactly one non-drop field of a bank
        //    excursed — quarantine the *sensor*, flag maintenance, spend
        //    no spares. The attribution threshold is half the implication
        //    threshold: a detector already fired, so *something* moved —
        //    a drifting readback alarms while its z is still between the
        //    operating threshold and `IMPLICATE_Z`, and waiting for full
        //    implication would burn the unlocalized-alarm patience on a
        //    benign sensor. A sensor story can only explain a
        //    *guard-band* alarm: the sentinel integrity channel and the
        //    drop-mean CUSUM watch the computation itself (dead/stuck
        //    sentinels are masked by the health screen before scoring),
        //    so when either of those is the detector alarming, a broken
        //    readback cannot be the cause and the alarm falls through to
        //    the fail-secure path below.
        let guard_only_alarm = self
            .suite
            .iter()
            .zip(&batch.scores)
            .zip(&policy.thresholds)
            .all(|((d, &s), &t)| s <= t || d.name() == "guard_band");
        let sensor_z = IMPLICATE_Z * 0.5;
        let mut suspects: Vec<ChannelKey> = Vec::new();
        if guard_only_alarm {
            for &(kind, bank, zs) in &fields {
                let hot: Vec<usize> = (0..4).filter(|&f| zs[f] >= sensor_z).collect();
                if let [field] = hot.as_slice() {
                    if *field != 0 {
                        suspects.push((kind, bank, FIELD_CHANNELS[*field]));
                    }
                }
            }
        }
        if suspects.is_empty() {
            // 4. Unlocalized alarm: patience, then failover.
            self.unlocalized_alarms += 1;
            let failover = self.unlocalized_alarms >= UNLOCALIZED_PATIENCE && healthy_peers > 0;
            if failover {
                self.state = MemberState::Failed;
            }
            return Ok(Some(Decision::Unlocalized {
                consecutive: self.unlocalized_alarms,
                failover,
            }));
        }
        for &key in &suspects {
            self.screen.quarantine_channel(key.0, key.1, key.2);
            if !self.flagged.contains(&key) {
                self.flagged.push(key);
            }
        }
        self.flag_suspect();
        Ok(Some(Decision::SensorQuarantine { suspects }))
    }
}

/// A mid-stream compromise: trojan conditions landing on one member at a
/// given global batch index.
#[derive(Debug, Clone)]
pub struct Compromise<'a> {
    /// Which member is compromised.
    pub member: usize,
    /// Global micro-batch index at which the trojan activates.
    pub onset_batch: u64,
    /// The injected fault conditions.
    pub conditions: &'a ConditionMap,
}

/// A benign fault landing on one member: a fully expanded [`FaultPlan`]
/// (sensor corruption, a crash, or both — the plan says which).
#[derive(Debug, Clone)]
pub struct MemberFault<'a> {
    /// Which member the fault hits.
    pub member: usize,
    /// The expanded plan. Its `onset_batch` is a *global* micro-batch
    /// index, like [`Compromise::onset_batch`].
    pub plan: &'a FaultPlan,
}

/// Everything a served stream produced.
#[derive(Debug, Clone)]
pub struct StreamOutcome {
    /// Per-request outcomes, in arrival order.
    pub outcomes: Vec<RequestOutcome>,
    /// Policy events, in decision order.
    pub events: Vec<PolicyEvent>,
    /// Requests left unserved because the routing set emptied out.
    pub unserved: usize,
    /// Requests shed at admission (the bounded queue was full).
    pub shed: usize,
    /// Virtual ticks the stream spanned, idle gaps included.
    pub ticks: u64,
}

impl StreamOutcome {
    /// Classification accuracy over the outcomes whose global batch index
    /// lies in `batches`, or `NaN` when the range holds no requests.
    ///
    /// Ground truth lives with the *evaluation*, not the runtime: `labels`
    /// is indexed by request id (the stream position), so the hot-path
    /// outcome never carries the answer key.
    #[must_use]
    pub fn accuracy_in(&self, batches: Range<u64>, labels: &[usize]) -> f64 {
        let mut total = 0usize;
        let mut correct = 0usize;
        for o in &self.outcomes {
            if batches.contains(&o.batch) {
                total += 1;
                correct += usize::from(labels.get(o.id as usize) == Some(&o.prediction));
            }
        }
        if total == 0 {
            f64::NAN
        } else {
            correct as f64 / total as f64
        }
    }

    /// Fraction of all requests (served, unserved and shed) answered by a
    /// member that was not compromised-and-unremediated at the time.
    /// Remediation is what the operator *did*, not a claim the attack
    /// vanished: the residual quality of remediated service shows up in
    /// the recovered accuracy, which is measured against labels.
    #[must_use]
    pub fn availability(&self) -> f64 {
        let total = self.outcomes.len() + self.unserved + self.shed;
        if total == 0 {
            return 1.0;
        }
        self.healthy() as f64 / total as f64
    }

    /// Requests served by a member that was not compromised-and-
    /// unremediated at the time (the numerator of [`Self::availability`]).
    #[must_use]
    pub fn healthy(&self) -> usize {
        self.outcomes.iter().filter(|o| !o.degraded_service).count()
    }

    /// Ascending-sorted per-request service latencies in virtual ticks,
    /// ready for [`safelight_obs::percentile`].
    #[must_use]
    pub fn sorted_latencies(&self) -> Vec<f64> {
        let mut latencies: Vec<f64> = self.outcomes.iter().map(|o| o.service_latency).collect();
        latencies.sort_by(|a, b| a.total_cmp(b));
        latencies
    }

    /// Sustained throughput in requests per virtual tick (`NaN` when no
    /// tick elapsed).
    #[must_use]
    pub fn throughput(&self) -> f64 {
        if self.ticks == 0 {
            f64::NAN
        } else {
            self.outcomes.len() as f64 / self.ticks as f64
        }
    }

    /// Fraction of offered requests shed at admission.
    #[must_use]
    pub fn shed_rate(&self) -> f64 {
        let total = self.outcomes.len() + self.unserved + self.shed;
        if total == 0 {
            0.0
        } else {
            self.shed as f64 / total as f64
        }
    }
}

/// The per-batch predictions of a clean reference stream, keyed by each
/// batch's exact request-id list (in dealt order).
///
/// Every backend's forward pass is a pure function of the effective
/// network's bits and the batch, so a pristine member (see
/// [`Fleet::set_reference`]) dealt the same ids would compute exactly
/// these predictions.
#[derive(Debug, Clone, Default)]
pub struct CleanPredictions {
    by_ids: HashMap<Vec<u64>, Vec<usize>>,
}

impl CleanPredictions {
    /// Collects the predictions of every batch `stream` served. Every
    /// batch must have come from a pristine member: a fleet cloned from
    /// the prototype the consuming fleets clone, with no compromise, fault
    /// or response applied.
    #[must_use]
    pub fn from_stream(stream: &StreamOutcome) -> Self {
        let by_ids = stream
            .outcomes
            .chunk_by(|a, b| a.batch == b.batch)
            .map(|batch| {
                (
                    batch.iter().map(|o| o.id).collect(),
                    batch.iter().map(|o| o.prediction).collect(),
                )
            })
            .collect();
        Self { by_ids }
    }

    /// The stored predictions of the batch holding the requests at stream
    /// positions `ids`, if the reference served exactly that batch.
    fn lookup(&self, requests: &[Request], ids: &[usize]) -> Option<&[usize]> {
        let key: Vec<u64> = ids.iter().map(|&i| requests[i].id).collect();
        self.by_ids.get(&key).map(Vec::as_slice)
    }
}

/// A fleet of simulated accelerators serving one model behind the
/// micro-batching scheduler.
pub struct Fleet {
    members: Vec<FleetMember>,
    policy: PolicyConfig,
    /// Optional observability sink: when attached, the tick loop and the
    /// response policy emit structured trace events and metrics to it.
    observer: Option<Arc<ServeObserver>>,
    /// Optional clean reference predictions pristine members reuse.
    reference: Option<Arc<CleanPredictions>>,
    /// Policy decisions of the stream in flight, in decision order.
    events: Vec<PolicyEvent>,
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("members", &self.members)
            .field("policy", &self.policy)
            .finish()
    }
}

impl Fleet {
    /// Assembles a fleet. `members` must be non-empty and, with inline
    /// detection on, carry exactly one policy threshold per detector.
    ///
    /// # Errors
    ///
    /// Returns [`SafelightError::InvalidParameter`] on an empty member
    /// list, and when inline detection is on and a member's detector suite
    /// is not as long as `policy.thresholds` (scores are matched to
    /// thresholds by position, so an unmatched detector could never alarm).
    pub fn new(members: Vec<FleetMember>, policy: PolicyConfig) -> Result<Self, SafelightError> {
        if members.is_empty() {
            return Err(SafelightError::InvalidParameter {
                name: "fleet members",
                value: 0.0,
            });
        }
        if policy.inline_detection
            && members
                .iter()
                .any(|m| m.suite.len() != policy.thresholds.len())
        {
            return Err(SafelightError::InvalidParameter {
                name: "policy thresholds",
                value: policy.thresholds.len() as f64,
            });
        }
        Ok(Self {
            members,
            policy,
            observer: None,
            reference: None,
            events: Vec::new(),
        })
    }

    /// Attaches (or detaches, with `None`) an observability sink. The
    /// observer's lifetime should span exactly one served stream: its
    /// tracer accumulates events until [`ServeObserver::drain`].
    pub fn set_observer(&mut self, observer: Option<Arc<ServeObserver>>) {
        self.observer = observer;
    }

    /// Attaches (or detaches, with `None`) the predictions of a clean
    /// reference stream over the same requests. A member that is still
    /// pristine — a clone of the prototype that served the reference,
    /// not re-derived since — takes the stored predictions of a batch with
    /// the exact same request ids instead of running its forward pass.
    /// Telemetry, scoring and the response policy run as before, so the
    /// served stream is identical with or without the table.
    pub fn set_reference(&mut self, reference: Option<Arc<CleanPredictions>>) {
        self.reference = reference;
    }

    /// The attached observability sink, if any.
    #[must_use]
    pub fn observer(&self) -> Option<&ServeObserver> {
        self.observer.as_deref()
    }

    /// The fleet's members.
    #[must_use]
    pub fn members(&self) -> &[FleetMember] {
        &self.members
    }

    /// The active policy.
    #[must_use]
    pub fn policy(&self) -> &PolicyConfig {
        &self.policy
    }

    /// Members currently in the routing set.
    #[must_use]
    pub fn active_members(&self) -> usize {
        self.members.iter().filter(|m| m.serves()).count()
    }

    /// The open-loop request plane: serves `requests` through a bounded
    /// admission queue in virtual time.
    ///
    /// Tick `t` spans virtual time `[t, t+1)`. At the start of each tick
    /// every request whose [`Request::arrived_at`] stamp has been reached
    /// is offered to the admission queue in stream order — admission
    /// never reorders — and shed (counted, never served) when the queue
    /// holds `queue_capacity` requests. The continuous batcher then pops
    /// up to `batch_size` requests per active member off the queue front,
    /// so each tick's micro-batches hold whatever has arrived instead of
    /// a pre-partitioned chunk. A batch dispatched at tick `t` completes
    /// at `t + 1`; per-request queue delay and service latency are
    /// recorded on the outcome in tick units. When the queue runs empty
    /// the clock jumps to the next arrival instead of spinning.
    ///
    /// With an unbounded queue (`usize::MAX`) and every request stamped
    /// `0.0` this is the closed loop's contiguous
    /// [`crate::scheduler::partition`] schedule. An optional [`Compromise`]
    /// lands on its member at its batch index; an optional [`MemberFault`]
    /// is armed up front (a crash plan takes the member through
    /// [`MemberState::Restarting`] and cache recovery), and the two
    /// compose on one fleet.
    ///
    /// Response-policy time (compromise/crash onsets, restart windows,
    /// remap backoff) stays in *dispatched-batch* units, exactly as in
    /// the closed loop, so closed-loop acceptance numbers remain
    /// comparable. Everything — arrivals, routing, noise, policy — is
    /// deterministic in `(requests, seed)` and independent of `threads`.
    ///
    /// # Errors
    ///
    /// Propagates forward-pass, derivation and recalibration errors, and
    /// rejects out-of-range member indices.
    #[allow(clippy::too_many_arguments)]
    pub fn serve_queue(
        &mut self,
        requests: &[Request],
        batch_size: usize,
        queue_capacity: usize,
        compromise: Option<Compromise<'_>>,
        fault: Option<MemberFault<'_>>,
        seed: u64,
        threads: usize,
    ) -> Result<StreamOutcome, SafelightError> {
        if let Some(c) = &compromise {
            if c.member >= self.members.len() {
                return Err(SafelightError::InvalidParameter {
                    name: "compromised member",
                    value: c.member as f64,
                });
            }
        }
        if let Some(f) = &fault {
            if f.member >= self.members.len() {
                return Err(SafelightError::InvalidParameter {
                    name: "faulted member",
                    value: f.member as f64,
                });
            }
        }
        let mut queue = AdmissionQueue::new(queue_capacity);
        let mut outcomes = Vec::with_capacity(requests.len());
        self.events.clear();
        // `next_batch` is the global dispatched-batch counter — the same
        // clock the closed loop called `next`, so every policy gating
        // formula below is unchanged. `tick` is the virtual-time clock.
        let mut next_batch = 0usize;
        let mut tick = 0u64;
        let mut next_arrival = 0usize;
        let mut compromise_pending = compromise;
        // Sensor faults arm up front — FaultPlan::corrupt gates itself on
        // the onset batch. The crash (if any) is activated by the tick
        // loop, so the member's last pre-crash batches still serve.
        let mut crash_pending: Option<(usize, u64)> = None;
        if let Some(f) = &fault {
            self.members[f.member].arm_fault(f.plan);
            if f.plan.crash {
                crash_pending = Some((f.member, f.plan.onset_batch));
            }
        }
        // The policy is never mutated mid-stream; one clone outlives the
        // member borrows the tick loop takes.
        let policy = self.policy.clone();
        let obs = self.observer.clone();
        let reference = self.reference.clone();
        let mut prev_shed = 0usize;
        loop {
            // Admission: offer everything that has arrived by this tick,
            // in stream order. The queue sheds beyond its capacity.
            let arrivals_before = next_arrival;
            while next_arrival < requests.len() && requests[next_arrival].arrived_at <= tick as f64
            {
                queue.offer(next_arrival);
                next_arrival += 1;
            }
            if let Some(o) = &obs {
                let shed_now = queue.shed() - prev_shed;
                prev_shed = queue.shed();
                let admitted = (next_arrival - arrivals_before - shed_now) as u64;
                o.admission(tick, admitted, shed_now as u64, queue.len());
            }
            if queue.is_empty() {
                if next_arrival >= requests.len() {
                    break; // stream drained
                }
                // Idle: jump the virtual clock to the next arrival
                // instead of burning empty ticks.
                tick = (requests[next_arrival].arrived_at.ceil() as u64).max(tick + 1);
                continue;
            }
            // Pending work in batch units, the closed loop's `remaining`:
            // it caps how many members are dealt a batch this tick and
            // anchors the rank-based onset gating below.
            let remaining = queue.len().div_ceil(batch_size.max(1));
            // Recoveries due this tick: a restarting member whose window
            // elapsed rejoins from the model cache before work is dealt.
            self.recover_restarting(tick, next_batch as u64, seed, false)?;
            if let Some((member_id, onset)) = crash_pending {
                let due_at = self.next_batch_of(member_id, next_batch, remaining);
                if due_at >= onset {
                    crash_pending = None;
                    let member = &mut self.members[member_id];
                    if member.state != MemberState::Failed {
                        let restart_until = due_at + RESTART_BATCHES;
                        member.state = MemberState::Restarting;
                        member.restart_until = Some(restart_until);
                        self.record(
                            tick,
                            PolicyEvent {
                                batch: due_at,
                                member: member_id,
                                score: 0.0,
                                decision: Decision::Crash { restart_until },
                            },
                        );
                    }
                }
            }
            if let Some(c) = &compromise_pending {
                if self.next_batch_of(c.member, next_batch, remaining) >= c.onset_batch {
                    self.members[c.member].apply_compromise(c.conditions)?;
                    if let Some(o) = &obs {
                        o.compromise(tick, next_batch as u64, c.member);
                    }
                    compromise_pending = None;
                }
            }
            if self.active_members() == 0 {
                // The entire routing set is down. When members are coming
                // back the stream simply waits out the restart window (no
                // request could be served during it either way), so the
                // recovery is fast-forwarded instead of spinning.
                if !self.recover_restarting(tick, next_batch as u64, seed, true)? {
                    break; // routing set exhausted — remaining requests unserved
                }
                continue;
            }
            // Continuous batching: pop one micro-batch per active member
            // (member order) off the queue front. With everything arrived
            // at time 0 this deals exactly the contiguous partition.
            let dealt: Vec<Vec<usize>> = self
                .members
                .iter()
                .filter(|m| m.serves())
                .take(remaining)
                .map(|_| queue.take_batch(batch_size))
                .collect();
            let tasks: Vec<(&mut FleetMember, u64, Vec<usize>)> = self
                .members
                .iter_mut()
                .filter(|m| m.serves())
                .zip(dealt)
                .enumerate()
                .map(|(i, (m, ids))| (m, (next_batch + i) as u64, ids))
                .collect();
            let served = tasks.len();
            let results: Vec<Result<(ServedBatch, Vec<usize>), SafelightError>> =
                par_map(tasks, threads, |(member, bi, ids)| {
                    // Wall-clock is read only when observed; the timing
                    // rides the trace's uncommitted profile section, so
                    // the committed artifact stays machine-independent.
                    let start = obs.is_some().then(Instant::now);
                    let batch = member.serve_batch(
                        requests,
                        &ids,
                        bi,
                        seed,
                        &policy,
                        reference.as_deref(),
                    )?;
                    if let Some(o) = &obs {
                        let wall = start.map_or(0, |s| s.elapsed().as_nanos() as u64);
                        o.batch_served(tick, &batch, ids.len(), wall);
                    }
                    Ok((batch, ids))
                });
            for result in results {
                let (batch, ids) = result?;
                let mut delays = obs.as_ref().map(|_| Vec::with_capacity(ids.len()));
                for (&idx, &prediction) in ids.iter().zip(&batch.predictions) {
                    let req = &requests[idx];
                    let queue_delay = tick as f64 - req.arrived_at;
                    if let Some(d) = &mut delays {
                        d.push((queue_delay, queue_delay + 1.0));
                    }
                    outcomes.push(RequestOutcome {
                        id: req.id,
                        prediction,
                        member: batch.member,
                        batch: batch.batch,
                        degraded_service: batch.degraded,
                        queue_delay,
                        service_latency: queue_delay + 1.0,
                    });
                }
                if let Some(o) = &obs {
                    o.batch_outcomes(&batch, delays.as_deref().unwrap_or(&[]));
                }
                if self.policy.respond && !batch.scores.is_empty() {
                    self.process_batch(&batch, tick, seed)?;
                }
            }
            next_batch += served;
            tick += 1;
        }
        let shed = queue.shed();
        let out = StreamOutcome {
            unserved: requests.len() - outcomes.len() - shed,
            outcomes,
            events: std::mem::take(&mut self.events),
            shed,
            ticks: tick,
        };
        if let Some(o) = &obs {
            o.stream_end(&out);
        }
        Ok(out)
    }

    /// Records one policy decision: the only place a decision joins the
    /// stream's event log and reaches the attached observer.
    fn record(&mut self, tick: u64, event: PolicyEvent) {
        if let Some(o) = &self.observer {
            o.record(tick, &event);
        }
        self.events.push(event);
    }

    /// The global batch index `member`'s own next batch carries this tick:
    /// ticks hand out several batch indices at once (one per member dealt
    /// work, in member order), so onsets gate on the member's rank rather
    /// than the tick start, which would slip them by up to
    /// `fleet_size − 1` batches. A member dealt nothing (failed, or out of
    /// work this tick) falls back to the stream position.
    fn next_batch_of(&self, member: usize, next_batch: usize, remaining: usize) -> u64 {
        self.members
            .iter()
            .filter(|m| m.serves())
            .take(remaining)
            .position(|m| m.id == member)
            .map_or(next_batch as u64, |rank| (next_batch + rank) as u64)
    }

    /// Brings restarting members back from the model cache at global
    /// batch `batch`: those whose restart window has elapsed, or with
    /// `fast_forward` every one of them, the window skipped. Each
    /// recovery is recorded once it succeeded, with its latency measured
    /// from the crash to the later of `batch` and the window's end (a
    /// fast-forwarded recovery takes the full window, not the batches
    /// that happened to elapse). Returns whether any member recovered.
    fn recover_restarting(
        &mut self,
        tick: u64,
        batch: u64,
        seed: u64,
        fast_forward: bool,
    ) -> Result<bool, SafelightError> {
        let frames = self.policy.recalibration_frames;
        let mut recovered = false;
        for i in 0..self.members.len() {
            let member = &mut self.members[i];
            let due = member.state == MemberState::Restarting
                && (fast_forward || member.restart_until.is_some_and(|until| batch >= until));
            if !due {
                continue;
            }
            let until = member.restart_until.unwrap_or(batch);
            member.recover_from_cache(seed, frames)?;
            recovered = true;
            self.record(
                tick,
                PolicyEvent {
                    batch,
                    member: i,
                    score: 0.0,
                    decision: Decision::Recover {
                        latency_batches: batch.max(until) - until.saturating_sub(RESTART_BATCHES),
                    },
                },
            );
        }
        Ok(recovered)
    }

    /// Runs the response policy on one scored batch — sensor-health
    /// bookkeeping, then the alarm rule — and records what it decided.
    fn process_batch(
        &mut self,
        batch: &ServedBatch,
        tick: u64,
        seed: u64,
    ) -> Result<(), SafelightError> {
        let _span = profile_span("process_batch");
        let healthy_peers = self
            .members
            .iter()
            .filter(|m| m.id != batch.member && m.serves())
            .count();
        let member = &mut self.members[batch.member];
        let screened = member.screen_batch(batch);
        let alarm = member.respond_to_alarm(batch, healthy_peers, &self.policy, seed)?;
        let score = batch.scores.iter().fold(0.0f64, |a, &s| a.max(s));
        for decision in [screened, alarm].into_iter().flatten() {
            self.record(
                tick,
                PolicyEvent {
                    batch: batch.batch,
                    member: batch.member,
                    score,
                    decision,
                },
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safelight::detect::default_detectors;
    use safelight_neuro::{Flatten, Layer, Linear};
    use safelight_onn::{AcceleratorConfig, AnalyticBackend, BlockConfig, LayerSpec};

    /// A 4-class identity classifier whose 16 FC weights occupy the first
    /// two banks of a 4-bank FC block — banks 2/3 are spare capacity.
    fn fixture() -> (Network, WeightMapping, AcceleratorConfig) {
        let mut net = Network::new();
        net.push(Flatten::new());
        let mut fc = Linear::new(4, 4, 3).unwrap();
        let mut w = vec![0.05f32; 16];
        for i in 0..4 {
            w[i * 4 + i] = 0.9;
        }
        fc.params_mut()[0].value = Tensor::from_vec(vec![4, 4], w).unwrap();
        net.push(fc);
        let config = AcceleratorConfig::custom(
            BlockConfig {
                vdp_units: 2,
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
        let mapping =
            WeightMapping::new(&config, &[LayerSpec::new("fc", BlockKind::Fc, 16)]).unwrap();
        (net, mapping, config)
    }

    /// One-hot requests whose ground-truth class equals the hot index:
    /// the clean identity classifier answers them all correctly. Ground
    /// truth lives in [`labels`], not on the request.
    fn requests(count: usize) -> Vec<Request> {
        (0..count)
            .map(|i| {
                let class = i % 4;
                let mut data = vec![0.0f32; 4];
                data[class] = 1.0;
                Request {
                    id: i as u64,
                    input: Tensor::from_vec(vec![1, 2, 2], data).unwrap(),
                    arrived_at: 0.0,
                }
            })
            .collect()
    }

    /// The answer key for [`requests`], indexed by request id.
    fn labels(count: usize) -> Vec<usize> {
        (0..count).map(|i| i % 4).collect()
    }

    fn calibrated_parts(
        net: &Network,
        mapping: &WeightMapping,
        config: &AcceleratorConfig,
    ) -> (Vec<Box<dyn Detector>>, GuardBandDetector, Vec<f64>) {
        let sentinels = SentinelPlan::new(mapping, config, 4);
        let probe =
            TelemetryProbe::new(net, mapping, &ConditionMap::new(), config, &sentinels).unwrap();
        let frames: Vec<TelemetryFrame> = (0..48).map(|b| probe.frame(b, 0xCA1)).collect();
        let mut suite = default_detectors();
        for d in &mut suite {
            d.calibrate(&frames).unwrap();
        }
        let mut guard = GuardBandDetector::default();
        guard.calibrate(&frames).unwrap();
        let thresholds = crate::eval::operating_thresholds(&probe, &mut suite, 24, 24, 0xCA1);
        (suite, guard, thresholds)
    }

    fn make_fleet(size: usize, respond: bool) -> (Fleet, Vec<Request>) {
        let (net, mapping, config) = fixture();
        let (suite, guard, thresholds) = calibrated_parts(&net, &mapping, &config);
        let members = (0..size)
            .map(|id| {
                FleetMember::new(
                    id,
                    &net,
                    mapping.clone(),
                    Box::new(AnalyticBackend::new(&config)),
                    4,
                    suite.iter().map(|d| d.clone_box()).collect(),
                    guard.clone(),
                )
                .unwrap()
            })
            .collect();
        let policy = if respond {
            PolicyConfig::new(thresholds)
        } else {
            PolicyConfig::baseline(thresholds)
        };
        (Fleet::new(members, policy).unwrap(), requests(96))
    }

    #[test]
    fn mismatched_thresholds_are_rejected() {
        let (fleet, _) = make_fleet(2, true);
        let Fleet {
            members, policy, ..
        } = fleet;
        let detectors = policy.thresholds.len();
        assert!(detectors > 1);
        let short = PolicyConfig::new(policy.thresholds[..detectors - 1].to_vec());
        assert!(matches!(
            Fleet::new(members, short),
            Err(SafelightError::InvalidParameter {
                name: "policy thresholds",
                ..
            })
        ));
        // Without inline detection no score is ever compared to a
        // threshold, so an empty list is fine.
        let (fleet, _) = make_fleet(1, false);
        assert!(Fleet::new(fleet.members, PolicyConfig::without_detection()).is_ok());
    }

    /// `(quarantined banks, remapped rings, unplaced rings)` of a remap.
    fn remap_of(e: &PolicyEvent) -> Option<(usize, usize, usize)> {
        match e.decision {
            Decision::Implicate {
                disposition:
                    Disposition::Remap {
                        quarantined_banks,
                        remapped_rings,
                        unplaced_rings,
                        ..
                    },
                ..
            } => Some((quarantined_banks, remapped_rings, unplaced_rings)),
            _ => None,
        }
    }

    /// Whether the event took the member out of the routing set for good.
    fn is_failover(e: &PolicyEvent) -> bool {
        matches!(
            e.decision,
            Decision::Implicate {
                disposition: Disposition::Failover,
                ..
            } | Decision::Unlocalized { failover: true, .. }
        )
    }

    /// Park every ring of FC bank 0 — a localized, devastating compromise.
    fn bank0_attack() -> ConditionMap {
        let mut map = ConditionMap::new();
        for ring in 0..8 {
            map.set(BlockKind::Fc, ring, MrCondition::Parked);
        }
        map
    }

    #[test]
    fn clean_stream_serves_every_request_in_order() {
        let (mut fleet, reqs) = make_fleet(2, true);
        let out = fleet
            .serve_queue(&reqs, 8, usize::MAX, None, None, 7, 2)
            .unwrap();
        assert_eq!(out.outcomes.len(), reqs.len());
        assert_eq!(out.unserved, 0);
        assert!(
            out.events.is_empty(),
            "clean stream alarmed: {:?}",
            out.events
        );
        // Arrival order preserved, all correct, availability 1.
        let key = labels(reqs.len());
        for (i, o) in out.outcomes.iter().enumerate() {
            assert_eq!(o.id, i as u64);
            assert_eq!(o.prediction, key[i]);
            assert!(!o.degraded_service);
            // Closed loop: everything arrived at time 0, so the service
            // latency is the dispatch tick plus the one execution tick.
            assert_eq!(o.queue_delay, (o.batch / 2) as f64);
            assert_eq!(o.service_latency, o.queue_delay + 1.0);
        }
        assert_eq!(out.availability(), 1.0);
        assert_eq!(out.shed, 0);
        assert_eq!(out.ticks, 6); // 12 batches over 2 members
        assert_eq!(out.throughput(), 16.0);
    }

    #[test]
    fn closed_loop_remaps_and_recovers() {
        let (mut fleet, reqs) = make_fleet(2, true);
        let attack = bank0_attack();
        let out = fleet
            .serve_queue(
                &reqs,
                8,
                usize::MAX,
                Some(Compromise {
                    member: 0,
                    onset_batch: 4,
                    conditions: &attack,
                }),
                None,
                7,
                2,
            )
            .unwrap();
        // The compromise is localized to one bank with spare capacity on
        // the same die: the policy remaps instead of failing over.
        let remap = out
            .events
            .iter()
            .find(|e| remap_of(e).is_some())
            .expect("no remap event");
        assert_eq!(remap.member, 0);
        assert!(remap.batch >= 4);
        assert_eq!(remap_of(remap), Some((1, 8, 0)));
        assert_eq!(fleet.members()[0].remediations(), 1);
        assert!(fleet.members()[0].serves());
        // Post-recovery traffic is answered correctly again.
        let recovered = out.accuracy_in(remap.batch + 1..u64::MAX, &labels(reqs.len()));
        assert!(
            recovered > 0.99,
            "post-remap accuracy {recovered} ({:?})",
            out.events
        );
        // The degraded window is confined to member 0's pre-remap batches.
        assert!(out.availability() < 1.0);
        assert!(out.availability() > 0.8);
    }

    #[test]
    fn baseline_policy_stays_degraded() {
        let (mut fleet, reqs) = make_fleet(2, false);
        let attack = bank0_attack();
        let out = fleet
            .serve_queue(
                &reqs,
                8,
                usize::MAX,
                Some(Compromise {
                    member: 0,
                    onset_batch: 4,
                    conditions: &attack,
                }),
                None,
                7,
                1,
            )
            .unwrap();
        assert!(out.events.is_empty());
        // Member 0 keeps mis-serving its share: post-onset accuracy stays
        // well below the clean 1.0.
        let post = out.accuracy_in(4..u64::MAX, &labels(reqs.len()));
        assert!(post < 0.95, "baseline post-onset accuracy {post}");
        assert!(out.availability() < 0.8);
    }

    #[test]
    fn spare_exhaustion_fails_over_to_the_healthy_peer() {
        let (mut fleet, reqs) = make_fleet(2, true);
        // Park *every* FC ring: quarantine wants the whole block, the
        // spare pool cannot absorb it, and the shard must fail over.
        let mut attack = ConditionMap::new();
        for ring in 0..32 {
            attack.set(BlockKind::Fc, ring, MrCondition::Parked);
        }
        let out = fleet
            .serve_queue(
                &reqs,
                8,
                usize::MAX,
                Some(Compromise {
                    member: 0,
                    onset_batch: 4,
                    conditions: &attack,
                }),
                None,
                7,
                2,
            )
            .unwrap();
        let failover = out
            .events
            .iter()
            .find(|e| is_failover(e))
            .expect("no failover event");
        assert_eq!(failover.member, 0);
        assert!(!fleet.members()[0].serves());
        assert_eq!(fleet.active_members(), 1);
        // Everything after the failover is served clean by member 1.
        let recovered = out.accuracy_in(failover.batch + 1..u64::MAX, &labels(reqs.len()));
        assert!(recovered > 0.99, "post-failover accuracy {recovered}");
        assert_eq!(out.unserved, 0);
        let post_failover: Vec<_> = out
            .outcomes
            .iter()
            .filter(|o| o.batch > failover.batch)
            .collect();
        assert!(post_failover.iter().all(|o| o.member == 1));
        assert!(!post_failover.is_empty());
    }

    #[test]
    fn last_member_degrades_gracefully_when_every_member_is_compromised() {
        let (mut fleet, reqs) = make_fleet(2, true);
        // Park *every* FC ring on *every* member: no remap can fully place,
        // and there is no clean peer to hide behind.
        let mut attack = ConditionMap::new();
        for ring in 0..32 {
            attack.set(BlockKind::Fc, ring, MrCondition::Parked);
        }
        for member in &mut fleet.members {
            member.apply_compromise(&attack).unwrap();
        }
        let out = fleet
            .serve_queue(&reqs, 8, usize::MAX, None, None, 7, 2)
            .unwrap();
        // One member exhausts its remap retries and fails over...
        let failover = out
            .events
            .iter()
            .find(|e| is_failover(e))
            .expect("no failover event");
        // ...but the last member must NOT fail over into an empty routing
        // set: it takes the partial-remap graceful-degradation branch
        // (parking unplaced parameters) and keeps serving.
        let partial = out
            .events
            .iter()
            .find(|e| remap_of(e).is_some_and(|(_, _, unplaced)| unplaced > 0))
            .expect("no partial remap event");
        assert_ne!(partial.member, failover.member);
        assert_eq!(fleet.active_members(), 1);
        assert_eq!(out.unserved, 0, "graceful degradation dropped requests");
        assert_eq!(out.outcomes.len(), reqs.len());
    }

    #[test]
    fn dead_sensors_raise_maintenance_not_quarantine() {
        use safelight::fault::{inject_fault, FaultSpec};
        let (mut fleet, reqs) = make_fleet(2, true);
        let (_, mapping, config) = fixture();
        let sentinels = SentinelPlan::new(&mapping, &config, 4);
        let counts = (
            sentinels.sites(BlockKind::Conv).len(),
            sentinels.sites(BlockKind::Fc).len(),
        );
        let spec: FaultSpec = "dead:drop/fc/0.5/2/0".parse().unwrap();
        let plan = inject_fault(&spec, &config, counts, 7).unwrap();
        let out = fleet
            .serve_queue(
                &reqs,
                8,
                usize::MAX,
                None,
                Some(MemberFault {
                    member: 0,
                    plan: &plan,
                }),
                7,
                2,
            )
            .unwrap();
        // The dead drop-port monitors are masked and flagged for
        // maintenance — never treated as a trojan.
        assert!(
            out.events
                .iter()
                .any(|e| matches!(e.decision, Decision::SensorMask { total_masked, .. } if total_masked > 0)),
            "no maintenance event: {:?}",
            out.events
        );
        assert!(
            !out.events
                .iter()
                .any(|e| remap_of(e).is_some() || is_failover(e)),
            "benign sensor fault spent spares: {:?}",
            out.events
        );
        // The member keeps serving (Suspect, not Failed), with full
        // accuracy: a broken sensor does not degrade the datapath.
        assert_eq!(fleet.members()[0].state(), MemberState::Suspect);
        assert_eq!(fleet.active_members(), 2);
        assert_eq!(out.unserved, 0);
        assert_eq!(out.accuracy_in(0..u64::MAX, &labels(reqs.len())), 1.0);
        assert_eq!(out.availability(), 1.0);
    }

    #[test]
    fn crash_recovers_from_cache_and_rejoins() {
        let (mut fleet, reqs) = make_fleet(2, true);
        let plan = FaultPlan {
            onset_batch: 4,
            sensors: Vec::new(),
            crash: true,
        };
        let out = fleet
            .serve_queue(
                &reqs,
                8,
                usize::MAX,
                None,
                Some(MemberFault {
                    member: 0,
                    plan: &plan,
                }),
                7,
                2,
            )
            .unwrap();
        let crash = out
            .events
            .iter()
            .find(|e| matches!(e.decision, Decision::Crash { .. }))
            .expect("no crash event");
        let recover = out
            .events
            .iter()
            .find(|e| matches!(e.decision, Decision::Recover { .. }))
            .expect("no recover event");
        assert_eq!(crash.member, 0);
        assert_eq!(recover.member, 0);
        assert!(recover.batch >= crash.batch + 2, "{:?}", out.events);
        assert_eq!(fleet.members()[0].restarts(), 1);
        assert!(fleet.members()[0].serves());
        // No request is lost to the crash (the peer absorbs the traffic),
        // and the recovered member serves clean again.
        assert_eq!(out.unserved, 0);
        assert_eq!(out.accuracy_in(0..u64::MAX, &labels(reqs.len())), 1.0);
        assert!(
            out.outcomes
                .iter()
                .any(|o| o.member == 0 && o.batch > recover.batch),
            "member 0 never served after recovery"
        );
    }

    /// Serves `reqs` (8 per batch) on two fresh responding 2-member
    /// fleets, one of them holding the clean reference predictions of the
    /// same stream, and asserts the two streams are identical. Returns the
    /// stream and the clean reference stream.
    fn assert_reuse_is_exact(
        reqs: &[Request],
        capacity: usize,
        compromise: Option<Compromise<'_>>,
        fault: Option<MemberFault<'_>>,
    ) -> (StreamOutcome, StreamOutcome) {
        let (mut clean, _) = make_fleet(2, false);
        let reference = clean
            .serve_queue(reqs, 8, capacity, None, None, 3, 2)
            .unwrap();
        let table = Arc::new(CleanPredictions::from_stream(&reference));
        let run = |table: Option<Arc<CleanPredictions>>| {
            let (mut fleet, _) = make_fleet(2, true);
            fleet.set_reference(table);
            fleet
                .serve_queue(reqs, 8, capacity, compromise.clone(), fault.clone(), 7, 2)
                .unwrap()
        };
        let computed = run(None);
        let reused = run(Some(table));
        assert_eq!(computed.outcomes, reused.outcomes);
        assert_eq!(computed.events, reused.events);
        assert_eq!(
            (computed.unserved, computed.shed, computed.ticks),
            (reused.unserved, reused.shed, reused.ticks)
        );
        (reused, reference)
    }

    /// The request ids of every batch `stream` served, in batch order.
    fn batch_ids(stream: &StreamOutcome) -> Vec<Vec<u64>> {
        stream
            .outcomes
            .chunk_by(|a, b| a.batch == b.batch)
            .map(|batch| batch.iter().map(|o| o.id).collect())
            .collect()
    }

    #[test]
    fn clean_reference_reuse_is_exact_across_a_mid_stream_rederive() {
        let attack = bank0_attack();
        let reqs = requests(96);
        let (out, reference) = assert_reuse_is_exact(
            &reqs,
            usize::MAX,
            Some(Compromise {
                member: 0,
                onset_batch: 4,
                conditions: &attack,
            }),
            None,
        );
        // The closed loop deals the reference's batches, and the trojan
        // changes member 0's answers on some of them: a member that kept
        // reusing after its re-derive would answer like the clean fleet.
        assert_eq!(batch_ids(&out), batch_ids(&reference));
        let clean: HashMap<u64, usize> = reference
            .outcomes
            .iter()
            .map(|o| (o.id, o.prediction))
            .collect();
        assert!(out
            .outcomes
            .iter()
            .any(|o| o.member == 0 && o.prediction != clean[&o.id]));
        assert!(out.events.iter().any(|e| remap_of(e).is_some()));
    }

    #[test]
    fn clean_reference_reuse_is_exact_through_crash_and_recovery() {
        use crate::scheduler::ArrivalModel;
        let schedule = ArrivalModel::Bursty {
            rate: 14.0,
            burst: 12,
        }
        .schedule(240, 11);
        let mut reqs = requests(240);
        for (r, t) in reqs.iter_mut().zip(&schedule) {
            r.arrived_at = *t;
        }
        let plan = FaultPlan {
            onset_batch: 4,
            sensors: Vec::new(),
            crash: true,
        };
        let (out, reference) = assert_reuse_is_exact(
            &reqs,
            10,
            None,
            Some(MemberFault {
                member: 0,
                plan: &plan,
            }),
        );
        assert!(out
            .events
            .iter()
            .any(|e| matches!(e.decision, Decision::Recover { .. })));
        // The crash halves the fleet's capacity, so the bounded queue sheds
        // other requests than in the reference: some batches match a
        // reference batch exactly, others only share its first request.
        let served = batch_ids(&out);
        let known = batch_ids(&reference);
        assert!(served.iter().any(|b| known.contains(b)));
        assert!(served
            .iter()
            .any(|b| known.iter().any(|k| k[0] == b[0] && k != b)));
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(8))]
        /// The scheduler satellite property: for arbitrary stream lengths,
        /// batch sizes and fleet shapes, serving preserves request order,
        /// drops nothing, and produces byte-identical per-request outputs
        /// at 1 vs N worker threads — compromise and closed loop included.
        #[test]
        fn serving_is_thread_count_invariant(
            count in 1usize..120,
            batch_size in 1usize..13,
            fleet in 2usize..4,
            onset in 0u64..6,
        ) {
            let attack = bank0_attack();
            let run = |threads: usize| {
                let (mut fleet_rt, _) = make_fleet(fleet, true);
                let reqs = requests(count);
                fleet_rt
                    .serve_queue(&reqs, batch_size, usize::MAX, Some(Compromise {
                            member: 0,
                            onset_batch: onset,
                            conditions: &attack,
                        }), None, 13, threads)
                    .unwrap()
            };
            let a = run(1);
            let b = run(4);
            // Nothing dropped, order preserved.
            proptest::prop_assert_eq!(a.outcomes.len() + a.unserved, count);
            for (i, o) in a.outcomes.iter().enumerate() {
                proptest::prop_assert_eq!(o.id, i as u64);
            }
            // Byte-identical at 1 vs N threads.
            proptest::prop_assert_eq!(&a.outcomes, &b.outcomes);
            proptest::prop_assert_eq!(&a.events, &b.events);
            proptest::prop_assert_eq!(a.unserved, b.unserved);
        }
    }

    #[test]
    fn rederive_preserves_sentinels_on_multi_round_blocks() {
        // A CONV block that wraps (10 weights on 8 rings ⇒ 2 rounds) has
        // no *fully* idle rings, but SentinelPlan::new still provisions
        // sentinels on the final round's idle region (rings 2..8). A
        // regression here made rederive() rebuild the plan from
        // idle_slots() — empty for wrapped blocks — so every compromise
        // onset silently dropped the CONV sentinels and shifted the
        // telemetry baseline of *unattacked* banks.
        let mut net = Network::new();
        let mut conv_like = Linear::new(2, 5, 3).unwrap(); // 10 weights
        conv_like.params_mut()[0].value = Tensor::from_vec(vec![5, 2], vec![0.4; 10]).unwrap();
        net.push(Flatten::new());
        net.push(conv_like);
        let config = AcceleratorConfig::custom(
            BlockConfig {
                vdp_units: 2,
                bank_rows: 1,
                bank_cols: 4,
            }, // 8 CONV rings, wraps
            BlockConfig {
                vdp_units: 2,
                bank_rows: 2,
                bank_cols: 4,
            },
        )
        .unwrap();
        let mapping =
            WeightMapping::new(&config, &[LayerSpec::new("conv", BlockKind::Conv, 10)]).unwrap();
        let (suite, guard, _) = calibrated_parts(&net, &mapping, &config);
        let mut member = FleetMember::new(
            0,
            &net,
            mapping,
            Box::new(AnalyticBackend::new(&config)),
            4,
            suite,
            guard,
        )
        .unwrap();
        let factory_sites = member.sentinels().sites(BlockKind::Conv).to_vec();
        assert!(
            !factory_sites.is_empty(),
            "fixture must provision CONV sentinels"
        );
        let baseline = member.probe.noiseless(0);
        // An FC-only compromise must leave the CONV sentinels — and the
        // CONV banks' telemetry means — exactly where they were.
        let mut attack = ConditionMap::new();
        attack.set(BlockKind::Fc, 1, MrCondition::Parked);
        member.apply_compromise(&attack).unwrap();
        assert_eq!(member.sentinels().sites(BlockKind::Conv), factory_sites);
        let after = member.probe.noiseless(0);
        assert_eq!(after.conv, baseline.conv, "CONV telemetry baseline moved");
        assert_eq!(after.conv_sentinels, baseline.conv_sentinels);
    }

    #[test]
    fn outcomes_are_byte_identical_across_thread_counts() {
        let attack = bank0_attack();
        let run = |threads: usize| {
            let (mut fleet, reqs) = make_fleet(3, true);
            fleet
                .serve_queue(
                    &reqs,
                    8,
                    usize::MAX,
                    Some(Compromise {
                        member: 0,
                        onset_batch: 3,
                        conditions: &attack,
                    }),
                    None,
                    11,
                    threads,
                )
                .unwrap()
        };
        let a = run(1);
        let b = run(4);
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.events, b.events);
        assert_eq!(a.unserved, b.unserved);
    }

    /// The satellite regression: at arrival rate ∞ the continuous
    /// batcher reproduces `scheduler::partition` byte-for-byte — same
    /// contiguous batch membership, same global batch indices, same
    /// member round-robin — with the compromise onset and closed loop in
    /// play, so PR 4–6 acceptance numbers remain comparable.
    #[test]
    fn infinite_rate_reproduces_the_closed_loop_partition() {
        use crate::scheduler::partition;
        let attack = bank0_attack();
        for (count, batch_size, fleet_size) in [(96usize, 8usize, 2usize), (50, 7, 3)] {
            let (mut fleet, _) = make_fleet(fleet_size, true);
            let reqs = requests(count);
            let out = fleet
                .serve_queue(
                    &reqs,
                    batch_size,
                    usize::MAX,
                    Some(Compromise {
                        member: 0,
                        onset_batch: 3,
                        conditions: &attack,
                    }),
                    None,
                    11,
                    2,
                )
                .unwrap();
            assert_eq!(out.shed, 0, "an unbounded queue shed load");
            // Group served requests by global batch index and compare
            // against the pre-partitioned schedule.
            let ranges = partition(count, batch_size);
            let mut by_batch: Vec<Vec<u64>> = vec![Vec::new(); ranges.len()];
            let mut batch_member: Vec<Option<usize>> = vec![None; ranges.len()];
            for o in &out.outcomes {
                by_batch[o.batch as usize].push(o.id);
                assert!(batch_member[o.batch as usize].is_none_or(|m| m == o.member));
                batch_member[o.batch as usize] = Some(o.member);
            }
            for (b, range) in ranges.iter().enumerate() {
                let expected: Vec<u64> = (range.start as u64..range.end as u64).collect();
                assert_eq!(by_batch[b], expected, "batch {b} membership diverged");
            }
            // No member serves two batches in one tick, and batches are
            // dealt to active members in member order within a tick.
            let active = fleet.members().iter().filter(|m| m.serves()).count();
            assert!(active >= 1);
        }
    }

    /// Open-loop serving at a finite rate: admission preserves order,
    /// the bounded queue sheds exactly the overflow, latency fields are
    /// consistent, and the result is thread-count invariant.
    #[test]
    fn finite_rate_stream_sheds_and_stays_deterministic() {
        use crate::scheduler::ArrivalModel;
        let model = ArrivalModel::Bursty {
            rate: 24.0,
            burst: 12,
        };
        let schedule = model.schedule(96, 11);
        let mut reqs = requests(96);
        for (r, t) in reqs.iter_mut().zip(&schedule) {
            r.arrived_at = *t;
        }
        let run = |threads: usize| {
            let (mut fleet, _) = make_fleet(2, true);
            fleet
                .serve_queue(&reqs, 8, 10, None, None, 7, threads)
                .unwrap()
        };
        let out = run(1);
        // Heavy bursts into a 10-deep queue on a 16-requests-per-tick
        // fleet must shed something, and everything admitted is served.
        assert!(out.shed > 0, "burst load never overflowed the queue");
        assert_eq!(out.outcomes.len() + out.shed, 96);
        assert_eq!(out.unserved, 0);
        assert!((out.shed_rate() - out.shed as f64 / 96.0).abs() < 1e-12);
        // Admitted requests come back in admission order with sane
        // latency accounting.
        for w in out.outcomes.windows(2) {
            assert!(w[0].id < w[1].id);
        }
        for o in &out.outcomes {
            assert!(o.queue_delay >= 0.0);
            assert_eq!(o.service_latency, o.queue_delay + 1.0);
        }
        assert!(out.ticks > 0);
        let sorted = out.sorted_latencies();
        assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
        // Byte-identical across worker-thread counts at a finite rate.
        let other = run(4);
        assert_eq!(out.outcomes, other.outcomes);
        assert_eq!(out.events, other.events);
        assert_eq!((out.shed, out.ticks), (other.shed, other.ticks));
    }

    /// The obs histogram's percentile estimate on real serving latencies
    /// stays within one log-bucket width of the exact nearest-rank
    /// [`safelight_obs::percentile`] — the accuracy contract the
    /// serving metrics (`serve_latency_ticks` et al.) rely on.
    #[test]
    fn histogram_percentiles_track_exact_on_serving_latencies() {
        use crate::scheduler::ArrivalModel;
        use safelight_obs::{percentile, Histogram, HistogramConfig};
        let model = ArrivalModel::Bursty {
            rate: 24.0,
            burst: 12,
        };
        let schedule = model.schedule(96, 11);
        let mut reqs = requests(96);
        for (r, t) in reqs.iter_mut().zip(&schedule) {
            r.arrived_at = *t;
        }
        let (mut fleet, _) = make_fleet(2, true);
        let out = fleet.serve_queue(&reqs, 8, 10, None, None, 7, 2).unwrap();
        let sorted = out.sorted_latencies();
        assert!(sorted.len() >= 16, "want a real latency spread");
        assert!(sorted.last() > sorted.first(), "latencies all equal");
        let hist = Histogram::new(HistogramConfig::latency_ticks());
        for &v in &sorted {
            hist.observe(v);
        }
        let config = hist.config();
        for q in [0.5, 0.9, 0.99, 0.999] {
            let exact = percentile(&sorted, q);
            let est = hist.percentile(q);
            let bucket = config.bucket_of(exact);
            let width = if bucket == 0 {
                config.upper_bound(0)
            } else {
                config.upper_bound(bucket) - config.upper_bound(bucket - 1)
            };
            assert!(
                est >= exact && est - exact <= width,
                "q={q}: est {est} vs exact {exact} (bucket width {width})"
            );
        }
    }
}
