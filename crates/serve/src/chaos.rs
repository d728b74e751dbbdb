//! The chaos evaluation grid: benign hardware faults alone, trojans
//! alone, and fault+trojan overlap, each replayed as a request stream
//! against the fault-tolerant closed-loop runtime.
//!
//! Where [`eval`](crate::eval) asks *"does the policy catch and survive
//! the attack?"*, this module asks the complementary robustness
//! questions:
//!
//! * **fault-only** — does a dead/stuck/drifting sensor, a supply
//!   glitch or a member crash stay a *maintenance* event, or does the
//!   policy spuriously quarantine banks (spending spares) or fail the
//!   member over? The spurious-quarantine rate over these rows is the
//!   headline number;
//! * **trojan-only** — with the fault-discrimination logic in the loop,
//!   does the trojan true-positive rate survive? (A policy that explains
//!   every alarm away as a sensor fault would score zero here);
//! * **overlap** — a fault and a trojan active on the *same* member:
//!   does the benign fault mask the attack?
//!
//! One deliberate gap: a *drifting drop-current* sensor is excluded from
//! the grid because it is observationally indistinguishable from an
//! actuation trojan (both present as a persistent drop-power excursion).
//! The policy fails secure there — it quarantines — and the docs call
//! that out rather than the grid papering over it.
//!
//! Every noise draw derives from `(seed, fault spec, scenario spec,
//! batch)`, so the report and its CSV/JSON renderings are bitwise
//! independent of the worker-thread count.

use safelight::attack::{AttackTarget, ScenarioSpec, Selection, VectorSpec};
use safelight::detect::Detector;
use safelight::fault::{FaultSpec, FaultVector};
use safelight::SafelightError;
use safelight_neuro::{Dataset, Network};
use safelight_obs::{percentile, SloInput, SloVerdict};
use safelight_onn::{InferenceBackend, SensorChannel, WeightMapping};

use crate::eval::{run_cases, spec_stream_key, Case, ServingOptions};
use crate::observe::ObsArtifacts;
use crate::runtime::{fold, Decision, Disposition, StreamOutcome};
use crate::scheduler::ArrivalModel;

/// One cell of the chaos grid: an optional benign fault and an optional
/// trojan scenario, both landing on member 0 of the fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosCase {
    /// The benign fault, when this case injects one.
    pub fault: Option<FaultSpec>,
    /// The trojan scenario, when this case injects one.
    pub scenario: Option<ScenarioSpec>,
}

impl ChaosCase {
    /// A fault-only case.
    #[must_use]
    pub fn fault(spec: FaultSpec) -> Self {
        Self {
            fault: Some(spec),
            scenario: None,
        }
    }

    /// A trojan-only case.
    #[must_use]
    pub fn trojan(spec: ScenarioSpec) -> Self {
        Self {
            fault: None,
            scenario: Some(spec),
        }
    }

    /// A fault+trojan overlap case.
    #[must_use]
    pub fn overlap(fault: FaultSpec, scenario: ScenarioSpec) -> Self {
        Self {
            fault: Some(fault),
            scenario: Some(scenario),
        }
    }

    /// The case's kind label: `fault`, `trojan` or `overlap`.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match (&self.fault, &self.scenario) {
            (Some(_), None) => "fault",
            (None, Some(_)) => "trojan",
            (Some(_), Some(_)) => "overlap",
            (None, None) => "clean",
        }
    }
}

/// The canonical chaos grid with fault onset `onset` (the trojan onset is
/// always [`ServingOptions::onset_batch`]; the crash-under-attack case
/// crashes two batches after the trojan lands, the hardest ordering — the
/// compromised member recovers its *clean* cache while the physical
/// trojan persists).
#[must_use]
pub fn chaos_grid(onset: u64) -> Vec<ChaosCase> {
    let dead = |channel, target, fraction| {
        FaultSpec::new(FaultVector::DeadSensor { channel }, target, fraction, onset)
    };
    let targeted = |fraction| ScenarioSpec {
        selection: Selection::Targeted,
        ..ScenarioSpec::new(VectorSpec::Actuation, AttackTarget::Both, fraction, 0)
    };
    vec![
        // Benign faults alone: none of these should cost a spare.
        ChaosCase::fault(dead(SensorChannel::DropCurrent, AttackTarget::FcBlock, 0.5)),
        ChaosCase::fault(dead(SensorChannel::DeltaKelvin, AttackTarget::Both, 1.0)),
        ChaosCase::fault(dead(SensorChannel::Sentinel, AttackTarget::ConvBlock, 0.5)),
        ChaosCase::fault(FaultSpec::new(
            FaultVector::StuckSensor {
                channel: SensorChannel::DropCurrent,
            },
            AttackTarget::FcBlock,
            0.5,
            onset,
        )),
        ChaosCase::fault(FaultSpec::new(
            FaultVector::DriftSensor {
                channel: SensorChannel::DeltaKelvin,
                per_batch: 0.05,
                noise: 0.01,
            },
            AttackTarget::FcBlock,
            0.25,
            onset,
        )),
        ChaosCase::fault(FaultSpec::new(
            FaultVector::DriftSensor {
                channel: SensorChannel::RailPower,
                per_batch: -0.002,
                noise: 0.0005,
            },
            AttackTarget::Both,
            0.5,
            onset,
        )),
        ChaosCase::fault(FaultSpec::new(
            FaultVector::RailGlitch {
                depth: 0.3,
                duration: 2,
            },
            AttackTarget::Both,
            1.0,
            onset,
        )),
        ChaosCase::fault(FaultSpec::new(
            FaultVector::Crash,
            AttackTarget::Both,
            0.0,
            onset,
        )),
        // Trojans alone: the discrimination logic must not explain these
        // away. The 10 % targeted actuation row is the acceptance case.
        ChaosCase::trojan(targeted(0.10)),
        ChaosCase::trojan(ScenarioSpec::new(
            VectorSpec::Actuation,
            AttackTarget::FcBlock,
            0.05,
            0,
        )),
        ChaosCase::trojan(ScenarioSpec::new(
            VectorSpec::Actuation,
            AttackTarget::ConvBlock,
            0.10,
            0,
        )),
        // Overlap: fault and trojan on the same member.
        ChaosCase::overlap(
            dead(SensorChannel::DropCurrent, AttackTarget::FcBlock, 0.5),
            targeted(0.10),
        ),
        ChaosCase::overlap(
            FaultSpec::new(FaultVector::Crash, AttackTarget::Both, 0.0, onset + 2),
            targeted(0.10),
        ),
        ChaosCase::overlap(
            FaultSpec::new(
                FaultVector::RailGlitch {
                    depth: 0.3,
                    duration: 2,
                },
                AttackTarget::Both,
                1.0,
                onset,
            ),
            ScenarioSpec::new(VectorSpec::Actuation, AttackTarget::Both, 0.10, 0),
        ),
    ]
}

/// The chaos outcome of one grid case.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosRow {
    /// Case kind: `fault`, `trojan` or `overlap`.
    pub kind: String,
    /// The fault spec string, empty when the case injects no fault.
    pub fault: String,
    /// The scenario spec string, empty when the case injects no trojan.
    pub scenario: String,
    /// Whether the trojan was detected (post-onset alarm, remap or
    /// failover on the compromised member). `false` on fault-only rows.
    pub trojan_detected: bool,
    /// Whether spares were spent (or the member failed over) with no
    /// trojan to justify it: any remap/failover on a fault-only row, or
    /// one before the trojan onset on an overlap row.
    pub spurious_quarantine: bool,
    /// Maintenance events raised on the faulted member.
    pub maintenance_events: usize,
    /// Batches from crash to cache recovery (`NaN` when no crash fired).
    pub crash_recovery_batches: f64,
    /// Accuracy after the last remediation/recovery settled (from the
    /// earliest onset when nothing fired).
    pub post_accuracy: f64,
    /// Fraction of requests served by trustworthy members.
    pub availability: f64,
    /// Policy actions observed, joined by `+` (`none` when quiet).
    pub action: String,
    /// 99th-percentile service latency in virtual ticks.
    pub p99_latency: f64,
    /// Sustained throughput in requests per virtual tick.
    pub throughput: f64,
    /// Fraction of offered requests shed at admission.
    pub shed_rate: f64,
    /// The SLO verdict for this case, when the options carry a spec
    /// (spurious quarantines count against the spec's budget).
    pub slo: Option<SloVerdict>,
}

/// The full chaos-evaluation report.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    /// Detector names, in suite order.
    pub detectors: Vec<String>,
    /// Operating thresholds, aligned with `detectors`.
    pub thresholds: Vec<f64>,
    /// Accuracy of the clean fleet over the whole reference stream.
    pub clean_accuracy: f64,
    /// Stream shape: micro-batches served.
    pub batches: usize,
    /// Stream shape: requests per micro-batch.
    pub batch_size: usize,
    /// Fleet members.
    pub fleet_size: usize,
    /// Trojan onset batch (fault onsets live in each case's spec).
    pub onset_batch: u64,
    /// The arrival process the streams were replayed through.
    pub arrival: ArrivalModel,
    /// One row per grid case, in input order.
    pub rows: Vec<ChaosRow>,
    /// Fraction of fault-carrying rows with a spurious quarantine.
    pub spurious_quarantine_rate: f64,
    /// Fraction of trojan-only rows detected.
    pub trojan_tpr: f64,
    /// Fraction of overlap rows whose trojan went undetected.
    pub overlap_missed_rate: f64,
    /// Mean crash-to-recovery latency in batches (`NaN` when no row
    /// crashed).
    pub mean_crash_recovery_batches: f64,
}

impl ChaosReport {
    /// The rows of kind `kind` (`fault`, `trojan` or `overlap`).
    pub fn rows_of_kind<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a ChaosRow> {
        self.rows.iter().filter(move |r| r.kind == kind)
    }
}

/// A stable stream key of a chaos case: the fault and scenario keys
/// avalanche-mixed under a constant distinct from either engine's, so a
/// case's stream can never alias a plain serving or fault stream.
fn case_stream_key(case: &ChaosCase) -> u64 {
    let mut h = 0xC4A0_5ABC_D0D0_5EEDu64;
    if let Some(f) = &case.fault {
        h = fold(h, f.stream_key());
    }
    if let Some(s) = &case.scenario {
        h = fold(h, spec_stream_key(s));
    }
    h
}

/// Slices the stream outcome of one chaos case into its report row.
/// `labels` is the eval-side answer key, indexed by request id.
fn summarize_chaos(
    case: &ChaosCase,
    out: &StreamOutcome,
    labels: &[usize],
    opts: &ServingOptions,
) -> ChaosRow {
    let member = 0usize;
    // Continuous batching can form more (smaller) batches than the
    // closed loop's `opts.batches`; "stream end" is open-ended.
    let end = u64::MAX;
    let trojan_onset = opts.onset_batch;
    // The earliest instant anything lands on the member: the accuracy
    // window of a quiet row starts here.
    let first_onset = match (&case.fault, &case.scenario) {
        (Some(f), Some(_)) => f.onset_batch.min(trojan_onset),
        (Some(f), None) => f.onset_batch,
        _ => trojan_onset,
    };
    let mut actions: Vec<&str> = Vec::new();
    let mut trojan_detected = false;
    let mut spurious = false;
    let mut maintenance = 0usize;
    let mut crash_batch: Option<u64> = None;
    let mut recover_batch: Option<u64> = None;
    let mut settle: Option<u64> = None;
    for e in out.events.iter().filter(|e| e.member == member) {
        let label = match &e.decision {
            // A cleared mask ends a maintenance episode; it is no action.
            Decision::MaskClear => continue,
            Decision::SensorMask { .. }
            | Decision::RailGlitch { .. }
            | Decision::SensorQuarantine { .. } => {
                maintenance += 1;
                "maintenance"
            }
            Decision::Crash { .. } => {
                crash_batch.get_or_insert(e.batch);
                "crash"
            }
            Decision::Recover { .. } => {
                recover_batch.get_or_insert(e.batch);
                settle = Some(settle.map_or(e.batch + 1, |s| s.max(e.batch + 1)));
                "recover"
            }
            Decision::Implicate {
                disposition: Disposition::Remap { .. },
                ..
            } => "remap",
            Decision::Implicate {
                disposition: Disposition::Failover,
                ..
            }
            | Decision::Unlocalized { failover: true, .. } => "failover",
            Decision::Implicate { .. } | Decision::Unlocalized { .. } => "alarm",
        };
        let quarantine = matches!(label, "remap" | "failover");
        if quarantine {
            settle = Some(settle.map_or(e.batch + 1, |s| s.max(e.batch + 1)));
            if case.scenario.is_none() || e.batch < trojan_onset {
                spurious = true;
            }
        }
        if case.scenario.is_some() && e.batch >= trojan_onset && (quarantine || label == "alarm") {
            trojan_detected = true;
        }
        if !actions.contains(&label) {
            actions.push(label);
        }
    }
    let post_start = settle.unwrap_or(first_onset).min(end);
    let crash_recovery = match (crash_batch, recover_batch) {
        (Some(c), Some(r)) => (r.saturating_sub(c)) as f64,
        _ => f64::NAN,
    };
    let latencies = out.sorted_latencies();
    ChaosRow {
        kind: case.kind().to_string(),
        fault: case
            .fault
            .as_ref()
            .map(FaultSpec::to_spec_string)
            .unwrap_or_default(),
        scenario: case
            .scenario
            .as_ref()
            .map(ScenarioSpec::to_spec_string)
            .unwrap_or_default(),
        trojan_detected,
        spurious_quarantine: spurious,
        maintenance_events: maintenance,
        crash_recovery_batches: crash_recovery,
        post_accuracy: out.accuracy_in(post_start..end, labels),
        availability: out.availability(),
        action: if actions.is_empty() {
            "none".into()
        } else {
            actions.join("+")
        },
        p99_latency: percentile(&latencies, 0.99),
        throughput: out.throughput(),
        shed_rate: out.shed_rate(),
        slo: opts.slo.map(|spec| {
            spec.verdict(&SloInput {
                availability: out.availability(),
                p99_latency: percentile(&latencies, 0.99),
                p999_latency: percentile(&latencies, 0.999),
                shed_rate: out.shed_rate(),
                spurious_quarantines: u64::from(spurious),
            })
        }),
    }
}

/// Runs the chaos evaluation: calibrates the detector suite once,
/// measures the clean fleet's reference accuracy, then replays every
/// grid case — fault, trojan or both landing on member 0 — against the
/// responding closed-loop fleet and aggregates the robustness rates.
///
/// Case work fans out over `threads` workers of the shared pool (the
/// fleets' per-member batches fan out again underneath); rows are ordered
/// by the input case order and bitwise independent of `threads`.
///
/// # Errors
///
/// Rejects degenerate options (zero batches/batch size, onset beyond the
/// stream, empty fleet, invalid arrival rate) and propagates injection,
/// derivation and forward-pass errors.
#[allow(clippy::too_many_arguments)]
pub fn run_chaos<D: Dataset + Sync + ?Sized>(
    network: &Network,
    mapping: &WeightMapping,
    backend: &dyn InferenceBackend,
    data: &D,
    cases: &[ChaosCase],
    detectors: &[Box<dyn Detector>],
    opts: &ServingOptions,
    seed: u64,
    threads: usize,
) -> Result<ChaosReport, SafelightError> {
    run_chaos_observed(
        network, mapping, backend, data, cases, detectors, opts, seed, threads, false,
    )
    .map(|(report, _)| report)
}

/// [`run_chaos`] with the observability plane attached when `observe` is
/// true: each grid case runs under its own
/// [`ServeObserver`](crate::observe::ServeObserver) (scoped
/// `case="NN"` metric labels, private tracer), and the returned
/// [`ObsArtifacts`] concatenate the per-case committed traces in
/// input-case order — byte-identical across worker-thread counts — plus
/// the wall-clock profile sidecar and the merged metrics snapshot. The
/// committed trace is the audit log: every quarantine, remap, failover,
/// maintenance verdict, crash and recovery of every case, with the
/// decision inputs inline.
///
/// # Errors
///
/// Same as [`run_chaos`].
#[allow(clippy::too_many_arguments)]
pub fn run_chaos_observed<D: Dataset + Sync + ?Sized>(
    network: &Network,
    mapping: &WeightMapping,
    backend: &dyn InferenceBackend,
    data: &D,
    cases: &[ChaosCase],
    detectors: &[Box<dyn Detector>],
    opts: &ServingOptions,
    seed: u64,
    threads: usize,
    observe: bool,
) -> Result<(ChaosReport, Option<ObsArtifacts>), SafelightError> {
    let driven: Vec<Case<'_>> = cases
        .iter()
        .enumerate()
        .map(|(idx, case)| Case {
            scenario: case.scenario.as_ref(),
            fault: case.fault.as_ref(),
            stream_key: case_stream_key(case),
            scope: ("case", format!("{idx:02}")),
            header: format!(
                "case={idx:02} kind={} fault={} scenario={} trojan_onset={}",
                case.kind(),
                case.fault
                    .as_ref()
                    .map(FaultSpec::to_spec_string)
                    .unwrap_or_default(),
                case.scenario
                    .as_ref()
                    .map(ScenarioSpec::to_spec_string)
                    .unwrap_or_default(),
                opts.onset_batch,
            ),
            baseline: false,
        })
        .collect();
    let runs = run_cases(
        network,
        mapping,
        backend,
        data,
        &driven,
        detectors,
        opts,
        seed,
        threads,
        observe,
        |idx, out, labels| summarize_chaos(&cases[idx], &out.with_response, labels, opts),
    )?;
    let rows = runs.rows;

    let rate = |num: usize, den: usize| {
        if den == 0 {
            f64::NAN
        } else {
            num as f64 / den as f64
        }
    };
    let faulted = rows.iter().filter(|r| !r.fault.is_empty()).count();
    let spurious = rows
        .iter()
        .filter(|r| !r.fault.is_empty() && r.spurious_quarantine)
        .count();
    let trojan_rows = rows.iter().filter(|r| r.kind == "trojan").count();
    let detected = rows
        .iter()
        .filter(|r| r.kind == "trojan" && r.trojan_detected)
        .count();
    let overlap_rows = rows.iter().filter(|r| r.kind == "overlap").count();
    let missed = rows
        .iter()
        .filter(|r| r.kind == "overlap" && !r.trojan_detected)
        .count();
    let recoveries: Vec<f64> = rows
        .iter()
        .map(|r| r.crash_recovery_batches)
        .filter(|b| b.is_finite())
        .collect();
    let mean_recovery = if recoveries.is_empty() {
        f64::NAN
    } else {
        recoveries.iter().sum::<f64>() / recoveries.len() as f64
    };

    Ok((
        ChaosReport {
            detectors: runs.parts.names,
            thresholds: runs.parts.thresholds,
            clean_accuracy: runs.clean_accuracy,
            batches: opts.batches,
            batch_size: opts.batch_size,
            fleet_size: opts.fleet_size,
            onset_batch: opts.onset_batch,
            arrival: opts.arrival,
            rows,
            spurious_quarantine_rate: rate(spurious, faulted),
            trojan_tpr: rate(detected, trojan_rows),
            overlap_missed_rate: rate(missed, overlap_rows),
            mean_crash_recovery_batches: mean_recovery,
        },
        runs.artifacts,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_all_three_kinds_without_drop_drift() {
        let grid = chaos_grid(12);
        let count = |k: &str| grid.iter().filter(|c| c.kind() == k).count();
        assert_eq!(count("fault"), 8);
        assert_eq!(count("trojan"), 3);
        assert_eq!(count("overlap"), 3);
        assert_eq!(count("clean"), 0);
        // The undecidable case stays out of the grid: a drifting
        // drop-current sensor is indistinguishable from actuation and the
        // policy fails secure on it.
        assert!(grid.iter().filter_map(|c| c.fault.as_ref()).all(|f| {
            !matches!(
                f.vector,
                FaultVector::DriftSensor {
                    channel: SensorChannel::DropCurrent,
                    ..
                }
            )
        }));
        // Every fault-only onset honors the requested batch; the
        // crash-under-attack overlap lands two batches after the trojan.
        assert!(grid.iter().filter(|c| c.kind() == "fault").all(|c| c
            .fault
            .as_ref()
            .unwrap()
            .onset_batch
            == 12));
        assert!(grid.iter().any(
            |c| c.kind() == "overlap" && c.fault.as_ref().is_some_and(|f| f.onset_batch == 14)
        ));
    }

    #[test]
    fn case_stream_keys_never_alias() {
        let grid = chaos_grid(8);
        let mut keys: Vec<u64> = grid.iter().map(case_stream_key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), grid.len(), "chaos cases share an RNG stream");
    }
}
