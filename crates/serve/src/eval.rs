//! The serving evaluation: every attack scenario replayed as a request
//! stream with mid-stream compromise onset, against the closed-loop
//! runtime *and* a no-response baseline.
//!
//! Methodology:
//!
//! 1. the detector suite and localization guard are calibrated once on
//!    attack-free telemetry of the accelerator profile; operating
//!    thresholds come from attack-free replay runs at a target
//!    false-positive rate (same discipline as `eval::detection`);
//! 2. a fixed request stream is derived from the test set (request `i`
//!    is test item `i mod len`), partitioned into micro-batches;
//! 3. per scenario, the stream is served twice on a fresh fleet — once
//!    with the response policy live, once with response disabled — with
//!    the injected conditions landing on member 0 at the onset batch;
//! 4. the report slices accuracy into pre-onset / degraded / recovered
//!    phases around the policy's own events and records
//!    detection-to-recovery latency in batches, the action taken and the
//!    availability of trustworthy service.
//!
//! Every noise draw derives from `(seed, scenario spec, batch)`, so the
//! report — and its CSV/JSON renderings — are bitwise independent of the
//! worker-thread count.

use std::sync::Arc;

use safelight::attack::{RingSalience, ScenarioSpec, Selection};
use safelight::detect::{Detector, GuardBandDetector};
use safelight::eval::{inject_all, operating_rank, InjectedScenario};
use safelight::experiment::Fidelity;
use safelight::fault::{inject_fault, FaultSpec};
use safelight::SafelightError;
use safelight_neuro::parallel::par_map;
use safelight_neuro::{Dataset, Network};
use safelight_obs::{percentile, MetricsRegistry, SloInput, SloSpec, SloVerdict};
use safelight_onn::{
    BlockKind, ConditionMap, InferenceBackend, SentinelPlan, TelemetryFrame, TelemetryProbe,
    WeightMapping,
};

use crate::observe::{ObsArtifacts, ServeObserver};
use crate::runtime::{
    fold, CleanPredictions, Compromise, Decision, Disposition, Fleet, FleetMember, MemberFault,
    PolicyConfig, StreamOutcome,
};
use crate::scheduler::{ArrivalModel, Request};

/// Tuning knobs of the serving evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServingOptions {
    /// Requests per micro-batch.
    pub batch_size: usize,
    /// Micro-batches in the request stream.
    pub batches: usize,
    /// Global batch index at which the compromise activates.
    pub onset_batch: u64,
    /// Fleet members serving the stream (member 0 is compromised).
    pub fleet_size: usize,
    /// Attack-free frames the detectors are calibrated on.
    pub calibration_frames: usize,
    /// Attack-free replay runs behind the operating thresholds.
    pub clean_runs: usize,
    /// Frames synthesized to re-baseline detectors after a remap.
    pub recalibration_frames: usize,
    /// Sentinel rings provisioned per block.
    pub sentinels_per_block: usize,
    /// The arrival process replaying the stream through the request
    /// plane ([`ArrivalModel::Closed`] = the pre-request-plane closed
    /// loop: everything arrives before serving starts).
    pub arrival: ArrivalModel,
    /// Admission-queue capacity; `0` picks the default — unbounded for
    /// closed-loop arrivals, `4 × fleet × batch_size` at a finite rate.
    pub queue_capacity: usize,
    /// The SLO every stream is judged against, when set: rows gain an
    /// [`SloVerdict`], observers evaluate the virtual-time alert rules,
    /// and observed runs reconstruct incident reports from the trace.
    pub slo: Option<SloSpec>,
}

impl Default for ServingOptions {
    fn default() -> Self {
        Self {
            batch_size: 16,
            batches: 36,
            onset_batch: 12,
            fleet_size: 2,
            calibration_frames: 48,
            clean_runs: 32,
            recalibration_frames: 32,
            sentinels_per_block: 32,
            arrival: ArrivalModel::Closed,
            queue_capacity: 0,
            slo: None,
        }
    }
}

impl ServingOptions {
    /// The serving knobs matched to an experiment fidelity.
    #[must_use]
    pub fn for_fidelity(fidelity: Fidelity) -> Self {
        match fidelity {
            Fidelity::Quick => Self {
                batch_size: 8,
                batches: 24,
                onset_batch: 8,
                calibration_frames: 32,
                clean_runs: 24,
                ..Self::default()
            },
            Fidelity::Full => Self::default(),
        }
    }

    /// The admission-queue capacity the evaluation actually uses: the
    /// explicit `queue_capacity` when set, otherwise unbounded for the
    /// closed loop and `4 × fleet × batch_size` at a finite rate (deep
    /// enough to ride a burst out, shallow enough that overload sheds
    /// instead of growing the tail without bound).
    #[must_use]
    pub fn effective_queue_capacity(&self) -> usize {
        if self.queue_capacity > 0 {
            self.queue_capacity
        } else if self.arrival == ArrivalModel::Closed {
            usize::MAX
        } else {
            4 * self.fleet_size.max(1) * self.batch_size.max(1)
        }
    }
}

/// The serving outcome of one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioServing {
    /// The injected scenario.
    pub scenario: ScenarioSpec,
    /// Fraction of the targeted blocks' rings actually compromised.
    pub effective_fraction: f64,
    /// Accuracy over the pre-onset batches (clean fleet).
    pub pre_onset_accuracy: f64,
    /// Accuracy from onset until recovery (stream end when never
    /// recovered).
    pub degraded_accuracy: f64,
    /// Accuracy over the post-recovery batches (`NaN` when the policy
    /// never remediated or no post-recovery batch remained).
    pub recovered_accuracy: f64,
    /// No-response baseline accuracy over every post-onset batch.
    pub baseline_post_accuracy: f64,
    /// Batches from onset to the first alarm/action, inclusive (`NaN`
    /// when nothing fired).
    pub detection_latency_batches: f64,
    /// Batches from onset until remediated service resumed (`NaN` when it
    /// never did).
    pub recovery_latency_batches: f64,
    /// The remediation applied: `remap`, `failover`, `alarm` (unlocalized
    /// alarms only) or `none`, joined by `+` when several fired.
    pub action: String,
    /// Parameter-carrying rings relocated onto spares.
    pub remapped_rings: usize,
    /// Parameter-carrying rings the spare pool could not absorb.
    pub unplaced_rings: usize,
    /// Fraction of requests served by trustworthy (never-compromised or
    /// remediated) members.
    pub availability: f64,
    /// Median per-request service latency in virtual ticks (closed-loop
    /// response run).
    pub p50_latency: f64,
    /// 99th-percentile service latency in virtual ticks.
    pub p99_latency: f64,
    /// 99.9th-percentile service latency in virtual ticks.
    pub p999_latency: f64,
    /// Sustained throughput in requests per virtual tick.
    pub throughput: f64,
    /// Fraction of offered requests shed at admission.
    pub shed_rate: f64,
    /// The SLO verdict for this stream, when the options carry a spec.
    pub slo: Option<SloVerdict>,
}

/// The full serving-evaluation report.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingReport {
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
    /// Compromise onset batch.
    pub onset_batch: u64,
    /// The arrival process the stream was replayed through.
    pub arrival: ArrivalModel,
    /// One row per scenario, in input order.
    pub rows: Vec<ScenarioServing>,
}

impl ServingReport {
    /// The row of the scenario equal to `spec`.
    #[must_use]
    pub fn row(&self, spec: &ScenarioSpec) -> Option<&ScenarioServing> {
        self.rows.iter().find(|r| &r.scenario == spec)
    }
}

/// Calibrates per-detector operating thresholds: the k-th largest
/// max-score over `clean_runs` attack-free replay runs of `frames` frames
/// each, with k from [`operating_rank`] (the rule `eval::detection`
/// applies), so the per-run false-positive rate stays below the target.
///
/// The suite is reused across runs via [`Detector::reset`] — no
/// per-run reallocation.
#[must_use]
pub fn operating_thresholds(
    probe: &TelemetryProbe,
    suite: &mut [Box<dyn Detector>],
    clean_runs: usize,
    frames: usize,
    seed: u64,
) -> Vec<f64> {
    let clean_runs = clean_runs.max(1);
    let mut maxima: Vec<Vec<f64>> = vec![Vec::with_capacity(clean_runs); suite.len()];
    for run in 0..clean_runs as u64 {
        for d in suite.iter_mut() {
            d.reset();
        }
        let run_seed = fold(fold(seed, 0xC1EA_4095), run);
        let mut run_max = vec![0.0f64; suite.len()];
        for batch in 0..frames as u64 {
            let frame = probe.frame(batch, run_seed);
            for (d, m) in suite.iter_mut().zip(&mut run_max) {
                *m = m.max(d.score(&frame));
            }
        }
        for (per, m) in maxima.iter_mut().zip(run_max) {
            per.push(m);
        }
    }
    for d in suite.iter_mut() {
        d.reset();
    }
    let k = operating_rank(clean_runs);
    maxima
        .into_iter()
        .map(|mut per| {
            per.sort_by(|a, b| b.partial_cmp(a).expect("scores are finite"));
            per[k - 1]
        })
        .collect()
}

/// Builds the evaluation's fixed request stream from `data`: request `i`
/// is test item `i % len`, for `batches × batch_size` requests, stamped
/// with arrival times drawn once from `opts.arrival` — every scenario
/// replays the *same* arrivals. Ground truth stays out of the stream:
/// the returned label vector (indexed by request id) is the evaluation's
/// answer key.
pub(crate) fn request_stream<D: Dataset + ?Sized>(
    data: &D,
    opts: &ServingOptions,
    seed: u64,
) -> Result<(Vec<Request>, Vec<usize>), SafelightError> {
    let total = opts.batches * opts.batch_size;
    let len = data.len();
    let schedule = opts.arrival.schedule(total, seed);
    let mut requests = Vec::with_capacity(total);
    let mut labels = Vec::with_capacity(total);
    for (i, &arrived_at) in schedule.iter().enumerate() {
        let (input, label) = data.item(i % len)?;
        requests.push(Request {
            id: i as u64,
            input,
            arrived_at,
        });
        labels.push(label);
    }
    Ok((requests, labels))
}

/// Everything the per-scenario fleets share: the clean prototype member
/// (calibrated detector suite and localization guard included), the
/// operating thresholds and the detector names.
pub(crate) struct CalibratedParts {
    pub(crate) prototype: FleetMember,
    pub(crate) thresholds: Vec<f64>,
    pub(crate) names: Vec<String>,
}

/// Calibrates the detector suite and guard on attack-free telemetry, then
/// derives the clean prototype member every fleet of this evaluation call
/// clones.
pub(crate) fn calibrate(
    network: &Network,
    mapping: &WeightMapping,
    backend: &dyn InferenceBackend,
    detectors: &[Box<dyn Detector>],
    opts: &ServingOptions,
    seed: u64,
) -> Result<CalibratedParts, SafelightError> {
    let sentinels = SentinelPlan::new(mapping, backend.config(), opts.sentinels_per_block);
    let probe = backend
        .probe(network, mapping, &ConditionMap::new(), &sentinels)
        .map_err(SafelightError::from)?;
    let cal_seed = fold(seed, 0xCA11_B8A7);
    let frames: Vec<TelemetryFrame> = (0..opts.calibration_frames as u64)
        .map(|b| probe.frame(b, cal_seed))
        .collect();
    let mut suite: Vec<Box<dyn Detector>> = detectors.iter().map(|d| d.clone_box()).collect();
    for d in &mut suite {
        d.calibrate(&frames)?;
    }
    let mut guard = GuardBandDetector::default();
    guard.calibrate(&frames)?;
    let thresholds = operating_thresholds(&probe, &mut suite, opts.clean_runs, opts.batches, seed);
    let names = suite.iter().map(|d| d.name().to_string()).collect();
    let prototype = FleetMember::new(
        0,
        network,
        mapping.clone(),
        backend.clone_box(),
        opts.sentinels_per_block,
        suite,
        guard,
    )?;
    Ok(CalibratedParts {
        prototype,
        thresholds,
        names,
    })
}

/// A fresh fleet of identical clean members: clones of the calibrated
/// prototype, differing only by id and noise salt.
pub(crate) fn build_fleet(
    parts: &CalibratedParts,
    opts: &ServingOptions,
    respond: bool,
) -> Result<Fleet, SafelightError> {
    let members: Vec<FleetMember> = (0..opts.fleet_size.max(1))
        .map(|id| parts.prototype.clone_as(id))
        .collect();
    let mut policy = if respond {
        PolicyConfig::new(parts.thresholds.clone())
    } else {
        PolicyConfig::baseline(parts.thresholds.clone())
    };
    policy.recalibration_frames = opts.recalibration_frames;
    Fleet::new(members, policy)
}

/// A stable stream key of a scenario spec (all fields avalanche-mixed).
pub(crate) fn spec_stream_key(spec: &ScenarioSpec) -> u64 {
    let mut h = fold(0x5E4E_5742_EA11, spec.trial);
    h = fold(h, spec.fraction.to_bits());
    for byte in spec.to_spec_string().bytes() {
        h = fold(h, u64::from(byte));
    }
    h
}

/// Slices the streams of one scenario into the report row. `labels` is
/// the eval-side answer key, indexed by request id.
fn summarize(out: &CaseOutcome<'_>, labels: &[usize], opts: &ServingOptions) -> ScenarioServing {
    let entry = out.injected.expect("serving cases carry a scenario");
    let with_response = &out.with_response;
    let baseline = out
        .baseline
        .as_ref()
        .expect("serving cases run the baseline");
    let compromised_member = 0usize;
    let onset = opts.onset_batch;
    // Continuous batching can form more (smaller) batches than the
    // closed loop's `opts.batches`, so "stream end" is open-ended; at
    // rate ∞ the indices still top out at `opts.batches`.
    let end = u64::MAX;
    let mut detect_batch: Option<u64> = None;
    let mut recovery_batch: Option<u64> = None;
    let mut actions: Vec<&str> = Vec::new();
    let mut remapped = 0usize;
    let mut unplaced = 0usize;
    // Only post-onset events *on the compromised member* describe the
    // attack's detection/response — a pre-onset event, or a post-onset
    // event on an uncompromised peer, is a calibrated-rate false positive
    // and must not masquerade as detection or shift the phase boundaries.
    for e in with_response
        .events
        .iter()
        .filter(|e| e.batch >= onset && e.member == compromised_member)
    {
        let label = match &e.decision {
            // Maintenance flags and crash/recovery transitions are not
            // trojan detections — they must not start the latency clock
            // or shift the phase boundaries.
            Decision::SensorMask { .. }
            | Decision::MaskClear
            | Decision::RailGlitch { .. }
            | Decision::SensorQuarantine { .. }
            | Decision::Crash { .. }
            | Decision::Recover { .. } => continue,
            Decision::Implicate {
                disposition:
                    Disposition::Remap {
                        remapped_rings,
                        unplaced_rings,
                        ..
                    },
                ..
            } => {
                remapped += remapped_rings;
                unplaced += unplaced_rings;
                recovery_batch.get_or_insert(e.batch + 1);
                "remap"
            }
            Decision::Implicate {
                disposition: Disposition::Failover,
                ..
            }
            | Decision::Unlocalized { failover: true, .. } => {
                recovery_batch.get_or_insert(e.batch + 1);
                "failover"
            }
            Decision::Implicate { .. } | Decision::Unlocalized { .. } => "alarm",
        };
        if detect_batch.is_none() {
            detect_batch = Some(e.batch);
        }
        if !actions.contains(&label) {
            actions.push(label);
        }
    }
    let degraded_end = recovery_batch.unwrap_or(end);
    let latencies = with_response.sorted_latencies();
    ScenarioServing {
        scenario: entry.scenario.clone(),
        effective_fraction: entry.effective_fraction,
        pre_onset_accuracy: with_response.accuracy_in(0..onset, labels),
        degraded_accuracy: with_response.accuracy_in(onset..degraded_end, labels),
        recovered_accuracy: recovery_batch
            .map_or(f64::NAN, |r| with_response.accuracy_in(r..end, labels)),
        baseline_post_accuracy: baseline.accuracy_in(onset..end, labels),
        detection_latency_batches: detect_batch
            .map_or(f64::NAN, |b| (b.saturating_sub(onset) + 1) as f64),
        recovery_latency_batches: recovery_batch
            .map_or(f64::NAN, |b| b.saturating_sub(onset) as f64),
        action: if actions.is_empty() {
            "none".into()
        } else {
            actions.join("+")
        },
        remapped_rings: remapped,
        unplaced_rings: unplaced,
        availability: with_response.availability(),
        p50_latency: percentile(&latencies, 0.50),
        p99_latency: percentile(&latencies, 0.99),
        p999_latency: percentile(&latencies, 0.999),
        throughput: with_response.throughput(),
        shed_rate: with_response.shed_rate(),
        // Serving rows always inject a real trojan, so a quarantine here
        // is never spurious.
        slo: opts.slo.map(|spec| {
            spec.verdict(&SloInput {
                availability: with_response.availability(),
                p99_latency: percentile(&latencies, 0.99),
                p999_latency: percentile(&latencies, 0.999),
                shed_rate: with_response.shed_rate(),
                spurious_quarantines: 0,
            })
        }),
    }
}

/// Runs the full serving evaluation: calibrates the detector suite,
/// measures the clean fleet's reference accuracy, then replays every
/// scenario of `scenarios` as a mid-stream compromise against both the
/// closed-loop runtime and the no-response baseline.
///
/// Scenario work fans out over `threads` workers of the shared pool (the
/// fleets' per-member batches fan out again underneath); results are
/// ordered by the input scenario order and bitwise independent of
/// `threads`.
///
/// # Errors
///
/// Rejects degenerate options (zero batches/batch size, onset beyond the
/// stream, empty fleet, invalid arrival rate) and propagates injection,
/// derivation and forward-pass errors.
#[allow(clippy::too_many_arguments)]
pub fn run_serving<D: Dataset + Sync + ?Sized>(
    network: &Network,
    mapping: &WeightMapping,
    backend: &dyn InferenceBackend,
    data: &D,
    scenarios: &[ScenarioSpec],
    detectors: &[Box<dyn Detector>],
    opts: &ServingOptions,
    seed: u64,
    threads: usize,
) -> Result<ServingReport, SafelightError> {
    run_serving_observed(
        network, mapping, backend, data, scenarios, detectors, opts, seed, threads, false,
    )
    .map(|(report, _)| report)
}

/// [`run_serving`] with the observability plane attached when `observe`
/// is true: each scenario's with-response stream runs under its own
/// [`ServeObserver`] (scoped `scenario="<spec>"` metric labels, private
/// tracer), and the returned [`ObsArtifacts`] concatenate the per-scenario
/// committed traces in input-scenario order — byte-identical across
/// worker-thread counts — plus the wall-clock profile sidecar and the
/// merged metrics snapshot.
///
/// # Errors
///
/// Same as [`run_serving`].
#[allow(clippy::too_many_arguments)]
pub fn run_serving_observed<D: Dataset + Sync + ?Sized>(
    network: &Network,
    mapping: &WeightMapping,
    backend: &dyn InferenceBackend,
    data: &D,
    scenarios: &[ScenarioSpec],
    detectors: &[Box<dyn Detector>],
    opts: &ServingOptions,
    seed: u64,
    threads: usize,
    observe: bool,
) -> Result<(ServingReport, Option<ObsArtifacts>), SafelightError> {
    let cases: Vec<Case<'_>> = scenarios
        .iter()
        .map(|s| {
            let spec = s.to_spec_string();
            Case {
                scenario: Some(s),
                fault: None,
                stream_key: spec_stream_key(s),
                header: format!(
                    "scenario={spec} onset={} arrival={:?}",
                    opts.onset_batch, opts.arrival
                ),
                scope: ("scenario", spec),
                baseline: true,
            }
        })
        .collect();
    let runs = run_cases(
        network,
        mapping,
        backend,
        data,
        &cases,
        detectors,
        opts,
        seed,
        threads,
        observe,
        |_, out, labels| summarize(&out, labels, opts),
    )?;
    Ok((
        ServingReport {
            detectors: runs.parts.names,
            thresholds: runs.parts.thresholds,
            clean_accuracy: runs.clean_accuracy,
            batches: opts.batches,
            batch_size: opts.batch_size,
            fleet_size: opts.fleet_size,
            onset_batch: opts.onset_batch,
            arrival: opts.arrival,
            rows: runs.rows,
        },
        runs.artifacts,
    ))
}

/// One stream the case driver replays on a fresh responding fleet: what
/// lands on member 0 and how its observed run is labelled.
pub(crate) struct Case<'a> {
    /// The trojan scenario, compromising member 0 at the onset batch.
    pub(crate) scenario: Option<&'a ScenarioSpec>,
    /// The benign fault, armed on member 0 at its own onset.
    pub(crate) fault: Option<&'a FaultSpec>,
    /// Folded into the seed to give the case its own noise stream.
    pub(crate) stream_key: u64,
    /// The metric label scoping the case's observer series.
    pub(crate) scope: (&'static str, String),
    /// The header line of the case's committed trace section.
    pub(crate) header: String,
    /// Whether the stream is also replayed on a no-response baseline
    /// fleet.
    pub(crate) baseline: bool,
}

/// The streams of one replayed [`Case`].
pub(crate) struct CaseOutcome<'a> {
    /// The injected trojan conditions, when the case carries a scenario.
    pub(crate) injected: Option<&'a InjectedScenario>,
    /// The closed-loop run, response policy live.
    pub(crate) with_response: StreamOutcome,
    /// The no-response baseline run, when the case asked for one.
    pub(crate) baseline: Option<StreamOutcome>,
}

/// What [`run_cases`] returns: one summarized row per case, in input
/// order, plus what every case shared.
pub(crate) struct CaseRuns<R> {
    pub(crate) parts: CalibratedParts,
    pub(crate) clean_accuracy: f64,
    pub(crate) rows: Vec<R>,
    pub(crate) artifacts: Option<ObsArtifacts>,
}

/// The case driver behind the serving and chaos evaluations: validates
/// the options, calibrates once, builds the shared request stream,
/// measures the clean fleet, injects every case's trojan up front, then
/// replays each case on its own responding fleet (and a no-response
/// baseline fleet when the case asks) and hands the streams, the case's
/// input index and the answer key to `summarize`.
///
/// With `observe`, each responding run carries its own [`ServeObserver`]
/// scoped by [`Case::scope`]; the committed trace sections concatenate
/// in input order, so artifacts and rows alike are byte-identical across
/// worker-thread counts.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_cases<D, R, F>(
    network: &Network,
    mapping: &WeightMapping,
    backend: &dyn InferenceBackend,
    data: &D,
    cases: &[Case<'_>],
    detectors: &[Box<dyn Detector>],
    opts: &ServingOptions,
    seed: u64,
    threads: usize,
    observe: bool,
    summarize: F,
) -> Result<CaseRuns<R>, SafelightError>
where
    D: Dataset + Sync + ?Sized,
    R: Send,
    F: Fn(usize, CaseOutcome<'_>, &[usize]) -> R + Sync,
{
    if opts.batches == 0 || opts.batch_size == 0 || opts.onset_batch >= opts.batches as u64 {
        return Err(SafelightError::InvalidParameter {
            name: "batches/onset",
            value: opts.batches as f64,
        });
    }
    if opts.fleet_size == 0 {
        return Err(SafelightError::InvalidParameter {
            name: "fleet size",
            value: 0.0,
        });
    }
    if !opts.arrival.is_valid() {
        return Err(SafelightError::InvalidParameter {
            name: "arrival rate",
            value: opts.arrival.rate(),
        });
    }
    let parts = calibrate(network, mapping, backend, detectors, opts, seed)?;
    let (requests, labels) = request_stream(data, opts, seed)?;
    let capacity = opts.effective_queue_capacity();

    // Clean reference: the whole stream on an uncompromised fleet. The
    // score-but-never-respond baseline policy keeps a calibrated-rate
    // false alarm from remapping (or failing over) the reference fleet
    // mid-measurement, so every member stays pristine and its per-batch
    // predictions can stand in for any pristine case member's.
    let (clean_accuracy, reference) = {
        let mut fleet = build_fleet(&parts, opts, false)?;
        let out = fleet.serve_queue(
            &requests,
            opts.batch_size,
            capacity,
            None,
            None,
            fold(seed, 0xC1EA),
            threads,
        )?;
        (
            out.accuracy_in(0..u64::MAX, &labels),
            Arc::new(CleanPredictions::from_stream(&out)),
        )
    };

    // Fault plans index sentinel readbacks by slot, so injection needs the
    // per-block sentinel population of the provisioning the members use.
    let sentinel_counts = {
        let plan = SentinelPlan::new(mapping, backend.config(), opts.sentinels_per_block);
        (
            plan.sites(BlockKind::Conv).len(),
            plan.sites(BlockKind::Fc).len(),
        )
    };

    // Trojan conditions are injected once up front (salience derivation is
    // the expensive part, and only targeted specs need it); each case then
    // references its entry by slot.
    let specs: Vec<ScenarioSpec> = cases.iter().filter_map(|c| c.scenario.cloned()).collect();
    let salience = if specs.iter().any(|s| s.selection == Selection::Targeted) {
        Some(RingSalience::from_network(
            network,
            mapping,
            backend.config(),
        )?)
    } else {
        None
    };
    let injected = inject_all(backend.config(), &specs, salience.as_ref(), seed, threads)?;
    let mut slots = injected.iter();
    let items: Vec<(usize, &Case<'_>, Option<&InjectedScenario>)> = cases
        .iter()
        .enumerate()
        .map(|(i, c)| (i, c, c.scenario.and_then(|_| slots.next())))
        .collect();

    // One shared registry; each case's observer namespaces its series
    // with its scope label, so every series has a single (serial) writer
    // and the merged snapshot is thread-count independent.
    let registry = observe.then(|| Arc::new(MetricsRegistry::new()));
    type ObservedRow<R> = (R, Option<(String, String)>);
    let rows: Vec<Result<ObservedRow<R>, SafelightError>> =
        par_map(items, threads, |(idx, case, entry)| {
            let stream_seed = fold(seed, case.stream_key);
            let plan = case
                .fault
                .map(|spec| inject_fault(spec, backend.config(), sentinel_counts, seed))
                .transpose()?;
            // Both the compromise and the fault always land on member 0;
            // the summaries filter policy events down to that member, so a
            // false alarm on a healthy peer never masquerades as detection.
            let compromise = entry.map(|e| Compromise {
                member: 0,
                onset_batch: opts.onset_batch,
                conditions: &e.conditions,
            });
            let fault = plan.as_ref().map(|p| MemberFault { member: 0, plan: p });
            let mut fleet = build_fleet(&parts, opts, true)?;
            fleet.set_reference(Some(reference.clone()));
            let observer = registry.as_ref().map(|reg| {
                Arc::new(ServeObserver::with_scope_slo(
                    reg.clone(),
                    &[(case.scope.0, &case.scope.1)],
                    opts.slo.as_ref(),
                ))
            });
            fleet.set_observer(observer.clone());
            let with_response = fleet.serve_queue(
                &requests,
                opts.batch_size,
                capacity,
                compromise.clone(),
                fault.clone(),
                stream_seed,
                threads,
            )?;
            // Alert evaluation reads only this observer's scoped series, so
            // running it while sibling cases still write their own series
            // stays deterministic.
            if let Some(o) = &observer {
                o.evaluate_alerts();
            }
            let sections = observer
                .as_ref()
                .map(|o| o.drain(std::slice::from_ref(&case.header)));
            let baseline = if case.baseline {
                let mut fleet = build_fleet(&parts, opts, false)?;
                fleet.set_reference(Some(reference.clone()));
                Some(fleet.serve_queue(
                    &requests,
                    opts.batch_size,
                    capacity,
                    compromise,
                    fault,
                    stream_seed,
                    threads,
                )?)
            } else {
                None
            };
            let outcome = CaseOutcome {
                injected: entry,
                with_response,
                baseline,
            };
            Ok((summarize(idx, outcome, &labels), sections))
        });
    let rows = rows.into_iter().collect::<Result<Vec<_>, _>>()?;
    // Per-case trace sections concatenate in input order — par_map
    // returns results in task order, so the artifact is independent of
    // which worker ran which case.
    let artifacts = registry.map(|reg| {
        let mut trace = String::new();
        let mut profile = String::new();
        for (_, sections) in &rows {
            if let Some((committed, wall)) = sections {
                trace.push_str(committed);
                profile.push_str(wall);
            }
        }
        let incidents = opts
            .slo
            .as_ref()
            .map(|s| crate::incident::incidents_from_trace(&trace, s))
            .unwrap_or_default();
        ObsArtifacts {
            trace,
            profile,
            metrics: reg.snapshot(),
            incidents,
        }
    });
    Ok(CaseRuns {
        parts,
        clean_accuracy,
        rows: rows.into_iter().map(|(row, _)| row).collect(),
        artifacts,
    })
}

/// One operating point of the throughput-vs-latency sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct RatePoint {
    /// Offered Poisson arrival rate in requests per tick.
    pub rate: f64,
    /// Requests offered over the stream.
    pub offered: usize,
    /// Requests served to completion.
    pub served: usize,
    /// Fraction of offered requests shed at admission.
    pub shed_rate: f64,
    /// Sustained throughput in requests per virtual tick.
    pub throughput: f64,
    /// Median service latency in virtual ticks.
    pub p50_latency: f64,
    /// 99th-percentile service latency in virtual ticks.
    pub p99_latency: f64,
    /// 99.9th-percentile service latency in virtual ticks.
    pub p999_latency: f64,
}

/// The throughput-vs-p99 sweep: one clean-fleet operating point per
/// offered rate, plus the located saturation point.
#[derive(Debug, Clone, PartialEq)]
pub struct RateSweepReport {
    /// Requests per micro-batch.
    pub batch_size: usize,
    /// Fleet members serving.
    pub fleet_size: usize,
    /// Admission-queue capacity used at every point.
    pub queue_capacity: usize,
    /// One point per swept rate, in input order.
    pub rows: Vec<RatePoint>,
    /// The highest swept rate the fleet sustains — shed rate ≤ 1 % and
    /// p99 latency within 3× of the least-loaded swept point's. `NaN`
    /// when even the lowest rate saturates.
    pub saturation_rate: f64,
}

/// Whether a sweep point is sustained relative to the least-loaded
/// point's p99 (`baseline_p99`): (almost) nothing shed at admission
/// and no tail-latency blow-up from queue growth. With a bounded queue
/// overload shows up as shedding; with a generous capacity it shows up
/// as p99 far above the uncongested baseline — the 3× guard catches
/// both. Deliberately NOT `throughput ≥ 0.95 × rate`: `served / ticks`
/// on a finite stream undershoots the nominal rate even when perfectly
/// healthy, because the tick count includes the post-arrival drain and
/// the seeded stream's empirical pace wanders around the nominal one.
fn sustains(p: &RatePoint, baseline_p99: f64) -> bool {
    p.shed_rate <= 0.01 && (!baseline_p99.is_finite() || p.p99_latency <= 3.0 * baseline_p99)
}

/// Sweeps the clean serving fleet across Poisson arrival `rates` (requests
/// per tick) and records the throughput-vs-latency curve: per rate, the
/// stream is replayed open-loop through a bounded admission queue on a
/// score-but-never-respond fleet, and the report locates the saturation
/// point — the highest rate still sustained (see [`RateSweepReport`]).
/// Virtual-time latency percentiles are fully deterministic in `(opts,
/// seed)`, which is what makes the sweep CI-gateable without machine
/// noise.
///
/// # Errors
///
/// Rejects an empty or non-positive rate grid and degenerate options;
/// propagates calibration and forward-pass errors.
#[allow(clippy::too_many_arguments)]
pub fn run_rate_sweep<D: Dataset + Sync + ?Sized>(
    network: &Network,
    mapping: &WeightMapping,
    backend: &dyn InferenceBackend,
    data: &D,
    detectors: &[Box<dyn Detector>],
    opts: &ServingOptions,
    rates: &[f64],
    seed: u64,
    threads: usize,
) -> Result<RateSweepReport, SafelightError> {
    if rates.is_empty() || rates.iter().any(|r| !r.is_finite() || *r <= 0.0) {
        return Err(SafelightError::InvalidParameter {
            name: "sweep rates",
            value: rates.first().copied().unwrap_or(0.0),
        });
    }
    if opts.batches == 0 || opts.batch_size == 0 || opts.fleet_size == 0 {
        return Err(SafelightError::InvalidParameter {
            name: "batches/fleet",
            value: opts.batches as f64,
        });
    }
    let parts = calibrate(network, mapping, backend, detectors, opts, seed)?;
    let mut rows = Vec::with_capacity(rates.len());
    for &rate in rates {
        let point_opts = ServingOptions {
            arrival: ArrivalModel::Poisson { rate },
            ..*opts
        };
        let capacity = point_opts.effective_queue_capacity();
        let (requests, _) = request_stream(data, &point_opts, seed)?;
        let mut fleet = build_fleet(&parts, &point_opts, false)?;
        let out = fleet.serve_queue(
            &requests,
            point_opts.batch_size,
            capacity,
            None,
            None,
            fold(seed, rate.to_bits()),
            threads,
        )?;
        let latencies = out.sorted_latencies();
        rows.push(RatePoint {
            rate,
            offered: requests.len(),
            served: out.outcomes.len(),
            shed_rate: out.shed_rate(),
            throughput: out.throughput(),
            p50_latency: percentile(&latencies, 0.50),
            p99_latency: percentile(&latencies, 0.99),
            p999_latency: percentile(&latencies, 0.999),
        });
    }
    let baseline_p99 = rows
        .iter()
        .min_by(|a, b| a.rate.total_cmp(&b.rate))
        .map_or(f64::NAN, |p| p.p99_latency);
    let saturation_rate = rows
        .iter()
        .filter(|p| sustains(p, baseline_p99))
        .map(|p| p.rate)
        .fold(f64::NAN, |a, r| if a.is_nan() || r > a { r } else { a });
    let point_opts = ServingOptions {
        arrival: ArrivalModel::Poisson { rate: rates[0] },
        ..*opts
    };
    Ok(RateSweepReport {
        batch_size: opts.batch_size,
        fleet_size: opts.fleet_size,
        queue_capacity: point_opts.effective_queue_capacity(),
        rows,
        saturation_rate,
    })
}
