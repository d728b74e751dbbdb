//! The secure inference-serving runtime: where SafeLight's offline
//! detection results become a *running system*.
//!
//! PR 3's detection subsystem answers "was this accelerator compromised?"
//! after the fact. A production deployment has to keep serving traffic
//! while it answers — and then *do something* about a positive answer.
//! This crate layers that runtime on top of the existing stack:
//!
//! * [`scheduler`] — the request plane: virtual-time open-loop arrival
//!   models ([`ArrivalModel`] — closed-loop, Poisson or bursty, replayable
//!   from the in-tree RNG), a bounded FIFO [`AdmissionQueue`] with
//!   load-shedding backpressure, and the [`partition`] helper for the
//!   degenerate closed-loop (rate = ∞) case. Continuous batching fills
//!   each tick's micro-batches from whatever has arrived, with
//!   per-request outcomes reassembled in arrival order regardless of
//!   worker-thread count;
//! * [`runtime`] — the accelerator fleet. Each [`FleetMember`] is a full
//!   simulated accelerator (clean weights + [`WeightMapping`] +
//!   [`ConditionMap`] + derived effective executor network +
//!   [`TelemetryProbe`]) carrying its own calibrated detector suite. The
//!   fleet serves one micro-batch per active member per tick on the shared
//!   worker pool, scores every batch's telemetry frame inline, and runs
//!   the closed-loop response policy:
//!
//!   ```text
//!   alarm ──▶ implicate banks (guard-band excursions)
//!         ──▶ quarantine rings, remap parameters onto idle spares
//!               │ spares exhausted / nothing to localize
//!               ▼
//!             fail the shard over to a healthy fleet member
//!   ```
//!
//!   after which the member re-derives its executor network and telemetry
//!   probe from the remapped [`WeightMapping`] and re-baselines its
//!   detectors on a short recalibration window;
//! * [`eval`] — [`eval::run_serving`] plays the attack-scenario grid as
//!   request streams with mid-stream compromise onset and reports
//!   end-to-end accuracy per phase, detection/recovery latency in batches,
//!   availability and service-latency percentiles (p50/p99/p999) per
//!   scenario, byte-identical across worker-thread counts;
//!   [`eval::run_rate_sweep`] records the throughput-vs-p99 curve across
//!   offered arrival rates and locates the saturation point;
//! * [`chaos`] — [`chaos::run_chaos`] replays the benign-fault grid
//!   (dead/stuck/drifting sensors, supply glitches, member crashes) alone,
//!   trojans alone, and fault+trojan overlap, reporting the
//!   spurious-quarantine rate, trojan TPR under discrimination, overlap
//!   missed-detection rate and crash-recovery latency;
//! * [`observe`] — the bridge to the `safelight-obs` observability
//!   plane: a per-stream [`ServeObserver`] turns every admission tick,
//!   served batch and response-policy decision into structured trace
//!   events (deterministic, byte-identical across worker-thread counts)
//!   and scoped metrics, so a committed trace reconstructs the policy's
//!   decision sequence; with an SLO spec attached it also evaluates the
//!   virtual-time alert rules at end of stream — see
//!   `docs/observability.md`;
//! * [`incident`] — automated forensics over the audit trace: one
//!   [`IncidentReport`] per injected
//!   fault/attack, with causal timeline (detection → discrimination →
//!   remediation → recovery), root-cause classification checked against
//!   the injected ground truth, latencies and SLO impact;
//! * [`report`] — CSV/JSON emitters for the serving and chaos
//!   evaluations, wired into `repro --serve` / `repro --chaos` (`--json`).
//!
//! See `docs/serving.md` for the fleet model, the scheduler's determinism
//! argument and the response-policy state machine.
//!
//! [`WeightMapping`]: safelight_onn::WeightMapping
//! [`ConditionMap`]: safelight_onn::ConditionMap
//! [`TelemetryProbe`]: safelight_onn::TelemetryProbe
//! [`FleetMember`]: runtime::FleetMember
//! [`ArrivalModel`]: scheduler::ArrivalModel
//! [`AdmissionQueue`]: scheduler::AdmissionQueue
//! [`partition`]: scheduler::partition
//!
//! # Example
//!
//! Serve a short request stream on a two-member fleet and watch the
//! closed loop recover from a mid-stream actuation attack:
//!
//! ```no_run
//! use safelight::models::{build_model, matched_accelerator, ModelKind};
//! use safelight::prelude::*;
//! use safelight_serve::eval::{run_serving, ServingOptions};
//!
//! # fn main() -> Result<(), SafelightError> {
//! let bundle = build_model(ModelKind::Cnn1, 7)?;
//! let config = matched_accelerator(ModelKind::Cnn1)?;
//! let mapping = WeightMapping::new(&config, &bundle.layer_specs)?;
//! let data = safelight_datasets::generate(
//!     safelight::models::dataset_kind_for(ModelKind::Cnn1),
//!     &safelight_datasets::SyntheticSpec::default(),
//! )?;
//! let scenarios = vec![ScenarioSpec::new(
//!     VectorSpec::Actuation, AttackTarget::Both, 0.10, 0,
//! )];
//! let backend = safelight_onn::AnalyticBackend::new(&config);
//! let report = run_serving(
//!     &bundle.network, &mapping, &backend, &data.test, &scenarios,
//!     &default_detectors(), &ServingOptions::default(), 11, 2,
//! )?;
//! println!("{}", safelight_serve::report::serving_csv(&report));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod eval;
pub mod incident;
pub mod observe;
pub mod report;
pub mod runtime;
pub mod scheduler;

pub use chaos::{chaos_grid, run_chaos, run_chaos_observed, ChaosCase, ChaosReport, ChaosRow};
pub use eval::{
    run_rate_sweep, run_serving, run_serving_observed, RatePoint, RateSweepReport, ScenarioServing,
    ServingOptions, ServingReport,
};
pub use incident::{
    incidents_from_trace, incidents_json, incidents_txt, IncidentReport, Milestone, RootCauseKind,
};
pub use observe::{ObsArtifacts, ServeObserver};
pub use runtime::{
    CleanPredictions, Compromise, Decision, Disposition, Fleet, FleetMember, MemberFault,
    MemberState, PolicyConfig, PolicyEvent, ServedBatch, StreamOutcome,
};
pub use scheduler::{partition, AdmissionQueue, ArrivalModel, Request, RequestOutcome};
