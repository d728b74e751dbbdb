//! SafeLight observability plane.
//!
//! A zero-dependency (std-only) crate sitting below every other SafeLight
//! crate, providing the four observability primitives the serving stack
//! shares:
//!
//! - [`log`] — a leveled logger for human-facing diagnostics. Library
//!   crates report through it instead of printing; binaries pick the
//!   verbosity (`--quiet`/`--verbose` on `repro`).
//! - [`alert`] — the judgment layer: serializable SLO specs plus
//!   threshold and multi-window burn-rate alerting rules, evaluated
//!   against metric snapshots on virtual time only, so alert firings are
//!   byte-identical across worker-thread counts.
//! - [`trace`] — deterministic structured tracing. Events carry the serve
//!   plane's *virtual-time* tick plus a stable sequence key; the merge
//!   step orders them `(virtual time, key, payload)` so the committed
//!   trace artifact is byte-identical across worker-thread counts.
//!   Wall-clock timings never enter the committed rendering.
//! - [`metrics`] — a registry of counters, gauges and log-bucketed
//!   histograms, snapshotted to Prometheus-style text exposition plus
//!   JSON/CSV, and the workspace's one nearest-rank [`percentile`].
//! - [`emit`] — the JSON/CSV value formatters every report emitter in
//!   the workspace shares.
//! - [`profile`] — gated scoped wall-clock timers aggregating per-phase
//!   statistics (GEMM kernels by shape class, probe sweeps, detector
//!   scoring, remap, batch phases). Disabled by default; when disabled a
//!   span is a no-op that never reads the clock.
//!
//! The split matters: traces and metrics are *deterministic artifacts*
//! (functions of the seed alone, committed and diffed in CI), while the
//! profiler is *measurement* (wall-clock, machine-dependent, reported but
//! never committed). See `docs/observability.md` for the full model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alert;
pub mod emit;
pub mod log;
pub mod metrics;
pub mod profile;
pub mod trace;

pub use crate::alert::{
    default_rules, error_budget_burn, AlertEngine, AlertFiring, AlertKind, AlertRule, Cmp,
    SloInput, SloSpec, SloVerdict,
};
pub use crate::emit::{csv_num, json_num, json_str};
pub use crate::log::{max_level, set_max_level, Level};
pub use crate::metrics::{
    labeled, percentile, Counter, Gauge, Histogram, HistogramConfig, MetricsRegistry,
    MetricsSnapshot,
};
pub use crate::profile::{
    profile_enabled, profile_phases, profile_reset, profile_span, profile_span_class, render_table,
    set_profile_enabled, PhaseStats, ProfileSpan,
};
pub use crate::trace::{render_committed, render_profile, Stage, TraceEvent, Tracer};
