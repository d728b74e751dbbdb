//! Gated scoped wall-clock profiling.
//!
//! A [`ProfileSpan`] brackets a phase (a GEMM kernel call, a telemetry
//! probe sweep, detector scoring, a remap, a batch-service phase) and
//! aggregates into a global per-phase table: count, total, min, max
//! nanoseconds. The profiler is **off by default**; when off, opening a
//! span is a single relaxed atomic load and the clock is never read, so
//! instrumentation left in hot paths (the GEMM entry points run inside
//! the serving inner loop) costs nanoseconds. `repro --profile` turns it
//! on and prints the per-phase table.
//!
//! Wall-clock numbers are machine-dependent **measurement**, never part
//! of committed artifacts — the deterministic side lives in
//! [`crate::trace`] and [`crate::metrics`].
//!
//! The aggregation table is global (keyed by `(phase, class)` static
//! strings) rather than threaded through call sites, because the GEMM
//! kernels sit several layers below anything that could carry a handle;
//! tests that assert on profile contents should [`profile_reset`] first
//! and must tolerate concurrent recording.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Aggregated wall-clock statistics for one phase.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseStats {
    /// Number of completed spans.
    pub count: u64,
    /// Total nanoseconds across spans.
    pub total_ns: u64,
    /// Shortest span in nanoseconds.
    pub min_ns: u64,
    /// Longest span in nanoseconds.
    pub max_ns: u64,
}

impl PhaseStats {
    /// Mean span duration in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }

    fn record(&mut self, ns: u64) {
        if self.count == 0 {
            self.min_ns = ns;
            self.max_ns = ns;
        } else {
            self.min_ns = self.min_ns.min(ns);
            self.max_ns = self.max_ns.max(ns);
        }
        self.count += 1;
        self.total_ns += ns;
    }
}

type PhaseKey = (&'static str, &'static str);

static PHASES: Mutex<BTreeMap<PhaseKey, PhaseStats>> = Mutex::new(BTreeMap::new());

/// Turn profiling on or off globally.
pub fn set_profile_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether profiling is currently enabled.
#[inline]
pub fn profile_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Clear the aggregation table (typically right after enabling, so a run
/// starts from a clean slate).
pub fn profile_reset() {
    PHASES.lock().unwrap_or_else(|e| e.into_inner()).clear();
}

/// Snapshot the per-phase table, sorted by `(phase, class)`. Keys render
/// as `phase/class` (or just `phase` when the class is empty).
pub fn profile_phases() -> Vec<(String, PhaseStats)> {
    PHASES
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(|(&(phase, class), &stats)| {
            let name = if class.is_empty() {
                phase.to_string()
            } else {
                format!("{phase}/{class}")
            };
            (name, stats)
        })
        .collect()
}

/// Open a span for `phase` (no shape class).
#[inline]
pub fn profile_span(phase: &'static str) -> ProfileSpan {
    profile_span_class(phase, "")
}

/// Open a span for `phase` with a shape/kind `class` (e.g. a GEMM entry
/// point with its dispatch class: `("gemm_matmul", "serial")`).
#[inline]
pub fn profile_span_class(phase: &'static str, class: &'static str) -> ProfileSpan {
    if profile_enabled() {
        ProfileSpan {
            key: Some((phase, class)),
            start: Some(Instant::now()),
        }
    } else {
        ProfileSpan {
            key: None,
            start: None,
        }
    }
}

/// Scoped timer guard; records into the global table on drop. When the
/// profiler is disabled this is an inert pair of `None`s.
pub struct ProfileSpan {
    key: Option<PhaseKey>,
    start: Option<Instant>,
}

impl Drop for ProfileSpan {
    fn drop(&mut self) {
        if let (Some(key), Some(start)) = (self.key, self.start) {
            let ns = start.elapsed().as_nanos() as u64;
            PHASES
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .entry(key)
                .or_default()
                .record(ns);
        }
    }
}

/// Render the per-phase table as aligned text (the `repro --profile`
/// output). Phases are sorted by inclusive time, hottest first (name
/// breaks ties). Spans nest — `remap` runs inside `process_batch`, the
/// `gemm_*` spans inside `serve_predict` — so a row's `incl_ms` counts its
/// nested phases too, and the rows overlap rather than partition the run.
/// Durations are wall clock; never commit this.
pub fn render_table(phases: &[(String, PhaseStats)]) -> String {
    let mut rows: Vec<&(String, PhaseStats)> = phases.iter().collect();
    rows.sort_by(|(an, a), (bn, b)| b.total_ns.cmp(&a.total_ns).then_with(|| an.cmp(bn)));
    let mut out = String::new();
    out.push_str(&format!(
        "{:<36} {:>10} {:>14} {:>12} {:>12} {:>12}\n",
        "phase", "count", "incl_ms", "mean_us", "min_us", "max_us"
    ));
    for (name, s) in rows {
        out.push_str(&format!(
            "{:<36} {:>10} {:>14.3} {:>12.2} {:>12.2} {:>12.2}\n",
            name,
            s.count,
            s.total_ns as f64 / 1e6,
            s.mean_ns() as f64 / 1e3,
            s.min_ns as f64 / 1e3,
            s.max_ns as f64 / 1e3,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // The profiler is global state shared across the test binary's
    // threads; these tests use phase names unique to themselves instead
    // of asserting on the whole table.

    #[test]
    fn disabled_spans_record_nothing() {
        set_profile_enabled(false);
        {
            let _s = profile_span("test_disabled_phase");
        }
        assert!(
            !profile_phases()
                .iter()
                .any(|(n, _)| n == "test_disabled_phase"),
            "span recorded while disabled"
        );
    }

    #[test]
    fn enabled_spans_aggregate() {
        set_profile_enabled(true);
        for _ in 0..3 {
            let _s = profile_span_class("test_enabled_phase", "classa");
        }
        set_profile_enabled(false);
        let phases = profile_phases();
        let (_, stats) = phases
            .iter()
            .find(|(n, _)| n == "test_enabled_phase/classa")
            .expect("phase recorded");
        assert!(stats.count >= 3);
        assert!(stats.min_ns <= stats.max_ns);
        assert!(stats.total_ns >= stats.max_ns);
        assert!(stats.mean_ns() <= stats.max_ns);
    }

    #[test]
    fn table_renders_all_rows() {
        // Deliberately listed cold-first: the renderer must sort by
        // inclusive time so the hot phase is the first data row.
        let rows = vec![
            ("probe_sweep".to_string(), PhaseStats::default()),
            (
                "gemm_matmul/serial".to_string(),
                PhaseStats {
                    count: 2,
                    total_ns: 2_000_000,
                    min_ns: 900_000,
                    max_ns: 1_100_000,
                },
            ),
        ];
        let table = render_table(&rows);
        assert!(table.contains("gemm_matmul/serial"));
        assert!(table.contains("probe_sweep"));
        assert!(table.lines().count() == 3);
        let lines: Vec<&str> = table.lines().collect();
        assert!(lines[0].contains("incl_ms"));
        // Overlapping inclusive totals have no meaningful share of a sum.
        assert!(!table.contains('%'), "{table}");
        assert!(
            lines[1].starts_with("gemm_matmul/serial"),
            "hot phase first: {table}"
        );
        assert!(lines[1].contains("2.000"), "inclusive ms: {table}");
    }
}
