//! The per-layer metrics of a traced run.
//!
//! Names follow the crates and modules. Three sources feed them:
//!
//! * the benchmark's own clock around each public call (`*_s`, seconds
//!   per warm pass, per cold pass for `attack.inject_cold_s`, or per
//!   set-up for the set-up layers);
//! * the program's `obs::profile` spans (`*.calls` and `*.incl_ms` per
//!   pass). Span totals are inclusive: a nested span's time also counts
//!   in its parent, so these never sum to the pass time;
//! * `linalg::kernel_stats` execution counts and values read off the
//!   reports (per pass).
//!
//! A layer a workload never enters reads 0.

use crate::measure::{median, Metrics};
use crate::workload::{Pass, SetupSplit};
use crate::Window;

/// Outside-timed layer calls, seconds per pass.
const CALLS: [&str; 6] = [
    "attack.inject_s",
    "eval.baseline_s",
    "eval.evaluate_s",
    "serve.eval.serving_s",
    "serve.eval.sweep_s",
    "serve.chaos.run_s",
];

/// Report-derived layer values with their units.
const REPORT: [(&str, &str); 8] = [
    ("serve.scheduler.offered", "count"),
    ("serve.scheduler.shed_rate", "frac"),
    ("serve.runtime.remapped_rings", "count"),
    ("serve.report.availability", "frac"),
    ("serve.report.p99_ticks", "ticks"),
    ("serve.eval.saturation_rate", "req/tick"),
    ("serve.chaos.trojan_tpr", "frac"),
    ("serve.chaos.spurious_quarantine_rate", "frac"),
];

/// Profiled program phases and the metric prefix each reports under.
const PHASES: [(&str, &str); 10] = [
    ("derive_network", "onn.derive"),
    ("probe_build", "onn.probe_build"),
    ("probe_frame", "onn.probe_frame"),
    ("process_batch", "serve.runtime.process_batch"),
    ("remap", "serve.runtime.remap"),
    ("serve_predict", "serve.runtime.predict"),
    ("recalibrate", "serve.runtime.recalibrate"),
    ("cache_recovery", "serve.runtime.cache_recovery"),
    ("serve_detect", "detect.score"),
    ("detector_score", "detect.score"),
];

/// GEMM entry points (profile phase, metric segment) and dispatch classes.
const GEMM_ENTRIES: [(&str, &str); 3] = [
    ("gemm_matmul", "matmul"),
    ("gemm_matmul_a_bt", "a_bt"),
    ("gemm_matmul_at_b", "at_b"),
];
const GEMM_CLASSES: [&str; 5] = ["direct", "serial", "parallel", "simd", "simd_parallel"];

/// `linalg::kernel_stats` classes.
const KERNELS: [&str; 9] = [
    "reference",
    "direct",
    "tiled",
    "tiled_parallel",
    "simd",
    "simd_parallel",
    "int",
    "conv_im2col",
    "conv_fft",
];

/// The metric prefix of a profile table entry (`phase` or `phase/class`).
fn phase_metric(entry: &str) -> Option<String> {
    let (phase, class) = entry.split_once('/').unwrap_or((entry, ""));
    if let Some((_, segment)) = GEMM_ENTRIES.iter().find(|(p, _)| *p == phase) {
        return GEMM_CLASSES
            .contains(&class)
            .then(|| format!("neuro.gemm.{segment}.{class}"));
    }
    PHASES
        .iter()
        .find(|(p, _)| *p == phase)
        .map(|(_, m)| (*m).to_string())
}

/// Every per-layer metric a traced run prints, in order, with its unit.
pub fn names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = vec![
        ("datasets.generate_s".into(), "s"),
        ("neuro.train_s".into(), "s"),
        ("onn.mapping_s".into(), "s"),
    ];
    out.extend(CALLS.iter().map(|n| ((*n).to_string(), "s")));
    out.push(("attack.inject_cold_s".into(), "s"));
    let mut prefixes: Vec<String> = Vec::new();
    for (_, prefix) in PHASES {
        if !prefixes.iter().any(|p| p == prefix) {
            prefixes.push(prefix.to_string());
        }
    }
    for (_, segment) in GEMM_ENTRIES {
        for class in GEMM_CLASSES {
            prefixes.push(format!("neuro.gemm.{segment}.{class}"));
        }
    }
    for prefix in prefixes {
        out.push((format!("{prefix}.calls"), "count"));
        out.push((format!("{prefix}.incl_ms"), "ms"));
    }
    out.extend(
        KERNELS
            .iter()
            .map(|k| (format!("neuro.kernel.{k}"), "count")),
    );
    out.extend(REPORT.iter().map(|&(n, u)| (n.to_string(), u)));
    out.push(("host.cpu_util".into(), "frac"));
    out.push(("host.steal_frac".into(), "frac"));
    out.push(("obs.trace_overhead_frac".into(), "frac"));
    out
}

/// Fills `metrics` with the per-layer values of a traced run: set-up
/// `splits`, the `cold` first pass, the untraced warm window `plain` and
/// the traced warm window `traced`.
pub fn record(
    metrics: &mut Metrics,
    splits: &[SetupSplit],
    cold: &Pass,
    plain: &Window,
    traced: &Window,
    threads: usize,
) {
    let pick = |f: fn(&SetupSplit) -> f64| median(&splits.iter().map(f).collect::<Vec<_>>());
    metrics.set("datasets.generate_s", pick(|s| s.generate_s));
    metrics.set("neuro.train_s", pick(|s| s.train_s));
    metrics.set("onn.mapping_s", pick(|s| s.mapping_s));
    // Injection in the cold pass includes the thermal solves that fill
    // the process-wide hotspot cache.
    if let Some(inject) = cold.layers.get("attack.inject_s") {
        metrics.set("attack.inject_cold_s", inject);
    }

    let passes = traced.passes.len() as f64;
    for &name in &CALLS {
        let per_pass: Vec<f64> = traced
            .passes
            .iter()
            .filter_map(|p| p.layers.get(name))
            .collect();
        metrics.set(name, median(&per_pass));
    }
    // Report values repeat exactly from pass to pass; read the first.
    for (name, _) in REPORT {
        if let Some(value) = traced.passes[0].layers.get(name) {
            metrics.set(name, value);
        }
    }
    for (entry, stats) in safelight_obs::profile_phases() {
        if let Some(prefix) = phase_metric(&entry) {
            metrics.add(format!("{prefix}.calls"), stats.count as f64 / passes);
            metrics.add(
                format!("{prefix}.incl_ms"),
                stats.total_ns as f64 / 1e6 / passes,
            );
        }
    }
    for (class, count) in safelight_neuro::linalg::kernel_stats::snapshot() {
        metrics.set(format!("neuro.kernel.{class}"), count as f64 / passes);
    }
    metrics.set("host.cpu_util", plain.cpu / (plain.wall * threads as f64));
    metrics.set("host.steal_frac", steal_frac(plain));
    metrics.set(
        "obs.trace_overhead_frac",
        median(&traced.seconds) / median(&plain.seconds) - 1.0,
    );
}

/// Share of the machine's CPU time the hypervisor took from it during
/// `window`.
pub fn steal_frac(window: &Window) -> f64 {
    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    window.steal / (window.wall * cpus as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_entries_map_onto_declared_metrics() {
        let declared = names();
        let has = |n: &str| declared.iter().any(|(d, _)| d == n);
        for entry in [
            "derive_network",
            "gemm_matmul/direct",
            "gemm_matmul_a_bt/simd",
            "gemm_matmul_at_b/simd_parallel",
            "detector_score/guard_band",
            "serve_detect",
        ] {
            let prefix = phase_metric(entry).expect("mapped");
            assert!(has(&format!("{prefix}.calls")), "{entry}");
            assert!(has(&format!("{prefix}.incl_ms")), "{entry}");
        }
        assert_eq!(phase_metric("gemm_matmul/reference"), None);
        assert_eq!(phase_metric("unknown_phase"), None);
    }
}
