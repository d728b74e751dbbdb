//! End-to-end tests of the observability plane: the chaos grid replayed
//! under a [`safelight_serve::ServeObserver`] must produce a committed
//! audit trace that reconstructs every response-policy decision of every
//! case (presence *and* ordering), byte-identical across worker-thread
//! counts, plus a deterministic metrics snapshot in all three renderings.

use safelight::fault::{FaultSpec, FaultVector};
use safelight::prelude::*;
use safelight_datasets::{digits, SyntheticSpec};
use safelight_neuro::{Network, Trainer, TrainerConfig};
use safelight_onn::{AnalyticBackend, SensorChannel, WeightMapping};
use safelight_serve::chaos::{chaos_grid, run_chaos_observed, ChaosCase};
use safelight_serve::eval::{run_serving_observed, ServingOptions};
use safelight_serve::report::chaos_csv;

/// A trained-enough CNN_1 on the scaled accelerator profile (the same
/// trade the serving/chaos tests make).
fn trained_setup() -> (
    Network,
    WeightMapping,
    AcceleratorConfig,
    safelight_datasets::SplitDataset,
) {
    let data = digits(&SyntheticSpec {
        train: 120,
        test: 60,
        ..SyntheticSpec::default()
    })
    .unwrap();
    let bundle = build_model(ModelKind::Cnn1, 3).unwrap();
    let mut network = bundle.network;
    let cfg = TrainerConfig {
        epochs: 3,
        batch_size: 20,
        ..TrainerConfig::default()
    };
    Trainer::new(cfg).fit(&mut network, &data.train).unwrap();
    let config = AcceleratorConfig::scaled_experiment().unwrap();
    let mapping = WeightMapping::new(&config, &bundle.layer_specs).unwrap();
    (network, mapping, config, data)
}

fn quick_opts() -> ServingOptions {
    ServingOptions {
        batch_size: 6,
        batches: 18,
        onset_batch: 6,
        calibration_frames: 24,
        clean_runs: 16,
        ..ServingOptions::default()
    }
}

/// Splits a concatenated multi-case trace into per-case sections, in
/// order. A section starts at its `# case=` header line.
fn case_sections(trace: &str) -> Vec<String> {
    let mut sections: Vec<String> = Vec::new();
    for line in trace.lines() {
        if line.starts_with("# case=") {
            sections.push(String::new());
        }
        if let Some(cur) = sections.last_mut() {
            cur.push_str(line);
            cur.push('\n');
        }
    }
    sections
}

/// The committed sort key of one trace line: `(vt, seq)` plus the stage
/// name (stage order is validated implicitly by vt/seq monotonicity
/// within a stage — the renderer already sorted on the full key).
fn line_key(line: &str) -> Option<(u64, String, u64)> {
    let vt = line.strip_prefix("vt=")?[..6].parse().ok()?;
    let mut parts = line.split_whitespace();
    parts.next()?; // vt=...
    let stage = parts.next()?.to_string();
    let seq = parts.next()?.strip_prefix("seq=")?.parse().ok()?;
    Some((vt, stage, seq))
}

#[test]
fn chaos_grid_audit_trace_reconstructs_every_decision() {
    let (network, mapping, config, data) = trained_setup();
    let cases = chaos_grid(quick_opts().onset_batch);
    let (report, artifacts) = run_chaos_observed(
        &network,
        &mapping,
        &AnalyticBackend::new(&config),
        &data.test,
        &cases,
        &default_detectors(),
        &quick_opts(),
        2025,
        safelight_neuro::parallel::configured_threads(),
        true,
    )
    .unwrap();
    let artifacts = artifacts.expect("observe=true returns artifacts");

    // One section per grid case, in input-case order.
    let sections = case_sections(&artifacts.trace);
    assert_eq!(sections.len(), cases.len(), "one trace section per case");
    for (idx, (case, section)) in cases.iter().zip(&sections).enumerate() {
        assert!(
            section.starts_with(&format!("# case={idx:02} kind={}", case.kind())),
            "case {idx} header wrong:\n{}",
            &section[..section.len().min(200)]
        );
    }

    for ((idx, case), (row, section)) in cases
        .iter()
        .enumerate()
        .zip(report.rows.iter().zip(&sections))
    {
        let ctx = |what: &str| format!("case {idx} ({}): missing {what}\n{section}", case.kind());

        // Every decision the report aggregated is present in the audit
        // trace as a structured event with its inputs.
        if row.action.contains("remap") {
            assert!(section.contains("action=remap"), "{}", ctx("remap"));
            assert!(section.contains("event=implicate"), "{}", ctx("implicate"));
            assert!(section.contains("banks=["), "{}", ctx("implicated banks"));
        }
        if row.action.contains("failover") {
            assert!(section.contains("action=failover"), "{}", ctx("failover"));
        }
        if row.maintenance_events > 0 {
            assert!(
                section.contains("action=maintenance"),
                "{}",
                ctx("maintenance")
            );
        }
        if row.action.contains("crash") {
            assert!(section.contains("event=crash member=0"), "{}", ctx("crash"));
        }
        if row.action.contains("recover") {
            assert!(
                section.contains("event=recover member=0"),
                "{}",
                ctx("recover")
            );
        }
        if case.scenario.is_some() {
            assert!(
                section.contains("event=compromise member=0"),
                "{}",
                ctx("compromise")
            );
        }
        // The rail-glitch verdict carries its discriminating input.
        if case
            .fault
            .as_ref()
            .is_some_and(|f| matches!(f.vector, FaultVector::RailGlitch { .. }))
            && section.contains("event=rail_glitch")
        {
            assert!(section.contains("rail_z="), "{}", ctx("rail_z input"));
        }

        // Ordering within the case: committed lines are sorted on the
        // total (vt, stage, seq) key, a crash precedes its recovery, and
        // a compromise precedes the first implication.
        let keys: Vec<(u64, String, u64)> = section
            .lines()
            .filter(|l| !l.starts_with('#'))
            .map(|l| line_key(l).unwrap_or_else(|| panic!("unparseable line: {l}")))
            .collect();
        assert!(!keys.is_empty(), "case {idx}: empty section");
        for w in keys.windows(2) {
            assert!(
                w[0].0 <= w[1].0,
                "case {idx}: virtual time regressed: {w:?}"
            );
        }
        let pos = |needle: &str| section.lines().position(|l| l.contains(needle));
        if let (Some(c), Some(r)) = (pos("event=crash member=0"), pos("event=recover member=0")) {
            assert!(c < r, "case {idx}: recovery before crash");
        }
        if let (Some(c), Some(i)) = (pos("event=compromise member=0"), pos("event=implicate")) {
            assert!(c < i, "case {idx}: implication before compromise");
        }
        // Every case closes with its end-of-stream summary.
        assert!(
            section.lines().last().unwrap().contains("event=stream_end"),
            "case {idx}: no stream_end:\n{section}"
        );
    }

    // The metrics snapshot aggregates the same decisions the report saw.
    let prom = artifacts.metrics.prometheus();
    if report.rows.iter().any(|r| r.action.contains("remap")) {
        assert!(prom.contains("serve_remaps_total"), "{prom}");
    }
    if report.rows.iter().any(|r| r.action.contains("crash")) {
        assert!(prom.contains("serve_crashes_total"), "{prom}");
    }
    assert!(prom.contains("serve_requests_total"), "{prom}");
    // All three renderings are well-formed and non-empty.
    assert!(artifacts.metrics.json().starts_with('{'));
    assert!(artifacts.metrics.csv().starts_with("# name,"));
}

#[test]
fn committed_artifacts_are_byte_identical_across_thread_counts() {
    let (network, mapping, config, data) = trained_setup();
    let onset = quick_opts().onset_batch;
    // A small mixed slice keeps the determinism check cheap: one sensor
    // fault, one crash, one trojan, one overlap.
    let cases = vec![
        ChaosCase::fault(FaultSpec::new(
            FaultVector::DeadSensor {
                channel: SensorChannel::DropCurrent,
            },
            AttackTarget::FcBlock,
            0.5,
            onset,
        )),
        ChaosCase::fault(FaultSpec::new(
            FaultVector::Crash,
            AttackTarget::Both,
            0.0,
            onset,
        )),
        ChaosCase::trojan(ScenarioSpec::new(
            VectorSpec::Actuation,
            AttackTarget::Both,
            0.10,
            0,
        )),
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
    ];
    let run = |threads: usize, observe: bool| {
        run_chaos_observed(
            &network,
            &mapping,
            &AnalyticBackend::new(&config),
            &data.test,
            &cases,
            &default_detectors(),
            &quick_opts(),
            7,
            threads,
            observe,
        )
        .unwrap()
    };
    let (report, serial) = run(1, true);
    let serial = serial.expect("observe=true returns artifacts");
    let parallel = run(4, true).1.expect("observe=true returns artifacts");
    // The committed trace and every metrics rendering are byte-identical;
    // only the wall-clock profile sidecar may differ.
    assert_eq!(serial.trace, parallel.trace);
    assert_eq!(serial.metrics.prometheus(), parallel.metrics.prometheus());
    assert_eq!(serial.metrics.json(), parallel.metrics.json());
    assert_eq!(serial.metrics.csv(), parallel.metrics.csv());
    // Unobserved runs return no artifacts and identical report rows
    // (compared through the CSV, where a NaN field equals itself).
    let (unobserved, none) = run(1, false);
    assert!(none.is_none());
    assert_eq!(
        chaos_csv(&unobserved),
        chaos_csv(&report),
        "observation changed results"
    );
}

#[test]
fn serving_observed_emits_scenario_scoped_artifacts() {
    let (network, mapping, config, data) = trained_setup();
    let scenarios = vec![ScenarioSpec::new(
        VectorSpec::Actuation,
        AttackTarget::Both,
        0.10,
        0,
    )];
    let (report, artifacts) = run_serving_observed(
        &network,
        &mapping,
        &AnalyticBackend::new(&config),
        &data.test,
        &scenarios,
        &default_detectors(),
        &quick_opts(),
        11,
        safelight_neuro::parallel::configured_threads(),
        true,
    )
    .unwrap();
    let artifacts = artifacts.expect("observe=true returns artifacts");
    assert_eq!(report.rows.len(), 1);
    assert!(
        artifacts.trace.starts_with("# scenario="),
        "{}",
        &artifacts.trace[..artifacts.trace.len().min(120)]
    );
    assert!(artifacts.trace.contains("event=compromise member=0"));
    assert!(artifacts.trace.contains("event=stream_end"));
    // Metric series are namespaced by scenario spec.
    let prom = artifacts.metrics.prometheus();
    assert!(prom.contains("scenario=\""), "{prom}");
    // Unobserved runs return no artifacts and identical report rows.
    let (unobserved, none) = run_serving_observed(
        &network,
        &mapping,
        &AnalyticBackend::new(&config),
        &data.test,
        &scenarios,
        &default_detectors(),
        &quick_opts(),
        11,
        safelight_neuro::parallel::configured_threads(),
        false,
    )
    .unwrap();
    assert!(none.is_none());
    assert_eq!(unobserved.rows, report.rows, "observation changed results");
}
