//! End-to-end tests of the runtime trojan-detection subsystem: telemetry →
//! detectors → ROC/latency evaluation, including the acceptance criteria
//! of the detection pipeline — full extended-grid coverage, byte-identical
//! reports across thread counts, and TPR > 0.9 at FPR < 0.05 on the 10 %
//! actuation scenario.

use safelight::attack::extended_scenario_grid;
use safelight::eval::{detection_roc_csv, detection_summary_csv, run_detection, DetectionOptions};
use safelight::prelude::*;
use safelight_neuro::Network;
use safelight_onn::{AnalyticBackend, WeightMapping};

fn setup() -> (Network, WeightMapping, AcceleratorConfig) {
    // Detection watches the sensors, not the classification accuracy, so
    // the pipeline tests run on an untrained (but fully mapped) model, on
    // the scaled experiment profile (the paper-scale FC block's per-bank
    // thermal solves would dominate a debug-mode test run for no extra
    // coverage — the same trade the susceptibility tests make).
    let bundle = build_model(ModelKind::Cnn1, 7).unwrap();
    let config = AcceleratorConfig::scaled_experiment().unwrap();
    let mapping = WeightMapping::new(&config, &bundle.layer_specs).unwrap();
    (bundle.network, mapping, config)
}

fn quick_opts() -> DetectionOptions {
    DetectionOptions {
        frames: 12,
        onset: 4,
        calibration_frames: 24,
        clean_runs: 24,
        attack_runs: 2,
        threshold_points: 8,
        ..DetectionOptions::default()
    }
}

#[test]
fn roc_csv_covers_the_full_extended_grid_and_is_thread_independent() {
    let (network, mapping, config) = setup();
    // Every vector stack × selection × target × fraction of the extended
    // threat model (one trial per cell keeps the test fast; the cells are
    // what coverage is about).
    let scenarios = extended_scenario_grid(&[0.01, 0.05, 0.10], 1);
    let backend = AnalyticBackend::new(&config);
    let run = |threads: usize| {
        run_detection(
            &network,
            &mapping,
            &backend,
            &scenarios,
            &default_detectors(),
            &quick_opts(),
            2025,
            threads,
        )
        .unwrap()
    };
    let serial = run(1);
    let parallel = run(4);
    // Byte-identical CSVs regardless of the worker-thread count.
    assert_eq!(detection_roc_csv(&serial), detection_roc_csv(&parallel));
    assert_eq!(
        detection_summary_csv(&serial),
        detection_summary_csv(&parallel)
    );
    // The ROC table names every cell of the grid for every detector.
    let csv = detection_roc_csv(&serial);
    for spec in &scenarios {
        for detector in &serial.detectors {
            let row_prefix = format!(
                "{},{},{},{},{},",
                detector,
                spec.vector_label(),
                spec.selection,
                spec.target,
                spec.fraction
            );
            assert!(
                csv.lines().any(|l| l.starts_with(&row_prefix)),
                "no ROC rows for `{row_prefix}`"
            );
        }
    }
}

#[test]
fn ten_percent_actuation_is_detected_above_the_bar() {
    let (network, mapping, config) = setup();
    // The acceptance scenario: 10 % actuation, uniform placement. Several
    // trials × noise seeds populate the TPR estimate.
    let scenarios: Vec<ScenarioSpec> = (0..4)
        .map(|trial| ScenarioSpec::new(VectorSpec::Actuation, AttackTarget::Both, 0.10, trial))
        .collect();
    let opts = DetectionOptions {
        attack_runs: 6,
        clean_runs: 40,
        ..quick_opts()
    };
    let report = run_detection(
        &network,
        &mapping,
        &AnalyticBackend::new(&config),
        &scenarios,
        &default_detectors(),
        &opts,
        2025,
        safelight_neuro::parallel::configured_threads(),
    )
    .unwrap();
    let best = report.best_for(&scenarios[0]).expect("cell evaluated");
    let operating = report
        .operating
        .iter()
        .find(|o| o.detector == best.detector)
        .unwrap();
    assert!(
        best.tpr > 0.9,
        "best TPR {} (detector {})",
        best.tpr,
        best.detector
    );
    assert!(operating.fpr < 0.05, "operating FPR {}", operating.fpr);
    // A parked ring is visible in the very first attacked frame.
    assert!(
        best.mean_latency_frames <= 2.0,
        "latency {} frames",
        best.mean_latency_frames
    );
}

#[test]
fn telemetry_frames_round_trip_through_their_csv_form() {
    use safelight_onn::{SentinelPlan, TelemetryFrame, TelemetryProbe};
    let (network, mapping, config) = setup();
    let sentinels = SentinelPlan::new(&mapping, &config, 16);
    let conditions = safelight::attack::inject(
        &ScenarioSpec::stacked(stacked_pair(), AttackTarget::Both, 0.05, 0),
        &config,
        9,
    )
    .unwrap();
    let probe = TelemetryProbe::new(&network, &mapping, &conditions, &config, &sentinels).unwrap();
    for batch in 0..3 {
        let frame = probe.frame(batch, 11);
        let back = TelemetryFrame::from_csv(&frame.to_csv()).unwrap();
        assert_eq!(back, frame);
    }
}
