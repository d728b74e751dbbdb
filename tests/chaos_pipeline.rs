//! End-to-end tests of the chaos evaluation: benign hardware faults,
//! trojans and fault+trojan overlap against the fault-tolerant serving
//! runtime — including the robustness acceptance criteria: the
//! spurious-quarantine rate on fault-only cases stays ≤ 5 % while the
//! trojan TPR on a 10 % targeted actuation stays 1.0, a crashed member
//! recovers to ≥ 95 % of clean accuracy within a bounded number of
//! batches, and the chaos CSV is byte-identical across worker-thread
//! counts.

use safelight::fault::{FaultSpec, FaultVector};
use safelight::prelude::*;
use safelight_datasets::{digits, SyntheticSpec};
use safelight_neuro::{Network, Trainer, TrainerConfig};
use safelight_onn::{AnalyticBackend, SensorChannel, WeightMapping};
use safelight_serve::chaos::{chaos_grid, run_chaos, ChaosCase};
use safelight_serve::eval::ServingOptions;
use safelight_serve::report::{chaos_csv, chaos_json};
use safelight_serve::runtime::RESTART_BATCHES;
use safelight_serve::ArrivalModel;

/// A trained-enough CNN_1 on the scaled accelerator profile (the same
/// trade the serving tests make: debug-mode full-scale solves buy no
/// extra coverage).
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

#[test]
fn faults_stay_maintenance_while_trojans_stay_detected() {
    let (network, mapping, config, data) = trained_setup();
    let cases = chaos_grid(quick_opts().onset_batch);
    let report = run_chaos(
        &network,
        &mapping,
        &AnalyticBackend::new(&config),
        &data.test,
        &cases,
        &default_detectors(),
        &quick_opts(),
        2025,
        safelight_neuro::parallel::configured_threads(),
    )
    .unwrap();
    assert_eq!(report.rows.len(), cases.len());

    // Acceptance: benign faults spend no spares and fail no members over.
    assert!(
        report.spurious_quarantine_rate <= 0.05,
        "spurious-quarantine rate {} > 5%: {:#?}",
        report.spurious_quarantine_rate,
        report
            .rows
            .iter()
            .filter(|r| r.spurious_quarantine)
            .collect::<Vec<_>>()
    );
    // Every fault-only sensor case raises a maintenance flag instead.
    for row in report.rows_of_kind("fault") {
        if row.fault.starts_with("crash") {
            continue;
        }
        assert!(
            row.maintenance_events > 0,
            "fault `{}` raised no maintenance flag: {row:?}",
            row.fault
        );
    }

    // Acceptance: the discrimination logic keeps the 10 % targeted
    // actuation TPR at 1.0 (and the whole trojan-only set detected).
    assert_eq!(
        report.trojan_tpr,
        1.0,
        "trojan rows slipped past discrimination: {:#?}",
        report
            .rows_of_kind("trojan")
            .filter(|r| !r.trojan_detected)
            .collect::<Vec<_>>()
    );
    let targeted = report
        .rows_of_kind("trojan")
        .find(|r| r.scenario.contains("targeted") && r.scenario.contains("0.1"))
        .expect("the acceptance scenario is in the grid");
    assert!(targeted.trojan_detected);
    // Overlapping a benign fault on the same member does not mask the
    // attack.
    assert_eq!(report.overlap_missed_rate, 0.0);

    // Acceptance: crash recovery is bounded and lands back at ≥ 95 % of
    // clean accuracy.
    let crash = report
        .rows_of_kind("fault")
        .find(|r| r.fault.starts_with("crash"))
        .expect("the crash case is in the grid");
    assert!(
        crash.crash_recovery_batches.is_finite()
            && crash.crash_recovery_batches <= 2.0 * RESTART_BATCHES as f64 + 2.0,
        "crash recovery unbounded: {crash:?}"
    );
    assert!(
        crash.post_accuracy >= 0.95 * report.clean_accuracy,
        "post-crash accuracy {} vs clean {}",
        crash.post_accuracy,
        report.clean_accuracy
    );
    assert!(!crash.spurious_quarantine);
}

#[test]
fn chaos_csv_is_byte_identical_across_thread_counts() {
    let (network, mapping, config, data) = trained_setup();
    // A small mixed slice of the grid keeps this determinism check cheap:
    // one sensor fault, one crash, one trojan, one overlap.
    let onset = quick_opts().onset_batch;
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
    let run = |threads: usize| {
        run_chaos(
            &network,
            &mapping,
            &AnalyticBackend::new(&config),
            &data.test,
            &cases,
            &default_detectors(),
            &quick_opts(),
            7,
            threads,
        )
        .unwrap()
    };
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(chaos_csv(&serial), chaos_csv(&parallel));
    assert_eq!(chaos_json(&serial), chaos_json(&parallel));
    // Every case produced a row, in input order, tagged with its kind.
    assert_eq!(serial.rows.len(), cases.len());
    for (row, case) in serial.rows.iter().zip(&cases) {
        assert_eq!(row.kind, case.kind());
    }
}

#[test]
fn degenerate_chaos_options_are_rejected() {
    let (network, mapping, config, data) = trained_setup();
    let cases = [ChaosCase::trojan(ScenarioSpec::new(
        VectorSpec::Actuation,
        AttackTarget::ConvBlock,
        0.05,
        0,
    ))];
    for opts in [
        ServingOptions {
            batches: 0,
            ..quick_opts()
        },
        ServingOptions {
            onset_batch: 18,
            ..quick_opts()
        },
        ServingOptions {
            fleet_size: 0,
            ..quick_opts()
        },
        ServingOptions {
            arrival: ArrivalModel::Poisson { rate: 0.0 },
            ..quick_opts()
        },
    ] {
        assert!(run_chaos(
            &network,
            &mapping,
            &AnalyticBackend::new(&config),
            &data.test,
            &cases,
            &default_detectors(),
            &opts,
            1,
            1,
        )
        .is_err());
    }
    // An invalid fault spec (zero fraction on a sensor fault) is rejected
    // too, not silently skipped.
    let bad = [ChaosCase::fault(FaultSpec::new(
        FaultVector::DeadSensor {
            channel: SensorChannel::DropCurrent,
        },
        AttackTarget::FcBlock,
        0.0,
        6,
    ))];
    assert!(run_chaos(
        &network,
        &mapping,
        &AnalyticBackend::new(&config),
        &data.test,
        &bad,
        &default_detectors(),
        &quick_opts(),
        1,
        1,
    )
    .is_err());
}
