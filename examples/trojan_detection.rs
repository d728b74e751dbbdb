//! Tour of the runtime trojan-detection subsystem: telemetry taps on the
//! accelerator's physical side-channels, the pluggable detector suite, and
//! the ROC/latency evaluation over the extended threat model.
//!
//! ```sh
//! cargo run --release --example trojan_detection
//! ```

use safelight::eval::run_detection;
use safelight::prelude::*;
use safelight_onn::{SentinelPlan, TelemetryFrame, TelemetryProbe};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Detection watches sensors, not accuracy, so an untrained (but
    // mapped) model is all the demo needs.
    let bundle = build_model(ModelKind::Cnn1, 42)?;
    let config = matched_accelerator(ModelKind::Cnn1)?;
    let mapping = WeightMapping::new(&config, &bundle.layer_specs)?;

    // --- Telemetry: one serializable frame per inference batch. ---------
    let sentinels = SentinelPlan::new(&mapping, &config, 32);
    let clean_probe = TelemetryProbe::new(
        &bundle.network,
        &mapping,
        &ConditionMap::new(),
        &config,
        &sentinels,
    )?;
    let frame = clean_probe.frame(0, 7);
    println!(
        "clean frame: {} CONV banks, {} FC banks, {} sentinels",
        frame.banks(BlockKind::Conv).len(),
        frame.banks(BlockKind::Fc).len(),
        frame.sentinels(BlockKind::Conv).len() + frame.sentinels(BlockKind::Fc).len()
    );
    // Frames round-trip through CSV for off-chip logging.
    let parsed = TelemetryFrame::from_csv(&frame.to_csv())?;
    assert_eq!(parsed, frame);

    // An attacked accelerator shifts the sensors the trojan touches.
    let spec = ScenarioSpec::new(VectorSpec::Actuation, AttackTarget::Both, 0.10, 0);
    let conditions = inject(&spec, &config, 7)?;
    let attacked_probe =
        TelemetryProbe::new(&bundle.network, &mapping, &conditions, &config, &sentinels)?;
    let attacked = attacked_probe.noiseless(0);
    let clean = clean_probe.noiseless(0);
    println!(
        "10% actuation moves CONV bank 0 drop current {:.4} -> {:.4}",
        clean.banks(BlockKind::Conv)[0].drop_current,
        attacked.banks(BlockKind::Conv)[0].drop_current,
    );

    // --- Detection: calibrate, then alarm on the attacked stream. -------
    let mut guard = GuardBandDetector::default();
    let calibration: Vec<TelemetryFrame> = (0..32).map(|b| clean_probe.frame(b, 1)).collect();
    guard.calibrate(&calibration)?;
    println!(
        "guard-band score: clean {:.2} vs attacked {:.2}",
        guard.score(&clean_probe.frame(0, 99)),
        guard.score(&attacked_probe.frame(0, 99)),
    );

    // --- Evaluation: ROC + latency across a small scenario grid. --------
    let scenarios = vec![
        ScenarioSpec::new(VectorSpec::Actuation, AttackTarget::Both, 0.10, 0),
        ScenarioSpec::new(VectorSpec::Hotspot, AttackTarget::ConvBlock, 0.05, 0),
        ScenarioSpec::new(VectorSpec::laser_default(), AttackTarget::FcBlock, 0.05, 0),
        ScenarioSpec::stacked(stacked_pair(), AttackTarget::Both, 0.05, 0),
    ];
    let report = run_detection(
        &bundle.network,
        &mapping,
        &safelight_onn::AnalyticBackend::new(&config),
        &scenarios,
        &default_detectors(),
        &DetectionOptions {
            frames: 16,
            onset: 6,
            clean_runs: 24,
            ..DetectionOptions::default()
        },
        2025,
        safelight_neuro::parallel::configured_threads(),
    )?;
    println!("\ndetector     vector               TPR     latency");
    for c in &report.cells {
        println!(
            "{:<12} {:<20} {:>5.0}% {:>9}",
            c.detector,
            format!("{} {:.0}%", c.vector, c.fraction * 100.0),
            c.tpr * 100.0,
            if c.mean_latency_frames.is_finite() {
                format!("{:.1} fr", c.mean_latency_frames)
            } else {
                "—".into()
            }
        );
    }
    let best = report.best_for(&scenarios[0]).expect("cell evaluated");
    println!(
        "\nbest detector on 10% actuation: {} (TPR {:.0}%, FPR target met)",
        best.detector,
        best.tpr * 100.0
    );
    Ok(())
}
