//! Detection hot-path benchmarks: telemetry-probe construction (clean,
//! attacked, and re-derived after a remap), per-frame emission, and the
//! calibrated detector suite scoring a frame stream — the inner loop
//! every ROC point of `eval::detection` is built from.

use criterion::{criterion_group, criterion_main, Criterion};
use safelight::attack::{inject, AttackTarget, ScenarioSpec, VectorSpec};
use safelight::detect::default_detectors;
use safelight::models::{build_model, matched_accelerator, ModelKind};
use safelight_onn::{
    BlockKind, ConditionMap, MrCondition, SentinelPlan, TelemetryFrame, TelemetryProbe,
};

fn setup() -> (
    safelight_neuro::Network,
    safelight_onn::WeightMapping,
    safelight_onn::AcceleratorConfig,
    SentinelPlan,
) {
    let bundle = build_model(ModelKind::Cnn1, 7).unwrap();
    let config = matched_accelerator(ModelKind::Cnn1).unwrap();
    let mapping = safelight_onn::WeightMapping::new(&config, &bundle.layer_specs).unwrap();
    let sentinels = SentinelPlan::new(&mapping, &config, 32);
    (bundle.network, mapping, config, sentinels)
}

fn bench_probe_construction(c: &mut Criterion) {
    let (network, mapping, config, sentinels) = setup();
    let attacked = inject(
        &ScenarioSpec::new(VectorSpec::Actuation, AttackTarget::Both, 0.10, 0),
        &config,
        7,
    )
    .unwrap();
    let clean = ConditionMap::new();
    c.bench_function("telemetry_probe_new_cnn1_clean", |b| {
        b.iter(|| TelemetryProbe::new(&network, &mapping, &clean, &config, &sentinels).unwrap())
    });
    c.bench_function("telemetry_probe_new_cnn1_10pct", |b| {
        b.iter(|| TelemetryProbe::new(&network, &mapping, &attacked, &config, &sentinels).unwrap())
    });
    // The re-derivation after one quarantine/remap cycle: the rings of
    // two FC banks relocated onto spares and parked, on top of the attack.
    let mut remapped = mapping.clone();
    let mut conditions = attacked.clone();
    let per_bank = config.block(BlockKind::Fc).mrs_per_bank() as u64;
    let quarantined: Vec<u64> = (0..2 * per_bank).collect();
    assert!(remapped
        .remap_params(BlockKind::Fc, &quarantined)
        .unwrap()
        .fully_placed());
    for &ring in &quarantined {
        conditions.stack(BlockKind::Fc, ring, MrCondition::Parked);
    }
    c.bench_function("telemetry_probe_new_cnn1_after_remap", |b| {
        b.iter(|| {
            TelemetryProbe::new(&network, &remapped, &conditions, &config, &sentinels).unwrap()
        })
    });
}

fn bench_frame_emission(c: &mut Criterion) {
    let (network, mapping, config, sentinels) = setup();
    let probe = TelemetryProbe::new(
        &network,
        &mapping,
        &ConditionMap::new(),
        &config,
        &sentinels,
    )
    .unwrap();
    let mut batch = 0u64;
    c.bench_function("telemetry_frame_emit", |b| {
        b.iter(|| {
            batch = batch.wrapping_add(1);
            probe.frame(batch, 42)
        })
    });
}

fn bench_detector_scoring(c: &mut Criterion) {
    let (network, mapping, config, sentinels) = setup();
    let probe = TelemetryProbe::new(
        &network,
        &mapping,
        &ConditionMap::new(),
        &config,
        &sentinels,
    )
    .unwrap();
    let calibration: Vec<TelemetryFrame> = (0..32).map(|b| probe.frame(b, 1)).collect();
    let stream: Vec<TelemetryFrame> = (0..16).map(|b| probe.frame(b, 2)).collect();
    let mut suite = default_detectors();
    for d in &mut suite {
        d.calibrate(&calibration).unwrap();
    }
    c.bench_function("detector_suite_score_16_frames", |b| {
        b.iter(|| {
            let mut total = 0.0;
            for d in &mut suite {
                d.reset();
                for frame in &stream {
                    total += d.score(frame);
                }
            }
            total
        })
    });
}

/// The backend axis: attacked-probe construction through each datapath
/// backend on a reduced profile (the optical path simulates every slot).
fn bench_probe_backends(c: &mut Criterion) {
    use safelight_onn::{BackendKind, BlockConfig};
    let bundle = build_model(ModelKind::Cnn1, 7).unwrap();
    let config = safelight_onn::AcceleratorConfig::custom(
        BlockConfig {
            vdp_units: 4,
            bank_rows: 4,
            bank_cols: 8,
        },
        BlockConfig {
            vdp_units: 8,
            bank_rows: 16,
            bank_cols: 16,
        },
    )
    .unwrap();
    let mapping = safelight_onn::WeightMapping::new(&config, &bundle.layer_specs).unwrap();
    let sentinels = SentinelPlan::new(&mapping, &config, 8);
    let attacked = inject(
        &ScenarioSpec::new(VectorSpec::Actuation, AttackTarget::Both, 0.10, 0),
        &config,
        7,
    )
    .unwrap();
    let mut group = c.benchmark_group("probe_backend");
    group.sample_size(10);
    for kind in BackendKind::all() {
        let backend = kind.build(&config);
        group.bench_function(
            criterion::BenchmarkId::from_parameter(backend.name()),
            |b| {
                b.iter(|| {
                    backend
                        .probe(&bundle.network, &mapping, &attacked, &sentinels)
                        .unwrap()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_probe_construction,
    bench_frame_emission,
    bench_detector_scoring,
    bench_probe_backends
);
criterion_main!(benches);
