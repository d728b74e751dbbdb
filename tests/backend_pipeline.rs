//! Cross-backend acceptance tests for the `InferenceBackend` abstraction:
//!
//! * the analytic and physical backends agree within tolerance on
//!   effective weights and telemetry frames across the extended fault
//!   grid (every `MrCondition` variant, stacked `Attenuated`/`Detuned`
//!   states included);
//! * the quantized backend's accuracy is monotone in converter bit depth;
//! * every backend exposed via `repro --backend` produces byte-identical
//!   detection CSVs at 1 vs N worker threads.

use proptest::prelude::*;
use safelight::attack::{AttackTarget, ScenarioSpec, VectorSpec};
use safelight::detect::default_detectors;
use safelight::eval::{detection_roc_csv, detection_summary_csv, run_detection, DetectionOptions};
use safelight::models::{build_model, ModelKind};
use safelight_neuro::{accuracy, Flatten, Layer, Linear, Network, Tensor, Trainer, TrainerConfig};
use safelight_onn::{
    effective_weight_row, AcceleratorConfig, AnalyticBackend, BackendKind, BlockConfig, BlockKind,
    ConditionMap, DropResponseModel, InferenceBackend, MrCondition, OpticalVdp, PhysicalBackend,
    QuantizedBackend, SentinelPlan, WeightMapping,
};

/// The per-channel agreement bound between the analytic closed form and
/// the physical read-back. Rings whose drop response falls below the drop
/// floor expose the one modeling difference (the analytic per-rail decode
/// clamps there, the balanced detector sees the full swing), which bounds
/// the gap at ~drop_floor/(1 − drop_floor) ≈ 0.13; everything else agrees
/// to converter precision.
const WEIGHT_TOL: f64 = 0.15;

/// An arbitrary condition from primitive draws, covering every
/// `MrCondition` variant including stacked (heat-carrying) `Attenuated`
/// and `Detuned` states.
fn condition_from(tag: u64, quarter_kelvin: u64, eighth_nm: u64, factor_pct: u64) -> MrCondition {
    let dk = quarter_kelvin as f64 * 0.25;
    let nm = eighth_nm as f64 * 0.125;
    let factor = (factor_pct % 101) as f64 / 100.0;
    match tag % 5 {
        0 => MrCondition::Healthy,
        1 => MrCondition::Parked,
        2 => MrCondition::Heated { delta_kelvin: dk },
        3 => MrCondition::Attenuated {
            factor,
            delta_kelvin: dk,
        },
        _ => MrCondition::Detuned {
            offset_nm: nm,
            delta_kelvin: dk,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The analytic row algebra and the physical one-hot read-back agree
    /// within tolerance for arbitrary weights and fault patterns.
    #[test]
    fn analytic_and_physical_effective_weights_agree(
        w in proptest::collection::vec(-1.0f64..1.0, 4..8),
        tags in proptest::collection::vec(0u64..5, 4..8),
        dks in proptest::collection::vec(0u64..80, 4..8),
        factors in proptest::collection::vec(0u64..=100, 4..8),
    ) {
        let config = AcceleratorConfig::paper().unwrap();
        let p = DropResponseModel::from_config(&config);
        let n = w.len().min(tags.len()).min(dks.len()).min(factors.len());
        let w = &w[..n];
        let conds: Vec<MrCondition> = (0..n)
            .map(|i| condition_from(tags[i], dks[i], dks[i], factors[i]))
            .collect();
        let analytic = effective_weight_row(w, &conds, &p);
        let mut vdp = OpticalVdp::new(&config, n).unwrap();
        let physical = vdp.effective_weight_readback(w, &conds).unwrap();
        for (c, (a, ph)) in analytic.iter().zip(&physical).enumerate() {
            prop_assert!(
                (a - ph).abs() < WEIGHT_TOL,
                "channel {c} ({:?}): analytic {a} vs physical {ph}",
                conds[c]
            );
        }
    }
}

/// A deterministic 16-weight FC fixture shared by the telemetry and
/// detection cross-backend tests.
fn tiny_fixture() -> (Network, WeightMapping, AcceleratorConfig) {
    let mut net = Network::new();
    net.push(Flatten::new());
    let mut fc = Linear::new(4, 4, 3).unwrap();
    fc.params_mut()[0].value = Tensor::from_vec(
        vec![4, 4],
        (0..16).map(|i| 0.15 + (i as f32) / 24.0).collect(),
    )
    .unwrap();
    net.push(fc);
    let config = AcceleratorConfig::custom(
        BlockConfig {
            vdp_units: 2,
            bank_rows: 2,
            bank_cols: 4,
        },
        BlockConfig {
            vdp_units: 2,
            bank_rows: 2,
            bank_cols: 4,
        },
    )
    .unwrap();
    let mapping = WeightMapping::new(
        &config,
        &[safelight_onn::LayerSpec::new("fc", BlockKind::Fc, 16)],
    )
    .unwrap();
    (net, mapping, config)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The analytic and physical telemetry probes agree within tolerance on
    /// every sensor channel — noiseless means and (same-seed) noisy frames
    /// alike — across the extended condition grid.
    #[test]
    fn analytic_and_physical_telemetry_frames_agree(
        tags in proptest::collection::vec(0u64..5, 1..6),
        dks in proptest::collection::vec(0u64..60, 1..6),
        factors in proptest::collection::vec(0u64..=100, 1..6),
        rings in proptest::collection::vec(0u64..16, 1..6),
    ) {
        let (net, mapping, config) = tiny_fixture();
        let sentinels = SentinelPlan::new(&mapping, &config, 4);
        let mut conditions = ConditionMap::new();
        let n = tags.len().min(dks.len()).min(factors.len()).min(rings.len());
        for i in 0..n {
            conditions.stack(
                BlockKind::Fc,
                rings[i],
                condition_from(tags[i], dks[i], dks[i], factors[i]),
            );
        }
        let probe = |backend: &dyn InferenceBackend| {
            backend
                .probe(&net, &mapping, &conditions, &sentinels)
                .unwrap()
        };
        let a = probe(&AnalyticBackend::new(&config));
        let p = probe(&PhysicalBackend::new(&config));
        let fa = a.noiseless(0);
        let fp = p.noiseless(0);
        for kind in [BlockKind::Conv, BlockKind::Fc] {
            for (i, (ba, bp)) in fa.banks(kind).iter().zip(fp.banks(kind)).enumerate() {
                prop_assert!(
                    (ba.drop_current - bp.drop_current).abs() < 0.02,
                    "{kind} bank {i} drop: {} vs {}", ba.drop_current, bp.drop_current
                );
                // The non-optical sensors share one code path exactly.
                prop_assert_eq!(ba.delta_kelvin, bp.delta_kelvin);
                prop_assert_eq!(ba.rail_power, bp.rail_power);
                prop_assert_eq!(ba.trim_offset_nm, bp.trim_offset_nm);
            }
            for (sa, sp) in fa.sentinels(kind).iter().zip(fp.sentinels(kind)) {
                prop_assert!((sa - sp).abs() < 0.02, "sentinel {sa} vs {sp}");
            }
        }
        // Same-seed noisy frames differ exactly by the mean gap: the noise
        // stream is shared, so the bound carries over.
        let na = a.frame(3, 99);
        let np = p.frame(3, 99);
        for (ba, bp) in na.banks(BlockKind::Fc).iter().zip(np.banks(BlockKind::Fc)) {
            prop_assert!((ba.drop_current - bp.drop_current).abs() < 0.02);
        }
    }
}

#[test]
fn quantized_backend_accuracy_is_monotone_in_bit_depth() {
    // A trained classifier evaluated through progressively coarser
    // converters: accuracy must not increase as bit depth drops, and the
    // 1-bit extreme must pay a real price.
    let data = safelight_datasets::digits(&safelight_datasets::SyntheticSpec {
        train: 240,
        test: 120,
        ..safelight_datasets::SyntheticSpec::default()
    })
    .unwrap();
    let bundle = build_model(ModelKind::Cnn1, 3).unwrap();
    let mut network = bundle.network;
    Trainer::new(TrainerConfig {
        epochs: 4,
        batch_size: 20,
        ..TrainerConfig::default()
    })
    .fit(&mut network, &data.train)
    .unwrap();
    let config = AcceleratorConfig::scaled_experiment().unwrap();
    let mapping = WeightMapping::new(&config, &bundle.layer_specs).unwrap();

    let accuracy_at = |bits: u8| -> f64 {
        let backend = QuantizedBackend::new(&config, bits, bits.max(4));
        let mut effective = backend
            .derive_network(&network, &mapping, &ConditionMap::new())
            .unwrap();
        accuracy(&mut effective, &data.test, 32).unwrap()
    };
    let depths = [8u8, 5, 3, 2, 1];
    let accs: Vec<f64> = depths.iter().map(|&b| accuracy_at(b)).collect();
    // Tolerance: the quantized backend runs inference through the integer
    // datapath, which also puts *activations* on the input-DAC grid. At
    // fine weight depths that grid noise moves a handful of the 120 test
    // samples either way, so adjacent depths can swap by a few samples;
    // the monotone trend and the 1-bit cliff are the physical claims.
    for (pair, (&hi, &lo)) in accs.windows(2).zip(depths.iter().zip(&depths[1..])) {
        assert!(
            pair[1] <= pair[0] + 0.04,
            "accuracy rose when dropping {hi} → {lo} bits: {} → {}",
            pair[0],
            pair[1]
        );
    }
    assert!(
        accs[accs.len() - 1] < accs[0] - 0.05,
        "1-bit weights should cost real accuracy: {accs:?}"
    );
}

#[test]
fn detection_csvs_are_thread_invariant_for_every_backend() {
    // The acceptance bar: each backend exposed via `repro --backend`
    // produces byte-identical detection CSVs at 1 vs N worker threads.
    // Runs on the tiny fixture so the optical backend (which simulates
    // every telemetry slot) stays affordable in debug builds.
    let (net, mapping, config) = tiny_fixture();
    let scenarios = vec![
        ScenarioSpec::new(VectorSpec::Actuation, AttackTarget::FcBlock, 0.25, 0),
        ScenarioSpec::new(VectorSpec::laser_default(), AttackTarget::FcBlock, 0.25, 0),
    ];
    let opts = DetectionOptions {
        frames: 8,
        onset: 3,
        calibration_frames: 12,
        clean_runs: 8,
        attack_runs: 2,
        threshold_points: 4,
        sentinels_per_block: 4,
    };
    for kind in BackendKind::all() {
        let backend = kind.build(&config);
        let run = |threads: usize| {
            run_detection(
                &net,
                &mapping,
                backend.as_ref(),
                &scenarios,
                &default_detectors(),
                &opts,
                2025,
                threads,
            )
            .unwrap()
        };
        let serial = run(1);
        let parallel = run(3);
        assert_eq!(
            detection_roc_csv(&serial),
            detection_roc_csv(&parallel),
            "backend `{}` ROC differs across thread counts",
            backend.name()
        );
        assert_eq!(
            detection_summary_csv(&serial),
            detection_summary_csv(&parallel),
            "backend `{}` summary differs across thread counts",
            backend.name()
        );
    }
}

#[test]
fn backends_share_one_physics_model() {
    // The refactor's acceptance criterion in executable form: every
    // backend reports the same DropResponseModel constants for the same
    // configuration — there is exactly one physics implementation.
    let config = AcceleratorConfig::scaled_experiment().unwrap();
    let reference = DropResponseModel::from_config(&config);
    for kind in [BackendKind::Fast, BackendKind::Optical] {
        assert_eq!(kind.build(&config).model(), &reference, "{kind}");
    }
    // The quantized backend differs only in its DAC step count.
    let quantized = BackendKind::quantized_default().build(&config);
    let mut expected = reference;
    expected.dac_steps = DropResponseModel::steps_from_bits(BackendKind::DEFAULT_WEIGHT_BITS);
    assert_eq!(quantized.model(), &expected);
}
