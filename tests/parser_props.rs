//! Totality of the command-line and spec parsers: `SloSpec` (`--slo`),
//! `ArrivalModel` (`--arrival`), `BackendKind` (`--backend`), and the
//! attack and fault grammars (`ScenarioSpec`, `VectorSpec`, `Selection`,
//! `AttackTarget`, `FaultSpec`, `FaultVector`).
//!
//! On any input each `from_str` returns `Ok` or `Err` and never panics,
//! and every accepted value parses back from its own printed form
//! (`Display`, or `to_spec_string` for the two spec types).

use proptest::collection::vec;
use proptest::prelude::*;
use safelight::attack::{AttackTarget, ScenarioSpec, Selection, VectorSpec};
use safelight::fault::{FaultSpec, FaultVector};
use safelight_obs::SloSpec;
use safelight_onn::{BackendKind, SensorChannel};
use safelight_serve::ArrivalModel;

/// Pieces of the grammars, `|`-separated (one piece is empty). Strings
/// built from them reach the parsers' field and range checks, not only
/// their first rejection.
const TOKENS: &str = "avail|p99|p999|shed|spurious|default|closed|inf|poisson|bursty|fast|\
optical|quantized|actuation|hotspot|laser|trim|uniform|clustered|targeted|conv|fc|both|CONV|FC|\
dead|stuck|drift|glitch|crash|drop|temp|rail|sentinel|=|,|:|/|+| |0|1|4|16|0.5|1.5|-1|\
-0|nan|NaN|-inf|1e3|1e-400|255|256|18446744073709551616||é";

/// The spec-string form of `target`, as the spec grammars print it.
fn target_spec(target: AttackTarget) -> String {
    let spec = ScenarioSpec::new(VectorSpec::Actuation, target, 0.5, 0).to_spec_string();
    spec.split('/').nth(2).expect("five spec fields").to_owned()
}

/// Whether an accepted attack-vector parameter is finite and positive.
fn vector_is_valid(vector: &VectorSpec) -> bool {
    match *vector {
        VectorSpec::Actuation | VectorSpec::Hotspot => true,
        VectorSpec::LaserDegradation { loss_db: v } | VectorSpec::TrimDrift { detune_rel: v } => {
            v.is_finite() && v > 0.0
        }
    }
}

/// Parses `s` with every parser; every accepted value must satisfy its
/// type's invariants and survive a print → parse round trip.
fn check_all(s: &str) {
    if let Ok(spec) = s.parse::<SloSpec>() {
        assert!((0.0..=1.0).contains(&spec.availability), "{s:?}");
        assert!((0.0..=1.0).contains(&spec.shed_rate), "{s:?}");
        assert!(spec.p99_latency_ticks.is_finite() && spec.p99_latency_ticks > 0.0);
        assert!(spec.p999_latency_ticks.is_finite() && spec.p999_latency_ticks > 0.0);
        assert_eq!(spec.to_string().parse::<SloSpec>(), Ok(spec), "{s:?}");
    }
    if let Ok(model) = s.parse::<ArrivalModel>() {
        assert!(model.is_valid(), "{s:?} parsed to {model:?}");
        assert_eq!(
            model.to_string().parse::<ArrivalModel>(),
            Ok(model),
            "{s:?}"
        );
    }
    if let Ok(kind) = s.parse::<BackendKind>() {
        assert_eq!(kind.to_string().parse::<BackendKind>(), Ok(kind), "{s:?}");
    }
    if let Ok(vector) = s.parse::<VectorSpec>() {
        assert!(vector_is_valid(&vector), "{s:?} parsed to {vector:?}");
        assert_eq!(vector.to_string().parse::<VectorSpec>().ok(), Some(vector));
    }
    if let Ok(selection) = s.parse::<Selection>() {
        assert_eq!(
            selection.to_string().parse::<Selection>().ok(),
            Some(selection)
        );
    }
    if let Ok(target) = s.parse::<AttackTarget>() {
        assert_eq!(
            target_spec(target).parse::<AttackTarget>().ok(),
            Some(target)
        );
        assert_eq!(
            target.to_string().parse::<AttackTarget>().ok(),
            Some(target)
        );
    }
    if let Ok(spec) = s.parse::<ScenarioSpec>() {
        assert!(spec.fraction > 0.0 && spec.fraction <= 1.0, "{s:?}");
        assert!(spec.vectors.iter().all(vector_is_valid), "{s:?}");
        let text = spec.to_spec_string();
        assert_eq!(text.parse::<ScenarioSpec>().ok(), Some(spec), "{s:?}");
    }
    if let Ok(vector) = s.parse::<FaultVector>() {
        assert_eq!(vector.to_string().parse::<FaultVector>().ok(), Some(vector));
    }
    if let Ok(spec) = s.parse::<FaultSpec>() {
        assert!((0.0..=1.0).contains(&spec.fraction), "{s:?}");
        let text = spec.to_spec_string();
        assert_eq!(text.parse::<FaultSpec>().ok(), Some(spec), "{s:?}");
    }
}

/// One of the five sensor channels.
fn channel(which: u8) -> SensorChannel {
    match which % 5 {
        0 => SensorChannel::DropCurrent,
        1 => SensorChannel::DeltaKelvin,
        2 => SensorChannel::RailPower,
        3 => SensorChannel::TrimOffsetNm,
        _ => SensorChannel::Sentinel,
    }
}

/// One of the three attack targets.
fn target(which: u8) -> AttackTarget {
    match which % 3 {
        0 => AttackTarget::ConvBlock,
        1 => AttackTarget::FcBlock,
        _ => AttackTarget::Both,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes, read as (lossy) UTF-8.
    #[test]
    fn parsers_are_total_on_arbitrary_bytes(bytes in vec(any::<u8>(), 0..48)) {
        check_all(&String::from_utf8_lossy(&bytes));
    }

    /// Arbitrary sequences of grammar tokens.
    #[test]
    fn parsers_are_total_on_grammar_tokens(picks in vec(any::<u8>(), 0..12)) {
        let tokens: Vec<&str> = TOKENS.split('|').collect();
        let s: String = picks
            .iter()
            .map(|&b| tokens[usize::from(b) % tokens.len()])
            .collect();
        check_all(&s);
    }

    /// Every valid SLO spec round-trips through its printed form.
    #[test]
    fn slo_spec_display_round_trips(
        avail in 0.0f64..=1.0,
        p99 in 1e-3f64..1e6,
        p999 in 1e-3f64..1e6,
        shed in 0.0f64..=1.0,
        spurious in any::<u64>(),
    ) {
        let spec = SloSpec {
            availability: avail,
            p99_latency_ticks: p99,
            p999_latency_ticks: p999,
            shed_rate: shed,
            spurious_quarantine_budget: spurious,
        };
        prop_assert_eq!(spec.to_string().parse::<SloSpec>(), Ok(spec));
    }

    /// Every valid arrival model round-trips through its printed form.
    #[test]
    fn arrival_model_display_round_trips(
        which in 0u8..3,
        rate in 1e-6f64..1e6,
        burst in 1usize..1_000,
    ) {
        let model = match which {
            0 => ArrivalModel::Closed,
            1 => ArrivalModel::Poisson { rate },
            _ => ArrivalModel::Bursty { rate, burst },
        };
        prop_assert_eq!(model.to_string().parse::<ArrivalModel>(), Ok(model));
    }

    /// Every valid scenario spec round-trips through its spec string.
    #[test]
    fn scenario_spec_string_round_trips(
        kinds in vec(0u8..4, 1..4),
        param in 1e-6f64..1e3,
        selection in 0u8..3,
        which_target in any::<u8>(),
        fraction in 1e-9f64..=1.0,
        trial in any::<u64>(),
    ) {
        let vectors = kinds
            .iter()
            .map(|&k| match k {
                0 => VectorSpec::Actuation,
                1 => VectorSpec::Hotspot,
                2 => VectorSpec::LaserDegradation { loss_db: param },
                _ => VectorSpec::TrimDrift { detune_rel: param },
            })
            .collect();
        let spec = ScenarioSpec::stacked(vectors, target(which_target), fraction, trial)
            .with_selection(Selection::all()[usize::from(selection)]);
        prop_assert_eq!(spec.to_spec_string().parse::<ScenarioSpec>().ok(), Some(spec));
    }

    /// Every valid fault spec round-trips through its spec string.
    #[test]
    fn fault_spec_string_round_trips(
        kind in 0u8..5,
        which_channel in any::<u8>(),
        per_batch in -1e3f64..1e3,
        noise in 0.0f64..1e3,
        depth in 1e-9f64..=1.0,
        duration in 1u64..1_000,
        which_target in any::<u8>(),
        fraction in 1e-9f64..=1.0,
        onset in any::<u64>(),
        trial in any::<u64>(),
    ) {
        let channel = channel(which_channel);
        let vector = match kind {
            0 => FaultVector::DeadSensor { channel },
            1 => FaultVector::StuckSensor { channel },
            2 => FaultVector::DriftSensor { channel, per_batch, noise },
            3 => FaultVector::RailGlitch { depth, duration },
            _ => FaultVector::Crash,
        };
        let spec = FaultSpec {
            trial,
            ..FaultSpec::new(vector, target(which_target), fraction, onset)
        };
        prop_assert_eq!(spec.to_spec_string().parse::<FaultSpec>().ok(), Some(spec));
    }

    /// Every attack target parses back from both of its printed forms:
    /// the `Display` spelling the reports use and the spec-string token.
    #[test]
    fn attack_target_display_round_trips(which in any::<u8>()) {
        let t = target(which);
        prop_assert_eq!(t.to_string().parse::<AttackTarget>().ok(), Some(t));
        prop_assert_eq!(target_spec(t).parse::<AttackTarget>().ok(), Some(t));
    }

    /// Every backend selector round-trips through its printed form.
    #[test]
    fn backend_kind_display_round_trips(
        which in 0u8..3,
        weight_bits in any::<u8>(),
        readout_bits in any::<u8>(),
    ) {
        let kind = match which {
            0 => BackendKind::Fast,
            1 => BackendKind::Optical,
            _ => BackendKind::Quantized { weight_bits, readout_bits },
        };
        prop_assert_eq!(kind.to_string().parse::<BackendKind>(), Ok(kind));
    }
}
