//! Totality of three command-line parsers: `SloSpec` (`--slo`),
//! `ArrivalModel` (`--arrival`) and `BackendKind` (`--backend`).
//!
//! On any input each `from_str` returns `Ok` or `Err` and never panics,
//! and every accepted value parses back from its own `Display` form.

use proptest::collection::vec;
use proptest::prelude::*;
use safelight_obs::SloSpec;
use safelight_onn::BackendKind;
use safelight_serve::ArrivalModel;

/// Pieces of the three grammars, `|`-separated (one piece is empty).
/// Strings built from them reach the parsers' field and range checks, not
/// only their first rejection.
const TOKENS: &str = "avail|p99|p999|shed|spurious|default|closed|inf|poisson|bursty|fast|\
optical|quantized|=|,|:| |0|1|4|16|0.5|1.5|-1|nan|NaN|-inf|1e3|1e-400|255|256|\
18446744073709551616||é";

/// Parses `s` with all three parsers; every accepted value must satisfy
/// its type's invariants and survive a `Display` → `FromStr` round trip.
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
