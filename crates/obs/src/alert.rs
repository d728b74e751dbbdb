//! Virtual-time SLO specs and alerting rules.
//!
//! This is the *judgment* layer over [`crate::metrics`]: an [`SloSpec`]
//! states the promises a serving fleet makes (availability, tail latency
//! in virtual ticks, shed rate, spurious-quarantine budget), an
//! [`AlertRule`] states when telemetry should page, and an
//! [`AlertEngine`] evaluates the rules against metric snapshots and
//! per-tick sample logs.
//!
//! Everything here runs on **virtual time only**. Threshold rules read a
//! point-in-time [`MetricsSnapshot`] (a pure function of the seed);
//! burn-rate rules read cumulative per-tick sample logs recorded from the
//! serial admission path. No wall clock is ever consulted, so alert
//! firings — like the traces and metrics they judge — are byte-identical
//! across worker-thread counts. See `docs/observability.md`.
//!
//! The spec grammar is a comma-separated `key=value` list over the
//! defaults, e.g. `avail=0.95,p99=8,p999=16,shed=0.02,spurious=0`, with
//! `default` as an alias for the stock spec; [`SloSpec`] round-trips
//! through `Display`/`FromStr` so `repro --slo SPEC` can both parse and
//! reprint it. Parsing rejects a non-finite field, an `avail` or `shed`
//! outside [0, 1] and a non-positive `p99` or `p999`.

use crate::metrics::{split_labels, MetricsSnapshot, SnapshotValue};
use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

/// A serving-level-objective specification: the promises a fleet makes
/// over one stream, judged against deterministic end-of-run statistics.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SloSpec {
    /// Minimum fraction of offered requests served undegraded.
    pub availability: f64,
    /// Maximum p99 request latency in virtual ticks.
    pub p99_latency_ticks: f64,
    /// Maximum p99.9 request latency in virtual ticks.
    pub p999_latency_ticks: f64,
    /// Maximum fraction of offered requests shed at admission.
    pub shed_rate: f64,
    /// Maximum tolerated spurious quarantines (false-positive
    /// discriminations) per stream.
    pub spurious_quarantine_budget: u64,
}

impl Default for SloSpec {
    /// The stock spec (`--slo default`): 90% availability, p99 ≤ 16
    /// ticks, p99.9 ≤ 32 ticks, ≤ 5% shed, zero spurious quarantines.
    fn default() -> Self {
        SloSpec {
            availability: 0.90,
            p99_latency_ticks: 16.0,
            p999_latency_ticks: 32.0,
            shed_rate: 0.05,
            spurious_quarantine_budget: 0,
        }
    }
}

impl fmt::Display for SloSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "avail={},p99={},p999={},shed={},spurious={}",
            self.availability,
            self.p99_latency_ticks,
            self.p999_latency_ticks,
            self.shed_rate,
            self.spurious_quarantine_budget
        )
    }
}

impl FromStr for SloSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if s.is_empty() || s == "default" {
            return Ok(SloSpec::default());
        }
        let mut spec = SloSpec::default();
        for part in s.split(',') {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("SLO spec field {part:?} is not key=value"))?;
            let key = key.trim();
            if key == "spurious" {
                spec.spurious_quarantine_budget = value
                    .parse::<u64>()
                    .map_err(|_| format!("SLO spec field spurious={value:?} is not a count"))?;
                continue;
            }
            let (field, is_fraction) = match key {
                "avail" | "availability" => (&mut spec.availability, true),
                "p99" => (&mut spec.p99_latency_ticks, false),
                "p999" => (&mut spec.p999_latency_ticks, false),
                "shed" => (&mut spec.shed_rate, true),
                other => {
                    return Err(format!(
                        "unknown SLO spec key {other:?} (avail, p99, p999, shed, spurious)"
                    ))
                }
            };
            let x = value
                .parse::<f64>()
                .map_err(|_| format!("SLO spec field {key}={value:?} is not a number"))?;
            // NaN fails both checks, so no non-finite value gets through.
            let (valid, expected) = if is_fraction {
                ((0.0..=1.0).contains(&x), "a finite fraction in [0, 1]")
            } else {
                (x.is_finite() && x > 0.0, "a positive, finite tick count")
            };
            if !valid {
                return Err(format!("SLO spec field {key}={value:?} must be {expected}"));
            }
            *field = x;
        }
        Ok(spec)
    }
}

/// Per-stream statistics an [`SloSpec`] is judged against.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SloInput {
    /// Fraction of offered requests served undegraded.
    pub availability: f64,
    /// p99 request latency in virtual ticks (NaN when unserved).
    pub p99_latency: f64,
    /// p99.9 request latency in virtual ticks (NaN when unserved).
    pub p999_latency: f64,
    /// Fraction of offered requests shed at admission.
    pub shed_rate: f64,
    /// Spurious quarantines observed in the stream.
    pub spurious_quarantines: u64,
}

/// The judgment: pass/fail plus which objectives were violated and how
/// much of the availability error budget the stream burned.
#[derive(Clone, Debug, PartialEq)]
pub struct SloVerdict {
    /// True when every objective held.
    pub pass: bool,
    /// Names of violated objectives, in spec order.
    pub violated: Vec<&'static str>,
    /// Fraction of the availability error budget consumed:
    /// `(1 − availability) / (1 − target)`; infinite when the budget is
    /// zero and any unavailability occurred, NaN when unmeasurable.
    pub budget_burn: f64,
}

impl SloSpec {
    /// Judge one stream's statistics against this spec. NaN inputs (an
    /// unmeasurable objective, e.g. latency of a stream that served
    /// nothing) do not count as violations.
    pub fn verdict(&self, input: &SloInput) -> SloVerdict {
        let mut violated = Vec::new();
        if input.availability < self.availability {
            violated.push("availability");
        }
        if input.p99_latency > self.p99_latency_ticks {
            violated.push("p99_latency");
        }
        if input.p999_latency > self.p999_latency_ticks {
            violated.push("p999_latency");
        }
        if input.shed_rate > self.shed_rate {
            violated.push("shed_rate");
        }
        if input.spurious_quarantines > self.spurious_quarantine_budget {
            violated.push("spurious_quarantine");
        }
        let budget_burn = error_budget_burn(input.availability, self.availability);
        SloVerdict {
            pass: violated.is_empty(),
            violated,
            budget_burn,
        }
    }
}

/// `(1 − availability) / (1 − target)`: 1.0 means the stream consumed
/// exactly its error budget. A zero budget (target = 1) burns infinitely
/// on any unavailability and 0 on none; NaN availability is NaN.
pub fn error_budget_burn(availability: f64, target: f64) -> f64 {
    if availability.is_nan() {
        return f64::NAN;
    }
    let err = (1.0 - availability).max(0.0);
    let budget = 1.0 - target;
    if budget > 0.0 {
        err / budget
    } else if err > 0.0 {
        f64::INFINITY
    } else {
        0.0
    }
}

/// Direction of a threshold comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cmp {
    /// Fire when the observed value exceeds the threshold.
    Above,
    /// Fire when the observed value falls below the threshold.
    Below,
}

/// What a rule watches and when it fires.
#[derive(Clone, Debug, PartialEq)]
pub enum AlertKind {
    /// Compare one series in the snapshot against a fixed threshold.
    ///
    /// `series` selects by base name (labels ignored), optionally with a
    /// `:p50` / `:p99` / `:p999` / `:sum` / `:count` / `:max` / `:min`
    /// suffix for histograms; a bare histogram name reads its count.
    /// Every labeled instance of the series is checked and each violating
    /// instance fires once.
    Threshold {
        /// Series selector (base name plus optional `:stat` suffix).
        series: String,
        /// Comparison direction.
        cmp: Cmp,
        /// Threshold value.
        value: f64,
    },
    /// Multi-window burn-rate over two cumulative per-tick sample logs
    /// (Google SRE-style): fire at the first virtual tick where the
    /// error rate `Δerror/Δtotal` exceeds `factor × budget` over *both*
    /// the long and the short trailing window — the long window filters
    /// noise, the short window guarantees the condition still holds now.
    BurnRate {
        /// Cumulative error counter series (e.g. `serve_shed_total`).
        error_series: String,
        /// Cumulative total counter series (e.g. `serve_offered_total`).
        total_series: String,
        /// Budgeted error rate (e.g. the SLO shed-rate target).
        budget: f64,
        /// Long trailing window in virtual ticks.
        long_window: u64,
        /// Short trailing window in virtual ticks.
        short_window: u64,
        /// Multiple of the budget that pages.
        factor: f64,
    },
}

/// A named alerting rule.
#[derive(Clone, Debug, PartialEq)]
pub struct AlertRule {
    /// Stable rule name (appears in traces, metrics, incident reports).
    pub name: String,
    /// What the rule watches.
    pub kind: AlertKind,
}

/// One rule firing, on virtual time.
#[derive(Clone, Debug, PartialEq)]
pub struct AlertFiring {
    /// Name of the rule that fired.
    pub rule: String,
    /// The concrete (labeled) series or series pair that violated.
    pub series: String,
    /// Virtual tick of the firing (threshold rules fire at the
    /// evaluation tick; burn-rate rules at the first violating tick).
    pub vt: u64,
    /// Observed value at the firing.
    pub value: f64,
    /// Threshold the value crossed.
    pub threshold: f64,
}

/// Evaluates a rule set against snapshots and per-tick sample logs.
///
/// `record` is called from the serial admission path once per virtual
/// tick with cumulative deltas; `evaluate` is called once per stream
/// after the run. Both are deterministic in the seed.
#[derive(Debug, Default)]
pub struct AlertEngine {
    rules: Vec<AlertRule>,
    /// Per-series cumulative sample log: ascending `(vt, value)`.
    samples: BTreeMap<String, Vec<(u64, f64)>>,
}

impl AlertEngine {
    /// An engine over `rules`.
    pub fn new(rules: Vec<AlertRule>) -> AlertEngine {
        AlertEngine {
            rules,
            samples: BTreeMap::new(),
        }
    }

    /// The rule set, in evaluation order.
    pub fn rules(&self) -> &[AlertRule] {
        &self.rules
    }

    /// Append one per-tick delta to `series`' cumulative log. Call once
    /// per tick from the serial control path; repeated calls on the same
    /// tick fold into that tick's sample.
    pub fn record(&mut self, vt: u64, series: &str, delta: f64) {
        let log = self.samples.entry(series.to_string()).or_default();
        match log.last_mut() {
            Some(last) if last.0 == vt => last.1 += delta,
            Some(last) => {
                debug_assert!(last.0 < vt, "sample log must be recorded in tick order");
                let cum = last.1 + delta;
                log.push((vt, cum));
            }
            None => log.push((vt, delta)),
        }
    }

    /// Evaluate every rule: threshold rules against `snapshot` (as of
    /// `end_vt`), burn-rate rules against the recorded sample logs.
    /// Firings are sorted by `(vt, rule, series)` and each rule/series
    /// pair fires at most once.
    pub fn evaluate(&self, snapshot: &MetricsSnapshot, end_vt: u64) -> Vec<AlertFiring> {
        let mut firings = Vec::new();
        for rule in &self.rules {
            match &rule.kind {
                AlertKind::Threshold { series, cmp, value } => {
                    self.eval_threshold(rule, series, *cmp, *value, snapshot, end_vt, &mut firings);
                }
                AlertKind::BurnRate {
                    error_series,
                    total_series,
                    budget,
                    long_window,
                    short_window,
                    factor,
                } => {
                    self.eval_burn_rate(
                        rule,
                        error_series,
                        total_series,
                        *budget,
                        *long_window,
                        *short_window,
                        *factor,
                        &mut firings,
                    );
                }
            }
        }
        firings.sort_by(|a, b| (a.vt, &a.rule, &a.series).cmp(&(b.vt, &b.rule, &b.series)));
        firings
    }

    #[allow(clippy::too_many_arguments)]
    fn eval_threshold(
        &self,
        rule: &AlertRule,
        selector: &str,
        cmp: Cmp,
        threshold: f64,
        snapshot: &MetricsSnapshot,
        end_vt: u64,
        firings: &mut Vec<AlertFiring>,
    ) {
        let (want_base, stat) = match selector.rsplit_once(':') {
            Some((base, stat)) => (base, Some(stat)),
            None => (selector, None),
        };
        for (name, value) in &snapshot.entries {
            let (base, _) = split_labels(name);
            if base != want_base {
                continue;
            }
            let Some(observed) = stat_of(value, stat) else {
                continue;
            };
            let violates = match cmp {
                Cmp::Above => observed > threshold,
                Cmp::Below => observed < threshold,
            };
            // NaN never violates: an unmeasurable series cannot page.
            if violates {
                firings.push(AlertFiring {
                    rule: rule.name.clone(),
                    series: name.clone(),
                    vt: end_vt,
                    value: observed,
                    threshold,
                });
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn eval_burn_rate(
        &self,
        rule: &AlertRule,
        error_series: &str,
        total_series: &str,
        budget: f64,
        long_window: u64,
        short_window: u64,
        factor: f64,
        firings: &mut Vec<AlertFiring>,
    ) {
        if budget <= 0.0 {
            return;
        }
        let (Some(errors), Some(totals)) = (
            self.samples.get(error_series),
            self.samples.get(total_series),
        ) else {
            return;
        };
        let page_at = factor * budget;
        for &(vt, err_now) in errors {
            let Some(tot_now) = value_at(totals, vt) else {
                continue;
            };
            let long_rate = window_rate(errors, totals, vt, long_window, err_now, tot_now);
            let short_rate = window_rate(errors, totals, vt, short_window, err_now, tot_now);
            if let (Some(long), Some(short)) = (long_rate, short_rate) {
                if long >= page_at && short >= page_at {
                    firings.push(AlertFiring {
                        rule: rule.name.clone(),
                        series: format!("{error_series}/{total_series}"),
                        vt,
                        value: long,
                        threshold: page_at,
                    });
                    return;
                }
            }
        }
    }
}

/// Error rate over the trailing `window` ticks ending at `vt`:
/// `Δerror / Δtotal` against the cumulative values just before the
/// window opened (0 before the stream started). None when no requests
/// were offered in the window.
fn window_rate(
    errors: &[(u64, f64)],
    totals: &[(u64, f64)],
    vt: u64,
    window: u64,
    err_now: f64,
    tot_now: f64,
) -> Option<f64> {
    let start = vt.saturating_sub(window);
    let err_base = value_at(errors, start).unwrap_or(0.0);
    let tot_base = value_at(totals, start).unwrap_or(0.0);
    let denom = tot_now - tot_base;
    if denom > 0.0 {
        Some((err_now - err_base) / denom)
    } else {
        None
    }
}

/// Latest cumulative value at or before `vt` in an ascending sample log.
fn value_at(log: &[(u64, f64)], vt: u64) -> Option<f64> {
    let idx = log.partition_point(|&(t, _)| t <= vt);
    idx.checked_sub(1).map(|i| log[i].1)
}

/// Read one statistic from a snapshot value. `stat` is the selector
/// suffix (None = counter/gauge value, histogram count).
fn stat_of(value: &SnapshotValue, stat: Option<&str>) -> Option<f64> {
    match (value, stat) {
        (SnapshotValue::Counter(v), None) => Some(*v as f64),
        (SnapshotValue::Gauge(v), None) => Some(*v),
        (SnapshotValue::Histogram { counts, .. }, None | Some("count")) => {
            Some(counts.iter().sum::<u64>() as f64)
        }
        (SnapshotValue::Histogram { p50, .. }, Some("p50")) => Some(*p50),
        (SnapshotValue::Histogram { p99, .. }, Some("p99")) => Some(*p99),
        (SnapshotValue::Histogram { p999, .. }, Some("p999")) => Some(*p999),
        (SnapshotValue::Histogram { sum, .. }, Some("sum")) => Some(*sum),
        (SnapshotValue::Histogram { min, .. }, Some("min")) => Some(*min),
        (SnapshotValue::Histogram { max, .. }, Some("max")) => Some(*max),
        _ => None,
    }
}

/// The stock rule set for an [`SloSpec`]: threshold rules on the
/// end-of-stream availability / shed-rate gauges and latency tail
/// percentiles, plus a 2× multi-window (12-tick / 3-tick) burn-rate rule
/// over shed vs offered requests.
pub fn default_rules(slo: &SloSpec) -> Vec<AlertRule> {
    let mut rules = vec![
        AlertRule {
            name: "availability_below_target".to_string(),
            kind: AlertKind::Threshold {
                series: "serve_availability".to_string(),
                cmp: Cmp::Below,
                value: slo.availability,
            },
        },
        AlertRule {
            name: "shed_rate_above_target".to_string(),
            kind: AlertKind::Threshold {
                series: "serve_shed_rate".to_string(),
                cmp: Cmp::Above,
                value: slo.shed_rate,
            },
        },
        AlertRule {
            name: "p99_latency_above_target".to_string(),
            kind: AlertKind::Threshold {
                series: "serve_latency_ticks:p99".to_string(),
                cmp: Cmp::Above,
                value: slo.p99_latency_ticks,
            },
        },
        AlertRule {
            name: "p999_latency_above_target".to_string(),
            kind: AlertKind::Threshold {
                series: "serve_latency_ticks:p999".to_string(),
                cmp: Cmp::Above,
                value: slo.p999_latency_ticks,
            },
        },
    ];
    if slo.shed_rate > 0.0 {
        rules.push(AlertRule {
            name: "shed_burn_rate".to_string(),
            kind: AlertKind::BurnRate {
                error_series: "serve_shed_total".to_string(),
                total_series: "serve_offered_total".to_string(),
                budget: slo.shed_rate,
                long_window: 12,
                short_window: 3,
                factor: 2.0,
            },
        });
    }
    rules
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{HistogramConfig, MetricsRegistry};

    #[test]
    fn slo_spec_roundtrips_through_display() {
        let spec = SloSpec {
            availability: 0.95,
            p99_latency_ticks: 8.0,
            p999_latency_ticks: 20.0,
            shed_rate: 0.02,
            spurious_quarantine_budget: 1,
        };
        let printed = spec.to_string();
        assert_eq!(printed, "avail=0.95,p99=8,p999=20,shed=0.02,spurious=1");
        assert_eq!(printed.parse::<SloSpec>().unwrap(), spec);
        assert_eq!("default".parse::<SloSpec>().unwrap(), SloSpec::default());
        for stock in [
            "avail=0.9,p99=16,p999=32,shed=0.05,spurious=0",
            "avail=0.9,p99=16,shed=0.05",
        ] {
            assert_eq!(stock.parse::<SloSpec>().unwrap(), SloSpec::default());
        }
        // Partial specs override the defaults field-wise.
        let partial: SloSpec = "p99=4".parse().unwrap();
        assert_eq!(partial.p99_latency_ticks, 4.0);
        assert_eq!(partial.availability, SloSpec::default().availability);
        assert!("bogus=1".parse::<SloSpec>().is_err());
        assert!("p99=abc".parse::<SloSpec>().is_err());
    }

    /// The error of a rejected spec, which must name the offending field.
    fn rejected(spec: &str, field: &str) {
        let err = spec.parse::<SloSpec>().unwrap_err();
        assert!(err.contains(field), "{spec:?} gave {err:?}");
    }

    #[test]
    fn slo_spec_rejects_non_finite_fields() {
        for field in ["avail", "p99", "p999", "shed"] {
            rejected(&format!("{field}=nan"), field);
            rejected(&format!("{field}=inf"), field);
            rejected(&format!("{field}=-inf"), field);
        }
    }

    #[test]
    fn slo_spec_rejects_fractions_outside_the_unit_interval() {
        rejected("avail=1.5", "avail");
        rejected("avail=-0.1", "avail");
        rejected("shed=2", "shed");
        rejected("shed=-0.5", "shed");
        // The closed interval's ends are legal targets.
        assert_eq!("avail=1".parse::<SloSpec>().unwrap().availability, 1.0);
        assert_eq!("shed=0".parse::<SloSpec>().unwrap().shed_rate, 0.0);
    }

    #[test]
    fn slo_spec_rejects_non_positive_latency_bounds() {
        rejected("p99=0", "p99");
        rejected("p99=-4", "p99");
        rejected("p999=0", "p999");
        rejected("p999=-32", "p999");
    }

    #[test]
    fn verdict_flags_each_objective() {
        let slo = SloSpec::default();
        let good = SloInput {
            availability: 0.99,
            p99_latency: 4.0,
            p999_latency: 9.0,
            shed_rate: 0.0,
            spurious_quarantines: 0,
        };
        let v = slo.verdict(&good);
        assert!(v.pass);
        assert!(v.violated.is_empty());
        assert!((v.budget_burn - 0.1).abs() < 1e-12);

        let bad = SloInput {
            availability: 0.5,
            p99_latency: 40.0,
            p999_latency: 80.0,
            shed_rate: 0.5,
            spurious_quarantines: 3,
        };
        let v = slo.verdict(&bad);
        assert!(!v.pass);
        assert_eq!(
            v.violated,
            [
                "availability",
                "p99_latency",
                "p999_latency",
                "shed_rate",
                "spurious_quarantine"
            ]
        );
        assert!((v.budget_burn - 5.0).abs() < 1e-12);

        // NaN latency (nothing served) is unmeasurable, not a violation.
        let unmeasured = SloInput {
            p99_latency: f64::NAN,
            p999_latency: f64::NAN,
            ..good
        };
        assert!(slo.verdict(&unmeasured).pass);
    }

    #[test]
    fn zero_error_budget_burns_infinitely() {
        assert_eq!(error_budget_burn(0.999, 1.0), f64::INFINITY);
        assert_eq!(error_budget_burn(1.0, 1.0), 0.0);
        assert!(error_budget_burn(f64::NAN, 0.9).is_nan());
    }

    #[test]
    fn threshold_rules_fire_per_labeled_series() {
        let reg = MetricsRegistry::new();
        reg.gauge("serve_availability{case=\"00\"}").set(0.8);
        reg.gauge("serve_availability{case=\"01\"}").set(0.99);
        let h = reg.histogram(
            "serve_latency_ticks{case=\"00\"}",
            HistogramConfig::latency_ticks(),
        );
        for _ in 0..50 {
            h.observe(2.0);
        }
        h.observe(100.0);

        let engine = AlertEngine::new(default_rules(&SloSpec::default()));
        let firings = engine.evaluate(&reg.snapshot(), 48);
        let names: Vec<(&str, &str)> = firings
            .iter()
            .map(|f| (f.rule.as_str(), f.series.as_str()))
            .collect();
        // Only the violating case fires, at the evaluation tick.
        assert!(names.contains(&(
            "availability_below_target",
            "serve_availability{case=\"00\"}"
        )));
        assert!(!names.iter().any(|(_, s)| s.contains("case=\"01\"")));
        // p99 of 51 samples is the 100-tick outlier: > 16 (and > 32).
        assert!(names.iter().any(|(r, _)| *r == "p99_latency_above_target"));
        assert!(firings.iter().all(|f| f.vt == 48));
    }

    #[test]
    fn burn_rate_fires_at_first_sustained_violation() {
        let slo = SloSpec::default(); // shed budget 0.05, page at 0.10
        let mut engine = AlertEngine::new(default_rules(&slo));
        // 20 ticks: healthy until tick 10, then half of offered shed.
        for vt in 0..20u64 {
            let shed = if vt >= 10 { 4.0 } else { 0.0 };
            engine.record(vt, "serve_offered_total", 8.0);
            engine.record(vt, "serve_shed_total", shed);
        }
        let snap = MetricsRegistry::new().snapshot();
        let firings = engine.evaluate(&snap, 19);
        let burn: Vec<&AlertFiring> = firings
            .iter()
            .filter(|f| f.rule == "shed_burn_rate")
            .collect();
        assert_eq!(burn.len(), 1, "fires exactly once: {firings:?}");
        // Long window needs enough bad ticks to cross 2×budget: at tick
        // t = 12 the window holds 96 offered / 12 shed → rate 0.125 ≥
        // 0.10, and the 3-tick short window is already at 0.5; ticks 10
        // and 11 stay below the page line.
        assert_eq!(burn[0].vt, 12);
        assert_eq!(burn[0].threshold, 0.1);

        // A healthy stream never fires.
        let mut quiet = AlertEngine::new(default_rules(&slo));
        for vt in 0..20u64 {
            quiet.record(vt, "serve_offered_total", 8.0);
            quiet.record(vt, "serve_shed_total", 0.0);
        }
        assert!(quiet
            .evaluate(&snap, 19)
            .iter()
            .all(|f| f.rule != "shed_burn_rate"));
    }

    #[test]
    fn evaluation_is_input_order_invariant() {
        // The engine's output depends only on the recorded logs and the
        // snapshot, both of which are deterministic; evaluating twice is
        // byte-identical.
        let reg = MetricsRegistry::new();
        reg.gauge("serve_shed_rate").set(0.2);
        let mut engine = AlertEngine::new(default_rules(&SloSpec::default()));
        for vt in 0..8u64 {
            engine.record(vt, "serve_offered_total", 4.0);
            engine.record(vt, "serve_shed_total", 2.0);
        }
        let a = engine.evaluate(&reg.snapshot(), 8);
        let b = engine.evaluate(&reg.snapshot(), 8);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }
}
