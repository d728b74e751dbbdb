//! Automated incident forensics over the audit-trace plane.
//!
//! The committed trace ([`crate::observe`]) already records every
//! anomalous telemetry frame, discrimination decision, remediation action
//! and recovery — this module turns that audit log back into *incidents*:
//! one [`IncidentReport`] per injected fault/attack, reconstructed from
//! the trace text alone (no access to the runtime state), with
//!
//! * a **causal timeline** — first anomalous telemetry → discrimination
//!   decision → remediation action → recovery, each anchored at its
//!   virtual tick and global batch index;
//! * a **root-cause classification** read off the policy's own audit
//!   events and checked against the injected
//!   [`FaultSpec`](safelight::fault::FaultSpec)/
//!   [`ScenarioSpec`](safelight::attack::ScenarioSpec) ground truth in
//!   the section header;
//! * **detection / recovery latency** in batches relative to the earliest
//!   injected onset;
//! * **SLO impact** — degraded requests inside the incident window as a
//!   fraction of the stream's availability error budget.
//!
//! Because the committed trace is byte-identical across worker-thread
//! counts, so is every reconstructed report: the forensics layer inherits
//! the determinism contract for free.
//!
//! Ground-truth subtlety: a drifting *rail* sensor is observationally
//! close to a genuine supply transient (both present as a coherent rail
//! excursion), so its acceptable root-cause set is
//! `{sensor_fault, supply_transient}` — either discrimination is a
//! correct reading of the physics. This mirrors the grid's exclusion of
//! the drifting drop-current sensor (see [`crate::chaos`]).

use safelight_obs::{json_num, json_str, SloSpec};

/// A root-cause class the discrimination policy can settle on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RootCauseKind {
    /// A broken readback (dead/stuck/drifting sensor): maintenance.
    SensorFault,
    /// A coherent supply transient (rail glitch): maintenance.
    SupplyTransient,
    /// A fleet-member crash and cache restart.
    Crash,
    /// A physical trojan: quarantine/remap/failover.
    Trojan,
}

impl RootCauseKind {
    /// Stable label used in reports and artifacts.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::SensorFault => "sensor_fault",
            Self::SupplyTransient => "supply_transient",
            Self::Crash => "crash",
            Self::Trojan => "trojan",
        }
    }
}

impl std::fmt::Display for RootCauseKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One timeline milestone: where in virtual time (and which global
/// batch) a phase of the incident happened, and the audit event that
/// marked it.
#[derive(Clone, Debug, PartialEq)]
pub struct Milestone {
    /// Virtual tick of the marking event.
    pub vt: u64,
    /// Global batch index of the marking event.
    pub batch: u64,
    /// The `event=` name of the marking trace event.
    pub event: String,
}

/// One reconstructed incident: everything the forensics layer recovered
/// about a single injected fault/attack from the committed trace.
#[derive(Clone, Debug, PartialEq)]
pub struct IncidentReport {
    /// Section identity: `case=NN` for chaos sections, `scenario=<spec>`
    /// for serving sections.
    pub id: String,
    /// Case kind: `fault`, `trojan`, `overlap` or `serving`.
    pub kind: String,
    /// Injected fault spec string (empty when none).
    pub fault: String,
    /// Injected trojan scenario spec string (empty when none).
    pub scenario: String,
    /// Earliest injected onset batch (fault onset vs trojan onset).
    pub onset_batch: u64,
    /// Ground truth: one acceptable root-cause set per injected cause
    /// (an overlap case carries two). The classification matches when
    /// every set intersects the observed causes.
    pub expected: Vec<Vec<RootCauseKind>>,
    /// Root causes the policy's audit events actually settled on, in
    /// first-observation order.
    pub observed: Vec<RootCauseKind>,
    /// Whether the observed classification covers the ground truth.
    pub root_cause_match: bool,
    /// First anomalous telemetry: alarmed batch, crash or policy event.
    pub detected: Option<Milestone>,
    /// First discrimination decision (policy event; the crash itself for
    /// a bare crash, which needs no discrimination).
    pub discriminated: Option<Milestone>,
    /// First remediation action (maintenance/remap/failover/restart).
    pub remediated: Option<Milestone>,
    /// Recovery completion (cache recovery, mask clearance; falls back
    /// to the remediation milestone when the action itself restores
    /// service, e.g. a remap).
    pub recovered: Option<Milestone>,
    /// Batches from the injected onset to detection, inclusive (`NaN`
    /// when never detected).
    pub detection_latency_batches: f64,
    /// Batches from detection to recovery (`NaN` when unrecovered).
    pub recovery_latency_batches: f64,
    /// Requests served degraded inside the `[detected, recovered]`
    /// virtual-time window.
    pub degraded_requests: u64,
    /// Incident-window error-budget burn: degraded requests over the
    /// stream's availability budget `(1 − target) × total` (infinite on
    /// a zero budget with any degradation).
    pub budget_burn: f64,
    /// Alert rules that fired in this section, in firing order.
    pub alerts: Vec<String>,
}

/// One parsed trace event line.
struct Event<'a> {
    vt: u64,
    stage: &'a str,
    seq: u64,
    fields: Vec<(&'a str, &'a str)>,
}

impl<'a> Event<'a> {
    fn field(&self, key: &str) -> Option<&'a str> {
        self.fields
            .iter()
            .find(|&&(k, _)| k == key)
            .map(|&(_, v)| v)
    }

    fn name(&self) -> &'a str {
        self.field("event").unwrap_or("")
    }

    /// The event's global batch index: the explicit `batch=` field when
    /// present (crash/recover carry the member id in `seq`), else `seq`
    /// (serve/policy events use the batch index as their sequence key).
    fn batch(&self) -> u64 {
        self.field("batch")
            .and_then(|v| v.parse().ok())
            .unwrap_or(self.seq)
    }

    fn member(&self) -> Option<u64> {
        self.field("member").and_then(|v| v.parse().ok())
    }

    fn milestone(&self) -> Milestone {
        Milestone {
            vt: self.vt,
            batch: self.batch(),
            event: self.name().to_string(),
        }
    }
}

/// One trace section: its `# ` header lines plus parsed events.
struct Section<'a> {
    headers: Vec<&'a str>,
    events: Vec<Event<'a>>,
}

/// Parses `vt=000012 policy     seq=000014 event=... k=v ...`.
fn parse_event(line: &str) -> Option<Event<'_>> {
    let rest = line.strip_prefix("vt=")?;
    let mut tokens = rest.split_whitespace();
    let vt = tokens.next()?.parse().ok()?;
    let stage = tokens.next()?;
    let seq = tokens.next()?.strip_prefix("seq=")?.parse().ok()?;
    let fields = tokens.filter_map(|t| t.split_once('=')).collect();
    Some(Event {
        vt,
        stage,
        seq,
        fields,
    })
}

/// Splits a concatenated committed trace into sections: each run of `# `
/// header lines opens a new section owning the event lines that follow.
fn sections(trace: &str) -> Vec<Section<'_>> {
    let mut out: Vec<Section<'_>> = Vec::new();
    for line in trace.lines() {
        if let Some(header) = line.strip_prefix("# ") {
            match out.last_mut() {
                Some(s) if s.events.is_empty() => s.headers.push(header),
                _ => out.push(Section {
                    headers: vec![header],
                    events: Vec::new(),
                }),
            }
        } else if let Some(ev) = parse_event(line) {
            if let Some(s) = out.last_mut() {
                s.events.push(ev);
            }
        }
    }
    out
}

/// Reads a `key=value` token off a whitespace-separated header line
/// (spec strings never contain spaces; trailing free-form fields like
/// the debug-printed arrival model are simply never looked up).
fn header_field<'a>(headers: &[&'a str], key: &str) -> Option<&'a str> {
    let prefix = format!("{key}=");
    headers.iter().find_map(|h| {
        h.split_whitespace()
            .find_map(|t| t.strip_prefix(prefix.as_str()))
    })
}

/// The acceptable root-cause set(s) implied by the injected ground
/// truth: one disjunction per injected cause.
fn expected_causes(fault: &str, has_scenario: bool) -> Vec<Vec<RootCauseKind>> {
    use RootCauseKind::*;
    let mut expected = Vec::new();
    if !fault.is_empty() {
        let vector = fault.split('/').next().unwrap_or("");
        let set = if vector.starts_with("dead:") || vector.starts_with("stuck:") {
            vec![SensorFault]
        } else if let Some(rest) = vector.strip_prefix("drift:") {
            // A drifting rail readback is observationally close to a real
            // supply transient: either discrimination is acceptable.
            if rest.split(':').next() == Some("rail") {
                vec![SensorFault, SupplyTransient]
            } else {
                vec![SensorFault]
            }
        } else if vector.starts_with("glitch:") {
            vec![SupplyTransient]
        } else if vector == "crash" {
            vec![Crash]
        } else {
            Vec::new()
        };
        if !set.is_empty() {
            expected.push(set);
        }
    }
    if has_scenario {
        expected.push(vec![Trojan]);
    }
    expected
}

/// The root cause one audit event testifies to, if any.
fn observed_cause(ev: &Event<'_>) -> Option<RootCauseKind> {
    match ev.name() {
        "sensor_mask" | "sensor_quarantine" => Some(RootCauseKind::SensorFault),
        "rail_glitch" => Some(RootCauseKind::SupplyTransient),
        "crash" => Some(RootCauseKind::Crash),
        "implicate" => Some(RootCauseKind::Trojan),
        "unlocalized" if ev.field("action") == Some("failover") => Some(RootCauseKind::Trojan),
        _ => None,
    }
}

/// Reconstructs one incident from a parsed section, or `None` for a
/// clean section (nothing injected ⇒ nothing to report).
fn reconstruct(section: &Section<'_>, slo: &SloSpec) -> Option<IncidentReport> {
    let headers = &section.headers;
    let (id, kind) = if let Some(case) = header_field(headers, "case") {
        let kind = header_field(headers, "kind").unwrap_or("").to_string();
        (format!("case={case}"), kind)
    } else {
        let spec = header_field(headers, "scenario")?;
        (format!("scenario={spec}"), "serving".to_string())
    };
    let fault = header_field(headers, "fault").unwrap_or("").to_string();
    let scenario = header_field(headers, "scenario").unwrap_or("").to_string();
    if fault.is_empty() && scenario.is_empty() {
        return None;
    }
    let trojan_onset = header_field(headers, "trojan_onset")
        .or_else(|| header_field(headers, "onset"))
        .and_then(|v| v.parse::<u64>().ok());
    let fault_onset = fault.split('/').nth(3).and_then(|v| v.parse::<u64>().ok());
    let onset_batch = match (fault_onset, scenario.is_empty()) {
        (Some(f), false) => f.min(trojan_onset.unwrap_or(f)),
        (Some(f), true) => f,
        (None, _) => trojan_onset.unwrap_or(0),
    };

    // Events sorted by (vt, stage, seq, text) already; scan member 0, the
    // member every injection lands on.
    let on_member0 = |ev: &&Event<'_>| ev.member().is_none_or(|m| m == 0);

    let mut observed: Vec<RootCauseKind> = Vec::new();
    let mut detected: Option<Milestone> = None;
    let mut discriminated: Option<Milestone> = None;
    let mut remediated: Option<Milestone> = None;
    let mut recovered: Option<Milestone> = None;
    let mut alerts: Vec<String> = Vec::new();
    for ev in section.events.iter().filter(on_member0) {
        let name = ev.name();
        if ev.stage == "alert" {
            if let Some(rule) = ev.field("rule") {
                alerts.push(rule.to_string());
            }
            continue;
        }
        if let Some(cause) = observed_cause(ev) {
            if !observed.contains(&cause) {
                observed.push(cause);
            }
        }
        // Detection: the first anomalous telemetry — an alarmed batch, a
        // crash, or any policy verdict (the sensor-health screen can mask
        // a dead readback before the detectors alarm).
        let anomalous = (name == "batch" && ev.field("alarmed") == Some("true"))
            || ev.stage == "crash"
            || ev.stage == "policy";
        if anomalous && detected.is_none() {
            detected = Some(ev.milestone());
        }
        // Discrimination: the first policy verdict. A bare crash needs no
        // discrimination — the crash event is its own diagnosis.
        if discriminated.is_none() && (ev.stage == "policy" || ev.stage == "crash") {
            discriminated = Some(ev.milestone());
        }
        // Remediation: the first action taken — a maintenance verdict,
        // a remap/failover, or a crash restart (beginning at the crash).
        let action = ev.field("action");
        let acted =
            matches!(action, Some("maintenance" | "remap" | "failover")) || ev.stage == "crash";
        if acted && remediated.is_none() {
            remediated = Some(ev.milestone());
        }
        // Recovery completion: cache recovery after a crash, or every
        // mask cleared after a transient sensor verdict.
        if recovered.is_none() && (ev.stage == "recover" || name == "mask_clear") {
            recovered = Some(ev.milestone());
        }
    }
    // When the remediation action itself restores service (remap,
    // failover, standing maintenance mask), recovery coincides with it.
    if recovered.is_none() {
        recovered = remediated.clone();
    }

    let expected = expected_causes(&fault, !scenario.is_empty());
    let root_cause_match = !expected.is_empty()
        && expected
            .iter()
            .all(|set| set.iter().any(|k| observed.contains(k)));

    let detection_latency_batches = detected.as_ref().map_or(f64::NAN, |m| {
        (m.batch.saturating_sub(onset_batch) + 1) as f64
    });
    let recovery_latency_batches = match (&detected, &recovered) {
        (Some(d), Some(r)) => r.batch.saturating_sub(d.batch) as f64,
        _ => f64::NAN,
    };

    // SLO impact: degraded requests inside the incident window, against
    // the whole stream's availability error budget. Shed requests are not
    // batch-attributed, so the burn is measured on degraded service only.
    let window = detected
        .as_ref()
        .zip(recovered.as_ref())
        .map(|(d, r)| (d.vt, r.vt));
    let mut degraded_requests = 0u64;
    let mut total = 0u64;
    for ev in &section.events {
        if ev.name() == "stream_end" {
            let n = |k: &str| ev.field(k).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
            total = n("served") + n("unserved") + n("shed");
        }
        if let Some((lo, hi)) = window {
            if ev.name() == "batch"
                && ev.field("degraded") == Some("true")
                && (lo..=hi).contains(&ev.vt)
            {
                degraded_requests += ev
                    .field("size")
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or(0);
            }
        }
    }
    let budget = (1.0 - slo.availability) * total as f64;
    let budget_burn = if budget > 0.0 {
        degraded_requests as f64 / budget
    } else if degraded_requests > 0 {
        f64::INFINITY
    } else {
        0.0
    };

    Some(IncidentReport {
        id,
        kind,
        fault,
        scenario,
        onset_batch,
        expected,
        observed,
        root_cause_match,
        detected,
        discriminated,
        remediated,
        recovered,
        detection_latency_batches,
        recovery_latency_batches,
        degraded_requests,
        budget_burn,
        alerts,
    })
}

/// Reconstructs one [`IncidentReport`] per injected fault/attack from a
/// concatenated committed trace (chaos and serving sections both parse).
/// Clean sections yield nothing. Deterministic: a pure function of the
/// trace bytes and the spec.
#[must_use]
pub fn incidents_from_trace(trace: &str, slo: &SloSpec) -> Vec<IncidentReport> {
    sections(trace)
        .iter()
        .filter_map(|s| reconstruct(s, slo))
        .collect()
}

fn fmt_num(v: f64) -> String {
    if v.is_nan() {
        "nan".to_string()
    } else if v.is_infinite() {
        "inf".to_string()
    } else {
        format!("{v}")
    }
}

fn fmt_expected(expected: &[Vec<RootCauseKind>]) -> String {
    if expected.is_empty() {
        return "none".to_string();
    }
    expected
        .iter()
        .map(|set| set.iter().map(|k| k.label()).collect::<Vec<_>>().join("|"))
        .collect::<Vec<_>>()
        .join("+")
}

fn fmt_observed(observed: &[RootCauseKind]) -> String {
    if observed.is_empty() {
        return "none".to_string();
    }
    observed
        .iter()
        .map(|k| k.label())
        .collect::<Vec<_>>()
        .join("+")
}

fn fmt_milestone(m: &Option<Milestone>) -> String {
    match m {
        Some(m) => format!("vt={:06} batch={:06} event={}", m.vt, m.batch, m.event),
        None => "never".to_string(),
    }
}

/// Renders incident reports as the human-facing text artifact.
#[must_use]
pub fn incidents_txt(incidents: &[IncidentReport]) -> String {
    let mut out = String::new();
    out.push_str("# incident forensics: one report per injected fault/attack\n");
    for r in incidents {
        out.push_str(&format!(
            "incident {} kind={} fault={} scenario={} onset={}\n",
            r.id, r.kind, r.fault, r.scenario, r.onset_batch
        ));
        out.push_str(&format!(
            "  root_cause observed={} expected={} match={}\n",
            fmt_observed(&r.observed),
            fmt_expected(&r.expected),
            r.root_cause_match
        ));
        out.push_str(&format!("  detected      {}\n", fmt_milestone(&r.detected)));
        out.push_str(&format!(
            "  discriminated {}\n",
            fmt_milestone(&r.discriminated)
        ));
        out.push_str(&format!(
            "  remediated    {}\n",
            fmt_milestone(&r.remediated)
        ));
        out.push_str(&format!(
            "  recovered     {}\n",
            fmt_milestone(&r.recovered)
        ));
        out.push_str(&format!(
            "  detection_latency_batches={} recovery_latency_batches={}\n",
            fmt_num(r.detection_latency_batches),
            fmt_num(r.recovery_latency_batches)
        ));
        out.push_str(&format!(
            "  degraded_requests={} budget_burn={} alerts={}\n",
            r.degraded_requests,
            fmt_num(r.budget_burn),
            if r.alerts.is_empty() {
                "none".to_string()
            } else {
                r.alerts.join("+")
            }
        ));
    }
    out
}

fn json_milestone(m: &Option<Milestone>) -> String {
    match m {
        Some(m) => format!(
            "{{\"vt\":{},\"batch\":{},\"event\":{}}}",
            m.vt,
            m.batch,
            json_str(&m.event)
        ),
        None => "null".to_string(),
    }
}

/// Renders incident reports as the machine-facing JSON artifact.
#[must_use]
pub fn incidents_json(incidents: &[IncidentReport]) -> String {
    let mut out = String::from("{\n  \"incidents\": [\n");
    for (i, r) in incidents.iter().enumerate() {
        let expected: Vec<String> = r
            .expected
            .iter()
            .map(|set| {
                format!(
                    "[{}]",
                    set.iter()
                        .map(|k| json_str(k.label()))
                        .collect::<Vec<_>>()
                        .join(",")
                )
            })
            .collect();
        let observed: Vec<String> = r.observed.iter().map(|k| json_str(k.label())).collect();
        let alerts: Vec<String> = r.alerts.iter().map(|a| json_str(a)).collect();
        out.push_str(&format!(
            "    {{\"id\": {}, \"kind\": {}, \"fault\": {}, \"scenario\": {}, \
             \"onset_batch\": {}, \"expected\": [{}], \"observed\": [{}], \
             \"root_cause_match\": {}, \"detected\": {}, \"discriminated\": {}, \
             \"remediated\": {}, \"recovered\": {}, \"detection_latency_batches\": {}, \
             \"recovery_latency_batches\": {}, \"degraded_requests\": {}, \
             \"budget_burn\": {}, \"alerts\": [{}]}}{}\n",
            json_str(&r.id),
            json_str(&r.kind),
            json_str(&r.fault),
            json_str(&r.scenario),
            r.onset_batch,
            expected.join(","),
            observed.join(","),
            r.root_cause_match,
            json_milestone(&r.detected),
            json_milestone(&r.discriminated),
            json_milestone(&r.remediated),
            json_milestone(&r.recovered),
            json_num(r.detection_latency_batches),
            json_num(r.recovery_latency_batches),
            r.degraded_requests,
            json_num(r.budget_burn),
            alerts.join(","),
            if i + 1 < incidents.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_trace() -> String {
        // A hand-built two-section trace exercising the parser: a chaos
        // crash case and a serving trojan section.
        concat!(
            "# case=07 kind=fault fault=crash/both/0/8/0 scenario= trojan_onset=8\n",
            "vt=000010 admission  seq=000010 event=admit admitted=6 shed=0 depth=6\n",
            "vt=000016 crash      seq=000000 event=crash member=0 batch=8 restart_until=000020\n",
            "vt=000024 recover    seq=000000 event=recover member=0 batch=12 latency_batches=4\n",
            "vt=000040 summary    seq=000000 event=stream_end served=100 unserved=4 shed=4 healthy=90 ticks=40\n",
            "# scenario=actuation/both/0.1/0/targeted:8 onset=8 arrival=Closed\n",
            "vt=000018 serve      seq=000009 event=batch member=0 size=6 worst=9.1 alarmed=true masked=0 degraded=true\n",
            "vt=000019 policy     seq=000009 event=implicate member=0 banks=[conv:1(z=9.100)] score=9.1000 action=remap quarantined=1\n",
            "vt=000030 summary    seq=000000 event=stream_end served=96 unserved=0 shed=0 healthy=84 ticks=30\n",
            "vt=000019 alert      seq=000000 event=alert_firing rule=availability_below_target series=serve_availability value=0.8750 threshold=0.9\n",
        )
        .to_string()
    }

    #[test]
    fn crash_section_reconstructs_full_timeline() {
        let slo = SloSpec::default();
        let incidents = incidents_from_trace(&demo_trace(), &slo);
        assert_eq!(incidents.len(), 2);
        let crash = &incidents[0];
        assert_eq!(crash.id, "case=07");
        assert_eq!(crash.kind, "fault");
        assert_eq!(crash.observed, [RootCauseKind::Crash]);
        assert!(crash.root_cause_match);
        assert_eq!(crash.onset_batch, 8);
        // crash at batch 8 = detection, discrimination and remediation;
        // the recover event completes the incident.
        for m in [&crash.detected, &crash.discriminated, &crash.remediated] {
            assert_eq!(m.as_ref().unwrap().event, "crash");
            assert_eq!(m.as_ref().unwrap().batch, 8);
        }
        assert_eq!(crash.recovered.as_ref().unwrap().event, "recover");
        assert_eq!(crash.detection_latency_batches, 1.0);
        assert_eq!(crash.recovery_latency_batches, 4.0);
        assert!(crash.alerts.is_empty());
    }

    #[test]
    fn trojan_section_classifies_and_burns_budget() {
        let slo = SloSpec::default();
        let incidents = incidents_from_trace(&demo_trace(), &slo);
        let trojan = &incidents[1];
        assert_eq!(trojan.kind, "serving");
        assert_eq!(trojan.observed, [RootCauseKind::Trojan]);
        assert!(trojan.root_cause_match);
        assert_eq!(trojan.detected.as_ref().unwrap().event, "batch");
        assert_eq!(trojan.discriminated.as_ref().unwrap().event, "implicate");
        // Remap is both remediation and recovery.
        assert_eq!(trojan.recovered, trojan.remediated);
        // 6 degraded requests in the window over a budget of 0.1 × 96.
        assert_eq!(trojan.degraded_requests, 6);
        assert!((trojan.budget_burn - 6.0 / 9.6).abs() < 1e-12);
        assert_eq!(trojan.alerts, ["availability_below_target"]);
    }

    #[test]
    fn ordering_detection_to_recovery_holds() {
        let slo = SloSpec::default();
        for r in incidents_from_trace(&demo_trace(), &slo) {
            let seq = [&r.detected, &r.discriminated, &r.remediated, &r.recovered];
            for pair in seq.windows(2) {
                let (a, b) = (pair[0].as_ref().unwrap(), pair[1].as_ref().unwrap());
                assert!(a.vt <= b.vt, "{:?}", r.id);
            }
        }
    }

    #[test]
    fn rail_drift_accepts_either_discrimination() {
        let expected = expected_causes("drift:rail:-0.002:0.0005/both/0.5/8/0", false);
        assert_eq!(expected.len(), 1);
        assert!(expected[0].contains(&RootCauseKind::SensorFault));
        assert!(expected[0].contains(&RootCauseKind::SupplyTransient));
        // Other drifts only accept the sensor-fault reading.
        let temp = expected_causes("drift:temp:0.05:0.01/fc/0.25/8/0", false);
        assert_eq!(temp, [[RootCauseKind::SensorFault]]);
    }

    #[test]
    fn clean_sections_yield_nothing() {
        let trace = "# case=00 kind=clean fault= scenario= trojan_onset=8\n\
                     vt=000001 admission  seq=000001 event=admit admitted=6 shed=0 depth=6\n";
        assert!(incidents_from_trace(trace, &SloSpec::default()).is_empty());
    }

    /// The renderer↔forensics contract: each decision's audit line, as the
    /// observer renders it, is classified by the root cause it testifies
    /// to and plays its timeline role (remediation or recovery).
    #[test]
    fn every_decision_line_classifies_and_plays_its_role() {
        use crate::observe::tests::every_decision;
        use crate::observe::ServeObserver;
        use RootCauseKind::*;
        // (root cause, remediates, completes recovery), in the order of
        // `every_decision`.
        let contract = [
            (Some(SensorFault), true, false),     // sensor_mask
            (None, false, true),                  // mask_clear
            (Some(SupplyTransient), true, false), // rail_glitch
            (Some(Trojan), true, false),          // implicate: remap
            (Some(Trojan), false, false),         // implicate: backoff
            (Some(Trojan), false, false),         // implicate: remap_failed
            (Some(Trojan), true, false),          // implicate: failover
            (Some(SensorFault), true, false),     // sensor_quarantine
            (None, false, false),                 // unlocalized: alarm
            (Some(Trojan), true, false),          // unlocalized: failover
            (Some(Crash), true, false),           // crash
            (None, false, true),                  // recover
        ];
        let events = every_decision();
        assert_eq!(events.len(), contract.len());
        let header = ["case=00 kind=fault fault=dead:drop/fc/0.5/0/0 scenario=".to_string()];
        for (event, (cause, remediates, recovers)) in events.iter().zip(contract) {
            let obs = ServeObserver::new();
            obs.record(event.batch, event);
            let (trace, _) = obs.drain(&header);
            let incidents = incidents_from_trace(&trace, &SloSpec::default());
            let [r] = incidents.as_slice() else {
                panic!("one incident expected from {trace}");
            };
            let name = trace
                .lines()
                .nth(1)
                .and_then(|l| l.split_whitespace().nth(3));
            let name = name.and_then(|t| t.strip_prefix("event=")).unwrap();
            assert_eq!(r.observed, cause.into_iter().collect::<Vec<_>>(), "{trace}");
            let remediated = r.remediated.as_ref().map(|m| m.event.as_str());
            assert_eq!(remediated, remediates.then_some(name), "{trace}");
            // Recovery falls back to the remediation milestone.
            let recovered = r.recovered.as_ref().map(|m| m.event.as_str());
            assert_eq!(
                recovered,
                (remediates || recovers).then_some(name),
                "{trace}"
            );
        }
    }

    #[test]
    fn renderers_cover_every_incident() {
        let slo = SloSpec::default();
        let incidents = incidents_from_trace(&demo_trace(), &slo);
        let txt = incidents_txt(&incidents);
        assert!(txt.contains("incident case=07"));
        assert!(txt.contains("incident scenario=actuation/both/0.1/0/targeted:8"));
        assert!(txt.contains("match=true"));
        let json = incidents_json(&incidents);
        assert!(json.contains("\"id\": \"case=07\""));
        assert!(json.contains("\"root_cause_match\": true"));
        assert!(json.contains("\"alerts\": [\"availability_below_target\"]"));
    }
}
