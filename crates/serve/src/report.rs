//! CSV and JSON renderers for the serving and chaos evaluations, through
//! the shared `safelight_obs` formatters: `f64` values print through
//! `Display` (exact round-trip), `NaN` renders as an empty CSV field and
//! a JSON `null`, and row order equals case input order — so the
//! artifacts are byte-identical across worker-thread counts.

use safelight_obs::{csv_num, json_num, json_str, SloVerdict};

use crate::chaos::ChaosReport;
use crate::eval::{RateSweepReport, ServingReport};

/// The violated-objective list as one CSV/JSON token (`none` when clean).
fn slo_violations(v: &SloVerdict) -> String {
    if v.violated.is_empty() {
        "none".to_string()
    } else {
        v.violated.join("+")
    }
}

/// The three SLO verdict CSV fields (`pass,violations,budget_burn`),
/// empty when no spec was attached. Infinite burn renders empty like NaN.
fn slo_csv(slo: &Option<SloVerdict>) -> String {
    match slo {
        Some(v) => format!(
            "{},{},{}",
            u8::from(v.pass),
            slo_violations(v),
            csv_num(v.budget_burn)
        ),
        None => ",,".to_string(),
    }
}

/// The SLO verdict JSON keys with a leading comma, `null`s when no spec
/// was attached.
fn slo_json(slo: &Option<SloVerdict>) -> String {
    match slo {
        Some(v) => format!(
            ",\"slo_pass\":{},\"slo_violations\":{},\"slo_budget_burn\":{}",
            v.pass,
            json_str(&slo_violations(v)),
            json_num(v.budget_burn)
        ),
        None => ",\"slo_pass\":null,\"slo_violations\":null,\"slo_budget_burn\":null".to_string(),
    }
}

/// Renders a serving report as CSV: `# clean_accuracy`, stream-shape,
/// `# arrival` and `# threshold` header lines, then one
/// `vector,selection,target,fraction,trial,effective_fraction,pre_onset,degraded,recovered,baseline_post,detect_latency,recovery_latency,action,remapped,unplaced,availability,p50_latency,p99_latency,p999_latency,throughput,shed_rate,slo_pass,slo_violations,slo_budget_burn`
/// row per scenario (the three SLO fields are empty when no spec was
/// attached).
///
/// # Example
///
/// ```
/// use safelight_serve::eval::ServingReport;
/// use safelight_serve::report::serving_csv;
/// use safelight_serve::scheduler::ArrivalModel;
///
/// let report = ServingReport {
///     detectors: vec!["guard_band".into()],
///     thresholds: vec![4.5],
///     clean_accuracy: 0.97,
///     batches: 24,
///     batch_size: 8,
///     fleet_size: 2,
///     onset_batch: 8,
///     arrival: ArrivalModel::Closed,
///     rows: vec![],
/// };
/// assert!(serving_csv(&report).starts_with("# clean_accuracy,0.97"));
/// ```
#[must_use]
pub fn serving_csv(report: &ServingReport) -> String {
    let mut out = format!("# clean_accuracy,{}\n", report.clean_accuracy);
    out.push_str(&format!(
        "# stream,batches,{},batch_size,{},fleet,{},onset,{}\n",
        report.batches, report.batch_size, report.fleet_size, report.onset_batch
    ));
    out.push_str(&format!("# arrival,{}\n", report.arrival));
    for (name, threshold) in report.detectors.iter().zip(&report.thresholds) {
        out.push_str(&format!("# threshold,{name},{threshold}\n"));
    }
    out.push_str(
        "vector,selection,target,fraction,trial,effective_fraction,pre_onset,degraded,\
         recovered,baseline_post,detect_latency,recovery_latency,action,remapped,unplaced,\
         availability,p50_latency,p99_latency,p999_latency,throughput,shed_rate,\
         slo_pass,slo_violations,slo_budget_burn\n",
    );
    for r in &report.rows {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
            r.scenario.vector_label(),
            r.scenario.selection,
            r.scenario.target,
            r.scenario.fraction,
            r.scenario.trial,
            r.effective_fraction,
            csv_num(r.pre_onset_accuracy),
            csv_num(r.degraded_accuracy),
            csv_num(r.recovered_accuracy),
            csv_num(r.baseline_post_accuracy),
            csv_num(r.detection_latency_batches),
            csv_num(r.recovery_latency_batches),
            r.action,
            r.remapped_rings,
            r.unplaced_rings,
            csv_num(r.availability),
            csv_num(r.p50_latency),
            csv_num(r.p99_latency),
            csv_num(r.p999_latency),
            csv_num(r.throughput),
            csv_num(r.shed_rate),
            slo_csv(&r.slo),
        ));
    }
    out
}

/// Renders a serving report as a JSON object mirroring
/// [`serving_csv`]'s columns, with an `operating` array of
/// detector/threshold pairs.
#[must_use]
pub fn serving_json(report: &ServingReport) -> String {
    let operating: Vec<String> = report
        .detectors
        .iter()
        .zip(&report.thresholds)
        .map(|(name, threshold)| {
            format!(
                "{{\"detector\":{},\"threshold\":{}}}",
                json_str(name),
                json_num(*threshold)
            )
        })
        .collect();
    let rows: Vec<String> = report
        .rows
        .iter()
        .map(|r| {
            format!(
                "{{\"vector\":{},\"selection\":{},\"target\":{},\"fraction\":{},\
                 \"trial\":{},\"effective_fraction\":{},\"pre_onset\":{},\"degraded\":{},\
                 \"recovered\":{},\"baseline_post\":{},\"detect_latency\":{},\
                 \"recovery_latency\":{},\"action\":{},\"remapped\":{},\"unplaced\":{},\
                 \"availability\":{},\"p50_latency\":{},\"p99_latency\":{},\
                 \"p999_latency\":{},\"throughput\":{},\"shed_rate\":{}{}}}",
                json_str(&r.scenario.vector_label()),
                json_str(r.scenario.selection.label()),
                json_str(&r.scenario.target.to_string()),
                json_num(r.scenario.fraction),
                r.scenario.trial,
                json_num(r.effective_fraction),
                json_num(r.pre_onset_accuracy),
                json_num(r.degraded_accuracy),
                json_num(r.recovered_accuracy),
                json_num(r.baseline_post_accuracy),
                json_num(r.detection_latency_batches),
                json_num(r.recovery_latency_batches),
                json_str(&r.action),
                r.remapped_rings,
                r.unplaced_rings,
                json_num(r.availability),
                json_num(r.p50_latency),
                json_num(r.p99_latency),
                json_num(r.p999_latency),
                json_num(r.throughput),
                json_num(r.shed_rate),
                slo_json(&r.slo),
            )
        })
        .collect();
    format!(
        "{{\"clean_accuracy\":{},\"batches\":{},\"batch_size\":{},\"fleet_size\":{},\
         \"onset_batch\":{},\"arrival\":{},\"operating\":[{}],\"rows\":[{}]}}",
        json_num(report.clean_accuracy),
        report.batches,
        report.batch_size,
        report.fleet_size,
        report.onset_batch,
        json_str(&report.arrival.to_string()),
        operating.join(","),
        rows.join(",")
    )
}

/// Renders a chaos report as CSV: `# clean_accuracy`, stream-shape,
/// `# arrival`, `# threshold` and `# rate` header lines, then one
/// `kind,fault,scenario,trojan_detected,spurious_quarantine,maintenance_events,crash_recovery,post_accuracy,availability,action,p99_latency,throughput,shed_rate,slo_pass,slo_violations,slo_budget_burn`
/// row per grid case (the three SLO fields are empty when no spec was
/// attached).
#[must_use]
pub fn chaos_csv(report: &ChaosReport) -> String {
    let mut out = format!("# clean_accuracy,{}\n", report.clean_accuracy);
    out.push_str(&format!(
        "# stream,batches,{},batch_size,{},fleet,{},onset,{}\n",
        report.batches, report.batch_size, report.fleet_size, report.onset_batch
    ));
    out.push_str(&format!("# arrival,{}\n", report.arrival));
    for (name, threshold) in report.detectors.iter().zip(&report.thresholds) {
        out.push_str(&format!("# threshold,{name},{threshold}\n"));
    }
    out.push_str(&format!(
        "# rate,spurious_quarantine,{},trojan_tpr,{},overlap_missed,{},mean_crash_recovery,{}\n",
        csv_num(report.spurious_quarantine_rate),
        csv_num(report.trojan_tpr),
        csv_num(report.overlap_missed_rate),
        csv_num(report.mean_crash_recovery_batches),
    ));
    out.push_str(
        "kind,fault,scenario,trojan_detected,spurious_quarantine,maintenance_events,\
         crash_recovery,post_accuracy,availability,action,p99_latency,throughput,shed_rate,\
         slo_pass,slo_violations,slo_budget_burn\n",
    );
    for r in &report.rows {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{}\n",
            r.kind,
            r.fault,
            r.scenario,
            u8::from(r.trojan_detected),
            u8::from(r.spurious_quarantine),
            r.maintenance_events,
            csv_num(r.crash_recovery_batches),
            csv_num(r.post_accuracy),
            csv_num(r.availability),
            r.action,
            csv_num(r.p99_latency),
            csv_num(r.throughput),
            csv_num(r.shed_rate),
            slo_csv(&r.slo),
        ));
    }
    out
}

/// Renders a chaos report as a JSON object mirroring [`chaos_csv`]'s
/// columns, with an `operating` array of detector/threshold pairs and a
/// `rates` object of the headline robustness rates.
#[must_use]
pub fn chaos_json(report: &ChaosReport) -> String {
    let operating: Vec<String> = report
        .detectors
        .iter()
        .zip(&report.thresholds)
        .map(|(name, threshold)| {
            format!(
                "{{\"detector\":{},\"threshold\":{}}}",
                json_str(name),
                json_num(*threshold)
            )
        })
        .collect();
    let rows: Vec<String> = report
        .rows
        .iter()
        .map(|r| {
            format!(
                "{{\"kind\":{},\"fault\":{},\"scenario\":{},\"trojan_detected\":{},\
                 \"spurious_quarantine\":{},\"maintenance_events\":{},\"crash_recovery\":{},\
                 \"post_accuracy\":{},\"availability\":{},\"action\":{},\"p99_latency\":{},\
                 \"throughput\":{},\"shed_rate\":{}{}}}",
                json_str(&r.kind),
                json_str(&r.fault),
                json_str(&r.scenario),
                r.trojan_detected,
                r.spurious_quarantine,
                r.maintenance_events,
                json_num(r.crash_recovery_batches),
                json_num(r.post_accuracy),
                json_num(r.availability),
                json_str(&r.action),
                json_num(r.p99_latency),
                json_num(r.throughput),
                json_num(r.shed_rate),
                slo_json(&r.slo),
            )
        })
        .collect();
    format!(
        "{{\"clean_accuracy\":{},\"batches\":{},\"batch_size\":{},\"fleet_size\":{},\
         \"onset_batch\":{},\"arrival\":{},\"rates\":{{\"spurious_quarantine\":{},\
         \"trojan_tpr\":{},\"overlap_missed\":{},\"mean_crash_recovery\":{}}},\
         \"operating\":[{}],\"rows\":[{}]}}",
        json_num(report.clean_accuracy),
        report.batches,
        report.batch_size,
        report.fleet_size,
        report.onset_batch,
        json_str(&report.arrival.to_string()),
        json_num(report.spurious_quarantine_rate),
        json_num(report.trojan_tpr),
        json_num(report.overlap_missed_rate),
        json_num(report.mean_crash_recovery_batches),
        operating.join(","),
        rows.join(",")
    )
}

/// Renders a rate sweep as CSV: `# sweep` and `# saturation_rate` header
/// lines, then one
/// `rate,offered,served,shed_rate,throughput,p50_latency,p99_latency,p999_latency`
/// row per swept rate.
#[must_use]
pub fn rate_sweep_csv(report: &RateSweepReport) -> String {
    let mut out = format!(
        "# sweep,batch_size,{},fleet,{},queue_capacity,{}\n",
        report.batch_size, report.fleet_size, report.queue_capacity
    );
    out.push_str(&format!(
        "# saturation_rate,{}\n",
        csv_num(report.saturation_rate)
    ));
    out.push_str("rate,offered,served,shed_rate,throughput,p50_latency,p99_latency,p999_latency\n");
    for r in &report.rows {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{}\n",
            r.rate,
            r.offered,
            r.served,
            csv_num(r.shed_rate),
            csv_num(r.throughput),
            csv_num(r.p50_latency),
            csv_num(r.p99_latency),
            csv_num(r.p999_latency),
        ));
    }
    out
}

/// Renders a rate sweep as a JSON object mirroring [`rate_sweep_csv`]'s
/// columns, with the located `saturation_rate` (`null` when even the
/// lowest swept rate saturates).
#[must_use]
pub fn rate_sweep_json(report: &RateSweepReport) -> String {
    let rows: Vec<String> = report
        .rows
        .iter()
        .map(|r| {
            format!(
                "{{\"rate\":{},\"offered\":{},\"served\":{},\"shed_rate\":{},\
                 \"throughput\":{},\"p50_latency\":{},\"p99_latency\":{},\"p999_latency\":{}}}",
                json_num(r.rate),
                r.offered,
                r.served,
                json_num(r.shed_rate),
                json_num(r.throughput),
                json_num(r.p50_latency),
                json_num(r.p99_latency),
                json_num(r.p999_latency),
            )
        })
        .collect();
    format!(
        "{{\"batch_size\":{},\"fleet_size\":{},\"queue_capacity\":{},\"saturation_rate\":{},\
         \"rows\":[{}]}}",
        report.batch_size,
        report.fleet_size,
        report.queue_capacity,
        json_num(report.saturation_rate),
        rows.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChaosRow;
    use crate::eval::{RatePoint, ScenarioServing};
    use crate::scheduler::ArrivalModel;
    use safelight::attack::{AttackTarget, ScenarioSpec, VectorSpec};

    fn tiny_report() -> ServingReport {
        ServingReport {
            detectors: vec!["guard_band".into(), "ewma_cusum".into()],
            thresholds: vec![4.5, 2.25],
            clean_accuracy: 0.96,
            batches: 24,
            batch_size: 8,
            fleet_size: 2,
            onset_batch: 8,
            arrival: ArrivalModel::Closed,
            rows: vec![ScenarioServing {
                scenario: ScenarioSpec::new(VectorSpec::Actuation, AttackTarget::Both, 0.1, 0),
                effective_fraction: 0.1,
                pre_onset_accuracy: 0.96,
                degraded_accuracy: 0.7,
                recovered_accuracy: 0.95,
                baseline_post_accuracy: 0.72,
                detection_latency_batches: 1.0,
                recovery_latency_batches: 2.0,
                action: "remap".into(),
                remapped_rings: 120,
                unplaced_rings: 0,
                availability: 0.9,
                p50_latency: 1.0,
                p99_latency: 2.0,
                p999_latency: 2.0,
                throughput: 16.0,
                shed_rate: 0.0,
                slo: None,
            }],
        }
    }

    #[test]
    fn csv_renders_headers_and_rows() {
        let csv = serving_csv(&tiny_report());
        assert!(csv.starts_with("# clean_accuracy,0.96\n"));
        assert!(csv.contains("# stream,batches,24,batch_size,8,fleet,2,onset,8"));
        assert!(csv.contains("# arrival,closed"));
        assert!(csv.contains("# threshold,guard_band,4.5"));
        assert!(csv.contains(
            "actuation,uniform,CONV+FC,0.1,0,0.1,0.96,0.7,0.95,0.72,1,2,remap,120,0,0.9,\
             1,2,2,16,0"
        ));
    }

    #[test]
    fn csv_renders_nan_as_empty_field() {
        let mut report = tiny_report();
        report.rows[0].recovered_accuracy = f64::NAN;
        report.rows[0].recovery_latency_batches = f64::NAN;
        let csv = serving_csv(&report);
        assert!(csv.contains("0.7,,0.72,1,,remap"), "{csv}");
    }

    #[test]
    fn json_mirrors_csv_with_nulls() {
        let mut report = tiny_report();
        report.rows[0].recovered_accuracy = f64::NAN;
        let json = serving_json(&report);
        assert!(json.starts_with("{\"clean_accuracy\":0.96"));
        assert!(json.contains("\"arrival\":\"closed\""));
        assert!(json.contains("\"recovered\":null"));
        assert!(json.contains("\"detector\":\"guard_band\",\"threshold\":4.5"));
        assert!(json.contains("\"action\":\"remap\""));
        assert!(json.contains("\"p50_latency\":1,\"p99_latency\":2,\"p999_latency\":2"));
        assert!(json.contains("\"throughput\":16,\"shed_rate\":0"));
    }

    fn tiny_chaos_report() -> ChaosReport {
        ChaosReport {
            detectors: vec!["guard_band".into()],
            thresholds: vec![4.5],
            clean_accuracy: 0.96,
            batches: 24,
            batch_size: 8,
            fleet_size: 2,
            onset_batch: 8,
            arrival: ArrivalModel::Closed,
            rows: vec![
                ChaosRow {
                    kind: "fault".into(),
                    fault: "dead:drop/fc/0.5/8/0".into(),
                    scenario: String::new(),
                    trojan_detected: false,
                    spurious_quarantine: false,
                    maintenance_events: 2,
                    crash_recovery_batches: f64::NAN,
                    post_accuracy: 0.95,
                    availability: 1.0,
                    action: "maintenance".into(),
                    p99_latency: 1.0,
                    throughput: 16.0,
                    shed_rate: 0.0,
                    slo: Some(SloVerdict {
                        pass: true,
                        violated: vec![],
                        budget_burn: 0.0,
                    }),
                },
                ChaosRow {
                    kind: "overlap".into(),
                    fault: "crash/both/0/10/0".into(),
                    scenario: "actuation/targeted/both/0.1/0".into(),
                    trojan_detected: true,
                    spurious_quarantine: false,
                    maintenance_events: 0,
                    crash_recovery_batches: 2.0,
                    post_accuracy: 0.94,
                    availability: 0.8,
                    action: "crash+recover+alarm+remap".into(),
                    p99_latency: 3.0,
                    throughput: 12.8,
                    shed_rate: 0.05,
                    slo: Some(SloVerdict {
                        pass: false,
                        violated: vec!["availability", "shed_rate"],
                        budget_burn: 2.0,
                    }),
                },
            ],
            spurious_quarantine_rate: 0.0,
            trojan_tpr: 1.0,
            overlap_missed_rate: 0.0,
            mean_crash_recovery_batches: 2.0,
        }
    }

    #[test]
    fn chaos_csv_renders_rates_and_rows() {
        let csv = chaos_csv(&tiny_chaos_report());
        assert!(csv.starts_with("# clean_accuracy,0.96\n"));
        assert!(csv.contains(
            "# rate,spurious_quarantine,0,trojan_tpr,1,overlap_missed,0,mean_crash_recovery,2"
        ));
        assert!(csv.contains("# arrival,closed"));
        assert!(
            csv.contains("fault,dead:drop/fc/0.5/8/0,,0,0,2,,0.95,1,maintenance,1,16,0,1,none,0")
        );
        assert!(csv.contains(
            "overlap,crash/both/0/10/0,actuation/targeted/both/0.1/0,1,0,0,2,0.94,0.8,\
             crash+recover+alarm+remap,3,12.8,0.05,0,availability+shed_rate,2"
        ));
    }

    #[test]
    fn chaos_json_mirrors_csv_with_nulls_and_booleans() {
        let json = chaos_json(&tiny_chaos_report());
        assert!(json.starts_with("{\"clean_accuracy\":0.96"));
        assert!(json.contains("\"arrival\":\"closed\""));
        assert!(json.contains(
            "\"rates\":{\"spurious_quarantine\":0,\"trojan_tpr\":1,\"overlap_missed\":0,\
             \"mean_crash_recovery\":2}"
        ));
        assert!(json.contains("\"trojan_detected\":true"));
        assert!(json.contains("\"crash_recovery\":null"));
        assert!(json.contains("\"action\":\"crash+recover+alarm+remap\""));
        assert!(json.contains("\"p99_latency\":3,\"throughput\":12.8,\"shed_rate\":0.05"));
    }

    fn tiny_sweep() -> RateSweepReport {
        RateSweepReport {
            batch_size: 8,
            fleet_size: 2,
            queue_capacity: 64,
            rows: vec![
                RatePoint {
                    rate: 8.0,
                    offered: 96,
                    served: 96,
                    shed_rate: 0.0,
                    throughput: 8.0,
                    p50_latency: 1.0,
                    p99_latency: 2.0,
                    p999_latency: 2.0,
                },
                RatePoint {
                    rate: 64.0,
                    offered: 96,
                    served: 80,
                    shed_rate: 0.25,
                    throughput: 16.0,
                    p50_latency: 3.0,
                    p99_latency: 5.0,
                    p999_latency: 5.0,
                },
            ],
            saturation_rate: 8.0,
        }
    }

    #[test]
    fn rate_sweep_csv_renders_headers_and_rows() {
        let csv = rate_sweep_csv(&tiny_sweep());
        assert!(csv.starts_with("# sweep,batch_size,8,fleet,2,queue_capacity,64\n"));
        assert!(csv.contains("# saturation_rate,8\n"));
        assert!(csv.contains(
            "rate,offered,served,shed_rate,throughput,p50_latency,p99_latency,p999_latency\n"
        ));
        assert!(csv.contains("8,96,96,0,8,1,2,2\n"));
        assert!(csv.contains("64,96,80,0.25,16,3,5,5\n"));
    }

    #[test]
    fn rate_sweep_csv_renders_nan_saturation_as_empty() {
        let mut sweep = tiny_sweep();
        sweep.saturation_rate = f64::NAN;
        assert!(rate_sweep_csv(&sweep).contains("# saturation_rate,\n"));
        assert!(rate_sweep_json(&sweep).contains("\"saturation_rate\":null"));
    }

    #[test]
    fn rate_sweep_json_mirrors_csv() {
        let json = rate_sweep_json(&tiny_sweep());
        assert!(json.starts_with("{\"batch_size\":8,\"fleet_size\":2,\"queue_capacity\":64"));
        assert!(json.contains("\"saturation_rate\":8"));
        assert!(json.contains(
            "{\"rate\":8,\"offered\":96,\"served\":96,\"shed_rate\":0,\"throughput\":8,\
             \"p50_latency\":1,\"p99_latency\":2,\"p999_latency\":2}"
        ));
    }
}
