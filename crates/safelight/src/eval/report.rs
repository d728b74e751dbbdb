//! CSV and JSON renderers for the evaluation reports — the
//! machine-readable counterparts of the paper's figure data series. The
//! JSON emitters back `repro --json`, so downstream tooling reads
//! structured results instead of scraping tables.

use safelight_obs::{json_num, json_str};

use crate::eval::{DetectionReport, MitigationReport, RecoveryReport, SusceptibilityReport};

/// Renders a Fig. 7 susceptibility report as CSV:
/// `vector,selection,target,fraction,effective_fraction,trial,accuracy`
/// rows plus a baseline header row. Stacked vectors join with `+`;
/// `effective_fraction` records the coverage actually achieved (bank
/// granularity can clamp a nominal 1 % attack up to a whole bank).
///
/// # Example
///
/// ```
/// use safelight::eval::{susceptibility_csv, SusceptibilityReport};
///
/// let report = SusceptibilityReport { baseline: 0.97, trials: vec![] };
/// let csv = susceptibility_csv(&report);
/// assert!(csv.starts_with("# baseline,0.97"));
/// ```
#[must_use]
pub fn susceptibility_csv(report: &SusceptibilityReport) -> String {
    let mut out = format!("# baseline,{}\n", report.baseline);
    out.push_str("vector,selection,target,fraction,effective_fraction,trial,accuracy\n");
    for t in &report.trials {
        out.push_str(&format!(
            "{},{},{},{},{},{},{}\n",
            t.scenario.vector_label(),
            t.scenario.selection,
            t.scenario.target,
            t.scenario.fraction,
            t.effective_fraction,
            t.scenario.trial,
            t.accuracy
        ));
    }
    out
}

/// Renders a Fig. 8 mitigation report as CSV:
/// `variant,baseline,min,q1,median,q3,max` rows.
#[must_use]
pub fn mitigation_csv(report: &MitigationReport) -> String {
    let mut out = String::from("variant,baseline,min,q1,median,q3,max\n");
    for o in &report.outcomes {
        out.push_str(&format!(
            "{},{},{},{},{},{},{}\n",
            o.variant.label(),
            o.baseline,
            o.stats.min,
            o.stats.q1,
            o.stats.median,
            o.stats.q3,
            o.stats.max
        ));
    }
    out
}

/// Renders a Fig. 9 recovery report as CSV:
/// `vector,fraction,orig_min,orig_mean,orig_max,robust_min,robust_mean,robust_max,worst_case_recovery`.
#[must_use]
pub fn recovery_csv(report: &RecoveryReport) -> String {
    let mut out = format!(
        "# original_baseline,{}\n# robust_baseline,{}\n",
        report.original_baseline, report.robust_baseline
    );
    out.push_str(
        "vector,fraction,orig_min,orig_mean,orig_max,robust_min,robust_mean,robust_max,worst_case_recovery\n",
    );
    for i in &report.intervals {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{}\n",
            i.vector,
            i.fraction,
            i.original.0,
            i.original.1,
            i.original.2,
            i.robust.0,
            i.robust.1,
            i.robust.2,
            i.worst_case_recovery()
        ));
    }
    out
}

/// Renders the detection ROC table as CSV:
/// `detector,vector,selection,target,fraction,threshold,tpr,fpr` rows, one
/// per ROC point, preceded by a `# clean_runs` header. Covers every
/// scenario cell the evaluation ran — one curve per detector × cell.
#[must_use]
pub fn detection_roc_csv(report: &DetectionReport) -> String {
    let mut out = format!("# clean_runs,{}\n", report.clean_runs);
    out.push_str("detector,vector,selection,target,fraction,threshold,tpr,fpr\n");
    for p in &report.roc {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{}\n",
            p.detector, p.vector, p.selection, p.target, p.fraction, p.threshold, p.tpr, p.fpr
        ));
    }
    out
}

/// Renders the per-cell detectability/latency table as CSV:
/// `detector,vector,selection,target,fraction,runs,tpr,auc,detected_runs,mean_latency_frames`
/// rows at each detector's operating threshold (listed in `# operating`
/// header lines as `detector:threshold:fpr`). An undetected cell renders
/// its latency as the empty field.
#[must_use]
pub fn detection_summary_csv(report: &DetectionReport) -> String {
    let mut out = String::new();
    for op in &report.operating {
        out.push_str(&format!(
            "# operating,{},{},{}\n",
            op.detector, op.threshold, op.fpr
        ));
    }
    out.push_str(
        "detector,vector,selection,target,fraction,runs,tpr,auc,detected_runs,mean_latency_frames\n",
    );
    for c in &report.cells {
        let latency = if c.mean_latency_frames.is_finite() {
            format!("{}", c.mean_latency_frames)
        } else {
            String::new()
        };
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{latency}\n",
            c.detector,
            c.vector,
            c.selection,
            c.target,
            c.fraction,
            c.runs,
            c.tpr,
            c.auc,
            c.detected_runs
        ));
    }
    out
}

/// Joins rendered JSON values into an array literal.
fn json_array(items: impl IntoIterator<Item = String>) -> String {
    let body: Vec<String> = items.into_iter().collect();
    format!("[{}]", body.join(","))
}

/// Renders a Fig. 7 susceptibility report as a JSON object with `baseline`
/// and a `trials` array mirroring [`susceptibility_csv`]'s columns.
#[must_use]
pub fn susceptibility_json(report: &SusceptibilityReport) -> String {
    let trials = json_array(report.trials.iter().map(|t| {
        format!(
            "{{\"vector\":{},\"selection\":{},\"target\":{},\"fraction\":{},\
             \"effective_fraction\":{},\"trial\":{},\"accuracy\":{}}}",
            json_str(&t.scenario.vector_label()),
            json_str(t.scenario.selection.label()),
            json_str(&t.scenario.target.to_string()),
            json_num(t.scenario.fraction),
            json_num(t.effective_fraction),
            t.scenario.trial,
            json_num(t.accuracy)
        )
    }));
    format!(
        "{{\"baseline\":{},\"trials\":{trials}}}",
        json_num(report.baseline)
    )
}

/// Renders a Fig. 8 mitigation report as a JSON array of per-variant
/// objects mirroring [`mitigation_csv`]'s columns.
#[must_use]
pub fn mitigation_json(report: &MitigationReport) -> String {
    let outcomes = json_array(report.outcomes.iter().map(|o| {
        format!(
            "{{\"variant\":{},\"baseline\":{},\"min\":{},\"q1\":{},\"median\":{},\
             \"q3\":{},\"max\":{}}}",
            json_str(&o.variant.label()),
            json_num(o.baseline),
            json_num(o.stats.min),
            json_num(o.stats.q1),
            json_num(o.stats.median),
            json_num(o.stats.q3),
            json_num(o.stats.max)
        )
    }));
    format!("{{\"outcomes\":{outcomes}}}")
}

/// Renders a Fig. 9 recovery report as a JSON object mirroring
/// [`recovery_csv`]'s columns.
#[must_use]
pub fn recovery_json(report: &RecoveryReport) -> String {
    let intervals = json_array(report.intervals.iter().map(|i| {
        format!(
            "{{\"vector\":{},\"fraction\":{},\"original\":[{},{},{}],\
             \"robust\":[{},{},{}],\"worst_case_recovery\":{}}}",
            json_str(&i.vector.label()),
            json_num(i.fraction),
            json_num(i.original.0),
            json_num(i.original.1),
            json_num(i.original.2),
            json_num(i.robust.0),
            json_num(i.robust.1),
            json_num(i.robust.2),
            json_num(i.worst_case_recovery())
        )
    }));
    format!(
        "{{\"original_baseline\":{},\"robust_baseline\":{},\"intervals\":{intervals}}}",
        json_num(report.original_baseline),
        json_num(report.robust_baseline)
    )
}

/// Renders a detection report as a JSON object with `operating`, `roc` and
/// `cells` arrays mirroring the two detection CSVs.
#[must_use]
pub fn detection_json(report: &DetectionReport) -> String {
    let operating = json_array(report.operating.iter().map(|o| {
        format!(
            "{{\"detector\":{},\"threshold\":{},\"fpr\":{}}}",
            json_str(&o.detector),
            json_num(o.threshold),
            json_num(o.fpr)
        )
    }));
    let roc = json_array(report.roc.iter().map(|p| {
        format!(
            "{{\"detector\":{},\"vector\":{},\"selection\":{},\"target\":{},\
             \"fraction\":{},\"threshold\":{},\"tpr\":{},\"fpr\":{}}}",
            json_str(&p.detector),
            json_str(&p.vector),
            json_str(&p.selection),
            json_str(&p.target),
            json_num(p.fraction),
            json_num(p.threshold),
            json_num(p.tpr),
            json_num(p.fpr)
        )
    }));
    let cells = json_array(report.cells.iter().map(|c| {
        format!(
            "{{\"detector\":{},\"vector\":{},\"selection\":{},\"target\":{},\
             \"fraction\":{},\"runs\":{},\"tpr\":{},\"auc\":{},\"detected_runs\":{},\
             \"mean_latency_frames\":{}}}",
            json_str(&c.detector),
            json_str(&c.vector),
            json_str(&c.selection),
            json_str(&c.target),
            json_num(c.fraction),
            c.runs,
            json_num(c.tpr),
            json_num(c.auc),
            c.detected_runs,
            json_num(c.mean_latency_frames)
        )
    }));
    format!(
        "{{\"clean_runs\":{},\"operating\":{operating},\"roc\":{roc},\"cells\":{cells}}}",
        report.clean_runs
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::{AttackTarget, ScenarioSpec, Selection, VectorSpec};
    use crate::defense::VariantKind;
    use crate::eval::{BoxStats, RecoveryInterval, TrialResult, VariantOutcome};

    fn scenario() -> ScenarioSpec {
        ScenarioSpec::new(VectorSpec::Hotspot, AttackTarget::Both, 0.05, 2)
    }

    #[test]
    fn susceptibility_csv_has_one_row_per_trial() {
        let report = SusceptibilityReport {
            baseline: 0.9,
            trials: vec![
                TrialResult {
                    scenario: scenario(),
                    accuracy: 0.5,
                    effective_fraction: 0.08,
                },
                TrialResult {
                    scenario: scenario().with_selection(Selection::Clustered),
                    accuracy: 0.6,
                    effective_fraction: 0.08,
                },
            ],
        };
        let csv = susceptibility_csv(&report);
        assert_eq!(csv.lines().count(), 4); // baseline + header + 2 rows
        assert!(csv.contains("hotspot,uniform,CONV+FC,0.05,0.08,2,0.5"));
        assert!(csv.contains("hotspot,clustered,CONV+FC,0.05,0.08,2,0.6"));
    }

    #[test]
    fn susceptibility_csv_labels_stacked_vectors() {
        let report = SusceptibilityReport {
            baseline: 0.9,
            trials: vec![TrialResult {
                scenario: ScenarioSpec::stacked(
                    vec![VectorSpec::Actuation, VectorSpec::Hotspot],
                    AttackTarget::ConvBlock,
                    0.01,
                    0,
                ),
                accuracy: 0.4,
                effective_fraction: 0.05,
            }],
        };
        let csv = susceptibility_csv(&report);
        assert!(csv.contains("actuation+hotspot,uniform,CONV,0.01,0.05,0,0.4"));
    }

    #[test]
    fn mitigation_csv_uses_variant_labels() {
        let report = MitigationReport {
            outcomes: vec![VariantOutcome {
                variant: VariantKind::L2Noise(3),
                baseline: 0.95,
                stats: BoxStats::from_values(&[0.7, 0.8, 0.9]).unwrap(),
            }],
        };
        let csv = mitigation_csv(&report);
        assert!(csv.contains("l2+n3,0.95,0.7,"));
    }

    fn tiny_detection_report() -> DetectionReport {
        use crate::eval::{CellSummary, OperatingPoint, RocPoint};
        DetectionReport {
            detectors: vec!["guard_band".into()],
            clean_runs: 8,
            roc: vec![RocPoint {
                detector: "guard_band".into(),
                vector: "actuation".into(),
                selection: "uniform".into(),
                target: "CONV".into(),
                fraction: 0.1,
                threshold: 4.5,
                tpr: 1.0,
                fpr: 0.0,
            }],
            operating: vec![OperatingPoint {
                detector: "guard_band".into(),
                threshold: 4.5,
                fpr: 0.0,
            }],
            cells: vec![CellSummary {
                detector: "guard_band".into(),
                vector: "actuation".into(),
                selection: "uniform".into(),
                target: "CONV".into(),
                fraction: 0.1,
                runs: 4,
                tpr: 1.0,
                auc: 0.99,
                mean_latency_frames: f64::NAN,
                detected_runs: 0,
            }],
        }
    }

    #[test]
    fn detection_csvs_render_rows_and_censored_latency() {
        let report = tiny_detection_report();
        let roc = detection_roc_csv(&report);
        assert!(roc.starts_with("# clean_runs,8\n"));
        assert!(roc.contains("guard_band,actuation,uniform,CONV,0.1,4.5,1,0"));
        let summary = detection_summary_csv(&report);
        assert!(summary.contains("# operating,guard_band,4.5,0"));
        // The NaN latency renders as an empty trailing field, not "NaN".
        assert!(summary.lines().last().unwrap().ends_with(",0,"));
    }

    #[test]
    fn json_emitters_produce_structured_output() {
        let report = SusceptibilityReport {
            baseline: 0.9,
            trials: vec![TrialResult {
                scenario: scenario(),
                accuracy: 0.5,
                effective_fraction: 0.08,
            }],
        };
        let json = susceptibility_json(&report);
        assert!(json.starts_with("{\"baseline\":0.9"));
        assert!(json.contains("\"vector\":\"hotspot\""));
        let detection = detection_json(&tiny_detection_report());
        // Non-finite latency becomes null, keeping the document valid JSON.
        assert!(detection.contains("\"mean_latency_frames\":null"));
        assert!(detection.contains("\"clean_runs\":8"));
        let mitigation = mitigation_json(&MitigationReport {
            outcomes: vec![VariantOutcome {
                variant: VariantKind::L2Noise(3),
                baseline: 0.95,
                stats: BoxStats::from_values(&[0.7, 0.8, 0.9]).unwrap(),
            }],
        });
        assert!(mitigation.contains("\"variant\":\"l2+n3\""));
        let recovery = recovery_json(&RecoveryReport {
            original_baseline: 0.9,
            robust_baseline: 0.92,
            intervals: vec![RecoveryInterval {
                vector: VectorSpec::Actuation,
                fraction: 0.1,
                original: (0.4, 0.5, 0.6),
                robust: (0.6, 0.7, 0.8),
            }],
        });
        assert!(recovery.contains("\"worst_case_recovery\":0.19999999999999996"));
    }

    #[test]
    fn json_strings_escape_special_characters() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("a\rb\tc"), "\"a\\rb\\tc\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
        assert_eq!(json_num(f64::INFINITY), "null");
    }

    #[test]
    fn recovery_csv_contains_recovery_column() {
        let report = RecoveryReport {
            original_baseline: 0.9,
            robust_baseline: 0.92,
            intervals: vec![RecoveryInterval {
                vector: VectorSpec::Actuation,
                fraction: 0.1,
                original: (0.4, 0.5, 0.6),
                robust: (0.6, 0.7, 0.8),
            }],
        };
        let csv = recovery_csv(&report);
        let last = csv.lines().last().unwrap();
        assert!(last.ends_with(&format!("{}", 0.6 - 0.4)));
    }
}
