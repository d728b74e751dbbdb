//! Evaluation pipelines behind the paper's Figs. 7–9, plus the
//! runtime-detection ROC/latency pipeline ([`detection`]) that measures
//! the [`crate::detect`] subsystem against the extended threat model.

pub mod detection;
mod mitigation;
mod recovery;
mod report;
mod susceptibility;

pub use detection::{
    operating_rank, run_detection, CellSummary, DetectionOptions, DetectionReport, OperatingPoint,
    RocPoint,
};
pub use mitigation::{run_mitigation, MitigationReport, VariantOutcome};
pub use recovery::{run_recovery, RecoveryInterval, RecoveryReport};
pub use report::{
    detection_json, detection_roc_csv, detection_summary_csv, mitigation_csv, mitigation_json,
    recovery_csv, recovery_json, susceptibility_csv, susceptibility_json,
};
pub use susceptibility::{
    evaluate_with_conditions, inject_all, run_susceptibility, InjectedScenario,
    SusceptibilityReport, TrialResult,
};

/// Five-number summary of a set of accuracies (a box-and-whisker box, as
/// used by the paper's Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxStats {
    /// Minimum.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum.
    pub max: f64,
}

impl BoxStats {
    /// Computes the summary of `values`; returns `None` for an empty set.
    ///
    /// # Example
    ///
    /// ```
    /// use safelight::eval::BoxStats;
    ///
    /// let stats = BoxStats::from_values(&[0.1, 0.2, 0.3, 0.4, 0.5]).unwrap();
    /// assert_eq!(stats.median, 0.3);
    /// assert_eq!(stats.min, 0.1);
    /// assert_eq!(stats.max, 0.5);
    /// ```
    #[must_use]
    pub fn from_values(values: &[f64]) -> Option<Self> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("accuracies are finite"));
        let q = |p: f64| -> f64 {
            // Linear interpolation between closest ranks.
            let pos = p * (sorted.len() - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            let frac = pos - lo as f64;
            sorted[lo] * (1.0 - frac) + sorted[hi] * frac
        };
        Some(Self {
            min: sorted[0],
            q1: q(0.25),
            median: q(0.5),
            q3: q(0.75),
            max: sorted[sorted.len() - 1],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn box_stats_of_empty_is_none() {
        assert!(BoxStats::from_values(&[]).is_none());
    }

    #[test]
    fn box_stats_single_value_collapses() {
        let s = BoxStats::from_values(&[0.7]).unwrap();
        assert_eq!(s.min, 0.7);
        assert_eq!(s.max, 0.7);
        assert_eq!(s.median, 0.7);
        assert_eq!(s.q1, s.q3);
    }

    #[test]
    fn box_stats_orders_unsorted_input() {
        let s = BoxStats::from_values(&[0.9, 0.1, 0.5]).unwrap();
        assert_eq!(s.min, 0.1);
        assert_eq!(s.median, 0.5);
        assert_eq!(s.max, 0.9);
    }
}
