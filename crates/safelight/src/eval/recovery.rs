//! The Fig. 9 analysis: accuracy intervals of the most robust variant
//! versus the original model at each attack intensity, and how much of the
//! attack-induced drop the robust model recovers.

use safelight_neuro::parallel::par_map;
use safelight_neuro::{accuracy, Dataset, Network};
use safelight_onn::{ConditionMap, InferenceBackend, WeightMapping};

use crate::attack::{AttackTarget, ScenarioSpec, VectorSpec};
use crate::eval::susceptibility::inject_all;
use crate::SafelightError;

/// Accuracy interval (across trials) of original vs robust model for one
/// `(vector, fraction)` cell of Fig. 9.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryInterval {
    /// Attack vector of this cell.
    pub vector: VectorSpec,
    /// Fraction of MRs attacked.
    pub fraction: f64,
    /// (min, mean, max) accuracy of the original model.
    pub original: (f64, f64, f64),
    /// (min, mean, max) accuracy of the robust model.
    pub robust: (f64, f64, f64),
}

impl RecoveryInterval {
    /// Accuracy recovered by the robust model in the worst trial —
    /// the paper's "recover up to X% of the accuracy drops" metric.
    #[must_use]
    pub fn worst_case_recovery(&self) -> f64 {
        self.robust.0 - self.original.0
    }

    /// Mean-accuracy recovery across trials.
    #[must_use]
    pub fn mean_recovery(&self) -> f64 {
        self.robust.1 - self.original.1
    }
}

/// The Fig. 9 artifact for one model.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// Clean baseline accuracy of the original model (the dashed line).
    pub original_baseline: f64,
    /// Clean baseline accuracy of the robust variant.
    pub robust_baseline: f64,
    /// One interval per `(vector, fraction)` combination.
    pub intervals: Vec<RecoveryInterval>,
}

fn interval(values: &[f64]) -> (f64, f64, f64) {
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mean = values.iter().sum::<f64>() / values.len().max(1) as f64;
    (min, mean, max)
}

/// Compares `original` and `robust` networks under both attack vectors at
/// each `fraction`, attacking both blocks (the paper's Fig. 9 setting:
/// "attacks affecting X% of the total MRs in the ONN accelerator").
///
/// # Errors
///
/// Propagates sweep errors; returns [`SafelightError::InvalidParameter`]
/// for empty fractions or zero trials.
#[allow(clippy::too_many_arguments)]
pub fn run_recovery<D: Dataset + Sync + ?Sized>(
    original: &Network,
    robust: &Network,
    mapping: &WeightMapping,
    backend: &dyn InferenceBackend,
    test_data: &D,
    fractions: &[f64],
    trials: u64,
    seed: u64,
    threads: usize,
) -> Result<RecoveryReport, SafelightError> {
    if fractions.is_empty() {
        return Err(SafelightError::InvalidParameter {
            name: "fractions",
            value: 0.0,
        });
    }
    if trials == 0 {
        return Err(SafelightError::InvalidParameter {
            name: "trials",
            value: 0.0,
        });
    }
    let mut scenarios = Vec::new();
    for vector in VectorSpec::paper_pair() {
        for &fraction in fractions {
            for trial in 0..trials {
                scenarios.push(ScenarioSpec::new(
                    vector,
                    AttackTarget::Both,
                    fraction,
                    trial,
                ));
            }
        }
    }
    // Fault conditions depend only on (scenario, seed), so the expensive
    // injection pass — thermal solves included — is shared between the two
    // models instead of being recomputed per model as the seed did. The
    // Fig. 9 grid uses uniform site selection, so no salience map is
    // needed.
    let injected = inject_all(backend.config(), &scenarios, None, seed, threads)?;

    // Both clean baselines and both models' full trial sets are
    // independent work items; evaluate all of them in one flat fan-out
    // over the pool (2 baselines + 2·N trials) so no worker idles at a
    // cross-model barrier. Results come back in item order, so the split
    // below is deterministic.
    let networks = [original, robust];
    let n_scenarios = injected.len();
    let items: Vec<usize> = (0..2 + 2 * n_scenarios).collect();
    let outcomes = par_map(items, threads, |i| {
        if i < 2 {
            let mut clean = backend.derive_network(networks[i], mapping, &ConditionMap::new())?;
            let acc = accuracy(&mut clean, test_data, 32)?;
            return Ok::<f64, SafelightError>(acc);
        }
        let i = i - 2;
        let entry = &injected[i % n_scenarios];
        let mut attacked =
            backend.derive_network(networks[i / n_scenarios], mapping, &entry.conditions)?;
        Ok(accuracy(&mut attacked, test_data, 32)?)
    });
    let mut accuracies = Vec::with_capacity(outcomes.len());
    for outcome in outcomes {
        accuracies.push(outcome?);
    }
    let original_baseline = accuracies[0];
    let robust_baseline = accuracies[1];
    let trial_of = |model: usize, i: usize| crate::eval::TrialResult {
        scenario: injected[i].scenario.clone(),
        accuracy: accuracies[2 + model * n_scenarios + i],
        effective_fraction: injected[i].effective_fraction,
    };
    let original_trials: Vec<_> = (0..n_scenarios).map(|i| trial_of(0, i)).collect();
    let robust_trials: Vec<_> = (0..n_scenarios).map(|i| trial_of(1, i)).collect();

    let mut intervals = Vec::new();
    for vector in VectorSpec::paper_pair() {
        for &fraction in fractions {
            let select = |t: &&crate::eval::TrialResult| {
                t.scenario.vectors == [vector] && (t.scenario.fraction - fraction).abs() < 1e-12
            };
            let orig: Vec<f64> = original_trials
                .iter()
                .filter(select)
                .map(|t| t.accuracy)
                .collect();
            let robu: Vec<f64> = robust_trials
                .iter()
                .filter(select)
                .map(|t| t.accuracy)
                .collect();
            intervals.push(RecoveryInterval {
                vector,
                fraction,
                original: interval(&orig),
                robust: interval(&robu),
            });
        }
    }
    Ok(RecoveryReport {
        original_baseline,
        robust_baseline,
        intervals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{build_model, ModelKind};
    use safelight_datasets::{digits, SyntheticSpec};
    use safelight_neuro::{Trainer, TrainerConfig};
    use safelight_onn::{AcceleratorConfig, AnalyticBackend};

    #[test]
    fn recovery_report_has_one_interval_per_cell() {
        let data = digits(&SyntheticSpec {
            train: 100,
            test: 40,
            ..SyntheticSpec::default()
        })
        .unwrap();
        let config = AcceleratorConfig::scaled_experiment().unwrap();
        let bundle = build_model(ModelKind::Cnn1, 3).unwrap();
        let mapping = WeightMapping::new(&config, &bundle.layer_specs).unwrap();

        let mut original = bundle.network.clone();
        let cfg = TrainerConfig {
            epochs: 2,
            batch_size: 20,
            ..TrainerConfig::default()
        };
        Trainer::new(cfg).fit(&mut original, &data.train).unwrap();
        let mut robust = bundle.network.clone();
        let cfg = TrainerConfig {
            noise_std: 0.3,
            ..cfg
        };
        Trainer::new(cfg).fit(&mut robust, &data.train).unwrap();

        let report = run_recovery(
            &original,
            &robust,
            &mapping,
            &AnalyticBackend::new(&config),
            &data.test,
            &[0.01, 0.10],
            2,
            5,
            2,
        )
        .unwrap();
        // 2 vectors × 2 fractions.
        assert_eq!(report.intervals.len(), 4);
        for i in &report.intervals {
            assert!(i.original.0 <= i.original.2);
            assert!(i.robust.0 <= i.robust.2);
        }
    }

    #[test]
    fn degenerate_inputs_are_rejected() {
        let data = digits(&SyntheticSpec {
            train: 20,
            test: 10,
            ..SyntheticSpec::default()
        })
        .unwrap();
        let config = AcceleratorConfig::scaled_experiment().unwrap();
        let bundle = build_model(ModelKind::Cnn1, 3).unwrap();
        let mapping = WeightMapping::new(&config, &bundle.layer_specs).unwrap();
        let net = bundle.network;
        assert!(run_recovery(
            &net,
            &net,
            &mapping,
            &AnalyticBackend::new(&config),
            &data.test,
            &[],
            2,
            1,
            1
        )
        .is_err());
        assert!(run_recovery(
            &net,
            &net,
            &mapping,
            &AnalyticBackend::new(&config),
            &data.test,
            &[0.01],
            0,
            1,
            1
        )
        .is_err());
    }
}
