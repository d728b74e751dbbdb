//! The §IV susceptibility analysis (Fig. 7): accuracy of a model under
//! every attack scenario.

use safelight_neuro::parallel::par_map;
use safelight_neuro::{accuracy, Dataset, Network};
use safelight_onn::{AcceleratorConfig, InferenceBackend, WeightMapping};

use crate::attack::{inject_full, RingSalience, ScenarioSpec, Selection};
use crate::SafelightError;

/// Accuracy of one attack trial.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialResult {
    /// The injected scenario.
    pub scenario: ScenarioSpec,
    /// Post-attack classification accuracy in `[0, 1]`.
    pub accuracy: f64,
    /// Fraction of the targeted blocks' rings under direct trojan control.
    /// Bank-granular vectors clamp upward (a nominal 1 % hotspot can cover
    /// a whole bank), so Fig. 7 data is labeled with what was *actually*
    /// attacked.
    pub effective_fraction: f64,
}

/// A full susceptibility sweep for one model.
#[derive(Debug, Clone, PartialEq)]
pub struct SusceptibilityReport {
    /// Clean (attack-free, but quantized) accelerator accuracy.
    pub baseline: f64,
    /// One result per scenario, in input order.
    pub trials: Vec<TrialResult>,
}

impl SusceptibilityReport {
    /// The worst (lowest) accuracy across all trials.
    #[must_use]
    pub fn worst_accuracy(&self) -> f64 {
        self.trials
            .iter()
            .map(|t| t.accuracy)
            .fold(f64::INFINITY, f64::min)
    }

    /// The largest accuracy drop from baseline, in accuracy points.
    #[must_use]
    pub fn worst_drop(&self) -> f64 {
        self.baseline - self.worst_accuracy()
    }

    /// Results filtered by a scenario predicate (e.g. one Fig. 7 panel
    /// group).
    pub fn filtered<F>(&self, predicate: F) -> Vec<&TrialResult>
    where
        F: Fn(&ScenarioSpec) -> bool,
    {
        self.trials
            .iter()
            .filter(|t| predicate(&t.scenario))
            .collect()
    }
}

/// One pre-injected scenario: the conditions plus the coverage actually
/// achieved.
#[derive(Debug, Clone, PartialEq)]
pub struct InjectedScenario {
    /// The scenario that was injected.
    pub scenario: ScenarioSpec,
    /// The resulting fault conditions.
    pub conditions: safelight_onn::ConditionMap,
    /// Fraction of the targeted blocks' rings under direct trojan control.
    pub effective_fraction: f64,
}

/// Whether any scenario in the slice needs a weight-salience map.
pub(crate) fn needs_salience(scenarios: &[ScenarioSpec]) -> bool {
    scenarios.iter().any(|s| s.selection == Selection::Targeted)
}

/// Pre-injects the fault conditions of every scenario (thermal solves for
/// hotspots happen here), so several model variants can be evaluated
/// against identical attacks without re-solving. `salience` is required
/// when any scenario uses [`Selection::Targeted`].
///
/// # Errors
///
/// Propagates attack-injection errors.
pub fn inject_all(
    config: &AcceleratorConfig,
    scenarios: &[ScenarioSpec],
    salience: Option<&RingSalience>,
    seed: u64,
    threads: usize,
) -> Result<Vec<InjectedScenario>, SafelightError> {
    let outcomes = par_map(scenarios.to_vec(), threads, |scenario| {
        let injection = inject_full(&scenario, config, salience, seed)?;
        Ok::<_, SafelightError>(InjectedScenario {
            scenario,
            conditions: injection.conditions,
            effective_fraction: injection.effective_fraction,
        })
    });
    outcomes.into_iter().collect()
}

/// Evaluates one network against pre-injected conditions, returning one
/// trial result per entry (input order preserved). The effective network
/// of every trial is derived through `backend`, so the same sweep runs
/// against the fast analytic path, the physical datapath or a quantized
/// converter budget unchanged.
///
/// # Errors
///
/// Propagates corruption and evaluation errors.
pub fn evaluate_with_conditions<D: Dataset + Sync + ?Sized>(
    network: &Network,
    mapping: &WeightMapping,
    backend: &dyn InferenceBackend,
    test_data: &D,
    injected: &[InjectedScenario],
    threads: usize,
) -> Result<Vec<TrialResult>, SafelightError> {
    let items: Vec<usize> = (0..injected.len()).collect();
    let outcomes = par_map(items, threads, |i| {
        let entry = &injected[i];
        let mut attacked = backend.derive_network(network, mapping, &entry.conditions)?;
        let acc = accuracy(&mut attacked, test_data, 32)?;
        Ok::<TrialResult, SafelightError>(TrialResult {
            scenario: entry.scenario.clone(),
            accuracy: acc,
            effective_fraction: entry.effective_fraction,
        })
    });
    outcomes.into_iter().collect()
}

/// Runs the susceptibility sweep: for each scenario, inject the attack,
/// derive the corrupted network through the accelerator model, and measure
/// accuracy on `test_data`.
///
/// Trials are independent, so they are distributed over `threads` OS
/// threads; results keep the input order and are bitwise independent of
/// the thread count. `seed` drives attack-site sampling; targeted
/// scenarios derive their salience map from `network` itself (the
/// worst-case adversary knows the deployed weights).
///
/// # Errors
///
/// Propagates attack-injection, corruption and evaluation errors.
pub fn run_susceptibility<D: Dataset + Sync + ?Sized>(
    network: &Network,
    mapping: &WeightMapping,
    backend: &dyn InferenceBackend,
    test_data: &D,
    scenarios: &[ScenarioSpec],
    seed: u64,
    threads: usize,
) -> Result<SusceptibilityReport, SafelightError> {
    let config = backend.config();
    // Baseline: clean accelerator (converter quantization only).
    let mut clean =
        backend.derive_network(network, mapping, &safelight_onn::ConditionMap::new())?;
    let baseline = accuracy(&mut clean, test_data, 32)?;
    // One salience pass feeds every targeted scenario, keeping the sweep
    // deterministic regardless of how trials are scheduled.
    let salience = if needs_salience(scenarios) {
        Some(RingSalience::from_network(network, mapping, config)?)
    } else {
        None
    };
    let injected = inject_all(config, scenarios, salience.as_ref(), seed, threads)?;
    let trials =
        evaluate_with_conditions(network, mapping, backend, test_data, &injected, threads)?;
    Ok(SusceptibilityReport { baseline, trials })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::{AttackTarget, VectorSpec};
    use crate::models::{build_model, ModelKind};
    use safelight_datasets::{digits, SyntheticSpec};
    use safelight_neuro::{Trainer, TrainerConfig};
    use safelight_onn::AnalyticBackend;

    /// A trained-enough CNN_1 plus its mapping on the scaled accelerator.
    fn trained_setup() -> (
        Network,
        WeightMapping,
        AcceleratorConfig,
        safelight_datasets::SplitDataset,
    ) {
        let data = digits(&SyntheticSpec {
            train: 120,
            test: 60,
            ..SyntheticSpec::default()
        })
        .unwrap();
        let bundle = build_model(ModelKind::Cnn1, 3).unwrap();
        let mut network = bundle.network;
        let cfg = TrainerConfig {
            epochs: 3,
            batch_size: 20,
            ..TrainerConfig::default()
        };
        Trainer::new(cfg).fit(&mut network, &data.train).unwrap();
        let config = AcceleratorConfig::scaled_experiment().unwrap();
        let mapping = WeightMapping::new(&config, &bundle.layer_specs).unwrap();
        (network, mapping, config, data)
    }

    #[test]
    fn sweep_produces_one_result_per_scenario() {
        let (network, mapping, config, data) = trained_setup();
        let scenarios = vec![
            ScenarioSpec::new(VectorSpec::Actuation, AttackTarget::ConvBlock, 0.05, 0),
            ScenarioSpec::new(VectorSpec::Actuation, AttackTarget::FcBlock, 0.05, 1),
        ];
        let report = run_susceptibility(
            &network,
            &mapping,
            &AnalyticBackend::new(&config),
            &data.test,
            &scenarios,
            7,
            2,
        )
        .unwrap();
        assert_eq!(report.trials.len(), 2);
        assert!(report.baseline > 0.3, "baseline {}", report.baseline);
        for t in &report.trials {
            assert!((0.0..=1.0).contains(&t.accuracy));
            assert!((0.0..=1.0).contains(&t.effective_fraction));
        }
    }

    #[test]
    fn attacks_do_not_raise_accuracy_above_sane_bounds() {
        let (network, mapping, config, data) = trained_setup();
        let scenarios = vec![ScenarioSpec::new(
            VectorSpec::Hotspot,
            AttackTarget::Both,
            0.10,
            0,
        )];
        let report = run_susceptibility(
            &network,
            &mapping,
            &AnalyticBackend::new(&config),
            &data.test,
            &scenarios,
            7,
            1,
        )
        .unwrap();
        assert!(report.worst_accuracy() <= report.baseline + 0.2);
        assert!(report.worst_drop() >= -0.2);
    }

    #[test]
    fn results_are_deterministic_across_thread_counts() {
        let (network, mapping, config, data) = trained_setup();
        // Mix the paper vectors with targeted/stacked scenarios: the whole
        // enlarged grid must stay scenario-ordered and thread-independent.
        let mut scenarios: Vec<ScenarioSpec> = (0..2)
            .map(|trial| {
                ScenarioSpec::new(VectorSpec::Actuation, AttackTarget::ConvBlock, 0.10, trial)
            })
            .collect();
        scenarios.push(
            ScenarioSpec::new(VectorSpec::laser_default(), AttackTarget::FcBlock, 0.05, 0)
                .with_selection(crate::attack::Selection::Targeted),
        );
        scenarios.push(ScenarioSpec::stacked(
            vec![VectorSpec::Actuation, VectorSpec::Hotspot],
            AttackTarget::Both,
            0.05,
            1,
        ));
        let a = run_susceptibility(
            &network,
            &mapping,
            &AnalyticBackend::new(&config),
            &data.test,
            &scenarios,
            7,
            1,
        )
        .unwrap();
        let b = run_susceptibility(
            &network,
            &mapping,
            &AnalyticBackend::new(&config),
            &data.test,
            &scenarios,
            7,
            2,
        )
        .unwrap();
        for (ta, tb) in a.trials.iter().zip(&b.trials) {
            assert_eq!(ta.accuracy, tb.accuracy);
            assert_eq!(ta.effective_fraction, tb.effective_fraction);
        }
    }

    #[test]
    fn hotspot_trials_report_bank_clamped_coverage() {
        let (network, mapping, config, data) = trained_setup();
        let scenarios = vec![ScenarioSpec::new(
            VectorSpec::Hotspot,
            AttackTarget::ConvBlock,
            0.01,
            0,
        )];
        let report = run_susceptibility(
            &network,
            &mapping,
            &AnalyticBackend::new(&config),
            &data.test,
            &scenarios,
            7,
            1,
        )
        .unwrap();
        // 1 % of the scaled CONV block rounds up to one whole bank (4 %).
        assert!(
            report.trials[0].effective_fraction > 0.03,
            "effective {}",
            report.trials[0].effective_fraction
        );
    }
}
