//! One driver per paper artifact (Table I, Figs. 6–9), consumed by the
//! `repro` binary in `safelight-bench` and by the integration tests.

use std::path::PathBuf;

use safelight_datasets::{generate, SplitDataset, SyntheticSpec};
use safelight_neuro::{Network, SimRng};
use safelight_onn::{
    AcceleratorConfig, BackendKind, BlockKind, BlockLayout, InferenceBackend, WeightMapping,
};
use safelight_thermal::{Heatmap, ThermalConfig};

use crate::attack::{scenario_grid, scenario_grid_for, Selection, VectorSpec};
use crate::defense::{fig8_variants, train_variant, TrainingRecipe, VariantKind};
use crate::eval::{
    run_mitigation, run_recovery, run_susceptibility, MitigationReport, RecoveryReport,
    SusceptibilityReport,
};
use crate::models::{build_model, dataset_kind_for, ModelKind};
use crate::SafelightError;

/// How much compute an experiment run may spend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Small datasets, few epochs and trials — minutes on two cores.
    Quick,
    /// The full protocol: larger data, 10 trials for Fig. 7, the complete
    /// Fig. 8 variant sweep.
    Full,
}

/// Options shared by all experiment drivers.
#[derive(Debug, Clone)]
pub struct ExperimentOptions {
    /// Compute budget.
    pub fidelity: Fidelity,
    /// Master seed; every stochastic choice derives from it.
    pub seed: u64,
    /// Directory for trained-variant caching (`None` disables caching).
    pub cache_dir: Option<PathBuf>,
    /// Worker threads for trial evaluation.
    pub threads: usize,
    /// Vector stacks swept by the Fig. 7 susceptibility grid. Each entry is
    /// one scenario column: a single vector, or several stacked into one
    /// condition map. Defaults to the paper's pair.
    pub vectors: Vec<Vec<VectorSpec>>,
    /// Site-selection strategies swept by the Fig. 7 grid. Defaults to the
    /// paper's uniform placement.
    pub selections: Vec<Selection>,
    /// Which datapath backend evaluates every scenario (the `repro
    /// --backend` axis). Defaults to the fast analytic path.
    pub backend: BackendKind,
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        Self {
            fidelity: Fidelity::Quick,
            seed: 2025,
            cache_dir: Some(PathBuf::from("target/safelight-models")),
            // Saturate the shared worker pool by default; trial results are
            // scenario-ordered and bitwise independent of this value.
            // (`configured_threads` reports the pool's size without
            // spawning it — constructing options stays side-effect free.)
            threads: safelight_neuro::parallel::configured_threads(),
            vectors: VectorSpec::paper_pair().map(|v| vec![v]).into(),
            selections: vec![Selection::Uniform],
            backend: BackendKind::Fast,
        }
    }
}

impl ExperimentOptions {
    /// Dataset size for `kind` at this fidelity.
    ///
    /// CNN_1 gets a larger corpus: the paper's MNIST baseline is trained on
    /// 60 k images and its robustness to weight corruption depends on that
    /// over-training, so the small model gets the most data.
    #[must_use]
    pub fn data_spec(&self, kind: ModelKind) -> SyntheticSpec {
        let (train, test) = match self.fidelity {
            Fidelity::Quick => (700, 200),
            Fidelity::Full => (1_500, 400),
        };
        let grow = match kind {
            ModelKind::Cnn1 => 2.0,
            ModelKind::ResNet18s => 0.8,
            ModelKind::Vgg16s => 0.7,
        };
        SyntheticSpec {
            train: (train as f64 * grow) as usize,
            test: (test as f64 * grow.min(1.0)) as usize,
            seed: self.seed ^ 0xDA7A,
            ..SyntheticSpec::default()
        }
    }

    /// Training recipe for `kind` at this fidelity.
    #[must_use]
    pub fn recipe(&self, kind: ModelKind) -> TrainingRecipe {
        let base = TrainingRecipe::for_model(kind);
        match self.fidelity {
            Fidelity::Quick => TrainingRecipe {
                epochs: (base.epochs / 2).max(4),
                ..base
            },
            Fidelity::Full => base,
        }
    }

    /// Attack trials per scenario cell for Fig. 7.
    #[must_use]
    pub fn fig7_trials(&self) -> u64 {
        match self.fidelity {
            Fidelity::Quick => 3,
            Fidelity::Full => 10,
        }
    }

    /// Attack trials per scenario cell for the Fig. 8 variant sweep (kept
    /// smaller than Fig. 7's because 11 variants multiply the cost).
    #[must_use]
    pub fn fig8_trials(&self) -> u64 {
        match self.fidelity {
            Fidelity::Quick => 2,
            Fidelity::Full => 3,
        }
    }

    /// Attack trials per scenario cell for the detection sweep (each trial
    /// is additionally replayed under several telemetry noise seeds, so
    /// fewer site draws already give a well-populated TPR estimate).
    #[must_use]
    pub fn detection_trials(&self) -> u64 {
        match self.fidelity {
            Fidelity::Quick => 2,
            Fidelity::Full => 3,
        }
    }

    /// The detection-evaluation knobs at this fidelity.
    #[must_use]
    pub fn detection_options(&self) -> crate::eval::DetectionOptions {
        let base = crate::eval::DetectionOptions::default();
        match self.fidelity {
            Fidelity::Quick => crate::eval::DetectionOptions {
                frames: 16,
                onset: 6,
                calibration_frames: 32,
                clean_runs: 24,
                attack_runs: 3,
                ..base
            },
            Fidelity::Full => base,
        }
    }

    /// The attack intensities of §IV.
    #[must_use]
    pub fn fractions(&self) -> Vec<f64> {
        vec![0.01, 0.05, 0.10]
    }

    /// The Fig. 7 scenario grid implied by these options: every configured
    /// vector stack × selection × target × fraction, with `trials` trials.
    #[must_use]
    pub fn fig7_grid(&self, trials: u64) -> Vec<crate::attack::ScenarioSpec> {
        scenario_grid_for(&self.vectors, &self.selections, &self.fractions(), trials)
    }
}

/// Everything the per-model experiments share: data, mapping and the
/// trained variant networks.
#[derive(Debug, Clone)]
pub struct ModelWorkbench {
    /// Which model this is.
    pub kind: ModelKind,
    /// Train/test data.
    pub data: SplitDataset,
    /// Accelerator profile.
    pub config: AcceleratorConfig,
    /// Weight-stationary mapping of the model.
    pub mapping: WeightMapping,
    /// The trained `Original` (no-mitigation) network.
    pub original: Network,
    /// The datapath backend the experiment evaluates through (resolved
    /// from [`ExperimentOptions::backend`] for this model's accelerator).
    pub backend: Box<dyn InferenceBackend>,
}

/// Builds the shared workbench for `kind`: generates data, trains the
/// original model (through the cache) and derives the mapping.
///
/// # Errors
///
/// Propagates generation, training and mapping errors.
pub fn workbench(
    kind: ModelKind,
    opts: &ExperimentOptions,
) -> Result<ModelWorkbench, SafelightError> {
    let data = generate(dataset_kind_for(kind), &opts.data_spec(kind))?;
    let config = crate::models::matched_accelerator(kind)?;
    let bundle = build_model(kind, opts.recipe(kind).seed)?;
    let mapping = WeightMapping::new(&config, &bundle.layer_specs)?;
    let original = train_variant(
        kind,
        VariantKind::Original,
        &data,
        &opts.recipe(kind),
        opts.cache_dir.as_deref(),
    )?;
    let backend = opts.backend.build(&config);
    Ok(ModelWorkbench {
        kind,
        data,
        config,
        mapping,
        original,
        backend,
    })
}

/// The Fig. 6 artifact: the CONV block's steady-state ΔT heatmap with two
/// hotspot-attacked banks.
#[derive(Debug, Clone)]
pub struct Fig6Artifact {
    /// ΔT heatmap over the CONV block floorplan (kelvin above ambient).
    pub heatmap: Heatmap,
    /// Which banks the trojan heaters inhabit.
    pub attacked_banks: Vec<usize>,
    /// Peak ΔT on the die.
    pub peak_delta_kelvin: f64,
    /// Mean ΔT over the *non-attacked* banks — the spill-over the paper
    /// highlights.
    pub neighbour_mean_delta_kelvin: f64,
}

/// Reproduces Fig. 6: heats two randomly chosen CONV banks with multiple
/// compromised heaters and solves the block's temperature field.
///
/// # Errors
///
/// Propagates layout and thermal-grid errors.
pub fn run_fig6(opts: &ExperimentOptions) -> Result<Fig6Artifact, SafelightError> {
    // Fig. 6 shows the paper's own CONV block (100 VDP banks of 20×20 MRs).
    // The full-resolution solve is affordable in release builds (`Full`);
    // the quick profile uses a reduced block so debug-mode tests stay fast.
    let config = match opts.fidelity {
        Fidelity::Full => AcceleratorConfig::paper()?,
        Fidelity::Quick => AcceleratorConfig::scaled_experiment()?,
    };
    let shape = *config.block(BlockKind::Conv);
    let layout = BlockLayout::new(shape, BlockKind::Conv, 1)?;
    let mut rng = SimRng::seed_from(opts.seed).derive(0xF16);
    let attacked_banks = rng.sample_distinct(shape.vdp_units, 2);

    let mut grid = layout.thermal_grid(ThermalConfig::default())?;
    for &bank in &attacked_banks {
        let rect = layout
            .floorplan()
            .bank(bank)
            .map_err(safelight_onn::OnnError::from)?
            .rect;
        // "Multiple compromised heaters": each attacked bank dissipates a
        // trojan-driven 60 mW spread over its heater array.
        grid.add_power_region(rect, 0.06)?;
    }
    let field = grid.solve();

    let mut neighbour_sum = 0.0;
    let mut neighbour_count = 0usize;
    for placement in layout.floorplan().banks() {
        if !attacked_banks.contains(&placement.bank) {
            neighbour_sum += field.mean_delta_in(placement.rect)?;
            neighbour_count += 1;
        }
    }
    Ok(Fig6Artifact {
        heatmap: field.to_heatmap(),
        attacked_banks,
        peak_delta_kelvin: field.max_delta(),
        neighbour_mean_delta_kelvin: neighbour_sum / neighbour_count.max(1) as f64,
    })
}

/// Reproduces one panel of Fig. 7: the susceptibility sweep of the
/// workbench's model across the full §IV scenario grid.
///
/// # Errors
///
/// Propagates sweep errors.
pub fn run_fig7(
    bench: &ModelWorkbench,
    opts: &ExperimentOptions,
) -> Result<SusceptibilityReport, SafelightError> {
    let scenarios = opts.fig7_grid(opts.fig7_trials());
    run_susceptibility(
        &bench.original,
        &bench.mapping,
        bench.backend.as_ref(),
        &bench.data.test,
        &scenarios,
        opts.seed,
        opts.threads,
    )
}

/// The full Fig. 8 artifact: every trained variant network and the
/// robustness report.
///
/// Carrying the trained networks out of [`run_fig8`] lets [`run_fig9_from`]
/// reuse the winning variant instead of retraining it (with
/// `cache_dir: None` the retrain used to double the most expensive step).
#[derive(Debug, Clone)]
pub struct Fig8Run {
    /// Every Fig. 8 variant with its trained network, in axis order.
    pub variants: Vec<(VariantKind, Network)>,
    /// The robustness summary per variant.
    pub report: MitigationReport,
}

impl Fig8Run {
    /// The trained network of `variant`, if it was on the Fig. 8 axis.
    #[must_use]
    pub fn trained(&self, variant: VariantKind) -> Option<&Network> {
        self.variants
            .iter()
            .find(|(v, _)| *v == variant)
            .map(|(_, network)| network)
    }
}

/// Runs the runtime-detection evaluation on the workbench's original
/// model: builds the scenario grid implied by the options'
/// vectors/selections with [`ExperimentOptions::detection_trials`] trials,
/// and measures the stock detector suite ([`crate::detect`]) against it.
///
/// # Errors
///
/// Propagates detection-evaluation errors.
pub fn run_detection_experiment(
    bench: &ModelWorkbench,
    opts: &ExperimentOptions,
) -> Result<crate::eval::DetectionReport, SafelightError> {
    let scenarios = opts.fig7_grid(opts.detection_trials());
    crate::eval::run_detection(
        &bench.original,
        &bench.mapping,
        bench.backend.as_ref(),
        &scenarios,
        &crate::detect::default_detectors(),
        &opts.detection_options(),
        opts.seed,
        opts.threads,
    )
}

/// Reproduces one panel of Fig. 8: trains every variant on the Fig. 8 axis
/// and summarizes each across the attack grid. The trained variants ride
/// along in the returned [`Fig8Run`] for downstream reuse.
///
/// # Errors
///
/// Propagates training and evaluation errors.
pub fn run_fig8(
    bench: &ModelWorkbench,
    opts: &ExperimentOptions,
) -> Result<Fig8Run, SafelightError> {
    let recipe = opts.recipe(bench.kind);
    let mut variants = Vec::new();
    for variant in fig8_variants() {
        let network = train_variant(
            bench.kind,
            variant,
            &bench.data,
            &recipe,
            opts.cache_dir.as_deref(),
        )?;
        variants.push((variant, network));
    }
    let scenarios = scenario_grid(&opts.fractions(), opts.fig8_trials());
    let report = run_mitigation(
        &variants,
        &bench.mapping,
        bench.backend.as_ref(),
        &bench.data.test,
        &scenarios,
        opts.seed,
        opts.threads,
    )?;
    Ok(Fig8Run { variants, report })
}

/// The Fig. 9 comparison for an already-computed Fig. 8 run: picks the most
/// robust variant *from the run's trained networks* and compares it against
/// the workbench's original model at every attack intensity.
///
/// This function takes no training inputs at all — it cannot retrain, which
/// is the point: the winner was just trained by [`run_fig8`].
///
/// # Errors
///
/// Propagates evaluation errors.
pub fn run_fig9_from(
    bench: &ModelWorkbench,
    fig8: &Fig8Run,
    opts: &ExperimentOptions,
) -> Result<(VariantKind, RecoveryReport), SafelightError> {
    let best = fig8
        .report
        .most_robust()
        .expect("fig8 axis is non-empty")
        .variant;
    let robust = fig8
        .trained(best)
        .expect("the most robust variant was trained in this run");
    let report = run_recovery(
        &bench.original,
        robust,
        &bench.mapping,
        bench.backend.as_ref(),
        &bench.data.test,
        &opts.fractions(),
        opts.fig7_trials(),
        opts.seed,
        opts.threads,
    )?;
    Ok((best, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> ExperimentOptions {
        ExperimentOptions {
            fidelity: Fidelity::Quick,
            seed: 1,
            cache_dir: None,
            threads: 2,
            ..ExperimentOptions::default()
        }
    }

    #[test]
    fn fig6_heats_two_banks_and_their_neighbours() {
        let artifact = run_fig6(&tiny_opts()).unwrap();
        assert_eq!(artifact.attacked_banks.len(), 2);
        assert!(
            artifact.peak_delta_kelvin > 10.0,
            "peak {}",
            artifact.peak_delta_kelvin
        );
        assert!(
            artifact.neighbour_mean_delta_kelvin > 0.0,
            "no spill-over measured"
        );
        assert!(artifact.neighbour_mean_delta_kelvin < artifact.peak_delta_kelvin);
        // The heatmap covers the CONV floorplan.
        assert!(artifact.heatmap.width() > 10 && artifact.heatmap.height() > 10);
    }

    #[test]
    fn options_scale_with_fidelity() {
        let quick = tiny_opts();
        let full = ExperimentOptions {
            fidelity: Fidelity::Full,
            ..tiny_opts()
        };
        assert!(quick.fig7_trials() < full.fig7_trials());
        assert!(quick.data_spec(ModelKind::Cnn1).train < full.data_spec(ModelKind::Cnn1).train);
        assert!(quick.recipe(ModelKind::Cnn1).epochs < full.recipe(ModelKind::Cnn1).epochs);
    }

    #[test]
    fn fig7_grid_scales_with_configured_vectors_and_selections() {
        let opts = tiny_opts();
        // Paper default: 2 stacks × 1 selection × 3 targets × 3 fractions.
        assert_eq!(opts.fig7_grid(2).len(), 2 * 3 * 3 * 2);
        let extended = ExperimentOptions {
            vectors: vec![
                vec![VectorSpec::Actuation],
                vec![VectorSpec::laser_default()],
                vec![VectorSpec::Actuation, VectorSpec::Hotspot],
            ],
            selections: vec![Selection::Uniform, Selection::Targeted],
            ..tiny_opts()
        };
        let grid = extended.fig7_grid(1);
        assert_eq!(grid.len(), 3 * 2 * 3 * 3);
        assert!(grid.iter().any(|s| s.is_stacked()));
    }

    #[test]
    fn fig9_reuses_the_fig8_winner_without_retraining() {
        // Regression for the double-training bug: `run_fig9_from` has no
        // access to training inputs, so the recovery comparison *must* run
        // against the network trained during Fig. 8. Verify the lookup
        // plumbing hands back the exact stored network.
        use crate::defense::VariantKind;
        use crate::models::build_model;

        let data = safelight_datasets::generate(
            crate::models::dataset_kind_for(ModelKind::Cnn1),
            &SyntheticSpec {
                train: 40,
                test: 20,
                seed: 5,
                ..SyntheticSpec::default()
            },
        )
        .unwrap();
        let config = crate::models::matched_accelerator(ModelKind::Cnn1).unwrap();
        let bundle = build_model(ModelKind::Cnn1, 7).unwrap();
        let mapping = WeightMapping::new(&config, &bundle.layer_specs).unwrap();
        let original = bundle.network.clone();
        let better = build_model(ModelKind::Cnn1, 8).unwrap().network;
        let bench = ModelWorkbench {
            kind: ModelKind::Cnn1,
            backend: safelight_onn::BackendKind::Fast.build(&config),
            data,
            config,
            mapping,
            original: original.clone(),
        };
        let fig8 = Fig8Run {
            variants: vec![
                (VariantKind::Original, original.clone()),
                (VariantKind::L2Noise(3), better.clone()),
            ],
            report: MitigationReport {
                outcomes: vec![
                    crate::eval::VariantOutcome {
                        variant: VariantKind::Original,
                        baseline: 0.9,
                        stats: crate::eval::BoxStats::from_values(&[0.5]).unwrap(),
                    },
                    crate::eval::VariantOutcome {
                        variant: VariantKind::L2Noise(3),
                        baseline: 0.9,
                        stats: crate::eval::BoxStats::from_values(&[0.7]).unwrap(),
                    },
                ],
            },
        };
        // The stored winner network is handed back by identity of values.
        let stored = fig8.trained(VariantKind::L2Noise(3)).unwrap();
        for (a, b) in stored.params().iter().zip(better.params().iter()) {
            assert_eq!(a.value.as_slice(), b.value.as_slice());
        }
        // And the fig9 driver runs end-to-end against it.
        let opts = ExperimentOptions {
            threads: 1,
            ..tiny_opts()
        };
        let (best, report) = run_fig9_from(&bench, &fig8, &opts).unwrap();
        assert_eq!(best, VariantKind::L2Noise(3));
        assert_eq!(report.intervals.len(), 2 * opts.fractions().len());
    }
}
