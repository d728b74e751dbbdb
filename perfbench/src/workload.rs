//! The benchmark's workloads: how each sets up, and what one evaluation
//! pass runs and checks.

use std::time::Instant;

use safelight::attack::ScenarioSpec;
use safelight::defense::{train_variant, VariantKind};
use safelight::detect::{default_detectors, Detector};
use safelight::eval::{
    evaluate_with_conditions, inject_all, run_susceptibility, susceptibility_csv,
    SusceptibilityReport,
};
use safelight::experiment::{ExperimentOptions, Fidelity, ModelWorkbench};
use safelight::models::{build_model, dataset_kind_for, matched_accelerator, ModelKind};
use safelight::SafelightError;
use safelight_neuro::Dataset;
use safelight_serve::chaos::{chaos_grid, run_chaos};
use safelight_serve::eval::{run_rate_sweep, run_serving, ServingOptions};
use safelight_serve::report::{chaos_csv, rate_sweep_csv, serving_csv};
use safelight_serve::ArrivalModel;

use crate::measure::{Digest, Metrics};

/// Which evaluation a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// The Fig. 7 susceptibility sweep.
    Fig7,
    /// Closed-loop secure serving plus a clean-fleet rate sweep.
    Serve,
    /// The chaos grid, open loop.
    Chaos,
}

/// One named workload.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub model: ModelKind,
    pub family: Family,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "fig7_cnn1",
        model: ModelKind::Cnn1,
        family: Family::Fig7,
    },
    // The data-plane workload. BENCHMARK.json leaves it out: three
    // from-scratch VGG16_v trainings per run do not fit the run budget.
    Workload {
        name: "fig7_vgg16",
        model: ModelKind::Vgg16s,
        family: Family::Fig7,
    },
    Workload {
        name: "serve_cnn1",
        model: ModelKind::Cnn1,
        family: Family::Serve,
    },
    Workload {
        name: "chaos_cnn1",
        model: ModelKind::Cnn1,
        family: Family::Chaos,
    },
];

/// Clean Poisson rates (requests per tick) of the serving workload's
/// saturation sweep; the quick fleet drains 16 requests per tick.
pub const SWEEP_RATES: [f64; 3] = [4.0, 12.0, 24.0];

/// Open-loop arrival rate of the chaos workload, below the 16/tick drain.
pub const CHAOS_RATE: f64 = 12.0;

/// Chaos-grid replays per pass, each under its own seed derived from the
/// workload seed.
pub const CHAOS_SEEDS: u64 = 2;

/// Clean accuracy below this is no trained model (10 classes: chance is
/// 0.1).
const WELL_ABOVE_CHANCE: f64 = 0.5;

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The experiment options of every workload: the quick profile, trained
/// from scratch (no model cache, so no result depends on a warm or cold
/// cache), with `threads` scenario workers.
pub fn options(seed: u64, threads: usize) -> ExperimentOptions {
    ExperimentOptions {
        fidelity: Fidelity::Quick,
        seed,
        cache_dir: None,
        threads,
        ..ExperimentOptions::default()
    }
}

/// Seconds spent in each set-up layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupSplit {
    pub generate_s: f64,
    pub mapping_s: f64,
    pub train_s: f64,
}

/// Builds the same workbench as `experiment::workbench`, step by step,
/// timing each set-up layer from outside. It must follow `workbench` step
/// for step; `setup_split_builds_the_workbench` checks that it does.
pub fn setup_split(
    model: ModelKind,
    opts: &ExperimentOptions,
) -> Result<(ModelWorkbench, SetupSplit), SafelightError> {
    let t = Instant::now();
    let data = safelight_datasets::generate(dataset_kind_for(model), &opts.data_spec(model))?;
    let generate_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let config = matched_accelerator(model)?;
    let bundle = build_model(model, opts.recipe(model).seed)?;
    let mapping = safelight_onn::WeightMapping::new(&config, &bundle.layer_specs)?;
    let mapping_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let original = train_variant(
        model,
        VariantKind::Original,
        &data,
        &opts.recipe(model),
        None,
    )?;
    let train_s = t.elapsed().as_secs_f64();

    let backend = opts.backend.build(&config);
    let bench = ModelWorkbench {
        kind: model,
        data,
        config,
        mapping,
        original,
        backend,
    };
    Ok((
        bench,
        SetupSplit {
            generate_s,
            mapping_s,
            train_s,
        },
    ))
}

/// What one evaluation pass did.
#[derive(Debug, Default)]
pub struct Pass {
    /// Digest of the pass's committed report renderings.
    pub digest: Digest,
    /// Operations run: fig7 trials, serving scenarios (plus the sweep) or
    /// chaos cases.
    pub attempted: u64,
    /// Operations that returned `Err` or failed an output check.
    pub failed: u64,
    /// Images classified through the simulated accelerator.
    pub images: u64,
    /// The report's clean baseline (fig7) or clean-fleet accuracy.
    pub clean_accuracy: f64,
    /// Outside-timed layer seconds and report-derived layer values.
    pub layers: Metrics,
}

impl Pass {
    /// Counts `ops` operations failed by `err`.
    fn fail(&mut self, ops: u64, err: &SafelightError) {
        eprintln!("operation failed: {err}");
        self.failed += ops;
    }
}

fn in_unit(x: f64) -> bool {
    (0.0..=1.0).contains(&x)
}

/// A workload bound to its set-up state, ready to run passes.
pub struct Runner<'a> {
    workload: &'static Workload,
    bench: &'a ModelWorkbench,
    opts: &'a ExperimentOptions,
    scenarios: Vec<ScenarioSpec>,
    detectors: Vec<Box<dyn Detector>>,
    serving: ServingOptions,
}

impl<'a> Runner<'a> {
    pub fn new(
        workload: &'static Workload,
        bench: &'a ModelWorkbench,
        opts: &'a ExperimentOptions,
    ) -> Self {
        // Fig. 7 and serving sweep the same grid with one trial per cell, so
        // fig7 is the serving workload minus the serving control plane. (Three
        // trials, the quick Fig. 7 default, would double the cold pass.)
        let scenarios = match workload.family {
            Family::Fig7 | Family::Serve => opts.fig7_grid(1),
            Family::Chaos => Vec::new(),
        };
        let arrival = match workload.family {
            Family::Chaos => ArrivalModel::Poisson { rate: CHAOS_RATE },
            _ => ArrivalModel::Closed,
        };
        Self {
            workload,
            bench,
            opts,
            scenarios,
            detectors: default_detectors(),
            serving: ServingOptions {
                arrival,
                ..ServingOptions::for_fidelity(Fidelity::Quick)
            },
        }
    }

    /// One line describing the grid a pass runs.
    pub fn grid(&self) -> String {
        let test = self.bench.data.test.len();
        match self.workload.family {
            Family::Fig7 => format!(
                "{} scenarios (paper pair x uniform x 3 targets x 3 fractions x 1 trial) on {test} test images",
                self.scenarios.len()
            ),
            Family::Serve => format!(
                "{} closed-loop scenarios of {} batches x {} requests on a {}-member fleet, sweep rates {:?}",
                self.scenarios.len(),
                self.serving.batches,
                self.serving.batch_size,
                self.serving.fleet_size,
                SWEEP_RATES
            ),
            Family::Chaos => format!(
                "{} chaos cases x {CHAOS_SEEDS} seeds at poisson {CHAOS_RATE}, {} batches x {} requests on a {}-member fleet",
                chaos_grid(self.serving.onset_batch).len(),
                self.serving.batches,
                self.serving.batch_size,
                self.serving.fleet_size
            ),
        }
    }

    /// Runs one evaluation pass. A traced pass of fig7 calls the sweep's
    /// layers one by one so each can be timed; serving and chaos passes
    /// are the same calls either way.
    pub fn pass(&self, traced: bool) -> Pass {
        match self.workload.family {
            Family::Fig7 => self.fig7(traced),
            Family::Serve => self.serve(),
            Family::Chaos => self.chaos(),
        }
    }

    fn fig7(&self, traced: bool) -> Pass {
        let b = self.bench;
        let n = self.scenarios.len() as u64;
        let mut pass = Pass {
            attempted: n,
            ..Pass::default()
        };
        let report = if traced {
            self.fig7_by_layer(&mut pass.layers)
        } else {
            run_susceptibility(
                &b.original,
                &b.mapping,
                b.backend.as_ref(),
                &b.data.test,
                &self.scenarios,
                self.opts.seed,
                self.opts.threads,
            )
        };
        let report = match report {
            Ok(report) => report,
            Err(err) => {
                pass.fail(n, &err);
                return pass;
            }
        };
        pass.clean_accuracy = report.baseline;
        pass.images = (n + 1) * b.data.test.len() as u64;
        pass.failed = if report.trials.len() as u64 != n || report.baseline < WELL_ABOVE_CHANCE {
            n
        } else {
            report
                .trials
                .iter()
                .zip(&self.scenarios)
                .filter(|(t, s)| {
                    &t.scenario != *s || !in_unit(t.accuracy) || !in_unit(t.effective_fraction)
                })
                .count() as u64
        };
        pass.digest.update(&susceptibility_csv(&report));
        pass
    }

    /// `run_susceptibility` decomposed into its public layers (clean
    /// baseline, attack injection, evaluation), each timed from outside.
    /// The paper grid selects sites uniformly, so no salience map is
    /// needed.
    fn fig7_by_layer(&self, layers: &mut Metrics) -> Result<SusceptibilityReport, SafelightError> {
        let b = self.bench;
        let t = Instant::now();
        let mut clean = b.backend.derive_network(
            &b.original,
            &b.mapping,
            &safelight_onn::ConditionMap::new(),
        )?;
        let baseline = safelight_neuro::accuracy(&mut clean, &b.data.test, 32)?;
        layers.add("eval.baseline_s", t.elapsed().as_secs_f64());

        let t = Instant::now();
        let injected = inject_all(
            b.backend.config(),
            &self.scenarios,
            None,
            self.opts.seed,
            self.opts.threads,
        )?;
        layers.add("attack.inject_s", t.elapsed().as_secs_f64());

        let t = Instant::now();
        let trials = evaluate_with_conditions(
            &b.original,
            &b.mapping,
            b.backend.as_ref(),
            &b.data.test,
            &injected,
            self.opts.threads,
        )?;
        layers.add("eval.evaluate_s", t.elapsed().as_secs_f64());
        Ok(SusceptibilityReport { baseline, trials })
    }

    fn serve(&self) -> Pass {
        let b = self.bench;
        let n = self.scenarios.len() as u64;
        let mut pass = Pass {
            attempted: n + 1,
            ..Pass::default()
        };
        let stream = (self.serving.batches * self.serving.batch_size) as f64;

        let t = Instant::now();
        let serving = run_serving(
            &b.original,
            &b.mapping,
            b.backend.as_ref(),
            &b.data.test,
            &self.scenarios,
            &self.detectors,
            &self.serving,
            self.opts.seed,
            self.opts.threads,
        );
        pass.layers
            .add("serve.eval.serving_s", t.elapsed().as_secs_f64());
        match serving {
            Err(err) => pass.fail(n, &err),
            Ok(report) => {
                pass.clean_accuracy = report.clean_accuracy;
                // Clean reference fleet, then each scenario's responding
                // and no-response fleets.
                let mut served = stream;
                let mut offered = stream;
                for row in &report.rows {
                    served += stream * (1.0 - row.shed_rate) + stream;
                    offered += 2.0 * stream;
                }
                pass.images += served.round() as u64;
                let l = &mut pass.layers;
                l.add("serve.scheduler.offered", offered);
                l.add(
                    "serve.scheduler.shed_rate",
                    mean(report.rows.iter().map(|r| r.shed_rate)),
                );
                l.add(
                    "serve.runtime.remapped_rings",
                    report.rows.iter().map(|r| r.remapped_rings as f64).sum(),
                );
                l.add(
                    "serve.report.availability",
                    mean(report.rows.iter().map(|r| r.availability)),
                );
                l.add(
                    "serve.report.p99_ticks",
                    report
                        .rows
                        .iter()
                        .map(|r| r.p99_latency)
                        .fold(0.0, f64::max),
                );
                pass.failed += if report.rows.len() as u64 != n
                    || report.clean_accuracy < WELL_ABOVE_CHANCE
                {
                    n
                } else {
                    report
                        .rows
                        .iter()
                        .zip(&self.scenarios)
                        .filter(|(r, s)| {
                            &r.scenario != *s
                                || ![
                                    r.pre_onset_accuracy,
                                    r.degraded_accuracy,
                                    r.baseline_post_accuracy,
                                    r.availability,
                                ]
                                .into_iter()
                                .all(in_unit)
                                || !(r.recovered_accuracy.is_nan() || in_unit(r.recovered_accuracy))
                                || !r.p99_latency.is_finite()
                        })
                        .count() as u64
                };
                pass.digest.update(&serving_csv(&report));
            }
        }

        let t = Instant::now();
        let sweep = run_rate_sweep(
            &b.original,
            &b.mapping,
            b.backend.as_ref(),
            &b.data.test,
            &self.detectors,
            &self.serving,
            &SWEEP_RATES,
            self.opts.seed,
            self.opts.threads,
        );
        pass.layers
            .add("serve.eval.sweep_s", t.elapsed().as_secs_f64());
        match sweep {
            Err(err) => pass.fail(1, &err),
            Ok(sweep) => {
                pass.images += sweep.rows.iter().map(|p| p.served as u64).sum::<u64>();
                pass.layers.add(
                    "serve.scheduler.offered",
                    sweep.rows.iter().map(|p| p.offered as f64).sum(),
                );
                pass.layers
                    .add("serve.eval.saturation_rate", sweep.saturation_rate);
                let ok = sweep.rows.len() == SWEEP_RATES.len()
                    && sweep.saturation_rate.is_finite()
                    && sweep
                        .rows
                        .iter()
                        .all(|p| in_unit(p.shed_rate) && p.p99_latency.is_finite());
                pass.failed += u64::from(!ok);
                pass.digest.update(&rate_sweep_csv(&sweep));
            }
        }
        pass
    }

    fn chaos(&self) -> Pass {
        let b = self.bench;
        let cases = chaos_grid(self.serving.onset_batch);
        let n = cases.len() as u64;
        let mut pass = Pass {
            attempted: n * CHAOS_SEEDS,
            ..Pass::default()
        };
        let stream = (self.serving.batches * self.serving.batch_size) as f64;
        let runs = CHAOS_SEEDS as f64;
        for k in 0..CHAOS_SEEDS {
            let seed = chaos_seed(self.opts.seed, k);
            let t = Instant::now();
            let chaos = run_chaos(
                &b.original,
                &b.mapping,
                b.backend.as_ref(),
                &b.data.test,
                &cases,
                &self.detectors,
                &self.serving,
                seed,
                self.opts.threads,
            );
            pass.layers
                .add("serve.chaos.run_s", t.elapsed().as_secs_f64());
            let report = match chaos {
                Ok(report) => report,
                Err(err) => {
                    pass.fail(n, &err);
                    continue;
                }
            };
            pass.clean_accuracy += report.clean_accuracy / runs;
            // The clean reference fleet, then one responding fleet per case.
            let served: f64 = stream
                + report
                    .rows
                    .iter()
                    .map(|r| stream * (1.0 - r.shed_rate))
                    .sum::<f64>();
            pass.images += served.round() as u64;
            let l = &mut pass.layers;
            l.add("serve.scheduler.offered", stream * (n + 1) as f64);
            l.add(
                "serve.scheduler.shed_rate",
                mean(report.rows.iter().map(|r| r.shed_rate)) / runs,
            );
            l.add(
                "serve.report.availability",
                mean(report.rows.iter().map(|r| r.availability)) / runs,
            );
            let worst_p99 = report
                .rows
                .iter()
                .map(|r| r.p99_latency)
                .fold(0.0, f64::max);
            let p99 = l
                .get("serve.report.p99_ticks")
                .unwrap_or(0.0)
                .max(worst_p99);
            l.set("serve.report.p99_ticks", p99);
            l.add("serve.chaos.trojan_tpr", report.trojan_tpr / runs);
            l.add(
                "serve.chaos.spurious_quarantine_rate",
                report.spurious_quarantine_rate / runs,
            );
            pass.failed += if report.rows.len() as u64 != n
                || report.clean_accuracy < WELL_ABOVE_CHANCE
                || !in_unit(report.trojan_tpr)
                || !in_unit(report.spurious_quarantine_rate)
            {
                n
            } else {
                report
                    .rows
                    .iter()
                    .filter(|r| {
                        !in_unit(r.availability)
                            || !(r.post_accuracy.is_nan() || in_unit(r.post_accuracy))
                            || !r.p99_latency.is_finite()
                    })
                    .count() as u64
            };
            pass.digest.update(&chaos_csv(&report));
        }
        pass
    }
}

/// The seed of chaos replay `k`, derived from the workload seed.
pub fn chaos_seed(seed: u64, k: u64) -> u64 {
    seed ^ (k + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safelight::attack::VectorSpec;
    use safelight_datasets::SyntheticSpec;

    /// An untrained CNN_1 on a few images: enough to run every layer of a
    /// pass, small enough for a test.
    fn tiny_bench(opts: &ExperimentOptions) -> ModelWorkbench {
        let model = ModelKind::Cnn1;
        let spec = SyntheticSpec {
            train: 20,
            test: 16,
            seed: 3,
            ..SyntheticSpec::default()
        };
        let data = safelight_datasets::generate(dataset_kind_for(model), &spec).expect("data");
        let config = matched_accelerator(model).expect("config");
        let bundle = build_model(model, 5).expect("model");
        let mapping =
            safelight_onn::WeightMapping::new(&config, &bundle.layer_specs).expect("mapping");
        ModelWorkbench {
            kind: model,
            backend: opts.backend.build(&config),
            data,
            config,
            mapping,
            original: bundle.network,
        }
    }

    /// The digest of one tiny pass of `name` with `threads` scenario
    /// workers. Only actuation scenarios run, which need no thermal solve.
    fn tiny_digest(name: &str, threads: usize) -> Digest {
        let opts = options(7, threads);
        tiny_pass_digest(name, &tiny_bench(&opts), &opts)
    }

    /// The digest of one tiny pass of `name` on `bench`.
    fn tiny_pass_digest(name: &str, bench: &ModelWorkbench, opts: &ExperimentOptions) -> Digest {
        let mut runner = Runner::new(find(name).expect("workload"), bench, opts);
        runner
            .scenarios
            .retain(|s| s.vectors == [VectorSpec::Actuation] && s.fraction == 0.10);
        runner.serving = ServingOptions {
            batches: 6,
            batch_size: 4,
            onset_batch: 2,
            calibration_frames: 8,
            clean_runs: 4,
            recalibration_frames: 8,
            ..runner.serving
        };
        let pass = runner.pass(false);
        assert!(pass.attempted > 0);
        assert!(pass.images > 0);
        pass.digest
    }

    #[test]
    fn fig7_digest_is_thread_count_invariant() {
        assert_eq!(tiny_digest("fig7_cnn1", 1), tiny_digest("fig7_cnn1", 2));
    }

    #[test]
    fn serve_digest_is_thread_count_invariant() {
        assert_eq!(tiny_digest("serve_cnn1", 1), tiny_digest("serve_cnn1", 2));
    }

    #[test]
    fn chaos_digest_is_thread_count_invariant() {
        assert_eq!(tiny_digest("chaos_cnn1", 1), tiny_digest("chaos_cnn1", 2));
    }

    /// Trains CNN_1 twice at the quick profile: run it in release mode.
    #[test]
    fn setup_split_builds_the_workbench() {
        let opts = options(11, 2);
        let (split_bench, split) = setup_split(ModelKind::Cnn1, &opts).expect("split set-up");
        let bench = safelight::experiment::workbench(ModelKind::Cnn1, &opts).expect("workbench");
        assert!(split.generate_s > 0.0 && split.mapping_s > 0.0 && split.train_s > 0.0);
        assert_eq!(split_bench.data.train.len(), bench.data.train.len());
        assert_eq!(split_bench.data.test.len(), bench.data.test.len());
        for name in ["fig7_cnn1", "serve_cnn1"] {
            assert_eq!(
                tiny_pass_digest(name, &split_bench, &opts),
                tiny_pass_digest(name, &bench, &opts),
                "{name}"
            );
        }
    }

    #[test]
    fn traced_fig7_pass_matches_the_untraced_one() {
        let opts = options(7, 2);
        let bench = tiny_bench(&opts);
        let mut runner = Runner::new(find("fig7_cnn1").expect("workload"), &bench, &opts);
        runner
            .scenarios
            .retain(|s| s.vectors == [VectorSpec::Actuation]);
        let traced = runner.pass(true);
        assert_eq!(runner.pass(false).digest, traced.digest);
        for layer in ["eval.baseline_s", "attack.inject_s", "eval.evaluate_s"] {
            assert!(traced.layers.get(layer).is_some(), "{layer} not timed");
        }
    }
}
