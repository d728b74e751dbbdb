//! Attack-sweep throughput: a full `run_susceptibility` over the §IV
//! scenario grid, serial versus fanned out across the worker pool.

use criterion::{criterion_group, criterion_main, Criterion};
use safelight::attack::{AttackTarget, ScenarioSpec, Selection, VectorSpec};
use safelight::eval::run_susceptibility;
use safelight::models::{build_model, ModelKind};
use safelight_datasets::{digits, SyntheticSpec};
use safelight_neuro::parallel::pool_size;
use safelight_neuro::{Trainer, TrainerConfig};
use safelight_onn::{AcceleratorConfig, AnalyticBackend, WeightMapping};

fn scenario_grid() -> Vec<ScenarioSpec> {
    let mut scenarios = Vec::new();
    for vector in VectorSpec::paper_pair() {
        for fraction in [0.05, 0.10] {
            for trial in 0..3 {
                scenarios.push(ScenarioSpec::new(
                    vector,
                    AttackTarget::Both,
                    fraction,
                    trial,
                ));
            }
        }
    }
    scenarios
}

/// The enlarged grid: paper pair + the new vectors + a stacked scenario,
/// across all three selection strategies (12 + 9 = 21 scenarios).
fn extended_grid() -> Vec<ScenarioSpec> {
    let mut scenarios = scenario_grid();
    for selection in Selection::all() {
        for (stack, trial) in [
            (vec![VectorSpec::laser_default()], 0),
            (vec![VectorSpec::trim_default()], 1),
            (safelight::attack::stacked_pair(), 2),
        ] {
            scenarios.push(
                ScenarioSpec::stacked(stack, AttackTarget::Both, 0.05, trial)
                    .with_selection(selection),
            );
        }
    }
    scenarios
}

fn bench_susceptibility_sweep(c: &mut Criterion) {
    let data = digits(&SyntheticSpec {
        train: 120,
        test: 96,
        ..SyntheticSpec::default()
    })
    .unwrap();
    let bundle = build_model(ModelKind::Cnn1, 3).unwrap();
    let mut network = bundle.network;
    let cfg = TrainerConfig {
        epochs: 2,
        batch_size: 20,
        ..TrainerConfig::default()
    };
    Trainer::new(cfg).fit(&mut network, &data.train).unwrap();
    let config = AcceleratorConfig::scaled_experiment().unwrap();
    let mapping = WeightMapping::new(&config, &bundle.layer_specs).unwrap();
    let backend = AnalyticBackend::new(&config);
    let scenarios = scenario_grid();

    let mut group = c.benchmark_group("susceptibility_sweep");
    group.sample_size(10);
    group.bench_function("cnn1_12_scenarios_serial", |b| {
        b.iter(|| {
            run_susceptibility(&network, &mapping, &backend, &data.test, &scenarios, 7, 1).unwrap()
        })
    });
    group.bench_function(format!("cnn1_12_scenarios_pool{}", pool_size()), |b| {
        b.iter(|| {
            run_susceptibility(
                &network,
                &mapping,
                &backend,
                &data.test,
                &scenarios,
                7,
                pool_size(),
            )
            .unwrap()
        })
    });
    let extended = extended_grid();
    group.bench_function(
        format!(
            "cnn1_{}_extended_scenarios_pool{}",
            extended.len(),
            pool_size()
        ),
        |b| {
            b.iter(|| {
                run_susceptibility(
                    &network,
                    &mapping,
                    &backend,
                    &data.test,
                    &extended,
                    7,
                    pool_size(),
                )
                .unwrap()
            })
        },
    );
    group.finish();
}

criterion_group!(benches, bench_susceptibility_sweep);
criterion_main!(benches);
