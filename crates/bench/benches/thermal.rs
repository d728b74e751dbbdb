//! Thermal-solver benchmarks: the direct steady-state solve on the grids
//! the hotspot injector actually solves — CNN_1's CONV block (182×152
//! cells) and FC block (154×146 cells) — with one watt on every tenth bank,
//! the power map of a 10 % hotspot attack.

use criterion::{criterion_group, criterion_main, Criterion};
use safelight::attack::HotspotOptions;
use safelight::models::{matched_accelerator, ModelKind};
use safelight_onn::{BlockKind, BlockLayout};
use safelight_thermal::ThermalGrid;

/// The hotspot grid of `kind` on the CNN_1 accelerator at the injector's
/// resolution (16 thermal cells across a bank), with 1 W on every tenth
/// bank.
fn attacked_grid(kind: BlockKind) -> ThermalGrid {
    let config = matched_accelerator(ModelKind::Cnn1).unwrap();
    let shape = *config.block(kind);
    let layout = BlockLayout::new(shape, kind, (shape.bank_cols / 16).max(1)).unwrap();
    let mut grid = layout
        .thermal_grid(HotspotOptions::default().thermal)
        .unwrap();
    for bank in (0..layout.bank_count()).step_by(10) {
        let rect = layout.floorplan().bank(bank).unwrap().rect;
        grid.add_power_region(rect, 1.0).unwrap();
    }
    grid
}

fn bench_hotspot_solve(c: &mut Criterion) {
    let mut group = c.benchmark_group("thermal_solve");
    group.sample_size(10);
    for (name, kind) in [("cnn1_conv", BlockKind::Conv), ("cnn1_fc", BlockKind::Fc)] {
        let grid = attacked_grid(kind);
        let id = format!("{name}_{}x{}", grid.width(), grid.height());
        group.bench_function(id, |b| b.iter(|| grid.solve()));
    }
    group.finish();
}

criterion_group!(benches, bench_hotspot_solve);
criterion_main!(benches);
