//! Property-based tests for the thermal solver.

use proptest::prelude::*;
use safelight_thermal::{Floorplan, TemperatureField, ThermalConfig, ThermalGrid};

/// A grid of `width × height` cells with `powers[i]` watts on cell `i`
/// (row-major), solved under the default configuration.
fn solve_map(width: usize, height: usize, powers: &[f64]) -> (ThermalGrid, TemperatureField) {
    let mut grid = ThermalGrid::new(width, height, ThermalConfig::default()).unwrap();
    for (i, &p) in powers.iter().take(width * height).enumerate() {
        grid.add_power(i % width, i / width, p).unwrap();
    }
    let field = grid.solve();
    (grid, field)
}

/// Largest per-cell imbalance of the heat balance
/// `Σ g_lat (T_nb − T) + g_sink (T_amb − T) + P = 0`, divided by the
/// cell's diagonal conductance so it reads in kelvin.
fn max_balance_residual_k(grid: &ThermalGrid, field: &TemperatureField) -> f64 {
    let cfg = grid.config();
    let (g_lat, g_sink) = (
        cfg.lateral_conductance_w_per_k,
        cfg.sink_conductance_w_per_k,
    );
    let (w, h) = (grid.width(), grid.height());
    let mut worst = 0.0f64;
    for y in 0..h {
        for x in 0..w {
            let t = field.at(x, y).unwrap();
            let neighbours = [
                (x > 0).then(|| (x - 1, y)),
                (x + 1 < w).then(|| (x + 1, y)),
                (y > 0).then(|| (x, y - 1)),
                (y + 1 < h).then(|| (x, y + 1)),
            ];
            let mut flow = grid.power_at(x, y).unwrap() + g_sink * (cfg.ambient_k - t);
            let mut diag = g_sink;
            for (nx, ny) in neighbours.into_iter().flatten() {
                flow += g_lat * (field.at(nx, ny).unwrap() - t);
                diag += g_lat;
            }
            worst = worst.max((flow / diag).abs());
        }
    }
    worst
}

/// Reference solve of `(g_lat·L + g_sink·I)·u = P` by dense Cholesky
/// factorization; returns `T = T_amb + u` row-major.
fn dense_cholesky_reference(grid: &ThermalGrid) -> Vec<f64> {
    let cfg = grid.config();
    let (g_lat, g_sink) = (
        cfg.lateral_conductance_w_per_k,
        cfg.sink_conductance_w_per_k,
    );
    let (w, h) = (grid.width(), grid.height());
    let n = w * h;
    let mut a = vec![0.0; n * n];
    for y in 0..h {
        for x in 0..w {
            let i = y * w + x;
            a[i * n + i] = g_sink;
            let neighbours = [
                (x > 0).then(|| i - 1),
                (x + 1 < w).then(|| i + 1),
                (y > 0).then(|| i - w),
                (y + 1 < h).then(|| i + w),
            ];
            for j in neighbours.into_iter().flatten() {
                a[i * n + i] += g_lat;
                a[i * n + j] -= g_lat;
            }
        }
    }
    // In-place lower-triangular factor: A = L·Lᵀ.
    for j in 0..n {
        let d = a[j * n + j] - (0..j).map(|k| a[j * n + k].powi(2)).sum::<f64>();
        a[j * n + j] = d.sqrt();
        for i in j + 1..n {
            let s = a[i * n + j] - (0..j).map(|k| a[i * n + k] * a[j * n + k]).sum::<f64>();
            a[i * n + j] = s / a[j * n + j];
        }
    }
    let mut u: Vec<f64> = (0..n)
        .map(|i| grid.power_at(i % w, i / w).unwrap())
        .collect();
    for i in 0..n {
        u[i] = (u[i] - (0..i).map(|k| a[i * n + k] * u[k]).sum::<f64>()) / a[i * n + i];
    }
    for i in (0..n).rev() {
        u[i] = (u[i] - (i + 1..n).map(|k| a[k * n + i] * u[k]).sum::<f64>()) / a[i * n + i];
    }
    u.iter().map(|du| cfg.ambient_k + du).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Maximum principle: with non-negative sources the temperature never
    /// drops below ambient anywhere.
    /// The direct solve satisfies every cell's heat balance to rounding,
    /// on any grid shape including single rows and columns.
    #[test]
    fn every_cell_balances(
        width in 1usize..24, height in 1usize..24,
        powers in proptest::collection::vec(0.0f64..0.05, 576),
        sparsity in 0usize..4,
    ) {
        // Zero out a varying share of cells so sparse maps (and the
        // solver's zero-row skip) are exercised too.
        let powers: Vec<f64> = powers
            .iter()
            .enumerate()
            .map(|(i, &p)| if i % 4 < sparsity { 0.0 } else { p })
            .collect();
        let (grid, field) = solve_map(width, height, &powers);
        let residual = max_balance_residual_k(&grid, &field);
        prop_assert!(residual <= 1e-9, "{width}x{height}: residual {residual} K");
    }

    /// The direct solve agrees with a dense Cholesky factorization of the
    /// same operator on every grid of at most 64 cells.
    #[test]
    fn matches_dense_cholesky_reference(
        width in 1usize..=16, height in 1usize..=16,
        powers in proptest::collection::vec(0.0f64..0.05, 64),
    ) {
        let height = height.min(64 / width);
        let (grid, field) = solve_map(width, height, &powers);
        let reference = dense_cholesky_reference(&grid);
        for (i, (&t, &r)) in field.as_slice().iter().zip(&reference).enumerate() {
            prop_assert!((t - r).abs() <= 1e-9, "{width}x{height} cell {i}: {t} vs {r}");
        }
    }

    #[test]
    fn no_cell_below_ambient(
        x in 0usize..12, y in 0usize..12, watts in 0.0f64..0.05,
    ) {
        let mut grid = ThermalGrid::new(12, 12, ThermalConfig::default()).unwrap();
        grid.add_power(x, y, watts).unwrap();
        let field = grid.solve();
        for &t in field.as_slice() {
            prop_assert!(t >= field.ambient_k() - 1e-9);
        }
    }

    /// Superposition: the field of two sources equals the sum of the fields
    /// of each source alone (the steady-state operator is linear).
    #[test]
    fn superposition_holds(
        ax in 0usize..10, ay in 0usize..10,
        bx in 0usize..10, by in 0usize..10,
        pa in 0.001f64..0.03, pb in 0.001f64..0.03,
    ) {
        let solve = |sources: &[(usize, usize, f64)]| {
            let mut g = ThermalGrid::new(10, 10, ThermalConfig::default()).unwrap();
            for &(x, y, p) in sources {
                g.add_power(x, y, p).unwrap();
            }
            g.solve()
        };
        let fa = solve(&[(ax, ay, pa)]);
        let fb = solve(&[(bx, by, pb)]);
        let fab = solve(&[(ax, ay, pa), (bx, by, pb)]);
        for i in 0..fab.as_slice().len() {
            let lhs = fab.as_slice()[i] - fab.ambient_k();
            let rhs = (fa.as_slice()[i] - fa.ambient_k()) + (fb.as_slice()[i] - fb.ambient_k());
            prop_assert!((lhs - rhs).abs() < 1e-9, "superposition broke at {i}: {lhs} vs {rhs}");
        }
    }

    /// Energy balance: everything injected leaves through the sink.
    #[test]
    fn energy_balance(px in 0usize..16, py in 0usize..16, watts in 0.001f64..0.05) {
        let cfg = ThermalConfig::default();
        let mut grid = ThermalGrid::new(16, 16, cfg).unwrap();
        grid.add_power(px, py, watts).unwrap();
        let field = grid.solve();
        let sunk: f64 = field
            .as_slice()
            .iter()
            .map(|t| cfg.sink_conductance_w_per_k * (t - cfg.ambient_k))
            .sum();
        prop_assert!((sunk - watts).abs() / watts < 1e-9, "sunk {sunk} of {watts}");
    }

    /// Floorplan ring_cell never lands outside the covering grid and always
    /// lands inside its own bank's rectangle.
    #[test]
    fn ring_cells_stay_in_bank(
        rows in 1usize..4, cols in 1usize..4,
        bw in 1usize..8, bh in 1usize..8, gap in 0usize..3,
    ) {
        let plan = Floorplan::bank_grid(rows, cols, bw, bh, gap).unwrap();
        for placement in plan.banks() {
            for r in 0..bh {
                for c in 0..bw {
                    let (x, y) = plan.ring_cell(placement.bank, r, c).unwrap();
                    prop_assert!(x < plan.grid_width() && y < plan.grid_height());
                    prop_assert!(placement.rect.contains(x, y));
                    prop_assert_eq!(plan.bank_at(x, y), Some(placement.bank));
                }
            }
        }
    }

    /// A heated bank is hotter on average than any bank two or more bank
    /// pitches away (hotspots are local).
    #[test]
    fn heated_bank_is_hottest(bank in 0usize..9) {
        let plan = Floorplan::bank_grid(3, 3, 4, 4, 2).unwrap();
        let mut grid = ThermalGrid::new(
            plan.grid_width(), plan.grid_height(), ThermalConfig::default(),
        ).unwrap();
        let target = plan.bank(bank).unwrap().rect;
        grid.add_power_region(target, 0.05).unwrap();
        let field = grid.solve();
        let heated = field.mean_delta_in(target).unwrap();
        for other in plan.banks() {
            if other.bank != bank {
                let t = field.mean_delta_in(other.rect).unwrap();
                prop_assert!(heated > t, "bank {bank} not hottest vs {}", other.bank);
            }
        }
    }
}

#[test]
fn neighbouring_banks_receive_spillover() {
    // The Fig. 6 behaviour: an attacked bank heats its neighbours
    // measurably more than distant banks.
    let plan = Floorplan::bank_grid(3, 3, 6, 6, 2).unwrap();
    let mut grid = ThermalGrid::new(
        plan.grid_width(),
        plan.grid_height(),
        ThermalConfig::default(),
    )
    .unwrap();
    // Attack the centre bank (index 4 of the 3×3 arrangement).
    grid.add_power_region(plan.bank(4).unwrap().rect, 0.08)
        .unwrap();
    let field = grid.solve();
    let centre = field.mean_delta_in(plan.bank(4).unwrap().rect).unwrap();
    let side = field.mean_delta_in(plan.bank(3).unwrap().rect).unwrap();
    let corner = field.mean_delta_in(plan.bank(0).unwrap().rect).unwrap();
    assert!(
        centre > side && side > corner,
        "{centre} / {side} / {corner}"
    );
    // Spill into the adjacent bank is a significant fraction of the peak.
    assert!(
        side > 0.1 * centre,
        "side spill too weak: {side} vs {centre}"
    );
}
