//! Direct steady-state solver and the resulting temperature field.

use crate::grid::ThermalConfig;
use crate::heatmap::Heatmap;
use crate::ThermalError;

/// A solved steady-state temperature field over a grid.
///
/// Produced by [`ThermalGrid::solve`](crate::ThermalGrid::solve). All
/// queries are in kelvin; `delta_*` methods report the rise over ambient,
/// which is the `ΔT` entering the paper's eq. (2) resonance-shift model.
#[derive(Debug, Clone, PartialEq)]
pub struct TemperatureField {
    width: usize,
    height: usize,
    ambient_k: f64,
    temperatures_k: Vec<f64>,
}

impl TemperatureField {
    /// Grid width in cells.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Grid height in cells.
    #[must_use]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Ambient temperature the field is referenced to, in kelvin.
    #[must_use]
    pub fn ambient_k(&self) -> f64 {
        self.ambient_k
    }

    /// Absolute temperature at `(x, y)` in kelvin.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::CellOutOfBounds`] outside the grid.
    pub fn at(&self, x: usize, y: usize) -> Result<f64, ThermalError> {
        if x >= self.width || y >= self.height {
            return Err(ThermalError::CellOutOfBounds {
                x,
                y,
                width: self.width,
                height: self.height,
            });
        }
        Ok(self.temperatures_k[y * self.width + x])
    }

    /// Temperature rise over ambient at `(x, y)` in kelvin.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::CellOutOfBounds`] outside the grid.
    pub fn delta_at(&self, x: usize, y: usize) -> Result<f64, ThermalError> {
        Ok(self.at(x, y)? - self.ambient_k)
    }

    /// Largest temperature rise over ambient anywhere on the grid.
    #[must_use]
    pub fn max_delta(&self) -> f64 {
        self.temperatures_k
            .iter()
            .fold(f64::NEG_INFINITY, |a, &t| a.max(t))
            - self.ambient_k
    }

    /// Mean temperature rise over the cells of a rectangle, in kelvin.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::RegionOutOfBounds`] when the rectangle does
    /// not fit the grid.
    pub fn mean_delta_in(&self, rect: crate::Rect) -> Result<f64, ThermalError> {
        if rect.x + rect.width > self.width || rect.y + rect.height > self.height {
            return Err(ThermalError::RegionOutOfBounds { index: 0 });
        }
        let mut sum = 0.0;
        let mut n = 0usize;
        for y in rect.y..rect.y + rect.height {
            for x in rect.x..rect.x + rect.width {
                sum += self.temperatures_k[y * self.width + x];
                n += 1;
            }
        }
        if n == 0 {
            return Ok(0.0);
        }
        Ok(sum / n as f64 - self.ambient_k)
    }

    /// Raw temperature buffer in row-major order (kelvin).
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.temperatures_k
    }

    /// Samples the temperature rise over ambient at a list of sensor
    /// `sites` (e.g. [`Floorplan::sensor_sites`](crate::Floorplan::sensor_sites)),
    /// in site order — one on-chip thermal-sensor readout frame.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::CellOutOfBounds`] when any site lies outside
    /// the grid.
    pub fn sample_delta(&self, sites: &[(usize, usize)]) -> Result<Vec<f64>, ThermalError> {
        sites.iter().map(|&(x, y)| self.delta_at(x, y)).collect()
    }

    /// Converts the field into a renderable [`Heatmap`] of ΔT values.
    #[must_use]
    pub fn to_heatmap(&self) -> Heatmap {
        Heatmap::from_values(
            self.width,
            self.height,
            self.temperatures_k
                .iter()
                .map(|t| t - self.ambient_k)
                .collect(),
        )
    }
}

/// Direct solve of the steady-state balance
/// `Σ g_lat (T_nb − T) + g_sink (T_amb − T) + P = 0`.
///
/// With `u = T − T_amb` the balance reads `(g_lat·L + g_sink·I)·u = P`,
/// where `L` is the 5-point grid Laplacian with adiabatic edges: the
/// Kronecker sum of two path-graph Laplacians. The orthonormal DCT-II
/// diagonalizes each path Laplacian exactly (eigenvalues
/// `λ_k = 2 − 2cos(πk/n)`), so
///
/// ```text
/// u = Cᵧᵀ [(Cᵧ P Cₓᵀ) ⊘ (g_lat(λₓ + λᵧ) + g_sink)] Cₓ
/// ```
///
/// Dense cosine tables make this O(WH(W+H)) with no iteration and no
/// tolerance: the only error is floating-point rounding.
pub(crate) fn solve_steady_state(
    width: usize,
    height: usize,
    power_w: &[f64],
    config: &ThermalConfig,
) -> TemperatureField {
    debug_assert_eq!(power_w.len(), width * height);
    let g_lat = config.lateral_conductance_w_per_k;
    let g_sink = config.sink_conductance_w_per_k;
    let (cx, lambda_x) = (dct_matrix(width), path_eigenvalues(width));
    let (cy, lambda_y) = (dct_matrix(height), path_eigenvalues(height));

    // Spectral power, stored transposed (row = x mode, column = y mode)
    // so every transform below is a left multiply on contiguous rows.
    let along_y = mul_rows(&cy, false, power_w, width);
    let mut spectrum = mul_rows(&cx, false, &transpose(&along_y, width), height);
    for (row, &lx) in spectrum.chunks_exact_mut(height).zip(&lambda_x) {
        for (s, &ly) in row.iter_mut().zip(&lambda_y) {
            *s /= g_lat * (lx + ly) + g_sink;
        }
    }
    let back_x = transpose(&mul_rows(&cx, true, &spectrum, height), height);
    let mut temperatures_k = mul_rows(&cy, true, &back_x, width);
    for t in &mut temperatures_k {
        *t += config.ambient_k;
    }
    TemperatureField {
        width,
        height,
        ambient_k: config.ambient_k,
        temperatures_k,
    }
}

/// The orthonormal `n × n` DCT-II matrix, row-major:
/// `C[k][j] = s_k cos(πk(2j+1) / 2n)` with `s_0 = √(1/n)`, `s_k = √(2/n)`.
fn dct_matrix(n: usize) -> Vec<f64> {
    let mut c = Vec::with_capacity(n * n);
    for k in 0..n {
        let scale = if k == 0 { 1.0 } else { 2.0f64.sqrt() } / (n as f64).sqrt();
        for j in 0..n {
            // Reduce the angle modulo 2π in exact integer arithmetic.
            let phase = (k * (2 * j + 1)) % (4 * n);
            c.push(scale * (std::f64::consts::PI * phase as f64 / (2 * n) as f64).cos());
        }
    }
    c
}

/// Eigenvalues `2 − 2cos(πk/n)` of the `n`-node path-graph Laplacian, in
/// the order of the [`dct_matrix`] rows.
fn path_eigenvalues(n: usize) -> Vec<f64> {
    (0..n)
        .map(|k| 2.0 - 2.0 * (std::f64::consts::PI * k as f64 / n as f64).cos())
        .collect()
}

/// `M·X` (or `Mᵀ·X` when `transpose`) for a square row-major `M` and a
/// row-major `X` with `cols` columns. All-zero rows of `X` are skipped.
fn mul_rows(m: &[f64], transpose: bool, x: &[f64], cols: usize) -> Vec<f64> {
    let n = x.len() / cols;
    let mut out = vec![0.0; x.len()];
    for (j, x_row) in x.chunks_exact(cols).enumerate() {
        if x_row.iter().all(|&v| v == 0.0) {
            continue;
        }
        for (i, out_row) in out.chunks_exact_mut(cols).enumerate() {
            let c = if transpose {
                m[j * n + i]
            } else {
                m[i * n + j]
            };
            for (o, &v) in out_row.iter_mut().zip(x_row) {
                *o += c * v;
            }
        }
    }
    out
}

/// Transpose of a row-major matrix with `cols` columns.
fn transpose(x: &[f64], cols: usize) -> Vec<f64> {
    let rows = x.len() / cols;
    let mut out = vec![0.0; x.len()];
    for (r, row) in x.chunks_exact(cols).enumerate() {
        for (c, &v) in row.iter().enumerate() {
            out[c * rows + r] = v;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Rect, ThermalGrid};

    fn solve_point_source(size: usize, watts: f64) -> TemperatureField {
        let mut grid = ThermalGrid::new(size, size, ThermalConfig::default()).unwrap();
        grid.add_power(size / 2, size / 2, watts).unwrap();
        grid.solve()
    }

    #[test]
    fn sample_delta_reads_sites_in_order() {
        let field = solve_point_source(16, 0.02);
        let sites = [(8, 8), (0, 0), (15, 15)];
        let samples = field.sample_delta(&sites).unwrap();
        assert_eq!(samples.len(), 3);
        for (s, &(x, y)) in samples.iter().zip(&sites) {
            assert_eq!(*s, field.delta_at(x, y).unwrap());
        }
        // The sensor at the heater reads hotter than the corner sensors.
        assert!(samples[0] > samples[1] && samples[0] > samples[2]);
        assert!(field.sample_delta(&[(16, 0)]).is_err());
    }

    #[test]
    fn zero_power_gives_ambient_everywhere() {
        let grid = ThermalGrid::new(12, 12, ThermalConfig::default()).unwrap();
        let field = grid.solve();
        assert!(field.max_delta().abs() < 1e-6);
    }

    #[test]
    fn maximum_principle_holds() {
        // With non-negative sources, temperature never drops below ambient.
        let field = solve_point_source(24, 0.02);
        for &t in field.as_slice() {
            assert!(t >= field.ambient_k() - 1e-9);
        }
    }

    #[test]
    fn hotspot_peaks_at_the_source() {
        let field = solve_point_source(24, 0.02);
        let centre = field.delta_at(12, 12).unwrap();
        assert!((field.max_delta() - centre).abs() < 1e-9);
    }

    #[test]
    fn hotspot_decays_monotonically_along_a_ray() {
        let field = solve_point_source(32, 0.02);
        let mut last = f64::INFINITY;
        for x in 16..30 {
            let d = field.delta_at(x, 16).unwrap();
            assert!(d <= last + 1e-12, "ΔT increased away from source at x={x}");
            last = d;
        }
    }

    #[test]
    fn solution_is_linear_in_power() {
        let f1 = solve_point_source(16, 0.01);
        let f2 = solve_point_source(16, 0.02);
        let r = f2.delta_at(8, 8).unwrap() / f1.delta_at(8, 8).unwrap();
        assert!((r - 2.0).abs() < 1e-3, "ratio {r}");
    }

    #[test]
    fn global_energy_balance_holds() {
        // In steady state, all injected power leaves through the sink:
        // Σ g_sink (T − T_amb) = Σ P.
        let cfg = ThermalConfig::default();
        let mut grid = ThermalGrid::new(20, 20, cfg).unwrap();
        grid.add_power(5, 5, 0.01).unwrap();
        grid.add_power(14, 9, 0.03).unwrap();
        let field = grid.solve();
        let sunk: f64 = field
            .as_slice()
            .iter()
            .map(|t| cfg.sink_conductance_w_per_k * (t - cfg.ambient_k))
            .sum();
        assert!((sunk - 0.04).abs() / 0.04 < 1e-9, "sunk {sunk} W");
    }

    #[test]
    fn twenty_milliwatt_heater_produces_double_digit_delta() {
        // Sanity-anchor the default conductances: a ~20 mW trojan heater
        // should push its ring past the ~15 K one-channel resonance slide.
        let field = solve_point_source(32, 0.02);
        let peak = field.max_delta();
        assert!((10.0..80.0).contains(&peak), "peak ΔT {peak} K");
    }

    #[test]
    fn mean_delta_in_region_brackets_extremes() {
        let field = solve_point_source(24, 0.02);
        let region = Rect {
            x: 8,
            y: 8,
            width: 8,
            height: 8,
        };
        let mean = field.mean_delta_in(region).unwrap();
        assert!(mean > 0.0 && mean <= field.max_delta());
    }
}
