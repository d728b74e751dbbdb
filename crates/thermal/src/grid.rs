//! Thermal grid construction and power placement.

use crate::floorplan::Rect;
use crate::solver::{solve_steady_state, TemperatureField};
use crate::ThermalError;

/// Physical parameters of the thermal solve.
///
/// The defaults are tuned for a photonic-accelerator floorplan discretized
/// at one cell per microring: the lateral-to-sink conductance ratio gives a
/// hotspot decay length of about five cells, so a compromised heater heats
/// its own bank strongly and spills measurably into adjacent banks, matching
/// the behaviour of the paper's HotSpot-generated Fig. 6.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ThermalConfig {
    /// Ambient (heat-sink) temperature in kelvin.
    pub ambient_k: f64,
    /// Lateral conductance between adjacent cells, in W/K.
    pub lateral_conductance_w_per_k: f64,
    /// Vertical conductance from each cell to the sink, in W/K.
    pub sink_conductance_w_per_k: f64,
}

impl Default for ThermalConfig {
    fn default() -> Self {
        Self {
            ambient_k: 300.0,
            lateral_conductance_w_per_k: 6.0e-4,
            sink_conductance_w_per_k: 2.4e-5,
        }
    }
}

impl ThermalConfig {
    /// The characteristic lateral decay length of a point hotspot, in cells:
    /// `sqrt(g_lat / g_sink)`.
    #[must_use]
    pub fn decay_length_cells(&self) -> f64 {
        (self.lateral_conductance_w_per_k / self.sink_conductance_w_per_k).sqrt()
    }

    pub(crate) fn validate(&self) -> Result<(), ThermalError> {
        let checks = [
            ("ambient_k", self.ambient_k, self.ambient_k > 0.0),
            (
                "lateral_conductance_w_per_k",
                self.lateral_conductance_w_per_k,
                self.lateral_conductance_w_per_k > 0.0,
            ),
            (
                "sink_conductance_w_per_k",
                self.sink_conductance_w_per_k,
                self.sink_conductance_w_per_k > 0.0,
            ),
        ];
        for (name, value, ok) in checks {
            if !value.is_finite() || !ok {
                return Err(ThermalError::InvalidParameter { name, value });
            }
        }
        Ok(())
    }
}

/// A rectangular thermal grid with per-cell heat sources.
///
/// Build one per chip block, place heater powers (nominal tuning power plus
/// any trojan-forced excess), then [`solve`](Self::solve) for the
/// steady-state [`TemperatureField`].
///
/// # Example
///
/// ```
/// use safelight_thermal::{ThermalConfig, ThermalGrid};
///
/// # fn main() -> Result<(), safelight_thermal::ThermalError> {
/// let mut grid = ThermalGrid::new(16, 8, ThermalConfig::default())?;
/// grid.add_power(4, 4, 0.01)?;
/// let field = grid.solve();
/// assert!(field.max_delta() > 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalGrid {
    width: usize,
    height: usize,
    power_w: Vec<f64>,
    config: ThermalConfig,
}

impl ThermalGrid {
    /// Creates a `width × height` grid with no heat sources.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::EmptyGrid`] for zero dimensions and
    /// [`ThermalError::InvalidParameter`] for an unphysical configuration.
    pub fn new(width: usize, height: usize, config: ThermalConfig) -> Result<Self, ThermalError> {
        if width == 0 || height == 0 {
            return Err(ThermalError::EmptyGrid);
        }
        config.validate()?;
        Ok(Self {
            width,
            height,
            power_w: vec![0.0; width * height],
            config,
        })
    }

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

    /// The solver configuration.
    #[must_use]
    pub fn config(&self) -> &ThermalConfig {
        &self.config
    }

    /// Adds `watts` of dissipation to cell `(x, y)`.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::CellOutOfBounds`] for coordinates outside the
    /// grid and [`ThermalError::InvalidParameter`] for negative or
    /// non-finite powers.
    pub fn add_power(&mut self, x: usize, y: usize, watts: f64) -> Result<(), ThermalError> {
        if x >= self.width || y >= self.height {
            return Err(ThermalError::CellOutOfBounds {
                x,
                y,
                width: self.width,
                height: self.height,
            });
        }
        if !watts.is_finite() || watts < 0.0 {
            return Err(ThermalError::InvalidParameter {
                name: "watts",
                value: watts,
            });
        }
        self.power_w[y * self.width + x] += watts;
        Ok(())
    }

    /// Spreads `total_watts` uniformly over the cells of `rect`.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::RegionOutOfBounds`] when the rectangle does
    /// not fit the grid, and [`ThermalError::InvalidParameter`] for negative
    /// or non-finite powers.
    pub fn add_power_region(&mut self, rect: Rect, total_watts: f64) -> Result<(), ThermalError> {
        if !total_watts.is_finite() || total_watts < 0.0 {
            return Err(ThermalError::InvalidParameter {
                name: "total_watts",
                value: total_watts,
            });
        }
        if rect.x + rect.width > self.width || rect.y + rect.height > self.height {
            return Err(ThermalError::RegionOutOfBounds { index: 0 });
        }
        let cells = (rect.width * rect.height) as f64;
        if cells == 0.0 {
            return Ok(());
        }
        let per_cell = total_watts / cells;
        for y in rect.y..rect.y + rect.height {
            for x in rect.x..rect.x + rect.width {
                self.power_w[y * self.width + x] += per_cell;
            }
        }
        Ok(())
    }

    /// Power at cell `(x, y)` in watts.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::CellOutOfBounds`] for coordinates outside the
    /// grid.
    pub fn power_at(&self, x: usize, y: usize) -> Result<f64, ThermalError> {
        if x >= self.width || y >= self.height {
            return Err(ThermalError::CellOutOfBounds {
                x,
                y,
                width: self.width,
                height: self.height,
            });
        }
        Ok(self.power_w[y * self.width + x])
    }

    /// Solves for the steady-state temperature field.
    ///
    /// The solve is direct (see the crate docs), so it cannot fail: every
    /// input was validated when the grid and its powers were set.
    #[must_use]
    pub fn solve(&self) -> TemperatureField {
        solve_steady_state(self.width, self.height, &self.power_w, &self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_sized_grid_is_rejected() {
        assert_eq!(
            ThermalGrid::new(0, 4, ThermalConfig::default()).unwrap_err(),
            ThermalError::EmptyGrid
        );
    }

    #[test]
    fn bad_config_is_rejected() {
        let cfg = ThermalConfig {
            sink_conductance_w_per_k: 0.0,
            ..ThermalConfig::default()
        };
        assert!(matches!(
            ThermalGrid::new(4, 4, cfg),
            Err(ThermalError::InvalidParameter {
                name: "sink_conductance_w_per_k",
                ..
            })
        ));
    }

    #[test]
    fn power_accumulates_per_cell() {
        let mut g = ThermalGrid::new(4, 4, ThermalConfig::default()).unwrap();
        g.add_power(1, 2, 0.5).unwrap();
        g.add_power(1, 2, 0.25).unwrap();
        assert!((g.power_at(1, 2).unwrap() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn region_power_is_spread_uniformly() {
        let mut g = ThermalGrid::new(8, 8, ThermalConfig::default()).unwrap();
        g.add_power_region(
            Rect {
                x: 2,
                y: 2,
                width: 2,
                height: 2,
            },
            1.0,
        )
        .unwrap();
        assert!((g.power_at(2, 2).unwrap() - 0.25).abs() < 1e-12);
        assert!((g.power_at(3, 3).unwrap() - 0.25).abs() < 1e-12);
        assert_eq!(g.power_at(4, 4).unwrap(), 0.0);
    }

    #[test]
    fn out_of_bounds_power_is_rejected() {
        let mut g = ThermalGrid::new(4, 4, ThermalConfig::default()).unwrap();
        assert!(g.add_power(4, 0, 0.1).is_err());
        assert!(g
            .add_power_region(
                Rect {
                    x: 3,
                    y: 3,
                    width: 2,
                    height: 1
                },
                0.1
            )
            .is_err());
    }

    #[test]
    fn negative_power_is_rejected() {
        let mut g = ThermalGrid::new(4, 4, ThermalConfig::default()).unwrap();
        assert!(g.add_power(0, 0, -1.0).is_err());
    }

    #[test]
    fn decay_length_matches_formula() {
        let cfg = ThermalConfig::default();
        let expected = (cfg.lateral_conductance_w_per_k / cfg.sink_conductance_w_per_k).sqrt();
        assert!((cfg.decay_length_cells() - expected).abs() < 1e-12);
        assert!((3.0..8.0).contains(&expected), "decay length {expected}");
    }
}
