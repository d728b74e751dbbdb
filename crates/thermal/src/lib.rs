//! A HotSpot-style steady-state thermal simulator for photonic chip
//! floorplans.
//!
//! The SafeLight paper uses the HotSpot tool to produce the Fig. 6 heatmap
//! of a CONV microring-bank array under hotspot attacks. This crate is the
//! Rust stand-in: a 2-D finite-difference steady-state heat solver with a
//! lumped vertical heat-sink path, driven by per-cell heater powers placed
//! through a [`Floorplan`] of microring banks.
//!
//! The governing balance per cell is
//!
//! ```text
//! Σ_neighbours g_lat·(T_nb − T)  +  g_sink·(T_amb − T)  +  P_cell  =  0
//! ```
//!
//! which is the standard HotSpot RC-network steady state. The ratio
//! `g_lat/g_sink` sets the lateral spreading length of a hotspot — the
//! physical mechanism by which an attacked heater corrupts not only its own
//! microring bank but also neighbouring banks (paper §III.B.2).
//!
//! The grid edges are adiabatic, so the lateral operator is the Kronecker
//! sum of two path-graph Laplacians, which the orthonormal DCT-II
//! diagonalizes exactly. [`ThermalGrid::solve`] therefore solves directly:
//! one forward transform of the power map, a per-mode division by
//! `g_lat(λₓ + λᵧ) + g_sink`, one inverse transform. There is no iteration,
//! tolerance or convergence failure; the field is exact up to rounding and
//! linear in the placed powers, so a multi-source layout is one solve.
//!
//! # Example
//!
//! ```
//! use safelight_thermal::{ThermalConfig, ThermalGrid};
//!
//! # fn main() -> Result<(), safelight_thermal::ThermalError> {
//! let mut grid = ThermalGrid::new(32, 32, ThermalConfig::default())?;
//! grid.add_power(16, 16, 0.02)?; // a 20 mW trojan-driven heater
//! let field = grid.solve();
//! // The hotspot peaks at the heater and decays with distance.
//! assert!(field.delta_at(16, 16)? > field.delta_at(24, 16)?);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod floorplan;
mod grid;
mod heatmap;
mod solver;

pub use error::ThermalError;
pub use floorplan::{BankPlacement, Floorplan, Rect};
pub use grid::{ThermalConfig, ThermalGrid};
pub use heatmap::Heatmap;
pub use solver::TemperatureField;
