//! Error type for the thermal simulator.

use std::error::Error;
use std::fmt;

/// Errors produced by thermal grid construction, power placement and
/// field queries.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ThermalError {
    /// A grid dimension was zero.
    EmptyGrid,
    /// A cell coordinate was outside the grid.
    CellOutOfBounds {
        /// Offending x coordinate.
        x: usize,
        /// Offending y coordinate.
        y: usize,
        /// Grid width.
        width: usize,
        /// Grid height.
        height: usize,
    },
    /// A configuration or power value was non-finite or out of its physical
    /// range.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Rejected value.
        value: f64,
    },
    /// A floorplan rectangle does not fit in the grid.
    RegionOutOfBounds {
        /// Index of the offending bank or region.
        index: usize,
    },
}

impl fmt::Display for ThermalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptyGrid => write!(f, "thermal grid dimensions must be non-zero"),
            Self::CellOutOfBounds {
                x,
                y,
                width,
                height,
            } => {
                write!(f, "cell ({x}, {y}) out of bounds for {width}x{height} grid")
            }
            Self::InvalidParameter { name, value } => {
                write!(f, "invalid value {value} for parameter `{name}`")
            }
            Self::RegionOutOfBounds { index } => {
                write!(f, "floorplan region {index} does not fit in the grid")
            }
        }
    }
}

impl Error for ThermalError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ThermalError>();
    }

    #[test]
    fn display_mentions_coordinates() {
        let e = ThermalError::CellOutOfBounds {
            x: 3,
            y: 9,
            width: 2,
            height: 2,
        };
        assert!(e.to_string().contains("(3, 9)"));
    }
}
