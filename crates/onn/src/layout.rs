//! Physical placement of a block's VDP banks on a thermal grid.

use safelight_thermal::{Floorplan, ThermalConfig, ThermalGrid};

use crate::config::{BlockConfig, BlockKind};
use crate::OnnError;

/// Maps a block's microrings onto a [`safelight_thermal`] floorplan so
/// hotspot attacks can heat banks and read back per-ring temperature rises.
///
/// `cell_size_mrs` controls thermal resolution: each thermal cell covers a
/// `cell_size_mrs × cell_size_mrs` patch of microrings. The paper's CONV
/// banks (20×20) resolve well at 1–2 MRs per cell; the FC block's 150×150
/// banks use coarser cells to keep the solve cheap.
///
/// # Example
///
/// ```
/// use safelight_onn::{AcceleratorConfig, BlockKind, BlockLayout};
///
/// # fn main() -> Result<(), safelight_onn::OnnError> {
/// let config = AcceleratorConfig::scaled_experiment()?;
/// let layout = BlockLayout::new(*config.block(BlockKind::Conv), BlockKind::Conv, 1)?;
/// assert_eq!(layout.bank_count(), 25);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BlockLayout {
    kind: BlockKind,
    shape: BlockConfig,
    cell_size_mrs: usize,
    floorplan: Floorplan,
}

/// Gap (in thermal cells) between adjacent banks and around the border.
const BANK_GAP_CELLS: usize = 2;

impl BlockLayout {
    /// Arranges `shape`'s VDP banks in a near-square grid.
    ///
    /// # Errors
    ///
    /// Returns [`OnnError::InvalidConfig`] when `cell_size_mrs` is zero, and
    /// propagates floorplan construction errors.
    pub fn new(
        shape: BlockConfig,
        kind: BlockKind,
        cell_size_mrs: usize,
    ) -> Result<Self, OnnError> {
        if cell_size_mrs == 0 {
            return Err(OnnError::InvalidConfig {
                name: "cell_size_mrs",
                value: 0.0,
            });
        }
        let grid_cols = (shape.vdp_units as f64).sqrt().ceil() as usize;
        let grid_rows = shape.vdp_units.div_ceil(grid_cols);
        let bank_w = shape.bank_cols.div_ceil(cell_size_mrs);
        let bank_h = shape.bank_rows.div_ceil(cell_size_mrs);
        let floorplan = Floorplan::bank_grid(grid_rows, grid_cols, bank_w, bank_h, BANK_GAP_CELLS)?;
        Ok(Self {
            kind,
            shape,
            cell_size_mrs,
            floorplan,
        })
    }

    /// The block this layout covers.
    #[must_use]
    pub fn kind(&self) -> BlockKind {
        self.kind
    }

    /// Number of banks (VDP units) placed.
    #[must_use]
    pub fn bank_count(&self) -> usize {
        self.shape.vdp_units
    }

    /// The underlying floorplan.
    #[must_use]
    pub fn floorplan(&self) -> &Floorplan {
        &self.floorplan
    }

    /// Creates a thermal grid sized to the floorplan.
    ///
    /// # Errors
    ///
    /// Propagates thermal-grid construction errors.
    pub fn thermal_grid(&self, config: ThermalConfig) -> Result<ThermalGrid, OnnError> {
        Ok(ThermalGrid::new(
            self.floorplan.grid_width(),
            self.floorplan.grid_height(),
            config,
        )?)
    }

    /// Thermal cell of microring `mr_index`.
    ///
    /// # Errors
    ///
    /// Returns [`OnnError::MrOutOfRange`] outside the block.
    pub fn cell_of_mr(&self, mr_index: u64) -> Result<(usize, usize), OnnError> {
        if mr_index >= self.shape.total_mrs() {
            return Err(OnnError::MrOutOfRange {
                index: mr_index,
                capacity: self.shape.total_mrs(),
            });
        }
        let per_bank = self.shape.mrs_per_bank() as u64;
        let vdp = (mr_index / per_bank) as usize;
        let within = (mr_index % per_bank) as usize;
        let row = within / self.shape.bank_cols;
        let col = within % self.shape.bank_cols;
        Ok(self
            .floorplan
            .ring_cell(vdp, row / self.cell_size_mrs, col / self.cell_size_mrs)?)
    }

    /// Flat MR indices of bank `vdp`.
    ///
    /// # Errors
    ///
    /// Returns [`OnnError::MrOutOfRange`] for an unknown bank.
    pub fn mrs_in_bank(&self, vdp: usize) -> Result<std::ops::Range<u64>, OnnError> {
        if vdp >= self.shape.vdp_units {
            return Err(OnnError::MrOutOfRange {
                index: vdp as u64,
                capacity: self.shape.vdp_units as u64,
            });
        }
        let per_bank = self.shape.mrs_per_bank() as u64;
        Ok(vdp as u64 * per_bank..(vdp as u64 + 1) * per_bank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::ConditionMap;
    use safelight_thermal::Rect;

    fn layout() -> BlockLayout {
        BlockLayout::new(
            BlockConfig {
                vdp_units: 6,
                bank_rows: 8,
                bank_cols: 8,
            },
            BlockKind::Conv,
            2,
        )
        .unwrap()
    }

    #[test]
    fn banks_form_a_near_square_grid() {
        let l = layout();
        // 6 banks → 3 columns × 2 rows.
        assert_eq!(l.floorplan().cols(), 3);
        assert_eq!(l.floorplan().rows(), 2);
        assert_eq!(l.bank_count(), 6);
    }

    #[test]
    fn cell_of_mr_lands_inside_its_bank() {
        let l = layout();
        for vdp in 0..6 {
            let rect = l.floorplan().bank(vdp).unwrap().rect;
            for mr in l.mrs_in_bank(vdp).unwrap() {
                let (x, y) = l.cell_of_mr(mr).unwrap();
                assert!(
                    rect.contains(x, y),
                    "MR {mr} at ({x},{y}) outside bank {vdp}"
                );
            }
        }
    }

    #[test]
    fn cell_size_divides_bank_resolution() {
        let l = layout();
        // 8×8 MRs at 2 MRs/cell → 4×4 cells per bank.
        let rect: Rect = l.floorplan().bank(0).unwrap().rect;
        assert_eq!(rect.width, 4);
        assert_eq!(rect.height, 4);
    }

    #[test]
    fn out_of_range_queries_error() {
        let l = layout();
        assert!(l.cell_of_mr(6 * 64).is_err());
        assert!(l.mrs_in_bank(6).is_err());
    }

    #[test]
    fn heated_bank_heats_its_rings_and_spills_to_neighbours() {
        let l = layout();
        let mut grid = l.thermal_grid(ThermalConfig::default()).unwrap();
        let target = l.floorplan().bank(0).unwrap().rect;
        grid.add_power_region(target, 0.08).unwrap();
        let field = grid.solve();
        let mut conditions = ConditionMap::new();
        for mr in (0..l.bank_count()).flat_map(|b| l.mrs_in_bank(b).unwrap()) {
            let (x, y) = l.cell_of_mr(mr).unwrap();
            let dt = field.delta_at(x, y).unwrap();
            if dt > 0.5 {
                conditions.add_heat(BlockKind::Conv, mr, dt);
            }
        }
        // Every ring of the attacked bank is heated.
        for mr in l.mrs_in_bank(0).unwrap() {
            assert!(
                conditions.condition(BlockKind::Conv, mr).is_faulty(),
                "ring {mr} of attacked bank not heated"
            );
        }
        // And some rings outside the attacked bank caught spill-over.
        let spill = conditions.faulty_count(BlockKind::Conv) as u64
            - l.mrs_in_bank(0).unwrap().count() as u64;
        assert!(spill > 0, "no spill-over into neighbouring banks");
    }
}
