//! Thermal hotspot attacks: HTs overdrive the thermo-optic heaters of
//! whole microring banks (paper §III.B.2, Figs. 5–6).

use safelight_neuro::SimRng;
use safelight_onn::{AcceleratorConfig, BlockKind, BlockLayout, ConditionMap};
use safelight_thermal::{TemperatureField, ThermalConfig};

use crate::attack::{select_banks, AttackTarget, Granularity, Injector, Selection, Sites};
use crate::SafelightError;

/// Tuning knobs for hotspot attack injection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HotspotOptions {
    /// Mean temperature rise the compromised heaters drive the attacked
    /// banks to, in kelvin. `None` (the default) targets the *one-channel*
    /// resonance slide of the paper's Fig. 5 (≈14.6 K for the default
    /// devices): every ring in the heated core then responds to its
    /// neighbour's carrier, so the bank computes with a shifted weight
    /// vector; cooler bank edges and spill-over zones shift partially and
    /// lose their weights instead.
    pub target_delta_kelvin: Option<f64>,
    /// Rings *inside attacked banks* (whose tuning loops the trojan
    /// controls) receive a `Heated` condition when their rise exceeds this
    /// threshold. The default (3 K) is a little over one Lorentzian
    /// half-width of drift for the default devices.
    pub threshold_kelvin: f64,
    /// Rings *outside* the attacked banks keep a working closed-loop tuning
    /// circuit, which the paper notes "is usually designed to manage minor
    /// temperature fluctuations". Spill-over heat up to this range is
    /// compensated; only the residual beyond it shifts the resonance. The
    /// default (7 K) corresponds to the EO trim range of the default
    /// devices — close neighbours of an attacked bank still get corrupted
    /// (the Fig. 6 spill), distant banks survive.
    pub neighbour_compensation_kelvin: f64,
    /// Thermal solver configuration. The default lowers the vertical sink
    /// conductance relative to the general-purpose thermal default so the
    /// lateral decay length spans a bank: trojan-overdriven banks heat
    /// near-uniformly (the Fig. 5 condition) while neighbours get graded
    /// spill-over.
    pub thermal: ThermalConfig,
}

impl Default for HotspotOptions {
    fn default() -> Self {
        let thermal = ThermalConfig {
            sink_conductance_w_per_k: 6.0e-6,
            ..ThermalConfig::default()
        };
        Self {
            target_delta_kelvin: None,
            threshold_kelvin: 3.0,
            neighbour_compensation_kelvin: 7.0,
            thermal,
        }
    }
}

/// Thermal-grid resolution per block: FC banks are large, so they use
/// coarser cells to keep the solve cheap.
fn cell_size_for(config: &AcceleratorConfig, kind: BlockKind) -> usize {
    (config.block(kind).bank_cols / 16).max(1)
}

/// Solves the field produced by overdriving every heater of `banks`,
/// returning the field plus the scale factor that brings the attacked
/// banks' *mean* rise to `target_delta` kelvin.
///
/// The steady-state operator is linear, so one solve with 1 W on every
/// attacked bank, scaled once, reaches the target — no iteration needed.
fn solve_attack_field(
    layout: &BlockLayout,
    banks: &[usize],
    options: &HotspotOptions,
    target_delta: f64,
) -> Result<(TemperatureField, f64), SafelightError> {
    let rects = banks
        .iter()
        .map(|&bank| {
            layout
                .floorplan()
                .bank(bank)
                .map(|placement| placement.rect)
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(safelight_onn::OnnError::from)?;
    let mut grid = layout.thermal_grid(options.thermal)?;
    for &rect in &rects {
        grid.add_power_region(rect, 1.0)?;
    }
    let field = {
        let _span = safelight_obs::profile_span("thermal_solve");
        grid.solve()
    };
    let mut mean = 0.0;
    for &rect in &rects {
        mean += field.mean_delta_in(rect)?;
    }
    mean /= rects.len() as f64;
    Ok((field, target_delta / mean.max(1e-9)))
}

/// Injects a hotspot attack: picks enough random banks to cover
/// `fraction` of each targeted block's rings, drives their heaters, solves
/// the block's temperature field and heats every ring (attacked *and*
/// spill-over) above the threshold.
///
/// # Errors
///
/// Returns [`SafelightError::InvalidParameter`] for a fraction outside
/// `(0, 1]` and propagates block-layout and thermal-grid errors.
///
/// # Example
///
/// ```
/// use safelight::attack::{inject_hotspot, AttackTarget, HotspotOptions};
/// use safelight_neuro::SimRng;
/// use safelight_onn::{AcceleratorConfig, BlockKind};
///
/// # fn main() -> Result<(), safelight::SafelightError> {
/// let config = AcceleratorConfig::scaled_experiment()?;
/// let mut rng = SimRng::seed_from(2);
/// let map = inject_hotspot(
///     &config, AttackTarget::ConvBlock, 0.05, &HotspotOptions::default(), &mut rng,
/// )?;
/// // Bank-granular heating touches at least the attacked banks' rings.
/// assert!(map.faulty_count(BlockKind::Conv) >= config.conv.mrs_per_bank());
/// # Ok(())
/// # }
/// ```
pub fn inject_hotspot(
    config: &AcceleratorConfig,
    target: AttackTarget,
    fraction: f64,
    options: &HotspotOptions,
    rng: &mut SimRng,
) -> Result<ConditionMap, SafelightError> {
    let injector = HotspotInjector { options: *options };
    let mut conditions = ConditionMap::new();
    for kind in target.blocks() {
        let banks = select_banks(config, kind, fraction, Selection::Uniform, None, rng)?;
        injector.apply(config, kind, &Sites::Banks(banks), &mut conditions)?;
    }
    Ok(conditions)
}

/// The hotspot-attack injector: overdrives the heaters of the selected
/// banks, solves the block's temperature field and heats every ring
/// (attacked *and* spill-over) above the threshold.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HotspotInjector {
    /// Thermal tuning knobs.
    pub options: HotspotOptions,
}

impl Injector for HotspotInjector {
    fn granularity(&self) -> Granularity {
        Granularity::Bank
    }

    fn apply(
        &self,
        config: &AcceleratorConfig,
        kind: BlockKind,
        sites: &Sites,
        conditions: &mut ConditionMap,
    ) -> Result<(), SafelightError> {
        let Sites::Banks(banks) = sites else {
            return Err(SafelightError::InvalidParameter {
                name: "sites (hotspot attacks are bank-granular)",
                value: 0.0,
            });
        };
        if banks.is_empty() {
            return Err(SafelightError::InvalidParameter {
                name: "sites (no banks to heat)",
                value: 0.0,
            });
        }
        let options = &self.options;
        let target_delta = options
            .target_delta_kelvin
            .unwrap_or_else(|| config.one_channel_delta_kelvin());
        if target_delta <= 0.0 {
            return Err(SafelightError::InvalidParameter {
                name: "target_delta_kelvin",
                value: target_delta,
            });
        }
        let shape = *config.block(kind);
        let layout = BlockLayout::new(shape, kind, cell_size_for(config, kind))?;
        let (field, scale) = solve_attack_field(&layout, banks, options, target_delta)?;
        // The trojan controls the tuning loops of the attacked banks, so
        // their rings take the full rise; every other ring's intact closed
        // loop compensates up to its range, leaving only the residual.
        let per_bank = shape.mrs_per_bank() as u64;
        for mr in 0..shape.total_mrs() {
            let (x, y) = layout.cell_of_mr(mr)?;
            let dt = field.delta_at(x, y)? * scale;
            let bank = (mr / per_bank) as usize;
            if banks.contains(&bank) {
                if dt > options.threshold_kelvin {
                    conditions.add_heat(kind, mr, dt);
                }
            } else {
                let residual = dt - options.neighbour_compensation_kelvin;
                if residual > options.threshold_kelvin {
                    conditions.add_heat(kind, mr, residual);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::select::bank_count;
    use safelight_onn::MrCondition;

    fn config() -> AcceleratorConfig {
        AcceleratorConfig::scaled_experiment().unwrap()
    }

    #[test]
    fn bank_count_tracks_fraction() {
        let cfg = config();
        // CONV: 25 banks of 100 rings = 2 500; 10 % → 250 rings ≈ 2.5 banks.
        let n = bank_count(&cfg, BlockKind::Conv, 0.10);
        assert!((2..=3).contains(&n), "banks {n}");
        assert_eq!(bank_count(&cfg, BlockKind::Conv, 1e-9), 1);
    }

    #[test]
    fn attacked_banks_reach_target_temperature() {
        let cfg = config();
        let mut rng = SimRng::seed_from(11);
        let opts = HotspotOptions::default();
        let target = cfg.one_channel_delta_kelvin();
        let map = inject_hotspot(&cfg, AttackTarget::ConvBlock, 0.05, &opts, &mut rng).unwrap();
        // The hottest rings should be near the (one-channel) target ΔT.
        let max_dt = map
            .iter(BlockKind::Conv)
            .filter_map(|(_, c)| match c {
                MrCondition::Heated { delta_kelvin } => Some(delta_kelvin),
                _ => None,
            })
            .fold(0.0f64, f64::max);
        assert!(
            (target * 0.5..target * 3.0).contains(&max_dt),
            "peak ΔT {max_dt} vs one-channel {target}"
        );
    }

    #[test]
    fn hotspots_spill_beyond_attacked_banks() {
        let cfg = config();
        let mut rng = SimRng::seed_from(12);
        let opts = HotspotOptions::default();
        let map = inject_hotspot(&cfg, AttackTarget::ConvBlock, 0.10, &opts, &mut rng).unwrap();
        let attacked_bank_rings = bank_count(&cfg, BlockKind::Conv, 0.10) * cfg.conv.mrs_per_bank();
        assert!(
            map.faulty_count(BlockKind::Conv) > attacked_bank_rings,
            "no spill-over: {} ≤ {attacked_bank_rings}",
            map.faulty_count(BlockKind::Conv)
        );
    }

    #[test]
    fn conditions_are_heated_not_parked() {
        let cfg = config();
        let mut rng = SimRng::seed_from(13);
        let map = inject_hotspot(
            &cfg,
            AttackTarget::FcBlock,
            0.05,
            &HotspotOptions::default(),
            &mut rng,
        )
        .unwrap();
        for (_, cond) in map.iter(BlockKind::Fc) {
            assert!(matches!(cond, MrCondition::Heated { .. }));
        }
    }

    #[test]
    fn invalid_options_are_rejected() {
        let cfg = config();
        let mut rng = SimRng::seed_from(14);
        let bad = HotspotOptions {
            target_delta_kelvin: Some(0.0),
            ..HotspotOptions::default()
        };
        assert!(inject_hotspot(&cfg, AttackTarget::ConvBlock, 0.05, &bad, &mut rng).is_err());
        assert!(inject_hotspot(
            &cfg,
            AttackTarget::ConvBlock,
            0.0,
            &HotspotOptions::default(),
            &mut rng
        )
        .is_err());
        // An empty bank list has nothing to heat and no field to scale.
        assert!(HotspotInjector::default()
            .apply(
                &cfg,
                BlockKind::Conv,
                &Sites::Banks(Vec::new()),
                &mut ConditionMap::new()
            )
            .is_err());
    }
}
