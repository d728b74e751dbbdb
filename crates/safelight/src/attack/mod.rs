//! The composable hardware-trojan attack engine (paper §III, extended).
//!
//! The paper models exactly two trojan vectors; this module generalizes
//! them into a pluggable scenario engine:
//!
//! * a [`ScenarioSpec`] describes *what* is injected — one or more
//!   [`VectorSpec`] vectors (stacked into a single [`ConditionMap`]), a
//!   [`Selection`] strategy for *where* the trojans sit, the targeted
//!   block(s), the attack fraction and the trial index;
//! * every vector is implemented behind the [`Injector`] trait, so new
//!   vectors plug in without touching the sweep pipelines.
//!
//! Built-in vectors:
//!
//! * **Actuation** ([`inject_actuation`]) — HTs in the electro-optic
//!   signal-modulation circuits park individual microrings off-resonance
//!   (paper §III.B.1, Fig. 4).
//! * **Hotspot** ([`inject_hotspot`]) — HTs drive whole banks' thermo-optic
//!   heaters; a finite-difference thermal solve produces the temperature
//!   field, heating the attacked banks *and* their neighbours (paper
//!   §III.B.2, Figs. 5–6).
//! * **Laser power degradation** ([`inject_laser_degradation`]) — a trojan
//!   taps or throttles the optical power feeding the compromised rings'
//!   WDM channels, scaling their effective weights toward zero.
//! * **Partial trim drift** ([`inject_trim_drift`]) — the trojan pins the
//!   compromised rings' trim DACs a parameterized offset away from
//!   calibration: a graded detuning between `Healthy` and the binary
//!   `Parked` extreme.
//!
//! All of them produce a [`ConditionMap`] consumed by
//! [`safelight_onn::corrupt_network`].

mod actuation;
mod hotspot;
mod laser;
mod select;
mod trim;

pub use actuation::{inject_actuation, ActuationInjector};
pub use hotspot::{inject_hotspot, HotspotInjector, HotspotOptions};
pub use laser::{degradation_factor, inject_laser_degradation, LaserDegradationInjector};
pub use select::{select_banks, select_rings, RingSalience};
pub use trim::{inject_trim_drift, TrimDriftInjector};

use safelight_neuro::SimRng;
use safelight_onn::{AcceleratorConfig, BlockKind, ConditionMap};

use crate::SafelightError;

/// One attack vector with its physical parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VectorSpec {
    /// EO-modulation actuation attack parking individual microrings.
    Actuation,
    /// Thermo-optic hotspot attack on whole banks of microrings.
    Hotspot,
    /// Laser power-degradation attack throttling per-channel optical power.
    LaserDegradation {
        /// Parasitic insertion loss of the trojan tap, in dB (> 0).
        loss_db: f64,
    },
    /// Partial trim-drift attack pinning trim DACs off their set point.
    TrimDrift {
        /// Drift as a fraction of the WDM channel spacing (> 0).
        detune_rel: f64,
    },
}

impl VectorSpec {
    /// The default laser-degradation vector: a 3 dB tap (half the channel
    /// power survives).
    #[must_use]
    pub fn laser_default() -> Self {
        Self::LaserDegradation { loss_db: 3.0 }
    }

    /// The default trim-drift vector: 40 % of a channel spacing — enough to
    /// badly corrupt a weight without handing it to the neighbour channel.
    #[must_use]
    pub fn trim_default() -> Self {
        Self::TrimDrift { detune_rel: 0.4 }
    }

    /// The paper's two vectors, in presentation order.
    #[must_use]
    pub fn paper_pair() -> [Self; 2] {
        [Self::Actuation, Self::Hotspot]
    }

    /// Compact label used in spec strings and CSV columns.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            Self::Actuation => "actuation".into(),
            Self::Hotspot => "hotspot".into(),
            Self::LaserDegradation { loss_db } => format!("laser:{loss_db}"),
            Self::TrimDrift { detune_rel } => format!("trim:{detune_rel}"),
        }
    }

    /// The injector implementing this vector (with default options).
    #[must_use]
    pub fn injector(&self) -> Box<dyn Injector> {
        match *self {
            Self::Actuation => Box::new(ActuationInjector),
            Self::Hotspot => Box::new(HotspotInjector::default()),
            Self::LaserDegradation { loss_db } => Box::new(LaserDegradationInjector { loss_db }),
            Self::TrimDrift { detune_rel } => Box::new(TrimDriftInjector { detune_rel }),
        }
    }

    /// Words folded into the per-scenario RNG stream key: a vector tag plus
    /// the full bit patterns of its parameters, so nearby parameter values
    /// never alias onto one stream.
    fn stream_words(&self) -> [u64; 2] {
        match *self {
            Self::Actuation => [0x00AC, 0],
            Self::Hotspot => [0x0107, 0],
            Self::LaserDegradation { loss_db } => [0x1A5E, loss_db.to_bits()],
            Self::TrimDrift { detune_rel } => [0x7815, detune_rel.to_bits()],
        }
    }
}

impl std::fmt::Display for VectorSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(&self.label())
    }
}

impl std::str::FromStr for VectorSpec {
    type Err = SafelightError;

    /// Parses a vector label. A `laser:`/`trim:` parameter must be a
    /// finite number above zero; the parameterless vectors take none.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (head, param) = match s.split_once(':') {
            Some((head, param)) => (head, Some(param)),
            None => (s, None),
        };
        let positive = |name: &str, param: &str| -> Result<f64, SafelightError> {
            let value = param
                .parse::<f64>()
                .map_err(|e| SafelightError::Parse(format!("`{s}`: {name}: {e}")))?;
            if value.is_finite() && value > 0.0 {
                Ok(value)
            } else {
                Err(SafelightError::Parse(format!(
                    "`{s}`: {name} must be finite and > 0"
                )))
            }
        };
        match (head, param) {
            ("actuation", None) => Ok(Self::Actuation),
            ("hotspot", None) => Ok(Self::Hotspot),
            ("laser", None) => Ok(Self::laser_default()),
            ("laser", Some(p)) => Ok(Self::LaserDegradation {
                loss_db: positive("loss_db", p)?,
            }),
            ("trim", None) => Ok(Self::trim_default()),
            ("trim", Some(p)) => Ok(Self::TrimDrift {
                detune_rel: positive("detune_rel", p)?,
            }),
            ("actuation" | "hotspot", Some(_)) => Err(SafelightError::Parse(format!(
                "`{s}`: `{head}` takes no parameter"
            ))),
            (other, _) => Err(SafelightError::Parse(format!(
                "unknown attack vector `{other}`"
            ))),
        }
    }
}

/// How attack sites are chosen within the targeted block(s).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Selection {
    /// Uniformly random sites (the paper's §IV placement).
    Uniform,
    /// One contiguous run of sites starting at a random position — a
    /// foundry-stage trojan dropped into one region of the die.
    Clustered,
    /// The sites carrying the largest |weights| — the worst-case,
    /// netlist-aware adversary. Needs a [`RingSalience`].
    Targeted,
}

impl Selection {
    /// All strategies, in severity order.
    #[must_use]
    pub fn all() -> [Self; 3] {
        [Self::Uniform, Self::Clustered, Self::Targeted]
    }

    /// Compact label used in spec strings and CSV columns.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Self::Uniform => "uniform",
            Self::Clustered => "clustered",
            Self::Targeted => "targeted",
        }
    }

    fn stream_word(self) -> u64 {
        match self {
            Self::Uniform => 0x51,
            Self::Clustered => 0x52,
            Self::Targeted => 0x53,
        }
    }
}

impl std::fmt::Display for Selection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(self.label())
    }
}

impl std::str::FromStr for Selection {
    type Err = SafelightError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "uniform" => Ok(Self::Uniform),
            "clustered" => Ok(Self::Clustered),
            "targeted" => Ok(Self::Targeted),
            other => Err(SafelightError::Parse(format!(
                "unknown selection strategy `{other}`"
            ))),
        }
    }
}

/// Which accelerator block(s) the trojans inhabit (§IV's three cases).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackTarget {
    /// Only the CONV block.
    ConvBlock,
    /// Only the FC block.
    FcBlock,
    /// Both blocks (the paper's "CONV + FC" case).
    Both,
}

impl AttackTarget {
    /// The blocks this target covers.
    #[must_use]
    pub fn blocks(&self) -> Vec<BlockKind> {
        match self {
            Self::ConvBlock => vec![BlockKind::Conv],
            Self::FcBlock => vec![BlockKind::Fc],
            Self::Both => vec![BlockKind::Conv, BlockKind::Fc],
        }
    }

    /// Word folded into RNG stream keys (also by the benign-fault specs in
    /// [`crate::fault`], which share the attack engine's derivation
    /// discipline).
    pub(crate) fn stream_word(self) -> u64 {
        match self {
            Self::ConvBlock => 0x1000,
            Self::FcBlock => 0x2000,
            Self::Both => 0x3000,
        }
    }
}

impl std::fmt::Display for AttackTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ConvBlock => write!(f, "CONV"),
            Self::FcBlock => write!(f, "FC"),
            Self::Both => write!(f, "CONV+FC"),
        }
    }
}

impl std::str::FromStr for AttackTarget {
    type Err = SafelightError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        // The lower-case spec tokens, plus the `Display` spellings the
        // reports print, so every printed target parses back.
        match s {
            "conv" | "CONV" => Ok(Self::ConvBlock),
            "fc" | "FC" => Ok(Self::FcBlock),
            "both" | "CONV+FC" => Ok(Self::Both),
            other => Err(SafelightError::Parse(format!(
                "unknown attack target `{other}` (expected conv|fc|both or CONV|FC|CONV+FC)"
            ))),
        }
    }
}

pub(crate) fn target_token(target: AttackTarget) -> &'static str {
    match target {
        AttackTarget::ConvBlock => "conv",
        AttackTarget::FcBlock => "fc",
        AttackTarget::Both => "both",
    }
}

/// One attack instance: a stack of vectors × site selection × target ×
/// intensity × trial index.
///
/// A spec round-trips through its canonical string form
/// (`vector[+vector…]/selection/target/fraction/trial`), so scenario grids
/// can be stored in configs, CSV columns and CLI flags:
///
/// ```
/// use safelight::attack::ScenarioSpec;
///
/// let spec: ScenarioSpec = "actuation+hotspot/targeted/both/0.05/3".parse().unwrap();
/// assert_eq!(spec.vectors.len(), 2);
/// assert_eq!(spec.to_spec_string().parse::<ScenarioSpec>().unwrap(), spec);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// The vectors stacked into this scenario, applied in order. Where
    /// site draws overlap, conditions merge per [`ConditionMap::stack`]
    /// (pinned resonance states dominate upstream power faults, heat
    /// carries and tap factors compose) and heat per
    /// [`ConditionMap::add_heat`].
    pub vectors: Vec<VectorSpec>,
    /// Site-selection strategy shared by every vector in the stack.
    pub selection: Selection,
    /// Which block(s) are compromised.
    pub target: AttackTarget,
    /// Fraction of the targeted blocks' microrings under attack
    /// (the paper sweeps 0.01, 0.05 and 0.10).
    pub fraction: f64,
    /// Trial index — the paper runs 10 uniformly distributed random
    /// combinations per case; the trial seeds the site sampling.
    pub trial: u64,
}

impl ScenarioSpec {
    /// A single-vector scenario with the paper's uniform site selection.
    #[must_use]
    pub fn new(vector: VectorSpec, target: AttackTarget, fraction: f64, trial: u64) -> Self {
        Self {
            vectors: vec![vector],
            selection: Selection::Uniform,
            target,
            fraction,
            trial,
        }
    }

    /// A stacked multi-vector scenario (vectors applied in order).
    #[must_use]
    pub fn stacked(
        vectors: Vec<VectorSpec>,
        target: AttackTarget,
        fraction: f64,
        trial: u64,
    ) -> Self {
        Self {
            vectors,
            selection: Selection::Uniform,
            target,
            fraction,
            trial,
        }
    }

    /// Replaces the site-selection strategy.
    #[must_use]
    pub fn with_selection(mut self, selection: Selection) -> Self {
        self.selection = selection;
        self
    }

    /// Whether more than one vector is stacked.
    #[must_use]
    pub fn is_stacked(&self) -> bool {
        self.vectors.len() > 1
    }

    /// The stack's compact label, e.g. `actuation+hotspot`.
    #[must_use]
    pub fn vector_label(&self) -> String {
        self.vectors
            .iter()
            .map(VectorSpec::label)
            .collect::<Vec<_>>()
            .join("+")
    }

    /// Whether the stack contains `vector`.
    #[must_use]
    pub fn has_vector(&self, vector: VectorSpec) -> bool {
        self.vectors.contains(&vector)
    }

    /// The canonical serialized form; parse it back with
    /// [`str::parse::<ScenarioSpec>()`](std::str::FromStr).
    #[must_use]
    pub fn to_spec_string(&self) -> String {
        format!(
            "{}/{}/{}/{}/{}",
            self.vector_label(),
            self.selection.label(),
            target_token(self.target),
            self.fraction,
            self.trial
        )
    }

    /// The RNG stream key of vector `index` in this scenario: every field
    /// is avalanche-mixed separately, so neighbouring trials, targets,
    /// fractions and stacked vectors can never alias onto one stream (the
    /// seed's additive tag mixing let `(trial t + 0x1000, Conv)` collide
    /// with `(trial t, Fc)`, and truncated fractions closer than 1e-4).
    fn stream_key(&self, index: usize) -> u64 {
        let mut h = 0x5AFE_11E7_0DD5_EED1_u64;
        h = fold(h, self.trial);
        h = fold(h, self.target.stream_word());
        h = fold(h, self.selection.stream_word());
        h = fold(h, self.fraction.to_bits());
        h = fold(h, index as u64);
        for word in self.vectors[index].stream_words() {
            h = fold(h, word);
        }
        h
    }
}

impl std::fmt::Display for ScenarioSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {}% on {} [{}] (trial {})",
            self.vector_label(),
            self.fraction * 100.0,
            self.target,
            self.selection,
            self.trial
        )
    }
}

impl std::str::FromStr for ScenarioSpec {
    type Err = SafelightError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let parts: Vec<&str> = s.split('/').collect();
        let [vectors, selection, target, fraction, trial] = parts.as_slice() else {
            return Err(SafelightError::Parse(format!(
                "`{s}`: expected vector[+vector…]/selection/target/fraction/trial"
            )));
        };
        // `split('+')` always yields at least one token, and an empty token
        // fails `VectorSpec::from_str`, so the stack is never empty here.
        let vectors = vectors
            .split('+')
            .map(str::parse)
            .collect::<Result<Vec<VectorSpec>, _>>()?;
        let fraction = fraction
            .parse::<f64>()
            .map_err(|e| SafelightError::Parse(format!("`{s}`: fraction: {e}")))?;
        if !(fraction > 0.0 && fraction <= 1.0) {
            return Err(SafelightError::Parse(format!(
                "`{s}`: fraction must lie in (0, 1]"
            )));
        }
        Ok(Self {
            vectors,
            selection: selection.parse()?,
            target: target.parse()?,
            fraction,
            trial: trial
                .parse::<u64>()
                .map_err(|e| SafelightError::Parse(format!("`{s}`: trial: {e}")))?,
        })
    }
}

/// SplitMix64 finalizer: a full-avalanche 64-bit mix.
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Folds one field into a stream key with full avalanche per field — the
/// workspace's shared discipline for deriving independent RNG streams
/// from scenario specs, trial indices and member salts (also used by the
/// serving runtime, so noise streams never alias across subsystems).
#[must_use]
pub fn fold(h: u64, field: u64) -> u64 {
    mix64(h.rotate_left(25) ^ field.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Site granularity of an attack vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Granularity {
    /// The vector compromises individual rings.
    Ring,
    /// The vector compromises whole VDP banks (e.g. shared bank heaters).
    Bank,
}

/// The sites a vector compromises in one block, at its granularity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Sites {
    /// Flat ring indices within the block.
    Rings(Vec<u64>),
    /// Bank (VDP unit) indices within the block.
    Banks(Vec<usize>),
}

/// A pluggable attack-vector injector: turns the selected sites of one
/// block into per-ring fault conditions merged into a [`ConditionMap`].
///
/// Implement this trait (plus a grid of [`ScenarioSpec`]s built around it)
/// to evaluate a new trojan vector through the existing sweep pipelines.
pub trait Injector {
    /// The site granularity this vector attacks at.
    fn granularity(&self) -> Granularity;

    /// Applies the vector to `sites` of `kind`'s block.
    ///
    /// # Errors
    ///
    /// Returns [`SafelightError::InvalidParameter`] for invalid vector
    /// parameters or mismatched site granularity, and propagates physical
    /// model errors (e.g. thermal solves).
    fn apply(
        &self,
        config: &AcceleratorConfig,
        kind: BlockKind,
        sites: &Sites,
        conditions: &mut ConditionMap,
    ) -> Result<(), SafelightError>;
}

/// The result of injecting one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Injection {
    /// Per-ring fault conditions for [`safelight_onn::corrupt_network`].
    pub conditions: ConditionMap,
    /// Fraction of the targeted blocks' rings under *direct trojan
    /// control*. Bank-granular vectors clamp to whole banks, so this is ≥
    /// the nominal fraction (a nominal 1 % hotspot on the scaled CONV block
    /// covers one full bank = 4 % of its rings); spill-over heating is not
    /// counted.
    pub effective_fraction: f64,
}

/// The paper's §IV scenario grid: the two paper vectors × every target ×
/// fraction × trial, with uniform site selection, in deterministic order.
///
/// # Example
///
/// ```
/// use safelight::attack::scenario_grid;
///
/// let grid = scenario_grid(&[0.01, 0.05, 0.10], 10);
/// // 2 vectors × 3 targets × 3 fractions × 10 trials.
/// assert_eq!(grid.len(), 180);
/// ```
#[must_use]
pub fn scenario_grid(fractions: &[f64], trials: u64) -> Vec<ScenarioSpec> {
    let stacks: Vec<Vec<VectorSpec>> = VectorSpec::paper_pair().map(|v| vec![v]).into();
    scenario_grid_for(&stacks, &[Selection::Uniform], fractions, trials)
}

/// A composable scenario grid: every stack × selection × target × fraction
/// × trial combination, in deterministic order.
///
/// [`Selection::Targeted`] placement is fully determined by the weights —
/// the trial RNG never enters it — so targeted cells collapse to a single
/// trial instead of evaluating `trials` identical injections.
#[must_use]
pub fn scenario_grid_for(
    stacks: &[Vec<VectorSpec>],
    selections: &[Selection],
    fractions: &[f64],
    trials: u64,
) -> Vec<ScenarioSpec> {
    let mut grid = Vec::new();
    for stack in stacks {
        for &selection in selections {
            let trials = match selection {
                Selection::Targeted => trials.min(1),
                Selection::Uniform | Selection::Clustered => trials,
            };
            for target in [
                AttackTarget::ConvBlock,
                AttackTarget::FcBlock,
                AttackTarget::Both,
            ] {
                for &fraction in fractions {
                    for trial in 0..trials {
                        grid.push(ScenarioSpec {
                            vectors: stack.clone(),
                            selection,
                            target,
                            fraction,
                            trial,
                        });
                    }
                }
            }
        }
    }
    grid
}

/// The extended threat model's vector stacks: the paper pair, both new
/// vectors and the stacked actuation+hotspot scenario. The single source
/// for what "extended" means — [`extended_scenario_grid`] and the `repro`
/// binary's `--vectors extended` both build from it.
#[must_use]
pub fn extended_stacks() -> Vec<Vec<VectorSpec>> {
    vec![
        vec![VectorSpec::Actuation],
        vec![VectorSpec::Hotspot],
        vec![VectorSpec::laser_default()],
        vec![VectorSpec::trim_default()],
        stacked_pair(),
    ]
}

/// The canonical stacked scenario: the paper's two vectors composed into
/// one condition map. The single definition behind `--vectors stacked`,
/// [`extended_stacks`] and the sweep bench.
#[must_use]
pub fn stacked_pair() -> Vec<VectorSpec> {
    vec![VectorSpec::Actuation, VectorSpec::Hotspot]
}

/// The extended threat-model grid: every [`extended_stacks`] stack under
/// every selection strategy.
#[must_use]
pub fn extended_scenario_grid(fractions: &[f64], trials: u64) -> Vec<ScenarioSpec> {
    scenario_grid_for(&extended_stacks(), &Selection::all(), fractions, trials)
}

/// Injects `spec` into an accelerator. `seed` is the experiment-level
/// seed; every spec field derives the per-trial RNG stream, so trials are
/// independent but reproducible, regardless of evaluation threading.
///
/// `salience` is required for [`Selection::Targeted`] scenarios (it
/// carries the weight magnitudes a netlist-aware adversary exploits); pass
/// `None` otherwise.
///
/// # Errors
///
/// Returns [`SafelightError::InvalidParameter`] for a fraction outside
/// `(0, 1]`, an empty vector stack, invalid vector parameters, or a
/// targeted scenario without salience; propagates thermal-solver errors
/// for hotspot vectors.
pub fn inject_full(
    spec: &ScenarioSpec,
    config: &AcceleratorConfig,
    salience: Option<&RingSalience>,
    seed: u64,
) -> Result<Injection, SafelightError> {
    if !(spec.fraction > 0.0 && spec.fraction <= 1.0) {
        return Err(SafelightError::InvalidParameter {
            name: "fraction",
            value: spec.fraction,
        });
    }
    if spec.vectors.is_empty() {
        return Err(SafelightError::InvalidParameter {
            name: "vectors",
            value: 0.0,
        });
    }
    let mut conditions = ConditionMap::new();
    // Keyed by (is-FC, ring) — `BlockKind` itself is not `Ord`; sorted
    // and deduplicated once all vectors have drawn.
    let mut controlled: Vec<(bool, u64)> = Vec::new();
    for (index, vector) in spec.vectors.iter().enumerate() {
        let mut rng = SimRng::seed_from(seed).derive(spec.stream_key(index));
        let injector = vector.injector();
        for kind in spec.target.blocks() {
            let sites = match injector.granularity() {
                Granularity::Ring => Sites::Rings(select_rings(
                    config,
                    kind,
                    spec.fraction,
                    spec.selection,
                    salience,
                    &mut rng,
                )?),
                Granularity::Bank => Sites::Banks(select_banks(
                    config,
                    kind,
                    spec.fraction,
                    spec.selection,
                    salience,
                    &mut rng,
                )?),
            };
            let is_fc = kind == BlockKind::Fc;
            match &sites {
                Sites::Rings(rings) => {
                    controlled.extend(rings.iter().map(|&mr| (is_fc, mr)));
                }
                Sites::Banks(banks) => {
                    let per_bank = config.block(kind).mrs_per_bank() as u64;
                    controlled.extend(banks.iter().flat_map(|&bank| {
                        let base = bank as u64 * per_bank;
                        (base..base + per_bank).map(move |mr| (is_fc, mr))
                    }));
                }
            }
            injector.apply(config, kind, &sites, &mut conditions)?;
        }
    }
    controlled.sort_unstable();
    controlled.dedup();
    let targeted_rings: u64 = spec
        .target
        .blocks()
        .iter()
        .map(|&kind| config.block(kind).total_mrs())
        .sum();
    Ok(Injection {
        conditions,
        effective_fraction: controlled.len() as f64 / targeted_rings as f64,
    })
}

/// Convenience wrapper around [`inject_full`] for scenarios that need no
/// salience map, returning just the condition map.
///
/// # Errors
///
/// As [`inject_full`].
pub fn inject(
    spec: &ScenarioSpec,
    config: &AcceleratorConfig,
    seed: u64,
) -> Result<ConditionMap, SafelightError> {
    Ok(inject_full(spec, config, None, seed)?.conditions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use safelight_onn::MrCondition;

    #[test]
    fn grid_covers_the_paper_matrix() {
        let grid = scenario_grid(&[0.01, 0.05, 0.10], 10);
        assert_eq!(grid.len(), 180);
        let hotspot_conv_1pct = grid
            .iter()
            .filter(|s| {
                s.vectors == [VectorSpec::Hotspot]
                    && s.target == AttackTarget::ConvBlock
                    && (s.fraction - 0.01).abs() < 1e-12
            })
            .count();
        assert_eq!(hotspot_conv_1pct, 10);
        assert!(grid.iter().all(|s| s.selection == Selection::Uniform));
    }

    #[test]
    fn extended_grid_covers_every_stack_and_selection() {
        let grid = extended_scenario_grid(&[0.05], 2);
        // 5 stacks × 3 targets × 1 fraction × (2 + 2 + 1) trials: targeted
        // placement ignores the trial RNG, so its cells collapse to one
        // trial instead of sweeping identical injections.
        assert_eq!(grid.len(), 75);
        assert!(grid.iter().any(ScenarioSpec::is_stacked));
        for selection in Selection::all() {
            assert!(grid.iter().any(|s| s.selection == selection));
        }
        assert!(grid
            .iter()
            .all(|s| s.selection != Selection::Targeted || s.trial == 0));
    }

    #[test]
    fn inject_rejects_bad_fraction_and_empty_stack() {
        let config = AcceleratorConfig::scaled_experiment().unwrap();
        let bad = ScenarioSpec::new(VectorSpec::Actuation, AttackTarget::ConvBlock, 0.0, 0);
        assert!(inject(&bad, &config, 1).is_err());
        let empty = ScenarioSpec::stacked(vec![], AttackTarget::ConvBlock, 0.05, 0);
        assert!(inject(&empty, &config, 1).is_err());
    }

    #[test]
    fn trials_are_reproducible_and_distinct() {
        let config = AcceleratorConfig::scaled_experiment().unwrap();
        let mk =
            |trial| ScenarioSpec::new(VectorSpec::Actuation, AttackTarget::ConvBlock, 0.05, trial);
        let a = inject(&mk(0), &config, 9).unwrap();
        let b = inject(&mk(0), &config, 9).unwrap();
        let c = inject(&mk(1), &config, 9).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn rng_streams_do_not_alias_across_fields() {
        // The seed's additive tag made (trial t + 0x1000, Conv) collide
        // with (trial t, Fc). The hash-mixed key must keep them distinct.
        let config = AcceleratorConfig::scaled_experiment().unwrap();
        let mk = |trial, target| ScenarioSpec {
            vectors: vec![VectorSpec::Actuation],
            selection: Selection::Uniform,
            target,
            fraction: 0.05,
            trial,
        };
        for t in 0..4u64 {
            let shifted_conv = mk(t + 0x1000, AttackTarget::ConvBlock);
            let base_fc = mk(t, AttackTarget::FcBlock);
            assert_ne!(
                shifted_conv.stream_key(0),
                base_fc.stream_key(0),
                "trial/target stream aliasing at t = {t}"
            );
        }
        // Fractions closer than the seed's 1e-4 truncation resolution must
        // also derive distinct streams (and distinct site sets).
        let close_a = ScenarioSpec::new(VectorSpec::Actuation, AttackTarget::ConvBlock, 0.05, 0);
        let mut close_b = close_a.clone();
        close_b.fraction = 0.05 + 1e-6;
        assert_ne!(close_a.stream_key(0), close_b.stream_key(0));
        let a = inject(&close_a, &config, 9).unwrap();
        let b = inject(&close_b, &config, 9).unwrap();
        assert_ne!(a, b, "fraction truncation aliased the site streams");
        // Stacked vectors draw from per-vector streams.
        let stacked = ScenarioSpec::stacked(
            vec![VectorSpec::Actuation, VectorSpec::Actuation],
            AttackTarget::ConvBlock,
            0.05,
            0,
        );
        assert_ne!(stacked.stream_key(0), stacked.stream_key(1));
    }

    #[test]
    fn target_blocks_enumerate_correctly() {
        assert_eq!(AttackTarget::ConvBlock.blocks(), vec![BlockKind::Conv]);
        assert_eq!(AttackTarget::Both.blocks().len(), 2);
    }

    #[test]
    fn scenario_display_is_informative() {
        let s = ScenarioSpec::new(VectorSpec::Hotspot, AttackTarget::Both, 0.05, 3)
            .with_selection(Selection::Clustered);
        let text = s.to_string();
        assert!(
            text.contains("hotspot")
                && text.contains("5%")
                && text.contains("CONV+FC")
                && text.contains("clustered"),
            "{text}"
        );
    }

    #[test]
    fn spec_strings_round_trip() {
        let specs = [
            ScenarioSpec::new(VectorSpec::Actuation, AttackTarget::ConvBlock, 0.01, 0),
            ScenarioSpec::new(
                VectorSpec::LaserDegradation { loss_db: 2.5 },
                AttackTarget::FcBlock,
                0.05,
                7,
            )
            .with_selection(Selection::Targeted),
            ScenarioSpec::stacked(
                vec![VectorSpec::Actuation, VectorSpec::Hotspot],
                AttackTarget::Both,
                0.1,
                3,
            )
            .with_selection(Selection::Clustered),
            ScenarioSpec::new(
                VectorSpec::TrimDrift { detune_rel: 0.625 },
                AttackTarget::Both,
                0.05,
                1,
            ),
        ];
        for spec in specs {
            let text = spec.to_spec_string();
            let parsed: ScenarioSpec = text.parse().unwrap_or_else(|e| panic!("`{text}`: {e}"));
            assert_eq!(parsed, spec, "`{text}`");
        }
    }

    #[test]
    fn malformed_spec_strings_are_rejected() {
        for bad in [
            "",
            "actuation",
            "actuation/uniform/conv/0.05",
            "warp/uniform/conv/0.05/0",
            "actuation/random/conv/0.05/0",
            "actuation/uniform/gpu/0.05/0",
            "actuation/uniform/conv/lots/0",
            "laser:x/uniform/conv/0.05/0",
            "actuation:3/uniform/conv/0.05/0",
        ] {
            assert!(bad.parse::<ScenarioSpec>().is_err(), "`{bad}` parsed");
        }
        // Values that parse as numbers but would only fail at injection
        // (or break the round trip) are rejected up front, naming the field.
        for (bad, field) in [
            ("laser:nan/uniform/both/0.05/0", "loss_db"),
            ("laser:inf/uniform/both/0.05/0", "loss_db"),
            ("laser:0/uniform/both/0.05/0", "loss_db"),
            ("trim:-0.4/uniform/both/0.05/0", "detune_rel"),
            ("actuation/uniform/both/0/0", "fraction"),
            ("actuation/uniform/both/1.5/0", "fraction"),
            ("actuation/uniform/both/NaN/0", "fraction"),
        ] {
            let err = bad.parse::<ScenarioSpec>().expect_err(bad).to_string();
            assert!(err.contains(field), "`{bad}`: {err}");
        }
    }

    #[test]
    fn stacked_injection_unions_both_vectors() {
        let config = AcceleratorConfig::scaled_experiment().unwrap();
        let stacked = ScenarioSpec::stacked(
            vec![VectorSpec::Actuation, VectorSpec::Hotspot],
            AttackTarget::ConvBlock,
            0.05,
            0,
        );
        let both = inject(&stacked, &config, 9).unwrap();
        let parked = both
            .iter(BlockKind::Conv)
            .filter(|(_, c)| matches!(c, MrCondition::Parked))
            .count();
        let heated = both
            .iter(BlockKind::Conv)
            .filter(|(_, c)| matches!(c, MrCondition::Heated { .. }))
            .count();
        assert!(parked > 0, "stack lost the actuation vector");
        assert!(heated > 0, "stack lost the hotspot vector");
        // The union touches at least as many rings as either vector alone.
        let single = inject(
            &ScenarioSpec::new(VectorSpec::Hotspot, AttackTarget::ConvBlock, 0.05, 0),
            &config,
            9,
        )
        .unwrap();
        assert!(both.faulty_count(BlockKind::Conv) >= single.faulty_count(BlockKind::Conv));
    }

    #[test]
    fn stacked_laser_tap_does_not_unpark_actuated_rings() {
        // A tap drawn onto a ring the actuation vector already parked must
        // not weaken it back to a factor-scaled live weight. Vector index 0
        // derives the same site stream whether or not more vectors follow,
        // so the single-vector injection identifies the parked set exactly.
        let config = AcceleratorConfig::scaled_experiment().unwrap();
        let parked_alone = inject(
            &ScenarioSpec::new(VectorSpec::Actuation, AttackTarget::ConvBlock, 0.5, 0),
            &config,
            9,
        )
        .unwrap();
        let stacked = inject(
            &ScenarioSpec::stacked(
                vec![VectorSpec::Actuation, VectorSpec::laser_default()],
                AttackTarget::ConvBlock,
                0.5,
                0,
            ),
            &config,
            9,
        )
        .unwrap();
        for (mr, cond) in parked_alone.iter(BlockKind::Conv) {
            assert_eq!(cond, MrCondition::Parked);
            assert_eq!(
                stacked.condition(BlockKind::Conv, mr),
                MrCondition::Parked,
                "ring {mr} was weakened by the stacked tap"
            );
        }
        // The draws must actually have overlapped for this to test
        // anything: two independent half-block draws cover fewer distinct
        // rings than their sum.
        let per_vector = parked_alone.faulty_count(BlockKind::Conv);
        assert!(
            stacked.faulty_count(BlockKind::Conv) < 2 * per_vector,
            "site draws never overlapped"
        );
    }

    #[test]
    fn stacked_laser_and_hotspot_keep_heat_on_attenuated_rings() {
        // The power fault lives upstream of the ring, so a ring that is both
        // tapped and inside/near a heated bank must carry its spill-over
        // detuning alongside the attenuation — in either stacking order.
        let config = AcceleratorConfig::scaled_experiment().unwrap();
        for vectors in [
            vec![VectorSpec::laser_default(), VectorSpec::Hotspot],
            vec![VectorSpec::Hotspot, VectorSpec::laser_default()],
        ] {
            let label = ScenarioSpec::stacked(vectors.clone(), AttackTarget::ConvBlock, 0.2, 0)
                .vector_label();
            let spec = ScenarioSpec::stacked(vectors, AttackTarget::ConvBlock, 0.2, 0);
            let map = inject(&spec, &config, 9).unwrap();
            let heated_attenuated = map
                .iter(BlockKind::Conv)
                .filter(|(_, c)| {
                    matches!(c, MrCondition::Attenuated { delta_kelvin, .. } if *delta_kelvin > 0.0)
                })
                .count();
            assert!(
                heated_attenuated > 0,
                "{label}: no ring carries both the tap and spill-over heat"
            );
        }
    }

    #[test]
    fn effective_fraction_reports_bank_clamping() {
        let config = AcceleratorConfig::scaled_experiment().unwrap();
        // Scaled CONV block: 25 banks of 100 rings. A nominal 1 % hotspot
        // clamps to one full bank = 4 % of the rings.
        let spec = ScenarioSpec::new(VectorSpec::Hotspot, AttackTarget::ConvBlock, 0.01, 0);
        let injection = inject_full(&spec, &config, None, 9).unwrap();
        assert!(
            (injection.effective_fraction - 0.04).abs() < 1e-12,
            "effective {}",
            injection.effective_fraction
        );
        // Ring-granular vectors track the nominal fraction.
        let spec = ScenarioSpec::new(VectorSpec::Actuation, AttackTarget::ConvBlock, 0.05, 0);
        let injection = inject_full(&spec, &config, None, 9).unwrap();
        assert!((injection.effective_fraction - 0.05).abs() < 1e-3);
    }

    #[test]
    fn new_vectors_inject_their_condition_kinds() {
        let config = AcceleratorConfig::scaled_experiment().unwrap();
        let laser = inject(
            &ScenarioSpec::new(
                VectorSpec::laser_default(),
                AttackTarget::ConvBlock,
                0.05,
                0,
            ),
            &config,
            9,
        )
        .unwrap();
        for (_, cond) in laser.iter(BlockKind::Conv) {
            assert!(matches!(cond, MrCondition::Attenuated { .. }), "{cond:?}");
        }
        let trim = inject(
            &ScenarioSpec::new(VectorSpec::trim_default(), AttackTarget::FcBlock, 0.05, 0),
            &config,
            9,
        )
        .unwrap();
        for (_, cond) in trim.iter(BlockKind::Fc) {
            assert!(matches!(cond, MrCondition::Detuned { .. }), "{cond:?}");
        }
    }
}
