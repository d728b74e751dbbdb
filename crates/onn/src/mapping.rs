//! Weight-stationary mapping of model parameters onto microrings.
//!
//! All layers are mapped "using a weight-stationary approach" (paper §IV):
//! convolution-layer parameters fill the CONV block's MRs in order, FC-layer
//! parameters fill the FC block, and when a block runs out of rings the
//! mapping wraps around into another *reuse round*. A single microring at
//! flat index `m` in a block of capacity `C` therefore carries parameter
//! slots `{m, m + C, m + 2C, …}` — which is why one compromised ring
//! corrupts `⌈used/C⌉` parameters of a large model but at most one
//! parameter of a model that fits in a single round.

use std::collections::{BTreeMap, BTreeSet};

use crate::config::{AcceleratorConfig, BlockConfig, BlockKind};
use crate::OnnError;

/// One mapped layer: which block it lives in and how many weight scalars it
/// contributes.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct LayerSpec {
    /// Human-readable layer name (diagnostics only).
    pub name: String,
    /// Block the layer executes on (conv layers → CONV, dense → FC).
    pub kind: BlockKind,
    /// Number of weight scalars (biases stay electronic and are not
    /// mapped).
    pub weights: usize,
}

impl LayerSpec {
    /// Creates a layer spec.
    #[must_use]
    pub fn new(name: impl Into<String>, kind: BlockKind, weights: usize) -> Self {
        Self {
            name: name.into(),
            kind,
            weights,
        }
    }
}

/// Where one parameter lives on the photonic substrate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MappedParam {
    /// Block holding the parameter.
    pub block: BlockKind,
    /// Flat MR index within the block.
    pub mr_index: u64,
    /// Reuse round (0 = first pass over the block's rings).
    pub round: u64,
    /// VDP unit of the MR.
    pub vdp: usize,
    /// Bank row of the MR.
    pub row: usize,
    /// Bank column of the MR — also its WDM channel.
    pub col: usize,
}

#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
struct MappedLayer {
    spec: LayerSpec,
    /// First slot (linear position in the block's slot space) of the layer.
    start_slot: u64,
}

/// The weight-stationary mapping of a whole network.
///
/// # Example
///
/// ```
/// use safelight_onn::{AcceleratorConfig, BlockKind, LayerSpec, WeightMapping};
///
/// # fn main() -> Result<(), safelight_onn::OnnError> {
/// let config = AcceleratorConfig::scaled_experiment()?;
/// let mapping = WeightMapping::new(&config, &[
///     LayerSpec::new("conv1", BlockKind::Conv, 5_000),
/// ])?;
/// let home = mapping.locate(0, 4_999)?;
/// assert_eq!(home.block, BlockKind::Conv);
/// // 5 000 weights on 2 500 CONV rings ⇒ two reuse rounds.
/// assert_eq!(mapping.rounds(BlockKind::Conv), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WeightMapping {
    conv_shape: BlockConfig,
    fc_shape: BlockConfig,
    layers: Vec<MappedLayer>,
    used_slots_conv: u64,
    used_slots_fc: u64,
    /// Ring relocation table per block, stored as a symmetric involution:
    /// pairing `(l, s)` inserts both `l → s` and `s → l`, meaning logical
    /// ring `l`'s parameter slots are physically imprinted on ring `s`
    /// while `s`'s (idle) slot range moves onto `l`. Empty = identity.
    reloc_conv: BTreeMap<u64, u64>,
    reloc_fc: BTreeMap<u64, u64>,
    /// Rings taken out of service by [`WeightMapping::remap_params`]; never
    /// offered as spare capacity again.
    retired_conv: BTreeSet<u64>,
    retired_fc: BTreeSet<u64>,
}

/// The result of one [`WeightMapping::remap_params`] call.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RemapOutcome {
    /// `(quarantined ring, spare ring)` pairs whose parameter slots were
    /// relocated, in ascending quarantined-ring order.
    pub remapped: Vec<(u64, u64)>,
    /// Quarantined rings that carry parameters but could not be relocated
    /// because the spare pool ran dry — the caller's cue to fail the shard
    /// over to a healthy accelerator.
    pub unplaced: Vec<u64>,
    /// Rings newly retired from service by this call (parameter-carrying or
    /// not), ascending.
    pub retired: Vec<u64>,
}

impl RemapOutcome {
    /// Whether every parameter-carrying quarantined ring found a spare.
    #[must_use]
    pub fn fully_placed(&self) -> bool {
        self.unplaced.is_empty()
    }
}

impl WeightMapping {
    /// Maps `layers` (in order) onto the blocks of `config`.
    ///
    /// # Errors
    ///
    /// Returns [`OnnError::MappingMismatch`] for an empty layer list or a
    /// zero-weight layer.
    pub fn new(config: &AcceleratorConfig, layers: &[LayerSpec]) -> Result<Self, OnnError> {
        if layers.is_empty() {
            return Err(OnnError::MappingMismatch {
                context: "no layers to map".into(),
            });
        }
        let mut used_conv = 0u64;
        let mut used_fc = 0u64;
        let mut mapped = Vec::with_capacity(layers.len());
        for spec in layers {
            if spec.weights == 0 {
                return Err(OnnError::MappingMismatch {
                    context: format!("layer `{}` has zero weights", spec.name),
                });
            }
            let cursor = match spec.kind {
                BlockKind::Conv => &mut used_conv,
                BlockKind::Fc => &mut used_fc,
            };
            mapped.push(MappedLayer {
                spec: spec.clone(),
                start_slot: *cursor,
            });
            *cursor += spec.weights as u64;
        }
        Ok(Self {
            conv_shape: config.conv,
            fc_shape: config.fc,
            layers: mapped,
            used_slots_conv: used_conv,
            used_slots_fc: used_fc,
            reloc_conv: BTreeMap::new(),
            reloc_fc: BTreeMap::new(),
            retired_conv: BTreeSet::new(),
            retired_fc: BTreeSet::new(),
        })
    }

    fn shape(&self, kind: BlockKind) -> &BlockConfig {
        match kind {
            BlockKind::Conv => &self.conv_shape,
            BlockKind::Fc => &self.fc_shape,
        }
    }

    fn reloc(&self, kind: BlockKind) -> &BTreeMap<u64, u64> {
        match kind {
            BlockKind::Conv => &self.reloc_conv,
            BlockKind::Fc => &self.reloc_fc,
        }
    }

    fn reloc_mut(&mut self, kind: BlockKind) -> &mut BTreeMap<u64, u64> {
        match kind {
            BlockKind::Conv => &mut self.reloc_conv,
            BlockKind::Fc => &mut self.reloc_fc,
        }
    }

    fn retired(&self, kind: BlockKind) -> &BTreeSet<u64> {
        match kind {
            BlockKind::Conv => &self.retired_conv,
            BlockKind::Fc => &self.retired_fc,
        }
    }

    /// Whether any ring of `kind`'s block has been relocated — lets hot
    /// paths skip the per-ring indirection lookup on pristine mappings.
    #[must_use]
    pub fn has_remaps(&self, kind: BlockKind) -> bool {
        !self.reloc(kind).is_empty()
    }

    /// Whether physical ring `ring` was retired from service by
    /// [`WeightMapping::remap_params`].
    #[must_use]
    pub fn is_retired(&self, kind: BlockKind, ring: u64) -> bool {
        self.retired(kind).contains(&ring)
    }

    /// The physical ring realizing logical ring `ring` of `kind`'s block
    /// (identity until [`WeightMapping::remap_params`] relocates it).
    ///
    /// The relocation table is a symmetric involution (relocations swap a
    /// parameter ring with a spare), so the same lookup also answers the
    /// inverse question — which logical ring physical ring `ring` carries.
    #[must_use]
    pub fn physical_ring(&self, kind: BlockKind, ring: u64) -> u64 {
        self.reloc(kind).get(&ring).copied().unwrap_or(ring)
    }

    /// The relocation table of `kind`'s block as `(logical, physical)`
    /// pairs in ascending logical order; rings it does not list are their
    /// own physical ring. Both directions of every swap are listed.
    pub(crate) fn relocations(&self, kind: BlockKind) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.reloc(kind).iter().map(|(&l, &p)| (l, p))
    }

    /// The logical ring whose parameter slots physical ring `ring`
    /// currently carries (the inverse of [`WeightMapping::physical_ring`];
    /// identical lookup because relocations are pairwise swaps).
    fn logical_ring(&self, kind: BlockKind, ring: u64) -> u64 {
        self.physical_ring(kind, ring)
    }

    /// The physical rings of `kind`'s block currently carrying no parameter
    /// in any reuse round and not retired — the spare capacity
    /// [`WeightMapping::remap_params`] can relocate onto. Empty whenever the
    /// block wraps into more than one reuse round (every ring then carries
    /// a round-0 parameter).
    #[must_use]
    pub fn idle_slots(&self, kind: BlockKind) -> Vec<u64> {
        let cap = self.shape(kind).total_mrs();
        let used = self.used_slots(kind);
        if used >= cap {
            return Vec::new();
        }
        (used..cap)
            .map(|l| self.physical_ring(kind, l))
            .filter(|p| !self.retired(kind).contains(p))
            .collect()
    }

    /// How many [`WeightMapping::idle_slots`] `kind`'s block has, without
    /// scanning the idle region: the idle logical range minus the retired
    /// rings in its image. The relocation table is an involution, so a
    /// retired ring `r` lies in that image exactly when
    /// `physical_ring(r)` is an idle logical ring.
    #[must_use]
    pub fn spare_count(&self, kind: BlockKind) -> usize {
        let used = self.used_slots(kind);
        let idle = self.shape(kind).total_mrs().saturating_sub(used) as usize;
        let retired = self
            .retired(kind)
            .iter()
            .filter(|&&r| self.physical_ring(kind, r) >= used)
            .count();
        idle - retired
    }

    /// Retires the `quarantined` physical rings of `kind`'s block and
    /// relocates every parameter slot they carry onto the block's spare
    /// (idle, un-retired) rings, allocating spares from the top of the idle
    /// region downward — away from the low-index idle rings where sentinel
    /// plans place their probe weights.
    ///
    /// Quarantined rings that carry no parameters are simply retired.
    /// Parameter-carrying rings the spare pool cannot absorb are reported
    /// in [`RemapOutcome::unplaced`] with their placement left unchanged,
    /// so the caller can fall back to failing the whole accelerator over.
    /// Re-quarantining a spare that absorbed an earlier relocation chains
    /// correctly: the displaced parameters move again to a fresh spare.
    ///
    /// After a remap, [`WeightMapping::locate`] reports physical homes
    /// through the relocation, and [`WeightMapping::params_on_mr`] /
    /// [`WeightMapping::param_at_slot`] answer for physical rings — the
    /// executor and telemetry probe re-derive correctly from the same
    /// mapping object.
    ///
    /// # Errors
    ///
    /// Returns [`OnnError::MrOutOfRange`] when a quarantined index exceeds
    /// the block's capacity; the mapping is untouched in that case.
    pub fn remap_params(
        &mut self,
        kind: BlockKind,
        quarantined: &[u64],
    ) -> Result<RemapOutcome, OnnError> {
        let cap = self.shape(kind).total_mrs();
        for &q in quarantined {
            if q >= cap {
                return Err(OnnError::MrOutOfRange {
                    index: q,
                    capacity: cap,
                });
            }
        }
        let qset: BTreeSet<u64> = quarantined.iter().copied().collect();
        let spares = self.top_spares(kind, &qset);
        Ok(self.remap_onto(kind, &qset, spares))
    }

    /// The spares one [`WeightMapping::remap_params`] call can hand out, in
    /// allocation order: idle, never retired, and not themselves in the
    /// incoming quarantine set `qset`, from the top of the idle region
    /// down. The call places at most one spare per quarantined ring, so
    /// walking the idle range downward stops after `qset.len()` of them
    /// instead of listing the whole region.
    fn top_spares(&self, kind: BlockKind, qset: &BTreeSet<u64>) -> Vec<u64> {
        let cap = self.shape(kind).total_mrs();
        let retired = self.retired(kind);
        (self.used_slots(kind)..cap)
            .rev()
            .map(|l| self.physical_ring(kind, l))
            .filter(|s| !retired.contains(s) && !qset.contains(s))
            .take(qset.len())
            .collect()
    }

    /// Retires the rings of `qset` and relocates the parameters they carry
    /// onto `spares`, taken in order.
    fn remap_onto(
        &mut self,
        kind: BlockKind,
        qset: &BTreeSet<u64>,
        spares: Vec<u64>,
    ) -> RemapOutcome {
        let used = self.used_slots(kind);
        let mut spares = spares.into_iter();
        let mut out = RemapOutcome::default();
        for &q in qset {
            let newly_retired = match kind {
                BlockKind::Conv => self.retired_conv.insert(q),
                BlockKind::Fc => self.retired_fc.insert(q),
            };
            if newly_retired {
                out.retired.push(q);
            }
            let l = self.logical_ring(kind, q);
            if l >= used {
                continue; // the ring carries nothing — retiring suffices
            }
            let Some(s) = spares.next() else {
                out.unplaced.push(q);
                continue;
            };
            // Undo any existing pairing involving q before re-pairing l
            // with the fresh spare (q keeps identity and, being retired
            // with an idle logical range, carries nothing afterwards).
            if let Some(partner) = self.reloc_mut(kind).remove(&q) {
                self.reloc_mut(kind).remove(&partner);
            }
            self.reloc_mut(kind).insert(l, s);
            self.reloc_mut(kind).insert(s, l);
            out.remapped.push((q, s));
        }
        out
    }

    /// The layer specs, in mapping order.
    #[must_use]
    pub fn layer_specs(&self) -> Vec<&LayerSpec> {
        self.layers.iter().map(|l| &l.spec).collect()
    }

    /// Total parameter slots consumed in `kind`'s block.
    #[must_use]
    pub fn used_slots(&self, kind: BlockKind) -> u64 {
        match kind {
            BlockKind::Conv => self.used_slots_conv,
            BlockKind::Fc => self.used_slots_fc,
        }
    }

    /// Number of reuse rounds `kind`'s block needs for this network
    /// (`⌈used / capacity⌉`, minimum 1 when the block is used at all).
    #[must_use]
    pub fn rounds(&self, kind: BlockKind) -> u64 {
        let used = self.used_slots(kind);
        let cap = self.shape(kind).total_mrs();
        used.div_ceil(cap).max(u64::from(used > 0))
    }

    /// Fraction of `kind`'s rings that carry at least one parameter.
    #[must_use]
    pub fn utilization(&self, kind: BlockKind) -> f64 {
        let cap = self.shape(kind).total_mrs();
        let used = self.used_slots(kind).min(cap);
        used as f64 / cap as f64
    }

    /// Physical home of parameter `offset` within mapped layer
    /// `layer_index`, after any relocations applied by
    /// [`WeightMapping::remap_params`].
    ///
    /// # Errors
    ///
    /// Returns [`OnnError::MappingMismatch`] for an unknown layer or an
    /// offset beyond the layer's weight count.
    pub fn locate(&self, layer_index: usize, offset: usize) -> Result<MappedParam, OnnError> {
        let layer = self
            .layers
            .get(layer_index)
            .ok_or_else(|| OnnError::MappingMismatch {
                context: format!("layer index {layer_index} out of range"),
            })?;
        if offset >= layer.spec.weights {
            return Err(OnnError::MappingMismatch {
                context: format!(
                    "offset {offset} beyond layer `{}` ({} weights)",
                    layer.spec.name, layer.spec.weights
                ),
            });
        }
        let slot = layer.start_slot + offset as u64;
        let shape = self.shape(layer.spec.kind);
        let cap = shape.total_mrs();
        let mr_index = self.physical_ring(layer.spec.kind, slot % cap);
        let round = slot / cap;
        let per_bank = shape.mrs_per_bank() as u64;
        let vdp = (mr_index / per_bank) as usize;
        let within = (mr_index % per_bank) as usize;
        Ok(MappedParam {
            block: layer.spec.kind,
            mr_index,
            round,
            vdp,
            row: within / shape.bank_cols,
            col: within % shape.bank_cols,
        })
    }

    /// All `(layer_index, offset)` parameter slots carried by *physical*
    /// MR `mr_index` of `kind`'s block — the set an attack on that ring
    /// corrupts. After [`WeightMapping::remap_params`], a retired ring
    /// answers with an empty set (its parameters moved to a spare) and the
    /// spare answers with the relocated parameters.
    ///
    /// # Errors
    ///
    /// Returns [`OnnError::MrOutOfRange`] when `mr_index` exceeds the
    /// block's capacity.
    pub fn params_on_mr(
        &self,
        kind: BlockKind,
        mr_index: u64,
    ) -> Result<Vec<(usize, usize)>, OnnError> {
        let cap = self.shape(kind).total_mrs();
        if mr_index >= cap {
            return Err(OnnError::MrOutOfRange {
                index: mr_index,
                capacity: cap,
            });
        }
        let mut hits = Vec::new();
        let used = self.used_slots(kind);
        let mut slot = self.logical_ring(kind, mr_index);
        while slot < used {
            // Find the layer owning this slot (layers are sorted by start).
            if let Some((li, layer)) = self
                .layers
                .iter()
                .enumerate()
                .filter(|(_, l)| l.spec.kind == kind)
                .take_while(|(_, l)| l.start_slot <= slot)
                .last()
            {
                let offset = (slot - layer.start_slot) as usize;
                if offset < layer.spec.weights {
                    hits.push((li, offset));
                }
            }
            slot += cap;
        }
        Ok(hits)
    }

    /// The `(layer_index, offset)` of the parameter occupying *physical*
    /// linear slot `slot` (round × capacity + physical ring) of `kind`'s
    /// block, or `None` when the slot carries nothing (idle round range, or
    /// a ring whose parameters were relocated away by
    /// [`WeightMapping::remap_params`]).
    #[must_use]
    pub fn param_at_slot(&self, kind: BlockKind, slot: u64) -> Option<(usize, usize)> {
        let cap = self.shape(kind).total_mrs();
        let slot = if self.has_remaps(kind) {
            (slot / cap) * cap + self.logical_ring(kind, slot % cap)
        } else {
            slot
        };
        if slot >= self.used_slots(kind) {
            return None;
        }
        let (li, layer) = self
            .layers
            .iter()
            .enumerate()
            .filter(|(_, l)| l.spec.kind == kind)
            .take_while(|(_, l)| l.start_slot <= slot)
            .last()?;
        let offset = (slot - layer.start_slot) as usize;
        (offset < layer.spec.weights).then_some((li, offset))
    }

    /// The flat MR index of bank position `(vdp, row, col)` in `kind`'s
    /// block.
    ///
    /// # Errors
    ///
    /// Returns [`OnnError::MrOutOfRange`] when the coordinates exceed the
    /// block shape.
    pub fn mr_index_of(
        &self,
        kind: BlockKind,
        vdp: usize,
        row: usize,
        col: usize,
    ) -> Result<u64, OnnError> {
        let shape = self.shape(kind);
        if vdp >= shape.vdp_units || row >= shape.bank_rows || col >= shape.bank_cols {
            return Err(OnnError::MrOutOfRange {
                index: u64::MAX,
                capacity: shape.total_mrs(),
            });
        }
        Ok((vdp * shape.mrs_per_bank() + row * shape.bank_cols + col) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use safelight_neuro::SimRng;

    fn small_config() -> AcceleratorConfig {
        AcceleratorConfig::custom(
            BlockConfig {
                vdp_units: 2,
                bank_rows: 3,
                bank_cols: 4,
            }, // 24 MRs
            BlockConfig {
                vdp_units: 2,
                bank_rows: 5,
                bank_cols: 5,
            }, // 50 MRs
        )
        .unwrap()
    }

    fn layers() -> Vec<LayerSpec> {
        vec![
            LayerSpec::new("conv1", BlockKind::Conv, 10),
            LayerSpec::new("conv2", BlockKind::Conv, 40), // wraps: 50 > 24
            LayerSpec::new("fc1", BlockKind::Fc, 30),
        ]
    }

    #[test]
    fn locate_round_trips_with_params_on_mr() {
        let mapping = WeightMapping::new(&small_config(), &layers()).unwrap();
        for li in 0..3 {
            let weights = mapping.layer_specs()[li].weights;
            for off in 0..weights {
                let home = mapping.locate(li, off).unwrap();
                let back = mapping.params_on_mr(home.block, home.mr_index).unwrap();
                assert!(
                    back.contains(&(li, off)),
                    "param ({li}, {off}) missing from MR {}",
                    home.mr_index
                );
            }
        }
    }

    #[test]
    fn rounds_reflect_wraparound() {
        let mapping = WeightMapping::new(&small_config(), &layers()).unwrap();
        // CONV: 50 weights on 24 rings ⇒ 3 rounds; FC: 30 on 50 ⇒ 1.
        assert_eq!(mapping.rounds(BlockKind::Conv), 3);
        assert_eq!(mapping.rounds(BlockKind::Fc), 1);
    }

    #[test]
    fn utilization_is_capped_at_one() {
        let mapping = WeightMapping::new(&small_config(), &layers()).unwrap();
        assert!((mapping.utilization(BlockKind::Conv) - 1.0).abs() < 1e-12);
        assert!((mapping.utilization(BlockKind::Fc) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn coordinates_decompose_consistently() {
        let mapping = WeightMapping::new(&small_config(), &layers()).unwrap();
        let home = mapping.locate(1, 30).unwrap(); // slot 40 → wraps to 16
        assert_eq!(home.mr_index, 16);
        assert_eq!(home.round, 1);
        let recomposed = mapping
            .mr_index_of(home.block, home.vdp, home.row, home.col)
            .unwrap();
        assert_eq!(recomposed, home.mr_index);
    }

    #[test]
    fn params_on_shared_mr_span_multiple_layers() {
        let mapping = WeightMapping::new(&small_config(), &layers()).unwrap();
        // CONV slot space: conv1 occupies 0..10, conv2 10..50.
        // MR 2 carries slots {2, 26, 50} → conv1 offset 2, conv2 offset 16.
        let hits = mapping.params_on_mr(BlockKind::Conv, 2).unwrap();
        assert_eq!(hits, vec![(0, 2), (1, 16)]);
    }

    #[test]
    fn out_of_range_queries_error() {
        let mapping = WeightMapping::new(&small_config(), &layers()).unwrap();
        assert!(mapping.params_on_mr(BlockKind::Conv, 24).is_err());
        assert!(mapping.locate(0, 10).is_err());
        assert!(mapping.locate(9, 0).is_err());
        assert!(mapping.mr_index_of(BlockKind::Conv, 2, 0, 0).is_err());
    }

    #[test]
    fn empty_and_zero_weight_layers_are_rejected() {
        let cfg = small_config();
        assert!(WeightMapping::new(&cfg, &[]).is_err());
        assert!(WeightMapping::new(&cfg, &[LayerSpec::new("bad", BlockKind::Conv, 0)]).is_err());
    }

    /// 30 FC weights on a 50-ring block: rings 30..50 are spare.
    fn spare_mapping() -> WeightMapping {
        WeightMapping::new(&small_config(), &layers()).unwrap()
    }

    #[test]
    fn idle_slots_cover_the_unused_tail() {
        let mapping = spare_mapping();
        // CONV wraps (3 rounds) ⇒ no spare capacity at all.
        assert!(mapping.idle_slots(BlockKind::Conv).is_empty());
        assert_eq!(
            mapping.idle_slots(BlockKind::Fc),
            (30..50).collect::<Vec<u64>>()
        );
    }

    #[test]
    fn remap_moves_params_to_spares_and_updates_queries() {
        let mut mapping = spare_mapping();
        // FC ring 7 carries fc1 offset 7 (single round).
        let before = mapping.locate(2, 7).unwrap();
        assert_eq!(before.mr_index, 7);
        let outcome = mapping.remap_params(BlockKind::Fc, &[7]).unwrap();
        assert!(outcome.fully_placed());
        // Spares allocate from the top of the idle region downward.
        assert_eq!(outcome.remapped, vec![(7, 49)]);
        assert_eq!(outcome.retired, vec![7]);
        // locate reports the physical home…
        let after = mapping.locate(2, 7).unwrap();
        assert_eq!(after.mr_index, 49);
        assert_eq!(after.round, 0);
        // …and the physical-ring queries agree: the retired ring carries
        // nothing, the spare carries the relocated parameter.
        assert!(mapping.params_on_mr(BlockKind::Fc, 7).unwrap().is_empty());
        assert_eq!(
            mapping.params_on_mr(BlockKind::Fc, 49).unwrap(),
            vec![(2, 7)]
        );
        assert_eq!(mapping.param_at_slot(BlockKind::Fc, 49), Some((2, 7)));
        assert_eq!(mapping.param_at_slot(BlockKind::Fc, 7), None);
        // The consumed spare and the retired ring both left the idle pool.
        let idle = mapping.idle_slots(BlockKind::Fc);
        assert!(!idle.contains(&49));
        assert!(!idle.contains(&7));
        assert_eq!(idle.len(), 19);
    }

    #[test]
    fn locate_and_params_on_mr_round_trip_after_remap() {
        let mut mapping = spare_mapping();
        mapping.remap_params(BlockKind::Fc, &[0, 3, 11]).unwrap();
        for off in 0..30 {
            let home = mapping.locate(2, off).unwrap();
            let back = mapping.params_on_mr(BlockKind::Fc, home.mr_index).unwrap();
            assert!(back.contains(&(2, off)), "offset {off} lost in remap");
            let recomposed = mapping
                .mr_index_of(home.block, home.vdp, home.row, home.col)
                .unwrap();
            assert_eq!(recomposed, home.mr_index);
        }
    }

    #[test]
    fn remap_exhaustion_reports_unplaced() {
        let mut mapping = spare_mapping();
        // 20 spares, quarantine 25 parameter-carrying rings.
        let quarantined: Vec<u64> = (0..25).collect();
        let outcome = mapping.remap_params(BlockKind::Fc, &quarantined).unwrap();
        assert_eq!(outcome.remapped.len(), 20);
        assert_eq!(outcome.unplaced.len(), 5);
        assert!(!outcome.fully_placed());
        assert!(mapping.idle_slots(BlockKind::Fc).is_empty());
        // An unplaced ring still carries its parameter — it was not lost.
        let q = outcome.unplaced[0];
        assert!(!mapping.params_on_mr(BlockKind::Fc, q).unwrap().is_empty());
    }

    #[test]
    fn multi_round_blocks_have_no_spares_to_remap_onto() {
        let mut mapping = spare_mapping();
        let outcome = mapping.remap_params(BlockKind::Conv, &[2]).unwrap();
        assert_eq!(outcome.unplaced, vec![2]);
        assert!(outcome.remapped.is_empty());
    }

    #[test]
    fn requarantining_a_spare_chains_the_relocation() {
        let mut mapping = spare_mapping();
        let first = mapping.remap_params(BlockKind::Fc, &[5]).unwrap();
        assert_eq!(first.remapped, vec![(5, 49)]);
        // The spare that absorbed ring 5's parameter fails next.
        let second = mapping.remap_params(BlockKind::Fc, &[49]).unwrap();
        assert_eq!(second.remapped, vec![(49, 48)]);
        let home = mapping.locate(2, 5).unwrap();
        assert_eq!(home.mr_index, 48);
        assert!(mapping.params_on_mr(BlockKind::Fc, 49).unwrap().is_empty());
        assert!(mapping.params_on_mr(BlockKind::Fc, 5).unwrap().is_empty());
        // Retired rings never return to the pool.
        let idle = mapping.idle_slots(BlockKind::Fc);
        assert!(!idle.contains(&49) && !idle.contains(&5) && !idle.contains(&48));
    }

    #[test]
    fn quarantining_an_idle_ring_just_retires_it() {
        let mut mapping = spare_mapping();
        let outcome = mapping.remap_params(BlockKind::Fc, &[40]).unwrap();
        assert!(outcome.remapped.is_empty());
        assert!(outcome.unplaced.is_empty());
        assert_eq!(outcome.retired, vec![40]);
        assert!(!mapping.idle_slots(BlockKind::Fc).contains(&40));
    }

    #[test]
    fn spare_count_matches_the_idle_slots() {
        let mut mapping = spare_mapping();
        let agree = |m: &WeightMapping| {
            for kind in [BlockKind::Conv, BlockKind::Fc] {
                assert_eq!(m.spare_count(kind), m.idle_slots(kind).len(), "{kind:?}");
            }
        };
        agree(&mapping);
        // A relocation, a chained one, an idle retirement, then exhaustion.
        for quarantined in [&[7u64][..], &[49], &[40], &(0..25).collect::<Vec<_>>()] {
            mapping.remap_params(BlockKind::Fc, quarantined).unwrap();
            agree(&mapping);
        }
        mapping.remap_params(BlockKind::Conv, &[2]).unwrap();
        agree(&mapping);
    }

    #[test]
    fn out_of_range_quarantine_is_rejected_atomically() {
        let mut mapping = spare_mapping();
        let before = mapping.clone();
        assert!(mapping.remap_params(BlockKind::Fc, &[1, 50]).is_err());
        assert_eq!(mapping, before);
    }

    /// The spare selection `remap_params` used before it bounded its walk:
    /// list every idle spare, drop the incoming quarantine set, and hand
    /// the rest out from the top of the idle region.
    fn listed_spares(mapping: &WeightMapping, kind: BlockKind, qset: &BTreeSet<u64>) -> Vec<u64> {
        let mut spares: Vec<u64> = mapping
            .idle_slots(kind)
            .into_iter()
            .filter(|s| !qset.contains(s))
            .collect();
        spares.reverse();
        spares
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Over random chained quarantines, walking only the top of the
        /// idle region places parameters exactly as listing all of it did.
        #[test]
        fn bounded_spare_selection_matches_listing_the_idle_region(seed in any::<u64>()) {
            let mut rng = SimRng::seed_from(seed);
            let mut block = || BlockConfig {
                vdp_units: 1 + rng.index(4),
                bank_rows: 1 + rng.index(4),
                bank_cols: 1 + rng.index(5),
            };
            let (conv, fc) = (block(), block());
            let config = AcceleratorConfig::custom(conv, fc).unwrap();
            let specs: Vec<LayerSpec> = (0..1 + rng.index(3))
                .map(|i| {
                    let kind = if rng.index(2) == 0 { BlockKind::Conv } else { BlockKind::Fc };
                    LayerSpec::new(format!("l{i}"), kind, 1 + rng.index(60))
                })
                .collect();
            let mut bounded = WeightMapping::new(&config, &specs).unwrap();
            let mut listed = bounded.clone();
            for _ in 0..1 + rng.index(6) {
                let kind = if rng.index(2) == 0 { BlockKind::Conv } else { BlockKind::Fc };
                let cap = config.block(kind).total_mrs();
                let quarantined: Vec<u64> = (0..1 + rng.index(8))
                    .map(|_| rng.index(cap as usize) as u64)
                    .collect();
                let outcome = bounded.remap_params(kind, &quarantined).unwrap();
                let qset: BTreeSet<u64> = quarantined.iter().copied().collect();
                let spares = listed_spares(&listed, kind, &qset);
                prop_assert_eq!(&outcome, &listed.remap_onto(kind, &qset, spares));
                for kind in [BlockKind::Conv, BlockKind::Fc] {
                    for ring in 0..config.block(kind).total_mrs() {
                        prop_assert_eq!(bounded.physical_ring(kind, ring), listed.physical_ring(kind, ring));
                    }
                    prop_assert_eq!(bounded.spare_count(kind), listed.spare_count(kind));
                }
            }
            prop_assert_eq!(&bounded, &listed);
        }
    }
}
