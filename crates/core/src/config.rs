//! Tree configuration: dimensionality, capacities, strategies.

use gauss_storage::{Reader, Writer};
use pfv::CombineMode;

/// Split strategies for node overflow (paper §5.3 plus two ablation
/// baselines).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SplitStrategy {
    /// The paper's strategy: tentative median splits in every μ- and
    /// σ-dimension; keep the split minimising the summed hull integrals
    /// `∫ N̂(x) dx` of the two children.
    ///
    /// The integrals are priced at the combined spread `c(σ, σ̄)` a query
    /// of typical spread σ̄ sees (Lemma 1): `√(σ² + σ̄²)` under
    /// [`CombineMode::Convolution`], `σ + σ̄` under
    /// [`CombineMode::AdditiveSigma`]. σ̄ is the geometric mean of the σ
    /// being partitioned, per dimension — the bulk loader's whole input, or
    /// the entries of one node on the incremental path. At σ̄ = 0 this is
    /// §5.3's proxy exactly; why σ_q = 0 splits worse, how little the
    /// choice of σ̄ matters, and what standing σ̄ in for the queries' σ
    /// assumes of them, is in [`crate::split`].
    #[default]
    HullIntegral,
    /// R-tree-style baseline: median split along the μ-dimension with the
    /// widest extent, ignoring σ (what a conventional index would do).
    WidestMu,
    /// R\*-style baseline: tentative median splits on all 2d axes, cost =
    /// sum of the children's parameter-space volumes.
    MinVolume,
}

impl SplitStrategy {
    /// Stable on-disk tag.
    #[must_use]
    pub fn to_tag(self) -> u8 {
        match self {
            SplitStrategy::HullIntegral => 0,
            SplitStrategy::WidestMu => 1,
            SplitStrategy::MinVolume => 2,
        }
    }

    /// Parses an on-disk tag.
    #[must_use]
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(SplitStrategy::HullIntegral),
            1 => Some(SplitStrategy::WidestMu),
            2 => Some(SplitStrategy::MinVolume),
            _ => None,
        }
    }
}

/// On-disk representation of leaf entries.
///
/// [`LeafFormat::Quantised`] stores every `μ` and `σ` as an `f32`
/// (entry layout `id + 4d + 4d` bytes instead of `id + 8d + 8d`), roughly
/// doubling leaf fan-out — fewer leaf pages, fewer physical reads (the
/// paper's Figure-7 metric). Parameters are quantised **once at ingest**
/// (see `pfv::quant`): the tree stores the widened `f64` of each rounded
/// `f32`, so encode/decode is a lossless fixpoint and every query remains
/// exact — and bit-identical between a working tree and a reopened one —
/// *over the stored parameters*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LeafFormat {
    /// Full-precision `f64` leaf entries (the classic format).
    #[default]
    Exact,
    /// `f32`-quantised leaf entries (~2x leaf fan-out).
    Quantised,
}

impl LeafFormat {
    /// Stable on-disk tag (persisted in the meta page).
    #[must_use]
    pub fn to_tag(self) -> u8 {
        match self {
            LeafFormat::Exact => 0,
            LeafFormat::Quantised => 1,
        }
    }

    /// Parses an on-disk tag.
    #[must_use]
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(LeafFormat::Exact),
            1 => Some(LeafFormat::Quantised),
            _ => None,
        }
    }
}

/// Configuration of a [`crate::GaussTree`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeConfig {
    /// Dimensionality `d` of the indexed pfv.
    pub dims: usize,
    /// Lemma-1 combination mode used by all queries.
    pub combine: CombineMode,
    /// Node split strategy.
    pub split: SplitStrategy,
    /// On-disk leaf entry representation.
    pub leaf_format: LeafFormat,
    /// Optional cap on leaf entries (defaults to what fits in a page).
    pub max_leaf_entries: Option<usize>,
    /// Optional cap on inner entries (defaults to what fits in a page).
    pub max_inner_entries: Option<usize>,
}

impl TreeConfig {
    /// Default configuration for dimensionality `dims`.
    ///
    /// # Panics
    /// Panics if `dims == 0`.
    #[must_use]
    pub fn new(dims: usize) -> Self {
        assert!(dims > 0, "dimensionality must be positive");
        Self {
            dims,
            combine: CombineMode::default(),
            split: SplitStrategy::default(),
            leaf_format: LeafFormat::default(),
            max_leaf_entries: None,
            max_inner_entries: None,
        }
    }

    /// Sets the Lemma-1 combination mode.
    #[must_use]
    pub fn with_combine(mut self, mode: CombineMode) -> Self {
        self.combine = mode;
        self
    }

    /// Sets the split strategy.
    #[must_use]
    pub fn with_split(mut self, split: SplitStrategy) -> Self {
        self.split = split;
        self
    }

    /// Sets the on-disk leaf entry representation.
    #[must_use]
    pub fn with_leaf_format(mut self, format: LeafFormat) -> Self {
        self.leaf_format = format;
        self
    }

    /// Caps node capacities (mainly for tests that want tiny nodes).
    #[must_use]
    pub fn with_capacities(mut self, leaf: usize, inner: usize) -> Self {
        assert!(leaf >= 2 && inner >= 2, "capacities must be at least 2");
        self.max_leaf_entries = Some(leaf);
        self.max_inner_entries = Some(inner);
        self
    }

    /// Bytes [`TreeConfig::write_tags`] writes.
    pub(crate) const TAG_BYTES: usize = 4 + 1 + 1 + 1;

    /// Writes the persisted part of the configuration — dims, combine
    /// mode, split strategy, leaf format — as both commit payloads (tree
    /// meta, forest manifest) carry it. Capacities are not part of it.
    #[expect(clippy::expect_used, reason = "dims are far below u32::MAX")]
    pub(crate) fn write_tags(&self, w: &mut Writer<'_>) {
        w.put_u32(u32::try_from(self.dims).expect("dims fit u32"));
        w.put_u8(match self.combine {
            CombineMode::Convolution => 0,
            CombineMode::AdditiveSigma => 1,
        });
        w.put_u8(self.split.to_tag());
        w.put_u8(self.leaf_format.to_tag());
    }

    /// Reads what [`TreeConfig::write_tags`] wrote; `None` for zero dims,
    /// an unknown tag or a short buffer.
    pub(crate) fn read_tags(r: &mut Reader<'_>) -> Option<Self> {
        let dims = usize::try_from(r.get_u32().ok()?).ok()?;
        let combine = match r.get_u8().ok()? {
            0 => CombineMode::Convolution,
            1 => CombineMode::AdditiveSigma,
            _ => return None,
        };
        let split = SplitStrategy::from_tag(r.get_u8().ok()?)?;
        let leaf_format = LeafFormat::from_tag(r.get_u8().ok()?)?;
        if dims == 0 {
            return None;
        }
        Some(
            Self::new(dims)
                .with_combine(combine)
                .with_split(split)
                .with_leaf_format(leaf_format),
        )
    }

    /// Bytes of one serialised leaf entry: object id + `d` means + `d` σs
    /// (8 bytes per value in the exact format, 4 in the quantised one).
    #[must_use]
    pub fn leaf_entry_bytes(&self) -> usize {
        crate::node::leaf_entry_bytes(self.dims, self.leaf_format)
    }

    /// Bytes of one serialised inner entry: child page + subtree count +
    /// `4d` bounds.
    #[must_use]
    pub fn inner_entry_bytes(&self) -> usize {
        crate::node::inner_entry_bytes(self.dims)
    }

    /// Maximum leaf entries for a given page size (paper: `2M`).
    ///
    /// # Panics
    /// Panics if the page cannot hold at least two entries.
    #[must_use]
    pub fn leaf_capacity(&self, page_size: usize) -> usize {
        let cap = (page_size - crate::node::NODE_HEADER_BYTES) / self.leaf_entry_bytes();
        let cap = self.max_leaf_entries.map_or(cap, |m| m.min(cap));
        assert!(
            cap >= 2,
            "page size {page_size} too small for 2 leaf entries of dimension {}",
            self.dims
        );
        cap
    }

    /// Maximum inner entries for a given page size (paper: `M`).
    ///
    /// # Panics
    /// Panics if the page cannot hold at least two entries.
    #[must_use]
    pub fn inner_capacity(&self, page_size: usize) -> usize {
        let cap = (page_size - crate::node::NODE_HEADER_BYTES) / self.inner_entry_bytes();
        let cap = self.max_inner_entries.map_or(cap, |m| m.min(cap));
        assert!(
            cap >= 2,
            "page size {page_size} too small for 2 inner entries of dimension {}",
            self.dims
        );
        cap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacities_scale_with_page_size() {
        let c = TreeConfig::new(27);
        // entry: 8 + 16*27 = 440 bytes; 8 KiB page minus header.
        let leaf = c.leaf_capacity(8192);
        assert_eq!(leaf, (8192 - crate::node::NODE_HEADER_BYTES) / 440);
        assert!(leaf >= 18);
        // inner: 16 + 16*27 = 448 bytes (f32 bounds)
        let inner = c.inner_capacity(8192);
        assert_eq!(inner, (8192 - crate::node::NODE_HEADER_BYTES) / 448);
        // Half-size inner entries double the inner fan-out: 18, not 9.
        assert_eq!((leaf, inner), (18, 18));
    }

    #[test]
    fn explicit_caps_win_when_smaller() {
        let c = TreeConfig::new(2).with_capacities(4, 3);
        assert_eq!(c.leaf_capacity(8192), 4);
        assert_eq!(c.inner_capacity(8192), 3);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_pages_are_rejected() {
        let c = TreeConfig::new(27);
        let _ = c.leaf_capacity(256);
    }

    #[test]
    fn quantised_leaves_roughly_double_fanout() {
        let exact = TreeConfig::new(10);
        let quant = TreeConfig::new(10).with_leaf_format(LeafFormat::Quantised);
        assert_eq!(exact.leaf_entry_bytes(), 168);
        assert_eq!(quant.leaf_entry_bytes(), 88);
        let (le, lq) = (exact.leaf_capacity(4096), quant.leaf_capacity(4096));
        assert!(lq as f64 >= 1.8 * le as f64, "{lq} vs {le}");
        // Inner nodes are unaffected by the leaf format.
        assert_eq!(exact.inner_capacity(4096), quant.inner_capacity(4096));
    }

    #[test]
    fn leaf_format_tags_round_trip() {
        for f in [LeafFormat::Exact, LeafFormat::Quantised] {
            assert_eq!(LeafFormat::from_tag(f.to_tag()), Some(f));
        }
        assert_eq!(LeafFormat::from_tag(9), None);
    }

    #[test]
    fn persisted_tags_round_trip_and_refuse_unknown_values() {
        let config = TreeConfig::new(27)
            .with_combine(CombineMode::AdditiveSigma)
            .with_split(SplitStrategy::MinVolume)
            .with_leaf_format(LeafFormat::Quantised);
        let mut buf = [0u8; TreeConfig::TAG_BYTES];
        config.write_tags(&mut Writer::new(&mut buf));
        assert_eq!(buf, [27, 0, 0, 0, 1, 2, 1], "the persisted layout");
        assert_eq!(TreeConfig::read_tags(&mut Reader::new(&buf)), Some(config));
        for (at, bad) in [(0, 0), (4, 2), (5, 3), (6, 2)] {
            let mut hostile = buf;
            hostile[at] = bad;
            assert_eq!(TreeConfig::read_tags(&mut Reader::new(&hostile)), None);
        }
        assert_eq!(TreeConfig::read_tags(&mut Reader::new(&buf[..6])), None);
    }

    #[test]
    fn split_strategy_tags_round_trip() {
        for s in [
            SplitStrategy::HullIntegral,
            SplitStrategy::WidestMu,
            SplitStrategy::MinVolume,
        ] {
            assert_eq!(SplitStrategy::from_tag(s.to_tag()), Some(s));
        }
        assert_eq!(SplitStrategy::from_tag(99), None);
    }
}
