//! Node layouts and page (de)serialisation.
//!
//! A page holds exactly one node. Layout:
//!
//! ```text
//! [kind: u8] [count: u16] [reserved: 5 bytes]
//! leaf entry   := [id: u64] [means: d × f64] [sigmas: d × f64]
//! leaf-q entry := [id: u64] [means: d × f32] [sigmas: d × f32]
//! inner entry  := [child: u64] [subtree count: u64]
//!                 [per dim: mu_lo, mu_hi, sigma_lo, sigma_hi : f32]
//! ```
//!
//! Which leaf layout a tree uses is fixed at creation by
//! [`LeafFormat`] and persisted in the meta page; the node kind byte is
//! validated against it on every decode, so an exact tree can never
//! silently misread a quantised page (or vice versa). Quantised leaves
//! narrow with [`pfv::quant::to_f32_exact`] — ingest already stored the
//! widened `f32` value, so encoding is lossless and a decoded node
//! compares equal to the staged one.
//!
//! # Inner rectangles are `f32`, rounded outward
//!
//! An inner entry is `16 + 16·d` bytes, half of what `f64` bounds take, so
//! an inner page holds twice the children (d = 27 on 8 KiB: 18, not 9) and
//! a query reads fewer inner pages. Every leaf format shares it. The
//! encoder rounds each bound away from the rectangle's inside
//! ([`pfv::quant::round_outward`]): `μ̌` and `σ̌` down, `μ̂` and `σ̂` up to
//! the nearest `f32`. The stored rectangle therefore contains the exact
//! union of its child, the Lemma-2 bound over it can only rise and the
//! Lemma-3 bound only fall, and pruning stays conservative; what a
//! rectangle loses is tightness, by at most one `f32` step per bound.
//! Rounding is idempotent, so a decoded rectangle that is written again
//! (the batch insert rewrites its parents) is stored unchanged, and
//! `check.rs` holds every stored rectangle to the outward rounding of its
//! child's exact union.
//!
//! A bound beyond the `f32` range (`|μ| > 3.4e38`, `σ > 3.4e38`, which an
//! exact leaf stores as it is) rounds to `±∞` on its **outer** side: `μ̌`
//! to `−∞`, `μ̂` or `σ̂` to `+∞`. Lemmas 2–3 over such a rectangle are
//! still bounds (the plateau and ridge cases take over), and the split
//! cost of a rectangle with an infinite bound is `+∞`, never NaN. The
//! decoder accepts infinity there and nowhere else: NaN, `μ̌ = +∞`,
//! `μ̂ = −∞`, a non-finite `σ̌`, a `σ` bound below 0 and reversed bounds
//! are refused, as the leaf decoder refuses a negative `σ`.
//!
//! # Decoding: one parser, two sinks
//!
//! Everything that can be wrong with a page is checked in one place. The
//! private `Entries::parse` reads the header, matches the kind byte
//! against the tree's [`LeafFormat`] and makes the **one** length check —
//! `NODE_HEADER_BYTES + count × entry_bytes ≤ page.len()`, before anything
//! is allocated for a count that came from disk — and hands out the page
//! as exactly-one-entry slices. `leaf_entry` and `inner_entries` turn such
//! a slice into values with fixed-width little-endian loads and apply the
//! value rules: those of [`Pfv::new`](pfv::Pfv::new) for a leaf (finite `μ`
//! and `σ`, `σ ≥ 0`, `σ` raised to `MIN_SIGMA`), a valid child pointer and
//! bounds the encoder can write (above) for an inner entry. Two sinks
//! receive the values:
//!
//! * [`Node::read_from`](crate::node::Node::read_from) — the **row form**,
//!   a `Vec` of [`LeafEntry`](crate::node::LeafEntry) or
//!   [`InnerEntry`](crate::node::InnerEntry). For whoever edits or walks
//!   entries: insert, split and delete, `check.rs`, `for_each_entry`, the
//!   repo benchmark's probes.
//! * [`CachedNode::read_from`] — the **query form**. A leaf's `μ`/`σ` go
//!   from the page bytes straight to their slots in a
//!   [`ColumnarLeaf`](pfv::batch::ColumnarLeaf) (which derives `σ²`,
//!   padding and peak bounds itself), an inner node's bounds to theirs in
//!   a [`ColumnarRects`](pfv::ColumnarRects) (which derives `σ²` and
//!   padding): no `LeafEntry`, no `Pfv`, no `InnerEntry`, no per-entry
//!   allocation. This is what a query pays on a node-cache miss — every
//!   page of a cold query, the first touch of every node of a warm one —
//!   and the only decoder on the read path (`Plane::read_node_cached`).
//!
//! The two agree by construction where they share code and by test where
//! they do not: `CachedNode::read_from(page)` equals
//! `Node::read_from(page)?.into_cached(dims)` to the bit, and is an error
//! exactly when that is one
//! ([`Node::into_cached`](crate::node::Node::into_cached) stays as that
//! reference).

use crate::config::LeafFormat;
use gauss_storage::codec::ShortBuffer;
use gauss_storage::{PageId, Writer};
use pfv::batch::ColumnarLeaf;
use pfv::{quant, ColumnarRects, CombineMode, DimBounds, ParamRect, Pfv, MIN_SIGMA};
use std::slice::ChunksExact;

/// Bytes reserved at the start of every node page.
pub const NODE_HEADER_BYTES: usize = 8;

const KIND_LEAF: u8 = 0;
const KIND_INNER: u8 = 1;
const KIND_LEAF_Q: u8 = 2;

/// Entry of a leaf node: one pfv plus the external object id.
#[derive(Debug, Clone, PartialEq)]
pub struct LeafEntry {
    /// External object identifier.
    pub id: u64,
    /// The stored probabilistic feature vector.
    pub pfv: Pfv,
}

/// Entry of an inner node: a child pointer, the number of pfv in the child's
/// subtree (needed for the `n·Ň ≤ Σ ≤ n·N̂` sum bounds of §5.2.2), and the
/// parameter-space MBR of the subtree.
#[derive(Debug, Clone, PartialEq)]
pub struct InnerEntry {
    /// Child page.
    pub child: PageId,
    /// Number of pfv stored below `child`.
    pub count: u64,
    /// Parameter-space bounds of the subtree.
    pub rect: ParamRect,
}

/// A deserialised node.
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// Leaf level: stores pfv.
    Leaf(Vec<LeafEntry>),
    /// Inner level: stores child descriptors.
    Inner(Vec<InnerEntry>),
}

/// A decoded leaf in query-ready columnar form: the external ids plus the
/// struct-of-arrays feature columns the batched Lemma-1 kernel
/// ([`pfv::batch::log_densities`]) consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnarLeafNode {
    /// External object ids, in entry order.
    pub ids: Box<[u64]>,
    /// Per-dimension contiguous `μ`/`σ`/`σ²` columns.
    pub columns: ColumnarLeaf,
}

/// A decoded inner node in query-ready columnar form: the children's pages
/// and subtree counts, and their parameter rectangles as the columns the
/// screen and exact hull kernels of [`pfv::rects`] read.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnarInnerNode {
    /// `(child page, subtree count)` of every entry, in entry order.
    pub children: Box<[(PageId, u64)]>,
    /// The entries' parameter rectangles, in entry order.
    pub rects: ColumnarRects,
}

impl ColumnarInnerNode {
    fn from_entries(dims: usize, es: &[InnerEntry]) -> Self {
        Self {
            children: es.iter().map(|e| (e.child, e.count)).collect(),
            rects: ColumnarRects::from_rects(dims, es.iter().map(|e| &e.rect)),
        }
    }
}

/// A node decoded once and cached for the read path (see
/// [`crate::GaussTree`]'s node cache): both levels are materialized as
/// columns.
#[derive(Debug, Clone, PartialEq)]
pub enum CachedNode {
    /// Leaf level, columnar.
    Leaf(ColumnarLeafNode),
    /// Inner level, columnar.
    Inner(ColumnarInnerNode),
}

/// Conservative bounds `(ln N̂, ln Ň)` of every child of an inner node for
/// query `q`, priced in one sweep over the entry vector (fused Lemma-2/3
/// evaluation via [`ParamRect::log_bounds_for_query`]). Bit-identical to
/// calling `log_upper_for_query` and `log_lower_for_query` per child.
///
/// # Panics
/// Panics on dimensionality mismatch.
#[must_use]
pub fn children_log_hulls(entries: &[InnerEntry], q: &Pfv, mode: CombineMode) -> Vec<(f64, f64)> {
    entries
        .iter()
        .map(|e| e.rect.log_bounds_for_query(q, mode))
        .collect()
}

/// Errors from node (de)serialisation.
#[derive(Debug)]
pub enum NodeCodecError {
    /// The page did not contain a valid node.
    Corrupt(&'static str),
    /// Buffer ran short while decoding.
    Short(gauss_storage::codec::ShortBuffer),
}

impl std::fmt::Display for NodeCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeCodecError::Corrupt(what) => write!(f, "corrupt node page: {what}"),
            NodeCodecError::Short(e) => write!(f, "corrupt node page: {e}"),
        }
    }
}

impl std::error::Error for NodeCodecError {}

impl From<gauss_storage::codec::ShortBuffer> for NodeCodecError {
    fn from(e: gauss_storage::codec::ShortBuffer) -> Self {
        NodeCodecError::Short(e)
    }
}

impl Node {
    /// Whether this is a leaf node.
    #[must_use]
    pub fn is_leaf(&self) -> bool {
        matches!(self, Node::Leaf(_))
    }

    /// Converts the node into its cached, query-ready representation,
    /// materializing leaves as [`ColumnarLeafNode`]s and inner nodes as
    /// [`ColumnarInnerNode`]s. The read path decodes pages with
    /// [`CachedNode::read_from`] instead; this transpose is the reference
    /// that decoder is tested against, and what a caller holding a
    /// row-form node uses.
    #[must_use]
    pub fn into_cached(self, dims: usize) -> CachedNode {
        match self {
            Node::Leaf(es) => CachedNode::Leaf(ColumnarLeafNode {
                ids: es.iter().map(|e| e.id).collect(),
                columns: ColumnarLeaf::from_pfvs(dims, es.iter().map(|e| &e.pfv)),
            }),
            Node::Inner(es) => CachedNode::Inner(ColumnarInnerNode::from_entries(dims, &es)),
        }
    }

    /// Number of entries in the node.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            Node::Leaf(es) => es.len(),
            Node::Inner(es) => es.len(),
        }
    }

    /// Whether the node has no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of pfv stored in the subtree rooted at this node.
    #[must_use]
    pub fn subtree_count(&self) -> u64 {
        match self {
            Node::Leaf(es) => es.len() as u64,
            Node::Inner(es) => es.iter().map(|e| e.count).sum(),
        }
    }

    /// Parameter-space MBR of everything below this node.
    ///
    /// # Panics
    /// Panics on an empty node (an empty node has no bounds).
    #[must_use]
    pub fn bounding_rect(&self) -> ParamRect {
        match self {
            Node::Leaf(es) => {
                assert!(!es.is_empty(), "empty leaf has no bounds");
                ParamRect::covering(es.iter().map(|e| &e.pfv))
            }
            Node::Inner(es) => {
                assert!(!es.is_empty(), "empty inner node has no bounds");
                let mut rect = es[0].rect.clone();
                for e in &es[1..] {
                    rect.extend_rect(&e.rect);
                }
                rect
            }
        }
    }

    /// Serialises the node into a page buffer using the tree's leaf
    /// `format`; inner rectangles are rounded outward to `f32` (see the
    /// [module docs](self)).
    ///
    /// # Panics
    /// Panics if the node does not fit the page (capacity violations are
    /// caught by the tree before writing), or — for
    /// [`LeafFormat::Quantised`] — if a leaf value is not exactly
    /// `f32`-representable (ingest quantises every stored parameter, so
    /// this indicates in-memory corruption, not a data error).
    #[expect(clippy::expect_used, reason = "entry counts are far below u16::MAX")]
    pub fn write_to(&self, dims: usize, format: LeafFormat, page: &mut [u8]) {
        let mut w = Writer::new(page);
        match self {
            Node::Leaf(es) if format == LeafFormat::Quantised => {
                w.put_u8(KIND_LEAF_Q);
                w.put_u16(u16::try_from(es.len()).expect("node entry count fits u16"));
                for _ in 0..(NODE_HEADER_BYTES - 3) {
                    w.put_u8(0);
                }
                for e in es {
                    debug_assert_eq!(e.pfv.dims(), dims);
                    w.put_u64(e.id);
                    for &m in e.pfv.means() {
                        w.put_f32(quant::to_f32_exact(m));
                    }
                    for &s in e.pfv.sigmas() {
                        w.put_f32(quant::to_f32_exact(s));
                    }
                }
            }
            Node::Leaf(es) => {
                w.put_u8(KIND_LEAF);
                w.put_u16(u16::try_from(es.len()).expect("node entry count fits u16"));
                for _ in 0..(NODE_HEADER_BYTES - 3) {
                    w.put_u8(0);
                }
                for e in es {
                    debug_assert_eq!(e.pfv.dims(), dims);
                    w.put_u64(e.id);
                    w.put_f64_slice(e.pfv.means());
                    w.put_f64_slice(e.pfv.sigmas());
                }
            }
            Node::Inner(es) => {
                w.put_u8(KIND_INNER);
                w.put_u16(u16::try_from(es.len()).expect("node entry count fits u16"));
                for _ in 0..(NODE_HEADER_BYTES - 3) {
                    w.put_u8(0);
                }
                for e in es {
                    debug_assert_eq!(e.rect.dims(), dims);
                    w.put_u64(e.child.index());
                    w.put_u64(e.count);
                    for d in e.rect.as_slice() {
                        for bound in quant::round_outward(d) {
                            w.put_f32(bound);
                        }
                    }
                }
            }
        }
    }

    /// Deserialises a node from a page buffer, validating the node kind
    /// against the tree's leaf `format` — the row-form sink of the page
    /// parser (see the [module docs](self)).
    ///
    /// # Errors
    /// [`NodeCodecError`] on malformed pages, including a leaf kind byte
    /// that does not match `format` and an entry count the page cannot
    /// hold.
    pub fn read_from(dims: usize, format: LeafFormat, page: &[u8]) -> Result<Node, NodeCodecError> {
        match Entries::parse(dims, format, page)? {
            Entries::Leaf(entries) => {
                let mut es = Vec::with_capacity(entries.len());
                for entry in entries {
                    let (mut means, mut sigmas) = (vec![0.0; dims], vec![0.0; dims]);
                    let id = leaf_entry(entry, format, |d, m, s| {
                        means[d] = m;
                        sigmas[d] = s;
                    })?;
                    let pfv = Pfv::new(means, sigmas).map_err(|_| INVALID_PFV)?;
                    es.push(LeafEntry { id, pfv });
                }
                Ok(Node::Leaf(es))
            }
            Entries::Inner(entries) => inner_entries(entries).map(Node::Inner),
        }
    }
}

impl CachedNode {
    /// Decodes a page straight into query-ready form — the columnar sink
    /// of the page parser (see the [module docs](self)): `μ`/`σ` and an
    /// inner node's bounds go from the page bytes to their column slots
    /// with no [`LeafEntry`], no [`Pfv`], no [`InnerEntry`] and no
    /// per-entry allocation. Equal, to the bit, to
    /// `Node::read_from(dims, format, page)?.into_cached(dims)`, and an
    /// error exactly when that is one.
    ///
    /// # Errors
    /// As [`Node::read_from`].
    pub fn read_from(
        dims: usize,
        format: LeafFormat,
        page: &[u8],
    ) -> Result<CachedNode, NodeCodecError> {
        match Entries::parse(dims, format, page)? {
            Entries::Leaf(entries) => {
                let mut ids = Vec::with_capacity(entries.len());
                let columns = ColumnarLeaf::try_fill(dims, entries.len(), |mu, sigma, stride| {
                    for (e, entry) in entries.enumerate() {
                        // Reborrowed and moved in: a closure that captured
                        // `mu`/`sigma` by reference would reload both slice
                        // headers per value (measured: +25 % per leaf).
                        let (mu, sigma) = (&mut *mu, &mut *sigma);
                        ids.push(leaf_entry(entry, format, move |d, m, s| {
                            mu[d * stride + e] = m;
                            sigma[d * stride + e] = s;
                        })?);
                    }
                    Ok::<(), NodeCodecError>(())
                })?;
                Ok(CachedNode::Leaf(ColumnarLeafNode {
                    ids: ids.into_boxed_slice(),
                    columns,
                }))
            }
            Entries::Inner(entries) => {
                let mut children = Vec::with_capacity(entries.len());
                let rects = ColumnarRects::try_fill(dims, entries.len(), |fill| {
                    for (e, entry) in entries.enumerate() {
                        children.push(inner_entry(entry, |d, bounds| fill.put(e, d, bounds))?);
                    }
                    Ok::<(), NodeCodecError>(())
                })?;
                Ok(CachedNode::Inner(ColumnarInnerNode {
                    children: children.into_boxed_slice(),
                    rects,
                }))
            }
        }
    }
}

const INVALID_PFV: NodeCodecError = NodeCodecError::Corrupt("invalid pfv in leaf");

/// Bytes of one leaf entry: the id plus `d` means and `d` sigmas, `f64`
/// ([`LeafFormat::Exact`]) or `f32` ([`LeafFormat::Quantised`]).
pub(crate) const fn leaf_entry_bytes(dims: usize, format: LeafFormat) -> usize {
    match format {
        LeafFormat::Exact => 8 + 16 * dims,
        LeafFormat::Quantised => 8 + 8 * dims,
    }
}

/// Bytes of one inner entry: child pointer, subtree count and four `f32`
/// bounds per dimension.
pub(crate) const fn inner_entry_bytes(dims: usize) -> usize {
    16 + 16 * dims
}

/// The one page parser: a node page whose header, kind byte and length
/// have been checked, as the entry slices both decoders iterate. Every
/// slice is exactly one entry long, so nothing downstream can run short.
enum Entries<'a> {
    /// Leaf entries, in the layout of the `format` that was asked for.
    Leaf(ChunksExact<'a, u8>),
    Inner(ChunksExact<'a, u8>),
}

impl<'a> Entries<'a> {
    fn parse(dims: usize, format: LeafFormat, page: &'a [u8]) -> Result<Self, NodeCodecError> {
        let Some((&[kind, count_lo, count_hi, ..], body)) =
            page.split_first_chunk::<NODE_HEADER_BYTES>()
        else {
            return Err(NodeCodecError::Short(ShortBuffer {
                wanted: NODE_HEADER_BYTES,
                remaining: page.len(),
            }));
        };
        let entry_bytes = match kind {
            KIND_LEAF | KIND_LEAF_Q => {
                let expected = match format {
                    LeafFormat::Exact => KIND_LEAF,
                    LeafFormat::Quantised => KIND_LEAF_Q,
                };
                if kind != expected {
                    return Err(NodeCodecError::Corrupt(
                        "leaf kind does not match tree leaf format",
                    ));
                }
                leaf_entry_bytes(dims, format)
            }
            KIND_INNER => inner_entry_bytes(dims),
            _ => return Err(NodeCodecError::Corrupt("unknown node kind")),
        };
        // The one length check, before anything is sized by a count that
        // came from disk.
        let wanted =
            usize::from(u16::from_le_bytes([count_lo, count_hi])).saturating_mul(entry_bytes);
        let Some(entries) = body.get(..wanted) else {
            return Err(NodeCodecError::Short(ShortBuffer {
                wanted,
                remaining: body.len(),
            }));
        };
        let entries = entries.chunks_exact(entry_bytes);
        Ok(if kind == KIND_INNER {
            Entries::Inner(entries)
        } else {
            Entries::Leaf(entries)
        })
    }
}

/// Decodes one leaf entry: returns its id and hands `put` each dimension's
/// `(d, μ, σ)` under exactly [`Pfv::new`]'s rules — a non-finite value or a
/// negative `σ` is an error, a `σ` below [`MIN_SIGMA`] is raised to it.
/// Quantised values widen `f32 → f64` exactly, so the decoded entry is
/// bit-identical to the staged one. On an error `put` may have seen some
/// of the entry's values; the caller discards what it built.
fn leaf_entry(
    entry: &[u8],
    format: LeafFormat,
    put: impl FnMut(usize, f64, f64),
) -> Result<u64, NodeCodecError> {
    // `entry` is one whole entry (`Entries::parse`), so the id is there.
    let Some((id, params)) = entry.split_first_chunk::<8>() else {
        return Err(INVALID_PFV);
    };
    let valid = match format {
        LeafFormat::Exact => leaf_params(params.as_chunks().0, f64::from_le_bytes, put),
        LeafFormat::Quantised => {
            let widen = |w: [u8; 4]| f64::from(f32::from_le_bytes(w));
            leaf_params(params.as_chunks().0, widen, put)
        }
    };
    if valid {
        Ok(u64::from_le_bytes(*id))
    } else {
        Err(INVALID_PFV)
    }
}

/// The body of [`leaf_entry`] for one stored width: `words` holds the `d`
/// means, then the `d` sigmas. Returns whether every value was valid.
fn leaf_params<const W: usize>(
    words: &[[u8; W]],
    widen: impl Fn([u8; W]) -> f64,
    mut put: impl FnMut(usize, f64, f64),
) -> bool {
    let (means, sigmas) = words.split_at(words.len() / 2);
    let mut valid = true;
    for (d, (&m, &s)) in means.iter().zip(sigmas).enumerate() {
        let (m, s) = (widen(m), widen(s));
        valid &= m.is_finite() && s.is_finite() && s >= 0.0;
        put(d, m, if s < MIN_SIGMA { MIN_SIGMA } else { s });
    }
    valid
}

/// Decodes the entries of an inner page into the row form.
fn inner_entries(entries: ChunksExact<'_, u8>) -> Result<Vec<InnerEntry>, NodeCodecError> {
    let mut es = Vec::with_capacity(entries.len());
    for entry in entries {
        let mut ds = Vec::with_capacity(entry.len() / 16);
        let (child, count) = inner_entry(entry, |_, [mu_lo, mu_hi, sigma_lo, sigma_hi]| {
            ds.push(DimBounds::new(mu_lo, mu_hi, sigma_lo, sigma_hi));
        })?;
        es.push(InnerEntry {
            child,
            count,
            rect: ParamRect::from_dims(ds),
        });
    }
    Ok(es)
}

/// Decodes one inner entry: returns its child page and subtree count and
/// hands `put` each dimension's `(d, [μ̌, μ̂, σ̌, σ̂])`, widened to `f64`,
/// once it has checked that the encoder could have written them — what
/// [`DimBounds::new`] asserts (no NaN, infinite on the outer side only,
/// ordered) and no `σ` below 0. On an error `put` may have seen some of the
/// entry's dimensions; the caller discards what it built.
fn inner_entry(
    entry: &[u8],
    mut put: impl FnMut(usize, [f64; 4]),
) -> Result<(PageId, u64), NodeCodecError> {
    // `entry` is one whole entry (`Entries::parse`): both words are there.
    let ([child, count, ..], _) = entry.as_chunks::<8>() else {
        return Err(NodeCodecError::Corrupt("invalid bounds"));
    };
    let child = PageId(u64::from_le_bytes(*child));
    if !child.is_valid() {
        return Err(NodeCodecError::Corrupt("invalid child pointer"));
    }
    let words = entry[16..].as_chunks::<4>().0;
    for (d, dim) in words.as_chunks::<4>().0.iter().enumerate() {
        let bounds @ [mu_lo, mu_hi, sigma_lo, sigma_hi] =
            dim.map(|w| f64::from(f32::from_le_bytes(w)));
        // Each comparison is false on a NaN, so a NaN anywhere fails one.
        let valid = mu_lo < f64::INFINITY
            && mu_hi > f64::NEG_INFINITY
            && mu_lo <= mu_hi
            && sigma_lo.is_finite()
            && 0.0 <= sigma_lo
            && sigma_lo <= sigma_hi;
        if !valid {
            return Err(NodeCodecError::Corrupt("invalid bounds"));
        }
        put(d, bounds);
    }
    Ok((child, u64::from_le_bytes(*count)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_leaf() -> Node {
        Node::Leaf(vec![
            LeafEntry {
                id: 7,
                pfv: Pfv::new(vec![1.0, 2.0], vec![0.1, 0.2]).unwrap(),
            },
            LeafEntry {
                id: 42,
                pfv: Pfv::new(vec![-3.5, 0.0], vec![0.5, 1.5]).unwrap(),
            },
        ])
    }

    /// An inner node whose bounds are all exactly f32-representable, as
    /// every decoded rectangle is.
    fn sample_inner() -> Node {
        Node::Inner(vec![
            InnerEntry {
                child: PageId(3),
                count: 10,
                rect: ParamRect::from_dims(vec![
                    DimBounds::new(0.0, 1.0, 0.125, 0.25),
                    DimBounds::new(-1.0, 2.0, 0.375, 0.875),
                ]),
            },
            InnerEntry {
                child: PageId(9),
                count: 4,
                rect: ParamRect::from_dims(vec![
                    DimBounds::new(5.0, 6.0, 0.125, 0.125),
                    DimBounds::new(5.0, 5.0, 0.25, 0.5),
                ]),
            },
        ])
    }

    /// A leaf whose values are all exactly f32-representable (as ingest
    /// guarantees for a quantised tree).
    fn sample_leaf_q() -> Node {
        let quantise = |v: &Pfv| {
            let means: Vec<f64> = v
                .means()
                .iter()
                .map(|&m| f64::from(pfv::quant::quantise_mu(m).unwrap()))
                .collect();
            let sigmas: Vec<f64> = v
                .sigmas()
                .iter()
                .map(|&s| f64::from(pfv::quant::quantise_sigma(s).unwrap()))
                .collect();
            Pfv::new(means, sigmas).unwrap()
        };
        Node::Leaf(vec![
            LeafEntry {
                id: 7,
                pfv: quantise(&Pfv::new(vec![1.1, 2.7], vec![0.13, 0.21]).unwrap()),
            },
            LeafEntry {
                id: 42,
                pfv: quantise(&Pfv::new(vec![-3.51, 0.004], vec![0.57, 1.53]).unwrap()),
            },
        ])
    }

    #[test]
    fn leaf_round_trip() {
        let node = sample_leaf();
        let mut page = vec![0u8; 4096];
        node.write_to(2, LeafFormat::Exact, &mut page);
        let back = Node::read_from(2, LeafFormat::Exact, &page).unwrap();
        assert_eq!(back, node);
    }

    #[test]
    fn quantised_leaf_round_trip_is_bit_exact() {
        let node = sample_leaf_q();
        let mut page = vec![0u8; 4096];
        node.write_to(2, LeafFormat::Quantised, &mut page);
        assert_eq!(page[0], 2, "quantised leaves use their own kind byte");
        let back = Node::read_from(2, LeafFormat::Quantised, &page).unwrap();
        assert_eq!(back, node);
    }

    #[test]
    fn quantised_entries_are_half_the_size() {
        let node = sample_leaf_q();
        let mut exact = vec![0u8; 4096];
        let mut quant = vec![0u8; 4096];
        node.write_to(2, LeafFormat::Exact, &mut exact);
        node.write_to(2, LeafFormat::Quantised, &mut quant);
        // 2 entries × (8 + 2·8·f64) vs 2 entries × (8 + 2·8·f32): find the
        // last non-zero byte as a proxy for the payload extent.
        let used = |p: &[u8]| p.iter().rposition(|&b| b != 0).unwrap() + 1;
        assert!(used(&quant) < used(&exact));
        assert!(used(&quant) <= NODE_HEADER_BYTES + 2 * (8 + 2 * 4 + 2 * 4));
    }

    #[test]
    fn leaf_kind_must_match_format() {
        let node = sample_leaf_q();
        let mut page = vec![0u8; 4096];
        node.write_to(2, LeafFormat::Quantised, &mut page);
        let err = Node::read_from(2, LeafFormat::Exact, &page).unwrap_err();
        assert!(err.to_string().contains("leaf format"), "{err}");
        let mut page = vec![0u8; 4096];
        node.write_to(2, LeafFormat::Exact, &mut page);
        let err = Node::read_from(2, LeafFormat::Quantised, &page).unwrap_err();
        assert!(err.to_string().contains("leaf format"), "{err}");
        // Inner nodes are format-agnostic.
        let inner = sample_inner();
        let mut page = vec![0u8; 4096];
        inner.write_to(2, LeafFormat::Quantised, &mut page);
        assert!(Node::read_from(2, LeafFormat::Exact, &page).is_ok());
    }

    #[test]
    #[should_panic(expected = "not exactly f32-representable")]
    fn quantised_encode_rejects_unquantised_values() {
        // 0.1 is not f32-exact — staging such a leaf into a quantised tree
        // is a bug upstream (ingest must quantise), and must not silently
        // lose precision.
        let node = sample_leaf();
        let mut page = vec![0u8; 4096];
        node.write_to(2, LeafFormat::Quantised, &mut page);
    }

    #[test]
    fn inner_round_trip() {
        let node = sample_inner();
        let mut page = vec![0u8; 4096];
        node.write_to(2, LeafFormat::Exact, &mut page);
        let back = Node::read_from(2, LeafFormat::Exact, &page).unwrap();
        assert_eq!(back, node);
    }

    #[test]
    fn inner_rectangles_are_stored_rounded_outward() {
        let exact = ParamRect::from_dims(vec![
            DimBounds::new(-0.1, 0.3, MIN_SIGMA, 0.7),
            DimBounds::new(-1e200, 1e200, 0.2, 1e300),
        ]);
        let node = Node::Inner(vec![InnerEntry {
            child: PageId(3),
            count: 2,
            rect: exact.clone(),
        }]);
        let mut page = vec![0u8; 4096];
        node.write_to(2, LeafFormat::Exact, &mut page);
        assert!(page[NODE_HEADER_BYTES + inner_entry_bytes(2)..]
            .iter()
            .all(|&b| b == 0));
        let Node::Inner(back) = Node::read_from(2, LeafFormat::Exact, &page).unwrap() else {
            panic!("an inner page decodes as inner");
        };
        let stored = &back[0].rect;
        assert!(stored.contains_rect(&exact));
        for (s, e) in stored.as_slice().iter().zip(exact.as_slice()) {
            assert_eq!(*s, quant::rounded_outward(e));
        }
        // Beyond the f32 range a bound goes infinite on its outer side.
        let far = stored.dim(1);
        assert_eq!((far.mu_lo, far.mu_hi), (f64::NEG_INFINITY, f64::INFINITY));
        assert_eq!(far.sigma_hi, f64::INFINITY);
        assert!(far.sigma_lo.is_finite());
        // Writing the decoded node again stores the same bytes.
        let mut again = vec![0u8; 4096];
        Node::Inner(back).write_to(2, LeafFormat::Exact, &mut again);
        assert_eq!(again, page);
    }

    #[test]
    fn subtree_counts() {
        assert_eq!(sample_leaf().subtree_count(), 2);
        assert_eq!(sample_inner().subtree_count(), 14);
    }

    #[test]
    fn bounding_rect_covers_entries() {
        let node = sample_leaf();
        let rect = node.bounding_rect();
        if let Node::Leaf(es) = &node {
            for e in es {
                assert!(rect.contains_pfv(&e.pfv));
            }
        }
        let inner = sample_inner();
        let rect = inner.bounding_rect();
        if let Node::Inner(es) = &inner {
            for e in es {
                assert!(rect.contains_rect(&e.rect));
            }
        }
    }

    #[test]
    fn rejects_unknown_kind() {
        let mut page = vec![0u8; 64];
        page[0] = 9;
        assert!(Node::read_from(2, LeafFormat::Exact, &page).is_err());
    }

    #[test]
    fn rejects_truncated_page() {
        let node = sample_leaf();
        let mut page = vec![0u8; 4096];
        node.write_to(2, LeafFormat::Exact, &mut page);
        // Cut the page short mid-entry.
        assert!(Node::read_from(2, LeafFormat::Exact, &page[..40]).is_err());
    }

    #[test]
    fn rejects_reversed_bounds() {
        let node = sample_inner();
        let mut page = vec![0u8; 4096];
        node.write_to(2, LeafFormat::Exact, &mut page);
        // Swap mu_lo/mu_hi of the first dim of the first entry:
        // header(8) + child(8) + count(8) = offset 24 for mu_lo (f32).
        let (mu_lo, mu_hi) = (page[24..28].to_vec(), page[28..32].to_vec());
        page[24..28].copy_from_slice(&mu_hi);
        page[28..32].copy_from_slice(&mu_lo);
        assert!(Node::read_from(2, LeafFormat::Exact, &page).is_err());
    }

    #[test]
    fn into_cached_round_trips_leaf_content() {
        let node = sample_leaf();
        let Node::Leaf(es) = node.clone() else {
            unreachable!()
        };
        let CachedNode::Leaf(leaf) = node.into_cached(2) else {
            panic!("leaf must cache as columnar leaf");
        };
        assert_eq!(leaf.ids.as_ref(), &[7, 42]);
        for (e, entry) in es.iter().enumerate() {
            assert_eq!(leaf.columns.pfv(e), entry.pfv);
        }
    }

    #[test]
    fn into_cached_keeps_inner_entries() {
        let node = sample_inner();
        let Node::Inner(es) = node.clone() else {
            unreachable!()
        };
        let CachedNode::Inner(cached) = node.into_cached(2) else {
            panic!("inner must cache as inner");
        };
        assert_eq!(cached.children.len(), es.len());
        assert_eq!(cached.rects.len(), es.len());
        for (i, e) in es.iter().enumerate() {
            assert_eq!(cached.children[i], (e.child, e.count));
            for d in 0..2 {
                assert_eq!(cached.rects.bounds(i, d), *e.rect.dim(d));
            }
        }
    }

    #[test]
    fn children_log_hulls_match_per_child_bounds() {
        let Node::Inner(es) = sample_inner() else {
            unreachable!()
        };
        let q = Pfv::new(vec![0.5, 1.0], vec![0.2, 0.3]).unwrap();
        for mode in [CombineMode::Convolution, CombineMode::AdditiveSigma] {
            let hulls = children_log_hulls(&es, &q, mode);
            assert_eq!(hulls.len(), es.len());
            for (h, e) in hulls.iter().zip(es.iter()) {
                assert_eq!(
                    h.0.to_bits(),
                    e.rect.log_upper_for_query(&q, mode).to_bits()
                );
                assert_eq!(
                    h.1.to_bits(),
                    e.rect.log_lower_for_query(&q, mode).to_bits()
                );
            }
        }
    }

    #[test]
    fn header_size_matches_constant() {
        // If the header layout changes, capacity maths must change with it.
        let node = Node::Leaf(vec![]);
        let mut page = vec![0u8; 64];
        node.write_to(2, LeafFormat::Exact, &mut page);
        let r = Node::read_from(2, LeafFormat::Exact, &page).unwrap();
        assert!(r.is_empty());
    }
}

/// The two sinks of the page parser against each other:
/// `CachedNode::read_from(page)` must equal
/// `Node::read_from(page)?.into_cached(dims)` on every page, valid or not.
#[cfg(test)]
mod decoder_props {
    use super::*;
    use proptest::prelude::*;

    const PAGE: usize = 8192;
    const DIMS: [usize; 5] = [1, 2, 10, 27, 64];
    const FORMATS: [LeafFormat; 2] = [LeafFormat::Exact, LeafFormat::Quantised];

    /// Entry counts that leave lane blocks empty, ragged and full: 0, 1, 3,
    /// 4, 5 and the page capacity (`choice` 5), all capped by the capacity.
    fn count_for(choice: usize, entry_bytes: usize) -> usize {
        let cap = (PAGE - NODE_HEADER_BYTES) / entry_bytes;
        [0, 1, 3, 4, 5, cap][choice].min(cap)
    }

    /// A xorshift stream of uniform values in `[0, 1)`.
    fn uniform(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed | 1;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// A zeroed page and a writer past its header. Tests write raw values
    /// so they can plant what `Node::write_to` would refuse to encode.
    fn raw_page(page: &mut [u8], kind: u8, count: usize) -> Writer<'_> {
        let mut w = Writer::new(page);
        w.put_u8(kind);
        w.put_u16(u16::try_from(count).unwrap());
        for _ in 3..NODE_HEADER_BYTES {
            w.put_u8(0);
        }
        w
    }

    fn put_param(w: &mut Writer<'_>, format: LeafFormat, v: f64) {
        match format {
            LeafFormat::Exact => w.put_f64(v),
            LeafFormat::Quantised => w.put_f32(v as f32),
        }
    }

    /// A leaf page of random means and of sigmas drawn from the clamp's
    /// edge cases (0, −0.0, below and at `MIN_SIGMA`) and ordinary values.
    fn leaf_page(dims: usize, format: LeafFormat, count: usize, seed: u64) -> Vec<u8> {
        let mut next = uniform(seed);
        let kind = match format {
            LeafFormat::Exact => KIND_LEAF,
            LeafFormat::Quantised => KIND_LEAF_Q,
        };
        let mut page = vec![0u8; PAGE];
        let mut w = raw_page(&mut page, kind, count);
        for _ in 0..count {
            w.put_u64((next() * 1e6) as u64);
            for _ in 0..dims {
                put_param(&mut w, format, next() * 200.0 - 100.0);
            }
            for _ in 0..dims {
                let edges = [0.0, -0.0, MIN_SIGMA / 2.0, MIN_SIGMA, 1e-3 + next()];
                put_param(&mut w, format, edges[(next() * 8.0) as usize % edges.len()]);
            }
        }
        page
    }

    /// An inner page of random rectangles as the encoder stores them, one
    /// dimension in eight beyond the `f32` range, so infinite outer bounds.
    fn inner_page(dims: usize, count: usize, seed: u64) -> Vec<u8> {
        let mut next = uniform(seed);
        let mut page = vec![0u8; PAGE];
        let mut w = raw_page(&mut page, KIND_INNER, count);
        for _ in 0..count {
            w.put_u64((next() * 1e6) as u64);
            w.put_u64((next() * 1e6) as u64);
            for _ in 0..dims {
                let (mu, sigma) = (next() * 200.0 - 100.0, next());
                let b = if next() < 0.125 {
                    DimBounds::new(-1e200 * next(), 1e200 * next(), sigma, 1e300 * next())
                } else {
                    DimBounds::new(mu, mu + next(), sigma, sigma + next())
                };
                for bound in quant::round_outward(&b) {
                    w.put_f32(bound);
                }
            }
        }
        page
    }

    /// Both decoders on one page: equal content (returns `true`) or both
    /// an error (`false`); anything else fails the test.
    fn decoders_agree(dims: usize, format: LeafFormat, page: &[u8]) -> bool {
        let direct = CachedNode::read_from(dims, format, page);
        let two_step = Node::read_from(dims, format, page).map(|n| n.into_cached(dims));
        match (direct, two_step) {
            (Ok(direct), Ok(two_step)) => {
                // Every column, padding lanes included, by value ...
                assert_eq!(direct, two_step);
                // ... and what a query can read, by bits.
                if let (CachedNode::Leaf(a), CachedNode::Leaf(b)) = (&direct, &two_step) {
                    let bits = |col: &[f64]| col.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    for d in 0..dims {
                        assert_eq!(bits(a.columns.mu_col(d)), bits(b.columns.mu_col(d)));
                        assert_eq!(bits(a.columns.sigma_col(d)), bits(b.columns.sigma_col(d)));
                        assert_eq!(bits(a.columns.var_col(d)), bits(b.columns.var_col(d)));
                    }
                    assert_eq!(
                        bits(a.columns.log_norm_col()),
                        bits(b.columns.log_norm_col())
                    );
                }
                if let (CachedNode::Inner(a), CachedNode::Inner(b)) = (&direct, &two_step) {
                    for (e, d) in (0..a.rects.len()).flat_map(|e| (0..dims).map(move |d| (e, d))) {
                        let (x, y) = (a.rects.bounds(e, d), b.rects.bounds(e, d));
                        let bits = |b: DimBounds| {
                            [b.mu_lo, b.mu_hi, b.sigma_lo, b.sigma_hi].map(f64::to_bits)
                        };
                        assert_eq!(bits(x), bits(y));
                    }
                }
                true
            }
            (Err(_), Err(_)) => false,
            (direct, two_step) => {
                panic!("decoders disagree: direct {direct:?}, two-step {two_step:?}")
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(384))]

        #[test]
        fn direct_leaf_decode_equals_decode_then_transpose(
            (dims, format, count, seed) in (0usize..5, 0usize..2, 0usize..6, 0u64..u64::MAX)
        ) {
            let (dims, format) = (DIMS[dims], FORMATS[format]);
            let count = count_for(count, leaf_entry_bytes(dims, format));
            let page = leaf_page(dims, format, count, seed);
            prop_assert!(decoders_agree(dims, format, &page), "a valid leaf must decode");
            let CachedNode::Leaf(leaf) = CachedNode::read_from(dims, format, &page).unwrap() else {
                panic!("a leaf page decodes as a leaf");
            };
            prop_assert_eq!(leaf.ids.len(), count);
            prop_assert_eq!(leaf.columns.len(), count);
            for d in 0..dims {
                prop_assert!(leaf.columns.sigma_col(d).iter().all(|&s| s >= MIN_SIGMA));
            }
        }

        #[test]
        fn direct_inner_decode_equals_row_decode(
            (dims, count, seed) in (0usize..5, 0usize..6, 0u64..u64::MAX)
        ) {
            let dims = DIMS[dims];
            let count = count_for(count, inner_entry_bytes(dims));
            let page = inner_page(dims, count, seed);
            // Inner pages do not depend on the leaf format.
            for format in FORMATS {
                prop_assert!(decoders_agree(dims, format, &page), "a valid inner node must decode");
            }
        }

        /// Hostile bytes: whatever is done to a page, the two decoders
        /// both decode it to the same content or both refuse it — and
        /// neither panics.
        #[test]
        fn decoders_agree_on_mutated_pages(
            (dims, kind, seed, mutation) in (0usize..5, 0usize..3, 0u64..u64::MAX, 0usize..6)
        ) {
            let dims = DIMS[dims];
            let format = FORMATS[kind % 2];
            let (mut page, entry_bytes, words) = if kind == 2 {
                let bytes = inner_entry_bytes(dims);
                (inner_page(dims, count_for(5, bytes), seed), bytes, 4)
            } else {
                let bytes = leaf_entry_bytes(dims, format);
                let width = if format == LeafFormat::Exact { 8 } else { 4 };
                (leaf_page(dims, format, count_for(5, bytes), seed), bytes, width)
            };
            let count = count_for(5, entry_bytes);
            let mut next = uniform(seed ^ 0x9E37_79B9_7F4A_7C15);
            let mut pick = |n: usize| (next() * n as f64) as usize % n;
            match mutation {
                // Byte flips anywhere, header included.
                0 => for _ in 0..1 + pick(8) {
                    let at = pick(PAGE);
                    page[at] ^= 1 << pick(8);
                },
                // Truncation: mid-header, mid-entry, between entries.
                1 => page.truncate(pick(PAGE)),
                // NaN, ±∞ or a negative value planted in any value slot.
                2 => {
                    let slots = (entry_bytes - 8) / words;
                    let at = NODE_HEADER_BYTES + pick(count) * entry_bytes + 8 + pick(slots) * words;
                    let v = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0, -f64::MIN_POSITIVE][pick(5)];
                    if words == 8 {
                        page[at..at + 8].copy_from_slice(&v.to_le_bytes());
                    } else {
                        page[at..at + 4].copy_from_slice(&(v as f32).to_le_bytes());
                    }
                }
                // Any kind byte, the other formats' included.
                3 => page[0] = pick(5) as u8,
                // A count the page cannot hold, up to all of `u16`.
                4 => {
                    let count = (count + 1 + pick(usize::from(u16::MAX) - count)) as u16;
                    page[1..3].copy_from_slice(&count.to_le_bytes());
                }
                // A count below the written one: the tail is ignored.
                _ => page[1..3].copy_from_slice(&(pick(count + 1) as u16).to_le_bytes()),
            }
            let decoded = decoders_agree(dims, format, &page);
            if mutation == 4 {
                prop_assert!(!decoded, "an oversized count must be refused");
            }
        }

        /// Hostile inner bounds: a value the encoder never writes, planted
        /// in its slot of any entry and dimension — NaN anywhere, `μ̌ = +∞`,
        /// `μ̂ = −∞`, a non-finite `σ̌`, a `σ` below 0 (among them
        /// `σ̌ = σ̂ = −1`, which σ's clamp would otherwise turn into a point
        /// at `MIN_SIGMA`) — is refused by both decoders, and neither
        /// panics. Infinity on the outer side is what rounding writes, and
        /// decodes.
        #[test]
        fn inner_bounds_the_encoder_never_writes_are_refused(
            (dims, seed, slot, pick) in (0usize..5, 0u64..u64::MAX, 0usize..5, 0usize..5)
        ) {
            const NAN: f32 = f32::NAN;
            const INF: f32 = f32::INFINITY;
            const NEG_INF: f32 = f32::NEG_INFINITY;
            let (dims, below_zero) = (DIMS[dims], -f32::MIN_POSITIVE);
            let count = count_for(5, inner_entry_bytes(dims));
            let mut next = uniform(seed ^ 0x5DEE_CE66_D1CE_4E5B);
            let (e, d) = ((next() * count as f64) as usize, (next() * dims as f64) as usize);
            let at = NODE_HEADER_BYTES + e * inner_entry_bytes(dims) + 16 + d * 16;
            let plant = |values: &[(usize, f32)]| {
                let mut page = inner_page(dims, count, seed);
                for &(slot, v) in values {
                    page[at + 4 * slot..at + 4 * slot + 4].copy_from_slice(&v.to_le_bytes());
                }
                decoders_agree(dims, LeafFormat::Exact, &page)
            };
            let refused: [&[(usize, f32)]; 5] = [
                &[(0, [NAN, INF, NAN, INF, NAN][pick])],
                &[(1, [NAN, NEG_INF, NAN, NEG_INF, NAN][pick])],
                &[(2, [NAN, INF, NEG_INF, -1.0, below_zero][pick])],
                &[(3, [NAN, NEG_INF, -1.0, below_zero, NAN][pick])],
                &[(2, -1.0), (3, -1.0)],
            ];
            prop_assert!(!plant(refused[slot]), "slot {slot}: {:?}", refused[slot]);
            let outer: [&[(usize, f32)]; 5] = [
                &[(0, NEG_INF)],
                &[(1, INF)],
                &[(3, INF)],
                &[(0, NEG_INF), (1, INF), (3, INF)],
                &[(2, 0.0), (3, 0.0)],
            ];
            prop_assert!(plant(outer[slot]), "slot {slot}: {:?}", outer[slot]);
        }
    }

    #[test]
    fn oversized_counts_are_refused_by_the_length_check() {
        // 65 535 entries announced on an 8 KiB page: refused as a short
        // buffer from the header alone, in both sinks, whatever the kind.
        for kind in [KIND_LEAF, KIND_INNER] {
            let mut page = vec![0u8; PAGE];
            page[0] = kind;
            page[1..3].copy_from_slice(&u16::MAX.to_le_bytes());
            let want = usize::from(u16::MAX)
                * if kind == KIND_LEAF {
                    leaf_entry_bytes(10, LeafFormat::Exact)
                } else {
                    inner_entry_bytes(10)
                };
            let direct = CachedNode::read_from(10, LeafFormat::Exact, &page).unwrap_err();
            let row = Node::read_from(10, LeafFormat::Exact, &page).unwrap_err();
            for err in [direct, row] {
                let NodeCodecError::Short(short) = err else {
                    panic!("expected a short-buffer error, got {err:?}");
                };
                assert_eq!(short.wanted, want);
                assert_eq!(short.remaining, PAGE - NODE_HEADER_BYTES);
            }
        }
        // One entry too many for the bytes that are there.
        let page = leaf_page(2, LeafFormat::Exact, 3, 5);
        let cut = NODE_HEADER_BYTES + 3 * leaf_entry_bytes(2, LeafFormat::Exact) - 1;
        assert!(!decoders_agree(2, LeafFormat::Exact, &page[..cut]));
        assert!(decoders_agree(2, LeafFormat::Exact, &page[..=cut]));
    }

    #[test]
    fn header_and_kind_errors_are_the_same_in_both_sinks() {
        let text = |page: &[u8], format| {
            let direct = CachedNode::read_from(2, format, page)
                .unwrap_err()
                .to_string();
            let row = Node::read_from(2, format, page).unwrap_err().to_string();
            assert_eq!(direct, row);
            direct
        };
        let leaf = leaf_page(2, LeafFormat::Exact, 3, 9);
        for len in 0..NODE_HEADER_BYTES {
            assert!(text(&leaf[..len], LeafFormat::Exact).contains("short buffer"));
        }
        assert!(text(&leaf, LeafFormat::Quantised).contains("leaf format"));
        let mut unknown = leaf.clone();
        unknown[0] = 9;
        assert!(text(&unknown, LeafFormat::Exact).contains("unknown node kind"));
        let mut inner = inner_page(2, 2, 9);
        inner[NODE_HEADER_BYTES..NODE_HEADER_BYTES + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(text(&inner, LeafFormat::Exact).contains("invalid child pointer"));
    }

    #[test]
    fn sigma_rules_are_those_of_pfv_new() {
        let at = NODE_HEADER_BYTES + 8 + 8; // σ of the only entry, d = 1
        let decode = |sigma: f64| {
            let mut page = leaf_page(1, LeafFormat::Exact, 1, 3);
            page[at..at + 8].copy_from_slice(&sigma.to_le_bytes());
            assert_eq!(
                decoders_agree(1, LeafFormat::Exact, &page),
                Pfv::new(vec![0.0], vec![sigma]).is_ok(),
                "σ = {sigma:e}"
            );
            CachedNode::read_from(1, LeafFormat::Exact, &page)
        };
        for raised in [0.0, -0.0, f64::MIN_POSITIVE, MIN_SIGMA / 2.0, MIN_SIGMA] {
            let CachedNode::Leaf(leaf) = decode(raised).unwrap() else {
                panic!("leaf");
            };
            assert_eq!(leaf.columns.sigma_col(0)[0].to_bits(), MIN_SIGMA.to_bits());
        }
        let CachedNode::Leaf(leaf) = decode(MIN_SIGMA * 1.5).unwrap() else {
            panic!("leaf");
        };
        assert_eq!(leaf.columns.sigma_col(0)[0], MIN_SIGMA * 1.5);
        for refused in [
            -f64::MIN_POSITIVE,
            -1.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            let err = decode(refused).unwrap_err();
            assert!(err.to_string().contains("invalid pfv in leaf"), "{err}");
        }
    }
}
