//! Columnar parameter rectangles: the children of an inner node, priced
//! for a query.
//!
//! An inner node stores one [`ParamRect`] per child. [`ColumnarRects`]
//! holds them the way [`ColumnarLeaf`](crate::batch::ColumnarLeaf) holds a
//! leaf's pfv: struct-of-arrays in one allocation, one contiguous
//! per-dimension column each for `μ̌`, `μ̂`, `σ̌`, `σ̂` and the precomputed
//! `σ̌²`, `σ̂²`, padded to a multiple of
//! [`LANE_WIDTH`](crate::batch::LANE_WIDTH) rectangles (the tail repeats
//! the last one, as a leaf's does).
//!
//! # Two prices for a child
//!
//! * [`ColumnarRects::log_upper_for_query`] (one child) and
//!   [`ColumnarRects::log_bounds_for_query_each`] (every child) — the
//!   **exact** Lemma-2 upper (and Lemma-3 lower) bound, bit-identical to
//!   [`ParamRect::log_upper_for_query`] and
//!   [`ParamRect::log_bounds_for_query`] on the same rectangle: they run
//!   the same [`DimBounds`] methods on the same values in the same order.
//! * [`ColumnarRects::screen_upper_for_query`] — the **screen**: a bracket
//!   `low ≤ exact ≤ key` around every child's exact upper bound, a lane
//!   block at a time, for one real `ln` per child.
//!
//! # Lemma 2 as one expression
//!
//! In one dimension let `dist = max(μ̌ − x, x − μ̂, 0)` be the query's
//! distance to the μ-interval and `[s̃, ŝ]` the Lemma-1 combined σ-interval.
//! Each of Lemma 2's seven cases is `−ln σ* − ln √(2π) − ½(dist/σ*)²` at
//! `σ* = clamp(dist, s̃, ŝ)`, the σ at which a Gaussian at distance `dist`
//! peaks: the ridge of cases II and VI is `σ* = dist`, where the square
//! term is `½`, and the plateau IV is `dist = 0`. Under
//! [`CombineMode::Convolution`] the screen works squared,
//! `t = σ*² = clamp(dist², σ̌² + σq², σ̂² + σq²)` and the term is
//! `−½ ln t − ln √(2π) − ½·dist²/t`; under [`CombineMode::AdditiveSigma`],
//! `t = clamp(dist, σ̌ + σq, σ̂ + σq)` and `−ln t − ln √(2π) − ½(dist/t)²`.
//! No branch depends on the data, and `Σ ln t` goes through the leaf
//! screen's `LnFold`.
//!
//! The exact path evaluates the same expression at a `σ*` rounded
//! differently — the square root of the screen's clamp bound, or `dist`
//! itself — through the same operations as the leaf's exact kernel plus
//! the ridge's constant. So the leaf screen's `Slack` analysis carries
//! over with four more roundings per dimension, in both directions.
//! Overflow is where the two could part. A spread that overflows makes the
//! exact bound `−∞` (its `ln σ*` is `ln ∞`), so `low` is then `−∞`. The
//! exact path's square terms, `(½·z)·z` summed, overflow only past
//! `2·f64::MAX`, where the screen's `Σ z²` is long `+∞`; that makes `low`
//! `−∞` by itself, and `key` `+∞` rather than NaN, so a child is never
//! lost off the bottom of a heap.

use crate::batch::{LnFold, Slack, LANE_WIDTH};
use crate::combine::CombineMode;
use crate::hull::{DimBounds, ParamRect};
use crate::vector::Pfv;
use crate::{LN_SQRT_2PI, MIN_SIGMA};

/// Column order inside [`ColumnarRects`]: the four stored bounds, then the
/// two squared spreads the convolution screen reads.
const MU_LO: usize = 0;
const MU_HI: usize = 1;
const SIGMA_LO: usize = 2;
const SIGMA_HI: usize = 3;
const VAR_LO: usize = 4;
const VAR_HI: usize = 5;
const COLUMNS: usize = 6;

/// The parameter rectangles of an inner node's children in columnar form
/// (see the [module docs](self)).
///
/// Column `c` of dimension `d` occupies
/// `cols[(c·dims + d)·stride ..][.. stride]` with
/// `stride = len.next_multiple_of(LANE_WIDTH)`; entries `len..stride`
/// repeat the last rectangle. `σ̌` and `σ̂` are at least [`MIN_SIGMA`], as
/// [`DimBounds::new`] leaves them; `μ̌`, `μ̂` and `σ̂` may be infinite on
/// their outer side.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnarRects {
    len: usize,
    dims: usize,
    stride: usize,
    /// `μ̌ | μ̂ | σ̌ | σ̂ | σ̌² | σ̂²`, `dims · stride` each.
    cols: Box<[f64]>,
}

/// The stored columns of a [`ColumnarRects`] under construction, as
/// [`ColumnarRects::try_fill`] hands them to its `fill`.
#[derive(Debug)]
pub struct RectFill<'a> {
    stride: usize,
    mu_lo: &'a mut [f64],
    mu_hi: &'a mut [f64],
    sigma_lo: &'a mut [f64],
    sigma_hi: &'a mut [f64],
}

impl RectFill<'_> {
    /// Stores rectangle `e`'s bounds `[μ̌, μ̂, σ̌, σ̂]` in dimension `d`,
    /// each `σ` raised to [`MIN_SIGMA`] as [`DimBounds::new`] raises it.
    /// The caller has checked what `DimBounds::new` asserts: no NaN, a bound
    /// infinite only on its outer side (`μ̌ = −∞`, `μ̂ = +∞`, `σ̂ = +∞`, as
    /// an inner page may store them), `μ̌ ≤ μ̂`, `σ̌ ≤ σ̂`.
    #[inline]
    pub fn put(&mut self, e: usize, d: usize, bounds: [f64; 4]) {
        let [mu_lo, mu_hi, sigma_lo, sigma_hi] = bounds;
        let at = d * self.stride + e;
        self.mu_lo[at] = mu_lo;
        self.mu_hi[at] = mu_hi;
        self.sigma_lo[at] = sigma_lo.max(MIN_SIGMA);
        self.sigma_hi[at] = sigma_hi.max(MIN_SIGMA);
    }
}

impl ColumnarRects {
    /// Builds the columns of `len` rectangles that `fill` writes in place
    /// through [`RectFill::put`] — every dimension of every rectangle. This
    /// body then derives the rest for every way a node comes into being:
    /// the lane padding and the `σ̌²`, `σ̂²` columns. An empty node has no
    /// padding to derive.
    ///
    /// # Errors
    /// Whatever `fill` returns; no columns are built then.
    pub fn try_fill<E>(
        dims: usize,
        len: usize,
        fill: impl FnOnce(&mut RectFill<'_>) -> Result<(), E>,
    ) -> Result<Self, E> {
        let stride = len.next_multiple_of(LANE_WIDTH);
        let width = dims * stride;
        let mut cols = vec![0.0f64; COLUMNS * width].into_boxed_slice();
        let (stored, var) = cols.split_at_mut(VAR_LO * width);
        {
            let (mu_lo, rest) = stored.split_at_mut(width);
            let (mu_hi, rest) = rest.split_at_mut(width);
            let (sigma_lo, sigma_hi) = rest.split_at_mut(width);
            fill(&mut RectFill {
                stride,
                mu_lo,
                mu_hi,
                sigma_lo,
                sigma_hi,
            })?;
        }
        if len > 0 {
            for col in stored.chunks_exact_mut(stride) {
                let last = col[len - 1];
                col[len..].fill(last);
            }
        }
        for (v, &s) in var.iter_mut().zip(&stored[SIGMA_LO * width..]) {
            *v = s * s;
        }
        Ok(Self {
            len,
            dims,
            stride,
            cols,
        })
    }

    /// Transposes `rects` into columnar form through
    /// [`ColumnarRects::try_fill`].
    ///
    /// # Panics
    /// Panics if a rectangle's dimensionality differs from `dims`.
    #[must_use]
    pub fn from_rects<'a>(
        dims: usize,
        rects: impl ExactSizeIterator<Item = &'a ParamRect>,
    ) -> Self {
        let filled = Self::try_fill(dims, rects.len(), |fill| {
            for (e, rect) in rects.enumerate() {
                assert_eq!(rect.dims(), dims, "dimensionality mismatch in node");
                for (d, b) in rect.as_slice().iter().enumerate() {
                    fill.put(e, d, [b.mu_lo, b.mu_hi, b.sigma_lo, b.sigma_hi]);
                }
            }
            Ok::<(), std::convert::Infallible>(())
        });
        match filled {
            Ok(rects) => rects,
            Err(never) => match never {},
        }
    }

    /// Number of rectangles.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether there are no rectangles.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Dimensionality of the rectangles.
    #[inline]
    #[must_use]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Rectangle `e`'s bounds in dimension `d`.
    ///
    /// # Panics
    /// Panics if `e >= self.len()` or `d >= self.dims()`.
    #[must_use]
    pub fn bounds(&self, e: usize, d: usize) -> DimBounds {
        assert!(
            e < self.len && d < self.dims,
            "rectangle index out of range"
        );
        self.at(d * self.stride + e)
    }

    /// The bounds at flat column offset `at`.
    #[inline]
    fn at(&self, at: usize) -> DimBounds {
        let width = self.dims * self.stride;
        DimBounds {
            mu_lo: self.cols[MU_LO * width + at],
            mu_hi: self.cols[MU_HI * width + at],
            sigma_lo: self.cols[SIGMA_LO * width + at],
            sigma_hi: self.cols[SIGMA_HI * width + at],
        }
    }

    /// `ln N̂(q)` of rectangle `e` — bit-identical to
    /// [`ParamRect::log_upper_for_query`] on it: the same [`DimBounds`]
    /// methods on the same values, summed in the same order.
    ///
    /// # Panics
    /// Panics on dimensionality mismatch or if `e >= self.len()`.
    #[must_use]
    pub fn log_upper_for_query(&self, e: usize, q: &Pfv, mode: CombineMode) -> f64 {
        assert_eq!(q.dims(), self.dims, "dimensionality mismatch");
        assert!(e < self.len, "rectangle index out of range");
        let mut acc = 0.0;
        for (d, (&mq, &sq)) in q.means().iter().zip(q.sigmas()).enumerate() {
            acc += self
                .at(d * self.stride + e)
                .with_query_sigma(sq, mode)
                .log_upper(mq);
        }
        acc
    }

    /// Fills `out` with `(ln N̂(q), ln Ň(q))` of every rectangle, in order —
    /// each bit-identical to [`ParamRect::log_bounds_for_query`] on it. One
    /// sweep down the columns: a rectangle's terms are still added in
    /// dimension order, starting from `0.0`, as the row form adds them.
    ///
    /// # Panics
    /// Panics on dimensionality mismatch.
    pub fn log_bounds_for_query_each(&self, q: &Pfv, mode: CombineMode, out: &mut Vec<(f64, f64)>) {
        assert_eq!(q.dims(), self.dims, "dimensionality mismatch");
        out.clear();
        out.resize(self.len, (0.0, 0.0));
        let width = self.dims * self.stride;
        for (d, (&mq, &sq)) in q.means().iter().zip(q.sigmas()).enumerate() {
            let col = |c: usize| &self.cols[c * width + d * self.stride..][..self.len];
            let bounds =
                (col(MU_LO).iter().zip(col(MU_HI))).zip(col(SIGMA_LO).iter().zip(col(SIGMA_HI)));
            for ((up, lo), ((&mu_lo, &mu_hi), (&sigma_lo, &sigma_hi))) in out.iter_mut().zip(bounds)
            {
                let b = DimBounds {
                    mu_lo,
                    mu_hi,
                    sigma_lo,
                    sigma_hi,
                }
                .with_query_sigma(sq, mode);
                *up += b.log_upper(mq);
                *lo += b.log_lower(mq);
            }
        }
    }

    /// The screen: fills `out` with one bracket `(low, key)` per rectangle,
    /// in order, around [`ColumnarRects::log_upper_for_query`]'s `exact` —
    /// `!(low > exact)` and `!(key < exact)`, so an exact NaN satisfies
    /// both (see the [module docs](self)). `key` is never NaN. `low` is
    /// `−∞` wherever the exact bound could be `−∞` or NaN.
    ///
    /// # Panics
    /// Panics on dimensionality mismatch.
    pub fn screen_upper_for_query(&self, q: &Pfv, mode: CombineMode, out: &mut Vec<(f64, f64)>) {
        assert_eq!(q.dims(), self.dims, "dimensionality mismatch");
        out.clear();
        match mode {
            CombineMode::Convolution => self.screen::<true>(q, out),
            CombineMode::AdditiveSigma => self.screen::<false>(q, out),
        }
    }

    /// The one screen body; `CONVOLUTION` picks the spread columns and
    /// whether `t` is `σ*²` or `σ*`.
    fn screen<const CONVOLUTION: bool>(&self, q: &Pfv, out: &mut Vec<(f64, f64)>) {
        let width = self.dims * self.stride;
        let blocks = |c: usize| {
            self.cols[c * width..(c + 1) * width]
                .as_chunks::<LANE_WIDTH>()
                .0
        };
        let (mu_lo, mu_hi) = (blocks(MU_LO), blocks(MU_HI));
        let (spread_lo, spread_hi) = if CONVOLUTION {
            (blocks(VAR_LO), blocks(VAR_HI))
        } else {
            (blocks(SIGMA_LO), blocks(SIGMA_HI))
        };
        let ln_scale = if CONVOLUTION { 0.5 } else { 1.0 };
        let norm_base = -(self.dims as f64) * LN_SQRT_2PI;
        let slack = Slack::hull(self.dims);
        let per_dim = self.stride / LANE_WIDTH;
        for (block, base) in (0..self.stride).step_by(LANE_WIDTH).enumerate() {
            let mut ln_t = LnFold::new();
            let mut z2 = [0.0f64; LANE_WIDTH];
            // The largest `t` per lane: `+∞` means an overflowed spread.
            let mut t_max = [0.0f64; LANE_WIDTH];
            for (d, (&x, &sq)) in q.means().iter().zip(q.sigmas()).enumerate() {
                let qs = if CONVOLUTION { sq * sq } else { sq };
                let at = d * per_dim + block;
                let (lo, hi) = (&mu_lo[at], &mu_hi[at]);
                let (s_lo, s_hi) = (&spread_lo[at], &spread_hi[at]);
                let mut t = [0.0f64; LANE_WIDTH];
                for (l, t) in t.iter_mut().enumerate() {
                    let dist = max(max(lo[l] - x, x - hi[l]), 0.0);
                    let d2 = if CONVOLUTION { dist * dist } else { dist };
                    *t = min(max(d2, s_lo[l] + qs), s_hi[l] + qs);
                    z2[l] += if CONVOLUTION {
                        d2 / *t
                    } else {
                        let r = dist / *t;
                        r * r
                    };
                    t_max[l] = max(t_max[l], *t);
                }
                ln_t.reserve(1);
                ln_t.mul(&t);
            }
            let lanes = LANE_WIDTH.min(self.len - base);
            for (l, (&z, &big)) in z2.iter().zip(&t_max).enumerate().take(lanes) {
                let ln_part = norm_base - ln_scale * ln_t.ln(l);
                let key = slack.bound(ln_part, z);
                let low = if big < f64::INFINITY {
                    slack.bound_below(ln_part, z)
                } else {
                    f64::NEG_INFINITY
                };
                out.push((low, if key.is_nan() { f64::INFINITY } else { key }));
            }
        }
    }
}

/// The larger of two values that are never NaN here: a compare and a
/// select, where `f64::max` pays for its NaN rule.
#[inline(always)]
fn max(a: f64, b: f64) -> f64 {
    if a > b {
        a
    } else {
        b
    }
}

/// The smaller of two values that are never NaN here (see [`max`]).
#[inline(always)]
fn min(a: f64, b: f64) -> f64 {
    if a < b {
        a
    } else {
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_rects(dims: usize, n: usize, seed: u64) -> Vec<ParamRect> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| {
                ParamRect::from_dims(
                    (0..dims)
                        .map(|_| {
                            let (mu, sigma) = (next() * 20.0 - 10.0, 0.01 + next());
                            DimBounds::new(mu, mu + next() * 3.0, sigma, sigma + next())
                        })
                        .collect(),
                )
            })
            .collect()
    }

    #[test]
    fn columns_hold_the_rectangles_and_pad_with_the_last() {
        let rects = sample_rects(3, 5, 7);
        let cols = ColumnarRects::from_rects(3, rects.iter());
        assert_eq!((cols.len(), cols.dims(), cols.stride), (5, 3, 8));
        for (e, rect) in rects.iter().enumerate() {
            for d in 0..3 {
                assert_eq!(cols.bounds(e, d), *rect.dim(d));
            }
        }
        for d in 0..3 {
            for e in 5..8 {
                assert_eq!(cols.at(d * 8 + e), *rects[4].dim(d));
            }
        }
        let width = 3 * 8;
        for (v, s) in cols.cols[VAR_LO * width..]
            .iter()
            .zip(&cols.cols[SIGMA_LO * width..VAR_LO * width])
        {
            assert_eq!(v.to_bits(), (s * s).to_bits());
        }
    }

    #[test]
    fn an_empty_node_has_no_columns_and_no_brackets() {
        let cols = ColumnarRects::from_rects(4, std::iter::empty());
        assert!(cols.is_empty());
        let q = Pfv::new(vec![0.0; 4], vec![0.1; 4]).unwrap();
        let mut out = vec![(1.0, 2.0)];
        cols.screen_upper_for_query(&q, CombineMode::Convolution, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn sigma_is_raised_as_dim_bounds_raises_it() {
        let cols = ColumnarRects::try_fill(1, 1, |fill| {
            fill.put(0, 0, [0.0, 1.0, 0.0, 1e-12]);
            Ok::<(), ()>(())
        })
        .unwrap();
        assert_eq!(cols.bounds(0, 0), DimBounds::new(0.0, 1.0, 0.0, 1e-12));
    }

    #[test]
    fn exact_prices_are_those_of_the_row_form() {
        let rects = sample_rects(6, 9, 11);
        let cols = ColumnarRects::from_rects(6, rects.iter());
        let q = Pfv::new(vec![0.5, -3.0, 9.0, 2.0, -12.0, 0.0], vec![0.2; 6]).unwrap();
        let mut each = Vec::new();
        for mode in [CombineMode::Convolution, CombineMode::AdditiveSigma] {
            cols.log_bounds_for_query_each(&q, mode, &mut each);
            assert_eq!(each.len(), rects.len());
            for (e, (rect, &(c_up, c_lo))) in rects.iter().zip(&each).enumerate() {
                let up = rect.log_upper_for_query(&q, mode);
                let (b_up, b_lo) = rect.log_bounds_for_query(&q, mode);
                assert_eq!(
                    cols.log_upper_for_query(e, &q, mode).to_bits(),
                    up.to_bits()
                );
                assert_eq!(
                    (c_up.to_bits(), c_lo.to_bits()),
                    (b_up.to_bits(), b_lo.to_bits())
                );
            }
        }
    }

    #[test]
    fn brackets_hold_the_exact_upper_bound_and_are_tight() {
        for (dims, n) in [(1usize, 3usize), (2, 13), (27, 9)] {
            let rects = sample_rects(dims, n, 99 + dims as u64);
            let cols = ColumnarRects::from_rects(dims, rects.iter());
            let mut out = Vec::new();
            for qseed in 0..6u64 {
                let q = &sample_rects(dims, 1, 500 + qseed)[0];
                let q = Pfv::new(
                    q.as_slice().iter().map(|b| b.mu_lo).collect::<Vec<_>>(),
                    q.as_slice().iter().map(|b| b.sigma_lo).collect::<Vec<_>>(),
                )
                .unwrap();
                for mode in [CombineMode::Convolution, CombineMode::AdditiveSigma] {
                    cols.screen_upper_for_query(&q, mode, &mut out);
                    assert_eq!(out.len(), n);
                    for (e, &(low, key)) in out.iter().enumerate() {
                        let exact = cols.log_upper_for_query(e, &q, mode);
                        assert!(low <= exact && exact <= key, "{low} {exact} {key}");
                        assert!(key - low < 1e-8 * (1.0 + exact.abs()), "{low} {key}");
                    }
                }
            }
        }
    }

    #[test]
    fn overflow_forces_refinement_and_never_loses_a_child() {
        // σ̂ ≈ 1.4e154: σ̂² overflows. A query at 1e200: `dist²` overflows.
        // The third child at 9.186940947017003e152: `(x/σ)²` alone would
        // round to `+∞`, the exact path's `(½·x/σ)·x/σ` and the screen's
        // `x²/σ²` stay finite.
        let rects = [
            ParamRect::from_dims(vec![DimBounds::new(0.0, 1.0, 1.0, 1.4e154)]),
            ParamRect::from_dims(vec![DimBounds::new(0.0, 1.0, 0.1, 0.2)]),
            ParamRect::from_dims(vec![DimBounds::point(0.0, 0.06848706607698808)]),
        ];
        let cols = ColumnarRects::from_rects(1, rects.iter());
        let mut out = Vec::new();
        for (x, sq) in [
            (1e200, 0.3),
            (1e100, 0.3),
            (-1e160, 0.3),
            (0.5, 0.3),
            (9.186940947017003e152, 0.002102657104348199),
        ] {
            let q = Pfv::new(vec![x], vec![sq]).unwrap();
            for mode in [CombineMode::Convolution, CombineMode::AdditiveSigma] {
                cols.screen_upper_for_query(&q, mode, &mut out);
                for (e, &(low, key)) in out.iter().enumerate() {
                    let exact = cols.log_upper_for_query(e, &q, mode);
                    assert!(!key.is_nan(), "x={x} e={e}");
                    assert!(
                        exact.is_nan() || (low <= exact && exact <= key),
                        "x={x} e={e}: {low} {exact} {key}"
                    );
                }
            }
        }
    }
}
