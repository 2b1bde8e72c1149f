//! Vectorized batch evaluation of Lemma-1 densities over columnar leaves.
//!
//! The query hot path of the Gauss-tree spends most of its CPU time
//! evaluating the joint density `ln p(q|v)` (Lemma 1, see [`crate::combine`])
//! for every entry of every visited leaf. Doing that through per-entry
//! [`Pfv`] objects costs two pointer dereferences per entry (each `Pfv`
//! owns two separate boxed slices), a bounds-checked tuple load per
//! dimension, and a redundant `σv·σv` multiplication per dimension per
//! evaluation.
//!
//! [`ColumnarLeaf`] stores the same data struct-of-arrays: one contiguous
//! per-dimension column for the means, one for the sigmas, and one for the
//! **precomputed variances** `σv²`. Columns are padded to a multiple of
//! [`LANE_WIDTH`](crate::batch::LANE_WIDTH) entries so kernels can run fixed-width
//! blocks with no scalar tail. Construction additionally precomputes a
//! conservative per-entry peak bound (the log-normalisation constant
//! `Σ −ln σv − d·ln √(2π)`, rounded outward) — see
//! [`ColumnarLeaf::log_norm_col`].
//!
//! # The two kernel tiers
//!
//! * [`log_densities`](crate::batch::log_densities) — the **exact** batched kernel, bit-identical to the
//!   scalar path (contract below). This is the refinement tier: every
//!   density that reaches a query result went through it (or through its
//!   single-entry twin [`log_density_one`](crate::batch::log_density_one)).
//! * [`screen_densities`](crate::batch::screen_densities) — the **screen** tier: conservative per-entry
//!   *upper bounds* on the same densities, measured against a candidate
//!   threshold. A bound may overshoot, but it never undershoots: an entry
//!   whose bound falls below the threshold provably cannot enter the
//!   result, so k-MLIQ can skip its exact evaluation (the paper's
//!   filter-refine design applied at entry granularity).
//!   [`log_densities_upper`](crate::batch::log_densities_upper) is the same kernel with threshold `−∞`.
//!
//! # How the screen tier gets cheap
//!
//! Two facts carry it.
//!
//! **One `ln` per entry, not per dimension.** The log-normalisation part
//! of a density is `−Σ_d ln s_d` with `s_d² = σv² + σq²`. Writing each
//! `t_d = mant(t_d) · 2^exp(t_d)` gives
//! `Σ_d ln t_d = ln Π_d mant(t_d) + ln 2 · Σ_d exp(t_d)`: per dimension
//! the kernel only masks the mantissa out of the bit pattern, shifts the
//! biased exponent down, multiplies and integer-adds — all of which pack
//! into baseline SIMD — and takes a single real [`f64::ln`] per entry at
//! the very end (the private `LnFold`; the running mantissa product is
//! re-folded every 512 factors so it cannot overflow). The `z²` part
//! keeps one divide per dimension.
//!
//! **Every dimension prefix is already a bound.** With the stored peak
//! bound `P ≥ −Σ_d ln s_d − d·ln √(2π)` (the combined spread can only
//! exceed σv), `P − ½·Σ_{j<d} z_j²` bounds the density from above for
//! every prefix length `d`: the omitted `z²` terms could only lower it.
//! So each [`LANE_WIDTH`](crate::batch::LANE_WIDTH) block of entries is checked every
//! couple of dimensions, and abandoned as soon as no lane's
//! prefix bound can still reach the threshold — at `d = 0` that is the
//! query-independent peak screen. Abandoned lanes report their prefix
//! bound, which is itself a valid (looser) upper bound, so callers see one
//! contract whether or not a lane ran to the end.
//!
//! # Bit-identity contract
//!
//! The batched exact kernel computes **bit-identical** results to the
//! scalar path `combine::log_joint(mode, v, q)` for every entry, including
//! NaN propagation and underflow to `-inf`:
//!
//! * the per-dimension term is the same expression tree as
//!   [`crate::gaussian::log_pdf`] (`-s.ln() - LN_SQRT_2PI - 0.5·z²` with
//!   `z = (μq − μv)/s`);
//! * the combined spread is built from the precomputed `σv²` column as
//!   `(σv² + σq²).sqrt()` — the identical multiply/add/sqrt sequence the
//!   scalar [`CombineMode::combine_sigma`] performs, merely with the
//!   `σv·σv` product hoisted to leaf-construction time;
//! * per-entry accumulation runs in dimension order starting from `0.0`,
//!   exactly like the scalar loop.
//!
//! This is also why the exact kernel keeps the per-entry `ln` and division:
//! rewriting `-ln √(σv²+σq²)` as `-½·ln(σv²+σq²)`, folding the logarithms
//! or dropping the `sqrt` would be faster still but changes rounding, and
//! the equivalence tests (and the refinement algorithms' determinism
//! guarantees) demand exact agreement with the scalar path. Those faster
//! rewrites are exactly what the *screen tier* does — which is why it
//! produces bounds, not answers, and why the bit-identity contract lives
//! on the refine tier.

use crate::combine::CombineMode;
use crate::vector::Pfv;
use crate::LN_SQRT_2PI;
use core::f64::consts::LN_2;

/// Leaf columns are padded to a multiple of this many entries so the
/// kernels see fixed-width blocks. The screen tier carries one such block
/// through the dimensions at a time: four lanes keep its running state in
/// registers under baseline SIMD (two f64 each) and waste at most three
/// lanes on a ragged leaf.
pub const LANE_WIDTH: usize = 4;

/// Per-dimension outward rounding added to the precomputed peak bound
/// ([`ColumnarLeaf::log_norm_col`]). It covers what separates the stored
/// value from the real-valued `Σ −ln σv − d·ln √(2π)`: the rounding of
/// `ln 2 · Σ exp` (relative `2⁻⁵³` of at most `709·d`, i.e. `< 8e-14` per
/// dimension), of the final subtraction (as much again), of the mantissa
/// product and of its one `ln`. `1e-12` holds a 5× margin.
pub const PEAK_SLACK_PER_DIM: f64 = 1e-12;

/// Largest magnitude a single dimension's `−ln s − ln √(2π)` term can
/// take: `s` ranges over `[MIN_SIGMA, f64::MAX]`, so `|ln s| ≤ 709.8`.
/// The screen tier's absolute slack is proportional to it (see `Slack`).
const LN_TERM_MAX: f64 = 712.0;

/// The screen tier re-checks a lane block's prefix bounds after every
/// this many dimensions.
const CHECK_DIMS: usize = 2;

/// The mantissa product of an `LnFold` is reduced back to `[1, 2)` after
/// this many factors, each below 2 — so it stays below `2⁵¹³`.
const REFOLD_FACTORS: usize = 512;

/// Mantissa field of an IEEE-754 double.
const MANT_MASK: u64 = (1 << 52) - 1;
/// Exponent field of `1.0`: or-ed over a bare mantissa it yields `[1, 2)`.
const ONE_BITS: u64 = 1023 << 52;

/// `ln` of a per-lane running product of positive normal doubles, at the
/// price of one real `ln` per lane however many factors went in:
/// `ln Π t = ln Π mant(t) + ln 2 · Σ exp(t)`.
///
/// Every factor must be positive and not subnormal; `+∞` is read as
/// `2¹⁰²⁴`, i.e. *below* its value.
pub(crate) struct LnFold {
    mant: [f64; LANE_WIDTH],
    /// Sum of the factors' *biased* exponents.
    exp: [u64; LANE_WIDTH],
    /// Number of biased exponents in each `exp` lane.
    folded: u64,
    /// Factors multiplied into `mant` since it was last in `[1, 2)`.
    pending: usize,
}

impl LnFold {
    pub(crate) fn new() -> Self {
        Self {
            mant: [1.0; LANE_WIDTH],
            exp: [0; LANE_WIDTH],
            folded: 0,
            pending: 0,
        }
    }

    /// Makes room for `n ≤ REFOLD_FACTORS − 1` more [`mul`](Self::mul)
    /// calls: reduces the mantissa products back to `[1, 2)` if `n` more
    /// factors could take them past `2^REFOLD_FACTORS`.
    #[inline]
    pub(crate) fn reserve(&mut self, n: usize) {
        if self.pending + n > REFOLD_FACTORS {
            let product = std::mem::replace(&mut self.mant, [1.0; LANE_WIDTH]);
            self.pending = 0;
            self.mul(&product);
        }
    }

    /// Multiplies lane `l` by `t[l]`; `t` holds [`LANE_WIDTH`] values.
    #[inline(always)]
    pub(crate) fn mul(&mut self, t: &[f64]) {
        debug_assert_eq!(t.len(), LANE_WIDTH);
        debug_assert!(self.pending < REFOLD_FACTORS);
        for ((m, e), t) in self.mant.iter_mut().zip(&mut self.exp).zip(t) {
            let bits = t.to_bits();
            *m *= f64::from_bits(bits & MANT_MASK | ONE_BITS);
            *e += bits >> 52;
        }
        self.folded += 1;
        self.pending += 1;
    }

    /// `ln` of lane `l`'s product.
    #[inline]
    pub(crate) fn ln(&self, l: usize) -> f64 {
        // Both operands are integers far below 2⁵³: the difference is exact.
        let exp = self.exp[l] as f64 - (1023 * self.folded) as f64;
        self.mant[l].ln() + LN_2 * exp
    }
}

/// A struct-of-arrays view of a leaf's probabilistic feature vectors.
///
/// Layout is dimension-major with a padded stride: column `d` of the means
/// occupies `mu[d·stride .. d·stride + len]` where
/// `stride = len.next_multiple_of(LANE_WIDTH)`; the `len..stride` tail of
/// every column repeats the leaf's last entry, so a padding lane behaves
/// like a twin of a real entry: kernels may read it, it can never outlive
/// that entry in a screen, and callers must ignore its results. The `var`
/// column caches `σv²` for the [`CombineMode::Convolution`] spread; the raw
/// `sigma` column serves [`CombineMode::AdditiveSigma`]; the per-entry
/// `log_norm` peak bound serves the screen tier.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnarLeaf {
    len: usize,
    dims: usize,
    stride: usize,
    /// The `μ`, `σ` and `σ²` columns (`dims · stride` each) and the
    /// `log_norm` column (`stride`), in that order, in one allocation.
    cols: Box<[f64]>,
}

impl ColumnarLeaf {
    /// Transposes `vs` into columnar form — a caller of
    /// [`ColumnarLeaf::try_fill`], so padding, `σv²` and the per-entry peak
    /// bound come from the same body as a leaf decoded straight from page
    /// bytes.
    ///
    /// # Panics
    /// Panics if any pfv's dimensionality differs from `dims`.
    #[must_use]
    pub fn from_pfvs<'a>(dims: usize, vs: impl ExactSizeIterator<Item = &'a Pfv>) -> Self {
        let filled = Self::try_fill(dims, vs.len(), |mu, sigma, stride| {
            for (e, v) in vs.enumerate() {
                assert_eq!(v.dims(), dims, "dimensionality mismatch in leaf");
                for (d, (&m, &s)) in v.means().iter().zip(v.sigmas()).enumerate() {
                    mu[d * stride + e] = m;
                    sigma[d * stride + e] = s;
                }
            }
            Ok::<(), std::convert::Infallible>(())
        });
        match filled {
            Ok(leaf) => leaf,
            Err(never) => match never {},
        }
    }

    /// Builds a leaf of `len` entries whose raw columns the caller writes
    /// in place: `fill(mu, sigma, stride)` receives both columns zeroed,
    /// `dims · stride` long with `stride = len.next_multiple_of(LANE_WIDTH)`,
    /// and stores entry `e`'s dimension `d` at `d · stride + e` — no
    /// per-entry [`Pfv`] in between. This body then derives everything
    /// else, for every way a leaf comes into being: the lane padding
    /// (each column's tail repeats its last entry), the `σv²` column and
    /// the [`log_norm_col`](Self::log_norm_col) peak bound (one `ln` per
    /// entry).
    ///
    /// `fill` must leave the values a [`Pfv`] could hold — finite `μ`,
    /// finite `σ ≥` [`MIN_SIGMA`](crate::MIN_SIGMA) — in all `len` entries
    /// of every column; the kernels rely on it as they rely on `Pfv`'s own
    /// invariant.
    ///
    /// # Errors
    /// Whatever `fill` returns; no leaf is built then.
    pub fn try_fill<E>(
        dims: usize,
        len: usize,
        fill: impl FnOnce(&mut [f64], &mut [f64], usize) -> Result<(), E>,
    ) -> Result<Self, E> {
        let stride = len.next_multiple_of(LANE_WIDTH);
        let mut cols = vec![0.0f64; (3 * dims + 1) * stride].into_boxed_slice();
        let (mu, rest) = cols.split_at_mut(dims * stride);
        let (sigma, rest) = rest.split_at_mut(dims * stride);
        let (var, log_norm) = rest.split_at_mut(dims * stride);
        fill(mu, sigma, stride)?;
        if len > 0 {
            for col in mu
                .chunks_exact_mut(stride)
                .chain(sigma.chunks_exact_mut(stride))
            {
                let last = col[len - 1];
                col[len..].fill(last);
            }
        }
        for (v, &s) in var.iter_mut().zip(&*sigma) {
            *v = s * s;
        }
        // Peak bounds, a lane block at a time: Σ_d ln σ through one `ln`
        // per entry.
        let norm_base = dims as f64 * (PEAK_SLACK_PER_DIM - LN_SQRT_2PI);
        for (base, norm) in (0..stride)
            .step_by(LANE_WIDTH)
            .zip(log_norm.chunks_exact_mut(LANE_WIDTH))
        {
            let mut ln_sigma = LnFold::new();
            for col in sigma.chunks_exact(stride) {
                ln_sigma.reserve(1);
                ln_sigma.mul(&col[base..base + LANE_WIDTH]);
            }
            for (l, n) in norm.iter_mut().enumerate() {
                *n = norm_base - ln_sigma.ln(l);
            }
        }
        Ok(Self {
            len,
            dims,
            stride,
            cols,
        })
    }

    /// Feature column `i` (`μ`, `σ`, `σ²`) of every dimension, padding
    /// included.
    #[inline]
    fn column(&self, i: usize) -> &[f64] {
        let width = self.dims * self.stride;
        &self.cols[i * width..(i + 1) * width]
    }

    #[inline]
    fn mu(&self) -> &[f64] {
        self.column(0)
    }

    #[inline]
    fn sigma(&self) -> &[f64] {
        self.column(1)
    }

    #[inline]
    fn var(&self) -> &[f64] {
        self.column(2)
    }

    #[inline]
    fn log_norm(&self) -> &[f64] {
        &self.cols[3 * self.dims * self.stride..]
    }

    /// Number of entries in the leaf.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the leaf holds no entries.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Dimensionality of the stored pfv.
    #[inline]
    #[must_use]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Column length including the lane padding (a [`LANE_WIDTH`]
    /// multiple) — the length of [`FastScratch::upper`] after a screen.
    #[inline]
    #[must_use]
    pub fn padded_len(&self) -> usize {
        self.stride
    }

    /// The contiguous mean column of dimension `d` (one value per entry,
    /// padding excluded).
    #[inline]
    #[must_use]
    pub fn mu_col(&self, d: usize) -> &[f64] {
        &self.mu()[d * self.stride..d * self.stride + self.len]
    }

    /// The contiguous sigma column of dimension `d` (padding excluded).
    #[inline]
    #[must_use]
    pub fn sigma_col(&self, d: usize) -> &[f64] {
        &self.sigma()[d * self.stride..d * self.stride + self.len]
    }

    /// The contiguous precomputed `σ²` column of dimension `d` (padding
    /// excluded).
    #[inline]
    #[must_use]
    pub fn var_col(&self, d: usize) -> &[f64] {
        &self.var()[d * self.stride..d * self.stride + self.len]
    }

    /// Per-entry conservative **peak bound**: index `e` holds
    /// `Σ_d −ln σv − d·ln √(2π) + d·`[`PEAK_SLACK_PER_DIM`], never below
    /// the real-valued sum — an upper bound on `ln p(q|v)` for *any* query
    /// (the combined spread can only exceed σv, under either
    /// [`CombineMode`]). Query-independent: it is the screen tier's bound
    /// before the first dimension.
    #[inline]
    #[must_use]
    pub fn log_norm_col(&self) -> &[f64] {
        &self.log_norm()[..self.len]
    }

    /// Reassembles entry `e` as a [`Pfv`] (diagnostics / round-trip tests;
    /// the hot path never calls this).
    ///
    /// # Panics
    /// Panics if `e >= self.len()`.
    #[must_use]
    #[expect(clippy::expect_used, reason = "the leaf holds only validated pfv")]
    pub fn pfv(&self, e: usize) -> Pfv {
        assert!(e < self.len, "entry index out of range");
        let means: Vec<f64> = (0..self.dims)
            .map(|d| self.mu()[d * self.stride + e])
            .collect();
        let sigmas: Vec<f64> = (0..self.dims)
            .map(|d| self.sigma()[d * self.stride + e])
            .collect();
        Pfv::new(means, sigmas).expect("columnar leaf holds valid pfv")
    }
}

/// Evaluates `ln p(q|v)` (Lemma 1) for **every** entry of `leaf` in one
/// sweep, writing entry `e`'s joint log density to `out[e]`.
///
/// Bit-identical to calling [`crate::combine::log_joint`] per entry — see
/// the [module docs](self) for the exact contract.
///
/// # Panics
/// Panics if `q.dims() != leaf.dims()` or `out.len() != leaf.len()`.
pub fn log_densities(mode: CombineMode, q: &Pfv, leaf: &ColumnarLeaf, out: &mut [f64]) {
    assert_eq!(q.dims(), leaf.dims(), "dimensionality mismatch");
    assert_eq!(out.len(), leaf.len(), "output buffer length mismatch");
    out.fill(0.0);
    // The three columns once per call, not through `mu_col(d)` and its
    // siblings per dimension: a dimension is then one slice of a column,
    // as it was when each column was its own allocation (going through
    // the accessors measured +3 % on `log_density_one`).
    let (mus, sigmas, vars) = (leaf.mu(), leaf.sigma(), leaf.var());
    for d in 0..leaf.dims() {
        let (mq, sq) = q.component(d);
        let dim = d * leaf.stride..d * leaf.stride + leaf.len;
        let mu = &mus[dim.clone()];
        match mode {
            CombineMode::Convolution => {
                let sq2 = sq * sq;
                let var = &vars[dim];
                for ((o, &m), &va) in out.iter_mut().zip(mu).zip(var) {
                    let s = (va + sq2).sqrt();
                    let z = (mq - m) / s;
                    *o += -s.ln() - LN_SQRT_2PI - 0.5 * z * z;
                }
            }
            CombineMode::AdditiveSigma => {
                let sigma = &sigmas[dim];
                for ((o, &m), &sv) in out.iter_mut().zip(mu).zip(sigma) {
                    let s = sv + sq;
                    let z = (mq - m) / s;
                    *o += -s.ln() - LN_SQRT_2PI - 0.5 * z * z;
                }
            }
        }
    }
}

/// Evaluates `ln p(q|v)` for the single entry `e` of `leaf`, bit-identical
/// to `out[e]` after [`log_densities`] — and therefore to the scalar path.
/// This is the refine-tier kernel: k-MLIQ calls it for exactly the entries
/// whose fast-tier bound survives the candidate threshold.
///
/// # Panics
/// Panics if `q.dims() != leaf.dims()` or `e >= leaf.len()`.
#[must_use]
pub fn log_density_one(mode: CombineMode, q: &Pfv, leaf: &ColumnarLeaf, e: usize) -> f64 {
    assert_eq!(q.dims(), leaf.dims(), "dimensionality mismatch");
    assert!(e < leaf.len(), "entry index out of range");
    let mut acc = 0.0;
    let (mus, sigmas, vars) = (leaf.mu(), leaf.sigma(), leaf.var());
    for d in 0..leaf.dims() {
        let (mq, sq) = q.component(d);
        let at = d * leaf.stride + e;
        let m = mus[at];
        match mode {
            CombineMode::Convolution => {
                let sq2 = sq * sq;
                let va = vars[at];
                let s = (va + sq2).sqrt();
                let z = (mq - m) / s;
                acc += -s.ln() - LN_SQRT_2PI - 0.5 * z * z;
            }
            CombineMode::AdditiveSigma => {
                let sv = sigmas[at];
                let s = sv + sq;
                let z = (mq - m) / s;
                acc += -s.ln() - LN_SQRT_2PI - 0.5 * z * z;
            }
        }
    }
    acc
}

/// Reusable output buffer of the screen tier (one per query loop; it
/// grows to the largest leaf seen and is then reused).
#[derive(Debug, Clone, Default)]
pub struct FastScratch {
    bounds: Vec<f64>,
}

impl FastScratch {
    /// Empty scratch.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The bounds computed by the last [`screen_densities`] /
    /// [`log_densities_upper`] call: index `e < leaf.len()` holds a value
    /// `hi` with the guarantee `!(hi < exact)` — either a finite
    /// conservative upper bound on the exact log density, or NaN when the
    /// `z²` sum overflowed (NaN compares false, so a `hi < threshold`
    /// screen never skips such an entry). Padding lanes hold meaningless
    /// values.
    #[must_use]
    pub fn upper(&self) -> &[f64] {
        &self.bounds
    }
}

/// The two slack terms that make a screen-tier bound conservative against
/// the *floating-point* result of the exact kernel, for one
/// dimensionality. With `u = 2⁻⁵³`:
///
/// * the exact kernel sums `d` terms `a_j − ½z_j²` recursively, so its
///   result is within `(d + c)·u·Σ(|a_j| + ½z_j²)` of the real-valued sum
///   (`c ≈ 6` covers each term's own `sqrt`, divide, `ln` and
///   multiplies);
/// * the screen's `Σ z²` (one divide, one multiply, `d − 1` adds) is
///   within `(d + 2)·u` relative of the real-valued one, its folded `ln`
///   part within `4u·d·`[`LN_TERM_MAX`], and assembling a bound — or
///   the rearranged comparison of the block check — costs four more
///   roundings.
///
/// Bounding `Σ|a_j| ≤ d·`[`LN_TERM_MAX`], a relative slack
/// `ρ = (2d + 16)·u` on `½Σz²` and an absolute slack
/// `ρ·d·`[`LN_TERM_MAX`] dominate all of it with room to spare. The
/// absolute term is `3e-11` at `d = 10` and `2e-10` at `d = 27` — far
/// below any density gap worth screening on.
///
/// The analysis is symmetric, so the same terms also bound the exact
/// result from *below* ([`Slack::bound_below`]).
#[derive(Clone, Copy)]
pub(crate) struct Slack {
    abs: f64,
    half_rel: f64,
}

impl Slack {
    pub(crate) fn new(dims: usize) -> Self {
        Self::with_roundings(dims, 8.0)
    }

    /// The slack of the inner-node bracket ([`crate::rects`]). Its exact
    /// side rounds more per dimension than the leaf's exact kernel — the
    /// combined σ is the square root of the screen's clamp bound, the
    /// ridge term subtracts a rounded `ln` of a rounded constant — and its
    /// screen squares `dist` before clamping: four roundings per dimension
    /// more than [`Slack::new`] allows for, `ρ = (2d + 24)·u`.
    pub(crate) fn hull(dims: usize) -> Self {
        Self::with_roundings(dims, 12.0)
    }

    /// `ρ = (d + c)·2u`.
    fn with_roundings(dims: usize, c: f64) -> Self {
        let d = dims as f64;
        let rel = (d + c) * f64::EPSILON;
        Self {
            abs: rel * d * LN_TERM_MAX,
            half_rel: 0.5 * rel,
        }
    }

    /// How far a `z2 = Σ z²` over any prefix of the dimensions is sure to
    /// pull a density down: `½·z2`, less the relative slack. An overflowed
    /// `z2 = +∞` yields `∞ − ∞ =` NaN, which fails every comparison.
    #[inline(always)]
    fn fall(self, z2: f64) -> f64 {
        0.5 * z2 - self.half_rel * z2
    }

    /// The bound from an upper bound `ln_part` on `Σ_j a_j` and the
    /// screen's `z2`; NaN if `z2` overflowed, which keeps the entry.
    #[inline(always)]
    pub(crate) fn bound(self, ln_part: f64, z2: f64) -> f64 {
        (ln_part + self.abs) - self.fall(z2)
    }

    /// The mirror of [`Slack::bound`]: never above the exact result when
    /// `ln_part` and `z2` are the screen's — `½·z2` plus the relative
    /// slack, the absolute slack below `ln_part`. An overflowed `z2`
    /// yields `−∞`.
    #[inline(always)]
    pub(crate) fn bound_below(self, ln_part: f64, z2: f64) -> f64 {
        (ln_part - self.abs) - (0.5 * z2 + self.half_rel * z2)
    }
}

/// The screen tier with no threshold: computes, for every entry of `leaf`,
/// a **conservative upper bound** on `ln p(q|v)` — never below the exact
/// kernel's value. This is [`screen_densities`] with threshold `−∞`, so no
/// lane is abandoned and every bound carries the entry's own `ln` part.
///
/// # Panics
/// Panics if `q.dims() != leaf.dims()`.
pub fn log_densities_upper(mode: CombineMode, q: &Pfv, leaf: &ColumnarLeaf, out: &mut FastScratch) {
    screen_densities(mode, q, leaf, f64::NEG_INFINITY, out);
}

/// The screen tier: bounds `ln p(q|v)` from above for every entry of
/// `leaf`, doing only as much work per [`LANE_WIDTH`] block as it takes to
/// show that none of its lanes can reach `threshold`. Returns `false` only
/// if that was shown for every block, i.e. every entry's exact density is
/// below `threshold`.
///
/// Results land in `out` (see [`FastScratch::upper`]), resized to
/// [`ColumnarLeaf::padded_len`]. Every reported bound `hi` satisfies
/// `!(hi < exact)`, so `hi < threshold` proves `exact < threshold`:
///
/// * a block starts from the stored peak bounds and subtracts `½·Σ z²`
///   dimension by dimension; after every couple of dimensions it stops if
///   every lane has fallen below `threshold`, and its lanes report that
///   prefix bound. The omitted terms are `≤ 0`, so a prefix bound is a
///   bound (module docs);
/// * lanes that survive every dimension swap the peak for their own
///   `−½·ln Π(σv²+σq²) − d·ln √(2π)` (for
///   [`CombineMode::AdditiveSigma`], `−ln Π(σv+σq)`), taken through one
///   `ln` per entry;
/// * rounding: the private `Slack` terms cover every divergence
///   between this expression tree and the exact kernel's;
/// * overflow: a spread that overflows to `+∞` is read as `2¹⁰²⁴` (the
///   exact term is `−∞`, so any finite bound is conservative) and its
///   `z²` becomes 0; a `z²` sum that overflows turns the bound NaN, which
///   fails every `<` comparison — the entry is refined exactly rather
///   than skipped. Underflow only shrinks `z²`, which raises the bound.
///
/// # Panics
/// Panics if `q.dims() != leaf.dims()`.
pub fn screen_densities(
    mode: CombineMode,
    q: &Pfv,
    leaf: &ColumnarLeaf,
    threshold: f64,
    out: &mut FastScratch,
) -> bool {
    assert_eq!(q.dims(), leaf.dims(), "dimensionality mismatch");
    // Every lane is written below, so stale contents need no clearing.
    out.bounds.resize(leaf.padded_len(), 0.0);
    match mode {
        CombineMode::Convolution => screen::<true>(q, leaf, threshold, &mut out.bounds),
        CombineMode::AdditiveSigma => screen::<false>(q, leaf, threshold, &mut out.bounds),
    }
}

/// The one screen-kernel body; `CONVOLUTION` picks the spread column and
/// how `z²` and the `ln` part derive from `t = spread ⊕ query spread`.
fn screen<const CONVOLUTION: bool>(
    q: &Pfv,
    leaf: &ColumnarLeaf,
    threshold: f64,
    out: &mut [f64],
) -> bool {
    let stride = leaf.stride;
    let spread = if CONVOLUTION {
        leaf.var()
    } else {
        leaf.sigma()
    };
    let ln_scale = if CONVOLUTION { 0.5 } else { 1.0 };
    let norm_base = -(leaf.dims as f64) * LN_SQRT_2PI;
    let slack = Slack::new(leaf.dims);
    let mut all_below = true;
    for ((base, peak), out) in (0..stride)
        .step_by(LANE_WIDTH)
        .zip(leaf.log_norm().chunks_exact(LANE_WIDTH))
        .zip(out.chunks_exact_mut(LANE_WIDTH))
    {
        // How far each lane's peak bound lies above the threshold: the
        // lane is out once `slack.fall(z2)` exceeds it. Against `−∞` the
        // gap is `+∞` and nothing ever does.
        let mut gap = [0.0f64; LANE_WIDTH];
        for (g, &p) in gap.iter_mut().zip(peak) {
            *g = (p + slack.abs) - threshold;
        }
        let mut ln_t = LnFold::new();
        let mut z2 = [0.0f64; LANE_WIDTH];
        let mut columns = (leaf.mu().chunks_exact(stride))
            .zip(spread.chunks_exact(stride))
            .zip(q.means().iter().zip(q.sigmas()));
        let mut left = leaf.dims;
        let dead = loop {
            let mut dead = true;
            for (&g, &z) in gap.iter().zip(&z2) {
                dead &= slack.fall(z) > g;
            }
            if dead || left == 0 {
                for ((o, &p), &z) in out.iter_mut().zip(peak).zip(&z2) {
                    *o = slack.bound(p, z);
                }
                break dead;
            }
            ln_t.reserve(CHECK_DIMS);
            for ((mu, spread), (&mq, &sq)) in columns.by_ref().take(CHECK_DIMS) {
                let qs = if CONVOLUTION { sq * sq } else { sq };
                let mut t = [0.0f64; LANE_WIDTH];
                for (((t, z), &m), &s) in t
                    .iter_mut()
                    .zip(&mut z2)
                    .zip(&mu[base..base + LANE_WIDTH])
                    .zip(&spread[base..base + LANE_WIDTH])
                {
                    *t = s + qs;
                    let dm = mq - m;
                    let r = dm / *t;
                    *z += r * if CONVOLUTION { dm } else { r };
                }
                ln_t.mul(&t);
            }
            left = left.saturating_sub(CHECK_DIMS);
        };
        if dead {
            continue;
        }
        // Every dimension is in. A lane whose prefix bound is out keeps it
        // and pays no `ln`; the others swap the peak for their own ln part.
        for (l, (o, &z)) in out.iter_mut().zip(&z2).enumerate() {
            if *o < threshold {
                continue;
            }
            *o = slack.bound(norm_base - ln_scale * ln_t.ln(l), z);
            all_below &= *o < threshold;
        }
    }
    !all_below
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::combine;

    fn sample_leaf(dims: usize, n: usize, seed: u64) -> (Vec<Pfv>, ColumnarLeaf) {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let vs: Vec<Pfv> = (0..n)
            .map(|_| {
                let means: Vec<f64> = (0..dims).map(|_| next() * 20.0 - 10.0).collect();
                let sigmas: Vec<f64> = (0..dims).map(|_| 0.01 + next()).collect();
                Pfv::new(means, sigmas).unwrap()
            })
            .collect();
        let leaf = ColumnarLeaf::from_pfvs(dims, vs.iter());
        (vs, leaf)
    }

    #[test]
    fn ln_fold_matches_the_sum_of_lns_across_refolds() {
        // Mantissas just below 2 overflow an unreduced product after 1024
        // factors; exponents sweep the whole normal range and +∞.
        let mut fold = LnFold::new();
        let mut want = [0.0f64; LANE_WIDTH];
        for i in 0..3000i32 {
            let mut t = [0.0f64; LANE_WIDTH];
            for (l, (t, w)) in t.iter_mut().zip(&mut want).enumerate() {
                let mant = 2.0 - f64::from(1 + l as i32) * 1e-3;
                *t = mant * 2f64.powi((i * 37 + l as i32 * 101) % 2040 - 1020);
                *w += t.ln();
            }
            fold.reserve(1);
            fold.mul(&t);
        }
        for (l, &w) in want.iter().enumerate() {
            assert!(
                (fold.ln(l) - w).abs() <= 1e-12 * w.abs().max(1.0),
                "lane {l}"
            );
        }
        let mut fold = LnFold::new();
        fold.mul(&[f64::INFINITY; LANE_WIDTH]);
        assert_eq!(fold.ln(0), 1024.0 * LN_2);
    }

    #[test]
    fn padding_lanes_repeat_the_last_entry() {
        let (vs, leaf) = sample_leaf(3, 5, 31);
        let last = &vs[4];
        for d in 0..3 {
            let at = d * leaf.padded_len();
            for e in 5..leaf.padded_len() {
                assert_eq!(leaf.mu()[at + e], last.means()[d]);
                assert_eq!(leaf.sigma()[at + e], last.sigmas()[d]);
                assert_eq!(leaf.var()[at + e], leaf.var()[at + 4]);
            }
        }
        assert!(leaf.log_norm()[5..]
            .iter()
            .all(|&p| p == leaf.log_norm()[4]));
    }

    #[test]
    fn columns_are_a_transpose() {
        let (vs, leaf) = sample_leaf(4, 7, 99);
        assert_eq!(leaf.len(), 7);
        assert_eq!(leaf.dims(), 4);
        for (e, v) in vs.iter().enumerate() {
            for d in 0..4 {
                assert_eq!(leaf.mu_col(d)[e], v.means()[d]);
                assert_eq!(leaf.sigma_col(d)[e], v.sigmas()[d]);
                assert_eq!(leaf.var_col(d)[e], v.sigmas()[d] * v.sigmas()[d]);
            }
            assert_eq!(leaf.pfv(e), *v);
        }
    }

    #[test]
    fn columns_are_padded_to_lane_multiples() {
        for n in [0usize, 1, 7, 8, 9, 48] {
            let (_, leaf) = sample_leaf(3, n, 17);
            assert_eq!(leaf.padded_len() % LANE_WIDTH, 0);
            assert!(leaf.padded_len() >= n);
            assert!(leaf.padded_len() < n + LANE_WIDTH);
            // Unpadded accessors never expose padding lanes.
            for d in 0..3 {
                assert_eq!(leaf.mu_col(d).len(), n);
                assert_eq!(leaf.sigma_col(d).len(), n);
                assert_eq!(leaf.var_col(d).len(), n);
            }
            assert_eq!(leaf.log_norm_col().len(), n);
        }
    }

    #[test]
    fn log_norm_bounds_every_density() {
        let (vs, leaf) = sample_leaf(6, 33, 321);
        let q = Pfv::new(vec![0.25; 6], vec![0.15; 6]).unwrap();
        for mode in [CombineMode::Convolution, CombineMode::AdditiveSigma] {
            for (e, v) in vs.iter().enumerate() {
                let exact = combine::log_joint(mode, v, &q);
                assert!(
                    leaf.log_norm_col()[e] >= exact,
                    "peak bound below density for entry {e} ({mode:?})"
                );
            }
        }
    }

    #[test]
    fn batched_is_bit_identical_to_scalar() {
        let (vs, leaf) = sample_leaf(10, 48, 2024);
        let q = Pfv::new(vec![0.5; 10], vec![0.2; 10]).unwrap();
        let mut out = vec![f64::NAN; leaf.len()];
        for mode in [CombineMode::Convolution, CombineMode::AdditiveSigma] {
            log_densities(mode, &q, &leaf, &mut out);
            for (v, &got) in vs.iter().zip(out.iter()) {
                let want = combine::log_joint(mode, v, &q);
                assert_eq!(got.to_bits(), want.to_bits(), "mode {mode:?}");
            }
        }
    }

    #[test]
    fn single_entry_kernel_is_bit_identical_to_batch() {
        // Leaf sizes chosen to exercise non-trivial padding tails.
        for n in [1usize, 5, 8, 21, 48] {
            let (_, leaf) = sample_leaf(7, n, 1000 + n as u64);
            let q = Pfv::new(vec![0.1; 7], vec![0.3; 7]).unwrap();
            let mut out = vec![f64::NAN; leaf.len()];
            for mode in [CombineMode::Convolution, CombineMode::AdditiveSigma] {
                log_densities(mode, &q, &leaf, &mut out);
                for (e, &want) in out.iter().enumerate() {
                    let got = log_density_one(mode, &q, &leaf, e);
                    assert_eq!(got.to_bits(), want.to_bits(), "entry {e} mode {mode:?}");
                }
            }
        }
    }

    #[test]
    fn fast_tier_never_undershoots_the_exact_density() {
        for (dims, n, seed) in [(2usize, 13usize, 5u64), (10, 48, 2024), (27, 30, 77)] {
            let (_, leaf) = sample_leaf(dims, n, seed);
            let mut exact = vec![0.0; leaf.len()];
            let mut scratch = FastScratch::new();
            for qseed in 0..8u64 {
                let (qs, _) = sample_leaf(dims, 1, 9000 + qseed);
                let q = &qs[0];
                for mode in [CombineMode::Convolution, CombineMode::AdditiveSigma] {
                    log_densities(mode, q, &leaf, &mut exact);
                    log_densities_upper(mode, q, &leaf, &mut scratch);
                    assert_eq!(scratch.upper().len(), leaf.padded_len());
                    for (e, &want) in exact.iter().enumerate() {
                        let hi = scratch.upper()[e];
                        // The screening guarantee: `hi < want` must never
                        // hold (NaN bounds pass vacuously).
                        assert!(
                            hi.is_nan() || hi >= want,
                            "fast bound {hi} under exact {want} (entry {e}, {mode:?}, d={dims})"
                        );
                        // And the bound is tight enough to be useful.
                        if hi.is_finite() && want.is_finite() {
                            assert!(hi - want < 1e-6 * (1.0 + want.abs()));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fast_tier_is_safe_under_underflow_and_overflow() {
        // A query astronomically far away: exact densities are -inf; the
        // fast bound must not compare below them (NaN or any value is
        // fine — `!(hi < -inf)` always holds; this documents no panic and
        // no bogus finite "skip" path).
        let (_, leaf) = sample_leaf(3, 9, 7);
        let q = Pfv::new(vec![1e200; 3], vec![0.1; 3]).unwrap();
        let mut scratch = FastScratch::new();
        let mut exact = vec![0.0; leaf.len()];
        for mode in [CombineMode::Convolution, CombineMode::AdditiveSigma] {
            log_densities(mode, &q, &leaf, &mut exact);
            log_densities_upper(mode, &q, &leaf, &mut scratch);
            for (e, &want) in exact.iter().enumerate() {
                assert_eq!(want, f64::NEG_INFINITY);
                let hi = scratch.upper()[e];
                assert!(hi.is_nan() || hi >= want, "entry {e} mode {mode:?}");
            }
        }
    }

    #[test]
    fn padding_lanes_do_not_contribute() {
        // Two leaves sharing a 5-entry prefix, one with 3 extra entries:
        // the shared entries' exact densities and fast bounds must be
        // bit-identical, i.e. results depend only on the entry, never on
        // the padding or on neighbours.
        let (vs, _) = sample_leaf(4, 8, 4242);
        let short = ColumnarLeaf::from_pfvs(4, vs[..5].iter());
        let long = ColumnarLeaf::from_pfvs(4, vs.iter());
        let q = Pfv::new(vec![0.4; 4], vec![0.2; 4]).unwrap();
        let mut out_s = vec![0.0; 5];
        let mut out_l = vec![0.0; 8];
        let (mut fs, mut fl) = (FastScratch::new(), FastScratch::new());
        for mode in [CombineMode::Convolution, CombineMode::AdditiveSigma] {
            log_densities(mode, &q, &short, &mut out_s);
            log_densities(mode, &q, &long, &mut out_l);
            log_densities_upper(mode, &q, &short, &mut fs);
            log_densities_upper(mode, &q, &long, &mut fl);
            for e in 0..5 {
                assert_eq!(out_s[e].to_bits(), out_l[e].to_bits());
                assert_eq!(fs.upper()[e].to_bits(), fl.upper()[e].to_bits());
            }
        }
    }

    #[test]
    fn underflow_maps_to_neg_infinity_like_scalar() {
        // A query astronomically far from every entry: z² overflows and the
        // density underflows to -inf, exactly as in the scalar path.
        let (vs, leaf) = sample_leaf(3, 5, 7);
        let q = Pfv::new(vec![1e200; 3], vec![0.1; 3]).unwrap();
        let mut out = vec![0.0; leaf.len()];
        log_densities(CombineMode::Convolution, &q, &leaf, &mut out);
        for (v, &got) in vs.iter().zip(out.iter()) {
            let want = combine::log_joint(CombineMode::Convolution, v, &q);
            assert_eq!(got.to_bits(), want.to_bits());
            assert_eq!(got, f64::NEG_INFINITY);
        }
    }

    #[test]
    fn empty_leaf_is_fine() {
        let leaf = ColumnarLeaf::from_pfvs(2, std::iter::empty::<&Pfv>());
        assert!(leaf.is_empty());
        assert_eq!(leaf.padded_len(), 0);
        let q = Pfv::new(vec![0.0, 0.0], vec![0.1, 0.1]).unwrap();
        let mut out: Vec<f64> = Vec::new();
        log_densities(CombineMode::Convolution, &q, &leaf, &mut out);
        let mut scratch = FastScratch::new();
        log_densities_upper(CombineMode::Convolution, &q, &leaf, &mut scratch);
        assert!(scratch.upper().is_empty());
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn rejects_wrong_query_dims() {
        let (_, leaf) = sample_leaf(3, 4, 1);
        let q = Pfv::new(vec![0.0], vec![0.1]).unwrap();
        let mut out = vec![0.0; 4];
        log_densities(CombineMode::Convolution, &q, &leaf, &mut out);
    }

    #[test]
    #[should_panic(expected = "output buffer")]
    fn rejects_short_output() {
        let (_, leaf) = sample_leaf(2, 4, 1);
        let q = Pfv::new(vec![0.0, 0.0], vec![0.1, 0.1]).unwrap();
        let mut out = vec![0.0; 3];
        log_densities(CombineMode::Convolution, &q, &leaf, &mut out);
    }
}
