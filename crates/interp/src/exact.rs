//! Exact, order-invariant f64 accumulation for global reductions.
//!
//! Floating-point addition is not associative, so a distributed sum
//! whose per-rank partials depend on the decomposition cannot be made
//! bit-identical across rank counts by *any* fixed combine tree — the
//! tree's leaves move when the strategy changes. [`ExactSum`] sidesteps
//! the problem: every input is accumulated **exactly** into a
//! fixed-point superaccumulator wide enough for the entire f64 range,
//! and the single rounding to f64 happens once, at the end. Exact
//! addition is associative and commutative, so *any* partitioning of
//! the inputs — per thread, per rank, per strategy — merges to the
//! same accumulator state and rounds to the same bits as a serial
//! left-to-right pass. This is the determinism guarantee behind
//! `stencil.reduce`: the result is the **correctly rounded exact sum**
//! of the inputs, an order-free mathematical function of the multiset.
//!
//! # Representation
//!
//! A finite f64 is an integer multiple of 2⁻¹⁰⁷⁴ with at most 2098
//! significant bits (max exponent 2¹⁰²³ × 53-bit mantissa). The
//! accumulator stores that integer in [`NLIMBS`] signed 64-bit limbs
//! of radix 2³², value = Σ `limbs[i]`·2^(32·i − 1074): 66 limbs cover
//! the f64 range, one more absorbs carries. Each `add` deposits the
//! (up to three) 32-bit windows of the shifted mantissa with plain
//! wrapping-free i64 adds; a counter renormalizes every 2³⁰ deposits,
//! long before any limb can overflow.
//!
//! Non-finite inputs are siphoned into a separate IEEE sum: over a
//! *set* of specials the result class (NaN, or the common infinity) is
//! order-independent, so determinism survives; the exact path then
//! never sees them.
//!
//! # The two-stage fold
//!
//! One `add` is a finite check, a 128-bit shift, a sign branch and three
//! read-modify-writes — about seven cycles a point and nothing a
//! compiler can vectorize. [`ExactSum::extend`] and
//! [`ExactSum::extend_products`] reach the *same accumulator state* by
//! putting an error-free vector stage in front of it. A row is cut into
//! blocks of at most [`BLOCK`] = 512 values, and per block:
//!
//! 1. **Top.** One vector pass finds the largest magnitude as raw bits
//!    (integer order on sign-cleared bits is magnitude order, with every
//!    NaN/∞ above every finite value). Its biased exponent field is `e`;
//!    write `E = e − 1023`, so every `|x| < 2^(E+1)`. A block whose top
//!    is zero holds only `±0.0` and deposits nothing.
//! 2. **Peel.** With `W` = 44 and anchors `M_j = 1.5·2^(E+53−(j+1)·W)`
//!    for `j = 0, 1, 2`, each value goes through three rounds of
//!    `q = (r + M_j) − M_j; r = r − q` (starting from `r = x`), and each
//!    `q` is added to a per-level, per-lane f64 sum (8 lanes, so two
//!    AVX2 vectors of independent add chains per level).
//! 3. **Deposit.** The lanes of a level are added up and the three
//!    totals go through the scalar `add`: three deposits per block
//!    instead of one per point.
//!
//! For `dot` the value is the per-point product `a[i]·b[i]`, rounded
//! once to f64 exactly as the per-point path rounds it, and formed again
//! (the same IEEE operation on the same operands) in each pass.
//!
//! ## Why every step is exact
//!
//! Let `g_j = 2^(E+1−(j+1)·W)`, the ulp of the binade `[2^k, 2^(k+1))`
//! with `k = E+53−(j+1)·W` that `M_j` sits in the middle of.
//!
//! * **`q` is `r` rounded to a multiple of `g_j`, exactly.** The input
//!   of level `j` satisfies `|r| ≤ 2^(E+1)` (`j = 0`) or `|r| ≤ g_(j−1)/2`
//!   (`j > 0`); both are at most `2^(k−1)` because `W ≤ 51`. So
//!   `r + M_j` lies in `[2^k, 2^(k+1)]` for either sign of `r` (that is
//!   what the factor 1.5 buys), where floats are spaced `g_j` apart: the
//!   addition rounds `r` to the nearest multiple of `g_j`, ties to even.
//!   Subtracting `M_j` back is exact by Sterbenz's lemma (the two are
//!   within a factor 2 of each other). Hence `|q| ≤ 2^W·g_0` on level 0
//!   and `|q| ≤ 2^(W−1)·g_j` below.
//! * **`r − q` is exact,** and `|r − q| ≤ g_j/2`. If `|r| < g_j/2` then
//!   `q = 0`. Otherwise `r − q` is a multiple of `r`'s own last-place
//!   unit `u` (if `u > g_j`, `r` is already on the grid, `q = r`), no
//!   larger than `|r| < 2^53·u`, hence representable. So after three
//!   levels `x = q_0 + q_1 + q_2 + r_2` with no rounding anywhere.
//! * **Every lane sum and level total is exact.** The slices of one
//!   level are multiples of `g_j` of magnitude at most `2^W·g_j`, and a
//!   block holds at most 512 = 2⁹ of them: the sum of *any* subset is a
//!   multiple of `g_j` no larger than `2^(9+W)·g_j = 2^53·g_j`, which is
//!   a representable f64. Every partial sum the lanes (and the final
//!   lane reduction) form is such a subset sum, so each of those f64
//!   additions is exact whatever the lane count or association — the
//!   reason for `W` = 44 at `BLOCK` = 512.
//! * **The deposits are exact** because `add` is.
//!
//! The block's slices therefore add up to the block exactly iff every
//! final residual `r_2` is zero — iff every value is a multiple of
//! `g_2 = 2^(E+1−3W)`, which holds for *any* f64 whose exponent is
//! within `3W − 53` = 79 binades of the block's top (and for smaller
//! ones with trailing zero bits).
//!
//! ## Escape conditions
//!
//! A block leaves the vector stage for one `add` per point — the same
//! values, so the same state — when
//!
//! * the OR of the final residuals is not `±0.0`: some value reaches
//!   below `g_2` (exponent span too wide). A NaN anywhere in the block
//!   also lands here, since it survives every peel;
//! * the top exponent field is above `TOP_MAX` = 2036: the first anchor,
//!   or a level total of `2^(E+10)`, could overflow. Every block holding
//!   an ∞ or a NaN has top field 2047, and `f64::MAX`-sized data lands
//!   here too (its overflow-to-∞ and cancellation-back-in-range
//!   behaviour is the superaccumulator's);
//! * the top exponent field is below `TOP_MIN` = 80: the last anchor
//!   would be subnormal (all-subnormal blocks included).
//!
//! Exactness thus never depends on the data; only speed does.
//! [`ExactSum::extend`] returns how many blocks escaped, and the
//! executor reports it on its `Reduce` trace spans.
//!
//! The stage is written once over a `Lanes` abstraction with two
//! instantiations — portable `[f64; 8]` loops and explicit AVX2, picked
//! at run time by `is_x86_feature_detected!("avx2")`. Every lane
//! operation is the same IEEE (or bitwise) operation in both, so they
//! agree bit for bit; the tests call both directly. The per-point `add`
//! remains as the oracle (the interpreter uses nothing else), the escape
//! path and the block flush.
//!
//! Min/max reductions need no such machinery — [`ReduceAcc`] folds
//! them with [`f64::total_cmp`], a total order on bit patterns, which
//! is equally order-invariant.

/// Limbs in the superaccumulator: 66 cover every finite f64 in units
/// of 2⁻¹⁰⁷⁴, plus one carry-headroom limb.
const NLIMBS: usize = 67;

/// Deposits between forced renormalizations. Each deposit perturbs a
/// limb by < 2³², so 2³⁰ of them keep every limb below 2⁶³.
const RENORM_EVERY: u32 = 1 << 30;

/// Points per block of the two-stage fold ([`ExactSum::extend`]).
pub const BLOCK: usize = 512;

/// Independent accumulator lanes of the block fold (two AVX2 vectors).
const LANES: usize = 8;

/// Extraction levels per block, and the bits each level peels off.
/// `BLOCK · 2^W = 2⁵³`: the sum of *any* subset of one level's slices
/// is an exactly representable f64 (module docs, "Why every step is
/// exact").
const LEVELS: usize = 3;
const W: u64 = 44;
const _: () = assert!(BLOCK as u64 * (1 << W) == 1 << 53 && BLOCK % LANES == 0);

/// Biased exponent fields of a block's largest magnitude between which
/// the vector stage runs: the last anchor's field, `e + 53 − LEVELS·W`,
/// must be at least 1 (normal), and the first anchor's binade top,
/// field `e + 54 − W`, at most 2046 (finite).
const TOP_MIN: u64 = LEVELS as u64 * W - 52;
const TOP_MAX: u64 = 2046 - 54 + W;

const ABS_MASK: u64 = !(1 << 63);

/// `LANES` values processed together by the vector stage. Every
/// operation is the identical IEEE (or bitwise) op per lane, so the two
/// implementations produce the same bits; they differ only in speed.
trait Lanes: Copy {
    fn splat(c: f64) -> Self;
    fn load(c: &[f64; LANES]) -> Self;
    fn add(self, o: Self) -> Self;
    fn sub(self, o: Self) -> Self;
    fn mul(self, o: Self) -> Self;
    /// Bitwise OR of the lanes' bit patterns.
    fn or(self, o: Self) -> Self;
    /// `self` holds sign-cleared bit patterns: the lane-wise larger of
    /// it and `|o|` in *integer* order on the bits — magnitude order
    /// with every NaN/∞ above every finite value.
    fn max_abs(self, o: Self) -> Self;
    fn to_array(self) -> [f64; LANES];
}

/// Portable lanes: fixed-width loops over `[f64; 8]`.
#[derive(Copy, Clone)]
struct Portable([f64; LANES]);

impl Portable {
    #[inline(always)]
    fn zip(mut self, o: Self, f: impl Fn(f64, f64) -> f64) -> Self {
        for l in 0..LANES {
            self.0[l] = f(self.0[l], o.0[l]);
        }
        self
    }
}

impl Lanes for Portable {
    #[inline(always)]
    fn splat(c: f64) -> Self {
        Portable([c; LANES])
    }
    #[inline(always)]
    fn load(c: &[f64; LANES]) -> Self {
        Portable(*c)
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        self.zip(o, |a, b| a + b)
    }
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        self.zip(o, |a, b| a - b)
    }
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        self.zip(o, |a, b| a * b)
    }
    #[inline(always)]
    fn or(self, o: Self) -> Self {
        self.zip(o, |a, b| f64::from_bits(a.to_bits() | b.to_bits()))
    }
    #[inline(always)]
    fn max_abs(self, o: Self) -> Self {
        self.zip(o, |a, b| f64::from_bits(a.to_bits().max(b.to_bits() & ABS_MASK)))
    }
    #[inline(always)]
    fn to_array(self) -> [f64; LANES] {
        self.0
    }
}

/// Explicit AVX2 lanes (two `__m256d` halves); no FMA contraction.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{Lanes, ABS_MASK, LANES};
    use std::arch::x86_64::*;

    /// Invariant: values of this type exist only while the generic
    /// stage runs as [`super::ExactSum::fold_avx2`], whose caller
    /// detected AVX2. Every `unsafe` block below executes AVX2
    /// instructions on the strength of that; the two that touch memory
    /// say what else they need.
    #[derive(Copy, Clone)]
    pub struct Avx2(__m256d, __m256d);

    impl Lanes for Avx2 {
        #[inline(always)]
        fn splat(c: f64) -> Self {
            // SAFETY: AVX2 is present (type invariant).
            unsafe { Avx2(_mm256_set1_pd(c), _mm256_set1_pd(c)) }
        }
        #[inline(always)]
        fn load(c: &[f64; LANES]) -> Self {
            // SAFETY: AVX2 is present (type invariant); the unaligned
            // loads read `c[0..4]` and `c[4..8]`, inside the array.
            unsafe { Avx2(_mm256_loadu_pd(c.as_ptr()), _mm256_loadu_pd(c.as_ptr().add(4))) }
        }
        #[inline(always)]
        fn add(self, o: Self) -> Self {
            // SAFETY: AVX2 is present (type invariant).
            unsafe { Avx2(_mm256_add_pd(self.0, o.0), _mm256_add_pd(self.1, o.1)) }
        }
        #[inline(always)]
        fn sub(self, o: Self) -> Self {
            // SAFETY: AVX2 is present (type invariant).
            unsafe { Avx2(_mm256_sub_pd(self.0, o.0), _mm256_sub_pd(self.1, o.1)) }
        }
        #[inline(always)]
        fn mul(self, o: Self) -> Self {
            // SAFETY: AVX2 is present (type invariant).
            unsafe { Avx2(_mm256_mul_pd(self.0, o.0), _mm256_mul_pd(self.1, o.1)) }
        }
        #[inline(always)]
        fn or(self, o: Self) -> Self {
            // SAFETY: AVX2 is present (type invariant).
            unsafe { Avx2(_mm256_or_pd(self.0, o.0), _mm256_or_pd(self.1, o.1)) }
        }
        #[inline(always)]
        fn max_abs(self, o: Self) -> Self {
            /// # Safety
            /// AVX2 must be present.
            #[inline(always)]
            unsafe fn half(m: __m256d, x: __m256d) -> __m256d {
                let x = _mm256_and_pd(x, _mm256_set1_pd(f64::from_bits(ABS_MASK)));
                // Sign-cleared patterns are non-negative as i64, so the
                // signed compare orders them as unsigned.
                let gt = _mm256_cmpgt_epi64(_mm256_castpd_si256(x), _mm256_castpd_si256(m));
                _mm256_blendv_pd(m, x, _mm256_castsi256_pd(gt))
            }
            // SAFETY: AVX2 is present (type invariant).
            unsafe { Avx2(half(self.0, o.0), half(self.1, o.1)) }
        }
        #[inline(always)]
        fn to_array(self) -> [f64; LANES] {
            let mut out = [0.0; LANES];
            // SAFETY: AVX2 is present (type invariant); the unaligned
            // stores write `out[0..4]` and `out[4..8]`, inside the array.
            unsafe {
                _mm256_storeu_pd(out.as_mut_ptr(), self.0);
                _mm256_storeu_pd(out.as_mut_ptr().add(4), self.1);
            }
            out
        }
    }
}

// Everything generic over `L` below must inline into the instantiation
// that names it (`fold_portable`, `fold_avx2`): a `std::arch` intrinsic
// compiles to its instruction only inside a function carrying the
// matching `#[target_feature]`. Hence `#[inline(always)]` throughout and
// plain loops — a closure body is a function of its own.

/// One block of the fold's input: the values of `a`, or the per-point
/// products `a[i]·b[i]` — each rounded once, exactly as the per-point
/// path forms them, and formed again wherever the block is re-read.
#[derive(Copy, Clone)]
struct Block<'a> {
    a: &'a [f64],
    b: Option<&'a [f64]>,
}

impl Block<'_> {
    /// Value `i` of the block.
    #[inline(always)]
    fn point(self, i: usize) -> f64 {
        match self.b {
            None => self.a[i],
            Some(b) => self.a[i] * b[i],
        }
    }

    /// Whole lane groups in the block.
    #[inline(always)]
    fn groups(self) -> usize {
        self.a.len() / LANES
    }

    /// Lane group `g < self.groups()`.
    #[inline(always)]
    fn group<L: Lanes>(self, g: usize) -> L {
        #[inline(always)]
        fn load<L: Lanes>(xs: &[f64], g: usize) -> L {
            L::load(xs[g * LANES..][..LANES].try_into().expect("a slice of LANES values"))
        }
        match self.b {
            None => load::<L>(self.a, g),
            Some(b) => load::<L>(self.a, g).mul(load(b, g)),
        }
    }

    /// The values after the last whole group, padded with `+0.0` (which
    /// deposits nothing), if there are any.
    #[inline(always)]
    fn tail<L: Lanes>(self) -> Option<L> {
        let whole = self.groups() * LANES;
        if whole == self.a.len() {
            return None;
        }
        let pad = |xs: &[f64]| {
            let mut c = [0.0; LANES];
            c[..xs.len() - whole].copy_from_slice(&xs[whole..]);
            c
        };
        let (a, b) = (pad(self.a), self.b.map(pad));
        Some(Block { a: &a, b: b.as_ref().map(|b| &b[..]) }.group(0))
    }

    /// `max |x|` over the block as raw bits (sign cleared).
    #[inline(always)]
    fn top_bits<L: Lanes>(self) -> u64 {
        let mut m = L::splat(0.0);
        for g in 0..self.groups() {
            m = m.max_abs(self.group(g));
        }
        if let Some(t) = self.tail() {
            m = m.max_abs(t);
        }
        let mut top = 0;
        for x in m.to_array() {
            top = top.max(x.to_bits());
        }
        top
    }

    /// The vector stage: splits every value of the block into `LEVELS`
    /// slices against anchors placed `W` bits apart below the block's
    /// top exponent and sums each level's slices in `LANES` lanes. All
    /// of it is exact: the result is the block's sum as one f64 per
    /// level, or `None` for a block that has to escape to the per-point
    /// path.
    #[inline(always)]
    fn extract<L: Lanes>(self) -> Option<[f64; LEVELS]> {
        let top = self.top_bits::<L>();
        if top == 0 {
            return Some([0.0; LEVELS]); // only ±0.0: nothing to deposit
        }
        let e = top >> 52;
        if !(TOP_MIN..=TOP_MAX).contains(&e) {
            return None; // includes every block holding a NaN or ∞
        }
        // Anchor j is 1.5·2^k with ulp 2^(E+1−(j+1)·W): adding it to a
        // value rounds that value to a multiple of the ulp, subtracting
        // it back is exact, and 1.5 keeps the sum inside one binade for
        // either sign.
        let mut peel = Peel {
            anchor: [L::splat(0.0); LEVELS],
            acc: [L::splat(0.0); LEVELS],
            resid: L::splat(0.0),
        };
        for (j, a) in peel.anchor.iter_mut().enumerate() {
            *a = L::splat(f64::from_bits(((e + 53 - (j as u64 + 1) * W) << 52) | (1 << 51)));
        }
        for g in 0..self.groups() {
            peel.step(self.group(g));
        }
        if let Some(t) = self.tail() {
            peel.step(t);
        }
        // A residual that is not ±0.0 (a NaN included): some value has
        // bits below the last level's grid, so the slices do not add up
        // to it.
        let mut left = 0;
        for r in peel.resid.to_array() {
            left |= r.to_bits() & ABS_MASK;
        }
        if left != 0 {
            return None;
        }
        let mut slices = [0.0; LEVELS];
        for (s, lanes) in slices.iter_mut().zip(peel.acc) {
            let l = lanes.to_array();
            // Exact in any association: see `W`.
            *s = ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
        }
        Some(slices)
    }
}

/// Running state of one block's vector stage.
struct Peel<L> {
    anchor: [L; LEVELS],
    /// Per level, the lane sums of the slices peeled so far.
    acc: [L; LEVELS],
    /// OR of what was left of every value after the last level.
    resid: L,
}

impl<L: Lanes> Peel<L> {
    #[inline(always)]
    fn step(&mut self, mut r: L) {
        for j in 0..LEVELS {
            let q = r.add(self.anchor[j]).sub(self.anchor[j]);
            self.acc[j] = self.acc[j].add(q);
            r = r.sub(q);
        }
        self.resid = self.resid.or(r);
    }
}

/// Exact f64 accumulator: order-invariant sum with one final rounding.
#[derive(Clone, Debug)]
pub struct ExactSum {
    limbs: [i64; NLIMBS],
    pending: u32,
    special: f64,
    has_special: bool,
}

impl Default for ExactSum {
    fn default() -> Self {
        ExactSum::new()
    }
}

impl ExactSum {
    /// Number of f64 words in the wire encoding ([`ExactSum::to_wire`]).
    pub const WIRE_LEN: usize = NLIMBS + 2;

    /// An empty accumulator (rounds to `+0.0`).
    pub fn new() -> ExactSum {
        ExactSum { limbs: [0; NLIMBS], pending: 0, special: 0.0, has_special: false }
    }

    /// Accumulates `x` exactly. `±0.0` deposits nothing (the empty sum
    /// rounds to `+0.0`, so a sum of zeros is `+0.0` regardless of the
    /// signs — consistently on every path). Non-finite values divert to
    /// the IEEE special sum.
    pub fn add(&mut self, x: f64) {
        if !x.is_finite() {
            self.special += x;
            self.has_special = true;
            return;
        }
        let bits = x.to_bits();
        let frac = bits & ((1u64 << 52) - 1);
        let e = ((bits >> 52) & 0x7ff) as u32;
        // value = mant · 2^(s − 1074): subnormals sit at the bottom,
        // normals carry the implicit bit and shift by e − 1.
        let (mant, s) = if e == 0 { (frac, 0) } else { (frac | (1u64 << 52), e - 1) };
        if mant == 0 {
            return;
        }
        let q = (s / 32) as usize;
        let wide = (mant as u128) << (s % 32); // ≤ 84 bits: three 32-bit windows
        let w =
            [(wide & 0xffff_ffff) as i64, ((wide >> 32) & 0xffff_ffff) as i64, (wide >> 64) as i64];
        if bits >> 63 == 0 {
            self.limbs[q] += w[0];
            self.limbs[q + 1] += w[1];
            self.limbs[q + 2] += w[2];
        } else {
            self.limbs[q] -= w[0];
            self.limbs[q + 1] -= w[1];
            self.limbs[q + 2] -= w[2];
        }
        self.pending += 1;
        if self.pending >= RENORM_EVERY {
            self.renormalize();
        }
    }

    /// Accumulates every value of `xs` exactly — the same accumulator
    /// state as one [`ExactSum::add`] per value, reached through the
    /// two-stage block fold (module docs). Returns the number of blocks
    /// that escaped to the per-point path.
    pub fn extend(&mut self, xs: &[f64]) -> u32 {
        self.fold(xs, None)
    }

    /// Accumulates the per-point products `a[i]·b[i]` exactly, each
    /// product rounded once to f64 first (the `dot` contract). Returns
    /// the number of blocks that escaped to the per-point path.
    ///
    /// # Panics
    /// Panics if the slices differ in length.
    pub fn extend_products(&mut self, a: &[f64], b: &[f64]) -> u32 {
        assert_eq!(a.len(), b.len(), "dot operands differ in length");
        self.fold(a, Some(b))
    }

    /// Picks the widest instantiation the host runs.
    fn fold(&mut self, a: &[f64], b: Option<&[f64]>) -> u32 {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU feature the callee is compiled for was
            // detected on the line above.
            return unsafe { self.fold_avx2(a, b) };
        }
        self.fold_portable(a, b)
    }

    /// The block fold compiled for the build's baseline target.
    fn fold_portable(&mut self, a: &[f64], b: Option<&[f64]>) -> u32 {
        self.fold_blocks::<Portable>(a, b)
    }

    /// The block fold over the explicit AVX2 lanes, compiled with the
    /// feature enabled so their intrinsics inline.
    ///
    /// # Safety
    /// The caller must have detected AVX2 on the running CPU.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn fold_avx2(&mut self, a: &[f64], b: Option<&[f64]>) -> u32 {
        self.fold_blocks::<avx2::Avx2>(a, b)
    }

    /// Both stages over `a` (or over the products `a·b`), one block at a
    /// time: vector stage, then `LEVELS` deposits — or one per point for
    /// a block that escaped. Inlined into each instantiation above.
    #[inline(always)]
    fn fold_blocks<L: Lanes>(&mut self, a: &[f64], b: Option<&[f64]>) -> u32 {
        let mut escaped = 0;
        for from in (0..a.len()).step_by(BLOCK) {
            let to = a.len().min(from + BLOCK);
            let block = Block { a: &a[from..to], b: b.map(|b| &b[from..to]) };
            match block.extract::<L>() {
                Some(slices) => {
                    for s in slices {
                        self.add(s);
                    }
                }
                None => {
                    escaped += 1;
                    for i in 0..to - from {
                        self.add(block.point(i));
                    }
                }
            }
        }
        escaped
    }

    /// Restores the canonical form: `limbs[..N-1]` in `[0, 2³²)`, the
    /// top limb carrying the (signed) remainder. The canonical limbs
    /// are a pure function of the accumulated value, which is what
    /// makes the wire encoding deterministic.
    fn renormalize(&mut self) {
        for i in 0..NLIMBS - 1 {
            let carry = self.limbs[i] >> 32; // arithmetic: floor division
            self.limbs[i] -= carry << 32;
            self.limbs[i + 1] += carry;
        }
        self.pending = 0;
    }

    /// Merges another accumulator in: exactly equivalent to having
    /// added all of `other`'s inputs to `self`, in any order.
    pub fn merge(&mut self, mut other: ExactSum) {
        self.renormalize();
        other.renormalize();
        for (a, b) in self.limbs.iter_mut().zip(other.limbs) {
            *a += b;
        }
        self.pending = 1;
        if other.has_special {
            self.special += other.special;
            self.has_special = true;
        }
    }

    /// Rounds the exact value to the nearest f64 (ties to even) — the
    /// one place the sum meets floating point.
    pub fn round(&self) -> f64 {
        if self.has_special {
            return self.special;
        }
        let mut t = self.clone();
        t.renormalize();
        let mut sign = 1.0f64;
        if t.limbs[NLIMBS - 1] < 0 {
            sign = -1.0;
            for l in &mut t.limbs {
                *l = -*l;
            }
            t.renormalize();
        }
        let Some(h) = t.limbs.iter().rposition(|&l| l != 0) else {
            return 0.0;
        };
        let bits_h = 64 - (t.limbs[h] as u64).leading_zeros() as u64;
        let lbits = 32 * h as u64 + bits_h;
        if lbits <= 53 {
            // The value fits a mantissa: both conversions below are
            // exact, so no rounding happens at all.
            let m = (t.limbs[0] as u64) | ((t.limbs[1] as u64) << 32);
            return sign * (m as f64) * f64::from_bits(1); // × 2⁻¹⁰⁷⁴
        }
        // Extract the top 53 bits plus guard/sticky from a 3-limb
        // window ending at the highest set bit.
        let mut sh = lbits - 53; // final exponent, in units of 2⁻¹⁰⁷⁴
        let base = h.saturating_sub(2);
        let mut window: u128 = 0;
        for i in (base..=h).rev() {
            window = (window << 32) | (t.limbs[i] as u64 as u128);
        }
        let off = (sh - 32 * base as u64) as u32; // ≥ 1 by construction
        let mut mant = (window >> off) as u64;
        let guard = (window >> (off - 1)) & 1 == 1;
        let sticky =
            window & ((1u128 << (off - 1)) - 1) != 0 || t.limbs[..base].iter().any(|&l| l != 0);
        if guard && (sticky || mant & 1 == 1) {
            mant += 1;
            if mant == 1u64 << 53 {
                mant >>= 1;
                sh += 1;
            }
        }
        // lbits > 53 ⇒ the value is ≥ 2⁻¹⁰²¹: always normal, so the
        // exponent assembles directly (no double rounding possible).
        let e2 = sh as i64 - 1022;
        if e2 > 1023 {
            return sign * f64::INFINITY;
        }
        let out = (((e2 + 1023) as u64) << 52) | (mant & ((1u64 << 52) - 1));
        sign * f64::from_bits(out)
    }

    /// Serializes to [`ExactSum::WIRE_LEN`] f64 words for an exact
    /// cross-rank exchange: the canonical limbs (each below 2⁵³, hence
    /// exactly representable), then the special flag and special sum.
    pub fn to_wire(&self) -> Vec<f64> {
        let mut t = self.clone();
        t.renormalize();
        let mut w: Vec<f64> = t.limbs.iter().map(|&l| l as f64).collect();
        w.push(f64::from(u8::from(self.has_special)));
        w.push(self.special);
        w
    }

    /// Deserializes a [`ExactSum::to_wire`] payload.
    ///
    /// # Errors
    /// Rejects, naming the word, a payload of the wrong length, a limb
    /// word that is not an integer below 2⁵³ in magnitude (NaN and ±∞
    /// included), and a special flag other than 0 or 1.
    pub fn from_wire(w: &[f64]) -> Result<ExactSum, String> {
        if w.len() != Self::WIRE_LEN {
            return Err(format!(
                "exact-sum wire has {} words, expected {}",
                w.len(),
                Self::WIRE_LEN
            ));
        }
        let mut s = ExactSum::new();
        for (i, (l, &v)) in s.limbs.iter_mut().zip(w).enumerate() {
            // Written so that a NaN, which fails every comparison, is rejected.
            if !(v.abs() < (1u64 << 53) as f64 && v.fract() == 0.0) {
                return Err(format!(
                    "exact-sum wire word {i} is {v:e}, not an integer limb below 2^53"
                ));
            }
            *l = v as i64; // exact: an integer of at most 53 bits
        }
        let flag = w[NLIMBS];
        if flag != 0.0 && flag != 1.0 {
            return Err(format!(
                "exact-sum wire word {NLIMBS} (special flag) is {flag:e}, not 0 or 1"
            ));
        }
        s.has_special = flag == 1.0;
        s.special = w[NLIMBS + 1];
        Ok(s)
    }
}

/// The reduction kinds `stencil.reduce` supports.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ReduceKind {
    /// Correctly rounded exact sum of the field's points.
    Sum,
    /// Correctly rounded exact sum of pointwise products of two fields.
    Dot,
    /// Minimum under [`f64::total_cmp`] (empty range → `+∞`).
    Min,
    /// Maximum under [`f64::total_cmp`] (empty range → `−∞`).
    Max,
}

impl ReduceKind {
    /// All kinds, for matrix-style tests.
    pub const ALL: [ReduceKind; 4] =
        [ReduceKind::Sum, ReduceKind::Dot, ReduceKind::Min, ReduceKind::Max];

    /// The attribute spelling (`sum`/`dot`/`min`/`max`).
    pub fn name(self) -> &'static str {
        match self {
            ReduceKind::Sum => "sum",
            ReduceKind::Dot => "dot",
            ReduceKind::Min => "min",
            ReduceKind::Max => "max",
        }
    }

    /// Parses the attribute spelling.
    pub fn parse(s: &str) -> Option<ReduceKind> {
        match s {
            "sum" => Some(ReduceKind::Sum),
            "dot" => Some(ReduceKind::Dot),
            "min" => Some(ReduceKind::Min),
            "max" => Some(ReduceKind::Max),
            _ => None,
        }
    }

    /// Number of field operands (`dot` combines two).
    pub fn arity(self) -> usize {
        if self == ReduceKind::Dot {
            2
        } else {
            1
        }
    }
}

/// A running reduction of one [`ReduceKind`]: exact accumulation for
/// sum/dot, a `total_cmp` lattice fold for min/max. Every operation is
/// order-invariant, so partials may be split per thread, per rank, or
/// per strategy and merged in any order with bit-identical results.
#[derive(Clone, Debug)]
// One accumulator exists per thread-chunk / rank, not per element, so
// the Exact variant's superaccumulator being large is irrelevant;
// boxing it would put an indirection on the per-point add path instead.
#[allow(clippy::large_enum_variant)]
pub enum ReduceAcc {
    /// Exact sum state (sum and dot).
    Exact(ExactSum),
    /// Current lattice extremum (min and max), with the kind.
    Lattice(ReduceKind, f64),
}

impl ReduceAcc {
    /// The identity accumulator for `kind`.
    pub fn new(kind: ReduceKind) -> ReduceAcc {
        match kind {
            ReduceKind::Sum | ReduceKind::Dot => ReduceAcc::Exact(ExactSum::new()),
            ReduceKind::Min => ReduceAcc::Lattice(kind, f64::INFINITY),
            ReduceKind::Max => ReduceAcc::Lattice(kind, f64::NEG_INFINITY),
        }
    }

    /// Accumulates one point's contribution (for `dot`, pass the
    /// already-formed product — per-point products are deterministic).
    pub fn add(&mut self, x: f64) {
        match self {
            ReduceAcc::Exact(s) => s.add(x),
            ReduceAcc::Lattice(kind, cur) => {
                let take = match kind {
                    ReduceKind::Min => x.total_cmp(cur) == std::cmp::Ordering::Less,
                    _ => x.total_cmp(cur) == std::cmp::Ordering::Greater,
                };
                if take {
                    *cur = x;
                }
            }
        }
    }

    /// Merges another partial of the same kind.
    ///
    /// # Panics
    /// Panics if the kinds disagree (a compiler bug, not a data error).
    pub fn merge(&mut self, other: ReduceAcc) {
        match (self, other) {
            (ReduceAcc::Exact(a), ReduceAcc::Exact(b)) => a.merge(b),
            (acc @ ReduceAcc::Lattice(..), ReduceAcc::Lattice(_, v)) => acc.add(v),
            _ => panic!("merging reduce partials of different kinds"),
        }
    }

    /// The wire length for `kind` ([`ReduceAcc::to_wire`]).
    pub fn wire_len(kind: ReduceKind) -> usize {
        match kind {
            ReduceKind::Sum | ReduceKind::Dot => ExactSum::WIRE_LEN,
            ReduceKind::Min | ReduceKind::Max => 1,
        }
    }

    /// Serializes the partial for a cross-rank exchange.
    pub fn to_wire(&self) -> Vec<f64> {
        match self {
            ReduceAcc::Exact(s) => s.to_wire(),
            ReduceAcc::Lattice(_, v) => vec![*v],
        }
    }

    /// Deserializes a peer's [`ReduceAcc::to_wire`] payload.
    ///
    /// # Errors
    /// Rejects payloads of the wrong length for `kind` and whatever
    /// [`ExactSum::from_wire`] rejects.
    pub fn from_wire(kind: ReduceKind, w: &[f64]) -> Result<ReduceAcc, String> {
        match kind {
            ReduceKind::Sum | ReduceKind::Dot => Ok(ReduceAcc::Exact(ExactSum::from_wire(w)?)),
            ReduceKind::Min | ReduceKind::Max => {
                if w.len() != 1 {
                    return Err(format!("min/max wire has {} words, expected 1", w.len()));
                }
                let mut acc = ReduceAcc::new(kind);
                acc.add(w[0]);
                Ok(acc)
            }
        }
    }

    /// The reduction result (one rounding for sum/dot; the extremum's
    /// exact bits for min/max).
    pub fn finish(&self) -> f64 {
        match self {
            ReduceAcc::Exact(s) => s.round(),
            ReduceAcc::Lattice(_, v) => *v,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum_of(xs: &[f64]) -> f64 {
        let mut s = ExactSum::new();
        for &x in xs {
            s.add(x);
        }
        s.round()
    }

    #[test]
    fn empty_and_zero_sums() {
        assert_eq!(sum_of(&[]).to_bits(), 0.0f64.to_bits());
        assert_eq!(sum_of(&[0.0, -0.0, 0.0]).to_bits(), 0.0f64.to_bits());
        assert_eq!(sum_of(&[42.5]), 42.5);
        assert_eq!(sum_of(&[-42.5]), -42.5);
    }

    #[test]
    fn cancellation_is_exact() {
        // Naive summation loses the 1.0 entirely; the exact sum keeps it.
        assert_eq!(sum_of(&[1e300, 1.0, -1e300]), 1.0);
        assert_eq!(sum_of(&[1e-300, 1e300, -1e300, -1e-300]), 0.0);
        assert_eq!(sum_of(&[f64::MAX, f64::MIN_POSITIVE, -f64::MAX]), f64::MIN_POSITIVE);
    }

    #[test]
    fn subnormals_accumulate_exactly() {
        let tiny = f64::from_bits(1); // 2⁻¹⁰⁷⁴
        let mut s = ExactSum::new();
        for _ in 0..1000 {
            s.add(tiny);
        }
        assert_eq!(s.round(), f64::from_bits(1000));
    }

    #[test]
    fn permutation_and_chunking_invariance() {
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            // Scatter magnitudes across ~120 binades to force carries.
            let m = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            m * (2.0f64).powi((state % 120) as i32 - 60)
        };
        let xs: Vec<f64> = (0..4096).map(|_| rnd()).collect();
        let want = sum_of(&xs);
        let mut rev = xs.clone();
        rev.reverse();
        assert_eq!(sum_of(&rev).to_bits(), want.to_bits(), "reversal changed the sum");
        for chunks in [2usize, 3, 7, 64] {
            let mut total = ExactSum::new();
            for c in xs.chunks(xs.len() / chunks) {
                let mut part = ExactSum::new();
                for &x in c {
                    part.add(x);
                }
                total.merge(part);
            }
            assert_eq!(total.round().to_bits(), want.to_bits(), "{chunks} chunks");
        }
    }

    #[test]
    fn rounding_is_nearest_even() {
        let ulp = f64::from_bits(1.0f64.to_bits() + 1) - 1.0;
        // Exactly halfway with even mantissa: stays at 1.0.
        assert_eq!(sum_of(&[1.0, ulp / 2.0]), 1.0);
        // Halfway plus a sliver: rounds up.
        assert_eq!(sum_of(&[1.0, ulp / 2.0, f64::from_bits(1)]), 1.0 + ulp);
        // Halfway from an odd mantissa: rounds up to even.
        assert_eq!(sum_of(&[1.0 + ulp, ulp / 2.0]), 1.0 + 2.0 * ulp);
    }

    #[test]
    fn overflow_rounds_to_infinity() {
        assert_eq!(sum_of(&[f64::MAX, f64::MAX]), f64::INFINITY);
        assert_eq!(sum_of(&[-f64::MAX, -f64::MAX]), f64::NEG_INFINITY);
        // ...but cancellation brings it back in range.
        assert_eq!(sum_of(&[f64::MAX, f64::MAX, -f64::MAX]), f64::MAX);
    }

    #[test]
    fn specials_divert_to_ieee_semantics() {
        assert_eq!(sum_of(&[1.0, f64::INFINITY, 2.0]), f64::INFINITY);
        assert!(sum_of(&[f64::INFINITY, f64::NEG_INFINITY]).is_nan());
        assert!(sum_of(&[f64::NAN, 1.0]).is_nan());
    }

    #[test]
    fn wire_round_trips_canonically() {
        let mut s = ExactSum::new();
        for i in 0..500 {
            s.add((f64::from(i) * 0.37).sin() * 1e10);
            s.add(-(f64::from(i) * 0.11).cos() * 1e-10);
        }
        let w = s.to_wire();
        assert_eq!(w.len(), ExactSum::WIRE_LEN);
        let back = ExactSum::from_wire(&w).unwrap();
        assert_eq!(back.round().to_bits(), s.round().to_bits());
        assert_eq!(back.to_wire(), w, "wire form is canonical");
        assert!(ExactSum::from_wire(&w[1..]).is_err());
    }

    type FoldFn = fn(&mut ExactSum, &[f64], Option<&[f64]>) -> u32;

    /// Every instantiation of the block fold this host can run, to be
    /// called directly (not through `ExactSum::fold`'s switch).
    fn folds() -> Vec<(&'static str, FoldFn)> {
        let mut v: Vec<(&'static str, FoldFn)> = vec![("portable", ExactSum::fold_portable)];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: AVX2 was detected on the line above.
            v.push(("avx2", |s, a, b| unsafe { s.fold_avx2(a, b) }));
        }
        v
    }

    /// The accumulator's observable state, NaN-safe.
    fn wire_bits(s: &ExactSum) -> Vec<u64> {
        s.to_wire().iter().map(|w| w.to_bits()).collect()
    }

    fn per_point(a: &[f64], b: Option<&[f64]>) -> ExactSum {
        let mut s = ExactSum::new();
        for i in 0..a.len() {
            s.add(b.map_or(a[i], |b| a[i] * b[i]));
        }
        s
    }

    /// Asserts that every instantiation folds `a` (or `a·b`) to the state
    /// per-point `add` reaches, all escaping the same blocks; returns
    /// that count and the rounded sum.
    fn check(a: &[f64], b: Option<&[f64]>) -> (u32, f64) {
        let want = per_point(a, b);
        let mut escapes = Vec::new();
        for (name, fold) in folds() {
            let mut got = ExactSum::new();
            escapes.push(fold(&mut got, a, b));
            assert_eq!(wire_bits(&got), wire_bits(&want), "{name}, {} values", a.len());
        }
        assert!(escapes.iter().all(|&e| e == escapes[0]), "escapes differ: {escapes:?}");
        (escapes[0], want.round())
    }

    /// `n` values with random 53-bit mantissas, random signs and
    /// exponents spread over `span` binades below 2^`top`.
    fn spread(seed: u64, n: usize, top: i32, span: u32) -> Vec<f64> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let m = 1.0 + (state >> 12) as f64 / (1u64 << 52) as f64; // [1, 2), every bit live
                let sign = if state & 1 == 0 { 1.0 } else { -1.0 };
                sign * m * 2f64.powi(top - 1 - ((state >> 1) % u64::from(span)) as i32)
            })
            .collect()
    }

    #[test]
    fn fold_matches_per_point_at_every_length() {
        let a = spread(1, 2 * BLOCK + 7, 3, 30);
        let b = spread(2, 2 * BLOCK + 7, -5, 20);
        for len in 0..=a.len() {
            assert_eq!(check(&a[..len], None).0, 0);
            assert_eq!(check(&a[..len], Some(&b[..len])).0, 0);
        }
    }

    #[test]
    fn fold_is_invariant_under_splits_and_permutations() {
        let xs = spread(3, 2 * BLOCK + 7, 10, 60);
        let want = wire_bits(&per_point(&xs, None));
        for (name, fold) in folds() {
            // Every split offset: each one moves both block boundaries.
            for k in 0..=xs.len() {
                let mut s = ExactSum::new();
                fold(&mut s, &xs[..k], None);
                fold(&mut s, &xs[k..], None);
                assert_eq!(wire_bits(&s), want, "{name}, split at {k}");
            }
            let mut perm = xs.clone();
            for round in 0..8 {
                perm.rotate_left(131 + round);
                perm.reverse();
                perm.swap(round, BLOCK + round);
                let mut s = ExactSum::new();
                fold(&mut s, &perm, None);
                assert_eq!(wire_bits(&s), want, "{name}, permutation {round}");
            }
        }
    }

    #[test]
    fn exponent_span_decides_speed_never_the_sum() {
        let blocks = 3;
        for (span, fast) in
            [(4, true), (30, true), (70, true), (120, false), (600, false), (2000, false)]
        {
            for top in [0, 300, -200] {
                if span == 2000 && top != 0 {
                    continue; // 2000 binades only fit centred
                }
                let top = if span == 2000 { 1000 } else { top };
                let a = spread(u64::from(span), blocks * BLOCK, top, span);
                let b = spread(u64::from(span) + 1, blocks * BLOCK, 1, 1);
                let want = if fast { 0 } else { blocks as u32 };
                assert_eq!(check(&a, None).0, want, "sum, {span} binades below 2^{top}");
                assert_eq!(check(&a, Some(&b)).0, want, "dot, {span} binades below 2^{top}");
            }
        }
    }

    #[test]
    fn zeros_subnormals_and_the_ends_of_the_range() {
        // ±0.0 only: nothing deposited, nothing escaped, +0.0 out.
        let zeros: Vec<f64> = (0..BLOCK + 9).map(|i| if i % 3 == 0 { -0.0 } else { 0.0 }).collect();
        let (escaped, sum) = check(&zeros, None);
        assert_eq!((escaped, sum.to_bits()), (0, 0.0f64.to_bits()));
        assert_eq!(check(&zeros, Some(&zeros)).1.to_bits(), 0.0f64.to_bits());
        // Signed zeros among ordinary values stay on the fast path.
        let mut mixed = spread(5, BLOCK, 0, 20);
        mixed[17] = -0.0;
        mixed[400] = 0.0;
        assert_eq!(check(&mixed, None).0, 0);

        // Subnormals, alone and under a normal top: per-point path.
        let tiny: Vec<f64> = (1..=700u64).map(|i| f64::from_bits(i * 0x1_0001)).collect();
        assert_eq!(check(&tiny, None).0, 2);
        let mut under = spread(6, BLOCK, -1000, 40);
        under[3] = f64::from_bits(1);
        assert_eq!(check(&under, None).0, 1);
        // Products that underflow to subnormals or to zero.
        let small = spread(7, BLOCK, -520, 30);
        check(&small, Some(&small));

        // f64::MAX pairs: overflow rounds to ∞, cancellation comes back.
        let mut big = spread(8, BLOCK, 1020, 10);
        big[100] = f64::MAX;
        big[300] = f64::MAX;
        assert_eq!(check(&[f64::MAX, f64::MAX], None), (1, f64::INFINITY));
        assert_eq!(check(&[-f64::MAX, -f64::MAX], None), (1, f64::NEG_INFINITY));
        assert_eq!(check(&[f64::MAX, f64::MAX, -f64::MAX], None), (1, f64::MAX));
        assert_eq!(check(&big, None).0, 1);
        // Products that overflow divert to the special sum, as per point.
        let huge = spread(9, BLOCK, 600, 10);
        assert!(check(&huge, Some(&huge)).1.is_infinite());
    }

    #[test]
    fn specials_mid_block_escape_that_block_only() {
        for special in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for at in [0, 5, BLOCK - 1, BLOCK, BLOCK + 8, 2 * BLOCK + 6] {
                let mut xs = spread(10, 2 * BLOCK + 7, 0, 25);
                xs[at] = special;
                let (escaped, sum) = check(&xs, None);
                assert_eq!(escaped, 1, "{special} at {at}");
                assert_eq!(sum.to_bits(), special.to_bits(), "{special} at {at}");
                let ones = vec![1.0; xs.len()];
                assert_eq!(check(&xs, Some(&ones)).0, 1);
            }
        }
        // A NaN among zeros must not be mistaken for an all-zero block.
        let mut xs = vec![0.0; BLOCK];
        xs[77] = f64::NAN;
        assert!(check(&xs, None).1.is_nan());
        let mut xs = vec![0.0; 20];
        xs[3] = f64::INFINITY;
        xs[11] = f64::NEG_INFINITY;
        assert!(check(&xs, None).1.is_nan());
    }

    #[test]
    fn blocks_on_each_escape_threshold() {
        let pow2 = |biased: u64| f64::from_bits(biased << 52);
        // Top exponent at either end of the fast window, and one outside.
        for (biased, escaped) in
            [(TOP_MIN, 0), (TOP_MIN - 1, 1), (TOP_MAX, 0), (TOP_MAX + 1, 1), (2046, 1), (1, 1)]
        {
            let xs: Vec<f64> = spread(11, BLOCK, 1, 1).iter().map(|x| x * pow2(biased)).collect();
            assert_eq!(check(&xs, None).0, escaped, "top exponent {biased}");
        }
        // The lane sums at their bound: BLOCK values of the largest
        // magnitude a top exponent admits, every mantissa bit set.
        for biased in [TOP_MIN, 1023, TOP_MAX] {
            let x = f64::from_bits(((biased + 1) << 52) - 1);
            assert_eq!(check(&vec![x; BLOCK], None).0, 0);
            assert_eq!(check(&vec![-x; BLOCK], None).0, 0);
        }
        // The last level's grid under a top of 1.0 is 2^(1 − LEVELS·W):
        // a value on it is absorbed, one bit below it escapes.
        let grid = 1 - (LEVELS as i32) * W as i32;
        for (low, escaped) in [
            (2f64.powi(grid), 0),
            (2f64.powi(grid - 1), 1),
            (-3.0 * 2f64.powi(grid), 0),
            (f64::from_bits(1.0f64.to_bits() + 1) * 2f64.powi(grid + 52), 0),
            (f64::from_bits(1.0f64.to_bits() + 1) * 2f64.powi(grid + 51), 1),
        ] {
            let mut xs = vec![1.0; BLOCK];
            xs[9] = low;
            assert_eq!(check(&xs, None).0, escaped, "low value {low:e}");
        }
        // Ties between grid points of every level but the last, both
        // signs (round-to-even picks a slice either way; the next level
        // takes the rest).
        let mut xs = vec![1.5, -1.25];
        for level in 1..LEVELS as i32 {
            let half = 2f64.powi(-level * W as i32);
            xs.extend([half, -half, 3.0 * half, -3.0 * half, 1.0 + half, -1.0 - half]);
        }
        assert_eq!(check(&xs, None).0, 0);
    }

    #[test]
    fn public_entry_points_fold_and_count_escapes() {
        let a = spread(12, 3 * BLOCK, 0, 30);
        let mut b = spread(13, 3 * BLOCK, 0, 30);
        let mut s = ExactSum::new();
        assert_eq!(s.extend(&a), 0);
        assert_eq!(wire_bits(&s), wire_bits(&per_point(&a, None)));
        b[BLOCK + 1] = f64::NAN;
        let mut d = ExactSum::new();
        assert_eq!(d.extend_products(&a, &b), 1);
        assert_eq!(wire_bits(&d), wire_bits(&per_point(&a, Some(&b))));
    }

    #[test]
    fn hostile_wire_payloads_are_rejected_by_word() {
        let mut s = ExactSum::new();
        s.extend(&spread(14, 100, 40, 90));
        let good = s.to_wire();
        assert!(ExactSum::from_wire(&good).is_ok());
        assert!(ExactSum::from_wire(&good[1..]).unwrap_err().contains("68 words"));
        assert!(ExactSum::from_wire(&[good.clone(), vec![0.0]].concat()).is_err());
        let limb = NLIMBS - 1;
        for (word, bad) in [
            (0, f64::NAN),
            (3, f64::INFINITY),
            (limb, f64::NEG_INFINITY),
            (5, 0.5),
            (limb, -1.25),
            (7, (1u64 << 53) as f64),
            (9, -((1u64 << 53) as f64)),
            (11, 1e300),
            (NLIMBS, 2.0),
            (NLIMBS, 0.5),
            (NLIMBS, -1.0),
            (NLIMBS, f64::NAN),
        ] {
            let mut w = good.clone();
            w[word] = bad;
            let err = ExactSum::from_wire(&w).expect_err("hostile payload accepted");
            assert!(err.contains(&format!("word {word} ")), "{err}");
            for kind in [ReduceKind::Sum, ReduceKind::Dot] {
                assert_eq!(ReduceAcc::from_wire(kind, &w).unwrap_err(), err);
            }
        }
        // The largest limb the encoding admits, and any special sum.
        let mut w = good.clone();
        w[limb] = -((1u64 << 53) as f64 - 1.0);
        w[NLIMBS] = 1.0;
        w[NLIMBS + 1] = f64::NAN;
        assert!(ExactSum::from_wire(&w).unwrap().round().is_nan());
        for kind in [ReduceKind::Min, ReduceKind::Max] {
            assert!(ReduceAcc::from_wire(kind, &[]).is_err());
            assert!(ReduceAcc::from_wire(kind, &[1.0, 2.0]).is_err());
        }
    }

    #[test]
    fn renormalization_under_pressure() {
        // Alternate signs at one magnitude so limbs swing negative.
        let mut s = ExactSum::new();
        for i in 0..10_000 {
            s.add(if i % 2 == 0 { 3.25e8 } else { -1.25e8 });
        }
        assert_eq!(s.round(), 5000.0 * 3.25e8 - 5000.0 * 1.25e8);
    }

    #[test]
    fn lattice_min_max_total_order() {
        for kind in [ReduceKind::Min, ReduceKind::Max] {
            let mut a = ReduceAcc::new(kind);
            for x in [3.0, -0.0, 0.0, -7.5, 2.0] {
                a.add(x);
            }
            let fwd = a.finish();
            let mut b = ReduceAcc::new(kind);
            for x in [2.0, -7.5, 0.0, -0.0, 3.0] {
                b.add(x);
            }
            assert_eq!(fwd.to_bits(), b.finish().to_bits());
        }
        // total_cmp distinguishes signed zero deterministically.
        let mut m = ReduceAcc::new(ReduceKind::Min);
        m.add(0.0);
        m.add(-0.0);
        assert_eq!(m.finish().to_bits(), (-0.0f64).to_bits());
        // Identities of the empty range.
        assert_eq!(ReduceAcc::new(ReduceKind::Min).finish(), f64::INFINITY);
        assert_eq!(ReduceAcc::new(ReduceKind::Max).finish(), f64::NEG_INFINITY);
    }

    #[test]
    fn reduce_acc_wire_round_trip() {
        for kind in ReduceKind::ALL {
            let mut a = ReduceAcc::new(kind);
            for x in [1.5, -2.25, 1e-9] {
                a.add(x);
            }
            let w = a.to_wire();
            assert_eq!(w.len(), ReduceAcc::wire_len(kind));
            let b = ReduceAcc::from_wire(kind, &w).unwrap();
            assert_eq!(b.finish().to_bits(), a.finish().to_bits(), "{kind:?}");
        }
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in ReduceKind::ALL {
            assert_eq!(ReduceKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(ReduceKind::parse("prod"), None);
        assert_eq!(ReduceKind::Dot.arity(), 2);
        assert_eq!(ReduceKind::Sum.arity(), 1);
    }
}
