//! Shared test support: a tiny deterministic PRNG and the executor-tier
//! and decomposition-strategy axes of the property matrices.
//!
//! The randomized suites (`roundtrip`, `properties`, `random_stencils`)
//! were written against `proptest`, which the offline build environment
//! cannot fetch. They now draw from this xorshift64* generator instead:
//! every case is a function of its seed, so failures reproduce exactly by
//! re-running the named seed.

/// The executor tiers a matrix enumerates: every rung of the ladder, or
/// the one `STEN_EXEC_TIER` pins.
#[allow(dead_code)]
pub fn tiers() -> Vec<stencil_stack::exec::TierKind> {
    use stencil_stack::exec::TierKind;
    TierKind::from_env().map_or_else(|| TierKind::ALL.to_vec(), |t| vec![t])
}

/// The decomposition strategies a matrix enumerates: all of them, or the
/// one `STEN_DECOMP_STRATEGY` pins.
#[allow(dead_code)]
pub fn strategies() -> Vec<&'static str> {
    use stencil_stack::dmp::STRATEGY_NAMES;
    match std::env::var("STEN_DECOMP_STRATEGY") {
        Ok(name) => vec![*STRATEGY_NAMES
            .iter()
            .find(|s| **s == name)
            .unwrap_or_else(|| panic!("unknown STEN_DECOMP_STRATEGY '{name}'"))],
        Err(_) => STRATEGY_NAMES.to_vec(),
    }
}

/// The layout of `func` distributed over `grid` by the default
/// `distribute-stencil` (one module every rank runs), laid over the
/// undistributed `module`'s field.
#[allow(dead_code)]
pub fn spmd_layout(
    mut module: stencil_stack::ir::Module,
    func: &str,
    grid: Vec<i64>,
) -> stencil_stack::interp::Layout {
    use stencil_stack::interp::{Layout, RankBox};
    use stencil_stack::ir::Pass as _;
    use stencil_stack::stencil::ShapeInference;
    ShapeInference.run(&mut module).unwrap();
    let global = RankBox::of(&module, func).unwrap().stored;
    stencil_stack::dmp::DistributeStencil::new(grid).run(&mut module).unwrap();
    ShapeInference.run(&mut module).unwrap();
    Layout::of_spmd(global, &module, func).unwrap()
}

/// `rank`'s two buffer arguments (`src`, `dst`), each a copy of its
/// scattered part.
#[allow(dead_code)]
pub fn buffer_pair(
    layout: &stencil_stack::interp::Layout,
    parts: &[Vec<f64>],
    rank: usize,
) -> Vec<stencil_stack::interp::ArgSpec> {
    let shape = layout.ranks[rank].stored.shape();
    let buffer = stencil_stack::interp::ArgSpec::Buffer { shape, data: parts[rank].clone() };
    vec![buffer.clone(), buffer]
}

/// A deterministic xorshift64* pseudo-random generator.
pub struct Rng(u64);

// Each integration-test crate compiles its own copy of this module and
// uses a different subset of the helpers.
#[allow(dead_code)]
impl Rng {
    /// Creates a generator from `seed` (any value, including 0).
    pub fn new(seed: u64) -> Rng {
        // Splash the seed so small consecutive seeds diverge immediately.
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x2545_F491_4F6C_DD1D | 1)
    }

    /// The next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo >= hi`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        let span = (hi - lo) as u64;
        lo + (self.next_u64() % span) as i64
    }

    /// Uniform index in `[lo, hi)`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range_i64(lo as i64, hi as i64) as usize
    }

    /// Uniform float in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + unit * (hi - lo)
    }

    /// True with probability `num/den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.next_u64() % den < num
    }
}

#[test]
fn rng_is_deterministic_and_in_range() {
    let mut a = Rng::new(7);
    let mut b = Rng::new(7);
    for _ in 0..100 {
        assert_eq!(a.next_u64(), b.next_u64());
    }
    let mut r = Rng::new(1);
    for _ in 0..1000 {
        let v = r.range_i64(-3, 3);
        assert!((-3..3).contains(&v));
        let f = r.range_f64(0.5, 2.0);
        assert!((0.5..2.0).contains(&f));
    }
    // Different seeds diverge.
    assert_ne!(Rng::new(0).next_u64(), Rng::new(1).next_u64());
}
