//! Order statistics, the seeded input generator and the state digest.

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolation quantile `q` in `[0, 1]` of `values`; 0 for no
/// values (a span kind that never occurred, a pass a failure cut short).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Distance between the quartiles as a percentage of the median.
pub fn iqr_pct(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    100.0 * (quantile(values, 0.75) - quantile(values, 0.25)) / m
}

/// splitmix64: the benchmark's only randomness, fully determined by
/// `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A field of `len` values uniform in `[-1, 1)`.
    pub fn field(&mut self, len: usize) -> Vec<f64> {
        (0..len).map(|_| (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0).collect()
    }
}

/// Order-sensitive 64-bit digest of a word stream (multiply-xorshift
/// fold; an order of magnitude faster than the FNV-128 content hash on
/// the 33 MB heat-3d state, which is hashed every round).
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0x6A09_E667_F3BC_C908)
    }

    pub fn word(&mut self, w: u64) {
        let x = (self.0 ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = x ^ (x >> 29);
    }

    pub fn f64s(&mut self, values: &[f64]) {
        self.word(values.len() as u64);
        for v in values {
            self.word(v.to_bits());
        }
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.word(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        for &b in chunks.remainder() {
            self.word(u64::from(b));
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}
