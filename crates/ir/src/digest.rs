//! Stable content digests shared across the stack.
//!
//! Two digests, both stable across processes and builds (unlike `std`'s
//! randomly-keyed SipHash) and neither cryptographic:
//!
//! - [`content_hash`] — a pair of independently-seeded FNV-1a-64 streams
//!   over bytes, concatenated into a printable 128-bit key. The compile
//!   cache keys modules with it: its inputs are small (printed IR), and
//!   cache keys depend on its exact value.
//! - [`WordHash`] — a seeded 4-lane multiply-rotate hash over 64-bit
//!   words, folded to 128 bits. The resilient executor content-addresses
//!   checkpoints with it: a snapshot's `f64` bit patterns are hashed in
//!   place, four independent lanes at a time, instead of being
//!   serialised first and hashed a byte at a time.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;
/// Arbitrary second seed decorrelating the high digest half.
const FNV_OFFSET_2: u64 = 0x9e37_79b9_7f4a_7c15;

fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = seed;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Stable 128-bit content digest of `bytes` (the compile-cache key).
pub fn content_hash(bytes: &[u8]) -> u128 {
    (u128::from(fnv1a(FNV_OFFSET, bytes)) << 64) | u128::from(fnv1a(FNV_OFFSET_2, bytes))
}

const P1: u64 = 0x9e37_79b1_85eb_ca87;
const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const P3: u64 = 0x1656_67b1_9e37_79f9;
const P4: u64 = 0x85eb_ca77_c2b2_ae63;
/// Seed of the word hash. Checkpoint blobs on disk are named by their
/// digest, so changing it renames every one of them.
const WORD_SEED: u64 = 0x5354_454e_434b_5054;

/// One lane step: a bijection of `lane` for a fixed `word` and of `word`
/// for a fixed `lane`, so two streams that differ in a single word always
/// end in different lane states.
#[inline(always)]
fn round(lane: u64, word: u64) -> u64 {
    lane.wrapping_add(word.wrapping_mul(P2)).rotate_left(31).wrapping_mul(P1)
}

/// A bijective 64-bit finaliser (xorshift-multiply).
fn avalanche(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// The checkpoint digest: a stream of 64-bit words, word `i` folded into
/// lane `i mod 4`, the four lanes finished into 128 bits.
///
/// The digest depends only on the word sequence, not on how it is split
/// across calls: [`WordHash::f64s`] steps single words up to a lane
/// boundary, then runs whole 4-word blocks with one independent
/// multiply chain per lane. Streams of equal length that differ in one
/// word always digest differently; the low half is a bijection of the
/// lane sum.
#[derive(Clone, Debug)]
pub struct WordHash {
    lanes: [u64; 4],
    words: u64,
}

impl Default for WordHash {
    fn default() -> Self {
        WordHash::new()
    }
}

impl WordHash {
    /// A fresh hash over the empty stream.
    pub fn new() -> WordHash {
        WordHash {
            lanes: [
                WORD_SEED.wrapping_add(P1).wrapping_add(P2),
                WORD_SEED.wrapping_add(P2),
                WORD_SEED,
                WORD_SEED.wrapping_sub(P1),
            ],
            words: 0,
        }
    }

    /// Feeds one word.
    #[inline]
    pub fn word(&mut self, w: u64) {
        let lane = &mut self.lanes[(self.words % 4) as usize];
        *lane = round(*lane, w);
        self.words += 1;
    }

    /// Feeds the bit patterns of `values`, one word each (so `+0.0` and
    /// `-0.0`, or two NaN payloads, digest differently).
    pub fn f64s(&mut self, values: &[f64]) {
        let head = ((4 - self.words % 4) % 4) as usize;
        let (head, body) = values.split_at(head.min(values.len()));
        for v in head {
            self.word(v.to_bits());
        }
        let mut blocks = body.chunks_exact(4);
        let [mut a, mut b, mut c, mut d] = self.lanes;
        for block in &mut blocks {
            a = round(a, block[0].to_bits());
            b = round(b, block[1].to_bits());
            c = round(c, block[2].to_bits());
            d = round(d, block[3].to_bits());
        }
        self.lanes = [a, b, c, d];
        let tail = blocks.remainder();
        self.words += (body.len() - tail.len()) as u64;
        for v in tail {
            self.word(v.to_bits());
        }
    }

    /// The 128-bit digest of every word fed so far.
    pub fn finish(&self) -> u128 {
        let [a, b, c, d] = self.lanes;
        let lo = a
            .rotate_left(1)
            .wrapping_add(b.rotate_left(7))
            .wrapping_add(c.rotate_left(12))
            .wrapping_add(d.rotate_left(18));
        let hi =
            (a ^ c.rotate_left(29)).wrapping_mul(P3) ^ (b ^ d.rotate_left(43)).wrapping_mul(P4);
        let lo = avalanche(lo ^ self.words);
        let hi = avalanche(hi.wrapping_add(self.words.wrapping_mul(P1)));
        (u128::from(hi) << 64) | u128::from(lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_deterministic_and_content_sensitive() {
        let a = content_hash(b"func.func @f");
        assert_eq!(a, content_hash(b"func.func @f"));
        assert_ne!(a, content_hash(b"func.func @g"));
        // Regression pin: persisted keys must survive refactors.
        assert_eq!(content_hash(b""), (u128::from(FNV_OFFSET) << 64) | u128::from(FNV_OFFSET_2));
    }

    fn word_digest(values: &[f64]) -> u128 {
        let mut h = WordHash::new();
        h.f64s(values);
        h.finish()
    }

    #[test]
    fn word_hash_ignores_how_the_stream_is_split() {
        let values: Vec<f64> = (0..23).map(|i| f64::from(i) * 0.37 - 2.0).collect();
        let whole = word_digest(&values);
        for split in 0..=values.len() {
            let mut h = WordHash::new();
            h.f64s(&values[..split]);
            h.f64s(&values[split..]);
            assert_eq!(h.finish(), whole, "split at {split}");
        }
        let mut h = WordHash::new();
        for v in &values {
            h.word(v.to_bits());
        }
        assert_eq!(h.finish(), whole, "word by word");
    }

    #[test]
    fn word_hash_is_pinned_and_sees_every_word() {
        // Regression pins: checkpoint file names must survive refactors.
        assert_eq!(WordHash::new().finish(), 0xfe46_87c5_20ae_753d_2423_4c2b_29e4_a833);
        assert_eq!(
            word_digest(&[1.0, 2.0, 3.0, 4.0, 5.0]),
            0x5d98_ab13_8b48_5534_bb61_6650_d1c7_b481
        );

        let base: Vec<f64> = (0..11).map(|i| f64::from(i) + 0.5).collect();
        let d0 = word_digest(&base);
        let mut seen = vec![d0];
        for at in 0..base.len() {
            for bit in [0, 31, 52, 63] {
                let mut v = base.clone();
                v[at] = f64::from_bits(v[at].to_bits() ^ (1 << bit));
                let d = word_digest(&v);
                assert!(!seen.contains(&d), "flip of bit {bit} at word {at} collides");
                seen.push(d);
            }
        }
        // Length is part of the stream: a trailing zero word is content.
        assert_ne!(word_digest(&[]), word_digest(&[0.0]));
        assert_ne!(word_digest(&[1.0]), word_digest(&[1.0, 0.0]));
    }
}
