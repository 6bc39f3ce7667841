//! FNV-1a content hashing.
//!
//! The serving layer needs two stable, dependency-free hashes: a checksum
//! over checkpoint payload bytes (corruption detection) and a cache key over
//! feature vectors (embedding memoisation). Both use 64-bit FNV-1a, which is
//! deterministic across platforms — unlike `std::collections::hash_map`'s
//! `RandomState`, which is seeded per process and would defeat
//! cross-run-comparable cache keys and checksums.
//!
//! Floats are hashed by their IEEE-754 bit pattern, so `0.0` and `-0.0` hash
//! differently and `NaN` payloads are distinguished. That is the right
//! semantics for a cache key: two inputs get the same key only when they are
//! bitwise-identical, which is exactly when the (deterministic) forward pass
//! would produce bitwise-identical embeddings.

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Hashes a byte slice with 64-bit FNV-1a.
///
/// ```
/// // Reference vectors from the FNV specification.
/// assert_eq!(rll_tensor::hash::fnv1a(b""), 0xcbf29ce484222325);
/// assert_eq!(rll_tensor::hash::fnv1a(b"a"), 0xaf63dc4c8601ec8c);
/// ```
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = Fnv1a::default();
    hash.write(bytes);
    hash.finish()
}

/// A running 64-bit FNV-1a hash over input that arrives in pieces: writing
/// `a` and then `b` finishes to `fnv1a` of `a` followed by `b`.
///
/// ```
/// use rll_tensor::hash::{fnv1a, Fnv1a};
/// let mut whole = Fnv1a::default();
/// whole.write(b"0123 ");
/// assert_eq!(whole.write_and_hash(b"{}"), fnv1a(b"{}"));
/// assert_eq!(whole.finish(), fnv1a(b"0123 {}"));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(FNV_OFFSET)
    }
}

impl Fnv1a {
    /// Feeds `bytes` to the running hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    /// Feeds `bytes` to the running hash and returns `fnv1a(bytes)`, both
    /// from one loop. FNV-1a is one serial multiply per byte; the two hashes
    /// are independent chains, so together they cost about as much as one.
    pub fn write_and_hash(&mut self, bytes: &[u8]) -> u64 {
        let (mut running, mut own) = (self.0, FNV_OFFSET);
        for &b in bytes {
            running = (running ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            own = (own ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        self.0 = running;
        own
    }

    /// The hash of everything written so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Hashes a slice of `f64`s by feeding each value's little-endian IEEE-754
/// bit pattern through [`fnv1a`]. Length is mixed in first so a vector and
/// its zero-padded extension cannot collide trivially.
pub fn fnv1a_f64s(values: &[f64]) -> u64 {
    let mut hash = Fnv1a::default();
    hash.write(&(values.len() as u64).to_le_bytes());
    for &v in values {
        hash.write(&v.to_bits().to_le_bytes());
    }
    hash.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_fnv_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn fused_write_and_hash_matches_two_passes() {
        let payload = b"0123456789abcdef {\"seq\":1}\nfedcba9876543210 {\"seq\":2}\n";
        let mut whole = Fnv1a::default();
        for line in payload.split_inclusive(|&b| b == b'\n') {
            let (prefix, json) = line.split_at(17);
            whole.write(prefix);
            let json = &json[..json.len() - 1];
            assert_eq!(whole.write_and_hash(json), fnv1a(json));
            whole.write(b"\n");
        }
        assert_eq!(whole.finish(), fnv1a(payload));
        assert_eq!(Fnv1a::default().finish(), fnv1a(b""));
    }

    #[test]
    fn f64_hash_is_deterministic_and_discriminating() {
        let a = fnv1a_f64s(&[1.0, 2.0, 3.0]);
        assert_eq!(a, fnv1a_f64s(&[1.0, 2.0, 3.0]));
        assert_ne!(a, fnv1a_f64s(&[1.0, 2.0, 3.0000000001]));
        assert_ne!(a, fnv1a_f64s(&[3.0, 2.0, 1.0]));
    }

    #[test]
    fn f64_hash_separates_sign_and_padding() {
        assert_ne!(fnv1a_f64s(&[0.0]), fnv1a_f64s(&[-0.0]));
        assert_ne!(fnv1a_f64s(&[0.0]), fnv1a_f64s(&[0.0, 0.0]));
        assert_ne!(fnv1a_f64s(&[]), fnv1a_f64s(&[0.0]));
    }

    #[test]
    fn nan_payloads_hash_by_bit_pattern() {
        let q = f64::NAN;
        assert_eq!(fnv1a_f64s(&[q]), fnv1a_f64s(&[q]));
    }
}
