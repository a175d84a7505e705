//! A stable 64-bit structural hash for cache keys.
//!
//! `std::hash::Hasher` implementations (and the default `RandomState`) are
//! free to change between Rust releases and processes, so they cannot back
//! a fingerprint that identifies "the same pattern" across runs — e.g. a
//! plan cache persisted next to a trace, or two serving replicas agreeing
//! on a cache key. [`StableHasher`] is FNV-1a over an explicit field
//! ordering: the value is a function of the hashed bytes alone.

/// FNV-1a 64-bit hasher with explicit, endianness-stable primitives.
///
/// # Example
///
/// ```
/// use salo_patterns::StableHasher;
///
/// let mut h = StableHasher::new();
/// h.write_u64(42);
/// h.write_i64(-7);
/// let a = h.finish();
/// assert_eq!(a, {
///     let mut h = StableHasher::new();
///     h.write_u64(42);
///     h.write_i64(-7);
///     h.finish()
/// });
/// ```
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl StableHasher {
    /// Starts a fresh hash at the FNV offset basis.
    #[must_use]
    pub fn new() -> Self {
        Self { state: FNV_OFFSET }
    }

    /// Absorbs raw bytes.
    fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs a `u64` in little-endian byte order.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorbs an `i64` in little-endian byte order.
    pub fn write_i64(&mut self, v: i64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorbs a `usize` widened to 64 bits (stable across word sizes).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Absorbs an `f64` by its IEEE-754 bit pattern.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Absorbs a boolean as one byte.
    pub fn write_bool(&mut self, v: bool) {
        self.write_bytes(&[u8::from(v)]);
    }

    /// The accumulated hash value.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_order_sensitive() {
        let mut a = StableHasher::new();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = StableHasher::new();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish(), "order matters");

        let mut c = StableHasher::new();
        c.write_u64(1);
        c.write_u64(2);
        assert_eq!(a.finish(), c.finish(), "same inputs, same hash");
    }

    #[test]
    fn known_fnv_vector() {
        // FNV-1a of the empty input is the offset basis.
        assert_eq!(StableHasher::new().finish(), 0xcbf2_9ce4_8422_2325);
        // FNV-1a of "a" (well-known test vector).
        let mut h = StableHasher::new();
        h.write_bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn primitive_encodings_distinguish_types_by_width() {
        let mut a = StableHasher::new();
        a.write_bool(true);
        let mut b = StableHasher::new();
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());
        let mut c = StableHasher::new();
        c.write_f64(1.0);
        assert_ne!(b.finish(), c.finish());
    }
}
