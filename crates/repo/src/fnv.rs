//! Shared FNV-1a mixing for checksums.
//!
//! The WAL and snapshot writers checksum their frames and chunks. They
//! hash different fields, but the mixing discipline is one thing: keep it
//! here so a change to the scheme (e.g. the length-delimiter convention)
//! cannot silently miss a copy.

/// An incremental FNV-1a hasher over `u64` words and delimited byte
/// strings.
pub(crate) struct Fnv1a(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fnv1a {
    pub(crate) fn new() -> Self {
        Fnv1a(FNV_OFFSET)
    }

    /// Mix one word.
    pub(crate) fn mix_u64(&mut self, v: u64) {
        self.0 ^= v;
        self.0 = self.0.wrapping_mul(FNV_PRIME);
    }

    /// Mix a byte string, followed by its length as a delimiter so
    /// concatenations of adjacent strings cannot collide.
    pub(crate) fn mix_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.mix_u64(b as u64);
        }
        self.mix_u64(bytes.len() as u64);
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_strs(parts: &[&str]) -> u64 {
        let mut h = Fnv1a::new();
        for p in parts {
            h.mix_bytes(p.as_bytes());
        }
        h.finish()
    }

    #[test]
    fn deterministic_and_sensitive() {
        assert_eq!(hash_strs(&["a", "b"]), hash_strs(&["a", "b"]));
        assert_ne!(hash_strs(&["a", "b"]), hash_strs(&["a", "c"]));
        // The length delimiter keeps concatenations apart.
        assert_ne!(hash_strs(&["ab", ""]), hash_strs(&["a", "b"]));
    }

    #[test]
    fn word_mixing_is_order_sensitive() {
        let mut a = Fnv1a::new();
        a.mix_u64(1);
        a.mix_u64(2);
        let mut b = Fnv1a::new();
        b.mix_u64(2);
        b.mix_u64(1);
        assert_ne!(a.finish(), b.finish());
    }
}
