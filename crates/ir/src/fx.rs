//! A deterministic word-at-a-time hasher for maps that live no longer
//! than one analysis request.
//!
//! std's default SipHash-1-3 defends long-lived tables against keys
//! crafted to collide; the maps of the prover, the region analysis and
//! the AD transform are built and dropped inside one request whose
//! budget and deadline already bound any collision cost, and their keys
//! (atom ids, slot numbers, canonical linear expressions, index tuples,
//! identifiers) are a few machine words each. One multiply per word
//! replaces SipHash's rounds, and — no random seed — iteration order
//! repeats from run to run.
//!
//! Long-lived shared maps (the fingerprint index, the AOT registry,
//! everything in `formad-serve`) and public struct fields keep std's
//! hasher.
//!
//! `formad-smt` compiles this same file as its `fx` module (it does not
//! depend on this crate), so every analysis crate hashes with one
//! definition.

use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` with [`FxHasher`].
pub type FxHashSet<K> = std::collections::HashSet<K, BuildHasherDefault<FxHasher>>;

/// Odd multiplier with no short bit pattern (from the golden ratio).
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// Multiply–rotate hasher over 64-bit words.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn word(&mut self, w: u64) {
        self.hash = (self.hash.rotate_left(5) ^ w).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.word(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            // The tail, little-endian and zero-padded, assembled in
            // registers: a short identifier is all tail.
            let tail = rest
                .iter()
                .rev()
                .fold(0u64, |word, &b| (word << 8) | u64::from(b));
            // The length keeps "ab" and "ab\0" apart.
            self.word(tail ^ ((rest.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.word(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.word(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.word(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.word(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.word(i as u64);
        self.word((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.word(i as u64);
    }

    /// The multiply leaves its best-mixed bits at the top, and the table
    /// takes its bucket index from the bottom: fold the top half down.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash ^ (self.hash >> 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(v)
    }

    #[test]
    fn deterministic_and_input_sensitive() {
        assert_eq!(hash_of("stencil"), hash_of("stencil"));
        assert_ne!(hash_of("ab"), hash_of("ab\0"));
        assert_ne!(hash_of("abcdefgh"), hash_of("abcdefgi"));
        assert_ne!(hash_of((1u32, 2i128)), hash_of((2u32, 1i128)));
        assert_ne!(hash_of(-1i128), hash_of(u64::MAX as i128));
    }

    #[test]
    fn small_integer_keys_spread_over_the_low_bits() {
        // Slot numbers and atom ids are dense small integers, and the
        // table indexes buckets by the low bits of the hash.
        let mut low: std::collections::BTreeSet<u64> = Default::default();
        for k in 0..256usize {
            low.insert(hash_of(k) & 0xff);
        }
        assert!(low.len() > 128, "only {} distinct low bytes", low.len());
    }

    #[test]
    fn map_iteration_order_repeats() {
        let build = || {
            let mut m: FxHashMap<String, usize> = FxHashMap::default();
            for (i, k) in ["x", "y", "uold", "unew", "c", "f12"].iter().enumerate() {
                m.insert(k.to_string(), i);
            }
            m.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }
}
