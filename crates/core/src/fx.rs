//! A fast, non-cryptographic hasher (the FxHash algorithm from rustc) for
//! the hot-path maps keyed by dense instance encodings.
//!
//! The std `RandomState`/SipHash default is DoS-resistant but costs ~10x more
//! per small key; provenance keys are short `u32` sequences derived from
//! trusted in-process data, so the cheap multiply-xor hash is the right
//! trade. Exposed publicly so every dense-key consumer shares the same
//! hashing.

use std::hash::{BuildHasherDefault, Hasher};

/// The FxHash mixing constant (64-bit golden-ratio multiplier).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// FxHash state. Use via [`FxBuildHasher`] in `HashMap`/`HashSet`.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`]; plug into `HashMap::with_hasher`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// One-shot FxHash of a dense instance key (used by the provenance key
/// index; consumers verify key bytes on fingerprint matches, so hash
/// quality affects probing cost only, never correctness).
#[inline]
pub fn hash_dense_key(key: &[u32]) -> u64 {
    let mut h = FxHasher::default();
    for &k in key {
        h.add_to_hash(k as u64);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn deterministic_and_discriminating() {
        assert_eq!(hash_dense_key(&[1, 2, 3]), hash_dense_key(&[1, 2, 3]));
        assert_ne!(hash_dense_key(&[1, 2, 3]), hash_dense_key(&[3, 2, 1]));
        assert_ne!(hash_dense_key(&[1]), hash_dense_key(&[1, 1]));
    }

    #[test]
    fn works_as_map_hasher() {
        let mut m: HashMap<Box<[u32]>, usize, FxBuildHasher> = HashMap::default();
        m.insert(vec![1, 2].into_boxed_slice(), 7);
        assert_eq!(m.get(&[1u32, 2][..]), Some(&7));
        assert_eq!(m.get(&[2u32, 1][..]), None);
    }
}
