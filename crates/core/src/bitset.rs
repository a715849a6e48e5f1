//! A dense bitset over run indices — the backbone of the provenance store's
//! inverted index.
//!
//! Each `RunSet` is a vector of 64-bit words; run `i` lives at bit
//! `i % 64` of word `i / 64`. Predicate evaluation over the run log becomes
//! bitwise AND/OR + popcount over these words instead of per-run
//! interpretation (see `provenance.rs` for the index layout). The word
//! loops are the chunked kernels of [`crate::kernels`], shared with the
//! provenance store's epoch scans.

use crate::kernels;

/// A growable bitset of run indices.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunSet {
    words: Vec<u64>,
}

impl RunSet {
    /// The empty set.
    pub fn new() -> Self {
        RunSet::default()
    }

    /// Adds run `i`, growing as needed.
    pub fn insert(&mut self, i: usize) {
        let word = i / 64;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1u64 << (i % 64);
    }

    /// Number of runs in the set.
    pub fn count(&self) -> usize {
        kernels::popcount(&self.words)
    }

    /// True if the set is empty.
    pub fn is_empty(&self) -> bool {
        kernels::is_zero(&self.words)
    }

    /// The backing words (64 runs per word; the last word may be partial).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Iterates set members in increasing order.
    pub fn ones(&self) -> Ones<'_> {
        Ones {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }
}

/// Iterator over the members of a [`RunSet`]; see [`RunSet::ones`].
pub struct Ones<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1;
        Some(self.word_idx * 64 + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_count() {
        let mut s = RunSet::new();
        assert!(s.is_empty());
        for i in [0usize, 63, 64, 130] {
            s.insert(i);
        }
        assert!(!s.is_empty());
        assert_eq!(s.count(), 4);
        assert_eq!(s.ones().collect::<Vec<_>>(), vec![0, 63, 64, 130]);
        assert_eq!(s.words().len(), 3);
    }
}
