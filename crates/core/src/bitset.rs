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

    /// The set `{0, 1, .., n-1}`.
    pub fn full(n: usize) -> Self {
        let mut set = RunSet {
            words: vec![u64::MAX; n.div_ceil(64)],
        };
        let tail = n % 64;
        if tail != 0 {
            if let Some(last) = set.words.last_mut() {
                *last = (1u64 << tail) - 1;
            }
        }
        set
    }

    /// Adds run `i`, growing as needed.
    pub fn insert(&mut self, i: usize) {
        let word = i / 64;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1u64 << (i % 64);
    }

    /// True if run `i` is in the set.
    pub fn contains(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|w| w >> (i % 64) & 1 == 1)
    }

    /// Intersects in place (`self &= other`). Words beyond `other`'s length
    /// are cleared.
    pub fn and_assign(&mut self, other: &RunSet) {
        let n = self.words.len().min(other.words.len());
        let (head, tail) = self.words.split_at_mut(n);
        kernels::and_into(head, &other.words);
        tail.fill(0);
    }

    /// Unions in place (`self |= other`).
    pub fn or_assign(&mut self, other: &RunSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        kernels::or_into(&mut self.words, &other.words);
    }

    /// Empties the set, keeping capacity.
    pub fn clear(&mut self) {
        self.words.clear();
    }

    /// Number of runs in the set.
    pub fn count(&self) -> usize {
        kernels::popcount(&self.words)
    }

    /// True if the set is empty.
    pub fn is_empty(&self) -> bool {
        kernels::is_zero(&self.words)
    }

    /// `|self ∩ other|` without allocating.
    pub fn intersection_count(&self, other: &RunSet) -> usize {
        kernels::and_popcount(&self.words, &other.words)
    }

    /// True if the sets share any run.
    pub fn intersects(&self, other: &RunSet) -> bool {
        kernels::and_any(&self.words, &other.words)
    }

    /// True if every run of `self` is also in `other`.
    pub fn is_subset_of(&self, other: &RunSet) -> bool {
        !kernels::and_not_any(&self.words, &other.words)
    }

    /// ORs `bits` into word `word_idx` (covering runs
    /// `word_idx*64 .. word_idx*64+64`), growing as needed. This is how the
    /// provenance store's epoch-segmented query path splices a per-epoch
    /// word block into a global result set.
    pub fn or_word(&mut self, word_idx: usize, bits: u64) {
        if bits == 0 {
            return;
        }
        if word_idx >= self.words.len() {
            self.words.resize(word_idx + 1, 0);
        }
        self.words[word_idx] |= bits;
    }

    /// Word `word_idx` of the backing storage (0 past the end).
    pub fn word(&self, word_idx: usize) -> u64 {
        self.words.get(word_idx).copied().unwrap_or(0)
    }

    /// The backing words (64 runs per word; the last word may be partial).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// ORs a whole word block in at `word_offset` — a single vectorizable
    /// pass, where a per-word [`or_word`](Self::or_word) loop would pay a
    /// growth-and-zero check on every word. Callers pre-size the set (see
    /// [`grow_words`](Self::grow_words)): a `src` that overruns the
    /// destination capacity is a caller bug, debug-asserted rather than
    /// silently absorbed — release builds still grow rather than drop bits.
    pub fn or_words_at(&mut self, word_offset: usize, src: &[u64]) {
        let end = word_offset + src.len();
        debug_assert!(
            end <= self.words.len(),
            "or_words_at overrun: {} words from offset {word_offset} into a {}-word set \
             (pre-size with grow_words)",
            src.len(),
            self.words.len()
        );
        if end > self.words.len() {
            self.words.resize(end, 0);
        }
        kernels::or_into(&mut self.words[word_offset..end], src);
    }

    /// Grows the backing storage to at least `words` zero-filled words
    /// (never shrinks), so subsequent [`or_words_at`](Self::or_words_at)
    /// splices and direct word writes stay in capacity.
    pub fn grow_words(&mut self, words: usize) {
        if words > self.words.len() {
            self.words.resize(words, 0);
        }
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
        assert!(s.contains(0) && s.contains(63) && s.contains(64) && s.contains(130));
        assert!(!s.contains(1) && !s.contains(129) && !s.contains(1000));
        assert_eq!(s.count(), 4);
        assert_eq!(s.ones().collect::<Vec<_>>(), vec![0, 63, 64, 130]);
    }

    #[test]
    fn full_has_exact_tail() {
        for n in [0usize, 1, 63, 64, 65, 130] {
            let s = RunSet::full(n);
            assert_eq!(s.count(), n, "n={n}");
            assert_eq!(s.ones().collect::<Vec<_>>(), (0..n).collect::<Vec<_>>());
            assert!(!s.contains(n));
        }
    }

    #[test]
    fn and_or_intersection() {
        let mut a = RunSet::new();
        let mut b = RunSet::new();
        for i in 0..100 {
            if i % 2 == 0 {
                a.insert(i);
            }
            if i % 3 == 0 {
                b.insert(i);
            }
        }
        assert_eq!(a.intersection_count(&b), 17); // multiples of 6 in 0..100
        assert!(a.intersects(&b));
        let mut c = a.clone();
        c.and_assign(&b);
        assert_eq!(c.count(), 17);
        let mut d = a.clone();
        d.or_assign(&b);
        assert_eq!(d.count(), 50 + 34 - 17);
    }

    #[test]
    fn and_with_shorter_clears_tail() {
        let mut a = RunSet::new();
        a.insert(10);
        a.insert(100);
        let mut b = RunSet::new();
        b.insert(10);
        a.and_assign(&b);
        assert_eq!(a.ones().collect::<Vec<_>>(), vec![10]);
    }

    #[test]
    fn subset_checks() {
        let mut a = RunSet::new();
        let mut b = RunSet::new();
        for i in [3usize, 64, 129] {
            a.insert(i);
            b.insert(i);
        }
        b.insert(200);
        assert!(a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a), "bit past a's storage");
        a.insert(5);
        assert!(!a.is_subset_of(&b));
        assert!(RunSet::new().is_subset_of(&a));
    }

    #[test]
    fn or_words_at_within_presized_capacity() {
        let mut s = RunSet::new();
        s.grow_words(4);
        s.or_words_at(1, &[0b101, u64::MAX]);
        assert_eq!(s.ones().collect::<Vec<_>>().len(), 2 + 64);
        assert!(s.contains(64) && s.contains(66) && s.contains(128 + 63));
        // grow_words never shrinks.
        s.grow_words(1);
        assert_eq!(s.words().len(), 4);
    }

    #[test]
    fn disjoint_sets_do_not_intersect() {
        let mut a = RunSet::new();
        let mut b = RunSet::new();
        a.insert(1);
        b.insert(2);
        assert!(!a.intersects(&b));
        assert_eq!(a.intersection_count(&b), 0);
    }
}
