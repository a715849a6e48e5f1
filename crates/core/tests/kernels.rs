//! Differential suite for the chunked word kernels: every fused /
//! multi-word primitive in [`bugdoc_core::kernels`] against a naive
//! one-word-at-a-time reference, on ragged operand lengths.
//!
//! The kernels are the substrate of every provenance query, and they earn
//! their speed from chunked loops with separate remainder handling — exactly
//! the structure where an off-by-one at a chunk boundary silently corrupts
//! only the last few words. The property tests drive random lengths and
//! contents; the deterministic sweep pins the boundary lengths (0, 1, 63,
//! 64, 65, one-word-short-of-a-chunk, one-past) crosswise for both operands.

use bugdoc_core::kernels;
use proptest::prelude::*;

/// Deterministic word fill (xorshift64), biased so roughly half the words
/// are all-zeros or all-ones — the patterns the early-exit predicates
/// (`is_zero`, `and_any`) branch on.
fn words(seed: u64, len: usize) -> Vec<u64> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            match x % 4 {
                0 => 0,
                1 => u64::MAX,
                _ => x,
            }
        })
        .collect()
}

// The scalar references: the semantics the chunked kernels must reproduce,
// written with no chunking at all.

fn ref_or(dst: &[u64], src: &[u64]) -> Vec<u64> {
    let mut out = dst.to_vec();
    for (d, s) in out.iter_mut().zip(src) {
        *d |= s;
    }
    out
}

fn ref_and(dst: &[u64], src: &[u64]) -> Vec<u64> {
    let mut out = dst.to_vec();
    for (d, s) in out.iter_mut().zip(src) {
        *d &= s;
    }
    out
}

fn ref_popcount(a: &[u64]) -> usize {
    a.iter().map(|w| w.count_ones() as usize).sum()
}

fn ref_and_popcount(a: &[u64], b: &[u64]) -> usize {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x & y).count_ones() as usize)
        .sum()
}

fn ref_and_any(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).any(|(x, y)| x & y != 0)
}

fn ref_or_multi(len: usize, srcs: &[&[u64]]) -> Vec<u64> {
    (0..len)
        .map(|i| srcs.iter().fold(0u64, |m, s| m | s[i]))
        .collect()
}

/// Union of a term list — plain sources whole, difference pairs as
/// `hi & !lo` — the operand shape of the prefix-row term kernels.
fn ref_terms_union(len: usize, full: &[&[u64]], diff: &[(&[u64], &[u64])]) -> Vec<u64> {
    (0..len)
        .map(|i| {
            let f = full.iter().fold(0u64, |m, s| m | s[i]);
            diff.iter().fold(f, |m, (hi, lo)| m | (hi[i] & !lo[i]))
        })
        .collect()
}

/// Checks every kernel against its reference on one `(a, b)` operand pair.
fn check_pair(a: &[u64], b: &[u64]) {
    let ctx = format!("lengths {}x{}", a.len(), b.len());

    let mut d = a.to_vec();
    kernels::or_into(&mut d, b);
    assert_eq!(d, ref_or(a, b), "or_into {ctx}");

    assert_eq!(kernels::popcount(a), ref_popcount(a), "popcount {ctx}");
    assert_eq!(
        kernels::and_popcount(a, b),
        ref_and_popcount(a, b),
        "and_popcount {ctx}"
    );
    assert_eq!(kernels::is_zero(a), ref_popcount(a) == 0, "is_zero {ctx}");
    assert_eq!(kernels::and_any(a, b), ref_and_any(a, b), "and_any {ctx}");
    // The asymmetric kernel, with the operands swapped too.
    let mut d = b.to_vec();
    kernels::or_into(&mut d, a);
    assert_eq!(d, ref_or(b, a), "or_into swapped {ctx}");
}

/// Checks the multi-source fused kernels on `n_srcs` sources over `len`
/// destination words; sources are longer than the destination on purpose
/// (the frozen-epoch rows are exactly `epoch_words`, but the kernels only
/// require ≥).
fn check_multi(seed: u64, len: usize, n_srcs: usize) {
    let ctx = format!("len {len} x {n_srcs} srcs");
    let owned: Vec<Vec<u64>> = (0..n_srcs)
        .map(|k| words(seed ^ (k as u64).wrapping_mul(0x9e37), len + (k % 3)))
        .collect();
    let srcs: Vec<&[u64]> = owned.iter().map(Vec::as_slice).collect();
    let acc0 = words(seed ^ 0xacc0, len);
    let union = ref_or_multi(len, &srcs);

    let mut dst = words(seed ^ 0xd57, len); // overwritten: contents must not matter
    kernels::or_multi_into(&mut dst, &srcs);
    assert_eq!(dst, union, "or_multi_into {ctx}");

    let mut acc = acc0.clone();
    kernels::and_or_multi_into(&mut acc, &srcs);
    assert_eq!(acc, ref_and(&acc0, &union), "and_or_multi_into {ctx}");
}

/// Checks the term kernels (prefix-row unions of plain sources and
/// `hi & !lo` difference pairs) on `n_full` + `n_diff` terms over `len`
/// destination words; sources again deliberately longer than the
/// destination.
fn check_terms(seed: u64, len: usize, n_full: usize, n_diff: usize) {
    let ctx = format!("len {len} x {n_full} full + {n_diff} diff");
    let full_owned: Vec<Vec<u64>> = (0..n_full)
        .map(|k| words(seed ^ (k as u64).wrapping_mul(0x51ed), len + (k % 3)))
        .collect();
    let diff_owned: Vec<(Vec<u64>, Vec<u64>)> = (0..n_diff)
        .map(|k| {
            let s = seed ^ (k as u64).wrapping_mul(0xd1ff);
            (words(s, len + (k % 2)), words(s ^ 0x10, len + ((k + 1) % 3)))
        })
        .collect();
    let full: Vec<&[u64]> = full_owned.iter().map(Vec::as_slice).collect();
    let diff: Vec<(&[u64], &[u64])> = diff_owned
        .iter()
        .map(|(h, l)| (h.as_slice(), l.as_slice()))
        .collect();
    let union = ref_terms_union(len, &full, &diff);
    let acc0 = words(seed ^ 0x7e45, len);

    let mut dst = words(seed ^ 0xd57, len); // overwritten: contents must not matter
    kernels::or_terms_into(&mut dst, &full, &diff);
    assert_eq!(dst, union, "or_terms_into {ctx}");

    let mut acc = acc0.clone();
    kernels::and_terms_into(&mut acc, &full, &diff);
    assert_eq!(acc, ref_and(&acc0, &union), "and_terms_into {ctx}");
}

/// Chunk-boundary sweep: every pairing of the lengths where the
/// `chunks_exact` / remainder split changes shape.
#[test]
fn boundary_lengths_crosswise() {
    const LENGTHS: [usize; 11] = [0, 1, 3, 4, 5, 7, 8, 63, 64, 65, 129];
    for (i, &la) in LENGTHS.iter().enumerate() {
        for (j, &lb) in LENGTHS.iter().enumerate() {
            let seed = (i * 31 + j) as u64 + 1;
            check_pair(&words(seed, la), &words(seed ^ 0xb0b, lb));
        }
    }
    for &len in &LENGTHS {
        for n_srcs in 0..4 {
            check_multi(len as u64 + 7, len, n_srcs);
        }
        for n_full in 0..3 {
            for n_diff in 0..3 {
                check_terms(len as u64 + 11, len, n_full, n_diff);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random lengths and contents: the two-operand kernels agree with the
    /// scalar reference everywhere, not just at the pinned boundaries.
    #[test]
    fn pairwise_kernels_match_scalar_reference(
        seed in any::<u64>(),
        la in 0usize..170,
        lb in 0usize..170,
    ) {
        check_pair(&words(seed, la), &words(seed ^ 0xfeed, lb));
    }

    /// The fused multi-source kernels agree with OR-then-consume composed
    /// from the scalar references, for any source count (including none).
    #[test]
    fn fused_multi_source_kernels_match_composition(
        seed in any::<u64>(),
        len in 0usize..140,
        n_srcs in 0usize..6,
    ) {
        check_multi(seed, len, n_srcs);
    }

    /// The term kernels agree with union-then-consume composed from the
    /// scalar references, for any mix of plain and difference terms
    /// (including none of either).
    #[test]
    fn term_kernels_match_composition(
        seed in any::<u64>(),
        len in 0usize..140,
        n_full in 0usize..4,
        n_diff in 0usize..4,
    ) {
        check_terms(seed, len, n_full, n_diff);
    }
}
