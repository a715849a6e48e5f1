//! Chunked word kernels for the bitset query substrate.
//!
//! Every hot query in the provenance store — predicate OR-accumulation over
//! frozen epoch blocks, conjunction ANDs, support popcounts — reduces to a
//! handful of slice primitives over `&[u64]`. They live here so `RunSet`
//! and `ProvenanceStore`'s epoch scans share one set of loops tuned for the
//! autovectorizer instead of ad-hoc copies.
//!
//! # Autovectorization contract
//!
//! These kernels are written so LLVM's autovectorizer reliably emits SIMD
//! without any `unsafe`, intrinsics, or nightly features:
//!
//! * **No indexing in hot loops.** Inner word loops iterate
//!   `chunks_exact` / `chunks_exact_mut` blocks and fixed-size `[u64; CHUNK]`
//!   accumulators with constant indices; slice indexing (and its bounds
//!   checks, which block vectorization) appears only once per chunk, at
//!   chunk granularity, never per word.
//! * **Chunk width of 4 words.** 4 × `u64` = 256 bits matches one AVX2
//!   register (two SSE2 / NEON registers), wide enough that the reduction
//!   kernels keep 4 independent accumulators (hiding the `popcnt` latency
//!   chain) and narrow enough that the scalar remainder is at most 3 words.
//!   The remainder loops are plain zips — exact, just not vectorized.
//! * **Length mismatches clamp to the shorter operand** (missing words read
//!   as 0), matching `RunSet`'s historical semantics; kernels never
//!   allocate or grow.
//!
//! The multi-source kernels ([`or_multi_into`], [`and_or_multi_into`])
//! additionally require every source to be at least as long as the
//! destination — they serve the epoch scans, where every value row is at
//! least the scanned window long — and fuse the OR-accumulate with the
//! consuming AND so the destination is written in a single pass, instead
//! of materializing the OR and re-reading it.
//!
//! The *term* kernels ([`or_terms_into`], [`and_terms_into`]) consume the
//! store's prefix-OR epoch encoding:
//! their operand is a union of plain rows plus `hi & !lo` difference pairs
//! of cumulative rows, which is how a contiguous range of values reads out
//! of a prefix-encoded block. Same ≥-length source contract.

/// Words per vectorized chunk; see the module docs for the rationale.
pub const CHUNK: usize = 4;

/// `dst[i] |= src[i]` over the common prefix (`min(dst.len(), src.len())`).
#[inline]
pub fn or_into(dst: &mut [u64], src: &[u64]) {
    let n = dst.len().min(src.len());
    let (dst, src) = (&mut dst[..n], &src[..n]);
    let mut d = dst.chunks_exact_mut(CHUNK);
    let mut s = src.chunks_exact(CHUNK);
    for (d4, s4) in d.by_ref().zip(s.by_ref()) {
        d4[0] |= s4[0];
        d4[1] |= s4[1];
        d4[2] |= s4[2];
        d4[3] |= s4[3];
    }
    for (d, s) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *d |= s;
    }
}

/// Total set bits in `a`.
#[inline]
pub fn popcount(a: &[u64]) -> usize {
    let mut c = [0usize; CHUNK];
    let mut chunks = a.chunks_exact(CHUNK);
    for a4 in chunks.by_ref() {
        c[0] += a4[0].count_ones() as usize;
        c[1] += a4[1].count_ones() as usize;
        c[2] += a4[2].count_ones() as usize;
        c[3] += a4[3].count_ones() as usize;
    }
    let rem: usize = chunks.remainder().iter().map(|w| w.count_ones() as usize).sum();
    c[0] + c[1] + c[2] + c[3] + rem
}

/// `|a ∩ b|`: popcount of the pairwise AND over the common prefix, fused so
/// the intersection is never materialized.
#[inline]
pub fn and_popcount(a: &[u64], b: &[u64]) -> usize {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut c = [0usize; CHUNK];
    let mut ac = a.chunks_exact(CHUNK);
    let mut bc = b.chunks_exact(CHUNK);
    for (a4, b4) in ac.by_ref().zip(bc.by_ref()) {
        c[0] += (a4[0] & b4[0]).count_ones() as usize;
        c[1] += (a4[1] & b4[1]).count_ones() as usize;
        c[2] += (a4[2] & b4[2]).count_ones() as usize;
        c[3] += (a4[3] & b4[3]).count_ones() as usize;
    }
    let rem: usize = ac
        .remainder()
        .iter()
        .zip(bc.remainder())
        .map(|(x, y)| (x & y).count_ones() as usize)
        .sum();
    c[0] + c[1] + c[2] + c[3] + rem
}

/// True if every word of `a` is zero.
#[inline]
pub fn is_zero(a: &[u64]) -> bool {
    let mut chunks = a.chunks_exact(CHUNK);
    for a4 in chunks.by_ref() {
        if a4[0] | a4[1] | a4[2] | a4[3] != 0 {
            return false;
        }
    }
    chunks.remainder().iter().all(|&w| w == 0)
}

/// True if `a` and `b` share any set bit (over the common prefix).
#[inline]
pub fn and_any(a: &[u64], b: &[u64]) -> bool {
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut ac = a.chunks_exact(CHUNK);
    let mut bc = b.chunks_exact(CHUNK);
    for (a4, b4) in ac.by_ref().zip(bc.by_ref()) {
        if (a4[0] & b4[0]) | (a4[1] & b4[1]) | (a4[2] & b4[2]) | (a4[3] & b4[3]) != 0 {
            return true;
        }
    }
    ac.remainder()
        .iter()
        .zip(bc.remainder())
        .any(|(x, y)| x & y != 0)
}

/// `dst = srcs[0] | srcs[1] | …`, overwriting `dst` in a single pass.
/// Every source must be at least `dst.len()` words long; an empty source
/// list clears `dst`.
#[inline]
pub fn or_multi_into(dst: &mut [u64], srcs: &[&[u64]]) {
    match srcs {
        [] => dst.fill(0),
        [s] => dst.copy_from_slice(&s[..dst.len()]),
        [first, rest @ ..] => {
            dst.copy_from_slice(&first[..dst.len()]);
            let mut i = 0;
            let mut chunks = dst.chunks_exact_mut(CHUNK);
            for d4 in chunks.by_ref() {
                let mut m = [0u64; CHUNK];
                for src in rest {
                    let s4 = &src[i..i + CHUNK];
                    m[0] |= s4[0];
                    m[1] |= s4[1];
                    m[2] |= s4[2];
                    m[3] |= s4[3];
                }
                d4[0] |= m[0];
                d4[1] |= m[1];
                d4[2] |= m[2];
                d4[3] |= m[3];
                i += CHUNK;
            }
            for (k, d) in chunks.into_remainder().iter_mut().enumerate() {
                let mut m = 0u64;
                for src in rest {
                    m |= src[i + k];
                }
                *d |= m;
            }
        }
    }
}

/// `acc[i] &= (srcs[0][i] | srcs[1][i] | …)`, the AND-of-OR step of
/// conjunction evaluation, fused so the OR is never materialized. Every
/// source must be at least `acc.len()` words long; an empty source list
/// clears `acc` (an OR over nothing is ∅).
#[inline]
pub fn and_or_multi_into(acc: &mut [u64], srcs: &[&[u64]]) {
    match srcs {
        [] => acc.fill(0),
        _ => {
            let mut i = 0;
            let mut chunks = acc.chunks_exact_mut(CHUNK);
            for a4 in chunks.by_ref() {
                let mut m = [0u64; CHUNK];
                for src in srcs {
                    let s4 = &src[i..i + CHUNK];
                    m[0] |= s4[0];
                    m[1] |= s4[1];
                    m[2] |= s4[2];
                    m[3] |= s4[3];
                }
                a4[0] &= m[0];
                a4[1] &= m[1];
                a4[2] &= m[2];
                a4[3] &= m[3];
                i += CHUNK;
            }
            for (k, a) in chunks.into_remainder().iter_mut().enumerate() {
                let mut m = 0u64;
                for src in srcs {
                    m |= src[i + k];
                }
                *a &= m;
            }
        }
    }
}

/// One chunk of the union `U = ∪ full ∪ (hi \ lo)` of a term list: plain
/// sources OR'd whole, difference pairs contributing `hi & !lo`. The shape
/// the prefix-OR epoch encoding produces — a predicate's satisfying values
/// are a union of ≤ 2 contiguous value ranges, each range being either one
/// prefix row (`full`, range starting at value 0) or a `hi & !lo` pair of
/// prefix rows — so the term kernels below evaluate a whole predicate from
/// 1–4 row reads regardless of how many values it allows.
#[inline(always)]
fn union_chunk(full: &[&[u64]], diff: &[(&[u64], &[u64])], i: usize) -> [u64; CHUNK] {
    let mut m = [0u64; CHUNK];
    for src in full {
        let s4 = &src[i..i + CHUNK];
        m[0] |= s4[0];
        m[1] |= s4[1];
        m[2] |= s4[2];
        m[3] |= s4[3];
    }
    for (hi, lo) in diff {
        let h4 = &hi[i..i + CHUNK];
        let l4 = &lo[i..i + CHUNK];
        m[0] |= h4[0] & !l4[0];
        m[1] |= h4[1] & !l4[1];
        m[2] |= h4[2] & !l4[2];
        m[3] |= h4[3] & !l4[3];
    }
    m
}

/// One remainder word of the same union.
#[inline(always)]
fn union_word(full: &[&[u64]], diff: &[(&[u64], &[u64])], j: usize) -> u64 {
    let mut m = 0u64;
    for src in full {
        m |= src[j];
    }
    for (hi, lo) in diff {
        m |= hi[j] & !lo[j];
    }
    m
}

/// `dst = (∪ full) ∪ (∪ hi \ lo)`, overwriting `dst` in one pass. Every
/// source (plain or pair member) must be at least `dst.len()` words long;
/// empty term lists clear `dst`.
#[inline]
pub fn or_terms_into(dst: &mut [u64], full: &[&[u64]], diff: &[(&[u64], &[u64])]) {
    if diff.is_empty() {
        return or_multi_into(dst, full);
    }
    let mut i = 0;
    let mut chunks = dst.chunks_exact_mut(CHUNK);
    for d4 in chunks.by_ref() {
        let m = union_chunk(full, diff, i);
        d4[0] = m[0];
        d4[1] = m[1];
        d4[2] = m[2];
        d4[3] = m[3];
        i += CHUNK;
    }
    for (k, d) in chunks.into_remainder().iter_mut().enumerate() {
        *d = union_word(full, diff, i + k);
    }
}

/// `acc &= (∪ full) ∪ (∪ hi \ lo)` — the AND-of-union step of conjunction
/// evaluation against prefix-encoded rows, fused so the union is never
/// materialized. Same operand contract as [`or_terms_into`].
#[inline]
pub fn and_terms_into(acc: &mut [u64], full: &[&[u64]], diff: &[(&[u64], &[u64])]) {
    if diff.is_empty() {
        return and_or_multi_into(acc, full);
    }
    let mut i = 0;
    let mut chunks = acc.chunks_exact_mut(CHUNK);
    for a4 in chunks.by_ref() {
        let m = union_chunk(full, diff, i);
        a4[0] &= m[0];
        a4[1] &= m[1];
        a4[2] &= m[2];
        a4[3] &= m[3];
        i += CHUNK;
    }
    for (k, a) in chunks.into_remainder().iter_mut().enumerate() {
        *a &= union_word(full, diff, i + k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn or_and_clamp_to_shorter_operand() {
        let mut d = vec![1u64, 2, 4];
        or_into(&mut d, &[0xF0, 0x0F]);
        assert_eq!(d, vec![0xF1, 0x0F, 4]);
        // The AND kernels read missing words as 0.
        assert_eq!(and_popcount(&[u64::MAX; 3], &[0x3, 0x5]), 4);
        assert!(!and_any(&[0, 0, 1], &[u64::MAX, u64::MAX]));
    }

    #[test]
    fn popcounts_and_predicates() {
        let a = [0b1011u64, 0, u64::MAX, 0b1];
        let b = [0b0010u64, 0b1, u64::MAX, 0];
        assert_eq!(popcount(&a), 3 + 64 + 1);
        assert_eq!(and_popcount(&a, &b), 1 + 64);
        assert!(and_any(&a, &b));
        assert!(!and_any(&[0b100], &[0b011]));
        assert!(is_zero(&[0, 0, 0, 0, 0]));
        assert!(!is_zero(&[0, 0, 0, 0, 1]));
        assert!(is_zero(&[]));
    }

    #[test]
    fn multi_source_fusions() {
        let s1 = vec![0b001u64; 9];
        let s2 = vec![0b010u64; 9];
        let s3 = vec![0b100u64; 9];
        let srcs: Vec<&[u64]> = vec![&s1, &s2, &s3];
        let mut dst = vec![u64::MAX; 9];
        or_multi_into(&mut dst, &srcs);
        assert_eq!(dst, vec![0b111u64; 9]);
        let mut acc = vec![0b101u64; 9];
        and_or_multi_into(&mut acc, &srcs[..2]);
        assert_eq!(acc, vec![0b001u64; 9]);
        let mut acc1 = vec![0b011u64; 9];
        and_or_multi_into(&mut acc1, &srcs[1..2]);
        assert_eq!(acc1, vec![0b010u64; 9], "one source");
        or_multi_into(&mut dst, &[]);
        assert!(is_zero(&dst));
        and_or_multi_into(&mut acc, &[]);
        assert!(is_zero(&acc));
    }

    #[test]
    fn term_kernels_union_full_rows_and_differences() {
        // Prefix rows of a 3-value domain: lo ⊂ mid ⊂ hi.
        let lo = vec![0b001u64; 9];
        let mid = vec![0b011u64; 9];
        let hi = vec![0b111u64; 9];
        // Range [1, 2] = hi \ lo, plus the full range [0, 0] = lo.
        let full: Vec<&[u64]> = vec![&lo];
        let diff: Vec<(&[u64], &[u64])> = vec![(&hi, &lo)];
        let mut dst = vec![u64::MAX; 9];
        or_terms_into(&mut dst, &full, &diff);
        assert_eq!(dst, vec![0b111u64; 9]);
        or_terms_into(&mut dst, &[], &diff);
        assert_eq!(dst, vec![0b110u64; 9], "difference alone");
        or_terms_into(&mut dst, &[], &[(&mid, &lo)]);
        assert_eq!(dst, vec![0b010u64; 9], "single-value range [1, 1]");
        let mut acc = vec![0b101u64; 9];
        and_terms_into(&mut acc, &[], &diff);
        assert_eq!(acc, vec![0b100u64; 9]);
        let mut acc = vec![0b101u64; 9];
        and_terms_into(&mut acc, &full, &diff);
        assert_eq!(acc, vec![0b101u64; 9], "full row and difference together");
        or_terms_into(&mut dst, &[], &[]);
        assert!(is_zero(&dst), "empty terms clear");
    }
}
