//! Chunked word kernels for the bitset query substrate.
//!
//! Every hot query in the provenance store — the OR of a predicate's value
//! rows, the AND across a conjunction's predicates, support popcounts —
//! reduces to a handful of slice primitives over `&[u64]`. They live here so
//! `RunSet`, `ProvenanceStore`'s value-index scans and the cube algebra of
//! root causes (`CanonicalCause`'s word cubes, which the multi-valued
//! Quine–McCluskey minimizer `bugdoc_qm::mv` and the synthetic ground-truth
//! solver narrow in place: `and_not_any` is the subset test, `and_not_into`
//! the split) share one set of loops tuned for the autovectorizer instead of
//! ad-hoc copies.
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
//! destination — they serve the value-index scans, where every value row
//! is at least the scanned window long — and fuse the OR-accumulate with
//! the consuming AND so the destination is written in a single pass,
//! instead of materializing the OR and re-reading it.

/// Words per vectorized chunk; see the module docs for the rationale.
pub const CHUNK: usize = 4;

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

/// True if `a` has a set bit outside `b` (`a \ b ≠ ∅`; words of `b` past its
/// length read as 0). `!and_not_any(a, b)` is the subset test `a ⊆ b`.
#[inline]
pub fn and_not_any(a: &[u64], b: &[u64]) -> bool {
    let n = a.len().min(b.len());
    let (head, tail) = a.split_at(n);
    let mut ac = head.chunks_exact(CHUNK);
    let mut bc = b[..n].chunks_exact(CHUNK);
    for (a4, b4) in ac.by_ref().zip(bc.by_ref()) {
        if (a4[0] & !b4[0]) | (a4[1] & !b4[1]) | (a4[2] & !b4[2]) | (a4[3] & !b4[3]) != 0 {
            return true;
        }
    }
    ac.remainder()
        .iter()
        .zip(bc.remainder())
        .any(|(x, y)| x & !y != 0)
        || !is_zero(tail)
}

/// `dst[i] &= !src[i]` over the common prefix: removes `src`'s bits from
/// `dst`. Words of `dst` past `src`'s length are untouched (`src` reads as
/// 0 there, and clearing nothing leaves them as they are).
#[inline]
pub fn and_not_into(dst: &mut [u64], src: &[u64]) {
    let n = dst.len().min(src.len());
    let mut d = dst[..n].chunks_exact_mut(CHUNK);
    let mut s = src[..n].chunks_exact(CHUNK);
    for (d4, s4) in d.by_ref().zip(s.by_ref()) {
        d4[0] &= !s4[0];
        d4[1] &= !s4[1];
        d4[2] &= !s4[2];
        d4[3] &= !s4[3];
    }
    for (d, s) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *d &= !s;
    }
}

/// `dst[i] |= src[i]` over the common prefix: adds `src`'s bits to `dst`.
/// Words of `dst` past `src`'s length are untouched (`src` reads as 0
/// there). The provenance store's streamed walk ORs a predicate's value
/// rows into a stack chunk with it, one row at a time.
#[inline]
pub fn or_into(dst: &mut [u64], src: &[u64]) {
    let n = dst.len().min(src.len());
    let mut d = dst[..n].chunks_exact_mut(CHUNK);
    let mut s = src[..n].chunks_exact(CHUNK);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn or_and_clamp_to_shorter_operand() {
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
    fn and_not_kernels_clamp_like_the_rest() {
        assert!(!and_not_any(&[0b01, 0], &[0b11]), "short b, zero a tail");
        assert!(and_not_any(&[0b01, 0b1], &[0b11]), "set bit past b's end");
        assert!(and_not_any(&[0b100], &[0b011]));
        assert!(!and_not_any(&[], &[1, 2, 3]));
        let mut d = [0b111u64, 0b111];
        and_not_into(&mut d, &[0b010]);
        assert_eq!(d, [0b101, 0b111], "words past src untouched");
        let mut d = [0b001u64, 0b001];
        or_into(&mut d, &[0b010]);
        assert_eq!(d, [0b011, 0b001], "words past src untouched");
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
}
