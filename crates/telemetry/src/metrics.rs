//! The wait-free metric primitives: counters, gauges, and log₂-bucketed
//! histograms.
//!
//! This module is a W008 record path: nothing here may lock, allocate, or
//! block. Snapshots are fixed-size value types so even reading a histogram
//! out for rendering stays allocation-free until the registry formats it.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::Instant;

/// Number of histogram buckets: one per power of two of a `u64` sample, so
/// any sample maps to a bucket and the top bucket saturates everything at
/// or above 2⁶³.
pub const BUCKETS: usize = 64;

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter, usable in statics.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        // Relaxed: an independent monotone count with no ordering contract
        // against other memory; scrapes tolerate being a few events stale.
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        // Relaxed: same single-word monotone count as above.
        self.0.load(Ordering::Relaxed)
    }
}

/// A point-in-time signed level (bound sessions, queue depth, …).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A zeroed gauge, usable in statics.
    pub const fn new() -> Self {
        Gauge(AtomicI64::new(0))
    }

    /// Replaces the level.
    #[inline]
    pub fn set(&self, v: i64) {
        // Relaxed: a single independent word; last write wins is the
        // semantic a level gauge wants.
        self.0.store(v, Ordering::Relaxed);
    }

    /// Moves the level by `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        // Relaxed: independent single-word accumulation, read by scrapes.
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current level.
    #[inline]
    pub fn get(&self) -> i64 {
        // Relaxed: single-word read of an independent level.
        self.0.load(Ordering::Relaxed)
    }
}

/// A log₂-bucketed histogram over `u64` samples (typically nanoseconds).
///
/// Bucket `i` holds samples whose floor(log₂) is `i`, i.e. the half-open
/// power-of-two range `[2^i, 2^(i+1))`; bucket 0 additionally holds 0.
/// Storage is a fixed `[AtomicU64; 64]` plus running count and sum —
/// recording is three relaxed `fetch_add`s, concurrent recorders never
/// wait on each other, and nothing allocates.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// A zeroed histogram, usable in statics.
    pub const fn new() -> Self {
        // An inline const block is evaluated afresh per array slot, so each
        // bucket is its own atomic.
        Histogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// The bucket a sample lands in: floor(log₂(value)), with 0 and 1 both
    /// in bucket 0. Always `< BUCKETS`, so recording cannot panic.
    #[inline]
    pub fn bucket_of(value: u64) -> usize {
        if value < 2 {
            0
        } else {
            63 - value.leading_zeros() as usize
        }
    }

    /// The inclusive upper bound of bucket `i` (`2^(i+1) - 1`); the top
    /// bucket's bound saturates to `u64::MAX`.
    #[inline]
    pub fn bucket_bound(i: usize) -> u64 {
        if i >= BUCKETS - 1 {
            u64::MAX
        } else {
            (1u64 << (i + 1)) - 1
        }
    }

    /// Records one sample. Wait-free: three relaxed `fetch_add`s.
    #[inline]
    pub fn record(&self, value: u64) {
        // The mask is redundant with bucket_of's contract but makes the
        // no-panic property local and unconditional.
        let b = Self::bucket_of(value) & (BUCKETS - 1);
        // Relaxed on all three: each word is an independent statistical
        // accumulator; a scrape racing a record may see the bucket without
        // the count (or vice versa), which snapshot consumers tolerate.
        self.buckets[b].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed); // relaxed: as above
        self.sum.fetch_add(value, Ordering::Relaxed); // relaxed: as above
    }

    /// Records the nanoseconds elapsed since `start`, saturating at
    /// `u64::MAX` (584 years — effectively never).
    #[inline]
    pub fn record_elapsed(&self, start: Instant) {
        let ns = start.elapsed().as_nanos();
        self.record(if ns > u64::MAX as u128 { u64::MAX } else { ns as u64 });
    }

    /// A point-in-time copy of the histogram. Concurrent recorders may
    /// leave `count` momentarily out of step with the bucket total; once
    /// recorders quiesce the snapshot is exact.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (dst, src) in buckets.iter_mut().zip(self.buckets.iter()) {
            // Relaxed: statistical read, same contract as record().
            *dst = src.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            // Relaxed: statistical read of independent accumulator words.
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// A plain-value copy of a [`Histogram`], mergeable across instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (bucket `i` covers `[2^i, 2^(i+1))`).
    pub buckets: [u64; BUCKETS],
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all sample values.
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot { buckets: [0; BUCKETS], count: 0, sum: 0 }
    }
}

impl HistogramSnapshot {
    /// Accumulates `other` into `self` (saturating, so merging can never
    /// wrap even on adversarial inputs).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (dst, src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst = dst.saturating_add(*src);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Sum of the per-bucket counts — equals `count` once recorders
    /// quiesce.
    pub fn bucket_total(&self) -> u64 {
        self.buckets.iter().fold(0u64, |acc, b| acc.saturating_add(*b))
    }
}
