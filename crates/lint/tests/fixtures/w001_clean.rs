// The compliant twin of w001_fire.rs: the same count from the fused
// kernel, with no word loop opened outside the kernel homes.
use crate::kernels;

pub fn and_popcount_composed(words: &[u64], other: &[u64]) -> usize {
    kernels::and_popcount(words, other)
}
