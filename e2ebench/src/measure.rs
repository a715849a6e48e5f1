//! Process-level measurements: CPU time, peak memory, and order statistics.

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux: user + system time of every thread
/// of the process.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU time consumed by the whole process so far, in seconds.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, exclusively borrowed `struct timespec` (two
    // 64-bit fields on x86-64 and aarch64 Linux) that outlives the call, and
    // the clock id is a constant the kernel always accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// The process's peak resident set size (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Wall and CPU time accumulated over the timed segments of a phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct PhaseClock {
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// The start of one timed segment (see [`PhaseClock::stop`]).
pub struct Segment {
    wall: Instant,
    cpu_s: f64,
}

impl Segment {
    pub fn start() -> Segment {
        Segment {
            wall: Instant::now(),
            cpu_s: process_cpu_s(),
        }
    }
}

impl PhaseClock {
    /// Adds the segment begun by `seg` to the phase totals.
    pub fn stop(&mut self, seg: Segment) {
        self.cpu_s += process_cpu_s() - seg.cpu_s;
        self.wall_s += seg.wall.elapsed().as_secs_f64();
    }
}

/// Nearest-rank percentile `q` in `[0, 1]` of `values` (sorted in place).
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Arithmetic mean (0 for no samples).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Interquartile mean: the mean of the middle half of `values` (sorted in
/// place). Robust to the heavy tail of a few very large diagnoses, yet
/// smooth where the values take few distinct levels.
pub fn interquartile_mean(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "interquartile mean of no samples");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    let (lo, hi) = (n / 4, n - n / 4);
    mean(&values[lo..hi])
}

/// Median of `values` (sorted in place); the mean of the middle pair for an
/// even count.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let mut v = vec![5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&mut v), 3.0);
        assert_eq!(percentile(&mut v, 0.9), 5.0);
        assert_eq!(percentile(&mut v, 0.5), 3.0);
        let mut even = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut even), 2.5);
        let mut tailed = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 1000.0];
        assert_eq!(interquartile_mean(&mut tailed), 4.5);
        assert_eq!(interquartile_mean(&mut [3.0]), 3.0);
    }

    #[test]
    fn cpu_clock_advances() {
        let before = process_cpu_s();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_s() > before);
        assert!(peak_rss_mb() > 0.0);
    }
}
