//! End-to-end diagnosis benchmark for the BugDoc workspace.
//!
//! ```text
//! e2ebench --workload <paper-synth|deep-history|served-warm> --seed <n>
//!          --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload drives whole diagnoses through the public entry points,
//! checks its outputs, and prints one JSON line last on standard output:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics (from
//! spans recorded around each layer's calls) with `--trace 1`. The layer
//! table and any failed checks go to standard error.

mod deep_history;
mod inprocess;
mod measure;
mod paper_synth;
mod report;
mod served_warm;
mod trace;

use std::process::ExitCode;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Derives the `i`-th input seed from the workload seed (SplitMix64).
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A scratch directory inside the working directory (the checkout), unique
/// to this process; workloads remove it when they finish.
pub fn work_dir(workload: &str) -> std::path::PathBuf {
    let dir =
        std::path::Path::new(".bench_work").join(format!("{workload}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the benchmark work directory");
    dir
}

/// Removes a directory made by [`work_dir`], and the parent when empty.
pub fn remove_work_dir(dir: &std::path::Path) {
    let _ = std::fs::remove_dir_all(dir);
    if let Some(parent) = dir.parent() {
        let _ = std::fs::remove_dir(parent);
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match args.workload.as_str() {
        "paper-synth" => paper_synth::run(&args),
        "deep-history" => deep_history::run(&args),
        "served-warm" => served_warm::run(&args),
        other => {
            eprintln!(
                "e2ebench: unknown workload {other:?} (paper-synth, deep-history, served-warm)"
            );
            return ExitCode::from(2);
        }
    };
    eprint!("{}", report.detail);
    println!("{}", report.json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::mix;

    #[test]
    fn mix_is_deterministic_and_spreads() {
        assert_eq!(mix(7, 3), mix(7, 3));
        assert_ne!(mix(7, 3), mix(7, 4));
        assert_ne!(mix(7, 3), mix(8, 3));
    }
}
