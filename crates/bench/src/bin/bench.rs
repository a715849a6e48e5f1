//! Headless perf-tracking runner: times the engine/algorithms hot paths and
//! writes `BENCH_engine.json` (median ns per op) so the performance
//! trajectory is recorded from PR to PR.
//!
//! ```text
//! cargo run --release -p bugdoc-bench --bin bench \
//!     [-- --out PATH] [--baseline PATH] [--tolerance PCT]
//! ```
//!
//! With `--baseline`, every timing entry shared with the baseline JSON is
//! compared after the run; any median more than `PCT` percent slower
//! (default 25) fails the process with exit code 1. The medians are host
//! bound, so the committed JSON is the trajectory record, not a gate: on a
//! different machine, compare against a baseline written on that machine.
//!
//! Scenarios (see `bugdoc_bench::perf`):
//! * `perf/evaluate_cold_32` — cold dispatch through a fresh executor
//! * `perf/cache_hit_10k` — provenance hit against a 10k-run history
//! * `perf/batch_dispatch_128/5` — 128-instance batch at 5 workers
//! * `perf/batch_dispatch_4_warm/5` — 4 new instances at 5 workers after one
//!   timed execution (paper-synth's most common batch)
//! * `perf/concurrent_cache_hits_5w` — per-op time of provenance hits under
//!   5-thread contention (threads started once, rounds released by a
//!   barrier)
//! * `perf/satisfied_by_1k` — per-conjunction log filtering, 1k candidates
//! * `perf/kernel_and_popcount_64k` — fused AND+popcount over 64k-bit words
//! * `perf/telemetry_record` — one wait-free histogram sample (the unit cost
//!   of an always-on instrumentation probe)
//! * `perf/wal_append` — durable provenance: one record appended to the WAL
//! * `perf/replay_10k` — durable provenance: full 10k-frame crash recovery
//! * `perf/ddt_find_one` — DDT end-to-end on a synthetic pipeline
//! * `perf/dtree_fit_32k` — one full decision-tree fit over a
//!   deep-history-shaped log of 32,768 dense-keyed runs
//! * `perf/dtree_fit_provenance_32k` — the same fit from that log recorded
//!   in a provenance store (DDT's path: the store's key arena, no rows)

use bugdoc_bench::perf;
use criterion::{BenchResult, Criterion};

/// Extracts `(id, median_ns)` pairs from the JSON this binary writes. The
/// format is fixed (see `criterion::results_json`), so a line scan is
/// enough — no JSON dependency needed offline.
fn parse_medians(json: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in json.lines() {
        let Some(rest) = line.trim().strip_prefix('"') else {
            continue;
        };
        let Some((id, rest)) = rest.split_once('"') else {
            continue;
        };
        let Some(value) = rest
            .split("\"median_ns\":")
            .nth(1)
            .and_then(|v| v.trim().split([',', '}']).next())
            .and_then(|v| v.trim().parse::<f64>().ok())
        else {
            continue;
        };
        out.push((id.to_string(), value));
    }
    out
}

/// Compares fresh results against a baseline: entries whose median regressed
/// more than `tolerance_pct` percent.
fn regressions(
    results: &[BenchResult],
    baseline: &[(String, f64)],
    tolerance_pct: f64,
) -> Vec<(String, f64, f64)> {
    let mut bad = Vec::new();
    for r in results {
        let Some((_, old)) = baseline.iter().find(|(id, _)| *id == r.id) else {
            continue;
        };
        if *old > 0.0 && r.median_ns > old * (1.0 + tolerance_pct / 100.0) {
            bad.push((r.id.clone(), *old, r.median_ns));
        }
    }
    bad
}

const USAGE: &str = "usage: bench [--out PATH] [--baseline PATH] [--tolerance PCT]";

fn main() {
    let mut out = String::from("BENCH_engine.json");
    let mut baseline: Option<String> = None;
    let mut tolerance_pct = 25.0f64;
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 1;
    let value = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| {
            eprintln!("{} needs a value ({USAGE})", argv[*i - 1]);
            std::process::exit(2);
        })
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--out" => out = value(&mut i),
            "--baseline" => baseline = Some(value(&mut i)),
            "--tolerance" => {
                let v = value(&mut i);
                tolerance_pct = v.parse().unwrap_or_else(|_| {
                    eprintln!("--tolerance needs a number, got {v:?} ({USAGE})");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("unknown argument {other:?} ({USAGE})");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let mut c = Criterion::default();
    perf::bench_hot_paths(&mut c);
    perf::bench_telemetry(&mut c);
    perf::bench_persistence(&mut c);
    perf::bench_ddt_end_to_end(&mut c);
    perf::bench_tree_fit(&mut c);

    let mut results = c.take_results();
    perf::normalize_contention_result(&mut results);
    // Per-conjunction figures: these scenarios time all 1k at once.
    for r in &mut results {
        if r.id.ends_with("satisfied_by_1k") {
            r.median_ns /= 1_000.0;
            for s in &mut r.samples_ns {
                *s /= 1_000.0;
            }
        }
    }

    let json = criterion::results_json(&results);
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!("\nwrote {out}:\n{json}");

    if let Some(path) = baseline {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let bad = regressions(&results, &parse_medians(&text), tolerance_pct);
        if bad.is_empty() {
            println!("no regression beyond {tolerance_pct}% vs {path}");
        } else {
            for (id, old, new) in &bad {
                eprintln!(
                    "REGRESSION {id}: {old:.1} -> {new:.1} ns ({:+.0}%)",
                    (new / old - 1.0) * 100.0
                );
            }
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(id: &str, median_ns: f64) -> BenchResult {
        BenchResult {
            id: id.into(),
            median_ns,
            samples_ns: vec![median_ns],
            iters_per_sample: 1,
        }
    }

    #[test]
    fn parses_the_emitted_json_shape() {
        let json = criterion::results_json(&[result("perf/a", 12.5), result("perf/b", 3.0)]);
        assert_eq!(
            parse_medians(&json),
            vec![("perf/a".to_string(), 12.5), ("perf/b".to_string(), 3.0)]
        );
    }

    #[test]
    fn flags_only_real_regressions() {
        let baseline = vec![("perf/a".to_string(), 10.0), ("perf/b".to_string(), 10.0)];
        let fresh = [
            result("perf/a", 12.0),          // +20% — within 25%
            result("perf/b", 14.0),          // +40% — regression
            result("perf/new_entry", 999.0), // not in baseline: skipped
        ];
        let bad = regressions(&fresh, &baseline, 25.0);
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].0, "perf/b");
    }
}
