//! Headless perf-tracking runner: times the engine/algorithms hot paths and
//! writes `BENCH_engine.json` (median ns per op) so the performance
//! trajectory is recorded from PR to PR.
//!
//! ```text
//! cargo run --release -p bugdoc-bench --bin bench [-- --out PATH]
//! ```
//!
//! The medians are host bound, so the committed JSON is the trajectory
//! record, not a gate: to judge a change, run the parent's and the change's
//! binaries on one host in one session and compare their medians.
//!
//! Scenarios (see `bugdoc_bench::perf`):
//! * `perf/evaluate_cold_32` — cold dispatch through a fresh executor
//! * `perf/instance_from_indices` — one instance built from its dense key
//!   and dropped
//! * `perf/prov_lookup_10k` — one dense-key probe of a 10k-run history
//! * `perf/prov_insert_10k` — 10,000 instances recorded into a fresh store
//! * `perf/cache_hit_10k` — provenance hit against a 10k-run history
//! * `perf/batch_dispatch_128/5` — 128-instance batch at 5 workers
//! * `perf/batch_dispatch_4_warm/5` — 4 new instances at 5 workers after one
//!   timed execution (paper-synth's most common batch)
//! * `perf/concurrent_cache_hits_5w` — per-op time of provenance hits under
//!   5-thread contention (threads started once, rounds released by a
//!   barrier)
//! * `perf/satisfied_by_1k` — per-conjunction log filtering, 1k candidates
//!   (the streamed `support` scan)
//! * `perf/superset_exists_1k` — per-conjunction succeeding-superset check
//!   over the same log and candidates (stops at the first matching chunk)
//! * `perf/kernel_and_popcount_64k` — fused AND+popcount over 64k-bit words
//! * `perf/telemetry_record` — one wait-free histogram sample (the unit cost
//!   of an always-on instrumentation probe)
//! * `perf/wal_append` — durable provenance: one record appended to the
//!   WAL's pending buffer
//! * `perf/wal_append_flush` — durable provenance: one append and its
//!   flush, a single `evaluate`'s record phase
//! * `perf/replay_10k` — durable provenance: full 10k-frame crash recovery
//! * `perf/ddt_find_one` — DDT end-to-end on a synthetic pipeline
//! * `perf/dtree_fit_32k` — one full decision-tree fit over a
//!   deep-history-shaped log of 32,768 dense-keyed runs
//! * `perf/dtree_fit_provenance_32k` — the same fit from that log recorded
//!   in a provenance store (DDT's path: the store's key arena, no rows)
//! * `perf/dtree_refit_32k` — one refit of that store's tree after 32 more
//!   runs are recorded (DDT's rebuild after a refuted suspect; the fit and
//!   the appends are untimed)

use bugdoc_bench::perf;
use criterion::Criterion;

const USAGE: &str = "usage: bench [--out PATH]";

fn main() {
    let mut out = String::from("BENCH_engine.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => {
                out = args.next().unwrap_or_else(|| {
                    eprintln!("--out needs a value ({USAGE})");
                    std::process::exit(2);
                })
            }
            other => {
                eprintln!("unknown argument {other:?} ({USAGE})");
                std::process::exit(2);
            }
        }
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
        if r.id.ends_with("satisfied_by_1k") || r.id.ends_with("superset_exists_1k") {
            r.median_ns /= 1_000.0;
            for s in &mut r.samples_ns {
                *s /= 1_000.0;
            }
        }
    }

    let json = criterion::results_json(&results);
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!("\nwrote {out}:\n{json}");
}
