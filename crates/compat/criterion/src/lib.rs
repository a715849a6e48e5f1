//! Offline compat subset of `criterion`: a measuring benchmark harness with
//! the same bench-definition API (`benchmark_group`, `bench_function`,
//! `Bencher::iter*`) but a much simpler engine — warm-up, fixed sample count,
//! median-of-samples reporting, no statistical analysis or plots.
//!
//! Results are printed per benchmark and collected in-process; a runner
//! drains them with [`Criterion::take_results`] and serializes them with
//! [`results_json`] (the headless `bench` binary in `bugdoc-bench` uses this
//! to emit `BENCH_engine.json`).

use std::hint::black_box;
use std::time::{Duration, Instant};

/// One measured benchmark.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// `group/name`.
    pub id: String,
    /// Median nanoseconds per iteration.
    pub median_ns: f64,
    /// Per-sample nanoseconds per iteration.
    pub samples_ns: Vec<f64>,
    /// Iterations per sample.
    pub iters_per_sample: u64,
}

/// Per-benchmark measurement settings.
#[derive(Debug, Clone)]
struct Settings {
    sample_size: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
}

impl Default for Settings {
    fn default() -> Self {
        Settings {
            sample_size: 20,
            measurement_time: Duration::from_secs(1),
            warm_up_time: Duration::from_millis(300),
        }
    }
}

/// The top-level harness handle.
#[derive(Default)]
pub struct Criterion {
    results: Vec<BenchResult>,
}

impl Criterion {
    /// Starts a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            settings: Settings::default(),
            criterion: self,
        }
    }

    /// Drains the results collected so far.
    pub fn take_results(&mut self) -> Vec<BenchResult> {
        std::mem::take(&mut self.results)
    }
}

/// Serializes results as JSON (stable key order: insertion order).
pub fn results_json(results: &[BenchResult]) -> String {
    let mut out = String::from("{\n");
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "  \"{}\": {{\"median_ns\": {:.1}, \"samples\": {}, \"iters_per_sample\": {}}}",
            r.id.replace('"', "'"),
            r.median_ns,
            r.samples_ns.len(),
            r.iters_per_sample
        ));
    }
    out.push_str("\n}\n");
    out
}

/// A named group of benchmarks sharing measurement settings.
pub struct BenchmarkGroup<'c> {
    name: String,
    settings: Settings,
    criterion: &'c mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.settings.sample_size = n.max(2);
        self
    }

    /// Sets the time budget spread over the samples.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.settings.measurement_time = d;
        self
    }

    /// Sets the warm-up time before sampling.
    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.settings.warm_up_time = d;
        self
    }

    /// Measures one benchmark.
    pub fn bench_function<F>(&mut self, name: impl Into<String>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = format!("{}/{}", self.name, name.into());
        self.run(id, &mut f);
        self
    }

    fn run(&mut self, id: String, f: &mut dyn FnMut(&mut Bencher)) {
        let mut bencher = Bencher {
            settings: self.settings.clone(),
            samples_ns: Vec::new(),
            iters_per_sample: 0,
        };
        f(&mut bencher);
        let mut sorted = bencher.samples_ns.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("sample times are finite"));
        let median_ns = if sorted.is_empty() {
            f64::NAN
        } else {
            sorted[sorted.len() / 2]
        };
        // lint: allow(W006, reason = "this crate is a criterion stand-in; printing per-bench timings to the terminal is its reporting contract")
        println!("{id:60} time: {:>12.1} ns/iter", median_ns);
        self.criterion.results.push(BenchResult {
            id,
            median_ns,
            samples_ns: bencher.samples_ns,
            iters_per_sample: bencher.iters_per_sample,
        });
    }

    /// Ends the group (kept for API compatibility; no-op).
    pub fn finish(&mut self) {}
}

/// The measurement driver handed to each benchmark closure.
pub struct Bencher {
    settings: Settings,
    samples_ns: Vec<f64>,
    iters_per_sample: u64,
}

impl Bencher {
    /// Times `routine` repeatedly.
    pub fn iter<O, R>(&mut self, mut routine: R)
    where
        R: FnMut() -> O,
    {
        // Warm-up + cost estimate.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < self.settings.warm_up_time || warm_iters == 0 {
            black_box(routine());
            warm_iters += 1;
            if warm_iters >= 1_000_000 {
                break;
            }
        }
        let est_ns = (warm_start.elapsed().as_nanos() as f64 / warm_iters as f64).max(0.5);
        let sample_budget_ns =
            self.settings.measurement_time.as_nanos() as f64 / self.settings.sample_size as f64;
        let iters = ((sample_budget_ns / est_ns) as u64).clamp(1, 100_000_000);
        self.iters_per_sample = iters;
        for _ in 0..self.settings.sample_size {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            self.samples_ns
                .push(t.elapsed().as_nanos() as f64 / iters as f64);
        }
    }

    /// Times `routine` only, running `setup` before every invocation.
    pub fn iter_with_setup<S, O, Setup, R>(&mut self, mut setup: Setup, mut routine: R)
    where
        Setup: FnMut() -> S,
        R: FnMut(S) -> O,
    {
        // Warm-up: a few untimed runs.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        let mut est_ns = 0.0f64;
        while warm_start.elapsed() < self.settings.warm_up_time || warm_iters == 0 {
            let input = setup();
            let t = Instant::now();
            black_box(routine(input));
            est_ns += t.elapsed().as_nanos() as f64;
            warm_iters += 1;
            if warm_iters >= 100_000 {
                break;
            }
        }
        est_ns = (est_ns / warm_iters as f64).max(0.5);
        let sample_budget_ns =
            self.settings.measurement_time.as_nanos() as f64 / self.settings.sample_size as f64;
        let iters = ((sample_budget_ns / est_ns) as u64).clamp(1, 10_000_000);
        self.iters_per_sample = iters;
        for _ in 0..self.settings.sample_size {
            let mut elapsed = Duration::ZERO;
            for _ in 0..iters {
                let input = setup();
                let t = Instant::now();
                black_box(routine(input));
                elapsed += t.elapsed();
            }
            self.samples_ns
                .push(elapsed.as_nanos() as f64 / iters as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_and_reports_median() {
        let mut c = Criterion::default();
        {
            let mut g = c.benchmark_group("g");
            g.sample_size(5)
                .measurement_time(Duration::from_millis(50))
                .warm_up_time(Duration::from_millis(5));
            g.bench_function("noop", |b| b.iter(|| 1 + 1));
            g.bench_function("double", |b| b.iter(|| black_box(3usize) * 2));
            g.finish();
        }
        let results = c.take_results();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].id, "g/noop");
        assert_eq!(results[1].id, "g/double");
        assert!(results[0].median_ns.is_finite() && results[0].median_ns >= 0.0);
        assert_eq!(results[0].samples_ns.len(), 5);
    }

    #[test]
    fn iter_with_setup_times_routine_only() {
        let mut c = Criterion::default();
        {
            let mut g = c.benchmark_group("g");
            g.sample_size(3)
                .measurement_time(Duration::from_millis(30))
                .warm_up_time(Duration::from_millis(1));
            g.bench_function("setup", |b| {
                b.iter_with_setup(|| vec![1u8; 16], |v| v.len())
            });
        }
        assert_eq!(c.take_results().len(), 1);
    }

    #[test]
    fn json_shape() {
        let json = results_json(&[BenchResult {
            id: "a/b".into(),
            median_ns: 12.5,
            samples_ns: vec![12.5],
            iters_per_sample: 100,
        }]);
        assert!(json.contains("\"a/b\""));
        assert!(json.contains("\"median_ns\": 12.5"));
    }
}
