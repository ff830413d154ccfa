//! Minimal offline stand-in for the `criterion` crate.
//!
//! Provides the API surface the workspace's benches use —
//! [`criterion_group!`]/[`criterion_main!`], [`Criterion`], benchmark
//! groups, [`BenchmarkId`], and `Bencher::iter` — with simple wall-clock
//! timing (median of fixed-duration samples). `cargo bench -- --test`
//! runs every benchmark body exactly once as a smoke test, mirroring
//! criterion's test mode.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

/// Keep the compiler from optimizing a benchmarked value away.
#[inline]
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Identifies one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `function_name/parameter` form.
    pub fn new(function: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: format!("{}/{parameter}", function.into()),
        }
    }

    /// Parameter-only form.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl std::fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.id)
    }
}

/// Passed to benchmark closures; times the iterated body.
pub struct Bencher<'a> {
    samples: &'a mut Vec<f64>,
    test_mode: bool,
    sample_size: usize,
}

impl Bencher<'_> {
    /// Run `f` repeatedly and record per-iteration wall time.
    pub fn iter<T>(&mut self, mut f: impl FnMut() -> T) {
        if self.test_mode {
            black_box(f());
            return;
        }
        // Calibrate: how many iterations fit in ~30 ms?
        let t0 = Instant::now();
        black_box(f());
        let once = t0.elapsed().max(Duration::from_nanos(1));
        let iters = ((Duration::from_millis(30).as_nanos() / once.as_nanos()).max(1) as usize)
            .min(1_000_000);
        for _ in 0..self.sample_size {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            self.samples.push(t.elapsed().as_secs_f64() / iters as f64);
        }
    }
}

fn fmt_time(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.3} µs", secs * 1e6)
    } else {
        format!("{:.1} ns", secs * 1e9)
    }
}

/// Entry point handed to benchmark functions.
pub struct Criterion {
    test_mode: bool,
    filter: Option<String>,
}

impl Criterion {
    /// Build from command-line arguments (`--test` enables smoke mode;
    /// a bare string filters benchmark names).
    pub fn from_args() -> Self {
        let mut test_mode = false;
        let mut filter = None;
        for a in std::env::args().skip(1) {
            match a.as_str() {
                "--test" => test_mode = true,
                "--bench" => {}
                s if !s.starts_with('-') => filter = Some(s.to_string()),
                _ => {}
            }
        }
        Criterion { test_mode, filter }
    }

    fn enabled(&self, name: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| name.contains(f))
    }

    /// Open a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            c: self,
            name: name.into(),
            sample_size: 10,
        }
    }

    /// Benchmark a single function.
    pub fn bench_function(&mut self, name: &str, f: impl FnMut(&mut Bencher<'_>)) -> &mut Self {
        run_one(self, name, 10, f);
        self
    }
}

fn run_one(c: &Criterion, name: &str, sample_size: usize, mut f: impl FnMut(&mut Bencher<'_>)) {
    if !c.enabled(name) {
        return;
    }
    let mut samples = Vec::new();
    let mut b = Bencher {
        samples: &mut samples,
        test_mode: c.test_mode,
        sample_size,
    };
    f(&mut b);
    if c.test_mode {
        println!("test {name} ... ok");
    } else {
        samples.sort_by(|a, b| a.total_cmp(b));
        let median = samples.get(samples.len() / 2).copied().unwrap_or(0.0);
        let best = samples.first().copied().unwrap_or(0.0);
        println!(
            "{name:<40} median {:>12}   best {:>12}",
            fmt_time(median),
            fmt_time(best)
        );
    }
}

/// A group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    c: &'a Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Number of timing samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Benchmark with an explicit id and input.
    pub fn bench_with_input<I>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: impl FnMut(&mut Bencher<'_>, &I),
    ) -> &mut Self {
        let name = format!("{}/{id}", self.name);
        run_one(self.c, &name, self.sample_size, |b| f(b, input));
        self
    }

    /// Benchmark a named function within the group.
    pub fn bench_function(&mut self, name: &str, mut f: impl FnMut(&mut Bencher<'_>)) -> &mut Self {
        let full = format!("{}/{name}", self.name);
        run_one(self.c, &full, self.sample_size, |b| f(b));
        self
    }

    /// End the group (provided for API parity; nothing to flush).
    pub fn finish(&mut self) {}
}

/// Collect benchmark functions into a named group runner.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name(c: &mut $crate::Criterion) {
            $($target(c);)+
        }
    };
}

/// Generate `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::Criterion::from_args();
            $($group(&mut c);)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_formats() {
        assert_eq!(BenchmarkId::new("f", 32).to_string(), "f/32");
        assert_eq!(BenchmarkId::from_parameter("x").to_string(), "x");
    }

    #[test]
    fn fmt_time_units() {
        assert!(fmt_time(2.0).ends_with(" s"));
        assert!(fmt_time(2e-3).ends_with(" ms"));
        assert!(fmt_time(2e-6).ends_with(" µs"));
        assert!(fmt_time(2e-9).ends_with(" ns"));
    }
}
