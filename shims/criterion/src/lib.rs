//! Offline shim for `criterion`: `bench_function`-style benchmarks with
//! median-of-samples text output and no plotting/baseline persistence.
//!
//! Bench targets are built with `harness = false`; under `cargo test`
//! (no `--bench` argument) the shim exits immediately so benchmarks do
//! not run during the test suite, mirroring real criterion. Like real
//! criterion, the first non-flag argument filters benchmarks by
//! substring of their id (`cargo bench --bench kernels -- synthesis`),
//! in measuring and in `--test` mode alike.

use std::time::{Duration, Instant};

/// How `iter_batched` amortises setup (accepted for API parity; the
/// shim always re-runs setup per sample outside the timed section).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// Setup re-run for every iteration.
    PerIteration,
}

/// Opaque to the optimiser: prevents the benchmarked expression from
/// being folded away.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// The benchmark driver configured by `criterion_group!`.
#[derive(Clone, Debug)]
pub struct Criterion {
    sample_size: usize,
    /// Runs only benchmarks whose id contains this substring.
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            sample_size: 30,
            filter: None,
        }
    }
}

impl Criterion {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n >= 2, "sample_size must be at least 2");
        self.sample_size = n;
        self
    }

    /// Runs only the benchmarks whose id contains `filter`.
    pub fn with_filter(mut self, filter: impl Into<String>) -> Self {
        self.filter = Some(filter.into());
        self
    }

    /// Applies the command line: its first non-flag argument becomes
    /// the name filter (`criterion_group!` calls this).
    pub fn configure_from_args(self) -> Self {
        match name_filter(std::env::args().skip(1)) {
            Some(filter) => self.with_filter(filter),
            None => self,
        }
    }

    /// Runs one benchmark and prints its median/min/max sample time;
    /// skips it silently when its id does not match the filter.
    pub fn bench_function<F>(&mut self, id: &str, mut routine: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        if self.filter.as_deref().is_some_and(|f| !id.contains(f)) {
            return self;
        }
        let mut b = Bencher {
            sample_size: self.sample_size,
            samples: Vec::new(),
        };
        routine(&mut b);
        b.report(id);
        self
    }
}

/// Passed to the benchmark closure; runs and times the routine.
pub struct Bencher {
    sample_size: usize,
    samples: Vec<Duration>,
}

impl Bencher {
    fn effective_samples(&self) -> usize {
        // `--test` mode (real criterion's smoke mode): run each
        // routine once, skip warm-up, report no meaningful timing.
        if running_in_test_mode() {
            1
        } else {
            self.sample_size
        }
    }

    /// Times `routine` over the configured number of samples (one
    /// invocation per sample, after a short warm-up).
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        if !running_in_test_mode() {
            for _ in 0..2 {
                black_box(routine());
            }
        }
        self.samples = (0..self.effective_samples())
            .map(|_| {
                let start = Instant::now();
                black_box(routine());
                start.elapsed()
            })
            .collect();
    }

    /// Like [`Bencher::iter`] but with untimed per-sample setup.
    pub fn iter_batched<I, O, S, F>(&mut self, mut setup: S, mut routine: F, _size: BatchSize)
    where
        S: FnMut() -> I,
        F: FnMut(I) -> O,
    {
        if !running_in_test_mode() {
            black_box(routine(setup()));
        }
        self.samples = (0..self.effective_samples())
            .map(|_| {
                let input = setup();
                let start = Instant::now();
                black_box(routine(input));
                start.elapsed()
            })
            .collect();
    }

    fn report(&self, id: &str) {
        if self.samples.is_empty() {
            println!("{id:<44} (no samples)");
            return;
        }
        let mut sorted = self.samples.clone();
        sorted.sort();
        let median = sorted[sorted.len() / 2];
        let min = sorted[0];
        let max = sorted[sorted.len() - 1];
        println!(
            "{id:<44} median {:>12}   min {:>12}   max {:>12}   ({} samples)",
            fmt_duration(median),
            fmt_duration(min),
            fmt_duration(max),
            sorted.len(),
        );
    }
}

fn fmt_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos < 1_000 {
        format!("{nanos} ns")
    } else if nanos < 1_000_000 {
        format!("{:.2} us", nanos as f64 / 1e3)
    } else if nanos < 1_000_000_000 {
        format!("{:.2} ms", nanos as f64 / 1e6)
    } else {
        format!("{:.3} s", nanos as f64 / 1e9)
    }
}

/// The first argument that is not a flag, if any: the benchmark name
/// filter.
fn name_filter(args: impl IntoIterator<Item = String>) -> Option<String> {
    args.into_iter().find(|a| !a.starts_with('-'))
}

/// True when the binary was launched by `cargo bench` (which passes
/// `--bench`); `cargo test` runs bench targets without it.
pub fn running_under_cargo_bench() -> bool {
    std::env::args().any(|a| a == "--bench")
}

/// True when `--test` was passed (`cargo bench -- --test`): like real
/// criterion, every benchmark routine runs exactly once, unmeasured —
/// a CI smoke mode that keeps bench code from rotting without paying
/// for timing runs.
pub fn running_in_test_mode() -> bool {
    std::env::args().any(|a| a == "--test")
}

/// Declares a benchmark group function.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $cfg:expr; targets = $($target:path),* $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $cfg.configure_from_args();
            $( $target(&mut criterion); )*
        }
    };
    ($name:ident, $($target:path),* $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),*
        );
    };
}

/// Declares the bench binary's `main`, running each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),* $(,)?) => {
        fn main() {
            if !$crate::running_under_cargo_bench() {
                // `cargo test` executes harness-less bench targets;
                // skip the actual measurement there.
                println!("(criterion shim: skipping benchmarks outside `cargo bench`)");
                return;
            }
            $( $group(); )*
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_records_samples() {
        let mut c = Criterion::default().sample_size(5);
        // Should not panic, and should run the routine. Under
        // `cargo bench -- --test` this very test inherits the smoke
        // flag, where a single pass is the contract.
        let mut runs = 0u32;
        c.bench_function("shim/self_test", |b| {
            b.iter(|| {
                runs += 1;
                runs
            })
        });
        if running_in_test_mode() {
            assert_eq!(runs, 1);
        } else {
            assert!(runs >= 5);
        }
    }

    #[test]
    fn first_non_flag_argument_filters_by_substring() {
        let args = |xs: &[&str]| xs.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        assert_eq!(name_filter(args(&["--bench"])), None);
        assert_eq!(
            name_filter(args(&["--test", "synthesis", "--bench"])),
            Some("synthesis".to_string())
        );

        let mut c = Criterion::default().sample_size(2).with_filter("synthesis");
        let mut ran = Vec::new();
        for id in [
            "synthesis/normal_fill_simd_8",
            "gather/segment_scores",
            "sic/synthesis",
        ] {
            c.bench_function(id, |b| b.iter(|| ran.push(id)));
        }
        assert!(ran.contains(&"synthesis/normal_fill_simd_8"));
        assert!(
            ran.contains(&"sic/synthesis"),
            "a substring anywhere in the id matches"
        );
        assert!(!ran.contains(&"gather/segment_scores"));
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_nanos(12)), "12 ns");
        assert_eq!(fmt_duration(Duration::from_micros(1500)), "1.50 ms");
    }
}
