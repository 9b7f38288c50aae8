//! Offline performance suite: a small no-dependency timing harness plus
//! the benchmark groups that used to live as dead criterion sources
//! under `benches/` (the build image has no crates-io access, so
//! criterion never ran). `perf_suite` runs everything, prints a table,
//! and writes `BENCH_results.json` at the repository root so the perf
//! trajectory is tracked in-repo from PR to PR.
//!
//! The headline output is the [`Comparison`] list, whose ratios are
//! machine-portable because both sides are timed in the same process.
//! It holds two kinds of row:
//!
//! * **kernel rows** ([`Suite::compare`]): a fast kernel against its
//!   preserved pre-optimization twin (`gsfl_tensor::reference`, the
//!   scalar SIMD tier, or the allocating codec path);
//! * **normalized rows** ([`Suite::normalized`]): workloads with no
//!   second implementation — the split training step and the
//!   end-to-end rounds — against one fixed calibration kernel, the
//!   single-threaded naive `gsfl_tensor::reference::matmul` at 128³.

pub mod aggregation;
pub mod codec;
pub mod orchestrator;
pub mod population;
pub mod round_latency;
pub mod simd;
pub mod tensor_ops;
pub mod train;

use gsfl_tensor::{reference, Tensor};
use serde::{Deserialize, Serialize};
use std::hint::black_box;
use std::time::Instant;

/// One timed workload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchEntry {
    /// Workload id, e.g. `matmul_square_64/fast`.
    pub name: String,
    /// Measured iterations (after warmup).
    pub iters: u32,
    /// Mean wall-clock per iteration, nanoseconds.
    pub mean_ns: u64,
    /// Fastest iteration, nanoseconds.
    pub min_ns: u64,
}

/// A baseline-vs-fast pairing with its speedup factor. Times are the
/// **fastest** iteration of each side — the noise-robust statistic on
/// shared/virtualized hosts, where scheduling jitter only ever adds
/// time.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Comparison {
    /// Workload id, e.g. `e2e_round_federated_8c`.
    pub name: String,
    /// Best per-iteration time of the baseline, ms: the preserved
    /// pre-optimization twin for a kernel row, the calibration kernel
    /// for a normalized row (see [`Suite::normalized`]).
    pub baseline_ms: f64,
    /// Best per-iteration time of the workload itself, ms.
    pub fast_ms: f64,
    /// `baseline_ms / fast_ms`.
    pub speedup: f64,
}

/// Iterations of the calibration kernel per normalized row.
const CALIBRATION_ITERS: u32 = 40;

/// The serialized suite output (`BENCH_results.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SuiteReport {
    /// Whether the suite ran in `--quick` (CI) mode.
    pub quick: bool,
    /// Thread budget of the measuring host.
    pub hardware_threads: usize,
    /// Seconds since the Unix epoch when the suite finished.
    pub generated_unix_s: u64,
    /// Peak resident set size (`VmHWM`) of the suite process when it
    /// finished, in kB; `None` off Linux. The population benches run a
    /// full round at 10⁶ configured clients, so this pins the sparse
    /// subsystem's memory claim alongside its timings.
    #[serde(default)]
    pub peak_rss_kb: Option<u64>,
    /// The SIMD instruction set the dispatch layer selected on the
    /// measuring host (`gsfl_tensor::simd::active_isa().name()`), so a
    /// perf trajectory across machines is interpretable.
    #[serde(default)]
    pub simd_isa: String,
    /// All timed workloads.
    pub entries: Vec<BenchEntry>,
    /// Baseline-vs-fast speedups.
    pub comparisons: Vec<Comparison>,
}

/// Collects entries and comparisons while the groups run.
#[derive(Debug)]
pub struct Suite {
    quick: bool,
    entries: Vec<BenchEntry>,
    comparisons: Vec<Comparison>,
}

impl Suite {
    /// An empty suite; `quick` divides iteration counts for CI.
    pub fn new(quick: bool) -> Self {
        Suite {
            quick,
            entries: Vec::new(),
            comparisons: Vec::new(),
        }
    }

    /// Whether the suite is in quick mode.
    pub fn quick(&self) -> bool {
        self.quick
    }

    fn scaled(&self, iters: u32) -> u32 {
        if self.quick {
            (iters / 8).max(1)
        } else {
            iters.max(1)
        }
    }

    /// Times `f` for `iters` iterations (after `iters/4 + 1` warmup runs)
    /// and records the entry. Returns the fastest iteration in
    /// nanoseconds (the noise-robust statistic — see [`Comparison`]).
    pub fn run(&mut self, name: impl Into<String>, iters: u32, mut f: impl FnMut()) -> u64 {
        let iters = self.scaled(iters);
        for _ in 0..(iters / 4 + 1) {
            f();
        }
        let mut total_ns = 0u64;
        let mut min_ns = u64::MAX;
        for _ in 0..iters {
            let t = Instant::now();
            f();
            let ns = t.elapsed().as_nanos() as u64;
            total_ns += ns;
            min_ns = min_ns.min(ns);
        }
        self.entries.push(BenchEntry {
            name: name.into(),
            iters,
            mean_ns: total_ns / u64::from(iters),
            min_ns,
        });
        min_ns
    }

    /// Times `baseline` and `fast` under `<name>/baseline` and
    /// `<name>/fast`, recording the speedup comparison (fastest
    /// iterations on both sides).
    pub fn compare(
        &mut self,
        name: impl Into<String>,
        iters: u32,
        baseline: impl FnMut(),
        fast: impl FnMut(),
    ) {
        let name = name.into();
        let base_ns = self.run(format!("{name}/baseline"), iters, baseline);
        let fast_ns = self.run(format!("{name}/fast"), iters, fast);
        self.push_comparison(name, base_ns, fast_ns);
    }

    fn push_comparison(&mut self, name: String, base_ns: u64, fast_ns: u64) {
        self.comparisons.push(Comparison {
            name,
            baseline_ms: base_ns as f64 / 1e6,
            fast_ms: fast_ns as f64 / 1e6,
            speedup: base_ns as f64 / fast_ns.max(1) as f64,
        });
    }

    /// Times the calibration kernel — the naive, single-threaded
    /// `reference::matmul` of two 128×128 matrices — under
    /// `<name>/calibration` and `workload` under `<name>/fast`,
    /// recording a comparison whose speedup is `calibration / workload`
    /// (fastest iterations on both sides). For workloads with no second
    /// implementation, this ratio cancels the host's speed the way a
    /// kernel row's pairing does.
    pub fn normalized(&mut self, name: impl Into<String>, iters: u32, workload: impl FnMut()) {
        let a = Tensor::from_fn(&[128, 128], |i| (i as f32).sin());
        let b = Tensor::from_fn(&[128, 128], |i| (i as f32).cos());
        let name = name.into();
        let calibration_ns = self.run(format!("{name}/calibration"), CALIBRATION_ITERS, || {
            black_box(reference::matmul(black_box(&a), black_box(&b)).unwrap());
        });
        let fast_ns = self.run(format!("{name}/fast"), iters, workload);
        self.push_comparison(name, calibration_ns, fast_ns);
    }

    /// Finalizes the report.
    pub fn finish(self) -> SuiteReport {
        SuiteReport {
            quick: self.quick,
            hardware_threads: gsfl_tensor::threading::hardware_threads(),
            generated_unix_s: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
            peak_rss_kb: peak_rss_kb(),
            simd_isa: gsfl_tensor::simd::active_isa().name().to_string(),
            entries: self.entries,
            comparisons: self.comparisons,
        }
    }
}

/// Peak resident set size in kilobytes, from `/proc/self/status`
/// (`None` off Linux).
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        line.strip_prefix("VmHWM:")
            .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
    })
}

/// Runs every benchmark group into one report.
pub fn run_all(quick: bool) -> SuiteReport {
    let mut suite = Suite::new(quick);
    tensor_ops::register(&mut suite);
    codec::register(&mut suite);
    aggregation::register(&mut suite);
    simd::register(&mut suite);
    round_latency::register(&mut suite);
    orchestrator::register(&mut suite);
    train::register(&mut suite);
    population::register(&mut suite);
    suite.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_records_entries_and_comparisons() {
        let mut s = Suite::new(true);
        s.run("noop", 8, || {});
        s.compare("pair", 8, || {}, || {});
        s.normalized("norm", 8, || {});
        let report = s.finish();
        assert_eq!(report.entries.len(), 5);
        assert_eq!(report.entries[3].name, "norm/calibration");
        assert_eq!(report.comparisons.len(), 2);
        let norm = &report.comparisons[1];
        assert!(norm.baseline_ms > 0.0, "the calibration kernel takes time");
        assert!(report.quick);
        assert!(report.hardware_threads >= 1);
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: SuiteReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.entries.len(), 5);
    }
}
