//! A minimal, dependency-free benchmark harness.
//!
//! The workspace builds offline, so the criterion crate is not available;
//! this module provides the small subset the suite needs: named benchmarks,
//! substring filtering from the command line (`cargo bench -- <filter>`),
//! automatic iteration-count calibration, the fastest of several timed
//! batches as the reading, and ns/µs/ms formatting.
//!
//! Set `ERASER_BENCH_QUICK=1` to shrink the measurement budget (useful as a
//! smoke run in CI). Set `ERASER_BENCH_JSON=<path>` to additionally write
//! the measurements as JSON when the harness is dropped (the baseline files
//! under `results/` are produced this way).

use eraser_json::Value;
use std::cell::RefCell;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Timed batches per benchmark; the fastest one is reported.
const BATCHES: u32 = 5;

/// Per-process benchmark driver. Construct once in `main` with
/// [`Harness::from_args`], then call [`Harness::bench`] per benchmark.
pub struct Harness {
    filter: Option<String>,
    target: Duration,
    quick: bool,
    json: Option<PathBuf>,
    results: RefCell<Vec<(String, f64)>>,
}

impl Harness {
    /// Reads the optional substring filter from the command line (cargo
    /// passes `--bench` and similar flags; everything else is a filter).
    pub fn from_args() -> Harness {
        let filter = std::env::args().skip(1).find(|arg| !arg.starts_with("--"));
        let quick = std::env::var_os("ERASER_BENCH_QUICK").is_some();
        let target = if quick {
            Duration::from_millis(30)
        } else {
            Duration::from_millis(300)
        };
        let json = std::env::var_os("ERASER_BENCH_JSON").map(PathBuf::from);
        Harness {
            filter,
            target,
            quick,
            json,
            results: RefCell::new(Vec::new()),
        }
    }

    /// Whether `name` passes the command-line filter. Lets a bench target
    /// skip building an expensive fixture whose benches would all be
    /// filtered out anyway.
    pub fn matches(&self, name: &str) -> bool {
        self.filter
            .as_ref()
            .is_none_or(|filter| name.contains(filter.as_str()))
    }

    /// Whether any of `rows` passes the command-line filter. Gates a fixture
    /// shared by several benches on the names of the rows it feeds, so any
    /// filter that selects one of them — a whole row name, or any part of
    /// one — builds it.
    pub fn matches_any<S: AsRef<str>>(&self, rows: &[S]) -> bool {
        rows.iter().any(|row| self.matches(row.as_ref()))
    }

    /// Runs `f` in `BATCHES` (5) equal batches that together take roughly
    /// the measurement budget, and prints the fastest batch's mean time per
    /// iteration. Skipped (silently) if `name` does not match the filter.
    ///
    /// One warm-up iteration sizes the batches. On a shared host
    /// co-tenants slow whole stretches of a run; the fastest batch stays
    /// near the uncontended time, where one long batch's mean takes in
    /// every slow stretch it overlaps.
    pub fn bench<T>(&self, name: &str, mut f: impl FnMut() -> T) {
        if !self.matches(name) {
            return;
        }
        let start = Instant::now();
        std::hint::black_box(f());
        let once = start.elapsed().max(Duration::from_nanos(1));
        let budget = self.target.as_nanos() / u128::from(BATCHES);
        let iters = (budget / once.as_nanos()).clamp(1, 1_000_000) as u64;
        let mut per_iter = f64::INFINITY;
        for _ in 0..BATCHES {
            let start = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            per_iter = per_iter.min(start.elapsed().as_nanos() as f64 / iters as f64);
        }
        println!(
            "{name:<44} {:>14}/iter  (fastest of {BATCHES} × {iters} iters)",
            format_ns(per_iter)
        );
        self.results.borrow_mut().push((name.to_string(), per_iter));
    }

    /// Renders the recorded measurements as a JSON document (via the
    /// shared `eraser_json` writer, the same serializer the serve protocol
    /// uses — escaping and number formatting live in one place).
    fn to_json(&self) -> String {
        let benches = self
            .results
            .borrow()
            .iter()
            .map(|(name, ns)| {
                let mut entry = Value::object();
                entry.set("name", name.as_str());
                // Sub-0.1ns resolution is noise; keep baselines diffable.
                entry.set("ns_per_iter", (ns * 10.0).round() / 10.0);
                entry
            })
            .collect();
        let mut root = Value::object();
        // Every baseline records the host's core count: numbers from
        // different machines are not comparable, and any assertion on a
        // multi-threaded measurement must know what produced it.
        root.set(
            "cores",
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        );
        root.set("benches", Value::Array(benches));
        root.to_pretty()
    }
}

impl Drop for Harness {
    fn drop(&mut self) {
        if let Some(path) = &self.json {
            if let Some(filter) = &self.filter {
                // A filtered run measured only a subset; writing it would
                // silently clobber a full baseline file.
                eprintln!(
                    "not writing bench JSON to {}: filter `{filter}` is active \
                     (re-run without a filter to record a baseline)",
                    path.display()
                );
                return;
            }
            if self.quick {
                // Quick mode shrinks the measurement budget; the numbers are
                // too noisy to serve as a baseline.
                eprintln!(
                    "not writing bench JSON to {}: ERASER_BENCH_QUICK is set \
                     (re-run without it to record a baseline)",
                    path.display()
                );
                return;
            }
            if let Err(err) = std::fs::write(path, self.to_json()) {
                eprintln!("failed to write bench JSON to {}: {err}", path.display());
            } else {
                println!("wrote bench JSON to {}", path.display());
            }
        }
    }
}

fn format_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} us", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_harness(filter: Option<&str>) -> Harness {
        Harness {
            filter: filter.map(str::to_string),
            target: Duration::from_micros(50),
            quick: false,
            json: None,
            results: RefCell::new(Vec::new()),
        }
    }

    #[test]
    fn formats_time_scales() {
        assert_eq!(format_ns(250.0), "250 ns");
        assert_eq!(format_ns(2_500.0), "2.50 us");
        assert_eq!(format_ns(2_500_000.0), "2.50 ms");
        assert_eq!(format_ns(2_500_000_000.0), "2.500 s");
    }

    #[test]
    fn bench_runs_the_closure() {
        let h = test_harness(None);
        let mut calls = 0u64;
        h.bench("noop", || calls += 1);
        assert!(
            calls > u64::from(BATCHES),
            "warm-up plus at least one iteration per batch"
        );
    }

    #[test]
    fn filter_skips_non_matching_names() {
        let h = test_harness(Some("decoder"));
        let mut calls = 0u64;
        h.bench("simulator_round", || calls += 1);
        assert_eq!(calls, 0);
        h.bench("decoder_latency", || calls += 1);
        assert!(calls > 0);
    }

    #[test]
    fn a_fixture_gate_admits_any_filter_that_selects_one_of_its_rows() {
        let rows = [
            "decode_window_shot/d7_r110/monolithic_mwpm",
            "decode_window_shot/d7_r110/windowed_tiered_mwpm",
        ];
        for filter in [
            None,
            Some("window"),
            Some("decode_window_shot"),
            Some("d7_r110/windowed"),
            Some("tiered"),
            Some(rows[1]),
        ] {
            assert!(test_harness(filter).matches_any(&rows), "{filter:?}");
        }
        for filter in ["decode_batch", "memory_run", "d5_r110"] {
            assert!(!test_harness(Some(filter)).matches_any(&rows), "{filter}");
        }
    }

    #[test]
    fn json_records_measured_benches() {
        let h = test_harness(None);
        h.bench("alpha", || 1 + 1);
        h.bench("beta", || 2 + 2);
        let json = h.to_json();
        // The document must round-trip through the shared parser with both
        // measurements intact and positive.
        let parsed = Value::parse(&json).unwrap();
        let cores = parsed.get("cores").and_then(|c| c.as_u64()).unwrap();
        assert!(cores >= 1, "host core count is recorded: {cores}");
        let benches = parsed.get("benches").and_then(|b| b.as_array()).unwrap();
        assert_eq!(benches.len(), 2);
        for (entry, name) in benches.iter().zip(["alpha", "beta"]) {
            assert_eq!(entry.get("name").and_then(|n| n.as_str()), Some(name));
            let ns = entry.get("ns_per_iter").and_then(|n| n.as_f64()).unwrap();
            assert!(ns > 0.0, "{name}: {ns}");
        }
    }
}
