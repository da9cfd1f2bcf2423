//! The helpers every workload shares: the percentile rule, failure
//! counting, the exact-count digest and the result line. Nothing here knows
//! about a workload, so all of it is unit-tested below.

use eraser_core::MemoryRunResult;
use eraser_json::Value;
use std::collections::BTreeMap;

/// A percentile is reported only when at least this many samples lie
/// beyond it (the benchmark's percentile rule).
pub const MIN_BEYOND: u64 = 10;

/// Nearest-rank `q`-quantile of `sorted` (ascending): the smallest sample
/// with at least a `q` share of all samples at or below it. 0 when empty.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len() as u64, q) as usize - 1]
}

/// 1-based nearest rank of the `q`-quantile among `n ≥ 1` samples.
fn rank(n: u64, q: f64) -> u64 {
    ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).clamp(1, n)
}

/// Number of samples strictly beyond the nearest-rank `q`-quantile.
pub fn beyond(n: u64, q: f64) -> u64 {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// Whether `n` samples support reporting the `q`-quantile.
pub fn supports(n: u64, q: f64) -> bool {
    beyond(n, q) >= MIN_BEYOND
}

/// Sorts `values` and returns the nearest-rank median.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// The quantile of an input class's operation times taken as its time on
/// a quiet host. Co-tenants on a shared machine slow single operations by
/// 30–100% in bursts whose density drifts over seconds to minutes; the
/// fastest 5% of many operations stays near the uncontended floor.
pub const QUIET_Q: f64 = 0.05;

/// One timed operation: its input class (operations of one class do the
/// same work), wall time and the shots it completed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Op {
    pub class: u32,
    pub secs: f64,
    pub shots: u64,
}

/// Shots per second of one pass over every input class, each class timed
/// at the [`QUIET_Q`] quantile of its operations. 0 when nothing ran.
pub fn quiet_rate(ops: &[Op]) -> f64 {
    let mut classes: BTreeMap<u32, (Vec<f64>, u64)> = BTreeMap::new();
    for op in ops {
        let class = classes.entry(op.class).or_default();
        class.0.push(op.secs);
        class.1 = op.shots;
    }
    let (mut shots, mut secs) = (0u64, 0.0);
    for (mut times, class_shots) in classes.into_values() {
        times.sort_by(f64::total_cmp);
        secs += quantile(&times, QUIET_Q);
        shots += class_shots;
    }
    if secs > 0.0 {
        shots as f64 / secs
    } else {
        0.0
    }
}

/// Exact nanosecond histogram: one bin per nanosecond below
/// [`NsHistogram::EXACT_NS`], raw samples above it. Keeps millions of
/// per-call latencies in bounded memory with no loss of resolution.
#[derive(Debug, Clone)]
pub struct NsHistogram {
    bins: Vec<u32>,
    overflow: Vec<u64>,
    count: u64,
}

impl Default for NsHistogram {
    fn default() -> NsHistogram {
        NsHistogram {
            bins: vec![0; Self::EXACT_NS as usize],
            overflow: Vec::new(),
            count: 0,
        }
    }
}

impl NsHistogram {
    /// Latencies below this many nanoseconds are binned exactly.
    pub const EXACT_NS: u64 = 1 << 17;

    /// Records one latency.
    pub fn record(&mut self, ns: u64) {
        if ns < Self::EXACT_NS {
            self.bins[ns as usize] += 1;
        } else {
            self.overflow.push(ns);
        }
        self.count += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Nearest-rank `q`-quantile in nanoseconds (0 when empty).
    pub fn quantile(&mut self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = rank(self.count, q);
        let mut seen = 0u64;
        for (ns, &n) in self.bins.iter().enumerate() {
            seen += u64::from(n);
            if seen >= target {
                return ns as u64;
            }
        }
        self.overflow.sort_unstable();
        self.overflow[(target - seen) as usize - 1]
    }
}

/// Operations and correctness checks attempted and failed in one run.
#[derive(Debug, Default)]
pub struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    /// At most this many failure messages are kept (all are counted).
    const KEEP: usize = 16;

    /// Counts one operation or check; `ok == false` counts it as failed
    /// and keeps `what` (built lazily) for the report.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < Self::KEEP {
                self.failures.push(what());
            }
        }
    }

    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// FNV-1a over a sequence of exact counts. Two runs digest equal iff they
/// produced the same counts in the same order, so a speed-only change can
/// be checked not to move a single simulated statistic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    #[must_use]
    pub fn push(self, value: u64) -> Digest {
        let mut h = self.0;
        for byte in value.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        Digest(h)
    }

    /// Folds in every exact count of a run: shots, logical errors, LRCs,
    /// erasures, the speculation confusion matrix, post-selection and the
    /// predecoder's tier hits.
    #[must_use]
    pub fn run(self, r: &MemoryRunResult) -> Digest {
        let s = &r.speculation;
        [
            r.shots,
            r.logical_errors,
            r.total_lrcs,
            r.total_erasures,
            s.true_positive,
            s.false_positive,
            s.false_negative,
            s.true_negative,
            r.postselection.flagged_shots,
            r.postselection.errors_on_kept,
            r.predecode.hits[0],
            r.predecode.hits[1],
            r.predecode.hits[2],
        ]
        .into_iter()
        .fold(self, Digest::push)
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// `{"name": {"value": v, "unit": u}, ...}` in the given order.
pub fn metrics_json(metrics: &[Metric]) -> Value {
    let mut out = Value::object();
    for m in metrics {
        let mut v = Value::object();
        v.set("value", m.value);
        v.set("unit", m.unit);
        out.set(&m.name, v);
    }
    out
}

/// The benchmark's last line of output.
pub fn result_line(tally: &Tally, metrics: &[Metric]) -> String {
    let mut v = Value::object();
    v.set("correct", tally.failed() == 0);
    v.set("attempted", tally.attempted().max(1));
    v.set("failed", tally.failed());
    v.set("metrics", metrics_json(metrics));
    v.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(beyond(1000, 0.99), 10);
        assert!(supports(1000, 0.99));
        assert!(!supports(999, 0.99));
        assert!(supports(20, 0.5));
        assert!(!supports(19, 0.5));
        assert_eq!(beyond(0, 0.5), 0);
    }

    #[test]
    fn quiet_rate_ignores_slowed_operations() {
        let op = |class, secs, shots| Op { class, secs, shots };
        // Class 0: 10 shots in 1 ms; class 1: 30 shots in 2 ms. Every
        // other operation runs 2x slow, as under a busy co-tenant.
        let mut ops = Vec::new();
        for i in 0..40 {
            let slow = if i % 2 == 0 { 1.0 } else { 2.0 };
            ops.push(op(0, 1e-3 * slow, 10));
            ops.push(op(1, 2e-3 * slow, 30));
        }
        assert!((quiet_rate(&ops) - 40.0 / 3e-3).abs() < 1e-6);
        // A class's rate does not depend on how often it ran.
        ops.extend((0..40).map(|_| op(0, 1e-3, 10)));
        assert!((quiet_rate(&ops) - 40.0 / 3e-3).abs() < 1e-6);
        assert_eq!(quiet_rate(&[]), 0.0);
    }

    #[test]
    fn histogram_matches_sorted_samples() {
        let mut h = NsHistogram::default();
        let mut raw = Vec::new();
        for i in 0..5000u64 {
            // Mostly small values plus a tail past the exact range.
            let ns = if i % 97 == 0 {
                NsHistogram::EXACT_NS + i * 13
            } else {
                (i * 7919) % 4000
            };
            h.record(ns);
            raw.push(ns as f64);
        }
        raw.sort_by(f64::total_cmp);
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(h.quantile(q) as f64, quantile(&raw, q), "q = {q}");
        }
        assert_eq!(h.count(), 5000);
        assert_eq!(NsHistogram::default().quantile(0.5), 0);
    }

    #[test]
    fn tally_counts_failures_and_keeps_messages() {
        let mut t = Tally::default();
        t.record(true, || unreachable!("message built only on failure"));
        for i in 0..20 {
            t.record(i % 2 == 0, || format!("odd {i}"));
        }
        assert_eq!((t.attempted(), t.failed()), (21, 10));
        assert_eq!(t.failures().len(), 10);
        assert_eq!(t.failures()[0], "odd 1");
        assert!((t.fail_ratio() - 10.0 / 21.0).abs() < 1e-15);
        assert_eq!(Tally::default().fail_ratio(), 0.0);
    }

    #[test]
    fn result_line_floors_attempted_at_one() {
        let line = result_line(&Tally::default(), &[Metric::new("setup_s", 1.5, "s")]);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":1,"failed":0,"metrics":{"setup_s":{"value":1.5,"unit":"s"}}}"#
        );
    }

    #[test]
    fn digest_is_order_sensitive_and_pinned() {
        let a = Digest::default().push(1).push(2);
        let b = Digest::default().push(2).push(1);
        assert_ne!(a, b);
        assert_eq!(a, Digest::default().push(1).push(2));
        // Pins the algorithm: committed digests stay comparable.
        assert_eq!(Digest::default().hex(), "cbf29ce484222325");
        assert_eq!(Digest::default().push(0).hex(), "a8c7f832281a39c5");
    }

    #[test]
    fn digest_covers_every_exact_count() {
        let base = MemoryRunResult {
            shots: 64,
            logical_errors: 1,
            rounds: 3,
            lpr_total: vec![0.0; 3],
            lpr_data: vec![0.0; 3],
            lpr_parity: vec![0.0; 3],
            total_lrcs: 5,
            total_erasures: 0,
            speculation: Default::default(),
            postselection: Default::default(),
            policy: "eraser".into(),
            decoder: "mwpm".into(),
            decode_latency: Default::default(),
            controller: Default::default(),
            predecode: Default::default(),
        };
        let d = Digest::default().run(&base);
        let mut moved = base.clone();
        moved.speculation.false_negative += 1;
        assert_ne!(Digest::default().run(&moved), d);
        let mut moved = base.clone();
        moved.predecode.hits[1] += 1;
        assert_ne!(Digest::default().run(&moved), d);
        // Wall-clock telemetry is not part of the digest.
        let mut timed = base.clone();
        timed.decode_latency.record(1234, 3);
        assert_eq!(Digest::default().run(&timed), d);
    }
}
