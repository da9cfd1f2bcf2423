//! End-to-end pipeline benchmark of the ERASER reproduction.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload mc-d11 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Each workload builds its inputs from `--seed`, sets the program up
//! several times (reporting the median), measures a timed phase of
//! `--seconds` seconds through the crates' public API, and checks the
//! outputs. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. A traced run
//! repeats the timed phase with spans recorded around every layer call,
//! runs the per-layer probes, and writes its spans to `perfbench/out/`.
//! `BENCHMARK.json` lists the workloads whose figures stay steady on a
//! shared 2-vCPU host, and why each was chosen: `stream-d7` and
//! `serve-mix`. `mc-d11` and `lpr-d11` are run by hand; their multi-threaded
//! 128-shot batches moved by 25–50% between sets of runs on such a host.

mod host;
mod lpr;
mod mc;
mod probes;
mod report;
mod serve;
mod stream;
mod trace;

use eraser_json::Value;
use report::{metrics_json, quiet_rate, result_line, Digest, Metric, Op, Tally};
use std::time::Instant;
use trace::Tracer;

const USAGE: &str = "usage: perfbench --workload <mc-d11|lpr-d11|stream-d7|serve-mix> \
--seed <n> --seconds <s> --trace <0|1>";

/// The end-to-end metrics every workload reports (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 3] = [
    ("shots_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every workload reports (`--trace 1`), with units.
/// A layer a workload never calls reports 0. Figures only the hand-run
/// workloads measure go to the result file instead (see [`Report::extra`]).
const PER_LAYER: &[(&str, &str)] = &[
    ("surface_code.experiment_build_s", "s"),
    ("qec_decoder.dem_build_s", "s"),
    ("eraser_core.runner_build_s", "s"),
    ("qec_decoder.window_plan_s", "s"),
    ("qec_decoder.window_plan_mb", "MB"),
    ("qec_decoder.busy_s", "s"),
    ("qec_decoder.share", "ratio"),
    ("qec_decoder.windows", "count"),
    ("qec_decoder.ns_per_round_mean", "ns"),
    ("predecode.tier0_hits", "count"),
    ("predecode.tier1_hits", "count"),
    ("predecode.tier2_hits", "count"),
    ("predecode.tier1_ns", "ns"),
    ("predecode.tier2_ns", "ns"),
    ("predecode.fast_ratio", "ratio"),
    ("leak_sim.stripe_round_us", "us"),
    ("eraser_core.policy_plan_ns.eraser", "ns"),
    ("eraser_core.policy_plan_ns.eraser-m", "ns"),
    ("eraser_core.cache_hits", "count"),
    ("eraser_core.cache_misses", "count"),
    ("eraser_core.cache_bytes", "B"),
    ("eraser_serve.server_ms_p50", "ms"),
    ("eraser_serve.server_ms_p99", "ms"),
    ("eraser_serve.outside_ms_p50", "ms"),
    ("eraser_serve.busy_rejects", "count"),
    ("eraser_serve.cache_hit_ratio", "ratio"),
    ("stream_round_ns_p50", "ns"),
    ("stream_round_ns_p99", "ns"),
    ("stream_push_us_p99", "us"),
    ("jobs_per_s", "1/s"),
    ("job_ms_p50", "ms"),
    ("job_ms_p99", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

/// The seed kept out of every tuning run; a later change confirms a claim
/// on it. Its exact-count digests are pinned below, so any run on it also
/// checks that no simulated statistic moved.
const HELD_OUT_SEED: u64 = 20231028;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    McD11,
    LprD11,
    StreamD7,
    ServeMix,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::McD11,
        Workload::LprD11,
        Workload::StreamD7,
        Workload::ServeMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::McD11 => "mc-d11",
            Workload::LprD11 => "lpr-d11",
            Workload::StreamD7 => "stream-d7",
            Workload::ServeMix => "serve-mix",
        }
    }

    /// Digest of the workload's checked exact counts at [`HELD_OUT_SEED`].
    fn held_out_digest(self) -> &'static str {
        match self {
            Workload::McD11 => "01b1fa940905cdfc",
            Workload::LprD11 => "8351751ef3550859",
            Workload::StreamD7 => "7704c86d4cc47e04",
            Workload::ServeMix => "f925f1a2d78b50e0",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::ALL
                            .into_iter()
                            .find(|w| w.name() == value)
                            .ok_or_else(|| format!("unknown workload `{value}`"))?,
                    )
                }
                "--seed" => seed = Some(value.parse().map_err(|_| "--seed: not a u64")?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| "--seconds: not a number")?;
                    if !(s > 0.0 && s <= 3600.0) {
                        return Err("--seconds must lie in (0, 3600]".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace must be 0 or 1".into()),
                    })
                }
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// One timed phase: its wall time and every operation it timed (the unit
/// a caller of the workload waits on).
#[derive(Debug, Default)]
pub struct Phase {
    pub wall_s: f64,
    pub ops: Vec<Op>,
}

impl Phase {
    pub fn record(&mut self, class: u32, secs: f64, shots: u64) {
        self.ops.push(Op { class, secs, shots });
    }

    pub fn shots(&self) -> u64 {
        self.ops.iter().map(|op| op.shots).sum()
    }

    /// The headline throughput: shots per second at the host's quiet
    /// speed (see [`report::QUIET_Q`]).
    pub fn shots_per_s(&self) -> f64 {
        quiet_rate(&self.ops)
    }
}

/// What a workload measured.
#[derive(Debug)]
pub struct Report {
    /// Set-up time of each repetition.
    pub setup_s: Vec<f64>,
    /// Peak resident memory of the process at the end of the untraced
    /// timed phase.
    pub peak_rss_mb: f64,
    /// The untraced timed phase (end-to-end metrics).
    pub untraced: Phase,
    /// The traced repeat of the timed phase (`--trace 1` only).
    pub traced: Option<Phase>,
    /// Per-layer metrics (`--trace 1` only); names from [`PER_LAYER`].
    pub layers: Vec<Metric>,
    /// Per-layer figures of the hand-run workloads that no workload in
    /// `BENCHMARK.json` measures (`--trace 1` only): written to the result
    /// file and standard error, not to the result line.
    pub extra: Vec<Metric>,
    /// Digest of the exact counts the workload checked (see each module).
    pub digest: Digest,
    /// Sample counts and checks, for the result file.
    pub notes: Value,
}

impl Default for Report {
    fn default() -> Report {
        Report {
            setup_s: Vec::new(),
            peak_rss_mb: 0.0,
            untraced: Phase::default(),
            traced: None,
            layers: Vec::new(),
            extra: Vec::new(),
            digest: Digest::default(),
            notes: Value::object(),
        }
    }
}

/// Runs `f` until `seconds` have passed (at least once) and returns the
/// wall time; `f` gets the iteration index.
pub fn timed_loop(seconds: f64, mut f: impl FnMut(u64)) -> f64 {
    let start = Instant::now();
    let mut i = 0;
    while i == 0 || start.elapsed().as_secs_f64() < seconds {
        f(i);
        i += 1;
    }
    start.elapsed().as_secs_f64()
}

/// Times `setup` `reps` times (at least once), dropping each repetition's
/// product before the next starts; returns the set-up times and the last
/// product.
pub fn timed_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (Vec<f64>, T) {
    let (mut times, mut last) = (Vec::new(), None);
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t = Instant::now();
        let built = setup();
        times.push(t.elapsed().as_secs_f64());
        last = Some(built);
    }
    (times, last.expect("at least one set-up repetition"))
}

/// Derives the `i`-th input seed of a run from the workload seed
/// (splitmix64, so nearby seeds share no streams).
pub fn sub_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x632B_E59B_D9B4_E019);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn end_to_end(report: &Report) -> Vec<Metric> {
    let values = [
        report.untraced.shots_per_s(),
        report::median(&report.setup_s),
        report.peak_rss_mb,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric::new(name, value, unit))
        .collect()
}

fn per_layer(report: &Report, tally: &mut Tally) -> Vec<Metric> {
    for m in &report.layers {
        let known = PER_LAYER.iter().any(|&(name, _)| name == m.name);
        tally.record(known, || format!("unlisted per-layer metric {}", m.name));
    }
    let overhead = report.traced.as_ref().map_or(0.0, |traced| {
        report.untraced.shots_per_s() / traced.shots_per_s()
    });
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = if name == "trace.overhead_ratio" {
                overhead
            } else {
                report
                    .layers
                    .iter()
                    .find(|m| m.name == name)
                    .map_or(0.0, |m| m.value)
            };
            Metric::new(name, value, unit)
        })
        .collect()
}

fn write_result_file(
    args: &Args,
    context: Value,
    report: Report,
    metrics: &[Metric],
    tally: &Tally,
    tracer: &Tracer,
) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let mut v = Value::object();
    v.set("context", context);
    v.set("metrics", metrics_json(metrics));
    if !report.extra.is_empty() {
        v.set("extra_layers", metrics_json(&report.extra));
    }
    let mut samples = Value::object();
    samples.set("setup_s", report.setup_s.len());
    samples.set("ops", report.untraced.ops.len());
    v.set("samples", samples);
    v.set("attempted", tally.attempted());
    v.set("failed", tally.failed());
    v.set("fail_ratio", tally.fail_ratio());
    v.set(
        "failures",
        Value::Array(
            tally
                .failures()
                .iter()
                .map(|f| Value::from(f.as_str()))
                .collect(),
        ),
    );
    v.set("digest", report.digest.hex());
    v.set("notes", report.notes);
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        std::fs::write(dir.join(format!("{stem}.json")), v.to_pretty())?;
        if args.trace {
            std::fs::write(
                dir.join(format!("{stem}.spans.json")),
                tracer.to_json().to_string(),
            )?;
        }
        Ok(())
    });
    if let Err(e) = written {
        eprintln!("perfbench: could not write {}: {e}", dir.display());
    }
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // The program reads `ERASER_*` overrides from the environment; the
    // benchmark pins every knob itself, so none may leak in.
    let overrides: Vec<_> = std::env::vars_os()
        .map(|(key, _)| key)
        .filter(|key| key.to_string_lossy().starts_with("ERASER_"))
        .collect();
    for key in overrides {
        std::env::remove_var(key);
    }

    let mut context = host::context(args.workload.name(), args.seed, args.seconds, args.trace);
    println!("{context}");
    let steal0 = host::steal_ticks();
    let mut tally = Tally::default();
    let mut tracer = Tracer::new(args.workload.name());
    let report = match args.workload {
        Workload::McD11 => mc::run(&args, &mut tally, &mut tracer),
        Workload::LprD11 => lpr::run(&args, &mut tally, &mut tracer),
        Workload::StreamD7 => stream::run(&args, &mut tally, &mut tracer),
        Workload::ServeMix => serve::run(&args, &mut tally, &mut tracer),
    };
    context.set("steal_ticks", host::steal_ticks() - steal0);
    if args.seed == HELD_OUT_SEED {
        let want = args.workload.held_out_digest();
        let got = report.digest.hex();
        tally.record(got == want, || {
            format!("held-out digest {got}, pinned {want}")
        });
    }
    let metrics = if args.trace {
        per_layer(&report, &mut tally)
    } else {
        end_to_end(&report)
    };
    for m in metrics.iter().chain(&report.extra) {
        eprintln!("{:<44} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for failure in tally.failures() {
        eprintln!("FAILED: {failure}");
    }
    write_result_file(&args, context, report, &metrics, &tally, &tracer);
    println!("{}", result_line(&tally, &metrics));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        Args::parse(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args(&[
            "--workload",
            "lpr-d11",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]);
        assert_eq!(
            a,
            Ok(Args {
                workload: Workload::LprD11,
                seed: 7,
                seconds: 10.0,
                trace: true
            })
        );
        assert!(args(&[
            "--workload",
            "mc-d5",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "mc-d11",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&["--workload", "mc-d11", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(args(&["--workload"]).is_err());
    }

    #[test]
    fn sub_seeds_are_distinct_and_reproducible() {
        let seeds: std::collections::BTreeSet<u64> = (0..4)
            .flat_map(|s| (0..256).map(move |i| sub_seed(s, i)))
            .collect();
        assert_eq!(seeds.len(), 4 * 256);
        assert_eq!(sub_seed(9, 3), sub_seed(9, 3));
    }

    /// `BENCHMARK.json` must declare exactly the metrics this binary prints.
    #[test]
    fn benchmark_json_matches_the_metric_lists() {
        let text = include_str!("../../BENCHMARK.json");
        let spec = Value::parse(text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(Value::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Value::as_str).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let expect = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), expect(&END_TO_END));
        assert_eq!(names("per_layer"), expect(PER_LAYER));
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
            .collect();
        // The hand-run workloads are left out on purpose (see the top of
        // this file).
        assert_eq!(workloads, ["stream-d7", "serve-mix"]);
    }

    #[test]
    fn unlisted_layer_metrics_fail_and_missing_ones_read_zero() {
        let report = Report {
            layers: vec![
                Metric::new("qec_decoder.busy_s", 2.5, "s"),
                Metric::new("bogus", 1.0, "s"),
            ],
            ..Report::default()
        };
        let mut tally = Tally::default();
        let metrics = per_layer(&report, &mut tally);
        assert_eq!(tally.failed(), 1);
        assert_eq!(metrics.len(), PER_LAYER.len());
        let value = |n: &str| metrics.iter().find(|m| m.name == n).unwrap().value;
        assert_eq!(value("qec_decoder.busy_s"), 2.5);
        assert_eq!(value("predecode.tier0_hits"), 0.0);
    }
}
