//! `stream-d7`: real-time streaming decode.
//!
//! One thread pushes pre-generated shots round by round into
//! `WindowPlan::new(graph, 21, 14, Mwpm).streaming()` (d = 7, R = 70,
//! predecoder on): a closed loop with one stream. Shots are sampled from
//! the detector error model — every mechanism fires with its own
//! probability — which also gives each shot's true observable flip. The
//! timed loop makes whole passes over the pool; each operation is one
//! shot, its pushes plus `finish`, timed at its fastest decode over the
//! passes. Per-shot latencies go into fixed-size histograms, so the
//! benchmark's own memory does not grow with the shots it runs.

use crate::probes::{self, Built, DecodeTotals};
use crate::report::{self, Digest, Metric, NsHistogram, Tally};
use crate::trace::Tracer;
use crate::{host, sub_seed, timed_loop, timed_setup, Args, Phase, Report};
use eraser_json::Value;
use qec_core::{NoiseParams, Rng};
use qec_decoder::{StreamingDecoder, WindowBackend, WindowPlan};
use std::collections::BTreeMap;
use std::time::Instant;

const D: usize = 7;
const ROUNDS: usize = 70;
const WINDOW: usize = 21;
const STRIDE: usize = 14;
const POOL: usize = 4096;
const SETUP_REPS: usize = 9;

/// One sampled shot: its defects (graph nodes, ascending) cut into
/// detector rounds by `offsets`, and the observable flip it carries.
struct Shot {
    defects: Vec<usize>,
    offsets: Vec<usize>,
    flip: bool,
}

impl Shot {
    fn round(&self, r: usize) -> &[usize] {
        &self.defects[self.offsets[r]..self.offsets[r + 1]]
    }
}

/// Samples `count` shots from the detector error model. Mechanisms are
/// grouped by probability and each group is walked with geometric skips,
/// so a shot costs its fired mechanisms, not all of them.
fn sample_shots(built: &Built, count: usize, seed: u64) -> Vec<Shot> {
    let mut groups: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (i, m) in built.dem.mechanisms.iter().enumerate() {
        groups.entry(m.probability.to_bits()).or_default().push(i);
    }
    let rounds = built.graph.max_round() + 1;
    let mut fired = vec![false; built.dem.num_detectors];
    let mut touched = Vec::new();
    (0..count)
        .map(|s| {
            let mut rng = Rng::new(sub_seed(seed, s as u64));
            let mut flip = false;
            for (&bits, members) in &groups {
                let log_miss = (1.0 - f64::from_bits(bits)).ln();
                let mut i = 0usize;
                loop {
                    let skip = ((1.0 - rng.f64()).ln() / log_miss).floor();
                    if skip >= (members.len() - i) as f64 {
                        break;
                    }
                    i += skip as usize;
                    let m = &built.dem.mechanisms[members[i]];
                    flip ^= m.flips_observable;
                    for &d in &m.detectors {
                        fired[d] = !fired[d];
                        touched.push(d);
                    }
                    i += 1;
                }
            }
            let mut defects: Vec<usize> = touched
                .drain(..)
                .filter(|&d| std::mem::take(&mut fired[d]))
                .filter_map(|d| built.graph.node_of_detector(d))
                .collect();
            defects.sort_unstable();
            let mut offsets = vec![0; rounds + 1];
            for &node in &defects {
                offsets[built.graph.node_round(node) + 1] += 1;
            }
            for r in 0..rounds {
                offsets[r + 1] += offsets[r];
            }
            Shot {
                defects,
                offsets,
                flip,
            }
        })
        .collect()
}

struct Timed {
    phase: Phase,
    decode: DecodeTotals,
    round_ns: NsHistogram,
    push_ns: NsHistogram,
}

fn timed_phase(
    plan: &WindowPlan,
    pool: &[Shot],
    expected: &[bool],
    args: &Args,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> Timed {
    let rounds = plan.max_round() + 1;
    let mut dec = plan.streaming();
    let mut t = Timed {
        phase: Phase::default(),
        decode: DecodeTotals::default(),
        round_ns: NsHistogram::default(),
        push_ns: NsHistogram::default(),
    };
    // Each shot's fastest decode: on a shared host, the time it takes
    // when no co-tenant slows it.
    let mut best_ns = vec![u64::MAX; pool.len()];
    let root = tracer.begin("stream-d7.timed", None);
    let wall_s = timed_loop(args.seconds, |_| {
        for (k, shot) in pool.iter().enumerate() {
            let span = tracer.begin("qec_decoder.WindowedDecoder::shot", root);
            let start = Instant::now();
            dec.begin_shot();
            for r in 0..rounds {
                let push = Instant::now();
                dec.push_round(shot.round(r), &[]);
                t.push_ns.record(push.elapsed().as_nanos() as u64);
            }
            let fin = tracer.begin("qec_decoder.WindowedDecoder::finish", span);
            let out = dec.finish();
            let ns = start.elapsed().as_nanos() as u64;
            tracer.end(fin);
            tracer.end(span);
            t.round_ns.record(ns / ROUNDS as u64);
            best_ns[k] = best_ns[k].min(ns);
            t.decode.busy_ns += out.nanos;
            t.decode.rounds += ROUNDS as u64;
            tally.record(out.flip == expected[k], || {
                format!("shot {k} decoded differently from its warm-up decode")
            });
        }
    });
    tracer.end(root);
    t.phase.wall_s = wall_s;
    for (k, &ns) in best_ns.iter().enumerate() {
        t.phase.record(k as u32, ns as f64 * 1e-9, 1);
    }
    t.decode.tiers = *dec.tier_counters();
    t
}

pub fn run(args: &Args, tally: &mut Tally, tracer: &mut Tracer) -> Report {
    let noise = NoiseParams::standard(1e-3);
    let (mut exp_s, mut dem_s, mut plan_s) = (Vec::new(), Vec::new(), Vec::new());
    let (setup_s, (built, plan)) = timed_setup(SETUP_REPS, || {
        let built = probes::build_graph(D, ROUNDS, noise);
        let t = Instant::now();
        let plan = WindowPlan::new(&built.graph, WINDOW, STRIDE, WindowBackend::Mwpm);
        exp_s.push(built.experiment_s);
        dem_s.push(built.dem_s);
        plan_s.push(t.elapsed().as_secs_f64());
        (built, plan)
    });

    // Inputs, then a warm-up decode of all of them: the flips every later
    // decode of a shot must reproduce, and the pool's logical error rate.
    let pool = sample_shots(&built, POOL, args.seed);
    let mut warm = plan.streaming();
    let expected: Vec<bool> = pool
        .iter()
        .map(|shot| {
            warm.begin_shot();
            for r in 0..shot.offsets.len() - 1 {
                warm.push_round(shot.round(r), &[]);
            }
            warm.finish().flip
        })
        .collect();
    let errors = pool
        .iter()
        .zip(&expected)
        .filter(|(s, &f)| s.flip != f)
        .count();
    let ler = errors as f64 / POOL as f64;
    tally.record(ler < 0.02, || {
        format!("logical error rate {ler} over {POOL} sampled shots")
    });
    let defects = pool.iter().map(|s| s.defects.len()).sum::<usize>() as f64 / POOL as f64;

    let untraced = timed_phase(&plan, &pool, &expected, args, tally, tracer);
    let peak_rss_mb = host::peak_rss_mb();
    let mut notes = Value::object();
    notes.set("mechanisms", built.dem.mechanisms.len());
    notes.set("pool_shots", POOL);
    notes.set("pool_logical_errors", errors);
    notes.set("pool_ler", ler);
    notes.set("mean_defects_per_shot", defects);
    notes.set("pushes", untraced.push_ns.count());
    let mut report = Report {
        setup_s,
        peak_rss_mb,
        untraced: untraced.phase,
        // The pool's logical errors and every decoded flip.
        digest: expected
            .iter()
            .fold(Digest::default().push(errors as u64), |d, &f| {
                d.push(u64::from(f))
            }),
        notes,
        ..Report::default()
    };
    if !args.trace {
        return report;
    }

    let (mut round_ns, mut push_ns) = (untraced.round_ns, untraced.push_ns);
    for (what, hist) in [("round", &round_ns), ("push", &push_ns)] {
        let n = hist.count();
        tally.record(report::supports(n, 0.99), || {
            format!("{what} p99 rests on only {n} samples")
        });
    }
    tracer.set_on(true);
    let traced = timed_phase(&plan, &pool, &expected, args, tally, tracer);
    tracer.set_on(false);
    // One stream on one thread: its thread-time is its wall time.
    let mut layers = traced.decode.layers(traced.phase.wall_s);
    layers.extend([
        Metric::new(
            "surface_code.experiment_build_s",
            report::median(&exp_s),
            "s",
        ),
        Metric::new("qec_decoder.dem_build_s", report::median(&dem_s), "s"),
        Metric::new("qec_decoder.window_plan_s", report::median(&plan_s), "s"),
        Metric::new(
            "qec_decoder.window_plan_mb",
            plan.approx_decoder_bytes() as f64 / (1 << 20) as f64,
            "MB",
        ),
        Metric::new("stream_round_ns_p50", round_ns.quantile(0.5) as f64, "ns"),
        Metric::new("stream_round_ns_p99", round_ns.quantile(0.99) as f64, "ns"),
        Metric::new(
            "stream_push_us_p99",
            push_ns.quantile(0.99) as f64 * 1e-3,
            "us",
        ),
    ]);
    report.layers = layers;
    report.traced = Some(traced.phase);
    report
}
