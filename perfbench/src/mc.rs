//! `mc-d11`: the paper's LER operating point at the largest distance.
//!
//! ERASER, `standard(1e-3)`, d = 11, R = 110, windowed decoding (window 33,
//! default stride), decoder `auto`, predecoder on, threads = cores. A
//! closed batch loop: each operation is one `Experiment` run of [`BATCH`]
//! shots with its own seed. The decoder does most of the work here. Run
//! by hand: `BENCHMARK.json` leaves it out because its figures were not
//! steady on a shared host (see the top of `main.rs`).

use crate::probes::{self, DecodeTotals};
use crate::report::{median, Digest, Metric, Tally};
use crate::trace::Tracer;
use crate::{host, sub_seed, timed_loop, timed_setup, Args, Phase, Report};
use eraser_core::{ArtifactCache, DecoderKind, Experiment, MemoryRunResult, PolicyKind};
use eraser_json::Value;
use qec_core::NoiseParams;
use std::time::Instant;

const D: usize = 11;
const ROUNDS: usize = 110;
const WINDOW: usize = 33;
const BATCH: u64 = 128;
const SETUP_REPS: usize = 3;
/// Share of the timed run's thread-time the layer figures must account
/// for: decode time plus the frame-simulation and policy-planning time
/// the probes attribute. The rest is runner glue the probes cannot see:
/// on a 2-vCPU Xeon the figures account for about 0.88, with glue about
/// half of the non-decode time.
const MIN_ACCOUNTED: f64 = 0.75;

fn noise() -> NoiseParams {
    NoiseParams::standard(1e-3)
}

/// Sanity bounds a correct run of this cell meets: every shot ran, the
/// logical error rate is far below 1/2 and every window was decoded.
fn sane(r: &MemoryRunResult) -> bool {
    r.shots == BATCH && r.logical_errors * 20 < r.shots && r.predecode.total() > 0
}

struct Timed {
    phase: Phase,
    decode: DecodeTotals,
    thread_s: f64,
    lane_rounds: u64,
    stripe_rounds: u64,
}

fn timed_phase(
    exp: &Experiment,
    args: &Args,
    check: Digest,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> Timed {
    let cache = ArtifactCache::global();
    let policy = exp.policy().clone();
    let mut config = *exp.config();
    let mut decode = DecodeTotals::default();
    let mut phase = Phase::default();
    let root = tracer.begin("mc-d11.timed", None);
    let wall_s = timed_loop(args.seconds, |i| {
        config.seed = sub_seed(args.seed, i);
        let t = Instant::now();
        let batch = tracer.begin("eraser_core.Experiment::run", root);
        let span = tracer.begin("eraser_core.MemoryRunner::decode_artifacts", batch);
        let artifacts = exp
            .runner()
            .decode_artifacts(&config, Some(cache))
            .expect("no ERASER_* override is set");
        tracer.end(span);
        let span = tracer.begin("eraser_core.MemoryRunner::run_with_artifacts", batch);
        let r = exp
            .runner()
            .run_with_artifacts(&|code| policy.build(code), &config, &artifacts);
        tracer.end(span);
        tracer.end(batch);
        phase.record(0, t.elapsed().as_secs_f64(), r.shots);
        decode.add(&r);
        tally.record(sane(&r), || {
            format!("batch {i} failed its sanity bounds: {r:?}")
        });
        if i == 0 {
            let got = Digest::default().run(&r);
            tally.record(got == check, || {
                format!(
                    "batch 0 digest {} differs from the plain Experiment::run {}",
                    got.hex(),
                    check.hex()
                )
            });
        }
    });
    phase.wall_s = wall_s;
    tracer.end(root);
    let runs = phase.ops.len() as u64;
    Timed {
        lane_rounds: phase.shots() * ROUNDS as u64,
        stripe_rounds: runs * probes::stripes(BATCH, config.threads) * ROUNDS as u64,
        thread_s: phase.wall_s * config.threads as f64,
        phase,
        decode,
    }
}

pub fn run(args: &Args, tally: &mut Tally, tracer: &mut Tracer) -> Report {
    let cache = ArtifactCache::global();
    let build = || {
        Experiment::builder()
            .distance(D)
            .rounds(ROUNDS)
            .noise(noise())
            .policy(PolicyKind::eraser())
            .shots(BATCH)
            .seed(sub_seed(args.seed, 0))
            .threads(host::nproc())
            .decoder(DecoderKind::Auto)
            .window_rounds(WINDOW)
            .build()
            .expect("the mc-d11 experiment is valid")
    };

    // Set-up as a fresh process pays it: the runner (DEM, graph,
    // provenance) and the window plan, built into an empty cache.
    let (mut runner_s, mut plan_s) = (Vec::new(), Vec::new());
    let (setup_s, exp) = timed_setup(SETUP_REPS, || {
        cache.clear();
        let t0 = Instant::now();
        let e = build();
        let t1 = Instant::now();
        drop(
            e.runner()
                .decode_artifacts(e.config(), Some(cache))
                .expect("no ERASER_* override is set"),
        );
        runner_s.push((t1 - t0).as_secs_f64());
        plan_s.push(t1.elapsed().as_secs_f64());
        e
    });
    // The cache holds exactly the window plan, priced by its own
    // `approx_decoder_bytes`.
    let plan_bytes = cache.stats().bytes;

    // Warm-up: the plain facade call on batch 0's seed; its exact counts
    // are what the timed loop's batch 0 must reproduce.
    let plain = exp.run();
    let check = Digest::default().run(&plain);
    tally.record(sane(&plain), || {
        format!("plain Experiment::run failed its sanity bounds: {plain:?}")
    });

    let untraced = timed_phase(&exp, args, check, tally, tracer);
    let peak_rss_mb = host::peak_rss_mb();
    let mut notes = Value::object();
    notes.set("logical_errors_batch0", plain.logical_errors);
    notes.set("total_lrcs_batch0", plain.total_lrcs);
    notes.set("batch_shots", BATCH);
    notes.set("threads", exp.config().threads);
    let mut report = Report {
        setup_s,
        peak_rss_mb,
        untraced: untraced.phase,
        digest: check,
        notes,
        ..Report::default()
    };
    if !args.trace {
        return report;
    }

    let stats0 = cache.stats();
    tracer.set_on(true);
    let traced = timed_phase(&exp, args, check, tally, tracer);
    tracer.set_on(false);
    let stats1 = cache.stats();

    let built = probes::build_graph(D, ROUNDS, noise());
    let stripe_us = probes::stripe_round_us(D, ROUNDS, noise(), args.seed, 0.5);
    let plan = probes::policy_plan_ns(exp.runner(), &[PolicyKind::eraser()], args.seed, 0.2, tally);
    let mut layers = traced.decode.layers(traced.thread_s);
    let sim_side_s = traced.thread_s - traced.decode.busy_ns as f64 * 1e-9;
    let attributed = stripe_us * 1e-6 * traced.stripe_rounds as f64
        + plan[0].value * 1e-9 * traced.lane_rounds as f64;
    let accounted = (traced.decode.busy_ns as f64 * 1e-9 + attributed) / traced.thread_s;
    report.notes.set("accounted_share", accounted);
    tally.record(accounted >= MIN_ACCOUNTED, || {
        format!("layer figures account for only {accounted:.3} of the timed thread-time")
    });
    layers.extend([
        Metric::new("surface_code.experiment_build_s", built.experiment_s, "s"),
        Metric::new("qec_decoder.dem_build_s", built.dem_s, "s"),
        Metric::new("eraser_core.runner_build_s", median(&runner_s), "s"),
        Metric::new("qec_decoder.window_plan_s", median(&plan_s), "s"),
        Metric::new(
            "qec_decoder.window_plan_mb",
            plan_bytes as f64 / (1 << 20) as f64,
            "MB",
        ),
        Metric::new("leak_sim.stripe_round_us", stripe_us, "us"),
        Metric::new(
            "eraser_core.cache_hits",
            (stats1.hits - stats0.hits) as f64,
            "count",
        ),
        Metric::new(
            "eraser_core.cache_misses",
            (stats1.misses - stats0.misses) as f64,
            "count",
        ),
        Metric::new("eraser_core.cache_bytes", stats1.bytes as f64, "B"),
    ]);
    layers.extend(plan);
    report.layers = layers;
    report.extra = vec![
        Metric::new("eraser_core.sim_side_s", sim_side_s, "s"),
        Metric::new(
            "eraser_core.unattributed_share",
            1.0 - attributed / sim_side_s,
            "ratio",
        ),
    ];
    report.traced = Some(traced.phase);
    report
}
