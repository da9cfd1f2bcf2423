//! `lpr-d11`: the decode-free leakage-population studies (Figs 5/15/18/21).
//!
//! A `Sweep` over the six standard policies at d = 11, R = 110, p = 1e-3
//! with decoding off, threads = cores. Each sweep runs [`BATCH`] shots per
//! policy with its own seed; each operation is one policy's cell of it
//! (timed between the sweep's deliveries). The decoder is bypassed:
//! all time goes to frame simulation, policy planning and runner glue.
//! Run by hand, like `mc-d11` (see the top of `main.rs`).

use crate::probes::{self, DecodeTotals};
use crate::report::{median, Digest, Metric, Tally};
use crate::trace::Tracer;
use crate::{host, sub_seed, timed_loop, timed_setup, Args, Phase, Report, PER_LAYER};
use eraser_core::runtime::MemoryRunner;
use eraser_core::{
    ArtifactCache, ArtifactKind, CacheKey, ExperimentKey, PolicyKind, Sweep, SweepPoint,
};
use eraser_json::Value;
use qec_core::NoiseParams;
use std::time::Instant;
use surface_code::MemoryBasis;

const D: usize = 11;
const ROUNDS: usize = 110;
const P: f64 = 1e-3;
const BATCH: u64 = 128;
const SETUP_REPS: usize = 7;

fn sweep(seed: u64) -> Sweep {
    Sweep::builder()
        .distances([D])
        .error_rates([P])
        .policies(PolicyKind::all_standard())
        .rounds(ROUNDS)
        .shots(BATCH)
        .seed(seed)
        .threads(host::nproc())
        .decode(false)
        .build()
        .expect("the lpr-d11 sweep is valid")
}

/// Checks one point of a decode-free sweep and folds it into `digest`.
fn check_point(point: &SweepPoint, digest: Digest, tally: &mut Tally) -> Digest {
    let r = &point.result;
    let lpr = r.mean_lpr();
    let ok = r.shots == BATCH
        && r.logical_errors == 0
        && r.decode_latency.samples() == 0
        && (point.policy != "no-lrc" || r.total_lrcs == 0)
        && lpr.is_finite()
        && (0.0..0.5).contains(&lpr);
    tally.record(ok, || {
        format!("{} point failed its checks: {r:?}", point.policy)
    });
    digest.run(r)
}

struct Timed {
    phase: Phase,
    thread_s: f64,
    decode: DecodeTotals,
}

fn timed_phase(args: &Args, check: Digest, tally: &mut Tally, tracer: &mut Tracer) -> Timed {
    let mut phase = Phase::default();
    let mut decode = DecodeTotals::default();
    let root = tracer.begin("lpr-d11.timed", None);
    let wall_s = timed_loop(args.seconds, |i| {
        let span = tracer.begin("eraser_core.Sweep::for_each", root);
        let mut digest = Digest::default();
        let mut cells = 0;
        let mut t = Instant::now();
        sweep(sub_seed(args.seed, i)).for_each(|point| {
            phase.record(cells, t.elapsed().as_secs_f64(), point.result.shots);
            cells += 1;
            decode.add(&point.result);
            digest = check_point(&point, digest, tally);
            t = Instant::now();
        });
        tracer.end(span);
        tally.record(cells == 6, || format!("sweep {i} ran {cells} of 6 cells"));
        if i == 0 {
            tally.record(digest == check, || {
                format!(
                    "sweep 0 digest {} differs from the plain Sweep::run {}",
                    digest.hex(),
                    check.hex()
                )
            });
        }
    });
    phase.wall_s = wall_s;
    tracer.end(root);
    Timed {
        thread_s: phase.wall_s * host::nproc() as f64,
        phase,
        decode,
    }
}

pub fn run(args: &Args, tally: &mut Tally, tracer: &mut Tracer) -> Report {
    let cache = ArtifactCache::global();
    let noise = NoiseParams::standard(P);
    let key = CacheKey {
        experiment: ExperimentKey::new(D, ROUNDS, MemoryBasis::Z, &noise),
        kind: ArtifactKind::Runner,
    };
    // Set-up as the sweep pays it on an empty cache: the shared runner
    // (decode-free sweeps resolve no decode artifacts).
    let (setup_s, ()) = timed_setup(SETUP_REPS, || {
        cache.clear();
        drop(cache.get_or_build(&key, MemoryRunner::approx_bytes, || {
            MemoryRunner::new(D, noise, ROUNDS)
        }));
    });

    // Warm-up: the plain facade call on sweep 0's seed.
    let mut check = Digest::default();
    for point in sweep(sub_seed(args.seed, 0)).run() {
        check = check_point(&point, check, tally);
    }

    let runner_build_s = median(&setup_s);
    let untraced = timed_phase(args, check, tally, tracer);
    let peak_rss_mb = host::peak_rss_mb();
    let mut notes = Value::object();
    notes.set("batch_shots_per_policy", BATCH);
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
    let traced = timed_phase(args, check, tally, tracer);
    tracer.set_on(false);
    let stats1 = cache.stats();

    let runner = cache.get_or_build(&key, MemoryRunner::approx_bytes, || {
        MemoryRunner::new(D, noise, ROUNDS)
    });
    let stripe_us = probes::stripe_round_us(D, ROUNDS, noise, args.seed, 0.5);
    let plans = probes::policy_plan_ns(&runner, &PolicyKind::all_standard(), args.seed, 0.2, tally);
    // Every sweep runs each policy once over BATCH shots.
    let sweeps = traced.phase.ops.len() as f64 / 6.0;
    let stripe_rounds =
        sweeps * 6.0 * (probes::stripes(BATCH, host::nproc()) * ROUNDS as u64) as f64;
    let lane_rounds = sweeps * (BATCH * ROUNDS as u64) as f64;
    let plan_s: f64 = plans.iter().map(|m| m.value * 1e-9 * lane_rounds).sum();
    let attributed = stripe_us * 1e-6 * stripe_rounds + plan_s;
    let mut layers = traced.decode.layers(traced.thread_s);
    layers.extend([
        Metric::new("eraser_core.runner_build_s", runner_build_s, "s"),
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
    let (listed, unlisted): (Vec<Metric>, Vec<Metric>) = plans
        .into_iter()
        .partition(|m| PER_LAYER.iter().any(|&(name, _)| name == m.name));
    layers.extend(listed);
    report.layers = layers;
    report.extra = unlisted;
    report.extra.extend([
        Metric::new("eraser_core.sim_side_s", traced.thread_s, "s"),
        Metric::new(
            "eraser_core.unattributed_share",
            1.0 - attributed / traced.thread_s,
            "ratio",
        ),
    ]);
    report.traced = Some(traced.phase);
    report
}
