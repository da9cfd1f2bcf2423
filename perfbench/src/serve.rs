//! `serve-mix`: the service path.
//!
//! An in-process `ServerHandle` (one worker, loopback) and one closed-loop
//! `Client` connection. Jobs cycle over d ∈ {3, 5} × p ∈ {1e-3, 2e-3} ×
//! {ERASER leakage-blind, ERASER+M leakage-aware}, R = 3d, 128 shots, a
//! distinct seed per job. Each operation is one job, timed client-side.
//! The only workload through protocol, queue and cache; the erasure cells
//! drive the decoder's overlay path, which the other workloads leave idle.
//! The traced run also probes the layers under the server on its largest,
//! noisiest cell: the runner build, frame simulation and policy planning.

use crate::probes;
use crate::report::{self, median, quantile, Digest, Metric, Tally};
use crate::trace::Tracer;
use crate::{host, sub_seed, timed_loop, timed_setup, Args, Phase, Report};
use eraser_core::runtime::MemoryRunner;
use eraser_core::{PolicyKind, SweepPoint};
use eraser_json::Value;
use eraser_serve::{Client, JobSpec, ServerConfig, ServerHandle};
use qec_core::NoiseParams;
use std::io;
use std::time::Instant;

const SHOTS: u64 = 128;
const SETUP_REPS: usize = 15;
/// Jobs per second the sample buffers are sized for up front, several
/// times the reference host's rate, so the benchmark's own buffers do not
/// reallocate inside the timed phase whose peak memory it reports.
const MAX_JOBS_PER_S: f64 = 2000.0;
/// Distinct job cells: (distance, p, policy, leakage-aware decoding).
const CELLS: [(usize, f64, &str, bool); 8] = [
    (3, 1e-3, "eraser", false),
    (3, 1e-3, "eraser+m", true),
    (3, 2e-3, "eraser", false),
    (3, 2e-3, "eraser+m", true),
    (5, 1e-3, "eraser", false),
    (5, 1e-3, "eraser+m", true),
    (5, 2e-3, "eraser", false),
    (5, 2e-3, "eraser+m", true),
];

fn cell(job: u64) -> u32 {
    (job % CELLS.len() as u64) as u32
}

fn spec(job: u64, seed: u64) -> JobSpec {
    let (d, p, policy, aware) = CELLS[cell(job) as usize];
    JobSpec {
        distances: vec![d],
        error_rates: vec![p],
        policies: vec![policy.to_string()],
        cycles: 3,
        shots: SHOTS,
        seed: sub_seed(seed, job),
        leakage_aware: aware,
        ..JobSpec::default()
    }
}

fn start() -> io::Result<(ServerHandle, Client)> {
    let handle = ServerHandle::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        ..ServerConfig::default()
    })?;
    let client = Client::connect(handle.addr())?;
    Ok((handle, client))
}

fn stop(handle: ServerHandle, client: Client) {
    drop(client);
    handle.shutdown();
    handle.wait();
}

/// Whether a streamed `point` frame carries exactly the in-process result.
fn same_point(frame: &Value, expected: &SweepPoint) -> bool {
    let r = &expected.result;
    let s = &r.speculation;
    let counts = [
        ("shots", r.shots),
        ("logical_errors", r.logical_errors),
        ("total_lrcs", r.total_lrcs),
        ("total_erasures", r.total_erasures),
        ("spec_tp", s.true_positive),
        ("spec_fp", s.false_positive),
        ("spec_fn", s.false_negative),
        ("spec_tn", s.true_negative),
        ("flagged_shots", r.postselection.flagged_shots),
        ("errors_on_kept", r.postselection.errors_on_kept),
    ];
    let lpr = frame.get("lpr_total").and_then(Value::as_array).map(|a| {
        a.iter()
            .map(|v| v.as_f64().map(f64::to_bits))
            .collect::<Option<Vec<_>>>()
    });
    counts
        .iter()
        .all(|&(key, want)| frame.get(key).and_then(Value::as_u64) == Some(want))
        && frame.get("policy").and_then(Value::as_str) == Some(expected.policy.as_str())
        && lpr == Some(Some(r.lpr_total.iter().map(|x| x.to_bits()).collect()))
}

/// Runs one job; `Ok((client µs, server µs, shots))` on a complete job.
fn job(client: &mut Client, spec: &JobSpec) -> Result<(f64, f64, u64), io::Error> {
    let t = Instant::now();
    let (points, done) = client.run_job(spec)?;
    let client_us = t.elapsed().as_secs_f64() * 1e6;
    let server_us = done.get("micros").and_then(Value::as_u64).unwrap_or(0) as f64;
    let shots = points
        .first()
        .and_then(|p| p.get("shots"))
        .and_then(Value::as_u64)
        .unwrap_or(0);
    let complete = points.len() == 1
        && done.get("completed").and_then(Value::as_bool) == Some(true)
        && shots == spec.shots;
    if complete {
        Ok((client_us, server_us, shots))
    } else {
        Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("incomplete job: {done}"),
        ))
    }
}

/// Server cache counters `(hits, misses, bytes)` from a `stats` frame.
fn cache_stats(client: &mut Client) -> io::Result<[f64; 3]> {
    let stats = client.stats()?;
    let get = |k: &str| stats.get(k).and_then(Value::as_u64).unwrap_or(0) as f64;
    Ok([get("cache_hits"), get("cache_misses"), get("cache_bytes")])
}

struct Timed {
    phase: Phase,
    server_ms: Vec<f64>,
    outside_ms: Vec<f64>,
    busy: u64,
    cache: [f64; 3],
    cache_delta: [f64; 2],
}

fn timed_phase(
    client: &mut Client,
    args: &Args,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> io::Result<Timed> {
    let capacity = (args.seconds * MAX_JOBS_PER_S) as usize;
    let mut t = Timed {
        phase: Phase {
            ops: Vec::with_capacity(capacity),
            ..Phase::default()
        },
        server_ms: Vec::with_capacity(capacity),
        outside_ms: Vec::with_capacity(capacity),
        busy: 0,
        cache: [0.0; 3],
        cache_delta: [0.0; 2],
    };
    let before = cache_stats(client)?;
    let root = tracer.begin("serve-mix.timed", None);
    let wall_s = timed_loop(args.seconds, |i| {
        let job_id = CELLS.len() as u64 + i;
        let spec = spec(job_id, args.seed);
        let span = tracer.begin("eraser_serve.Client::run_job", root);
        let result = job(client, &spec);
        tracer.end(span);
        let ok = result.is_ok();
        match result {
            Ok((client_us, server_us, shots)) => {
                t.phase.record(cell(job_id), client_us * 1e-6, shots);
                t.server_ms.push(server_us * 1e-3);
                t.outside_ms.push((client_us - server_us) * 1e-3);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => t.busy += 1,
            Err(_) => {}
        }
        tally.record(ok, || format!("job {i} failed or was refused"));
    });
    t.phase.wall_s = wall_s;
    tracer.end(root);
    let after = cache_stats(client)?;
    t.cache = after;
    t.cache_delta = [after[0] - before[0], after[1] - before[1]];
    Ok(t)
}

pub fn run(args: &Args, tally: &mut Tally, tracer: &mut Tracer) -> Report {
    match run_io(args, tally, tracer) {
        Ok(report) => report,
        Err(e) => {
            // The server path is the measured system: an I/O failure is a
            // failed operation, and nothing timed after it is meaningful.
            eprintln!("perfbench: serve-mix: {e}");
            std::process::exit(1);
        }
    }
}

fn run_io(args: &Args, tally: &mut Tally, tracer: &mut Tracer) -> io::Result<Report> {
    // Set-up as a fresh service pays it: bind, connect, and one cold job
    // per cell (each builds its runner and decoder tables into the
    // server's empty cache).
    let mut setup_s = Vec::new();
    let mut server = None;
    for _ in 0..SETUP_REPS {
        if let Some((handle, client)) = server.take() {
            stop(handle, client);
        }
        let t0 = Instant::now();
        let (handle, mut client) = start()?;
        for cell in 0..CELLS.len() as u64 {
            let ok = job(&mut client, &spec(cell, args.seed)).is_ok();
            tally.record(ok, || format!("cold job for cell {cell} failed"));
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        server = Some((handle, client));
    }
    let (handle, mut client) = server.expect("at least one set-up repetition");

    // Warm-up: every cell's streamed point must equal the in-process
    // `Sweep` result for the same spec.
    let mut digest = Digest::default();
    for cell in 0..CELLS.len() as u64 {
        let spec = spec(cell, args.seed);
        let (points, _) = client.run_job(&spec)?;
        let expected = spec
            .build_sweep(1)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?
            .run();
        let ok = points.len() == 1 && expected.len() == 1 && same_point(&points[0], &expected[0]);
        tally.record(ok, || {
            format!("cell {cell}: served point differs from the in-process Sweep")
        });
        digest = expected.iter().fold(digest, |d, p| d.run(&p.result));
    }

    let untraced = timed_phase(&mut client, args, tally, tracer)?;
    let peak_rss_mb = host::peak_rss_mb();
    let mut notes = Value::object();
    notes.set("jobs", untraced.phase.ops.len());
    notes.set("shots_per_job", SHOTS);
    let mut report = Report {
        setup_s,
        peak_rss_mb,
        untraced: Phase::default(),
        digest,
        notes,
        ..Report::default()
    };
    if args.trace {
        tracer.set_on(true);
        let traced = timed_phase(&mut client, args, tally, tracer)?;
        tracer.set_on(false);
        let mut job_ms: Vec<f64> = untraced.phase.ops.iter().map(|op| op.secs * 1e3).collect();
        let mut server_ms = untraced.server_ms.clone();
        job_ms.sort_by(f64::total_cmp);
        server_ms.sort_by(f64::total_cmp);
        let n = job_ms.len() as u64;
        tally.record(report::supports(n, 0.99), || {
            format!("job p99 rests on only {n} samples")
        });
        let [hits, misses] = untraced.cache_delta;
        report.layers = vec![
            Metric::new(
                "eraser_serve.server_ms_p50",
                quantile(&server_ms, 0.5),
                "ms",
            ),
            Metric::new(
                "eraser_serve.server_ms_p99",
                quantile(&server_ms, 0.99),
                "ms",
            ),
            Metric::new(
                "eraser_serve.outside_ms_p50",
                median(&untraced.outside_ms),
                "ms",
            ),
            Metric::new("eraser_serve.busy_rejects", untraced.busy as f64, "count"),
            Metric::new(
                "eraser_serve.cache_hit_ratio",
                if hits + misses > 0.0 {
                    hits / (hits + misses)
                } else {
                    0.0
                },
                "ratio",
            ),
            Metric::new("eraser_core.cache_hits", hits, "count"),
            Metric::new("eraser_core.cache_misses", misses, "count"),
            Metric::new("eraser_core.cache_bytes", untraced.cache[2], "B"),
            Metric::new("jobs_per_s", n as f64 / untraced.phase.wall_s, "1/s"),
            Metric::new("job_ms_p50", quantile(&job_ms, 0.5), "ms"),
            Metric::new("job_ms_p99", quantile(&job_ms, 0.99), "ms"),
        ];
        let (d, p, _, _) = CELLS[CELLS.len() - 1];
        let (rounds, noise) = (3 * d, NoiseParams::standard(p));
        let (runner_s, runner) = timed_setup(3, || MemoryRunner::new(d, noise, rounds));
        let kinds = [PolicyKind::eraser(), PolicyKind::eraser_m()];
        report.layers.extend([
            Metric::new("eraser_core.runner_build_s", median(&runner_s), "s"),
            Metric::new(
                "leak_sim.stripe_round_us",
                probes::stripe_round_us(d, rounds, noise, args.seed, 0.5),
                "us",
            ),
        ]);
        report.layers.extend(probes::policy_plan_ns(
            &runner, &kinds, args.seed, 0.2, tally,
        ));
        report.traced = Some(traced.phase);
    }
    report.untraced = untraced.phase;
    stop(handle, client);
    Ok(report)
}
