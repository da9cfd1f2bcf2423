//! End-to-end tests for `eraser-serve`: bit-identity against in-process
//! runs, artifact-cache warm-up, backpressure, and graceful shutdown.

use eraser_core::SweepPoint;
use eraser_json::Value;
use eraser_serve::protocol::write_frame;
use eraser_serve::{
    Client, FrameReader, JobEvent, JobSpec, ReadOutcome, ServerConfig, ServerHandle, Submission,
};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn start(workers: usize, queue_capacity: usize) -> ServerHandle {
    ServerHandle::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue_capacity,
        cache_bytes: 64 << 20,
    })
    .expect("bind ephemeral port")
}

/// Every statistic in a streamed point must equal the in-process value —
/// integers exactly, floats bit-for-bit (the protocol's shortest-round-trip
/// float formatting guarantees parse(write(x)) == x).
fn assert_points_match(points: &[Value], reference: &[SweepPoint], context: &str) {
    assert_eq!(points.len(), reference.len(), "{context}: point count");
    for (frame, expect) in points.iter().zip(reference) {
        let r = &expect.result;
        let ctx = format!(
            "{context}: d={} p={} policy={}",
            expect.distance, expect.p, expect.policy
        );
        let get_u64 = |key: &str| frame.get(key).and_then(|v| v.as_u64()).unwrap_or(u64::MAX);
        let get_f64 = |key: &str| frame.get(key).and_then(|v| v.as_f64()).unwrap();
        assert_eq!(
            get_u64("distance"),
            expect.distance as u64,
            "{ctx}: distance"
        );
        assert_eq!(get_f64("p").to_bits(), expect.p.to_bits(), "{ctx}: p");
        assert_eq!(get_u64("rounds"), expect.rounds as u64, "{ctx}: rounds");
        assert_eq!(
            frame.get("policy").and_then(|v| v.as_str()),
            Some(expect.policy.as_str()),
            "{ctx}: policy"
        );
        assert_eq!(
            frame.get("decoder").and_then(|v| v.as_str()),
            Some(r.decoder.as_str()),
            "{ctx}: decoder"
        );
        assert_eq!(get_u64("shots"), r.shots, "{ctx}: shots");
        assert_eq!(
            get_u64("logical_errors"),
            r.logical_errors,
            "{ctx}: logical_errors"
        );
        assert_eq!(get_f64("ler").to_bits(), r.ler().to_bits(), "{ctx}: ler");
        assert_eq!(get_u64("total_lrcs"), r.total_lrcs, "{ctx}: total_lrcs");
        assert_eq!(
            get_u64("total_erasures"),
            r.total_erasures,
            "{ctx}: total_erasures"
        );
        assert_eq!(
            get_u64("spec_tp"),
            r.speculation.true_positive,
            "{ctx}: spec_tp"
        );
        assert_eq!(
            get_u64("spec_fp"),
            r.speculation.false_positive,
            "{ctx}: spec_fp"
        );
        assert_eq!(
            get_u64("spec_fn"),
            r.speculation.false_negative,
            "{ctx}: spec_fn"
        );
        assert_eq!(
            get_u64("spec_tn"),
            r.speculation.true_negative,
            "{ctx}: spec_tn"
        );
        assert_eq!(
            get_u64("flagged_shots"),
            r.postselection.flagged_shots,
            "{ctx}: flagged_shots"
        );
        assert_eq!(
            get_u64("errors_on_kept"),
            r.postselection.errors_on_kept,
            "{ctx}: errors_on_kept"
        );
        assert_eq!(
            get_f64("spec_accuracy").to_bits(),
            r.speculation.accuracy().to_bits(),
            "{ctx}: spec_accuracy"
        );
        if r.controller.is_active() {
            assert_eq!(
                get_u64("ctrl_escalations"),
                r.controller.escalations,
                "{ctx}: ctrl_escalations"
            );
            assert_eq!(
                get_u64("ctrl_rounds_escalated"),
                r.controller.rounds_escalated,
                "{ctx}: ctrl_rounds_escalated"
            );
            assert_eq!(
                get_u64("ctrl_rounds_base"),
                r.controller.rounds_base,
                "{ctx}: ctrl_rounds_base"
            );
            assert_eq!(
                get_f64("ctrl_mean_estimate").to_bits(),
                r.controller.mean_estimate().to_bits(),
                "{ctx}: ctrl_mean_estimate"
            );
            assert_eq!(
                get_f64("ctrl_peak_estimate").to_bits(),
                r.controller.peak_estimate().to_bits(),
                "{ctx}: ctrl_peak_estimate"
            );
        } else {
            assert!(
                frame.get("ctrl_escalations").is_none(),
                "{ctx}: static policies must not carry controller fields"
            );
        }
        let lpr: Vec<f64> = frame
            .get("lpr_total")
            .and_then(|v| v.as_array())
            .expect("lpr_total array")
            .iter()
            .map(|x| x.as_f64().unwrap())
            .collect();
        assert_eq!(lpr.len(), r.lpr_total.len(), "{ctx}: lpr length");
        for (got, want) in lpr.iter().zip(&r.lpr_total) {
            assert_eq!(got.to_bits(), want.to_bits(), "{ctx}: lpr value");
        }
    }
}

#[test]
fn adaptive_jobs_stream_controller_telemetry() {
    let spec = JobSpec {
        distances: vec![3],
        error_rates: vec![2e-3],
        policies: vec!["eraser".to_string(), "adaptive-ewma".to_string()],
        rounds: 12,
        shots: 96,
        seed: 0xC0DE,
        decoder: "mwpm".to_string(),
        profile: "burst:start=4,len=3,period=8,rate=0.05".to_string(),
        ..JobSpec::default()
    };
    let reference = spec.build_sweep(2).unwrap().run();
    assert_eq!(reference.len(), 2);
    let adaptive = &reference[1];
    assert_eq!(adaptive.policy, "adaptive-ewma");
    assert!(
        adaptive.result.controller.is_active(),
        "the reference adaptive run must report telemetry"
    );

    let server = start(2, 4);
    let mut client = Client::connect(server.addr()).unwrap();
    let (points, _) = client.run_job(&spec).unwrap();
    assert_points_match(&points, &reference, "adaptive job");
    server.shutdown();
    server.wait();
}

fn done_u64(done: &Value, key: &str) -> u64 {
    done.get(key).and_then(|v| v.as_u64()).unwrap_or(u64::MAX)
}

#[test]
fn server_results_are_bit_identical_across_workers_and_cache_state() {
    let spec = JobSpec {
        distances: vec![3, 5],
        error_rates: vec![1e-3, 3e-3],
        policies: vec!["no-lrc".to_string(), "eraser".to_string()],
        shots: 128,
        seed: 0xBEEF,
        decoder: "mwpm".to_string(),
        ..JobSpec::default()
    };

    // In-process reference through the same facade, different thread count
    // than either server — thread count must be a pure wall-clock knob.
    let reference = spec.build_sweep(2).unwrap().run();
    assert_eq!(reference.len(), 8);

    let single = start(1, 8);
    let mut client = Client::connect(single.addr()).unwrap();
    let (cold_points, cold_done) = client.run_job(&spec).unwrap();
    assert_points_match(&cold_points, &reference, "workers=1 cold");
    assert!(
        done_u64(&cold_done, "cache_misses") > 0,
        "cold run must build artifacts"
    );

    // Same job on the same server: everything comes from the cache and the
    // numbers do not move.
    let (warm_points, warm_done) = client.run_job(&spec).unwrap();
    assert_points_match(&warm_points, &reference, "workers=1 warm");
    assert_eq!(
        done_u64(&warm_done, "cache_misses"),
        0,
        "warm run must not rebuild"
    );
    assert!(
        done_u64(&warm_done, "cache_hits") > 0,
        "warm run must hit the cache"
    );

    single.shutdown();
    single.wait();

    let pooled = start(4, 8);
    let mut client = Client::connect(pooled.addr()).unwrap();
    let (pooled_points, _) = client.run_job(&spec).unwrap();
    assert_points_match(&pooled_points, &reference, "workers=4 cold");
    pooled.shutdown();
    pooled.wait();
}

/// Every backend, windowed, through the whole serve stack: each row's job
/// must match a direct `Sweep` on its first (cold) run and again from the
/// cache (warm), with the reported decoder the one the row asked for.
#[test]
fn windowed_jobs_are_bit_identical_too() {
    let server = start(2, 8);
    let mut client = Client::connect(server.addr()).unwrap();
    for decoder in ["mwpm", "sparse-mwpm", "union-find"] {
        let spec = JobSpec {
            distances: vec![3, 5],
            rounds: 8,
            cycles: 0,
            window: 4,
            shots: 96,
            seed: 0x51D3,
            decoder: decoder.to_string(),
            ..JobSpec::default()
        };
        let reference = spec.build_sweep(2).unwrap().run();
        assert!(reference.iter().all(|p| p.result.decoder == decoder));

        let (cold, cold_done) = client.run_job(&spec).unwrap();
        assert_points_match(&cold, &reference, &format!("{decoder} cold"));
        assert!(
            done_u64(&cold_done, "cache_misses") > 0,
            "{decoder}: a new backend builds its window plans"
        );
        let (warm, warm_done) = client.run_job(&spec).unwrap();
        assert_points_match(&warm, &reference, &format!("{decoder} warm"));
        assert_eq!(
            done_u64(&warm_done, "cache_misses"),
            0,
            "{decoder}: window plans must be cached"
        );
    }
    server.shutdown();
    server.wait();
}

#[test]
fn full_queue_answers_busy_instead_of_hanging() {
    let server = start(2, 1);

    // Job big enough to keep the executor busy while we fill the queue.
    let long = JobSpec {
        distances: vec![5, 7],
        error_rates: vec![1e-3, 2e-3, 3e-3],
        shots: 4096,
        decoder: "mwpm".to_string(),
        ..JobSpec::default()
    };

    let mut first = Client::connect(server.addr()).unwrap();
    assert!(matches!(
        first.submit(&long).unwrap(),
        Submission::Accepted { .. }
    ));

    // Wait until the executor has dequeued the first job, so the second
    // one finds the queue empty however slowly the executor started.
    let mut second = Client::connect(server.addr()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = second.stats().unwrap();
        if stats.get("queued").and_then(|v| v.as_u64()) == Some(0) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the executor never dequeued the first job: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // Queue capacity is 1: the second job occupies the only slot...
    assert!(matches!(
        second.submit(&long).unwrap(),
        Submission::Accepted { .. }
    ));

    // ...so a third submit gets an explicit `busy`, immediately.
    let mut third = Client::connect(server.addr()).unwrap();
    match third.submit(&JobSpec::default()).unwrap() {
        Submission::Busy { queued, capacity } => {
            assert_eq!(queued, 1);
            assert_eq!(capacity, 1);
        }
        other => panic!("expected busy, got {other:?}"),
    }

    // Both accepted jobs still complete in order.
    for client in [&mut first, &mut second] {
        loop {
            if let JobEvent::Done(done) = client.next_event().unwrap() {
                assert_eq!(done.get("completed").and_then(|v| v.as_bool()), Some(true));
                break;
            }
        }
    }
    server.shutdown();
    server.wait();
}

#[test]
fn shutdown_drains_accepted_jobs() {
    let server = start(2, 8);
    let spec = JobSpec {
        distances: vec![5],
        shots: 2048,
        decoder: "mwpm".to_string(),
        ..JobSpec::default()
    };

    let mut client = Client::connect(server.addr()).unwrap();
    let cells = match client.submit(&spec).unwrap() {
        Submission::Accepted { cells, .. } => cells,
        other => panic!("expected accepted, got {other:?}"),
    };

    // Shut down while the job is queued/running: it must still finish.
    server.shutdown();
    let mut points = 0;
    let done = loop {
        match client.next_event().unwrap() {
            JobEvent::Point(_) => points += 1,
            JobEvent::Done(done) => break done,
        }
    };
    assert_eq!(points as u64, cells, "all cells streamed despite shutdown");
    assert_eq!(done.get("completed").and_then(|v| v.as_bool()), Some(true));
    server.wait();
}

#[test]
fn shutdown_frame_is_acknowledged_with_bye() {
    let server = start(1, 4);
    let mut client = Client::connect(server.addr()).unwrap();
    let pong = client.ping().unwrap();
    assert_eq!(pong.get("type").and_then(|v| v.as_str()), Some("pong"));
    assert_eq!(pong.get("version").and_then(|v| v.as_u64()), Some(1));
    let bye = client.shutdown().unwrap();
    assert_eq!(bye.get("type").and_then(|v| v.as_str()), Some("bye"));
    server.wait();
}

#[test]
fn invalid_jobs_are_rejected_with_error_frames() {
    let server = start(1, 4);

    let mut client = Client::connect(server.addr()).unwrap();
    let bad = JobSpec {
        policies: vec!["definitely-not-a-policy".to_string()],
        ..JobSpec::default()
    };
    match client.submit(&bad).unwrap() {
        Submission::Rejected { message } => {
            assert!(message.contains("unknown policy"), "{message}")
        }
        other => panic!("expected rejection, got {other:?}"),
    }
    // A deleted backend's name is an unknown decoder like any other.
    let removed_backend = JobSpec {
        decoder: "greedy".to_string(),
        ..JobSpec::default()
    };
    match client.submit(&removed_backend).unwrap() {
        Submission::Rejected { message } => {
            assert!(message.contains("unknown decoder"), "{message}")
        }
        other => panic!("expected rejection, got {other:?}"),
    }

    // The connection survives rejected jobs: a valid one still runs.
    let (points, _) = client.run_job(&JobSpec::default()).unwrap();
    assert_eq!(points.len(), 1);

    // Unknown frame types get an error frame, not a dropped connection.
    let stream = TcpStream::connect(server.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = FrameReader::new(stream);
    let mut frame = Value::object();
    frame.set("type", "frobnicate");
    write_frame(&mut writer, &frame).unwrap();
    let reply = loop {
        match reader.read().unwrap() {
            ReadOutcome::Frame(v) => break v,
            ReadOutcome::Idle => continue,
            ReadOutcome::Eof => panic!("connection dropped on unknown frame"),
        }
    };
    assert_eq!(reply.get("type").and_then(|v| v.as_str()), Some("error"));
    assert!(reply
        .get("message")
        .and_then(|v| v.as_str())
        .unwrap()
        .contains("frobnicate"));

    server.shutdown();
    server.wait();
}
