//! Integration coverage of the `Experiment` facade: builder validation,
//! string round-trips of the policy/decoder registries, the guarantee that
//! the `Sweep` engine is bit-identical to sequential per-point runs, and
//! that both builders wire their shared run setters identically.

use eraser_repro::eraser_core::{
    ControlLawKind, ControllerConfig, DecoderKind, ErasureDetection, Experiment, ExperimentError,
    LeakageProfile, LrcProtocol, NoiseModel, PolicyKind, Sweep, SweepBuilder,
};
use eraser_repro::qec_core::NoiseParams;
use eraser_repro::surface_code::MemoryBasis;

#[test]
fn builder_validation_returns_errors_not_panics() {
    // Zero shots.
    assert_eq!(
        Experiment::builder()
            .distance(3)
            .rounds(2)
            .shots(0)
            .build()
            .unwrap_err(),
        ExperimentError::ZeroShots
    );
    // Even distance.
    assert_eq!(
        Experiment::builder()
            .distance(4)
            .rounds(2)
            .build()
            .unwrap_err(),
        ExperimentError::InvalidDistance(4)
    );
    // Zero rounds.
    assert_eq!(
        Experiment::builder()
            .distance(3)
            .rounds(0)
            .build()
            .unwrap_err(),
        ExperimentError::ZeroRounds
    );
    // Missing required fields.
    assert_eq!(
        Experiment::builder().rounds(2).build().unwrap_err(),
        ExperimentError::MissingDistance
    );
    assert_eq!(
        Experiment::builder().distance(3).build().unwrap_err(),
        ExperimentError::MissingRounds
    );
    // Errors render as readable messages.
    assert_eq!(
        ExperimentError::ZeroShots.to_string(),
        "a run needs at least one shot"
    );
}

#[test]
fn policy_kind_round_trips_through_strings() {
    for kind in PolicyKind::all_standard() {
        let rendered = kind.to_string();
        let parsed: PolicyKind = rendered.parse().expect("standard labels parse");
        assert_eq!(parsed, kind, "round-trip of `{rendered}`");
    }
    // Aliases accepted by the CLI surface.
    assert_eq!(
        "always".parse::<PolicyKind>().unwrap(),
        PolicyKind::AlwaysLrc
    );
    assert_eq!(
        "eraser-m".parse::<PolicyKind>().unwrap(),
        PolicyKind::eraser_m()
    );
    assert!(matches!(
        "warp-drive".parse::<PolicyKind>(),
        Err(ExperimentError::UnknownPolicy(_))
    ));
}

#[test]
fn custom_policy_escape_hatch_runs() {
    use eraser_repro::eraser_core::NoLrcPolicy;
    let kind = PolicyKind::custom("do-nothing", |_| Box::new(NoLrcPolicy::new()));
    let result = Experiment::builder()
        .distance(3)
        .rounds(2)
        .shots(15)
        .seed(8)
        .policy(kind)
        .build()
        .expect("valid experiment")
        .run();
    assert_eq!(result.policy, "no-lrc");
    assert_eq!(result.total_lrcs, 0);
}

#[test]
fn sweep_is_identical_to_sequential_runs_for_a_fixed_seed() {
    let distances = [3usize];
    let rates = [1e-3, 3e-3];
    let policies = [
        PolicyKind::NoLrc,
        PolicyKind::AlwaysLrc,
        PolicyKind::eraser(),
    ];
    let rounds = 4;
    let shots = 120;
    let seed = 4242;

    let sweep = Sweep::builder()
        .distances(distances)
        .error_rates(rates)
        .policies(policies.iter().cloned())
        .noise_model(NoiseModel::Standard)
        .rounds(rounds)
        .shots(shots)
        .seed(seed)
        .build()
        .expect("valid sweep");
    let points = sweep.run();
    assert_eq!(points.len(), distances.len() * rates.len() * policies.len());

    let mut i = 0;
    for &d in &distances {
        for &p in &rates {
            let exp = Experiment::builder()
                .distance(d)
                .noise(NoiseParams::standard(p))
                .rounds(rounds)
                .shots(shots)
                .seed(seed)
                .build()
                .expect("valid experiment");
            for kind in &policies {
                let expected = exp.run_policy(kind);
                let got = &points[i].result;
                assert_eq!(points[i].distance, d);
                assert_eq!(points[i].p, p);
                assert_eq!(points[i].policy, kind.label());
                assert_eq!(got.logical_errors, expected.logical_errors, "point {i}");
                assert_eq!(got.total_lrcs, expected.total_lrcs, "point {i}");
                assert_eq!(got.speculation, expected.speculation, "point {i}");
                assert_eq!(got.lpr_total, expected.lpr_total, "point {i}");
                assert_eq!(got.policy, expected.policy, "point {i}");
                i += 1;
            }
        }
    }
}

#[test]
fn sweep_supports_memory_x_grids() {
    let sweep = Sweep::builder()
        .distances([3])
        .error_rates([1e-3])
        .policy(PolicyKind::eraser())
        .rounds(3)
        .shots(40)
        .seed(6)
        .basis(MemoryBasis::X)
        .build()
        .expect("valid sweep");
    let points = sweep.run();
    assert_eq!(points.len(), 1);
    assert!(points[0].result.ler() <= 1.0);
}

#[test]
fn experiment_reports_resolved_geometry() {
    let exp = Experiment::builder()
        .distance(5)
        .cycles(3)
        .shots(1)
        .build()
        .expect("valid experiment");
    assert_eq!(exp.distance(), 5);
    assert_eq!(exp.rounds(), 15);
    assert_eq!(exp.basis(), MemoryBasis::Z);
    assert_eq!(exp.policy(), &PolicyKind::NoLrc);
}

/// `ExperimentBuilder` and `SweepBuilder` expand one set of run setters.
/// Every setter that affects a result is set to a non-default value on
/// both: the experiment must echo each value in its `RunConfig`, and the
/// one-cell sweep must be bit-identical to `Experiment::run_policy`. A
/// shared setter writing the wrong field breaks one of the two.
#[test]
fn both_builders_wire_every_run_setter_the_same_way() {
    let controller = ControllerConfig {
        up: 0.2,
        down: 0.05,
        min_dwell: 2,
        ..ControllerConfig::ewma()
    };
    let profile = LeakageProfile::Burst {
        start: 2,
        len: 3,
        period: 6,
        rate: 0.05,
    };
    let p = 3e-3;
    // ERASER+M exercises the erasure path; the adaptive policy carries
    // non-default controller knobs.
    for policy in [PolicyKind::eraser_m(), PolicyKind::Adaptive(controller)] {
        // `rounds` then `cycles`: the later call wins (4 cycles at d = 3).
        macro_rules! run_knobs {
            ($builder:expr) => {
                $builder
                    .rounds(5)
                    .cycles(4)
                    .basis(MemoryBasis::X)
                    .shots(96)
                    .seed(77)
                    .threads(2)
                    .decoder(DecoderKind::Mwpm)
                    .protocol(LrcProtocol::Dqlr)
                    .decode(true)
                    .leakage_aware_decoding(true)
                    .erasure_detection(0.01, 0.05)
                    .window_rounds(6)
                    .window_stride(3)
                    .leakage_profile(profile)
            };
        }
        let exp = run_knobs!(Experiment::builder()
            .distance(3)
            .noise(NoiseParams::standard(p))
            .policy(policy.clone()))
        .build()
        .expect("valid experiment");
        let config = exp.config();
        assert_eq!(exp.rounds(), 12);
        assert_eq!(exp.basis(), MemoryBasis::X);
        assert_eq!(config.shots, 96);
        assert_eq!(config.seed, 77);
        assert_eq!(config.threads, 2);
        assert_eq!(config.decoder, DecoderKind::Mwpm);
        assert_eq!(config.protocol, LrcProtocol::Dqlr);
        assert!(config.decode);
        assert_eq!(config.erasure, ErasureDetection::imperfect(0.01, 0.05));
        assert_eq!(config.window_rounds, 6);
        assert_eq!(config.window_stride, 3);
        assert_eq!(config.profile, profile);

        let points = run_knobs!(Sweep::builder()
            .distances([3])
            .error_rates([p])
            .policy(policy.clone()))
        .build()
        .expect("valid sweep")
        .run();
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].rounds, 12);
        let (got, want) = (&points[0].result, exp.run_policy(&policy));
        let label = policy.label();
        assert_eq!(got.logical_errors, want.logical_errors, "{label}");
        assert_eq!(got.total_lrcs, want.total_lrcs, "{label}");
        assert_eq!(got.total_erasures, want.total_erasures, "{label}");
        assert_eq!(got.speculation, want.speculation, "{label}");
        assert_eq!(got.controller, want.controller, "{label}");
        assert_eq!(got.predecode.hits, want.predecode.hits, "{label}");
        assert_eq!(
            got.decode_latency.samples(),
            want.decode_latency.samples(),
            "{label}"
        );
        assert_eq!(got.lpr_total, want.lpr_total, "{label}");
        assert_eq!(got.decoder, want.decoder, "{label}");
        // The knobs are live, not vacuously equal defaults.
        assert_eq!(want.decoder, "mwpm");
        assert!(want.total_erasures > 0, "{label}: erasures must flow");
        // Sequential chain: the 13 detector rounds take windows at 0, 3, 6
        // and 9 (the last one [9, 12] commits the rest), and each window
        // either takes a latency sample or is skipped at tier 0.
        assert_eq!(
            want.decode_latency.samples() + want.predecode.hits[0],
            96 * 4,
            "one per window"
        );
        assert_eq!(
            want.controller.is_active(),
            matches!(policy, PolicyKind::Adaptive(_)),
            "{label}"
        );
    }
}

/// The environment sizes worker pools and nothing else. Runs in child
/// processes, because setting variables in this one would race with the
/// tests running beside it:
/// - with the retired `ERASER_WINDOW` / `ERASER_DECODER` / `ERASER_CONTROL`
///   / `ERASER_PREDECODE` and the retired fusion thread count set to
///   garbage, an unpinned sweep builds, and its run is bit-identical to the
///   same sweep in this process;
/// - a malformed `ERASER_THREADS` still rejects an unpinned sweep, and
///   pinning the thread count accepts it.
#[test]
fn pinned_knobs_ignore_their_malformed_env_overrides() {
    const NAME: &str = "pinned_knobs_ignore_their_malformed_env_overrides";
    const CHILD: &str = "ERASER_TEST_MALFORMED_ENV_CHILD";
    // Adaptive, so a read `ERASER_CONTROL` would move the LRC schedule.
    let sweep = || {
        Sweep::builder()
            .distances([3])
            .error_rates([3e-3])
            .policy(PolicyKind::adaptive(ControlLawKind::Ewma))
            .rounds(6)
            .shots(200)
    };
    // Every result field a leaked override could move (wall-clock latency
    // aside); floats print as shortest round-trips, so equal text is
    // equal bits.
    let digest = |builder: SweepBuilder| {
        let points = builder.build().expect("the sweep builds").run();
        let r = &points[0].result;
        format!(
            "digest {} {} {} {:?} {:?} {:?} {:?}",
            r.decoder,
            r.logical_errors,
            r.total_lrcs,
            r.speculation,
            r.controller,
            r.predecode.hits,
            r.lpr_total
        )
    };
    match std::env::var(CHILD).as_deref() {
        Ok("retired") => {
            eprintln!("{}", digest(sweep()));
            return;
        }
        Ok("ERASER_THREADS") => {
            match sweep().build() {
                Err(ExperimentError::EnvOverride(err)) => assert_eq!(err.var, "ERASER_THREADS"),
                other => panic!("malformed ERASER_THREADS must reject the sweep: {other:?}"),
            }
            assert!(
                sweep().threads(2).build().is_ok(),
                "a pinned thread count never reads ERASER_THREADS"
            );
            return;
        }
        _ => {}
    }
    let child = |mode: &str, env: &[(&str, &str)]| {
        let output = std::process::Command::new(std::env::current_exe().unwrap())
            .args(["--exact", NAME, "--test-threads=1", "--nocapture"])
            .env(CHILD, mode)
            .envs(env.iter().copied())
            .output()
            .expect("re-run the test binary");
        assert!(
            output.status.success(),
            "{mode} child failed:\n{}{}",
            String::from_utf8_lossy(&output.stdout),
            String::from_utf8_lossy(&output.stderr)
        );
        String::from_utf8(output.stderr).unwrap()
    };
    let retired = child(
        "retired",
        &[
            ("ERASER_WINDOW", "0:9"),
            ("ERASER_DECODER", "warp"),
            ("ERASER_CONTROL", "nonsense"),
            ("ERASER_PREDECODE", "maybe"),
            ("ERASER_FUSION", "garbage"),
        ],
    );
    let clean = digest(sweep());
    assert_eq!(
        retired.lines().find(|line| line.starts_with("digest ")),
        Some(clean.as_str()),
        "the retired variables must not change the run"
    );
    child("ERASER_THREADS", &[("ERASER_THREADS", "fuor")]);
}
