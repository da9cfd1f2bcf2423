//! Stripe correctness: the word-parallel (64-shots-per-word) runtime must
//! be bit-identical, shot for shot, to the scalar reference path — across
//! every policy, both LRC protocols, erasure-aware decoding, and ragged
//! stripe tails. Stripe width is a pure wall-clock knob, exactly like the
//! worker-thread count.

use eraser_repro::eraser_core::runtime::{
    DecoderKind, ErasureDetection, LrcProtocol, MemoryRunResult, MemoryRunner, RunConfig,
};
use eraser_repro::eraser_core::{
    ControlLawKind, Experiment, LeakageProfile, PolicyKind, StripeRoundContext, StripedPolicy,
};
use eraser_repro::qec_core::NoiseParams;
use eraser_repro::surface_code::{RotatedCode, SlotTable};

fn assert_identical(a: &MemoryRunResult, b: &MemoryRunResult, what: &str) {
    assert_eq!(a.shots, b.shots, "{what}: shots");
    assert_eq!(a.logical_errors, b.logical_errors, "{what}: logical errors");
    assert_eq!(a.total_lrcs, b.total_lrcs, "{what}: LRC count");
    assert_eq!(a.total_erasures, b.total_erasures, "{what}: erasures");
    assert_eq!(a.speculation, b.speculation, "{what}: speculation");
    assert_eq!(a.postselection, b.postselection, "{what}: post-selection");
    // Controller telemetry is all-integer (Q16 fixed point) and merges by
    // sums and maxima, so it too must agree bit for bit.
    assert_eq!(a.controller, b.controller, "{what}: controller stats");
    // The LPR sums accumulate integer counts, so even the f64 vectors are
    // exactly reproducible.
    assert_eq!(a.lpr_total, b.lpr_total, "{what}: LPR total");
    assert_eq!(a.lpr_data, b.lpr_data, "{what}: LPR data");
    assert_eq!(a.lpr_parity, b.lpr_parity, "{what}: LPR parity");
}

fn run_width(
    runner: &MemoryRunner,
    kind: &PolicyKind,
    base: &RunConfig,
    width: usize,
) -> MemoryRunResult {
    let config = RunConfig {
        stripe_width: width,
        ..*base
    };
    runner.run(&|code| kind.build(code), &config)
}

/// The headline property: every policy of the paper, striped vs scalar,
/// with a shot count that exercises a ragged final stripe (70 = 64 + 6).
#[test]
fn stripe_width_is_bit_identical_across_all_policies() {
    let runner = MemoryRunner::new(3, NoiseParams::standard(4e-3), 6);
    let base = RunConfig {
        shots: 70,
        seed: 0xA11CE,
        threads: 2,
        decoder: DecoderKind::Mwpm,
        ..RunConfig::default()
    };
    for kind in PolicyKind::all_standard() {
        let scalar = run_width(&runner, &kind, &base, 1);
        let striped = run_width(&runner, &kind, &base, 64);
        assert_identical(&scalar, &striped, kind.label());
        // A narrow stripe (width 7: ten stripes of 7 shots) must agree too.
        let narrow = run_width(&runner, &kind, &base, 7);
        assert_identical(&scalar, &narrow, &format!("{} width-7", kind.label()));
    }
}

/// The DQLR protocol's slot-gated post segment, striped vs scalar.
#[test]
fn stripe_width_is_bit_identical_under_dqlr() {
    let runner = MemoryRunner::new(3, NoiseParams::exchange_transport(4e-3), 5);
    let base = RunConfig {
        shots: 70,
        seed: 77,
        threads: 1,
        protocol: LrcProtocol::Dqlr,
        decoder: DecoderKind::Mwpm,
        ..RunConfig::default()
    };
    for kind in [PolicyKind::AlwaysEveryRound, PolicyKind::eraser()] {
        let scalar = run_width(&runner, &kind, &base, 1);
        let striped = run_width(&runner, &kind, &base, 64);
        assert_identical(&scalar, &striped, kind.label());
    }
}

/// Erasure-aware decoding threads per-lane detection noise through the
/// independent per-shot streams; striped and scalar must collect the same
/// erasure sets and decode identically.
#[test]
fn stripe_width_is_bit_identical_with_erasure_decoding() {
    let runner = MemoryRunner::new(3, NoiseParams::standard(5e-3), 6);
    let base = RunConfig {
        shots: 70,
        seed: 31,
        threads: 2,
        decoder: DecoderKind::Mwpm,
        erasure: ErasureDetection::imperfect(0.01, 0.05),
        ..RunConfig::default()
    };
    for kind in [
        PolicyKind::eraser_m(),
        PolicyKind::eraser(),
        PolicyKind::Optimal,
    ] {
        let scalar = run_width(&runner, &kind, &base, 1);
        let striped = run_width(&runner, &kind, &base, 64);
        assert!(
            kind != PolicyKind::eraser_m() || striped.total_erasures > 0,
            "ERASER+M must collect erasures"
        );
        assert_identical(&scalar, &striped, kind.label());
    }
}

/// Pinned counts of an erasure-aware ERASER+M run decoded by one
/// full-cover window (what window 0 resolves to without an
/// `ERASER_WINDOW` override), recorded from the former whole-shot decoder.
/// Under erasures, equal-weight paths of opposite parity are common; the
/// full-cover window must make the whole-shot decoder's choice on every
/// shot, on both runner paths.
#[test]
fn full_cover_erasure_run_matches_the_pinned_whole_shot_counts() {
    const LOGICAL_ERRORS: u64 = 941;
    const TOTAL_ERASURES: u64 = 197_997;
    let rounds = 9;
    let runner = MemoryRunner::new(3, NoiseParams::standard(2e-3), rounds);
    let base = RunConfig {
        shots: 20_000,
        seed: 0xE2A5,
        threads: 2,
        decoder: DecoderKind::Mwpm,
        erasure: ErasureDetection::imperfect(0.01, 0.05),
        // Past the round count: the full cover, pinned against an
        // `ERASER_WINDOW` or `ERASER_FUSION` leg.
        window_rounds: rounds + 1,
        fusion_threads: 1,
        ..RunConfig::default()
    };
    for width in [1, 64] {
        let result = run_width(&runner, &PolicyKind::eraser_m(), &base, width);
        assert_eq!(result.logical_errors, LOGICAL_ERRORS, "width {width}");
        assert_eq!(result.total_erasures, TOTAL_ERASURES, "width {width}");
    }
}

/// Ragged-tail property: shot counts around the stripe boundary (63, 64,
/// 65, and a single shot) all agree with the scalar path.
#[test]
fn ragged_stripe_tails_are_bit_identical() {
    let runner = MemoryRunner::new(3, NoiseParams::standard(4e-3), 4);
    for shots in [1u64, 63, 64, 65, 130] {
        let base = RunConfig {
            shots,
            seed: 5 + shots,
            threads: 1,
            decoder: DecoderKind::Mwpm,
            ..RunConfig::default()
        };
        let kind = PolicyKind::eraser();
        let scalar = run_width(&runner, &kind, &base, 1);
        let striped = run_width(&runner, &kind, &base, 64);
        assert_identical(&scalar, &striped, &format!("{shots} shots"));
    }
}

/// Determinism property over seeds: width {1, 64} agreement is not a
/// one-seed accident, and thread partitioning composes with striping.
#[test]
fn stripe_determinism_property_over_seeds_and_threads() {
    let runner = MemoryRunner::new(3, NoiseParams::standard(5e-3), 5);
    for seed in 0..8u64 {
        let base = RunConfig {
            shots: 37,
            seed,
            threads: 1,
            decoder: DecoderKind::Mwpm,
            ..RunConfig::default()
        };
        let kind = PolicyKind::eraser_m();
        let scalar = run_width(&runner, &kind, &base, 1);
        let striped = run_width(&runner, &kind, &base, 64);
        assert_identical(&scalar, &striped, &format!("seed {seed}"));
        // Threads split the shot range mid-stripe; lanes re-form without
        // changing any shot's stream.
        let threaded = RunConfig {
            threads: 3,
            stripe_width: 64,
            ..base
        };
        let multi = runner.run(&|code| kind.build(code), &threaded);
        assert_identical(&striped, &multi, &format!("seed {seed} threaded"));
    }
}

/// Adaptive (feedback-controlled) policies keep the stripe invariant: each
/// lane runs its own controller, decisions become per-lane slot masks, and
/// the merged run — telemetry included — matches the scalar path exactly,
/// under a leakage storm that actually trips the escalator.
#[test]
fn adaptive_policies_are_bit_identical_across_widths_and_threads() {
    let runner = MemoryRunner::new(3, NoiseParams::standard(3e-3), 10);
    let base = RunConfig {
        shots: 70,
        seed: 0x570_12F,
        threads: 1,
        decoder: DecoderKind::Mwpm,
        profile: LeakageProfile::Burst {
            start: 3,
            len: 3,
            period: 7,
            rate: 0.08,
        },
        ..RunConfig::default()
    };
    for law in [ControlLawKind::Ewma, ControlLawKind::Budget] {
        let kind = PolicyKind::adaptive(law);
        let scalar = run_width(&runner, &kind, &base, 1);
        assert!(
            scalar.controller.escalations > 0,
            "{}: the storm must trip the controller for the test to bite",
            kind.label()
        );
        let striped = run_width(&runner, &kind, &base, 64);
        assert_identical(&scalar, &striped, kind.label());
        let narrow = run_width(&runner, &kind, &base, 7);
        assert_identical(&scalar, &narrow, &format!("{} width-7", kind.label()));
        // Thread partitioning splits the shot range mid-stripe; the
        // controller harvest merges per lane, so counts cannot drift.
        let threaded = RunConfig {
            threads: 3,
            stripe_width: 64,
            ..base
        };
        let multi = runner.run(&|code| kind.build(code), &threaded);
        assert_identical(&striped, &multi, &format!("{} threaded", kind.label()));
    }
}

/// Structural property: striped adaptive planning stays a masked selection
/// over the code's static slot table. Lanes fed a leakage storm escalate
/// and populate their mask bits; quiet lanes stay silent — on the *same*
/// schedule, with no per-lane slot structure.
#[test]
fn adaptive_striped_planning_is_masked_static_schedule_selection() {
    let code = RotatedCode::new(3);
    let slots = SlotTable::new(&code);
    let factory = |code: &RotatedCode| PolicyKind::adaptive(ControlLawKind::Ewma).build(code);
    let mut policy = StripedPolicy::new(&factory, &code, 2);
    policy.reset_stripe(2);
    let mut slot_masks = vec![0u64; slots.len()];

    // Lane 0 sees every stabilizer fire with |L⟩ labels (a storm); lane 1
    // sees nothing. Repeat for a few rounds so the EWMA clears its dwell.
    let stormy_lane = 1u64; // bit 0
    let events: Vec<u64> = vec![stormy_lane; code.num_stabs()];
    let labels: Vec<u64> = vec![stormy_lane; code.num_stabs()];
    let oracle: Vec<u64> = vec![0; code.num_data()];
    let mut lane0_planned = 0u32;
    for round in 0..6 {
        policy.plan_round(
            &StripeRoundContext {
                round,
                events: &events,
                leaked_readouts: &labels,
                oracle_leaked_data: &oracle,
                active: 0b11,
            },
            &slots,
            &mut slot_masks,
        );
        // Every scheduled LRC is a mask bit on an existing static slot —
        // the mask vector's length never leaves the slot table's.
        assert_eq!(slot_masks.len(), slots.len());
        for (slot, &mask) in slot_masks.iter().enumerate() {
            assert_eq!(
                mask & !0b11,
                0,
                "slot {slot}: mask bits outside the active stripe"
            );
            assert_eq!(mask & 0b10, 0, "slot {slot}: the quiet lane planned an LRC");
            lane0_planned += (mask & 0b01) as u32;
        }
    }
    assert!(
        lane0_planned > 0,
        "the stormy lane must escalate into a non-empty masked schedule"
    );
    assert!(
        policy.lane_controller(0).unwrap().escalations > 0,
        "lane 0's controller must have escalated"
    );
    assert_eq!(
        policy.lane_controller(1).unwrap().escalations,
        0,
        "lane 1's controller must have stayed in base mode"
    );
}

/// The facade knob reaches the runtime and validates its range.
#[test]
fn stripe_width_knob_on_the_facade() {
    let build = |width: usize| {
        Experiment::builder()
            .distance(3)
            .noise(NoiseParams::standard(2e-3))
            .rounds(3)
            .policy(PolicyKind::eraser())
            .shots(40)
            .seed(9)
            .stripe_width(width)
            .build()
    };
    let scalar = build(1).expect("valid").run();
    let striped = build(64).expect("valid").run();
    assert_identical(&scalar, &striped, "facade");
    assert!(build(65).is_err(), "width > 64 must be rejected");
    assert!(build(0).is_ok(), "0 = auto");
}
