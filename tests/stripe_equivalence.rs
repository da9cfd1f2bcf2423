//! Striped runs: the word-parallel runtime resolves every policy decision
//! to a per-slot lane mask over the code's static slot table, and how shots
//! are packed into stripes never changes a result. The bit-identity of
//! every stripe width, policy, protocol, erasure model and thread count
//! against a one-shot-at-a-time reference runner is asserted by the
//! `eraser_core` unit tests, next to that private reference runner; the
//! tests here need only the public API.

use eraser_repro::eraser_core::runtime::{DecoderKind, MemoryRunResult, MemoryRunner, RunConfig};
use eraser_repro::eraser_core::{
    ControlLawKind, LeakageProfile, PolicyKind, StripeRoundContext, StripedPolicy,
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

/// Adaptive (feedback-controlled) policies keep the stripe invariant: each
/// lane runs its own controller, decisions become per-lane slot masks, and
/// the merged run — telemetry included — does not depend on how shots are
/// packed into stripes, under a leakage storm that actually trips the
/// escalator. Each worker packs its contiguous shot range into stripes of
/// up to 64 lanes, so the 70 shots run as 64 + 6 lanes on one thread,
/// 35 / 35 on two, 24 / 23 / 23 on three, 18 / 18 / 17 / 17 on four and
/// ten 7-lane stripes on ten.
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
        let run = |threads: usize| {
            let config = RunConfig { threads, ..base };
            runner.run(&|code| kind.build(code), &config)
        };
        let packed = run(1);
        assert!(
            packed.controller.escalations > 0,
            "{}: the storm must trip the controller for the test to bite",
            kind.label()
        );
        for threads in [2, 3, 4, 10] {
            let split = run(threads);
            assert_identical(&packed, &split, &format!("{} x{threads}", kind.label()));
        }
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
