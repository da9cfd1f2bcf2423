//! Failure injection through the facade: a [`LeakageProfile`] burst leaks
//! every data qubit mid-run, and the per-round LPR trace must show the
//! ERASER pipeline detecting and removing the leakage within a few rounds —
//! the end-to-end version of the paper's "real-time leakage suppression"
//! claim, plus the adaptive controller's escalate-then-recover telemetry.
//!
//! These tests run whatever `ERASER_THREADS` the CI matrix sets: the
//! assertions are on physics the thread count must not change.

use eraser_repro::eraser_core::runtime::MemoryRunResult;
use eraser_repro::eraser_core::{ControlLawKind, Experiment, LeakageProfile, PolicyKind};
use eraser_repro::qec_core::NoiseParams;

const STORM_ROUND: usize = 3;
const ROUNDS: usize = 12;

/// One burst scenario: a quiet background with every data qubit leaking
/// with p = 0.5 at round 3.
fn run_storm(policy: PolicyKind) -> MemoryRunResult {
    Experiment::builder()
        .distance(5)
        .noise(NoiseParams::standard(1e-4))
        .rounds(ROUNDS)
        .policy(policy)
        .shots(200)
        .seed(1000)
        .leakage_profile(LeakageProfile::Burst {
            start: STORM_ROUND,
            len: 1,
            period: 0,
            rate: 0.5,
        })
        .build()
        .expect("a valid storm experiment")
        .run()
}

#[test]
fn eraser_recovers_from_a_leakage_burst() {
    let eraser = run_storm(PolicyKind::eraser());
    // The storm lands: about half the data qubits leak at the burst round.
    assert!(
        eraser.lpr_data[STORM_ROUND] > 0.3,
        "storm must land: LPR {} at round {STORM_ROUND}",
        eraser.lpr_data[STORM_ROUND]
    );
    // ERASER speculates the leaked qubits from their randomized parity
    // checks and its LRCs reset them: by the final round the leaked
    // fraction is back within a few percent of the quiet background.
    assert!(
        eraser.lpr_data[ROUNDS - 1] < 0.1,
        "ERASER must drain the storm: final LPR {}",
        eraser.lpr_data[ROUNDS - 1]
    );
}

#[test]
fn leakage_persists_without_lrcs() {
    // The control arm: seepage is far slower than the round clock, so with
    // no LRCs the burst never drains — that persistence is exactly what
    // makes the recovery assertions above meaningful.
    let no_lrc = run_storm(PolicyKind::NoLrc);
    assert!(
        no_lrc.lpr_data[STORM_ROUND] > 0.3,
        "storm must land: LPR {}",
        no_lrc.lpr_data[STORM_ROUND]
    );
    assert!(
        no_lrc.lpr_data[ROUNDS - 1] > 0.4,
        "without LRCs the storm must persist: final LPR {}",
        no_lrc.lpr_data[ROUNDS - 1]
    );
}

#[test]
fn adaptive_controller_escalates_on_the_burst_and_recovers() {
    let adaptive = run_storm(PolicyKind::adaptive(ControlLawKind::Ewma));
    // Suppression: the controller's escalated mode clears the storm as
    // fast as the static pipeline.
    assert!(
        adaptive.lpr_data[ROUNDS - 1] < 0.1,
        "adaptive must drain the storm: final LPR {}",
        adaptive.lpr_data[ROUNDS - 1]
    );
    // Telemetry: every shot sees the burst, so every shot escalates at
    // least once; the estimate decays afterwards, so base-mode rounds
    // remain on both sides of the storm.
    let ctrl = &adaptive.controller;
    assert!(ctrl.is_active(), "adaptive runs must report telemetry");
    assert_eq!(ctrl.rounds(), 200 * ROUNDS as u64);
    assert!(
        ctrl.escalations >= 200,
        "every shot must escalate on the burst: {} escalations",
        ctrl.escalations
    );
    assert!(
        ctrl.rounds_escalated > 0 && ctrl.rounds_base > 0,
        "the run must spend time in both modes: {} escalated / {} base",
        ctrl.rounds_escalated,
        ctrl.rounds_base
    );
    // The quiet rounds before the storm keep the duty cycle well below 1.
    assert!(
        ctrl.escalated_fraction() < 0.9,
        "the controller must recover to base: duty {}",
        ctrl.escalated_fraction()
    );
    assert!(
        ctrl.peak_estimate() > ctrl.mean_estimate(),
        "the storm must dominate the estimator's peak"
    );
}

#[test]
fn storm_recovery_is_stripe_invariant() {
    // The same storm on different stripe packings must agree bit for bit —
    // LPR trace, logical errors, and controller telemetry alike. The
    // runner packs each worker's contiguous shot range into stripes of up
    // to 64 lanes, so 100 shots run as 64 + 36 lanes on one thread, as
    // 34 / 33 / 33 on three, and as ten 10-lane stripes on ten.
    let run = |policy: PolicyKind, threads: usize| {
        Experiment::builder()
            .distance(5)
            .noise(NoiseParams::standard(1e-4))
            .rounds(ROUNDS)
            .policy(policy)
            .shots(100)
            .seed(2000)
            .threads(threads)
            .leakage_profile(LeakageProfile::Burst {
                start: STORM_ROUND,
                len: 1,
                period: 0,
                rate: 0.5,
            })
            .build()
            .expect("a valid storm experiment")
            .run()
    };
    for policy in [
        PolicyKind::eraser(),
        PolicyKind::adaptive(ControlLawKind::Ewma),
    ] {
        let packed = run(policy.clone(), 1);
        for threads in [3, 10] {
            let split = run(policy.clone(), threads);
            assert_eq!(
                packed.logical_errors, split.logical_errors,
                "{policy} x{threads}: logical errors"
            );
            assert_eq!(
                packed.lpr_data, split.lpr_data,
                "{policy} x{threads}: LPR trace"
            );
            assert_eq!(
                packed.total_lrcs, split.total_lrcs,
                "{policy} x{threads}: LRCs"
            );
            assert_eq!(
                packed.controller, split.controller,
                "{policy} x{threads}: controller stats"
            );
        }
    }
}
