//! The one-shot-at-a-time reference runner, and the tests that hold the
//! striped runner to it.
//!
//! [`reference`] runs each shot alone on the scalar [`FrameSimulator`],
//! rebuilding every round's circuit from the policy's plan — the direct
//! reading of the paper's per-shot loop. The library's runner packs shots
//! into word-parallel stripes driven by static masked schedules; for every
//! stripe width, policy, protocol, erasure model and thread count it must
//! reproduce this runner's statistics bit for bit.

use super::*;
use crate::control::ControlLawKind;
use crate::experiment::PolicyKind;
use crate::policy::{EraserOptions, RoundContext};
use leak_sim::FrameSimulator;
use surface_code::{LrcAssignment, SyndromeRound};

type Factory<'a> = &'a (dyn Fn(&RotatedCode) -> Box<dyn LrcPolicy> + Sync);

/// Runs `config` through the reference runner, on the same worker split
/// and statistics fold as the library runner.
pub(super) fn reference(
    runner: &MemoryRunner,
    policy_factory: Factory<'_>,
    config: &RunConfig,
) -> MemoryRunResult {
    let Ok(artifacts) = runner.decode_artifacts(config, None);
    runner.run_workers(policy_factory, config, &artifacts, |first, count| {
        reference_shots(runner, first, count, policy_factory, &artifacts, config)
    })
}

/// Runs `config` through the library runner on stripes of at most `width`
/// lanes.
pub(super) fn striped(
    runner: &MemoryRunner,
    policy_factory: Factory<'_>,
    config: &RunConfig,
    width: usize,
) -> MemoryRunResult {
    let Ok(artifacts) = runner.decode_artifacts(config, None);
    runner.run_workers(policy_factory, config, &artifacts, |first, count| {
        runner.run_stripes(first, count, width, policy_factory, &artifacts, config)
    })
}

/// Collects detector round `round`'s fired defects (graph node ids,
/// ascending) from the simulator's record.
fn gather_round_defects(
    runner: &MemoryRunner,
    sim: &FrameSimulator,
    round: usize,
    out: &mut Vec<usize>,
) {
    out.clear();
    for &(di, node) in &runner.detector_nodes_by_round[round] {
        if sim.record().parity(&runner.detectors[di as usize].keys) {
            out.push(node as usize);
        }
    }
}

/// One worker's shots, one at a time.
fn reference_shots(
    runner: &MemoryRunner,
    first_shot: u64,
    shots: u64,
    policy_factory: Factory<'_>,
    artifacts: &DecodeArtifacts,
    config: &RunConfig,
) -> PartialStats {
    let code = runner.exp.code();
    let keys = runner.exp.keys();
    let rounds = runner.exp.rounds();
    let builder = runner.exp.round_builder();
    let num_data = code.num_data();
    let num_stabs = code.num_stabs();

    let mut streaming = artifacts.stream();
    let erasure_active = config.erasure.enabled && streaming.is_some();
    let mut policy = policy_factory(code);
    let discriminator = if policy.uses_multilevel() {
        Discriminator::MultiLevel
    } else {
        Discriminator::TwoLevel
    };
    let mut sim = FrameSimulator::new(
        code.num_qubits(),
        keys.total(),
        *runner.exp.noise(),
        discriminator,
        Rng::new(0), // reseeded per shot below
    );

    let mut stats = PartialStats::new(rounds);
    let mut prev_syndrome = vec![false; num_stabs];
    let mut events = vec![false; num_stabs];
    let mut leaked_readouts = vec![false; num_stabs];
    let mut oracle = vec![false; num_data];
    // The current round's defects and erasure edges, plus the shot's
    // erasure log (reported deduplicated as `total_erasures`).
    let mut round_defects: Vec<usize> = Vec::new();
    let mut round_erasures: Vec<usize> = Vec::new();
    let mut erasure_log: Vec<usize> = Vec::new();

    for shot in first_shot..first_shot + shots {
        // The shot's stream splits in two: the simulator's physics and
        // the (independent) detection-noise stream, so erasure-aware and
        // leakage-blind runs decode identical error realizations.
        let mut det_rng = shot_rng(config.seed, shot);
        sim.reseed(det_rng.fork());
        sim.reset_shot();
        policy.reset_shot();
        erasure_log.clear();
        if let Some(stream) = streaming.as_mut() {
            stream.begin_shot();
        }
        sim.run(&runner.init_segment);
        prev_syndrome.fill(false);
        events.fill(false);
        leaked_readouts.fill(false);
        let mut last_lrcs: Vec<LrcAssignment> = Vec::new();
        // Offline post-selection flag: leakage-like syndrome pattern seen
        // anywhere in the shot's history.
        let mut suspect = false;

        for r in 0..rounds {
            // Time-varying injected leakage (the profile schedule),
            // applied before the oracle snapshot so even the idealized
            // policy sees the storm the round it lands. The striped path
            // injects identically (same qubit order, same draws).
            let extra = config.profile.extra_leak_p(r);
            if extra > 0.0 {
                for q in 0..num_data {
                    sim.run(&[Op::LeakInject { qubit: q, p: extra }]);
                }
            }
            for (q, slot) in oracle.iter_mut().enumerate() {
                *slot = sim.is_leaked(q);
            }
            let mut plan = policy.plan_round(&RoundContext {
                round: r,
                events: &events,
                leaked_readouts: &leaked_readouts,
                oracle_leaked_data: &oracle,
                last_lrcs: &last_lrcs,
            });
            // Canonical (data, stab) order: the striped path executes
            // LRC slots in this order, so the scalar reference must
            // build (and draw randomness for) its rounds the same way.
            plan.sort_unstable_by_key(|l| (l.data, l.stab));
            // Confusion matrix against ground truth at planning time.
            let mut planned = vec![false; num_data];
            for lrc in &plan {
                planned[lrc.data] = true;
            }
            for q in 0..num_data {
                match (planned[q], oracle[q]) {
                    (true, true) => stats.speculation.true_positive += 1,
                    (true, false) => stats.speculation.false_positive += 1,
                    (false, true) => stats.speculation.false_negative += 1,
                    (false, false) => stats.speculation.true_negative += 1,
                }
            }
            stats.total_lrcs += plan.len() as u64;

            round_erasures.clear();
            if erasure_active {
                if let Some(det) = policy.leakage_detections() {
                    let fp = config.erasure.false_positive;
                    let fnr = config.erasure.false_negative;
                    // Every flag erases the provenance bucket of the
                    // flagged qubit over its believed-leaked window:
                    // data flags cover the evidence round and the
                    // current one; a returned qubit's random state
                    // shows up in the same window; a parity |L⟩ readout
                    // pins the (reset-bounded) leak to the previous
                    // round alone.
                    for (q, &flag) in det.data.iter().enumerate() {
                        let reported = if flag {
                            !det_rng.bernoulli(fnr)
                        } else {
                            det_rng.bernoulli(fp)
                        };
                        if reported {
                            runner.extend_qubit_erasures(
                                r.saturating_sub(1)..=r,
                                q,
                                &mut round_erasures,
                            );
                        }
                    }
                    // No false-positive synthesis here: a clean data
                    // qubit already took its one per-round FP draw in
                    // the `data` loop above; drawing again would double
                    // the effective FP rate versus the documented model.
                    for (q, &flag) in det.data_returned.iter().enumerate() {
                        if flag && !det_rng.bernoulli(fnr) {
                            runner.extend_qubit_erasures(
                                r.saturating_sub(2)..=r,
                                q,
                                &mut round_erasures,
                            );
                        }
                    }
                    for (s, &flag) in det.parity.iter().enumerate() {
                        let reported = if flag {
                            !det_rng.bernoulli(fnr)
                        } else {
                            det_rng.bernoulli(fp)
                        };
                        if reported && r > 0 {
                            let parity = code.parity_qubit(s);
                            runner.extend_qubit_erasures(
                                r - 1..=r - 1,
                                parity,
                                &mut round_erasures,
                            );
                        }
                    }
                    erasure_log.extend_from_slice(&round_erasures);
                }
            }

            let round_circ: SyndromeRound = match config.protocol {
                LrcProtocol::Swap => builder.round(r, &plan, keys),
                LrcProtocol::Dqlr => builder.dqlr_round(r, &plan, keys),
            };
            sim.run(&round_circ.pre);
            // LPR probe: after the entangling layers, before readout
            // (captures leakage accumulated during the round).
            stats.lpr_data_sum[r] += sim.leaked_count_in(0..num_data) as f64;
            stats.lpr_parity_sum[r] += sim.leaked_count_in(num_data..code.num_qubits()) as f64;
            sim.run(&round_circ.measure);
            sim.run(&round_circ.mr_reset);
            for tail in &round_circ.lrc_post {
                if policy.uses_multilevel() && sim.record().label(tail.data_key).is_leaked() {
                    // §4.6.2: the SWAP failed; reset P, squash swap-back.
                    sim.run(&tail.leak_path);
                } else {
                    sim.run(&tail.swap_back);
                }
            }
            sim.run(&round_circ.post);

            for s in 0..num_stabs {
                let key = keys.stab_key(r, s);
                let flip = sim.record().flip(key);
                events[s] = if r == 0 {
                    // Round 0: memory-basis stabilizers are deterministic;
                    // the other basis has a random reference and produces
                    // no event yet.
                    runner.stab_deterministic_round0[s] && flip
                } else {
                    flip ^ prev_syndrome[s]
                };
                prev_syndrome[s] = flip;
                leaked_readouts[s] = sim.record().label(key).is_leaked();
            }
            if !suspect {
                // The LSB rule applied offline: at least half of some data
                // qubit's neighbouring checks fired this round.
                suspect = (0..num_data).any(|q| {
                    let adj = code.adjacent_stabs(q);
                    let flips = adj.iter().filter(|&&s| events[s]).count();
                    flips >= adj.len().div_ceil(2)
                });
            }
            if let Some(stream) = streaming.as_mut() {
                // Detector round r is fully measured now: stream its
                // defects (and this round's erasure flags) into the
                // windowed decoder, which retires any window whose last
                // round just arrived.
                gather_round_defects(runner, &sim, r, &mut round_defects);
                stream.push_round(&round_defects, &round_erasures);
            }
            last_lrcs = plan;
        }
        sim.run(&runner.final_segment);

        if suspect {
            stats.postselection.flagged_shots += 1;
        }
        if let Some(stream) = streaming.as_mut() {
            // The final transversal detectors (round = rounds) complete
            // with the final segment; pushing them retires the last
            // window and seals the shot.
            gather_round_defects(runner, &sim, rounds, &mut round_defects);
            stream.push_round(&round_defects, &[]);
            let actual = sim.record().parity(&runner.observable);
            stats.finish_shot(stream, &mut erasure_log, actual, suspect);
        }
    }
    // Controller telemetry accumulates across this worker's shots;
    // harvest it once (sum/max merge makes the order irrelevant). Same
    // for the predecoder's tier counters.
    if let Some(controller) = policy.controller() {
        stats.controller.merge(controller);
    }
    if let Some(stream) = streaming.as_ref() {
        stats.predecode.merge(stream.tier_counters());
    }
    stats
}

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

/// Stripe widths every equivalence test runs: one lane, two narrow
/// widths that leave ragged final stripes, and the full word.
const WIDTHS: [usize; 4] = [1, 7, 13, STRIPE_WIDTH];

/// Runs `kind` through the reference runner and at every width in
/// [`WIDTHS`], asserting each striped run identical to the reference, and
/// returns the reference result.
fn assert_widths_match_reference(
    runner: &MemoryRunner,
    kind: &PolicyKind,
    config: &RunConfig,
    what: &str,
) -> MemoryRunResult {
    let factory = |code: &RotatedCode| kind.build(code);
    let oracle = reference(runner, &factory, config);
    for width in WIDTHS {
        let result = striped(runner, &factory, config, width);
        assert_identical(&oracle, &result, &format!("{what} width {width}"));
    }
    oracle
}

/// The ERASER design knobs the ablation studies sweep, away from the
/// paper's design point: every threshold override a data qubit's 2–4
/// checks can meet (and 5, which none can), PUTT off, backup off, both off.
fn eraser_ablations() -> Vec<EraserOptions> {
    let paper = EraserOptions::default();
    let mut options: Vec<EraserOptions> = [1, 3, 4, 5]
        .map(|threshold_override| EraserOptions {
            threshold_override,
            ..paper
        })
        .into();
    for (use_putt, use_backup) in [(false, true), (true, false), (false, false)] {
        options.push(EraserOptions {
            use_putt,
            use_backup,
            ..paper
        });
    }
    options
}

/// Every standard policy plus ERASER and ERASER+M at every ablation point.
fn standard_and_ablation_kinds() -> Vec<PolicyKind> {
    let mut kinds = PolicyKind::all_standard().to_vec();
    for options in eraser_ablations() {
        kinds.push(PolicyKind::Eraser(options));
        kinds.push(PolicyKind::EraserM(options));
    }
    kinds
}

/// The headline property: every policy of the paper and every ERASER /
/// ERASER+M ablation point, at every width, with a shot count that leaves
/// a ragged final stripe (70 = 64 + 6).
#[test]
fn stripe_width_is_bit_identical_across_all_policies() {
    let runner = MemoryRunner::new(3, NoiseParams::standard(4e-3), 6);
    let config = RunConfig {
        shots: 70,
        seed: 0xA11CE,
        threads: 2,
        decoder: DecoderKind::Mwpm,
        ..RunConfig::default()
    };
    for kind in standard_and_ablation_kinds() {
        assert_widths_match_reference(&runner, &kind, &config, &format!("{kind:?}"));
    }
}

/// Random lane words with each bit set with probability 2^-`sparsity`.
fn random_words(rng: &mut Rng, len: usize, sparsity: u32) -> Vec<u64> {
    (0..len)
        .map(|_| (1..sparsity).fold(rng.next_u64(), |word, _| word & rng.next_u64()))
        .collect()
}

/// The native word planners against the per-lane adapter they replace, at
/// the planning-context level: random event, label and oracle words (dense
/// enough that four adjacent checks fire together, which the threshold-5
/// ablation must ignore), stripes of random width with random holes in the
/// live-lane mask, for every standard policy and ablation point. Slot
/// masks and all three read-path words must agree exactly, every round.
#[test]
fn native_planners_match_the_per_lane_adapter_on_random_contexts() {
    let mut rng = Rng::new(0x5EED_1A7E);
    for d in [3, 5] {
        let code = RotatedCode::new(d);
        let slots = SlotTable::new(&code);
        for kind in standard_and_ablation_kinds() {
            let factory = |code: &RotatedCode| kind.build(code);
            let mut native = StripedPolicy::new(&factory, &code, STRIPE_WIDTH);
            let mut per_lane = StripedPolicy::per_lane(&factory, &code, STRIPE_WIDTH);
            assert!(native.is_native() && !per_lane.is_native(), "{kind:?}");
            let mut native_masks = vec![0u64; slots.len()];
            let mut lane_masks = vec![0u64; slots.len()];
            for stripe in 0..6 {
                let lanes = 1 + rng.below(STRIPE_WIDTH as u64) as usize;
                native.reset_stripe(lanes);
                per_lane.reset_stripe(lanes);
                let full = if lanes == 64 { !0 } else { (1u64 << lanes) - 1 };
                let active = if stripe % 2 == 0 {
                    full
                } else {
                    full & rng.next_u64()
                };
                for round in 0..12 {
                    let sparsity = 1 + (round % 3) as u32;
                    let events = random_words(&mut rng, code.num_stabs(), sparsity);
                    let labels = random_words(&mut rng, code.num_stabs(), sparsity + 1);
                    let oracle = random_words(&mut rng, code.num_data(), sparsity + 1);
                    let ctx = StripeRoundContext {
                        round,
                        events: &events,
                        leaked_readouts: &labels,
                        oracle_leaked_data: &oracle,
                        active,
                    };
                    native.plan_round(&ctx, &slots, &mut native_masks);
                    per_lane.plan_round(&ctx, &slots, &mut lane_masks);
                    let what = format!("d={d} {kind:?} stripe {stripe} round {round}");
                    assert_eq!(native_masks, lane_masks, "{what}: slot masks");
                    let words = |policy: &mut StripedPolicy| {
                        policy.detections().map(|det| {
                            (
                                det.lanes,
                                det.data.to_vec(),
                                det.data_returned.to_vec(),
                                det.parity.to_vec(),
                            )
                        })
                    };
                    assert_eq!(
                        words(&mut native),
                        words(&mut per_lane),
                        "{what}: read path"
                    );
                }
            }
        }
    }
}

/// The DQLR protocol's slot-gated post segment.
#[test]
fn stripe_width_is_bit_identical_under_dqlr() {
    let runner = MemoryRunner::new(3, NoiseParams::exchange_transport(4e-3), 5);
    let config = RunConfig {
        shots: 70,
        seed: 77,
        threads: 1,
        protocol: LrcProtocol::Dqlr,
        decoder: DecoderKind::Mwpm,
        ..RunConfig::default()
    };
    for kind in [PolicyKind::AlwaysEveryRound, PolicyKind::eraser()] {
        assert_widths_match_reference(&runner, &kind, &config, kind.label());
    }
}

/// Erasure-aware decoding threads per-lane detection noise through the
/// independent per-shot streams; every width must collect the reference's
/// erasure sets and decode identically, at d = 3, 5 and 7.
#[test]
fn stripe_width_is_bit_identical_with_erasure_decoding() {
    for (d, rounds) in [(3, 6), (5, 5), (7, 4)] {
        let runner = MemoryRunner::new(d, NoiseParams::standard(5e-3), rounds);
        let config = RunConfig {
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
            let what = format!("d={d} {}", kind.label());
            let oracle = assert_widths_match_reference(&runner, &kind, &config, &what);
            assert!(
                kind != PolicyKind::eraser_m() || oracle.total_erasures > 0,
                "{what}: ERASER+M must collect erasures"
            );
        }
    }
}

/// Pinned counts of an erasure-aware ERASER+M run decoded by one
/// full-cover window (what window 0 resolves to), recorded from the former
/// whole-shot decoder.
/// Under erasures, equal-weight paths of opposite parity are common; the
/// full-cover window must make the whole-shot decoder's choice on every
/// shot, in the reference runner and on 1- and 64-lane stripes.
#[test]
fn full_cover_erasure_run_matches_the_pinned_whole_shot_counts() {
    const LOGICAL_ERRORS: u64 = 941;
    const TOTAL_ERASURES: u64 = 197_997;
    let runner = MemoryRunner::new(3, NoiseParams::standard(2e-3), 9);
    let config = RunConfig {
        shots: 20_000,
        seed: 0xE2A5,
        threads: 2,
        decoder: DecoderKind::Mwpm,
        erasure: ErasureDetection::imperfect(0.01, 0.05),
        ..RunConfig::default()
    };
    let factory = |code: &RotatedCode| PolicyKind::eraser_m().build(code);
    let runs = [
        ("reference", reference(&runner, &factory, &config)),
        ("width 1", striped(&runner, &factory, &config, 1)),
        (
            "width 64",
            striped(&runner, &factory, &config, STRIPE_WIDTH),
        ),
    ];
    for (what, result) in &runs {
        assert_eq!(result.logical_errors, LOGICAL_ERRORS, "{what}");
        assert_eq!(result.total_erasures, TOTAL_ERASURES, "{what}");
    }
}

/// Ragged-tail property: shot counts around the stripe boundary (63, 64,
/// 65, two full stripes plus two, and a single shot).
#[test]
fn ragged_stripe_tails_are_bit_identical() {
    let runner = MemoryRunner::new(3, NoiseParams::standard(4e-3), 4);
    for shots in [1u64, 63, 64, 65, 130] {
        let config = RunConfig {
            shots,
            seed: 5 + shots,
            threads: 1,
            decoder: DecoderKind::Mwpm,
            ..RunConfig::default()
        };
        let what = format!("{shots} shots");
        assert_widths_match_reference(&runner, &PolicyKind::eraser(), &config, &what);
    }
}

/// Determinism property over seeds: agreement with the reference is not a
/// one-seed accident, and thread partitioning — which splits the shot range
/// mid-stripe — composes with every width.
#[test]
fn stripe_determinism_property_over_seeds_and_threads() {
    let runner = MemoryRunner::new(3, NoiseParams::standard(5e-3), 5);
    let factory = |code: &RotatedCode| PolicyKind::eraser_m().build(code);
    for seed in 0..8u64 {
        let config = RunConfig {
            shots: 37,
            seed,
            threads: 1,
            decoder: DecoderKind::Mwpm,
            ..RunConfig::default()
        };
        let oracle = reference(&runner, &factory, &config);
        for (threads, width) in [(1usize, 64usize), (2, 13), (3, 7), (4, 1), (3, 64)] {
            let threaded = RunConfig { threads, ..config };
            let result = striped(&runner, &factory, &threaded, width);
            let what = format!("seed {seed}, {threads} threads, width {width}");
            assert_identical(&oracle, &result, &what);
        }
    }
}

/// Adaptive (feedback-controlled) policies keep the stripe invariant: each
/// lane runs its own controller, decisions become per-lane slot masks, and
/// the merged run — telemetry included — matches the reference exactly,
/// under leakage storms that actually trip the escalator: a periodic d = 3
/// burst for both control laws, and a d = 5 burst leaking every data qubit
/// with p = 0.5 under ERASER and the EWMA law.
#[test]
fn adaptive_policies_are_bit_identical_across_widths_and_threads() {
    let periodic = (
        MemoryRunner::new(3, NoiseParams::standard(3e-3), 10),
        RunConfig {
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
        },
        [
            PolicyKind::adaptive(ControlLawKind::Ewma),
            PolicyKind::adaptive(ControlLawKind::Budget),
        ],
    );
    let storm = (
        MemoryRunner::new(5, NoiseParams::standard(1e-4), 12),
        RunConfig {
            shots: 100,
            seed: 2000,
            threads: 1,
            decoder: DecoderKind::Mwpm,
            profile: LeakageProfile::Burst {
                start: 3,
                len: 1,
                period: 0,
                rate: 0.5,
            },
            ..RunConfig::default()
        },
        [
            PolicyKind::eraser(),
            PolicyKind::adaptive(ControlLawKind::Ewma),
        ],
    );
    for (runner, config, kinds) in [periodic, storm] {
        let d = runner.experiment().code().distance();
        for kind in kinds {
            let what = format!("d={d} {}", kind.label());
            let oracle = assert_widths_match_reference(&runner, &kind, &config, &what);
            if matches!(kind, PolicyKind::Adaptive(_)) {
                assert!(
                    oracle.controller.escalations > 0,
                    "{what}: the storm must trip the controller for the test to bite"
                );
            }
            // Thread partitioning splits the shot range mid-stripe; the
            // controller harvest merges per lane, so counts cannot drift.
            let factory = |code: &RotatedCode| kind.build(code);
            let threaded = RunConfig {
                threads: 3,
                ..config
            };
            let multi = striped(&runner, &factory, &threaded, STRIPE_WIDTH);
            assert_identical(&oracle, &multi, &format!("{what} threaded"));
        }
    }
}
