//! Simulator throughput: leakage-aware frame simulation of syndrome-
//! extraction rounds (the scalar kernel and the 64-shot striped kernel),
//! the d=7 memory benchmark on the word-parallel runner, tableau
//! verification speed, and density-matrix kernel cost.
//!
//! Baseline numbers are recorded to `results/BENCH_sim.json` via
//! `ERASER_BENCH_JSON=$PWD/results/BENCH_sim.json cargo bench -p eraser-bench --bench sim_throughput`
//! (absolute path: cargo runs benches from the package directory).
//! `memory_run_512shots/d7/striped64` is the committed throughput
//! baseline: shots/sec = 512 / (ns_per_iter · 10⁻⁹).

use density_sim::{gates, DensityMatrix};
use eraser_bench::{round_ops, Harness};
use eraser_core::{
    AdaptivePolicy, ControlBase, ControllerConfig, EraserPolicy, Experiment, LrcPolicy, PolicyKind,
    RoundContext, StripeRoundContext, StripedPolicy,
};
use leak_sim::{BatchFrameSimulator, Discriminator, FrameSimulator, TableauSimulator};
use qec_core::{NoiseParams, Rng};
use std::hint::black_box;
use surface_code::SlotTable;

fn main() {
    let h = Harness::from_args();

    for d in [3usize, 7, 11] {
        let (code, ops, keys) = round_ops(d);
        let mut sim = FrameSimulator::new(
            code.num_qubits(),
            keys,
            NoiseParams::standard(1e-3),
            Discriminator::TwoLevel,
            Rng::new(1),
        );
        h.bench(&format!("frame_sim_round/d{d}"), || {
            sim.reset_shot();
            sim.run(black_box(&ops));
        });

        // The striped simulator runs 64 shots per iteration: per-shot cost
        // is ns_per_iter / 64.
        let mut batch = BatchFrameSimulator::new(
            code.num_qubits(),
            keys,
            NoiseParams::standard(1e-3),
            Discriminator::TwoLevel,
        );
        let rngs: Vec<Rng> = (0..64).map(Rng::new).collect();
        h.bench(&format!("frame_sim_round_striped64/d{d}"), || {
            batch.begin_stripe(&rngs);
            batch.run_masked(black_box(&ops), !0);
        });
    }

    // The d=7 memory benchmark: full ERASER runs (policy-adaptive rounds,
    // LPR probes, post-selection) on 64-shot stripes. Decoding is
    // benchmarked separately (decoders bench), so it is disabled here to
    // isolate simulation throughput.
    {
        let striped = Experiment::builder()
            .distance(7)
            .noise(NoiseParams::standard(1e-3))
            .rounds(21)
            .policy(PolicyKind::eraser())
            .shots(512)
            .seed(7)
            .threads(1)
            .decode(false)
            .build()
            .expect("valid benchmark experiment");
        h.bench("memory_run_512shots/d7/striped64", || {
            striped.run().total_lrcs
        });
    }

    // Per-round planning cost of the adaptive controller in its steady
    // state (quiet syndrome, base mode, base = ERASER) vs the static
    // policy it wraps. The baselines test asserts the controller's
    // bookkeeping — two signal scans plus the law update — stays within
    // 10% of plain ERASER's planning time.
    {
        let (code, _, _) = round_ops(7);
        let quiet_events = vec![false; code.num_stabs()];
        let quiet_labels = vec![false; code.num_stabs()];
        let oracle = vec![false; code.num_data()];
        let ctx = RoundContext {
            round: 1,
            events: &quiet_events,
            leaked_readouts: &quiet_labels,
            oracle_leaked_data: &oracle,
            last_lrcs: &[],
        };
        let mut eraser = EraserPolicy::new(&code);
        h.bench("policy_round/d7/eraser", || {
            black_box(eraser.plan_round(black_box(&ctx)).len())
        });
        let steady = ControllerConfig {
            base: ControlBase::Eraser,
            ..ControllerConfig::ewma()
        };
        let mut ewma = AdaptivePolicy::new(&code, steady);
        h.bench("policy_round/d7/adaptive-ewma", || {
            black_box(ewma.plan_round(black_box(&ctx)).len())
        });
        let mut budget = AdaptivePolicy::new(
            &code,
            ControllerConfig {
                base: ControlBase::Eraser,
                ..ControllerConfig::budget()
            },
        );
        h.bench("policy_round/d7/adaptive-budget", || {
            black_box(budget.plan_round(black_box(&ctx)).len())
        });
    }

    // The same quiet round planned for a full 64-lane stripe by the native
    // word planners. The baselines test asserts the d = 7 ERASER stripe
    // costs at most 4× one lane of `policy_round/d7/eraser`.
    for d in [7usize, 11] {
        let (code, _, _) = round_ops(d);
        let slots = SlotTable::new(&code);
        let quiet_events = vec![0u64; code.num_stabs()];
        let quiet_labels = vec![0u64; code.num_stabs()];
        let oracle = vec![0u64; code.num_data()];
        let ctx = StripeRoundContext {
            round: 1,
            events: &quiet_events,
            leaked_readouts: &quiet_labels,
            oracle_leaked_data: &oracle,
            active: !0,
        };
        let mut slot_masks = vec![0u64; slots.len()];
        for kind in [PolicyKind::eraser(), PolicyKind::eraser_m()] {
            let mut policy = StripedPolicy::new(&|code| kind.build(code), &code, 64);
            policy.reset_stripe(64);
            let label = kind.label().replace('+', "-");
            h.bench(&format!("policy_round_striped64/d{d}/{label}"), || {
                policy.plan_round(black_box(&ctx), &slots, &mut slot_masks);
                slot_masks[0]
            });
        }
    }

    for d in [3usize, 5] {
        let (code, ops, _) = round_ops(d);
        h.bench(&format!("tableau_round/d{d}"), || {
            let mut sim = TableauSimulator::new(code.num_qubits(), 7);
            let mut outcomes = Vec::new();
            sim.run_circuit_ops(black_box(&ops), &mut outcomes);
            outcomes
        });
    }

    // Three-ququart register: the same kernels Fig 8 runs on five ququarts.
    {
        let mut rho = DensityMatrix::new_pure(3, &[2, 0, 0]);
        let cx = gates::cnot();
        h.bench("density_sim/cnot_3ququarts", || {
            rho.apply_two(0, 2, black_box(&cx))
        });
    }
    {
        let mut rho = DensityMatrix::new_pure(3, &[2, 0, 0]);
        let ks = gates::leak_transport_kraus(0.1);
        h.bench("density_sim/transport_kraus_3ququarts", || {
            rho.apply_kraus_two(0, 1, black_box(&ks))
        });
    }
}
