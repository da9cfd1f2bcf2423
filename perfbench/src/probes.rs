//! Per-layer probes for traced runs: each times one layer's public entry
//! point in isolation, on the workload's own code and seed, so a traced
//! run can split the end-to-end time between layers without any timer
//! inside the program.

use crate::report::{Metric, Tally};
use crate::sub_seed;
use eraser_core::runtime::{MemoryRunner, RunConfig};
use eraser_core::{
    LeakageDetections, LrcPolicy, MemoryRunResult, PolicyKind, RoundContext, TierCounters,
};
use leak_sim::{BatchFrameSimulator, Discriminator, STRIPE_WIDTH};
use qec_core::{DetectorBasis, NoiseParams, Op, Rng};
use qec_decoder::{build_dem, DecodingGraph, DetectorErrorModel};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use surface_code::{LrcAssignment, MemoryExperiment, RotatedCode};

/// The detector error model and decoding graph of a memory-Z experiment,
/// built through the same public calls `MemoryRunner::new` makes.
pub struct Built {
    pub dem: DetectorErrorModel,
    pub graph: DecodingGraph,
    /// `surface_code` time: code, experiment, detectors and base circuit.
    pub experiment_s: f64,
    /// `qec_decoder` time: detector error model and decoding graph.
    pub dem_s: f64,
}

pub fn build_graph(d: usize, rounds: usize, noise: NoiseParams) -> Built {
    let t0 = Instant::now();
    let exp = MemoryExperiment::new(RotatedCode::new(d), noise, rounds);
    let detectors = exp.detectors();
    let observable = exp.observable_keys();
    let circuit = exp.base_circuit();
    let t1 = Instant::now();
    let dem = build_dem(&circuit, &detectors, &observable);
    let graph = DecodingGraph::from_dem(&dem, &detectors, DetectorBasis::Z);
    let t2 = Instant::now();
    Built {
        dem,
        graph,
        experiment_s: (t1 - t0).as_secs_f64(),
        dem_s: (t2 - t1).as_secs_f64(),
    }
}

/// Stripes the runner simulates for one run: its contiguous per-worker
/// shot split, each worker's range cut into full-width stripes.
pub fn stripes(shots: u64, threads: usize) -> u64 {
    let threads = (threads as u64).clamp(1, shots.max(1));
    let (base, extra) = (shots / threads, shots % threads);
    (0..threads)
        .map(|t| (base + u64::from(t < extra)).div_ceil(STRIPE_WIDTH as u64))
        .sum()
}

/// Mean µs of `BatchFrameSimulator::run_masked` over one LRC-free
/// syndrome round on a full 64-lane stripe, timed over whole shots for at
/// least `min_s` seconds.
pub fn stripe_round_us(d: usize, rounds: usize, noise: NoiseParams, seed: u64, min_s: f64) -> f64 {
    let exp = MemoryExperiment::new(RotatedCode::new(d), noise, rounds);
    let builder = exp.round_builder();
    let round_ops: Vec<Vec<Op>> = (0..rounds)
        .map(|r| {
            let round = builder.round(r, &[], exp.keys());
            let mut ops = round.pre;
            ops.extend(round.measure);
            ops.extend(round.mr_reset);
            ops.extend(round.post);
            ops
        })
        .collect();
    let init = exp.init_segment();
    let mut sim = BatchFrameSimulator::new(
        exp.code().num_qubits(),
        exp.keys().total(),
        noise,
        Discriminator::TwoLevel,
    );
    let mut busy = Duration::ZERO;
    let mut timed_rounds = 0u64;
    let mut stripe = 0u64;
    while busy.as_secs_f64() < min_s {
        let rngs: Vec<Rng> = (0..STRIPE_WIDTH as u64)
            .map(|lane| Rng::new(sub_seed(seed, stripe * STRIPE_WIDTH as u64 + lane)))
            .collect();
        sim.begin_stripe(&rngs);
        sim.run_masked(&init, !0);
        for ops in &round_ops {
            let t = Instant::now();
            sim.run_masked(black_box(ops), !0);
            busy += t.elapsed();
            timed_rounds += 1;
        }
        stripe += 1;
    }
    busy.as_secs_f64() * 1e6 / timed_rounds as f64
}

/// One `plan_round` call as the runtime made it, and what it returned.
struct Recorded {
    round: usize,
    events: Vec<bool>,
    leaked_readouts: Vec<bool>,
    oracle: Vec<bool>,
    last_lrcs: Vec<LrcAssignment>,
    plan: Vec<LrcAssignment>,
}

/// Recorded calls keyed by (policy instance, shot), so the interleaved
/// lanes of a stripe can be separated again.
type RecordLog = Arc<Mutex<Vec<((usize, u64), Recorded)>>>;

/// Wraps a policy and logs every context it is asked to plan.
struct Recorder {
    inner: Box<dyn LrcPolicy>,
    instance: usize,
    shot: u64,
    log: RecordLog,
}

impl LrcPolicy for Recorder {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn reset_shot(&mut self) {
        self.shot += 1;
        self.inner.reset_shot();
    }

    fn plan_round(&mut self, ctx: &RoundContext<'_>) -> Vec<LrcAssignment> {
        let plan = self.inner.plan_round(ctx);
        let record = Recorded {
            round: ctx.round,
            events: ctx.events.to_vec(),
            leaked_readouts: ctx.leaked_readouts.to_vec(),
            oracle: ctx.oracle_leaked_data.to_vec(),
            last_lrcs: ctx.last_lrcs.to_vec(),
            plan: plan.clone(),
        };
        self.log
            .lock()
            .expect("recorder log poisoned by a panicking policy")
            .push(((self.instance, self.shot), record));
        plan
    }

    fn uses_multilevel(&self) -> bool {
        self.inner.uses_multilevel()
    }

    fn leakage_detections(&self) -> Option<LeakageDetections<'_>> {
        self.inner.leakage_detections()
    }

    fn controller(&self) -> Option<&eraser_core::ControllerStats> {
        self.inner.controller()
    }
}

/// Shots recorded per policy: one full stripe.
const RECORD_SHOTS: u64 = STRIPE_WIDTH as u64;

/// Mean ns of one `LrcPolicy::plan_round` call per policy, replayed on the
/// contexts a real decode-free run of `runner` handed that policy. A
/// replayed plan that differs from the recorded one is a failed check.
pub fn policy_plan_ns(
    runner: &MemoryRunner,
    kinds: &[PolicyKind],
    seed: u64,
    min_s: f64,
    tally: &mut Tally,
) -> Vec<Metric> {
    let code = runner.experiment().code();
    kinds
        .iter()
        .map(|kind| {
            let log: RecordLog = Arc::default();
            let recording = {
                let (kind, log) = (kind.clone(), Arc::clone(&log));
                let instances = AtomicUsize::new(0);
                PolicyKind::custom(kind.label().to_string(), move |code| {
                    Box::new(Recorder {
                        inner: kind.build(code),
                        instance: instances.fetch_add(1, Ordering::Relaxed),
                        shot: 0,
                        log: Arc::clone(&log),
                    })
                })
            };
            let config = RunConfig {
                shots: RECORD_SHOTS,
                seed,
                threads: 1,
                decode: false,
                ..RunConfig::default()
            };
            runner.run(&|code| recording.build(code), &config);
            drop(recording);
            let log = std::mem::take(&mut *log.lock().expect("recorder log"));
            let mut shots: BTreeMap<(usize, u64), Vec<Recorded>> = BTreeMap::new();
            for (key, record) in log {
                shots.entry(key).or_default().push(record);
            }

            let mut policy = kind.build(code);
            let mut plans = Vec::new();
            let (mut busy, mut calls, mut mismatches) = (Duration::ZERO, 0u64, 0u64);
            while busy.as_secs_f64() < min_s {
                for shot in shots.values() {
                    policy.reset_shot();
                    plans.clear();
                    let t = Instant::now();
                    for r in shot {
                        plans.push(policy.plan_round(black_box(&RoundContext {
                            round: r.round,
                            events: &r.events,
                            leaked_readouts: &r.leaked_readouts,
                            oracle_leaked_data: &r.oracle,
                            last_lrcs: &r.last_lrcs,
                        })));
                    }
                    busy += t.elapsed();
                    calls += shot.len() as u64;
                    mismatches += shot
                        .iter()
                        .zip(&plans)
                        .filter(|(r, p)| r.plan != **p)
                        .count() as u64;
                }
            }
            let label = kind.label().replace('+', "-");
            tally.record(mismatches == 0 && calls > 0, || {
                format!("{label}: {mismatches} replayed plans differ from the recorded run")
            });
            Metric::new(
                format!("eraser_core.policy_plan_ns.{label}"),
                busy.as_secs_f64() * 1e9 / calls.max(1) as f64,
                "ns",
            )
        })
        .collect()
}

/// Decoder-side counters summed over a phase's runs.
#[derive(Debug, Default)]
pub struct DecodeTotals {
    /// Summed decode wall time, ns (`DecodeLatencyStats::total_nanos`).
    pub busy_ns: u64,
    /// Rounds those decodes settled.
    pub rounds: u64,
    pub tiers: TierCounters,
}

impl DecodeTotals {
    pub fn add(&mut self, r: &MemoryRunResult) {
        self.busy_ns += r.decode_latency.total_nanos();
        self.rounds += r.decode_latency.total_rounds();
        self.tiers.merge(&r.predecode);
    }

    /// The `qec_decoder` and `predecode` layer metrics of a phase with
    /// `thread_s` thread-seconds: its wall time times its worker threads.
    /// Wall-clock thread-time, not the kernel's CPU ticks, matches the
    /// wall-clock decode latencies: a guest whose vCPU the host deschedules
    /// charges no ticks while its clocks run on.
    pub fn layers(&self, thread_s: f64) -> Vec<Metric> {
        let busy_s = self.busy_ns as f64 * 1e-9;
        let per = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        let t = &self.tiers;
        vec![
            Metric::new("qec_decoder.busy_s", busy_s, "s"),
            Metric::new(
                "qec_decoder.share",
                if thread_s > 0.0 {
                    busy_s / thread_s
                } else {
                    0.0
                },
                "ratio",
            ),
            Metric::new("qec_decoder.windows", t.total() as f64, "count"),
            Metric::new(
                "qec_decoder.ns_per_round_mean",
                per(self.busy_ns, self.rounds),
                "ns",
            ),
            Metric::new("predecode.tier0_hits", t.hits[0] as f64, "count"),
            Metric::new("predecode.tier1_hits", t.hits[1] as f64, "count"),
            Metric::new("predecode.tier2_hits", t.hits[2] as f64, "count"),
            Metric::new("predecode.tier1_ns", per(t.nanos[1], t.hits[1]), "ns"),
            Metric::new("predecode.tier2_ns", per(t.nanos[2], t.hits[2]), "ns"),
            Metric::new(
                "predecode.fast_ratio",
                per(t.hits[0] + t.hits[1], t.total()),
                "ratio",
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripes_follow_the_runner_split() {
        assert_eq!(stripes(256, 2), 4);
        assert_eq!(stripes(128, 2), 2);
        assert_eq!(stripes(128, 1), 2);
        assert_eq!(stripes(256, 3), 6); // 86 + 85 + 85 shots
        assert_eq!(stripes(1, 8), 1);
    }
}
