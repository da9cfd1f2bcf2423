//! Memory-experiment runtime: policy-adaptive Monte-Carlo simulation with
//! decoding and the paper's metrics.
//!
//! Per shot, the runner executes `R` syndrome-extraction rounds. Before each
//! round it consults the [`LrcPolicy`] with the previous round's detection
//! events (and readout labels under multi-level readout), builds the round
//! circuit — SWAP-LRC or DQLR protocol — and executes it on the
//! leakage-aware frame simulator, handling ERASER+M's intra-round branch
//! (squash the swap-back and reset the parity qubit when the LRC's data
//! readout is |L⟩, §4.6.2). After the final transversal readout the Z-basis
//! detector graph is decoded and the logical-Z outcome compared.
//!
//! Shots run **stripe-at-a-time**: up to 64 shots are packed into one
//! word-parallel [`BatchFrameSimulator`] stripe, driven by a *static* round
//! schedule whose dynamic LRC decisions are resolved each round into
//! per-slot lane masks by the [`StripedPolicy`] layer. The runner holds
//! each protocol's schedule (`surface_code::MaskedRound`) only in compiled
//! form, built once with the runner: [`CompiledOp`]s with their channel
//! thresholds precomputed, grouped into blocks of consecutive ops that share
//! one condition. Each stripe-round resolves a block's mask once and skips
//! a block whose mask is empty — most LRC-slot blocks, in most rounds —
//! with one check. The standard policies (no-LRC, Always-LRC, ERASER,
//! ERASER+M, the oracle) plan every lane at once with a native word
//! planner; custom and adaptive policies run one scalar instance per lane
//! behind a per-lane adapter. Either way the policy's read path comes back as lane words,
//! which one erasure loop turns into each lane's erasure flags, drawing
//! each lane's detection-noise stream in a fixed order. After the stripe,
//! each lane's defects and logged erasures are fed to the worker's one
//! streaming decoder, lane by lane. Every shot owns its
//! RNG streams, so a shot's result does not depend on which stripe or lane
//! carries it — and a short run simply packs fewer lanes. The unit tests
//! hold every stripe width against a one-shot-at-a-time reference runner on
//! the scalar frame simulator, bit for bit.
//!
//! Decoding has one path: a [`WindowPlan`]. Each shot's per-round defects
//! and erasure flags are pushed into the worker's one [`WindowedDecoder`],
//! and windows of `window_rounds` rounds are decoded incrementally,
//! committing `window_stride` rounds each (the remaining buffer — keep it
//! ≥ d — is re-decoded by the next window). Peak decoder memory is then
//! O(window²) regardless of R, which is what makes long-memory workloads
//! (R ≫ d) decodable with MWPM at all. A [`RunConfig::window_rounds`] of 0,
//! or one longer than the round count, means one **full-cover** window: the
//! whole shot is one syndrome over the whole-experiment graph, decoded by
//! exactly the call a whole-shot decoder makes. Per-window decode latency
//! lands in [`MemoryRunResult::decode_latency`]. The backend is a
//! [`DecoderKind`], the decoding crate's own enum re-exported here; the run
//! resolves `Auto` against its window width before it keys or builds the
//! plan, so an `auto` run and the backend it picks share one cached plan.
//!
//! Metrics collected per run (paper §5.4, §6.4):
//!
//! * **LER** — logical error rate (Eq. 4);
//! * **LPR** — leakage population ratio per round (Eq. 5), probed between
//!   the entangling layers and the measurement layer, split into data/parity;
//! * **LRC count** — average LRCs per round (Table 4);
//! * **speculation stats** — TP/FP/FN/TN of "this data qubit is leaked"
//!   decisions against simulator ground truth (Fig 16).

use crate::cache::{ArtifactCache, ArtifactKind, CacheKey, ExperimentKey};
use crate::control::{ControllerStats, LeakageProfile};
use crate::policy::{at_least, LrcPolicy, StripeRoundContext, StripedPolicy};
use leak_sim::{BatchFrameSimulator, CompiledOp, Discriminator, STRIPE_WIDTH};
use qec_core::circuit::DetectorBasis;
use qec_core::{DetectorInfo, MeasKey, NoiseParams, Op, OpCond, Rng};
use qec_decoder::{
    build_dem, DecodingGraph, StreamingDecoder, TierCounters, WindowPlan, WindowedDecoder,
};
use std::ops::Range;
use std::sync::Arc;
use surface_code::{MaskedRound, MemoryBasis, MemoryExperiment, RotatedCode, SlotTable};

#[cfg(test)]
mod scalar_reference;

/// Decoder selection for a run: the decoding crate's backend vocabulary.
pub use qec_decoder::DecoderKind;

/// Which leakage-removal protocol the scheduled pairs execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LrcProtocol {
    /// SWAP-based LRC (Fig 1(b), the main text's protocol).
    #[default]
    Swap,
    /// Google's DQLR protocol (Appendix A.2).
    Dqlr,
}

/// Leakage-detection model for erasure-aware decoding.
///
/// When `enabled`, the runner reads each policy's per-round
/// [`LrcPolicy::leakage_detections`] flags, optionally perturbs them with an
/// imperfect-erasure-check model (independent per-qubit-per-round
/// false-positive/false-negative rates, after Chang et al. 2024, "Surface
/// Code with Imperfect Erasure Checks"), maps the surviving flags to the
/// exact heralded mechanisms' decoding-graph edges (fault provenance:
/// `ErrorMechanism::sources` +
/// [`DecodingGraph::erasure_edges_for_mechanism`]), and hands them to the
/// decoder as [`qec_decoder::Syndrome::erasures`].
///
/// Detection noise draws from a per-shot stream that is independent of the
/// simulator's, so enabling erasure decoding never changes the physical
/// shots: leakage-aware and leakage-blind runs of the same seed decode the
/// *same* error realizations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErasureDetection {
    /// Whether erasure information flows to the decoder at all.
    pub enabled: bool,
    /// Probability that an unflagged qubit is spuriously reported leaked
    /// (per qubit, per round).
    pub false_positive: f64,
    /// Probability that a flagged qubit's report is dropped (per flag).
    pub false_negative: f64,
}

impl Default for ErasureDetection {
    fn default() -> ErasureDetection {
        ErasureDetection {
            enabled: false,
            false_positive: 0.0,
            false_negative: 0.0,
        }
    }
}

impl ErasureDetection {
    /// Erasure decoding with the policy's flags passed through verbatim.
    pub fn perfect_readout() -> ErasureDetection {
        ErasureDetection {
            enabled: true,
            ..ErasureDetection::default()
        }
    }

    /// Erasure decoding under imperfect erasure checks.
    pub fn imperfect(false_positive: f64, false_negative: f64) -> ErasureDetection {
        ErasureDetection {
            enabled: true,
            false_positive,
            false_negative,
        }
    }
}

/// Monte-Carlo run configuration.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Number of shots.
    pub shots: u64,
    /// Root RNG seed. Every shot derives its own stream from (seed, shot
    /// index), so the whole run is a pure function of the seed — regardless
    /// of the worker-thread count.
    pub seed: u64,
    /// Worker threads; 0 means the `ERASER_THREADS` environment variable if
    /// set, else all available cores.
    pub threads: usize,
    /// Decoder selection. `Auto` resolves by the node-count rule in
    /// [`DecoderKind::resolve_window`].
    pub decoder: DecoderKind,
    /// Leakage-removal protocol executed for scheduled pairs.
    pub protocol: LrcProtocol,
    /// Whether to decode at all. LPR-only experiments (Fig 5, 15, 18, 21)
    /// disable decoding; `logical_errors` is then 0 and the LER meaningless.
    pub decode: bool,
    /// Erasure-aware decoding: thread the policy's leakage-detection flags
    /// into the decoder as dynamically reweighted (erased) edges.
    pub erasure: ErasureDetection,
    /// Sliding-window length in rounds for streaming decoding; 0 means one
    /// full-cover window (whole-shot decoding). A window larger than the
    /// round count is a full-cover window too.
    pub window_rounds: usize,
    /// Rounds committed (and advanced) per window; 0 derives the default
    /// `window_rounds − d` (clamped to ≥ 1), which keeps the re-decoded
    /// buffer at d rounds. Must not exceed `window_rounds`.
    pub window_stride: usize,
    /// Time-varying injected-leakage schedule (bursts, ramps). The runner
    /// applies the profile's per-round rate as an extra `LeakInject` on
    /// every data qubit at the top of each round, in every stripe lane.
    /// [`LeakageProfile::Stationary`] (the default) injects nothing.
    pub profile: LeakageProfile,
}

impl Default for RunConfig {
    fn default() -> RunConfig {
        RunConfig {
            shots: 1000,
            seed: 0x2023,
            threads: 0,
            decoder: DecoderKind::Auto,
            protocol: LrcProtocol::Swap,
            decode: true,
            erasure: ErasureDetection::default(),
            window_rounds: 0,
            window_stride: 0,
            profile: LeakageProfile::Stationary,
        }
    }
}

/// A malformed `ERASER_THREADS` environment override.
///
/// The variable sizes the worker pool and nothing else: results are
/// bit-identical for any value. A typo (`ERASER_THREADS=fuor`) is still an
/// error rather than a silent default, because a run meant to reproduce a
/// wall-clock measurement should not quietly use another pool size. The
/// `Experiment`/`Sweep` builders return it at build time, and the
/// low-level [`MemoryRunner::run`] path panics with its message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvOverrideError {
    /// The environment variable that failed to parse.
    pub var: &'static str,
    /// Its raw value.
    pub value: String,
    /// What was wrong with it.
    pub reason: &'static str,
}

impl std::fmt::Display for EnvOverrideError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid {}={:?}: {} (unset the variable or fix the value)",
            self.var, self.value, self.reason
        )
    }
}

impl std::error::Error for EnvOverrideError {}

/// Parses an `ERASER_THREADS` value: a positive worker count. An empty (or
/// all-whitespace) value counts as unset — CI matrix legs pass `""` to
/// mean "no override".
pub fn parse_threads_env(raw: &str) -> Result<Option<usize>, EnvOverrideError> {
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Ok(None);
    }
    let reason = match trimmed.parse::<usize>() {
        Ok(0) => "must be a positive integer",
        Ok(n) => return Ok(Some(n)),
        Err(_) => "not an integer",
    };
    Err(EnvOverrideError {
        var: "ERASER_THREADS",
        value: raw.to_string(),
        reason,
    })
}

impl RunConfig {
    /// The worker-thread count this configuration resolves to: `threads`
    /// itself; else the `ERASER_THREADS` environment variable (the CI test
    /// matrix's hook); else every available core. Results are bit-identical
    /// for any resolution — shots own their RNG streams — so this only
    /// affects wall-clock time. A malformed override is an error, never a
    /// silent default.
    pub fn resolved_threads(&self) -> Result<usize, EnvOverrideError> {
        if self.threads != 0 {
            return Ok(self.threads);
        }
        if let Ok(raw) = std::env::var("ERASER_THREADS") {
            if let Some(n) = parse_threads_env(&raw)? {
                return Ok(n);
            }
        }
        Ok(std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1))
    }

    /// Checks the `ERASER_THREADS` override this configuration would
    /// consult, so facades can reject a malformed environment eagerly (at
    /// build time) instead of deep inside a worker thread.
    pub fn validate_env(&self) -> Result<(), EnvOverrideError> {
        self.resolved_threads()?;
        Ok(())
    }
}

/// The RNG stream of one shot: a pure function of (root seed, global shot
/// index), independent of how shots are partitioned across worker threads —
/// this is what makes run results bit-identical for any thread count. The
/// multiplier is the SplitMix64 golden-ratio increment; [`Rng::new`] then
/// applies two full SplitMix64 mixes per state word, decorrelating adjacent
/// shot indices.
fn shot_rng(seed: u64, shot: u64) -> Rng {
    Rng::new(seed ^ shot.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The qubit operands of an op, for fault-provenance attribution (only
/// noise ops ever appear as mechanism sources, but the mapping is total).
fn op_operands(op: &Op) -> [Option<usize>; 2] {
    match *op {
        Op::H(q) | Op::Reset(q) => [Some(q), None],
        Op::Measure { qubit, .. }
        | Op::Depolarize1 { qubit, .. }
        | Op::XError { qubit, .. }
        | Op::LeakInject { qubit, .. }
        | Op::Seep { qubit, .. } => [Some(qubit), None],
        Op::Cnot { control, target } | Op::CnotNoTransport { control, target } => {
            [Some(control), Some(target)]
        }
        Op::Depolarize2 { a, b, .. } => [Some(a), Some(b)],
        Op::LeakIswap { data, parity } => [Some(data), Some(parity)],
        Op::Tick => [None, None],
    }
}

/// Confusion-matrix counts for per-round, per-data-qubit "leaked?" decisions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpeculationStats {
    /// LRC scheduled and the qubit was leaked.
    pub true_positive: u64,
    /// LRC scheduled but the qubit was not leaked.
    pub false_positive: u64,
    /// No LRC but the qubit was leaked.
    pub false_negative: u64,
    /// No LRC and the qubit was not leaked.
    pub true_negative: u64,
}

impl SpeculationStats {
    /// Fraction of correct decisions (Fig 16 top).
    pub fn accuracy(&self) -> f64 {
        let total =
            self.true_positive + self.false_positive + self.false_negative + self.true_negative;
        if total == 0 {
            return 1.0;
        }
        (self.true_positive + self.true_negative) as f64 / total as f64
    }

    /// False-positive rate FP/(FP+TN) (Fig 16 bottom).
    pub fn false_positive_rate(&self) -> f64 {
        let denom = self.false_positive + self.true_negative;
        if denom == 0 {
            return 0.0;
        }
        self.false_positive as f64 / denom as f64
    }

    /// False-negative rate FN/(FN+TP) (Fig 16 bottom).
    pub fn false_negative_rate(&self) -> f64 {
        let denom = self.false_negative + self.true_positive;
        if denom == 0 {
            return 0.0;
        }
        self.false_negative as f64 / denom as f64
    }

    fn merge(&mut self, other: &SpeculationStats) {
        self.true_positive += other.true_positive;
        self.false_positive += other.false_positive;
        self.false_negative += other.false_negative;
        self.true_negative += other.true_negative;
    }
}

/// Offline leakage post-selection statistics (the paper's §2.4 prior-work
/// category (1)): a shot is *flagged* when its syndrome history contains a
/// leakage-like pattern (some data qubit with at least half of its
/// neighbouring parity checks firing in one round — the LSB rule applied
/// offline). Post-selection discards flagged shots; it can clean up memory
/// experiments but cannot be used during real computation, which is the
/// paper's motivation for real-time suppression.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PostSelection {
    /// Shots whose syndrome history was flagged as leakage-suspect.
    pub flagged_shots: u64,
    /// Logical errors among the *unflagged* (kept) shots.
    pub errors_on_kept: u64,
}

impl PostSelection {
    /// Fraction of shots that survive post-selection.
    pub fn keep_fraction(&self, shots: u64) -> f64 {
        if shots == 0 {
            return 1.0;
        }
        (shots - self.flagged_shots) as f64 / shots as f64
    }

    /// Logical error rate over the kept shots.
    pub fn ler_postselected(&self, shots: u64) -> f64 {
        let kept = shots - self.flagged_shots;
        if kept == 0 {
            return 0.0;
        }
        self.errors_on_kept as f64 / kept as f64
    }

    fn merge(&mut self, other: &PostSelection) {
        self.flagged_shots += other.flagged_shots;
        self.errors_on_kept += other.errors_on_kept;
    }
}

/// Decode-latency distribution in nanoseconds **per committed round**,
/// aggregated over every decoded window of a run, each normalized by the
/// rounds it settled, so window geometries are directly comparable.
///
/// Samples land in histogram buckets, four equal sub-buckets per
/// power-of-two octave, which keeps the stats O(1) in memory and exactly
/// mergeable across worker threads. A reported quantile is its
/// sub-bucket's midpoint, within 12.5% of every sample in the sub-bucket:
/// fine enough to tell 768 from 1,000 ns/round on either side of a 1 µs
/// budget.
#[derive(Debug, Clone)]
pub struct DecodeLatencyStats {
    /// `buckets[4 * i + s]` counts samples with ns/round in the `s`-th
    /// quarter of `[2^i, 2^(i+1))`.
    buckets: [u64; LATENCY_BUCKETS],
    count: u64,
    total_nanos: u64,
    total_rounds: u64,
}

/// Histogram buckets of [`DecodeLatencyStats`]: four per octave of `u64`.
const LATENCY_BUCKETS: usize = 4 * 64;

impl Default for DecodeLatencyStats {
    fn default() -> DecodeLatencyStats {
        DecodeLatencyStats {
            buckets: [0; LATENCY_BUCKETS],
            count: 0,
            total_nanos: 0,
            total_rounds: 0,
        }
    }
}

impl DecodeLatencyStats {
    /// Records one decode call that took `nanos` and settled `rounds`.
    pub fn record(&mut self, nanos: u64, rounds: usize) {
        let rounds = rounds.max(1) as u64;
        let per_round = (nanos / rounds).max(1);
        let octave = 63 - per_round.leading_zeros();
        // The two bits below the leading one (zeros shifted in below 4).
        let quarter = if octave >= 2 {
            per_round >> (octave - 2)
        } else {
            per_round << (2 - octave)
        } & 3;
        self.buckets[4 * octave as usize + quarter as usize] += 1;
        self.count += 1;
        self.total_nanos += nanos;
        self.total_rounds += rounds;
    }

    /// Number of decode calls sampled.
    pub fn samples(&self) -> u64 {
        self.count
    }

    /// Mean ns per committed round (exact — computed from the raw totals).
    pub fn mean_ns_per_round(&self) -> f64 {
        if self.total_rounds == 0 {
            return 0.0;
        }
        self.total_nanos as f64 / self.total_rounds as f64
    }

    /// The `q`-quantile of ns/round, to bucket resolution (the midpoint of
    /// the winning quarter-octave bucket).
    ///
    /// Total on every input: an empty histogram returns 0.0; `q` is clamped
    /// into `[0, 1]` (`q ≤ 0` is the minimum bucket, `q ≥ 1` the maximum)
    /// and a non-finite `q` is treated as 0 — never NaN out, never a
    /// division, never a panic.
    pub fn quantile_ns_per_round(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = if q.is_finite() {
            q.clamp(0.0, 1.0)
        } else {
            0.0
        };
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0;
        for (i, &b) in self.buckets.iter().enumerate() {
            cumulative += b;
            if cumulative >= target {
                let (octave, quarter) = (i / 4, i % 4);
                return (1u64 << octave) as f64 * (9 + 2 * quarter) as f64 / 8.0;
            }
        }
        unreachable!("count is the sum of the buckets")
    }

    /// Total nanoseconds across all samples. Tier-0-skipped windows take no
    /// sample, so figure-level ns/round normalization must divide this by
    /// the *true* round count, not [`DecodeLatencyStats::samples`] × stride.
    pub fn total_nanos(&self) -> u64 {
        self.total_nanos
    }

    /// Total rounds settled across all samples.
    pub fn total_rounds(&self) -> u64 {
        self.total_rounds
    }

    /// Median ns/round.
    pub fn p50_ns_per_round(&self) -> f64 {
        self.quantile_ns_per_round(0.50)
    }

    /// 99th-percentile ns/round — the number a real-time decode budget has
    /// to absorb.
    pub fn p99_ns_per_round(&self) -> f64 {
        self.quantile_ns_per_round(0.99)
    }

    fn merge(&mut self, other: &DecodeLatencyStats) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.total_nanos += other.total_nanos;
        self.total_rounds += other.total_rounds;
    }
}

/// Aggregated result of a Monte-Carlo run.
#[derive(Debug, Clone)]
pub struct MemoryRunResult {
    /// Shots executed.
    pub shots: u64,
    /// Shots whose decoded logical-Z outcome was wrong.
    pub logical_errors: u64,
    /// Rounds per shot.
    pub rounds: usize,
    /// Per-round mean leaked fraction over all qubits (LPR, Eq. 5).
    pub lpr_total: Vec<f64>,
    /// Per-round mean leaked fraction over data qubits.
    pub lpr_data: Vec<f64>,
    /// Per-round mean leaked fraction over parity qubits.
    pub lpr_parity: Vec<f64>,
    /// Total LRCs scheduled across all shots and rounds.
    pub total_lrcs: u64,
    /// Total decoding-graph edges flagged as erased across all shots
    /// (deduplicated per shot; 0 unless erasure-aware decoding is enabled
    /// and the policy exposes detections).
    pub total_erasures: u64,
    /// Speculation confusion matrix.
    pub speculation: SpeculationStats,
    /// Offline post-selection statistics.
    pub postselection: PostSelection,
    /// Policy display name.
    pub policy: String,
    /// Decoder display name.
    pub decoder: String,
    /// Decode-latency distribution (ns per committed round): one sample per
    /// decoded window, always (a full-cover window is one per shot).
    /// Windows the predecoder skips (tier 0) take no sample.
    /// Empty when decoding is disabled.
    pub decode_latency: DecodeLatencyStats,
    /// Feedback-controller telemetry (escalations, rounds per mode,
    /// estimator trace stats). All-zero for static policies; see
    /// [`ControllerStats::is_active`].
    pub controller: ControllerStats,
    /// Tiered-predecoder telemetry: per-tier decode counts and nanos (tier
    /// 0 = skipped empty syndromes/windows, tier 1 = closed-form 1–2 defect
    /// decodes, tier 2 = full backend). All-zero when decoding is off; see
    /// [`TierCounters::is_active`].
    pub predecode: TierCounters,
}

impl MemoryRunResult {
    /// Logical error rate (Eq. 4).
    pub fn ler(&self) -> f64 {
        self.logical_errors as f64 / self.shots as f64
    }

    /// One-sigma binomial error bar on the LER.
    pub fn ler_stderr(&self) -> f64 {
        let p = self.ler();
        (p * (1.0 - p) / self.shots as f64).sqrt()
    }

    /// Mean LRCs scheduled per round (Table 4).
    pub fn lrcs_per_round(&self) -> f64 {
        self.total_lrcs as f64 / (self.shots as f64 * self.rounds as f64)
    }

    /// Mean LPR across all rounds.
    pub fn mean_lpr(&self) -> f64 {
        if self.lpr_total.is_empty() {
            return 0.0;
        }
        self.lpr_total.iter().sum::<f64>() / self.lpr_total.len() as f64
    }
}

/// One worker's share of a run's statistics, folded into the run result by
/// [`PartialStats::merge`].
#[derive(Default)]
struct PartialStats {
    logical_errors: u64,
    lpr_data_sum: Vec<f64>,
    lpr_parity_sum: Vec<f64>,
    total_lrcs: u64,
    total_erasures: u64,
    speculation: SpeculationStats,
    postselection: PostSelection,
    decode_latency: DecodeLatencyStats,
    controller: ControllerStats,
    predecode: TierCounters,
}

impl PartialStats {
    fn new(rounds: usize) -> PartialStats {
        PartialStats {
            lpr_data_sum: vec![0.0; rounds],
            lpr_parity_sum: vec![0.0; rounds],
            ..PartialStats::default()
        }
    }

    /// Folds another worker's statistics in. Every field is an integer
    /// count (the LPR sums too), so the fold is exact in any order.
    fn merge(&mut self, other: &PartialStats) {
        self.logical_errors += other.logical_errors;
        for (a, b) in self.lpr_data_sum.iter_mut().zip(&other.lpr_data_sum) {
            *a += b;
        }
        for (a, b) in self.lpr_parity_sum.iter_mut().zip(&other.lpr_parity_sum) {
            *a += b;
        }
        self.total_lrcs += other.total_lrcs;
        self.total_erasures += other.total_erasures;
        self.speculation.merge(&other.speculation);
        self.postselection.merge(&other.postselection);
        self.decode_latency.merge(&other.decode_latency);
        self.controller.merge(&other.controller);
        self.predecode.merge(&other.predecode);
    }

    /// Seals a shot whose rounds are all pushed into `stream` and folds it
    /// in: the window latency samples, the shot's erasure count
    /// (deduplicated in place — adjacent flagged qubits share checks, and
    /// flags persist across rounds), and whether the decoded flip missed
    /// the `actual` observable flip.
    fn finish_shot(
        &mut self,
        stream: &mut WindowedDecoder<'_>,
        erasures: &mut Vec<usize>,
        actual: bool,
        suspect: bool,
    ) {
        let outcome = stream.finish();
        for &(nanos, committed) in stream.window_latencies() {
            self.decode_latency.record(nanos, committed as usize);
        }
        erasures.sort_unstable();
        erasures.dedup();
        self.total_erasures += erasures.len() as u64;
        if outcome.flip != actual {
            self.logical_errors += 1;
            if !suspect {
                self.postselection.errors_on_kept += 1;
            }
        }
    }
}

/// A run of consecutive ops of one [`RoundProgram`] segment that share one
/// condition: its lane mask is resolved once, and an empty mask skips the
/// whole run with one check.
#[derive(Debug, Clone, Copy)]
struct Block {
    cond: OpCond,
    /// The block's ops, as a range of [`RoundProgram::ops`].
    start: u32,
    end: u32,
}

/// A static round schedule ([`MaskedRound`]) compiled once, when the runner
/// is built: the schedule's ops in order as [`CompiledOp`]s (minus the ops
/// that never act), grouped into [`Block`]s per segment.
///
/// Running the program is exactly running the schedule: the same ops in the
/// same order under the same masks, so every lane makes the same draws. A
/// block's mask equals each of its ops' masks because masks do not change
/// within a segment: `Always`, `Slot` and `StabFree` are fixed for the
/// round, and the label conditions read record words that only a `Measure`
/// writes — and no label-conditioned block contains one.
#[derive(Debug, Clone, Default)]
struct RoundProgram {
    ops: Vec<CompiledOp>,
    blocks: Vec<Block>,
    /// `blocks[segments[i]..segments[i + 1]]` is segment `i` of `pre`,
    /// `measure`, `mr_reset`, `tails`, `post`.
    segments: [usize; 6],
}

impl RoundProgram {
    /// The segments before the LPR probe (`pre`).
    const BEFORE_PROBE: Range<usize> = 0..1;
    /// The segments after it (`measure` through `post`).
    const AFTER_PROBE: Range<usize> = 1..5;

    fn compile(round: &MaskedRound) -> RoundProgram {
        let segments = [
            &round.pre,
            &round.measure,
            &round.mr_reset,
            &round.tails,
            &round.post,
        ];
        let mut program = RoundProgram {
            ops: Vec::with_capacity(segments.iter().map(|s| s.len()).sum()),
            ..RoundProgram::default()
        };
        for (i, segment) in segments.into_iter().enumerate() {
            for mop in segment {
                let Some(op) = CompiledOp::compile(&mop.op) else {
                    continue;
                };
                let at = program.ops.len() as u32;
                program.ops.push(op);
                match program.blocks[program.segments[i]..].last_mut() {
                    Some(block) if block.cond == mop.cond => block.end = at + 1,
                    _ => program.blocks.push(Block {
                        cond: mop.cond,
                        start: at,
                        end: at + 1,
                    }),
                }
            }
            program.segments[i + 1] = program.blocks.len();
        }
        program.blocks.shrink_to_fit();
        program
    }

    /// The blocks of `segments` (a range of segment indices).
    fn blocks(&self, segments: Range<usize>) -> &[Block] {
        &self.blocks[self.segments[segments.start]..self.segments[segments.end]]
    }

    fn block_ops(&self, block: &Block) -> &[CompiledOp] {
        &self.ops[block.start as usize..block.end as usize]
    }

    fn approx_bytes(&self) -> usize {
        self.ops.len() * std::mem::size_of::<CompiledOp>()
            + self.blocks.len() * std::mem::size_of::<Block>()
    }
}

/// Reusable memory-experiment runner: owns the experiment description, the
/// detector list, and the decoding graph (built once from the base no-LRC
/// circuit — the decoder's *error model* is LRC- and leakage-unaware, the
/// paper's premise; leakage-detection flags can still reach the decoder at
/// runtime as erasures, see [`ErasureDetection`]).
#[derive(Debug)]
pub struct MemoryRunner {
    exp: MemoryExperiment,
    detectors: Vec<DetectorInfo>,
    observable: Vec<MeasKey>,
    graph: DecodingGraph,
    init_segment: Vec<Op>,
    final_segment: Vec<Op>,
    /// Per stabilizer: whether its round-0 outcome is deterministic (it
    /// belongs to the memory basis) and hence produces a round-0 event.
    stab_deterministic_round0: Vec<bool>,
    /// The enumerable LRC slots of the code, in canonical `(data, stab)`
    /// order — the address space of the striped runtime's per-round
    /// schedule bitmasks.
    slot_table: SlotTable,
    /// The SWAP-protocol round schedule, compiled (round-0 keys; the
    /// executor adds the round's key offset).
    swap_program: RoundProgram,
    /// The DQLR-protocol round schedule, compiled.
    dqlr_program: RoundProgram,
    /// Detectors of the decoded basis grouped by round, as `(detector index,
    /// graph node)` pairs in ascending node order — the streaming path's
    /// per-round read schedule (detector round r is fully measured once
    /// simulation round r completes; the final transversal detectors carry
    /// round = rounds and complete with the final segment).
    detector_nodes_by_round: Vec<Vec<(u32, u32)>>,
    /// Provenance buckets `(round, qubit) -> sorted erased-edge indices`:
    /// every decoding-graph edge fed by a fault mechanism whose circuit
    /// location touched `qubit` during `round`. A leakage flag on a qubit
    /// erases exactly these — the heralded mechanisms — via
    /// [`ErrorMechanism::sources`] and
    /// [`DecodingGraph::erasure_edges_for_mechanism`]. Hand-derived edge
    /// sets (detector stars, or space/time edges picked by geometry) are
    /// measurably wrong here: mid-round fault injection lands on diagonal
    /// space-time edges that geometric reasoning misses.
    qubit_round_edges: Vec<Vec<usize>>,
}

/// The decode-path artifacts resolved for one (runner, config) pair: the
/// window plan (a full-cover window is a chain of one), `Arc`-shared so an
/// [`ArtifactCache`] can hand one build to many runs. Built by
/// [`MemoryRunner::decode_artifacts`]; consumed by
/// [`MemoryRunner::run_with_artifacts`].
#[derive(Debug, Clone)]
pub struct DecodeArtifacts {
    plan: Option<Arc<WindowPlan>>,
}

impl DecodeArtifacts {
    /// Whether the run will decode at all.
    pub fn decodes(&self) -> bool {
        self.plan.is_some()
    }

    /// The window plan every decode runs through (`None` when decoding is
    /// disabled).
    pub(crate) fn window_plan(&self) -> Option<&WindowPlan> {
        self.plan.as_deref()
    }

    /// The decoder name a run with these artifacts reports in
    /// [`MemoryRunResult::decoder`]: the window backend, `"none"` when
    /// decoding is disabled.
    pub fn decoder_name(&self) -> String {
        self.window_plan()
            .map_or("none".to_string(), |plan| plan.backend().to_string())
    }

    /// One runtime worker's streaming decoder (`None` when decoding is
    /// disabled): the plan's sequential window chain, fronted by the tiered
    /// predecoder.
    fn stream(&self) -> Option<WindowedDecoder<'_>> {
        Some(self.window_plan()?.streaming())
    }
}

impl MemoryRunner {
    /// Builds the runner for a distance-`d` memory-Z experiment over `rounds`
    /// rounds under `noise` (the paper's workload).
    pub fn new(d: usize, noise: NoiseParams, rounds: usize) -> MemoryRunner {
        MemoryRunner::new_with_basis(d, noise, rounds, MemoryBasis::Z)
    }

    /// Builds the runner for a memory experiment preserving the given logical
    /// basis.
    pub fn new_with_basis(
        d: usize,
        noise: NoiseParams,
        rounds: usize,
        basis: MemoryBasis,
    ) -> MemoryRunner {
        let code = RotatedCode::new(d);
        let exp = MemoryExperiment::new_with_basis(code, noise, rounds, basis);
        let detectors = exp.detectors();
        let observable = exp.observable_keys();
        let base_circuit = exp.base_circuit();
        let dem = build_dem(&base_circuit, &detectors, &observable);
        let graph_basis = match basis {
            MemoryBasis::Z => DetectorBasis::Z,
            MemoryBasis::X => DetectorBasis::X,
        };
        let graph = DecodingGraph::from_dem(&dem, &detectors, graph_basis);
        debug_assert_eq!(
            graph.undetectable_observable_flips(),
            0,
            "observable flips must be detectable in the memory basis"
        );
        let init_segment = exp.init_segment();
        let final_segment = exp.final_segment();
        let stab_deterministic_round0 = exp
            .code()
            .stabilizers()
            .iter()
            .map(|s| s.kind == basis.stab_kind())
            .collect();
        // Attribute every op of the base circuit to its round (init → round
        // 0, final readout → the last round), mirroring how `base_circuit`
        // concatenates its segments. The rebuilt sequence is asserted
        // op-for-op against the real circuit, so a future change to
        // `base_circuit`'s composition cannot silently shift round
        // boundaries (which would attribute provenance buckets — and hence
        // erased edges — to the wrong rounds).
        let builder = exp.round_builder();
        let mut op_round = Vec::with_capacity(base_circuit.ops().len());
        let mut rebuilt = init_segment.clone();
        op_round.resize(init_segment.len(), 0);
        for r in 0..rounds {
            let round = builder.round(r, &[], exp.keys());
            let n = round.pre.len() + round.measure.len() + round.mr_reset.len();
            rebuilt.extend(round.pre);
            rebuilt.extend(round.measure);
            rebuilt.extend(round.mr_reset);
            op_round.resize(op_round.len() + n, r);
        }
        rebuilt.extend_from_slice(&final_segment);
        op_round.resize(op_round.len() + final_segment.len(), rounds - 1);
        assert_eq!(
            rebuilt.as_slice(),
            base_circuit.ops(),
            "op->round attribution must mirror base_circuit's exact layout"
        );

        // Provenance buckets: for every mechanism, credit its edges to each
        // (round, qubit) its source fault ops touched.
        let num_qubits = exp.code().num_qubits();
        let mut qubit_round_edges: Vec<Vec<usize>> = vec![Vec::new(); rounds * num_qubits];
        for (mi, mech) in dem.mechanisms.iter().enumerate() {
            let medges = graph.erasure_edges_for_mechanism(mi);
            if medges.is_empty() {
                continue;
            }
            for &src in &mech.sources {
                let r = op_round[src as usize];
                for q in op_operands(&base_circuit.ops()[src as usize])
                    .into_iter()
                    .flatten()
                {
                    qubit_round_edges[r * num_qubits + q].extend_from_slice(medges);
                }
            }
        }
        for bucket in &mut qubit_round_edges {
            bucket.sort_unstable();
            bucket.dedup();
        }

        let slot_table = SlotTable::new(exp.code());
        let swap_program = RoundProgram::compile(&builder.masked_round(&slot_table, exp.keys()));
        let dqlr_program =
            RoundProgram::compile(&builder.masked_dqlr_round(&slot_table, exp.keys()));

        let mut detector_nodes_by_round: Vec<Vec<(u32, u32)>> = vec![Vec::new(); rounds + 1];
        for (di, det) in detectors.iter().enumerate() {
            if let Some(node) = graph.node_of_detector(di) {
                detector_nodes_by_round[det.round].push((di as u32, node as u32));
            }
        }

        MemoryRunner {
            exp,
            detectors,
            observable,
            graph,
            init_segment,
            final_segment,
            slot_table,
            swap_program,
            dqlr_program,
            stab_deterministic_round0,
            detector_nodes_by_round,
            qubit_round_edges,
        }
    }

    /// The experiment description.
    pub fn experiment(&self) -> &MemoryExperiment {
        &self.exp
    }

    /// The Z-basis decoding graph.
    pub fn graph(&self) -> &DecodingGraph {
        &self.graph
    }

    /// Appends the decoding-graph edges erased by a leakage flag on `qubit`
    /// (data or parity, as a global qubit id) believed leaked across
    /// `rounds` (plan-round window): exactly the edges fed by fault
    /// mechanisms whose circuit location touched the qubit there. Every
    /// operation touching a leaked qubit is heralded-faulty — a CNOT kicks a
    /// uniformly random Pauli onto the partner, a measurement reads a random
    /// value — so the provenance bucket *is* the heralded-mechanism set.
    fn extend_qubit_erasures(
        &self,
        rounds: std::ops::RangeInclusive<usize>,
        qubit: usize,
        out: &mut Vec<usize>,
    ) {
        let num_qubits = self.exp.code().num_qubits();
        let last = self.exp.rounds() - 1;
        for r in rounds {
            if r > last {
                continue;
            }
            out.extend_from_slice(&self.qubit_round_edges[r * num_qubits + qubit]);
        }
    }

    /// The content identity of this runner — runs sharing it share every
    /// decode artifact bit-for-bit. See [`ExperimentKey`].
    pub fn cache_key(&self) -> ExperimentKey {
        ExperimentKey::new(
            self.exp.code().distance(),
            self.exp.rounds(),
            self.exp.basis(),
            self.exp.noise(),
        )
    }

    /// Approximate heap footprint of the runner itself (DEM-derived graph,
    /// compiled round programs and the init/final segments, provenance
    /// buckets), for size-bounded caches.
    pub fn approx_bytes(&self) -> usize {
        let buckets: usize = self
            .qubit_round_edges
            .iter()
            .map(|b| b.len() * std::mem::size_of::<usize>())
            .sum();
        let detectors = self.detectors.len() * std::mem::size_of::<DetectorInfo>();
        let segments =
            (self.init_segment.len() + self.final_segment.len()) * std::mem::size_of::<Op>();
        let programs = self.swap_program.approx_bytes() + self.dqlr_program.approx_bytes();
        // Per-edge/node constants are rough: endpoints, weight, provenance
        // vectors' headers.
        let graph = self.graph.edges().len() * 64 + self.graph.num_nodes() * 16;
        buckets + detectors + segments + programs + graph
    }

    /// The `(window, stride)` geometry `config` resolves to on this runner.
    /// A window of 0, or one longer than the round count, is one full-cover
    /// window (span = stride = every detector round).
    fn resolved_geometry(&self, config: &RunConfig) -> (usize, usize) {
        let (window, stride) = (config.window_rounds, config.window_stride);
        if window == 0 || window > self.exp.rounds() {
            let span = self.graph.max_round() + 1;
            return (span, span);
        }
        let stride = if stride == 0 {
            window.saturating_sub(self.exp.code().distance()).max(1)
        } else {
            stride.min(window)
        };
        (window, stride)
    }

    /// The decoder `config` resolves to on this runner: the configured
    /// kind, with `Auto` resolved against the graph each window decodes.
    /// Never returns [`DecoderKind::Auto`].
    pub fn resolved_decoder(&self, config: &RunConfig) -> DecoderKind {
        let (window, _) = self.resolved_geometry(config);
        config.decoder.resolve_window(&self.graph, window)
    }

    /// Resolves the decode-path artifacts for `config`: the window plan.
    /// With a cache, the plan is fetched by content key and shared across
    /// runs (and across content-identical runners); without one it is built
    /// fresh — the results are bit-identical either way, because the plan
    /// is a deterministic function of the key.
    ///
    /// Cannot fail: the error type is [`std::convert::Infallible`]. The
    /// `Result` shape is kept so existing callers' `.expect` still compiles.
    pub fn decode_artifacts(
        &self,
        config: &RunConfig,
        cache: Option<&ArtifactCache>,
    ) -> Result<DecodeArtifacts, std::convert::Infallible> {
        if !config.decode {
            return Ok(DecodeArtifacts { plan: None });
        }
        let (window, stride) = self.resolved_geometry(config);
        // Resolved before keying, so an `auto` run shares the plan of the
        // backend it picks.
        let backend = self.resolved_decoder(config);
        let plan = match cache {
            Some(cache) => cache.get_or_build(
                &CacheKey {
                    experiment: self.cache_key(),
                    kind: ArtifactKind::WindowPlan {
                        window,
                        stride,
                        backend,
                    },
                },
                WindowPlan::approx_decoder_bytes,
                || WindowPlan::new(&self.graph, window, stride, backend),
            ),
            None => Arc::new(WindowPlan::new(&self.graph, window, stride, backend)),
        };
        Ok(DecodeArtifacts { plan: Some(plan) })
    }

    /// Runs `config.shots` shots of the experiment under the policy produced
    /// by `policy_factory` (one instance per worker thread).
    ///
    /// Builds the decode artifacts fresh (no cache); callers that reuse
    /// artifacts across runs — the `Sweep` engine, `eraser-serve` — resolve
    /// them once via [`MemoryRunner::decode_artifacts`] and call
    /// [`MemoryRunner::run_with_artifacts`].
    ///
    /// # Panics
    ///
    /// Panics if `config.shots == 0`, or on a malformed `ERASER_THREADS`
    /// environment override (the `Experiment`/`Sweep` facades validate the
    /// environment at build time and surface the same condition as an
    /// `Err` instead).
    pub fn run(
        &self,
        policy_factory: &(dyn Fn(&RotatedCode) -> Box<dyn LrcPolicy> + Sync),
        config: &RunConfig,
    ) -> MemoryRunResult {
        let Ok(artifacts) = self.decode_artifacts(config, None);
        self.run_with_artifacts(policy_factory, config, &artifacts)
    }

    /// [`MemoryRunner::run`] with pre-resolved decode artifacts.
    ///
    /// `artifacts` must come from [`MemoryRunner::decode_artifacts`] on a
    /// content-identical runner with this `config` (same decoder selection
    /// and window geometry). Results are bit-identical to [`run`] — the
    /// artifacts are deterministic, so sharing them cannot change a single
    /// decode.
    ///
    /// # Panics
    ///
    /// Panics if `config.shots == 0`, or on a malformed `ERASER_THREADS`
    /// environment override.
    ///
    /// [`run`]: MemoryRunner::run
    pub fn run_with_artifacts(
        &self,
        policy_factory: &(dyn Fn(&RotatedCode) -> Box<dyn LrcPolicy> + Sync),
        config: &RunConfig,
        artifacts: &DecodeArtifacts,
    ) -> MemoryRunResult {
        self.run_workers(policy_factory, config, artifacts, |first, count| {
            self.run_stripes(
                first,
                count,
                STRIPE_WIDTH,
                policy_factory,
                artifacts,
                config,
            )
        })
    }

    /// Splits the run's shots into one contiguous range per worker thread,
    /// runs `worker(first_shot, shots)` on each, and folds the workers'
    /// statistics into the run result.
    fn run_workers(
        &self,
        policy_factory: &(dyn Fn(&RotatedCode) -> Box<dyn LrcPolicy> + Sync),
        config: &RunConfig,
        artifacts: &DecodeArtifacts,
        worker: impl Fn(u64, u64) -> PartialStats + Sync,
    ) -> MemoryRunResult {
        assert!(config.shots >= 1, "a run needs at least one shot");
        let threads = config
            .resolved_threads()
            .unwrap_or_else(|e| panic!("{e}"))
            .min(config.shots.max(1) as usize)
            .max(1);
        // Contiguous shot ranges per worker. Every shot derives its own RNG
        // stream from (seed, global shot index) — see `shot_rng` — so the
        // partitioning affects wall-clock time only: results are
        // bit-identical for any thread count (all merged statistics are
        // integer-valued, so even the f64 LPR sums are exact).
        let mut jobs: Vec<(u64, u64)> = Vec::with_capacity(threads);
        let base = config.shots / threads as u64;
        let extra = (config.shots % threads as u64) as usize;
        let mut first = 0u64;
        for t in 0..threads {
            let count = base + u64::from(t < extra);
            jobs.push((first, count));
            first += count;
        }

        // The first job runs on the calling thread, so a one-worker run
        // spawns nothing. Partials stay in job order.
        let worker = &worker;
        let ((head_first, head_count), rest) =
            jobs.split_first().expect("a run has at least one worker");
        let partials: Vec<PartialStats> = std::thread::scope(|scope| {
            let handles: Vec<_> = rest
                .iter()
                .map(|&(first, count)| scope.spawn(move || worker(first, count)))
                .collect();
            let mut partials = vec![worker(*head_first, *head_count)];
            partials.extend(
                handles
                    .into_iter()
                    .map(|h| h.join().expect("worker panicked")),
            );
            partials
        });

        let rounds = self.exp.rounds();
        let mut merged = PartialStats::new(rounds);
        for p in &partials {
            merged.merge(p);
        }
        let code = self.exp.code();
        let shots_f = config.shots as f64;
        let num_data = code.num_data() as f64;
        let num_parity = code.num_stabs() as f64;
        let num_all = code.num_qubits() as f64;
        let lpr_data: Vec<f64> = merged
            .lpr_data_sum
            .iter()
            .map(|&s| s / (shots_f * num_data))
            .collect();
        let lpr_parity: Vec<f64> = merged
            .lpr_parity_sum
            .iter()
            .map(|&s| s / (shots_f * num_parity))
            .collect();
        let lpr_total: Vec<f64> = merged
            .lpr_data_sum
            .iter()
            .zip(&merged.lpr_parity_sum)
            .map(|(&d, &p)| (d + p) / (shots_f * num_all))
            .collect();
        let policy_name = policy_factory(code).name().to_string();
        MemoryRunResult {
            shots: config.shots,
            logical_errors: merged.logical_errors,
            rounds,
            lpr_total,
            lpr_data,
            lpr_parity,
            total_lrcs: merged.total_lrcs,
            total_erasures: merged.total_erasures,
            speculation: merged.speculation,
            postselection: merged.postselection,
            policy: policy_name,
            decoder: artifacts.decoder_name(),
            decode_latency: merged.decode_latency,
            controller: merged.controller,
            predecode: merged.predecode,
        }
    }

    /// Executes `segments` of a compiled round program on the stripe,
    /// resolving each block's condition to a lane mask once. `key_offset`
    /// rebases the program's round-0 measurement keys onto the current
    /// round.
    #[inline]
    fn exec_program(
        &self,
        sim: &mut BatchFrameSimulator,
        program: &RoundProgram,
        segments: Range<usize>,
        key_offset: usize,
        slot_masks: &[u64],
        stab_free: &[u64],
    ) {
        for block in program.blocks(segments) {
            let mask = match block.cond {
                OpCond::Always => sim.active(),
                OpCond::Slot(i) => slot_masks[i],
                OpCond::StabFree(s) => stab_free[s],
                // The ERASER+M intra-round branch: the LRC's data readout
                // (recorded this round under the slot's stabilizer key)
                // came back |L⟩. Labels are only ever set under multi-level
                // readout, so two-level policies always take the clean arm.
                OpCond::SlotLabelLeaked(i) => {
                    let key = key_offset + self.slot_table.slot(i).stab;
                    slot_masks[i] & sim.record().leaked_word(key)
                }
                OpCond::SlotLabelClean(i) => {
                    let key = key_offset + self.slot_table.slot(i).stab;
                    slot_masks[i] & !sim.record().leaked_word(key)
                }
            };
            if mask == 0 {
                continue;
            }
            for op in program.block_ops(block) {
                sim.apply_compiled(op, mask, key_offset);
            }
        }
    }

    /// One worker's shots, up to `width` (1..=[`STRIPE_WIDTH`]) per stripe
    /// on the [`BatchFrameSimulator`], with one static schedule per round
    /// executed under the policy layer's per-slot lane masks. Each lane's
    /// erasures are logged per round during the stripe; afterwards the
    /// worker's one streaming decoder decodes the lanes one at a time from
    /// the detector parity words. Runs always use [`STRIPE_WIDTH`]; the unit
    /// tests also run narrower stripes and hold every width to the
    /// one-shot-at-a-time reference runner, shot for shot.
    fn run_stripes(
        &self,
        first_shot: u64,
        shots: u64,
        width: usize,
        policy_factory: &(dyn Fn(&RotatedCode) -> Box<dyn LrcPolicy> + Sync),
        artifacts: &DecodeArtifacts,
        config: &RunConfig,
    ) -> PartialStats {
        let code = self.exp.code();
        let rounds = self.exp.rounds();
        let num_data = code.num_data();
        let num_stabs = code.num_stabs();
        let num_qubits = code.num_qubits();
        let slots = &self.slot_table;
        let program = match config.protocol {
            LrcProtocol::Swap => &self.swap_program,
            LrcProtocol::Dqlr => &self.dqlr_program,
        };

        let mut streaming = artifacts.stream();
        let erasure_active = config.erasure.enabled && streaming.is_some();
        let mut policy = StripedPolicy::new(policy_factory, code, width);
        let discriminator = if policy.uses_multilevel() {
            Discriminator::MultiLevel
        } else {
            Discriminator::TwoLevel
        };
        let mut sim = BatchFrameSimulator::new(
            num_qubits,
            self.exp.keys().total(),
            *self.exp.noise(),
            discriminator,
        );

        let mut stats = PartialStats::new(rounds);
        let mut sim_rngs: Vec<Rng> = Vec::with_capacity(width);
        let mut det_rngs: Vec<Rng> = Vec::with_capacity(width);
        let mut prev_syndrome = vec![0u64; num_stabs];
        let mut events = vec![0u64; num_stabs];
        let mut leaked_readouts = vec![0u64; num_stabs];
        let mut oracle = vec![0u64; num_data];
        let mut slot_masks = vec![0u64; slots.len()];
        let mut planned = vec![0u64; num_data];
        let mut stab_free = vec![0u64; num_stabs];
        let mut det_words = vec![0u64; self.detectors.len()];
        let mut round_defects: Vec<usize> = Vec::new();
        // Each lane's erasure edges in push order, and where each of its
        // rounds ends in that log (`erasure_ends[lane * rounds + r]`).
        let mut lane_erasures: Vec<Vec<usize>> = vec![Vec::new(); width];
        let mut erasure_ends = vec![0usize; width * rounds];

        let end = first_shot + shots;
        let mut shot = first_shot;
        while shot < end {
            let lanes = width.min((end - shot) as usize);
            // Lane l carries global shot `shot + l` with that shot's own
            // streams: the detection stream and its fork for the simulator
            // physics.
            sim_rngs.clear();
            det_rngs.clear();
            for l in 0..lanes as u64 {
                let mut det = shot_rng(config.seed, shot + l);
                sim_rngs.push(det.fork());
                det_rngs.push(det);
            }
            sim.begin_stripe(&sim_rngs);
            let active = sim.active();
            policy.reset_stripe(lanes);
            for log in &mut lane_erasures[..lanes] {
                log.clear();
            }
            sim.run_masked(&self.init_segment, active);
            prev_syndrome.fill(0);
            events.fill(0);
            leaked_readouts.fill(0);
            // Offline post-selection flags, one bit per lane.
            let mut suspect = 0u64;

            for r in 0..rounds {
                // Time-varying injected leakage, applied before the oracle
                // snapshot so even the idealized policy sees the storm the
                // round it lands; each active lane draws from its own
                // physics stream, in qubit order.
                let extra = config.profile.extra_leak_p(r);
                if extra > 0.0 {
                    for q in 0..num_data {
                        sim.apply_masked(&Op::LeakInject { qubit: q, p: extra }, active);
                    }
                }
                for (q, word) in oracle.iter_mut().enumerate() {
                    *word = sim.leak_word(q);
                }
                policy.plan_round(
                    &StripeRoundContext {
                        round: r,
                        events: &events,
                        leaked_readouts: &leaked_readouts,
                        oracle_leaked_data: &oracle,
                        active,
                    },
                    slots,
                    &mut slot_masks,
                );
                // Confusion matrix and LRC count, word-parallel.
                planned.fill(0);
                for (i, &mask) in slot_masks.iter().enumerate() {
                    if mask != 0 {
                        planned[slots.slot(i).data] |= mask;
                        stats.total_lrcs += mask.count_ones() as u64;
                    }
                }
                for q in 0..num_data {
                    let p = planned[q];
                    let o = oracle[q] & active;
                    stats.speculation.true_positive += (p & o).count_ones() as u64;
                    stats.speculation.false_positive += (p & !o).count_ones() as u64;
                    stats.speculation.false_negative += (!p & o).count_ones() as u64;
                    stats.speculation.true_negative += (!p & !o & active).count_ones() as u64;
                }

                if erasure_active {
                    if let Some(det) = policy.detections() {
                        // Per-lane detection noise, drawing each lane's
                        // stream in a fixed order (data, data_returned,
                        // parity, each in ascending index). Every flag
                        // erases the provenance bucket of the flagged qubit
                        // over its believed-leaked window: data flags cover
                        // the evidence round and the current one; a
                        // returned qubit's random state shows up in the same
                        // window; a parity |L⟩ readout pins the
                        // (reset-bounded) leak to the previous round alone.
                        // A returned qubit takes no false-positive draw: it
                        // already took its one per-round draw in the `data`
                        // loop.
                        let fp = config.erasure.false_positive;
                        let fnr = config.erasure.false_negative;
                        // With exact checks (fp = 0) an unflagged entry
                        // draws nothing, so only lanes with a flag have
                        // work.
                        let mut lanes_left = det.lanes;
                        if fp <= 0.0 {
                            lanes_left &= [det.data, det.data_returned, det.parity]
                                .iter()
                                .flat_map(|words| words.iter())
                                .fold(0, |acc, &w| acc | w);
                        }
                        while lanes_left != 0 {
                            let lane = lanes_left.trailing_zeros() as usize;
                            lanes_left &= lanes_left - 1;
                            let flag = |word: u64| word >> lane & 1 != 0;
                            let det_rng = &mut det_rngs[lane];
                            let erasures = &mut lane_erasures[lane];
                            for (q, &word) in det.data.iter().enumerate() {
                                let reported = if flag(word) {
                                    !det_rng.bernoulli(fnr)
                                } else {
                                    det_rng.bernoulli(fp)
                                };
                                if reported {
                                    self.extend_qubit_erasures(
                                        r.saturating_sub(1)..=r,
                                        q,
                                        erasures,
                                    );
                                }
                            }
                            for (q, &word) in det.data_returned.iter().enumerate() {
                                if flag(word) && !det_rng.bernoulli(fnr) {
                                    self.extend_qubit_erasures(
                                        r.saturating_sub(2)..=r,
                                        q,
                                        erasures,
                                    );
                                }
                            }
                            for (s, &word) in det.parity.iter().enumerate() {
                                let reported = if flag(word) {
                                    !det_rng.bernoulli(fnr)
                                } else {
                                    det_rng.bernoulli(fp)
                                };
                                if reported && r > 0 {
                                    let parity = code.parity_qubit(s);
                                    self.extend_qubit_erasures(r - 1..=r - 1, parity, erasures);
                                }
                            }
                        }
                    }
                }
                for (lane, log) in lane_erasures[..lanes].iter().enumerate() {
                    erasure_ends[lane * rounds + r] = log.len();
                }

                for (s, free) in stab_free.iter_mut().enumerate() {
                    let mut busy = 0u64;
                    for &i in slots.slots_on_stab(s) {
                        busy |= slot_masks[i];
                    }
                    *free = active & !busy;
                }

                let key_offset = r * num_stabs;
                self.exec_program(
                    &mut sim,
                    program,
                    RoundProgram::BEFORE_PROBE,
                    key_offset,
                    &slot_masks,
                    &stab_free,
                );
                // LPR probe: after the entangling layers, before readout.
                stats.lpr_data_sum[r] += sim.leaked_count_in(0..num_data) as f64;
                stats.lpr_parity_sum[r] += sim.leaked_count_in(num_data..num_qubits) as f64;
                self.exec_program(
                    &mut sim,
                    program,
                    RoundProgram::AFTER_PROBE,
                    key_offset,
                    &slot_masks,
                    &stab_free,
                );

                for s in 0..num_stabs {
                    let flip = sim.record().flip_word(key_offset + s);
                    events[s] = if r == 0 {
                        if self.stab_deterministic_round0[s] {
                            flip
                        } else {
                            0
                        }
                    } else {
                        flip ^ prev_syndrome[s]
                    };
                    prev_syndrome[s] = flip;
                    leaked_readouts[s] = sim.record().leaked_word(key_offset + s);
                }
                // The offline LSB rule, word-parallel: flag lanes in which
                // at least half of some data qubit's neighbouring checks
                // fired this round.
                if suspect != active {
                    for q in 0..num_data {
                        let adj = code.adjacent_stabs(q);
                        suspect |= at_least(adj.iter().map(|&s| events[s]), adj.len().div_ceil(2));
                    }
                    suspect &= active;
                }
            }
            sim.run_masked(&self.final_segment, active);

            stats.postselection.flagged_shots += suspect.count_ones() as u64;
            if let Some(stream) = streaming.as_mut() {
                // Detector parities for all lanes at once; each lane then
                // streams its defects round by round (ascending node
                // order) with its logged erasures, and is sealed before the
                // next lane begins.
                for round in &self.detector_nodes_by_round {
                    for &(di, _) in round {
                        let di = di as usize;
                        det_words[di] = sim.record().parity_word(&self.detectors[di].keys);
                    }
                }
                let actual = sim.record().parity_word(&self.observable);
                for (lane, erasures) in lane_erasures[..lanes].iter_mut().enumerate() {
                    stream.begin_shot();
                    let mut start = 0;
                    for (r, round) in self.detector_nodes_by_round.iter().enumerate() {
                        round_defects.clear();
                        for &(di, node) in round {
                            if det_words[di as usize] >> lane & 1 != 0 {
                                round_defects.push(node as usize);
                            }
                        }
                        // The final transversal round carries no erasures.
                        let end = if r < rounds {
                            erasure_ends[lane * rounds + r]
                        } else {
                            start
                        };
                        stream.push_round(&round_defects, &erasures[start..end]);
                        start = end;
                    }
                    stats.finish_shot(
                        stream,
                        erasures,
                        actual >> lane & 1 != 0,
                        suspect >> lane & 1 != 0,
                    );
                }
            }
            shot += lanes as u64;
        }
        // Controller telemetry accumulates per lane across the worker's
        // stripes; harvest each lane once (sum/max merge is order-free).
        // Same for the predecoder's tier counters.
        for lane in 0..width {
            if let Some(controller) = policy.lane_controller(lane) {
                stats.controller.merge(controller);
            }
        }
        if let Some(stream) = streaming.as_ref() {
            stats.predecode.merge(stream.tier_counters());
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{AlwaysLrcPolicy, EraserPolicy, NoLrcPolicy, OptimalPolicy};

    fn cfg(shots: u64) -> RunConfig {
        RunConfig {
            shots,
            seed: 11,
            threads: 2,
            ..RunConfig::default()
        }
    }

    #[test]
    fn noiseless_run_has_zero_ler() {
        let runner = MemoryRunner::new(3, NoiseParams::without_leakage(0.0), 3);
        let result = runner.run(&|_| Box::new(NoLrcPolicy::new()), &cfg(50));
        assert_eq!(result.logical_errors, 0);
        assert!(result.lpr_total.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn pauli_only_noise_gives_small_ler() {
        let runner = MemoryRunner::new(3, NoiseParams::without_leakage(1e-3), 3);
        let result = runner.run(&|_| Box::new(NoLrcPolicy::new()), &cfg(400));
        assert!(
            result.ler() < 0.1,
            "LER {} too high for p=1e-3 d=3",
            result.ler()
        );
    }

    #[test]
    fn results_are_deterministic_for_fixed_seed_and_threads() {
        let runner = MemoryRunner::new(3, NoiseParams::standard(1e-3), 3);
        let a = runner.run(&|c| Box::new(EraserPolicy::new(c)), &cfg(120));
        let b = runner.run(&|c| Box::new(EraserPolicy::new(c)), &cfg(120));
        assert_eq!(a.logical_errors, b.logical_errors);
        assert_eq!(a.total_lrcs, b.total_lrcs);
        assert_eq!(a.speculation, b.speculation);
    }

    /// Shots own their RNG streams, so the worker-thread partitioning must
    /// not change anything — including with leakage-aware decoding (whose
    /// detection-noise stream is also per-shot).
    #[test]
    fn results_are_bit_identical_across_thread_counts() {
        let runner = MemoryRunner::new(3, NoiseParams::standard(3e-3), 5);
        let run_with = |threads: usize| {
            let config = RunConfig {
                shots: 90,
                seed: 31,
                threads,
                decoder: DecoderKind::Mwpm,
                erasure: ErasureDetection::imperfect(0.01, 0.05),
                ..RunConfig::default()
            };
            runner.run(&|c| Box::new(EraserPolicy::new(c)), &config)
        };
        let one = run_with(1);
        for threads in [2usize, 4] {
            let multi = run_with(threads);
            assert_eq!(one.logical_errors, multi.logical_errors, "{threads}t");
            assert_eq!(one.total_lrcs, multi.total_lrcs, "{threads}t");
            assert_eq!(one.total_erasures, multi.total_erasures, "{threads}t");
            assert_eq!(one.speculation, multi.speculation, "{threads}t");
            assert_eq!(one.postselection, multi.postselection, "{threads}t");
            // The LPR sums accumulate integer counts, so even the f64
            // vectors are exactly reproducible.
            assert_eq!(one.lpr_total, multi.lpr_total, "{threads}t");
            assert_eq!(one.lpr_data, multi.lpr_data, "{threads}t");
            assert_eq!(one.lpr_parity, multi.lpr_parity, "{threads}t");
        }
    }

    #[test]
    fn erasure_aware_decoding_flags_edges_without_changing_physics() {
        let runner = MemoryRunner::new(3, NoiseParams::standard(5e-3), 8);
        let blind = runner.run(&|c| Box::new(EraserPolicy::with_multilevel(c)), &cfg(150));
        let config = RunConfig {
            erasure: ErasureDetection::perfect_readout(),
            ..cfg(150)
        };
        let aware = runner.run(&|c| Box::new(EraserPolicy::with_multilevel(c)), &config);
        assert!(aware.total_erasures > 0, "|L> flags must reach decoding");
        assert_eq!(blind.total_erasures, 0);
        // Same physics: the shots, LRC schedule, and speculation stats are
        // identical — only the decoding differs.
        assert_eq!(blind.total_lrcs, aware.total_lrcs);
        assert_eq!(blind.speculation, aware.speculation);
        assert_eq!(blind.lpr_total, aware.lpr_total);
        // Two-level ERASER has no erasure-grade herald: flags stay at zero
        // unless the imperfect-check model synthesizes false positives.
        let two_level = runner.run(&|c| Box::new(EraserPolicy::new(c)), &config);
        assert_eq!(two_level.total_erasures, 0);
        let noisy = RunConfig {
            erasure: ErasureDetection::imperfect(0.02, 0.0),
            ..cfg(150)
        };
        let synthetic = runner.run(&|c| Box::new(EraserPolicy::new(c)), &noisy);
        assert!(synthetic.total_erasures > 0, "FP model synthesizes flags");
        // Baselines without a detection read path stay leakage-blind.
        let none = runner.run(&|_| Box::new(NoLrcPolicy::new()), &noisy);
        assert_eq!(none.total_erasures, 0);
    }

    #[test]
    fn leakage_increases_lpr_over_rounds_without_lrcs() {
        let runner = MemoryRunner::new(3, NoiseParams::standard(5e-3), 9);
        let result = runner.run(&|_| Box::new(NoLrcPolicy::new()), &cfg(300));
        let early = result.lpr_total[0];
        let late = result.lpr_total[8];
        assert!(
            late > early,
            "LPR must grow without leakage removal: {early} vs {late}"
        );
    }

    #[test]
    fn optimal_policy_has_perfect_fpr() {
        let runner = MemoryRunner::new(3, NoiseParams::standard(1e-3), 6);
        let result = runner.run(&|c| Box::new(OptimalPolicy::new(c)), &cfg(200));
        assert_eq!(result.speculation.false_positive, 0);
        assert!(result.speculation.accuracy() > 0.999);
    }

    #[test]
    fn always_lrc_schedules_half_the_lattice_per_round() {
        let runner = MemoryRunner::new(3, NoiseParams::standard(1e-3), 8);
        let result = runner.run(&|c| Box::new(AlwaysLrcPolicy::new(c)), &cfg(20));
        let per_round = result.lrcs_per_round();
        assert!((per_round - 4.0).abs() < 0.01, "got {per_round}");
    }

    #[test]
    fn eraser_schedules_far_fewer_lrcs_than_always() {
        let runner = MemoryRunner::new(3, NoiseParams::standard(1e-3), 8);
        let always = runner.run(&|c| Box::new(AlwaysLrcPolicy::new(c)), &cfg(100));
        let eraser = runner.run(&|c| Box::new(EraserPolicy::new(c)), &cfg(100));
        assert!(
            eraser.lrcs_per_round() < always.lrcs_per_round() / 4.0,
            "eraser {} vs always {}",
            eraser.lrcs_per_round(),
            always.lrcs_per_round()
        );
    }

    #[test]
    fn dqlr_protocol_runs_and_keeps_lpr_bounded() {
        let runner = MemoryRunner::new(3, NoiseParams::exchange_transport(1e-3), 8);
        let config = RunConfig {
            protocol: LrcProtocol::Dqlr,
            ..cfg(100)
        };
        let result = runner.run(&|c| Box::new(AlwaysLrcPolicy::every_round(c)), &config);
        assert!(result.mean_lpr() < 0.05);
    }

    #[test]
    fn speculation_stats_identities() {
        let s = SpeculationStats {
            true_positive: 10,
            false_positive: 10,
            false_negative: 20,
            true_negative: 60,
        };
        assert!((s.accuracy() - 0.7).abs() < 1e-12);
        assert!((s.false_positive_rate() - 10.0 / 70.0).abs() < 1e-12);
        assert!((s.false_negative_rate() - 20.0 / 30.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one shot")]
    fn zero_shot_runs_are_rejected() {
        let runner = MemoryRunner::new(3, NoiseParams::standard(1e-3), 2);
        runner.run(&|_| Box::new(NoLrcPolicy::new()), &cfg(0));
    }

    #[test]
    fn postselection_cleans_up_leaky_shots() {
        // With leakage on, post-selection must (a) flag a nonzero fraction of
        // shots and (b) achieve an LER on the kept shots no worse than the
        // raw LER (it removes leakage-corrupted trials). p is kept moderate:
        // at 5e-3 the offline LSB rule saturates (it flags nearly every shot
        // with or without leakage) and the leaky/clean comparison below loses
        // its signal — especially now that the per-shot RNG streams pair the
        // two runs.
        let runner = MemoryRunner::new(3, NoiseParams::standard(2e-3), 10);
        let result = runner.run(&|_| Box::new(NoLrcPolicy::new()), &cfg(800));
        let ps = result.postselection;
        assert!(ps.flagged_shots > 0, "leaky shots must be flagged");
        assert!(ps.flagged_shots < result.shots, "not everything is flagged");
        assert!(
            ps.ler_postselected(result.shots) <= result.ler() + 0.01,
            "post-selected LER {} vs raw {}",
            ps.ler_postselected(result.shots),
            result.ler()
        );
        // Without leakage, fewer shots get flagged.
        let clean = MemoryRunner::new(3, NoiseParams::without_leakage(2e-3), 10);
        let clean_result = clean.run(&|_| Box::new(NoLrcPolicy::new()), &cfg(800));
        assert!(
            clean_result.postselection.keep_fraction(clean_result.shots)
                > ps.keep_fraction(result.shots),
            "leakage must reduce the keep fraction"
        );
    }

    #[test]
    fn memory_x_runner_works_end_to_end() {
        use surface_code::MemoryBasis;
        let noiseless =
            MemoryRunner::new_with_basis(3, NoiseParams::without_leakage(0.0), 3, MemoryBasis::X);
        let clean = noiseless.run(&|_| Box::new(NoLrcPolicy::new()), &cfg(40));
        assert_eq!(clean.logical_errors, 0, "noiseless memory-X must be exact");

        let noisy = MemoryRunner::new_with_basis(3, NoiseParams::standard(1e-3), 6, MemoryBasis::X);
        let result = noisy.run(&|c| Box::new(EraserPolicy::new(c)), &cfg(200));
        assert!(result.ler() < 0.2);
    }

    /// Table-driven coverage of the `ERASER_THREADS` parser: valid values
    /// parse, empty/whitespace means unset, and malformed values are a
    /// *clear error* naming the variable and the reason — never a silent
    /// default or a panic. The parser is a pure function of the raw string
    /// — no `set_var` here, which would race with concurrently running
    /// tests.
    #[test]
    fn env_override_parsing_is_strict() {
        let cases: &[(&str, Result<Option<usize>, &str>)] = &[
            ("4", Ok(Some(4))),
            (" 8 ", Ok(Some(8))),
            ("1", Ok(Some(1))),
            ("", Ok(None)),
            ("   ", Ok(None)),
            ("0", Err("must be a positive integer")),
            ("four", Err("not an integer")),
            ("4x", Err("not an integer")),
            ("-2", Err("not an integer")),
            ("4.0", Err("not an integer")),
        ];
        let var = "ERASER_THREADS";
        for (raw, expected) in cases {
            let result = parse_threads_env(raw);
            match expected {
                Ok(v) => assert_eq!(result.as_ref().ok(), Some(v), "{var}={raw:?}"),
                Err(reason) => {
                    let err = result.expect_err(&format!("{var}={raw:?} must error"));
                    assert_eq!((err.var, err.reason), (var, *reason));
                    assert!(
                        err.to_string().contains(var) && err.to_string().contains(reason),
                        "message names the variable and the problem: {err}"
                    );
                }
            }
        }
    }

    #[test]
    fn config_fields_win_over_environment_hooks() {
        // An explicit thread count resolves without consulting the
        // environment at all.
        let config = RunConfig {
            threads: 3,
            ..RunConfig::default()
        };
        assert_eq!(config.resolved_threads().unwrap(), 3);
    }

    /// Auto prices the graph actually decoded. At the two boundary points
    /// where the whole-experiment graph holds exactly the node limit (d = 7,
    /// R = 124 and d = 11, R = 49: 3000 nodes each) the default full-cover
    /// run must report dense MWPM (pricing `window + 1` rounds would tip
    /// both to the sparse blossom).
    #[test]
    fn default_run_at_the_auto_boundary_reports_mwpm() {
        for (d, rounds) in [(7usize, 124usize), (11, 49)] {
            let runner = MemoryRunner::new(d, NoiseParams::standard(1e-3), rounds);
            let graph = runner.graph();
            assert_eq!(graph.num_nodes(), DecoderKind::AUTO_MWPM_NODE_LIMIT);
            assert_eq!(
                DecoderKind::Auto.resolve_window(graph, 0),
                DecoderKind::Mwpm,
                "d={d} R={rounds}"
            );
            let result = runner.run(&|_| Box::new(NoLrcPolicy::new()), &cfg(1));
            assert_eq!(result.decoder, "mwpm", "d={d} R={rounds}");
            assert_eq!(
                runner.resolved_decoder(&RunConfig::default()),
                DecoderKind::Mwpm,
                "d={d} R={rounds}"
            );
        }
    }

    /// The windowed path simulates identical physics (it only changes *when*
    /// decoding happens) and its LER tracks the monolithic decoder tightly.
    #[test]
    fn windowed_decoding_preserves_physics_and_tracks_monolithic_ler() {
        let runner = MemoryRunner::new(3, NoiseParams::standard(3e-3), 12);
        let config = |window: usize| RunConfig {
            shots: 200,
            seed: 77,
            threads: 2,
            decoder: DecoderKind::Mwpm,
            window_rounds: window,
            erasure: ErasureDetection::perfect_readout(),
            ..RunConfig::default()
        };
        let policy =
            |c: &RotatedCode| -> Box<dyn LrcPolicy> { Box::new(EraserPolicy::with_multilevel(c)) };
        // Window 0 is one full-cover window — whole-shot decoding.
        let mono = runner.run(&policy, &config(0));
        let windowed = runner.run(&policy, &config(5));
        // Identical physics: every decode-independent statistic matches.
        assert_eq!(mono.total_lrcs, windowed.total_lrcs);
        assert_eq!(mono.speculation, windowed.speculation);
        assert_eq!(mono.lpr_total, windowed.lpr_total);
        assert_eq!(
            mono.postselection.flagged_shots,
            windowed.postselection.flagged_shots
        );
        assert_eq!(mono.total_erasures, windowed.total_erasures);
        assert_eq!(mono.decoder, windowed.decoder, "same backend name");
        // Paired shots: the decode disagreement rate is tiny.
        let delta = mono.logical_errors.abs_diff(windowed.logical_errors);
        assert!(
            delta <= 6,
            "windowed LER drifted: {} vs {}",
            windowed.logical_errors,
            mono.logical_errors
        );
        // Every window either takes a latency sample or is skipped at tier
        // 0: one window per shot at full cover, ⌈(12+1−5)/s⌉+1 windows with
        // the stride defaulting to w−d=2 when streaming.
        for (result, windows) in [(&mono, 1), (&windowed, 5)] {
            assert_eq!(
                result.decode_latency.samples() + result.predecode.hits[0],
                200 * windows
            );
        }
        assert!(windowed.decode_latency.p50_ns_per_round() > 0.0);
        assert!(
            windowed.decode_latency.p99_ns_per_round()
                >= windowed.decode_latency.p50_ns_per_round()
        );
    }

    /// Windowed runs stay bit-identical across worker-thread counts and
    /// stripe widths — to the reference runner — exactly like full-cover
    /// runs.
    #[test]
    fn windowed_results_bit_identical_across_threads_and_stripes() {
        let runner = MemoryRunner::new(3, NoiseParams::standard(3e-3), 10);
        let policy =
            |c: &RotatedCode| -> Box<dyn LrcPolicy> { Box::new(EraserPolicy::with_multilevel(c)) };
        let config = |threads: usize| RunConfig {
            shots: 90,
            seed: 31,
            threads,
            decoder: DecoderKind::Mwpm,
            window_rounds: 4,
            window_stride: 2,
            erasure: ErasureDetection::imperfect(0.01, 0.05),
            ..RunConfig::default()
        };
        let reference = scalar_reference::reference(&runner, &policy, &config(1));
        assert!(reference.total_erasures > 0, "erasures must be in play");
        for (threads, stripe) in [(1usize, 64usize), (1, 1), (4, 1), (4, 64), (3, 13)] {
            let other = scalar_reference::striped(&runner, &policy, &config(threads), stripe);
            assert_eq!(
                reference.logical_errors, other.logical_errors,
                "{threads}t stripe{stripe}"
            );
            assert_eq!(reference.total_lrcs, other.total_lrcs);
            assert_eq!(reference.total_erasures, other.total_erasures);
            assert_eq!(reference.speculation, other.speculation);
            assert_eq!(reference.postselection, other.postselection);
            assert_eq!(reference.lpr_total, other.lpr_total);
        }
    }

    /// The `(window, stride)` geometry a run resolves: no window is the
    /// full cover, an explicit window keeps its stride, and a stride past
    /// the window clamps to it.
    #[test]
    fn decode_artifacts_resolve_the_configured_window_geometry() {
        let runner = MemoryRunner::new(3, NoiseParams::standard(1e-3), 20);
        let geometry = |artifacts: &DecodeArtifacts| {
            let plan = artifacts.window_plan().expect("decoding runs have a plan");
            (plan.window(), plan.stride())
        };
        let resolve = |config: &RunConfig| {
            let Ok(artifacts) = runner.decode_artifacts(config, None);
            artifacts
        };
        // No window is one full-cover position over all 21 detector rounds.
        let artifacts = resolve(&cfg(10));
        assert_eq!(geometry(&artifacts), (21, 21));
        assert_eq!(artifacts.window_plan().unwrap().num_positions(), 1);
        // An explicit window keeps its configured geometry.
        let windowed = RunConfig {
            window_rounds: 6,
            window_stride: 3,
            ..cfg(10)
        };
        assert_eq!(geometry(&resolve(&windowed)), (6, 3));
        // A stride past the window clamps to it.
        let clamped = RunConfig {
            window_stride: 9,
            ..windowed
        };
        assert_eq!(geometry(&resolve(&clamped)), (6, 6));
        // And a no-decode run resolves nothing.
        let no_decode = RunConfig {
            decode: false,
            ..cfg(10)
        };
        assert!(!resolve(&no_decode).decodes());
    }

    #[test]
    fn decode_latency_stats_quantiles_and_merge() {
        let mut stats = DecodeLatencyStats::default();
        assert_eq!(stats.samples(), 0);
        assert_eq!(stats.p50_ns_per_round(), 0.0);
        for _ in 0..99 {
            stats.record(1000, 1); // bucket [896, 1024) -> midpoint 960
        }
        stats.record(1 << 20, 1);
        assert_eq!(stats.samples(), 100);
        assert_eq!(stats.p50_ns_per_round(), 960.0);
        assert_eq!(stats.p99_ns_per_round(), 960.0);
        assert!(stats.quantile_ns_per_round(1.0) > 1e6);
        let mean = stats.mean_ns_per_round();
        assert!((mean - (99.0 * 1000.0 + (1u64 << 20) as f64) / 100.0).abs() < 1e-6);
        // Normalization: 10_000 ns over 10 rounds is a 1000 ns/round sample.
        let mut other = DecodeLatencyStats::default();
        other.record(10_000, 10);
        assert_eq!(other.p50_ns_per_round(), 960.0);
        stats.merge(&other);
        assert_eq!(stats.samples(), 101);
    }

    /// The quantile is total on every input: empty histograms, boundary
    /// and out-of-range `q`, non-finite `q`, and single-bucket histograms
    /// all return a defined, finite value — never NaN, never a panic.
    #[test]
    fn decode_latency_quantile_edge_cases_are_total() {
        // Empty histogram: 0.0 for every q, including the pathological ones.
        let empty = DecodeLatencyStats::default();
        for q in [0.0, 0.5, 1.0, -3.0, 7.0, f64::NAN, f64::INFINITY] {
            assert_eq!(empty.quantile_ns_per_round(q), 0.0, "empty, q={q}");
        }
        assert_eq!(empty.mean_ns_per_round(), 0.0);

        // Single-bucket histogram: every q lands in that bucket.
        let mut single = DecodeLatencyStats::default();
        for _ in 0..5 {
            single.record(700, 1); // bucket [640, 768) -> midpoint 704
        }
        for q in [0.0, 0.25, 0.5, 0.99, 1.0, -1.0, 2.0] {
            assert_eq!(single.quantile_ns_per_round(q), 704.0, "single, q={q}");
        }

        // Two-bucket histogram: q=0 is the minimum bucket, q=1 the maximum,
        // out-of-range q clamps to those, and non-finite q acts like 0.
        let mut two = DecodeLatencyStats::default();
        two.record(700, 1);
        two.record(100_000, 1); // bucket [98304, 114688) -> midpoint 106496
        assert_eq!(two.quantile_ns_per_round(0.0), 704.0);
        assert_eq!(two.quantile_ns_per_round(-0.5), 704.0);
        assert_eq!(two.quantile_ns_per_round(1.0), 106496.0);
        assert_eq!(two.quantile_ns_per_round(1.5), 106496.0);
        assert_eq!(two.quantile_ns_per_round(f64::NAN), 704.0);
        assert_eq!(two.quantile_ns_per_round(f64::NEG_INFINITY), 704.0);
        for q in [0.0, 0.5, 1.0] {
            assert!(two.quantile_ns_per_round(q).is_finite());
        }

        // A zero-nanosecond sample (timer resolution floor) still buckets.
        let mut floor = DecodeLatencyStats::default();
        floor.record(0, 1);
        assert_eq!(floor.samples(), 1);
        assert!(floor.quantile_ns_per_round(0.5) > 0.0);
    }

    /// Each quarter of an octave is its own bucket, down to the octaves
    /// narrower than four nanoseconds and up to the top one.
    #[test]
    fn decode_latency_buckets_split_each_octave_in_four() {
        let cases = [
            (1, 1.125),
            (2, 2.25),
            (3, 3.25),
            (768, 832.0),
            (895, 832.0),
            (896, 960.0),
            (1000, 960.0),
            (1024, 1152.0),
            (u64::MAX, 1.875 * 2f64.powi(63)),
        ];
        for (nanos, midpoint) in cases {
            let mut stats = DecodeLatencyStats::default();
            stats.record(nanos, 1);
            assert_eq!(stats.p50_ns_per_round(), midpoint, "{nanos} ns");
        }
    }

    #[test]
    fn single_threaded_matches_shape() {
        let runner = MemoryRunner::new(3, NoiseParams::standard(1e-3), 2);
        let config = RunConfig {
            threads: 1,
            ..cfg(30)
        };
        let result = runner.run(&|c| Box::new(EraserPolicy::new(c)), &config);
        assert_eq!(result.shots, 30);
        assert_eq!(result.lpr_total.len(), 2);
        // The cache's size estimate counts the compiled round programs and
        // the init/final segments.
        let programs = runner.swap_program.approx_bytes() + runner.dqlr_program.approx_bytes();
        let segments =
            (runner.init_segment.len() + runner.final_segment.len()) * std::mem::size_of::<Op>();
        assert!(programs > 0);
        assert!(runner.approx_bytes() >= programs + segments);
    }

    /// A compiled round program holds exactly its schedule's ops, in order
    /// and under their conditions, minus the ops that never act; blocks
    /// stay inside their segment; and no label-conditioned block contains
    /// a `Measure` (the block mask is resolved once, before its ops run).
    #[test]
    fn compiled_programs_hold_exactly_the_schedule_ops() {
        let mut dropped = 0;
        for d in [3usize, 5, 7] {
            let runner = MemoryRunner::new(d, NoiseParams::standard(1e-3), 2);
            let builder = runner.exp.round_builder();
            let keys = runner.exp.keys();
            let schedules = [
                (
                    "swap",
                    builder.masked_round(&runner.slot_table, keys),
                    &runner.swap_program,
                ),
                (
                    "dqlr",
                    builder.masked_dqlr_round(&runner.slot_table, keys),
                    &runner.dqlr_program,
                ),
            ];
            for (what, schedule, program) in schedules {
                let segments = [
                    &schedule.pre,
                    &schedule.measure,
                    &schedule.mr_reset,
                    &schedule.tails,
                    &schedule.post,
                ];
                let mut next = 0u32;
                for (i, segment) in segments.into_iter().enumerate() {
                    let want: Vec<(OpCond, CompiledOp)> = segment
                        .iter()
                        .filter_map(|mop| Some((mop.cond, CompiledOp::compile(&mop.op)?)))
                        .collect();
                    dropped += segment.len() - want.len();
                    let mut got = Vec::new();
                    for block in program.blocks(i..i + 1) {
                        assert_eq!(block.start, next, "d={d} {what}: blocks are contiguous");
                        assert!(block.end > block.start, "d={d} {what}: empty block");
                        next = block.end;
                        let ops = program.block_ops(block);
                        got.extend(ops.iter().map(|&op| (block.cond, op)));
                        if matches!(
                            block.cond,
                            OpCond::SlotLabelLeaked(_) | OpCond::SlotLabelClean(_)
                        ) {
                            assert!(
                                !ops.iter()
                                    .any(|op| matches!(op, CompiledOp::Measure { .. })),
                                "d={d} {what}: a label-conditioned block measures"
                            );
                        }
                    }
                    assert_eq!(got, want, "d={d} {what}: segment {i}");
                }
                assert_eq!(next as usize, program.ops.len(), "d={d} {what}");
            }
        }
        assert!(dropped > 0, "some schedule ops never act");
    }
}
