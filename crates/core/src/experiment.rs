//! The unified experiment facade: one front door for every consumer of the
//! ERASER runtime.
//!
//! Three pieces replace the old ad-hoc `MemoryRunner::new` + `RunConfig` +
//! closure-factory call pattern:
//!
//! * [`Experiment`] / [`ExperimentBuilder`] — a validating builder that owns
//!   the runner, the run configuration, and the policy selection:
//!
//!   ```
//!   use eraser_core::{DecoderKind, Experiment, PolicyKind};
//!   use qec_core::NoiseParams;
//!
//!   let exp = Experiment::builder()
//!       .distance(3)
//!       .noise(NoiseParams::standard(1e-3))
//!       .rounds(3)
//!       .policy(PolicyKind::eraser())
//!       .decoder(DecoderKind::Mwpm)
//!       .shots(20)
//!       .build()
//!       .expect("valid experiment");
//!   assert_eq!(exp.run().shots, 20);
//!   ```
//!
//! * [`PolicyKind`] — a by-value policy registry with [`std::str::FromStr`] /
//!   [`std::fmt::Display`], so CLIs, benches, and figures select policies
//!   without passing `dyn Fn(&RotatedCode) -> Box<dyn LrcPolicy>` closures
//!   around. The closure form remains available through
//!   [`PolicyKind::custom`].
//!
//! * [`Sweep`] — a grid engine (distances × physical error rates × policies)
//!   that caches runner construction per (distance, noise, rounds) key,
//!   resolves the thread-pool partitioning once for the whole grid, and
//!   streams [`SweepPoint`]s to a sink as they complete.

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use crate::cache::{ArtifactCache, ArtifactKind, CacheKey, ExperimentKey};
use crate::control::{AdaptivePolicy, ControlLawKind, ControllerConfig, LeakageProfile};
use crate::policy::{
    AlwaysLrcPolicy, EraserOptions, EraserPolicy, LrcPolicy, NoLrcPolicy, OptimalPolicy,
};
use crate::runtime::{
    DecoderKind, EnvOverrideError, LrcProtocol, MemoryRunResult, MemoryRunner, RunConfig,
};
use qec_core::NoiseParams;
use surface_code::{MemoryBasis, RotatedCode};

/// The escape hatch: a thread-safe factory producing one policy instance per
/// worker thread (the shape `MemoryRunner::run` consumes).
pub type PolicyFactory = Arc<dyn Fn(&RotatedCode) -> Box<dyn LrcPolicy> + Send + Sync>;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Validation and parse errors of the experiment facade. The builder returns
/// these instead of panicking.
#[derive(Debug, Clone, PartialEq)]
pub enum ExperimentError {
    /// `distance` was never set on the builder.
    MissingDistance,
    /// The rotated surface code needs an odd distance ≥ 3.
    InvalidDistance(usize),
    /// Neither `rounds` nor `cycles` was set on the builder.
    MissingRounds,
    /// `rounds(0)` / `cycles(0)`: a run needs at least one round.
    ZeroRounds,
    /// `shots(0)`: a run needs at least one shot.
    ZeroShots,
    /// A sweep error rate was outside [0, 1] or non-finite.
    InvalidErrorRate(f64),
    /// A sweep axis (distances, error rates, or policies) was empty.
    EmptyGridAxis(&'static str),
    /// An erasure-detection false-positive/negative rate was outside [0, 1]
    /// or non-finite.
    InvalidDetectionRate(f64),
    /// A sliding-window stride exceeding the window length (window 0 means
    /// one full-cover window; stride 0 derives the `window − d` default).
    InvalidWindow {
        /// Configured `window_rounds`.
        window: usize,
        /// Configured `window_stride`.
        stride: usize,
    },
    /// An adaptive-controller configuration failed validation (thresholds,
    /// smoothing shift, or quota out of range).
    InvalidController(&'static str),
    /// A leakage-profile schedule failed validation (rate out of range or
    /// a degenerate burst/ramp shape).
    InvalidProfile(&'static str),
    /// `PolicyKind::from_str` did not recognize the name.
    UnknownPolicy(String),
    /// `DecoderKind::from_str` did not recognize the name.
    UnknownDecoder(String),
    /// A malformed `ERASER_THREADS` environment override the configuration
    /// would consult at run time. Checked at build time so the error
    /// surfaces here, as a `Result`, instead of deep inside a worker thread.
    EnvOverride(EnvOverrideError),
}

impl From<EnvOverrideError> for ExperimentError {
    fn from(err: EnvOverrideError) -> ExperimentError {
        ExperimentError::EnvOverride(err)
    }
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::MissingDistance => write!(f, "experiment needs a code distance"),
            ExperimentError::InvalidDistance(d) => {
                write!(f, "code distance must be odd and >= 3, got {d}")
            }
            ExperimentError::MissingRounds => {
                write!(f, "experiment needs a round count (`rounds` or `cycles`)")
            }
            ExperimentError::ZeroRounds => write!(f, "a run needs at least one round"),
            ExperimentError::ZeroShots => write!(f, "a run needs at least one shot"),
            ExperimentError::InvalidErrorRate(p) => {
                write!(
                    f,
                    "physical error rate must be finite and within [0, 1], got {p}"
                )
            }
            ExperimentError::EmptyGridAxis(axis) => {
                write!(f, "sweep axis `{axis}` must not be empty")
            }
            ExperimentError::InvalidDetectionRate(p) => {
                write!(
                    f,
                    "erasure-detection rate must be finite and within [0, 1], got {p}"
                )
            }
            ExperimentError::InvalidWindow { window, stride } => {
                write!(
                    f,
                    "window stride must not exceed the window length, got stride {stride} over window {window}"
                )
            }
            ExperimentError::InvalidController(reason) => {
                write!(f, "invalid controller configuration: {reason}")
            }
            ExperimentError::InvalidProfile(reason) => {
                write!(f, "invalid leakage profile: {reason}")
            }
            ExperimentError::UnknownPolicy(s) => write!(f, "unknown policy `{s}`"),
            ExperimentError::UnknownDecoder(s) => write!(f, "unknown decoder `{s}`"),
            ExperimentError::EnvOverride(err) => err.fmt(f),
        }
    }
}

impl std::error::Error for ExperimentError {}

/// The rotated surface code needs an odd distance ≥ 3. Shared by the
/// experiment and sweep builders so the two front doors accept the same
/// geometries.
fn validate_distance(d: usize) -> Result<(), ExperimentError> {
    if d < 3 || d.is_multiple_of(2) {
        Err(ExperimentError::InvalidDistance(d))
    } else {
        Ok(())
    }
}

/// Validates the run configuration both builders carry: shots, erasure
/// rates, window geometry and leakage profile, then the `ERASER_THREADS`
/// override this same configuration would consult — so a thread count the
/// builder pinned never reads, or fails on, the variable. Adaptive
/// policies' controller knobs are checked per policy by
/// [`validate_controller`].
fn validate_run_config(config: &RunConfig) -> Result<(), ExperimentError> {
    if config.shots == 0 {
        return Err(ExperimentError::ZeroShots);
    }
    let erasure = &config.erasure;
    for rate in [erasure.false_positive, erasure.false_negative] {
        if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
            return Err(ExperimentError::InvalidDetectionRate(rate));
        }
    }
    // Window 0 selects one full-cover window and stride 0 the `window − d`
    // default. The buffer ≥ d guarantee is enforced by that default —
    // explicit strides may trade buffer for speed.
    if config.window_stride > config.window_rounds {
        return Err(ExperimentError::InvalidWindow {
            window: config.window_rounds,
            stride: config.window_stride,
        });
    }
    config
        .profile
        .validate()
        .map_err(ExperimentError::InvalidProfile)?;
    Ok(config.validate_env()?)
}

/// The knobs embedded in a selected [`PolicyKind::Adaptive`] must
/// validate.
fn validate_controller(policy: &PolicyKind) -> Result<(), ExperimentError> {
    if let PolicyKind::Adaptive(config) = policy {
        config
            .validate()
            .map_err(ExperimentError::InvalidController)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// PolicyKind registry
// ---------------------------------------------------------------------------

/// By-value selection of an LRC scheduling policy.
///
/// Every standard policy of the paper is a variant; [`PolicyKind::Custom`]
/// wraps an arbitrary factory for policies defined outside this crate.
#[derive(Clone)]
pub enum PolicyKind {
    /// Never schedule an LRC (the "No LRC" baseline).
    NoLrc,
    /// Alternate-round blanket scheduling (the paper's state-of-the-art
    /// baseline).
    AlwaysLrc,
    /// Blanket scheduling every round (the DQLR baseline of Appendix A.2).
    AlwaysEveryRound,
    /// ERASER with the given design knobs (§4.2–§4.4).
    Eraser(EraserOptions),
    /// ERASER+M: multi-level readout integration (§4.6).
    EraserM(EraserOptions),
    /// The idealized oracle scheduler (§3.2).
    Optimal,
    /// The feedback-controlled adaptive policy: a [`crate::control`]
    /// estimator + control law retuning the LRC density mid-run. The
    /// embedded knobs are the only place its controller is configured
    /// (the serve job's `control` spec binds into this variant).
    Adaptive(ControllerConfig),
    /// A user-supplied policy factory (the closure escape hatch).
    Custom {
        /// Display label for tables and CSV columns.
        name: String,
        /// Per-thread policy constructor.
        factory: PolicyFactory,
    },
}

impl PolicyKind {
    /// ERASER at the paper's design point.
    pub fn eraser() -> PolicyKind {
        PolicyKind::Eraser(EraserOptions::default())
    }

    /// ERASER+M at the paper's design point.
    pub fn eraser_m() -> PolicyKind {
        PolicyKind::EraserM(EraserOptions::default())
    }

    /// The adaptive controller running `law` at its default design point
    /// ([`ControllerConfig::ewma`] / [`ControllerConfig::budget`]).
    /// Construct [`PolicyKind::Adaptive`] directly for custom knobs.
    pub fn adaptive(law: ControlLawKind) -> PolicyKind {
        PolicyKind::Adaptive(match law {
            ControlLawKind::Ewma => ControllerConfig::ewma(),
            ControlLawKind::Budget => ControllerConfig::budget(),
        })
    }

    /// Wraps an arbitrary policy factory.
    pub fn custom(
        name: impl Into<String>,
        factory: impl Fn(&RotatedCode) -> Box<dyn LrcPolicy> + Send + Sync + 'static,
    ) -> PolicyKind {
        PolicyKind::Custom {
            name: name.into(),
            factory: Arc::new(factory),
        }
    }

    /// All six standard policies at their default design points, in the
    /// canonical evaluation order.
    pub fn all_standard() -> [PolicyKind; 6] {
        [
            PolicyKind::NoLrc,
            PolicyKind::AlwaysLrc,
            PolicyKind::AlwaysEveryRound,
            PolicyKind::eraser(),
            PolicyKind::eraser_m(),
            PolicyKind::Optimal,
        ]
    }

    /// Display label (stable CLI / CSV name). Note that for
    /// [`PolicyKind::AlwaysEveryRound`] this is the figure-harness label
    /// `dqlr-every-round`, while the constructed policy reports its runtime
    /// name `always-every-round` in [`MemoryRunResult::policy`].
    pub fn label(&self) -> &str {
        match self {
            PolicyKind::NoLrc => "no-lrc",
            PolicyKind::AlwaysLrc => "always-lrc",
            PolicyKind::AlwaysEveryRound => "dqlr-every-round",
            PolicyKind::Eraser(_) => "eraser",
            PolicyKind::EraserM(_) => "eraser+m",
            PolicyKind::Optimal => "optimal",
            PolicyKind::Adaptive(config) => config.law_name(),
            PolicyKind::Custom { name, .. } => name,
        }
    }

    /// Instantiates the policy for a code (one instance per worker thread).
    pub fn build(&self, code: &RotatedCode) -> Box<dyn LrcPolicy> {
        match self {
            PolicyKind::NoLrc => Box::new(NoLrcPolicy::new()),
            PolicyKind::AlwaysLrc => Box::new(AlwaysLrcPolicy::new(code)),
            PolicyKind::AlwaysEveryRound => Box::new(AlwaysLrcPolicy::every_round(code)),
            PolicyKind::Eraser(options) => Box::new(EraserPolicy::with_options(code, *options)),
            PolicyKind::EraserM(options) => {
                Box::new(EraserPolicy::with_multilevel_options(code, *options))
            }
            PolicyKind::Optimal => Box::new(OptimalPolicy::new(code)),
            PolicyKind::Adaptive(config) => Box::new(AdaptivePolicy::new(code, *config)),
            PolicyKind::Custom { factory, .. } => factory(code),
        }
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl fmt::Debug for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyKind::Eraser(options) => f.debug_tuple("Eraser").field(options).finish(),
            PolicyKind::EraserM(options) => f.debug_tuple("EraserM").field(options).finish(),
            PolicyKind::Adaptive(config) => f.debug_tuple("Adaptive").field(config).finish(),
            PolicyKind::Custom { name, .. } => f
                .debug_struct("Custom")
                .field("name", name)
                .finish_non_exhaustive(),
            other => f.write_str(other.label()),
        }
    }
}

impl PartialEq for PolicyKind {
    fn eq(&self, other: &PolicyKind) -> bool {
        match (self, other) {
            (PolicyKind::NoLrc, PolicyKind::NoLrc)
            | (PolicyKind::AlwaysLrc, PolicyKind::AlwaysLrc)
            | (PolicyKind::AlwaysEveryRound, PolicyKind::AlwaysEveryRound)
            | (PolicyKind::Optimal, PolicyKind::Optimal) => true,
            (PolicyKind::Eraser(a), PolicyKind::Eraser(b))
            | (PolicyKind::EraserM(a), PolicyKind::EraserM(b)) => a == b,
            (PolicyKind::Adaptive(a), PolicyKind::Adaptive(b)) => a == b,
            (
                PolicyKind::Custom {
                    name: a,
                    factory: fa,
                },
                PolicyKind::Custom {
                    name: b,
                    factory: fb,
                },
            ) => a == b && Arc::ptr_eq(fa, fb),
            _ => false,
        }
    }
}

impl FromStr for PolicyKind {
    type Err = ExperimentError;

    fn from_str(s: &str) -> Result<PolicyKind, ExperimentError> {
        match s.to_ascii_lowercase().as_str() {
            "no-lrc" | "nolrc" | "none" => Ok(PolicyKind::NoLrc),
            "always-lrc" | "always" => Ok(PolicyKind::AlwaysLrc),
            "dqlr-every-round" | "always-every-round" | "every-round" | "dqlr" => {
                Ok(PolicyKind::AlwaysEveryRound)
            }
            "eraser" => Ok(PolicyKind::eraser()),
            "eraser+m" | "eraser-m" | "eraserm" => Ok(PolicyKind::eraser_m()),
            "optimal" | "oracle" => Ok(PolicyKind::Optimal),
            "adaptive" | "adaptive-ewma" => Ok(PolicyKind::adaptive(ControlLawKind::Ewma)),
            "adaptive-budget" => Ok(PolicyKind::adaptive(ControlLawKind::Budget)),
            _ => Err(ExperimentError::UnknownPolicy(s.to_string())),
        }
    }
}

impl fmt::Display for DecoderKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DecoderKind::Auto => "auto",
            DecoderKind::Mwpm => "mwpm",
            DecoderKind::SparseMwpm => "sparse-mwpm",
            DecoderKind::UnionFind => "union-find",
        })
    }
}

impl FromStr for DecoderKind {
    type Err = ExperimentError;

    fn from_str(s: &str) -> Result<DecoderKind, ExperimentError> {
        match s.to_ascii_lowercase().as_str() {
            "auto" => Ok(DecoderKind::Auto),
            "mwpm" => Ok(DecoderKind::Mwpm),
            "sparse-mwpm" | "sparse" | "sparse-blossom" => Ok(DecoderKind::SparseMwpm),
            "union-find" | "unionfind" | "uf" => Ok(DecoderKind::UnionFind),
            _ => Err(ExperimentError::UnknownDecoder(s.to_string())),
        }
    }
}

// ---------------------------------------------------------------------------
// Experiment + builder
// ---------------------------------------------------------------------------

/// Round-count specification: either a fixed round count or QEC cycles
/// (each cycle is `d` rounds, the paper's convention).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RoundsSpec {
    Fixed(usize),
    Cycles(usize),
}

impl RoundsSpec {
    fn resolve(self, d: usize) -> usize {
        match self {
            RoundsSpec::Fixed(rounds) => rounds,
            RoundsSpec::Cycles(cycles) => d * cycles,
        }
    }

    fn validate(self) -> Result<(), ExperimentError> {
        let n = match self {
            RoundsSpec::Fixed(n) | RoundsSpec::Cycles(n) => n,
        };
        if n == 0 {
            Err(ExperimentError::ZeroRounds)
        } else {
            Ok(())
        }
    }
}

/// A fully validated memory experiment: the runner (code, detectors, decoding
/// graph), the run configuration, and the selected policy.
///
/// Build with [`Experiment::builder`]; execute with [`Experiment::run`] or
/// [`Experiment::run_policy`] (which reuses the expensive runner across
/// policies).
#[derive(Debug)]
pub struct Experiment {
    runner: MemoryRunner,
    config: RunConfig,
    policy: PolicyKind,
}

impl Experiment {
    /// Starts a builder with the paper's defaults (noise `standard(1e-3)`,
    /// memory-Z, 1000 shots, seed `0x2023`, auto decoder, SWAP protocol,
    /// decoding enabled, `no-lrc` policy). `distance` and `rounds`/`cycles`
    /// must be set explicitly.
    pub fn builder() -> ExperimentBuilder {
        ExperimentBuilder::new()
    }

    /// The code distance.
    pub fn distance(&self) -> usize {
        self.runner.experiment().code().distance()
    }

    /// Rounds per shot.
    pub fn rounds(&self) -> usize {
        self.runner.experiment().rounds()
    }

    /// The memory basis being preserved.
    pub fn basis(&self) -> MemoryBasis {
        self.runner.experiment().basis()
    }

    /// The noise model.
    pub fn noise(&self) -> &NoiseParams {
        self.runner.experiment().noise()
    }

    /// The run configuration.
    pub fn config(&self) -> &RunConfig {
        &self.config
    }

    /// The selected policy.
    pub fn policy(&self) -> &PolicyKind {
        &self.policy
    }

    /// The underlying runner (low-level escape hatch).
    pub fn runner(&self) -> &MemoryRunner {
        &self.runner
    }

    /// Swaps the decoder without rebuilding the runner (the decoding graph is
    /// decoder-independent).
    pub fn set_decoder(&mut self, decoder: DecoderKind) {
        self.config.decoder = decoder;
    }

    /// The decoder the configured [`DecoderKind`] resolves to for this
    /// experiment. Goes through [`MemoryRunner::resolved_decoder`] (`Auto`
    /// against the graph each window decodes) — the same single-source rule
    /// `MemoryRunner::run` applies — so on decode-enabled runs `Auto`
    /// reports exactly what will decode (runs built with `.decode(false)`
    /// decode nothing and report `"none"`). Never returns
    /// [`DecoderKind::Auto`].
    pub fn resolved_decoder(&self) -> DecoderKind {
        self.runner.resolved_decoder(&self.config)
    }

    /// Swaps the LRC protocol without rebuilding the runner.
    pub fn set_protocol(&mut self, protocol: LrcProtocol) {
        self.config.protocol = protocol;
    }

    /// Toggles leakage-aware (erasure) decoding without rebuilding the
    /// runner: the cheap way to compare leakage-blind and erasure-aware
    /// decoding on identical physical shots.
    pub fn set_leakage_aware(&mut self, enabled: bool) {
        self.config.erasure.enabled = enabled;
    }

    /// Swaps the sliding-window configuration without rebuilding the runner:
    /// the cheap way to compare sliding and full-cover windows on
    /// identical physical shots (see [`ExperimentBuilder::window_rounds`]).
    ///
    /// # Panics
    ///
    /// Panics if `stride > window` (the builder-validated invariant).
    pub fn set_window(&mut self, window_rounds: usize, window_stride: usize) {
        assert!(
            window_stride <= window_rounds,
            "window stride {window_stride} exceeds window {window_rounds}"
        );
        self.config.window_rounds = window_rounds;
        self.config.window_stride = window_stride;
    }

    /// Runs the experiment under the configured policy.
    pub fn run(&self) -> MemoryRunResult {
        self.run_policy(&self.policy)
    }

    /// Runs the experiment under `kind`, reusing this experiment's runner and
    /// configuration. This is the cheap way to compare policies on one code.
    ///
    /// Decode artifacts (window plans and their per-shape decoder tables)
    /// resolve through the process-wide [`ArtifactCache`], so repeated runs
    /// over the same physics — across policies, experiments, or server
    /// jobs — pay the build once. Artifacts are deterministic functions of
    /// the physics, so results are bit-identical to a cache-free run.
    pub fn run_policy(&self, kind: &PolicyKind) -> MemoryRunResult {
        let Ok(artifacts) = self
            .runner
            .decode_artifacts(&self.config, Some(ArtifactCache::global()));
        self.runner
            .run_with_artifacts(&|code| kind.build(code), &self.config, &artifacts)
    }
}

/// The run setters [`ExperimentBuilder`] and [`SweepBuilder`] share,
/// written once and expanded in both. Each writes one [`RunConfig`] field
/// (`rounds`, `cycles` and `basis` write the shared geometry), so both
/// builders map 1:1 onto the configuration the runner receives; on a sweep
/// every setting applies to every grid point.
macro_rules! run_setters {
    () => {
        /// Fixed rounds per shot (for every distance of a sweep). Required
        /// unless [`Self::cycles`] is used; the later call wins.
        pub fn rounds(mut self, rounds: usize) -> Self {
            self.rounds = Some(RoundsSpec::Fixed(rounds));
            self
        }

        /// QEC cycles: each distance runs `d × cycles` rounds, resolved at
        /// build time.
        pub fn cycles(mut self, cycles: usize) -> Self {
            self.rounds = Some(RoundsSpec::Cycles(cycles));
            self
        }

        /// Memory basis to preserve (default Z, the paper's workload).
        pub fn basis(mut self, basis: MemoryBasis) -> Self {
            self.basis = basis;
            self
        }

        /// Monte-Carlo shots (default 1000).
        pub fn shots(mut self, shots: u64) -> Self {
            self.config.shots = shots;
            self
        }

        /// Root RNG seed (default `0x2023`).
        pub fn seed(mut self, seed: u64) -> Self {
            self.config.seed = seed;
            self
        }

        /// Worker threads; 0 means all available cores (default).
        pub fn threads(mut self, threads: usize) -> Self {
            self.config.threads = threads;
            self
        }

        /// Decoder selection (default [`DecoderKind::Auto`]).
        pub fn decoder(mut self, decoder: DecoderKind) -> Self {
            self.config.decoder = decoder;
            self
        }

        /// Leakage-removal protocol (default [`LrcProtocol::Swap`]).
        pub fn protocol(mut self, protocol: LrcProtocol) -> Self {
            self.config.protocol = protocol;
            self
        }

        /// Whether to decode at all; LPR-only studies disable this (default
        /// on).
        pub fn decode(mut self, decode: bool) -> Self {
            self.config.decode = decode;
            self
        }

        /// Leakage-aware (erasure) decoding: thread the policy's per-round
        /// leakage-detection flags into the decoder as dynamically
        /// reweighted (erased) edges. Default off — the paper's
        /// leakage-blind decoder.
        pub fn leakage_aware_decoding(mut self, enabled: bool) -> Self {
            self.config.erasure.enabled = enabled;
            self
        }

        /// Imperfect-erasure-check rates (Chang et al. 2024): the
        /// probability a clean qubit is spuriously flagged per round, and
        /// the probability a real flag is dropped. Implies nothing about
        /// `leakage_aware_decoding`; rates are validated at build time.
        pub fn erasure_detection(mut self, false_positive: f64, false_negative: f64) -> Self {
            self.config.erasure.false_positive = false_positive;
            self.config.erasure.false_negative = false_negative;
            self
        }

        /// Sliding-window length in rounds for streaming decoding. The
        /// default 0 is one full-cover window — whole-shot decoding (a
        /// window larger than the round count is full cover too). Shorter
        /// windows bound peak decoder memory at O(window²) regardless of
        /// the round count.
        pub fn window_rounds(mut self, window: usize) -> Self {
            self.config.window_rounds = window;
            self
        }

        /// Rounds committed (and advanced) per window; 0 derives
        /// `window − d` (min 1), which keeps the re-decoded buffer at d
        /// rounds. Validated at build time: the stride must not exceed the
        /// window.
        pub fn window_stride(mut self, stride: usize) -> Self {
            self.config.window_stride = stride;
            self
        }

        /// Time-varying injected-leakage schedule (default
        /// [`LeakageProfile::Stationary`]: nothing injected). Validated at
        /// build time; applied identically to every shot of the run.
        pub fn leakage_profile(mut self, profile: LeakageProfile) -> Self {
            self.config.profile = profile;
            self
        }
    };
}

/// Builder for [`Experiment`]. Invalid combinations surface as
/// [`ExperimentError`]s from [`ExperimentBuilder::build`] instead of panics.
#[derive(Debug, Clone)]
pub struct ExperimentBuilder {
    distance: Option<usize>,
    noise: NoiseParams,
    rounds: Option<RoundsSpec>,
    basis: MemoryBasis,
    policy: PolicyKind,
    config: RunConfig,
}

impl Default for ExperimentBuilder {
    fn default() -> ExperimentBuilder {
        ExperimentBuilder {
            distance: None,
            noise: NoiseParams::default(),
            rounds: None,
            basis: MemoryBasis::Z,
            policy: PolicyKind::NoLrc,
            config: RunConfig::default(),
        }
    }
}

impl ExperimentBuilder {
    /// Starts from the defaults documented on [`Experiment::builder`].
    pub fn new() -> ExperimentBuilder {
        ExperimentBuilder::default()
    }

    /// Code distance (odd, ≥ 3). Required.
    pub fn distance(mut self, d: usize) -> Self {
        self.distance = Some(d);
        self
    }

    /// Noise model (default: the paper's `NoiseParams::standard(1e-3)`).
    pub fn noise(mut self, noise: NoiseParams) -> Self {
        self.noise = noise;
        self
    }

    /// Policy to run under (default [`PolicyKind::NoLrc`]).
    pub fn policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    run_setters!();

    fn validated(&self) -> Result<(usize, usize), ExperimentError> {
        let d = self.distance.ok_or(ExperimentError::MissingDistance)?;
        validate_distance(d)?;
        let spec = self.rounds.ok_or(ExperimentError::MissingRounds)?;
        spec.validate()?;
        validate_run_config(&self.config)?;
        validate_controller(&self.policy)?;
        Ok((d, spec.resolve(d)))
    }

    /// Validates and constructs the experiment (building the detector list
    /// and the decoding graph once).
    pub fn build(self) -> Result<Experiment, ExperimentError> {
        let (d, rounds) = self.validated()?;
        let runner = MemoryRunner::new_with_basis(d, self.noise, rounds, self.basis);
        Ok(Experiment {
            runner,
            config: self.config,
            policy: self.policy,
        })
    }
}

// ---------------------------------------------------------------------------
// Sweep engine
// ---------------------------------------------------------------------------

/// The noise family a sweep derives per-point [`NoiseParams`] from.
#[derive(Clone, Default)]
pub enum NoiseModel {
    /// `NoiseParams::standard(p)` — the paper's main-text model.
    #[default]
    Standard,
    /// `NoiseParams::without_leakage(p)` — Pauli noise only.
    WithoutLeakage,
    /// `NoiseParams::exchange_transport(p)` — Appendix A.1.
    ExchangeTransport,
    /// Arbitrary mapping from physical error rate to noise parameters.
    Custom(Arc<dyn Fn(f64) -> NoiseParams + Send + Sync>),
}

impl NoiseModel {
    /// The noise parameters at physical error rate `p`.
    pub fn params(&self, p: f64) -> NoiseParams {
        match self {
            NoiseModel::Standard => NoiseParams::standard(p),
            NoiseModel::WithoutLeakage => NoiseParams::without_leakage(p),
            NoiseModel::ExchangeTransport => NoiseParams::exchange_transport(p),
            NoiseModel::Custom(f) => f(p),
        }
    }
}

impl fmt::Debug for NoiseModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            NoiseModel::Standard => "Standard",
            NoiseModel::WithoutLeakage => "WithoutLeakage",
            NoiseModel::ExchangeTransport => "ExchangeTransport",
            NoiseModel::Custom(_) => "Custom(..)",
        })
    }
}

/// One completed grid point, streamed to the sweep's sink.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Code distance of this point.
    pub distance: usize,
    /// Physical error rate of this point.
    pub p: f64,
    /// Rounds per shot at this point.
    pub rounds: usize,
    /// Label of the policy that ran ([`PolicyKind::label`]).
    pub policy: String,
    /// The full run result.
    pub result: MemoryRunResult,
}

/// A validated experiment grid: distances × physical error rates × policies,
/// under one noise family, rounds specification, and run configuration.
///
/// Points are executed in deterministic order (distance-major, then error
/// rate, then policy) and are bit-identical to running each point through
/// [`Experiment`] separately with the same seed.
#[derive(Debug, Clone)]
pub struct Sweep {
    distances: Vec<usize>,
    error_rates: Vec<f64>,
    policies: Vec<PolicyKind>,
    noise: NoiseModel,
    rounds: RoundsSpec,
    basis: MemoryBasis,
    config: RunConfig,
}

impl Sweep {
    /// Starts a sweep builder with the same defaults as
    /// [`Experiment::builder`].
    pub fn builder() -> SweepBuilder {
        SweepBuilder::new()
    }

    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.distances.len() * self.error_rates.len() * self.policies.len()
    }

    /// Whether the grid is empty (never true for a built sweep).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The policy axis, in execution order.
    pub fn policies(&self) -> &[PolicyKind] {
        &self.policies
    }

    /// Executes the whole grid, streaming each completed point to `sink`.
    ///
    /// Routes through the process-wide [`ArtifactCache`]: runners are
    /// shared per content key (distance, rounds, basis, noise) — so two
    /// cells differing only in policy share one DEM build — and the decode
    /// artifacts (the window plan with its per-shape decoder tables) are
    /// resolved once per cell and shared with every other run of the same
    /// physics, including other sweeps and `eraser-serve` jobs in this
    /// process. The worker-thread partitioning is resolved once up front.
    /// (Results are bit-identical for any thread count and any cache state
    /// — shots own their RNG streams and artifacts are deterministic — so
    /// both only pin wall-clock behaviour.)
    pub fn for_each(&self, mut sink: impl FnMut(SweepPoint)) {
        self.try_for_each_cached(ArtifactCache::global(), |point| {
            sink(point);
            true
        });
    }

    /// [`Sweep::for_each`] against an explicit cache — the `eraser-serve`
    /// hook, whose server owns a cache sized by its own `--cache-mb`.
    ///
    /// The sink returns whether to continue: `false` abandons the rest of
    /// the grid (a disconnected client), completed points stay delivered.
    /// Returns `true` iff the whole grid ran.
    pub fn try_for_each_cached(
        &self,
        cache: &ArtifactCache,
        mut sink: impl FnMut(SweepPoint) -> bool,
    ) -> bool {
        // The builder validated the environment, but it can have changed
        // since; the panic here is the documented low-level behaviour.
        let mut config = self.config;
        config.threads = config.resolved_threads().unwrap_or_else(|e| panic!("{e}"));
        for &d in &self.distances {
            let rounds = self.rounds.resolve(d);
            for &p in &self.error_rates {
                let noise = self.noise.params(p);
                let runner = cache.get_or_build(
                    &CacheKey {
                        experiment: ExperimentKey::new(d, rounds, self.basis, &noise),
                        kind: ArtifactKind::Runner,
                    },
                    MemoryRunner::approx_bytes,
                    || MemoryRunner::new_with_basis(d, noise, rounds, self.basis),
                );
                let Ok(artifacts) = runner.decode_artifacts(&config, Some(cache));
                for kind in &self.policies {
                    let result =
                        runner.run_with_artifacts(&|code| kind.build(code), &config, &artifacts);
                    let proceed = sink(SweepPoint {
                        distance: d,
                        p,
                        rounds,
                        policy: kind.label().to_string(),
                        result,
                    });
                    if !proceed {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Executes the whole grid and collects the points in execution order.
    pub fn run(&self) -> Vec<SweepPoint> {
        let mut points = Vec::with_capacity(self.len());
        self.for_each(|point| points.push(point));
        points
    }
}

/// Builder for [`Sweep`].
#[derive(Debug, Clone, Default)]
pub struct SweepBuilder {
    distances: Vec<usize>,
    error_rates: Vec<f64>,
    policies: Vec<PolicyKind>,
    noise: NoiseModel,
    rounds: Option<RoundsSpec>,
    basis: MemoryBasis,
    config: RunConfig,
}

impl SweepBuilder {
    /// Starts an empty grid with default run parameters.
    pub fn new() -> SweepBuilder {
        SweepBuilder::default()
    }

    /// Sets the distance axis.
    pub fn distances(mut self, distances: impl IntoIterator<Item = usize>) -> Self {
        self.distances = distances.into_iter().collect();
        self
    }

    /// Sets the physical-error-rate axis.
    pub fn error_rates(mut self, rates: impl IntoIterator<Item = f64>) -> Self {
        self.error_rates = rates.into_iter().collect();
        self
    }

    /// Sets the policy axis.
    pub fn policies(mut self, policies: impl IntoIterator<Item = PolicyKind>) -> Self {
        self.policies = policies.into_iter().collect();
        self
    }

    /// Appends one policy to the policy axis.
    pub fn policy(mut self, policy: PolicyKind) -> Self {
        self.policies.push(policy);
        self
    }

    /// Noise family the per-point parameters derive from (default
    /// [`NoiseModel::Standard`]).
    pub fn noise_model(mut self, noise: NoiseModel) -> Self {
        self.noise = noise;
        self
    }

    run_setters!();

    /// Validates the grid and run parameters.
    pub fn build(self) -> Result<Sweep, ExperimentError> {
        if self.distances.is_empty() {
            return Err(ExperimentError::EmptyGridAxis("distances"));
        }
        if self.error_rates.is_empty() {
            return Err(ExperimentError::EmptyGridAxis("error_rates"));
        }
        if self.policies.is_empty() {
            return Err(ExperimentError::EmptyGridAxis("policies"));
        }
        for &d in &self.distances {
            validate_distance(d)?;
        }
        for &p in &self.error_rates {
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return Err(ExperimentError::InvalidErrorRate(p));
            }
        }
        let rounds = self.rounds.ok_or(ExperimentError::MissingRounds)?;
        rounds.validate()?;
        validate_run_config(&self.config)?;
        for kind in &self.policies {
            validate_controller(kind)?;
        }
        Ok(Sweep {
            distances: self.distances,
            error_rates: self.error_rates,
            policies: self.policies,
            noise: self.noise,
            rounds,
            basis: self.basis,
            config: self.config,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> ExperimentBuilder {
        Experiment::builder()
            .distance(3)
            .rounds(2)
            .shots(10)
            .seed(1)
    }

    #[test]
    fn builder_requires_distance_and_rounds() {
        let err = Experiment::builder().rounds(2).build().unwrap_err();
        assert_eq!(err, ExperimentError::MissingDistance);
        let err = Experiment::builder().distance(3).build().unwrap_err();
        assert_eq!(err, ExperimentError::MissingRounds);
    }

    #[test]
    fn builder_rejects_invalid_parameters() {
        assert_eq!(
            base().distance(4).build().unwrap_err(),
            ExperimentError::InvalidDistance(4)
        );
        assert_eq!(
            base().distance(1).build().unwrap_err(),
            ExperimentError::InvalidDistance(1)
        );
        assert_eq!(
            base().rounds(0).build().unwrap_err(),
            ExperimentError::ZeroRounds
        );
        assert_eq!(
            base().cycles(0).build().unwrap_err(),
            ExperimentError::ZeroRounds
        );
        assert_eq!(
            base().shots(0).build().unwrap_err(),
            ExperimentError::ZeroShots
        );
        assert_eq!(
            base().erasure_detection(1.5, 0.0).build().unwrap_err(),
            ExperimentError::InvalidDetectionRate(1.5)
        );
        assert_eq!(
            base()
                .window_rounds(4)
                .window_stride(5)
                .build()
                .unwrap_err(),
            ExperimentError::InvalidWindow {
                window: 4,
                stride: 5
            }
        );
        assert_eq!(
            base().window_stride(2).build().unwrap_err(),
            ExperimentError::InvalidWindow {
                window: 0,
                stride: 2
            },
            "a stride needs a window"
        );
        assert!(matches!(
            base().erasure_detection(0.0, f64::NAN).build(),
            Err(ExperimentError::InvalidDetectionRate(_))
        ));
    }

    #[test]
    fn leakage_aware_knob_reaches_the_runtime() {
        let mut exp = base()
            .shots(60)
            .noise(NoiseParams::standard(5e-3))
            .rounds(6)
            .policy(PolicyKind::eraser_m())
            .leakage_aware_decoding(true)
            .erasure_detection(0.0, 0.1)
            .build()
            .unwrap();
        assert!(exp.config().erasure.enabled);
        assert_eq!(exp.config().erasure.false_negative, 0.1);
        let aware = exp.run();
        assert!(aware.total_erasures > 0, "erasure flags must be collected");
        exp.set_leakage_aware(false);
        let blind = exp.run();
        assert_eq!(blind.total_erasures, 0);
        // The physical shots are shared: only the decoding changed.
        assert_eq!(blind.total_lrcs, aware.total_lrcs);
        assert_eq!(blind.speculation, aware.speculation);
    }

    #[test]
    fn window_knobs_reach_the_runtime() {
        let exp = base()
            .shots(40)
            .rounds(9)
            .noise(NoiseParams::standard(3e-3))
            .policy(PolicyKind::eraser())
            .window_rounds(4)
            .window_stride(2)
            .build()
            .unwrap();
        assert_eq!(exp.config().window_rounds, 4);
        assert_eq!(exp.config().window_stride, 2);
        let windowed = exp.run();
        // Rounds 0..=9 are ten detector rounds: windows start at 0, 2, 4, 6
        // (the final [6, 9] commits the rest) → 4 windows per shot. Every
        // window lands in exactly one tier, and empty windows resolve at
        // tier 0 without a latency sample.
        assert_eq!(windowed.predecode.total(), 40 * 4);
        assert_eq!(
            windowed.decode_latency.samples() + windowed.predecode.hits[0],
            40 * 4
        );
        // Same physics as the full-cover run of the same seed.
        let mono = base()
            .shots(40)
            .rounds(9)
            .noise(NoiseParams::standard(3e-3))
            .policy(PolicyKind::eraser())
            .build()
            .unwrap()
            .run();
        assert_eq!(mono.total_lrcs, windowed.total_lrcs);
        assert_eq!(mono.speculation, windowed.speculation);

        // Sweep builder carries the same knobs: 9 detector rounds take
        // windows [0, 3], [4, 7] and the clamped final [5, 8].
        let sweep = Sweep::builder()
            .distances([3])
            .error_rates([1e-3])
            .policy(PolicyKind::NoLrc)
            .rounds(8)
            .shots(8)
            .window_rounds(4)
            .window_stride(4)
            .build()
            .unwrap();
        let points = sweep.run();
        assert_eq!(points.len(), 1);
        let result = &points[0].result;
        assert_eq!(
            result.decode_latency.samples() + result.predecode.hits[0],
            8 * 3
        );
        assert!(Sweep::builder()
            .distances([3])
            .error_rates([1e-3])
            .policy(PolicyKind::NoLrc)
            .rounds(8)
            .shots(8)
            .window_rounds(2)
            .window_stride(3)
            .build()
            .is_err());
    }

    #[test]
    fn cycles_resolve_to_d_times_cycles() {
        let exp = base().cycles(4).build().unwrap();
        assert_eq!(exp.rounds(), 12);
    }

    #[test]
    fn experiment_matches_direct_runner_call() {
        let exp = base()
            .shots(40)
            .policy(PolicyKind::eraser())
            .build()
            .unwrap();
        let direct = {
            let runner = MemoryRunner::new(3, NoiseParams::default(), 2);
            let config = RunConfig {
                shots: 40,
                seed: 1,
                ..RunConfig::default()
            };
            runner.run(&|c| Box::new(EraserPolicy::new(c)), &config)
        };
        let via_facade = exp.run();
        assert_eq!(via_facade.logical_errors, direct.logical_errors);
        assert_eq!(via_facade.total_lrcs, direct.total_lrcs);
        assert_eq!(via_facade.speculation, direct.speculation);
        assert_eq!(via_facade.policy, direct.policy);
    }

    #[test]
    fn facade_resolves_auto_exactly_like_the_runtime() {
        let exp = base().build().unwrap();
        // d=3, 2 rounds is far below the Auto threshold → dense MWPM.
        assert_eq!(exp.resolved_decoder(), DecoderKind::Mwpm);
        let result = exp.run();
        assert_eq!(result.decoder, exp.resolved_decoder().to_string());
    }

    /// The sparse-blossom acceptance bar end to end: a d = 11 long memory,
    /// whose decoding graph prices out the dense all-pairs table, Auto-
    /// selects the sparse MWPM backend and decodes through the facade.
    #[test]
    fn d11_long_memory_auto_selects_sparse_and_decodes() {
        let exp = Experiment::builder()
            .distance(11)
            .rounds(55)
            .shots(4)
            .seed(9)
            .policy(PolicyKind::NoLrc)
            .build()
            .unwrap();
        assert!(
            exp.runner().graph().num_nodes() > DecoderKind::AUTO_MWPM_NODE_LIMIT,
            "graph must be past the dense-MWPM limit ({} nodes)",
            exp.runner().graph().num_nodes()
        );
        // The Auto rule on the whole graph: this graph is sparse territory.
        assert_eq!(
            DecoderKind::Auto.resolve(exp.runner().graph()),
            DecoderKind::SparseMwpm
        );
        let result = exp.run();
        assert_eq!(result.shots, 4);
        // The reported decoder is what the facade predicts: the full-cover
        // sparse blossom.
        assert_eq!(result.decoder, exp.resolved_decoder().to_string());
        assert!(result.logical_errors <= result.shots);
    }

    #[test]
    fn policy_kind_round_trips_through_strings() {
        for kind in PolicyKind::all_standard() {
            let parsed: PolicyKind = kind.label().parse().unwrap();
            assert_eq!(parsed, kind, "round-trip of {kind}");
        }
        assert!("martian".parse::<PolicyKind>().is_err());
    }

    #[test]
    fn policy_kind_builds_the_advertised_policy() {
        let code = RotatedCode::new(3);
        let expected = [
            (PolicyKind::NoLrc, "no-lrc"),
            (PolicyKind::AlwaysLrc, "always-lrc"),
            (PolicyKind::AlwaysEveryRound, "always-every-round"),
            (PolicyKind::eraser(), "eraser"),
            (PolicyKind::eraser_m(), "eraser+m"),
            (PolicyKind::Optimal, "optimal"),
        ];
        for (kind, name) in expected {
            assert_eq!(kind.build(&code).name(), name);
        }
        assert!(PolicyKind::eraser_m().build(&code).uses_multilevel());
    }

    #[test]
    fn custom_policy_kind_is_usable_and_comparable() {
        let kind = PolicyKind::custom("mine", |_| Box::new(NoLrcPolicy::new()));
        assert_eq!(kind.label(), "mine");
        assert_eq!(kind, kind.clone());
        assert_ne!(
            kind,
            PolicyKind::custom("mine", |_| Box::new(NoLrcPolicy::new()))
        );
        let code = RotatedCode::new(3);
        assert_eq!(kind.build(&code).name(), "no-lrc");
    }

    #[test]
    fn decoder_kind_round_trips_through_strings() {
        for kind in [
            DecoderKind::Auto,
            DecoderKind::Mwpm,
            DecoderKind::SparseMwpm,
            DecoderKind::UnionFind,
        ] {
            assert_eq!(kind.to_string().parse::<DecoderKind>().unwrap(), kind);
        }
        assert_eq!("uf".parse::<DecoderKind>().unwrap(), DecoderKind::UnionFind);
        for alias in ["sparse", "SPARSE-BLOSSOM"] {
            assert_eq!(
                alias.parse::<DecoderKind>().unwrap(),
                DecoderKind::SparseMwpm
            );
        }
        for unknown in ["tensor-network", "greedy", "mwpm2"] {
            assert!(matches!(
                unknown.parse::<DecoderKind>(),
                Err(ExperimentError::UnknownDecoder(_))
            ));
        }
    }

    #[test]
    fn sweep_build_validates_axes() {
        let b = || {
            Sweep::builder()
                .distances([3])
                .error_rates([1e-3])
                .policy(PolicyKind::NoLrc)
                .rounds(2)
                .shots(5)
        };
        assert!(b().build().is_ok());
        assert_eq!(
            b().distances([]).build().unwrap_err(),
            ExperimentError::EmptyGridAxis("distances")
        );
        assert_eq!(
            b().error_rates([]).build().unwrap_err(),
            ExperimentError::EmptyGridAxis("error_rates")
        );
        assert_eq!(
            b().policies([]).build().unwrap_err(),
            ExperimentError::EmptyGridAxis("policies")
        );
        assert_eq!(
            b().distances([4]).build().unwrap_err(),
            ExperimentError::InvalidDistance(4)
        );
        assert!(matches!(
            b().error_rates([f64::NAN]).build(),
            Err(ExperimentError::InvalidErrorRate(_))
        ));
        assert_eq!(
            b().error_rates([1.5]).build().unwrap_err(),
            ExperimentError::InvalidErrorRate(1.5)
        );
        assert_eq!(
            b().shots(0).build().unwrap_err(),
            ExperimentError::ZeroShots
        );
    }

    #[test]
    fn sweep_streams_points_in_grid_order() {
        let sweep = Sweep::builder()
            .distances([3])
            .error_rates([1e-3, 2e-3])
            .policies([PolicyKind::NoLrc, PolicyKind::eraser()])
            .rounds(2)
            .shots(8)
            .seed(9)
            .build()
            .unwrap();
        assert_eq!(sweep.len(), 4);
        let points = sweep.run();
        let order: Vec<(f64, &str)> = points.iter().map(|pt| (pt.p, pt.policy.as_str())).collect();
        assert_eq!(
            order,
            vec![
                (1e-3, "no-lrc"),
                (1e-3, "eraser"),
                (2e-3, "no-lrc"),
                (2e-3, "eraser")
            ]
        );
        assert!(points
            .iter()
            .all(|pt| pt.result.shots == 8 && pt.rounds == 2));
    }

    #[test]
    fn adaptive_policy_kind_round_trips_and_builds() {
        use crate::control::ControlLawKind;
        for (kind, label) in [
            (PolicyKind::adaptive(ControlLawKind::Ewma), "adaptive-ewma"),
            (
                PolicyKind::adaptive(ControlLawKind::Budget),
                "adaptive-budget",
            ),
        ] {
            assert_eq!(kind.label(), label);
            let parsed: PolicyKind = label.parse().unwrap();
            assert_eq!(parsed, kind, "round-trip of {label}");
        }
        assert_eq!(
            "adaptive".parse::<PolicyKind>().unwrap(),
            PolicyKind::adaptive(ControlLawKind::Ewma),
            "bare \"adaptive\" means the EWMA escalator"
        );
        let code = RotatedCode::new(3);
        let policy = PolicyKind::adaptive(ControlLawKind::Ewma).build(&code);
        assert_eq!(policy.name(), "adaptive-ewma");
        assert!(
            policy.uses_multilevel(),
            "adaptive runs reserve multi-level readout for escalation"
        );
    }

    #[test]
    fn builder_rejects_invalid_controller_and_profile() {
        let bad = ControllerConfig {
            up: 0.1,
            down: 0.5,
            ..ControllerConfig::ewma()
        };
        assert_eq!(
            base()
                .policy(PolicyKind::Adaptive(bad))
                .build()
                .unwrap_err(),
            ExperimentError::InvalidController("thresholds must satisfy 0 <= down <= up <= 1")
        );
        assert_eq!(
            base()
                .leakage_profile(LeakageProfile::Burst {
                    start: 0,
                    len: 0,
                    period: 4,
                    rate: 0.1,
                })
                .build()
                .unwrap_err(),
            ExperimentError::InvalidProfile("burst length must be at least one round")
        );
        assert_eq!(
            Sweep::builder()
                .distances([3])
                .error_rates([1e-3])
                .policy(PolicyKind::Adaptive(bad))
                .rounds(2)
                .shots(5)
                .build()
                .unwrap_err(),
            ExperimentError::InvalidController("thresholds must satisfy 0 <= down <= up <= 1")
        );
    }

    #[test]
    fn leakage_profile_and_controller_reach_the_runtime() {
        use crate::control::ControlLawKind;
        let storm = LeakageProfile::Burst {
            start: 2,
            len: 3,
            period: 0,
            rate: 0.25,
        };
        let exp = base()
            .shots(40)
            .rounds(8)
            .noise(NoiseParams::standard(2e-3))
            .policy(PolicyKind::adaptive(ControlLawKind::Ewma))
            .leakage_profile(storm)
            .build()
            .unwrap();
        assert_eq!(exp.config().profile, storm);
        let result = exp.run();
        assert!(
            result.controller.is_active(),
            "adaptive runs must report controller telemetry"
        );
        assert_eq!(result.controller.rounds(), 40 * 8);
        // A static policy on the same workload reports no controller.
        let quiet = base()
            .shots(40)
            .rounds(8)
            .noise(NoiseParams::standard(2e-3))
            .policy(PolicyKind::eraser())
            .leakage_profile(storm)
            .build()
            .unwrap()
            .run();
        assert!(!quiet.controller.is_active());
        assert_eq!(quiet.controller, crate::control::ControllerStats::default());
    }
}
