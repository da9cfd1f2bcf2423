//! ERASER: adaptive leakage suppression for fault-tolerant quantum computing.
//!
//! This crate implements the paper's contribution (§4) and its evaluation
//! machinery (§5–6):
//!
//! * [`Experiment`] — the one front door to the runtime: a validating builder
//!   over code distance, noise, rounds, policy, and decoder, plus the
//!   [`Sweep`] grid engine for batched (distance × error rate × policy)
//!   studies with runner caching and streamed results.
//! * [`PolicyKind`] — the by-value policy registry (with [`std::str::FromStr`]
//!   and [`std::fmt::Display`]) covering the five scheduling policies:
//!   [`NoLrcPolicy`], [`AlwaysLrcPolicy`] (state of the art before ERASER),
//!   [`EraserPolicy`] (the Leakage Speculation Block with its Leakage
//!   Tracking Table, Parity Usage Tracking Table, and ≥2-flip rule), ERASER+M
//!   (multi-level readout, §4.6), and [`OptimalPolicy`] (the idealized
//!   oracle) — plus a closure escape hatch, [`PolicyKind::Custom`], and the
//!   feedback-controlled [`PolicyKind::Adaptive`] family.
//! * [`control`] — online adaptive leakage control: [`AdaptivePolicy`]
//!   keeps an integer EWMA of the leakage-activity rate and runs a
//!   hysteresis escalator on it (optionally behind a per-shot LRC budget)
//!   that retunes the LRC density mid-run, plus [`LeakageProfile`]
//!   time-varying noise schedules (bursts, ramps) to adapt against.
//! * [`runtime`] — the Monte-Carlo memory-experiment engine behind the
//!   facade: executes policy-adapted rounds on the leakage-aware frame
//!   simulator, decodes with dense or sparse MWPM or union-find, and reports
//!   logical error rate, leakage population ratio, LRC counts, and
//!   speculation accuracy (TP/FP/FN/TN).
//! * [`analysis`] — the paper's analytical models: Eq. (1), Eq. (2), the
//!   invisible-leakage distribution of Eq. (3)/Table 2.
//! * [`rtl`] / [`resource`] — a SystemVerilog generator for the
//!   LSB + DLI hardware (mirroring the artifact's `eraser_rtl_gen`) and an
//!   analytical LUT/FF/latency model for the Kintex UltraScale+ part used in
//!   Table 3.
//!
//! # Example
//!
//! ```
//! use eraser_core::{Experiment, PolicyKind};
//! use qec_core::NoiseParams;
//!
//! let exp = Experiment::builder()
//!     .distance(3)
//!     .noise(NoiseParams::standard(1e-3))
//!     .rounds(3)
//!     .policy(PolicyKind::eraser())
//!     .shots(20)
//!     .seed(1)
//!     .build()
//!     .expect("a valid experiment");
//! let result = exp.run();
//! assert_eq!(result.shots, 20);
//! assert!(result.ler() <= 1.0);
//!
//! // Grids run through the Sweep engine, which reuses runners and streams
//! // results point by point:
//! use eraser_core::Sweep;
//! let sweep = Sweep::builder()
//!     .distances([3])
//!     .error_rates([1e-3])
//!     .policies([PolicyKind::NoLrc, PolicyKind::eraser()])
//!     .rounds(3)
//!     .shots(10)
//!     .build()
//!     .expect("a valid sweep");
//! assert_eq!(sweep.run().len(), 2);
//! ```

pub mod analysis;
pub mod cache;
pub mod control;
pub mod experiment;
pub mod policy;
pub mod resource;
pub mod rtl;
pub mod runtime;
pub mod swap_table;

pub use cache::{ArtifactCache, ArtifactKind, CacheKey, CacheStats, ExperimentKey};
pub use control::{
    AdaptivePolicy, ControlBase, ControlLawKind, ControllerConfig, ControllerStats, LeakageProfile,
};
pub use experiment::{
    Experiment, ExperimentBuilder, ExperimentError, NoiseModel, PolicyFactory, PolicyKind, Sweep,
    SweepBuilder, SweepPoint,
};
pub use policy::{
    AlwaysLrcPolicy, EraserOptions, EraserPolicy, LeakageDetections, LrcPolicy, NoLrcPolicy,
    OptimalPolicy, RoundContext, StripeDetections, StripeRoundContext, StripedPolicy, WordPlanner,
};
pub use qec_decoder::TierCounters;
pub use resource::{FpgaPart, ResourceEstimate};
pub use runtime::{
    DecodeLatencyStats, DecoderKind, EnvOverrideError, ErasureDetection, LrcProtocol,
    MemoryRunResult, PostSelection, SpeculationStats,
};
pub use swap_table::SwapLookupTable;
