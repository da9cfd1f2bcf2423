//! Leakage-aware stabilizer simulation.
//!
//! The ERASER paper extends Google's Stim simulator with leakage tracking;
//! Stim itself has no leakage support, so this crate provides the equivalent
//! from scratch:
//!
//! * [`FrameSimulator`] — a Pauli-frame Monte-Carlo simulator (Stim's sampling
//!   strategy) extended with per-qubit leakage flags implementing the paper's
//!   §5.2.2 model: leakage injection, seepage, leakage transport through
//!   CNOTs (conservative and exchange variants), random Pauli kicks from
//!   leaked operands, leaked-readout randomization, and Google's
//!   `LeakageISWAP` for the DQLR protocol.
//! * [`BatchFrameSimulator`] — the word-parallel form of the same model: 64
//!   shots per stripe as per-qubit X/Z/leakage bit-planes with masked-op
//!   execution, bit-identical to 64 scalar runs (see the [`batch`] module
//!   docs for the layout and the RNG-alignment discipline).
//! * [`TableauSimulator`] — a full Aaronson–Gottesman stabilizer simulator
//!   used by the test-suite to verify that the surface-code circuits measure
//!   what they claim to measure (deterministic detectors, logical operators).
//! * [`Discriminator`] / [`ReadoutLabel`] — two-level vs multi-level readout
//!   (§4.6): a standard discriminator classifies a leaked qubit into a random
//!   computational label, a multi-level discriminator reports |L⟩ with error
//!   rate `10p`.
//!
//! # Example
//!
//! ```
//! use leak_sim::{Discriminator, FrameSimulator};
//! use qec_core::{NoiseParams, Op, Rng};
//!
//! let noise = NoiseParams::standard(1e-3);
//! let mut sim = FrameSimulator::new(2, 1, noise, Discriminator::TwoLevel, Rng::new(1));
//! sim.apply(&Op::LeakInject { qubit: 0, p: 1.0 });
//! assert!(sim.is_leaked(0));
//! sim.apply(&Op::Measure { qubit: 0, key: 0 });
//! sim.apply(&Op::Reset(0));
//! assert!(!sim.is_leaked(0)); // reset removes leakage
//! ```

pub mod batch;
pub mod frame;
pub mod readout;
pub mod tableau;

pub use batch::{BatchFrameSimulator, BatchMeasRecord, CompiledOp, STRIPE_WIDTH};
pub use frame::{FrameSimulator, MeasRecord};
pub use readout::{Discriminator, ReadoutLabel};
pub use tableau::TableauSimulator;
