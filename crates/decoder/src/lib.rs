//! Surface-code decoder stack.
//!
//! The ERASER paper decodes with Minimum-Weight Perfect Matching (§2.2, §5.3),
//! built on a circuit-level detector error model. This crate implements that
//! stack from scratch:
//!
//! * [`dem`] — builds a [`DetectorErrorModel`] by propagating every single
//!   Pauli fault component of a noisy circuit to the measurement record
//!   (Stim's `detector_error_model` equivalent). Leakage operations are
//!   deliberately ignored when building the model: the *baseline* decoder is
//!   leakage-unaware, which is the paper's premise. Leakage *detection*
//!   flags can still reach the decoders at runtime through
//!   [`Syndrome::erasures`] (see [`overlay`]).
//! * [`graph`] — projects the error model onto one stabilizer basis and
//!   produces a weighted [`DecodingGraph`] (weights `ln((1−p)/p)`), with
//!   hyperedge decomposition onto elementary edges.
//! * [`matching`] — an exact maximum-weight matching implementation (Galil's
//!   O(n³) blossom algorithm, ported from the classic NetworkX formulation),
//!   validated against brute force. [`MatchingContext`] keeps every working
//!   list of the matcher alive across solves, so a warm solve does not
//!   allocate.
//! * [`api`] — the stateful decoder interface: [`Syndrome`] in,
//!   [`DecodeOutcome`] out, through a per-thread [`SyndromeDecoder`] with
//!   one method ([`SyndromeDecoder::decode`], correction edges optional),
//!   inside which a backend answers its tier-1 closed form.
//! * [`mwpm`] — the MWPM decoder: all-pairs shortest paths with
//!   observable-parity tracking, then the shared matching core's certified
//!   exact solver (pruning, components, subset DP) that proves its optimum
//!   unique, so it returns what the blossom would, bit for bit; the
//!   blossom, with per-defect virtual boundary nodes, runs only on ties it
//!   cannot settle (0.44% of matchings on a d = 7 stream).
//! * [`sparse`] — the sparse (APSP-free) MWPM decoder: per-defect bounded
//!   Dijkstras over integer weights, then the matching core it shares with
//!   [`mwpm`] (component split and subset DP), with the blossom only on
//!   the components the DP cannot prove. Same optimal correction weight as
//!   [`mwpm`] with O(V) precomputation instead of O(V²) — the MWPM-accuracy
//!   backend for d ≥ 11.
//! * [`weight`] — the shared f64 → integer weight quantization both blossom
//!   backends use, so their optimality comparison is exact.
//! * [`unionfind`] — a weighted union-find decoder (Delfosse–Nickerson) used
//!   for large code distances where O(n³) matching is too slow.
//! * [`overlay`] — erasure decoding: a reusable [`WeightOverlay`] that
//!   dynamically reweights the decoding-graph edges a leakage-detection
//!   policy flagged ([`Syndrome::erasures`]) to ~0 for MWPM path costs and
//!   union-find growth, then restores them. An empty erasure set decodes
//!   bit-identically to the erasure-unaware path.
//! * [`window`] — sliding-window streaming decoding: a round-indexed
//!   [`WindowGraph`] partition view, a per-graph [`WindowPlan`] whose
//!   precomputation is O(window²) per *shape* rather than O(R²), and the
//!   [`StreamingDecoder`] / [`WindowedDecoder`] round-incremental interface
//!   that gives all three backends bounded-memory decoding at any R. Its
//!   [`DecoderKind`] is the workspace's one backend vocabulary (dense MWPM,
//!   sparse MWPM, union-find, or `Auto`, which a plan resolves against its
//!   own window's node count).
//! * [`predecode`] — the tiered sparse-syndrome fast path that
//!   [`WindowedDecoder`] runs inline in front of every window: tier 0 skips
//!   empty windows outright, tier 1 counts the 1–2 defect syndromes a
//!   backend answered in closed form, tier 2 the rest — always on,
//!   bit-identical to the untier'd path, with per-tier [`TierCounters`]
//!   telemetry.
//!
//! # Decoding millions of shots
//!
//! Decoder throughput is the hot path of every Monte-Carlo sweep, so the
//! interface is *stateful*: the expensive per-graph precomputation (the
//! [`ShortestPaths`] table, the [`SparseIndex`], quantized
//! [`UnionFindCapacities`]) is computed once and shared behind an
//! [`std::sync::Arc`]; each worker thread builds its own [`SyndromeDecoder`]
//! whose scratch buffers are reused across shots, so a warm decoder performs
//! no per-shot heap allocation. A backend's `new(&graph)` computes its table;
//! `with_paths` / `with_index` / `with_capacities` build a further instance
//! over a table already computed. For multi-threaded runs, a [`WindowPlan`]
//! computes one table per window shape and [`WindowPlan::streaming`] hands
//! out one [`WindowedDecoder`] per thread.
//!
//! ```
//! use qec_core::NoiseParams;
//! use qec_core::circuit::DetectorBasis;
//! use qec_decoder::{build_dem, DecodingGraph, MwpmBatchDecoder, Syndrome, SyndromeDecoder};
//! use surface_code::{MemoryExperiment, RotatedCode};
//!
//! let exp = MemoryExperiment::new(RotatedCode::new(3), NoiseParams::standard(1e-3), 2);
//! let detectors = exp.detectors();
//! let dem = build_dem(&exp.base_circuit(), &detectors, &exp.observable_keys());
//! let graph = DecodingGraph::from_dem(&dem, &detectors, DetectorBasis::Z);
//!
//! // The expensive precomputation happens once, in `new`; the instance's
//! // scratch is then reused shot after shot.
//! let mut decoder = MwpmBatchDecoder::new(&graph);
//! let batch = vec![Syndrome::default(), Syndrome::new(vec![0, 1])];
//! let outcomes: Vec<_> = batch.iter().map(|s| decoder.decode(s, None)).collect();
//! assert!(!outcomes[0].flip); // no defects, no correction
//! assert_eq!(outcomes[1].defects, 2);
//! ```

pub mod api;
mod defect_matching;
pub mod dem;
mod fxhash;
pub mod graph;
pub mod matching;
pub mod mwpm;
pub mod overlay;
pub mod predecode;
pub mod sparse;
#[cfg(test)]
mod table_reference;
pub mod unionfind;
pub mod weight;
pub mod window;

pub use api::{DecodeOutcome, Syndrome, SyndromeDecoder};
pub use dem::{build_dem, DetectorErrorModel, ErrorMechanism};
pub use graph::{DecodingGraph, GraphEdge};
pub use matching::{max_weight_matching, MatchingContext};
pub use mwpm::{MwpmBatchDecoder, ShortestPaths};
pub use overlay::{DijkstraScratch, WeightOverlay, ERASED_WEIGHT};
pub use predecode::TierCounters;
pub use sparse::{SparseIndex, SparseMwpmDecoder};
pub use unionfind::{UnionFindBatchDecoder, UnionFindCapacities};
pub use weight::{scale_weight, snap_weight, WEIGHT_SCALE};
/// [`DecoderKind`] under its former name. It exists only because the
/// `perfbench` benchmark harness still names it, and it goes with the next
/// change to that benchmark.
pub use window::DecoderKind as WindowBackend;
pub use window::{DecoderKind, StreamingDecoder, WindowGraph, WindowPlan, WindowedDecoder};
