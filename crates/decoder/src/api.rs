//! The stateful, batched decoder API.
//!
//! Decoding is the hot path of every figure sweep: millions of shots flow
//! through one decoder per worker thread. The API here is shaped for that
//! workload, following the design of production matching libraries
//! (fusion-blossom's reusable `Solver`, PyMatching's `Matching` object):
//!
//! * [`Syndrome`] — the input of one shot: a sparse list of fired detector
//!   nodes plus round metadata.
//! * [`DecodeOutcome`] — the output of one shot: the predicted
//!   logical-observable flip plus matched-weight, defect-count, and timing
//!   statistics.
//! * [`SyndromeDecoder`] — a *stateful* decoder instance. `&mut self` lets
//!   implementations keep scratch buffers (matching arenas, cluster arrays,
//!   candidate heaps) alive across shots, so the steady-state
//!   [`SyndromeDecoder::decode_batch`] loop performs no per-shot heap
//!   allocation.
//! * [`DecoderFactory`] — a thread-safe constructor. Expensive
//!   precomputation (the all-pairs-shortest-path table, quantized edge
//!   capacities) lives in the factory behind an [`std::sync::Arc`] and is
//!   paid once per decoding graph; every worker thread then builds its own
//!   cheap instance with private scratch.
//!
//! ```
//! use qec_core::NoiseParams;
//! use qec_core::circuit::DetectorBasis;
//! use qec_decoder::{build_dem, DecoderFactory, DecodingGraph, MwpmFactory, Syndrome};
//! use surface_code::{MemoryExperiment, RotatedCode};
//!
//! let exp = MemoryExperiment::new(RotatedCode::new(3), NoiseParams::standard(1e-3), 2);
//! let detectors = exp.detectors();
//! let dem = build_dem(&exp.base_circuit(), &detectors, &exp.observable_keys());
//! let graph = DecodingGraph::from_dem(&dem, &detectors, DetectorBasis::Z);
//!
//! let factory = MwpmFactory::new(&graph); // all-pairs shortest paths, once
//! let mut decoder = factory.build();      // per-thread instance, cheap
//! let outcome = decoder.decode_syndrome(&Syndrome::default());
//! assert!(!outcome.flip); // no defects, no correction
//! assert_eq!(outcome.defects, 0);
//! ```

/// The sparse syndrome of one shot: fired detector nodes of one decoding
/// graph, an optional erasure set, plus round metadata.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Syndrome {
    /// Fired detector nodes, as decoding-graph node ids (see
    /// [`crate::DecodingGraph::defects_from_events_into`]).
    pub defects: Vec<usize>,
    /// Syndrome-extraction rounds the shot spans (0 when unknown; carried as
    /// metadata for streaming/windowed backends, not consumed by the
    /// matching decoders).
    pub rounds: usize,
    /// Erasure set: decoding-graph **edge indices** whose locations a
    /// leakage-detection policy flagged as leaked during this shot (see
    /// [`crate::DecodingGraph::erasure_edges_for`]). The decoders treat
    /// these edges as near-free via a [`crate::WeightOverlay`]; an empty set
    /// decodes bit-identically to the erasure-unaware path.
    pub erasures: Vec<usize>,
}

impl Syndrome {
    /// Starts a [`SyndromeBuilder`] from a defect node list. The builder is
    /// the one constructor that composes every piece of metadata — round
    /// count and erasure set — in a single expression:
    ///
    /// ```
    /// use qec_decoder::Syndrome;
    ///
    /// let s = Syndrome::build(vec![2, 7]).rounds(11).erasures(vec![4]).finish();
    /// assert_eq!(s.rounds, 11);
    /// assert_eq!(s.erasures, vec![4]);
    /// ```
    pub fn build(defects: Vec<usize>) -> SyndromeBuilder {
        SyndromeBuilder {
            syndrome: Syndrome {
                defects,
                rounds: 0,
                erasures: Vec::new(),
            },
        }
    }

    /// A syndrome from a defect node list (rounds unknown, no erasures).
    /// Thin wrapper over [`Syndrome::build`].
    pub fn new(defects: Vec<usize>) -> Syndrome {
        Syndrome::build(defects).finish()
    }

    /// A syndrome with round metadata (no erasures). Thin wrapper over
    /// [`Syndrome::build`].
    pub fn with_rounds(defects: Vec<usize>, rounds: usize) -> Syndrome {
        Syndrome::build(defects).rounds(rounds).finish()
    }

    /// A syndrome carrying an erasure set (decoding-graph edge indices
    /// flagged by leakage detection). Thin wrapper over [`Syndrome::build`].
    pub fn with_erasures(defects: Vec<usize>, erasures: Vec<usize>) -> Syndrome {
        Syndrome::build(defects).erasures(erasures).finish()
    }

    /// Number of defects.
    pub fn len(&self) -> usize {
        self.defects.len()
    }

    /// Whether no detector fired.
    pub fn is_empty(&self) -> bool {
        self.defects.is_empty()
    }

    /// Clears the defect and erasure lists, keeping their allocations
    /// (hot-loop reuse). `rounds` is retained.
    pub fn clear(&mut self) {
        self.defects.clear();
        self.erasures.clear();
    }
}

/// Builder for [`Syndrome`], started via [`Syndrome::build`]. Unlike the
/// legacy `with_rounds` / `with_erasures` constructors (which cannot be
/// combined), the builder composes all metadata freely.
#[derive(Debug, Clone, Default)]
pub struct SyndromeBuilder {
    syndrome: Syndrome,
}

impl SyndromeBuilder {
    /// Sets the number of syndrome-extraction rounds the shot spans.
    pub fn rounds(mut self, rounds: usize) -> SyndromeBuilder {
        self.syndrome.rounds = rounds;
        self
    }

    /// Sets the erasure set (decoding-graph edge indices flagged by leakage
    /// detection).
    pub fn erasures(mut self, erasures: Vec<usize>) -> SyndromeBuilder {
        self.syndrome.erasures = erasures;
        self
    }

    /// Finishes the build.
    pub fn finish(self) -> Syndrome {
        self.syndrome
    }
}

impl From<SyndromeBuilder> for Syndrome {
    fn from(builder: SyndromeBuilder) -> Syndrome {
        builder.finish()
    }
}

/// The decoded result of one shot.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DecodeOutcome {
    /// Predicted logical-observable flip.
    pub flip: bool,
    /// Total matched weight of the correction: the sum of shortest-path
    /// distances of all matched pairs (matching decoders) or of the peeled
    /// correction edges (union-find). 0 for an empty syndrome.
    pub weight: f64,
    /// Number of defects that were decoded.
    pub defects: usize,
    /// Wall-clock decode time of this shot in nanoseconds.
    pub nanos: u64,
}

/// A stateful decoder instance: owns reusable scratch, decodes one
/// [`Syndrome`] at a time or a whole batch.
///
/// Instances are *not* shared across threads — build one per worker via a
/// [`DecoderFactory`]. `&mut self` is what allows scratch reuse: the
/// steady-state batch loop performs no per-shot heap allocation.
pub trait SyndromeDecoder {
    /// Decodes one syndrome.
    fn decode_syndrome(&mut self, syndrome: &Syndrome) -> DecodeOutcome;

    /// Decodes one syndrome and additionally emits the correction as
    /// decoding-graph **edge indices** into `correction` (cleared first,
    /// allocation reused; an edge may appear more than once — occurrences
    /// XOR). The emitted edge set's observable-flip XOR always equals the
    /// returned [`DecodeOutcome::flip`]; this is what lets the
    /// sliding-window adapter ([`crate::window::WindowedDecoder`]) commit a
    /// correction region by region.
    ///
    /// All in-repo decoders implement this; the default is for external
    /// implementations that have no edge-level correction and panics when a
    /// windowed pipeline requires one.
    fn decode_with_correction(
        &mut self,
        syndrome: &Syndrome,
        correction: &mut Vec<usize>,
    ) -> DecodeOutcome {
        let _ = syndrome;
        let _ = correction;
        unimplemented!(
            "{}: decode_with_correction not supported (required for windowed decoding)",
            self.name()
        )
    }

    /// Tier-1 fast path: decodes a 1–2 defect, erasure-free syndrome in
    /// closed form, bit-identically to the full decoder (flip, f64 weight
    /// bits, and — when `correction` is given — the exact correction-edge
    /// sequence), or returns `None` to defer to the full path.
    ///
    /// Implementations must return `None` whenever they cannot *guarantee*
    /// bit-identity (ambiguous optimal matchings, order-dependent
    /// corrections, out-of-scope syndromes: 0 or ≥ 3 defects, any
    /// erasures). The default always defers, which is correct for any
    /// backend; see [`crate::predecode`] for the tier dispatcher.
    fn decode_tier1(
        &mut self,
        syndrome: &Syndrome,
        correction: Option<&mut Vec<usize>>,
    ) -> Option<DecodeOutcome> {
        let _ = (syndrome, correction);
        None
    }

    /// Decodes a batch of syndromes into `out` (cleared first, allocation
    /// reused). The default implementation loops over
    /// [`SyndromeDecoder::decode_syndrome`]; a backend with real batch
    /// parallelism can override it.
    fn decode_batch(&mut self, syndromes: &[Syndrome], out: &mut Vec<DecodeOutcome>) {
        out.clear();
        out.reserve(syndromes.len());
        for syndrome in syndromes {
            out.push(self.decode_syndrome(syndrome));
        }
    }

    /// Human-readable decoder name (for experiment output).
    fn name(&self) -> &'static str;
}

/// Thread-safe decoder constructor: owns the expensive per-graph
/// precomputation (shared via [`std::sync::Arc`]) and stamps out cheap
/// per-thread [`SyndromeDecoder`] instances.
pub trait DecoderFactory: Send + Sync {
    /// Builds a fresh decoder instance with private scratch buffers. The
    /// instance borrows the factory's shared precomputation.
    fn build(&self) -> Box<dyn SyndromeDecoder + '_>;

    /// Name of the decoders this factory builds.
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;

    struct CountingDecoder {
        calls: usize,
    }

    impl SyndromeDecoder for CountingDecoder {
        fn decode_syndrome(&mut self, syndrome: &Syndrome) -> DecodeOutcome {
            self.calls += 1;
            DecodeOutcome {
                flip: syndrome.len() % 2 == 1,
                weight: syndrome.len() as f64,
                defects: syndrome.len(),
                nanos: 0,
            }
        }

        fn name(&self) -> &'static str {
            "counting"
        }
    }

    #[test]
    fn syndrome_basics() {
        let mut s = Syndrome::with_rounds(vec![3, 7], 11);
        assert_eq!(s.len(), 2);
        assert_eq!(s.rounds, 11);
        assert!(!s.is_empty());
        assert!(s.erasures.is_empty());
        s.erasures.push(5);
        let cap = s.defects.capacity();
        let ecap = s.erasures.capacity();
        s.clear();
        assert!(s.is_empty());
        assert!(s.erasures.is_empty(), "clear drops the erasure set");
        assert_eq!(s.defects.capacity(), cap, "clear keeps the allocation");
        assert_eq!(s.erasures.capacity(), ecap, "clear keeps the allocation");
        assert!(Syndrome::default().is_empty());
        assert_eq!(Syndrome::new(vec![1]).rounds, 0);
        let e = Syndrome::with_erasures(vec![1], vec![4, 9]);
        assert_eq!(e.erasures, vec![4, 9]);
        assert_eq!(e.rounds, 0);
    }

    #[test]
    fn builder_composes_rounds_and_erasures() {
        // The one thing the legacy constructors cannot do: carry both.
        let s = Syndrome::build(vec![1, 2])
            .rounds(7)
            .erasures(vec![3])
            .finish();
        assert_eq!(
            (s.defects.as_slice(), s.rounds, s.erasures.as_slice()),
            (&[1, 2][..], 7, &[3][..])
        );
        // The legacy constructors are thin wrappers over the builder.
        assert_eq!(Syndrome::new(vec![5]), Syndrome::build(vec![5]).finish());
        assert_eq!(
            Syndrome::with_rounds(vec![5], 3),
            Syndrome::build(vec![5]).rounds(3).finish()
        );
        assert_eq!(
            Syndrome::with_erasures(vec![5], vec![8]),
            Syndrome::build(vec![5]).erasures(vec![8]).finish()
        );
        let via_from: Syndrome = Syndrome::build(vec![9]).rounds(2).into();
        assert_eq!(via_from.rounds, 2);
    }

    #[test]
    fn default_batch_loops_sequentially_and_reuses_out() {
        let mut decoder = CountingDecoder { calls: 0 };
        let batch = [
            Syndrome::new(vec![0]),
            Syndrome::new(vec![1, 2]),
            Syndrome::new(vec![]),
        ];
        let mut out = vec![DecodeOutcome::default(); 64];
        decoder.decode_batch(&batch, &mut out);
        assert_eq!(decoder.calls, 3);
        assert_eq!(out.len(), 3);
        assert_eq!(
            out.iter().map(|o| o.flip).collect::<Vec<_>>(),
            vec![true, false, false]
        );
        assert_eq!(out[1].defects, 2);
    }
}
