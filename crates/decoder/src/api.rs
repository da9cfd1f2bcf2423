//! The stateful decoder API.
//!
//! Decoding is the hot path of every figure sweep: millions of shots flow
//! through one decoder per worker thread. The API here is shaped for that
//! workload, following the design of production matching libraries
//! (fusion-blossom's reusable `Solver`, PyMatching's `Matching` object):
//!
//! * [`Syndrome`] — the input of one shot: a sparse list of fired detector
//!   nodes plus an optional erasure set.
//! * [`DecodeOutcome`] — the output of one shot: the predicted
//!   logical-observable flip plus matched-weight, defect-count, and timing
//!   statistics.
//! * [`SyndromeDecoder`] — a *stateful* decoder instance. `&mut self` lets
//!   implementations keep scratch buffers (matching arenas, cluster arrays,
//!   candidate heaps) alive across shots, so a warm decoder performs no
//!   per-shot heap allocation. It has one method,
//!   [`SyndromeDecoder::decode`], whose optional correction buffer receives
//!   the correction as edges; [`DecodeOutcome::closed_form`] reports
//!   whether the backend answered in its own closed form (the predecoder's
//!   tier 1). A backend's name is its [`crate::DecoderKind`].
//!
//! Each backend is built by its own constructors: `new(&graph)` computes the
//! expensive per-graph table (the all-pairs-shortest-path table, the sparse
//! boundary index, quantized edge capacities), and `with_*(&graph, Arc)`
//! builds a further instance — one per worker thread — over a table already
//! computed. Runs build their decoders through [`crate::WindowPlan`], which
//! computes one table per window shape and hands out a
//! [`crate::WindowedDecoder`] per thread via [`crate::WindowPlan::streaming`].
//!
//! ```
//! use qec_core::NoiseParams;
//! use qec_core::circuit::DetectorBasis;
//! use qec_decoder::{build_dem, DecodingGraph, MwpmBatchDecoder, Syndrome, SyndromeDecoder};
//! use surface_code::{MemoryExperiment, RotatedCode};
//! use std::sync::Arc;
//!
//! let exp = MemoryExperiment::new(RotatedCode::new(3), NoiseParams::standard(1e-3), 2);
//! let detectors = exp.detectors();
//! let dem = build_dem(&exp.base_circuit(), &detectors, &exp.observable_keys());
//! let graph = DecodingGraph::from_dem(&dem, &detectors, DetectorBasis::Z);
//!
//! let mut decoder = MwpmBatchDecoder::new(&graph); // all-pairs shortest paths, once
//! let mut other = MwpmBatchDecoder::with_paths(&graph, Arc::clone(decoder.paths())); // cheap
//! let outcome = decoder.decode(&Syndrome::default(), None);
//! assert!(!outcome.flip); // no defects, no correction
//! assert_eq!(outcome.defects, 0);
//!
//! // The same call can also emit the correction as decoding-graph edges.
//! let mut correction = Vec::new();
//! let outcome = other.decode(&Syndrome::new(vec![0, 1]), Some(&mut correction));
//! assert_eq!(outcome.defects, 2);
//! assert!(!correction.is_empty());
//! ```

/// The sparse syndrome of one shot: fired detector nodes of one decoding
/// graph plus an optional erasure set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Syndrome {
    /// Fired detector nodes, as decoding-graph node ids (see
    /// [`crate::DecodingGraph::node_of_detector`]).
    pub defects: Vec<usize>,
    /// Erasure set: decoding-graph **edge indices** whose locations a
    /// leakage-detection policy flagged as leaked during this shot (see
    /// [`crate::DecodingGraph::erasure_edges_for_mechanism`]). The decoders
    /// treat these edges as near-free via a [`crate::WeightOverlay`]; an
    /// empty set decodes bit-identically to the erasure-unaware path.
    pub erasures: Vec<usize>,
}

impl Syndrome {
    /// A syndrome from a defect node list (no erasures).
    pub fn new(defects: Vec<usize>) -> Syndrome {
        Syndrome {
            defects,
            erasures: Vec::new(),
        }
    }

    /// A syndrome carrying an erasure set (decoding-graph edge indices
    /// flagged by leakage detection).
    pub fn with_erasures(defects: Vec<usize>, erasures: Vec<usize>) -> Syndrome {
        Syndrome { defects, erasures }
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
    /// (hot-loop reuse).
    pub fn clear(&mut self) {
        self.defects.clear();
        self.erasures.clear();
    }
}

/// The decoded result of one shot.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DecodeOutcome {
    /// Predicted logical-observable flip.
    pub flip: bool,
    /// Total matched weight of the correction: the sum of shortest-path
    /// distances of all matched pairs (matching decoders) or of the peeled
    /// correction edges (union-find). 0 for an empty syndrome. Where
    /// several matchings are optimal, which one is summed is the backend's
    /// choice, so only [`scale_weight`](crate::scale_weight) of it is
    /// fixed, not its f64 rounding.
    pub weight: f64,
    /// Number of defects that were decoded.
    pub defects: usize,
    /// Wall-clock decode time of this shot in nanoseconds.
    pub nanos: u64,
    /// Whether the backend answered a 1–2 defect, erasure-free syndrome in
    /// its closed form ([`crate::predecode`]'s tier 1). Reporting only: the
    /// answer is the one the backend's general path would give, bit for
    /// bit.
    pub closed_form: bool,
}

/// A stateful decoder instance: owns reusable scratch and decodes one
/// [`Syndrome`] at a time.
///
/// Instances are *not* shared across threads — build one per worker, over a
/// shared table (see the module docs). `&mut self` is what allows scratch
/// reuse: a warm decoder performs no per-shot heap allocation.
pub trait SyndromeDecoder {
    /// Decodes one syndrome. With `correction`, the correction is also
    /// emitted as decoding-graph **edge indices** (cleared first, allocation
    /// reused; an edge may appear more than once — occurrences XOR). The
    /// emitted edge set's observable-flip XOR always equals the returned
    /// [`DecodeOutcome::flip`]; this is what lets the sliding-window adapter
    /// ([`crate::window::WindowedDecoder`]) commit a correction region by
    /// region. Where several matchings are optimal, which one is walked,
    /// and so the order of the emitted edges, is the backend's choice:
    /// dense MWPM answers a tie whose optima all walk the same edges with
    /// one of them, so only the edge multiset, and not the f64 sum of edge
    /// weights taken in emitted order, is held to its blossom's.
    ///
    /// A backend that resolves its 1–2 defect, erasure-free syndromes in
    /// closed form does so inside this call and sets
    /// [`DecodeOutcome::closed_form`].
    fn decode(&mut self, syndrome: &Syndrome, correction: Option<&mut Vec<usize>>)
        -> DecodeOutcome;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn syndrome_basics() {
        let mut s = Syndrome::new(vec![3, 7]);
        assert_eq!(s.len(), 2);
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
        let e = Syndrome::with_erasures(vec![1], vec![4, 9]);
        assert_eq!(e.defects, vec![1]);
        assert_eq!(e.erasures, vec![4, 9]);
        assert_eq!(
            Syndrome::new(vec![1]),
            Syndrome::with_erasures(vec![1], vec![])
        );
    }
}
