//! Tiered sparse-syndrome fast-path decoding (the predecoder).
//!
//! At the paper's operating points (p ≈ 1e-3) the vast majority of decode
//! calls — individual windows, or whole shots under a full-cover window —
//! carry zero, one, or two defects, yet the pipeline pays full decoder
//! machinery for every one of them. An *exact* tier ladder fronts every
//! backend:
//!
//! | Tier | Applies to | Resolution |
//! |------|------------|------------|
//! | 0 | no defects, no erasures | skip outright ([`crate::DecodeOutcome::default`]) |
//! | 1 | 1–2 defects, no erasures (the backend's scope) | closed form via [`crate::SyndromeDecoder::decode_tier1`] |
//! | 2 | everything else | the configured backend, unchanged |
//!
//! Every tier is bit-identical to the untier'd path: the same flip, the
//! same f64 weight bits, and the same correction-edge sequence. Tier 0
//! reproduces the empty-syndrome early return every backend already has;
//! tier 1 is each backend's own closed form (boundary match for one
//! defect; min of pair-path vs two boundary matches for two), which
//! *defers* (`None`) whenever the optimal matching is ambiguous so the
//! full solver keeps making the tie-break. The backend owns the tier-1
//! scope: the ladder asks `decode_tier1` on every non-empty window, and the
//! backend defers (`None`, correction untouched) on anything other than
//! 1–2 erasure-free defects. The union-find backend has no order-free
//! closed form and always defers to tier 2; it still gets the tier-0 skip.
//!
//! The ladder is always on; there is no switch to turn it off. It runs
//! inline in the streaming path every run decodes through,
//! [`crate::window::WindowedDecoder`]'s per-position decode, in front of
//! every window. A window's carried-in defects count against the tier
//! threshold because they are part of its live defect set, and a
//! full-cover window (one position spanning every round) runs the ladder
//! on the whole shot. Its reference is the tier-1 contract itself:
//! `crates/decoder/tests/predecode.rs` checks every 1- and 2-defect
//! syndrome on real window shapes against the backend's full decode, and
//! full-cover windows against the bare backends on random shots.
//! [`TierCounters`] is the mergeable per-tier telemetry.

/// Per-tier hit/latency telemetry. Integer-valued and merged by addition,
/// so cross-thread / cross-stripe aggregation is exact regardless of merge
/// order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierCounters {
    /// Decode calls resolved per tier (0 = skipped, 1 = closed form,
    /// 2 = full backend).
    pub hits: [u64; 3],
    /// Wall-clock nanoseconds spent per tier.
    pub nanos: [u64; 3],
}

impl TierCounters {
    /// Records one decode call resolved at `tier`.
    #[inline]
    pub fn record(&mut self, tier: usize, nanos: u64) {
        self.hits[tier] += 1;
        self.nanos[tier] += nanos;
    }

    /// Total decode calls across all tiers.
    pub fn total(&self) -> u64 {
        self.hits.iter().sum()
    }

    /// Fraction of calls resolved at `tier` (0 when nothing was decoded).
    pub fn hit_rate(&self, tier: usize) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.hits[tier] as f64 / total as f64
        }
    }

    /// True when any decode call was counted.
    pub fn is_active(&self) -> bool {
        self.total() > 0
    }

    /// Exact order-independent merge (sums).
    pub fn merge(&mut self, other: &TierCounters) {
        for t in 0..3 {
            self.hits[t] += other.hits[t];
            self.nanos[t] += other.nanos[t];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dem::build_dem;
    use crate::graph::DecodingGraph;
    use crate::window::{DecoderKind, StreamingDecoder, WindowPlan};
    use qec_core::circuit::DetectorBasis;
    use qec_core::NoiseParams;
    use surface_code::{MemoryExperiment, RotatedCode};

    fn graph() -> DecodingGraph {
        let exp = MemoryExperiment::new(RotatedCode::new(3), NoiseParams::standard(1e-3), 2);
        let detectors = exp.detectors();
        let dem = build_dem(&exp.base_circuit(), &detectors, &exp.observable_keys());
        DecodingGraph::from_dem(&dem, &detectors, DetectorBasis::Z)
    }

    /// Decodes `shots` (`(defects, erasures)` in global ids) on a
    /// full-cover window, the ladder's whole-shot form, and returns the
    /// tier counters.
    fn route(
        g: &DecodingGraph,
        backend: DecoderKind,
        shots: &[(Vec<usize>, Vec<usize>)],
    ) -> TierCounters {
        let span = g.max_round() + 1;
        let plan = WindowPlan::new(g, span, span, backend);
        let mut decoder = plan.streaming();
        for (defects, erasures) in shots {
            decoder.begin_shot();
            for r in 0..span {
                let in_round: Vec<usize> = defects
                    .iter()
                    .copied()
                    .filter(|&v| g.node_round(v) == r)
                    .collect();
                decoder.push_round(&in_round, if r == 0 { erasures } else { &[] });
            }
            decoder.finish();
        }
        *decoder.tier_counters()
    }

    #[test]
    fn counters_merge_and_rate() {
        let mut a = TierCounters::default();
        a.record(0, 0);
        a.record(1, 10);
        let mut b = TierCounters::default();
        b.record(2, 100);
        b.record(0, 0);
        a.merge(&b);
        assert_eq!(a.hits, [2, 1, 1]);
        assert_eq!(a.nanos, [0, 10, 100]);
        assert_eq!(a.total(), 4);
        assert!((a.hit_rate(0) - 0.5).abs() < 1e-12);
        assert!(a.is_active());
        assert!(!TierCounters::default().is_active());
        assert_eq!(TierCounters::default().hit_rate(1), 0.0);
    }

    /// The endpoints of the first edge between two detectors: a pair with
    /// one unambiguous cheapest matching.
    fn edge_pair(g: &DecodingGraph) -> Vec<usize> {
        let e = g
            .edges()
            .iter()
            .find(|e| e.b != g.boundary())
            .expect("a bulk edge");
        vec![e.a.min(e.b), e.a.max(e.b)]
    }

    #[test]
    fn ladder_routes_by_defect_count() {
        let g = graph();
        let shots = [
            // Tier 0: nothing fired, nothing erased.
            (vec![], vec![]),
            // Tier 1: one defect, and a two-defect pair.
            (vec![0], vec![]),
            (edge_pair(&g), vec![]),
            // Tier 2: three defects, and one defect under an erasure.
            (vec![0, 1, 2], vec![]),
            (vec![0], vec![0]),
        ];
        assert_eq!(route(&g, DecoderKind::Mwpm, &shots).hits, [1, 2, 2]);
    }

    #[test]
    fn unsupported_tier1_falls_through_to_full() {
        // Union-find has no closed form: its 1–2 defect shots go to tier 2.
        let g = graph();
        let shots = [(vec![0], vec![]), (edge_pair(&g), vec![])];
        assert_eq!(route(&g, DecoderKind::UnionFind, &shots).hits, [0, 0, 2]);
    }
}
