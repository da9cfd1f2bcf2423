//! Property-based validation of the blossom matcher against brute force, and
//! structural invariants of decoding graphs. Random cases come from the
//! in-repo [`qec_core::Rng`] generator (no external proptest dependency).

use qec_core::circuit::DetectorBasis;
use qec_core::{NoiseParams, Rng};
use qec_decoder::{
    build_dem, max_weight_matching, DecodingGraph, MwpmBatchDecoder, Syndrome, SyndromeDecoder,
};
use surface_code::{MemoryExperiment, RotatedCode};

/// Exhaustive matcher maximizing (cardinality, weight).
fn brute_force(n: usize, edges: &[(usize, usize, i64)]) -> (usize, i64) {
    fn rec(
        edges: &[(usize, usize, i64)],
        used: &mut Vec<bool>,
        idx: usize,
        card: usize,
        weight: i64,
        best: &mut (usize, i64),
    ) {
        *best = (*best).max((card, weight));
        if idx == edges.len() {
            return;
        }
        rec(edges, used, idx + 1, card, weight, best);
        let (u, v, w) = edges[idx];
        if !used[u] && !used[v] {
            used[u] = true;
            used[v] = true;
            rec(edges, used, idx + 1, card + 1, weight + w, best);
            used[u] = false;
            used[v] = false;
        }
    }
    let mut best = (0, 0);
    rec(edges, &mut vec![false; n], 0, 0, 0, &mut best);
    best
}

/// Up to 7 vertices, a random subset of the 21 possible edges, signed
/// weights in -8..20 (the shape the old proptest strategy produced).
fn random_edges(rng: &mut Rng) -> Vec<(usize, usize, i64)> {
    let count = 1 + rng.below(13) as usize;
    let mut seen = std::collections::HashSet::new();
    let mut edges = Vec::new();
    for _ in 0..count {
        let a = rng.below(7) as usize;
        let b = rng.below(7) as usize;
        let w = rng.below(28) as i64 - 8;
        if a == b {
            continue;
        }
        let key = (a.min(b), a.max(b));
        if seen.insert(key) {
            edges.push((key.0, key.1, w));
        }
    }
    edges
}

#[test]
fn blossom_matches_brute_force() {
    let mut rng = Rng::new(0xB10_550);
    let mut checked = 0;
    for case in 0..200 {
        let edges = random_edges(&mut rng);
        if edges.is_empty() {
            continue;
        }
        let n = 7;
        let mate = max_weight_matching(&edges);
        let mut mate_full = mate.clone();
        mate_full.resize(n, None);
        // Symmetry.
        for (v, m) in mate_full.iter().enumerate() {
            if let Some(w) = m {
                assert_eq!(mate_full[*w], Some(v), "case {case}: asymmetric mate");
            }
        }
        // Weight optimality.
        let mut card = 0usize;
        let mut weight = 0i64;
        for &(u, v, w) in &edges {
            if mate_full[u] == Some(v) {
                card += 1;
                weight += w;
            }
        }
        assert_eq!(
            (card, weight),
            brute_force(n, &edges),
            "case {case}: {edges:?}"
        );
        checked += 1;
    }
    assert!(checked > 150, "too few non-trivial cases ({checked})");
}

#[test]
fn mwpm_decodes_xor_of_two_mechanisms_consistently() {
    // Decoding the XOR of two elementary mechanisms must be deterministic,
    // and decoding the empty syndrome trivial (the weaker invariant the old
    // proptest suite asserted — MWPM may legitimately find a different
    // pairing with the same homology).
    let exp = MemoryExperiment::new(RotatedCode::new(3), NoiseParams::standard(1e-3), 2);
    let detectors = exp.detectors();
    let dem = build_dem(&exp.base_circuit(), &detectors, &exp.observable_keys());
    let graph = DecodingGraph::from_dem(&dem, &detectors, DetectorBasis::Z);
    let mut decoder = MwpmBatchDecoder::new(&graph);
    let mut rng = Rng::new(0x2_3EC4);
    for _ in 0..16 {
        let a = &dem.mechanisms[rng.below(dem.mechanisms.len() as u64) as usize];
        let b = &dem.mechanisms[rng.below(dem.mechanisms.len() as u64) as usize];
        let mut events = vec![false; graph.num_nodes()];
        for mech in [a, b] {
            for &det in &mech.detectors {
                if let Some(node) = graph.node_of_detector(det) {
                    events[node] ^= true;
                }
            }
        }
        let syndrome = Syndrome::new((0..graph.num_nodes()).filter(|&n| events[n]).collect());
        let first = decoder.decode(&syndrome, None).flip;
        let second = decoder.decode(&syndrome, None).flip;
        assert_eq!(first, second, "decoding must be deterministic");
        assert!(!decoder.decode(&Syndrome::default(), None).flip);
    }
}
