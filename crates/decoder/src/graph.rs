//! Weighted decoding graphs for one stabilizer basis.
//!
//! A [`DecodingGraph`] projects a [`crate::DetectorErrorModel`]
//! onto the detectors of a single basis (the paper decodes X and Z
//! independently, §2.2). Mechanisms touching one detector become boundary
//! edges, mechanisms touching two become regular edges, and rarer
//! many-detector mechanisms (e.g. `X⊗X` components of two-qubit depolarizing
//! channels) are decomposed onto existing elementary edges, matching the
//! standard Stim/PyMatching `decompose_errors` behaviour.

use crate::dem::{combine_probability, DetectorErrorModel};
use crate::fxhash::FxHashMap;
use crate::weight::{snap_weight, validate_edge_weight};
use qec_core::circuit::DetectorBasis;
use qec_core::DetectorInfo;

/// One edge of the decoding graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphEdge {
    /// First endpoint (graph node id).
    pub a: usize,
    /// Second endpoint; equal to [`DecodingGraph::boundary`] for boundary
    /// edges.
    pub b: usize,
    /// Total mechanism probability on this edge.
    pub probability: f64,
    /// Matching weight `ln((1−p)/p)` (clamped to a small positive floor).
    pub weight: f64,
    /// Whether traversing the edge flips the logical observable.
    pub flips_observable: bool,
}

/// A matchable decoding graph over the detectors of one basis.
///
/// # Example
///
/// ```
/// use qec_core::NoiseParams;
/// use qec_core::circuit::DetectorBasis;
/// use qec_decoder::{build_dem, DecodingGraph};
/// use surface_code::{MemoryExperiment, RotatedCode};
///
/// let exp = MemoryExperiment::new(RotatedCode::new(3), NoiseParams::standard(1e-3), 2);
/// let detectors = exp.detectors();
/// let dem = build_dem(&exp.base_circuit(), &detectors, &exp.observable_keys());
/// let graph = DecodingGraph::from_dem(&dem, &detectors, DetectorBasis::Z);
/// assert!(graph.num_nodes() > 0);
/// assert!(graph.edges().len() > graph.num_nodes() / 2);
/// ```
#[derive(Debug, Clone)]
pub struct DecodingGraph {
    num_nodes: usize,
    edges: Vec<GraphEdge>,
    /// node -> incident edge indices (boundary node included, last slot).
    adjacency: Vec<Vec<usize>>,
    /// graph node -> global detector index.
    node_to_detector: Vec<usize>,
    /// global detector index -> graph node.
    detector_to_node: Vec<Option<usize>>,
    /// Mechanisms that flip the observable while firing no detector of this
    /// basis. Zero when the graph's basis matches the observable's detecting
    /// basis (otherwise a single fault could cause an invisible logical
    /// error — a code-distance violation).
    undetectable_observable_flips: usize,
    /// Per source mechanism (indexed like `DetectorErrorModel::mechanisms`):
    /// the edge indices its projection landed on (one for elementary
    /// mechanisms, several for decomposed hyperedges, none when invisible to
    /// this basis), sorted. Together with `ErrorMechanism::sources` this maps
    /// fault provenance to graph edges — the basis of exact heralded-erasure
    /// lookups. Stored as CSR: mechanism `m`'s edges are
    /// `mechanism_edges[mechanism_offsets[m]..mechanism_offsets[m + 1]]`.
    mechanism_offsets: Vec<usize>,
    mechanism_edges: Vec<usize>,
    /// Per node: the syndrome-extraction round of its detector (the final
    /// data-measurement detectors carry round = number of rounds). This is
    /// the round index the sliding-window machinery partitions on.
    node_round: Vec<usize>,
}

impl DecodingGraph {
    /// Builds the graph for `basis` from a detector error model.
    pub fn from_dem(
        dem: &DetectorErrorModel,
        detectors: &[DetectorInfo],
        basis: DetectorBasis,
    ) -> DecodingGraph {
        assert_eq!(dem.num_detectors, detectors.len());
        let mut node_to_detector = Vec::new();
        let mut detector_to_node = vec![None; detectors.len()];
        for (idx, det) in detectors.iter().enumerate() {
            if det.basis == basis {
                detector_to_node[idx] = Some(node_to_detector.len());
                node_to_detector.push(idx);
            }
        }
        let num_nodes = node_to_detector.len();
        let node_round: Vec<usize> = node_to_detector
            .iter()
            .map(|&det| detectors[det].round)
            .collect();
        let boundary = num_nodes;

        // First pass: project every mechanism; collect elementary (≤2 node)
        // ones directly, defer larger ones for decomposition. Every landing
        // is logged as (mechanism, edge slot) for the provenance map.
        let mut merged = EdgeMerger::default();
        let mut landings: Vec<(usize, usize)> = Vec::with_capacity(dem.mechanisms.len());
        let mut deferred: Vec<(usize, Vec<usize>, bool, f64)> = Vec::new();
        let mut undetectable_observable_flips = 0;
        let mut nodes: Vec<usize> = Vec::new();
        for (mi, mech) in dem.mechanisms.iter().enumerate() {
            nodes.clear();
            nodes.extend(mech.detectors.iter().filter_map(|&d| detector_to_node[d]));
            let key = match *nodes.as_slice() {
                [] => {
                    // Invisible to this basis (e.g. a Z error for the Z
                    // graph). A mechanism that flips the observable while
                    // firing no detector of the observable's detecting basis
                    // would be a distance-0 error; surface-code circuits
                    // never produce one for the matching basis (asserted in
                    // tests via `undetectable_observable_flips`).
                    if mech.flips_observable {
                        undetectable_observable_flips += 1;
                    }
                    continue;
                }
                [n] => (n, boundary),
                [n, m] => ordered(n, m),
                _ => {
                    deferred.push((mi, nodes.clone(), mech.flips_observable, mech.probability));
                    continue;
                }
            };
            let slot = merged.merge(key, mech.probability, mech.flips_observable);
            landings.push((mi, slot));
        }

        // Second pass: decompose hyperedges into pairs of existing elementary
        // edges whose observable parities XOR to the mechanism's.
        for (mi, mut nodes, obs, p) in deferred {
            nodes.sort_unstable();
            for (key, part_obs) in decompose(&nodes, obs, boundary, &merged) {
                let slot = merged.merge(key, p, part_obs);
                landings.push((mi, slot));
            }
        }

        // Edges sorted by endpoints; `rank` maps an edge slot to its index.
        let slots = merged.slots;
        let mut order: Vec<usize> = (0..slots.len()).collect();
        order.sort_unstable_by_key(|&slot| slots[slot].0);
        let mut rank = vec![0; slots.len()];
        for (i, &slot) in order.iter().enumerate() {
            rank[slot] = i;
        }
        let edges: Vec<GraphEdge> = order
            .iter()
            .map(|&slot| {
                let ((a, b), probability, flips_observable) = slots[slot];
                let p = probability.clamp(1e-12, 0.5 - 1e-9);
                GraphEdge {
                    a,
                    b,
                    probability,
                    // Snapped to the shared integer-quantization grid so the
                    // dense (scaled f64 path sums) and sparse (summed scaled
                    // edges) blossom backends optimize the exact same metric.
                    weight: snap_weight(((1.0 - p) / p).ln().max(1e-4)),
                    flips_observable,
                }
            })
            .collect();
        for (i, e) in edges.iter().enumerate() {
            validate_edge_weight(i, e.weight);
        }

        let mut adjacency = vec![Vec::new(); num_nodes + 1];
        for (i, e) in edges.iter().enumerate() {
            adjacency[e.a].push(i);
            adjacency[e.b].push(i);
        }

        // Provenance map in CSR form: each mechanism's edges, sorted. A
        // mechanism's parts are node-disjoint pairs, so no edge repeats. The
        // landing log is two runs already sorted by mechanism, so the stable
        // sort is close to one merge.
        let mut landings: Vec<(usize, usize)> = landings
            .into_iter()
            .map(|(mi, slot)| (mi, rank[slot]))
            .collect();
        landings.sort();
        let mut mechanism_offsets = vec![0; dem.mechanisms.len() + 1];
        for &(mi, _) in &landings {
            mechanism_offsets[mi + 1] += 1;
        }
        for mi in 0..dem.mechanisms.len() {
            mechanism_offsets[mi + 1] += mechanism_offsets[mi];
        }
        let mechanism_edges = landings.into_iter().map(|(_, edge)| edge).collect();
        DecodingGraph {
            num_nodes,
            edges,
            adjacency,
            node_to_detector,
            detector_to_node,
            undetectable_observable_flips,
            mechanism_offsets,
            mechanism_edges,
            node_round,
        }
    }

    /// Builds a bare graph from pre-restricted parts (the sliding-window
    /// subgraph constructor, see [`crate::window::WindowGraph`]): nodes are
    /// locally numbered, `edges` reference local ids (boundary = `num_nodes`),
    /// and `node_round` carries each node's round *relative to the window
    /// base*. The detector mappings degenerate to the identity and the
    /// provenance map is empty — window graphs are decode-only views.
    pub(crate) fn from_window_parts(
        num_nodes: usize,
        edges: Vec<GraphEdge>,
        node_round: Vec<usize>,
    ) -> DecodingGraph {
        assert_eq!(node_round.len(), num_nodes);
        let mut adjacency = vec![Vec::new(); num_nodes + 1];
        for (i, e) in edges.iter().enumerate() {
            debug_assert!(e.a < num_nodes && e.b <= num_nodes && e.a < e.b);
            validate_edge_weight(i, e.weight);
            adjacency[e.a].push(i);
            adjacency[e.b].push(i);
        }
        DecodingGraph {
            num_nodes,
            edges,
            adjacency,
            node_to_detector: (0..num_nodes).collect(),
            detector_to_node: (0..num_nodes).map(Some).collect(),
            undetectable_observable_flips: 0,
            mechanism_offsets: Vec::new(),
            mechanism_edges: Vec::new(),
            node_round,
        }
    }

    /// Number of mechanisms that flip the observable without firing any
    /// detector of this basis. Must be zero when the graph's basis is the
    /// observable's detecting basis (checked by the test-suite; a non-zero
    /// value on the matching basis would mean an effective distance of 0).
    pub fn undetectable_observable_flips(&self) -> usize {
        self.undetectable_observable_flips
    }

    /// Number of detector nodes (the virtual boundary node is
    /// [`DecodingGraph::boundary`], one past the end).
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The virtual boundary node id.
    pub fn boundary(&self) -> usize {
        self.num_nodes
    }

    /// All edges.
    pub fn edges(&self) -> &[GraphEdge] {
        &self.edges
    }

    /// Edge indices incident to `node` (boundary allowed).
    pub fn incident(&self, node: usize) -> &[usize] {
        &self.adjacency[node]
    }

    /// Maps a graph node back to its global detector index.
    pub fn detector_of_node(&self, node: usize) -> usize {
        self.node_to_detector[node]
    }

    /// The syndrome-extraction round of `node`'s detector (the final
    /// data-measurement detectors carry round = number of rounds). Window
    /// graphs report rounds relative to their own base round.
    pub fn node_round(&self, node: usize) -> usize {
        self.node_round[node]
    }

    /// The largest node round in the graph (= the experiment's round count
    /// for a full memory-experiment graph, because the final transversal
    /// detectors carry that round value).
    pub fn max_round(&self) -> usize {
        self.node_round.iter().copied().max().unwrap_or(0)
    }

    /// All node rounds, indexed by node id (for windowing's range queries).
    pub(crate) fn node_rounds(&self) -> &[usize] {
        &self.node_round
    }

    /// Maps a global detector index to its graph node, if it belongs to this
    /// basis.
    pub fn node_of_detector(&self, detector: usize) -> Option<usize> {
        self.detector_to_node[detector]
    }

    /// The edge indices mechanism `mech` (an index into the source
    /// [`crate::DetectorErrorModel::mechanisms`]) landed on in this graph:
    /// one edge for an elementary mechanism, several for a decomposed
    /// hyperedge, none when the mechanism is invisible to this basis.
    /// Combined with [`crate::ErrorMechanism::sources`], this translates
    /// "this circuit location was faulty" (e.g. heralded leakage) into the
    /// exact erased-edge set.
    pub fn erasure_edges_for_mechanism(&self, mech: usize) -> &[usize] {
        &self.mechanism_edges[self.mechanism_offsets[mech]..self.mechanism_offsets[mech + 1]]
    }
}

fn ordered(a: usize, b: usize) -> (usize, usize) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// The elementary edges found so far: one slot per distinct node pair, in
/// first-merge order, holding the running probability and observable bit.
#[derive(Default)]
struct EdgeMerger {
    slot_of: FxHashMap<(usize, usize), usize>,
    slots: Vec<((usize, usize), f64, bool)>,
}

impl EdgeMerger {
    /// Merges one mechanism onto the edge `key`, returning its slot.
    fn merge(&mut self, key: (usize, usize), p: f64, obs: bool) -> usize {
        let slots = &mut self.slots;
        let slot = *self.slot_of.entry(key).or_insert_with(|| {
            slots.push((key, 0.0, obs));
            slots.len() - 1
        });
        let entry = &mut slots[slot];
        entry.1 = combine_probability(entry.1, p);
        // Parallel mechanisms with conflicting observable parity are
        // dominated by the heavier one; in surface-code DEMs the parity
        // always agrees, which the graph tests assert.
        entry.2 = obs || entry.2;
        slot
    }

    fn contains(&self, key: &(usize, usize)) -> bool {
        self.slot_of.contains_key(key)
    }

    /// The observable bit of an existing edge (false when absent).
    fn flips_observable(&self, key: &(usize, usize)) -> bool {
        self.slot_of
            .get(key)
            .is_some_and(|&slot| self.slots[slot].2)
    }
}

/// Splits a >2-node mechanism into pairs, preferring pairs that already exist
/// as elementary edges and whose observable parities XOR to `obs`.
fn decompose(
    nodes: &[usize],
    obs: bool,
    boundary: usize,
    edges: &EdgeMerger,
) -> Vec<((usize, usize), bool)> {
    // Try exact recursive pairing onto existing edges.
    fn recurse(remaining: &[usize], edges: &EdgeMerger, acc: &mut Vec<(usize, usize)>) -> bool {
        if remaining.is_empty() {
            return true;
        }
        let first = remaining[0];
        for i in 1..remaining.len() {
            let partner = remaining[i];
            let key = ordered(first, partner);
            if edges.contains(&key) {
                let rest: Vec<usize> = remaining
                    .iter()
                    .copied()
                    .filter(|&n| n != first && n != partner)
                    .collect();
                acc.push(key);
                if recurse(&rest, edges, acc) {
                    return true;
                }
                acc.pop();
            }
        }
        false
    }

    let mut acc = Vec::new();
    let exact = recurse(nodes, edges, &mut acc);
    if !exact {
        // Fallback: pair consecutive nodes (they are sorted, hence typically
        // adjacent in space-time); odd leftover goes to the boundary.
        acc.clear();
        let mut it = nodes.chunks_exact(2);
        for pair in &mut it {
            acc.push(ordered(pair[0], pair[1]));
        }
        if let [last] = it.remainder() {
            acc.push((*last, boundary));
        }
    }
    // Distribute the observable parity: give it to the first component whose
    // existing edge carries it, else to the first component.
    let mut out: Vec<((usize, usize), bool)> = acc.iter().map(|&k| (k, false)).collect();
    if obs {
        let idx = acc
            .iter()
            .position(|k| edges.flips_observable(k))
            .unwrap_or(0);
        out[idx].1 = true;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dem::build_dem;
    use qec_core::NoiseParams;
    use surface_code::{MemoryExperiment, RotatedCode};

    fn graph_for(d: usize, rounds: usize, basis: DetectorBasis) -> (DecodingGraph, usize) {
        let exp = MemoryExperiment::new(RotatedCode::new(d), NoiseParams::standard(1e-3), rounds);
        let detectors = exp.detectors();
        let dem = build_dem(&exp.base_circuit(), &detectors, &exp.observable_keys());
        let g = DecodingGraph::from_dem(&dem, &detectors, basis);
        (g, detectors.len())
    }

    #[test]
    fn z_graph_covers_all_z_detectors() {
        let (g, _) = graph_for(3, 3, DetectorBasis::Z);
        // d=3, rounds=3: 4 + 2·4 + 4 = 16 Z detectors.
        assert_eq!(g.num_nodes(), 16);
        // Every node must be matchable: at least one incident edge.
        for node in 0..g.num_nodes() {
            assert!(!g.incident(node).is_empty(), "isolated node {node}");
        }
    }

    #[test]
    fn observable_flips_always_detected_in_matching_basis() {
        // A memory-Z observable is flipped only by mechanisms with Z-basis
        // detectors; the Z graph must see all of them.
        let (g, _) = graph_for(3, 3, DetectorBasis::Z);
        assert_eq!(g.undetectable_observable_flips(), 0);
    }

    #[test]
    fn node_detector_mapping_round_trips() {
        let (g, n_det) = graph_for(3, 2, DetectorBasis::Z);
        for node in 0..g.num_nodes() {
            let det = g.detector_of_node(node);
            assert!(det < n_det);
            assert_eq!(g.node_of_detector(det), Some(node));
        }
    }

    #[test]
    fn x_graph_is_disjoint_from_z_graph() {
        let (gz, n_det) = graph_for(3, 3, DetectorBasis::Z);
        let (gx, _) = graph_for(3, 3, DetectorBasis::X);
        let z_dets: std::collections::HashSet<_> = (0..gz.num_nodes())
            .map(|n| gz.detector_of_node(n))
            .collect();
        let x_dets: std::collections::HashSet<_> = (0..gx.num_nodes())
            .map(|n| gx.detector_of_node(n))
            .collect();
        assert!(z_dets.is_disjoint(&x_dets));
        assert_eq!(z_dets.len() + x_dets.len(), n_det);
    }

    #[test]
    fn weights_are_positive_and_probabilities_sane() {
        let (g, _) = graph_for(3, 3, DetectorBasis::Z);
        for e in g.edges() {
            assert!(e.weight > 0.0);
            assert!(e.probability > 0.0 && e.probability < 0.5);
        }
    }

    #[test]
    fn some_boundary_edges_flip_observable() {
        // A data X error next to the logical-Z row must produce a
        // boundary-connected, observable-flipping edge.
        let (g, _) = graph_for(3, 2, DetectorBasis::Z);
        let boundary = g.boundary();
        assert!(g
            .edges()
            .iter()
            .any(|e| e.b == boundary && e.flips_observable));
        // And there must be bulk edges that do not flip it.
        assert!(g
            .edges()
            .iter()
            .any(|e| e.b != boundary && !e.flips_observable));
    }

    #[test]
    fn mechanism_edges_cover_every_visible_mechanism() {
        let exp = MemoryExperiment::new(RotatedCode::new(3), NoiseParams::standard(1e-3), 3);
        let detectors = exp.detectors();
        let dem = build_dem(&exp.base_circuit(), &detectors, &exp.observable_keys());
        let g = DecodingGraph::from_dem(&dem, &detectors, DetectorBasis::Z);
        let mut covered = 0;
        for (mi, mech) in dem.mechanisms.iter().enumerate() {
            let edges = g.erasure_edges_for_mechanism(mi);
            let visible = mech
                .detectors
                .iter()
                .any(|&d| g.node_of_detector(d).is_some());
            assert_eq!(
                edges.is_empty(),
                !visible,
                "mechanism {mi} visibility/edge mismatch"
            );
            for &ei in edges {
                assert!(ei < g.edges().len());
            }
            if visible {
                covered += 1;
                // Elementary two-detector mechanisms land on the edge between
                // their own nodes.
                let nodes: Vec<usize> = mech
                    .detectors
                    .iter()
                    .filter_map(|&d| g.node_of_detector(d))
                    .collect();
                if nodes.len() == 2 && edges.len() == 1 {
                    let e = &g.edges()[edges[0]];
                    let key = super::ordered(nodes[0], nodes[1]);
                    assert_eq!((e.a, e.b), key);
                }
            }
        }
        assert!(covered > 100, "too few visible mechanisms ({covered})");
    }

    #[test]
    fn node_rounds_are_round_major_and_cover_the_span() {
        // The sliding-window machinery relies on nodes being numbered
        // round-major (each window is a contiguous node range) with a uniform
        // per-round node count.
        for basis in [DetectorBasis::Z, DetectorBasis::X] {
            let (g, _) = graph_for(3, 4, basis);
            let rounds: Vec<usize> = (0..g.num_nodes()).map(|n| g.node_round(n)).collect();
            assert!(rounds.windows(2).all(|w| w[0] <= w[1]), "round-major order");
            if basis == DetectorBasis::Z {
                assert_eq!(g.max_round(), 4, "final detectors carry round = R");
                let per_round = g.num_nodes() / (g.max_round() + 1);
                for r in 0..=g.max_round() {
                    assert_eq!(
                        rounds.iter().filter(|&&x| x == r).count(),
                        per_round,
                        "uniform node count at round {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn graph_is_connected_through_boundary() {
        // Union-find over edges (including boundary) must yield a single
        // component: otherwise some defects could never be matched.
        let (g, _) = graph_for(5, 3, DetectorBasis::Z);
        let n = g.num_nodes() + 1;
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(p: &mut Vec<usize>, x: usize) -> usize {
            if p[x] != x {
                let r = find(p, p[x]);
                p[x] = r;
            }
            p[x]
        }
        for e in g.edges() {
            let (ra, rb) = (find(&mut parent, e.a), find(&mut parent, e.b));
            parent[ra] = rb;
        }
        let root = find(&mut parent, 0);
        for v in 0..n {
            assert_eq!(find(&mut parent, v), root, "node {v} disconnected");
        }
    }
}
