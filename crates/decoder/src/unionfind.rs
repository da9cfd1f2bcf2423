//! Weighted union-find decoder (Delfosse–Nickerson).
//!
//! An almost-linear-time alternative to MWPM, used for the paper's largest
//! configurations (d = 9, 11 over 110 rounds) where O(n³) matching per shot
//! is impractical. Clusters grow from each defect in integer weight units;
//! odd clusters keep growing until they merge with another odd cluster or
//! touch the boundary; a peeling pass then extracts the correction and its
//! effect on the logical observable.
//!
//! The stateful entry point is [`UnionFindBatchDecoder`]: quantized edge
//! capacities are computed once per graph ([`UnionFindCapacities`]) and
//! shared across threads via [`Arc`] ([`UnionFindBatchDecoder::with_capacities`]);
//! each instance keeps its own cluster/peeling scratch so the per-shot loop
//! does not allocate.

use crate::api::{DecodeOutcome, Syndrome, SyndromeDecoder};
use crate::graph::DecodingGraph;
use crate::overlay::{WeightOverlay, ERASED_WEIGHT};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// Shared union-find precomputation: per-edge growth capacities, quantized
/// from the graph's matching weights.
#[derive(Debug, Clone)]
pub struct UnionFindCapacities {
    capacity: Vec<u32>,
}

impl UnionFindCapacities {
    /// Approximate heap footprint, for size-bounded artifact caches.
    pub fn approx_bytes(&self) -> usize {
        self.capacity.len() * std::mem::size_of::<u32>()
    }

    /// Quantizes every edge weight into growth units.
    pub fn compute(graph: &DecodingGraph) -> UnionFindCapacities {
        let min_w = graph
            .edges()
            .iter()
            .map(|e| e.weight)
            .fold(f64::INFINITY, f64::min);
        // Quantization granularity matters: a two-defect cluster pairs up
        // (rather than splitting to the boundary) under exactly the same
        // weight comparison MWPM makes, but only if rounding error cannot
        // reorder near-ties. Eight units on the lightest edge keeps the
        // relative error below ~6% while bounding the growth iterations.
        let unit = (min_w / 8.0).max(1e-9);
        let capacity = graph
            .edges()
            .iter()
            .map(|e| ((e.weight / unit).round() as u32).clamp(1, 100_000))
            .collect();
        UnionFindCapacities { capacity }
    }

    /// Per-edge capacities, indexed like [`DecodingGraph::edges`].
    pub fn as_slice(&self) -> &[u32] {
        &self.capacity
    }
}

/// Union-find over cluster roots, with per-cluster defect parity and
/// boundary-contact flags. Buffers persist across shots via
/// [`Dsu::reset`].
#[derive(Debug, Default)]
struct Dsu {
    parent: Vec<usize>,
    rank: Vec<u8>,
    /// Defect parity of the cluster rooted here.
    parity: Vec<bool>,
    /// Whether the cluster touches the boundary node.
    boundary: Vec<bool>,
}

impl Dsu {
    fn reset(&mut self, n: usize, defects: &[usize], boundary_node: usize) {
        self.parent.clear();
        self.parent.extend(0..n);
        self.rank.clear();
        self.rank.resize(n, 0);
        self.parity.clear();
        self.parity.resize(n, false);
        for &d in defects {
            self.parity[d] = true;
        }
        self.boundary.clear();
        self.boundary.resize(n, false);
        self.boundary[boundary_node] = true;
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Unions the clusters of `a` and `b`; returns the new root.
    fn union(&mut self, a: usize, b: usize) -> usize {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return ra;
        }
        let (big, small) = if self.rank[ra] >= self.rank[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small] = big;
        if self.rank[big] == self.rank[small] {
            self.rank[big] += 1;
        }
        self.parity[big] ^= self.parity[small];
        self.boundary[big] |= self.boundary[small];
        big
    }

    fn is_active(&mut self, x: usize) -> bool {
        let r = self.find(x);
        self.parity[r] && !self.boundary[r]
    }
}

/// Stateful union-find decoder instance: one per worker thread. All growth
/// and peeling buffers are reused across shots.
#[derive(Debug)]
pub struct UnionFindBatchDecoder<'g> {
    graph: &'g DecodingGraph,
    capacities: Arc<UnionFindCapacities>,
    dsu: Dsu,
    grown: Vec<u32>,
    full: Vec<bool>,
    reached: Vec<bool>,
    to_merge: Vec<usize>,
    parent_edge: Vec<usize>,
    visited: Vec<bool>,
    order: Vec<usize>,
    queue: VecDeque<usize>,
    mark: Vec<bool>,
    overlay: WeightOverlay,
}

impl<'g> UnionFindBatchDecoder<'g> {
    /// Builds a standalone instance, quantizing edge weights itself. For
    /// multi-threaded decoding compute the [`UnionFindCapacities`] once and
    /// share them through [`UnionFindBatchDecoder::with_capacities`].
    pub fn new(graph: &'g DecodingGraph) -> UnionFindBatchDecoder<'g> {
        UnionFindBatchDecoder::with_capacities(graph, Arc::new(UnionFindCapacities::compute(graph)))
    }

    /// Builds an instance over precomputed (shared) edge capacities.
    ///
    /// # Panics
    ///
    /// Panics if `capacities` was computed for a different-sized graph.
    pub fn with_capacities(
        graph: &'g DecodingGraph,
        capacities: Arc<UnionFindCapacities>,
    ) -> UnionFindBatchDecoder<'g> {
        assert_eq!(
            capacities.as_slice().len(),
            graph.edges().len(),
            "capacity table does not match the decoding graph"
        );
        UnionFindBatchDecoder {
            graph,
            capacities,
            dsu: Dsu::default(),
            grown: Vec::new(),
            full: Vec::new(),
            reached: Vec::new(),
            to_merge: Vec::new(),
            parent_edge: Vec::new(),
            visited: Vec::new(),
            order: Vec::new(),
            queue: VecDeque::new(),
            mark: Vec::new(),
            overlay: WeightOverlay::new(),
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &DecodingGraph {
        self.graph
    }

    /// The shared capacity table.
    pub fn capacities(&self) -> &Arc<UnionFindCapacities> {
        &self.capacities
    }

    /// Runs cluster growth; fills `self.full` (grown-edge bitmap) and
    /// `self.dsu` for the peeling pass. With `erased`, edges flagged in the
    /// overlay grow in a single unit (their weight is ~0).
    fn grow(&mut self, defects: &[usize], erased: bool) {
        let n = self.graph.num_nodes() + 1;
        let boundary = self.graph.boundary();
        self.dsu.reset(n, defects, boundary);
        let edges = self.graph.edges();
        let capacity = self.capacities.as_slice();
        self.grown.clear();
        self.grown.resize(edges.len(), 0);
        self.full.clear();
        self.full.resize(edges.len(), false);

        // Nodes whose cluster growth has reached them (starts at defects and
        // the boundary).
        self.reached.clear();
        self.reached.resize(n, false);
        for &d in defects {
            self.reached[d] = true;
        }
        self.reached[boundary] = true;

        loop {
            // Identify active clusters.
            let mut any_active = false;
            for &d in defects {
                if self.dsu.is_active(d) {
                    any_active = true;
                    break;
                }
            }
            if !any_active {
                break;
            }
            // Grow every frontier edge of every active cluster by one unit
            // per active endpoint.
            self.to_merge.clear();
            let mut grew_any = false;
            for (ei, e) in edges.iter().enumerate() {
                if self.full[ei] {
                    continue;
                }
                let mut inc = 0;
                if self.reached[e.a] && self.dsu.is_active(e.a) {
                    inc += 1;
                }
                if self.reached[e.b] && self.dsu.is_active(e.b) {
                    inc += 1;
                }
                if inc == 0 {
                    continue;
                }
                self.grown[ei] += inc;
                grew_any = true;
                let cap = if erased && self.overlay.is_erased(ei) {
                    1
                } else {
                    capacity[ei]
                };
                if self.grown[ei] >= cap {
                    self.full[ei] = true;
                    self.to_merge.push(ei);
                }
            }
            if !grew_any {
                // No frontier edge could progress — cannot happen on a
                // connected graph, but guard against infinite loops.
                debug_assert!(false, "union-find growth stalled");
                break;
            }
            for i in 0..self.to_merge.len() {
                let e = &edges[self.to_merge[i]];
                self.reached[e.a] = true;
                self.reached[e.b] = true;
                self.dsu.union(e.a, e.b);
            }
        }
    }
}

impl SyndromeDecoder for UnionFindBatchDecoder<'_> {
    /// With `correction`, the peeled correction edges are emitted directly —
    /// union-find's correction *is* an edge set, so no path reconstruction
    /// is needed and the emitted XOR equals the returned flip by
    /// construction.
    fn decode(
        &mut self,
        syndrome: &Syndrome,
        mut correction: Option<&mut Vec<usize>>,
    ) -> DecodeOutcome {
        if let Some(c) = correction.as_deref_mut() {
            c.clear();
        }
        let defects = &syndrome.defects;
        if defects.is_empty() {
            // Trivial shot: skip even the clock reads (the common case at
            // low physical error rates).
            return DecodeOutcome::default();
        }
        let start = Instant::now();
        let n = self.graph.num_nodes() + 1;
        let boundary = self.graph.boundary();
        let erased = !syndrome.erasures.is_empty();
        if erased {
            self.overlay.apply(self.graph, &syndrome.erasures);
        }
        self.grow(defects, erased);
        let edges = self.graph.edges();

        // Peeling: build a spanning forest of the grown subgraph, rooted at
        // the boundary first so boundary-terminated strings are available.
        self.parent_edge.clear();
        self.parent_edge.resize(n, usize::MAX);
        self.visited.clear();
        self.visited.resize(n, false);
        self.order.clear();
        self.queue.clear();
        for ri in 0..=defects.len() {
            let root = if ri == 0 { boundary } else { defects[ri - 1] };
            if self.visited[root] {
                continue;
            }
            self.visited[root] = true;
            self.queue.push_back(root);
            while let Some(u) = self.queue.pop_front() {
                self.order.push(u);
                for &ei in self.graph.incident(u) {
                    if !self.full[ei] {
                        continue;
                    }
                    let e = &edges[ei];
                    let v = if e.a == u { e.b } else { e.a };
                    if !self.visited[v] {
                        self.visited[v] = true;
                        self.parent_edge[v] = ei;
                        self.queue.push_back(v);
                    }
                }
            }
        }

        // Peel leaves towards the roots.
        self.mark.clear();
        self.mark.resize(n, false);
        for &d in defects {
            self.mark[d] = true;
        }
        let mut flip = false;
        let mut weight = 0.0;
        for &v in self.order.iter().rev() {
            let ei = self.parent_edge[v];
            if ei == usize::MAX {
                continue;
            }
            if self.mark[v] {
                let e = &edges[ei];
                flip ^= e.flips_observable;
                if let Some(c) = correction.as_deref_mut() {
                    c.push(ei);
                }
                weight += if erased && self.overlay.is_erased(ei) {
                    ERASED_WEIGHT
                } else {
                    e.weight
                };
                let p = if e.a == v { e.b } else { e.a };
                self.mark[v] = false;
                if p != boundary {
                    self.mark[p] ^= true;
                }
            }
        }
        debug_assert!(
            (0..n).all(|v| !self.mark[v] || v == boundary),
            "peeling left an unpaired defect"
        );
        if erased {
            self.overlay.restore();
        }
        DecodeOutcome {
            flip,
            weight,
            defects: defects.len(),
            nanos: start.elapsed().as_nanos() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dem::build_dem;
    use crate::mwpm::MwpmBatchDecoder;
    use qec_core::circuit::DetectorBasis;
    use qec_core::NoiseParams;
    use surface_code::{MemoryExperiment, RotatedCode};

    fn setup(d: usize, rounds: usize) -> (DecodingGraph, crate::DetectorErrorModel) {
        let exp = MemoryExperiment::new(RotatedCode::new(d), NoiseParams::standard(1e-3), rounds);
        let detectors = exp.detectors();
        let dem = build_dem(&exp.base_circuit(), &detectors, &exp.observable_keys());
        let graph = DecodingGraph::from_dem(&dem, &detectors, DetectorBasis::Z);
        (graph, dem)
    }

    #[test]
    fn empty_defects() {
        let (graph, _) = setup(3, 2);
        let mut decoder = UnionFindBatchDecoder::new(&graph);
        let outcome = decoder.decode(&Syndrome::default(), None);
        assert!(!outcome.flip);
        assert_eq!(outcome.weight, 0.0);
    }

    #[test]
    fn elementary_single_faults_are_corrected() {
        // Union-find must exactly correct every fault whose projection is a
        // single graph edge (1 or 2 defects). Hyperedge faults (two-qubit
        // depolarizing components firing 3–4 detectors) can be re-routed
        // through the boundary by the cluster heuristic — that approximation
        // gap versus MWPM is expected and quantified separately.
        for (d, rounds) in [(3usize, 2usize), (5, 3)] {
            let (graph, dem) = setup(d, rounds);
            let mut decoder = UnionFindBatchDecoder::new(&graph);
            let mut hyper_total = 0;
            let mut hyper_ok = 0;
            let mut syndrome = Syndrome::default();
            for mech in &dem.mechanisms {
                syndrome.clear();
                syndrome.defects.extend(
                    mech.detectors
                        .iter()
                        .filter_map(|&det| graph.node_of_detector(det)),
                );
                match syndrome.len() {
                    0 => {}
                    1 | 2 => assert_eq!(
                        decoder.decode(&syndrome, None).flip,
                        mech.flips_observable,
                        "UF mis-corrected elementary fault at d={d}: {mech:?}"
                    ),
                    _ => {
                        hyper_total += 1;
                        if decoder.decode(&syndrome, None).flip == mech.flips_observable {
                            hyper_ok += 1;
                        }
                    }
                }
            }
            if hyper_total > 0 {
                let rate = hyper_ok as f64 / hyper_total as f64;
                assert!(rate > 0.7, "UF hyperedge accuracy {rate} at d={d}");
            }
        }
    }

    #[test]
    fn mostly_agrees_with_mwpm_on_random_syndromes() {
        let (graph, dem) = setup(3, 3);
        let mut uf = UnionFindBatchDecoder::new(&graph);
        let mut mwpm = MwpmBatchDecoder::new(&graph);
        let mut rng = qec_core::Rng::new(77);
        let mut agree = 0;
        let trials = 300;
        for _ in 0..trials {
            // Sample 1–4 mechanisms and XOR their signatures.
            let mut events = vec![false; graph.num_nodes()];
            let mut expected = false;
            let picks = 1 + rng.below(4) as usize;
            for _ in 0..picks {
                let mech = &dem.mechanisms[rng.below(dem.mechanisms.len() as u64) as usize];
                for &det in &mech.detectors {
                    if let Some(node) = graph.node_of_detector(det) {
                        events[node] ^= true;
                    }
                }
                expected ^= mech.flips_observable;
            }
            let syndrome = Syndrome::new((0..graph.num_nodes()).filter(|&v| events[v]).collect());
            let a = uf.decode(&syndrome, None).flip;
            let b = mwpm.decode(&syndrome, None).flip;
            if a == b {
                agree += 1;
            }
            // Both must be at least plausible for very small syndromes: a
            // single mechanism must decode exactly.
            if picks == 1 {
                assert_eq!(a, expected);
                assert_eq!(b, expected);
            }
        }
        let rate = agree as f64 / trials as f64;
        assert!(rate > 0.9, "UF/MWPM agreement too low: {rate}");
    }

    #[test]
    fn capacities_positive() {
        let (graph, _) = setup(3, 2);
        let capacities = UnionFindCapacities::compute(&graph);
        assert_eq!(capacities.as_slice().len(), graph.edges().len());
        assert!(capacities.as_slice().iter().all(|&c| c >= 1));
    }
}
