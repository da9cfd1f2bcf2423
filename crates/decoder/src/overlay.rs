//! Erasure weight overlay: dynamic reweighting of decoding-graph edges at
//! known-leakage locations.
//!
//! ERASER's premise is that leakage *detection* information is valuable.
//! When a policy flags a qubit as leaked, the errors it sprays on its
//! neighbouring checks are **heralded**: the decoder should treat the
//! decoding-graph edges around the flagged location as erasures — near-free
//! to traverse — exactly as erasure-decoding converts located noise into a
//! much more correctable channel (Gu/Retzker/Kubica 2023; Chang et al. 2024,
//! "Surface Code with Imperfect Erasure Checks"; fusion-blossom's erasure
//! tutorial).
//!
//! [`WeightOverlay`] is the reusable per-decoder-instance scratch that makes
//! this cheap. Conceptually it sets every flagged edge's weight to
//! [`ERASED_WEIGHT`] (~0) for MWPM path costs and union-find growth, then
//! restores the weights after the shot. The implementation never mutates
//! the shared graph (which is `Arc`-shared across worker threads) and never
//! re-runs Dijkstra: erased edges have ~zero weight, so each connected
//! component of erased edges collapses to a single free hub, and the
//! overlaid shortest path between two defects is
//!
//! ```text
//! d'(u, v) = min( d(u, v),
//!                 min over hubs c₁, c₂:  d(u, c₁) + D(c₁, c₂) + d(c₂, v) )
//! ```
//!
//! where `d` is the precomputed all-pairs table and `D` is a tiny
//! Floyd–Warshall closure over the hubs. Observable parity is tracked along
//! every minimizing path (within a component, along its spanning tree —
//! homologically ambiguous ε-cycles inside an erased region are inherent to
//! erasure decoding). All state lives in epoch-stamped buffers sized to the
//! graph, so the steady-state per-shot loop performs **no heap allocation**
//! once warm, matching the batch decoders' guarantee.
//!
//! Consumers:
//!
//! * dense MWPM calls [`WeightOverlay::apply`] then
//!   [`WeightOverlay::effective_metrics`] to obtain overlaid
//!   defect-to-defect / defect-to-boundary distances and parities;
//! * union-find calls [`WeightOverlay::apply`] and queries
//!   [`WeightOverlay::is_erased`] per edge (erased edges grow in one unit and
//!   contribute [`ERASED_WEIGHT`] to the peeled correction);
//! * everyone calls [`WeightOverlay::restore`] when the shot is done.

use crate::graph::DecodingGraph;
use crate::mwpm::ShortestPaths;

/// The weight the union-find decoder charges per erased edge in its peeled
/// correction (effectively free, but positive so the reported outcome
/// weight still counts erased traversals). The matching decoders' overlaid
/// metric treats intra-component travel as exactly 0 — see
/// [`WeightOverlay::effective_metrics`].
pub const ERASED_WEIGHT: f64 = 1e-3;

/// Reusable erasure-reweighting scratch (see the module docs).
///
/// One instance lives inside every batch-decoder instance; it is *not*
/// shared across threads. All buffers are epoch-stamped: `apply` is O(|
/// erasures|), not O(edges), and nothing is freed between shots.
#[derive(Debug, Default)]
pub struct WeightOverlay {
    epoch: u32,
    /// Edge is erased in the current epoch iff `edge_stamp[ei] == epoch`.
    edge_stamp: Vec<u32>,
    /// Node touches an erased edge iff `node_stamp[v] == epoch`; its local
    /// index is then `node_local[v]`.
    node_stamp: Vec<u32>,
    node_local: Vec<usize>,
    /// Local index -> global node id of every touched node.
    nodes: Vec<usize>,
    // Parity union-find over local indices (parity = observable parity of
    // the erased-edge path to the parent).
    parent: Vec<usize>,
    par_to_parent: Vec<bool>,
    rank: Vec<u8>,
    stack: Vec<usize>,
    // Finalized components.
    comp_of_local: Vec<usize>,
    par_to_root: Vec<bool>,
    comp_count: usize,
    /// Local indices grouped by component: `member_order[comp_start[c]..
    /// comp_start[c + 1]]` are component `c`'s members.
    member_order: Vec<usize>,
    comp_start: Vec<usize>,
    cursor: Vec<usize>,
    // Scratch for `effective_metrics`.
    entry_dist: Vec<f64>,
    entry_par: Vec<bool>,
    comp_dist: Vec<f64>,
    comp_par: Vec<bool>,
}

impl WeightOverlay {
    /// An empty overlay; buffers grow on first use and are reused after.
    pub fn new() -> WeightOverlay {
        WeightOverlay::default()
    }

    /// Applies the erasure set for one shot: marks the edges and builds the
    /// connected components of the erased subgraph (with observable parity
    /// along a spanning tree of each component). Duplicate edge indices are
    /// tolerated.
    ///
    /// # Panics
    ///
    /// Panics if an erasure index is out of range for `graph`'s edge list.
    pub fn apply(&mut self, graph: &DecodingGraph, erasures: &[usize]) {
        self.bump_epoch(graph);
        self.nodes.clear();
        self.parent.clear();
        self.par_to_parent.clear();
        self.rank.clear();
        let edges = graph.edges();
        for &ei in erasures {
            assert!(
                ei < edges.len(),
                "erasure index {ei} out of range for a graph with {} edges",
                edges.len()
            );
            if self.edge_stamp[ei] == self.epoch {
                continue; // duplicate flag
            }
            self.edge_stamp[ei] = self.epoch;
            let e = &edges[ei];
            let la = self.local(e.a);
            let lb = self.local(e.b);
            self.union(la, lb, e.flips_observable);
        }
        self.finalize_components();
    }

    /// Clears the current erasure marks (conceptually: restores every flagged
    /// edge's weight). O(1): the next `apply` starts a fresh epoch.
    pub fn restore(&mut self) {
        self.comp_count = 0;
        self.nodes.clear();
    }

    /// Whether edge `ei` is erased in the currently applied set.
    pub fn is_erased(&self, ei: usize) -> bool {
        self.edge_stamp.get(ei).copied() == Some(self.epoch) && !self.nodes.is_empty()
    }

    /// The edge's effective weight under the overlay: [`ERASED_WEIGHT`] when
    /// erased, the graph weight otherwise.
    pub fn effective_weight(&self, graph: &DecodingGraph, ei: usize) -> f64 {
        if self.is_erased(ei) {
            ERASED_WEIGHT
        } else {
            graph.edges()[ei].weight
        }
    }

    /// Number of erased-edge components in the currently applied set.
    pub fn num_components(&self) -> usize {
        self.comp_count
    }

    /// Computes the overlaid terminal metric: for terminals `T = defects ++
    /// [boundary]` (so `t = defects.len() + 1`), fills `dist`/`par` as `t×t`
    /// row-major matrices with the overlay-shortest distance and its
    /// observable parity between every terminal pair. With no erased
    /// components this degenerates to the plain `paths` table.
    ///
    /// Output vectors are cleared and resized (allocation reused once warm).
    pub fn effective_metrics(
        &mut self,
        paths: &ShortestPaths,
        defects: &[usize],
        boundary: usize,
        dist: &mut Vec<f64>,
        par: &mut Vec<bool>,
    ) {
        let t = defects.len() + 1;
        dist.clear();
        dist.resize(t * t, 0.0);
        par.clear();
        par.resize(t * t, false);
        let node = |i: usize| {
            if i < defects.len() {
                defects[i]
            } else {
                boundary
            }
        };

        // Base metric: the precomputed (erasure-blind) table.
        for i in 0..t {
            for j in (i + 1)..t {
                let (u, v) = (node(i), node(j));
                dist[i * t + j] = paths.distance(u, v);
                dist[j * t + i] = dist[i * t + j];
                par[i * t + j] = paths.observable_parity(u, v);
                par[j * t + i] = par[i * t + j];
            }
        }
        let q = self.comp_count;
        if q == 0 {
            return;
        }

        // Entry metric: cheapest attachment of each terminal to each erased
        // component (any member works — intra-component travel is free).
        self.entry_dist.clear();
        self.entry_dist.resize(t * q, f64::INFINITY);
        self.entry_par.clear();
        self.entry_par.resize(t * q, false);
        for i in 0..t {
            let u = node(i);
            for c in 0..q {
                let mut best = f64::INFINITY;
                let mut best_par = false;
                for &l in &self.member_order[self.comp_start[c]..self.comp_start[c + 1]] {
                    let a = self.nodes[l];
                    let d = paths.distance(u, a);
                    if d < best {
                        best = d;
                        best_par = paths.observable_parity(u, a) ^ self.par_to_root[l];
                    }
                }
                self.entry_dist[i * q + c] = best;
                self.entry_par[i * q + c] = best_par;
            }
        }

        // Hub-to-hub closure: cheapest inter-component hops, then a tiny
        // Floyd–Warshall so chains through several erased regions are free.
        self.comp_dist.clear();
        self.comp_dist.resize(q * q, f64::INFINITY);
        self.comp_par.clear();
        self.comp_par.resize(q * q, false);
        for c in 0..q {
            self.comp_dist[c * q + c] = 0.0;
        }
        for c in 0..q {
            for d2 in (c + 1)..q {
                let mut best = f64::INFINITY;
                let mut best_par = false;
                for &la in &self.member_order[self.comp_start[c]..self.comp_start[c + 1]] {
                    for &lb in &self.member_order[self.comp_start[d2]..self.comp_start[d2 + 1]] {
                        let d = paths.distance(self.nodes[la], self.nodes[lb]);
                        if d < best {
                            best = d;
                            best_par = self.par_to_root[la]
                                ^ paths.observable_parity(self.nodes[la], self.nodes[lb])
                                ^ self.par_to_root[lb];
                        }
                    }
                }
                self.comp_dist[c * q + d2] = best;
                self.comp_dist[d2 * q + c] = best;
                self.comp_par[c * q + d2] = best_par;
                self.comp_par[d2 * q + c] = best_par;
            }
        }
        for k in 0..q {
            for c in 0..q {
                for d2 in 0..q {
                    let via = self.comp_dist[c * q + k] + self.comp_dist[k * q + d2];
                    if via < self.comp_dist[c * q + d2] {
                        self.comp_dist[c * q + d2] = via;
                        self.comp_par[c * q + d2] =
                            self.comp_par[c * q + k] ^ self.comp_par[k * q + d2];
                    }
                }
            }
        }

        // Improve every terminal pair through the hubs.
        for i in 0..t {
            for j in (i + 1)..t {
                let mut best = dist[i * t + j];
                let mut best_par = par[i * t + j];
                for c in 0..q {
                    for d2 in 0..q {
                        let via = self.entry_dist[i * q + c]
                            + self.comp_dist[c * q + d2]
                            + self.entry_dist[j * q + d2];
                        if via < best {
                            best = via;
                            best_par = self.entry_par[i * q + c]
                                ^ self.comp_par[c * q + d2]
                                ^ self.entry_par[j * q + d2];
                        }
                    }
                }
                dist[i * t + j] = best;
                dist[j * t + i] = best;
                par[i * t + j] = best_par;
                par[j * t + i] = best_par;
            }
        }
    }

    fn bump_epoch(&mut self, graph: &DecodingGraph) {
        let n_edges = graph.edges().len();
        let n_nodes = graph.num_nodes() + 1;
        if self.edge_stamp.len() < n_edges {
            self.edge_stamp.resize(n_edges, 0);
        }
        if self.node_stamp.len() < n_nodes {
            self.node_stamp.resize(n_nodes, 0);
            self.node_local.resize(n_nodes, 0);
        }
        if self.epoch == u32::MAX {
            self.edge_stamp.fill(0);
            self.node_stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
    }

    /// Local index of node `v`, registering it on first sight this epoch.
    fn local(&mut self, v: usize) -> usize {
        if self.node_stamp[v] == self.epoch {
            return self.node_local[v];
        }
        let l = self.nodes.len();
        self.node_stamp[v] = self.epoch;
        self.node_local[v] = l;
        self.nodes.push(v);
        self.parent.push(l);
        self.par_to_parent.push(false);
        self.rank.push(0);
        l
    }

    /// Root of `x` plus the observable parity of the path `x -> root`, with
    /// full path compression.
    fn find(&mut self, x: usize) -> (usize, bool) {
        self.stack.clear();
        let mut root = x;
        while self.parent[root] != root {
            self.stack.push(root);
            root = self.parent[root];
        }
        let mut par_from_root = false;
        for &v in self.stack.iter().rev() {
            par_from_root ^= self.par_to_parent[v];
            self.parent[v] = root;
            self.par_to_parent[v] = par_from_root;
        }
        (
            root,
            if x == root {
                false
            } else {
                self.par_to_parent[x]
            },
        )
    }

    /// Unions the components of `a` and `b`, where the connecting erased edge
    /// carries observable parity `rel`.
    fn union(&mut self, a: usize, b: usize, rel: bool) {
        let (ra, pa) = self.find(a);
        let (rb, pb) = self.find(b);
        if ra == rb {
            return;
        }
        let (big, small, par_small) = if self.rank[ra] >= self.rank[rb] {
            (ra, rb, pa ^ pb ^ rel)
        } else {
            (rb, ra, pa ^ pb ^ rel)
        };
        self.parent[small] = big;
        self.par_to_parent[small] = par_small;
        if self.rank[big] == self.rank[small] {
            self.rank[big] += 1;
        }
    }

    /// Assigns component ids and groups members per component.
    fn finalize_components(&mut self) {
        let n = self.nodes.len();
        self.comp_of_local.clear();
        self.comp_of_local.resize(n, usize::MAX);
        self.par_to_root.clear();
        self.par_to_root.resize(n, false);
        self.comp_count = 0;
        // First pass: compress everything and record parities to the root;
        // then id the roots in first-seen order.
        for l in 0..n {
            let (_, par) = self.find(l);
            self.par_to_root[l] = par;
        }
        for l in 0..n {
            let root = self.parent[l];
            if self.comp_of_local[root] == usize::MAX {
                self.comp_of_local[root] = self.comp_count;
                self.comp_count += 1;
            }
        }
        for l in 0..n {
            self.comp_of_local[l] = self.comp_of_local[self.parent[l]];
        }
        // Counting sort of members by component id.
        let q = self.comp_count;
        self.comp_start.clear();
        self.comp_start.resize(q + 1, 0);
        for l in 0..n {
            self.comp_start[self.comp_of_local[l] + 1] += 1;
        }
        for c in 0..q {
            let prev = self.comp_start[c];
            self.comp_start[c + 1] += prev;
        }
        self.member_order.clear();
        self.member_order.resize(n, 0);
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.comp_start);
        for l in 0..n {
            let c = self.comp_of_local[l];
            self.member_order[self.cursor[c]] = l;
            self.cursor[c] += 1;
        }
    }
}

/// Reusable Dijkstra scratch for reconstructing shortest paths under the
/// overlay-effective metric (erased edges cost [`ERASED_WEIGHT`]).
///
/// The matching decoders pick erasure-aware pairs through the hub-contracted
/// [`WeightOverlay::effective_metrics`]; when a windowed pipeline then needs
/// the correction as explicit edges, this scratch recovers a concrete
/// minimum-effective-weight path per matched pair. Buffers are stamped and
/// reused, so warm calls perform no heap allocation.
#[derive(Debug, Default)]
pub struct DijkstraScratch {
    epoch: u32,
    dist: Vec<f64>,
    pred_edge: Vec<usize>,
    pred_node: Vec<usize>,
    stamp: Vec<u32>,
    done: Vec<bool>,
    heap: std::collections::BinaryHeap<std::cmp::Reverse<EffHeapItem>>,
}

#[derive(Debug, PartialEq)]
struct EffHeapItem(f64, usize);

impl Eq for EffHeapItem {}

impl PartialOrd for EffHeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for EffHeapItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // `total_cmp`, not `partial_cmp().unwrap()`: a degenerate effective
        // weight must never panic inside BinaryHeap.
        self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
    }
}

impl DijkstraScratch {
    /// A fresh scratch; buffers grow on first use and are reused after.
    pub fn new() -> DijkstraScratch {
        DijkstraScratch::default()
    }

    /// Appends the edge indices of a shortest `u -> v` path under the
    /// overlay-effective weights to `out` and returns the XOR of the path
    /// edges' observable flips.
    ///
    /// # Panics
    ///
    /// Panics if `v` is unreachable from `u`.
    pub fn effective_path_edges(
        &mut self,
        graph: &DecodingGraph,
        overlay: &WeightOverlay,
        u: usize,
        v: usize,
        out: &mut Vec<usize>,
    ) -> bool {
        let n = graph.num_nodes() + 1;
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.dist.resize(n, f64::INFINITY);
            self.pred_edge.resize(n, usize::MAX);
            self.pred_node.resize(n, usize::MAX);
            self.done.resize(n, false);
        }
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.heap.clear();
        let touch = |slf: &mut DijkstraScratch, x: usize| {
            if slf.stamp[x] != slf.epoch {
                slf.stamp[x] = slf.epoch;
                slf.dist[x] = f64::INFINITY;
                slf.pred_edge[x] = usize::MAX;
                slf.pred_node[x] = usize::MAX;
                slf.done[x] = false;
            }
        };
        touch(self, u);
        self.dist[u] = 0.0;
        self.heap.push(std::cmp::Reverse(EffHeapItem(0.0, u)));
        while let Some(std::cmp::Reverse(EffHeapItem(d, x))) = self.heap.pop() {
            if self.done[x] {
                continue;
            }
            self.done[x] = true;
            if x == v {
                break;
            }
            for &ei in graph.incident(x) {
                let e = &graph.edges()[ei];
                let y = if e.a == x { e.b } else { e.a };
                touch(self, y);
                let nd = d + overlay.effective_weight(graph, ei);
                if nd < self.dist[y] {
                    self.dist[y] = nd;
                    self.pred_edge[y] = ei;
                    self.pred_node[y] = x;
                    self.heap.push(std::cmp::Reverse(EffHeapItem(nd, y)));
                }
            }
        }
        assert!(
            self.stamp[v] == self.epoch && self.dist[v].is_finite(),
            "node {u} cannot reach node {v} under the overlay metric"
        );
        let mut flip = false;
        let mut cur = v;
        let start = out.len();
        while cur != u {
            let ei = self.pred_edge[cur];
            out.push(ei);
            flip ^= graph.edges()[ei].flips_observable;
            cur = self.pred_node[cur];
        }
        out[start..].reverse();
        flip
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dem::build_dem;
    use qec_core::circuit::DetectorBasis;
    use qec_core::NoiseParams;
    use surface_code::{MemoryExperiment, RotatedCode};

    fn graph() -> DecodingGraph {
        let exp = MemoryExperiment::new(RotatedCode::new(3), NoiseParams::standard(1e-3), 3);
        let detectors = exp.detectors();
        let dem = build_dem(&exp.base_circuit(), &detectors, &exp.observable_keys());
        DecodingGraph::from_dem(&dem, &detectors, DetectorBasis::Z)
    }

    #[test]
    fn apply_marks_and_restore_clears() {
        let g = graph();
        let mut overlay = WeightOverlay::new();
        overlay.apply(&g, &[0, 2, 2]);
        assert!(overlay.is_erased(0));
        assert!(!overlay.is_erased(1));
        assert!(overlay.is_erased(2));
        assert!(overlay.num_components() >= 1);
        assert_eq!(overlay.effective_weight(&g, 0), ERASED_WEIGHT);
        assert_eq!(overlay.effective_weight(&g, 1), g.edges()[1].weight);
        overlay.restore();
        assert!(!overlay.is_erased(0));
        assert_eq!(overlay.num_components(), 0);
        // A later apply starts clean.
        overlay.apply(&g, &[1]);
        assert!(!overlay.is_erased(0));
        assert!(overlay.is_erased(1));
    }

    #[test]
    fn components_merge_through_shared_nodes() {
        let g = graph();
        let mut overlay = WeightOverlay::new();
        // Two edges sharing a node form one component; an edge elsewhere
        // forms another.
        let shared = g.incident(0);
        assert!(shared.len() >= 2);
        let other = *g
            .incident(g.num_nodes() - 1)
            .iter()
            .find(|ei| !shared.contains(ei))
            .expect("a disjoint edge");
        overlay.apply(&g, &[shared[0], shared[1], other]);
        assert_eq!(overlay.num_components(), 2);
    }

    #[test]
    fn effective_metrics_without_components_matches_paths() {
        let g = graph();
        let paths = ShortestPaths::compute(&g);
        let mut overlay = WeightOverlay::new();
        overlay.apply(&g, &[]);
        let defects = [0usize, 3, 5];
        let (mut dist, mut par) = (Vec::new(), Vec::new());
        overlay.effective_metrics(&paths, &defects, g.boundary(), &mut dist, &mut par);
        let t = defects.len() + 1;
        for (i, &u) in defects.iter().enumerate() {
            for (j, &v) in defects.iter().enumerate() {
                assert_eq!(dist[i * t + j], paths.distance(u, v));
                assert_eq!(par[i * t + j], paths.observable_parity(u, v));
            }
            assert_eq!(dist[i * t + t - 1], paths.distance(u, g.boundary()));
        }
    }

    #[test]
    fn erasing_edges_only_shrinks_distances() {
        let g = graph();
        let paths = ShortestPaths::compute(&g);
        let mut overlay = WeightOverlay::new();
        let erased: Vec<usize> = g.incident(1).to_vec();
        overlay.apply(&g, &erased);
        let defects = [0usize, 2, 4, 7];
        let (mut dist, mut par) = (Vec::new(), Vec::new());
        overlay.effective_metrics(&paths, &defects, g.boundary(), &mut dist, &mut par);
        let t = defects.len() + 1;
        for i in 0..t {
            for j in 0..t {
                let u = if i < defects.len() {
                    defects[i]
                } else {
                    g.boundary()
                };
                let v = if j < defects.len() {
                    defects[j]
                } else {
                    g.boundary()
                };
                assert!(
                    dist[i * t + j] <= paths.distance(u, v) + 1e-12,
                    "overlay must never lengthen a path"
                );
            }
        }
        // A defect adjacent to the erased hub reaches the hub's other
        // neighbours (almost) for free.
        let e = &g.edges()[erased[0]];
        let neighbour = if e.a == 1 { e.b } else { e.a };
        let di = defects.iter().position(|&d| d == neighbour);
        if let Some(i) = di {
            assert!(dist[i * t + t - 1] <= paths.distance(neighbour, g.boundary()) + 1e-12);
        }
    }

    #[test]
    fn parity_tracks_the_spanning_tree() {
        let g = graph();
        let paths = ShortestPaths::compute(&g);
        // Erase one edge; the two endpoints become mutually free with the
        // edge's own parity.
        let ei = g
            .edges()
            .iter()
            .position(|e| e.b != g.boundary())
            .expect("a bulk edge");
        let e = &g.edges()[ei];
        let mut overlay = WeightOverlay::new();
        overlay.apply(&g, &[ei]);
        let defects = [e.a, e.b];
        let (mut dist, mut par) = (Vec::new(), Vec::new());
        overlay.effective_metrics(&paths, &defects, g.boundary(), &mut dist, &mut par);
        assert!(dist[1] <= 1e-9, "endpoints of an erased edge are free");
        assert_eq!(par[1], e.flips_observable);
    }

    #[test]
    fn dijkstra_path_follows_the_effective_metric() {
        let g = graph();
        let mut overlay = WeightOverlay::new();
        let mut scratch = DijkstraScratch::new();
        let mut out = Vec::new();
        // Without erasures, the path between an edge's endpoints is the edge
        // itself and the returned parity is the edge's.
        let ei = g
            .edges()
            .iter()
            .position(|e| e.b != g.boundary())
            .expect("a bulk edge");
        let e = g.edges()[ei].clone();
        overlay.apply(&g, &[]);
        let flip = scratch.effective_path_edges(&g, &overlay, e.a, e.b, &mut out);
        assert_eq!(out, vec![ei]);
        assert_eq!(flip, e.flips_observable);
        overlay.restore();
        // Erasing a detour makes it the shortest path: erase every edge
        // around a hub node and route between two of its neighbours.
        let hub = g.edges()[g.incident(0)[0]].a;
        let erased: Vec<usize> = g.incident(hub).to_vec();
        assert!(erased.len() >= 2);
        let (e1, e2) = (&g.edges()[erased[0]], &g.edges()[erased[1]]);
        let n1 = if e1.a == hub { e1.b } else { e1.a };
        let n2 = if e2.a == hub { e2.b } else { e2.a };
        if n1 != n2 && n1 != g.boundary() && n2 != g.boundary() {
            overlay.apply(&g, &erased);
            out.clear();
            let flip = scratch.effective_path_edges(&g, &overlay, n1, n2, &mut out);
            let cost: f64 = out.iter().map(|&x| overlay.effective_weight(&g, x)).sum();
            assert!(cost <= erased.len() as f64 * ERASED_WEIGHT + 1e-9);
            assert!(out.iter().all(|x| erased.contains(x)), "path stays erased");
            let xor = out
                .iter()
                .fold(false, |acc, &x| acc ^ g.edges()[x].flips_observable);
            assert_eq!(xor, flip);
            overlay.restore();
        }
    }

    #[test]
    fn warm_scratch_is_deterministic() {
        let g = graph();
        let paths = ShortestPaths::compute(&g);
        let mut overlay = WeightOverlay::new();
        let erased: Vec<usize> = g.incident(2).iter().chain(g.incident(9)).copied().collect();
        let defects = [0usize, 3, 8, 11];
        let (mut d1, mut p1) = (Vec::new(), Vec::new());
        overlay.apply(&g, &erased);
        overlay.effective_metrics(&paths, &defects, g.boundary(), &mut d1, &mut p1);
        overlay.restore();
        // Interleave an unrelated shot, then repeat the first.
        overlay.apply(&g, &[0]);
        overlay.restore();
        let (mut d2, mut p2) = (Vec::new(), Vec::new());
        overlay.apply(&g, &erased);
        overlay.effective_metrics(&paths, &defects, g.boundary(), &mut d2, &mut p2);
        overlay.restore();
        assert_eq!(d1, d2);
        assert_eq!(p1, p2);
    }
}
