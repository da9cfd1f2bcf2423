//! Sparse (APSP-free) Minimum-Weight Perfect Matching decoder.
//!
//! The dense decoder ([`crate::mwpm`]) precomputes an all-pairs
//! shortest-path table — O((nodes+1)²) memory and O(V·E·log V) build time —
//! which is exactly the scaling the sliding-window machinery exists to work
//! around, and which makes MWPM-accuracy decoding impractical at d ≥ 11.
//! This module reaches the *same optimal matching weight* with O(V)
//! precomputation, in the spirit of PyMatching v2 / fusion-blossom's sparse
//! blossom: all work happens directly on the decoding graph.
//!
//! The algorithm ("local matching", exact):
//!
//! 1. **Index** ([`SparseIndex`], shared per graph): one integer Dijkstra
//!    from the boundary gives every node's boundary distance `d_B`,
//!    observable parity, and predecessor edge; every edge weight is scaled
//!    to the shared integer grid ([`crate::weight`]).
//! 2. **Candidate discovery** (per shot): from each defect `u`, a *bounded*
//!    Dijkstra explores only nodes `w` with `d(u,w) < d_B(u) + d_B(w)` and
//!    `d(u,w) ≤ 2·d_B(u)`. Any defect pair with `d(u,v) < d_B(u) + d_B(v)`
//!    is discovered (from the endpoint with the larger `d_B`); pairs at or
//!    beyond that threshold are *dominated* — replacing the pair by two
//!    boundary matches never costs more — so skipping them is lossless.
//!    The pruning also never inflates a candidate's distance: every vertex
//!    `x` on a shortest `u–v` path of a needed pair satisfies
//!    `d(u,x) < d_B(u) + d_B(x)` (triangle inequality through `d_B`), so
//!    the whole path survives exploration.
//! 3. **Component decomposition**: union-find over candidate pairs splits
//!    the defects into independent clusters — no optimal matching pairs
//!    across clusters (any cross pair is non-candidate, hence dominated).
//! 4. **Exact blossom per component**: size-1 components match to the
//!    boundary, size-2 take their candidate pair (it beats two boundary
//!    matches by the candidate inequality), larger ones run the standard
//!    reduction (defects 0..m, private boundary copies m..2m) through the
//!    exact [`MatchingContext`] solver — identical to the dense path, but
//!    on a component of typically 2–4 defects instead of the whole shot.
//!
//! Because both backends optimize the same snapped integer metric, the
//! total correction weight is *equal* to the dense decoder's on every
//! syndrome — an exact integer equality, asserted by the equivalence suite.
//! (Equal-weight corrections along homologically distinct paths can in
//! principle differ in flip between backends; the fixed-seed suites assert
//! they do not on realistic graphs.)
//!
//! Erasures: flagged edges cost 0 in the traversal metric, which reproduces
//! the dense hub-contraction metric ([`WeightOverlay::effective_metrics`]
//! treats intra-component travel as free) exactly; the boundary index is
//! recomputed per erasure shot since the shared one is erasure-blind.
//!
//! All per-shot state is epoch-stamped and reused: a warm decoder performs
//! no heap allocation per shot.

use crate::api::{DecodeOutcome, Syndrome, SyndromeDecoder};
use crate::graph::DecodingGraph;
use crate::matching::MatchingContext;
use crate::overlay::WeightOverlay;
use crate::weight::{scale_weight, WEIGHT_SCALE};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Instant;

/// Shared per-graph precomputation for the sparse decoder: scaled integer
/// edge weights plus one boundary-rooted Dijkstra (distance, observable
/// parity, and predecessor edge per node). O(V + E) memory — the sparse
/// analogue of the dense [`crate::ShortestPaths`] table.
#[derive(Debug)]
pub struct SparseIndex {
    /// Nodes including the boundary (= `graph.num_nodes() + 1`).
    n: usize,
    /// Per-edge scaled integer weight.
    scaled: Vec<i64>,
    /// Per-node scaled distance to the boundary.
    d_b: Vec<i64>,
    /// Observable parity along the shortest path to the boundary.
    par_b: Vec<bool>,
    /// Predecessor edge toward the boundary (`u32::MAX` at the boundary).
    pred_b: Vec<u32>,
}

impl SparseIndex {
    /// Builds the index: one integer Dijkstra from the boundary.
    ///
    /// Nodes cut off from the boundary keep distance [`i64::MAX`]. That is
    /// legal at construction time — a noiseless run produces an edgeless
    /// graph — and only becomes an error if a *defect* lands on such a
    /// node, which the decoder checks per shot.
    pub fn compute(graph: &DecodingGraph) -> SparseIndex {
        let n = graph.num_nodes() + 1;
        let boundary = graph.boundary();
        let scaled: Vec<i64> = graph
            .edges()
            .iter()
            .map(|e| scale_weight(e.weight))
            .collect();
        let mut d_b = vec![i64::MAX; n];
        let mut par_b = vec![false; n];
        let mut pred_b = vec![u32::MAX; n];
        let mut done = vec![false; n];
        let mut heap: BinaryHeap<Reverse<(i64, usize)>> = BinaryHeap::new();
        d_b[boundary] = 0;
        heap.push(Reverse((0, boundary)));
        while let Some(Reverse((d, u))) = heap.pop() {
            if done[u] {
                continue;
            }
            done[u] = true;
            for &ei in graph.incident(u) {
                let e = &graph.edges()[ei];
                let v = if e.a == u { e.b } else { e.a };
                let nd = d + scaled[ei];
                if nd < d_b[v] {
                    d_b[v] = nd;
                    par_b[v] = par_b[u] ^ e.flips_observable;
                    pred_b[v] = ei as u32;
                    heap.push(Reverse((nd, v)));
                }
            }
        }
        SparseIndex {
            n,
            scaled,
            d_b,
            par_b,
            pred_b,
        }
    }

    /// Approximate heap footprint, for size-bounded artifact caches.
    pub fn approx_bytes(&self) -> usize {
        self.scaled.len() * std::mem::size_of::<i64>()
            + self.d_b.len() * std::mem::size_of::<i64>()
            + self.par_b.len()
            + self.pred_b.len() * std::mem::size_of::<u32>()
    }

    /// Scaled integer distance from `v` to the boundary.
    pub fn boundary_distance(&self, v: usize) -> i64 {
        self.d_b[v]
    }

    /// Number of nodes including the boundary.
    pub fn num_nodes_with_boundary(&self) -> usize {
        self.n
    }
}

/// One discovered defect pair worth considering for matching: scaled
/// distance strictly below the sum of the endpoints' boundary distances.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    /// Lower defect index (into the shot's defect list).
    i: u32,
    /// Higher defect index.
    j: u32,
    /// Exact scaled shortest-path distance between the defects.
    dist: i64,
    /// Observable parity along the discovered shortest path.
    par: bool,
    /// The defect index whose Dijkstra discovered (and can re-derive) the
    /// path — the deterministic source for correction emission.
    src: u32,
}

/// Stateful sparse-MWPM decoder instance: one per worker thread. All
/// scratch is epoch-stamped and reused across shots.
///
/// # Example
///
/// ```
/// use qec_core::NoiseParams;
/// use qec_core::circuit::DetectorBasis;
/// use qec_decoder::{build_dem, DecodingGraph, SparseMwpmDecoder, Syndrome, SyndromeDecoder};
/// use surface_code::{MemoryExperiment, RotatedCode};
/// use std::sync::Arc;
///
/// let exp = MemoryExperiment::new(RotatedCode::new(3), NoiseParams::standard(1e-3), 2);
/// let detectors = exp.detectors();
/// let dem = build_dem(&exp.base_circuit(), &detectors, &exp.observable_keys());
/// let graph = DecodingGraph::from_dem(&dem, &detectors, DetectorBasis::Z);
/// let mut decoder = SparseMwpmDecoder::new(&graph); // computes the index
/// // A second instance (say, for another thread) shares that index.
/// let second = SparseMwpmDecoder::with_index(&graph, Arc::clone(decoder.index()));
/// assert!(Arc::ptr_eq(decoder.index(), second.index()));
/// assert!(!decoder.decode(&Syndrome::default(), None).flip);
/// ```
#[derive(Debug)]
pub struct SparseMwpmDecoder<'g> {
    graph: &'g DecodingGraph,
    index: Arc<SparseIndex>,
    overlay: WeightOverlay,
    matching: MatchingContext,
    // Epoch-stamped bounded-Dijkstra scratch (node-indexed).
    epoch: u32,
    stamp: Vec<u32>,
    dist: Vec<i64>,
    par: Vec<bool>,
    pred: Vec<u32>,
    settled: Vec<bool>,
    heap: BinaryHeap<Reverse<(i64, u32)>>,
    // Defect marking (separate epoch: must persist across Dijkstra runs).
    defect_epoch: u32,
    defect_stamp: Vec<u32>,
    defect_idx: Vec<u32>,
    // Erasure-effective boundary index, recomputed per erasure shot.
    eff_db: Vec<i64>,
    eff_parb: Vec<bool>,
    eff_predb: Vec<u32>,
    // Candidate pairs and component decomposition (defect-indexed).
    candidates: Vec<Candidate>,
    dsu: Vec<u32>,
    comp_id: Vec<u32>,
    comp_start: Vec<u32>,
    member_order: Vec<u32>,
    cursor: Vec<u32>,
    cand_start: Vec<u32>,
    cand_order: Vec<u32>,
    local_of: Vec<u32>,
    redux: Vec<(usize, usize, i64)>,
    // Matching decisions, accumulated across components.
    pair_out: Vec<(u32, u32)>,
    bnd_out: Vec<u32>,
}

impl<'g> SparseMwpmDecoder<'g> {
    /// Builds a standalone instance, computing the boundary index itself.
    /// For multi-threaded decoding compute the (already cheap) index once
    /// and share it through [`SparseMwpmDecoder::with_index`].
    pub fn new(graph: &'g DecodingGraph) -> SparseMwpmDecoder<'g> {
        SparseMwpmDecoder::with_index(graph, Arc::new(SparseIndex::compute(graph)))
    }

    /// Builds an instance over a precomputed (shared) index.
    ///
    /// # Panics
    ///
    /// Panics if `index` was computed for a different-sized graph.
    pub fn with_index(graph: &'g DecodingGraph, index: Arc<SparseIndex>) -> SparseMwpmDecoder<'g> {
        assert_eq!(
            index.num_nodes_with_boundary(),
            graph.num_nodes() + 1,
            "sparse index does not match the decoding graph"
        );
        SparseMwpmDecoder {
            graph,
            index,
            overlay: WeightOverlay::new(),
            matching: MatchingContext::new(),
            epoch: 0,
            stamp: Vec::new(),
            dist: Vec::new(),
            par: Vec::new(),
            pred: Vec::new(),
            settled: Vec::new(),
            heap: BinaryHeap::new(),
            defect_epoch: 0,
            defect_stamp: Vec::new(),
            defect_idx: Vec::new(),
            eff_db: Vec::new(),
            eff_parb: Vec::new(),
            eff_predb: Vec::new(),
            candidates: Vec::new(),
            dsu: Vec::new(),
            comp_id: Vec::new(),
            comp_start: Vec::new(),
            member_order: Vec::new(),
            cursor: Vec::new(),
            cand_start: Vec::new(),
            cand_order: Vec::new(),
            local_of: Vec::new(),
            redux: Vec::new(),
            pair_out: Vec::new(),
            bnd_out: Vec::new(),
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &DecodingGraph {
        self.graph
    }

    /// The shared index.
    pub fn index(&self) -> &Arc<SparseIndex> {
        &self.index
    }

    /// Boundary distance under the shot's metric.
    #[inline]
    fn db(&self, eff: bool, v: usize) -> i64 {
        if eff {
            self.eff_db[v]
        } else {
            self.index.d_b[v]
        }
    }

    /// Edge weight under the shot's metric: erased edges are free (0), which
    /// reproduces the dense hub-contraction metric exactly.
    #[inline]
    fn ew(&self, eff: bool, ei: usize) -> i64 {
        if eff && self.overlay.is_erased(ei) {
            0
        } else {
            self.index.scaled[ei]
        }
    }

    /// Bounded Dijkstra from defect node `src` (defect index `iu`). Settles
    /// exactly the nodes `w` with `d(src,w) < d_B(src) + d_B(w)` within
    /// radius `2·d_B(src)`, recording distance, parity, and predecessor
    /// edge. With `collect`, every settled defect becomes a [`Candidate`].
    /// Deterministic: integer weights, strict relaxation, (dist, node)
    /// heap order — a re-run reproduces identical state, which is what
    /// correction emission relies on.
    fn bounded_dijkstra(&mut self, src: usize, iu: u32, eff: bool, collect: bool) {
        let graph = self.graph;
        let boundary = graph.boundary();
        let n = self.index.n;
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
            self.dist.resize(n, i64::MAX);
            self.par.resize(n, false);
            self.pred.resize(n, u32::MAX);
            self.settled.resize(n, false);
        }
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        let ep = self.epoch;
        let db_src = self.db(eff, src);
        let radius = 2 * db_src;
        self.heap.clear();
        self.stamp[src] = ep;
        self.dist[src] = 0;
        self.par[src] = false;
        self.pred[src] = u32::MAX;
        self.settled[src] = false;
        self.heap.push(Reverse((0, src as u32)));
        while let Some(Reverse((d, x))) = self.heap.pop() {
            let x = x as usize;
            if self.settled[x] {
                continue;
            }
            self.settled[x] = true;
            if collect && x != src && self.defect_stamp[x] == self.defect_epoch {
                let ix = self.defect_idx[x];
                debug_assert!(d < db_src + self.db(eff, x), "dominated pair explored");
                let (i, j) = if iu < ix { (iu, ix) } else { (ix, iu) };
                self.candidates.push(Candidate {
                    i,
                    j,
                    dist: d,
                    par: self.par[x],
                    src: iu,
                });
            }
            for &ei in graph.incident(x) {
                let e = &graph.edges()[ei];
                let y = if e.a == x { e.b } else { e.a };
                if y == boundary {
                    // Paths through the boundary cost ≥ d_B(src) + d_B(y):
                    // always dominated (they are two boundary matches).
                    continue;
                }
                let nd = d + self.ew(eff, ei);
                if nd > radius || nd >= db_src.saturating_add(self.db(eff, y)) {
                    continue;
                }
                if self.stamp[y] != ep {
                    self.stamp[y] = ep;
                    self.dist[y] = i64::MAX;
                    self.settled[y] = false;
                }
                if nd < self.dist[y] {
                    self.dist[y] = nd;
                    self.par[y] = self.par[x] ^ e.flips_observable;
                    self.pred[y] = ei as u32;
                    self.heap.push(Reverse((nd, y as u32)));
                }
            }
        }
    }

    /// Recomputes the boundary index under the overlay-effective metric
    /// (erased edges free). Full-graph Dijkstra, only run on erasure shots.
    fn compute_eff_boundary(&mut self) {
        let graph = self.graph;
        let boundary = graph.boundary();
        let n = self.index.n;
        self.eff_db.clear();
        self.eff_db.resize(n, i64::MAX);
        self.eff_parb.clear();
        self.eff_parb.resize(n, false);
        self.eff_predb.clear();
        self.eff_predb.resize(n, u32::MAX);
        self.heap.clear();
        self.eff_db[boundary] = 0;
        self.heap.push(Reverse((0, boundary as u32)));
        while let Some(Reverse((d, u))) = self.heap.pop() {
            let u = u as usize;
            if d > self.eff_db[u] {
                continue;
            }
            for &ei in graph.incident(u) {
                let e = &graph.edges()[ei];
                let v = if e.a == u { e.b } else { e.a };
                let nd = d + self.ew(true, ei);
                if nd < self.eff_db[v] {
                    self.eff_db[v] = nd;
                    self.eff_parb[v] = self.eff_parb[u] ^ e.flips_observable;
                    self.eff_predb[v] = ei as u32;
                    self.heap.push(Reverse((nd, v as u32)));
                }
            }
        }
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.dsu[x as usize] != x {
            let p = self.dsu[x as usize];
            let gp = self.dsu[p as usize];
            self.dsu[x as usize] = gp;
            x = gp;
        }
        x
    }

    fn union(&mut self, a: u32, b: u32) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            // Smaller root wins: component ids come out in ascending
            // defect-index order, deterministically.
            let (hi, lo) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.dsu[lo as usize] = hi;
        }
    }

    /// Emits the boundary-match path of defect node `u` (predecessor chain
    /// of the boundary Dijkstra) as edge indices.
    fn emit_boundary(&self, u: usize, eff: bool, out: &mut Vec<usize>) {
        let graph = self.graph;
        let boundary = graph.boundary();
        let mut cur = u;
        let mut guard = graph.edges().len() + 1;
        while cur != boundary {
            let ei = if eff {
                self.eff_predb[cur]
            } else {
                self.index.pred_b[cur]
            } as usize;
            out.push(ei);
            let e = &graph.edges()[ei];
            cur = if e.a == cur { e.b } else { e.a };
            guard -= 1;
            assert!(guard > 0, "boundary predecessor chain failed to terminate");
        }
    }

    /// Emits the pair path of a candidate by re-running the (deterministic)
    /// discovery Dijkstra from its source defect and walking predecessors.
    fn emit_pair(&mut self, cand: Candidate, eff: bool, defects: &[usize], out: &mut Vec<usize>) {
        let src = defects[cand.src as usize];
        let other = if cand.src == cand.i { cand.j } else { cand.i };
        let dst = defects[other as usize];
        self.bounded_dijkstra(src, cand.src, eff, false);
        debug_assert!(
            self.stamp[dst] == self.epoch && self.settled[dst],
            "emission re-run failed to reach the matched defect"
        );
        debug_assert_eq!(self.dist[dst], cand.dist, "emission distance drifted");
        debug_assert_eq!(self.par[dst], cand.par, "emission parity drifted");
        self.walk_pred(src, dst, out);
    }

    /// Emits the last pair Dijkstra's predecessor chain from `dst` back to
    /// its source `src` as edge indices.
    fn walk_pred(&self, src: usize, dst: usize, out: &mut Vec<usize>) {
        let graph = self.graph;
        let mut cur = dst;
        let mut guard = graph.edges().len() + 1;
        while cur != src {
            let ei = self.pred[cur] as usize;
            out.push(ei);
            let e = &graph.edges()[ei];
            cur = if e.a == cur { e.b } else { e.a };
            guard -= 1;
            assert!(guard > 0, "pair predecessor chain failed to terminate");
        }
    }

    /// Marks the shot's defects for candidate collection, after checking
    /// that each can reach the boundary under the shot's metric.
    fn mark_defects(&mut self, defects: &[usize], eff: bool) {
        let n = self.index.n;
        if self.defect_stamp.len() < n {
            self.defect_stamp.resize(n, 0);
            self.defect_idx.resize(n, 0);
        }
        if self.defect_epoch == u32::MAX {
            self.defect_stamp.fill(0);
            self.defect_epoch = 0;
        }
        self.defect_epoch += 1;
        for (i, &u) in defects.iter().enumerate() {
            assert!(
                self.db(eff, u) < i64::MAX,
                "defect on node {u} cut off from the boundary cannot be matched"
            );
            self.defect_stamp[u] = self.defect_epoch;
            self.defect_idx[u] = i as u32;
        }
    }

    /// The general path, after `mark_defects`: one bounded Dijkstra per
    /// defect collects the candidate pairs, which split the defects into
    /// components; a component of one defect goes to the boundary, one of
    /// two pairs up, and larger ones run the blossom. Returns the flip and
    /// the integer matched weight.
    fn match_general(
        &mut self,
        defects: &[usize],
        eff: bool,
        mut correction: Option<&mut Vec<usize>>,
    ) -> (bool, i64) {
        // Candidate discovery: one bounded Dijkstra per defect.
        self.candidates.clear();
        for (i, &u) in defects.iter().enumerate() {
            self.bounded_dijkstra(u, i as u32, eff, true);
        }
        // Canonicalize: pairs found from both endpoints keep the low-src
        // record (sort is allocation-free; dedup keeps the first).
        self.candidates.sort_unstable_by_key(|c| (c.i, c.j, c.src));
        self.candidates.dedup_by(|a, b| a.i == b.i && a.j == b.j);

        // Component decomposition over candidate pairs.
        let k = defects.len();
        self.dsu.clear();
        self.dsu.extend(0..k as u32);
        for ci in 0..self.candidates.len() {
            let (i, j) = (self.candidates[ci].i, self.candidates[ci].j);
            self.union(i, j);
        }
        self.comp_id.clear();
        self.comp_id.resize(k, u32::MAX);
        let mut q = 0u32;
        for i in 0..k {
            if self.find(i as u32) as usize == i {
                self.comp_id[i] = q;
                q += 1;
            }
        }
        for i in 0..k {
            let r = self.find(i as u32) as usize;
            self.comp_id[i] = self.comp_id[r];
        }
        let qn = q as usize;
        // Members grouped per component (counting sort; ascending within).
        self.comp_start.clear();
        self.comp_start.resize(qn + 1, 0);
        for i in 0..k {
            self.comp_start[self.comp_id[i] as usize + 1] += 1;
        }
        for c in 0..qn {
            self.comp_start[c + 1] += self.comp_start[c];
        }
        self.member_order.clear();
        self.member_order.resize(k, 0);
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.comp_start);
        for i in 0..k {
            let c = self.comp_id[i] as usize;
            self.member_order[self.cursor[c] as usize] = i as u32;
            self.cursor[c] += 1;
        }
        // Candidates grouped per component (stable, so sorted within).
        self.cand_start.clear();
        self.cand_start.resize(qn + 1, 0);
        for cand in &self.candidates {
            self.cand_start[self.comp_id[cand.i as usize] as usize + 1] += 1;
        }
        for c in 0..qn {
            self.cand_start[c + 1] += self.cand_start[c];
        }
        self.cand_order.clear();
        self.cand_order.resize(self.candidates.len(), 0);
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.cand_start);
        for ci in 0..self.candidates.len() {
            let c = self.comp_id[self.candidates[ci].i as usize] as usize;
            self.cand_order[self.cursor[c] as usize] = ci as u32;
            self.cursor[c] += 1;
        }

        // Per-component optimal matching.
        self.pair_out.clear();
        self.bnd_out.clear();
        if self.local_of.len() < k {
            self.local_of.resize(k, 0);
        }
        for c in 0..qn {
            let ms = self.comp_start[c] as usize;
            let me = self.comp_start[c + 1] as usize;
            let m = me - ms;
            if m == 1 {
                self.bnd_out.push(self.member_order[ms]);
                continue;
            }
            if m == 2 {
                // The candidate inequality d(u,v) < d_B(u) + d_B(v) makes
                // the pair strictly cheaper than two boundary matches.
                self.pair_out
                    .push((self.member_order[ms], self.member_order[ms + 1]));
                continue;
            }
            // Blossom on the component: defects 0..m, boundary copies
            // m..2m. Only candidate pairs get pair edges — non-candidates
            // are dominated and never needed in an optimal matching.
            for t in ms..me {
                self.local_of[self.member_order[t] as usize] = (t - ms) as u32;
            }
            let cs = self.cand_start[c] as usize;
            let ce = self.cand_start[c + 1] as usize;
            let mut cmax: i64 = 0;
            for t in cs..ce {
                cmax = cmax.max(self.candidates[self.cand_order[t] as usize].dist);
            }
            for t in ms..me {
                cmax = cmax.max(self.db(eff, defects[self.member_order[t] as usize]));
            }
            let big = cmax + 1;
            self.redux.clear();
            for t in cs..ce {
                let cand = self.candidates[self.cand_order[t] as usize];
                let li = self.local_of[cand.i as usize] as usize;
                let lj = self.local_of[cand.j as usize] as usize;
                self.redux.push((li, lj, big - cand.dist));
            }
            for li in 0..m {
                for lj in (li + 1)..m {
                    self.redux.push((m + li, m + lj, big));
                }
                let u = defects[self.member_order[ms + li] as usize];
                self.redux.push((li, m + li, big - self.db(eff, u)));
            }
            let mate = self.matching.solve(&self.redux, true);
            for (li, &partner) in mate.iter().enumerate().take(m) {
                match partner {
                    Some(lj) if lj < m => {
                        if li < lj {
                            self.pair_out
                                .push((self.member_order[ms + li], self.member_order[ms + lj]));
                        }
                    }
                    Some(_) => self.bnd_out.push(self.member_order[ms + li]),
                    None => unreachable!("perfect matching guaranteed"),
                }
            }
        }

        // Totals and correction emission.
        let mut flip = false;
        let mut wsum: i64 = 0;
        for t in 0..self.bnd_out.len() {
            let u = defects[self.bnd_out[t] as usize];
            flip ^= if eff {
                self.eff_parb[u]
            } else {
                self.index.par_b[u]
            };
            wsum += self.db(eff, u);
            if let Some(c) = correction.as_deref_mut() {
                self.emit_boundary(u, eff, c);
            }
        }
        for t in 0..self.pair_out.len() {
            let (i, j) = self.pair_out[t];
            let ci = self
                .candidates
                .binary_search_by(|cand| (cand.i, cand.j).cmp(&(i, j)))
                .expect("matched pair must be a candidate");
            let cand = self.candidates[ci];
            flip ^= cand.par;
            wsum += cand.dist;
            if let Some(c) = correction.as_deref_mut() {
                self.emit_pair(cand, eff, defects, c);
            }
        }
        (flip, wsum)
    }

    /// The closed form for 1–2 erasure-free defects, after `mark_defects`.
    /// One defect matches to the boundary straight off the shared index,
    /// with no Dijkstra at all. Two defects run at most the bounded pair
    /// Dijkstras the general path runs: a discovered candidate is strictly
    /// cheaper than two boundary matches (the candidate inequality), and no
    /// candidate means both drain to the boundary. The candidate kept is the
    /// low-`src` record, exactly what the general path's sort + dedup keeps,
    /// and its predecessor scratch is still current, so the correction walk
    /// emits the same edge sequence as `emit_pair`. Returns the flip and the
    /// integer matched weight, equal to `match_general`'s.
    fn match_closed_form(
        &mut self,
        defects: &[usize],
        mut correction: Option<&mut Vec<usize>>,
    ) -> (bool, i64) {
        if let [a, b] = *defects {
            // Discover the (0, 1) candidate the way the general path does,
            // but stop at the first run that finds it: the sort + dedup
            // canonicalization keeps the low-src record anyway.
            self.candidates.clear();
            self.bounded_dijkstra(a, 0, false, true);
            if self.candidates.is_empty() {
                self.bounded_dijkstra(b, 1, false, true);
            }
            if let Some(&cand) = self.candidates.first() {
                if let Some(c) = correction {
                    // The discovering run's predecessor scratch is still
                    // current (same epoch), so walk it directly — the same
                    // dst → src edge order `emit_pair` re-derives.
                    let (src, dst) = if cand.src == 0 { (a, b) } else { (b, a) };
                    self.walk_pred(src, dst, c);
                }
                return (cand.par, cand.dist);
            }
        }
        // One defect, or two without a candidate: each drains to the
        // boundary.
        let mut flip = false;
        let mut wsum: i64 = 0;
        for &u in defects {
            flip ^= self.index.par_b[u];
            wsum += self.index.d_b[u];
            if let Some(c) = correction.as_deref_mut() {
                self.emit_boundary(u, false, c);
            }
        }
        (flip, wsum)
    }
}

impl SyndromeDecoder for SparseMwpmDecoder<'_> {
    /// With `correction`, matched paths are also emitted as edge indices
    /// whose flip-XOR equals the returned flip. 1–2 erasure-free defects
    /// take the closed form ([`DecodeOutcome::closed_form`]), which answers
    /// exactly as the general path would.
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
            return DecodeOutcome::default();
        }
        let start = Instant::now();
        let eff = !syndrome.erasures.is_empty();
        if eff {
            self.overlay.apply(self.graph, &syndrome.erasures);
            self.compute_eff_boundary();
        }
        self.mark_defects(defects, eff);
        let closed_form = !eff && defects.len() <= 2;
        let (flip, wsum) = if closed_form {
            self.match_closed_form(defects, correction)
        } else {
            self.match_general(defects, eff, correction)
        };
        if eff {
            self.overlay.restore();
        }
        DecodeOutcome {
            flip,
            weight: wsum as f64 / WEIGHT_SCALE,
            defects: defects.len(),
            nanos: start.elapsed().as_nanos() as u64,
            closed_form,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dem::build_dem;
    use crate::mwpm::MwpmBatchDecoder;
    use crate::window::WindowGraph;
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
    fn empty_syndrome_decodes_trivially() {
        let (graph, _) = setup(3, 2);
        let mut decoder = SparseMwpmDecoder::new(&graph);
        let outcome = decoder.decode(&Syndrome::default(), None);
        assert!(!outcome.flip);
        assert_eq!(outcome.weight, 0.0);
        assert_eq!(outcome.defects, 0);
    }

    #[test]
    fn factory_shares_one_index() {
        let (graph, _) = setup(3, 2);
        let a = SparseMwpmDecoder::new(&graph);
        let b = SparseMwpmDecoder::with_index(&graph, Arc::clone(a.index()));
        assert!(Arc::ptr_eq(a.index(), b.index()));
    }

    #[test]
    fn boundary_index_matches_dense_distances() {
        let (graph, _) = setup(3, 3);
        let index = SparseIndex::compute(&graph);
        let paths = crate::ShortestPaths::compute(&graph);
        let b = graph.boundary();
        for v in 0..graph.num_nodes() {
            assert_eq!(
                index.boundary_distance(v),
                scale_weight(paths.distance(v, b)),
                "node {v}"
            );
        }
    }

    /// The code-distance statement, same as the dense decoder's: every
    /// single fault mechanism must be corrected without a logical error.
    #[test]
    fn single_faults_are_always_corrected() {
        for (d, rounds) in [(3usize, 3usize), (5, 4)] {
            let (graph, dem) = setup(d, rounds);
            let mut decoder = SparseMwpmDecoder::new(&graph);
            let mut checked = 0;
            let mut syndrome = Syndrome::default();
            for mech in &dem.mechanisms {
                syndrome.clear();
                syndrome.defects.extend(
                    mech.detectors
                        .iter()
                        .filter_map(|&det| graph.node_of_detector(det)),
                );
                if syndrome.is_empty() {
                    continue;
                }
                let predicted = decoder.decode(&syndrome, None).flip;
                assert_eq!(
                    predicted, mech.flips_observable,
                    "single fault mis-corrected at d={d}: {mech:?}"
                );
                checked += 1;
            }
            assert!(checked > 50, "too few mechanisms checked ({checked})");
        }
    }

    /// Exhaustive weight-parity check against the dense blossom over every
    /// defect pair (the smallest non-trivial syndromes, where candidate
    /// discovery, domination pruning, and the m=2 shortcut all get hit).
    #[test]
    fn all_defect_pairs_match_dense_weight_and_flip() {
        let (graph, _) = setup(3, 2);
        let mut dense = MwpmBatchDecoder::new(&graph);
        let mut sparse = SparseMwpmDecoder::new(&graph);
        let n = graph.num_nodes();
        let mut syndrome = Syndrome::default();
        for u in 0..n {
            for v in (u + 1)..n {
                syndrome.clear();
                syndrome.defects.extend([u, v]);
                let a = dense.decode(&syndrome, None);
                let b = sparse.decode(&syndrome, None);
                assert_eq!(
                    scale_weight(a.weight),
                    scale_weight(b.weight),
                    "weight mismatch on pair ({u}, {v})"
                );
                assert_eq!(a.flip, b.flip, "flip mismatch on pair ({u}, {v})");
            }
        }
    }

    /// The closed form answers every 1- and 2-defect, erasure-free
    /// syndrome as the general path would: flip, weight bits and
    /// correction-edge sequence, with and without a correction buffer, on
    /// the first, a bulk and the last window shape of d = 3 and d = 7
    /// parents.
    #[test]
    fn closed_form_matches_the_general_path() {
        for (d, rounds, window) in [(3usize, 14usize, 5usize), (7, 21, 7)] {
            let (graph, _) = setup(d, rounds);
            let last = graph.max_round() + 1 - window;
            for lo in [0, window, last] {
                let shape = WindowGraph::build(&graph, lo, lo + window - 1);
                let g = shape.graph();
                let mut decoder = SparseMwpmDecoder::new(g);
                let (mut fast, mut full) = (Vec::new(), Vec::new());
                let mut syndrome = Syndrome::default();
                for a in 0..g.num_nodes() {
                    for b in a..g.num_nodes() {
                        syndrome.defects.clear();
                        syndrome
                            .defects
                            .extend(if a == b { vec![a] } else { vec![a, b] });
                        let at = format!("d={d} window at {lo}, defects {:?}", syndrome.defects);
                        let defects = &syndrome.defects;
                        for with_correction in [true, false] {
                            let out = if with_correction {
                                decoder.decode(&syndrome, Some(&mut fast))
                            } else {
                                decoder.decode(&syndrome, None)
                            };
                            assert!(out.closed_form, "{at}");
                            full.clear();
                            decoder.mark_defects(defects, false);
                            let (flip, wsum) = decoder.match_general(
                                defects,
                                false,
                                with_correction.then_some(&mut full),
                            );
                            assert_eq!(out.flip, flip, "{at}: flip diverged");
                            assert_eq!(
                                out.weight.to_bits(),
                                (wsum as f64 / WEIGHT_SCALE).to_bits(),
                                "{at}: weight not bit-identical"
                            );
                            if with_correction {
                                assert_eq!(fast, full, "{at}: correction-edge sequence diverged");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn correction_flip_xor_matches_outcome() {
        let (graph, dem) = setup(3, 3);
        let mut decoder = SparseMwpmDecoder::new(&graph);
        let mut syndrome = Syndrome::default();
        let mut correction = Vec::new();
        // A composite syndrome from a handful of mechanisms.
        let mut events = vec![false; graph.num_nodes()];
        for mech in dem.mechanisms.iter().take(9) {
            for &det in &mech.detectors {
                if let Some(node) = graph.node_of_detector(det) {
                    events[node] ^= true;
                }
            }
        }
        syndrome
            .defects
            .extend((0..graph.num_nodes()).filter(|&v| events[v]));
        let outcome = decoder.decode(&syndrome, Some(&mut correction));
        let xor = correction
            .iter()
            .fold(false, |acc, &ei| acc ^ graph.edges()[ei].flips_observable);
        assert_eq!(xor, outcome.flip);
        let wsum: f64 = correction.iter().map(|&ei| graph.edges()[ei].weight).sum();
        assert_eq!(scale_weight(wsum), scale_weight(outcome.weight));
    }
}
