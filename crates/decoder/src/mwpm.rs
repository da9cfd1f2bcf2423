//! Minimum-Weight Perfect Matching decoder.
//!
//! The paper's gold-standard decoder (§2.2): fired detectors (defects) are
//! paired up — or matched to the lattice boundary — along minimum-weight
//! paths of the decoding graph, and the correction's effect on the logical
//! observable is the XOR of the observable parities of those paths.
//!
//! Implementation: all-pairs shortest paths (Dijkstra per node, tracking
//! observable parity along the shortest path), then exact matching on the
//! defect graph, staged as integer costs (pair `i`–`j`, or `i` to the
//! boundary).
//!
//! # Certified matching ahead of the blossom
//!
//! Every solve first tries a certified exact solver, and the blossom (with
//! one virtual boundary copy per defect, the standard reduction that lets an
//! odd number of defects terminate on the boundary) runs only when that
//! solver cannot prove its answer unique.
//!
//! - **Pruning.** A pair costing at least its two boundary matches is
//!   dropped: with `>` it is never optimal, with `==` (a *twin*) it ties
//!   with them. The kept pairs split the defects into components.
//! - **Subset DP.** Each component of at most 10 defects is solved exactly
//!   by a subset DP (the lowest member goes to the boundary or pairs with a
//!   kept neighbour) that also counts its optimal solutions, saturating.
//! - **Deferral.** The blossom runs instead when a component's count is not
//!   exactly 1, when two boundary-matched defects are twins, or when a
//!   component has more than 10 defects.
//!
//! Bit-identity: each perfect matching of the blossom reduction is, on the
//! defects, an involution (every defect pairs with another or goes to the
//! boundary) of the same cost. A twin in an optimum can be swapped for its
//! two boundary matches at equal cost, so the optimum is unique exactly
//! when the pruned problem's is and no two boundary-matched defects are
//! twins. A unique minimum-cost involution is what every exact matcher
//! returns, the blossom included, so the certified answer fills the same
//! `pairs` (ascending `i < j`) and `to_boundary` (ascending) the blossom's
//! mate array would: flip, f64 weight bits and correction edges are
//! unchanged. Tier 1 ([`MwpmBatchDecoder::decode_tier1`]) decides with the
//! same solver, so one uniqueness rule serves tiers 1 and 2.
//!
//! On the `stream-d7` benchmark workload (d = 7, R = 70, 21/14 windows,
//! p = 1e-3, 2-vCPU host) the solver certifies 81.5% of the matchings that
//! reach it (3.5% defer on a component over 10 defects, 15.0% on a tie),
//! and the mean matching time drops from 14.6 µs to 5.3 µs (7.8 defects on
//! average).
//!
//! The stateful entry point is [`MwpmFactory`] → [`MwpmBatchDecoder`]: the
//! O(n²) [`ShortestPaths`] table is computed once per graph and shared across
//! worker threads via [`Arc`]; each instance keeps its own matching scratch
//! so the per-shot loop does not allocate.

use crate::api::{DecodeOutcome, DecoderFactory, Syndrome, SyndromeDecoder};
use crate::graph::DecodingGraph;
use crate::matching::MatchingContext;
use crate::overlay::{DijkstraScratch, WeightOverlay};
use crate::weight::scale_weight;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Instant;

/// All-pairs shortest paths over a decoding graph (boundary node included),
/// with observable parity tracked along each shortest path.
#[derive(Debug, Clone)]
pub struct ShortestPaths {
    n: usize,
    dist: Vec<f64>,
    obs: Vec<bool>,
}

impl ShortestPaths {
    /// Runs Dijkstra from every node. Memory is O((nodes+1)²); decoding
    /// graphs beyond ~10⁴ nodes should use the union-find decoder instead.
    pub fn compute(graph: &DecodingGraph) -> ShortestPaths {
        let n = graph.num_nodes() + 1;
        let mut dist = vec![f64::INFINITY; n * n];
        let mut obs = vec![false; n * n];
        for src in 0..n {
            let (d, o) = dijkstra(graph, src);
            dist[src * n..(src + 1) * n].copy_from_slice(&d);
            obs[src * n..(src + 1) * n].copy_from_slice(&o);
        }
        ShortestPaths { n, dist, obs }
    }

    /// Approximate heap footprint, for size-bounded artifact caches.
    pub fn approx_bytes(&self) -> usize {
        self.dist.len() * std::mem::size_of::<f64>() + self.obs.len()
    }

    /// Shortest-path length between two nodes (boundary = `num_nodes`).
    pub fn distance(&self, u: usize, v: usize) -> f64 {
        self.dist[u * self.n + v]
    }

    /// Observable parity along the shortest path between two nodes.
    pub fn observable_parity(&self, u: usize, v: usize) -> bool {
        self.obs[u * self.n + v]
    }

    /// Number of nodes including the boundary.
    pub fn num_nodes_with_boundary(&self) -> usize {
        self.n
    }

    /// Reconstructs a shortest path from `u` to `v` as edge indices, appended
    /// to `out`.
    ///
    /// The walk follows the relaxation equalities of the Dijkstra run rooted
    /// at `v`: each step moves to a neighbor that preserves both the exact
    /// stored distance *and* the stored observable parity. The parity
    /// condition telescopes, so the XOR of the emitted edges' observable
    /// flips equals [`ShortestPaths::observable_parity`]`(u, v)` exactly —
    /// degenerate equal-weight paths of opposite parity can never be picked.
    /// This is what lets the sliding-window committer work edge by edge while
    /// staying bit-identical to whole-path matching.
    ///
    /// # Panics
    ///
    /// Panics if `v` is unreachable from `u`.
    pub fn path_edges(&self, graph: &DecodingGraph, u: usize, v: usize, out: &mut Vec<usize>) {
        assert!(
            self.distance(v, u).is_finite(),
            "node {u} cannot reach node {v}"
        );
        let mut cur = u;
        // A shortest path visits each edge at most once.
        let mut guard = graph.edges().len() + 1;
        while cur != v {
            let d_cur = self.distance(v, cur);
            let o_cur = self.observable_parity(v, cur);
            let mut next: Option<(usize, usize)> = None;
            // Exact pass: the final relaxation that produced `dist[cur]`
            // guarantees a neighbor with bit-exact distance and parity.
            for &ei in graph.incident(cur) {
                let e = &graph.edges()[ei];
                let w = if e.a == cur { e.b } else { e.a };
                if self.distance(v, w) + e.weight == d_cur
                    && (self.observable_parity(v, w) ^ e.flips_observable) == o_cur
                {
                    next = Some((ei, w));
                    break;
                }
            }
            // Paranoia fallback (never taken for tables produced by
            // `ShortestPaths::compute`): epsilon comparison, parity first.
            if next.is_none() {
                for &ei in graph.incident(cur) {
                    let e = &graph.edges()[ei];
                    let w = if e.a == cur { e.b } else { e.a };
                    if (self.distance(v, w) + e.weight - d_cur).abs() < 1e-9
                        && (self.observable_parity(v, w) ^ e.flips_observable) == o_cur
                    {
                        next = Some((ei, w));
                        break;
                    }
                }
            }
            let (ei, w) = next.expect("shortest-path walk found no consistent step");
            out.push(ei);
            cur = w;
            guard -= 1;
            assert!(guard > 0, "shortest-path walk failed to terminate");
        }
    }
}

#[derive(PartialEq)]
struct HeapItem(f64, usize);

impl Eq for HeapItem {}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // `total_cmp`, not `partial_cmp().unwrap()`: graph construction
        // validates weights, but a degenerate distance must surface as a
        // wrong answer caught by tests — never as a panic inside BinaryHeap.
        self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
    }
}

fn dijkstra(graph: &DecodingGraph, src: usize) -> (Vec<f64>, Vec<bool>) {
    let n = graph.num_nodes() + 1;
    let mut dist = vec![f64::INFINITY; n];
    let mut obs = vec![false; n];
    let mut done = vec![false; n];
    let mut heap = BinaryHeap::new();
    dist[src] = 0.0;
    heap.push(Reverse(HeapItem(0.0, src)));
    while let Some(Reverse(HeapItem(d, u))) = heap.pop() {
        if done[u] {
            continue;
        }
        done[u] = true;
        for &ei in graph.incident(u) {
            let e = &graph.edges()[ei];
            let v = if e.a == u { e.b } else { e.a };
            let nd = d + e.weight;
            if nd < dist[v] {
                dist[v] = nd;
                obs[v] = obs[u] ^ e.flips_observable;
                heap.push(Reverse(HeapItem(nd, v)));
            }
        }
    }
    (dist, obs)
}

/// Largest pruned component the certified solver's subset DP takes
/// (at most 2^10 states); a bigger one defers to the blossom.
const MAX_COMPONENT: usize = 10;

/// One defect-matching problem staged as integer costs, its solution, and
/// the scratch of both exact solvers, reused across shots.
///
/// `scaled[i * k + j]` (`i < j`) is the scaled cost of pairing defects `i`
/// and `j`, `scaled_boundary[i]` that of matching `i` to the boundary. The
/// solution is `pairs` (`i < j`, ascending `i`) and `to_boundary`
/// (ascending), as indices into the staged defects.
#[derive(Debug, Default)]
struct DefectMatching {
    k: usize,
    scaled: Vec<i64>,
    scaled_boundary: Vec<i64>,
    pairs: Vec<(usize, usize)>,
    to_boundary: Vec<usize>,
    /// Certified solver scratch: `mate[i] == i` means `i` goes to the
    /// boundary.
    mate: Vec<usize>,
    component: Vec<usize>,
    memo: Vec<DpEntry>,
    /// Blossom reduction scratch.
    edges: Vec<(usize, usize, i64)>,
    blossom: MatchingContext,
}

impl DefectMatching {
    /// Zeroes the cost matrices for `k` defects and clears the solution.
    fn stage(&mut self, k: usize) {
        self.k = k;
        self.pairs.clear();
        self.to_boundary.clear();
        self.scaled.clear();
        self.scaled.resize(k * k, 0);
        self.scaled_boundary.clear();
        self.scaled_boundary.resize(k, 0);
    }

    fn pair_cost(&self, i: usize, j: usize) -> i64 {
        self.scaled[i.min(j) * self.k + i.max(j)]
    }

    /// Cost of sending both `i` and `j` to the boundary.
    fn boundary_cost(&self, i: usize, j: usize) -> i64 {
        self.scaled_boundary[i].saturating_add(self.scaled_boundary[j])
    }

    /// Solves the staged problem: the certified solver when the optimum is
    /// unique, the blossom otherwise.
    fn solve(&mut self) {
        if !self.solve_certified() {
            self.solve_blossom();
        }
    }

    /// Exact matching that also proves its optimum unique, so the blossom
    /// (or any exact matcher) would return the same solution. Returns
    /// `false`, leaving the solution empty, when it cannot prove that.
    ///
    /// A pair costing at least its two boundary matches is dropped: with
    /// `>` it is never optimal, with `==` (a twin) it ties with them. The
    /// remaining pairs split the defects into components, each solved by a
    /// subset DP that counts its optimal solutions.
    fn solve_certified(&mut self) -> bool {
        const UNSEEN: usize = usize::MAX;
        let k = self.k;
        self.mate.clear();
        self.mate.resize(k, UNSEEN);
        for root in 0..k {
            if self.mate[root] != UNSEEN {
                continue;
            }
            // Breadth-first over kept pairs; every defect starts at the
            // boundary until its component's optimum says otherwise.
            self.component.clear();
            self.component.push(root);
            self.mate[root] = root;
            let mut head = 0;
            while head < self.component.len() {
                let u = self.component[head];
                head += 1;
                for v in 0..k {
                    if self.mate[v] == UNSEEN && self.pair_cost(u, v) < self.boundary_cost(u, v) {
                        if self.component.len() == MAX_COMPONENT {
                            return false;
                        }
                        self.mate[v] = v;
                        self.component.push(v);
                    }
                }
            }
            match *self.component.as_slice() {
                // A lone defect is already at the boundary, its only option.
                [_] => {}
                // A kept pair is strictly cheaper than its two boundary
                // matches, the only other option.
                [u, v] => {
                    self.mate[u] = v;
                    self.mate[v] = u;
                }
                _ => {
                    if !self.solve_component() {
                        return false;
                    }
                }
            }
        }
        // Two boundary-matched twins could pair at the same cost.
        for i in 0..k {
            for j in (i + 1)..k {
                if self.mate[i] == i
                    && self.mate[j] == j
                    && self.pair_cost(i, j) == self.boundary_cost(i, j)
                {
                    return false;
                }
            }
        }
        for (i, &j) in self.mate.iter().enumerate() {
            if j == i {
                self.to_boundary.push(i);
            } else if i < j {
                self.pairs.push((i, j));
            }
        }
        true
    }

    /// Runs the subset DP over `self.component` and writes its optimum into
    /// `mate`. Returns whether that optimum is unique.
    fn solve_component(&mut self) -> bool {
        let members = &self.component;
        let m = members.len();
        let mut kept = [0u16; MAX_COMPONENT];
        for a in 0..m {
            for b in (a + 1)..m {
                let (u, v) = (members[a], members[b]);
                if self.pair_cost(u, v) < self.boundary_cost(u, v) {
                    kept[a] |= 1 << b;
                    kept[b] |= 1 << a;
                }
            }
        }
        let full = (1usize << m) - 1;
        let mut memo = std::mem::take(&mut self.memo);
        memo.clear();
        memo.resize(full + 1, DpEntry::UNSOLVED);
        memo[0] = DpEntry {
            cost: 0,
            count: 1,
            partner: DpEntry::BOUNDARY,
        };
        let dp = ComponentDp {
            problem: self,
            kept,
        };
        let unique = dp.best(full, &mut memo).count == 1;
        if unique {
            let mut set = full;
            while set != 0 {
                let a = set.trailing_zeros() as usize;
                let partner = memo[set].partner;
                set &= !(1 << a);
                if partner != DpEntry::BOUNDARY {
                    let b = usize::from(partner);
                    set &= !(1 << b);
                    let (u, v) = (self.component[a], self.component[b]);
                    self.mate[u] = v;
                    self.mate[v] = u;
                }
            }
        }
        self.memo = memo;
        unique
    }

    /// The blossom reduction: vertices 0..k are defects, k..2k their
    /// private boundary copies (the standard odd-parity reduction).
    fn solve_blossom(&mut self) {
        let k = self.k;
        let mut max_scaled: i64 = 0;
        for i in 0..k {
            for j in (i + 1)..k {
                max_scaled = max_scaled.max(self.scaled[i * k + j]);
            }
            max_scaled = max_scaled.max(self.scaled_boundary[i]);
        }
        let c = max_scaled + 1;
        self.edges.clear();
        for i in 0..k {
            for j in (i + 1)..k {
                self.edges.push((i, j, c - self.scaled[i * k + j]));
                // Boundary copies pair freely among themselves.
                self.edges.push((k + i, k + j, c));
            }
            self.edges.push((i, k + i, c - self.scaled_boundary[i]));
        }
        let mate = self.blossom.solve(&self.edges, true);
        for (i, &partner) in mate.iter().enumerate().take(k) {
            match partner {
                Some(j) if j < k => {
                    if i < j {
                        self.pairs.push((i, j));
                    }
                }
                Some(_) => self.to_boundary.push(i),
                None => unreachable!("perfect matching guaranteed"),
            }
        }
    }
}

/// Subset-DP state: the minimum cost of a set of defects, how many
/// solutions reach it (saturating at 2), and the lowest member's partner.
#[derive(Debug, Clone, Copy)]
struct DpEntry {
    cost: i64,
    count: u8,
    partner: u8,
}

impl DpEntry {
    const BOUNDARY: u8 = u8::MAX;
    const UNSOLVED: DpEntry = DpEntry {
        cost: 0,
        count: 0,
        partner: DpEntry::BOUNDARY,
    };
}

/// The subset DP over one pruned component, in local indices `0..m` into
/// `problem.component`; `kept[a]` is the bit set of the members `a` may
/// pair with.
struct ComponentDp<'a> {
    problem: &'a DefectMatching,
    kept: [u16; MAX_COMPONENT],
}

impl ComponentDp<'_> {
    /// Lowest-bit recursion: the lowest member of `set` either goes to the
    /// boundary or pairs with a kept neighbour in `set`. Costs saturate, so
    /// an overflow can only read as a tie and defer.
    fn best(&self, set: usize, memo: &mut [DpEntry]) -> DpEntry {
        if memo[set].count != 0 {
            return memo[set];
        }
        let members = &self.problem.component;
        let a = set.trailing_zeros() as usize;
        let u = members[a];
        let rest = set & !(1 << a);
        let sub = self.best(rest, memo);
        let mut out = DpEntry {
            cost: self.problem.scaled_boundary[u].saturating_add(sub.cost),
            count: sub.count,
            partner: DpEntry::BOUNDARY,
        };
        let mut neighbours = usize::from(self.kept[a]) & rest;
        while neighbours != 0 {
            let b = neighbours.trailing_zeros() as usize;
            neighbours &= neighbours - 1;
            let sub = self.best(rest & !(1 << b), memo);
            let cost = self
                .problem
                .pair_cost(u, members[b])
                .saturating_add(sub.cost);
            if cost < out.cost {
                out = DpEntry {
                    cost,
                    count: sub.count,
                    partner: b as u8,
                };
            } else if cost == out.cost {
                out.count = (out.count + sub.count).min(2);
            }
        }
        memo[set] = out;
        out
    }
}

/// Scales a defect's distance to the boundary.
///
/// # Panics
///
/// Panics if the defect is cut off from the boundary: it then has no
/// perfect matching of its own, and the infinite cost would overflow both
/// solvers.
fn scale_boundary(distance: f64, node: usize) -> i64 {
    assert!(
        distance.is_finite(),
        "defect on node {node} cut off from the boundary cannot be matched"
    );
    scale_weight(distance)
}

/// Stateful MWPM decoder instance: one per worker thread, built through
/// [`MwpmFactory`]. Owns the matching scratch and the defect-graph staging
/// buffers, all reused across shots.
#[derive(Debug)]
pub struct MwpmBatchDecoder<'g> {
    graph: &'g DecodingGraph,
    paths: Arc<ShortestPaths>,
    matching: DefectMatching,
    overlay: WeightOverlay,
    eff_dist: Vec<f64>,
    eff_par: Vec<bool>,
    dijkstra: DijkstraScratch,
}

impl<'g> MwpmBatchDecoder<'g> {
    /// Builds a standalone instance, computing the shortest-path table
    /// itself. For multi-threaded decoding use [`MwpmFactory`], which pays
    /// this cost once per graph.
    pub fn new(graph: &'g DecodingGraph) -> MwpmBatchDecoder<'g> {
        MwpmBatchDecoder::with_paths(graph, Arc::new(ShortestPaths::compute(graph)))
    }

    /// Builds an instance over a precomputed (shared) shortest-path table.
    ///
    /// # Panics
    ///
    /// Panics if `paths` was computed for a different-sized graph.
    pub fn with_paths(graph: &'g DecodingGraph, paths: Arc<ShortestPaths>) -> MwpmBatchDecoder<'g> {
        assert_eq!(
            paths.num_nodes_with_boundary(),
            graph.num_nodes() + 1,
            "shortest-path table does not match the decoding graph"
        );
        MwpmBatchDecoder {
            graph,
            paths,
            matching: DefectMatching::default(),
            overlay: WeightOverlay::new(),
            eff_dist: Vec::new(),
            eff_par: Vec::new(),
            dijkstra: DijkstraScratch::new(),
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &DecodingGraph {
        self.graph
    }

    /// The shared shortest-path table.
    pub fn paths(&self) -> &Arc<ShortestPaths> {
        &self.paths
    }

    /// Stages the defects' shortest-path costs into `self.matching`.
    fn stage_paths(&mut self, defects: &[usize]) {
        let k = defects.len();
        let boundary = self.graph.boundary();
        let m = &mut self.matching;
        m.stage(k);
        for i in 0..k {
            for j in (i + 1)..k {
                m.scaled[i * k + j] = scale_weight(self.paths.distance(defects[i], defects[j]));
            }
            m.scaled_boundary[i] =
                scale_boundary(self.paths.distance(defects[i], boundary), defects[i]);
        }
    }

    /// Like [`MwpmBatchDecoder::stage_paths`], but over the overlaid metric
    /// previously staged into `self.eff_dist` (erasure decoding).
    fn stage_overlay(&mut self, defects: &[usize]) {
        let k = defects.len();
        let t = k + 1;
        let m = &mut self.matching;
        m.stage(k);
        for (i, &node) in defects.iter().enumerate() {
            for j in (i + 1)..k {
                m.scaled[i * k + j] = scale_weight(self.eff_dist[i * t + j]);
            }
            m.scaled_boundary[i] = scale_boundary(self.eff_dist[i * t + k], node);
        }
    }

    /// Flip and weight of the solved matching along shortest paths, pairs
    /// first, each path's edges appended to `correction` when given.
    fn path_outcome(
        &self,
        defects: &[usize],
        mut correction: Option<&mut Vec<usize>>,
    ) -> (bool, f64) {
        let boundary = self.graph.boundary();
        let pairs = self
            .matching
            .pairs
            .iter()
            .map(|&(i, j)| (defects[i], defects[j]));
        let singles = self
            .matching
            .to_boundary
            .iter()
            .map(|&i| (defects[i], boundary));
        let mut flip = false;
        let mut weight = 0.0;
        for (u, v) in pairs.chain(singles) {
            flip ^= self.paths.observable_parity(u, v);
            weight += self.paths.distance(u, v);
            if let Some(c) = correction.as_deref_mut() {
                self.paths.path_edges(self.graph, u, v, c);
            }
        }
        (flip, weight)
    }
}

impl MwpmBatchDecoder<'_> {
    /// Shared decode core. With `correction`, the matched paths are also
    /// emitted as edge indices; the returned flip is then computed from those
    /// edges, which is bit-identical to the pairwise parity on the
    /// erasure-free path (the walk is parity-consistent, see
    /// [`ShortestPaths::path_edges`]) and self-consistent under erasures.
    fn decode_inner(
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
        let boundary = self.graph.boundary();
        let mut flip = false;
        let mut weight = 0.0;
        if syndrome.erasures.is_empty() {
            self.stage_paths(defects);
            self.matching.solve();
            (flip, weight) = self.path_outcome(defects, correction);
        } else {
            // Erasure decoding: overlay the flagged edges (weight ~0), match
            // over the reweighted metric, then restore.
            self.overlay.apply(self.graph, &syndrome.erasures);
            self.overlay.effective_metrics(
                &self.paths,
                defects,
                boundary,
                &mut self.eff_dist,
                &mut self.eff_par,
            );
            self.stage_overlay(defects);
            self.matching.solve();
            let k = defects.len();
            let t = k + 1;
            for &(i, j) in &self.matching.pairs {
                weight += self.eff_dist[i * t + j];
                flip ^= if let Some(c) = correction.as_deref_mut() {
                    self.dijkstra.effective_path_edges(
                        self.graph,
                        &self.overlay,
                        defects[i],
                        defects[j],
                        c,
                    )
                } else {
                    self.eff_par[i * t + j]
                };
            }
            for &i in &self.matching.to_boundary {
                weight += self.eff_dist[i * t + k];
                flip ^= if let Some(c) = correction.as_deref_mut() {
                    self.dijkstra.effective_path_edges(
                        self.graph,
                        &self.overlay,
                        defects[i],
                        boundary,
                        c,
                    )
                } else {
                    self.eff_par[i * t + k]
                };
            }
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

impl SyndromeDecoder for MwpmBatchDecoder<'_> {
    fn decode_syndrome(&mut self, syndrome: &Syndrome) -> DecodeOutcome {
        self.decode_inner(syndrome, None)
    }

    fn decode_with_correction(
        &mut self,
        syndrome: &Syndrome,
        correction: &mut Vec<usize>,
    ) -> DecodeOutcome {
        self.decode_inner(syndrome, Some(correction))
    }

    /// 1–2 erasure-free defects, decided by the same certified solver the
    /// full path tries first, on the same staged costs: its answer is the
    /// full path's whenever it certifies. Otherwise (two defects whose pair
    /// costs exactly their two boundary matches) the optimum is a tie the
    /// blossom must break: defer (`None`).
    fn decode_tier1(
        &mut self,
        syndrome: &Syndrome,
        mut correction: Option<&mut Vec<usize>>,
    ) -> Option<DecodeOutcome> {
        let defects = &syndrome.defects;
        let k = defects.len();
        if !(1..=2).contains(&k) || !syndrome.erasures.is_empty() {
            return None;
        }
        let start = Instant::now();
        // Decide before touching the correction so a deferral leaves the
        // caller's state exactly as the full path expects it.
        self.stage_paths(defects);
        if !self.matching.solve_certified() {
            return None;
        }
        if let Some(c) = correction.as_deref_mut() {
            c.clear();
        }
        let (flip, weight) = self.path_outcome(defects, correction);
        Some(DecodeOutcome {
            flip,
            weight,
            defects: k,
            nanos: start.elapsed().as_nanos() as u64,
        })
    }

    fn name(&self) -> &'static str {
        "mwpm"
    }
}

/// Factory for [`MwpmBatchDecoder`]s: computes the all-pairs shortest-path
/// table once and shares it (via [`Arc`]) with every instance it builds.
///
/// # Example
///
/// ```
/// use qec_core::NoiseParams;
/// use qec_core::circuit::DetectorBasis;
/// use qec_decoder::{build_dem, DecoderFactory, DecodingGraph, MwpmFactory, Syndrome};
/// use surface_code::{MemoryExperiment, RotatedCode};
///
/// let exp = MemoryExperiment::new(RotatedCode::new(3), NoiseParams::standard(1e-3), 2);
/// let detectors = exp.detectors();
/// let dem = build_dem(&exp.base_circuit(), &detectors, &exp.observable_keys());
/// let graph = DecodingGraph::from_dem(&dem, &detectors, DetectorBasis::Z);
/// let factory = MwpmFactory::new(&graph);
/// let mut decoder = factory.build();
/// assert!(!decoder.decode_syndrome(&Syndrome::default()).flip);
/// ```
#[derive(Debug)]
pub struct MwpmFactory<'g> {
    graph: &'g DecodingGraph,
    paths: Arc<ShortestPaths>,
}

impl<'g> MwpmFactory<'g> {
    /// Computes the shortest-path table for `graph` (the expensive step, paid
    /// once).
    pub fn new(graph: &'g DecodingGraph) -> MwpmFactory<'g> {
        MwpmFactory {
            graph,
            paths: Arc::new(ShortestPaths::compute(graph)),
        }
    }

    /// The shared shortest-path table.
    pub fn paths(&self) -> &Arc<ShortestPaths> {
        &self.paths
    }
}

impl DecoderFactory for MwpmFactory<'_> {
    fn build(&self) -> Box<dyn SyndromeDecoder + '_> {
        Box::new(MwpmBatchDecoder::with_paths(
            self.graph,
            Arc::clone(&self.paths),
        ))
    }

    fn name(&self) -> &'static str {
        "mwpm"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dem::build_dem;
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
        let factory = MwpmFactory::new(&graph);
        let mut decoder = factory.build();
        let outcome = decoder.decode_syndrome(&Syndrome::default());
        assert!(!outcome.flip);
        assert_eq!(outcome.weight, 0.0);
        assert_eq!(outcome.defects, 0);
    }

    #[test]
    fn factory_shares_one_paths_table() {
        let (graph, _) = setup(3, 2);
        let factory = MwpmFactory::new(&graph);
        let a = MwpmBatchDecoder::with_paths(&graph, Arc::clone(factory.paths()));
        let b = MwpmBatchDecoder::with_paths(&graph, Arc::clone(factory.paths()));
        assert!(Arc::ptr_eq(a.paths(), b.paths()));
    }

    #[test]
    fn shortest_paths_are_symmetric() {
        let (graph, _) = setup(3, 3);
        let paths = ShortestPaths::compute(&graph);
        let n = graph.num_nodes();
        for u in (0..n).step_by(3) {
            for v in (0..n).step_by(5) {
                assert!((paths.distance(u, v) - paths.distance(v, u)).abs() < 1e-9);
                assert_eq!(paths.observable_parity(u, v), paths.observable_parity(v, u));
            }
        }
    }

    #[test]
    fn every_node_reaches_boundary() {
        let (graph, _) = setup(5, 3);
        let paths = ShortestPaths::compute(&graph);
        let b = graph.boundary();
        for u in 0..graph.num_nodes() {
            assert!(paths.distance(u, b).is_finite(), "node {u} cut off");
        }
    }

    /// Every single fault mechanism must be corrected without a logical
    /// error: decoding its own defect signature must predict exactly its
    /// observable flip. This is the statement that the decoder preserves the
    /// code distance.
    #[test]
    fn single_faults_are_always_corrected() {
        for (d, rounds) in [(3usize, 3usize), (5, 4)] {
            let (graph, dem) = setup(d, rounds);
            let mut decoder = MwpmBatchDecoder::new(&graph);
            let exp =
                MemoryExperiment::new(RotatedCode::new(d), NoiseParams::standard(1e-3), rounds);
            let detectors = exp.detectors();
            let mut checked = 0;
            let mut syndrome = Syndrome::default();
            for mech in &dem.mechanisms {
                syndrome.clear();
                syndrome.defects.extend(
                    mech.detectors
                        .iter()
                        .filter_map(|&det| graph.node_of_detector(det)),
                );
                // Only mechanisms whose Z-projection is elementary are direct
                // graph edges; all single faults in a distance-d code satisfy
                // this (hyperedges decompose).
                if syndrome.is_empty() {
                    assert!(
                        !mech.flips_observable,
                        "undetectable logical flip at d={d}: {mech:?}"
                    );
                    continue;
                }
                let predicted = decoder.decode_syndrome(&syndrome).flip;
                assert_eq!(
                    predicted,
                    mech.flips_observable,
                    "single fault mis-corrected at d={d}: {mech:?} (dets {:?})",
                    mech.detectors
                        .iter()
                        .map(|&i| (&detectors[i].basis, detectors[i].round))
                        .collect::<Vec<_>>()
                );
                checked += 1;
            }
            assert!(checked > 50, "too few mechanisms checked ({checked})");
        }
    }

    #[test]
    fn matched_pairs_partition_defects() {
        let (graph, dem) = setup(3, 3);
        let mut decoder = MwpmBatchDecoder::new(&graph);
        // Combine a few mechanisms into a composite syndrome.
        let mut events = vec![false; graph.num_nodes()];
        for mech in dem.mechanisms.iter().take(6) {
            for &det in &mech.detectors {
                if let Some(n) = graph.node_of_detector(det) {
                    events[n] ^= true;
                }
            }
        }
        let defects: Vec<usize> = (0..graph.num_nodes()).filter(|&n| events[n]).collect();
        decoder.stage_paths(&defects);
        decoder.matching.solve();
        let (pairs, to_boundary) = (
            decoder.matching.pairs.clone(),
            decoder.matching.to_boundary.clone(),
        );
        let mut seen = vec![false; defects.len()];
        for (i, j) in &pairs {
            assert!(!seen[*i] && !seen[*j]);
            seen[*i] = true;
            seen[*j] = true;
        }
        for i in &to_boundary {
            assert!(!seen[*i]);
            seen[*i] = true;
        }
        assert!(seen.iter().all(|&s| s), "defect left unmatched");
    }

    #[test]
    fn outcome_weight_tracks_matched_paths() {
        let (graph, dem) = setup(3, 3);
        let mut decoder = MwpmBatchDecoder::new(&graph);
        // Any non-empty syndrome must be corrected with positive weight.
        let mech = dem
            .mechanisms
            .iter()
            .find(|m| {
                m.detectors
                    .iter()
                    .any(|&d| graph.node_of_detector(d).is_some())
            })
            .expect("some Z-visible mechanism");
        let defects: Vec<usize> = mech
            .detectors
            .iter()
            .filter_map(|&det| graph.node_of_detector(det))
            .collect();
        let outcome = decoder.decode_syndrome(&Syndrome::new(defects.clone()));
        assert_eq!(outcome.defects, defects.len());
        assert!(outcome.weight > 0.0);
    }

    /// A defect on a graph without edges cannot reach the boundary.
    fn cut_off_decoder_graph() -> DecodingGraph {
        let exp = MemoryExperiment::new(RotatedCode::new(3), NoiseParams::standard(0.0), 2);
        let detectors = exp.detectors();
        let dem = build_dem(&exp.base_circuit(), &detectors, &exp.observable_keys());
        let graph = DecodingGraph::from_dem(&dem, &detectors, DetectorBasis::Z);
        assert_eq!((graph.num_nodes(), graph.edges().len()), (12, 0));
        graph
    }

    #[test]
    #[should_panic(expected = "defect on node 0 cut off from the boundary cannot be matched")]
    fn cut_off_defect_panics_on_the_full_path() {
        let graph = cut_off_decoder_graph();
        MwpmBatchDecoder::new(&graph).decode_syndrome(&Syndrome::new(vec![0]));
    }

    #[test]
    #[should_panic(expected = "defect on node 0 cut off from the boundary cannot be matched")]
    fn cut_off_defect_panics_on_tier1() {
        let graph = cut_off_decoder_graph();
        MwpmBatchDecoder::new(&graph).decode_tier1(&Syndrome::new(vec![0]), None);
    }

    /// Stages a symmetric problem: `pair(i, j)` for `i < j`, `boundary(i)`.
    fn staged(
        k: usize,
        mut pair: impl FnMut(usize, usize) -> i64,
        mut boundary: impl FnMut(usize) -> i64,
    ) -> DefectMatching {
        let mut m = DefectMatching::default();
        m.stage(k);
        for i in 0..k {
            for j in (i + 1)..k {
                m.scaled[i * k + j] = pair(i, j);
            }
            m.scaled_boundary[i] = boundary(i);
        }
        m
    }

    type Solution = (Vec<(usize, usize)>, Vec<usize>);

    /// The certified solution, or `None` when the solver defers.
    fn certified(m: &mut DefectMatching) -> Option<Solution> {
        m.pairs.clear();
        m.to_boundary.clear();
        m.solve_certified()
            .then(|| (m.pairs.clone(), m.to_boundary.clone()))
    }

    fn blossom(m: &mut DefectMatching) -> Solution {
        m.pairs.clear();
        m.to_boundary.clear();
        m.solve_blossom();
        (m.pairs.clone(), m.to_boundary.clone())
    }

    /// Number of minimum-cost involutions (pairs or boundary) by exhaustion.
    fn optimal_count(m: &DefectMatching) -> usize {
        fn rec(m: &DefectMatching, free: u32, cost: i64, best: &mut (i64, usize)) {
            if free == 0 {
                if cost < best.0 {
                    *best = (cost, 1);
                } else if cost == best.0 {
                    best.1 += 1;
                }
                return;
            }
            let i = free.trailing_zeros() as usize;
            let rest = free & !(1 << i);
            rec(m, rest, cost + m.scaled_boundary[i], best);
            for j in (i + 1)..m.k {
                if rest & (1 << j) != 0 {
                    rec(m, rest & !(1 << j), cost + m.pair_cost(i, j), best);
                }
            }
        }
        let mut best = (i64::MAX, 0);
        rec(m, (1 << m.k) - 1, 0, &mut best);
        best.1
    }

    /// Random staged problems with tiny integer costs, so ties and forced
    /// twins are common: whenever the certified solver answers, it returns
    /// the blossom reduction's solution in the same order, and for k ≤ 10 it
    /// answers exactly when the optimum is unique.
    #[test]
    fn certified_solver_agrees_with_the_blossom() {
        let mut rng = qec_core::Rng::new(0xCE27_1F1E);
        let (mut answered, mut deferred) = (0, 0);
        for case in 0..3000 {
            let k = 1 + rng.below(12) as usize;
            let boundary: Vec<i64> = (0..k).map(|_| 1 + rng.below(5) as i64).collect();
            let twin_rate = rng.below(4) as f64 / 10.0;
            let mut m = staged(
                k,
                |i, j| {
                    if rng.bernoulli(twin_rate) {
                        boundary[i] + boundary[j]
                    } else {
                        rng.below(9) as i64
                    }
                },
                |i| boundary[i],
            );
            let reference = blossom(&mut m);
            match certified(&mut m) {
                Some(solution) => {
                    answered += 1;
                    assert_eq!(solution, reference, "case {case}: k={k} {:?}", m.scaled);
                    if k <= MAX_COMPONENT {
                        assert_eq!(optimal_count(&m), 1, "case {case}: certified a tie");
                    }
                }
                None => {
                    deferred += 1;
                    if k <= MAX_COMPONENT {
                        assert!(
                            optimal_count(&m) > 1,
                            "case {case}: deferred a unique optimum"
                        );
                    }
                }
            }
        }
        assert!(
            answered > 500 && deferred > 500,
            "{answered} answered, {deferred} deferred"
        );
    }

    #[test]
    fn certified_solver_defers_on_a_twin_tie() {
        // Pairing costs exactly the two boundary matches.
        let mut m = staged(2, |_, _| 7, |i| [3, 4][i]);
        assert_eq!(certified(&mut m), None);
        // One unit cheaper, the pair is the unique optimum.
        let mut m = staged(2, |_, _| 6, |i| [3, 4][i]);
        assert_eq!(certified(&mut m), Some((vec![(0, 1)], vec![])));
        assert_eq!(blossom(&mut m), (vec![(0, 1)], vec![]));
    }

    #[test]
    fn certified_solver_defers_on_a_symmetric_four_defect_tie() {
        // Three perfect matchings of K4, each costing 2.
        let mut m = staged(4, |_, _| 1, |_| 10);
        assert_eq!(certified(&mut m), None);
        // Make (0,1)+(2,3) strictly cheapest.
        let mut m = staged(4, |i, j| if (i, j) == (0, 1) { 0 } else { 1 }, |_| 10);
        assert_eq!(certified(&mut m), Some((vec![(0, 1), (2, 3)], vec![])));
    }

    #[test]
    fn certified_solver_defers_on_an_oversized_component() {
        // A chain whose neighbours pair cheaply: one component of k defects,
        // with a unique optimum (pairs (0,1), (2,3), …, the last defect of
        // an odd chain to the boundary).
        let chain = |k: usize| {
            staged(
                k,
                |i, j| if j == i + 1 { 1 + (i % 2) as i64 } else { 100 },
                |_| 10,
            )
        };
        let mut m = chain(MAX_COMPONENT + 1);
        assert_eq!(certified(&mut m), None);
        let expected = blossom(&mut m);
        assert_eq!(expected.0, vec![(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)]);
        assert_eq!(expected.1, vec![10]);
        // At the limit the same chain certifies.
        let mut m = chain(MAX_COMPONENT);
        let solution = certified(&mut m).expect("a 10-defect component certifies");
        assert_eq!(solution, blossom(&mut m));
    }

    /// Real syndromes: the decoder's own staged costs, certified or not,
    /// agree with the blossom wherever the certified solver answers.
    #[test]
    fn certified_solver_agrees_on_decoder_syndromes() {
        let (graph, dem) = setup(5, 5);
        let mut decoder = MwpmBatchDecoder::new(&graph);
        let mut rng = qec_core::Rng::new(77);
        let mut answered = 0;
        for _ in 0..400 {
            let mut events = vec![false; graph.num_nodes()];
            for _ in 0..1 + rng.below(6) {
                let mech = &dem.mechanisms[rng.below(dem.mechanisms.len() as u64) as usize];
                for &det in &mech.detectors {
                    if let Some(node) = graph.node_of_detector(det) {
                        events[node] ^= true;
                    }
                }
            }
            let defects: Vec<usize> = (0..graph.num_nodes()).filter(|&n| events[n]).collect();
            decoder.stage_paths(&defects);
            let reference = blossom(&mut decoder.matching);
            if let Some(solution) = certified(&mut decoder.matching) {
                answered += 1;
                assert_eq!(solution, reference, "defects {defects:?}");
            }
        }
        assert!(answered > 200, "only {answered} of 400 certified");
    }
}
