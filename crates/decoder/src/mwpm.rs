//! Minimum-Weight Perfect Matching decoder.
//!
//! The paper's gold-standard decoder (§2.2): fired detectors (defects) are
//! paired up — or matched to the lattice boundary — along minimum-weight
//! paths of the decoding graph, and the correction's effect on the logical
//! observable is the XOR of the observable parities of those paths.
//!
//! Implementation: all-pairs shortest paths (Dijkstra per node, tracking
//! observable parity along the shortest path), then exact blossom matching on
//! the defect graph with one virtual boundary copy per defect (the standard
//! reduction that lets an odd number of defects terminate on the boundary).
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

/// Stateful MWPM decoder instance: one per worker thread, built through
/// [`MwpmFactory`]. Owns the blossom matching scratch and the defect-graph
/// staging buffers, all reused across shots.
#[derive(Debug)]
pub struct MwpmBatchDecoder<'g> {
    graph: &'g DecodingGraph,
    paths: Arc<ShortestPaths>,
    matching: MatchingContext,
    edges: Vec<(usize, usize, i64)>,
    scaled: Vec<i64>,
    scaled_boundary: Vec<i64>,
    pairs: Vec<(usize, usize)>,
    to_boundary: Vec<usize>,
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
            matching: MatchingContext::new(),
            edges: Vec::new(),
            scaled: Vec::new(),
            scaled_boundary: Vec::new(),
            pairs: Vec::new(),
            to_boundary: Vec::new(),
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

    /// Pairs up defects into `self.pairs` (matched defect pairs) and
    /// `self.to_boundary` (boundary-matched defects), as indices into
    /// `defects`. All staging buffers are reused.
    fn match_defects_into(&mut self, defects: &[usize]) {
        self.pairs.clear();
        self.to_boundary.clear();
        let k = defects.len();
        if k == 0 {
            return;
        }
        let boundary = self.graph.boundary();
        self.scaled.clear();
        self.scaled.resize(k * k, 0);
        self.scaled_boundary.clear();
        self.scaled_boundary.resize(k, 0);
        for i in 0..k {
            for j in (i + 1)..k {
                let d = self.paths.distance(defects[i], defects[j]);
                self.scaled[i * k + j] = scale_weight(d);
            }
            let d = self.paths.distance(defects[i], boundary);
            self.scaled_boundary[i] = scale_weight(d);
        }
        self.solve_staged(k);
    }

    /// Like [`MwpmBatchDecoder::match_defects_into`], but over the overlaid
    /// metric previously staged into `self.eff_dist` (erasure decoding).
    fn match_defects_from_matrix(&mut self, k: usize) {
        self.pairs.clear();
        self.to_boundary.clear();
        if k == 0 {
            return;
        }
        let t = k + 1;
        self.scaled.clear();
        self.scaled.resize(k * k, 0);
        self.scaled_boundary.clear();
        self.scaled_boundary.resize(k, 0);
        for i in 0..k {
            for j in (i + 1)..k {
                self.scaled[i * k + j] = scale_weight(self.eff_dist[i * t + j]);
            }
            self.scaled_boundary[i] = scale_weight(self.eff_dist[i * t + k]);
        }
        self.solve_staged(k);
    }

    /// Runs blossom matching over the staged `scaled`/`scaled_boundary`
    /// integer weights. Vertices 0..k are defects, k..2k their private
    /// boundary copies (the standard odd-parity reduction).
    fn solve_staged(&mut self, k: usize) {
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
        let mate = self.matching.solve(&self.edges, true);
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
            self.match_defects_into(defects);
            for &(i, j) in &self.pairs {
                flip ^= self.paths.observable_parity(defects[i], defects[j]);
                weight += self.paths.distance(defects[i], defects[j]);
                if let Some(c) = correction.as_deref_mut() {
                    self.paths.path_edges(self.graph, defects[i], defects[j], c);
                }
            }
            for &i in &self.to_boundary {
                flip ^= self.paths.observable_parity(defects[i], boundary);
                weight += self.paths.distance(defects[i], boundary);
                if let Some(c) = correction.as_deref_mut() {
                    self.paths.path_edges(self.graph, defects[i], boundary, c);
                }
            }
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
            let k = defects.len();
            self.match_defects_from_matrix(k);
            let t = k + 1;
            for &(i, j) in &self.pairs {
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
            for &i in &self.to_boundary {
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

    /// Closed form for 1–2 erasure-free defects. One defect always matches
    /// to the boundary (the blossom's only perfect matching); two defects
    /// pair up or both go to the boundary by the same *scaled* integer
    /// comparison `MwpmBatchDecoder::match_defects_into` stages, so the
    /// decision is bit-identical. On a scaled tie the optimal matching is
    /// not unique and the blossom's tie-break must stand: defer (`None`).
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
        let boundary = self.graph.boundary();
        // Decide before touching the correction so a deferral leaves the
        // caller's state exactly as the full path expects it.
        let pair = if k == 2 {
            let s01 = scale_weight(self.paths.distance(defects[0], defects[1]));
            let sb = scale_weight(self.paths.distance(defects[0], boundary))
                + scale_weight(self.paths.distance(defects[1], boundary));
            if s01 == sb {
                return None;
            }
            s01 < sb
        } else {
            false
        };
        if let Some(c) = correction.as_deref_mut() {
            c.clear();
        }
        let start = Instant::now();
        let mut flip = false;
        let mut weight = 0.0;
        if pair {
            flip ^= self.paths.observable_parity(defects[0], defects[1]);
            weight += self.paths.distance(defects[0], defects[1]);
            if let Some(c) = correction.as_deref_mut() {
                self.paths.path_edges(self.graph, defects[0], defects[1], c);
            }
        } else {
            for &u in defects {
                flip ^= self.paths.observable_parity(u, boundary);
                weight += self.paths.distance(u, boundary);
                if let Some(c) = correction.as_deref_mut() {
                    self.paths.path_edges(self.graph, u, boundary, c);
                }
            }
        }
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
        decoder.match_defects_into(&defects);
        let (pairs, to_boundary) = (decoder.pairs.clone(), decoder.to_boundary.clone());
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
}
