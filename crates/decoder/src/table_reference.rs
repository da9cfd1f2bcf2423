//! The straightforward builders of the decode tables, and the tests that
//! hold the library's fast ones to them.
//!
//! [`build_dem`] walks the circuit cloning a signature for every gate,
//! measurement and record, and merges mechanisms in a map keyed by owned
//! detector lists. [`graph_from_dem`] merges edges in a default-hashed map
//! keyed by node pairs and keeps one edge list per mechanism. [`dijkstra`]
//! runs one source over the graph's own adjacency with fresh buffers. The
//! library's [`crate::build_dem`] (reused buffers, borrowed lookups),
//! [`DecodingGraph::from_dem`] (edge slots, a CSR provenance map) and
//! [`ShortestPaths::compute`] (a packed adjacency, row-parallel) must
//! reproduce them bit for bit: every mechanism's detectors, observable bit,
//! probability bits and sources, every edge's endpoints, probability and
//! weight bits and observable bit, every mechanism's edges, and every table
//! entry's distance bits and parity, for any row split. [`scan_walk`]
//! finds each step of a shortest-path walk by scanning the incident edges;
//! [`ShortestPaths::path_edges`] reads the step the table build stored and
//! must emit the same edges in the same order.

use crate::dem::{combine_probability, DetectorErrorModel, ErrorMechanism};
use crate::mwpm::ShortestPaths;
use crate::weight::snap_weight;
use crate::window::{DecoderKind, WindowGraph, WindowPlan};
use crate::{DecodingGraph, GraphEdge};
use qec_core::circuit::DetectorBasis;
use qec_core::{Circuit, DetectorInfo, MeasKey, NoiseParams, Op, Rng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use surface_code::{MemoryBasis, MemoryExperiment, RotatedCode};

/// The effect of a single Pauli error at a circuit position: which detectors
/// flip and whether the observable flips. Detector ids stay sorted.
#[derive(Debug, Clone, Default, PartialEq)]
struct Signature {
    dets: Vec<u32>,
    obs: bool,
}

impl Signature {
    fn clear(&mut self) {
        self.dets.clear();
        self.obs = false;
    }

    fn is_empty(&self) -> bool {
        self.dets.is_empty() && !self.obs
    }

    /// Symmetric difference (sorted-merge XOR) plus observable XOR.
    fn xor_with(&mut self, other: &Signature) {
        if other.dets.is_empty() {
            self.obs ^= other.obs;
            return;
        }
        let mut out = Vec::with_capacity(self.dets.len() + other.dets.len());
        let (a, b) = (&self.dets, &other.dets);
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => {
                    out.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        self.dets = out;
        self.obs ^= other.obs;
    }

    fn xor_of(a: &Signature, b: &Signature) -> Signature {
        let mut out = a.clone();
        out.xor_with(b);
        out
    }
}

/// The detector error model, built with a freshly cloned signature for
/// every propagation step and record.
pub(crate) fn build_dem(
    circuit: &Circuit,
    detectors: &[DetectorInfo],
    observable: &[MeasKey],
) -> DetectorErrorModel {
    let num_keys = circuit.num_keys();
    // Per-key signature: the detectors containing the key, plus observable
    // membership.
    let mut key_sig: Vec<Signature> = vec![Signature::default(); num_keys];
    for (idx, det) in detectors.iter().enumerate() {
        for &k in &det.keys {
            assert!(k < num_keys, "detector references unmeasured key {k}");
            key_sig[k].dets.push(idx as u32);
        }
    }
    for sig in &mut key_sig {
        sig.dets.sort_unstable();
    }
    for &k in observable {
        assert!(k < num_keys, "observable references unmeasured key {k}");
        key_sig[k].obs = true;
    }

    let nq = circuit.num_qubits();
    let mut sig_x: Vec<Signature> = vec![Signature::default(); nq];
    let mut sig_z: Vec<Signature> = vec![Signature::default(); nq];
    let mut merged: HashMap<(Vec<u32>, bool), (f64, Vec<u32>)> = HashMap::new();
    let mut record = |sig: Signature, p: f64, source: usize| {
        if sig.is_empty() || p <= 0.0 {
            return;
        }
        let entry = merged
            .entry((sig.dets, sig.obs))
            .or_insert((0.0, Vec::new()));
        entry.0 = combine_probability(entry.0, p);
        entry.1.push(source as u32);
    };

    for (op_idx, op) in circuit.ops().iter().enumerate().rev() {
        match *op {
            Op::Measure { qubit, key } => {
                // An X error before MZ flips the outcome (and persists, which
                // the signature already accounts for via later ops).
                let ks = key_sig[key].clone();
                sig_x[qubit].xor_with(&ks);
            }
            Op::Reset(q) => {
                sig_x[q].clear();
                sig_z[q].clear();
            }
            Op::H(q) => std::mem::swap(&mut sig_x[q], &mut sig_z[q]),
            Op::Cnot { control, target } | Op::CnotNoTransport { control, target } => {
                // Forward: X_c → X_c X_t, so an X on c also acts as X on t.
                let t = sig_x[target].clone();
                sig_x[control].xor_with(&t);
                // Forward: Z_t → Z_t Z_c.
                let c = sig_z[control].clone();
                sig_z[target].xor_with(&c);
            }
            Op::Depolarize1 { qubit, p } => {
                if p > 0.0 {
                    let share = p / 3.0;
                    record(sig_x[qubit].clone(), share, op_idx);
                    record(sig_z[qubit].clone(), share, op_idx);
                    record(
                        Signature::xor_of(&sig_x[qubit], &sig_z[qubit]),
                        share,
                        op_idx,
                    );
                }
            }
            Op::XError { qubit, p } => {
                record(sig_x[qubit].clone(), p, op_idx);
            }
            Op::Depolarize2 { a, b, p } => {
                if p > 0.0 {
                    let share = p / 15.0;
                    let pa = [
                        Signature::default(),
                        sig_x[a].clone(),
                        Signature::xor_of(&sig_x[a], &sig_z[a]),
                        sig_z[a].clone(),
                    ];
                    let pb = [
                        Signature::default(),
                        sig_x[b].clone(),
                        Signature::xor_of(&sig_x[b], &sig_z[b]),
                        sig_z[b].clone(),
                    ];
                    for (i, sa) in pa.iter().enumerate() {
                        for (j, sb) in pb.iter().enumerate() {
                            if i == 0 && j == 0 {
                                continue;
                            }
                            record(Signature::xor_of(sa, sb), share, op_idx);
                        }
                    }
                }
            }
            // Leakage channels and layer markers carry no Pauli component.
            Op::LeakInject { .. } | Op::Seep { .. } | Op::LeakIswap { .. } | Op::Tick => {}
        }
    }

    let mut mechanisms: Vec<ErrorMechanism> = merged
        .into_iter()
        .map(
            |((dets, flips_observable), (probability, mut sources))| ErrorMechanism {
                detectors: dets.into_iter().map(|d| d as usize).collect(),
                flips_observable,
                probability,
                sources: {
                    sources.sort_unstable();
                    sources.dedup();
                    sources
                },
            },
        )
        .collect();
    mechanisms.sort_by(|a, b| {
        a.detectors
            .cmp(&b.detectors)
            .then(a.flips_observable.cmp(&b.flips_observable))
    });
    DetectorErrorModel {
        num_detectors: detectors.len(),
        mechanisms,
    }
}

fn ordered(a: usize, b: usize) -> (usize, usize) {
    (a.min(b), a.max(b))
}

fn merge_edge(
    map: &mut HashMap<(usize, usize), (f64, bool)>,
    key: (usize, usize),
    p: f64,
    obs: bool,
) {
    let entry = map.entry(key).or_insert((0.0, obs));
    entry.0 = combine_probability(entry.0, p);
    entry.1 = obs || entry.1;
}

/// Splits a >2-node mechanism into pairs, preferring existing elementary
/// edges whose observable parities XOR to `obs`.
fn decompose(
    nodes: &[usize],
    obs: bool,
    boundary: usize,
    edges: &HashMap<(usize, usize), (f64, bool)>,
) -> Vec<((usize, usize), bool)> {
    fn recurse(
        remaining: &[usize],
        edges: &HashMap<(usize, usize), (f64, bool)>,
        acc: &mut Vec<(usize, usize)>,
    ) -> bool {
        if remaining.is_empty() {
            return true;
        }
        let first = remaining[0];
        for &partner in &remaining[1..] {
            let key = ordered(first, partner);
            if edges.contains_key(&key) {
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
    if !recurse(nodes, edges, &mut acc) {
        acc.clear();
        let mut it = nodes.chunks_exact(2);
        for pair in &mut it {
            acc.push(ordered(pair[0], pair[1]));
        }
        if let [last] = it.remainder() {
            acc.push((*last, boundary));
        }
    }
    let mut out: Vec<((usize, usize), bool)> = acc.iter().map(|&k| (k, false)).collect();
    if obs {
        let idx = acc
            .iter()
            .position(|k| edges.get(k).map(|&(_, o)| o).unwrap_or(false))
            .unwrap_or(0);
        out[idx].1 = true;
    }
    out
}

/// The decoding graph's edges and per-mechanism edge lists for `basis`,
/// merged in a default-hashed map with one key list per mechanism.
fn graph_from_dem(
    dem: &DetectorErrorModel,
    detectors: &[DetectorInfo],
    basis: DetectorBasis,
) -> (Vec<GraphEdge>, Vec<Vec<usize>>) {
    let mut detector_to_node = vec![None; detectors.len()];
    let mut num_nodes = 0;
    for (idx, det) in detectors.iter().enumerate() {
        if det.basis == basis {
            detector_to_node[idx] = Some(num_nodes);
            num_nodes += 1;
        }
    }
    let boundary = num_nodes;
    let mut edge_map: HashMap<(usize, usize), (f64, bool)> = HashMap::new();
    let mut deferred: Vec<(usize, Vec<usize>, bool, f64)> = Vec::new();
    let mut mechanism_keys: Vec<Vec<(usize, usize)>> = vec![Vec::new(); dem.mechanisms.len()];
    for (mi, mech) in dem.mechanisms.iter().enumerate() {
        let nodes: Vec<usize> = mech
            .detectors
            .iter()
            .filter_map(|&d| detector_to_node[d])
            .collect();
        let key = match nodes.len() {
            0 => continue,
            1 => (nodes[0], boundary),
            2 => ordered(nodes[0], nodes[1]),
            _ => {
                deferred.push((mi, nodes, mech.flips_observable, mech.probability));
                continue;
            }
        };
        merge_edge(&mut edge_map, key, mech.probability, mech.flips_observable);
        mechanism_keys[mi].push(key);
    }
    for (mi, mut nodes, obs, p) in deferred {
        nodes.sort_unstable();
        for (key, part_obs) in decompose(&nodes, obs, boundary, &edge_map) {
            merge_edge(&mut edge_map, key, p, part_obs);
            mechanism_keys[mi].push(key);
        }
    }
    let mut edges: Vec<GraphEdge> = edge_map
        .into_iter()
        .map(|((a, b), (probability, flips_observable))| {
            let p = probability.clamp(1e-12, 0.5 - 1e-9);
            GraphEdge {
                a,
                b,
                probability,
                weight: snap_weight(((1.0 - p) / p).ln().max(1e-4)),
                flips_observable,
            }
        })
        .collect();
    edges.sort_by_key(|x| (x.a, x.b));
    let key_to_edge: HashMap<(usize, usize), usize> = edges
        .iter()
        .enumerate()
        .map(|(i, e)| ((e.a, e.b), i))
        .collect();
    let mechanism_edges = mechanism_keys
        .into_iter()
        .map(|keys| {
            let mut out: Vec<usize> = keys.into_iter().map(|key| key_to_edge[&key]).collect();
            out.sort_unstable();
            out.dedup();
            out
        })
        .collect();
    (edges, mechanism_edges)
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
        self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
    }
}

/// Distances and observable parities from `src` to every node.
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

/// Asserts the library's DEM of `circuit` equals the reference's, bit for
/// bit, and returns its mechanism count.
fn assert_dem_matches(
    circuit: &Circuit,
    detectors: &[DetectorInfo],
    obs: &[MeasKey],
    what: &str,
) -> usize {
    let want = build_dem(circuit, detectors, obs);
    let got = crate::build_dem(circuit, detectors, obs);
    assert_eq!(got.num_detectors, want.num_detectors, "{what}");
    assert_eq!(got.mechanisms.len(), want.mechanisms.len(), "{what}");
    for (i, (g, w)) in got.mechanisms.iter().zip(&want.mechanisms).enumerate() {
        assert_eq!(g.detectors, w.detectors, "{what}: mechanism {i}");
        assert_eq!(
            g.flips_observable, w.flips_observable,
            "{what}: mechanism {i}"
        );
        assert_eq!(
            g.probability.to_bits(),
            w.probability.to_bits(),
            "{what}: mechanism {i}"
        );
        assert_eq!(g.sources, w.sources, "{what}: mechanism {i}");
    }
    want.mechanisms.len()
}

#[test]
fn dem_matches_the_reference_on_memory_circuits() {
    for d in [3, 5, 7] {
        for basis in [MemoryBasis::Z, MemoryBasis::X] {
            for (name, noise) in [
                ("standard(1e-3)", NoiseParams::standard(1e-3)),
                ("without_leakage(2e-3)", NoiseParams::without_leakage(2e-3)),
            ] {
                let exp = MemoryExperiment::new_with_basis(RotatedCode::new(d), noise, d, basis);
                let mechanisms = assert_dem_matches(
                    &exp.base_circuit(),
                    &exp.detectors(),
                    &exp.observable_keys(),
                    &format!("d={d} {basis:?} {name}"),
                );
                assert!(mechanisms > 0);
            }
        }
    }
}

#[test]
fn dem_matches_the_reference_with_zero_probability_channels() {
    let exp = MemoryExperiment::new(RotatedCode::new(3), NoiseParams::standard(0.0), 3);
    let (detectors, obs) = (exp.detectors(), exp.observable_keys());
    assert_eq!(
        assert_dem_matches(&exp.base_circuit(), &detectors, &obs, "noiseless d=3"),
        0
    );

    // Every third noise site switched off, the rest at p = 1e-3.
    let exp = MemoryExperiment::new(RotatedCode::new(3), NoiseParams::standard(1e-3), 3);
    let base = exp.base_circuit();
    let mut circuit = Circuit::new(base.num_qubits());
    circuit.alloc_keys(base.num_keys());
    let mut site = 0;
    for &op in base.ops() {
        let mut off = || {
            site += 1;
            site % 3 == 0
        };
        circuit.push(match op {
            Op::Depolarize1 { qubit, .. } if off() => Op::Depolarize1 { qubit, p: 0.0 },
            Op::Depolarize2 { a, b, .. } if off() => Op::Depolarize2 { a, b, p: 0.0 },
            Op::XError { qubit, .. } if off() => Op::XError { qubit, p: 0.0 },
            op => op,
        });
    }
    assert!(site > 0);
    assert_dem_matches(
        &circuit,
        &detectors,
        &obs,
        "d=3, a third of the sites at p = 0",
    );
}

/// Asserts `DecodingGraph::from_dem` equals the reference on `dem`, bit for
/// bit, and returns how many mechanisms landed on more than one edge.
fn assert_graph_matches(
    dem: &DetectorErrorModel,
    detectors: &[DetectorInfo],
    basis: DetectorBasis,
    what: &str,
) -> usize {
    let graph = DecodingGraph::from_dem(dem, detectors, basis);
    let (edges, mechanism_edges) = graph_from_dem(dem, detectors, basis);
    assert_eq!(graph.edges().len(), edges.len(), "{what}");
    for (i, (g, w)) in graph.edges().iter().zip(&edges).enumerate() {
        assert_eq!((g.a, g.b), (w.a, w.b), "{what}: edge {i}");
        assert_eq!(
            g.probability.to_bits(),
            w.probability.to_bits(),
            "{what}: edge {i}"
        );
        assert_eq!(g.weight.to_bits(), w.weight.to_bits(), "{what}: edge {i}");
        assert_eq!(g.flips_observable, w.flips_observable, "{what}: edge {i}");
    }
    for (mi, want) in mechanism_edges.iter().enumerate() {
        assert_eq!(
            graph.erasure_edges_for_mechanism(mi),
            want.as_slice(),
            "{what}: mechanism {mi}"
        );
    }
    mechanism_edges.iter().filter(|e| e.len() > 1).count()
}

#[test]
fn graph_matches_the_reference_on_memory_circuits() {
    for d in [3, 5, 7] {
        for memory in [MemoryBasis::Z, MemoryBasis::X] {
            let exp = MemoryExperiment::new_with_basis(
                RotatedCode::new(d),
                NoiseParams::standard(1e-3),
                d,
                memory,
            );
            let detectors = exp.detectors();
            let mut dem = crate::build_dem(&exp.base_circuit(), &detectors, &exp.observable_keys());
            for basis in [DetectorBasis::Z, DetectorBasis::X] {
                let what = format!("d={d} {memory:?} memory, {basis:?} graph");
                assert_graph_matches(&dem, &detectors, basis, &what);
            }

            // Memory circuits project every mechanism onto at most two
            // nodes, so append hyperedges to reach the decomposition: the
            // union of two neighbouring mechanisms (pairs onto existing
            // edges) and random detector triples (mostly the fallback).
            let mut rng = Rng::new(d as u64);
            let elementary = dem.mechanisms.len();
            for i in (0..elementary - 1).step_by(5) {
                let (a, b) = (&dem.mechanisms[i], &dem.mechanisms[i + 1]);
                let mut detectors: Vec<usize> = a.detectors.clone();
                detectors.extend(b.detectors.iter().filter(|d| !a.detectors.contains(d)));
                detectors.sort_unstable();
                let flips_observable = a.flips_observable ^ b.flips_observable;
                dem.mechanisms.push(ErrorMechanism {
                    detectors,
                    flips_observable,
                    probability: 1e-4 * (1 + i % 7) as f64,
                    sources: Vec::new(),
                });
            }
            for i in 0..elementary / 10 {
                let mut detectors: Vec<usize> = (0..3)
                    .map(|_| rng.below(dem.num_detectors as u64) as usize)
                    .collect();
                detectors.sort_unstable();
                detectors.dedup();
                dem.mechanisms.push(ErrorMechanism {
                    detectors,
                    flips_observable: i % 2 == 0,
                    probability: 2e-4,
                    sources: Vec::new(),
                });
            }
            for basis in [DetectorBasis::Z, DetectorBasis::X] {
                let what = format!("d={d} {memory:?} memory, {basis:?} graph, hyperedges");
                assert!(
                    assert_graph_matches(&dem, &detectors, basis, &what) > 0,
                    "{what}"
                );
            }
        }
    }
}

#[test]
fn shortest_paths_match_the_reference_on_every_window_shape() {
    for d in [3, 5, 7] {
        for (rounds, window, stride) in [(6 * d, 3 * d, 2 * d), (d, d + 1, d + 1)] {
            let exp =
                MemoryExperiment::new(RotatedCode::new(d), NoiseParams::standard(1e-3), rounds);
            let detectors = exp.detectors();
            let dem = crate::build_dem(&exp.base_circuit(), &detectors, &exp.observable_keys());
            let graph = DecodingGraph::from_dem(&dem, &detectors, DetectorBasis::Z);
            let plan = WindowPlan::new(&graph, window, stride, DecoderKind::Mwpm);
            for (s, shape) in plan.shape_graphs().enumerate() {
                let n = shape.num_nodes() + 1;
                let rows: Vec<_> = (0..n).map(|src| dijkstra(shape, src)).collect();
                let one_thread = ShortestPaths::compute_on(shape, 1);
                for threads in 1..=3 {
                    let paths = ShortestPaths::compute_on(shape, threads);
                    assert_eq!(paths.num_nodes_with_boundary(), n);
                    // The coding itself, not only what reads back through
                    // it, is independent of the row split.
                    assert_eq!(
                        paths.entries(),
                        one_thread.entries(),
                        "d={d} W={window} shape {s}, {threads} threads: entries"
                    );
                    assert!(
                        paths
                            .values()
                            .windows(2)
                            .all(|w| w[0].to_bits() < w[1].to_bits()),
                        "d={d} W={window} shape {s}, {threads} threads: values not ascending"
                    );
                    assert!(
                        paths
                            .values()
                            .iter()
                            .map(|v| v.to_bits())
                            .eq(one_thread.values().iter().map(|v| v.to_bits())),
                        "d={d} W={window} shape {s}, {threads} threads: values"
                    );
                    for (u, (dist, obs)) in rows.iter().enumerate() {
                        for v in 0..n {
                            assert_eq!(
                                paths.distance(u, v).to_bits(),
                                dist[v].to_bits(),
                                "d={d} W={window} shape {s}, {threads} threads: dist({u}, {v})"
                            );
                            assert_eq!(
                                paths.observable_parity(u, v),
                                obs[v],
                                "d={d} W={window} shape {s}, {threads} threads: obs({u}, {v})"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// The walk from `u` to `v` by scanning: at each node, the first incident
/// edge whose far end `w` has `distance(v, w) + weight` equal to the
/// node's distance bit for bit and whose parity, flipped by the edge,
/// equals the node's.
fn scan_walk(paths: &ShortestPaths, graph: &DecodingGraph, u: usize, v: usize) -> Vec<usize> {
    let mut walk = Vec::new();
    let mut cur = u;
    while cur != v {
        let d_cur = paths.distance(v, cur);
        let o_cur = paths.observable_parity(v, cur);
        let (ei, w) = graph
            .incident(cur)
            .iter()
            .map(|&ei| {
                let e = &graph.edges()[ei];
                (ei, if e.a == cur { e.b } else { e.a })
            })
            .find(|&(ei, w)| {
                let e = &graph.edges()[ei];
                paths.distance(v, w) + e.weight == d_cur
                    && (paths.observable_parity(v, w) ^ e.flips_observable) == o_cur
            })
            .expect("a shortest path has a consistent step");
        walk.push(ei);
        cur = w;
        assert!(walk.len() <= graph.edges().len(), "walk from {u} to {v}");
    }
    walk
}

/// Asserts that `path_edges` walks every reachable (u, v) pair of `graph`,
/// the boundary's row and column included, as [`scan_walk`] does.
fn assert_walks_match(graph: &DecodingGraph, label: &str) {
    let paths = ShortestPaths::compute(graph);
    let n = graph.num_nodes() + 1;
    let mut walk = Vec::new();
    for u in 0..n {
        for v in (0..n).filter(|&v| paths.distance(v, u).is_finite()) {
            walk.clear();
            paths.path_edges(graph, u, v, &mut walk);
            assert_eq!(walk, scan_walk(&paths, graph, u, v), "{label}: {u} -> {v}");
        }
    }
}

#[test]
fn stored_steps_walk_as_the_incident_scan() {
    for d in [3, 5] {
        let exp = MemoryExperiment::new(RotatedCode::new(d), NoiseParams::standard(1e-3), d);
        let detectors = exp.detectors();
        let dem = crate::build_dem(&exp.base_circuit(), &detectors, &exp.observable_keys());
        let graph = DecodingGraph::from_dem(&dem, &detectors, DetectorBasis::Z);
        assert_walks_match(&graph, &format!("d={d} R={d}"));
    }
    // The bulk window shape of a d = 7, 70-round plan with 21-round
    // windows.
    let exp = MemoryExperiment::new(RotatedCode::new(7), NoiseParams::standard(1e-3), 70);
    let detectors = exp.detectors();
    let dem = crate::build_dem(&exp.base_circuit(), &detectors, &exp.observable_keys());
    let graph = DecodingGraph::from_dem(&dem, &detectors, DetectorBasis::Z);
    let shape = WindowGraph::build(&graph, 14, 34);
    assert_walks_match(shape.graph(), "d=7 R=70 rounds 14..=34");
}

#[test]
fn stored_steps_keep_the_parity_of_equal_weight_paths() {
    let edge = |a, b, weight, flips_observable| GraphEdge {
        a,
        b,
        probability: 0.1,
        weight,
        flips_observable,
    };
    // From 0 to 3, through 2 (edge 0 first in 0's list) and through 1 tie
    // in weight but not in parity; from 4 to 3, through 2 (edge 4 first in
    // 4's list) and through 1 tie in both. Node 1 settles before node 2 in
    // the Dijkstra rooted at 3, so it relaxes 0 and 4 first.
    let graph = DecodingGraph::from_window_parts(
        5,
        vec![
            edge(0, 2, 1.0, true),
            edge(0, 1, 1.0, false),
            edge(1, 3, 1.0, false),
            edge(2, 3, 1.0, false),
            edge(2, 4, 1.0, false),
            edge(1, 4, 1.0, false),
            edge(3, 5, 1.0, false),
            edge(4, 5, 2.0, false),
        ],
        vec![0; 5],
    );
    assert_walks_match(&graph, "hand-built");
    let paths = ShortestPaths::compute(&graph);
    let mut walk = Vec::new();
    paths.path_edges(&graph, 0, 3, &mut walk);
    assert_eq!(
        (walk.as_slice(), paths.observable_parity(3, 0)),
        (&[1, 2][..], false)
    );
    walk.clear();
    paths.path_edges(&graph, 4, 3, &mut walk);
    assert_eq!(walk, [4, 3]);
}

#[test]
fn a_dictionary_past_the_index_field_is_rejected() {
    // 2^16 - 1 parallel boundary edges at node 0 give it 2^16 incident
    // edges, a 16-bit step field and a 15-bit index field: at most 32,767
    // distinct distances. A 300-node chain of random weights has about
    // 45,000.
    let mut rng = Rng::new(0x5eed);
    let nodes = 300;
    let mut edges: Vec<GraphEdge> = (0..nodes - 1)
        .map(|a| GraphEdge {
            a,
            b: a + 1,
            probability: 0.1,
            weight: snap_weight(1.0 + rng.f64()),
            flips_observable: false,
        })
        .collect();
    edges.extend((0..(1 << 16) - 1).map(|_| GraphEdge {
        a: 0,
        b: nodes,
        probability: 0.1,
        weight: 1.0,
        flips_observable: false,
    }));
    let graph = DecodingGraph::from_window_parts(nodes, edges, vec![0; nodes]);
    for threads in [1, 2] {
        let panic = std::panic::catch_unwind(|| ShortestPaths::compute_on(&graph, threads))
            .expect_err("the table cannot code its distances");
        let message = panic
            .downcast_ref::<String>()
            .expect("a formatted panic message");
        assert!(
            message.contains("15-bit index field") && message.contains("`sparse-mwpm`"),
            "{threads} threads: {message}"
        );
    }
}
