//! Tiered ≡ full equivalence suite for the predecoder.
//!
//! The tentpole guarantee of `qec_decoder::predecode`: with the tier ladder
//! in front of any backend, every decode is **bit-identical** to the
//! untier'd path — same observable flip, the exact same f64 weight bits,
//! and the same correction edges — across 0/1/2/many-defect syndromes,
//! with and without erasure overlays. The windowed streaming path has no
//! untiered form, so its reference is the tier-1 contract itself, checked
//! on every 1- and 2-defect syndrome of real window shapes.

use qec_core::circuit::DetectorBasis;
use qec_core::{NoiseParams, Rng};
use qec_decoder::{
    build_dem, DecoderFactory, DecoderKind, DecodingGraph, DetectorErrorModel, MwpmFactory,
    SparseMwpmFactory, StreamingDecoder, Syndrome, SyndromeDecoder, TieredDecoder,
    UnionFindFactory, WindowGraph, WindowPlan,
};
use std::collections::HashSet;
use surface_code::{MemoryExperiment, RotatedCode};

const BACKENDS: [DecoderKind; 3] = [
    DecoderKind::Mwpm,
    DecoderKind::SparseMwpm,
    DecoderKind::UnionFind,
];

fn setup(d: usize, rounds: usize) -> (DecodingGraph, DetectorErrorModel) {
    let exp = MemoryExperiment::new(RotatedCode::new(d), NoiseParams::standard(1e-3), rounds);
    let detectors = exp.detectors();
    let dem = build_dem(&exp.base_circuit(), &detectors, &exp.observable_keys());
    let graph = DecodingGraph::from_dem(&dem, &detectors, DetectorBasis::Z);
    (graph, dem)
}

/// Samples a syndrome with an exact defect count `k` (distinct random
/// nodes, ascending) plus an optional erasure overlay. Arbitrary node sets
/// (not only valid fault signatures) are deliberate: the tier-1 closed form
/// must agree with the full decoder on *any* 1–2 defect input.
fn sample_syndrome(graph: &DecodingGraph, rng: &mut Rng, k: usize, erased: bool) -> Syndrome {
    let mut defects = HashSet::new();
    while defects.len() < k {
        defects.insert(rng.below(graph.num_nodes() as u64) as usize);
    }
    let mut defects: Vec<usize> = defects.into_iter().collect();
    defects.sort_unstable();
    let mut syndrome = Syndrome::new(defects);
    if erased {
        for _ in 0..1 + rng.below(3) {
            let v = rng.below(graph.num_nodes() as u64) as usize;
            syndrome.erasures.extend_from_slice(graph.incident(v));
        }
        syndrome.erasures.sort_unstable();
        syndrome.erasures.dedup();
    }
    syndrome
}

/// Correction edges compare as an XOR set: an edge listed twice cancels, so
/// path-sharing corrections with different edge orderings are equal iff
/// their parities agree everywhere.
fn xor_set(correction: &[usize]) -> HashSet<usize> {
    let mut set = HashSet::new();
    for &e in correction {
        if !set.insert(e) {
            set.remove(&e);
        }
    }
    set
}

/// The monolithic property: for every backend, random syndromes with
/// 0/1/2/many defects — a third of them under erasure overlays — decode
/// bit-identically through [`TieredDecoder`] and the bare backend, and the
/// tier counters route as the ladder promises.
#[test]
fn tiered_monolithic_is_bit_identical_to_full() {
    for (d, rounds, seed) in [(3usize, 4usize, 0x7139u64), (5, 3, 0x517E)] {
        let (graph, _) = setup(d, rounds);
        let factories: [&dyn DecoderFactory; 3] = [
            &MwpmFactory::new(&graph),
            &SparseMwpmFactory::new(&graph),
            &UnionFindFactory::new(&graph),
        ];
        for factory in factories {
            let mut tiered = TieredDecoder::new(factory.build());
            let mut full = factory.build();
            let mut rng = Rng::new(seed ^ factory.name().len() as u64);
            let mut tiered_correction = Vec::new();
            let mut full_correction = Vec::new();
            let (mut empties, mut trials) = (0u64, 0u64);
            for trial in 0..160 {
                let k = [0, 1, 1, 2, 2, 3, 5, 9][trial % 8];
                let erased = trial % 3 == 0;
                let syndrome = sample_syndrome(&graph, &mut rng, k, erased);
                let t = tiered.decode_with_correction(&syndrome, &mut tiered_correction);
                let f = full.decode_with_correction(&syndrome, &mut full_correction);
                assert_eq!(
                    t.flip,
                    f.flip,
                    "[{}] d={d} trial {trial} (k={k}, erased={erased}): flip diverged",
                    factory.name()
                );
                assert_eq!(
                    t.weight.to_bits(),
                    f.weight.to_bits(),
                    "[{}] d={d} trial {trial}: weight not bit-identical ({} vs {})",
                    factory.name(),
                    t.weight,
                    f.weight
                );
                assert_eq!(t.defects, f.defects);
                assert_eq!(
                    xor_set(&tiered_correction),
                    xor_set(&full_correction),
                    "[{}] d={d} trial {trial}: correction XOR diverged",
                    factory.name()
                );
                trials += 1;
                if syndrome.defects.is_empty() && syndrome.erasures.is_empty() {
                    empties += 1;
                }
            }
            let counters = tiered.counters();
            assert_eq!(counters.total(), trials, "[{}]", factory.name());
            assert_eq!(counters.hits[0], empties, "[{}]", factory.name());
            assert!(
                counters.hits[2] > 0,
                "[{}] many-defect trials must fall through to tier 2",
                factory.name()
            );
        }
    }
}

/// Samples a random multi-fault shot (per-round defect groups from real
/// fault mechanisms, so sliding windows see genuine carried-in defects)
/// plus an optional per-round erasure overlay.
fn sample_shot(
    graph: &DecodingGraph,
    dem: &DetectorErrorModel,
    rng: &mut Rng,
    faults: usize,
    with_erasures: bool,
) -> (Vec<Vec<usize>>, Vec<Vec<usize>>) {
    let mut events = vec![false; graph.num_nodes()];
    for _ in 0..faults {
        let mech = &dem.mechanisms[rng.below(dem.mechanisms.len() as u64) as usize];
        for &det in &mech.detectors {
            if let Some(node) = graph.node_of_detector(det) {
                events[node] ^= true;
            }
        }
    }
    let mut defects_by_round = vec![Vec::new(); graph.max_round() + 1];
    for node in (0..graph.num_nodes()).filter(|&n| events[n]) {
        defects_by_round[graph.node_round(node)].push(node);
    }
    let mut erasures_by_round = vec![Vec::new(); graph.max_round() + 1];
    if with_erasures {
        for _ in 0..1 + rng.below(3) {
            let v = rng.below(graph.num_nodes() as u64) as usize;
            erasures_by_round[graph.node_round(v)].extend_from_slice(graph.incident(v));
        }
    }
    (defects_by_round, erasures_by_round)
}

fn stream_shot(
    dec: &mut dyn StreamingDecoder,
    defects_by_round: &[Vec<usize>],
    erasures_by_round: &[Vec<usize>],
) -> qec_decoder::DecodeOutcome {
    dec.begin_shot();
    for (defects, erasures) in defects_by_round.iter().zip(erasures_by_round) {
        dec.push_round(defects, erasures);
    }
    dec.finish()
}

/// Checks the tier-1 contract on one window shape, exhaustively: for every
/// 1- and 2-defect syndrome, whenever `decode_tier1` answers, its flip, f64
/// weight bits and exact correction-edge sequence equal the backend's full
/// decode (and its correction-free form equals `decode_syndrome`). Returns
/// how many calls, in either form, tier 1 answered.
fn check_tier1_contract(factory: &dyn DecoderFactory, nodes: usize, what: &str) -> u64 {
    let mut decoder = factory.build();
    let mut syndrome = Syndrome::default();
    let (mut fast_correction, mut full_correction) = (Vec::new(), Vec::new());
    let mut answered = 0u64;
    for a in 0..nodes {
        for b in a..nodes {
            syndrome.defects.clear();
            syndrome.defects.push(a);
            if b > a {
                syndrome.defects.push(b);
            }
            fast_correction.clear();
            if let Some(fast) = decoder.decode_tier1(&syndrome, Some(&mut fast_correction)) {
                answered += 1;
                let full = decoder.decode_with_correction(&syndrome, &mut full_correction);
                let at = format!("{what} defects {:?}", syndrome.defects);
                assert_eq!(fast.flip, full.flip, "{at}: flip diverged");
                assert_eq!(
                    fast.weight.to_bits(),
                    full.weight.to_bits(),
                    "{at}: weight not bit-identical ({} vs {})",
                    fast.weight,
                    full.weight
                );
                assert_eq!(fast.defects, full.defects, "{at}");
                assert_eq!(
                    fast_correction, full_correction,
                    "{at}: correction-edge sequence diverged"
                );
            }
            if let Some(fast) = decoder.decode_tier1(&syndrome, None) {
                answered += 1;
                let full = decoder.decode_syndrome(&syndrome);
                let at = format!("{what} defects {:?} (no correction)", syndrome.defects);
                assert_eq!(fast.flip, full.flip, "{at}: flip diverged");
                assert_eq!(fast.weight.to_bits(), full.weight.to_bits(), "{at}");
                assert_eq!(fast.defects, full.defects, "{at}");
            }
        }
    }
    answered
}

/// The streaming property. The windowed chain runs the tier ladder in front
/// of every window: tier 0 is the empty-syndrome early return every backend
/// already makes, so the chain is bit-identical to the full decoders iff the
/// tier-1 contract holds on the window shapes it decodes. That contract is
/// checked exhaustively on the first, a bulk and the last window shape of
/// d = 3 and d = 7 parents, for every backend; union-find must never
/// answer. Then sliding chains (buffer-region defects carry into the next
/// position and count against the tier thresholds) over random shots,
/// erasure overlays included, must route every window position through
/// exactly one tier.
#[test]
fn tiered_windowed_is_bit_identical_to_full() {
    for (d, rounds, window) in [(3usize, 14usize, 5usize), (7, 21, 7)] {
        let (graph, _) = setup(d, rounds);
        let last = graph.max_round() + 1 - window;
        for lo in [0, window, last] {
            let shape = WindowGraph::build(&graph, lo, lo + window - 1);
            let g = shape.graph();
            let factories: [&dyn DecoderFactory; 3] = [
                &MwpmFactory::new(g),
                &SparseMwpmFactory::new(g),
                &UnionFindFactory::new(g),
            ];
            for factory in factories {
                let what = format!("[{}] d={d} window [{lo}, {}]", factory.name(), shape.hi());
                let answered = check_tier1_contract(factory, g.num_nodes(), &what);
                if factory.name() == "union-find" {
                    assert_eq!(answered, 0, "{what}: union-find has no closed form");
                } else {
                    assert!(answered > 0, "{what}: tier 1 must answer to be checked");
                }
            }
        }
    }

    let (graph, dem) = setup(3, 14);
    let (window, stride) = (5usize, 2usize);
    for backend in BACKENDS {
        let plan = WindowPlan::new(&graph, window, stride, backend);
        assert!(plan.num_positions() > 3, "actually sliding");
        let mut tiered = plan.streaming();
        let mut rng = Rng::new(0x71E6 ^ backend.to_string().len() as u64);
        let trials = 80u64;
        for trial in 0..trials {
            let faults = trial as usize % 6; // includes fully-empty shots (tier 0)
            let (defects, erasures) = sample_shot(&graph, &dem, &mut rng, faults, trial % 3 == 0);
            stream_shot(&mut tiered, &defects, &erasures);
        }
        let counters = *tiered.tier_counters();
        assert_eq!(
            counters.total(),
            trials * plan.num_positions() as u64,
            "[{}] one tier per window position",
            backend
        );
        assert!(counters.hits[0] > 0, "[{}] empty windows", backend);
        assert!(counters.hits[2] > 0, "[{}] dense windows", backend);
        if backend == DecoderKind::UnionFind {
            assert_eq!(counters.hits[1], 0, "union-find never answers tier 1");
        } else {
            assert!(counters.hits[1] > 0, "[{}] sparse windows", backend);
        }
    }
}
