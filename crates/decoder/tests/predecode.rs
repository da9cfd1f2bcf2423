//! Tiered ≡ full equivalence suite for the predecoder.
//!
//! The tentpole guarantee of `qec_decoder::predecode`: with the tier ladder
//! in front of any backend, every decode is **bit-identical** to the
//! untier'd path — same observable flip, the exact same f64 weight bits,
//! and the same correction-edge XOR — across 0/1/2/many-defect syndromes,
//! with and without erasure overlays, and through the windowed streaming
//! path where carried-in defects count against the tier thresholds.

use qec_core::circuit::DetectorBasis;
use qec_core::{NoiseParams, Rng};
use qec_decoder::{
    build_dem, DecoderFactory, DecodingGraph, DetectorErrorModel, MwpmFactory, SparseMwpmFactory,
    StreamingDecoder, Syndrome, SyndromeDecoder, TieredDecoder, UnionFindFactory, WindowBackend,
    WindowPlan,
};
use std::collections::HashSet;
use surface_code::{MemoryExperiment, RotatedCode};

const BACKENDS: [WindowBackend; 3] = [
    WindowBackend::Mwpm,
    WindowBackend::SparseMwpm,
    WindowBackend::UnionFind,
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

/// The streaming property: with sliding windows (so buffer-region defects
/// carry into the next position and count against the tier thresholds),
/// the tiered windowed decoder is bit-identical to the same plan with the
/// predecoder disabled — erasure overlays included — and the run-level
/// tier counters fire.
#[test]
fn tiered_windowed_is_bit_identical_to_full() {
    let (graph, dem) = setup(3, 14);
    let (window, stride) = (5usize, 2usize);
    for backend in BACKENDS {
        let plan = WindowPlan::new(&graph, window, stride, backend);
        assert!(plan.num_positions() > 3, "actually sliding");
        let mut tiered = plan.streaming();
        let mut full = plan.streaming();
        full.set_predecode(false);
        let mut rng = Rng::new(0x71E6 ^ backend.name().len() as u64);
        for trial in 0..80 {
            let faults = trial % 6; // includes fully-empty shots (tier 0)
            let (defects, erasures) = sample_shot(&graph, &dem, &mut rng, faults, trial % 3 == 0);
            let t = stream_shot(&mut tiered, &defects, &erasures);
            let f = stream_shot(&mut full, &defects, &erasures);
            assert_eq!(
                t.flip,
                f.flip,
                "[{}] trial {trial}: flip diverged",
                backend.name()
            );
            assert_eq!(
                t.weight.to_bits(),
                f.weight.to_bits(),
                "[{}] trial {trial}: weight not bit-identical ({} vs {})",
                backend.name(),
                t.weight,
                f.weight
            );
            assert_eq!(t.defects, f.defects);
        }
        let counters = *tiered.tier_counters();
        assert!(counters.is_active(), "[{}]", backend.name());
        assert!(counters.hits[0] > 0, "[{}] empty windows", backend.name());
        assert!(
            !full.tier_counters().is_active(),
            "[{}] disabled path must not count",
            backend.name()
        );
    }
}
