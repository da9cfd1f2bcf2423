//! Tiered ≡ full equivalence suite for the predecoder.
//!
//! The tentpole guarantee of `qec_decoder::predecode`: with the tier ladder
//! in front of any backend, every decode is **bit-identical** to the
//! untier'd path — same observable flip, the exact same f64 weight bits,
//! and the same correction edges — across 0/1/2/many-defect syndromes,
//! with and without erasure overlays. The ladder runs inline in the
//! windowed streaming path, which has no untiered form: a full-cover window
//! is checked against the bare backend's whole-shot decode, and the
//! sliding chain against the tier-1 contract itself, checked on every 1-
//! and 2-defect syndrome of real window shapes.

use qec_core::circuit::DetectorBasis;
use qec_core::{NoiseParams, Rng};
use qec_decoder::{
    build_dem, DecoderKind, DecodingGraph, DetectorErrorModel, MwpmBatchDecoder, SparseMwpmDecoder,
    StreamingDecoder, Syndrome, SyndromeDecoder, UnionFindBatchDecoder, WindowGraph, WindowPlan,
};
use std::collections::HashSet;
use surface_code::{MemoryExperiment, RotatedCode};

const BACKENDS: [DecoderKind; 3] = [
    DecoderKind::Mwpm,
    DecoderKind::SparseMwpm,
    DecoderKind::UnionFind,
];

/// One bare instance of each backend, in [`BACKENDS`] order.
fn bare_backends(graph: &DecodingGraph) -> [Box<dyn SyndromeDecoder + '_>; 3] {
    [
        Box::new(MwpmBatchDecoder::new(graph)),
        Box::new(SparseMwpmDecoder::new(graph)),
        Box::new(UnionFindBatchDecoder::new(graph)),
    ]
}

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

/// The monolithic property: for every backend, random syndromes with
/// 0/1/2/many defects — a third of them under erasure overlays — decode
/// bit-identically through a full-cover window (the tier ladder's
/// whole-shot form) and the bare backend, and the tier counters route as
/// the ladder promises. The correction edges a non-final window commits are
/// covered by the tier-1 contract in `tiered_windowed_is_bit_identical_to_full`.
#[test]
fn tiered_monolithic_is_bit_identical_to_full() {
    for (d, rounds, seed) in [(3usize, 4usize, 0x7139u64), (5, 3, 0x517E)] {
        let (graph, _) = setup(d, rounds);
        let span = graph.max_round() + 1;
        for (backend, mut full) in BACKENDS.into_iter().zip(bare_backends(&graph)) {
            let plan = WindowPlan::new(&graph, span, span, backend);
            assert_eq!(plan.num_positions(), 1, "full cover");
            let mut tiered = plan.streaming();
            let mut rng = Rng::new(seed ^ backend.to_string().len() as u64);
            let mut by_round = vec![Vec::new(); span];
            let (mut empties, mut trials) = (0u64, 0u64);
            for trial in 0..160 {
                let k = [0, 1, 1, 2, 2, 3, 5, 9][trial % 8];
                let erased = trial % 3 == 0;
                let syndrome = sample_syndrome(&graph, &mut rng, k, erased);
                by_round.iter_mut().for_each(Vec::clear);
                for &v in &syndrome.defects {
                    by_round[graph.node_round(v)].push(v);
                }
                tiered.begin_shot();
                for (r, defects) in by_round.iter().enumerate() {
                    let erasures = if r == 0 { &syndrome.erasures[..] } else { &[] };
                    tiered.push_round(defects, erasures);
                }
                let t = tiered.finish();
                let f = full.decode(&syndrome, None);
                assert_eq!(
                    t.flip, f.flip,
                    "[{backend}] d={d} trial {trial} (k={k}, erased={erased}): flip diverged"
                );
                assert_eq!(
                    t.weight.to_bits(),
                    f.weight.to_bits(),
                    "[{backend}] d={d} trial {trial}: weight not bit-identical ({} vs {})",
                    t.weight,
                    f.weight
                );
                assert_eq!(t.defects, f.defects);
                trials += 1;
                if syndrome.defects.is_empty() && syndrome.erasures.is_empty() {
                    empties += 1;
                }
            }
            let counters = tiered.tier_counters();
            assert_eq!(counters.total(), trials, "[{backend}]");
            assert_eq!(counters.hits[0], empties, "[{backend}]");
            assert!(
                counters.hits[2] > 0,
                "[{backend}] many-defect trials must fall through to tier 2"
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

/// Asserts that `decode_tier1` defers on `syndrome`, in both forms, and
/// leaves a pre-filled correction vector untouched.
fn assert_tier1_defers(decoder: &mut dyn SyndromeDecoder, syndrome: &Syndrome, what: &str) {
    const PREFILLED: [usize; 3] = [7, 7, 7];
    let mut correction = PREFILLED.to_vec();
    let answered = decoder.decode_tier1(syndrome, Some(&mut correction));
    assert!(
        answered.is_none(),
        "{what} {syndrome:?}: out of the tier-1 scope, yet answered"
    );
    assert_eq!(
        correction, PREFILLED,
        "{what} {syndrome:?}: a deferral touched the correction"
    );
    assert!(
        decoder.decode_tier1(syndrome, None).is_none(),
        "{what} {syndrome:?}"
    );
}

/// Checks the tier-1 contract on one window shape, exhaustively: for every
/// 1- and 2-defect syndrome, whenever `decode_tier1` answers, its flip, f64
/// weight bits and exact correction-edge sequence equal the backend's full
/// decode (and its correction-free form equals `decode(.., None)`). The
/// backend owns the scope, so it must also defer, correction untouched, on
/// 0 defects, on 3 defects, and on every 1- and 2-defect syndrome that
/// carries one erased edge. Returns how many calls, in either form, tier 1
/// answered.
fn check_tier1_contract(decoder: &mut dyn SyndromeDecoder, g: &DecodingGraph, what: &str) -> u64 {
    let nodes = g.num_nodes();
    assert_tier1_defers(decoder, &Syndrome::default(), what);
    for a in 0..nodes.saturating_sub(2) {
        assert_tier1_defers(decoder, &Syndrome::new(vec![a, a + 1, a + 2]), what);
    }
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
                let full = decoder.decode(&syndrome, Some(&mut full_correction));
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
                let full = decoder.decode(&syndrome, None);
                let at = format!("{what} defects {:?} (no correction)", syndrome.defects);
                assert_eq!(fast.flip, full.flip, "{at}: flip diverged");
                assert_eq!(fast.weight.to_bits(), full.weight.to_bits(), "{at}");
                assert_eq!(fast.defects, full.defects, "{at}");
            }
            syndrome.erasures.push(g.incident(a)[0]);
            assert_tier1_defers(decoder, &syndrome, what);
            syndrome.erasures.clear();
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
            for (backend, mut decoder) in BACKENDS.into_iter().zip(bare_backends(g)) {
                let what = format!("[{backend}] d={d} window [{lo}, {}]", shape.hi());
                let answered = check_tier1_contract(decoder.as_mut(), g, &what);
                if backend == DecoderKind::UnionFind {
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
