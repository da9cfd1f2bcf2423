//! Windowed ≡ monolithic equivalence suite.
//!
//! The load-bearing guarantees of the sliding-window decode path:
//!
//! * a window covering **all** rounds is bit-identical to the monolithic
//!   path for all three decoders, erasures included (its single, final
//!   position makes exactly the whole-shot decode call);
//! * real sliding windows (commit/buffer, re-injection) still correct every
//!   single fault mechanism exactly, and agree with monolithic decoding on
//!   nearly every random multi-fault syndrome;
//! * erasure indices are translated to window-local edge numbering — a
//!   regression test drives an erasure whose edge straddles window commit
//!   boundaries (with global numbering this either panics or erases the
//!   wrong edge).

use qec_core::circuit::DetectorBasis;
use qec_core::{NoiseParams, Rng};
use qec_decoder::{
    build_dem, DecoderKind, DecodingGraph, DetectorErrorModel, StreamingDecoder, SyndromeDecoder,
    WindowPlan,
};
use qec_decoder::{MwpmBatchDecoder, SparseMwpmDecoder, Syndrome, UnionFindBatchDecoder};
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

fn monolithic<'g>(backend: DecoderKind, graph: &'g DecodingGraph) -> Box<dyn SyndromeDecoder + 'g> {
    match backend {
        DecoderKind::Mwpm => Box::new(MwpmBatchDecoder::new(graph)),
        DecoderKind::SparseMwpm => Box::new(SparseMwpmDecoder::new(graph)),
        DecoderKind::UnionFind => Box::new(UnionFindBatchDecoder::new(graph)),
        DecoderKind::Auto => unreachable!("the tests name concrete backends"),
    }
}

/// Samples a random multi-fault syndrome (defects ascending) and its true
/// observable flip.
fn sample_syndrome(
    graph: &DecodingGraph,
    dem: &DetectorErrorModel,
    rng: &mut Rng,
    faults: usize,
) -> (Vec<usize>, bool) {
    let mut events = vec![false; graph.num_nodes()];
    let mut expected = false;
    for _ in 0..faults {
        let mech = &dem.mechanisms[rng.below(dem.mechanisms.len() as u64) as usize];
        for &det in &mech.detectors {
            if let Some(node) = graph.node_of_detector(det) {
                events[node] ^= true;
            }
        }
        expected ^= mech.flips_observable;
    }
    let defects = (0..graph.num_nodes()).filter(|&n| events[n]).collect();
    (defects, expected)
}

/// Splits a sorted global defect list into per-round groups and streams them
/// through `dec`, returning the finished outcome.
fn stream_shot(
    dec: &mut dyn StreamingDecoder,
    graph: &DecodingGraph,
    defects: &[usize],
    erasures_by_round: &[Vec<usize>],
) -> qec_decoder::DecodeOutcome {
    dec.begin_shot();
    let mut i = 0;
    let empty = Vec::new();
    for r in 0..=graph.max_round() {
        let start = i;
        while i < defects.len() && graph.node_round(defects[i]) == r {
            i += 1;
        }
        let erasures = erasures_by_round.get(r).unwrap_or(&empty);
        dec.push_round(&defects[start..i], erasures);
    }
    assert_eq!(i, defects.len(), "defects must be round-major");
    dec.finish()
}

/// Property test: a window covering all rounds decodes bit-identically to
/// the monolithic path — same flip, same f64 weight bits, same defect
/// count — for all three backends, across many random syndromes. Every
/// other trial carries a random erasure set streamed in over random rounds:
/// under erasures, equal-weight paths of opposite parity are common, and
/// the full-cover window must make the whole-shot decoder's choice.
#[test]
fn full_cover_window_is_bit_identical_to_monolithic() {
    for (d, rounds) in [(3usize, 4usize), (5, 3)] {
        let (graph, dem) = setup(d, rounds);
        let span = graph.max_round() + 1;
        for backend in BACKENDS {
            let plan = WindowPlan::new(&graph, span, span, backend);
            assert_eq!(plan.num_positions(), 1, "full cover is a single window");
            let mut windowed = plan.streaming();
            let mut mono = monolithic(backend, &graph);
            let mut rng = Rng::new(0xC0FFEE ^ d as u64);
            for trial in 0..240 {
                let faults = 1 + (trial % 5);
                let (defects, _) = sample_syndrome(&graph, &dem, &mut rng, faults);
                let mut erasures_by_round = vec![Vec::new(); span];
                let mut erasures = Vec::new();
                if trial % 2 == 1 {
                    for _ in 0..1 + rng.below(8) {
                        let ei = rng.below(graph.edges().len() as u64) as usize;
                        erasures_by_round[rng.below(span as u64) as usize].push(ei);
                        erasures.push(ei);
                    }
                    erasures.sort_unstable();
                    erasures.dedup();
                }
                let syndrome = Syndrome::build(defects.clone())
                    .rounds(rounds)
                    .erasures(erasures)
                    .finish();
                let mono_out = mono.decode_syndrome(&syndrome);
                let win_out = stream_shot(&mut windowed, &graph, &defects, &erasures_by_round);
                assert_eq!(
                    win_out.flip, mono_out.flip,
                    "[{}] d={d} trial {trial}: full-cover window diverged",
                    backend
                );
                assert_eq!(
                    win_out.weight.to_bits(),
                    mono_out.weight.to_bits(),
                    "[{}] d={d} trial {trial}: weight bits diverged",
                    backend
                );
                assert_eq!(win_out.defects, mono_out.defects);
            }
        }
    }
}

/// Sliding windows (commit region, buffer, re-injection) must still correct
/// every single fault mechanism exactly: a fault's defect pair spans at most
/// two adjacent rounds, so it always falls jointly inside a window whose
/// commit chain resolves it.
#[test]
fn sliding_windows_correct_every_single_fault() {
    for (d, rounds, window, stride) in [(3usize, 10usize, 5usize, 2usize), (5, 8, 6, 1)] {
        let (graph, dem) = setup(d, rounds);
        for backend in BACKENDS {
            let plan = WindowPlan::new(&graph, window, stride, backend);
            assert!(plan.num_positions() > 3, "actually sliding");
            let mut windowed = plan.streaming();
            let mut checked = 0;
            for mech in &dem.mechanisms {
                let mut defects: Vec<usize> = mech
                    .detectors
                    .iter()
                    .filter_map(|&det| graph.node_of_detector(det))
                    .collect();
                defects.sort_unstable();
                if defects.is_empty() {
                    continue;
                }
                // Union-find is not distance-preserving on
                // decomposed hyperedges even monolithically; hold the exact
                // bar only where the monolithic decoder meets it (both
                // blossom backends do).
                let exact = matches!(backend, DecoderKind::Mwpm | DecoderKind::SparseMwpm);
                if !exact && defects.len() > 2 {
                    continue;
                }
                let out = stream_shot(&mut windowed, &graph, &defects, &[]);
                assert_eq!(
                    out.flip, mech.flips_observable,
                    "[{}] d={d} w={window} s={stride}: single fault mis-corrected ({mech:?})",
                    backend
                );
                checked += 1;
            }
            assert!(checked > 100, "too few mechanisms checked ({checked})");
        }
    }
}

/// Random multi-fault syndromes: sliding-window decoding agrees with the
/// monolithic decoder on nearly every shot (the buffer ≥ d overlap makes
/// divergence possible only for error chains longer than the buffer).
#[test]
fn sliding_windows_track_monolithic_on_random_syndromes() {
    let (graph, dem) = setup(3, 12);
    for backend in BACKENDS {
        let plan = WindowPlan::new(&graph, 6, 3, backend);
        let mut windowed = plan.streaming();
        let mut mono = monolithic(backend, &graph);
        let mut rng = Rng::new(0xFEED);
        let trials = 400i64;
        let mut agree = 0i64;
        let mut mono_ok = 0i64;
        let mut win_ok = 0i64;
        for trial in 0..trials {
            let faults = (1 + (trial % 6)) as usize;
            let (defects, expected) = sample_syndrome(&graph, &dem, &mut rng, faults);
            let m = mono
                .decode_syndrome(&Syndrome::with_rounds(defects.clone(), 12))
                .flip;
            let w = stream_shot(&mut windowed, &graph, &defects, &[]).flip;
            agree += i64::from(m == w);
            mono_ok += i64::from(m == expected);
            win_ok += i64::from(w == expected);
        }
        let rate = agree as f64 / trials as f64;
        assert!(
            rate > 0.95,
            "[{}] windowed/monolithic agreement too low: {rate}",
            backend
        );
        // And windowed accuracy must not trail monolithic materially.
        assert!(
            mono_ok - win_ok < trials / 20,
            "[{}] windowed accuracy {win_ok}/{trials} vs monolithic {mono_ok}/{trials}",
            backend
        );
    }
}

/// Regression (window-relative erasure translation): an erased time edge
/// that straddles window commit boundaries must be reweighted through
/// window-local indices. The edge here crosses the first window's upper
/// edge, is deferred once (its commit boundary lands on it), and commits two
/// windows later — with global indices this would erase the wrong edge or
/// panic in the overlay.
#[test]
fn erasure_straddling_a_window_boundary_is_window_relative() {
    let (graph, _) = setup(3, 12);
    let window = 5;
    let stride = 2;
    // A bulk time-like edge between rounds 4 and 5 = the first window's
    // upper boundary ([0, 4]).
    let ei = graph
        .edges()
        .iter()
        .position(|e| {
            e.b != graph.boundary() && graph.node_round(e.a) == 4 && graph.node_round(e.b) == 5
        })
        .expect("a (4, 5) time edge");
    let e = graph.edges()[ei].clone();
    let mut defects = vec![e.a, e.b];
    defects.sort_unstable();
    let mut erasures_by_round = vec![Vec::new(); graph.max_round() + 1];
    // The herald arrives when the later round completes, like the runtime's
    // leakage-detection read path.
    erasures_by_round[5] = vec![ei];

    for backend in BACKENDS {
        let plan = WindowPlan::new(&graph, window, stride, backend);
        let mut windowed = plan.streaming();
        let blind = stream_shot(&mut windowed, &graph, &defects, &[]);
        let aware = stream_shot(&mut windowed, &graph, &defects, &erasures_by_round);
        assert_eq!(
            aware.flip, e.flips_observable,
            "[{}] erased pair must be matched through its own edge",
            backend
        );
        assert!(
            aware.weight < blind.weight.min(0.5 * e.weight) + 1e-9,
            "[{}] erasure must reach the window decoder: aware {} vs blind {} (edge {})",
            backend,
            aware.weight,
            blind.weight,
            e.weight
        );
    }
}

/// The `decode_with_correction` contract the window committer relies on:
/// the emitted edges' observable-flip XOR equals the returned flip — for all
/// three decoders, with and without erasures — and the erasure-free outcome
/// is bit-identical to `decode_syndrome`.
#[test]
fn correction_edges_xor_to_the_outcome_flip() {
    let (graph, dem) = setup(3, 5);
    for backend in BACKENDS {
        let mut with = monolithic(backend, &graph);
        let mut without = monolithic(backend, &graph);
        let mut rng = Rng::new(0xEDCE ^ backend.to_string().len() as u64);
        let mut correction = Vec::new();
        for trial in 0..150 {
            let (defects, _) = sample_syndrome(&graph, &dem, &mut rng, 1 + trial % 4);
            let mut erasures = Vec::new();
            if trial % 3 == 0 {
                let v = rng.below(graph.num_nodes() as u64) as usize;
                erasures.extend_from_slice(graph.incident(v));
                erasures.sort_unstable();
                erasures.dedup();
            }
            let syndrome = Syndrome::build(defects)
                .rounds(5)
                .erasures(erasures)
                .finish();
            let out = with.decode_with_correction(&syndrome, &mut correction);
            let xor = correction
                .iter()
                .fold(false, |acc, &ei| acc ^ graph.edges()[ei].flips_observable);
            assert_eq!(
                xor, out.flip,
                "[{}] trial {trial}: correction edges disagree with the flip",
                backend
            );
            if syndrome.erasures.is_empty() {
                let plain = without.decode_syndrome(&syndrome);
                assert_eq!(plain.flip, out.flip, "[{}] trial {trial}", backend);
                assert!((plain.weight - out.weight).abs() < 1e-6);
            }
        }
    }
}

/// The per-window latency probes cover every window and their committed
/// rounds tile the experiment exactly.
#[test]
fn window_latency_samples_tile_the_shot() {
    let (graph, dem) = setup(3, 9);
    let plan = WindowPlan::new(&graph, 4, 2, DecoderKind::Mwpm);
    let mut windowed = plan.streaming();
    let mut rng = Rng::new(7);
    let (defects, _) = sample_syndrome(&graph, &dem, &mut rng, 4);
    stream_shot(&mut windowed, &graph, &defects, &[]);
    let latencies = windowed.window_latencies();
    assert_eq!(latencies.len(), plan.num_positions());
    let committed: u32 = latencies.iter().map(|&(_, rounds)| rounds).sum();
    assert_eq!(committed as usize, graph.max_round() + 1);
}
