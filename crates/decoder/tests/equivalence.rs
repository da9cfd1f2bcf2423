//! Equivalence + determinism suite for the stateful decoder API.
//!
//! For all three decoders (dense MWPM, sparse MWPM, union-find) and
//! fixed seeds, these tests assert that a reused instance decodes a batch
//! of shots exactly as a fresh instance decodes them one by one, and
//! reproduces itself on a rerun (stale scratch must never leak between
//! shots), and that instances sharing one precomputed table decode
//! identically on different threads.

use qec_core::circuit::DetectorBasis;
use qec_core::{NoiseParams, Rng};
use qec_decoder::{
    build_dem, scale_weight, DecodeOutcome, DecoderKind, DecodingGraph, DetectorErrorModel,
    MwpmBatchDecoder, ShortestPaths, SparseMwpmDecoder, Syndrome, SyndromeDecoder,
    UnionFindBatchDecoder,
};
use std::sync::Arc;
use surface_code::{MemoryExperiment, RotatedCode};

fn setup(d: usize, rounds: usize) -> (DecodingGraph, DetectorErrorModel) {
    let exp = MemoryExperiment::new(RotatedCode::new(d), NoiseParams::standard(1e-3), rounds);
    let detectors = exp.detectors();
    let dem = build_dem(&exp.base_circuit(), &detectors, &exp.observable_keys());
    let graph = DecodingGraph::from_dem(&dem, &detectors, DetectorBasis::Z);
    (graph, dem)
}

/// Random multi-fault syndromes: XOR of 1–5 mechanism signatures each,
/// deterministic in `seed`.
fn random_syndromes(
    graph: &DecodingGraph,
    dem: &DetectorErrorModel,
    n: usize,
    seed: u64,
) -> Vec<Syndrome> {
    let mut rng = Rng::new(seed);
    let mut syndromes = Vec::with_capacity(n);
    for _ in 0..n {
        let mut events = vec![false; graph.num_nodes()];
        for _ in 0..(1 + rng.below(5)) {
            let mech = &dem.mechanisms[rng.below(dem.mechanisms.len() as u64) as usize];
            for &det in &mech.detectors {
                if let Some(node) = graph.node_of_detector(det) {
                    events[node] ^= true;
                }
            }
        }
        syndromes.push(Syndrome::new(
            (0..graph.num_nodes()).filter(|&v| events[v]).collect(),
        ));
    }
    syndromes
}

/// One fresh instance of each backend, each computing its own table,
/// labelled by its kind.
fn backends(graph: &DecodingGraph) -> [(DecoderKind, Box<dyn SyndromeDecoder + '_>); 3] {
    [
        (DecoderKind::Mwpm, Box::new(MwpmBatchDecoder::new(graph))),
        (
            DecoderKind::SparseMwpm,
            Box::new(SparseMwpmDecoder::new(graph)),
        ),
        (
            DecoderKind::UnionFind,
            Box::new(UnionFindBatchDecoder::new(graph)),
        ),
    ]
}

/// Decodes `syndromes` in order on one (warming) instance.
fn decode_all(decoder: &mut dyn SyndromeDecoder, syndromes: &[Syndrome]) -> Vec<DecodeOutcome> {
    syndromes.iter().map(|s| decoder.decode(s, None)).collect()
}

/// Flip/weight/defects must agree; `nanos` is wall-clock and excluded.
fn same_prediction(a: &DecodeOutcome, b: &DecodeOutcome) -> bool {
    a.flip == b.flip && a.weight == b.weight && a.defects == b.defects
}

fn check_equivalence(
    kind: DecoderKind,
    batch_decoder: &mut dyn SyndromeDecoder,
    seq_decoder: &mut dyn SyndromeDecoder,
    syndromes: &[Syndrome],
) {
    // Batch pass on one instance.
    let batch = decode_all(batch_decoder, syndromes);

    // Sequential pass on a *fresh* instance: per-shot must equal batch.
    for (syndrome, batched) in syndromes.iter().zip(&batch) {
        let sequential = seq_decoder.decode(syndrome, None);
        assert!(
            same_prediction(&sequential, batched),
            "[{kind}] batch != sequential on {:?}: {batched:?} vs {sequential:?}",
            syndrome.defects,
        );
        assert_eq!(batched.defects, syndrome.len());
        assert!(batched.weight >= 0.0);
    }

    // Determinism: a second batch pass on the *reused* instance (warm
    // scratch) must reproduce the first bit-for-bit.
    let again = decode_all(batch_decoder, syndromes);
    for (first, second) in batch.iter().zip(&again) {
        assert!(
            same_prediction(first, second),
            "[{kind}] warm-scratch rerun diverged: {first:?} vs {second:?}",
        );
    }
}

#[test]
fn all_decoders_batch_and_sequential_agree() {
    for (d, rounds, seed) in [(3usize, 3usize, 42u64), (5, 3, 1337)] {
        let (graph, dem) = setup(d, rounds);
        let syndromes = random_syndromes(&graph, &dem, 120, seed);
        for ((kind, mut batch), (_, mut seq)) in backends(&graph).into_iter().zip(backends(&graph))
        {
            check_equivalence(kind, batch.as_mut(), seq.as_mut(), &syndromes);
        }
    }
}

/// The tentpole's acceptance bar: on random erasure-free multi-fault
/// batches, the sparse blossom produces the **same optimal correction
/// weight and the same observable flip** as the dense MWPM decoder —
/// compared in the shared integer weight domain ([`scale_weight`]), where
/// the equality is exact rather than within-epsilon.
#[test]
fn sparse_matches_dense_weight_and_flip_on_random_batches() {
    for (d, rounds, seed) in [(3usize, 4usize, 11u64), (5, 4, 23), (7, 3, 31)] {
        let (graph, dem) = setup(d, rounds);
        let syndromes = random_syndromes(&graph, &dem, 150, seed);
        let mut dense_dec = MwpmBatchDecoder::new(&graph);
        let mut sparse_dec = SparseMwpmDecoder::new(&graph);
        for (i, syndrome) in syndromes.iter().enumerate() {
            let a = dense_dec.decode(syndrome, None);
            let b = sparse_dec.decode(syndrome, None);
            assert_eq!(
                scale_weight(a.weight),
                scale_weight(b.weight),
                "d={d} shot {i}: weight diverged (dense {} vs sparse {})",
                a.weight,
                b.weight
            );
            assert_eq!(a.flip, b.flip, "d={d} shot {i}: flip diverged");
            assert_eq!(a.defects, b.defects);
        }
    }
}

/// Erasure parity: with the `WeightOverlay` engaged (erased edges → ~0
/// weight), the sparse decoder's matched weight still equals dense MWPM's
/// in the integer domain on every shot. The *flip* can legitimately differ
/// on erasure shots — inside an erased cluster all pairings cost the same
/// and the two backends break the tie differently — so flip equality is
/// asserted only for erasure-free shots (where the paths are unique-cost).
#[test]
fn sparse_erasure_overlay_matches_dense_weight() {
    for (d, rounds, seed) in [(3usize, 4usize, 51u64), (5, 4, 67)] {
        let (graph, dem) = setup(d, rounds);
        let mut syndromes = random_syndromes(&graph, &dem, 120, seed);
        // Half the shots carry erasures; the rest interleave to exercise
        // overlay apply/restore on warm scratch.
        attach_random_erasures(&graph, &mut syndromes[..60], seed ^ 0xE5A5);
        let mut dense_dec = MwpmBatchDecoder::new(&graph);
        let mut sparse_dec = SparseMwpmDecoder::new(&graph);
        for (i, syndrome) in syndromes.iter().enumerate() {
            let a = dense_dec.decode(syndrome, None);
            let b = sparse_dec.decode(syndrome, None);
            assert_eq!(
                scale_weight(a.weight),
                scale_weight(b.weight),
                "d={d} shot {i} ({} erasures): weight diverged (dense {} vs sparse {})",
                syndrome.erasures.len(),
                a.weight,
                b.weight
            );
            if syndrome.erasures.is_empty() {
                assert_eq!(a.flip, b.flip, "d={d} shot {i}: erasure-free flip diverged");
            }
        }
    }
}

#[test]
fn per_thread_instances_decode_identically() {
    let (graph, dem) = setup(3, 3);
    let syndromes = random_syndromes(&graph, &dem, 60, 7);
    let paths = Arc::new(ShortestPaths::compute(&graph));
    let flips: Vec<Vec<bool>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let (graph, paths, syndromes) = (&graph, &paths, &syndromes);
                scope.spawn(move || {
                    let mut decoder = MwpmBatchDecoder::with_paths(graph, Arc::clone(paths));
                    let out = decode_all(&mut decoder, syndromes);
                    out.iter().map(|o| o.flip).collect::<Vec<bool>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    for other in &flips[1..] {
        assert_eq!(&flips[0], other, "thread-local instances diverged");
    }
}

/// Random erasure sets: all edges incident to 1–3 random nodes (the shape
/// the runtime produces from leakage flags), deterministic in `seed`.
fn attach_random_erasures(graph: &DecodingGraph, syndromes: &mut [Syndrome], seed: u64) {
    let mut rng = Rng::new(seed);
    for syndrome in syndromes.iter_mut() {
        let hubs = 1 + rng.below(3);
        for _ in 0..hubs {
            let node = rng.below(graph.num_nodes() as u64) as usize;
            syndrome.erasures.extend_from_slice(graph.incident(node));
        }
        syndrome.erasures.sort_unstable();
        syndrome.erasures.dedup();
    }
}

/// An empty erasure set must decode **bit-identically** to the pre-overlay
/// path, for all three decoders — even on an instance whose overlay scratch
/// is warm from erasure-carrying shots.
#[test]
fn empty_erasure_set_is_bit_identical_to_plain_path() {
    let (graph, dem) = setup(3, 3);
    let plain = random_syndromes(&graph, &dem, 60, 21);
    let with_empty: Vec<Syndrome> = plain
        .iter()
        .map(|s| Syndrome::with_erasures(s.defects.clone(), Vec::new()))
        .collect();
    let mut erasure_warmup = plain.clone();
    attach_random_erasures(&graph, &mut erasure_warmup, 77);

    let instances = backends(&graph)
        .into_iter()
        .zip(backends(&graph))
        .zip(backends(&graph));
    for (((kind, mut reference), (_, mut fresh)), (_, mut warm)) in instances {
        let out_ref = decode_all(reference.as_mut(), &plain);

        // Fresh instance, same defects but through `with_erasures(.., [])`.
        let out = decode_all(fresh.as_mut(), &with_empty);
        for (a, b) in out_ref.iter().zip(&out) {
            assert!(
                same_prediction(a, b),
                "[{kind}] empty erasure set diverged: {a:?} vs {b:?}"
            );
        }

        // Warm the overlay scratch with erasure-carrying shots, then decode
        // the empty-erasure batch again: still bit-identical.
        decode_all(warm.as_mut(), &erasure_warmup);
        let out = decode_all(warm.as_mut(), &with_empty);
        for (a, b) in out_ref.iter().zip(&out) {
            assert!(
                same_prediction(a, b),
                "[{kind}] warm-overlay empty-erasure decode diverged: {a:?} vs {b:?}"
            );
        }
    }
}

/// Warm `WeightOverlay` scratch must be deterministic: repeated batches of
/// erasure-carrying syndromes on one reused instance reproduce themselves
/// bit-for-bit and match a fresh instance.
#[test]
fn warm_overlay_scratch_is_deterministic_across_batches() {
    let (graph, dem) = setup(3, 3);
    let mut syndromes = random_syndromes(&graph, &dem, 80, 5);
    attach_random_erasures(&graph, &mut syndromes, 99);
    assert!(syndromes.iter().any(|s| !s.erasures.is_empty()));

    for ((kind, mut decoder), (_, mut fresh)) in backends(&graph).into_iter().zip(backends(&graph))
    {
        let first = decode_all(decoder.as_mut(), &syndromes);
        let second = decode_all(decoder.as_mut(), &syndromes);
        for (a, b) in first.iter().zip(&second) {
            assert!(
                same_prediction(a, b),
                "[{kind}] warm overlay rerun diverged: {a:?} vs {b:?}"
            );
        }
        let fresh_out = decode_all(fresh.as_mut(), &syndromes);
        for (a, b) in first.iter().zip(&fresh_out) {
            assert!(
                same_prediction(a, b),
                "[{kind}] warm vs fresh instance diverged: {a:?} vs {b:?}"
            );
        }
    }
}

/// Erasing every edge along a defect pair's shortest path drives the pair's
/// matched weight to ~0 — the overlay is actually consuming the erasures.
#[test]
fn erasures_reduce_matched_weight() {
    let (graph, _) = setup(3, 3);
    // Pick a bulk edge and erase it: its two endpoint defects become free.
    let ei = graph
        .edges()
        .iter()
        .position(|e| e.b != graph.boundary())
        .expect("bulk edge");
    let e = &graph.edges()[ei];
    let mut decoder = MwpmBatchDecoder::new(&graph);
    let plain = decoder.decode(&Syndrome::new(vec![e.a, e.b]), None);
    let erased = decoder.decode(&Syndrome::with_erasures(vec![e.a, e.b], vec![ei]), None);
    assert!(plain.weight > 0.1, "paths have real weight: {plain:?}");
    assert!(
        erased.weight < plain.weight,
        "erasure must cheapen the correction: {erased:?} vs {plain:?}"
    );
    assert_eq!(
        erased.flip, e.flips_observable,
        "parity rides the erased edge"
    );
}
