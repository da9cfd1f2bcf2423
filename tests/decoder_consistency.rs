//! Cross-crate decoder checks: code-distance suppression, decoder agreement,
//! and the MWPM-vs-union-find accuracy relationship on real circuits.

use eraser_repro::eraser_core::{DecoderKind, Experiment, PolicyKind};
use eraser_repro::qec_core::circuit::DetectorBasis;
use eraser_repro::qec_core::NoiseParams;
use eraser_repro::qec_decoder::{
    build_dem, DecodingGraph, MwpmBatchDecoder, Syndrome, SyndromeDecoder, UnionFindBatchDecoder,
};
use eraser_repro::surface_code::{MemoryExperiment, RotatedCode};

fn pauli_only(d: usize, rounds: usize) -> Experiment {
    Experiment::builder()
        .distance(d)
        .noise(NoiseParams::without_leakage(3e-3))
        .rounds(rounds)
        .shots(1500)
        .seed(5)
        .build()
        .expect("valid experiment")
}

#[test]
fn increasing_distance_suppresses_pauli_errors() {
    // Without leakage and below threshold, LER must drop with distance.
    let ler3 = pauli_only(3, 9).run().ler();
    let ler5 = pauli_only(5, 15).run().ler();
    assert!(
        ler5 < ler3,
        "distance must suppress errors below threshold: d3 {ler3}, d5 {ler5}"
    );
}

#[test]
fn union_find_ler_close_to_mwpm() {
    let mut exp = Experiment::builder()
        .distance(3)
        .noise(NoiseParams::standard(3e-3))
        .rounds(9)
        .shots(1500)
        .seed(9)
        .decoder(DecoderKind::Mwpm)
        .build()
        .expect("valid experiment");
    let mwpm = exp.run().ler();
    exp.set_decoder(DecoderKind::UnionFind);
    let uf = exp.run().ler();
    assert!(
        uf >= mwpm * 0.8,
        "UF cannot beat exact matching by much: {uf} vs {mwpm}"
    );
    assert!(
        uf <= mwpm * 2.5,
        "UF must stay near MWPM accuracy: {uf} vs {mwpm}"
    );
}

#[test]
fn decoders_agree_on_most_sampled_syndromes() {
    let exp = MemoryExperiment::new(RotatedCode::new(3), NoiseParams::standard(1e-3), 3);
    let detectors = exp.detectors();
    let dem = build_dem(&exp.base_circuit(), &detectors, &exp.observable_keys());
    let graph = DecodingGraph::from_dem(&dem, &detectors, DetectorBasis::Z);
    let mut mwpm = MwpmBatchDecoder::new(&graph);
    let mut uf = UnionFindBatchDecoder::new(&graph);

    let mut rng = eraser_repro::qec_core::Rng::new(2718);
    let mut agree = 0;
    let trials = 200;
    let mut syndrome = Syndrome::default();
    for _ in 0..trials {
        let mut events = vec![false; graph.num_nodes()];
        for _ in 0..(1 + rng.below(3)) {
            let mech = &dem.mechanisms[rng.below(dem.mechanisms.len() as u64) as usize];
            for &det in &mech.detectors {
                if let Some(node) = graph.node_of_detector(det) {
                    events[node] ^= true;
                }
            }
        }
        syndrome.clear();
        syndrome
            .defects
            .extend((0..graph.num_nodes()).filter(|&n| events[n]));
        if mwpm.decode(&syndrome, None).flip == uf.decode(&syndrome, None).flip {
            agree += 1;
        }
    }
    assert!(
        agree as f64 / trials as f64 > 0.9,
        "decoder agreement too low: {agree}/{trials}"
    );
}

#[test]
fn auto_decoder_picks_mwpm_for_small_graphs() {
    let exp = Experiment::builder()
        .distance(3)
        .rounds(2)
        .shots(10)
        .seed(1)
        .build()
        .expect("valid experiment");
    // The facade resolves Auto through the same single-source rule the
    // runtime applies, so prediction and run report must agree.
    assert_eq!(exp.resolved_decoder(), DecoderKind::Mwpm);
    let result = exp.run();
    assert_eq!(result.decoder, "mwpm");
}

#[test]
fn lpr_only_runs_skip_decoding() {
    let result = Experiment::builder()
        .distance(3)
        .rounds(4)
        .shots(20)
        .seed(1)
        .decode(false)
        .policy(PolicyKind::NoLrc)
        .build()
        .expect("valid experiment")
        .run();
    assert_eq!(result.decoder, "none");
    assert_eq!(result.logical_errors, 0);
    assert_eq!(result.lpr_total.len(), 4);
}
