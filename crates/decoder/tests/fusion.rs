//! Fused ≡ sequential equivalence suite.
//!
//! The load-bearing guarantee of the partition + fusion decode path: at
//! **every** fusion thread count, for **all three** backends, with and
//! without erasure overlays, the [`FusionDecoder`] outcome is bit-identical
//! to the sequential [`WindowedDecoder`] — same flip, the exact same f64
//! weight bits, same defect count. The speculative leaf carries and the
//! merge-tree fix-up must be unobservable.

use qec_core::circuit::DetectorBasis;
use qec_core::{NoiseParams, Rng};
use qec_decoder::{
    build_dem, DecodingGraph, DetectorErrorModel, FusionDecoder, FusionPlan, FusionPool,
    StreamingDecoder, WindowBackend, WindowPlan,
};
use std::sync::Arc;
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

/// Samples a random multi-fault shot: per-round ascending defect groups plus
/// (on a third of the shots) a per-round erasure overlay heralded around a
/// random defect-adjacent node, like the runtime's leakage read path.
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
            let r = graph.node_round(v);
            erasures_by_round[r].extend_from_slice(graph.incident(v));
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

/// The tentpole property: fused output is bit-identical to the sequential
/// windowed path across fusion_threads ∈ {1, 2, 3, 8} × all three backends ×
/// erasure overlays. The d=3, R=17 span yields 8 window positions at
/// (w=6, s=2), so thread counts 3 and 8 exercise ragged and degenerate
/// (leaf-per-position) partitions on top of the even ones.
#[test]
fn fused_is_bit_identical_to_sequential_windowed() {
    let (graph, dem) = setup(3, 17);
    let (window, stride) = (6usize, 2usize);
    for backend in BACKENDS {
        let plan = Arc::new(WindowPlan::new(&graph, window, stride, backend));
        assert!(plan.num_positions() >= 7, "got {}", plan.num_positions());
        let mut sequential = plan.streaming();
        for threads in [1usize, 2, 3, 8] {
            let fplan = FusionPlan::new(Arc::clone(&plan), threads);
            let pool = Arc::new(FusionPool::new(threads));
            let mut fused = FusionDecoder::new(&fplan, pool);
            let mut rng = Rng::new(0xF051 ^ (threads as u64) << 8 ^ backend.name().len() as u64);
            for trial in 0..60 {
                let faults = 1 + trial % 7;
                let (defects, erasures) =
                    sample_shot(&graph, &dem, &mut rng, faults, trial % 3 == 0);
                let seq = stream_shot(&mut sequential, &defects, &erasures);
                let fus = stream_shot(&mut fused, &defects, &erasures);
                assert_eq!(
                    fus.flip,
                    seq.flip,
                    "[{} × {threads}t] trial {trial}: flip diverged",
                    backend.name()
                );
                assert_eq!(
                    fus.weight.to_bits(),
                    seq.weight.to_bits(),
                    "[{} × {threads}t] trial {trial}: weight not bit-identical \
                     (fused {} vs sequential {})",
                    backend.name(),
                    fus.weight,
                    seq.weight
                );
                assert_eq!(fus.defects, seq.defects);
            }
        }
    }
}

/// Ragged partition: a round count that doesn't divide into the leaf size
/// (11 positions over 4 threads → leaves of 3/3/3/2, odd block at every
/// merge level) must still be bit-identical, erasures included.
#[test]
fn ragged_partitions_fuse_exactly() {
    let (graph, dem) = setup(3, 23);
    let plan = Arc::new(WindowPlan::new(&graph, 5, 2, WindowBackend::Mwpm));
    let positions = plan.num_positions();
    assert_eq!(
        positions % 4,
        3,
        "want a ragged 4-way split, got {positions}"
    );
    let mut sequential = plan.streaming();
    let fplan = FusionPlan::new(Arc::clone(&plan), 4);
    let sizes: Vec<usize> = fplan.leaves().iter().map(|l| l.len()).collect();
    assert_eq!(sizes.iter().sum::<usize>(), positions);
    assert_eq!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap(), 1);
    let pool = Arc::new(FusionPool::new(4));
    let mut fused = FusionDecoder::new(&fplan, pool);
    let mut rng = Rng::new(0x4A66);
    for trial in 0..150 {
        let (defects, erasures) =
            sample_shot(&graph, &dem, &mut rng, 1 + trial % 9, trial % 2 == 0);
        let seq = stream_shot(&mut sequential, &defects, &erasures);
        let fus = stream_shot(&mut fused, &defects, &erasures);
        assert_eq!(fus.flip, seq.flip, "trial {trial}");
        assert_eq!(fus.weight.to_bits(), seq.weight.to_bits(), "trial {trial}");
    }
}

/// More fusion threads than window positions: the partition clamps to one
/// leaf per position and the tree still fuses to the sequential outcome.
#[test]
fn more_threads_than_positions_degenerates_cleanly() {
    let (graph, dem) = setup(3, 6);
    let plan = Arc::new(WindowPlan::new(&graph, 4, 3, WindowBackend::UnionFind));
    let positions = plan.num_positions();
    let fplan = FusionPlan::new(Arc::clone(&plan), 16);
    assert_eq!(fplan.leaves().len(), positions.min(16));
    assert!(fplan.leaves().iter().all(|l| !l.is_empty()));
    let pool = Arc::new(FusionPool::new(4));
    let mut sequential = plan.streaming();
    let mut fused = FusionDecoder::new(&fplan, pool);
    let mut rng = Rng::new(0xDE6E);
    for trial in 0..80 {
        let (defects, erasures) = sample_shot(&graph, &dem, &mut rng, 1 + trial % 5, false);
        let seq = stream_shot(&mut sequential, &defects, &erasures);
        let fus = stream_shot(&mut fused, &defects, &erasures);
        assert_eq!(fus.flip, seq.flip, "trial {trial}");
        assert_eq!(fus.weight.to_bits(), seq.weight.to_bits(), "trial {trial}");
    }
}

/// The fused latency probe: exactly one `(wall nanos, span rounds)` sample
/// per shot, covering the whole round span.
#[test]
fn fused_latency_is_one_sample_per_shot() {
    let (graph, dem) = setup(3, 9);
    let plan = Arc::new(WindowPlan::new(&graph, 4, 2, WindowBackend::Mwpm));
    let fplan = FusionPlan::new(Arc::clone(&plan), 2);
    let pool = Arc::new(FusionPool::new(2));
    let mut fused = FusionDecoder::new(&fplan, pool);
    let mut rng = Rng::new(11);
    let (defects, erasures) = sample_shot(&graph, &dem, &mut rng, 4, false);
    stream_shot(&mut fused, &defects, &erasures);
    assert_eq!(fused.latency_samples().len(), 1);
    let (nanos, rounds) = fused.latency_samples()[0];
    assert!(nanos > 0);
    assert_eq!(rounds as usize, graph.max_round() + 1);
    assert_eq!(fused.name(), "mwpm");
}
