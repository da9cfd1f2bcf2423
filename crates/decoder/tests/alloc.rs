//! Steady-state allocation audit: the erasure `WeightOverlay` must add
//! **zero** heap allocations to the per-shot loop once a decoder instance is
//! warm — the guarantee the stateful decoder API makes for the Monte-Carlo
//! hot path.
//!
//! All three backends — union-find, dense MWPM and sparse MWPM — are fully
//! allocation-free in steady state, with or without erasures, and are
//! asserted at zero end to end: the blossom matcher keeps every working
//! list (blossom children, endpoints, best edges, leaf lists) in its reused
//! `MatchingContext`, and dense MWPM's certified solver keeps its DP memo.
//! The overlay machinery is also audited in isolation (apply →
//! effective_metrics → restore must be exactly zero).
//!
//! The test lives in its own integration-test binary so the counting global
//! allocator sees no interference from concurrently running tests.

use qec_core::circuit::DetectorBasis;
use qec_core::{NoiseParams, Rng};
use qec_decoder::{
    build_dem, DecoderFactory, DecodingGraph, MwpmFactory, ShortestPaths, SparseMwpmFactory,
    Syndrome, UnionFindFactory, WeightOverlay,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use surface_code::{MemoryExperiment, RotatedCode};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Graph plus 24 random syndromes, a third of them carrying erasure sets
/// (edges around 1–2 random nodes) — the runtime's typical shape.
fn fixture() -> (DecodingGraph, Vec<Syndrome>) {
    let exp = MemoryExperiment::new(RotatedCode::new(5), NoiseParams::standard(1e-3), 5);
    let detectors = exp.detectors();
    let dem = build_dem(&exp.base_circuit(), &detectors, &exp.observable_keys());
    let graph = DecodingGraph::from_dem(&dem, &detectors, DetectorBasis::Z);
    let mut rng = Rng::new(4242);
    let mut syndromes = Vec::new();
    for i in 0..24 {
        let mut events = vec![false; graph.num_nodes()];
        for _ in 0..4 {
            let mech = &dem.mechanisms[rng.below(dem.mechanisms.len() as u64) as usize];
            for &det in &mech.detectors {
                if let Some(node) = graph.node_of_detector(det) {
                    events[node] ^= true;
                }
            }
        }
        let mut erasures = Vec::new();
        if i % 3 == 0 {
            for _ in 0..1 + rng.below(2) {
                let node = rng.below(graph.num_nodes() as u64) as usize;
                erasures.extend_from_slice(graph.incident(node));
            }
            erasures.sort_unstable();
            erasures.dedup();
        }
        let defects = (0..graph.num_nodes()).filter(|&n| events[n]).collect();
        syndromes.push(Syndrome::build(defects).erasures(erasures).finish());
    }
    assert!(syndromes.iter().any(|s| !s.erasures.is_empty()));
    (graph, syndromes)
}

/// Decodes the batch twice to grow every scratch buffer to its
/// steady-state size, then asserts a third identical pass allocates nothing.
fn assert_warm_batch_is_allocation_free(
    name: &str,
    factory: &dyn DecoderFactory,
    syndromes: &[Syndrome],
) {
    let mut decoder = factory.build();
    let mut out = Vec::new();
    decoder.decode_batch(syndromes, &mut out);
    decoder.decode_batch(syndromes, &mut out);
    let before = allocations();
    decoder.decode_batch(syndromes, &mut out);
    let delta = allocations() - before;
    assert_eq!(
        delta, 0,
        "[{name}] steady-state decode_batch allocated {delta} times"
    );
}

/// One combined audit: the measurement phases share the single
/// process-global `ALLOCATIONS` counter, so they must run sequentially in
/// one `#[test]` — libtest would otherwise schedule them on parallel
/// threads and let one phase's allocations land inside another's
/// measurement window (observed as a rare count mismatch).
#[test]
fn warm_decoding_with_erasures_is_allocation_free() {
    let (graph, syndromes) = fixture();

    // The three backends, end to end.
    assert_warm_batch_is_allocation_free("union-find", &UnionFindFactory::new(&graph), &syndromes);
    assert_warm_batch_is_allocation_free("mwpm", &MwpmFactory::new(&graph), &syndromes);
    assert_warm_batch_is_allocation_free(
        "sparse-mwpm",
        &SparseMwpmFactory::new(&graph),
        &syndromes,
    );

    // The `WeightOverlay` itself (apply -> effective_metrics -> restore) is
    // allocation-free once warm.
    let paths = ShortestPaths::compute(&graph);
    let mut overlay = WeightOverlay::new();
    let (mut dist, mut par) = (Vec::new(), Vec::new());
    for _warmup in 0..2 {
        for s in &syndromes {
            if s.erasures.is_empty() {
                continue;
            }
            overlay.apply(&graph, &s.erasures);
            overlay.effective_metrics(&paths, &s.defects, graph.boundary(), &mut dist, &mut par);
            overlay.restore();
        }
    }
    let before = allocations();
    for s in &syndromes {
        if s.erasures.is_empty() {
            continue;
        }
        overlay.apply(&graph, &s.erasures);
        overlay.effective_metrics(&paths, &s.defects, graph.boundary(), &mut dist, &mut par);
        overlay.restore();
    }
    let delta = allocations() - before;
    assert_eq!(delta, 0, "warm overlay pass allocated {delta} times");
}
