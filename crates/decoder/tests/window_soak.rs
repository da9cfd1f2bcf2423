//! Long-memory soak: d=5 over R=1000 rounds must decode under the windowed
//! path with peak decoder memory **independent of R** and stable, bounded
//! per-shot allocations.
//!
//! Monolithic MWPM at this size is impractical — the all-pairs table would
//! hold (12012+1)² ≈ 1.4·10⁸ entries ≈ 0.58 GB at 4 bytes each. The window plan
//! instead carries a handful of O(window²) shapes plus thin O(R) position
//! maps; this suite pins those properties with a counting **and
//! byte-tracking** global allocator (the same harness idea as
//! `tests/alloc.rs`, extended with live/peak byte accounting — it lives in
//! its own integration-test binary so the global counters see no
//! interference from concurrently running tests).

use qec_core::circuit::DetectorBasis;
use qec_core::{NoiseParams, Rng};
use qec_decoder::{build_dem, DecoderKind, DecodingGraph, StreamingDecoder, WindowPlan};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use surface_code::{MemoryExperiment, RotatedCode};

struct TrackingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn live_bytes() -> i64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

fn graph_for_rounds(rounds: usize) -> DecodingGraph {
    let exp = MemoryExperiment::new(RotatedCode::new(5), NoiseParams::standard(1e-3), rounds);
    let detectors = exp.detectors();
    let dem = build_dem(&exp.base_circuit(), &detectors, &exp.observable_keys());
    DecodingGraph::from_dem(&dem, &detectors, DetectorBasis::Z)
}

/// Pre-sampled streaming shots: per shot, per round, the defect list — plus
/// an occasional erasure set — shaped like a p≈1e-3 run.
/// One streaming shot: (defects per round, erasure edges per round).
type StreamedShot = (Vec<Vec<usize>>, Vec<Vec<usize>>);

fn sample_shots(graph: &DecodingGraph, n_shots: usize) -> Vec<StreamedShot> {
    let mut rng = Rng::new(0x50AC);
    let span = graph.max_round() + 1;
    let mut shots = Vec::with_capacity(n_shots);
    for _ in 0..n_shots {
        let mut events = vec![false; graph.num_nodes()];
        // A long-memory shot accumulates many scattered faults.
        for _ in 0..span / 4 {
            let v = rng.below(graph.num_nodes() as u64) as usize;
            for &ei in graph.incident(v).iter().take(1) {
                let e = &graph.edges()[ei];
                events[e.a] ^= true;
                if e.b != graph.boundary() {
                    events[e.b] ^= true;
                }
            }
        }
        let mut by_round = vec![Vec::new(); span];
        for v in (0..graph.num_nodes()).filter(|&v| events[v]) {
            by_round[graph.node_round(v)].push(v);
        }
        let mut erasures = vec![Vec::new(); span];
        for r in (7..span).step_by(97) {
            let v = rng.below(graph.num_nodes() as u64) as usize;
            erasures[r].extend_from_slice(graph.incident(v));
        }
        shots.push((by_round, erasures));
    }
    shots
}

fn run_shots(dec: &mut dyn StreamingDecoder, shots: &[StreamedShot]) -> u64 {
    let mut flips = 0;
    for (by_round, erasures) in shots {
        dec.begin_shot();
        for (defects, erased) in by_round.iter().zip(erasures) {
            dec.push_round(defects, erased);
        }
        flips += u64::from(dec.finish().flip);
    }
    flips
}

#[test]
fn d5_r1000_windowed_decode_has_r_independent_peak_memory() {
    // Two experiment lengths, same window shape. (One #[test]: the global
    // counters must not interleave with another test's allocations.)
    let (window, stride) = (15usize, 10usize);

    let graph_short = graph_for_rounds(400);
    let plan_short = WindowPlan::new(&graph_short, window, stride, DecoderKind::Mwpm);

    let graph_long = graph_for_rounds(1000);
    let before_plan = live_bytes();
    let plan_long = WindowPlan::new(&graph_long, window, stride, DecoderKind::Mwpm);
    let plan_footprint = live_bytes() - before_plan;

    // (1) Shape count — and with it the APSP footprint — is independent of
    // R: the bulk windows are time-translation invariant.
    assert_eq!(
        plan_short.num_shapes(),
        plan_long.num_shapes(),
        "shape count must not grow with R"
    );
    assert!(plan_long.num_shapes() <= 4, "O(1) window shapes");
    assert!(plan_long.num_positions() >= 99);

    // (2) The plan's resident footprint is megabytes, not the ~0.58 GB the
    // monolithic APSP would need at this size; only the thin per-position
    // edge maps grow (linearly) with R.
    assert!(
        plan_footprint < (16 << 20),
        "plan footprint {plan_footprint} bytes"
    );
    assert!(
        plan_long.approx_decoder_bytes() < (8 << 20),
        "decode-state estimate {} bytes",
        plan_long.approx_decoder_bytes()
    );
    let per_shape_estimate = |p: &WindowPlan| p.approx_decoder_bytes() - p.num_positions() * 600;
    // APSP/shape tables at R=1000 cost the same as at R=400.
    let (short_est, long_est) = (
        per_shape_estimate(&plan_short),
        per_shape_estimate(&plan_long),
    );
    assert!(
        long_est < short_est + (1 << 20),
        "shape tables must not scale with R: {short_est} -> {long_est}"
    );

    // (3) Per-shot decoder allocations are bounded: decoding the same warm
    // batch twice costs an identical allocation count (nothing accumulates)
    // and leaves live bytes unchanged (nothing leaks, peak stays flat no
    // matter how many shots stream through).
    let shots = sample_shots(&graph_long, 12);
    let mut dec = plan_long.streaming();
    let warm_flips = run_shots(&mut dec, &shots);
    run_shots(&mut dec, &shots);

    let live_before = live_bytes();
    let count_before = allocations();
    let flips_a = run_shots(&mut dec, &shots);
    let first = allocations() - count_before;
    let live_mid = live_bytes();
    let count_mid = allocations();
    let flips_b = run_shots(&mut dec, &shots);
    let second = allocations() - count_mid;
    let live_after = live_bytes();

    assert_eq!(flips_a, warm_flips, "decode is deterministic");
    assert_eq!(flips_a, flips_b);
    assert_eq!(
        first, second,
        "repeated warm windowed batches must cost identically"
    );
    assert_eq!(
        live_before, live_mid,
        "steady-state decoding must not grow live memory"
    );
    assert_eq!(live_mid, live_after);
}
