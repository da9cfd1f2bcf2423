//! Decoder stack performance: detector-error-model construction, the
//! stateful decoders on 32-shot batches, shared precomputation
//! amortization, and raw blossom throughput.
//!
//! Baseline numbers are recorded to `results/BENCH_decoders.json` via
//! `ERASER_BENCH_JSON=$PWD/results/BENCH_decoders.json cargo bench -p eraser-bench --bench decoders`
//! (absolute path: cargo runs benches from the package directory).

use eraser_bench::{decode_fixture, Harness};
use qec_core::circuit::DetectorBasis;
use qec_core::NoiseParams;
use qec_decoder::{
    build_dem, max_weight_matching, DecoderKind, DecodingGraph, MwpmBatchDecoder, ShortestPaths,
    SparseMwpmDecoder, StreamingDecoder, Syndrome, SyndromeDecoder, UnionFindBatchDecoder,
    WindowGraph, WindowPlan,
};
use std::hint::black_box;
use std::sync::Arc;
use surface_code::{MemoryExperiment, RotatedCode};

fn main() {
    let h = Harness::from_args();

    // d = 7, R = 70 is the `stream-d7` benchmark's model (61k mechanisms).
    for (d, rounds) in [(3usize, 3usize), (5, 5), (7, 70)] {
        let name = format!("dem_build/d{d}_r{rounds}");
        if !h.matches(&name) {
            continue;
        }
        let exp = MemoryExperiment::new(RotatedCode::new(d), NoiseParams::standard(1e-3), rounds);
        let detectors = exp.detectors();
        let observable = exp.observable_keys();
        let circuit = exp.base_circuit();
        h.bench(&name, || {
            build_dem(black_box(&circuit), &detectors, &observable)
        });
    }

    {
        let fixture = decode_fixture(5, 5, 1);
        let exp = MemoryExperiment::new(RotatedCode::new(5), NoiseParams::standard(1e-3), 5);
        let detectors = exp.detectors();
        h.bench("graph_from_dem_d5", || {
            DecodingGraph::from_dem(black_box(&fixture.dem), &detectors, DetectorBasis::Z)
        });
    }

    // Shared-precomputation amortization: the O(n²) shortest-path table is
    // paid once per graph; every further per-thread instance
    // (`MwpmBatchDecoder::with_paths`) is a cheap Arc clone plus empty
    // scratch. The gap between these two numbers is what `Arc`-sharing
    // saves per extra worker thread.
    {
        let fixture = decode_fixture(5, 10, 1);
        h.bench("shortest_paths_compute/d5_r10", || {
            ShortestPaths::compute(black_box(&fixture.graph))
        });
        let paths = Arc::new(ShortestPaths::compute(&fixture.graph));
        h.bench("mwpm_thread_instance_build/d5_r10", || {
            MwpmBatchDecoder::with_paths(&fixture.graph, Arc::clone(&paths))
        });
    }

    // One bulk window shape of the `stream-d7` plan (d = 7, R = 70, 21-round
    // windows): the table every dense window of that workload decodes on.
    if h.matches("shortest_paths_compute/d7_r70_w21") {
        let fixture = decode_fixture(7, 70, 0);
        let shape = WindowGraph::build(&fixture.graph, 14, 34);
        h.bench("shortest_paths_compute/d7_r70_w21", || {
            ShortestPaths::compute(black_box(shape.graph()))
        });
    }

    // Stateful batch decoding (32 shots per iteration, one reused instance)
    // for all three decoders.
    {
        let fixture = decode_fixture(5, 10, 32);
        let syndromes: Vec<Syndrome> = fixture
            .syndromes
            .iter()
            .map(|s| Syndrome::new(s.clone()))
            .collect();
        let mut decoders: [(DecoderKind, Box<dyn SyndromeDecoder>); 3] = [
            (
                DecoderKind::Mwpm,
                Box::new(MwpmBatchDecoder::new(&fixture.graph)),
            ),
            (
                DecoderKind::SparseMwpm,
                Box::new(SparseMwpmDecoder::new(&fixture.graph)),
            ),
            (
                DecoderKind::UnionFind,
                Box::new(UnionFindBatchDecoder::new(&fixture.graph)),
            ),
        ];

        for (kind, decoder) in &mut decoders {
            h.bench(&format!("decode_batch_32/d5_r10/{kind}"), || {
                count_flips(decoder.as_mut(), black_box(&syndromes))
            });
        }

        // The same 32-shot batch through the erasure `WeightOverlay`: a
        // quarter of the shots carry the erasure set a leakage flag
        // produces (edges around 1–2 detector nodes). The gap versus the
        // plain `decode_batch_32` case is the overlay's total overhead
        // (budget: ≤10% on MWPM); the steady-state loop stays
        // allocation-free (asserted by `crates/decoder/tests/alloc.rs`).
        let mut rng = qec_core::Rng::new(0xE4A5);
        let erasure_syndromes: Vec<Syndrome> = syndromes
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut syndrome = s.clone();
                if i % 4 == 0 {
                    for _ in 0..1 + i % 2 {
                        let node = rng.below(fixture.graph.num_nodes() as u64) as usize;
                        syndrome
                            .erasures
                            .extend_from_slice(fixture.graph.incident(node));
                    }
                    syndrome.erasures.sort_unstable();
                    syndrome.erasures.dedup();
                }
                syndrome
            })
            .collect();
        for (kind, decoder) in &mut decoders {
            h.bench(&format!("decode_batch_32_erasure/d5_r10/{kind}"), || {
                count_flips(decoder.as_mut(), black_box(&erasure_syndromes))
            });
        }
    }

    // Dense vs sparse blossom on a realistic d=7 long-memory batch (32
    // shots, ~1 fault per round). Each iteration is the *cold* per-cell
    // cost a sweep cell or serve job pays on a fresh graph shape: build
    // the decoder (dense: the O(n²) all-pairs table — 82 ms at these 864
    // nodes; sparse: one O(E log V) boundary Dijkstra — 92 µs), then
    // decode the batch. Both return the same optimal correction weight
    // (`crates/decoder/tests/equivalence.rs`); the precomputation gap is
    // exactly why `DecoderKind::Auto` flips to sparse above
    // `AUTO_MWPM_NODE_LIMIT` nodes. The committed baseline asserts sparse
    // ≥2× dense end to end (`crates/bench/tests/baselines.rs`).
    let cold_kinds = [DecoderKind::Mwpm, DecoderKind::SparseMwpm];
    let cold_rows = cold_kinds.map(|kind| format!("decode_batch_32/d7_r35_cold/{kind}"));
    if h.matches_any(&cold_rows) {
        let (d, rounds) = (7usize, 35usize);
        let fixture = decode_fixture(d, rounds, 1);
        let mut rng = qec_core::Rng::new(0x735);
        let syndromes: Vec<Syndrome> = (0..32)
            .map(|_| {
                let mut events = vec![false; fixture.graph.num_nodes()];
                for _ in 0..rounds {
                    let mech = &fixture.dem.mechanisms
                        [rng.below(fixture.dem.mechanisms.len() as u64) as usize];
                    for &det in &mech.detectors {
                        if let Some(node) = fixture.graph.node_of_detector(det) {
                            events[node] ^= true;
                        }
                    }
                }
                Syndrome::new(
                    (0..fixture.graph.num_nodes())
                        .filter(|&n| events[n])
                        .collect(),
                )
            })
            .collect();
        for (kind, row) in cold_kinds.into_iter().zip(&cold_rows) {
            h.bench(row, || {
                let mut decoder: Box<dyn SyndromeDecoder> = match kind {
                    DecoderKind::SparseMwpm => Box::new(SparseMwpmDecoder::new(&fixture.graph)),
                    _ => Box::new(MwpmBatchDecoder::new(&fixture.graph)),
                };
                count_flips(decoder.as_mut(), black_box(&syndromes))
            });
        }
    }

    // Sliding-window streaming vs monolithic MWPM on the paper's
    // long-memory workload: one full d=7 shot over 110 rounds (realistic
    // ~p=3e-3 defect density). The committed baseline asserts windowed
    // ns/round beats monolithic by ≥3× (`crates/bench/tests/baselines.rs`)
    // — the window caps blossom's O(k³) at the per-window defect count while
    // the monolithic matcher pays the whole shot's. The heavy fixture (DEM +
    // 2665-node APSP) is skipped when the filter excludes these benches.
    let window_rows = [
        "decode_window_shot/d7_r110/monolithic_mwpm",
        "decode_window_shot/d7_r110/windowed_tiered_mwpm",
    ];
    if h.matches_any(&window_rows) {
        let (d, rounds) = (7usize, 110usize);
        let exp = MemoryExperiment::new(RotatedCode::new(d), NoiseParams::standard(1e-3), rounds);
        let detectors = exp.detectors();
        let dem = build_dem(&exp.base_circuit(), &detectors, &exp.observable_keys());
        let graph = DecodingGraph::from_dem(&dem, &detectors, DetectorBasis::Z);
        let mut rng = qec_core::Rng::new(0x110);
        let mut events = vec![false; graph.num_nodes()];
        for _ in 0..3 * rounds {
            let mech = &dem.mechanisms[rng.below(dem.mechanisms.len() as u64) as usize];
            for &det in &mech.detectors {
                if let Some(node) = graph.node_of_detector(det) {
                    events[node] ^= true;
                }
            }
        }
        let defects: Vec<usize> = (0..graph.num_nodes()).filter(|&n| events[n]).collect();
        let mut by_round: Vec<Vec<usize>> = vec![Vec::new(); graph.max_round() + 1];
        for &node in &defects {
            by_round[graph.node_round(node)].push(node);
        }
        let syndrome = Syndrome::new(defects);

        let mut mono = MwpmBatchDecoder::new(&graph);
        h.bench(window_rows[0], || {
            mono.decode(black_box(&syndrome), None).flip
        });

        // The windowed chain always runs the tier ladder. This shot is
        // dense (~3 faults per round), so nearly every window position
        // falls through to tier 2.
        let plan = WindowPlan::new(&graph, 21, 14, DecoderKind::Mwpm);
        let mut windowed = plan.streaming();
        h.bench(window_rows[1], || {
            windowed.begin_shot();
            for round in black_box(&by_round) {
                windowed.push_round(round, &[]);
            }
            windowed.finish().flip
        });
    }

    // Whole-shot decoding through one full-cover window, the way every
    // `serve-mix` job decodes: 256 shots of the d = 5, R = 15 cell at
    // p = 2e-3, sampled from the detector error model and streamed round by
    // round. The final (here: only) window reads just the flip, so dense
    // MWPM answers a tie whose optima share one flip without the blossom.
    if h.matches("decode_full_cover/d5_r15_p2e-3/mwpm") {
        let (d, rounds, p) = (5usize, 15usize, 2e-3);
        let exp = MemoryExperiment::new(RotatedCode::new(d), NoiseParams::standard(p), rounds);
        let detectors = exp.detectors();
        let dem = build_dem(&exp.base_circuit(), &detectors, &exp.observable_keys());
        let graph = DecodingGraph::from_dem(&dem, &detectors, DetectorBasis::Z);
        let mut rng = qec_core::Rng::new(0x5E2F);
        let shots: Vec<Vec<Vec<usize>>> = (0..256)
            .map(|_| {
                let mut events = vec![false; graph.num_nodes()];
                for mech in &dem.mechanisms {
                    if rng.bernoulli(mech.probability) {
                        for &det in &mech.detectors {
                            if let Some(node) = graph.node_of_detector(det) {
                                events[node] ^= true;
                            }
                        }
                    }
                }
                let mut by_round = vec![Vec::new(); graph.max_round() + 1];
                for node in (0..graph.num_nodes()).filter(|&n| events[n]) {
                    by_round[graph.node_round(node)].push(node);
                }
                by_round
            })
            .collect();
        let span = graph.max_round() + 1;
        let plan = WindowPlan::new(&graph, span, span, DecoderKind::Mwpm);
        let mut decoder = plan.streaming();
        h.bench("decode_full_cover/d5_r15_p2e-3/mwpm", || {
            let mut flips = 0;
            for shot in black_box(&shots) {
                decoder.begin_shot();
                for round in shot {
                    decoder.push_round(round, &[]);
                }
                flips += usize::from(decoder.finish().flip);
            }
            flips
        });
    }

    // Complete graph on 24 vertices with pseudorandom weights: the defect
    // graph size of a typical d=7 shot.
    {
        let mut edges = Vec::new();
        let mut state = 0x12345u64;
        for u in 0..24usize {
            for v in (u + 1)..24 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                edges.push((u, v, (state >> 33) as i64 % 1000));
            }
        }
        h.bench("blossom_k24", || {
            max_weight_matching(black_box(&edges), true)
        });

        // Same problem through a reused context: the per-shot allocation
        // savings of the scratch-reusing matcher core.
        let mut ctx = qec_decoder::MatchingContext::new();
        h.bench("blossom_k24_reused_context", || {
            ctx.solve(black_box(&edges), true).len()
        });
    }
}

/// Decodes `syndromes` in order on one instance; returns the flip count.
fn count_flips(decoder: &mut dyn SyndromeDecoder, syndromes: &[Syndrome]) -> usize {
    syndromes
        .iter()
        .filter(|s| decoder.decode(s, None).flip)
        .count()
}
