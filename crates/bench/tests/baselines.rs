//! Committed benchmark baselines must stay well-formed: CI's bench smoke
//! step runs the harnesses for one quick iteration and then relies on
//! these checks to guarantee `results/BENCH_*.json` parse (the harness
//! emits the JSON by hand, so a formatting regression would otherwise
//! surface only when someone's tooling chokes on a baseline).

use eraser_json::Value;
use std::path::PathBuf;

/// Reads and parses a committed baseline with the shared `eraser_json`
/// parser (the same code that wrote it).
fn read_baseline(file: &str) -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(file);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("baseline {} must be committed: {e}", path.display()));
    Value::parse(&text).unwrap_or_else(|e| panic!("{file} must be valid JSON: {e}"))
}

/// Validator for the harness's shape:
/// `{"benches": [{"name": "...", "ns_per_iter": 123.4}, ...]}`.
/// Returns the (name, ns) pairs.
fn parse_baseline(file: &str) -> Vec<(String, f64)> {
    let doc = read_baseline(file);
    let benches = doc
        .get("benches")
        .and_then(|b| b.as_array())
        .unwrap_or_else(|| panic!("{file}: missing benches array"));
    let entries: Vec<(String, f64)> = benches
        .iter()
        .map(|entry| {
            let name = entry
                .get("name")
                .and_then(|n| n.as_str())
                .unwrap_or_else(|| panic!("{file}: entry without a name"))
                .to_string();
            let ns = entry
                .get("ns_per_iter")
                .and_then(|n| n.as_f64())
                .unwrap_or_else(|| panic!("{file}: `{name}` lacks ns_per_iter"));
            assert!(ns.is_finite() && ns > 0.0, "{file}: bad timing for {name}");
            (name, ns)
        })
        .collect();
    assert!(!entries.is_empty(), "{file}: no bench entries");
    entries
}

#[test]
fn bench_sim_baseline_parses_and_records_the_stripe_speedup() {
    let entries = parse_baseline("BENCH_sim.json");
    let find = |name: &str| {
        entries
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("BENCH_sim.json must record `{name}`"))
            .1
    };
    // The runner's d=7 memory benchmark stays the committed throughput
    // baseline.
    find("memory_run_512shots/d7/striped64");
    // The committed baseline must document the word-parallel kernel win:
    // one 64-shot striped round at least 5× faster than 64 scalar rounds,
    // at every distance.
    for d in [3, 7, 11] {
        let scalar = 64.0 * find(&format!("frame_sim_round/d{d}"));
        let striped = find(&format!("frame_sim_round_striped64/d{d}"));
        assert!(
            scalar / striped >= 5.0,
            "d={d}: committed baseline shows {:.2}× (64 scalar rounds {scalar} ns vs \
             one striped round {striped} ns)",
            scalar / striped
        );
    }
}

#[test]
fn bench_sim_baseline_bounds_the_adaptive_controller_overhead() {
    let entries = parse_baseline("BENCH_sim.json");
    let find = |name: &str| {
        entries
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("BENCH_sim.json must record `{name}`"))
            .1
    };
    let eraser = find("policy_round/d7/eraser");
    let ewma = find("policy_round/d7/adaptive-ewma");
    let budget = find("policy_round/d7/adaptive-budget");
    // The adaptive controller's steady-state planning cost (quiet syndrome,
    // base = ERASER) must stay within 10% of the static policy it wraps:
    // the per-round bookkeeping is two signal scans and an integer EWMA.
    assert!(
        ewma / eraser <= 1.10,
        "committed baseline shows {:.1}% EWMA-controller overhead \
         (eraser {eraser} ns vs adaptive-ewma {ewma} ns)",
        (ewma / eraser - 1.0) * 100.0
    );
    // The budget law adds a quota check on top; keep it bounded too.
    assert!(
        budget / eraser <= 1.25,
        "committed baseline shows {:.1}% budget-controller overhead \
         (eraser {eraser} ns vs adaptive-budget {budget} ns)",
        (budget / eraser - 1.0) * 100.0
    );
}

#[test]
fn bench_sim_baseline_records_the_word_parallel_planning_win() {
    let entries = parse_baseline("BENCH_sim.json");
    let find = |name: &str| {
        entries
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("BENCH_sim.json must record `{name}`"))
            .1
    };
    for name in [
        "policy_round_striped64/d11/eraser",
        "policy_round_striped64/d7/eraser-m",
        "policy_round_striped64/d11/eraser-m",
    ] {
        find(name);
    }
    // The native word planner plans a 64-lane ERASER stripe for at most
    // 4× one lane's scalar planning: at least 16× cheaper per lane.
    let lane = find("policy_round/d7/eraser");
    let stripe = find("policy_round_striped64/d7/eraser");
    assert!(
        stripe / lane <= 4.0,
        "committed baseline shows a 64-lane stripe at {:.2}× one lane \
         (policy_round/d7/eraser {lane} ns vs policy_round_striped64/d7/eraser {stripe} ns)",
        stripe / lane
    );
}

#[test]
fn bench_decoders_baseline_parses() {
    let entries = parse_baseline("BENCH_decoders.json");
    assert!(entries.iter().any(|(n, _)| n.contains("decode_batch")));
    let cores = read_baseline("BENCH_decoders.json")
        .get("cores")
        .and_then(|c| c.as_u64())
        .unwrap_or_else(|| panic!("BENCH_decoders.json must record the host `cores` count"));
    assert!(cores >= 1, "recorded core count must be positive: {cores}");
}

#[test]
fn bench_decoders_baseline_records_the_windowed_speedup() {
    let entries = parse_baseline("BENCH_decoders.json");
    let find = |name: &str| {
        entries
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("BENCH_decoders.json must record `{name}`"))
            .1
    };
    let mono = find("decode_window_shot/d7_r110/monolithic_mwpm");
    let windowed = find("decode_window_shot/d7_r110/windowed_tiered_mwpm");
    // Both benches decode the same d=7, 110-round shot, so the per-shot
    // ratio *is* the ns/round ratio. The committed baseline must document
    // the windowed win: ≥3× on the paper's long-memory workload (blossom's
    // O(k³) is paid per window-sized defect set, not per shot-sized one).
    assert!(
        mono / windowed >= 3.0,
        "committed baseline shows {:.2}× (monolithic {mono} ns vs windowed {windowed} ns)",
        mono / windowed
    );
}

#[test]
fn bench_decoders_baseline_records_the_sparse_blossom_speedup() {
    let entries = parse_baseline("BENCH_decoders.json");
    let find = |name: &str| {
        entries
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("BENCH_decoders.json must record `{name}`"))
            .1
    };
    let dense = find("decode_batch_32/d7_r35_cold/mwpm");
    let sparse = find("decode_batch_32/d7_r35_cold/sparse-mwpm");
    // Both benches decode the same realistic 32-shot d=7 batch end to end
    // (table precomputation + decode) at identical optimal correction
    // weight. The committed baseline must document the sparse-blossom win:
    // ≥2× per cold cell, driven by the O(V) boundary index replacing the
    // dense O(V²) all-pairs table — the gap that makes MWPM-accuracy
    // decoding viable past `DecoderKind::AUTO_MWPM_NODE_LIMIT`.
    assert!(
        dense / sparse >= 2.0,
        "committed baseline shows {:.2}× (dense {dense} ns vs sparse {sparse} ns)",
        dense / sparse
    );
}

#[test]
fn bench_serve_baseline_records_the_artifact_cache_win() {
    // `eraser-serve loadgen --json` writes this one (see crates/serve); the
    // shape differs from the harness files, so it gets its own validator.
    let doc = read_baseline("BENCH_serve.json");
    let serve = doc
        .get("serve")
        .unwrap_or_else(|| panic!("BENCH_serve.json: missing `serve` object"));
    let get = |key: &str| {
        serve
            .get(key)
            .and_then(|v| v.as_f64())
            .unwrap_or_else(|| panic!("BENCH_serve.json: missing numeric `{key}`"))
    };

    // The committed baseline must document the tentpole claim: a warm
    // server answers the d=7 reference job at least 2× faster than a cold
    // one, because the artifact cache absorbs the DEM + APSP builds.
    let speedup = get("warm_speedup");
    assert!(
        speedup >= 2.0,
        "committed baseline shows only {speedup:.2}× warm-over-cold"
    );
    let cold = get("cold_job_micros");
    let warm = get("warm_job_micros");
    assert!(
        cold > warm && warm > 0.0,
        "cold {cold} µs vs warm {warm} µs"
    );

    // Sanity on the throughput phase.
    assert!(get("jobs_per_sec") > 0.0);
    assert!(get("p99_job_micros") >= get("p50_job_micros"));
    let hit_rate = get("cache_hit_rate");
    assert!(
        hit_rate > 0.0 && hit_rate <= 1.0,
        "steady-state hit rate {hit_rate} should be in (0, 1]"
    );
    assert_eq!(
        serve.get("quick").and_then(|v| v.as_bool()),
        Some(false),
        "baselines must come from a full (non --quick) loadgen run"
    );
}
