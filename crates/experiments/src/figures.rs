//! One function per paper table/figure. Each prints a result table (with the
//! paper's reference numbers where they exist) and writes a CSV.
//!
//! Every figure goes through the [`Experiment`] facade; the distance sweeps
//! (Fig 14/16/17/20, Table 4) run on the [`Sweep`] engine, which caches
//! runner construction and streams points in grid order.

use crate::cli::Opts;
use crate::output::{fixed, ratio, sci, Table};
use crate::paper;
use eraser_core::{
    analysis, resource, rtl, ControlLawKind, DecoderKind, EraserOptions, Experiment,
    LeakageProfile, LrcProtocol, MemoryRunResult, NoiseModel, PolicyKind, Sweep, SweepPoint,
    TierCounters,
};
use qec_core::NoiseParams;
use surface_code::RotatedCode;

/// Builds the figure's experiment from the harness options.
fn experiment(
    opts: &Opts,
    d: usize,
    noise: NoiseParams,
    rounds: usize,
    protocol: LrcProtocol,
    decode: bool,
) -> Result<Experiment, String> {
    Experiment::builder()
        .distance(d)
        .noise(noise)
        .rounds(rounds)
        .shots(opts.effective_shots())
        .seed(opts.seed)
        .threads(opts.threads)
        .decoder(opts.decoder)
        .window_rounds(opts.window.0)
        .window_stride(opts.window.1)
        .protocol(protocol)
        .decode(decode)
        .build()
        .map_err(|e| e.to_string())
}

/// Builds a distance sweep (one error rate, the figure's policy set) from the
/// harness options.
fn sweep(
    opts: &Opts,
    distances: Vec<usize>,
    noise: NoiseModel,
    protocol: LrcProtocol,
    policies: &[PolicyKind],
    decode: bool,
) -> Result<Sweep, String> {
    Sweep::builder()
        .distances(distances)
        .error_rates([opts.p])
        .policies(policies.iter().cloned())
        .noise_model(noise)
        .cycles(opts.cycles)
        .shots(opts.effective_shots())
        .seed(opts.seed)
        .threads(opts.threads)
        .decoder(opts.decoder)
        .window_rounds(opts.window.0)
        .window_stride(opts.window.1)
        .protocol(protocol)
        .decode(decode)
        .build()
        .map_err(|e| e.to_string())
}

fn distances(opts: &Opts) -> Vec<usize> {
    [3usize, 5, 7, 9, 11]
        .into_iter()
        .filter(|&d| d <= opts.dmax)
        .collect()
}

fn figure_d(opts: &Opts, paper_default: usize) -> usize {
    if opts.d != 0 {
        opts.d
    } else {
        paper_default.min(opts.dmax)
    }
}

// ---------------------------------------------------------------------------
// Analytical results
// ---------------------------------------------------------------------------

/// §3.1 / Table 1: Eq. (1) and Eq. (2).
pub fn analytic(opts: &Opts) -> Result<(), String> {
    let mut t = Table::new(
        "Eq.(1)/(2): leakage-transport analysis (paper: ~10% / ~34%, ratio ~3x)",
        &["quantity", "model", "paper"],
    );
    let e1 = analysis::p_data_leak_given_parity_leak(
        analysis::P_LEAK_DEFAULT,
        analysis::P_TRANSPORT_DEFAULT,
    );
    let e2 = analysis::p_parity_leak_given_data_leak(
        analysis::P_LEAK_DEFAULT,
        analysis::P_TRANSPORT_DEFAULT,
    );
    t.row(vec![
        "P(L_data | L_parity) %".into(),
        fixed(e1 * 100.0, 2),
        fixed(paper::EQ1_PCT, 1),
    ]);
    t.row(vec![
        "P(L_parity | L_data) %".into(),
        fixed(e2 * 100.0, 2),
        fixed(paper::EQ2_PCT, 1),
    ]);
    t.row(vec![
        "amplification ratio".into(),
        fixed(analysis::transport_amplification_ratio(), 2),
        "~3".into(),
    ]);
    t.print();
    t.write_csv(&opts.out, "analytic")
}

/// Table 2: invisible-leakage probability.
pub fn table2(opts: &Opts) -> Result<(), String> {
    let mut t = Table::new(
        "Table 2: P(leaked data qubit invisible for r rounds)",
        &["rounds", "model %", "paper %"],
    );
    for (r, paper_pct) in paper::TABLE2_PCT {
        t.row(vec![
            r.to_string(),
            fixed(analysis::p_invisible(r) * 100.0, 2),
            fixed(paper_pct, 2),
        ]);
    }
    t.print();
    t.write_csv(&opts.out, "table2")
}

// ---------------------------------------------------------------------------
// Motivation figures
// ---------------------------------------------------------------------------

/// Fig 1(c): LER over QEC cycles for No-LRC, Always-LRC, Optimal.
pub fn fig1c(opts: &Opts) -> Result<(), String> {
    let d = figure_d(opts, 7);
    let noise = NoiseParams::standard(opts.p);
    let mut t = Table::new(
        &format!("Fig 1(c): LER over QEC cycles, d={d}, p={:.0e} (paper: Always ~4x, Optimal ~10x better than No-LRC at d=7)", opts.p),
        &["cycle", "no-lrc", "always-lrc", "optimal"],
    );
    for cycle in 1..=opts.cycles {
        let exp = experiment(opts, d, noise, d * cycle, LrcProtocol::Swap, true)?;
        let cells: Vec<String> = [
            PolicyKind::NoLrc,
            PolicyKind::AlwaysLrc,
            PolicyKind::Optimal,
        ]
        .iter()
        .map(|k| sci(exp.run_policy(k).ler()))
        .collect();
        t.row(vec![
            cycle.to_string(),
            cells[0].clone(),
            cells[1].clone(),
            cells[2].clone(),
        ]);
    }
    t.print();
    t.write_csv(&opts.out, "fig1c")
}

/// Fig 2(c): LER with vs without leakage over QEC cycles.
pub fn fig2c(opts: &Opts) -> Result<(), String> {
    let d = figure_d(opts, 7);
    let mut t = Table::new(
        &format!(
            "Fig 2(c): leakage impact on LER, d={d}, p={:.0e} (paper d=7: 27x after 1 cycle, 467x after 5)",
            opts.p
        ),
        &["cycle", "no leakage", "with leakage", "ratio"],
    );
    for cycle in 1..=opts.cycles {
        let rounds = d * cycle;
        let clean = experiment(
            opts,
            d,
            NoiseParams::without_leakage(opts.p),
            rounds,
            LrcProtocol::Swap,
            true,
        )?;
        let leaky = experiment(
            opts,
            d,
            NoiseParams::standard(opts.p),
            rounds,
            LrcProtocol::Swap,
            true,
        )?;
        let ler_clean = clean.run_policy(&PolicyKind::NoLrc).ler();
        let ler_leaky = leaky.run_policy(&PolicyKind::NoLrc).ler();
        t.row(vec![
            cycle.to_string(),
            sci(ler_clean),
            sci(ler_leaky),
            ratio(ler_leaky, ler_clean),
        ]);
    }
    t.print();
    println!(
        "(paper reference ratios: {}x at cycle 1, {}x at cycle 5; absolute ratios depend on\n shot budget — cells with zero observed errors print n/a)",
        paper::FIG2C_RATIO_CYCLE1,
        paper::FIG2C_RATIO_CYCLE5
    );
    t.write_csv(&opts.out, "fig2c")
}

/// Fig 5: LPR per round under Always-LRC, split into data/parity.
pub fn fig5(opts: &Opts) -> Result<(), String> {
    let d = figure_d(opts, 7);
    let rounds = d * opts.cycles;
    let exp = experiment(
        opts,
        d,
        NoiseParams::standard(opts.p),
        rounds,
        LrcProtocol::Swap,
        false,
    )?;
    let result = exp.run_policy(&PolicyKind::AlwaysLrc);
    let mut t = Table::new(
        &format!("Fig 5: LPR (x1e-4) per round, Always-LRC, d={d} (paper: rises over time, spikes on LRC rounds)"),
        &["round", "total", "data", "parity"],
    );
    for r in 0..rounds {
        t.row(vec![
            r.to_string(),
            fixed(result.lpr_total[r] * 1e4, 2),
            fixed(result.lpr_data[r] * 1e4, 2),
            fixed(result.lpr_parity[r] * 1e4, 2),
        ]);
    }
    print_subsampled(&t, rounds);
    t.write_csv(&opts.out, "fig5")
}

/// Fig 6: LPR per round and LER per cycle, Always-LRC vs Optimal.
pub fn fig6(opts: &Opts) -> Result<(), String> {
    let d = figure_d(opts, 7);
    let rounds = d * opts.cycles;
    let exp = experiment(
        opts,
        d,
        NoiseParams::standard(opts.p),
        rounds,
        LrcProtocol::Swap,
        false,
    )?;
    let always = exp.run_policy(&PolicyKind::AlwaysLrc);
    let optimal = exp.run_policy(&PolicyKind::Optimal);
    let mut lpr = Table::new(
        &format!("Fig 6 (top): LPR (x1e-4) per round, d={d} (paper: Always keeps rising, Optimal stays low)"),
        &["round", "always-lrc", "optimal"],
    );
    for r in 0..rounds {
        lpr.row(vec![
            r.to_string(),
            fixed(always.lpr_total[r] * 1e4, 2),
            fixed(optimal.lpr_total[r] * 1e4, 2),
        ]);
    }
    print_subsampled(&lpr, rounds);
    lpr.write_csv(&opts.out, "fig6_lpr")?;

    let mut ler = Table::new(
        &format!("Fig 6 (bottom): LER per QEC cycle, d={d} (paper: ~10x gap at 10 cycles)"),
        &["cycle", "always-lrc", "optimal", "gap"],
    );
    for cycle in 1..=opts.cycles {
        let exp = experiment(
            opts,
            d,
            NoiseParams::standard(opts.p),
            d * cycle,
            LrcProtocol::Swap,
            true,
        )?;
        let a = exp.run_policy(&PolicyKind::AlwaysLrc).ler();
        let o = exp.run_policy(&PolicyKind::Optimal).ler();
        ler.row(vec![cycle.to_string(), sci(a), sci(o), ratio(a, o)]);
    }
    ler.print();
    ler.write_csv(&opts.out, "fig6_ler")
}

/// Fig 8: density-matrix leakage-spread study over one Z stabilizer.
pub fn fig8(opts: &Opts) -> Result<(), String> {
    let records = density_sim::StabilizerLeakageStudy::default().run();
    let mut t = Table::new(
        "Fig 8: single-stabilizer leakage spread (density matrix, ququarts)",
        &["step", "q0", "q1", "q2", "q3", "P", "P(correct readout)"],
    );
    for rec in &records {
        t.row(vec![
            rec.label.clone(),
            fixed(rec.leak[0], 4),
            fixed(rec.leak[1], 4),
            fixed(rec.leak[2], 4),
            fixed(rec.leak[3], 4),
            fixed(rec.leak[4], 4),
            fixed(rec.p_correct, 4),
        ]);
    }
    t.print();
    println!("(paper: point A shows P significantly leaked after the LRC swap-in;\n point C shows readout only slightly better than random)");
    t.write_csv(&opts.out, "fig8")
}

// ---------------------------------------------------------------------------
// Main results
// ---------------------------------------------------------------------------

/// Groups streamed sweep points into one group per (distance, error rate),
/// in execution order. Grouping is by the coordinates each [`SweepPoint`]
/// carries, not by positional arithmetic, so it stays correct for any grid
/// shape.
fn group_by_code(points: Vec<SweepPoint>) -> Vec<Vec<SweepPoint>> {
    let mut groups: Vec<Vec<SweepPoint>> = Vec::new();
    for pt in points {
        match groups.last_mut() {
            Some(group) if group[0].distance == pt.distance && group[0].p == pt.p => group.push(pt),
            _ => groups.push(vec![pt]),
        }
    }
    groups
}

/// The point for `kind` within one (distance, error rate) group.
fn point_for<'a>(group: &'a [SweepPoint], kind: &PolicyKind) -> Option<&'a SweepPoint> {
    group.iter().find(|pt| pt.policy == kind.label())
}

/// Runs a distance sweep and groups the points per distance. An empty
/// distance list (e.g. `--dmax 2`) yields an empty result instead of an
/// error, so those figures print an empty table as they always have.
fn grouped_sweep(
    opts: &Opts,
    distances: Vec<usize>,
    noise: NoiseModel,
    protocol: LrcProtocol,
    policies: &[PolicyKind],
    decode: bool,
) -> Result<Vec<Vec<SweepPoint>>, String> {
    if distances.is_empty() {
        return Ok(Vec::new());
    }
    let grid = sweep(opts, distances, noise, protocol, policies, decode)?;
    Ok(group_by_code(grid.run()))
}

fn ler_sweep(
    opts: &Opts,
    noise: NoiseModel,
    protocol: LrcProtocol,
    policies: &[PolicyKind],
    title: &str,
    csv: &str,
) -> Result<(), String> {
    let mut columns: Vec<&str> = vec!["d"];
    columns.extend(policies.iter().map(|p| p.label()));
    columns.push("eraser gain");
    columns.push("eraser+m gain");
    let mut t = Table::new(title, &columns);
    for group in grouped_sweep(opts, distances(opts), noise, protocol, policies, true)? {
        let baseline = group[0].result.ler();
        let find = |kind: &PolicyKind| -> Option<f64> {
            point_for(&group, kind).map(|pt| pt.result.ler())
        };
        let mut row = vec![group[0].distance.to_string()];
        row.extend(group.iter().map(|pt| sci(pt.result.ler())));
        row.push(
            find(&PolicyKind::eraser())
                .map(|l| ratio(baseline, l))
                .unwrap_or_default(),
        );
        row.push(
            find(&PolicyKind::eraser_m())
                .map(|l| ratio(baseline, l))
                .unwrap_or_default(),
        );
        t.row(row);
    }
    t.print();
    t.write_csv(&opts.out, csv)
}

/// Fig 14: LER vs distance for the four policies.
pub fn fig14(opts: &Opts) -> Result<(), String> {
    let title = format!(
        "Fig 14: LER vs distance, p={:.0e}, {} cycles (paper p=1e-3: ERASER avg {}x / best {}x, ERASER+M avg {}x / best {}x over Always)",
        opts.p,
        opts.cycles,
        paper::ERASER_LER_IMPROVEMENT_AVG,
        paper::ERASER_LER_IMPROVEMENT_BEST,
        paper::ERASER_M_LER_IMPROVEMENT_AVG,
        paper::ERASER_M_LER_IMPROVEMENT_BEST,
    );
    ler_sweep(
        opts,
        NoiseModel::Standard,
        LrcProtocol::Swap,
        &[
            PolicyKind::AlwaysLrc,
            PolicyKind::eraser(),
            PolicyKind::eraser_m(),
            PolicyKind::Optimal,
        ],
        &title,
        "fig14",
    )
}

fn lpr_four_policies(
    opts: &Opts,
    noise: NoiseParams,
    protocol: LrcProtocol,
    baseline: PolicyKind,
    title: &str,
    csv: &str,
) -> Result<(), String> {
    let d = figure_d(opts, 11);
    let rounds = d * opts.cycles;
    let exp = experiment(opts, d, noise, rounds, protocol, false)?;
    let policies = [
        baseline,
        PolicyKind::eraser(),
        PolicyKind::eraser_m(),
        PolicyKind::Optimal,
    ];
    let results: Vec<MemoryRunResult> = policies.iter().map(|k| exp.run_policy(k)).collect();
    let mut columns = vec!["round".to_string()];
    columns.extend(policies.iter().map(|p| p.label().to_string()));
    let col_refs: Vec<&str> = columns.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(&format!("{title} (d={d}, LPR x1e-4)"), &col_refs);
    for r in 0..rounds {
        let mut row = vec![r.to_string()];
        row.extend(results.iter().map(|res| fixed(res.lpr_total[r] * 1e4, 2)));
        t.row(row);
    }
    print_subsampled(&t, rounds);
    t.write_csv(&opts.out, csv)
}

/// Fig 15: LPR per round at d=11 for the four policies.
pub fn fig15(opts: &Opts) -> Result<(), String> {
    lpr_four_policies(
        opts,
        NoiseParams::standard(opts.p),
        LrcProtocol::Swap,
        PolicyKind::AlwaysLrc,
        "Fig 15: LPR per round (paper: ERASER ~1.5x lower than Always, ERASER+M ~2.2x lower than ERASER)",
        "fig15",
    )
}

/// Fig 16: speculation accuracy per distance; FPR/FNR at the largest d.
pub fn fig16(opts: &Opts) -> Result<(), String> {
    let mut acc = Table::new(
        &format!(
            "Fig 16 (top): speculation accuracy %, {} cycles (paper: Always ~{}%, ERASER/ERASER+M ~{}%, Optimal 100%)",
            opts.cycles,
            paper::SPEC_ACCURACY_ALWAYS_PCT,
            paper::SPEC_ACCURACY_ERASER_PCT
        ),
        &["d", "always-lrc", "eraser", "eraser+m", "optimal"],
    );
    let policies = [
        PolicyKind::AlwaysLrc,
        PolicyKind::eraser(),
        PolicyKind::eraser_m(),
        PolicyKind::Optimal,
    ];
    let groups = grouped_sweep(
        opts,
        distances(opts),
        NoiseModel::Standard,
        LrcProtocol::Swap,
        &policies,
        false,
    )?;
    for group in &groups {
        let mut row = vec![group[0].distance.to_string()];
        row.extend(
            group
                .iter()
                .map(|pt| fixed(pt.result.speculation.accuracy() * 100.0, 1)),
        );
        acc.row(row);
    }
    acc.print();
    acc.write_csv(&opts.out, "fig16_accuracy")?;

    let last_group: &[SweepPoint] = groups.last().map(Vec::as_slice).unwrap_or(&[]);
    let last_d = last_group.first().map(|pt| pt.distance).unwrap_or(0);
    let mut rates = Table::new(
        &format!(
            "Fig 16 (bottom): FPR/FNR % at d={last_d} (paper d=11: FPR {}% vs 50%; FNR ~{}% ERASER, ~{}% ERASER+M)",
            paper::FPR_ERASER_PCT,
            paper::FNR_ERASER_PCT,
            paper::FNR_ERASER_M_PCT
        ),
        &["policy", "FPR %", "FNR %"],
    );
    for kind in &policies {
        let Some(pt) = point_for(last_group, kind) else {
            continue;
        };
        rates.row(vec![
            kind.label().to_string(),
            fixed(pt.result.speculation.false_positive_rate() * 100.0, 2),
            fixed(pt.result.speculation.false_negative_rate() * 100.0, 2),
        ]);
    }
    rates.print();
    rates.write_csv(&opts.out, "fig16_rates")
}

/// Table 3: RTL generation + FPGA resource model.
pub fn table3(opts: &Opts) -> Result<(), String> {
    let mut t = Table::new(
        "Table 3: FPGA resources on xcku3p (model vs paper's Vivado synthesis; latency target 5 ns)",
        &["d", "LUT % (model)", "LUT % (paper)", "FF % (model)", "FF % (paper)", "latency ns"],
    );
    std::fs::create_dir_all(&opts.out).map_err(|e| format!("mkdir: {e}"))?;
    for (d, lut_paper, ff_paper) in paper::TABLE3 {
        if d > opts.dmax {
            continue;
        }
        let code = RotatedCode::new(d);
        let est = resource::estimate(&code, resource::XCKU3P);
        t.row(vec![
            d.to_string(),
            fixed(est.lut_pct, 3),
            fixed(lut_paper, 2),
            fixed(est.ff_pct, 3),
            fixed(ff_paper, 2),
            fixed(est.latency_ns, 2),
        ]);
        let sv = rtl::generate(&code);
        let path = opts.out.join(format!("eraser_d{d}.sv"));
        std::fs::write(&path, sv).map_err(|e| format!("write {path:?}: {e}"))?;
        println!("  -> wrote {}", path.display());
    }
    t.print();
    t.write_csv(&opts.out, "table3")
}

/// Table 4: average LRCs per round per policy.
pub fn table4(opts: &Opts) -> Result<(), String> {
    let mut t = Table::new(
        "Table 4: average LRCs per round (paper values in parentheses columns)",
        &[
            "d",
            "always",
            "always(paper)",
            "eraser",
            "eraser(paper)",
            "eraser+m",
            "eraser+m(paper)",
            "optimal",
            "optimal(paper)",
        ],
    );
    let rows: Vec<(usize, f64, f64, f64, f64)> = paper::TABLE4
        .into_iter()
        .filter(|&(d, ..)| d <= opts.dmax)
        .collect();
    let policies = [
        PolicyKind::AlwaysLrc,
        PolicyKind::eraser(),
        PolicyKind::eraser_m(),
        PolicyKind::Optimal,
    ];
    for group in grouped_sweep(
        opts,
        rows.iter().map(|&(d, ..)| d).collect(),
        NoiseModel::Standard,
        LrcProtocol::Swap,
        &policies,
        false,
    )? {
        let d = group[0].distance;
        let Some(&(_, p_always, p_eraser, p_eraser_m, p_optimal)) =
            rows.iter().find(|&&(row_d, ..)| row_d == d)
        else {
            continue;
        };
        let lrcs = |kind: &PolicyKind| {
            point_for(&group, kind).map_or(f64::NAN, |pt| pt.result.lrcs_per_round())
        };
        t.row(vec![
            d.to_string(),
            fixed(lrcs(&PolicyKind::AlwaysLrc), 2),
            fixed(p_always, 2),
            fixed(lrcs(&PolicyKind::eraser()), 2),
            fixed(p_eraser, 2),
            fixed(lrcs(&PolicyKind::eraser_m()), 2),
            fixed(p_eraser_m, 2),
            fixed(lrcs(&PolicyKind::Optimal), 3),
            fixed(p_optimal, 3),
        ]);
    }
    t.print();
    t.write_csv(&opts.out, "table4")
}

// ---------------------------------------------------------------------------
// Appendix experiments
// ---------------------------------------------------------------------------

/// Fig 17: LER vs distance under the exchange-transport model (App A.1).
pub fn fig17(opts: &Opts) -> Result<(), String> {
    let title = format!(
        "Fig 17 (App A.1): LER vs distance, exchange transport, p={:.0e} (paper: ERASER avg 6.5x / best 13.4x, ERASER+M avg 8.8x / best 24.1x)",
        opts.p
    );
    ler_sweep(
        opts,
        NoiseModel::ExchangeTransport,
        LrcProtocol::Swap,
        &[
            PolicyKind::AlwaysLrc,
            PolicyKind::eraser(),
            PolicyKind::eraser_m(),
            PolicyKind::Optimal,
        ],
        &title,
        "fig17",
    )
}

/// Fig 18: LPR at d=11 under the exchange-transport model.
pub fn fig18(opts: &Opts) -> Result<(), String> {
    lpr_four_policies(
        opts,
        NoiseParams::exchange_transport(opts.p),
        LrcProtocol::Swap,
        PolicyKind::AlwaysLrc,
        "Fig 18 (App A.1): LPR per round, exchange transport (paper: all policies stabilize except Always)",
        "fig18",
    )
}

/// Fig 20: LER vs distance with the DQLR protocol (App A.2; exchange model).
pub fn fig20(opts: &Opts) -> Result<(), String> {
    let title = format!(
        "Fig 20 (App A.2): LER vs distance with DQLR, p={:.0e} (paper: ERASER 1.8x avg, ERASER+M 2x avg over every-round DQLR)",
        opts.p
    );
    ler_sweep(
        opts,
        NoiseModel::ExchangeTransport,
        LrcProtocol::Dqlr,
        &[
            PolicyKind::AlwaysEveryRound,
            PolicyKind::eraser(),
            PolicyKind::eraser_m(),
            PolicyKind::Optimal,
        ],
        &title,
        "fig20",
    )
}

/// Fig 21: LPR at d=11 with the DQLR protocol.
pub fn fig21(opts: &Opts) -> Result<(), String> {
    lpr_four_policies(
        opts,
        NoiseParams::exchange_transport(opts.p),
        LrcProtocol::Dqlr,
        PolicyKind::AlwaysEveryRound,
        "Fig 21 (App A.2): LPR per round with DQLR (paper: DQLR stabilizes LPR quickly; ERASER ~1.4x lower)",
        "fig21",
    )
}

/// Memory-basis comparison (extension): ERASER protects logical X exactly as
/// it protects logical Z — leakage is basis-agnostic, so the speculation
/// pipeline carries over unchanged.
pub fn memx(opts: &Opts) -> Result<(), String> {
    use surface_code::MemoryBasis;
    let d = figure_d(opts, 5);
    let rounds = d * opts.cycles;
    let mut t = Table::new(
        &format!("Memory-Z vs memory-X under ERASER, d={d}, p={:.0e}", opts.p),
        &["basis", "policy", "ler", "lrcs/round", "accuracy %"],
    );
    for (label, basis) in [("Z", MemoryBasis::Z), ("X", MemoryBasis::X)] {
        let exp = Experiment::builder()
            .distance(d)
            .noise(NoiseParams::standard(opts.p))
            .rounds(rounds)
            .basis(basis)
            .shots(opts.effective_shots())
            .seed(opts.seed)
            .threads(opts.threads)
            .decoder(opts.decoder)
            .build()
            .map_err(|e| e.to_string())?;
        for kind in [PolicyKind::AlwaysLrc, PolicyKind::eraser()] {
            let res = exp.run_policy(&kind);
            t.row(vec![
                label.to_string(),
                kind.label().to_string(),
                sci(res.ler()),
                fixed(res.lrcs_per_round(), 2),
                fixed(res.speculation.accuracy() * 100.0, 1),
            ]);
        }
    }
    t.print();
    println!("(both bases show the same ERASER-over-Always improvement; the CSS code and\n the leakage model are basis-symmetric)");
    t.write_csv(&opts.out, "memx")
}

/// Post-selection study (§2.4/§7.1 prior-work comparison): offline filtering
/// of leakage-suspect shots vs real-time suppression.
pub fn postselect(opts: &Opts) -> Result<(), String> {
    let d = figure_d(opts, 5);
    let mut t = Table::new(
        &format!(
            "Post-selection vs real-time suppression, d={d}, p={:.0e} (paper §7.1: post-selection \
             cannot run during computation and its keep-rate collapses with duration)",
            opts.p
        ),
        &["cycles", "raw LER", "postsel LER", "keep %", "eraser LER"],
    );
    for cycle in 1..=opts.cycles {
        let exp = experiment(
            opts,
            d,
            NoiseParams::standard(opts.p),
            d * cycle,
            LrcProtocol::Swap,
            true,
        )?;
        let raw = exp.run_policy(&PolicyKind::NoLrc);
        let eraser = exp.run_policy(&PolicyKind::eraser());
        let ps = raw.postselection;
        t.row(vec![
            cycle.to_string(),
            sci(raw.ler()),
            sci(ps.ler_postselected(raw.shots)),
            fixed(ps.keep_fraction(raw.shots) * 100.0, 1),
            sci(eraser.ler()),
        ]);
    }
    t.print();
    println!("(post-selection trades an exponentially shrinking keep-rate for accuracy;\n ERASER keeps every shot)");
    t.write_csv(&opts.out, "postselect")
}

/// Erasure decoding (extension): ERASER+M's multi-level |L⟩ labels are
/// genuine erasure checks; threading them into the decoder as dynamically
/// reweighted (erased) edges lowers the LER at identical physical shots.
pub fn erasure(opts: &Opts) -> Result<(), String> {
    let mut t = Table::new(
        &format!(
            "Erasure decoding: ERASER+M ± leakage-aware MWPM across (d, p), seed {} \
             (paired shots: blind and aware decode identical error realizations)",
            opts.seed
        ),
        &[
            "d",
            "p",
            "shots",
            "blind LER",
            "aware LER",
            "gain",
            "erasures/shot",
        ],
    );
    // Smaller distances get proportionally more shots so every cell resolves
    // a comparable error count.
    let budget = |d: usize| opts.effective_shots() * [4, 2, 1][(d - 3) / 2];
    for d in [3usize, 5, 7] {
        if d > opts.dmax {
            continue;
        }
        for p in [opts.p * 3.0, opts.p * 5.0] {
            let shots = budget(d);
            let mut exp = Experiment::builder()
                .distance(d)
                .noise(NoiseParams::standard(p))
                .rounds((d * 3).max(15))
                .shots(shots)
                .seed(opts.seed)
                .threads(opts.threads)
                .decoder(DecoderKind::Mwpm)
                .build()
                .map_err(|e| e.to_string())?;
            let blind = exp.run_policy(&PolicyKind::eraser_m());
            exp.set_leakage_aware(true);
            let aware = exp.run_policy(&PolicyKind::eraser_m());
            t.row(vec![
                d.to_string(),
                format!("{p:.0e}"),
                shots.to_string(),
                sci(blind.ler()),
                sci(aware.ler()),
                ratio(blind.ler(), aware.ler()),
                fixed(aware.total_erasures as f64 / shots as f64, 2),
            ]);
        }
    }
    t.print();
    println!(
        "(two-level ERASER exposes no erasure-grade herald — its speculative flags are\n \
         precise enough to schedule LRCs but reweighting the decoder with them raises\n \
         the LER — so its aware run is bit-identical to blind; ERASER+M's |L> labels\n \
         are hardware erasure checks in the sense of Chang et al. 2024)"
    );
    t.write_csv(&opts.out, "erasure")
}

/// Long-memory streaming study (extension): sliding-window decoding vs
/// monolithic at R ∈ {d, 10d, 100d}. The windowed LER must track monolithic
/// within the binomial error bars while peak decoder memory stays flat in R
/// (the monolithic MWPM table is O((d²·R)²) and prices out entirely beyond a
/// few thousand nodes).
pub fn longmem(opts: &Opts) -> Result<(), String> {
    use eraser_core::DecodeLatencyStats;
    use qec_decoder::WindowPlan;

    let mut t = Table::new(
        &format!(
            "Long memory: windowed (w=3d, stride 2d) vs monolithic decoding, seed {} \
             (paired shots: identical error realizations, only the decode path differs)",
            opts.seed
        ),
        &[
            "d",
            "R",
            "p",
            "shots",
            "mono LER",
            "win LER",
            "|dLER|/sigma",
            "mono dec MB",
            "win dec MB",
            "win shapes",
            "win p50 ns/rd",
            "win p99 ns/rd",
        ],
    );
    let quantiles =
        |stats: &DecodeLatencyStats| (stats.p50_ns_per_round(), stats.p99_ns_per_round());
    for d in [3usize, 5, 7] {
        if d > opts.dmax {
            continue;
        }
        for mult in [1usize, 10, 100] {
            let rounds = d * mult;
            // Long cells get proportionally fewer shots (each shot is R
            // rounds of simulation); the error bars widen accordingly.
            let shots = (opts.effective_shots() / [1u64, 2, 8][mult.ilog10() as usize]).max(25);
            let window = 3 * d;
            // The decoder-memory report depends only on (d, R, resolved
            // decoder), so compute it once per cell pair, not per p.
            let mut memory_report: Option<(usize, usize, usize)> = None;
            for p in [opts.p, 3.0 * opts.p] {
                let mut exp = Experiment::builder()
                    .distance(d)
                    .noise(NoiseParams::standard(p))
                    .rounds(rounds)
                    .shots(shots)
                    .seed(opts.seed)
                    .threads(opts.threads)
                    .decoder(opts.decoder)
                    .policy(PolicyKind::eraser())
                    .build()
                    .map_err(|e| e.to_string())?;
                // The built experiment decodes one full-cover window
                // (whole-shot decoding). Pin the decoder both runs resolve
                // to on that whole graph, so the comparison isolates
                // windowing itself (Auto would hand the sliding windows
                // dense MWPM even where the whole graph is sparse-blossom
                // territory — a perk, but a confound here).
                let resolved = exp.resolved_decoder();
                exp.set_decoder(resolved);
                let mono = exp.run();
                // At R = d the 3d window exceeds the round count and is a
                // full cover too — that row documents the degenerate case
                // (identical runs).
                exp.set_window(window, 0);
                let win = exp.run();
                let sigma = (mono.ler_stderr().powi(2) + win.ler_stderr().powi(2))
                    .sqrt()
                    .max(1.0 / shots as f64);
                let z = (mono.ler() - win.ler()).abs() / sigma;
                // Both sides are priced as plans for the backend they ran
                // on: the full cover for the monolithic run, the sliding
                // plan for the windowed one.
                let (mono_bytes, win_bytes, shapes) = *memory_report.get_or_insert_with(|| {
                    let graph = exp.runner().graph();
                    let span = graph.max_round() + 1;
                    let mono_bytes =
                        WindowPlan::new(graph, span, span, resolved).approx_decoder_bytes();
                    if window < rounds + 1 {
                        let plan = WindowPlan::new(graph, window, window - d, resolved);
                        (mono_bytes, plan.approx_decoder_bytes(), plan.num_shapes())
                    } else {
                        (mono_bytes, mono_bytes, 1)
                    }
                });
                let (p50, p99) = quantiles(&win.decode_latency);
                t.row(vec![
                    d.to_string(),
                    rounds.to_string(),
                    format!("{p:.0e}"),
                    shots.to_string(),
                    sci(mono.ler()),
                    sci(win.ler()),
                    fixed(z, 2),
                    fixed(mono_bytes as f64 / 1e6, 2),
                    fixed(win_bytes as f64 / 1e6, 2),
                    shapes.to_string(),
                    fixed(p50, 0),
                    fixed(p99, 0),
                ]);
            }
        }
    }
    t.print();
    println!(
        "(windowed LER tracks monolithic within the binomial error bars; windowed decode\n \
         state is O(window^2) per shape + O(R) position maps — flat where the monolithic\n \
         MWPM table grows O(R^2) and prices out beyond a few thousand nodes)"
    );
    t.write_csv(&opts.out, "longmem")
}

/// Decode latency study (extension): p50/p99 per-round decode latency of
/// the sequential window chain at fixed (d, R) for all three backends, on
/// one worker thread, with the host's core count recorded.
pub fn latency(opts: &Opts) -> Result<(), String> {
    let d = if opts.d > 0 { opts.d } else { 7 };
    // Fixed long-memory span matching the `decode_window_shot/d7_r110`
    // bench fixture; --quick shrinks it to keep the smoke cheap.
    let rounds = if opts.quick { 5 * d } else { 110 };
    let window = 3 * d;
    let shots = (opts.effective_shots() / 5).max(20);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut t = Table::new(
        &format!(
            "Decode latency per backend at d={d}, R={rounds}, w={window} (stride w-d), \
             {shots} shots, 1 worker thread, host cores {cores}, seed {} \
             (one sample per decoded window, in ns per committed round)",
            opts.seed
        ),
        &["backend", "shots", "p50 ns/rd", "p99 ns/rd", "mean ns/rd"],
    );
    for decoder in [
        DecoderKind::Mwpm,
        DecoderKind::SparseMwpm,
        DecoderKind::UnionFind,
    ] {
        let exp = Experiment::builder()
            .distance(d)
            .noise(NoiseParams::standard(opts.p))
            .rounds(rounds)
            .shots(shots)
            .seed(opts.seed)
            // One worker: the per-window latency number must not be
            // polluted by workers contending for the same cores.
            .threads(1)
            .decoder(decoder)
            .window_rounds(window)
            .policy(PolicyKind::eraser())
            .build()
            .map_err(|e| e.to_string())?;
        let run = exp.run();
        t.row(vec![
            run.decoder.clone(),
            shots.to_string(),
            fixed(run.decode_latency.p50_ns_per_round(), 0),
            fixed(run.decode_latency.p99_ns_per_round(), 0),
            fixed(run.decode_latency.mean_ns_per_round(), 0),
        ]);
    }
    t.print();
    t.write_csv(&opts.out, "latency")
}

/// Mean recorded latency of one tier's windows, in nanoseconds.
fn mean_tier_ns(tiers: &TierCounters, tier: usize) -> f64 {
    if tiers.hits[tier] == 0 {
        0.0
    } else {
        tiers.nanos[tier] as f64 / tiers.hits[tier] as f64
    }
}

/// Extension: tiered sparse-syndrome fast-path decoding (the predecoder).
///
/// Runs the windowed memory experiment once per (d, p, backend) cell and
/// reports per-tier hit rates, mean nanos per tier-1/tier-2 window, and ns
/// per committed round. The ladder is always on; its bit-identity to the
/// full decoders is the tier-1 contract `qec_decoder`'s tests check.
pub fn predecode(opts: &Opts) -> Result<(), String> {
    let ds: Vec<usize> = [3usize, 5, 7]
        .into_iter()
        .filter(|&d| d <= opts.dmax)
        .collect();
    let ps: Vec<f64> = if opts.quick {
        vec![opts.p]
    } else {
        vec![5e-4, 1e-3, 2e-3, 5e-3]
    };
    let shots = (opts.effective_shots() / 5).max(20);
    let window_label = if opts.window.0 > 0 {
        format!("w={}:{}", opts.window.0, opts.window.1)
    } else {
        "w=d+1, stride 1".to_string()
    };
    let mut t = Table::new(
        &format!(
            "Tiered predecode: hit rates and decode cost, windowed ({window_label}), \
             R=10d, {shots} shots, 1 worker thread, seed {} (ns/rd = total decode \
             nanos / total committed rounds)",
            opts.seed
        ),
        &[
            "d",
            "p",
            "backend",
            "tier0 %",
            "tier1 %",
            "tier2 %",
            "t1 ns/win",
            "t2 ns/win",
            "ns/rd tiered",
        ],
    );
    for &d in &ds {
        let rounds = if opts.quick { 2 * d } else { 10 * d };
        // Short windows keep per-window syndromes sparse, which is the
        // regime the tier ladder targets (sub-threshold p, streaming
        // round-by-round commits); --window overrides for exploration.
        let (window, stride) = if opts.window.0 > 0 {
            opts.window
        } else {
            (d + 1, 1)
        };
        for &p in &ps {
            for decoder in [
                DecoderKind::Mwpm,
                DecoderKind::SparseMwpm,
                DecoderKind::UnionFind,
            ] {
                let run = |timing_shots: u64| -> Result<MemoryRunResult, String> {
                    Ok(Experiment::builder()
                        .distance(d)
                        .noise(NoiseParams::standard(p))
                        .rounds(rounds)
                        .shots(timing_shots)
                        .seed(opts.seed)
                        // One worker, like the latency figure: the ns/rd
                        // columns are wall-clock and must not be polluted
                        // by workers contending for cores.
                        .threads(1)
                        .decoder(decoder)
                        .window_rounds(window)
                        .window_stride(stride)
                        .policy(PolicyKind::eraser())
                        .build()
                        .map_err(|e| e.to_string())?
                        .run())
                };
                // Untimed warm-up so allocator and cache cold-start costs
                // stay off the timed run.
                run(shots.min(4))?;
                let result = run(shots)?;
                let true_rounds = (shots as u128 * rounds as u128) as f64;
                let ns_per_round = result.decode_latency.total_nanos() as f64 / true_rounds;
                t.row(vec![
                    d.to_string(),
                    sci(p),
                    result.decoder.clone(),
                    fixed(result.predecode.hit_rate(0) * 100.0, 1),
                    fixed(result.predecode.hit_rate(1) * 100.0, 1),
                    fixed(result.predecode.hit_rate(2) * 100.0, 1),
                    fixed(mean_tier_ns(&result.predecode, 1), 0),
                    fixed(mean_tier_ns(&result.predecode, 2), 0),
                    fixed(ns_per_round, 0),
                ]);
            }
        }
    }
    t.print();
    println!(
        "(tier 0 = window skipped outright, tier 1 = 1-2 defects resolved in closed\n \
         form, tier 2 = full backend decode)"
    );
    t.write_csv(&opts.out, "predecode")
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §8)
// ---------------------------------------------------------------------------

/// Ablation studies over ERASER's design knobs and the decoder choice.
pub fn ablation(opts: &Opts) -> Result<(), String> {
    let d = figure_d(opts, 5);
    let rounds = d * opts.cycles;
    let mut exp = experiment(
        opts,
        d,
        NoiseParams::standard(opts.p),
        rounds,
        LrcProtocol::Swap,
        true,
    )?;

    // (1) LSB threshold sweep — the paper's Insight #2 "sweet spot".
    let mut thr = Table::new(
        &format!("Ablation: LSB flip threshold, d={d} (paper design point: >=2; 1 over-schedules, 3 under-detects)"),
        &["threshold", "ler", "lrcs/round", "accuracy %", "fnr %"],
    );
    for threshold in [1usize, 2, 3, 4] {
        let res = exp.run_policy(&PolicyKind::Eraser(EraserOptions {
            threshold_override: threshold,
            ..EraserOptions::default()
        }));
        thr.row(vec![
            threshold.to_string(),
            sci(res.ler()),
            fixed(res.lrcs_per_round(), 2),
            fixed(res.speculation.accuracy() * 100.0, 2),
            fixed(res.speculation.false_negative_rate() * 100.0, 1),
        ]);
    }
    thr.print();
    thr.write_csv(&opts.out, "ablation_threshold")?;

    // (2) PUTT and backup-column toggles.
    let mut knobs = Table::new(
        &format!("Ablation: DLI structures, d={d}"),
        &["variant", "ler", "lrcs/round", "mean LPR x1e-4"],
    );
    let variants: [(&str, EraserOptions); 4] = [
        ("full design", EraserOptions::default()),
        (
            "no PUTT",
            EraserOptions {
                use_putt: false,
                ..EraserOptions::default()
            },
        ),
        (
            "no backup",
            EraserOptions {
                use_backup: false,
                ..EraserOptions::default()
            },
        ),
        (
            "no PUTT, no backup",
            EraserOptions {
                use_putt: false,
                use_backup: false,
                ..EraserOptions::default()
            },
        ),
    ];
    for (label, options) in variants {
        let res = exp.run_policy(&PolicyKind::Eraser(options));
        knobs.row(vec![
            label.to_string(),
            sci(res.ler()),
            fixed(res.lrcs_per_round(), 2),
            fixed(res.mean_lpr() * 1e4, 2),
        ]);
    }
    knobs.print();
    knobs.write_csv(&opts.out, "ablation_dli")?;

    // (3) Decoder comparison on the same workload (ERASER policy).
    let mut dec = Table::new(
        &format!("Ablation: decoder choice, d={d} (MWPM is the paper's gold standard)"),
        &["decoder", "ler"],
    );
    for kind in [DecoderKind::Mwpm, DecoderKind::UnionFind] {
        exp.set_decoder(kind);
        let res = exp.run_policy(&PolicyKind::eraser());
        dec.row(vec![res.decoder.clone(), sci(res.ler())]);
    }
    dec.print();
    dec.write_csv(&opts.out, "ablation_decoder")
}

/// Adaptive control (extension): the feedback controller against every
/// static policy on a time-varying-leakage workload, plus a stationary
/// parity check against its base policy.
///
/// The background is leakage-quiet (`leak_fraction = 0`): the declarative
/// burst schedule supplies all the leakage, so every LRC spent in a quiet
/// stretch is pure circuit-noise overhead. Static LRC policies pay that
/// overhead in all 30 rounds; the controller pays it only while its online
/// leakage estimate is elevated — it must win on LER *and* spend no more
/// LRCs. On the stationary leg the same controller should never leave its
/// base policy, so its LER must agree with the base within error bars.
pub fn adaptive(opts: &Opts) -> Result<(), String> {
    use eraser_core::ControllerConfig;
    let d = figure_d(opts, 3);
    let rounds = 90;
    let noise = NoiseParams {
        leak_fraction: 0.0,
        ..NoiseParams::standard(2.0 * opts.p)
    };
    let storm = LeakageProfile::Burst {
        start: 10,
        len: 1,
        period: 45,
        rate: 0.02,
    };
    // Figure-tuned thresholds. The EWMA (shift 1, i.e. half old / half new)
    // acts as a persistence filter over two kinds of evidence:
    //   - an |L⟩ label carries the direct-evidence weight (4 events), so a
    //     single labelled readout — instantaneous rate 4/8 at d=3 — jumps
    //     the smoothed estimate to 0.25 ≥ up in one round;
    //   - a leaked data qubit with no label yet fires ~2 of 8 checks every
    //     round (rate 0.25), which the EWMA compounds past `up` within
    //     three rounds — while a one-off Pauli coincidence of the same size
    //     peaks at 0.125 and decays, keeping the stationary leg quiet.
    let tuned = ControllerConfig {
        up: 0.17,
        down: 0.12,
        ewma_shift: 1,
        min_dwell: 1,
        ..ControllerConfig::ewma()
    };
    let policies = [
        PolicyKind::NoLrc,
        PolicyKind::AlwaysLrc,
        PolicyKind::AlwaysEveryRound,
        PolicyKind::eraser(),
        PolicyKind::eraser_m(),
        PolicyKind::Adaptive(tuned),
        PolicyKind::Adaptive(ControllerConfig {
            law: ControlLawKind::Budget,
            budget: 40,
            ..tuned
        }),
    ];
    let mut t = Table::new(
        &format!(
            "Adaptive control: LER under bursty vs stationary leakage, d={d}, {rounds} rounds \
             (the controller must beat every static policy on the bursty workload at no \
             higher LRC budget, and match its base policy on the stationary one)"
        ),
        &[
            "workload",
            "policy",
            "ler",
            "stderr",
            "lrcs/round",
            "esc/shot",
            "duty",
            "est mean",
            "est peak",
        ],
    );
    let mut summary: Vec<String> = Vec::new();
    for (workload, profile) in [
        ("bursty", storm),
        ("stationary", LeakageProfile::Stationary),
    ] {
        let exp = Experiment::builder()
            .distance(d)
            .noise(noise)
            .rounds(rounds)
            .shots(opts.effective_shots())
            .seed(opts.seed)
            .threads(opts.threads)
            .decoder(opts.decoder)
            .window_rounds(opts.window.0)
            .window_stride(opts.window.1)
            .leakage_profile(profile)
            .build()
            .map_err(|e| e.to_string())?;
        let mut results: Vec<(PolicyKind, MemoryRunResult)> = Vec::new();
        for kind in &policies {
            let r = exp.run_policy(kind);
            let ctrl = r.controller;
            let dash = || "-".to_string();
            t.row(vec![
                workload.to_string(),
                kind.label().to_string(),
                sci(r.ler()),
                sci(r.ler_stderr()),
                fixed(r.lrcs_per_round(), 3),
                if ctrl.is_active() {
                    fixed(ctrl.escalations as f64 / r.shots as f64, 2)
                } else {
                    dash()
                },
                if ctrl.is_active() {
                    fixed(ctrl.escalated_fraction(), 3)
                } else {
                    dash()
                },
                if ctrl.is_active() {
                    fixed(ctrl.mean_estimate(), 4)
                } else {
                    dash()
                },
                if ctrl.is_active() {
                    fixed(ctrl.peak_estimate(), 4)
                } else {
                    dash()
                },
            ]);
            results.push((kind.clone(), r));
        }
        // Console-only acceptance summary (the CSV stays pure data).
        let adaptives: Vec<&(PolicyKind, MemoryRunResult)> = results
            .iter()
            .filter(|(_, r)| r.controller.is_active())
            .collect();
        let statics: Vec<&(PolicyKind, MemoryRunResult)> = results
            .iter()
            .filter(|(_, r)| !r.controller.is_active())
            .collect();
        if workload == "bursty" {
            for (kind, r) in &adaptives {
                let beaten = statics.iter().filter(|(_, s)| r.ler() < s.ler()).count();
                summary.push(format!(
                    "bursty: {} beats {beaten}/{} static policies (LER {}, {:.3} LRCs/round)",
                    kind.label(),
                    statics.len(),
                    sci(r.ler()),
                    r.lrcs_per_round(),
                ));
            }
        } else {
            // The controllers' base policy is no-lrc; parity is statistical.
            let base = &statics[0].1;
            for (kind, r) in &adaptives {
                let sigma = (r.ler_stderr().powi(2) + base.ler_stderr().powi(2))
                    .sqrt()
                    .max(1.0 / r.shots as f64);
                let z = (r.ler() - base.ler()).abs() / sigma;
                summary.push(format!(
                    "stationary: {} vs no-lrc |dLER|/sigma = {z:.2} (parity wants < 2)",
                    kind.label(),
                ));
            }
        }
    }
    t.print();
    for line in &summary {
        println!("  {line}");
    }
    t.write_csv(&opts.out, "adaptive")
}

/// Prints only ~12 evenly spaced rows of long per-round tables (the CSV holds
/// every round).
fn print_subsampled(t: &Table, rounds: usize) {
    if rounds <= 16 {
        t.print();
        return;
    }
    // Build a reduced copy for display.
    t.print_every(rounds.div_ceil(12));
}
