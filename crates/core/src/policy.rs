//! LRC scheduling policies (§4 of the paper).
//!
//! A policy is consulted once per syndrome-extraction round, *before* the
//! round executes, with the detection events produced by the previous round
//! (the "current syndrome" in the paper's terminology, §4.2 footnote). It
//! returns the LRC assignments for the upcoming round.
//!
//! | policy | source of truth | paper role | on a 64-lane stripe |
//! |---|---|---|---|
//! | [`NoLrcPolicy`] | — | "No LRC" baseline (Fig 1c, 2c) | native word planner |
//! | [`AlwaysLrcPolicy`] | fixed schedule | state-of-the-art Always-LRCs (Fig 3) | native word planner |
//! | [`EraserPolicy`] | ≥2 neighbouring parity flips (LSB) | ERASER | native word planner |
//! | [`EraserPolicy::with_multilevel`] | flips + \|L⟩ readouts | ERASER+M (§4.6) | native word planner |
//! | [`OptimalPolicy`] | simulator ground truth | idealized oracle | native word planner |
//! | [`crate::AdaptivePolicy`], custom | per-lane controller / closure | adaptive control | per-lane adapter |
//!
//! The runtime plans 64 shots at once through [`StripedPolicy`]. A policy
//! that returns a [`WordPlanner`] from [`LrcPolicy::word_planner`] is
//! planned with word operations, all lanes in one pass; any other runs one
//! scalar instance per lane. Both produce the same slot masks and
//! read-path words, bit for bit.

use crate::swap_table::SwapLookupTable;
use surface_code::{LrcAssignment, RotatedCode};

mod stripe;
pub(crate) use stripe::at_least;
pub use stripe::{StripeDetections, StripeRoundContext, StripedPolicy, WordPlanner};

/// Everything a policy may inspect when planning the next round.
#[derive(Debug, Clone, Copy)]
pub struct RoundContext<'a> {
    /// Index of the round being planned (0-based). Round 0 has no syndrome
    /// history: `events` is all-false.
    pub round: usize,
    /// Detection events per stabilizer from the previous round (syndrome bit
    /// changed relative to the round before).
    pub events: &'a [bool],
    /// Per-stabilizer flag: the previous round's readout for this stabilizer
    /// was classified |L⟩ (only ever true under multi-level readout).
    pub leaked_readouts: &'a [bool],
    /// Ground-truth leakage per data qubit at planning time. Only
    /// [`OptimalPolicy`] reads this — it models the idealized scheduler, not
    /// physically available information.
    pub oracle_leaked_data: &'a [bool],
    /// The LRC assignments that were executed in the previous round.
    pub last_lrcs: &'a [LrcAssignment],
}

/// Per-round leakage-detection outcomes a policy exposes to the decoder —
/// the read path of erasure-aware decoding (ERASER's detection flags become
/// heralded-erasure information, per Gu/Retzker/Kubica 2023 and Chang et
/// al. 2024).
///
/// The flags are the policy's *belief* at planning time, not ground truth:
/// speculation already has false positives and negatives, and the runtime
/// can layer additional imperfect-erasure-check noise on top (configurable
/// FP/FN rates in `ErasureDetection`).
#[derive(Debug, Clone, Copy)]
pub struct LeakageDetections<'a> {
    /// Per data qubit: believed leaked while the upcoming round executes
    /// (heralds the qubit's checks' time-like edges — a leaked qubit kicks
    /// random Paulis onto its CNOT partners, randomizing their readouts).
    pub data: &'a [bool],
    /// Per data qubit: leakage was just *removed* — the previous round's LRC
    /// (or seepage, for the oracle) returned the qubit to the computational
    /// basis in an effectively random state. Heralds the qubit's own
    /// data-error (space-like) edge around the return round, plus the
    /// time-like edges of the preceding leaked window.
    pub data_returned: &'a [bool],
    /// Per parity qubit (stabilizer index): the previous round's readout was
    /// classified |L⟩ (only ever true under multi-level readout).
    pub parity: &'a [bool],
}

/// An LRC scheduling policy. Implementations are stateful per shot; the
/// runtime calls [`LrcPolicy::reset_shot`] between shots.
pub trait LrcPolicy {
    /// Display name (used in experiment tables).
    fn name(&self) -> &'static str;

    /// Clears per-shot state.
    fn reset_shot(&mut self);

    /// Plans the LRC assignments for the upcoming round.
    fn plan_round(&mut self, ctx: &RoundContext<'_>) -> Vec<LrcAssignment>;

    /// Whether this policy requires multi-level readout (ERASER+M).
    fn uses_multilevel(&self) -> bool {
        false
    }

    /// Read path for erasure-aware decoding: the leakage flags this policy
    /// holds after the latest [`LrcPolicy::plan_round`] call. Policies
    /// without a detection mechanism (the static baselines) return `None`
    /// and leave the decoder leakage-blind.
    fn leakage_detections(&self) -> Option<LeakageDetections<'_>> {
        None
    }

    /// Run-level feedback-controller telemetry. Static policies return
    /// `None`; [`crate::control::AdaptivePolicy`] exposes its accumulated
    /// [`crate::control::ControllerStats`], which the runtime harvests once
    /// per stripe lane and merges exactly.
    fn controller(&self) -> Option<&crate::control::ControllerStats> {
        None
    }

    /// A native word-parallel planner that plans 64 stripe lanes of this
    /// policy at once, each lane bit for bit as one instance of this policy
    /// would (see [`StripedPolicy`]). The standard policies return one;
    /// the default `None` keeps a policy on the per-lane adapter.
    fn word_planner(&self, _code: &RotatedCode) -> Option<WordPlanner> {
        None
    }
}

/// Baseline: never schedule an LRC.
#[derive(Debug, Clone, Default)]
pub struct NoLrcPolicy;

impl NoLrcPolicy {
    /// Creates the policy.
    pub fn new() -> NoLrcPolicy {
        NoLrcPolicy
    }
}

impl LrcPolicy for NoLrcPolicy {
    fn name(&self) -> &'static str {
        "no-lrc"
    }

    fn reset_shot(&mut self) {}

    fn plan_round(&mut self, _ctx: &RoundContext<'_>) -> Vec<LrcAssignment> {
        Vec::new()
    }

    fn word_planner(&self, code: &RotatedCode) -> Option<WordPlanner> {
        Some(WordPlanner::fixed(code, [&[], &[]], true))
    }
}

/// The state-of-the-art static policy: LRCs on alternating rounds, `d² − 1`
/// at a time, with the left-out data qubit rotating so every qubit is covered
/// (Fig 3). With [`AlwaysLrcPolicy::every_round`] it applies the schedule in
/// every round instead — the shape used by the baseline DQLR protocol
/// (Appendix A.2), which removes leakage each round.
#[derive(Debug, Clone)]
pub struct AlwaysLrcPolicy {
    plans: [Vec<LrcAssignment>; 2],
    every_round: bool,
}

impl AlwaysLrcPolicy {
    /// Alternate-round SWAP-LRC schedule (the paper's Always-LRCs baseline).
    pub fn new(code: &RotatedCode) -> AlwaysLrcPolicy {
        AlwaysLrcPolicy {
            plans: Self::build_plans(code),
            every_round: false,
        }
    }

    /// Every-round schedule (used as the baseline DQLR policy).
    pub fn every_round(code: &RotatedCode) -> AlwaysLrcPolicy {
        AlwaysLrcPolicy {
            plans: Self::build_plans(code),
            every_round: true,
        }
    }

    fn build_plans(code: &RotatedCode) -> [Vec<LrcAssignment>; 2] {
        let table = SwapLookupTable::new(code);
        // Plan A: every data qubit with a primary.
        let mut plan_a = Vec::new();
        for q in 0..code.num_data() {
            if let Some(s) = table.primary(q) {
                plan_a.push(LrcAssignment { data: q, stab: s });
            }
        }
        // Plan B: the unmatched qubit takes its backup; the backup's primary
        // owner sits out this time (rotating coverage).
        let leftover = table.unmatched_data().expect("one unmatched data qubit");
        let backup = table.backup(leftover).expect("backup for unmatched qubit");
        let mut plan_b = vec![LrcAssignment {
            data: leftover,
            stab: backup,
        }];
        for q in 0..code.num_data() {
            if q == leftover {
                continue;
            }
            match table.primary(q) {
                Some(s) if s != backup => plan_b.push(LrcAssignment { data: q, stab: s }),
                _ => {}
            }
        }
        [plan_a, plan_b]
    }
}

impl LrcPolicy for AlwaysLrcPolicy {
    fn name(&self) -> &'static str {
        if self.every_round {
            "always-every-round"
        } else {
            "always-lrc"
        }
    }

    fn reset_shot(&mut self) {}

    fn plan_round(&mut self, ctx: &RoundContext<'_>) -> Vec<LrcAssignment> {
        if self.every_round {
            self.plans[ctx.round % 2].clone()
        } else if ctx.round % 2 == 1 {
            // Rounds 0, 2, 4… run plain extraction (parity qubits get their
            // MR); rounds 1, 3, 5… carry the LRCs.
            self.plans[(ctx.round / 2) % 2].clone()
        } else {
            Vec::new()
        }
    }

    fn word_planner(&self, code: &RotatedCode) -> Option<WordPlanner> {
        let [a, b] = &self.plans;
        Some(WordPlanner::fixed(code, [a, b], self.every_round))
    }
}

/// The idealized policy: schedules an LRC for exactly the data qubits that
/// are truly leaked, as soon as they leak (§3.2). Physically unrealizable —
/// it reads the simulator's ground truth — but it upper-bounds what any
/// speculation can achieve.
#[derive(Debug, Clone)]
pub struct OptimalPolicy {
    table: SwapLookupTable,
    /// Oracle leakage flags at the latest planning time (the read path: this
    /// policy's "detector" is perfect, so erasure-aware decoding under it
    /// upper-bounds what any real detector enables).
    detected_data: Vec<bool>,
    /// Qubits leaked at the previous planning time but clean now — the
    /// oracle's exact "leakage just removed" herald.
    detected_return: Vec<bool>,
    /// Constantly `false`: [`RoundContext`] carries no parity-qubit ground
    /// truth (the oracle models an idealized *data* scheduler). Sized for
    /// the runtime's imperfect-check false-positive synthesis.
    detected_parity: Vec<bool>,
}

impl OptimalPolicy {
    /// Creates the oracle policy for a code.
    pub fn new(code: &RotatedCode) -> OptimalPolicy {
        OptimalPolicy {
            table: SwapLookupTable::new(code),
            detected_data: vec![false; code.num_data()],
            detected_return: vec![false; code.num_data()],
            detected_parity: vec![false; code.num_stabs()],
        }
    }
}

impl LrcPolicy for OptimalPolicy {
    fn name(&self) -> &'static str {
        "optimal"
    }

    fn reset_shot(&mut self) {
        self.detected_data.fill(false);
        self.detected_return.fill(false);
    }

    fn plan_round(&mut self, ctx: &RoundContext<'_>) -> Vec<LrcAssignment> {
        for (q, &leaked) in ctx.oracle_leaked_data.iter().enumerate() {
            self.detected_return[q] = self.detected_data[q] && !leaked;
            self.detected_data[q] = leaked;
        }
        let mut used = vec![false; ctx.events.len()];
        for lrc in ctx.last_lrcs {
            used[lrc.stab] = true;
        }
        let mut plan = Vec::new();
        for (q, &leaked) in ctx.oracle_leaked_data.iter().enumerate() {
            if !leaked {
                continue;
            }
            for s in self.table.candidates(q) {
                if !used[s] {
                    used[s] = true;
                    plan.push(LrcAssignment { data: q, stab: s });
                    break;
                }
            }
            // No free partner: the qubit stays leaked and reappears in the
            // oracle set next round.
        }
        plan
    }

    fn leakage_detections(&self) -> Option<LeakageDetections<'_>> {
        Some(LeakageDetections {
            data: &self.detected_data,
            data_returned: &self.detected_return,
            parity: &self.detected_parity,
        })
    }

    fn word_planner(&self, code: &RotatedCode) -> Option<WordPlanner> {
        Some(WordPlanner::optimal(code, &self.table))
    }
}

/// ERASER (§4.2–§4.4): the Leakage Speculation Block with its Leakage
/// Tracking Table (LTT) and Parity Usage Tracking Table (PUTT), plus Dynamic
/// LRC Insertion through the primary/backup SWAP Lookup Table.
///
/// A data qubit is speculated leaked when **at least half** of its
/// neighbouring parity checks flipped (§4.2.1: two flips for bulk qubits per
/// Fig 10, a single flip for weight-2 corner qubits) — unless it received an
/// LRC in the previous round, in which case any leakage was just removed.
/// With
/// [`EraserPolicy::with_multilevel`] the LSB additionally marks every data
/// neighbour of a parity qubit whose readout was classified |L⟩ (ERASER+M,
/// §4.6.1).
#[derive(Debug, Clone)]
pub struct EraserPolicy {
    code: RotatedCode,
    table: SwapLookupTable,
    /// Leakage Tracking Table: one bit per data qubit.
    ltt: Vec<bool>,
    /// Data-qubit channel of the read path. Constantly `false` under both
    /// readout modes — two-level ERASER has no erasure-grade data herald
    /// (see the read-path comment in `plan_round`), and ERASER+M's data
    /// information arrives through [`EraserPolicy::detected_return`] — but
    /// kept at full size so the runtime's imperfect-check model can
    /// synthesize false positives over it.
    detected_data: Vec<bool>,
    /// Data qubits whose LRC *confirmed* leakage: serviced in the previous
    /// round and showing the post-LRC return transient now. A false flag's
    /// LRC is transparent (the SWAP preserves an unleaked state), so this
    /// signal is far more precise than speculation itself.
    detected_return: Vec<bool>,
    /// Parity qubits whose previous readout was classified |L⟩ (multilevel
    /// only) — the erasure read path.
    detected_parity: Vec<bool>,
    multilevel: bool,
    options: EraserOptions,
    /// Reusable planning scratch ("which data qubits had an LRC last
    /// round") — `plan_round` runs once per shot-round on the hot path, so
    /// it must not allocate.
    scratch_had_lrc: Vec<bool>,
    /// Reusable planning scratch ("which parity qubits are claimed").
    scratch_used: Vec<bool>,
}

/// Design knobs of the LSB/DLI, exposed for the ablation studies DESIGN.md
/// calls out (the defaults are the paper's design point).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EraserOptions {
    /// Flip-count threshold override; 0 keeps the paper's "at least half,
    /// minimum two" rule. A value `t` demands ≥ t flips regardless of the
    /// neighbour count (Insight #2: too low wastes LRCs, too high misses
    /// leakage).
    pub threshold_override: usize,
    /// Honour the Parity Usage Tracking Table (§4.2.2). Disabling it lets a
    /// parity qubit serve LRCs in consecutive rounds and accumulate leakage.
    pub use_putt: bool,
    /// Consult the backup column of the SWAP Lookup Table (§4.4). Disabling
    /// it reverts to primary-only allocation and drops conflicting LRCs.
    pub use_backup: bool,
}

impl Default for EraserOptions {
    fn default() -> EraserOptions {
        EraserOptions {
            threshold_override: 0,
            use_putt: true,
            use_backup: true,
        }
    }
}

impl EraserPolicy {
    /// ERASER with standard two-level readout.
    pub fn new(code: &RotatedCode) -> EraserPolicy {
        EraserPolicy {
            table: SwapLookupTable::new(code),
            ltt: vec![false; code.num_data()],
            detected_data: vec![false; code.num_data()],
            detected_return: vec![false; code.num_data()],
            detected_parity: vec![false; code.num_stabs()],
            code: code.clone(),
            multilevel: false,
            options: EraserOptions::default(),
            scratch_had_lrc: Vec::new(),
            scratch_used: Vec::new(),
        }
    }

    /// ERASER+M: ERASER plus multi-level readout integration.
    pub fn with_multilevel(code: &RotatedCode) -> EraserPolicy {
        EraserPolicy {
            multilevel: true,
            ..EraserPolicy::new(code)
        }
    }

    /// ERASER with explicit design knobs (ablation studies).
    pub fn with_options(code: &RotatedCode, options: EraserOptions) -> EraserPolicy {
        EraserPolicy {
            options,
            ..EraserPolicy::new(code)
        }
    }

    /// ERASER+M with explicit design knobs.
    pub fn with_multilevel_options(code: &RotatedCode, options: EraserOptions) -> EraserPolicy {
        EraserPolicy {
            multilevel: true,
            options,
            ..EraserPolicy::new(code)
        }
    }

    /// The paper's speculation threshold for a data qubit with `neighbours`
    /// adjacent parity qubits: **at least half** (§4.2.1). Bulk qubits (3–4
    /// neighbours) need the "at least two flips" of Fig 10; weight-2 corner
    /// qubits trigger on a single flip. This reproduces the paper's ≈3%
    /// false-positive rate and Table 4 LRC counts.
    pub fn threshold(neighbours: usize) -> usize {
        neighbours.div_ceil(2)
    }

    fn effective_threshold(&self, neighbours: usize) -> usize {
        if self.options.threshold_override == 0 {
            Self::threshold(neighbours)
        } else {
            self.options.threshold_override
        }
    }

    /// Read-only view of the LTT (exposed for tests and the RTL generator).
    pub fn ltt(&self) -> &[bool] {
        &self.ltt
    }
}

impl LrcPolicy for EraserPolicy {
    fn name(&self) -> &'static str {
        if self.multilevel {
            "eraser+m"
        } else {
            "eraser"
        }
    }

    fn reset_shot(&mut self) {
        self.ltt.fill(false);
        self.detected_data.fill(false);
        self.detected_return.fill(false);
        self.detected_parity.fill(false);
    }

    fn plan_round(&mut self, ctx: &RoundContext<'_>) -> Vec<LrcAssignment> {
        // --- Leakage Speculation Block -----------------------------------
        // Scratch is taken out of `self` and restored at the end: the body
        // keeps plain local borrows, with no steady-state allocation.
        let mut had_lrc = std::mem::take(&mut self.scratch_had_lrc);
        had_lrc.clear();
        had_lrc.resize(self.code.num_data(), false);
        for lrc in ctx.last_lrcs {
            had_lrc[lrc.data] = true;
        }
        for (q, &had) in had_lrc.iter().enumerate() {
            if had {
                // The LRC just removed any leakage; the syndrome transient it
                // causes must not retrigger speculation (§4.2.1).
                self.ltt[q] = false;
                continue;
            }
            let adj = self.code.adjacent_stabs(q);
            let flips = adj.iter().filter(|&&s| ctx.events[s]).count();
            if flips >= self.effective_threshold(adj.len()) {
                self.ltt[q] = true;
            }
        }
        // --- Erasure read path -------------------------------------------
        // Two-level readout provides no erasure-grade herald: the LSB's
        // speculative flags are precise enough to schedule cheap LRCs but
        // not to reweight the decoder (measured: feeding them in *raises*
        // the LER — the dominant false-positive trigger is an ordinary data
        // error, i.e. a real defect pair). Only multi-level |L⟩ labels —
        // genuine erasure checks in the sense of Chang et al. — flow to the
        // decoder.
        self.detected_data.fill(false);
        self.detected_return.fill(false);
        self.detected_parity.fill(false);
        if self.multilevel {
            // ERASER+M: a parity qubit read out as |L⟩ has likely transported
            // leakage to its data neighbours; speculate all of them (§4.6.1).
            for (s, &leaked) in ctx.leaked_readouts.iter().enumerate() {
                if !leaked {
                    continue;
                }
                for q in self.code.stabilizers()[s].support() {
                    if !had_lrc[q] {
                        self.ltt[q] = true;
                    }
                }
                // Read path: an |L⟩ label on a stabilizer that served an LRC
                // is the *data* qubit's readout (§4.6.2) — a hardware-
                // confirmed "this qubit was leaked and has just been
                // removed". Otherwise the parity qubit itself read out |L⟩.
                match ctx.last_lrcs.iter().find(|lrc| lrc.stab == s) {
                    Some(lrc) => self.detected_return[lrc.data] = true,
                    None => self.detected_parity[s] = true,
                }
            }
        }

        // --- Dynamic LRC Insertion ---------------------------------------
        // PUTT: parity qubits that served an LRC last round missed their MR
        // and must be measured+reset before serving again (§4.2.2).
        let mut used = std::mem::take(&mut self.scratch_used);
        used.clear();
        used.resize(self.code.num_stabs(), false);
        if self.options.use_putt {
            for lrc in ctx.last_lrcs {
                used[lrc.stab] = true;
            }
        }
        let mut plan = Vec::new();
        for q in 0..self.code.num_data() {
            if !self.ltt[q] {
                continue;
            }
            let candidates: Vec<usize> = if self.options.use_backup {
                self.table.candidates(q).collect()
            } else {
                self.table.primary(q).into_iter().collect()
            };
            for s in candidates {
                if !used[s] {
                    used[s] = true;
                    plan.push(LrcAssignment { data: q, stab: s });
                    self.ltt[q] = false;
                    break;
                }
            }
            // If every candidate is busy the entry stays in the LTT and
            // retries next round.
        }
        self.scratch_had_lrc = had_lrc;
        self.scratch_used = used;
        plan
    }

    fn uses_multilevel(&self) -> bool {
        self.multilevel
    }

    fn leakage_detections(&self) -> Option<LeakageDetections<'_>> {
        Some(LeakageDetections {
            data: &self.detected_data,
            data_returned: &self.detected_return,
            parity: &self.detected_parity,
        })
    }

    fn word_planner(&self, code: &RotatedCode) -> Option<WordPlanner> {
        Some(WordPlanner::eraser(
            code,
            &self.table,
            self.options,
            self.multilevel,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx<'a>(
        round: usize,
        events: &'a [bool],
        leaked_readouts: &'a [bool],
        oracle: &'a [bool],
        last: &'a [LrcAssignment],
    ) -> RoundContext<'a> {
        RoundContext {
            round,
            events,
            leaked_readouts,
            oracle_leaked_data: oracle,
            last_lrcs: last,
        }
    }

    fn quiet(code: &RotatedCode) -> (Vec<bool>, Vec<bool>, Vec<bool>) {
        (
            vec![false; code.num_stabs()],
            vec![false; code.num_stabs()],
            vec![false; code.num_data()],
        )
    }

    #[test]
    fn no_lrc_policy_never_schedules() {
        let code = RotatedCode::new(3);
        let (ev, lab, orc) = quiet(&code);
        let mut p = NoLrcPolicy::new();
        for r in 0..5 {
            assert!(p.plan_round(&ctx(r, &ev, &lab, &orc, &[])).is_empty());
        }
    }

    #[test]
    fn always_lrc_alternates_with_full_coverage() {
        let code = RotatedCode::new(5);
        let (ev, lab, orc) = quiet(&code);
        let mut p = AlwaysLrcPolicy::new(&code);
        let r0 = p.plan_round(&ctx(0, &ev, &lab, &orc, &[]));
        let r1 = p.plan_round(&ctx(1, &ev, &lab, &orc, &[]));
        let r2 = p.plan_round(&ctx(2, &ev, &lab, &orc, &[]));
        let r3 = p.plan_round(&ctx(3, &ev, &lab, &orc, &[]));
        assert!(r0.is_empty() && r2.is_empty());
        assert_eq!(r1.len(), code.num_stabs());
        assert_eq!(r3.len(), code.num_stabs());
        // The two LRC plans together cover every data qubit.
        let covered: std::collections::HashSet<usize> =
            r1.iter().chain(&r3).map(|l| l.data).collect();
        assert_eq!(covered.len(), code.num_data());
        // Average LRCs per round = (d²−1)/2, matching Table 4's baseline row.
        let avg = (r1.len() + r3.len()) as f64 / 4.0;
        assert!((avg - (code.num_data() - 1) as f64 / 2.0).abs() < 1e-9);
    }

    #[test]
    fn always_every_round_never_rests() {
        let code = RotatedCode::new(3);
        let (ev, lab, orc) = quiet(&code);
        let mut p = AlwaysLrcPolicy::every_round(&code);
        for r in 0..4 {
            assert_eq!(
                p.plan_round(&ctx(r, &ev, &lab, &orc, &[])).len(),
                code.num_stabs()
            );
        }
    }

    #[test]
    fn optimal_schedules_exactly_leaked_qubits() {
        let code = RotatedCode::new(3);
        let (ev, lab, mut orc) = quiet(&code);
        orc[4] = true;
        orc[7] = true;
        let mut p = OptimalPolicy::new(&code);
        let plan = p.plan_round(&ctx(2, &ev, &lab, &orc, &[]));
        let data: Vec<usize> = plan.iter().map(|l| l.data).collect();
        assert_eq!(data, vec![4, 7]);
        // Quiet oracle → nothing scheduled.
        let orc2 = vec![false; code.num_data()];
        assert!(p.plan_round(&ctx(3, &ev, &lab, &orc2, &[])).is_empty());
    }

    #[test]
    fn eraser_threshold_is_at_least_half() {
        assert_eq!(EraserPolicy::threshold(2), 1, "corner qubits: single flip");
        assert_eq!(EraserPolicy::threshold(3), 2);
        assert_eq!(EraserPolicy::threshold(4), 2);
    }

    #[test]
    fn eraser_fires_on_two_neighbouring_flips() {
        let code = RotatedCode::new(3);
        let (mut ev, lab, orc) = quiet(&code);
        let q = code.data_qubit(1, 1); // interior: 4 neighbours
        let adj = code.adjacent_stabs(q);
        ev[adj[0]] = true;
        ev[adj[1]] = true;
        let mut p = EraserPolicy::new(&code);
        let plan = p.plan_round(&ctx(1, &ev, &lab, &orc, &[]));
        assert!(plan.iter().any(|l| l.data == q), "LRC for flipped qubit");
    }

    #[test]
    fn eraser_ignores_single_flip_on_bulk_qubits() {
        let code = RotatedCode::new(3);
        let (mut ev, lab, orc) = quiet(&code);
        let q = code.data_qubit(1, 1); // interior: 4 neighbours, threshold 2
        ev[code.adjacent_stabs(q)[0]] = true;
        let mut p = EraserPolicy::new(&code);
        let plan = p.plan_round(&ctx(1, &ev, &lab, &orc, &[]));
        // The bulk qubit must not fire on one flip. (A weight-2 corner qubit
        // adjacent to the same stabilizer legitimately may — its threshold is
        // "half of two" = 1.)
        assert!(!plan.iter().any(|l| l.data == q));
        for l in &plan {
            assert_eq!(
                code.adjacent_stabs(l.data).len(),
                2,
                "only corners may fire"
            );
        }
    }

    #[test]
    fn eraser_skips_qubits_that_just_had_an_lrc() {
        let code = RotatedCode::new(3);
        let (mut ev, lab, orc) = quiet(&code);
        let q = code.data_qubit(1, 1);
        let adj = code.adjacent_stabs(q);
        ev[adj[0]] = true;
        ev[adj[1]] = true;
        let last = [LrcAssignment {
            data: q,
            stab: adj[2],
        }];
        let mut p = EraserPolicy::new(&code);
        let plan = p.plan_round(&ctx(2, &ev, &lab, &orc, &last));
        assert!(
            !plan.iter().any(|l| l.data == q),
            "no re-speculation right after an LRC"
        );
    }

    #[test]
    fn putt_blocks_parity_reuse_in_consecutive_rounds() {
        let code = RotatedCode::new(3);
        let (mut ev, lab, orc) = quiet(&code);
        let q = code.data_qubit(1, 1);
        let adj = code.adjacent_stabs(q);
        ev[adj[0]] = true;
        ev[adj[1]] = true;
        let mut p = EraserPolicy::new(&code);
        let table = SwapLookupTable::new(&code);
        let primary = table.primary(q).unwrap();
        // The primary served an LRC (for some other qubit) last round.
        let other = code.stabilizers()[primary]
            .support()
            .find(|&d| d != q)
            .unwrap();
        let last = [LrcAssignment {
            data: other,
            stab: primary,
        }];
        let plan = p.plan_round(&ctx(2, &ev, &lab, &orc, &last));
        let mine = plan.iter().find(|l| l.data == q).expect("still scheduled");
        assert_ne!(mine.stab, primary, "PUTT must divert to the backup");
        assert_eq!(mine.stab, table.backup(q).unwrap());
    }

    #[test]
    fn unserviced_ltt_entry_retries_next_round() {
        let code = RotatedCode::new(3);
        // Corner qubit with exactly two neighbours; block both.
        let q = code.data_qubit(0, 0);
        let adj: Vec<usize> = code.adjacent_stabs(q).to_vec();
        assert_eq!(adj.len(), 2);
        let (mut ev, lab, orc) = quiet(&code);
        ev[adj[0]] = true;
        ev[adj[1]] = true;
        let mut p = EraserPolicy::new(&code);
        // Both of q's candidates served LRCs last round (pick data owners for
        // them different from q).
        let table = SwapLookupTable::new(&code);
        let cands: Vec<usize> = table.candidates(q).collect();
        let last: Vec<LrcAssignment> = cands
            .iter()
            .map(|&s| LrcAssignment {
                data: code.stabilizers()[s].support().find(|&d| d != q).unwrap(),
                stab: s,
            })
            .collect();
        let plan = p.plan_round(&ctx(2, &ev, &lab, &orc, &last));
        assert!(!plan.iter().any(|l| l.data == q), "no free partner yet");
        assert!(p.ltt()[q], "entry must persist");
        // Next round with free partners: it gets serviced.
        let quiet_ev = vec![false; code.num_stabs()];
        let plan2 = p.plan_round(&ctx(3, &quiet_ev, &lab, &orc, &plan));
        assert!(plan2.iter().any(|l| l.data == q), "retried and serviced");
    }

    #[test]
    fn eraser_m_reacts_to_leaked_readout() {
        let code = RotatedCode::new(3);
        let (ev, mut lab, orc) = quiet(&code);
        let s = 3;
        lab[s] = true;
        let mut p = EraserPolicy::with_multilevel(&code);
        assert!(p.uses_multilevel());
        let plan = p.plan_round(&ctx(1, &ev, &lab, &orc, &[]));
        let planned: std::collections::HashSet<usize> = plan.iter().map(|l| l.data).collect();
        for q in code.stabilizers()[s].support() {
            assert!(planned.contains(&q), "neighbour {q} of leaked parity");
        }
        // Plain ERASER ignores labels entirely.
        let mut base = EraserPolicy::new(&code);
        assert!(base.plan_round(&ctx(1, &ev, &lab, &orc, &[])).is_empty());
    }

    #[test]
    fn plans_never_conflict() {
        // Fuzz: random events must never produce duplicate data or parity
        // assignments.
        let code = RotatedCode::new(5);
        let mut rng = qec_core::Rng::new(42);
        let mut p = EraserPolicy::new(&code);
        let lab = vec![false; code.num_stabs()];
        let orc = vec![false; code.num_data()];
        let mut last: Vec<LrcAssignment> = Vec::new();
        for round in 0..50 {
            let ev: Vec<bool> = (0..code.num_stabs()).map(|_| rng.bernoulli(0.3)).collect();
            let plan = p.plan_round(&ctx(round, &ev, &lab, &orc, &last));
            let mut data_seen = std::collections::HashSet::new();
            let mut stab_seen = std::collections::HashSet::new();
            for l in &plan {
                assert!(data_seen.insert(l.data), "duplicate data {}", l.data);
                assert!(stab_seen.insert(l.stab), "duplicate stab {}", l.stab);
                assert!(code.adjacent_stabs(l.data).contains(&l.stab));
                // PUTT honoured.
                assert!(!last.iter().any(|x| x.stab == l.stab));
            }
            last = plan;
        }
    }

    #[test]
    fn threshold_override_changes_sensitivity() {
        let code = RotatedCode::new(3);
        let (mut ev, lab, orc) = quiet(&code);
        let q = code.data_qubit(1, 1); // bulk qubit: default threshold 2
        ev[code.adjacent_stabs(q)[0]] = true; // single flip
        let mut strict = EraserPolicy::new(&code);
        assert!(!strict
            .plan_round(&ctx(1, &ev, &lab, &orc, &[]))
            .iter()
            .any(|l| l.data == q));
        let mut eager = EraserPolicy::with_options(
            &code,
            EraserOptions {
                threshold_override: 1,
                ..EraserOptions::default()
            },
        );
        let plan = eager.plan_round(&ctx(1, &ev, &lab, &orc, &[]));
        assert!(
            plan.iter().any(|l| l.data == q),
            "threshold 1 fires on one flip"
        );
        // And a global threshold of 3 silences even double flips on corners.
        let (mut ev2, ..) = quiet(&code);
        let corner = code.data_qubit(0, 0);
        for &s in code.adjacent_stabs(corner) {
            ev2[s] = true;
        }
        let mut sluggish = EraserPolicy::with_options(
            &code,
            EraserOptions {
                threshold_override: 3,
                ..EraserOptions::default()
            },
        );
        assert!(sluggish
            .plan_round(&ctx(1, &ev2, &lab, &orc, &[]))
            .is_empty());
    }

    #[test]
    fn disabling_putt_allows_consecutive_reuse() {
        let code = RotatedCode::new(3);
        let (mut ev, lab, orc) = quiet(&code);
        let q = code.data_qubit(1, 1);
        let adj = code.adjacent_stabs(q);
        ev[adj[0]] = true;
        ev[adj[1]] = true;
        let table = SwapLookupTable::new(&code);
        let primary = table.primary(q).unwrap();
        let other = code.stabilizers()[primary]
            .support()
            .find(|&d| d != q)
            .unwrap();
        let last = [LrcAssignment {
            data: other,
            stab: primary,
        }];
        let mut no_putt = EraserPolicy::with_options(
            &code,
            EraserOptions {
                use_putt: false,
                ..EraserOptions::default()
            },
        );
        let plan = no_putt.plan_round(&ctx(2, &ev, &lab, &orc, &last));
        let mine = plan.iter().find(|l| l.data == q).unwrap();
        assert_eq!(mine.stab, primary, "without PUTT the primary is reused");
    }

    #[test]
    fn disabling_backup_drops_conflicting_requests() {
        let code = RotatedCode::new(3);
        let table = SwapLookupTable::new(&code);
        // The unmatched data qubit has no primary: with backups disabled it
        // can never be serviced.
        let q = table.unmatched_data().unwrap();
        let (mut ev, lab, orc) = quiet(&code);
        for &s in code.adjacent_stabs(q) {
            ev[s] = true;
        }
        let mut no_backup = EraserPolicy::with_options(
            &code,
            EraserOptions {
                use_backup: false,
                ..EraserOptions::default()
            },
        );
        let plan = no_backup.plan_round(&ctx(1, &ev, &lab, &orc, &[]));
        assert!(!plan.iter().any(|l| l.data == q));
        assert!(no_backup.ltt()[q], "entry parks in the LTT forever");
    }

    #[test]
    fn leakage_detections_read_path() {
        let code = RotatedCode::new(3);
        // Two-level ERASER exposes the read path but certifies nothing: its
        // speculative flags are not erasure-grade (see the module docs).
        let (mut ev, lab, orc) = quiet(&code);
        let q = code.data_qubit(1, 1);
        let adj = code.adjacent_stabs(q);
        ev[adj[0]] = true;
        ev[adj[1]] = true;
        let mut p = EraserPolicy::new(&code);
        let plan = p.plan_round(&ctx(1, &ev, &lab, &orc, &[]));
        assert!(plan.iter().any(|l| l.data == q), "LRC scheduled");
        let det = p
            .leakage_detections()
            .expect("eraser exposes the read path");
        assert!(det.data.iter().all(|&x| !x), "two-level: no data heralds");
        assert!(det.parity.iter().all(|&x| !x), "two-level: no |L> labels");

        // ERASER+M: an |L> label on a non-serving stabilizer is a parity
        // flag; on a serving stabilizer it is the LRC's *data* readout — a
        // confirmed removed data leak.
        let (ev2, mut lab2, orc2) = quiet(&code);
        lab2[3] = true;
        let mut pm = EraserPolicy::with_multilevel(&code);
        pm.plan_round(&ctx(1, &ev2, &lab2, &orc2, &[]));
        let det = pm.leakage_detections().unwrap();
        assert!(det.parity[3]);
        assert!(det.data_returned.iter().all(|&x| !x));
        let serviced = code.stabilizers()[3].support().next().unwrap();
        let last = [LrcAssignment {
            data: serviced,
            stab: 3,
        }];
        pm.plan_round(&ctx(2, &ev2, &lab2, &orc2, &last));
        let det = pm.leakage_detections().unwrap();
        assert!(!det.parity[3], "serving stab's |L> is the data readout");
        assert!(det.data_returned[serviced], "confirmed removed data leak");
        pm.reset_shot();
        assert!(!pm.leakage_detections().unwrap().data_returned[serviced]);

        // The oracle's detector is the oracle itself, including the
        // leaked-then-returned transition.
        let (ev3, lab3, mut orc3) = quiet(&code);
        orc3[4] = true;
        let mut opt = OptimalPolicy::new(&code);
        opt.plan_round(&ctx(1, &ev3, &lab3, &orc3, &[]));
        assert!(opt.leakage_detections().unwrap().data[4]);
        assert!(!opt.leakage_detections().unwrap().data_returned[4]);
        orc3[4] = false;
        opt.plan_round(&ctx(2, &ev3, &lab3, &orc3, &[]));
        let det = opt.leakage_detections().unwrap();
        assert!(!det.data[4]);
        assert!(det.data_returned[4], "leak removal is heralded");

        // Static baselines expose no detector.
        assert!(NoLrcPolicy::new().leakage_detections().is_none());
        assert!(AlwaysLrcPolicy::new(&code).leakage_detections().is_none());
    }

    #[test]
    fn shot_reset_clears_ltt() {
        let code = RotatedCode::new(3);
        let (mut ev, lab, orc) = quiet(&code);
        let q = code.data_qubit(0, 0);
        for &s in code.adjacent_stabs(q) {
            ev[s] = true;
        }
        let mut p = EraserPolicy::new(&code);
        // Saturate candidates so the entry persists.
        let table = SwapLookupTable::new(&code);
        let last: Vec<LrcAssignment> = table
            .candidates(q)
            .map(|s| LrcAssignment {
                data: code.stabilizers()[s].support().find(|&d| d != q).unwrap(),
                stab: s,
            })
            .collect();
        p.plan_round(&ctx(1, &ev, &lab, &orc, &last));
        assert!(p.ltt()[q]);
        p.reset_shot();
        assert!(!p.ltt()[q]);
    }
}
