//! Static round schedules with LRC *slots*, for the word-parallel runtime.
//!
//! A one-shot-at-a-time runner re-synthesizes every round's circuit per
//! shot because the LRC plan is dynamic. The striped (64-shots-per-word)
//! runtime cannot afford that; instead it executes one *static* schedule of
//! [`MaskedOp`]s per round, in which every op that depends on the plan is
//! gated on an [`OpCond`] referencing an LRC **slot** — one of the
//! enumerable legal assignments of a data qubit to an adjacent stabilizer's
//! parity qubit ([`SlotTable`]). Each round, the policy layer resolves to
//! one lane-mask word per slot; executing the schedule under those masks
//! reproduces, lane by lane, exactly the dynamic circuit
//! [`RoundBuilder::round`] would synthesize for that lane's plan (asserted
//! structurally by this module's tests and behaviourally by the runtime's
//! reference-runner tests).
//!
//! Slot order is canonical — sorted by `(data, stab)` — and the runtime
//! sorts every plan the same way before use, so the per-lane restriction of
//! the static schedule and the dynamically built round agree op for op.
//!
//! `Measure` keys are emitted for round 0; the executor adds the round's
//! key offset (`round · num_stabs` — see `KeyLayout::stab_key`).

use crate::circuits::{LrcAssignment, RoundBuilder};
use crate::experiment::KeyLayout;
use crate::layout::RotatedCode;
use qec_core::{MaskedOp, Op, OpCond, QubitId};

/// The enumerable LRC slots of a code: every adjacent (data, stabilizer)
/// pair, in canonical `(data, stab)` order.
#[derive(Debug, Clone)]
pub struct SlotTable {
    slots: Vec<LrcAssignment>,
    /// Dense lookup `data * num_stabs + stab -> slot id`.
    index: Vec<Option<usize>>,
    /// Slot ids borrowing each stabilizer's parity qubit.
    by_stab: Vec<Vec<usize>>,
    num_stabs: usize,
}

impl SlotTable {
    /// Enumerates the slots of `code`.
    pub fn new(code: &RotatedCode) -> SlotTable {
        let num_stabs = code.num_stabs();
        let mut slots = Vec::new();
        for data in 0..code.num_data() {
            let mut stabs: Vec<usize> = code.adjacent_stabs(data).to_vec();
            stabs.sort_unstable();
            for stab in stabs {
                slots.push(LrcAssignment { data, stab });
            }
        }
        let mut index = vec![None; code.num_data() * num_stabs];
        let mut by_stab = vec![Vec::new(); num_stabs];
        for (i, slot) in slots.iter().enumerate() {
            index[slot.data * num_stabs + slot.stab] = Some(i);
            by_stab[slot.stab].push(i);
        }
        SlotTable {
            slots,
            index,
            by_stab,
            num_stabs,
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the table is empty (never true for a valid code).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// All slots, in canonical order.
    pub fn slots(&self) -> &[LrcAssignment] {
        &self.slots
    }

    /// The assignment of slot `id`.
    pub fn slot(&self, id: usize) -> LrcAssignment {
        self.slots[id]
    }

    /// Resolves an assignment to its slot id (`None` if the pair is not
    /// adjacent).
    pub fn slot_of(&self, data: QubitId, stab: usize) -> Option<usize> {
        self.index[data * self.num_stabs + stab]
    }

    /// Slot ids borrowing stabilizer `stab`'s parity qubit.
    pub fn slots_on_stab(&self, stab: usize) -> &[usize] {
        &self.by_stab[stab]
    }
}

/// One static round schedule, segmented exactly like the dynamic
/// `SyndromeRound` so the runtime can probe leakage population between the
/// entangling layers and the measurement layer and branch per lane on
/// readout labels.
///
/// Execution order: `pre` → (LPR probe) → `measure` → `mr_reset` → `tails`
/// → `post`.
#[derive(Debug, Clone, Default)]
pub struct MaskedRound {
    /// Round-start noise, Hadamards, dance CNOTs (all-lane) plus the
    /// slot-gated LRC swap-ins.
    pub pre: Vec<MaskedOp>,
    /// Measurement layer: per stabilizer, a parity-qubit arm gated on
    /// [`OpCond::StabFree`] and one data-qubit arm per slot.
    pub measure: Vec<MaskedOp>,
    /// Reset layer, with the same arm structure as `measure`.
    pub mr_reset: Vec<MaskedOp>,
    /// Per-slot LRC tails: the |L⟩ branch ([`OpCond::SlotLabelLeaked`] —
    /// parity reset, swap-back squashed, §4.6.2) followed by the normal
    /// swap-back branch ([`OpCond::SlotLabelClean`]).
    pub tails: Vec<MaskedOp>,
    /// Trailing slot-gated segment (the DQLR protocol's LeakageISWAP +
    /// second reset).
    pub post: Vec<MaskedOp>,
}

impl RoundBuilder<'_> {
    fn emit_cnot(&self, ops: &mut Vec<MaskedOp>, cond: OpCond, gate: Op) {
        let (control, target) = match gate {
            Op::Cnot { control, target } | Op::CnotNoTransport { control, target } => {
                (control, target)
            }
            _ => unreachable!("emit_cnot only takes CNOT variants"),
        };
        let noise = self.noise();
        ops.push(MaskedOp { op: gate, cond });
        ops.push(MaskedOp {
            op: Op::Depolarize2 {
                a: control,
                b: target,
                p: noise.p,
            },
            cond,
        });
        let leak = noise.leak_p();
        if leak > 0.0 {
            ops.push(MaskedOp {
                op: Op::LeakInject {
                    qubit: control,
                    p: leak,
                },
                cond,
            });
            ops.push(MaskedOp {
                op: Op::LeakInject {
                    qubit: target,
                    p: leak,
                },
                cond,
            });
        }
    }

    /// Emits the static SWAP-protocol round schedule over `table`'s slots
    /// (keys for round 0; the executor adds the round offset).
    pub fn masked_round(&self, table: &SlotTable, keys: &KeyLayout) -> MaskedRound {
        let code = self.code();
        let noise = *self.noise();

        // The all-lane round body is exactly the plain (no-LRC) round.
        let plain = self.round(0, &[], keys);
        let mut pre: Vec<MaskedOp> = plain.pre.into_iter().map(MaskedOp::always).collect();
        // LRC swap-in: SWAP(D, P) as three CNOTs, gated per slot, in
        // canonical slot order (matching the runtime's sorted plans).
        for (i, slot) in table.slots().iter().enumerate() {
            let p = code.parity_qubit(slot.stab);
            let d = slot.data;
            let cond = OpCond::Slot(i);
            self.emit_cnot(
                &mut pre,
                cond,
                Op::Cnot {
                    control: d,
                    target: p,
                },
            );
            self.emit_cnot(
                &mut pre,
                cond,
                Op::Cnot {
                    control: p,
                    target: d,
                },
            );
            self.emit_cnot(
                &mut pre,
                cond,
                Op::Cnot {
                    control: d,
                    target: p,
                },
            );
        }

        // Measurement + reset layers: per stabilizer, the parity-qubit arm
        // runs in lanes with no slot on this stabilizer; each slot's
        // data-qubit arm runs in its scheduled lanes. Keys are identical
        // across arms (detectors never change).
        let mut measure = Vec::new();
        let mut mr_reset = Vec::new();
        for s in 0..code.num_stabs() {
            let key = keys.stab_key(0, s);
            let mut arms: Vec<(OpCond, QubitId)> =
                vec![(OpCond::StabFree(s), code.parity_qubit(s))];
            for &i in table.slots_on_stab(s) {
                arms.push((OpCond::Slot(i), table.slot(i).data));
            }
            for &(cond, target) in &arms {
                measure.push(MaskedOp {
                    op: Op::XError {
                        qubit: target,
                        p: noise.p,
                    },
                    cond,
                });
                measure.push(MaskedOp {
                    op: Op::Measure { qubit: target, key },
                    cond,
                });
            }
            for &(cond, target) in &arms {
                mr_reset.push(MaskedOp {
                    op: Op::Reset(target),
                    cond,
                });
                mr_reset.push(MaskedOp {
                    op: Op::XError {
                        qubit: target,
                        p: noise.p,
                    },
                    cond,
                });
            }
        }

        // LRC tails, per slot: the |L⟩ branch (reset P, squash the
        // swap-back) then the normal swap-back (transport-suppressed
        // CNOTs). Exactly one branch fires per scheduled lane.
        let mut tails = Vec::new();
        for (i, slot) in table.slots().iter().enumerate() {
            let p = code.parity_qubit(slot.stab);
            let d = slot.data;
            let leaked = OpCond::SlotLabelLeaked(i);
            tails.push(MaskedOp {
                op: Op::Reset(p),
                cond: leaked,
            });
            tails.push(MaskedOp {
                op: Op::XError {
                    qubit: p,
                    p: noise.p,
                },
                cond: leaked,
            });
            let clean = OpCond::SlotLabelClean(i);
            self.emit_cnot(
                &mut tails,
                clean,
                Op::CnotNoTransport {
                    control: p,
                    target: d,
                },
            );
            self.emit_cnot(
                &mut tails,
                clean,
                Op::CnotNoTransport {
                    control: d,
                    target: p,
                },
            );
        }

        MaskedRound {
            pre,
            measure,
            mr_reset,
            tails,
            post: Vec::new(),
        }
    }

    /// Emits the static DQLR-protocol round schedule: a plain extraction
    /// body plus the slot-gated LeakageISWAP + second reset tail.
    pub fn masked_dqlr_round(&self, table: &SlotTable, keys: &KeyLayout) -> MaskedRound {
        let code = self.code();
        let noise = *self.noise();
        let plain = self.round(0, &[], keys);
        let mut post = Vec::new();
        for (i, slot) in table.slots().iter().enumerate() {
            let p = code.parity_qubit(slot.stab);
            let d = slot.data;
            let cond = OpCond::Slot(i);
            post.push(MaskedOp {
                op: Op::LeakIswap { data: d, parity: p },
                cond,
            });
            post.push(MaskedOp {
                op: Op::Depolarize2 {
                    a: d,
                    b: p,
                    p: noise.p,
                },
                cond,
            });
            let leak = noise.leak_p();
            if leak > 0.0 {
                post.push(MaskedOp {
                    op: Op::LeakInject { qubit: d, p: leak },
                    cond,
                });
                post.push(MaskedOp {
                    op: Op::LeakInject { qubit: p, p: leak },
                    cond,
                });
            }
            post.push(MaskedOp {
                op: Op::Reset(p),
                cond,
            });
            post.push(MaskedOp {
                op: Op::XError {
                    qubit: p,
                    p: noise.p,
                },
                cond,
            });
        }
        MaskedRound {
            pre: plain.pre.into_iter().map(MaskedOp::always).collect(),
            measure: plain.measure.into_iter().map(MaskedOp::always).collect(),
            mr_reset: plain.mr_reset.into_iter().map(MaskedOp::always).collect(),
            tails: Vec::new(),
            post,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qec_core::NoiseParams;

    /// Filters a masked segment down to the ops one lane executes, given
    /// its plan (scheduled slot set) and — for the tails — which branch the
    /// lane takes per slot.
    fn lane_ops(
        segment: &[MaskedOp],
        table: &SlotTable,
        plan: &[LrcAssignment],
        label_leaked: impl Fn(usize) -> bool,
    ) -> Vec<Op> {
        let scheduled: Vec<usize> = plan
            .iter()
            .map(|l| table.slot_of(l.data, l.stab).expect("adjacent pair"))
            .collect();
        let stab_busy: Vec<usize> = plan.iter().map(|l| l.stab).collect();
        segment
            .iter()
            .filter(|mop| match mop.cond {
                OpCond::Always => true,
                OpCond::Slot(i) => scheduled.contains(&i),
                OpCond::StabFree(s) => !stab_busy.contains(&s),
                OpCond::SlotLabelLeaked(i) => scheduled.contains(&i) && label_leaked(i),
                OpCond::SlotLabelClean(i) => scheduled.contains(&i) && !label_leaked(i),
            })
            .map(|mop| mop.op)
            .collect()
    }

    /// Random valid plans, sorted canonically like the runtime sorts them.
    fn random_plan(code: &RotatedCode, rng: &mut qec_core::Rng) -> Vec<LrcAssignment> {
        let mut stab_used = vec![false; code.num_stabs()];
        let mut plan = Vec::new();
        for data in 0..code.num_data() {
            if rng.bernoulli(0.4) {
                let adj = code.adjacent_stabs(data);
                let stab = adj[rng.below(adj.len() as u64) as usize];
                if !stab_used[stab] {
                    stab_used[stab] = true;
                    plan.push(LrcAssignment { data, stab });
                }
            }
        }
        plan.sort_unstable_by_key(|l| (l.data, l.stab));
        plan
    }

    #[test]
    fn slot_table_is_canonical_and_invertible() {
        let code = RotatedCode::new(5);
        let table = SlotTable::new(&code);
        assert!(!table.is_empty());
        // Canonical (data, stab) order.
        let pairs: Vec<(usize, usize)> = table.slots().iter().map(|l| (l.data, l.stab)).collect();
        let mut sorted = pairs.clone();
        sorted.sort_unstable();
        assert_eq!(pairs, sorted);
        // Every adjacency appears exactly once and round-trips.
        let expected: usize = (0..code.num_data())
            .map(|q| code.adjacent_stabs(q).len())
            .sum();
        assert_eq!(table.len(), expected);
        for (i, slot) in table.slots().iter().enumerate() {
            assert_eq!(table.slot_of(slot.data, slot.stab), Some(i));
            assert!(table.slots_on_stab(slot.stab).contains(&i));
        }
        assert_eq!(table.slot_of(0, code.num_stabs() - 1), None);
    }

    #[test]
    fn masked_round_restricts_to_every_dynamic_round() {
        // The load-bearing structural property: for any plan, the lane
        // restriction of the static schedule is op-for-op the dynamic round
        // `RoundBuilder::round` builds.
        for noise in [
            NoiseParams::standard(1e-3),
            NoiseParams::without_leakage(1e-3),
        ] {
            let code = RotatedCode::new(5);
            let keys = KeyLayout::new(3, code.num_stabs(), code.num_data());
            let builder = RoundBuilder::new(&code, noise);
            let table = SlotTable::new(&code);
            let masked = builder.masked_round(&table, &keys);
            let mut rng = qec_core::Rng::new(2024);
            for trial in 0..40 {
                let plan = random_plan(&code, &mut rng);
                let dynamic = builder.round(0, &plan, &keys);
                assert_eq!(
                    lane_ops(&masked.pre, &table, &plan, |_| false),
                    dynamic.pre,
                    "pre mismatch, trial {trial}"
                );
                assert_eq!(
                    lane_ops(&masked.measure, &table, &plan, |_| false),
                    dynamic.measure,
                    "measure mismatch, trial {trial}"
                );
                assert_eq!(
                    lane_ops(&masked.mr_reset, &table, &plan, |_| false),
                    dynamic.mr_reset,
                    "mr_reset mismatch, trial {trial}"
                );
                // Tails: the clean branch must be the concatenated
                // swap-backs, the |L⟩ branch the concatenated leak paths —
                // in plan order.
                let clean: Vec<Op> = dynamic
                    .lrc_post
                    .iter()
                    .flat_map(|t| t.swap_back.iter().copied())
                    .collect();
                assert_eq!(
                    lane_ops(&masked.tails, &table, &plan, |_| false),
                    clean,
                    "clean tails mismatch, trial {trial}"
                );
                let leaked: Vec<Op> = dynamic
                    .lrc_post
                    .iter()
                    .flat_map(|t| t.leak_path.iter().copied())
                    .collect();
                assert_eq!(
                    lane_ops(&masked.tails, &table, &plan, |_| true),
                    leaked,
                    "leak tails mismatch, trial {trial}"
                );
                assert!(masked.post.is_empty());
            }
        }
    }

    #[test]
    fn masked_dqlr_round_restricts_to_every_dynamic_round() {
        let code = RotatedCode::new(3);
        let keys = KeyLayout::new(2, code.num_stabs(), code.num_data());
        let noise = NoiseParams::standard(1e-3);
        let builder = RoundBuilder::new(&code, noise);
        let table = SlotTable::new(&code);
        let masked = builder.masked_dqlr_round(&table, &keys);
        let mut rng = qec_core::Rng::new(77);
        for trial in 0..25 {
            let plan = random_plan(&code, &mut rng);
            let dynamic = builder.dqlr_round(0, &plan, &keys);
            assert_eq!(
                lane_ops(&masked.pre, &table, &plan, |_| false),
                dynamic.pre,
                "pre, trial {trial}"
            );
            assert_eq!(
                lane_ops(&masked.measure, &table, &plan, |_| false),
                dynamic.measure,
                "measure, trial {trial}"
            );
            assert_eq!(
                lane_ops(&masked.post, &table, &plan, |_| false),
                dynamic.post,
                "post, trial {trial}"
            );
            assert!(masked.tails.is_empty() && dynamic.lrc_post.is_empty());
        }
    }
}
