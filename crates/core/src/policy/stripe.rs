//! The striped (64-shots-per-word) policy layer.
//!
//! [`StripedPolicy`] turns a policy's decisions for up to 64 stripe lanes
//! into one lane mask per LRC slot of the static schedule. It holds one of
//! two planners:
//!
//! * a native [`WordPlanner`], for every policy that offers one
//!   ([`LrcPolicy::word_planner`]: the static baselines, ERASER, ERASER+M
//!   and the oracle). It plans all lanes at once with word operations: the
//!   Leakage Tracking Table is one word per data qubit, the "at least half
//!   the adjacent checks" rule is the bit-sliced [`at_least`], and the
//!   Dynamic LRC Insertion greedy claims parity qubits for every lane in
//!   one pass over the data qubits — the software analogue of the
//!   per-qubit parallel logic `rtl.rs` emits;
//! * one boxed scalar [`LrcPolicy`] per lane, for custom and adaptive
//!   policies. This per-lane adapter is also the native planners' reference
//!   oracle: the unit tests hold every native planner to it on slot masks
//!   and read-path words.

use super::{LrcPolicy, RoundContext};
use crate::swap_table::SwapLookupTable;
use surface_code::{LrcAssignment, RotatedCode, SlotTable};

/// The striped (64-shots-per-word) planning context: the same signals as
/// [`RoundContext`], transposed into one word per stabilizer / data qubit
/// with bit `l` belonging to stripe lane `l`.
#[derive(Debug, Clone, Copy)]
pub struct StripeRoundContext<'a> {
    /// Index of the round being planned (0-based; shared by every lane).
    pub round: usize,
    /// Detection-event words per stabilizer from the previous round.
    pub events: &'a [u64],
    /// |L⟩-label words per stabilizer from the previous round.
    pub leaked_readouts: &'a [u64],
    /// Ground-truth leakage words per data qubit at planning time (consumed
    /// only by the oracle policy).
    pub oracle_leaked_data: &'a [u64],
    /// Lanes holding live shots. A stripe keeps the same live lanes for
    /// every round between two [`StripedPolicy::reset_stripe`] calls.
    pub active: u64,
}

/// The read path of a whole stripe: [`super::LeakageDetections`] transposed into
/// one word per data / parity qubit, bit `l` belonging to lane `l`.
#[derive(Debug, Clone, Copy)]
pub struct StripeDetections<'a> {
    /// Lanes whose policy exposes a read path this round; the words carry
    /// no bits outside this mask.
    pub lanes: u64,
    /// Per data qubit: believed leaked ([`super::LeakageDetections::data`]).
    pub data: &'a [u64],
    /// Per data qubit: leakage just removed
    /// ([`super::LeakageDetections::data_returned`]).
    pub data_returned: &'a [u64],
    /// Per stabilizer: the parity qubit read out |L⟩
    /// ([`super::LeakageDetections::parity`]).
    pub parity: &'a [u64],
}

/// Lane mask of "at least `t` of these words' bits are set", via a
/// bit-sliced ripple counter with a sticky "four or more" bit. Exact for
/// up to 4 words (a data qubit has at most 4 neighbouring checks), where
/// no lane can reach `t > 4`.
#[inline]
pub(crate) fn at_least(words: impl Iterator<Item = u64>, t: usize) -> u64 {
    let (mut b0, mut b1, mut b2) = (0u64, 0u64, 0u64);
    for w in words {
        let c0 = b0 & w;
        b0 ^= w;
        let c1 = b1 & c0;
        b1 ^= c0;
        b2 |= c1;
    }
    match t {
        0 => !0,
        1 => b0 | b1 | b2,
        2 => b1 | b2,
        3 => (b1 & b0) | b2,
        4 => b2,
        _ => 0,
    }
}

/// A native word-parallel planner for one of the standard policies, over
/// the code's canonical [`SlotTable`]. Obtained from
/// [`LrcPolicy::word_planner`]; every lane replays, bit for bit, what one
/// instance of that policy would plan for the lane's shot.
#[derive(Debug, Clone)]
pub struct WordPlanner {
    rule: Rule,
    /// Per slot: its stabilizer.
    slot_stab: Vec<usize>,
    /// Data qubit `q`'s slots are `data_slots[q]..data_slots[q + 1]`
    /// (canonical order is sorted by data qubit).
    data_slots: Vec<usize>,
    /// Per data qubit: the DLI's candidate slots, in lookup order.
    candidates: Vec<Vec<usize>>,
    /// Leakage Tracking Table, one lane word per data qubit.
    ltt: Vec<u64>,
    /// The previous round's slot masks.
    last: Vec<u64>,
    /// Read-path words ([`StripeDetections`]).
    data: Vec<u64>,
    returned: Vec<u64>,
    parity: Vec<u64>,
    /// Scratch: per stabilizer, "parity qubit claimed".
    used: Vec<u64>,
}

#[derive(Debug, Clone)]
enum Rule {
    /// Static schedule: plan A and plan B slot lists, applied every round
    /// or on odd rounds only ([`super::AlwaysLrcPolicy`]; empty lists for
    /// [`super::NoLrcPolicy`]).
    Fixed {
        plans: [Vec<usize>; 2],
        every_round: bool,
    },
    /// [`super::EraserPolicy`]: per-data-qubit flip thresholds.
    Eraser {
        thresholds: Vec<usize>,
        use_putt: bool,
        multilevel: bool,
    },
    /// [`super::OptimalPolicy`].
    Optimal,
}

impl WordPlanner {
    /// Compiles a rule over `code`'s slot table; `candidates(q)` lists data
    /// qubit `q`'s DLI partners (stabilizers), in lookup order.
    fn new(
        code: &RotatedCode,
        candidates: impl Fn(usize) -> Vec<usize>,
        rule: impl FnOnce(&SlotTable) -> Rule,
    ) -> WordPlanner {
        let slots = SlotTable::new(code);
        let (num_data, num_stabs) = (code.num_data(), code.num_stabs());
        let mut data_slots = vec![0; num_data + 1];
        for slot in slots.slots() {
            data_slots[slot.data + 1] += 1;
        }
        for q in 0..num_data {
            data_slots[q + 1] += data_slots[q];
        }
        let slot_of = |q: usize, s: usize| slots.slot_of(q, s).expect("SWAP partners are adjacent");
        WordPlanner {
            rule: rule(&slots),
            slot_stab: slots.slots().iter().map(|slot| slot.stab).collect(),
            data_slots,
            candidates: (0..num_data)
                .map(|q| candidates(q).into_iter().map(|s| slot_of(q, s)).collect())
                .collect(),
            ltt: vec![0; num_data],
            last: vec![0; slots.len()],
            data: vec![0; num_data],
            returned: vec![0; num_data],
            parity: vec![0; num_stabs],
            used: vec![0; num_stabs],
        }
    }

    /// The static schedules: `plans` applied in every round, or in odd
    /// rounds only (plan A, then plan B, alternating).
    pub(crate) fn fixed(
        code: &RotatedCode,
        plans: [&[LrcAssignment]; 2],
        every_round: bool,
    ) -> WordPlanner {
        WordPlanner::new(
            code,
            |_| Vec::new(),
            |slots| Rule::Fixed {
                plans: plans.map(|plan| {
                    plan.iter()
                        .map(|l| slots.slot_of(l.data, l.stab).expect("adjacent pair"))
                        .collect()
                }),
                every_round,
            },
        )
    }

    /// ERASER (`multilevel` false) or ERASER+M with explicit design knobs.
    pub(crate) fn eraser(
        code: &RotatedCode,
        table: &SwapLookupTable,
        options: super::EraserOptions,
        multilevel: bool,
    ) -> WordPlanner {
        WordPlanner::new(
            code,
            |q| {
                if options.use_backup {
                    table.candidates(q).collect()
                } else {
                    table.primary(q).into_iter().collect()
                }
            },
            |_| Rule::Eraser {
                thresholds: (0..code.num_data())
                    .map(|q| match options.threshold_override {
                        0 => super::EraserPolicy::threshold(code.adjacent_stabs(q).len()),
                        t => t,
                    })
                    .collect(),
                use_putt: options.use_putt,
                multilevel,
            },
        )
    }

    /// The oracle policy.
    pub(crate) fn optimal(code: &RotatedCode, table: &SwapLookupTable) -> WordPlanner {
        WordPlanner::new(code, |q| table.candidates(q).collect(), |_| Rule::Optimal)
    }

    /// Clears every lane's per-shot state.
    fn reset(&mut self) {
        for words in [
            &mut self.ltt,
            &mut self.last,
            &mut self.data,
            &mut self.returned,
            &mut self.parity,
        ] {
            words.fill(0);
        }
    }

    /// Plans the round for the lanes in `ctx.active` into `masks` (zeroed
    /// by the caller).
    fn plan(&mut self, ctx: &StripeRoundContext<'_>, masks: &mut [u64]) {
        let active = ctx.active;
        match &self.rule {
            Rule::Fixed { plans, every_round } => {
                let plan = if *every_round {
                    &plans[ctx.round % 2]
                } else if ctx.round % 2 == 1 {
                    &plans[(ctx.round / 2) % 2]
                } else {
                    return;
                };
                for &i in plan {
                    masks[i] = active;
                }
                return;
            }
            Rule::Eraser {
                thresholds,
                use_putt,
                multilevel,
            } => {
                self.used.fill(0);
                for (q, ltt) in self.ltt.iter_mut().enumerate() {
                    // Last round's slots of this qubit: did it have an LRC
                    // (its leakage was just removed, §4.2.1), which parity
                    // qubits served one (PUTT, §4.2.2), and under ERASER+M
                    // what the |L⟩ labels of its checks mean.
                    let slots = self.data_slots[q]..self.data_slots[q + 1];
                    let (mut had, mut marked, mut returned) = (0u64, 0u64, 0u64);
                    for (&s, &lrc) in self.slot_stab[slots.clone()]
                        .iter()
                        .zip(&self.last[slots.clone()])
                    {
                        had |= lrc;
                        self.used[s] |= lrc;
                        if *multilevel {
                            let label = ctx.leaked_readouts[s] & active;
                            // §4.6.1: speculate every data neighbour of a
                            // parity qubit read out |L⟩.
                            marked |= label;
                            // §4.6.2: on a serving stabilizer the label is
                            // the LRC's data readout — a confirmed removed
                            // leak.
                            returned |= label & lrc;
                        }
                    }
                    self.returned[q] = returned;
                    // Leakage Speculation Block: "at least half" of the
                    // adjacent checks fired, unless the qubit just had an
                    // LRC.
                    let fired = at_least(
                        self.slot_stab[slots]
                            .iter()
                            .map(|&s| ctx.events[s] & active),
                        thresholds[q],
                    );
                    *ltt = (*ltt | fired | marked) & !had;
                }
                for (s, parity) in self.parity.iter_mut().enumerate() {
                    *parity = if *multilevel {
                        ctx.leaked_readouts[s] & active & !self.used[s]
                    } else {
                        0
                    };
                }
                if !use_putt {
                    self.used.fill(0);
                }
                // Dynamic LRC Insertion; an entry left without a free
                // partner stays in the LTT and retries next round.
                for (q, ltt) in self.ltt.iter_mut().enumerate() {
                    if *ltt != 0 {
                        *ltt = insert(
                            *ltt,
                            &self.candidates[q],
                            &self.slot_stab,
                            &mut self.used,
                            masks,
                        );
                    }
                }
            }
            Rule::Optimal => {
                self.used.fill(0);
                for (i, &lrc) in self.last.iter().enumerate() {
                    self.used[self.slot_stab[i]] |= lrc;
                }
                for (q, data) in self.data.iter_mut().enumerate() {
                    let leaked = ctx.oracle_leaked_data[q] & active;
                    self.returned[q] = *data & !leaked;
                    *data = leaked;
                    if leaked != 0 {
                        insert(
                            leaked,
                            &self.candidates[q],
                            &self.slot_stab,
                            &mut self.used,
                            masks,
                        );
                    }
                }
            }
        }
        self.last.copy_from_slice(masks);
    }

    /// The read path after the latest plan (`None` for the static
    /// schedules, which have no detector).
    fn detections(&self, lanes: u64) -> Option<StripeDetections<'_>> {
        match self.rule {
            Rule::Fixed { .. } => None,
            Rule::Eraser { .. } | Rule::Optimal => Some(StripeDetections {
                lanes,
                data: &self.data,
                data_returned: &self.returned,
                parity: &self.parity,
            }),
        }
    }
}

/// One DLI step for all lanes: the lanes in `want` claim the first free
/// candidate slot's parity qubit, in lookup order. Returns the lanes left
/// without a free partner.
#[inline]
fn insert(
    mut want: u64,
    candidates: &[usize],
    slot_stab: &[usize],
    used: &mut [u64],
    masks: &mut [u64],
) -> u64 {
    for &slot in candidates {
        let s = slot_stab[slot];
        let take = want & !used[s];
        masks[slot] |= take;
        used[s] |= take;
        want &= !take;
    }
    want
}

/// The per-lane adapter: one scalar [`LrcPolicy`] instance per stripe lane.
struct LanePolicies {
    lanes: Vec<Box<dyn LrcPolicy>>,
    last_plans: Vec<Vec<LrcAssignment>>,
    /// Per-lane transposed signal rows (`lane × num_stabs` /
    /// `lane × num_data`), rebuilt each round by *scattering* the set bits
    /// of the context words — the signals are sparse, so this beats
    /// extracting every (lane, index) bit.
    events_rows: Vec<bool>,
    labels_rows: Vec<bool>,
    oracle_rows: Vec<bool>,
    /// The lanes' read paths, transposed back into words on demand.
    data: Vec<u64>,
    returned: Vec<u64>,
    parity: Vec<u64>,
    num_stabs: usize,
    num_data: usize,
}

impl LanePolicies {
    fn new(lanes: Vec<Box<dyn LrcPolicy>>, code: &RotatedCode) -> LanePolicies {
        let width = lanes.len();
        LanePolicies {
            last_plans: vec![Vec::new(); width],
            events_rows: vec![false; width * code.num_stabs()],
            labels_rows: vec![false; width * code.num_stabs()],
            oracle_rows: vec![false; width * code.num_data()],
            data: vec![0; code.num_data()],
            returned: vec![0; code.num_data()],
            parity: vec![0; code.num_stabs()],
            num_stabs: code.num_stabs(),
            num_data: code.num_data(),
            lanes,
        }
    }

    fn reset(&mut self, lanes: usize) {
        for policy in &mut self.lanes[..lanes] {
            policy.reset_shot();
        }
        for plan in &mut self.last_plans[..lanes] {
            plan.clear();
        }
    }

    fn plan(&mut self, ctx: &StripeRoundContext<'_>, slots: &SlotTable, masks: &mut [u64]) {
        let width = self.lanes.len();
        self.events_rows[..width * self.num_stabs].fill(false);
        self.labels_rows[..width * self.num_stabs].fill(false);
        self.oracle_rows[..width * self.num_data].fill(false);
        let scatter = |rows: &mut [bool], stride: usize, index: usize, word: u64| {
            let mut lanes = word;
            while lanes != 0 {
                let lane = lanes.trailing_zeros() as usize;
                rows[lane * stride + index] = true;
                lanes &= lanes - 1;
            }
        };
        for (s, &word) in ctx.events.iter().enumerate() {
            scatter(&mut self.events_rows, self.num_stabs, s, word & ctx.active);
        }
        for (s, &word) in ctx.leaked_readouts.iter().enumerate() {
            scatter(&mut self.labels_rows, self.num_stabs, s, word & ctx.active);
        }
        for (q, &word) in ctx.oracle_leaked_data.iter().enumerate() {
            scatter(&mut self.oracle_rows, self.num_data, q, word & ctx.active);
        }
        let mut lanes = ctx.active;
        while lanes != 0 {
            let lane = lanes.trailing_zeros() as usize;
            lanes &= lanes - 1;
            let mut plan = self.lanes[lane].plan_round(&RoundContext {
                round: ctx.round,
                events: &self.events_rows[lane * self.num_stabs..][..self.num_stabs],
                leaked_readouts: &self.labels_rows[lane * self.num_stabs..][..self.num_stabs],
                oracle_leaked_data: &self.oracle_rows[lane * self.num_data..][..self.num_data],
                last_lrcs: &self.last_plans[lane],
            });
            // Canonical order: the static schedule's slots are sorted the
            // same way, so a lane executes its plan exactly as a dynamically
            // built round would.
            plan.sort_unstable_by_key(|l| (l.data, l.stab));
            debug_assert!(
                plan.windows(2).all(|w| w[0].data != w[1].data) && {
                    let mut stabs: Vec<usize> = plan.iter().map(|l| l.stab).collect();
                    stabs.sort_unstable();
                    stabs.windows(2).all(|w| w[0] != w[1])
                },
                "policy produced a conflicting plan"
            );
            for lrc in &plan {
                let slot = slots
                    .slot_of(lrc.data, lrc.stab)
                    .expect("policy scheduled a non-adjacent LRC pair");
                masks[slot] |= 1u64 << lane;
            }
            self.last_plans[lane] = plan;
        }
    }

    /// Transposes the read paths of the lanes in `active` into words
    /// (`None` when no lane exposes one).
    fn detections(&mut self, active: u64) -> Option<StripeDetections<'_>> {
        for words in [&mut self.data, &mut self.returned, &mut self.parity] {
            words.fill(0);
        }
        let gather = |words: &mut [u64], flags: &[bool], bit: u64| {
            for (word, &flag) in words.iter_mut().zip(flags) {
                if flag {
                    *word |= bit;
                }
            }
        };
        let mut reporting = 0u64;
        let mut lanes = active;
        while lanes != 0 {
            let lane = lanes.trailing_zeros() as usize;
            lanes &= lanes - 1;
            let Some(det) = self.lanes[lane].leakage_detections() else {
                continue;
            };
            let bit = 1u64 << lane;
            reporting |= bit;
            gather(&mut self.data, det.data, bit);
            gather(&mut self.returned, det.data_returned, bit);
            gather(&mut self.parity, det.parity, bit);
        }
        (reporting != 0).then_some(StripeDetections {
            lanes: reporting,
            data: &self.data,
            data_returned: &self.returned,
            parity: &self.parity,
        })
    }
}

enum Planner {
    Native(WordPlanner),
    PerLane(LanePolicies),
}

/// The batched policy layer: resolves the plans of up to 64 stripe lanes
/// into per-**slot** lane masks over a [`SlotTable`] — the form the
/// word-parallel runtime's static schedules consume — and exposes the
/// stripe's read path as words.
///
/// A policy that offers a [`WordPlanner`] is planned natively; any other
/// runs one scalar instance per lane, each seeing exactly the
/// [`RoundContext`] a one-shot-at-a-time runner would hand it (the
/// transposed words are re-sliced per lane), with plans canonically sorted
/// by `(data, stab)` — the order of the static schedule's slots. Either
/// way every lane replays its shot bit for bit.
pub struct StripedPolicy {
    planner: Planner,
    name: &'static str,
    multilevel: bool,
    width: usize,
    /// The live lanes of the current stripe.
    stripe: u64,
    /// The lanes planned by the latest [`StripedPolicy::plan_round`].
    active: u64,
}

impl StripedPolicy {
    /// Plans for stripes of at most `max_lanes` lanes (the stripe width)
    /// with the policy `factory` builds: natively when it offers a
    /// [`WordPlanner`], otherwise with one instance per lane.
    ///
    /// # Panics
    ///
    /// Panics unless `max_lanes` is in `1..=64`.
    pub fn new(
        factory: &(dyn Fn(&RotatedCode) -> Box<dyn LrcPolicy> + Sync),
        code: &RotatedCode,
        max_lanes: usize,
    ) -> StripedPolicy {
        let first = factory(code);
        let (name, multilevel) = (first.name(), first.uses_multilevel());
        let planner = match first.word_planner(code) {
            Some(native) => Planner::Native(native),
            None => {
                let rest = (1..max_lanes).map(|_| factory(code));
                let lanes = std::iter::once(first).chain(rest).collect();
                Planner::PerLane(LanePolicies::new(lanes, code))
            }
        };
        StripedPolicy::with_planner(planner, name, multilevel, max_lanes)
    }

    /// [`StripedPolicy::new`] forced onto the per-lane adapter: the
    /// reference the native planners are tested against.
    #[cfg(test)]
    pub(crate) fn per_lane(
        factory: &(dyn Fn(&RotatedCode) -> Box<dyn LrcPolicy> + Sync),
        code: &RotatedCode,
        max_lanes: usize,
    ) -> StripedPolicy {
        let lanes: Vec<Box<dyn LrcPolicy>> = (0..max_lanes).map(|_| factory(code)).collect();
        let (name, multilevel) = (lanes[0].name(), lanes[0].uses_multilevel());
        let planner = Planner::PerLane(LanePolicies::new(lanes, code));
        StripedPolicy::with_planner(planner, name, multilevel, max_lanes)
    }

    fn with_planner(
        planner: Planner,
        name: &'static str,
        multilevel: bool,
        max_lanes: usize,
    ) -> StripedPolicy {
        assert!(
            (1..=64).contains(&max_lanes),
            "a stripe holds 1 to 64 lanes"
        );
        StripedPolicy {
            planner,
            name,
            multilevel,
            width: max_lanes,
            stripe: lane_mask(max_lanes),
            active: 0,
        }
    }

    /// Display name (all lanes run the same policy).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Whether the policy requires multi-level readout.
    pub fn uses_multilevel(&self) -> bool {
        self.multilevel
    }

    /// Whether this stripe is planned by a native [`WordPlanner`].
    #[cfg(test)]
    pub(crate) fn is_native(&self) -> bool {
        matches!(self.planner, Planner::Native(_))
    }

    /// Starts a fresh stripe of `lanes` live shots.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` exceeds the constructed stripe width.
    pub fn reset_stripe(&mut self, lanes: usize) {
        assert!(lanes <= self.width, "stripe wider than constructed");
        self.stripe = lane_mask(lanes);
        self.active = 0;
        match &mut self.planner {
            Planner::Native(planner) => planner.reset(),
            Planner::PerLane(policies) => policies.reset(lanes),
        }
    }

    /// Plans the upcoming round for every active lane, writing one lane
    /// mask per slot into `slot_masks` (zeroed first).
    ///
    /// # Panics
    ///
    /// Panics if a lane's policy schedules a non-adjacent (data, stab)
    /// pair; `slot_masks` must hold `slots.len()` words.
    pub fn plan_round(
        &mut self,
        ctx: &StripeRoundContext<'_>,
        slots: &SlotTable,
        slot_masks: &mut [u64],
    ) {
        assert_eq!(slot_masks.len(), slots.len());
        slot_masks.fill(0);
        self.active = ctx.active & self.stripe;
        let ctx = StripeRoundContext {
            active: self.active,
            ..*ctx
        };
        match &mut self.planner {
            Planner::Native(planner) => planner.plan(&ctx, slot_masks),
            Planner::PerLane(policies) => policies.plan(&ctx, slots, slot_masks),
        }
    }

    /// The stripe's leakage-detection read path after the latest
    /// [`StripedPolicy::plan_round`] (`None` when no lane's policy has a
    /// detector).
    pub fn detections(&mut self) -> Option<StripeDetections<'_>> {
        match &mut self.planner {
            Planner::Native(planner) => planner.detections(self.active),
            Planner::PerLane(policies) => policies.detections(self.active),
        }
    }

    /// Lane `lane`'s feedback-controller telemetry (the lane's own
    /// run-level accumulation; harvested once after the lane's last shot).
    /// Native planners have no controller.
    pub fn lane_controller(&self, lane: usize) -> Option<&crate::control::ControllerStats> {
        match &self.planner {
            Planner::Native(_) => None,
            Planner::PerLane(policies) => policies.lanes[lane].controller(),
        }
    }
}

/// The low `lanes` bits.
fn lane_mask(lanes: usize) -> u64 {
    if lanes >= 64 {
        !0
    } else {
        (1u64 << lanes) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every pattern of up to four words, one pattern per lane, against a
    /// popcount oracle at every threshold up to 6 — including the
    /// thresholds no data qubit's neighbourhood can reach.
    #[test]
    fn at_least_matches_a_popcount_oracle() {
        for n in 0..=4usize {
            // Lane `p` holds pattern `p`: word `w` has lane p's bit w.
            let words: Vec<u64> = (0..n)
                .map(|w| {
                    (0..1u64 << n)
                        .filter(|p| p >> w & 1 != 0)
                        .fold(0, |acc, p| acc | 1 << p)
                })
                .collect();
            for t in 0..=6usize {
                let got = at_least(words.iter().copied(), t);
                for lane in 0..64u64 {
                    let count = if lane < 1 << n { lane.count_ones() } else { 0 };
                    assert_eq!(
                        got >> lane & 1 != 0,
                        count as usize >= t,
                        "{n} words, t = {t}, lane {lane}"
                    );
                }
            }
        }
    }
}
