//! The exact matching core both MWPM backends stage into.
//!
//! A backend stages one defect-matching problem as integer costs on the
//! shared grid ([`crate::weight`]): the cost and observable parity of
//! pairing defects `i` and `j`, and of matching `i` to the boundary. Dense
//! MWPM ([`crate::mwpm`]) reads every pair from its shortest-path table.
//! Sparse MWPM ([`crate::sparse`]) stages the candidate pairs its bounded
//! Dijkstras discovered and leaves every other pair at `i64::MAX`, which is
//! never kept and never a twin. One [`DefectMatching`] then splits the
//! defects into components and solves them, with one subset DP and one
//! blossom reduction, in one of two compositions:
//!
//! - **Dense** ([`DefectMatching::solve_certified`]): the certified solver
//!   below, and the blossom on the whole problem
//!   ([`DefectMatching::solve_blossom`]) at the first component it cannot
//!   prove.
//! - **Sparse** ([`DefectMatching::solve_by_component`]): every component
//!   the DP proves unique is taken as it stands, and each other one (a DP
//!   tie, past [`DP_SUBSET_BUDGET`] or more than 64 members) runs the
//!   blossom on its own kept pairs.
//!
//! # Certified matching ahead of the blossom
//!
//! Every dense solve first tries a certified exact solver, and the blossom
//! (with one virtual boundary copy per defect, the standard reduction that
//! lets an odd number of defects terminate on the boundary) runs only when
//! that solver cannot prove its answer unique, or, for a caller that reads
//! only the flip, that every optimum predicts the same flip, or, for a
//! caller that walks correction edges, that every optimum walks the same
//! edges.
//!
//! - **Pruning.** A pair costing at least its two boundary matches is
//!   dropped: with `>` it is never optimal, with `==` (a *twin*) it ties
//!   with them. One pass over the staged costs records the kept pairs as
//!   bitset rows of ⌈k/64⌉ words per defect, and the rows split the
//!   defects into components by bitset union. Twins are tested only where
//!   they matter, between boundary-matched defects.
//! - **Subset DP.** Each component of up to 64 defects is solved exactly
//!   by a subset DP on `u64` masks (the lowest member goes to the boundary
//!   or pairs with a kept neighbour) that also counts its optimal
//!   solutions, saturating, and records the flip they all predict or
//!   that they predict both. Each staged cost carries the observable parity
//!   of its path for this. Its memo holds only the subsets it reaches, in
//!   one fixed table that an epoch stamp empties.
//! - **Deferral.** Short of the two rules below, the blossom runs instead
//!   when a component's count is not exactly 1, when two boundary-matched
//!   defects are twins, or when the DP would solve more than
//!   `DP_SUBSET_BUDGET` subsets of one component (or it has more than 64
//!   members).
//! - **One flip.** A decode without a correction buffer reads only the
//!   flip and weight: the final window of every
//!   [`WindowedDecoder`](crate::WindowedDecoder) chain, and so every
//!   whole-shot decode. There a tie needs no blossom when (a) every twin is
//!   flip-neutral, its pair parity equal to the XOR of its two boundary
//!   parities, and (b) every component's DP ends, within the budget, with
//!   one flip for all its optima. The solver then returns the component
//!   optima with the remaining defects sent to the boundary.
//! - **Same walk.** A decode with a correction buffer (every non-final
//!   window) walks the matched paths into correction edges. There an
//!   erasure-free tie needs no blossom when (c) every component's count is
//!   exactly 1, so the pruned problem's optimum is unique, and (d) every
//!   twin `(i, j)` between two of its boundary-matched defects is
//!   walk-neutral: [`ShortestPaths::path_edges`](crate::ShortestPaths::path_edges)
//!   from `i` to `j`, sorted, is the sorted concatenation of the walks from
//!   `i` and from `j` to the boundary. The solver then returns that pruned
//!   optimum.
//!
//! The budget (512 subsets) is a work bound, not a size cap. The recursion
//! solves m subsets of an m-defect chain, and 376 of a complete 12-defect
//! component (every pair kept), so every component of up to 12 defects
//! fits. On `stream-d7` it admits 99.97% of the components 2048 would (the
//! d = 7 window components it misses solve in 513–1024 subsets). In d = 11
//! windows most components of 40 or more defects run past any budget up to
//! 2048, and each such run is wasted work ahead of the blossom: with 2048
//! the `mc-d11` matching step took 15–20% longer than under the 10-defect
//! cap, with 512 about as long.
//!
//! Twins are structural, not rare. The boundary is a node of the decoding
//! graph, so a shortest path from `i` to `j` is never longer than the one
//! through the boundary: a pair's cost is at most `b_i + b_j` (its two
//! boundary matches, exactly, since weights are snapped to the integer
//! grid). A pair that is not kept is therefore a twin, and any two
//! boundary-matched defects in different components tie. Which of the
//! tied optima to return is the blossom's choice today, and the rule a
//! canonical tie-breaker would have to fix.
//!
//! Bit-identity: each perfect matching of the blossom reduction is, on the
//! defects, an involution (every defect pairs with another or goes to the
//! boundary) of the same cost. A twin in an optimum can be swapped for its
//! two boundary matches at equal cost, so the optimum is unique exactly
//! when the pruned problem's is and no two boundary-matched defects are
//! twins. A unique minimum-cost involution is what every exact matcher
//! returns, the blossom included, so the certified answer fills the same
//! `pairs` (ascending `i < j`) and `to_boundary` (ascending) the blossom's
//! mate array would: flip, f64 weight bits and correction edges are
//! unchanged. A 1–2 defect, erasure-free solve that certifies is the
//! dense decoder's closed form ([`crate::DecodeOutcome::closed_form`], the
//! predecoder's tier 1), so one uniqueness rule serves tiers 1 and 2.
//! The same argument holds per component for sparse MWPM, whose blossom
//! ran on each component's kept pairs alone: a component the DP proves
//! unique is what that blossom returned, and every other component still
//! runs it on the same edge list.
//!
//! The one-flip answer is the blossom's flip. Split every twin of any
//! optimum into its two boundary matches: the cost stays, so the result is
//! an optimum of the pruned problem, and by (a) the flip stays too. Every
//! pruned optimum is a product of component optima, whose flips (b) fixes.
//! So all optima, the blossom's among them, predict the returned flip. The
//! returned weight is on the same `scale_weight` grid as the blossom's, but
//! it may sum other paths, so its f64 rounding can differ from the
//! blossom's (30 of the 477 skipped ties of the d = 3 and d = 5
//! syndromes in `flip_only_decodes_match_the_blossom`); only the
//! flip is held bit for bit.
//!
//! The same-walk answer walks the blossom's edges. By the same split, every
//! optimum is the unique pruned optimum (c) with some of its
//! boundary-matched twins joined into pairs, and by (d) each join swaps two
//! boundary walks for a walk of exactly their edges. So every optimum, the
//! blossom's among them, walks the returned edge multiset, with its flip. A
//! window commits and carries by edge, so its committed flip, carried
//! defects and every later window are unchanged; only the order of the
//! walked edges, and so the f64 summation order of the committed weight,
//! can differ. Erasure decodes keep the unique-or-blossom rule (their walks
//! run on the overlaid metric), and the closed form still needs
//! uniqueness, so predecoder tiers do not move either.
//!
//! On the `stream-d7` benchmark workload (d = 7, R = 70, 21/14 windows,
//! p = 1e-3, seed 1, 5 s) 81% of the matchings walk correction edges.
//! Before the same-walk rule 16.8% of those went to the blossom (113,736 of
//! 677,208), nearly all twin ties; after it 0.55% do (6,336 of 1,160,928:
//! 5,976 DP ties and 360 over the subset budget), 16.2% are answered by the
//! rule, and no walk-neutrality check failed. With no final-window
//! deferral left, that is the blossom's share of all matchings, 0.44%. On
//! `mc-d11` the rule answers 1,276 twin ties in 5 s and finds 5 that walk
//! elsewhere; over-budget components still send 84% of its walked
//! matchings to the blossom. On `serve-mix`, whose windows are all final,
//! the one-flip rule took the blossom's share from 20.8% to 0.47% (then
//! mostly over-budget components).

use crate::matching::MatchingContext;

/// Most subsets the DP may solve in one component; a component that needs
/// more goes to the blossom. It also sizes the memo. See the module docs
/// for why 512.
pub(crate) const DP_SUBSET_BUDGET: usize = 512;

/// Slots of the DP memo: a power of two, twice the budget, so linear
/// probing always finds a free slot and stays short.
const MEMO_SLOTS: usize = 2 * DP_SUBSET_BUDGET;

/// Components of at most this many members index the memo by subset mask
/// directly (2^10 = [`MEMO_SLOTS`]); larger ones hash the mask.
const DIRECT_MEMO_BITS: usize = MEMO_SLOTS.trailing_zeros() as usize;

/// One defect-matching problem staged as integer costs, its solution, and
/// the scratch of both exact solvers, reused across shots.
///
/// `scaled[i * k + j]` (`i < j`) is the scaled cost of pairing defects `i`
/// and `j`, `scaled_boundary[i]` that of matching `i` to the boundary, and
/// `parity` / `boundary_parity` hold the observable parity of the same
/// paths. The solution is `pairs` (`i < j`, ascending `i`) and
/// `to_boundary` (ascending), as indices into the staged defects.
#[derive(Debug, Default)]
pub(crate) struct DefectMatching {
    pub(crate) k: usize,
    pub(crate) scaled: Vec<i64>,
    pub(crate) scaled_boundary: Vec<i64>,
    pub(crate) parity: Vec<bool>,
    pub(crate) boundary_parity: Vec<bool>,
    pub(crate) pairs: Vec<(usize, usize)>,
    pub(crate) to_boundary: Vec<usize>,
    /// Certified solver scratch: `mate[i] == i` means `i` goes to the
    /// boundary.
    mate: Vec<usize>,
    /// `kept[i * w..(i + 1) * w]`: the bitset of the defects `i` may pair
    /// with (pair cost below both boundary matches), in `w = ⌈k/64⌉` words.
    kept: Vec<u64>,
    /// Defects not yet in a component.
    free: Vec<u64>,
    /// The components' members in discovery order, concatenated; `ends[c]`
    /// is where component `c` stops.
    pub(crate) members: Vec<usize>,
    pub(crate) ends: Vec<usize>,
    pub(crate) memo: SubsetMemo,
    /// Blossom reduction scratch.
    edges: Vec<(usize, usize, i64)>,
    /// One component's members, ascending, for its own blossom.
    sorted: Vec<usize>,
    blossom: MatchingContext,
}

impl DefectMatching {
    /// Sizes the cost matrices for `k` defects and clears the solution.
    /// Every pair starts at `i64::MAX`, which is never kept and, against
    /// finite boundary costs, never a twin.
    pub(crate) fn stage(&mut self, k: usize) {
        self.k = k;
        self.pairs.clear();
        self.to_boundary.clear();
        self.scaled.clear();
        self.scaled.resize(k * k, i64::MAX);
        self.scaled_boundary.clear();
        self.scaled_boundary.resize(k, 0);
        self.parity.clear();
        self.parity.resize(k * k, false);
        self.boundary_parity.clear();
        self.boundary_parity.resize(k, false);
    }

    pub(crate) fn pair_cost(&self, i: usize, j: usize) -> i64 {
        self.scaled[i.min(j) * self.k + i.max(j)]
    }

    pub(crate) fn pair_parity(&self, i: usize, j: usize) -> bool {
        self.parity[i.min(j) * self.k + i.max(j)]
    }

    /// Whether pairing `i` and `j` costs exactly their two boundary matches.
    pub(crate) fn twins(&self, i: usize, j: usize) -> bool {
        self.pair_cost(i, j) == self.scaled_boundary[i].saturating_add(self.scaled_boundary[j])
    }

    /// Whether every twin predicts the flip of its two boundary matches, so
    /// that splitting a twin into them, or joining them into it, keeps the
    /// flip of any matching.
    fn twins_flip_neutral(&self) -> bool {
        (0..self.k).all(|i| {
            (i + 1..self.k).all(|j| {
                !self.twins(i, j)
                    || self.pair_parity(i, j) == self.boundary_parity[i] ^ self.boundary_parity[j]
            })
        })
    }

    /// Fills the `kept` rows in one pass over the staged costs, 64 columns
    /// per word, mirroring each kept pair below the diagonal as it goes.
    fn build_kept_rows(&mut self) {
        let k = self.k;
        let w = k.div_ceil(64);
        self.kept.clear();
        self.kept.resize(k * w, 0);
        let (costs, boundary, kept) = (&self.scaled, &self.scaled_boundary, &mut self.kept);
        for (i, &b_i) in boundary.iter().enumerate() {
            let (word_i, bit_i) = (i / 64, 1u64 << (i % 64));
            let mut row = 0u64;
            let above = costs[i * k + i + 1..(i + 1) * k]
                .iter()
                .zip(&boundary[i + 1..]);
            for (j, (&cost, &b_j)) in (i + 1..).zip(above) {
                let keep = u64::from(cost < b_i.saturating_add(b_j));
                row |= keep << (j % 64);
                // Row `j`'s bit `i` (`-keep` is all ones or none).
                kept[j * w + word_i] |= bit_i & keep.wrapping_neg();
                if j % 64 == 63 || j + 1 == k {
                    kept[i * w + j / 64] |= row;
                    row = 0;
                }
            }
        }
    }

    /// Clears the solution, builds the kept rows and splits the defects
    /// into components by bitset union over them. Every defect starts at
    /// the boundary until its component's optimum says otherwise.
    #[inline]
    fn split_components(&mut self) {
        self.pairs.clear();
        self.to_boundary.clear();
        self.build_kept_rows();
        let (k, w) = (self.k, self.k.div_ceil(64));
        self.free.clear();
        self.free.resize(w, !0);
        if k % 64 != 0 {
            self.free[w - 1] = (1 << (k % 64)) - 1;
        }
        self.members.clear();
        self.ends.clear();
        while let Some(x) = self.free.iter().position(|&word| word != 0) {
            let root = x * 64 + self.free[x].trailing_zeros() as usize;
            self.free[x] &= self.free[x] - 1;
            let start = self.members.len();
            self.members.push(root);
            let mut head = start;
            while head < self.members.len() {
                let u = self.members[head];
                head += 1;
                let row = &self.kept[u * w..(u + 1) * w];
                for (x, (free, &kept)) in self.free.iter_mut().zip(row).enumerate() {
                    let mut new = kept & *free;
                    *free &= !new;
                    while new != 0 {
                        self.members.push(x * 64 + new.trailing_zeros() as usize);
                        new &= new - 1;
                    }
                }
            }
            self.ends.push(self.members.len());
        }
        self.mate.clear();
        self.mate.extend(0..k);
    }

    /// Reads the solution out of `mate`: ascending pairs `i < j`, and the
    /// boundary-matched defects, ascending.
    #[inline]
    fn collect_solution(&mut self) {
        for (i, &j) in self.mate.iter().enumerate() {
            if j == i {
                self.to_boundary.push(i);
            } else if i < j {
                self.pairs.push((i, j));
            }
        }
    }

    /// Exact matching that proves its optimum unique, so the blossom (or
    /// any exact matcher) would return the same solution. Short of that:
    ///
    /// - with `flip_only`, it answers [`Answer::OneFlip`] when every optimum
    ///   predicts the flip of the one it returns;
    /// - without, it answers [`Answer::TwinTie`] when the pruned problem's
    ///   optimum is unique and only twins between its boundary-matched
    ///   defects tie with it, and leaves that optimum staged for the caller
    ///   to check.
    ///
    /// Leaves the solution empty when it can prove none of these.
    ///
    /// A pair costing at least its two boundary matches is dropped: with
    /// `>` it is never optimal, with `==` (a twin) it ties with them. The
    /// remaining pairs split the defects into components, each solved by a
    /// subset DP that counts its optimal solutions and records their flip.
    pub(crate) fn solve_certified(&mut self, flip_only: bool) -> Answer {
        self.split_components();
        let mut unique = true;
        let mut start = 0;
        for c in 0..self.ends.len() {
            let end = self.ends[c];
            if !self.settle_small(start, end) {
                match self.solve_component(start, end) {
                    Some(best) if best.count == 1 => {}
                    Some(best) if flip_only && best.flip != DpEntry::MIXED => unique = false,
                    _ => return Answer::Deferred,
                }
            }
            start = end;
        }
        self.collect_solution();
        // Two boundary-matched twins could pair at the same cost.
        let singles = &self.to_boundary;
        let tied = |(a, &i): (usize, &usize)| singles[a + 1..].iter().any(|&j| self.twins(i, j));
        let twin_tie = singles.iter().enumerate().any(tied);
        if unique && !twin_tie {
            return Answer::Unique;
        }
        // Splitting each twin of any optimum into its two boundary matches
        // keeps its cost, so it yields an optimum of the pruned problem,
        // and the component DPs say every pruned optimum has this flip.
        if flip_only && self.twins_flip_neutral() {
            return Answer::OneFlip;
        }
        // Without `flip_only` a DP tie has already deferred, so the pruned
        // optimum is unique and staged.
        if !flip_only {
            return Answer::TwinTie;
        }
        self.pairs.clear();
        self.to_boundary.clear();
        Answer::Deferred
    }

    /// Solves each component on its own, over its kept pairs only: the
    /// component's DP optimum where the DP proves it unique, its own
    /// blossom otherwise. The solution is then an optimum of the pruned
    /// problem, the one a blossom run per component returns.
    pub(crate) fn solve_by_component(&mut self) {
        self.split_components();
        let mut start = 0;
        for c in 0..self.ends.len() {
            let end = self.ends[c];
            if !self.settle_small(start, end)
                && self
                    .solve_component(start, end)
                    .is_none_or(|best| best.count != 1)
            {
                self.solve_component_blossom(start, end);
            }
            start = end;
        }
        self.collect_solution();
    }

    /// Settles the component `members[start..end]` if it has one or two
    /// members, which need no DP: one goes to the boundary, and two pair
    /// up, since a kept pair is strictly cheaper than its two boundary
    /// matches, the only other option. Returns whether it did.
    #[inline]
    fn settle_small(&mut self, start: usize, end: usize) -> bool {
        match end - start {
            1 => true,
            2 => {
                let (u, v) = (self.members[start], self.members[start + 1]);
                self.mate[u] = v;
                self.mate[v] = u;
                true
            }
            _ => false,
        }
    }

    /// Runs the subset DP over the component `members[start..end]` and
    /// writes one of its optima into `mate`. Returns the whole component's
    /// DP entry (its optima's count and flip), or `None` when it has more
    /// than 64 members or needs more than [`DP_SUBSET_BUDGET`] subsets.
    pub(crate) fn solve_component(&mut self, start: usize, end: usize) -> Option<DpEntry> {
        let m = end - start;
        if m > 64 {
            return None;
        }
        let members = &self.members[start..end];
        let w = self.k.div_ceil(64);
        let mut kept = [0u64; 64];
        for (a, &u) in members.iter().enumerate() {
            let row = &self.kept[u * w..(u + 1) * w];
            for (b, &v) in members.iter().enumerate().skip(a + 1) {
                if row[v / 64] >> (v % 64) & 1 != 0 {
                    kept[a] |= 1 << b;
                    kept[b] |= 1 << a;
                }
            }
        }
        let full = u64::MAX >> (64 - m);
        let mut memo = std::mem::take(&mut self.memo);
        memo.reset(m);
        let mut dp = ComponentDp {
            problem: self,
            members,
            kept: &kept[..m],
            memo: &mut memo,
        };
        let best = dp.best(full);
        if best.is_some() {
            let mut set = full;
            while set != 0 {
                let a = set.trailing_zeros() as usize;
                let partner = memo
                    .get(set)
                    .expect("the optimum's subsets are solved")
                    .partner;
                set &= !(1 << a);
                if partner != DpEntry::BOUNDARY {
                    let b = usize::from(partner);
                    set &= !(1 << b);
                    let (u, v) = (self.members[start + a], self.members[start + b]);
                    self.mate[u] = v;
                    self.mate[v] = u;
                }
            }
        }
        self.memo = memo;
        best
    }

    /// The blossom on the component `members[start..end]` alone, over its
    /// kept pairs: members ascending as vertices 0..m, their private
    /// boundary copies m..2m. Kept pairs come first in ascending `(i, j)`
    /// order, then per member its copy's edges to the later copies and its
    /// own boundary edge, all against one constant above the component's
    /// largest cost. Writes the matching into `mate`.
    fn solve_component_blossom(&mut self, start: usize, end: usize) {
        let (k, w) = (self.k, self.k.div_ceil(64));
        self.sorted.clear();
        self.sorted.extend_from_slice(&self.members[start..end]);
        self.sorted.sort_unstable();
        let m = self.sorted.len();
        let (sorted, boundary) = (&self.sorted[..], &self.scaled_boundary);
        // The kept pairs at their costs first, then against `c`.
        self.edges.clear();
        for (a, &u) in sorted.iter().enumerate() {
            let row = &self.kept[u * w..(u + 1) * w];
            for (b, &v) in sorted.iter().enumerate().skip(a + 1) {
                if row[v / 64] >> (v % 64) & 1 != 0 {
                    self.edges.push((a, b, self.scaled[u * k + v]));
                }
            }
        }
        let costs = self.edges.iter().map(|e| e.2);
        let c = costs
            .chain(sorted.iter().map(|&u| boundary[u]))
            .fold(0, i64::max)
            + 1;
        for edge in &mut self.edges {
            edge.2 = c - edge.2;
        }
        for (a, &u) in sorted.iter().enumerate() {
            // Boundary copies pair freely among themselves.
            self.edges.extend((a + 1..m).map(|b| (m + a, m + b, c)));
            self.edges.push((a, m + a, c - boundary[u]));
        }
        let mate = self.blossom.solve(&self.edges);
        for (a, &u) in sorted.iter().enumerate() {
            self.mate[u] = match mate[a] {
                Some(b) if b < m => sorted[b],
                Some(_) => u,
                None => unreachable!("perfect matching guaranteed"),
            };
        }
    }

    /// The blossom reduction of the whole problem: vertices 0..k are
    /// defects, k..2k their private boundary copies (the standard
    /// odd-parity reduction).
    pub(crate) fn solve_blossom(&mut self) {
        self.pairs.clear();
        self.to_boundary.clear();
        let k = self.k;
        let mut max_scaled: i64 = 0;
        for i in 0..k {
            for j in (i + 1)..k {
                max_scaled = max_scaled.max(self.scaled[i * k + j]);
            }
            max_scaled = max_scaled.max(self.scaled_boundary[i]);
        }
        let c = max_scaled + 1;
        self.edges.clear();
        for i in 0..k {
            for j in (i + 1)..k {
                self.edges.push((i, j, c - self.scaled[i * k + j]));
                // Boundary copies pair freely among themselves.
                self.edges.push((k + i, k + j, c));
            }
            self.edges.push((i, k + i, c - self.scaled_boundary[i]));
        }
        let mate = self.blossom.solve(&self.edges);
        for (i, &partner) in mate.iter().enumerate().take(k) {
            match partner {
                Some(j) if j < k => {
                    if i < j {
                        self.pairs.push((i, j));
                    }
                }
                Some(_) => self.to_boundary.push(i),
                None => unreachable!("perfect matching guaranteed"),
            }
        }
    }
}

/// What [`DefectMatching::solve_certified`] proved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Answer {
    /// The optimum is unique; the solution is the one every exact matcher
    /// returns.
    Unique,
    /// The optima tie, but all predict the solution's flip.
    OneFlip,
    /// The pruned problem's optimum, the solution, is unique, but two of
    /// its boundary-matched defects are twins: every optimum is the
    /// solution with some of those twins joined into pairs.
    TwinTie,
    /// Neither; the solution is empty.
    Deferred,
}

/// Subset-DP state: the minimum cost of a set of defects, how many
/// solutions reach it (saturating at 2), the flip they all predict (or
/// [`DpEntry::MIXED`]), and the lowest member's partner in one of them.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DpEntry {
    cost: i64,
    pub(crate) count: u8,
    pub(crate) flip: u8,
    partner: u8,
}

impl DpEntry {
    const BOUNDARY: u8 = u8::MAX;
    /// The flip of a set whose optima predict both flips.
    pub(crate) const MIXED: u8 = 2;
    /// The empty set: nothing to match, one way to do it, no flip.
    const EMPTY: DpEntry = DpEntry {
        cost: 0,
        count: 1,
        flip: 0,
        partner: DpEntry::BOUNDARY,
    };

    /// The flip of this set's optima with one more match of `parity`.
    fn flip_with(&self, parity: bool) -> u8 {
        if self.flip == DpEntry::MIXED {
            DpEntry::MIXED
        } else {
            self.flip ^ u8::from(parity)
        }
    }
}

/// One slot of the DP memo, valid while `stamp` is the memo's epoch.
#[derive(Debug, Clone, Copy, Default)]
struct MemoSlot {
    set: u64,
    cost: i64,
    stamp: u32,
    count: u8,
    flip: u8,
    partner: u8,
}

/// The subset DP's memo over the subsets it reaches: [`MEMO_SLOTS`] slots,
/// indexed by the subset mask for a component of at most
/// [`DIRECT_MEMO_BITS`] members and open-addressed by its hash beyond. The
/// slots are allocated on first use and invalidated per component by
/// bumping the epoch, so a warm solve neither clears them nor allocates.
#[derive(Debug, Default)]
pub(crate) struct SubsetMemo {
    slots: Vec<MemoSlot>,
    epoch: u32,
    hashed: bool,
    pub(crate) solved: usize,
}

impl SubsetMemo {
    /// Empties the memo for a component of `m` members.
    fn reset(&mut self, m: usize) {
        self.solved = 0;
        self.hashed = m > DIRECT_MEMO_BITS;
        if self.slots.is_empty() {
            self.slots = vec![MemoSlot::default(); MEMO_SLOTS];
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.slots.fill(MemoSlot::default());
            self.epoch = 1;
        }
    }

    /// The slot holding `set`, or the free slot where it would go.
    fn slot(&self, set: u64) -> usize {
        if !self.hashed {
            return set as usize;
        }
        let shift = 64 - DIRECT_MEMO_BITS;
        let mut i = (set.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize;
        while self.slots[i].stamp == self.epoch && self.slots[i].set != set {
            i = (i + 1) % MEMO_SLOTS;
        }
        i
    }

    fn get(&self, set: u64) -> Option<DpEntry> {
        let slot = self.slots[self.slot(set)];
        (slot.stamp == self.epoch).then_some(DpEntry {
            cost: slot.cost,
            count: slot.count,
            flip: slot.flip,
            partner: slot.partner,
        })
    }

    /// Records a solved subset; `false` once the budget is spent.
    fn insert(&mut self, set: u64, entry: DpEntry) -> bool {
        self.solved += 1;
        if self.solved > DP_SUBSET_BUDGET {
            return false;
        }
        let i = self.slot(set);
        self.slots[i] = MemoSlot {
            set,
            cost: entry.cost,
            stamp: self.epoch,
            count: entry.count,
            flip: entry.flip,
            partner: entry.partner,
        };
        true
    }
}

/// The subset DP over one pruned component of at most 64 members, in local
/// indices into `members`; `kept[a]` is the bit set of the members `a` may
/// pair with.
struct ComponentDp<'a> {
    problem: &'a DefectMatching,
    members: &'a [usize],
    kept: &'a [u64],
    memo: &'a mut SubsetMemo,
}

impl ComponentDp<'_> {
    /// Lowest-bit recursion: the lowest member of `set` either goes to the
    /// boundary or pairs with a kept neighbour in `set`. Costs saturate, so
    /// an overflow can only read as a tie of mixed flip and defer. `None`
    /// once the DP has solved more than [`DP_SUBSET_BUDGET`] subsets.
    fn best(&mut self, set: u64) -> Option<DpEntry> {
        if set == 0 {
            return Some(DpEntry::EMPTY);
        }
        if let Some(entry) = self.memo.get(set) {
            return Some(entry);
        }
        let problem = self.problem;
        let a = set.trailing_zeros() as usize;
        let u = self.members[a];
        let rest = set & !(1 << a);
        let sub = self.best(rest)?;
        let mut out = DpEntry {
            cost: problem.scaled_boundary[u].saturating_add(sub.cost),
            count: sub.count,
            flip: sub.flip_with(problem.boundary_parity[u]),
            partner: DpEntry::BOUNDARY,
        };
        let mut neighbours = self.kept[a] & rest;
        while neighbours != 0 {
            let b = neighbours.trailing_zeros() as usize;
            neighbours &= neighbours - 1;
            let sub = self.best(rest & !(1 << b))?;
            let v = self.members[b];
            let cost = problem.pair_cost(u, v).saturating_add(sub.cost);
            let flip = sub.flip_with(problem.pair_parity(u, v));
            if cost < out.cost {
                out = DpEntry {
                    cost,
                    count: sub.count,
                    flip,
                    partner: b as u8,
                };
            } else if cost == out.cost {
                out.count = (out.count + sub.count).min(2);
                if flip != out.flip {
                    out.flip = DpEntry::MIXED;
                }
            }
        }
        if out.cost == i64::MAX {
            out.flip = DpEntry::MIXED;
        }
        self.memo.insert(set, out).then_some(out)
    }
}
