//! Minimum-Weight Perfect Matching decoder.
//!
//! The paper's gold-standard decoder (§2.2): fired detectors (defects) are
//! paired up — or matched to the lattice boundary — along minimum-weight
//! paths of the decoding graph, and the correction's effect on the logical
//! observable is the XOR of the observable parities of those paths.
//!
//! Implementation: all-pairs shortest paths (Dijkstra per node, tracking
//! observable parity along the shortest path), then exact matching on the
//! defect graph, staged as integer costs (pair `i`–`j`, or `i` to the
//! boundary).
//!
//! # Certified matching ahead of the blossom
//!
//! Every solve first tries a certified exact solver, and the blossom (with
//! one virtual boundary copy per defect, the standard reduction that lets an
//! odd number of defects terminate on the boundary) runs only when that
//! solver cannot prove its answer unique.
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
//!   solutions, saturating. Its memo holds only the subsets it reaches, in
//!   one fixed table that an epoch stamp empties.
//! - **Deferral.** The blossom runs instead when two odd components are
//!   twins across every pair (each sends a member to the boundary, so two
//!   lone twins are the smallest case), checked before any DP runs; when a
//!   component's count is not exactly 1; when two boundary-matched defects
//!   are twins; or when the DP would solve more than `DP_SUBSET_BUDGET`
//!   subsets of one component (or it has more than 64 members).
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
//! unchanged. Tier 1 ([`MwpmBatchDecoder::decode_tier1`]) decides with the
//! same solver, so one uniqueness rule serves tiers 1 and 2.
//!
//! On the `stream-d7` benchmark workload (d = 7, R = 70, 21/14 windows,
//! p = 1e-3, seed 1) the solver certifies 83.8% of the matchings that
//! reach it. 15.8% defer on twins, 0.4% on a DP tie and 0.03% on the
//! subset budget.
//!
//! The stateful entry point is [`MwpmBatchDecoder`]: the O(n²)
//! [`ShortestPaths`] table is computed once per graph and shared across
//! worker threads via [`Arc`] ([`MwpmBatchDecoder::with_paths`]); each
//! instance keeps its own matching scratch so the per-shot loop does not
//! allocate.

use crate::api::{DecodeOutcome, Syndrome, SyndromeDecoder};
use crate::fxhash::FxHashMap;
use crate::graph::DecodingGraph;
use crate::matching::MatchingContext;
use crate::overlay::{DijkstraScratch, WeightOverlay};
use crate::weight::scale_weight;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::iter;
use std::sync::Arc;
use std::time::Instant;

/// All-pairs shortest paths over a decoding graph (boundary node included),
/// with observable parity tracked along each shortest path.
///
/// A table holds few distinct distances (hundreds to a few thousand of its
/// n² entries), so each entry is 4 bytes: the index of its distance in the
/// table's sorted dictionary of distinct `f64` bit patterns, and its
/// parity. Every distance reads back bit for bit.
#[derive(Debug, Clone)]
pub struct ShortestPaths {
    n: usize,
    /// `entries[u * n + v]`: the index of `distance(u, v)` in `values`,
    /// shifted left by one, with `observable_parity(u, v)` in the low bit.
    entries: Vec<u32>,
    /// The table's distinct distances, ascending. All are non-negative, so
    /// their bit patterns order as the values do.
    values: Vec<f64>,
}

impl ShortestPaths {
    /// Runs Dijkstra from every node. Memory is 4 bytes per entry,
    /// O((nodes+1)²); a graph too large for that decodes on the sparse
    /// index instead, which [`DecoderKind::Auto`](crate::DecoderKind::Auto)
    /// picks (`sparse-mwpm`) above its node limit.
    ///
    /// Source rows are independent, so a large table splits them across
    /// every available core. Each row is computed as it would be on one
    /// thread, and its distances are coded through a dictionary sorted
    /// once all rows are done, so the table is bit-identical for any
    /// split. The rows run on a packed copy of the adjacency
    /// ([`DecodingGraph::incident`] order kept) with one heap reused per
    /// worker.
    pub fn compute(graph: &DecodingGraph) -> ShortestPaths {
        // Below this many adjacency scans per worker, a thread spawn (tens
        // of µs) stops being noise next to the rows it would take over.
        const MIN_SCANS_PER_THREAD: usize = 1 << 16;
        let adj = FlatAdjacency::new(graph);
        // Ask for the core count (which may read cgroup files) only when
        // the table is large enough to split at all.
        let max_threads = adj.num_nodes() * adj.hops.len() / MIN_SCANS_PER_THREAD;
        let threads = if max_threads < 2 {
            1
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get().min(max_threads))
        };
        Self::from_adjacency(&adj, threads)
    }

    /// [`ShortestPaths::compute`] split into `threads` row chunks (fewer
    /// when the rows run out first).
    #[cfg(test)]
    pub(crate) fn compute_on(graph: &DecodingGraph, threads: usize) -> ShortestPaths {
        Self::from_adjacency(&FlatAdjacency::new(graph), threads)
    }

    /// Each worker codes its rows against a dictionary of its own, with ids
    /// in first-seen order; one merge then sorts the distinct values of all
    /// chunks, and one pass per chunk rewrites its ids as indices into them.
    fn from_adjacency(adj: &FlatAdjacency, threads: usize) -> ShortestPaths {
        let n = adj.num_nodes();
        // Every id is below n², so the shifted id and its parity bit fit a
        // u32 (and never reach the `UNREACHED` mark).
        assert!(
            n.checked_mul(n).is_some_and(|len| len < 1 << 31),
            "a shortest-path table of {n} nodes exceeds 2^31 entries"
        );
        // Zeroed table: every worker overwrites its own rows in full, so
        // their pages are first touched by the thread that fills them.
        let mut entries = vec![0u32; n * n];
        let rows_per = n.div_ceil(threads.clamp(1, n));
        let dicts: Vec<ChunkValues> = std::thread::scope(|scope| {
            let mut chunks = entries.chunks_mut(rows_per * n).enumerate();
            let (_, rows0) = chunks.next().expect("the boundary node is a row");
            let workers: Vec<_> = chunks
                .map(|(k, rows)| scope.spawn(move || adj.fill_rows(k * rows_per, rows)))
                .collect();
            let first = adj.fill_rows(0, rows0);
            iter::once(first)
                .chain(
                    workers
                        .into_iter()
                        .map(|w| w.join().expect("row worker panicked")),
                )
                .collect()
        });
        let mut values: Vec<f64> = dicts
            .iter()
            .flat_map(|d| d.values.iter().copied())
            .collect();
        values.sort_unstable_by_key(|v| v.to_bits());
        values.dedup_by_key(|v| v.to_bits());
        let index_of = |v: &f64| {
            let at = values.binary_search_by_key(&v.to_bits(), |w| w.to_bits());
            at.expect("every chunk value is in the merged dictionary") as u32
        };
        for (rows, dict) in entries.chunks_mut(rows_per * n).zip(&dicts) {
            let remap: Vec<u32> = dict.values.iter().map(index_of).collect();
            for entry in rows {
                *entry = (remap[(*entry >> 1) as usize] << 1) | (*entry & 1);
            }
        }
        ShortestPaths { n, entries, values }
    }

    /// Approximate heap footprint, for size-bounded artifact caches.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of_val(&self.entries[..]) + std::mem::size_of_val(&self.values[..])
    }

    /// Shortest-path length between two nodes (boundary = `num_nodes`).
    pub fn distance(&self, u: usize, v: usize) -> f64 {
        self.values[self.value_index(u, v)]
    }

    /// Observable parity along the shortest path between two nodes.
    pub fn observable_parity(&self, u: usize, v: usize) -> bool {
        self.entries[u * self.n + v] & 1 != 0
    }

    /// The index of [`ShortestPaths::distance`]`(u, v)` in
    /// [`ShortestPaths::values`].
    pub(crate) fn value_index(&self, u: usize, v: usize) -> usize {
        (self.entries[u * self.n + v] >> 1) as usize
    }

    /// The table's distinct distances, ascending.
    pub(crate) fn values(&self) -> &[f64] {
        &self.values
    }

    /// The coded entries, row-major.
    #[cfg(test)]
    pub(crate) fn entries(&self) -> &[u32] {
        &self.entries
    }

    /// Number of nodes including the boundary.
    pub fn num_nodes_with_boundary(&self) -> usize {
        self.n
    }

    /// Reconstructs a shortest path from `u` to `v` as edge indices, appended
    /// to `out`.
    ///
    /// The walk follows the relaxation equalities of the Dijkstra run rooted
    /// at `v`: each step moves to a neighbor that preserves both the exact
    /// stored distance *and* the stored observable parity. The parity
    /// condition telescopes, so the XOR of the emitted edges' observable
    /// flips equals [`ShortestPaths::observable_parity`]`(u, v)` exactly —
    /// degenerate equal-weight paths of opposite parity can never be picked.
    /// This is what lets the sliding-window committer work edge by edge while
    /// staying bit-identical to whole-path matching.
    ///
    /// # Panics
    ///
    /// Panics if `v` is unreachable from `u`.
    pub fn path_edges(&self, graph: &DecodingGraph, u: usize, v: usize, out: &mut Vec<usize>) {
        assert!(
            self.distance(v, u).is_finite(),
            "node {u} cannot reach node {v}"
        );
        let mut cur = u;
        // A shortest path visits each edge at most once.
        let mut guard = graph.edges().len() + 1;
        while cur != v {
            let d_cur = self.distance(v, cur);
            let o_cur = self.observable_parity(v, cur);
            let mut next: Option<(usize, usize)> = None;
            // Exact pass: the final relaxation that produced `dist[cur]`
            // guarantees a neighbor with bit-exact distance and parity.
            for &ei in graph.incident(cur) {
                let e = &graph.edges()[ei];
                let w = if e.a == cur { e.b } else { e.a };
                if self.distance(v, w) + e.weight == d_cur
                    && (self.observable_parity(v, w) ^ e.flips_observable) == o_cur
                {
                    next = Some((ei, w));
                    break;
                }
            }
            // Paranoia fallback (never taken for tables produced by
            // `ShortestPaths::compute`): epsilon comparison, parity first.
            if next.is_none() {
                for &ei in graph.incident(cur) {
                    let e = &graph.edges()[ei];
                    let w = if e.a == cur { e.b } else { e.a };
                    if (self.distance(v, w) + e.weight - d_cur).abs() < 1e-9
                        && (self.observable_parity(v, w) ^ e.flips_observable) == o_cur
                    {
                        next = Some((ei, w));
                        break;
                    }
                }
            }
            let (ei, w) = next.expect("shortest-path walk found no consistent step");
            out.push(ei);
            cur = w;
            guard -= 1;
            assert!(guard > 0, "shortest-path walk failed to terminate");
        }
    }
}

/// A Dijkstra heap key that orders as (distance, node). Distances are sums
/// of validated finite, positive weights, and for non-negative floats the
/// IEEE bit pattern orders as the value does.
fn heap_key(dist: f64, node: usize) -> u128 {
    (u128::from(dist.to_bits()) << 64) | node as u128
}

/// One incident edge seen from a node: the far endpoint, the edge weight
/// and its observable flip.
#[derive(Clone, Copy)]
struct Hop {
    weight: f64,
    to: u32,
    flips: bool,
}

/// A packed copy of a graph's adjacency (CSR): node `u`'s incident edges,
/// in [`DecodingGraph::incident`] order, are `hops[start[u]..start[u + 1]]`.
struct FlatAdjacency {
    start: Vec<u32>,
    hops: Vec<Hop>,
}

impl FlatAdjacency {
    fn new(graph: &DecodingGraph) -> FlatAdjacency {
        let n = graph.num_nodes() + 1;
        let mut start = Vec::with_capacity(n + 1);
        let mut hops = Vec::new();
        start.push(0);
        for u in 0..n {
            hops.extend(graph.incident(u).iter().map(|&ei| {
                let e = &graph.edges()[ei];
                Hop {
                    weight: e.weight,
                    to: (if e.a == u { e.b } else { e.a }) as u32,
                    flips: e.flips_observable,
                }
            }));
            start.push(u32::try_from(hops.len()).expect("adjacency fits u32 offsets"));
        }
        FlatAdjacency { start, hops }
    }

    /// Nodes, boundary included.
    fn num_nodes(&self) -> usize {
        self.start.len() - 1
    }

    /// Fills the table rows of sources `first..`, `n` entries each, coded
    /// against the returned chunk dictionary, reusing one heap and one
    /// distance row across them.
    fn fill_rows(&self, first: usize, entries: &mut [u32]) -> ChunkValues {
        let n = self.num_nodes();
        let mut heap = BinaryHeap::new();
        let mut dist = vec![0.0; n];
        let mut dict = ChunkValues::default();
        for (k, row) in entries.chunks_exact_mut(n).enumerate() {
            self.dijkstra(first + k, row, &mut dist, &mut dict, &mut heap);
        }
        dict
    }

    /// One source row. Nodes settle in pop order, whose distances never
    /// decrease, so equal distances settle one after another and the
    /// dictionary is asked only where the distance changes.
    fn dijkstra(
        &self,
        src: usize,
        row: &mut [u32],
        dist: &mut [f64],
        dict: &mut ChunkValues,
        heap: &mut BinaryHeap<Reverse<u128>>,
    ) {
        // Until a node settles, its entry holds only the parity of its
        // best path so far; a node never reached keeps `UNREACHED`.
        row.fill(UNREACHED);
        dist.fill(f64::INFINITY);
        row[src] = 0;
        dist[src] = 0.0;
        heap.push(Reverse(heap_key(0.0, src)));
        let (mut last, mut id) = (None, 0);
        while let Some(Reverse(key)) = heap.pop() {
            let (bits, u) = ((key >> 64) as u64, key as u64 as usize);
            let d = f64::from_bits(bits);
            // A push strictly lowers its node's distance and weights are
            // positive, so only a node's first pop is live: no `done` set.
            // Keys are distinct, so any exact min-heap pops them in the
            // same order.
            if d > dist[u] {
                continue;
            }
            if last != Some(bits) {
                (last, id) = (Some(bits), dict.id_of(bits));
            }
            let parity = row[u];
            row[u] = (id << 1) | parity;
            for hop in &self.hops[self.start[u] as usize..self.start[u + 1] as usize] {
                let v = hop.to as usize;
                let nd = d + hop.weight;
                if nd < dist[v] {
                    dist[v] = nd;
                    row[v] = parity ^ u32::from(hop.flips);
                    heap.push(Reverse(heap_key(nd, v)));
                }
            }
        }
        if row.contains(&UNREACHED) {
            let unreached = dict.id_of(f64::INFINITY.to_bits()) << 1;
            for entry in row.iter_mut().filter(|e| **e == UNREACHED) {
                *entry = unreached;
            }
        }
    }
}

/// A row entry whose node no path has reached yet.
const UNREACHED: u32 = u32::MAX;

/// One row worker's distance dictionary, ids in first-seen order.
#[derive(Default)]
struct ChunkValues {
    /// The distinct distances seen, by id.
    values: Vec<f64>,
    /// The id of each seen distance, by its bits.
    ids: FxHashMap<u64, u32>,
}

impl ChunkValues {
    /// The id of the distance with bits `bits`, a new one if the chunk has
    /// not seen it.
    fn id_of(&mut self, bits: u64) -> u32 {
        let values = &mut self.values;
        *self.ids.entry(bits).or_insert_with(|| {
            values.push(f64::from_bits(bits));
            (values.len() - 1) as u32
        })
    }
}

/// Most subsets the certified solver's DP may solve in one component; a
/// component that needs more defers to the blossom. It also sizes the memo.
/// See the module docs for why 512.
const DP_SUBSET_BUDGET: usize = 512;

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
/// and `j`, `scaled_boundary[i]` that of matching `i` to the boundary. The
/// solution is `pairs` (`i < j`, ascending `i`) and `to_boundary`
/// (ascending), as indices into the staged defects.
#[derive(Debug, Default)]
struct DefectMatching {
    k: usize,
    scaled: Vec<i64>,
    scaled_boundary: Vec<i64>,
    pairs: Vec<(usize, usize)>,
    to_boundary: Vec<usize>,
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
    members: Vec<usize>,
    ends: Vec<usize>,
    memo: SubsetMemo,
    /// Blossom reduction scratch.
    edges: Vec<(usize, usize, i64)>,
    blossom: MatchingContext,
}

impl DefectMatching {
    /// Zeroes the cost matrices for `k` defects and clears the solution.
    fn stage(&mut self, k: usize) {
        self.k = k;
        self.pairs.clear();
        self.to_boundary.clear();
        self.scaled.clear();
        self.scaled.resize(k * k, 0);
        self.scaled_boundary.clear();
        self.scaled_boundary.resize(k, 0);
    }

    fn pair_cost(&self, i: usize, j: usize) -> i64 {
        self.scaled[i.min(j) * self.k + i.max(j)]
    }

    /// Whether pairing `i` and `j` costs exactly their two boundary matches.
    fn twins(&self, i: usize, j: usize) -> bool {
        self.pair_cost(i, j) == self.scaled_boundary[i].saturating_add(self.scaled_boundary[j])
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

    /// Solves the staged problem: the certified solver when the optimum is
    /// unique, the blossom otherwise.
    fn solve(&mut self) {
        if !self.solve_certified() {
            self.solve_blossom();
        }
    }

    /// Exact matching that also proves its optimum unique, so the blossom
    /// (or any exact matcher) would return the same solution. Returns
    /// `false`, leaving the solution empty, when it cannot prove that.
    ///
    /// A pair costing at least its two boundary matches is dropped: with
    /// `>` it is never optimal, with `==` (a twin) it ties with them. The
    /// remaining pairs split the defects into components, each solved by a
    /// subset DP that counts its optimal solutions.
    fn solve_certified(&mut self) -> bool {
        self.build_kept_rows();
        let (k, w) = (self.k, self.k.div_ceil(64));
        // Components by bitset union over the kept rows.
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
        if self.odd_components_tie() {
            return false;
        }
        // Every defect starts at the boundary until its component's optimum
        // says otherwise.
        self.mate.clear();
        self.mate.extend(0..k);
        let mut start = 0;
        for c in 0..self.ends.len() {
            let end = self.ends[c];
            match end - start {
                1 => {}
                // A kept pair is strictly cheaper than its two boundary
                // matches, the only other option.
                2 => {
                    let (u, v) = (self.members[start], self.members[start + 1]);
                    self.mate[u] = v;
                    self.mate[v] = u;
                }
                _ => {
                    if !self.solve_component(start, end) {
                        return false;
                    }
                }
            }
            start = end;
        }
        // Two boundary-matched twins could pair at the same cost.
        for (i, &j) in self.mate.iter().enumerate() {
            if j == i {
                self.to_boundary.push(i);
            } else if i < j {
                self.pairs.push((i, j));
            }
        }
        let singles = &self.to_boundary;
        let tied = |(a, &i): (usize, &usize)| singles[a + 1..].iter().any(|&j| self.twins(i, j));
        if singles.iter().enumerate().any(tied) {
            self.pairs.clear();
            self.to_boundary.clear();
            return false;
        }
        true
    }

    /// Every optimum sends at least one member of each odd component to the
    /// boundary. If all pairs across two odd components are twins, those
    /// members tie whatever the DPs choose, so the solver can defer before
    /// running any (two lone twins are the smallest case).
    fn odd_components_tie(&self) -> bool {
        let components = || {
            let starts = iter::once(0).chain(self.ends.iter().copied());
            starts.zip(self.ends.iter().copied())
        };
        let odd = |&(start, end): &(usize, usize)| (end - start) % 2 == 1;
        for (c, (start, end)) in components().enumerate().filter(|(_, r)| odd(r)) {
            let first = &self.members[start..end];
            for (start, end) in components().skip(c + 1).filter(odd) {
                let second = &self.members[start..end];
                if first
                    .iter()
                    .all(|&u| second.iter().all(|&v| self.twins(u, v)))
                {
                    return true;
                }
            }
        }
        false
    }

    /// Runs the subset DP over the component `members[start..end]` and
    /// writes its optimum into `mate`. Returns whether that optimum is
    /// unique and was found within [`DP_SUBSET_BUDGET`].
    fn solve_component(&mut self, start: usize, end: usize) -> bool {
        let m = end - start;
        if m > 64 {
            return false;
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
        let unique = dp.best(full).is_some_and(|best| best.count == 1);
        if unique {
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
        unique
    }

    /// The blossom reduction: vertices 0..k are defects, k..2k their
    /// private boundary copies (the standard odd-parity reduction).
    fn solve_blossom(&mut self) {
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
        let mate = self.blossom.solve(&self.edges, true);
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

/// Subset-DP state: the minimum cost of a set of defects, how many
/// solutions reach it (saturating at 2), and the lowest member's partner.
#[derive(Debug, Clone, Copy)]
struct DpEntry {
    cost: i64,
    count: u8,
    partner: u8,
}

impl DpEntry {
    const BOUNDARY: u8 = u8::MAX;
    /// The empty set: nothing to match, one way to do it.
    const EMPTY: DpEntry = DpEntry {
        cost: 0,
        count: 1,
        partner: DpEntry::BOUNDARY,
    };
}

/// One slot of the DP memo, valid while `stamp` is the memo's epoch.
#[derive(Debug, Clone, Copy, Default)]
struct MemoSlot {
    set: u64,
    cost: i64,
    stamp: u32,
    count: u8,
    partner: u8,
}

/// The subset DP's memo over the subsets it reaches: [`MEMO_SLOTS`] slots,
/// indexed by the subset mask for a component of at most
/// [`DIRECT_MEMO_BITS`] members and open-addressed by its hash beyond. The
/// slots are allocated on first use and invalidated per component by
/// bumping the epoch, so a warm solve neither clears them nor allocates.
#[derive(Debug, Default)]
struct SubsetMemo {
    slots: Vec<MemoSlot>,
    epoch: u32,
    hashed: bool,
    solved: usize,
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
    /// an overflow can only read as a tie and defer. `None` once the DP has
    /// solved more than [`DP_SUBSET_BUDGET`] subsets.
    fn best(&mut self, set: u64) -> Option<DpEntry> {
        if set == 0 {
            return Some(DpEntry::EMPTY);
        }
        if let Some(entry) = self.memo.get(set) {
            return Some(entry);
        }
        let a = set.trailing_zeros() as usize;
        let u = self.members[a];
        let rest = set & !(1 << a);
        let sub = self.best(rest)?;
        let mut out = DpEntry {
            cost: self.problem.scaled_boundary[u].saturating_add(sub.cost),
            count: sub.count,
            partner: DpEntry::BOUNDARY,
        };
        let mut neighbours = self.kept[a] & rest;
        while neighbours != 0 {
            let b = neighbours.trailing_zeros() as usize;
            neighbours &= neighbours - 1;
            let sub = self.best(rest & !(1 << b))?;
            let cost = self
                .problem
                .pair_cost(u, self.members[b])
                .saturating_add(sub.cost);
            if cost < out.cost {
                out = DpEntry {
                    cost,
                    count: sub.count,
                    partner: b as u8,
                };
            } else if cost == out.cost {
                out.count = (out.count + sub.count).min(2);
            }
        }
        self.memo.insert(set, out).then_some(out)
    }
}

/// Checks a defect's distance to the boundary before it is staged.
///
/// # Panics
///
/// Panics if the defect is cut off from the boundary: it then has no
/// perfect matching of its own, and the infinite cost would overflow both
/// solvers.
fn check_boundary(distance: f64, node: usize) {
    assert!(
        distance.is_finite(),
        "defect on node {node} cut off from the boundary cannot be matched"
    );
}

/// Stateful MWPM decoder instance: one per worker thread. Owns the matching
/// scratch and the defect-graph staging buffers, all reused across shots.
///
/// # Example
///
/// ```
/// use qec_core::NoiseParams;
/// use qec_core::circuit::DetectorBasis;
/// use qec_decoder::{build_dem, DecodingGraph, MwpmBatchDecoder, Syndrome, SyndromeDecoder};
/// use surface_code::{MemoryExperiment, RotatedCode};
/// use std::sync::Arc;
///
/// let exp = MemoryExperiment::new(RotatedCode::new(3), NoiseParams::standard(1e-3), 2);
/// let detectors = exp.detectors();
/// let dem = build_dem(&exp.base_circuit(), &detectors, &exp.observable_keys());
/// let graph = DecodingGraph::from_dem(&dem, &detectors, DetectorBasis::Z);
/// let mut decoder = MwpmBatchDecoder::new(&graph); // computes the path table
/// // A second instance (say, for another thread) shares that table.
/// let second = MwpmBatchDecoder::with_paths(&graph, Arc::clone(decoder.paths()));
/// assert!(Arc::ptr_eq(decoder.paths(), second.paths()));
/// assert!(!decoder.decode(&Syndrome::default(), None).flip);
/// ```
#[derive(Debug)]
pub struct MwpmBatchDecoder<'g> {
    graph: &'g DecodingGraph,
    paths: Arc<ShortestPaths>,
    /// [`scale_weight`] of each of the table's distinct distances.
    scaled: Vec<i64>,
    matching: DefectMatching,
    overlay: WeightOverlay,
    eff_dist: Vec<f64>,
    eff_par: Vec<bool>,
    dijkstra: DijkstraScratch,
}

impl<'g> MwpmBatchDecoder<'g> {
    /// Builds a standalone instance, computing the shortest-path table
    /// itself. For multi-threaded decoding compute the table once and share
    /// it through [`MwpmBatchDecoder::with_paths`].
    pub fn new(graph: &'g DecodingGraph) -> MwpmBatchDecoder<'g> {
        MwpmBatchDecoder::with_paths(graph, Arc::new(ShortestPaths::compute(graph)))
    }

    /// Builds an instance over a precomputed (shared) shortest-path table.
    ///
    /// # Panics
    ///
    /// Panics if `paths` was computed for a different-sized graph.
    pub fn with_paths(graph: &'g DecodingGraph, paths: Arc<ShortestPaths>) -> MwpmBatchDecoder<'g> {
        assert_eq!(
            paths.num_nodes_with_boundary(),
            graph.num_nodes() + 1,
            "shortest-path table does not match the decoding graph"
        );
        MwpmBatchDecoder {
            graph,
            scaled: paths.values().iter().map(|&d| scale_weight(d)).collect(),
            paths,
            matching: DefectMatching::default(),
            overlay: WeightOverlay::new(),
            eff_dist: Vec::new(),
            eff_par: Vec::new(),
            dijkstra: DijkstraScratch::new(),
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &DecodingGraph {
        self.graph
    }

    /// The shared shortest-path table.
    pub fn paths(&self) -> &Arc<ShortestPaths> {
        &self.paths
    }

    /// Stages the defects' shortest-path costs into `self.matching`, read
    /// from the scaled dictionary.
    fn stage_paths(&mut self, defects: &[usize]) {
        let k = defects.len();
        let boundary = self.graph.boundary();
        let (paths, scaled) = (&self.paths, &self.scaled);
        let m = &mut self.matching;
        m.stage(k);
        for i in 0..k {
            for j in (i + 1)..k {
                m.scaled[i * k + j] = scaled[paths.value_index(defects[i], defects[j])];
            }
            let to_boundary = paths.value_index(defects[i], boundary);
            check_boundary(paths.values()[to_boundary], defects[i]);
            m.scaled_boundary[i] = scaled[to_boundary];
        }
    }

    /// Like [`MwpmBatchDecoder::stage_paths`], but over the overlaid metric
    /// previously staged into `self.eff_dist` (erasure decoding).
    fn stage_overlay(&mut self, defects: &[usize]) {
        let k = defects.len();
        let t = k + 1;
        let m = &mut self.matching;
        m.stage(k);
        for (i, &node) in defects.iter().enumerate() {
            for j in (i + 1)..k {
                m.scaled[i * k + j] = scale_weight(self.eff_dist[i * t + j]);
            }
            check_boundary(self.eff_dist[i * t + k], node);
            m.scaled_boundary[i] = scale_weight(self.eff_dist[i * t + k]);
        }
    }

    /// Flip and weight of the solved matching along shortest paths, pairs
    /// first, each path's edges appended to `correction` when given.
    fn path_outcome(
        &self,
        defects: &[usize],
        mut correction: Option<&mut Vec<usize>>,
    ) -> (bool, f64) {
        let boundary = self.graph.boundary();
        let pairs = self
            .matching
            .pairs
            .iter()
            .map(|&(i, j)| (defects[i], defects[j]));
        let singles = self
            .matching
            .to_boundary
            .iter()
            .map(|&i| (defects[i], boundary));
        let mut flip = false;
        let mut weight = 0.0;
        for (u, v) in pairs.chain(singles) {
            flip ^= self.paths.observable_parity(u, v);
            weight += self.paths.distance(u, v);
            if let Some(c) = correction.as_deref_mut() {
                self.paths.path_edges(self.graph, u, v, c);
            }
        }
        (flip, weight)
    }
}

impl SyndromeDecoder for MwpmBatchDecoder<'_> {
    /// With `correction`, the matched paths are also emitted as edge indices;
    /// the returned flip is then computed from those edges, which is
    /// bit-identical to the pairwise parity on the erasure-free path (the
    /// walk is parity-consistent, see [`ShortestPaths::path_edges`]) and
    /// self-consistent under erasures.
    fn decode(
        &mut self,
        syndrome: &Syndrome,
        mut correction: Option<&mut Vec<usize>>,
    ) -> DecodeOutcome {
        if let Some(c) = correction.as_deref_mut() {
            c.clear();
        }
        let defects = &syndrome.defects;
        if defects.is_empty() {
            // Trivial shot: skip even the clock reads (the common case at
            // low physical error rates).
            return DecodeOutcome::default();
        }
        let start = Instant::now();
        let boundary = self.graph.boundary();
        let mut flip = false;
        let mut weight = 0.0;
        if syndrome.erasures.is_empty() {
            self.stage_paths(defects);
            self.matching.solve();
            (flip, weight) = self.path_outcome(defects, correction);
        } else {
            // Erasure decoding: overlay the flagged edges (weight ~0), match
            // over the reweighted metric, then restore.
            self.overlay.apply(self.graph, &syndrome.erasures);
            self.overlay.effective_metrics(
                &self.paths,
                defects,
                boundary,
                &mut self.eff_dist,
                &mut self.eff_par,
            );
            self.stage_overlay(defects);
            self.matching.solve();
            let k = defects.len();
            let t = k + 1;
            for &(i, j) in &self.matching.pairs {
                weight += self.eff_dist[i * t + j];
                flip ^= if let Some(c) = correction.as_deref_mut() {
                    self.dijkstra.effective_path_edges(
                        self.graph,
                        &self.overlay,
                        defects[i],
                        defects[j],
                        c,
                    )
                } else {
                    self.eff_par[i * t + j]
                };
            }
            for &i in &self.matching.to_boundary {
                weight += self.eff_dist[i * t + k];
                flip ^= if let Some(c) = correction.as_deref_mut() {
                    self.dijkstra.effective_path_edges(
                        self.graph,
                        &self.overlay,
                        defects[i],
                        boundary,
                        c,
                    )
                } else {
                    self.eff_par[i * t + k]
                };
            }
            self.overlay.restore();
        }
        DecodeOutcome {
            flip,
            weight,
            defects: defects.len(),
            nanos: start.elapsed().as_nanos() as u64,
        }
    }

    /// 1–2 erasure-free defects, decided by the same certified solver the
    /// full path tries first, on the same staged costs: its answer is the
    /// full path's whenever it certifies. Otherwise (two defects whose pair
    /// costs exactly their two boundary matches) the optimum is a tie the
    /// blossom must break: defer (`None`).
    fn decode_tier1(
        &mut self,
        syndrome: &Syndrome,
        mut correction: Option<&mut Vec<usize>>,
    ) -> Option<DecodeOutcome> {
        let defects = &syndrome.defects;
        let k = defects.len();
        if !(1..=2).contains(&k) || !syndrome.erasures.is_empty() {
            return None;
        }
        let start = Instant::now();
        // Decide before touching the correction so a deferral leaves the
        // caller's state exactly as the full path expects it.
        self.stage_paths(defects);
        if !self.matching.solve_certified() {
            return None;
        }
        if let Some(c) = correction.as_deref_mut() {
            c.clear();
        }
        let (flip, weight) = self.path_outcome(defects, correction);
        Some(DecodeOutcome {
            flip,
            weight,
            defects: k,
            nanos: start.elapsed().as_nanos() as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dem::build_dem;
    use qec_core::circuit::DetectorBasis;
    use qec_core::NoiseParams;
    use surface_code::{MemoryExperiment, RotatedCode};

    fn setup(d: usize, rounds: usize) -> (DecodingGraph, crate::DetectorErrorModel) {
        let exp = MemoryExperiment::new(RotatedCode::new(d), NoiseParams::standard(1e-3), rounds);
        let detectors = exp.detectors();
        let dem = build_dem(&exp.base_circuit(), &detectors, &exp.observable_keys());
        let graph = DecodingGraph::from_dem(&dem, &detectors, DetectorBasis::Z);
        (graph, dem)
    }

    #[test]
    fn empty_syndrome_decodes_trivially() {
        let (graph, _) = setup(3, 2);
        let mut decoder = MwpmBatchDecoder::new(&graph);
        let outcome = decoder.decode(&Syndrome::default(), None);
        assert!(!outcome.flip);
        assert_eq!(outcome.weight, 0.0);
        assert_eq!(outcome.defects, 0);
    }

    #[test]
    fn factory_shares_one_paths_table() {
        let (graph, _) = setup(3, 2);
        let a = MwpmBatchDecoder::new(&graph);
        let b = MwpmBatchDecoder::with_paths(&graph, Arc::clone(a.paths()));
        assert!(Arc::ptr_eq(a.paths(), b.paths()));
    }

    #[test]
    fn shortest_paths_are_symmetric() {
        let (graph, _) = setup(3, 3);
        let paths = ShortestPaths::compute(&graph);
        let n = graph.num_nodes();
        for u in (0..n).step_by(3) {
            for v in (0..n).step_by(5) {
                assert!((paths.distance(u, v) - paths.distance(v, u)).abs() < 1e-9);
                assert_eq!(paths.observable_parity(u, v), paths.observable_parity(v, u));
            }
        }
    }

    #[test]
    fn every_node_reaches_boundary() {
        let (graph, _) = setup(5, 3);
        let paths = ShortestPaths::compute(&graph);
        let b = graph.boundary();
        for u in 0..graph.num_nodes() {
            assert!(paths.distance(u, b).is_finite(), "node {u} cut off");
        }
    }

    /// Every single fault mechanism must be corrected without a logical
    /// error: decoding its own defect signature must predict exactly its
    /// observable flip. This is the statement that the decoder preserves the
    /// code distance.
    #[test]
    fn single_faults_are_always_corrected() {
        for (d, rounds) in [(3usize, 3usize), (5, 4)] {
            let (graph, dem) = setup(d, rounds);
            let mut decoder = MwpmBatchDecoder::new(&graph);
            let exp =
                MemoryExperiment::new(RotatedCode::new(d), NoiseParams::standard(1e-3), rounds);
            let detectors = exp.detectors();
            let mut checked = 0;
            let mut syndrome = Syndrome::default();
            for mech in &dem.mechanisms {
                syndrome.clear();
                syndrome.defects.extend(
                    mech.detectors
                        .iter()
                        .filter_map(|&det| graph.node_of_detector(det)),
                );
                // Only mechanisms whose Z-projection is elementary are direct
                // graph edges; all single faults in a distance-d code satisfy
                // this (hyperedges decompose).
                if syndrome.is_empty() {
                    assert!(
                        !mech.flips_observable,
                        "undetectable logical flip at d={d}: {mech:?}"
                    );
                    continue;
                }
                let predicted = decoder.decode(&syndrome, None).flip;
                assert_eq!(
                    predicted,
                    mech.flips_observable,
                    "single fault mis-corrected at d={d}: {mech:?} (dets {:?})",
                    mech.detectors
                        .iter()
                        .map(|&i| (&detectors[i].basis, detectors[i].round))
                        .collect::<Vec<_>>()
                );
                checked += 1;
            }
            assert!(checked > 50, "too few mechanisms checked ({checked})");
        }
    }

    #[test]
    fn matched_pairs_partition_defects() {
        let (graph, dem) = setup(3, 3);
        let mut decoder = MwpmBatchDecoder::new(&graph);
        // Combine a few mechanisms into a composite syndrome.
        let mut events = vec![false; graph.num_nodes()];
        for mech in dem.mechanisms.iter().take(6) {
            for &det in &mech.detectors {
                if let Some(n) = graph.node_of_detector(det) {
                    events[n] ^= true;
                }
            }
        }
        let defects: Vec<usize> = (0..graph.num_nodes()).filter(|&n| events[n]).collect();
        decoder.stage_paths(&defects);
        decoder.matching.solve();
        let (pairs, to_boundary) = (
            decoder.matching.pairs.clone(),
            decoder.matching.to_boundary.clone(),
        );
        let mut seen = vec![false; defects.len()];
        for (i, j) in &pairs {
            assert!(!seen[*i] && !seen[*j]);
            seen[*i] = true;
            seen[*j] = true;
        }
        for i in &to_boundary {
            assert!(!seen[*i]);
            seen[*i] = true;
        }
        assert!(seen.iter().all(|&s| s), "defect left unmatched");
    }

    #[test]
    fn outcome_weight_tracks_matched_paths() {
        let (graph, dem) = setup(3, 3);
        let mut decoder = MwpmBatchDecoder::new(&graph);
        // Any non-empty syndrome must be corrected with positive weight.
        let mech = dem
            .mechanisms
            .iter()
            .find(|m| {
                m.detectors
                    .iter()
                    .any(|&d| graph.node_of_detector(d).is_some())
            })
            .expect("some Z-visible mechanism");
        let defects: Vec<usize> = mech
            .detectors
            .iter()
            .filter_map(|&det| graph.node_of_detector(det))
            .collect();
        let outcome = decoder.decode(&Syndrome::new(defects.clone()), None);
        assert_eq!(outcome.defects, defects.len());
        assert!(outcome.weight > 0.0);
    }

    /// A defect on a graph without edges cannot reach the boundary.
    fn cut_off_decoder_graph() -> DecodingGraph {
        let exp = MemoryExperiment::new(RotatedCode::new(3), NoiseParams::standard(0.0), 2);
        let detectors = exp.detectors();
        let dem = build_dem(&exp.base_circuit(), &detectors, &exp.observable_keys());
        let graph = DecodingGraph::from_dem(&dem, &detectors, DetectorBasis::Z);
        assert_eq!((graph.num_nodes(), graph.edges().len()), (12, 0));
        graph
    }

    #[test]
    #[should_panic(expected = "defect on node 0 cut off from the boundary cannot be matched")]
    fn cut_off_defect_panics_on_the_full_path() {
        let graph = cut_off_decoder_graph();
        MwpmBatchDecoder::new(&graph).decode(&Syndrome::new(vec![0]), None);
    }

    #[test]
    #[should_panic(expected = "defect on node 0 cut off from the boundary cannot be matched")]
    fn cut_off_defect_panics_on_tier1() {
        let graph = cut_off_decoder_graph();
        MwpmBatchDecoder::new(&graph).decode_tier1(&Syndrome::new(vec![0]), None);
    }

    /// Stages a symmetric problem: `pair(i, j)` for `i < j`, `boundary(i)`.
    fn staged(
        k: usize,
        mut pair: impl FnMut(usize, usize) -> i64,
        mut boundary: impl FnMut(usize) -> i64,
    ) -> DefectMatching {
        let mut m = DefectMatching::default();
        m.stage(k);
        for i in 0..k {
            for j in (i + 1)..k {
                m.scaled[i * k + j] = pair(i, j);
            }
            m.scaled_boundary[i] = boundary(i);
        }
        m
    }

    type Solution = (Vec<(usize, usize)>, Vec<usize>);

    /// The certified solution, or `None` when the solver defers.
    fn certified(m: &mut DefectMatching) -> Option<Solution> {
        m.pairs.clear();
        m.to_boundary.clear();
        m.solve_certified()
            .then(|| (m.pairs.clone(), m.to_boundary.clone()))
    }

    fn blossom(m: &mut DefectMatching) -> Solution {
        m.pairs.clear();
        m.to_boundary.clear();
        m.solve_blossom();
        (m.pairs.clone(), m.to_boundary.clone())
    }

    /// Number of minimum-cost involutions (pairs or boundary) by exhaustion.
    fn optimal_count(m: &DefectMatching) -> usize {
        fn rec(m: &DefectMatching, free: u32, cost: i64, best: &mut (i64, usize)) {
            if free == 0 {
                if cost < best.0 {
                    *best = (cost, 1);
                } else if cost == best.0 {
                    best.1 += 1;
                }
                return;
            }
            let i = free.trailing_zeros() as usize;
            let rest = free & !(1 << i);
            rec(m, rest, cost + m.scaled_boundary[i], best);
            for j in (i + 1)..m.k {
                if rest & (1 << j) != 0 {
                    rec(m, rest & !(1 << j), cost + m.pair_cost(i, j), best);
                }
            }
        }
        let mut best = (i64::MAX, 0);
        rec(m, (1 << m.k) - 1, 0, &mut best);
        best.1
    }

    /// Random staged problems with tiny integer costs, so ties and forced
    /// twins are common: whenever the certified solver answers, it returns
    /// the blossom reduction's solution in the same order, and for k ≤ 12
    /// it answers exactly when the optimum is unique. Up to 12 defects the
    /// kept graph is dense (a complete component of 12 stays within the
    /// subset budget); from 13 to 24, and on 65–80 defects (multi-word
    /// rows), it is sparse.
    #[test]
    fn certified_solver_agrees_with_the_blossom() {
        let mut rng = qec_core::Rng::new(0xCE27_1F1E);
        let (mut answered, mut deferred) = ([0; 3], [0; 3]);
        for case in 0..3040 {
            let k = if case < 3000 {
                1 + rng.below(24) as usize
            } else {
                65 + rng.below(16) as usize
            };
            let boundary: Vec<i64> = (0..k).map(|_| 1 + rng.below(5) as i64).collect();
            let (twin_rate, keep_rate) = match k {
                ..=12 => (rng.below(4) as f64 / 10.0, 1.0),
                13..=24 => (rng.below(4) as f64 / 40.0, 2.0 / k as f64),
                _ => (0.0, 1.0 / k as f64),
            };
            let mut m = staged(
                k,
                |i, j| {
                    let both = boundary[i] + boundary[j];
                    if rng.bernoulli(twin_rate) {
                        both
                    } else if rng.bernoulli(keep_rate) {
                        // Dense problems draw any tiny cost, sparse ones a
                        // strictly kept one.
                        rng.below(if k <= 12 { 9 } else { both as u64 }) as i64
                    } else {
                        both + 1 + rng.below(3) as i64
                    }
                },
                |i| boundary[i],
            );
            let size = match k {
                ..=12 => 0,
                13..=24 => 1,
                _ => 2,
            };
            let reference = blossom(&mut m);
            match certified(&mut m) {
                Some(solution) => {
                    answered[size] += 1;
                    assert_eq!(solution, reference, "case {case}: k={k} {:?}", m.scaled);
                    if k <= 12 {
                        assert_eq!(optimal_count(&m), 1, "case {case}: certified a tie");
                    }
                }
                None => {
                    deferred[size] += 1;
                    if k <= 12 {
                        assert!(
                            optimal_count(&m) > 1,
                            "case {case}: deferred a unique optimum"
                        );
                    }
                }
            }
        }
        assert!(
            answered[0] > 300 && deferred[0] > 300,
            "k ≤ 12: {} answered, {} deferred",
            answered[0],
            deferred[0]
        );
        assert!(
            answered[1] > 300 && deferred[1] > 100,
            "13 ≤ k ≤ 24: {} answered, {} deferred",
            answered[1],
            deferred[1]
        );
        assert!(answered[2] > 5, "k > 64: {} answered", answered[2]);
    }

    #[test]
    fn certified_solver_defers_on_a_twin_tie() {
        // Pairing costs exactly the two boundary matches.
        let mut m = staged(2, |_, _| 7, |i| [3, 4][i]);
        assert_eq!(certified(&mut m), None);
        // One unit cheaper, the pair is the unique optimum.
        let mut m = staged(2, |_, _| 6, |i| [3, 4][i]);
        assert_eq!(certified(&mut m), Some((vec![(0, 1)], vec![])));
        assert_eq!(blossom(&mut m), (vec![(0, 1)], vec![]));
    }

    #[test]
    fn certified_solver_defers_on_a_symmetric_four_defect_tie() {
        // Three perfect matchings of K4, each costing 2.
        let mut m = staged(4, |_, _| 1, |_| 10);
        assert_eq!(certified(&mut m), None);
        // Make (0,1)+(2,3) strictly cheapest.
        let mut m = staged(4, |i, j| if (i, j) == (0, 1) { 0 } else { 1 }, |_| 10);
        assert_eq!(certified(&mut m), Some((vec![(0, 1), (2, 3)], vec![])));
    }

    #[test]
    fn certified_solver_takes_large_components() {
        // A chain whose neighbours pair cheaply: one component of k defects,
        // with a unique optimum (pairs (0,1), (2,3), …, the last defect of
        // an odd chain to the boundary).
        let chain = |k: usize| {
            staged(
                k,
                |i, j| if j == i + 1 { 1 + (i % 2) as i64 } else { 100 },
                |_| 10,
            )
        };
        let mut m = chain(11);
        let solution = certified(&mut m).expect("an 11-defect chain certifies");
        assert_eq!(solution.0, vec![(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)]);
        assert_eq!(solution.1, vec![10]);
        assert_eq!(solution, blossom(&mut m));
        let mut m = chain(24);
        let solution = certified(&mut m).expect("a 24-defect chain certifies");
        assert_eq!(solution.0.len(), 12);
        assert_eq!(solution, blossom(&mut m));
        // Every pair kept, at spread-out costs: the DP solves 376 subsets of
        // a complete component of 12 and certifies it, but would solve 609
        // of one of 13, past the budget, so that one defers.
        let complete = |k: usize| {
            let mut rng = qec_core::Rng::new(k as u64);
            staged(k, |_, _| rng.below(1 << 20) as i64, |_| 1 << 21)
        };
        let mut m = complete(12);
        assert_eq!(optimal_count(&m), 1);
        let solution = certified(&mut m).expect("a complete 12-defect component certifies");
        assert_eq!(m.memo.solved, 376);
        assert_eq!(solution, blossom(&mut m));
        let mut m = complete(13);
        assert_eq!(certified(&mut m), None);
        assert!(m.memo.solved > DP_SUBSET_BUDGET);
    }

    /// Real syndromes: the decoder's own staged costs, certified or not,
    /// agree with the blossom wherever the certified solver answers. The
    /// d = 7, 21-round window with 10–24 mechanisms per syndrome reaches
    /// components of more than 10 defects. The answered counts (and how
    /// many of those had such a component) are pinned: they move only when
    /// the deferral rule does.
    #[test]
    fn certified_solver_agrees_on_decoder_syndromes() {
        let cases = [(5, 5, 400, 1..7, (348, 6)), (7, 21, 300, 10..25, (89, 66))];
        for (d, rounds, syndromes, mechanisms, pinned) in cases {
            let (graph, dem) = setup(d, rounds);
            let mut decoder = MwpmBatchDecoder::new(&graph);
            let mut rng = qec_core::Rng::new(77);
            let (mut answered, mut large) = (0, 0);
            for _ in 0..syndromes {
                let mut events = vec![false; graph.num_nodes()];
                let span = mechanisms.end - mechanisms.start;
                for _ in 0..mechanisms.start + rng.below(span) {
                    let mech = &dem.mechanisms[rng.below(dem.mechanisms.len() as u64) as usize];
                    for &det in &mech.detectors {
                        if let Some(node) = graph.node_of_detector(det) {
                            events[node] ^= true;
                        }
                    }
                }
                let defects: Vec<usize> = (0..graph.num_nodes()).filter(|&n| events[n]).collect();
                decoder.stage_paths(&defects);
                let reference = blossom(&mut decoder.matching);
                if let Some(solution) = certified(&mut decoder.matching) {
                    answered += 1;
                    assert_eq!(solution, reference, "d={d}: defects {defects:?}");
                    let m = &decoder.matching;
                    let sizes = m.ends.iter().zip(iter::once(&0).chain(&m.ends));
                    if sizes.map(|(end, start)| end - start).max() > Some(10) {
                        large += 1;
                    }
                }
            }
            assert_eq!((answered, large), pinned, "d={d}: (answered, large)");
        }
    }
}
