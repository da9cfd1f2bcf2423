//! Minimum-Weight Perfect Matching decoder.
//!
//! The paper's gold-standard decoder (§2.2): fired detectors (defects) are
//! paired up — or matched to the lattice boundary — along minimum-weight
//! paths of the decoding graph, and the correction's effect on the logical
//! observable is the XOR of the observable parities of those paths.
//!
//! Implementation: all-pairs shortest paths (Dijkstra per node, tracking
//! observable parity along the shortest path and the first edge of a walk
//! back to the source), then exact matching on the defect graph, staged as
//! integer costs (pair `i`–`j`, or `i` to the boundary). Each table entry
//! packs `index | step | parity` into 4 bytes: the distance's index in the
//! table's dictionary of distinct distances, the walk step as a position
//! in the node's incident list, and the parity. A correction walk reads one
//! entry and one incident edge per step.
//!
//! # Certified matching ahead of the blossom
//!
//! Every solve first tries a certified exact solver, and the blossom (with
//! one virtual boundary copy per defect, the standard reduction that lets an
//! odd number of defects terminate on the boundary) runs only when that
//! solver cannot prove its answer unique, or, for a caller that reads only
//! the flip, that every optimum predicts the same flip, or, for a caller
//! that walks correction edges, that every optimum walks the same edges.
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
//!   walk-neutral: [`ShortestPaths::path_edges`] from `i` to `j`, sorted,
//!   is the sorted concatenation of the walks from `i` and from `j` to the
//!   boundary. The solver then returns that pruned optimum.
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
//! decoder's closed form ([`crate::DecodeOutcome::closed_form`], the
//! predecoder's tier 1), so one uniqueness rule serves tiers 1 and 2.
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
/// n² entries), so each entry is 4 bytes, packed high to low as
/// `index | step | parity`: the index of its distance in the table's sorted
/// dictionary of distinct `f64` bit patterns, the walk step (which
/// [`DecodingGraph::incident`] edge of the column's node a shortest path
/// toward the row's node leaves by, see [`ShortestPaths::path_edges`]),
/// and its parity. The step field is as wide as the table's largest
/// incident list needs (8 bits for the boundary's 168 edges at d = 7 and
/// 21 rounds); the index takes the rest. Every distance reads back bit for
/// bit.
#[derive(Debug, Clone)]
pub struct ShortestPaths {
    n: usize,
    /// `entries[u * n + v]`: the index of `distance(u, v)` in `values`,
    /// shifted left by `index_shift`; above the low bit, the position in
    /// `incident(v)` of the first edge on the walk from `v` toward `u`;
    /// `observable_parity(u, v)` in the low bit.
    entries: Vec<u32>,
    /// The table's distinct distances, ascending. All are non-negative, so
    /// their bit patterns order as the values do.
    values: Vec<f64>,
    /// Where the index field starts: the step field's width plus the
    /// parity bit.
    index_shift: u32,
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
        let layout = EntryLayout::new(n, adj.max_degree());
        // Zeroed table: every worker overwrites its own rows in full, so
        // their pages are first touched by the thread that fills them.
        let mut entries = vec![0u32; n * n];
        let rows_per = n.div_ceil(threads.clamp(1, n));
        let dicts: Vec<ChunkValues> = std::thread::scope(|scope| {
            let mut chunks = entries.chunks_mut(rows_per * n).enumerate();
            let (_, rows0) = chunks.next().expect("the boundary node is a row");
            let workers: Vec<_> = chunks
                .map(|(k, rows)| scope.spawn(move || adj.fill_rows(layout, k * rows_per, rows)))
                .collect();
            let first = adj.fill_rows(layout, 0, rows0);
            // A worker's panic (a dictionary overflow) carries its message.
            iter::once(first)
                .chain(workers.into_iter().map(|w| {
                    w.join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                }))
                .collect()
        });
        let mut values: Vec<f64> = dicts
            .iter()
            .flat_map(|d| d.values.iter().copied())
            .collect();
        values.sort_unstable_by_key(|v| v.to_bits());
        values.dedup_by_key(|v| v.to_bits());
        layout.check_index_capacity(values.len());
        let index_of = |v: &f64| {
            let at = values.binary_search_by_key(&v.to_bits(), |w| w.to_bits());
            at.expect("every chunk value is in the merged dictionary") as u32
        };
        let (shift, low) = (layout.index_shift, layout.low_mask());
        for (rows, dict) in entries.chunks_mut(rows_per * n).zip(&dicts) {
            let remap: Vec<u32> = dict.values.iter().map(index_of).collect();
            for entry in rows {
                *entry = (remap[(*entry >> shift) as usize] << shift) | (*entry & low);
            }
        }
        ShortestPaths {
            n,
            entries,
            values,
            index_shift: shift,
        }
    }

    /// Approximate heap footprint, for size-bounded artifact caches.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of_val(&self.entries[..]) + std::mem::size_of_val(&self.values[..])
    }

    /// Shortest-path length between two nodes (boundary = `num_nodes`).
    pub fn distance(&self, u: usize, v: usize) -> f64 {
        self.values[self.coded(u, v).0]
    }

    /// Observable parity along the shortest path between two nodes.
    pub fn observable_parity(&self, u: usize, v: usize) -> bool {
        self.entries[u * self.n + v] & 1 != 0
    }

    /// The index of [`ShortestPaths::distance`]`(u, v)` in
    /// [`ShortestPaths::values`], and
    /// [`ShortestPaths::observable_parity`]`(u, v)`, from one entry read.
    pub(crate) fn coded(&self, u: usize, v: usize) -> (usize, bool) {
        let entry = self.entries[u * self.n + v];
        ((entry >> self.index_shift) as usize, entry & 1 != 0)
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
    /// Each step reads the step field of the entry `(v, cur)`: the first
    /// edge in `cur`'s [`DecodingGraph::incident`] list whose far end `w`
    /// has `distance(v, w) + weight == distance(v, cur)` bit for bit and
    /// `observable_parity(v, w) ^ flips == observable_parity(v, cur)`,
    /// recorded by the Dijkstra run rooted at `v` as it relaxed `cur`. The
    /// parity condition telescopes, so the XOR of the emitted edges'
    /// observable flips equals [`ShortestPaths::observable_parity`]`(u, v)`
    /// exactly — degenerate equal-weight paths of opposite parity can never
    /// be picked. This is what lets the sliding-window committer work edge
    /// by edge while staying bit-identical to whole-path matching.
    ///
    /// `graph` must be the graph the table was computed from.
    ///
    /// # Panics
    ///
    /// Panics if `v` is unreachable from `u`.
    pub fn path_edges(&self, graph: &DecodingGraph, u: usize, v: usize, out: &mut Vec<usize>) {
        assert!(
            self.distance(v, u).is_finite(),
            "node {u} cannot reach node {v}"
        );
        let row = &self.entries[v * self.n..(v + 1) * self.n];
        let step_mask = (1u32 << self.index_shift) - 1;
        let mut cur = u;
        // A shortest path visits each edge at most once.
        let mut guard = graph.edges().len() + 1;
        while cur != v {
            let ei = graph.incident(cur)[((row[cur] & step_mask) >> 1) as usize];
            let e = &graph.edges()[ei];
            out.push(ei);
            cur = if e.a == cur { e.b } else { e.a };
            guard -= 1;
            assert!(guard > 0, "shortest-path walk failed to terminate");
        }
    }
}

/// The widths of a table's entry fields. The step field holds a position
/// in the largest incident list; the index field takes the remaining bits
/// above it, less one value so that no entry is [`UNREACHED`].
#[derive(Clone, Copy)]
struct EntryLayout {
    /// Nodes, boundary included, for the overflow message.
    nodes: usize,
    /// The step field's width plus the parity bit.
    index_shift: u32,
}

impl EntryLayout {
    fn new(nodes: usize, max_degree: usize) -> EntryLayout {
        let step_bits = usize::BITS - max_degree.saturating_sub(1).leading_zeros();
        EntryLayout {
            nodes,
            index_shift: step_bits + 1,
        }
    }

    /// The step and parity bits.
    fn low_mask(self) -> u32 {
        (1 << self.index_shift) - 1
    }

    /// Rejects a dictionary of `len` distinct distances that the index
    /// field cannot code.
    fn check_index_capacity(self, len: usize) {
        let bits = u32::BITS - self.index_shift;
        assert!(
            len < 1 << bits,
            "a shortest-path table of {} nodes has more than {} distinct \
             distances, past its {bits}-bit index field; decode this graph \
             with `sparse-mwpm`",
            self.nodes,
            (1u64 << bits) - 1,
        );
    }
}

/// A Dijkstra heap key that orders as (distance, node). Distances are sums
/// of validated finite, positive weights, and for non-negative floats the
/// IEEE bit pattern orders as the value does.
fn heap_key(dist: f64, node: usize) -> u128 {
    (u128::from(dist.to_bits()) << 64) | node as u128
}

/// One incident edge seen from a node: the far endpoint, the edge weight,
/// and `code`: the edge's position in the far endpoint's
/// [`DecodingGraph::incident`] list, shifted left by one, with its
/// observable flip in the low bit. XOR-ed with a path's parity it is the
/// far endpoint's pending entry (step and parity) for the path extended by
/// the edge.
#[derive(Clone, Copy)]
struct Hop {
    weight: f64,
    to: u32,
    code: u32,
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
        // `at[ei]`: edge `ei`'s positions in its endpoints' incident lists,
        // `a`'s first.
        let mut at = vec![[0u32; 2]; graph.edges().len()];
        for u in 0..n {
            for (pos, &ei) in graph.incident(u).iter().enumerate() {
                at[ei][usize::from(graph.edges()[ei].a != u)] = pos as u32;
            }
        }
        let mut start = Vec::with_capacity(n + 1);
        let mut hops = Vec::new();
        start.push(0);
        for u in 0..n {
            hops.extend(graph.incident(u).iter().map(|&ei| {
                let e = &graph.edges()[ei];
                let (to, back) = if e.a == u {
                    (e.b, at[ei][1])
                } else {
                    (e.a, at[ei][0])
                };
                Hop {
                    weight: e.weight,
                    to: to as u32,
                    code: (back << 1) | u32::from(e.flips_observable),
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

    /// The length of the longest incident list.
    fn max_degree(&self) -> usize {
        self.start
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    }

    /// Fills the table rows of sources `first..`, `n` entries each, coded
    /// against the returned chunk dictionary, reusing one heap and one
    /// distance row across them.
    fn fill_rows(&self, layout: EntryLayout, first: usize, entries: &mut [u32]) -> ChunkValues {
        let n = self.num_nodes();
        let mut heap = BinaryHeap::new();
        let mut dist = vec![0.0; n];
        let mut dict = ChunkValues::new(layout);
        for (k, row) in entries.chunks_exact_mut(n).enumerate() {
            self.dijkstra(first + k, row, &mut dist, &mut dict, &mut heap);
        }
        dict
    }

    /// One source row. Nodes settle in pop order, whose distances never
    /// decrease, so equal distances settle one after another and the
    /// dictionary is asked only where the distance changes.
    ///
    /// Each node's step is recorded as edges relax it: a strict
    /// improvement sets it, and an equal-distance relaxation of equal
    /// parity keeps the smaller incident position. Every neighbour `w` with
    /// `dist[w] + weight == dist[v]` settles before `v` and relaxes it then
    /// (weights are positive), so the step is the first incident edge that
    /// satisfies the walk's exact test. A settled node never ties: weights
    /// are at least half a grid step (`validate_edge_weight`), far above
    /// the rounding of any distance, so `d + weight > d`.
    fn dijkstra(
        &self,
        src: usize,
        row: &mut [u32],
        dist: &mut [f64],
        dict: &mut ChunkValues,
        heap: &mut BinaryHeap<Reverse<u128>>,
    ) {
        // Until a node settles, its entry holds only the step and parity
        // of its best path so far; a node never reached keeps `UNREACHED`.
        row.fill(UNREACHED);
        dist.fill(f64::INFINITY);
        row[src] = 0;
        dist[src] = 0.0;
        heap.push(Reverse(heap_key(0.0, src)));
        let shift = dict.layout.index_shift;
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
            let parity = row[u] & 1;
            row[u] |= id << shift;
            for hop in &self.hops[self.start[u] as usize..self.start[u + 1] as usize] {
                let v = hop.to as usize;
                let nd = d + hop.weight;
                // Distances are non-negative, so their bits order as they
                // do (`heap_key`); one integer compare screens out the
                // relaxations that neither improve nor tie.
                let (nd_bits, old_bits) = (nd.to_bits(), dist[v].to_bits());
                if nd_bits <= old_bits {
                    let pending = hop.code ^ parity;
                    if nd_bits < old_bits {
                        dist[v] = nd;
                        row[v] = pending;
                        heap.push(Reverse(heap_key(nd, v)));
                    } else if pending < row[v] && (pending ^ row[v]) & 1 == 0 {
                        row[v] = pending;
                    }
                }
            }
        }
        if row.contains(&UNREACHED) {
            let unreached = dict.id_of(f64::INFINITY.to_bits()) << shift;
            for entry in row.iter_mut().filter(|e| **e == UNREACHED) {
                *entry = unreached;
            }
        }
    }
}

/// A row entry whose node no path has reached yet.
const UNREACHED: u32 = u32::MAX;

/// One row worker's distance dictionary, ids in first-seen order.
struct ChunkValues {
    layout: EntryLayout,
    /// The distinct distances seen, by id.
    values: Vec<f64>,
    /// The id of each seen distance, by its bits.
    ids: FxHashMap<u64, u32>,
}

impl ChunkValues {
    fn new(layout: EntryLayout) -> ChunkValues {
        ChunkValues {
            layout,
            values: Vec::new(),
            ids: FxHashMap::default(),
        }
    }

    /// The id of the distance with bits `bits`, a new one if the chunk has
    /// not seen it.
    ///
    /// # Panics
    ///
    /// Panics if a new id would not fit the index field.
    fn id_of(&mut self, bits: u64) -> u32 {
        let (values, layout) = (&mut self.values, self.layout);
        *self.ids.entry(bits).or_insert_with(|| {
            values.push(f64::from_bits(bits));
            layout.check_index_capacity(values.len());
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
/// and `j`, `scaled_boundary[i]` that of matching `i` to the boundary, and
/// `parity` / `boundary_parity` hold the observable parity of the same
/// paths. The solution is `pairs` (`i < j`, ascending `i`) and
/// `to_boundary` (ascending), as indices into the staged defects.
#[derive(Debug, Default)]
struct DefectMatching {
    k: usize,
    scaled: Vec<i64>,
    scaled_boundary: Vec<i64>,
    parity: Vec<bool>,
    boundary_parity: Vec<bool>,
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
        self.parity.clear();
        self.parity.resize(k * k, false);
        self.boundary_parity.clear();
        self.boundary_parity.resize(k, false);
    }

    fn pair_cost(&self, i: usize, j: usize) -> i64 {
        self.scaled[i.min(j) * self.k + i.max(j)]
    }

    fn pair_parity(&self, i: usize, j: usize) -> bool {
        self.parity[i.min(j) * self.k + i.max(j)]
    }

    /// Whether pairing `i` and `j` costs exactly their two boundary matches.
    fn twins(&self, i: usize, j: usize) -> bool {
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
    fn solve_certified(&mut self, flip_only: bool) -> Answer {
        self.pairs.clear();
        self.to_boundary.clear();
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
        // Every defect starts at the boundary until its component's optimum
        // says otherwise.
        self.mate.clear();
        self.mate.extend(0..k);
        let mut unique = true;
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
                _ => match self.solve_component(start, end) {
                    Some(best) if best.count == 1 => {}
                    Some(best) if flip_only && best.flip != DpEntry::MIXED => unique = false,
                    _ => return Answer::Deferred,
                },
            }
            start = end;
        }
        for (i, &j) in self.mate.iter().enumerate() {
            if j == i {
                self.to_boundary.push(i);
            } else if i < j {
                self.pairs.push((i, j));
            }
        }
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

    /// Runs the subset DP over the component `members[start..end]` and
    /// writes one of its optima into `mate`. Returns the whole component's
    /// DP entry (its optima's count and flip), or `None` when it has more
    /// than 64 members or needs more than [`DP_SUBSET_BUDGET`] subsets.
    fn solve_component(&mut self, start: usize, end: usize) -> Option<DpEntry> {
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

    /// The blossom reduction: vertices 0..k are defects, k..2k their
    /// private boundary copies (the standard odd-parity reduction).
    fn solve_blossom(&mut self) {
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
enum Answer {
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
struct DpEntry {
    cost: i64,
    count: u8,
    flip: u8,
    partner: u8,
}

impl DpEntry {
    const BOUNDARY: u8 = u8::MAX;
    /// The flip of a set whose optima predict both flips.
    const MIXED: u8 = 2;
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
    /// Walk-neutrality scratch: one twin's two boundary walks and its pair
    /// walk.
    apart_walks: Vec<usize>,
    joined_walk: Vec<usize>,
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
            apart_walks: Vec::new(),
            joined_walk: Vec::new(),
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

    /// Stages the defects' shortest-path costs and parities into
    /// `self.matching`, the costs read from the scaled dictionary.
    fn stage_paths(&mut self, defects: &[usize]) {
        let k = defects.len();
        let boundary = self.graph.boundary();
        let (paths, scaled) = (&self.paths, &self.scaled);
        let m = &mut self.matching;
        m.stage(k);
        for i in 0..k {
            for j in (i + 1)..k {
                let (value, parity) = paths.coded(defects[i], defects[j]);
                m.scaled[i * k + j] = scaled[value];
                m.parity[i * k + j] = parity;
            }
            let (value, parity) = paths.coded(defects[i], boundary);
            check_boundary(paths.values()[value], defects[i]);
            m.scaled_boundary[i] = scaled[value];
            m.boundary_parity[i] = parity;
        }
    }

    /// Stages `syndrome`'s matching problem into `self.matching`: over the
    /// path table, or, for erasure decoding, over the metric with the
    /// flagged edges overlaid (weight ~0), which stays applied until
    /// [`MwpmBatchDecoder::overlay_outcome`] restores it.
    fn stage(&mut self, syndrome: &Syndrome) {
        let defects = &syndrome.defects;
        if syndrome.erasures.is_empty() {
            self.stage_paths(defects);
            return;
        }
        self.overlay.apply(self.graph, &syndrome.erasures);
        self.overlay.effective_metrics(
            &self.paths,
            defects,
            self.graph.boundary(),
            &mut self.eff_dist,
            &mut self.eff_par,
        );
        let k = defects.len();
        let t = k + 1;
        let m = &mut self.matching;
        m.stage(k);
        for (i, &node) in defects.iter().enumerate() {
            for j in (i + 1)..k {
                m.scaled[i * k + j] = scale_weight(self.eff_dist[i * t + j]);
                m.parity[i * k + j] = self.eff_par[i * t + j];
            }
            check_boundary(self.eff_dist[i * t + k], node);
            m.scaled_boundary[i] = scale_weight(self.eff_dist[i * t + k]);
            m.boundary_parity[i] = self.eff_par[i * t + k];
        }
    }

    /// Stages `syndrome` and solves its matching: the certified solver's
    /// answer where it proves one (see the module docs), the blossom's
    /// otherwise. With `flip_only` the caller reads only the flip and
    /// weight, so a tie whose optima all predict one flip is answered;
    /// without, an erasure-free twin tie whose twins are all walk-neutral
    /// is. Returns whether the optimum was proved unique.
    fn solve(&mut self, syndrome: &Syndrome, flip_only: bool) -> bool {
        self.stage(syndrome);
        let answer = self.matching.solve_certified(flip_only);
        let answered = match answer {
            Answer::Unique | Answer::OneFlip => true,
            Answer::TwinTie => {
                syndrome.erasures.is_empty() && self.twins_walk_neutral(&syndrome.defects)
            }
            Answer::Deferred => false,
        };
        if !answered {
            self.matching.solve_blossom();
        }
        answer == Answer::Unique
    }

    /// Whether every twin `(i, j)` among the staged solution's
    /// boundary-matched defects is walk-neutral: the edges of the shortest
    /// path walk from `i` to `j`, sorted, are those of the walks from `i`
    /// and from `j` to the boundary. Joining such twins into pairs then
    /// leaves the walked correction's edge multiset as it is.
    fn twins_walk_neutral(&mut self, defects: &[usize]) -> bool {
        let (graph, paths, m) = (self.graph, &*self.paths, &self.matching);
        let (apart, joined) = (&mut self.apart_walks, &mut self.joined_walk);
        let singles = &m.to_boundary;
        for (a, &i) in singles.iter().enumerate() {
            for &j in singles[a + 1..].iter().filter(|&&j| m.twins(i, j)) {
                apart.clear();
                joined.clear();
                paths.path_edges(graph, defects[i], graph.boundary(), apart);
                paths.path_edges(graph, defects[j], graph.boundary(), apart);
                paths.path_edges(graph, defects[i], defects[j], joined);
                apart.sort_unstable();
                joined.sort_unstable();
                if apart != joined {
                    return false;
                }
            }
        }
        true
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

    /// Like [`MwpmBatchDecoder::path_outcome`], but along the overlaid
    /// metric [`MwpmBatchDecoder::stage`] applied, which it then restores.
    /// With `correction`, the flip is that of the walked edges.
    fn overlay_outcome(
        &mut self,
        defects: &[usize],
        mut correction: Option<&mut Vec<usize>>,
    ) -> (bool, f64) {
        let (k, boundary) = (defects.len(), self.graph.boundary());
        let t = k + 1;
        let pairs = self.matching.pairs.iter().copied();
        let singles = self.matching.to_boundary.iter().map(|&i| (i, k));
        let mut flip = false;
        let mut weight = 0.0;
        for (i, j) in pairs.chain(singles) {
            weight += self.eff_dist[i * t + j];
            flip ^= if let Some(c) = correction.as_deref_mut() {
                let end = if j == k { boundary } else { defects[j] };
                self.dijkstra
                    .effective_path_edges(self.graph, &self.overlay, defects[i], end, c)
            } else {
                self.eff_par[i * t + j]
            };
        }
        self.overlay.restore();
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
        // Without a correction buffer only the flip and weight are read.
        let unique = self.solve(syndrome, correction.is_none());
        let (flip, weight) = if syndrome.erasures.is_empty() {
            self.path_outcome(defects, correction)
        } else {
            self.overlay_outcome(defects, correction)
        };
        // 1–2 erasure-free defects the certified solver proves unique are
        // the closed form; a two-defect twin (pair cost equal to both
        // boundary matches) is a tie.
        let closed_form = unique && defects.len() <= 2 && syndrome.erasures.is_empty();
        DecodeOutcome {
            flip,
            weight,
            defects: defects.len(),
            nanos: start.elapsed().as_nanos() as u64,
            closed_form,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dem::build_dem;
    use crate::graph::GraphEdge;
    use qec_core::circuit::DetectorBasis;
    use qec_core::NoiseParams;
    use surface_code::{MemoryExperiment, RotatedCode};

    fn setup(d: usize, rounds: usize) -> (DecodingGraph, crate::DetectorErrorModel) {
        setup_at(d, rounds, 1e-3)
    }

    fn setup_at(d: usize, rounds: usize, p: f64) -> (DecodingGraph, crate::DetectorErrorModel) {
        let exp = MemoryExperiment::new(RotatedCode::new(d), NoiseParams::standard(p), rounds);
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
        decoder.solve(&Syndrome::new(defects.clone()), false);
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
        MwpmBatchDecoder::new(&graph).decode(&Syndrome::new(vec![0, 1, 2]), None);
    }

    #[test]
    #[should_panic(expected = "defect on node 0 cut off from the boundary cannot be matched")]
    fn cut_off_defect_panics_on_tier1() {
        let graph = cut_off_decoder_graph();
        MwpmBatchDecoder::new(&graph).decode(&Syndrome::new(vec![0]), None);
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
        (m.solve_certified(false) == Answer::Unique)
            .then(|| (m.pairs.clone(), m.to_boundary.clone()))
    }

    fn blossom(m: &mut DefectMatching) -> Solution {
        m.solve_blossom();
        (m.pairs.clone(), m.to_boundary.clone())
    }

    /// The minimum-cost involutions (pairs or boundary), by exhaustion.
    #[derive(Debug)]
    struct Optima {
        cost: i64,
        count: usize,
        /// `flips[f]`: some optimum predicts flip `f`.
        flips: [bool; 2],
    }

    fn optima(m: &DefectMatching) -> Optima {
        fn rec(m: &DefectMatching, free: u32, cost: i64, flip: bool, best: &mut Optima) {
            if free == 0 {
                if cost < best.cost {
                    *best = Optima {
                        cost,
                        count: 0,
                        flips: [false; 2],
                    };
                }
                if cost == best.cost {
                    best.count += 1;
                    best.flips[usize::from(flip)] = true;
                }
                return;
            }
            let i = free.trailing_zeros() as usize;
            let rest = free & !(1 << i);
            let to_boundary = (m.scaled_boundary[i], m.boundary_parity[i]);
            let pairs = (i + 1..m.k)
                .filter(|&j| rest & (1 << j) != 0)
                .map(|j| (1 << j, m.pair_cost(i, j), m.pair_parity(i, j)));
            for (partner, c, parity) in iter::once((0, to_boundary.0, to_boundary.1)).chain(pairs) {
                rec(m, rest & !partner, cost + c, flip ^ parity, best);
            }
        }
        let mut best = Optima {
            cost: i64::MAX,
            count: 0,
            flips: [false; 2],
        };
        rec(m, (1 << m.k) - 1, 0, false, &mut best);
        best
    }

    /// The cost and flip of the staged solution.
    fn solution_cost_and_flip(m: &DefectMatching) -> (i64, bool) {
        let pairs = m
            .pairs
            .iter()
            .map(|&(i, j)| (m.pair_cost(i, j), m.pair_parity(i, j)));
        let singles = m
            .to_boundary
            .iter()
            .map(|&i| (m.scaled_boundary[i], m.boundary_parity[i]));
        pairs
            .chain(singles)
            .fold((0, false), |(cost, flip), (c, p)| (cost + c, flip ^ p))
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
                        assert_eq!(optima(&m).count, 1, "case {case}: certified a tie");
                    }
                }
                None => {
                    deferred[size] += 1;
                    if k <= 12 {
                        assert!(
                            optima(&m).count > 1,
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
        assert_eq!(optima(&m).count, 1);
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

    /// Random staged problems of up to 10 defects with tiny costs, forced
    /// twins and random parities; in half of them every twin is made
    /// flip-neutral. Whenever the flip-only solver answers, its solution
    /// has the optimal cost and every optimal involution predicts its flip;
    /// a unique answer is the only optimum, and is what the solver without
    /// the flip rule returns.
    #[test]
    fn flip_rule_agrees_with_brute_force() {
        let mut rng = qec_core::Rng::new(0xF11F);
        let (mut unique, mut one_flip, mut deferred) = (0, 0, 0);
        for case in 0..4000 {
            let k = 1 + rng.below(10) as usize;
            let boundary: Vec<i64> = (0..k).map(|_| 1 + rng.below(5) as i64).collect();
            let twin_rate = rng.below(5) as f64 / 10.0;
            let neutral = rng.bernoulli(0.5);
            let mut m = staged(
                k,
                |i, j| {
                    let both = boundary[i] + boundary[j];
                    if rng.bernoulli(twin_rate) {
                        both
                    } else {
                        rng.below(both as u64 + 2) as i64
                    }
                },
                |i| boundary[i],
            );
            for i in 0..k {
                m.boundary_parity[i] = rng.bernoulli(0.5);
            }
            for i in 0..k {
                for j in i + 1..k {
                    m.parity[i * k + j] = if neutral && m.twins(i, j) {
                        m.boundary_parity[i] ^ m.boundary_parity[j]
                    } else {
                        rng.bernoulli(0.5)
                    };
                }
            }
            let strict = certified(&mut m);
            let all = optima(&m);
            let answer = m.solve_certified(true);
            let solution = (m.pairs.clone(), m.to_boundary.clone());
            let (cost, flip) = solution_cost_and_flip(&m);
            match answer {
                Answer::Unique => {
                    unique += 1;
                    assert_eq!(all.count, 1, "case {case}: a tie answered as unique");
                    assert_eq!(Some(solution), strict, "case {case}");
                }
                Answer::OneFlip => {
                    one_flip += 1;
                    assert_eq!(
                        strict, None,
                        "case {case}: a unique optimum left to the flip rule"
                    );
                }
                Answer::Deferred => {
                    deferred += 1;
                    assert_eq!(strict, None, "case {case}: deferred a unique optimum");
                    continue;
                }
                Answer::TwinTie => panic!("case {case}: a flip-only solve reported a twin tie"),
            }
            assert_eq!(cost, all.cost, "case {case}: k={k} not optimal");
            let mut flips = [false; 2];
            flips[usize::from(flip)] = true;
            assert_eq!(all.flips, flips, "case {case}: k={k} {all:?}");
        }
        assert!(
            unique > 300 && one_flip > 300 && deferred > 300,
            "{unique} unique, {one_flip} one flip, {deferred} deferred"
        );
    }

    /// `n` syndromes sampled from the detector error model, every mechanism
    /// firing with its own probability; empty ones are skipped.
    fn dem_syndromes(
        graph: &DecodingGraph,
        dem: &crate::DetectorErrorModel,
        n: usize,
        seed: u64,
    ) -> Vec<Syndrome> {
        let mut rng = qec_core::Rng::new(seed);
        let mut events = vec![false; graph.num_nodes()];
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            for mech in &dem.mechanisms {
                if rng.bernoulli(mech.probability) {
                    for &det in &mech.detectors {
                        if let Some(node) = graph.node_of_detector(det) {
                            events[node] ^= true;
                        }
                    }
                }
            }
            let defects: Vec<usize> = (0..graph.num_nodes())
                .filter(|&node| std::mem::take(&mut events[node]))
                .collect();
            if !defects.is_empty() {
                out.push(Syndrome::new(defects));
            }
        }
        out
    }

    /// What the flip-only solver proves about `syndrome`'s staged problem,
    /// and the flip and weight of the blossom's matching of it: the answer
    /// every decode gave before the flip rule.
    fn flip_rule_and_blossom(
        decoder: &mut MwpmBatchDecoder,
        syndrome: &Syndrome,
    ) -> (Answer, (bool, f64)) {
        decoder.stage(syndrome);
        let answer = decoder.matching.solve_certified(true);
        blossom(&mut decoder.matching);
        let outcome = if syndrome.erasures.is_empty() {
            decoder.path_outcome(&syndrome.defects, None)
        } else {
            decoder.overlay_outcome(&syndrome.defects, None)
        };
        (answer, outcome)
    }

    /// DEM-sampled d = 3 and d = 5 syndromes up to p = 5e-3, a third of
    /// them with erasure overlays: a whole-shot decode predicts the
    /// blossom's flip, at the same weight on the integer grid, and skips
    /// the blossom on many ties.
    #[test]
    fn flip_only_decodes_match_the_blossom() {
        let mut one_flip = 0;
        for (d, rounds) in [(3, 3), (5, 5)] {
            for p in [1e-3, 2e-3, 5e-3] {
                let (graph, dem) = setup_at(d, rounds, p);
                let mut decoder = MwpmBatchDecoder::new(&graph);
                let mut syndromes = dem_syndromes(&graph, &dem, 600, 0x5EED ^ d as u64);
                erase_every_third(&graph, &mut syndromes);
                for syndrome in &syndromes {
                    let out = decoder.decode(syndrome, None);
                    let (answer, (flip, weight)) = flip_rule_and_blossom(&mut decoder, syndrome);
                    one_flip += usize::from(answer == Answer::OneFlip);
                    let context = format!("d={d} p={p} {syndrome:?} {answer:?}");
                    assert_eq!(out.flip, flip, "{context}: flip");
                    assert_eq!(scale_weight(out.weight), scale_weight(weight), "{context}");
                }
            }
        }
        assert!(one_flip > 200, "{one_flip} ties answered by the flip rule");
    }

    /// Adds the incident edges of one to two random nodes as erasures to
    /// every third syndrome.
    fn erase_every_third(graph: &DecodingGraph, syndromes: &mut [Syndrome]) {
        let mut rng = qec_core::Rng::new(0xE2A5);
        for syndrome in syndromes.iter_mut().step_by(3) {
            for _ in 0..1 + rng.below(2) {
                let node = rng.below(graph.num_nodes() as u64) as usize;
                syndrome.erasures.extend_from_slice(graph.incident(node));
            }
            syndrome.erasures.sort_unstable();
            syndrome.erasures.dedup();
        }
    }

    /// The blossom's matching of `syndrome`, walked into correction edges:
    /// the flip, weight and edges of every decode with a correction buffer
    /// before the walk rule.
    fn blossom_walk(
        decoder: &mut MwpmBatchDecoder,
        syndrome: &Syndrome,
    ) -> (bool, f64, Vec<usize>) {
        decoder.stage(syndrome);
        blossom(&mut decoder.matching);
        let mut edges = Vec::new();
        let (flip, weight) = if syndrome.erasures.is_empty() {
            decoder.path_outcome(&syndrome.defects, Some(&mut edges))
        } else {
            decoder.overlay_outcome(&syndrome.defects, Some(&mut edges))
        };
        (flip, weight, edges)
    }

    /// Whether the walk rule answers `syndrome` with a correction buffer: an
    /// erasure-free twin tie whose twins are all walk-neutral.
    fn walk_rule_answers(decoder: &mut MwpmBatchDecoder, syndrome: &Syndrome) -> bool {
        if !syndrome.erasures.is_empty() {
            return false;
        }
        decoder.stage(syndrome);
        decoder.matching.solve_certified(false) == Answer::TwinTie
            && decoder.twins_walk_neutral(&syndrome.defects)
    }

    fn sorted(mut edges: Vec<usize>) -> Vec<usize> {
        edges.sort_unstable();
        edges
    }

    /// DEM-sampled d = 3, 5 and 7 syndromes up to p = 1e-2, decoded with a
    /// correction buffer (the call every non-final window makes), a third
    /// of them with erasure overlays. Where the walk rule answers a tie,
    /// the flip and the sorted correction edges are the blossom's; every
    /// other decode, erasures included, returns the blossom's flip, weight
    /// bits and edges in order, since it is unique or is the blossom's.
    #[test]
    fn walked_ties_match_the_blossom() {
        let mut walked = 0;
        for (d, rounds) in [(3, 3), (5, 5), (7, 7)] {
            for p in [1e-3, 5e-3, 1e-2] {
                let (graph, dem) = setup_at(d, rounds, p);
                let mut decoder = MwpmBatchDecoder::new(&graph);
                let mut syndromes = dem_syndromes(&graph, &dem, 300, 0x3A1C ^ d as u64);
                erase_every_third(&graph, &mut syndromes);
                let mut edges = Vec::new();
                for syndrome in &syndromes {
                    let out = decoder.decode(syndrome, Some(&mut edges));
                    let (flip, weight, reference) = blossom_walk(&mut decoder, syndrome);
                    let context = format!("d={d} p={p} {syndrome:?}");
                    assert_eq!(out.flip, flip, "{context}: flip");
                    if walk_rule_answers(&mut decoder, syndrome) {
                        walked += 1;
                        assert!(!out.closed_form, "{context}: a tie at tier 1");
                        assert_eq!(sorted(edges.clone()), sorted(reference), "{context}");
                        assert_eq!(scale_weight(out.weight), scale_weight(weight), "{context}");
                    } else {
                        assert_eq!(edges, reference, "{context}: edges");
                        assert_eq!(out.weight.to_bits(), weight.to_bits(), "{context}");
                    }
                }
            }
        }
        assert!(walked > 150, "{walked} ties answered by the walk rule");
    }

    /// Two defects whose direct edge ties with their two boundary edges: a
    /// flip-neutral twin whose pair walk is not its two boundary walks. A
    /// whole-shot decode answers the tie by the flip rule; a decode with a
    /// correction buffer defers to the blossom, whose choice is the pair.
    #[test]
    fn a_twin_that_walks_elsewhere_defers_to_the_blossom() {
        let edge = |a, b, weight, flips_observable| GraphEdge {
            a,
            b,
            probability: 0.1,
            weight,
            flips_observable,
        };
        // The direct edge comes first in both defects' incidence lists, so
        // the walk from 0 to 1 takes it.
        let graph = DecodingGraph::from_window_parts(
            2,
            vec![
                edge(0, 1, 2.0, false),
                edge(0, 2, 1.0, true),
                edge(1, 2, 1.0, true),
            ],
            vec![0, 0],
        );
        let mut decoder = MwpmBatchDecoder::new(&graph);
        let syndrome = Syndrome::new(vec![0, 1]);
        let (flip, weight, reference) = blossom_walk(&mut decoder, &syndrome);
        assert_eq!(
            (flip, reference.as_slice()),
            (false, &[0][..]),
            "the blossom pairs them"
        );
        decoder.stage(&syndrome);
        assert_eq!(decoder.matching.solve_certified(true), Answer::OneFlip);
        assert_eq!(decoder.matching.solve_certified(false), Answer::TwinTie);
        assert!(!decoder.twins_walk_neutral(&syndrome.defects));
        let mut edges = Vec::new();
        let out = decoder.decode(&syndrome, Some(&mut edges));
        assert_eq!((out.flip, out.weight, &edges), (flip, weight, &reference));
        assert!(!out.closed_form);
        // Under erasures a tie with a correction buffer goes to the blossom
        // too, walk-neutral or not.
        let erased = Syndrome::with_erasures(vec![0, 1], vec![1, 2]);
        let (flip, weight, reference) = blossom_walk(&mut decoder, &erased);
        let out = decoder.decode(&erased, Some(&mut edges));
        assert_eq!((out.flip, out.weight, &edges), (flip, weight, &reference));
    }

    /// Whether two optima of the problem staged in `m` (after a deferred
    /// flip-only solve, so its components are built) provably predict
    /// different flips: a component whose DP optima do, or a pair of
    /// `solution`, an optimum, whose joining or splitting as a twin moves
    /// its flip.
    fn flip_ambiguous(m: &mut DefectMatching, solution: &Solution) -> bool {
        let moves_flip = |i: usize, j: usize| {
            m.twins(i, j) && m.pair_parity(i, j) != m.boundary_parity[i] ^ m.boundary_parity[j]
        };
        let (pairs, singles) = solution;
        if pairs.iter().any(|&(i, j)| moves_flip(i, j))
            || (0..singles.len())
                .any(|a| singles[a + 1..].iter().any(|&j| moves_flip(singles[a], j)))
        {
            return true;
        }
        let ends = m.ends.clone();
        let starts = iter::once(0).chain(ends.iter().copied());
        starts.zip(ends.iter().copied()).any(|(start, end)| {
            end - start > 2
                && m.solve_component(start, end)
                    .is_some_and(|best| best.flip == DpEntry::MIXED)
        })
    }

    /// Explains why dense and sparse MWPM predict different flips on some
    /// shots. On 20k DEM-sampled syndromes each of d = 3 (R = 3 and 9) and
    /// d = 5 (R = 15) at p = 1e-2, the two agree on the weight, and every
    /// flip disagreement (73 of them) falls on a dense decode whose optima
    /// predict different flips: never on a unique optimum or on a tie the
    /// flip rule answers. Which optimum each backend returns is its own
    /// tie-break. (At p = 2e-3 the same shots disagree once.)
    #[test]
    fn dense_and_sparse_flips_differ_only_where_optima_do() {
        let mut disagreements = 0;
        for (d, rounds) in [(3, 3), (3, 9), (5, 15)] {
            let (graph, dem) = setup_at(d, rounds, 1e-2);
            let mut dense = MwpmBatchDecoder::new(&graph);
            let mut sparse = crate::SparseMwpmDecoder::new(&graph);
            for syndrome in &dem_syndromes(&graph, &dem, 20_000, 0x6A9 + rounds as u64) {
                let a = dense.decode(syndrome, None);
                let b = sparse.decode(syndrome, None);
                assert_eq!(
                    scale_weight(a.weight),
                    scale_weight(b.weight),
                    "{syndrome:?}"
                );
                if a.flip == b.flip {
                    continue;
                }
                disagreements += 1;
                dense.stage_paths(&syndrome.defects);
                let m = &mut dense.matching;
                let reference = blossom(m);
                let answer = m.solve_certified(true);
                assert_eq!(answer, Answer::Deferred, "d={d} R={rounds}: {syndrome:?}");
                assert!(
                    flip_ambiguous(m, &reference),
                    "d={d} R={rounds}: no second flip shown for {syndrome:?}"
                );
            }
        }
        assert!(disagreements > 50, "{disagreements} disagreements");
    }
}
