//! Sliding-window streaming decoding: bounded-memory, round-incremental
//! decoding for long-memory experiments.
//!
//! Whole-experiment decoding builds one [`DecodingGraph`] over all `R`
//! rounds; MWPM's all-pairs table is then O((d²·R)²) in space, which walls
//! off exactly the regime where leakage accumulates and ERASER matters most
//! (R ≫ d). Sliding-window decoding — the architecture behind fusion-blossom
//! and every real-time decoder — caps both the working set and the latency
//! at O(window), independent of R:
//!
//! ```text
//!   rounds   0 ........ s ........ 2s ....... 3s ...............R
//!   window 0 [ commit  |      buffer       ]
//!   window 1            [ commit  |      buffer       ]
//!   window 2                       [ commit  |  buffer (final: commit) ]
//! ```
//!
//! Each window spans `window` rounds and advances by `stride` rounds. After
//! decoding a window, only the correction edges touching the **commit
//! region** (the first `stride` rounds) become final; the **buffer region**
//! (the remaining `window − stride ≥ d` rounds) is re-decoded by the next
//! window with fresh context. Where a committed correction path crosses the
//! commit/buffer boundary, the crossing node is re-injected as an
//! *artificial defect* for the next window — the overlapping-recovery
//! bookkeeping that keeps the global correction's defect algebra exact. The
//! final window commits everything: its outcome is the window decoder's own
//! flip and weight, with no correction edges walked.
//!
//! Three pieces implement this:
//!
//! * [`WindowGraph`] — a round-indexed partition view of a [`DecodingGraph`]:
//!   the nodes of rounds `[lo, hi]` with local numbering, spatial-boundary
//!   edges kept, and time-crossing edges dropped (the buffer overlap is what
//!   makes that sound). Bulk windows are time-translation invariant, so a
//!   whole experiment has only a handful of distinct window *shapes*.
//! * [`WindowPlan`] — the per-graph precomputation: all window positions,
//!   deduplicated shapes, and one backend table (`ShortestPaths`,
//!   `SparseIndex`, or `UnionFindCapacities`) **per shape** — killing the
//!   O(R²) APSP. Thread-safe; build once, then stamp out one
//!   [`WindowedDecoder`] per worker thread via [`WindowPlan::streaming`].
//! * [`StreamingDecoder`] / [`WindowedDecoder`] — the round-incremental
//!   interface (`begin_shot` / `push_round` / `finish`) and its generic
//!   implementation over any [`SyndromeDecoder`], whose one decode call
//!   can report its correction as edges ([`SyndromeDecoder::decode`]), so
//!   dense MWPM, sparse MWPM, and union-find all gain streaming for free.
//!
//! A window covering all rounds decodes **bit-identically** to a whole-shot
//! decoder over the same graph, erasures included (asserted by
//! `tests/windowed.rs`): its single position is the final one, which makes
//! exactly the whole-shot decode call. That is why the runtime has no
//! separate monolithic path — a window of 0 means one full-cover window.

use crate::api::{DecodeOutcome, Syndrome, SyndromeDecoder};
use crate::graph::{DecodingGraph, GraphEdge};
use crate::mwpm::{MwpmBatchDecoder, ShortestPaths};
use crate::predecode::TierCounters;
use crate::sparse::{SparseIndex, SparseMwpmDecoder};
use crate::unionfind::{UnionFindBatchDecoder, UnionFindCapacities};
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Instant;

/// Decoder selection: which backend a [`WindowPlan`] decodes each window
/// with. The one backend vocabulary of the workspace — runs, the CLI's
/// `--decoder` and serve jobs all name their decoder with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DecoderKind {
    /// Dense MWPM up to [`DecoderKind::AUTO_MWPM_NODE_LIMIT`] nodes in the
    /// graph actually decoded — the largest window, which for a full-cover
    /// window is the whole-experiment graph — sparse MWPM above (where
    /// dense MWPM's O(n²) path table prices out; the sparse blossom keeps
    /// the same optimal weight with O(n) precomputation).
    #[default]
    Auto,
    /// Exact blossom MWPM (the paper's decoder), dense all-pairs tables.
    Mwpm,
    /// Exact sparse blossom MWPM: same optimal correction weight as
    /// [`DecoderKind::Mwpm`] without the all-pairs table — the
    /// MWPM-accuracy decoder for d ≥ 11.
    SparseMwpm,
    /// Weighted union-find.
    UnionFind,
}

impl DecoderKind {
    /// Node count above which `Auto` switches from dense to sparse MWPM.
    /// This constant — together with [`DecoderKind::resolve_window`] — is
    /// the *single* source of the Auto-selection rule.
    pub const AUTO_MWPM_NODE_LIMIT: usize = 3000;

    /// Resolves `Auto` against the node count of a `window`-round window
    /// of `graph`: the graph each window decode actually sees. A window of
    /// 0, or one spanning every round, is the whole graph. The other
    /// variants map to themselves; never returns [`DecoderKind::Auto`].
    /// Both arms are MWPM-accurate: the limit only decides whether the
    /// dense all-pairs table is affordable.
    pub fn resolve_window(self, graph: &DecodingGraph, window: usize) -> DecoderKind {
        match self {
            DecoderKind::Auto => {
                // Memory-experiment graphs have the same node count in every
                // round, so every window of one width has the same size.
                let span = graph.max_round() + 1;
                let rounds = if window == 0 { span } else { window.min(span) };
                if graph.num_nodes() * rounds / span <= DecoderKind::AUTO_MWPM_NODE_LIMIT {
                    DecoderKind::Mwpm
                } else {
                    DecoderKind::SparseMwpm
                }
            }
            other => other,
        }
    }
}

impl fmt::Display for DecoderKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DecoderKind::Auto => "auto",
            DecoderKind::Mwpm => "mwpm",
            DecoderKind::SparseMwpm => "sparse-mwpm",
            DecoderKind::UnionFind => "union-find",
        })
    }
}

impl FromStr for DecoderKind {
    /// ``unknown decoder `name` ``.
    type Err = String;

    fn from_str(s: &str) -> Result<DecoderKind, String> {
        match s.to_ascii_lowercase().as_str() {
            "auto" => Ok(DecoderKind::Auto),
            "mwpm" => Ok(DecoderKind::Mwpm),
            "sparse-mwpm" | "sparse" | "sparse-blossom" => Ok(DecoderKind::SparseMwpm),
            "union-find" | "unionfind" | "uf" => Ok(DecoderKind::UnionFind),
            _ => Err(format!("unknown decoder `{s}`")),
        }
    }
}

/// A round-indexed partition view of a [`DecodingGraph`]: the subgraph of
/// nodes whose detector round lies in `[lo, hi]`, locally numbered, with the
/// spatial boundary preserved and time-crossing edges dropped.
///
/// Relies on the parent graph's nodes being numbered round-major (true for
/// every memory-experiment graph; asserted by [`WindowPlan::new`]), which
/// makes each window a contiguous global node range.
#[derive(Debug, Clone)]
pub struct WindowGraph {
    graph: DecodingGraph,
    lo: usize,
    hi: usize,
    node_start: usize,
    /// Global edge index per local edge (ascending — filtering the global
    /// edge list preserves its (a, b) sort order).
    edge_globals: Vec<u32>,
}

impl WindowGraph {
    /// Builds the window view for rounds `[lo, hi]` of `parent`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`, if the range is outside the parent's rounds, or
    /// if the parent is not round-major.
    pub fn build(parent: &DecodingGraph, lo: usize, hi: usize) -> WindowGraph {
        assert!(
            lo <= hi && hi <= parent.max_round(),
            "bad window [{lo}, {hi}]"
        );
        let rounds = parent.node_rounds();
        let node_start = rounds.partition_point(|&r| r < lo);
        let node_end = rounds.partition_point(|&r| r <= hi);
        let n = node_end - node_start;
        let parent_boundary = parent.boundary();
        let all = parent.edges();
        let e_lo = all.partition_point(|e| e.a < node_start);
        let e_hi = all.partition_point(|e| e.a < node_end);
        let mut edges = Vec::with_capacity(e_hi - e_lo);
        let mut edge_globals = Vec::with_capacity(e_hi - e_lo);
        for (ei, e) in all.iter().enumerate().take(e_hi).skip(e_lo) {
            let b = if e.b == parent_boundary {
                n // spatial boundary maps to the window's own boundary
            } else if e.b < node_end {
                e.b - node_start
            } else {
                continue; // time-crossing edge: the buffer overlap covers it
            };
            edges.push(GraphEdge {
                a: e.a - node_start,
                b,
                probability: e.probability,
                weight: e.weight,
                flips_observable: e.flips_observable,
            });
            edge_globals.push(ei as u32);
        }
        let node_round = (node_start..node_end)
            .map(|v| parent.node_round(v) - lo)
            .collect();
        WindowGraph {
            graph: DecodingGraph::from_window_parts(n, edges, node_round),
            lo,
            hi,
            node_start,
            edge_globals,
        }
    }

    /// The restricted decoding graph (local numbering; `node_round` is
    /// relative to [`WindowGraph::lo`]).
    pub fn graph(&self) -> &DecodingGraph {
        &self.graph
    }

    /// First round covered (absolute).
    pub fn lo(&self) -> usize {
        self.lo
    }

    /// Last round covered (absolute, inclusive).
    pub fn hi(&self) -> usize {
        self.hi
    }

    /// Global node id of local node 0.
    pub fn node_start(&self) -> usize {
        self.node_start
    }

    /// Number of window nodes.
    pub fn node_count(&self) -> usize {
        self.graph.num_nodes()
    }

    /// Maps a global node id into the window, if covered.
    pub fn local_node(&self, global: usize) -> Option<usize> {
        (self.node_start..self.node_start + self.node_count())
            .contains(&global)
            .then(|| global - self.node_start)
    }

    /// Maps a local node id back to the parent graph.
    pub fn global_node(&self, local: usize) -> usize {
        self.node_start + local
    }

    /// Maps a global edge index into the window, if both endpoints are
    /// covered (a time-crossing or out-of-window edge maps to `None`).
    pub fn local_edge(&self, global: usize) -> Option<usize> {
        self.edge_globals.binary_search(&(global as u32)).ok()
    }

    /// Maps a local edge index back to the parent graph.
    pub fn global_edge(&self, local: usize) -> usize {
        self.edge_globals[local] as usize
    }

    /// Whether two windows have the same *shape*: identical local structure
    /// (nodes, rounds, and edges bit-for-bit). Bulk windows of a memory
    /// experiment are time-translation invariant, so this collapses all
    /// interior positions onto one shape.
    pub fn same_shape(&self, other: &WindowGraph) -> bool {
        self.node_count() == other.node_count()
            && self.hi - self.lo == other.hi - other.lo
            && (0..self.node_count()).all(|v| self.graph.node_round(v) == other.graph.node_round(v))
            && self.graph.edges() == other.graph.edges()
    }
}

/// Per-shape shared precomputation: the one table its backend decodes with.
#[derive(Debug)]
enum ShapeData {
    Mwpm(Arc<ShortestPaths>),
    SparseMwpm(Arc<SparseIndex>),
    UnionFind(Arc<UnionFindCapacities>),
}

/// One window position of the plan.
#[derive(Debug)]
struct Position {
    lo: usize,
    hi: usize,
    /// Commit boundary relative to `lo`: correction edges with an endpoint
    /// below it become final. `usize::MAX` commits everything (final window).
    commit_rel: usize,
    /// Rounds at the front of this window already committed by earlier
    /// positions. Non-zero only for a clamped final window, whose `lo` is
    /// pulled back to keep full width; excluded from the committed-rounds
    /// latency accounting (re-decoding them is legal — corrections are fresh
    /// XOR edges — but they were already counted).
    overlap: usize,
    shape: usize,
    node_start: usize,
    node_count: usize,
    /// Global edge index per local edge (see [`WindowGraph::edge_globals`]).
    edge_globals: Vec<u32>,
}

/// The sliding-window decode plan for one decoding graph: all window
/// positions, the deduplicated window shapes, and one shared precomputation
/// per shape. Build once per graph, then stamp out a [`WindowedDecoder`]
/// per worker thread.
#[derive(Debug)]
pub struct WindowPlan {
    shapes: Vec<WindowGraph>,
    shape_data: Vec<ShapeData>,
    positions: Vec<Position>,
    backend: DecoderKind,
    window: usize,
    stride: usize,
    max_round: usize,
}

impl WindowPlan {
    /// Builds the plan: `window` rounds per window, advancing by `stride`
    /// (`buffer = window − stride` rounds are re-decoded; keep it ≥ d). The
    /// per-shape backend tables are computed here, once per *shape*, not
    /// per position. [`DecoderKind::Auto`] resolves against this plan's
    /// own window width ([`DecoderKind::resolve_window`]).
    ///
    /// # Panics
    ///
    /// Panics if `stride` is 0 or exceeds `window`, or if the graph is not
    /// round-major.
    pub fn new(
        graph: &DecodingGraph,
        window: usize,
        stride: usize,
        backend: DecoderKind,
    ) -> WindowPlan {
        assert!(
            window >= 1 && stride >= 1 && stride <= window,
            "bad window spec: window {window}, stride {stride}"
        );
        assert!(
            graph.node_rounds().windows(2).all(|w| w[0] <= w[1]),
            "windowed decoding needs a round-major decoding graph"
        );
        let backend = backend.resolve_window(graph, window);
        let max_round = graph.max_round();
        let span = max_round + 1;
        let mut shapes: Vec<WindowGraph> = Vec::new();
        let mut positions = Vec::new();
        let mut lo = 0;
        loop {
            let last = lo + window >= span;
            // The final position is clamped back to full width: a naive
            // `[lo, max_round]` window can be narrower than `window` (even
            // < d) when `span − lo` is small, silently weakening the buffer
            // guarantee for the last committed rounds. The rounds re-covered
            // by the clamp were already committed — recorded as `overlap` so
            // latency accounting doesn't double-count them.
            let start = if last {
                span.saturating_sub(window).min(lo)
            } else {
                lo
            };
            let hi = if last { max_round } else { lo + window - 1 };
            let wg = WindowGraph::build(graph, start, hi);
            let shape = match shapes.iter().position(|s| s.same_shape(&wg)) {
                Some(i) => i,
                None => {
                    shapes.push(wg.clone());
                    shapes.len() - 1
                }
            };
            positions.push(Position {
                lo: start,
                hi,
                commit_rel: if last { usize::MAX } else { stride },
                overlap: lo - start,
                shape,
                node_start: wg.node_start,
                node_count: wg.node_count(),
                edge_globals: wg.edge_globals,
            });
            if last {
                break;
            }
            lo += stride;
        }
        let shape_data = shapes
            .iter()
            .map(|shape| match backend {
                DecoderKind::SparseMwpm => {
                    ShapeData::SparseMwpm(Arc::new(SparseIndex::compute(shape.graph())))
                }
                DecoderKind::UnionFind => {
                    ShapeData::UnionFind(Arc::new(UnionFindCapacities::compute(shape.graph())))
                }
                // Dense MWPM: `Auto` was resolved above.
                _ => {
                    let paths = Arc::new(ShortestPaths::compute(shape.graph()));
                    let b = shape.graph().boundary();
                    // Isolated nodes (no incident edges at all — e.g. every
                    // node of a noiseless experiment's empty DEM) can never
                    // host a defect, so only connected nodes must reach the
                    // boundary for the window slicing to be sound.
                    debug_assert!(
                        (0..shape.graph().num_nodes()).all(|v| {
                            shape.graph().incident(v).is_empty() || paths.distance(v, b).is_finite()
                        }),
                        "window node cut off from the boundary"
                    );
                    ShapeData::Mwpm(paths)
                }
            })
            .collect();
        WindowPlan {
            shapes,
            shape_data,
            positions,
            backend,
            window,
            stride,
            max_round,
        }
    }

    /// Number of window positions over the experiment.
    pub fn num_positions(&self) -> usize {
        self.positions.len()
    }

    /// The distinct window shapes' graphs.
    #[cfg(test)]
    pub(crate) fn shape_graphs(&self) -> impl Iterator<Item = &DecodingGraph> {
        self.shapes.iter().map(WindowGraph::graph)
    }

    /// Number of distinct window shapes (a handful regardless of R, thanks
    /// to time-translation invariance of the bulk rounds).
    pub fn num_shapes(&self) -> usize {
        self.shapes.len()
    }

    /// The configured window length in rounds.
    pub fn window(&self) -> usize {
        self.window
    }

    /// The configured stride in rounds.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// The backend decoding each window (never [`DecoderKind::Auto`]).
    pub fn backend(&self) -> DecoderKind {
        self.backend
    }

    /// The parent graph's largest round.
    pub fn max_round(&self) -> usize {
        self.max_round
    }

    /// Approximate resident bytes of the plan's decode state: per-shape
    /// graphs and APSP/capacity tables plus per-position edge maps. The
    /// number the `longmem` figure reports against the monolithic APSP
    /// footprint; shapes are O(window²) and the position maps O(R·window),
    /// so peak decoder memory stays flat in R.
    pub fn approx_decoder_bytes(&self) -> usize {
        let mut total = 0;
        for (shape, data) in self.shapes.iter().zip(&self.shape_data) {
            total += std::mem::size_of_val(shape.graph().edges());
            total += shape.node_count() * std::mem::size_of::<usize>() * 3;
            // Each backend's table prices itself, so the estimate cannot
            // drift from the tables' real layouts (the sparse backend's
            // estimate did exactly that when it was hand-expanded here).
            total += match data {
                ShapeData::Mwpm(paths) => paths.approx_bytes(),
                ShapeData::SparseMwpm(index) => index.approx_bytes(),
                ShapeData::UnionFind(capacities) => capacities.approx_bytes(),
            };
        }
        for pos in &self.positions {
            total += pos.edge_globals.len() * std::mem::size_of::<u32>();
        }
        total
    }

    /// Builds a streaming decoder over this plan (one per worker thread;
    /// scratch and per-shape inner decoders are private to the instance, the
    /// expensive tables are shared through the plan).
    pub fn streaming(&self) -> WindowedDecoder<'_> {
        let inner: Vec<Box<dyn SyndromeDecoder + Send + '_>> = self
            .shapes
            .iter()
            .zip(&self.shape_data)
            .map(|(shape, data)| -> Box<dyn SyndromeDecoder + Send + '_> {
                match data {
                    ShapeData::Mwpm(paths) => Box::new(MwpmBatchDecoder::with_paths(
                        shape.graph(),
                        Arc::clone(paths),
                    )),
                    ShapeData::SparseMwpm(index) => Box::new(SparseMwpmDecoder::with_index(
                        shape.graph(),
                        Arc::clone(index),
                    )),
                    ShapeData::UnionFind(capacities) => {
                        Box::new(UnionFindBatchDecoder::with_capacities(
                            shape.graph(),
                            Arc::clone(capacities),
                        ))
                    }
                }
            })
            .collect();
        WindowedDecoder {
            plan: self,
            inner,
            round_cursor: 0,
            next_position: 0,
            defects: Vec::new(),
            erasures: Vec::new(),
            total_defects: 0,
            flip: false,
            weight: 0.0,
            nanos: 0,
            latencies: Vec::new(),
            local: Syndrome::default(),
            correction: Vec::new(),
            par_stamp: Vec::new(),
            par_val: Vec::new(),
            par_epoch: 0,
            touched: Vec::new(),
            counters: TierCounters::default(),
        }
    }
}

/// Round-incremental decoding of one shot: feed defects and erasures as each
/// round completes, read the final logical prediction at the end. The
/// streaming counterpart of [`SyndromeDecoder::decode`]. Its backend's name
/// is the plan's [`WindowPlan::backend`].
pub trait StreamingDecoder {
    /// Starts a new shot, discarding any previous state.
    fn begin_shot(&mut self);

    /// Feeds one completed round: the round's fired defects (global
    /// decoding-graph node ids, ascending) and any erasure edges discovered
    /// this round (global edge indices). Rounds must arrive in order,
    /// starting at 0.
    fn push_round(&mut self, defects: &[usize], erasures: &[usize]);

    /// Finishes the shot and returns the accumulated outcome (`defects` is
    /// the total pushed defect count; `nanos` the summed window decode time).
    fn finish(&mut self) -> DecodeOutcome;
}

/// The generic sliding-window adapter: buffers pushed rounds, decodes each
/// window position as soon as its last round arrives, commits the correction
/// edges touching the commit region, and re-injects boundary-crossing
/// defects into the next window. Built via [`WindowPlan::streaming`].
pub struct WindowedDecoder<'p> {
    plan: &'p WindowPlan,
    inner: Vec<Box<dyn SyndromeDecoder + Send + 'p>>,
    round_cursor: usize,
    next_position: usize,
    /// Live defect set, as sorted global node ids: not-yet-committed real
    /// defects plus re-injected artificial ones. Always confined to the next
    /// window's rounds — that is the commit invariant.
    defects: Vec<usize>,
    /// Live erasure set (global edge indices; duplicates tolerated). Pruned
    /// as windows retire.
    erasures: Vec<usize>,
    total_defects: usize,
    flip: bool,
    weight: f64,
    nanos: u64,
    /// Per decoded window: (decode nanos, rounds committed).
    latencies: Vec<(u64, u32)>,
    // Reused scratch.
    local: Syndrome,
    correction: Vec<usize>,
    par_stamp: Vec<u32>,
    par_val: Vec<bool>,
    par_epoch: u32,
    touched: Vec<usize>,
    /// Per-tier telemetry of the tiered fast path ([`crate::predecode`])
    /// that fronts every window, accumulated across shots (run-level, not
    /// cleared by [`StreamingDecoder::begin_shot`]).
    counters: TierCounters,
}

impl WindowedDecoder<'_> {
    /// The plan this decoder runs.
    pub fn plan(&self) -> &WindowPlan {
        self.plan
    }

    /// Per-tier hit/latency telemetry, accumulated across every shot this
    /// instance decoded.
    pub fn tier_counters(&self) -> &TierCounters {
        &self.counters
    }

    /// Per-window decode latency samples of the current shot: `(nanos,
    /// rounds committed)` per decoded window, in order; windows skipped at
    /// tier 0 take none. Cleared by [`StreamingDecoder::begin_shot`].
    pub fn window_latencies(&self) -> &[(u64, u32)] {
        &self.latencies
    }

    fn toggle(&mut self, v: usize) {
        if self.par_stamp[v] != self.par_epoch {
            self.par_stamp[v] = self.par_epoch;
            self.par_val[v] = false;
            self.touched.push(v);
        }
        self.par_val[v] = !self.par_val[v];
    }

    /// Decodes position `k` against the current live `defects` / `erasures`
    /// state, folds its observable flip and committed weight into the shot
    /// accumulators, leaves the carried defect set in `self.defects`,
    /// retires erasures the remaining windows can never see, and records the
    /// per-window latency sample.
    fn decode_position(&mut self, k: usize) {
        // Tier 0: an empty window is skipped outright — no local syndrome,
        // no erasure translation (the live set is empty, so retirement is a
        // no-op too), no latency sample. Bit-identical by construction:
        // every backend returns `DecodeOutcome::default()` on an empty,
        // erasure-free syndrome.
        if self.defects.is_empty() && self.erasures.is_empty() {
            self.counters.record(0, 0);
            return;
        }
        let started = Instant::now();
        let pos = &self.plan.positions[k];
        let shape = &self.plan.shapes[pos.shape];
        let sgraph = shape.graph();

        self.local.clear();
        for &g in &self.defects {
            debug_assert!(
                (pos.node_start..pos.node_start + pos.node_count).contains(&g),
                "defect {g} escaped window [{}, {}]",
                pos.lo,
                pos.hi
            );
            self.local.defects.push(g - pos.node_start);
        }
        // Erasure indices are translated to window-local edge numbering here
        // (global indices would address the wrong edges — or panic — inside
        // the window decoder's overlay).
        for &ge in &self.erasures {
            if let Ok(le) = pos.edge_globals.binary_search(&(ge as u32)) {
                self.local.erasures.push(le);
            }
        }
        self.local.erasures.sort_unstable();
        self.local.erasures.dedup();

        // Tier 1: the backend resolves its closed-form scope (1–2 defects,
        // no erasures) when it guarantees bit-identity and defers
        // everything else; tier 2 then runs the full decoder. Carried-in
        // defects are in the live set, so they count against the tier
        // threshold.
        //
        // The final position commits everything and carries nothing, so
        // its outcome is the decoder's own flip and weight and no
        // correction edges are walked. That is exactly the call a
        // whole-shot decoder makes, which keeps a full-cover window
        // bit-identical to it — erasures included, where an edge walk may
        // pick an equal-weight path of the opposite parity.
        let last = pos.commit_rel == usize::MAX;
        let mut correction = (!last).then_some(&mut self.correction);
        let inner = &mut self.inner[pos.shape];
        let (tier, out) = match inner.decode_tier1(&self.local, correction.as_deref_mut()) {
            Some(out) => (1, out),
            None => (2, inner.decode(&self.local, correction)),
        };
        self.counters.record(tier, out.nanos);
        let (flip, weight) = if last {
            self.defects.clear();
            (out.flip, out.weight)
        } else {
            // Commit every correction edge touching the commit region;
            // toggle defect parity so the uncommitted remainder (plus any
            // committed path's crossing points) re-injects into the next
            // window.
            let (mut flip, mut weight) = (false, 0.0f64);
            let n = sgraph.num_nodes();
            if self.par_stamp.len() < n {
                self.par_stamp.resize(n, 0);
                self.par_val.resize(n, false);
            }
            if self.par_epoch == u32::MAX {
                self.par_stamp.fill(0);
                self.par_epoch = 0;
            }
            self.par_epoch += 1;
            self.touched.clear();
            let local_defects = std::mem::take(&mut self.local.defects);
            for &ld in &local_defects {
                self.toggle(ld);
            }
            self.local.defects = local_defects;
            let commit_rel = pos.commit_rel;
            let boundary = sgraph.boundary();
            let correction = std::mem::take(&mut self.correction);
            for &ce in &correction {
                let e = &sgraph.edges()[ce];
                let committed = sgraph.node_round(e.a) < commit_rel
                    || (e.b != boundary && sgraph.node_round(e.b) < commit_rel);
                if committed {
                    flip ^= e.flips_observable;
                    weight += if self.local.erasures.binary_search(&ce).is_ok() {
                        crate::overlay::ERASED_WEIGHT
                    } else {
                        e.weight
                    };
                    self.toggle(e.a);
                    if e.b != boundary {
                        self.toggle(e.b);
                    }
                }
            }
            self.correction = correction;

            // Carry: every node left with odd parity is an unresolved (or
            // newly injected) defect; the commit algebra guarantees it lies
            // in the buffer, i.e. inside the next window.
            self.defects.clear();
            let node_start = pos.node_start;
            let touched = std::mem::take(&mut self.touched);
            for &v in &touched {
                if self.par_val[v] {
                    debug_assert!(
                        sgraph.node_round(v) >= commit_rel,
                        "carried defect in the committed region"
                    );
                    self.defects.push(node_start + v);
                }
            }
            self.touched = touched;
            self.defects.sort_unstable();
            (flip, weight)
        };
        // The position's partials are summed on their own before being
        // folded in: the f64 weight accumulation is not associative.
        self.flip ^= flip;
        self.weight += weight;

        // Retire erasures that can no longer intersect a future window.
        match self.plan.positions.get(k + 1) {
            Some(next) => {
                let min_edge = next.edge_globals.first().copied().unwrap_or(u32::MAX) as usize;
                self.erasures.retain(|&ge| ge >= min_edge);
            }
            None => self.erasures.clear(),
        }

        let nanos = started.elapsed().as_nanos() as u64;
        self.nanos += nanos;
        let committed_rounds = if last {
            pos.hi - pos.lo + 1 - pos.overlap
        } else {
            pos.commit_rel
        };
        self.latencies.push((nanos, committed_rounds as u32));
    }
}

impl StreamingDecoder for WindowedDecoder<'_> {
    fn begin_shot(&mut self) {
        self.round_cursor = 0;
        self.next_position = 0;
        self.defects.clear();
        self.erasures.clear();
        self.total_defects = 0;
        self.flip = false;
        self.weight = 0.0;
        self.nanos = 0;
        self.latencies.clear();
    }

    fn push_round(&mut self, defects: &[usize], erasures: &[usize]) {
        let r = self.round_cursor;
        assert!(r <= self.plan.max_round, "round {r} beyond the experiment");
        debug_assert!(
            defects.windows(2).all(|w| w[0] < w[1]),
            "per-round defects must be ascending"
        );
        self.defects.extend_from_slice(defects);
        self.total_defects += defects.len();
        self.erasures.extend_from_slice(erasures);
        self.round_cursor += 1;
        while self.next_position < self.plan.positions.len()
            && self.plan.positions[self.next_position].hi == r
        {
            self.decode_position(self.next_position);
            self.next_position += 1;
        }
    }

    fn finish(&mut self) -> DecodeOutcome {
        // Defensive: decode any position whose closing round never arrived
        // (a short-fed shot); normally the last push already retired it.
        while self.next_position < self.plan.positions.len() {
            self.decode_position(self.next_position);
            self.next_position += 1;
        }
        debug_assert!(self.defects.is_empty(), "final window left defects");
        DecodeOutcome {
            flip: self.flip,
            weight: self.weight,
            defects: self.total_defects,
            nanos: self.nanos,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dem::build_dem;
    use qec_core::circuit::DetectorBasis;
    use qec_core::NoiseParams;
    use surface_code::{MemoryExperiment, RotatedCode};

    fn graph(d: usize, rounds: usize) -> DecodingGraph {
        let exp = MemoryExperiment::new(RotatedCode::new(d), NoiseParams::standard(1e-3), rounds);
        let detectors = exp.detectors();
        let dem = build_dem(&exp.base_circuit(), &detectors, &exp.observable_keys());
        DecodingGraph::from_dem(&dem, &detectors, DetectorBasis::Z)
    }

    #[test]
    fn window_view_maps_nodes_and_edges_round_trip() {
        let g = graph(3, 8);
        let w = WindowGraph::build(&g, 2, 5);
        assert_eq!(w.lo(), 2);
        assert_eq!(w.hi(), 5);
        assert_eq!(w.node_count(), 4 * 4, "4 Z-checks over 4 rounds");
        for local in 0..w.node_count() {
            let global = w.global_node(local);
            assert_eq!(w.local_node(global), Some(local));
            assert_eq!(g.node_round(global) - 2, w.graph().node_round(local));
        }
        assert_eq!(w.local_node(w.node_start() + w.node_count()), None);
        for local in 0..w.graph().edges().len() {
            let global = w.global_edge(local);
            assert_eq!(w.local_edge(global), Some(local));
            let (le, ge) = (&w.graph().edges()[local], &g.edges()[global]);
            assert_eq!(le.weight, ge.weight);
            assert_eq!(le.flips_observable, ge.flips_observable);
        }
        // A time-crossing edge must not be in the window.
        let crossing = g
            .edges()
            .iter()
            .position(|e| e.b != g.boundary() && g.node_round(e.a) == 5 && g.node_round(e.b) == 6)
            .expect("a (5, 6) time edge exists");
        assert_eq!(w.local_edge(crossing), None);
    }

    #[test]
    fn full_span_window_is_the_whole_graph() {
        let g = graph(3, 4);
        let w = WindowGraph::build(&g, 0, g.max_round());
        assert_eq!(w.node_count(), g.num_nodes());
        assert_eq!(w.graph().edges(), g.edges());
        for ei in 0..g.edges().len() {
            assert_eq!(w.local_edge(ei), Some(ei));
        }
    }

    #[test]
    fn plan_dedupes_bulk_shapes() {
        let g = graph(3, 40);
        let plan = WindowPlan::new(&g, 8, 4, DecoderKind::Mwpm);
        assert!(plan.num_positions() >= 8, "got {}", plan.num_positions());
        // First window (round-0 structure), bulk windows (all identical by
        // time translation), and the final window(s): a handful of shapes no
        // matter how long the experiment runs.
        assert!(
            plan.num_shapes() <= 4,
            "expected O(1) shapes, got {}",
            plan.num_shapes()
        );
        // And the plan footprint is orders of magnitude below the monolithic
        // APSP (which would be ((4·41)+1)² ≈ 27k entries here — at R=1000 it
        // would be ~16M entries).
        assert!(plan.approx_decoder_bytes() < 4 << 20);
    }

    #[test]
    fn approx_decoder_bytes_tracks_each_backends_tables() {
        let g = graph(5, 30);
        let (window, stride) = (10, 5);
        let mut by_backend = std::collections::HashMap::new();
        for backend in [
            DecoderKind::Mwpm,
            DecoderKind::SparseMwpm,
            DecoderKind::UnionFind,
        ] {
            let plan = WindowPlan::new(&g, window, stride, backend);
            // The estimate must delegate to the populated tables' own
            // `approx_bytes` — recompute it from the parts and demand
            // equality, so a table layout change can't silently desync
            // the cache pricing.
            let mut expected = 0;
            for (shape, data) in plan.shapes.iter().zip(&plan.shape_data) {
                expected += std::mem::size_of_val(shape.graph().edges());
                expected += shape.node_count() * std::mem::size_of::<usize>() * 3;
                // Each shape holds its own backend's table.
                expected += match (backend, data) {
                    (DecoderKind::Mwpm, ShapeData::Mwpm(t)) => t.approx_bytes(),
                    (DecoderKind::SparseMwpm, ShapeData::SparseMwpm(t)) => t.approx_bytes(),
                    (DecoderKind::UnionFind, ShapeData::UnionFind(t)) => t.approx_bytes(),
                    _ => panic!("{backend:?} shape holds another backend's table"),
                };
            }
            for pos in &plan.positions {
                expected += pos.edge_globals.len() * std::mem::size_of::<u32>();
            }
            assert_eq!(plan.approx_decoder_bytes(), expected, "{backend:?}");
            by_backend.insert(backend.to_string(), plan.approx_decoder_bytes());
        }
        // The sparse index is O(V) per shape vs the APSP's O(V²): the
        // sparse-backed plan must be meaningfully smaller, which is the
        // misreport the old hand-expanded estimate got wrong.
        assert!(
            by_backend["sparse-mwpm"] * 2 < by_backend["mwpm"],
            "sparse {} vs mwpm {}",
            by_backend["sparse-mwpm"],
            by_backend["mwpm"]
        );
        assert!(by_backend["union-find"] < by_backend["mwpm"]);
    }

    /// The `stream-d7` plan (d = 7, R = 70, 21/14 windows, dense MWPM) with
    /// its path tables dictionary-coded at 4 bytes per entry: 6.93 MiB at 9
    /// bytes per entry, 3.29 MiB coded.
    #[test]
    fn stream_d7_plan_fits_its_coded_size() {
        let g = graph(7, 70);
        let plan = WindowPlan::new(&g, 21, 14, DecoderKind::Mwpm);
        let bytes = plan.approx_decoder_bytes();
        assert!(
            bytes * 2 <= 7 << 20,
            "stream-d7 plan holds {bytes} B, over 3.5 MiB"
        );
    }

    #[test]
    fn plan_positions_tile_the_rounds() {
        let g = graph(3, 11);
        for (window, stride) in [(4usize, 2usize), (5, 5), (3, 1), (12, 6), (30, 7)] {
            let plan = WindowPlan::new(&g, window, stride, DecoderKind::UnionFind);
            let span = g.max_round() + 1;
            let positions = &plan.positions;
            assert_eq!(positions[0].lo, 0);
            assert_eq!(positions.last().unwrap().hi, g.max_round());
            assert_eq!(positions.last().unwrap().commit_rel, usize::MAX);
            for pos in positions.iter() {
                // Every position — the clamped final one included — keeps
                // the full window width (the buffer guarantee).
                assert_eq!(
                    pos.hi - pos.lo + 1,
                    window.min(span),
                    "w={window} s={stride}"
                );
            }
            for pair in positions.windows(2) {
                // `overlap` absorbs the final clamp: the *fresh* region still
                // starts exactly one stride after the previous window.
                assert_eq!(pair[1].lo + pair[1].overlap, pair[0].lo + stride);
                assert_eq!(pair[0].commit_rel, stride);
                assert_eq!(pair[0].overlap, 0);
                // The buffer region is exactly what the next window re-reads.
                assert!(pair[1].lo + pair[1].overlap <= pair[0].hi + 1);
            }
            // Committed rounds add up to the whole span.
            let committed: usize = positions
                .iter()
                .map(|p| {
                    if p.commit_rel == usize::MAX {
                        p.hi - p.lo + 1 - p.overlap
                    } else {
                        p.commit_rel
                    }
                })
                .sum();
            assert_eq!(committed, span, "w={window} s={stride}");
        }
    }

    #[test]
    fn streaming_decodes_empty_shot_trivially() {
        let g = graph(3, 6);
        let plan = WindowPlan::new(&g, 3, 2, DecoderKind::Mwpm);
        let mut dec = plan.streaming();
        dec.begin_shot();
        for _ in 0..=g.max_round() {
            dec.push_round(&[], &[]);
        }
        let out = dec.finish();
        assert!(!out.flip);
        assert_eq!(out.defects, 0);
        assert_eq!(out.weight, 0.0);
        // Tier 0 skips every empty window outright: no latency samples.
        assert!(dec.window_latencies().is_empty());
        assert_eq!(dec.tier_counters().hits[0], plan.num_positions() as u64);
        assert_eq!(dec.tier_counters().total(), plan.num_positions() as u64);
    }

    #[test]
    fn streaming_instances_share_each_shape_table() {
        let g = graph(3, 9);
        for backend in [
            DecoderKind::Mwpm,
            DecoderKind::SparseMwpm,
            DecoderKind::UnionFind,
        ] {
            let plan = WindowPlan::new(&g, 4, 2, backend);
            assert!(plan.num_shapes() > 1);
            let strong_counts = || -> Vec<usize> {
                plan.shape_data
                    .iter()
                    .map(|data| match data {
                        ShapeData::Mwpm(paths) => Arc::strong_count(paths),
                        ShapeData::SparseMwpm(index) => Arc::strong_count(index),
                        ShapeData::UnionFind(capacities) => Arc::strong_count(capacities),
                    })
                    .collect()
            };
            assert!(strong_counts().iter().all(|&n| n == 1));
            let _a = plan.streaming();
            let _b = plan.streaming();
            // Each instance clones every shape's Arc instead of recomputing
            // its table.
            assert!(strong_counts().iter().all(|&n| n == 3), "{backend}");
        }
    }

    #[test]
    fn decoder_kind_round_trips_through_strings() {
        for kind in [
            DecoderKind::Auto,
            DecoderKind::Mwpm,
            DecoderKind::SparseMwpm,
            DecoderKind::UnionFind,
        ] {
            assert_eq!(kind.to_string().parse::<DecoderKind>().unwrap(), kind);
        }
        assert_eq!("uf".parse::<DecoderKind>().unwrap(), DecoderKind::UnionFind);
        for alias in ["sparse", "SPARSE-BLOSSOM"] {
            assert_eq!(
                alias.parse::<DecoderKind>().unwrap(),
                DecoderKind::SparseMwpm
            );
        }
        for unknown in ["tensor-network", "greedy", "mwpm2", ""] {
            assert_eq!(
                unknown.parse::<DecoderKind>(),
                Err(format!("unknown decoder `{unknown}`"))
            );
        }
        // The resolved kinds print the names a run reports as its decoder.
        for (kind, name) in [
            (DecoderKind::Mwpm, "mwpm"),
            (DecoderKind::SparseMwpm, "sparse-mwpm"),
            (DecoderKind::UnionFind, "union-find"),
        ] {
            assert_eq!(kind.to_string(), name);
        }
    }

    #[test]
    fn decoder_kind_resolution_is_centralized() {
        let g = graph(3, 2);
        assert!(g.num_nodes() <= DecoderKind::AUTO_MWPM_NODE_LIMIT);
        assert_eq!(DecoderKind::Auto.resolve_window(&g, 0), DecoderKind::Mwpm);
        for kind in [
            DecoderKind::Mwpm,
            DecoderKind::SparseMwpm,
            DecoderKind::UnionFind,
        ] {
            assert_eq!(kind.resolve_window(&g, 0), kind);
        }
    }

    /// Auto prices the window actually decoded. A d = 7, R = 130 graph has
    /// 131 detector rounds of 24 nodes (3144 nodes, past the limit): its
    /// full cover is sparse territory, a 21-round window is not, and the
    /// rule flips between 125 rounds (3000 nodes) and 126.
    #[test]
    fn auto_backend_resolves_against_the_window() {
        let g = graph(7, 130);
        assert_eq!(g.num_nodes(), 3144);
        for window in [0, 131, 10_000] {
            assert_eq!(
                DecoderKind::Auto.resolve_window(&g, window),
                DecoderKind::SparseMwpm,
                "window {window}"
            );
        }
        assert_eq!(DecoderKind::Auto.resolve_window(&g, 125), DecoderKind::Mwpm);
        assert_eq!(
            DecoderKind::Auto.resolve_window(&g, 126),
            DecoderKind::SparseMwpm
        );
        assert_eq!(
            DecoderKind::UnionFind.resolve_window(&g, 21),
            DecoderKind::UnionFind
        );
        // The plan resolves `Auto` against its own window width.
        let plan = WindowPlan::new(&g, 21, 14, DecoderKind::Auto);
        assert_eq!(plan.backend(), DecoderKind::Mwpm);
        assert_eq!(plan.backend(), DecoderKind::Auto.resolve_window(&g, 21));
    }
}
