//! Exact maximum-weight matching on general graphs (blossom algorithm).
//!
//! This is a Rust port of the classic O(n³) primal–dual blossom
//! implementation by Van Rantwijk (the `mwmatching.py` formulation of Galil's
//! algorithm, also used by NetworkX), specialized to integer weights so the
//! dual variables stay exact.
//!
//! Only maximum-cardinality matchings are considered: the MWPM decoders
//! reduce minimum-weight perfect matching to this routine by negating
//! distances against a large constant.
//!
//! The test-suite validates the implementation against an exhaustive
//! brute-force matcher on thousands of random graphs.

const NO: usize = usize::MAX;

/// Computes a maximum-weight matching among the maximum-cardinality
/// matchings of an undirected graph.
///
/// `edges` are `(u, v, weight)` triples with `u != v`; vertices are the dense
/// range `0..=max_vertex`. Negative weights still count: cardinality comes
/// first, so an edge is never dropped to gain weight.
///
/// Returns `mate`, where `mate[v]` is `Some(partner)` or `None`.
///
/// # Panics
///
/// Panics if an edge is a self-loop.
///
/// # Example
///
/// ```
/// use qec_decoder::max_weight_matching;
///
/// // Path 0-1-2 with a heavy middle edge: the middle edge wins.
/// let mate = max_weight_matching(&[(0, 1, 2), (1, 2, 5)]);
/// assert_eq!(mate[1], Some(2));
/// assert_eq!(mate[0], None);
/// ```
pub fn max_weight_matching(edges: &[(usize, usize, i64)]) -> Vec<Option<usize>> {
    MatchingContext::new().solve(edges).to_vec()
}

/// Reusable scratch arena for the blossom matcher.
///
/// One matching per decoded shot means the matcher's ~20 working vectors are
/// the dominant allocation cost of the MWPM hot loop. A `MatchingContext`
/// keeps them alive across calls: [`MatchingContext::solve`] reuses whatever
/// capacity earlier calls grew, so repeated matchings of similar size stop
/// allocating entirely.
///
/// ```
/// use qec_decoder::MatchingContext;
///
/// let mut ctx = MatchingContext::new();
/// let mate = ctx.solve(&[(0, 1, 2), (1, 2, 5)]);
/// assert_eq!(mate[1], Some(2));
/// // The next solve reuses the same buffers.
/// let mate = ctx.solve(&[(0, 1, 7)]);
/// assert_eq!(mate[0], Some(1));
/// ```
#[derive(Debug, Default)]
pub struct MatchingContext {
    endpoint: Vec<usize>,
    neighbend: Vec<Vec<usize>>,
    mate: Vec<usize>,
    label: Vec<u8>,
    labelend: Vec<usize>,
    inblossom: Vec<usize>,
    blossomparent: Vec<usize>,
    blossomchilds: Vec<Vec<usize>>,
    blossombase: Vec<usize>,
    blossomendps: Vec<Vec<usize>>,
    bestedge: Vec<usize>,
    blossombestedges: Vec<Vec<usize>>,
    unusedblossoms: Vec<usize>,
    dualvar: Vec<i64>,
    allowedge: Vec<bool>,
    queue: Vec<usize>,
    scratch: Vec<usize>,
    bestedgeto: Vec<usize>,
    mate_out: Vec<Option<usize>>,
}

impl MatchingContext {
    /// An empty context; buffers grow on first use.
    pub fn new() -> MatchingContext {
        MatchingContext::default()
    }

    /// Computes a maximum-weight matching (semantics of
    /// [`max_weight_matching`]) reusing this context's buffers. The returned
    /// slice is valid until the next `solve` call.
    pub fn solve(&mut self, edges: &[(usize, usize, i64)]) -> &[Option<usize>] {
        self.mate_out.clear();
        if edges.is_empty() {
            return &self.mate_out;
        }
        let mut m = Matcher::from_context(edges, self);
        m.solve();
        self.mate_out.extend(
            m.mate
                .iter()
                .map(|&p| if p == NO { None } else { Some(m.endpoint[p]) }),
        );
        m.release(self);
        &self.mate_out
    }
}

/// Clears the first `n` inner vectors (keeping their capacity) and ensures at
/// least `n` of them exist.
fn reset_nested(v: &mut Vec<Vec<usize>>, n: usize) {
    for inner in v.iter_mut().take(n) {
        inner.clear();
    }
    if v.len() < n {
        v.resize_with(n, Vec::new);
    }
}

struct Matcher<'e> {
    edges: &'e [(usize, usize, i64)],
    nvertex: usize,
    endpoint: Vec<usize>,
    neighbend: Vec<Vec<usize>>,
    mate: Vec<usize>,
    label: Vec<u8>,
    labelend: Vec<usize>,
    inblossom: Vec<usize>,
    blossomparent: Vec<usize>,
    blossomchilds: Vec<Vec<usize>>,
    blossombase: Vec<usize>,
    blossomendps: Vec<Vec<usize>>,
    bestedge: Vec<usize>,
    blossombestedges: Vec<Vec<usize>>,
    unusedblossoms: Vec<usize>,
    dualvar: Vec<i64>,
    allowedge: Vec<bool>,
    queue: Vec<usize>,
    /// A reusable vertex or blossom list (taken and given back by its users).
    scratch: Vec<usize>,
    /// Scratch for `add_blossom`'s least-slack edge per neighbour blossom.
    bestedgeto: Vec<usize>,
}

impl<'e> Matcher<'e> {
    /// Builds a matcher over `edges`, borrowing the context's buffers (moved
    /// out, returned by [`Matcher::release`]). Reuses whatever capacity
    /// earlier solves grew; only genuinely larger problems allocate.
    fn from_context(edges: &'e [(usize, usize, i64)], ctx: &mut MatchingContext) -> Matcher<'e> {
        let mut nvertex = 0;
        for &(i, j, _) in edges {
            assert!(i != j, "self-loop in matching input");
            nvertex = nvertex.max(i + 1).max(j + 1);
        }
        let maxweight = edges.iter().map(|e| e.2).max().unwrap_or(0).max(0);
        let nedge = edges.len();

        let mut endpoint = std::mem::take(&mut ctx.endpoint);
        endpoint.clear();
        endpoint.extend((0..2 * nedge).map(|p| {
            if p % 2 == 0 {
                edges[p / 2].0
            } else {
                edges[p / 2].1
            }
        }));

        let mut neighbend = std::mem::take(&mut ctx.neighbend);
        reset_nested(&mut neighbend, nvertex);
        for (k, &(i, j, _)) in edges.iter().enumerate() {
            neighbend[i].push(2 * k + 1);
            neighbend[j].push(2 * k);
        }

        let mut mate = std::mem::take(&mut ctx.mate);
        mate.clear();
        mate.resize(nvertex, NO);
        let mut label = std::mem::take(&mut ctx.label);
        label.clear();
        label.resize(2 * nvertex, 0);
        let mut labelend = std::mem::take(&mut ctx.labelend);
        labelend.clear();
        labelend.resize(2 * nvertex, NO);
        let mut inblossom = std::mem::take(&mut ctx.inblossom);
        inblossom.clear();
        inblossom.extend(0..nvertex);
        let mut blossomparent = std::mem::take(&mut ctx.blossomparent);
        blossomparent.clear();
        blossomparent.resize(2 * nvertex, NO);
        let mut blossomchilds = std::mem::take(&mut ctx.blossomchilds);
        reset_nested(&mut blossomchilds, 2 * nvertex);
        let mut blossombase = std::mem::take(&mut ctx.blossombase);
        blossombase.clear();
        blossombase.extend(0..nvertex);
        blossombase.resize(2 * nvertex, NO);
        let mut blossomendps = std::mem::take(&mut ctx.blossomendps);
        reset_nested(&mut blossomendps, 2 * nvertex);
        let mut bestedge = std::mem::take(&mut ctx.bestedge);
        bestedge.clear();
        bestedge.resize(2 * nvertex, NO);
        let mut blossombestedges = std::mem::take(&mut ctx.blossombestedges);
        reset_nested(&mut blossombestedges, 2 * nvertex);
        let mut unusedblossoms = std::mem::take(&mut ctx.unusedblossoms);
        unusedblossoms.clear();
        unusedblossoms.extend(nvertex..2 * nvertex);
        let mut dualvar = std::mem::take(&mut ctx.dualvar);
        dualvar.clear();
        dualvar.resize(nvertex, maxweight);
        dualvar.resize(2 * nvertex, 0);
        let mut allowedge = std::mem::take(&mut ctx.allowedge);
        allowedge.clear();
        allowedge.resize(nedge, false);
        let mut queue = std::mem::take(&mut ctx.queue);
        queue.clear();
        let scratch = std::mem::take(&mut ctx.scratch);
        let bestedgeto = std::mem::take(&mut ctx.bestedgeto);

        Matcher {
            edges,
            nvertex,
            endpoint,
            neighbend,
            mate,
            label,
            labelend,
            inblossom,
            blossomparent,
            blossomchilds,
            blossombase,
            blossomendps,
            bestedge,
            blossombestedges,
            unusedblossoms,
            dualvar,
            allowedge,
            queue,
            scratch,
            bestedgeto,
        }
    }

    /// Returns the working buffers to the context for the next solve.
    fn release(self, ctx: &mut MatchingContext) {
        ctx.endpoint = self.endpoint;
        ctx.neighbend = self.neighbend;
        ctx.mate = self.mate;
        ctx.label = self.label;
        ctx.labelend = self.labelend;
        ctx.inblossom = self.inblossom;
        ctx.blossomparent = self.blossomparent;
        ctx.blossomchilds = self.blossomchilds;
        ctx.blossombase = self.blossombase;
        ctx.blossomendps = self.blossomendps;
        ctx.bestedge = self.bestedge;
        ctx.blossombestedges = self.blossombestedges;
        ctx.unusedblossoms = self.unusedblossoms;
        ctx.dualvar = self.dualvar;
        ctx.allowedge = self.allowedge;
        ctx.queue = self.queue;
        ctx.scratch = self.scratch;
        ctx.bestedgeto = self.bestedgeto;
    }

    fn slack(&self, k: usize) -> i64 {
        let (i, j, wt) = self.edges[k];
        self.dualvar[i] + self.dualvar[j] - 2 * wt
    }

    fn blossom_leaves(&self, b: usize, out: &mut Vec<usize>) {
        if b < self.nvertex {
            out.push(b);
        } else {
            for &t in &self.blossomchilds[b] {
                self.blossom_leaves(t, out);
            }
        }
    }

    /// The leaves of `b` in the reusable scratch list; give it back with
    /// `self.scratch = leaves` when done.
    fn take_leaves(&mut self, b: usize) -> Vec<usize> {
        let mut leaves = std::mem::take(&mut self.scratch);
        leaves.clear();
        self.blossom_leaves(b, &mut leaves);
        leaves
    }

    fn assign_label(&mut self, w: usize, t: u8, p: usize) {
        let b = self.inblossom[w];
        debug_assert!(self.label[w] == 0 && self.label[b] == 0);
        self.label[w] = t;
        self.label[b] = t;
        self.labelend[w] = p;
        self.labelend[b] = p;
        self.bestedge[w] = NO;
        self.bestedge[b] = NO;
        if t == 1 {
            let mut queue = std::mem::take(&mut self.queue);
            self.blossom_leaves(b, &mut queue);
            self.queue = queue;
        } else if t == 2 {
            let base = self.blossombase[b];
            debug_assert!(self.mate[base] != NO);
            let mb = self.mate[base];
            self.assign_label(self.endpoint[mb], 1, mb ^ 1);
        }
    }

    fn scan_blossom(&mut self, v0: usize, w0: usize) -> usize {
        let mut path = std::mem::take(&mut self.scratch);
        path.clear();
        let mut base = NO;
        let mut v = v0;
        let mut w = w0;
        loop {
            if v == NO && w == NO {
                break;
            }
            if v != NO {
                let b = self.inblossom[v];
                if self.label[b] & 4 != 0 {
                    base = self.blossombase[b];
                    break;
                }
                debug_assert_eq!(self.label[b], 1);
                path.push(b);
                self.label[b] = 5;
                debug_assert_eq!(self.labelend[b], self.mate[self.blossombase[b]]);
                if self.labelend[b] == NO {
                    v = NO;
                } else {
                    let t = self.endpoint[self.labelend[b]];
                    let bt = self.inblossom[t];
                    debug_assert_eq!(self.label[bt], 2);
                    debug_assert!(self.labelend[bt] != NO);
                    v = self.endpoint[self.labelend[bt]];
                }
            }
            if w != NO {
                std::mem::swap(&mut v, &mut w);
            }
        }
        for &b in &path {
            self.label[b] = 1;
        }
        self.scratch = path;
        base
    }

    fn add_blossom(&mut self, base: usize, k: usize) {
        let (mut v, mut w, _) = self.edges[k];
        let bb = self.inblossom[base];
        let mut bv = self.inblossom[v];
        let mut bw = self.inblossom[w];
        let b = self.unusedblossoms.pop().expect("blossom pool exhausted");
        self.blossombase[b] = base;
        self.blossomparent[b] = NO;
        self.blossomparent[bb] = b;
        // Build the child and endpoint lists in the recycled slot's buffers.
        let mut path = std::mem::take(&mut self.blossomchilds[b]);
        let mut endps = std::mem::take(&mut self.blossomendps[b]);
        path.clear();
        endps.clear();
        while bv != bb {
            self.blossomparent[bv] = b;
            path.push(bv);
            endps.push(self.labelend[bv]);
            debug_assert!(
                self.label[bv] == 2
                    || (self.label[bv] == 1
                        && self.labelend[bv] == self.mate[self.blossombase[bv]])
            );
            debug_assert!(self.labelend[bv] != NO);
            v = self.endpoint[self.labelend[bv]];
            bv = self.inblossom[v];
        }
        path.push(bb);
        path.reverse();
        endps.reverse();
        endps.push(2 * k);
        while bw != bb {
            self.blossomparent[bw] = b;
            path.push(bw);
            endps.push(self.labelend[bw] ^ 1);
            debug_assert!(
                self.label[bw] == 2
                    || (self.label[bw] == 1
                        && self.labelend[bw] == self.mate[self.blossombase[bw]])
            );
            debug_assert!(self.labelend[bw] != NO);
            w = self.endpoint[self.labelend[bw]];
            bw = self.inblossom[w];
        }
        self.blossomchilds[b] = path;
        self.blossomendps[b] = endps;
        debug_assert_eq!(self.label[bb], 1);
        self.label[b] = 1;
        self.labelend[b] = self.labelend[bb];
        self.dualvar[b] = 0;
        let leaves = self.take_leaves(b);
        for &v in &leaves {
            if self.label[self.inblossom[v]] == 2 {
                self.queue.push(v);
            }
            self.inblossom[v] = b;
        }
        self.scratch = leaves;
        // Compute blossombestedges[b].
        let mut bestedgeto = std::mem::take(&mut self.bestedgeto);
        bestedgeto.clear();
        bestedgeto.resize(2 * self.nvertex, NO);
        for c in 0..self.blossomchilds[b].len() {
            let bv = self.blossomchilds[b][c];
            if self.blossombestedges[bv].is_empty() {
                let leaves = self.take_leaves(bv);
                for &v in &leaves {
                    for &p in &self.neighbend[v] {
                        self.note_best_edge(b, p / 2, &mut bestedgeto);
                    }
                }
                self.scratch = leaves;
            } else {
                for &k in &self.blossombestedges[bv] {
                    self.note_best_edge(b, k, &mut bestedgeto);
                }
            }
            self.blossombestedges[bv].clear();
            self.bestedge[bv] = NO;
        }
        let mut best = std::mem::take(&mut self.blossombestedges[b]);
        best.clear();
        best.extend(bestedgeto.iter().copied().filter(|&k| k != NO));
        self.blossombestedges[b] = best;
        self.bestedgeto = bestedgeto;
        self.bestedge[b] = NO;
        for idx in 0..self.blossombestedges[b].len() {
            let k = self.blossombestedges[b][idx];
            if self.bestedge[b] == NO || self.slack(k) < self.slack(self.bestedge[b]) {
                self.bestedge[b] = k;
            }
        }
    }

    /// Keeps edge `k` in `bestedgeto` if it is the least-slack edge seen so
    /// far from the new blossom `b` to its S-blossom on the far side.
    fn note_best_edge(&self, b: usize, k: usize, bestedgeto: &mut [usize]) {
        let (mut i, mut j, _) = self.edges[k];
        if self.inblossom[j] == b {
            std::mem::swap(&mut i, &mut j);
        }
        let bj = self.inblossom[j];
        if bj != b
            && self.label[bj] == 1
            && (bestedgeto[bj] == NO || self.slack(k) < self.slack(bestedgeto[bj]))
        {
            bestedgeto[bj] = k;
        }
    }

    /// Wraparound indexing matching Python's negative-index semantics.
    fn child_at(&self, b: usize, j: isize) -> usize {
        let n = self.blossomchilds[b].len() as isize;
        self.blossomchilds[b][(((j % n) + n) % n) as usize]
    }

    fn endp_at(&self, b: usize, j: isize) -> usize {
        let n = self.blossomendps[b].len() as isize;
        self.blossomendps[b][(((j % n) + n) % n) as usize]
    }

    fn expand_blossom(&mut self, b: usize, endstage: bool) {
        // Expanding a child never touches `b`'s own child list.
        let childs = std::mem::take(&mut self.blossomchilds[b]);
        for &s in &childs {
            self.blossomparent[s] = NO;
            if s < self.nvertex {
                self.inblossom[s] = s;
            } else if endstage && self.dualvar[s] == 0 {
                self.expand_blossom(s, endstage);
            } else {
                let leaves = self.take_leaves(s);
                for &v in &leaves {
                    self.inblossom[v] = s;
                }
                self.scratch = leaves;
            }
        }
        self.blossomchilds[b] = childs;
        if !endstage && self.label[b] == 2 {
            debug_assert!(self.labelend[b] != NO);
            let entrychild = self.inblossom[self.endpoint[self.labelend[b] ^ 1]];
            let childs = &self.blossomchilds[b];
            let mut j = childs.iter().position(|&c| c == entrychild).unwrap() as isize;
            let (jstep, endptrick): (isize, usize) = if j & 1 != 0 {
                j -= childs.len() as isize;
                (1, 0)
            } else {
                (-1, 1)
            };
            let mut p = self.labelend[b];
            while j != 0 {
                // Relabel the T-sub-blossom.
                self.label[self.endpoint[p ^ 1]] = 0;
                let q = self.endp_at(b, j - endptrick as isize) ^ endptrick ^ 1;
                self.label[self.endpoint[q]] = 0;
                self.assign_label(self.endpoint[p ^ 1], 2, p);
                // Step to the next S-sub-blossom and note its forward endpoint.
                let fwd = self.endp_at(b, j - endptrick as isize) / 2;
                self.allowedge[fwd] = true;
                j += jstep;
                p = self.endp_at(b, j - endptrick as isize) ^ endptrick;
                // Step to the next T-sub-blossom.
                self.allowedge[p / 2] = true;
                j += jstep;
            }
            // Relabel the base T-sub-blossom WITHOUT stepping through to its
            // mate.
            let bv = self.child_at(b, j);
            let ep = self.endpoint[p ^ 1];
            self.label[ep] = 2;
            self.label[bv] = 2;
            self.labelend[ep] = p;
            self.labelend[bv] = p;
            self.bestedge[bv] = NO;
            // Continue along the blossom until we get back to entrychild.
            j += jstep;
            while self.child_at(b, j) != entrychild {
                let bv = self.child_at(b, j);
                if self.label[bv] == 1 {
                    j += jstep;
                    continue;
                }
                let leaves = self.take_leaves(bv);
                let labelled = leaves.iter().copied().find(|&v| self.label[v] != 0);
                self.scratch = leaves;
                if let Some(v) = labelled {
                    debug_assert_eq!(self.label[v], 2);
                    debug_assert_eq!(self.inblossom[v], bv);
                    self.label[v] = 0;
                    let base_mate = self.mate[self.blossombase[bv]];
                    self.label[self.endpoint[base_mate]] = 0;
                    let le = self.labelend[v];
                    self.assign_label(v, 2, le);
                }
                j += jstep;
            }
        }
        // Recycle the blossom number.
        self.label[b] = 0;
        self.labelend[b] = NO;
        self.blossomchilds[b].clear();
        self.blossomendps[b].clear();
        self.blossombase[b] = NO;
        self.blossombestedges[b].clear();
        self.bestedge[b] = NO;
        self.unusedblossoms.push(b);
    }

    fn augment_blossom(&mut self, b: usize, v: usize) {
        let mut t = v;
        while self.blossomparent[t] != b {
            t = self.blossomparent[t];
        }
        if t >= self.nvertex {
            self.augment_blossom(t, v);
        }
        let i = self.blossomchilds[b].iter().position(|&c| c == t).unwrap() as isize;
        let mut j = i;
        let (jstep, endptrick): (isize, usize) = if i & 1 != 0 {
            j -= self.blossomchilds[b].len() as isize;
            (1, 0)
        } else {
            (-1, 1)
        };
        while j != 0 {
            j += jstep;
            let t1 = self.child_at(b, j);
            let p = self.endp_at(b, j - endptrick as isize) ^ endptrick;
            if t1 >= self.nvertex {
                self.augment_blossom(t1, self.endpoint[p]);
            }
            j += jstep;
            let t2 = self.child_at(b, j);
            if t2 >= self.nvertex {
                self.augment_blossom(t2, self.endpoint[p ^ 1]);
            }
            self.mate[self.endpoint[p]] = p ^ 1;
            self.mate[self.endpoint[p ^ 1]] = p;
        }
        let i = i as usize;
        self.blossomchilds[b].rotate_left(i);
        self.blossomendps[b].rotate_left(i);
        self.blossombase[b] = self.blossombase[self.blossomchilds[b][0]];
        debug_assert_eq!(self.blossombase[b], v);
    }

    fn augment_matching(&mut self, k: usize) {
        let (v, w, _) = self.edges[k];
        for (mut s, mut p) in [(v, 2 * k + 1), (w, 2 * k)] {
            loop {
                let bs = self.inblossom[s];
                debug_assert_eq!(self.label[bs], 1);
                debug_assert_eq!(self.labelend[bs], self.mate[self.blossombase[bs]]);
                if bs >= self.nvertex {
                    self.augment_blossom(bs, s);
                }
                self.mate[s] = p;
                if self.labelend[bs] == NO {
                    break;
                }
                let t = self.endpoint[self.labelend[bs]];
                let bt = self.inblossom[t];
                debug_assert_eq!(self.label[bt], 2);
                debug_assert!(self.labelend[bt] != NO);
                s = self.endpoint[self.labelend[bt]];
                let j = self.endpoint[self.labelend[bt] ^ 1];
                debug_assert_eq!(self.blossombase[bt], t);
                if bt >= self.nvertex {
                    self.augment_blossom(bt, j);
                }
                self.mate[j] = self.labelend[bt];
                p = self.labelend[bt] ^ 1;
            }
        }
    }

    fn solve(&mut self) {
        let nvertex = self.nvertex;
        for _ in 0..nvertex {
            self.label.fill(0);
            self.bestedge.fill(NO);
            for b in nvertex..2 * nvertex {
                self.blossombestedges[b].clear();
            }
            self.allowedge.fill(false);
            self.queue.clear();
            for v in 0..nvertex {
                if self.mate[v] == NO && self.label[self.inblossom[v]] == 0 {
                    self.assign_label(v, 1, NO);
                }
            }
            let mut augmented = false;
            loop {
                while let Some(v) = if augmented { None } else { self.queue.pop() } {
                    debug_assert_eq!(self.label[self.inblossom[v]], 1);
                    // `neighbend` is immutable during a solve; index to avoid
                    // cloning the adjacency list on every queue pop.
                    for ni in 0..self.neighbend[v].len() {
                        let p = self.neighbend[v][ni];
                        let k = p / 2;
                        let w = self.endpoint[p];
                        if self.inblossom[v] == self.inblossom[w] {
                            continue;
                        }
                        if !self.allowedge[k] {
                            let kslack = self.slack(k);
                            if kslack <= 0 {
                                self.allowedge[k] = true;
                            } else if self.label[self.inblossom[w]] == 1 {
                                let b = self.inblossom[v];
                                if self.bestedge[b] == NO || kslack < self.slack(self.bestedge[b]) {
                                    self.bestedge[b] = k;
                                }
                            } else if self.label[w] == 0
                                && (self.bestedge[w] == NO || kslack < self.slack(self.bestedge[w]))
                            {
                                self.bestedge[w] = k;
                            }
                        }
                        if self.allowedge[k] {
                            if self.label[self.inblossom[w]] == 0 {
                                self.assign_label(w, 2, p ^ 1);
                            } else if self.label[self.inblossom[w]] == 1 {
                                let base = self.scan_blossom(v, w);
                                if base != NO {
                                    self.add_blossom(base, k);
                                } else {
                                    self.augment_matching(k);
                                    augmented = true;
                                    break;
                                }
                            } else if self.label[w] == 0 {
                                debug_assert_eq!(self.label[self.inblossom[w]], 2);
                                self.label[w] = 2;
                                self.labelend[w] = p ^ 1;
                            }
                        }
                    }
                }
                if augmented {
                    break;
                }
                // Compute delta.
                let mut deltatype = -1i32;
                let mut delta = 0i64;
                let mut deltaedge = NO;
                let mut deltablossom = NO;
                for v in 0..nvertex {
                    if self.label[self.inblossom[v]] == 0 && self.bestedge[v] != NO {
                        let d = self.slack(self.bestedge[v]);
                        if deltatype == -1 || d < delta {
                            delta = d;
                            deltatype = 2;
                            deltaedge = self.bestedge[v];
                        }
                    }
                }
                for b in 0..2 * nvertex {
                    if self.blossomparent[b] == NO && self.label[b] == 1 && self.bestedge[b] != NO {
                        let kslack = self.slack(self.bestedge[b]);
                        debug_assert_eq!(kslack % 2, 0, "integral weights keep slack even");
                        let d = kslack / 2;
                        if deltatype == -1 || d < delta {
                            delta = d;
                            deltatype = 3;
                            deltaedge = self.bestedge[b];
                        }
                    }
                }
                for b in nvertex..2 * nvertex {
                    if self.blossombase[b] != NO
                        && self.blossomparent[b] == NO
                        && self.label[b] == 2
                        && (deltatype == -1 || self.dualvar[b] < delta)
                    {
                        delta = self.dualvar[b];
                        deltatype = 4;
                        deltablossom = b;
                    }
                }
                if deltatype == -1 {
                    // No further improvement possible: the maximum-
                    // cardinality optimum is reached. A final vertex-dual
                    // update keeps the duals verifiable.
                    deltatype = 1;
                    delta = self.dualvar[..nvertex]
                        .iter()
                        .copied()
                        .min()
                        .unwrap()
                        .max(0);
                }
                // Update dual variables.
                for v in 0..nvertex {
                    match self.label[self.inblossom[v]] {
                        1 => self.dualvar[v] -= delta,
                        2 => self.dualvar[v] += delta,
                        _ => {}
                    }
                }
                for b in nvertex..2 * nvertex {
                    if self.blossombase[b] != NO && self.blossomparent[b] == NO {
                        match self.label[b] {
                            1 => self.dualvar[b] += delta,
                            2 => self.dualvar[b] -= delta,
                            _ => {}
                        }
                    }
                }
                match deltatype {
                    1 => break,
                    2 => {
                        self.allowedge[deltaedge] = true;
                        let (mut i, j, _) = self.edges[deltaedge];
                        if self.label[self.inblossom[i]] == 0 {
                            i = j;
                        }
                        debug_assert_eq!(self.label[self.inblossom[i]], 1);
                        self.queue.push(i);
                    }
                    3 => {
                        self.allowedge[deltaedge] = true;
                        let (i, _, _) = self.edges[deltaedge];
                        debug_assert_eq!(self.label[self.inblossom[i]], 1);
                        self.queue.push(i);
                    }
                    _ => self.expand_blossom(deltablossom, false),
                }
            }
            if !augmented {
                break;
            }
            for b in nvertex..2 * nvertex {
                if self.blossomparent[b] == NO
                    && self.blossombase[b] != NO
                    && self.label[b] == 1
                    && self.dualvar[b] == 0
                {
                    self.expand_blossom(b, true);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exhaustive matcher for validation: maximizes (cardinality, weight).
    fn brute_force(n: usize, edges: &[(usize, usize, i64)]) -> (usize, i64) {
        fn rec(
            edges: &[(usize, usize, i64)],
            used: &mut Vec<bool>,
            idx: usize,
            card: usize,
            weight: i64,
            best: &mut (usize, i64),
        ) {
            *best = (*best).max((card, weight));
            if idx == edges.len() {
                return;
            }
            rec(edges, used, idx + 1, card, weight, best);
            let (u, v, w) = edges[idx];
            if !used[u] && !used[v] {
                used[u] = true;
                used[v] = true;
                rec(edges, used, idx + 1, card + 1, weight + w, best);
                used[u] = false;
                used[v] = false;
            }
        }
        let mut best = (0, 0);
        let mut used = vec![false; n];
        rec(edges, &mut used, 0, 0, 0, &mut best);
        best
    }

    fn matching_stats(mate: &[Option<usize>], edges: &[(usize, usize, i64)]) -> (usize, i64) {
        // Validate symmetry.
        for (v, &m) in mate.iter().enumerate() {
            if let Some(w) = m {
                assert_eq!(mate[w], Some(v), "asymmetric mate array");
            }
        }
        let mut card = 0;
        let mut weight = 0;
        for &(u, v, w) in edges {
            if mate.get(u).copied().flatten() == Some(v) {
                card += 1;
                weight += w;
            }
        }
        (card, weight)
    }

    #[test]
    fn empty_graph() {
        assert!(max_weight_matching(&[]).is_empty());
    }

    #[test]
    fn single_edge() {
        let mate = max_weight_matching(&[(0, 1, 5)]);
        assert_eq!(mate[0], Some(1));
        assert_eq!(mate[1], Some(0));
    }

    #[test]
    fn negative_weight_used_with_cardinality() {
        let mate = max_weight_matching(&[(0, 1, -5)]);
        assert_eq!(mate[0], Some(1));
    }

    #[test]
    fn classic_blossom_case() {
        // Triangle 0-1-2 plus pendant 2-3: must form a blossom and match
        // (0,1), (2,3).
        let edges = [(0, 1, 6), (0, 2, 5), (1, 2, 5), (2, 3, 4)];
        let mate = max_weight_matching(&edges);
        assert_eq!(mate[0], Some(1));
        assert_eq!(mate[2], Some(3));
    }

    #[test]
    fn nested_blossom_expansion() {
        // The classic nested S-blossom test from mwmatching.py (test case
        // t_nested): create nested S-blossom, use for augmentation.
        let edges = [
            (1, 2, 9),
            (1, 3, 9),
            (2, 3, 10),
            (2, 4, 8),
            (3, 5, 8),
            (4, 5, 10),
            (5, 6, 6),
        ];
        let mate = max_weight_matching(&edges);
        assert_eq!(mate[1], Some(3));
        assert_eq!(mate[2], Some(4));
        assert_eq!(mate[5], Some(6));
    }

    #[test]
    fn s_blossom_relabel_expand() {
        // mwmatching.py t_relabel_nested: create nested S-blossom, relabel as
        // T, expand.
        let edges = [
            (1, 2, 19),
            (1, 3, 20),
            (1, 8, 8),
            (2, 3, 25),
            (2, 4, 18),
            (3, 5, 18),
            (4, 5, 13),
            (4, 7, 7),
            (5, 6, 7),
        ];
        let mate = max_weight_matching(&edges);
        let expect = [NO, 8, 3, 2, 7, 6, 5, 4, 1];
        for v in 1..=8 {
            assert_eq!(mate[v], Some(expect[v]), "vertex {v}");
        }
    }

    #[test]
    fn t_blossom_augmented_expand() {
        // mwmatching.py t_nasty: create blossom, relabel as T in more than
        // one way, expand, augment.
        let edges = [
            (1, 2, 45),
            (1, 5, 45),
            (2, 3, 50),
            (3, 4, 45),
            (4, 5, 50),
            (1, 6, 30),
            (3, 9, 35),
            (4, 8, 35),
            (5, 7, 26),
            (9, 10, 5),
        ];
        let mate = max_weight_matching(&edges);
        let expect = [NO, 6, 3, 2, 8, 7, 1, 5, 4, 10, 9];
        for v in 1..=10 {
            assert_eq!(mate[v], Some(expect[v]), "vertex {v}");
        }
    }

    #[test]
    fn random_graphs_match_brute_force_weight() {
        let mut rng = qec_core::Rng::new(20240607);
        for trial in 0..400 {
            let n = 2 + (rng.below(6) as usize); // 2..=7 vertices
            let mut edges = Vec::new();
            for u in 0..n {
                for v in (u + 1)..n {
                    if rng.bernoulli(0.7) {
                        let w = rng.below(21) as i64 - 4; // some negatives
                        edges.push((u, v, w));
                    }
                }
            }
            if edges.is_empty() {
                continue;
            }
            let mut mate = max_weight_matching(&edges);
            mate.resize(n, None);
            assert_eq!(
                matching_stats(&mate, &edges),
                brute_force(n, &edges),
                "trial {trial}: edges {edges:?}"
            );
        }
    }

    #[test]
    fn context_reuse_matches_fresh_solves() {
        // A reused context must be indistinguishable from a fresh matcher on
        // every call, across wildly varying problem sizes (stale scratch from
        // a bigger earlier problem must never leak into a smaller one).
        let mut ctx = MatchingContext::new();
        let mut rng = qec_core::Rng::new(31337);
        for trial in 0..200 {
            let n = 2 + (rng.below(7) as usize);
            let mut edges = Vec::new();
            for u in 0..n {
                for v in (u + 1)..n {
                    if rng.bernoulli(0.8) {
                        edges.push((u, v, rng.below(50) as i64 - 5));
                    }
                }
            }
            if edges.is_empty() {
                continue;
            }
            let reused = ctx.solve(&edges).to_vec();
            assert_eq!(reused, max_weight_matching(&edges), "trial {trial}");
        }
    }

    #[test]
    fn context_grown_by_a_large_solve_matches_fresh_small_solves() {
        // Scratch past a small problem's size is left as a large solve left
        // it; the small solves must never read it.
        let mut ctx = MatchingContext::new();
        let mut rng = qec_core::Rng::new(4242);
        let complete = |n: usize, rng: &mut qec_core::Rng| {
            let mut edges = Vec::new();
            for u in 0..n {
                for v in (u + 1)..n {
                    edges.push((u, v, rng.below(100) as i64));
                }
            }
            edges
        };
        for trial in 0..20 {
            let big = complete(60, &mut rng);
            assert_eq!(ctx.solve(&big), max_weight_matching(&big).as_slice());
            let small = complete(2 + trial % 5, &mut rng);
            let reused = ctx.solve(&small).to_vec();
            assert_eq!(reused, max_weight_matching(&small), "trial {trial}");
        }
    }

    #[test]
    fn context_handles_empty_input() {
        let mut ctx = MatchingContext::new();
        assert!(ctx.solve(&[]).is_empty());
        assert_eq!(ctx.solve(&[(0, 1, 3)]), &[Some(1), Some(0)]);
        assert!(ctx.solve(&[]).is_empty());
    }

    #[test]
    fn perfect_matching_on_complete_even_graph() {
        // Complete K6 with random weights must produce a perfect matching.
        let mut rng = qec_core::Rng::new(9);
        for _ in 0..50 {
            let mut edges = Vec::new();
            for u in 0..6 {
                for v in (u + 1)..6 {
                    edges.push((u, v, rng.below(100) as i64));
                }
            }
            let mate = max_weight_matching(&edges);
            assert!(mate.iter().all(|m| m.is_some()), "not perfect: {mate:?}");
        }
    }
}
