//! Intra-shot parallel decoding: partition + fusion over the round-indexed
//! window chain.
//!
//! All other parallelism in this workspace is *across* shots (worker threads
//! × 64-lane stripes); a single shot's windows still decode strictly
//! sequentially, so per-shot decode latency — the number that decides
//! whether the adaptive loop can run in real time against the hardware's
//! sub-µs-per-round budget — does not improve with cores. This module adopts
//! the fusion-blossom partition/fusion architecture on top of the sliding
//! window machinery that PR 5 built:
//!
//! ```text
//!   positions  0  1  2  3 | 4  5  6  7 | 8  9 10 11 |12 13 14 15
//!   leaves     [  leaf 0  ] [  leaf 1  ] [  leaf 2  ] [  leaf 3 ]
//!                    \          /             \           /
//!   merge 1           [ 0 ∪ 1 ]               [ 2 ∪ 3 ]
//!                          \                     /
//!   merge 2                 [    0 ∪ 1 ∪ 2 ∪ 3   ]   →  shot outcome
//! ```
//!
//! A [`FusionPlan`] splits a [`WindowPlan`]'s position chain into contiguous
//! **leaf blocks** (one per fusion thread). A [`FusionDecoder`] buffers the
//! shot's rounds, then decodes the leaves concurrently on a [`FusionPool`] —
//! each leaf **speculatively**, assuming an empty carried defect set at its
//! left edge. Adjacent blocks are then fused up a balanced binary tree: each
//! merge replays the right block's boundary region seeded with the left
//! block's actual carry-out, stopping as soon as the replayed carry chain
//! reconverges with what the right block already computed (boundary
//! influence decays within about a window of rounds at sub-threshold defect
//! density, so convergence is almost always immediate — but correctness
//! never depends on it: in the worst case the merge replays the whole right
//! block).
//!
//! The per-position replay (`WindowedDecoder::replay_position`) is the
//! *exact* streaming commit/buffer algebra — same per-shape decoder
//! instances, same erasure translation to block-local edge numbering, same
//! commit rules, and the same position-ordered fold of the non-associative
//! f64 weight partials. Leaf 0's speculative assumption (no carried defects
//! before round 0) is the sequential initial condition, and every merge
//! preserves the invariant that each block's internal carry chain is
//! consistent; after the root merge the whole chain therefore equals the
//! sequential one, making the fused outcome **bit-identical** to
//! [`WindowPlan::streaming`] at every thread count (asserted per backend and
//! under erasure overlays by `tests/fusion.rs`).

use crate::api::DecodeOutcome;
use crate::predecode::TierCounters;
use crate::window::{StreamingDecoder, WindowPlan, WindowedDecoder};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// A small std-only worker pool for intra-shot fusion decoding.
///
/// `threads − 1` persistent workers are spawned up front (the caller of
/// [`FusionPool::run`] participates as worker 0, so `threads = 1` spawns
/// nothing and runs inline); each `run` publishes a task count and a borrowed
/// job closure, and workers race on a shared task-index counter — cheap
/// dynamic load balancing for the chunky (whole-leaf / whole-merge) tasks
/// fusion schedules. Create one per shot-worker thread and share it across
/// that worker's lane decoders via `Arc`.
pub struct FusionPool {
    shared: Arc<PoolShared>,
    workers: usize,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for FusionPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FusionPool")
            .field("workers", &self.workers)
            .finish()
    }
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signals workers: a new job generation was published (or shutdown).
    work_ready: Condvar,
    /// Signals the `run` caller: all tasks of the current generation done.
    work_done: Condvar,
}

/// The borrowed `run` closure with its lifetime erased.
///
/// # Safety
///
/// The pointer is published under the pool mutex and copied out only when a
/// task of the matching generation is claimed; `run` does not return until
/// `completed == tasks` (and `completed` is bumped only after the closure
/// call finishes), so every dereference happens while the original borrow is
/// still on the caller's stack.
#[derive(Clone, Copy)]
struct ErasedJob(*const (dyn Fn(usize, usize) + Sync));

unsafe impl Send for ErasedJob {}

struct PoolState {
    job: Option<ErasedJob>,
    generation: u64,
    tasks: usize,
    next_task: usize,
    completed: usize,
    panicked: bool,
    shutdown: bool,
}

impl FusionPool {
    /// Builds a pool with `threads` workers total (clamped to ≥ 1). The
    /// calling thread counts as worker 0, so `threads − 1` OS threads are
    /// spawned.
    pub fn new(threads: usize) -> FusionPool {
        let workers = threads.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                job: None,
                generation: 0,
                tasks: 0,
                next_task: 0,
                completed: 0,
                panicked: false,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            work_done: Condvar::new(),
        });
        let handles = (1..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("fusion-{w}"))
                    .spawn(move || Self::worker_loop(&shared, w))
                    .expect("spawn fusion worker")
            })
            .collect();
        FusionPool {
            shared,
            workers,
            handles,
        }
    }

    /// Total worker count, the caller included.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `f(worker, task)` for every `task` in `0..tasks`, distributing
    /// tasks across the workers, and returns once **all** tasks finished.
    /// `worker` is in `0..self.workers()` and two concurrent calls never
    /// share a worker index, so per-worker scratch needs no locking beyond a
    /// `Mutex` per slot.
    ///
    /// Not reentrant: `f` must not call back into `run` on the same pool.
    ///
    /// # Panics
    ///
    /// Propagates (as a fresh panic) if any task panicked.
    pub fn run(&self, tasks: usize, f: &(dyn Fn(usize, usize) + Sync)) {
        if tasks == 0 {
            return;
        }
        if self.workers == 1 || tasks == 1 {
            // Nothing to distribute: run inline without touching the pool.
            for t in 0..tasks {
                f(0, t);
            }
            return;
        }

        // Erase the closure's lifetime. Sound per the `ErasedJob` contract:
        // this function does not return until every claimed task completed.
        let job = ErasedJob(unsafe {
            std::mem::transmute::<
                &(dyn Fn(usize, usize) + Sync),
                *const (dyn Fn(usize, usize) + Sync),
            >(f)
        });
        {
            let mut st = self.shared.state.lock().unwrap();
            assert!(st.job.is_none(), "FusionPool::run is not reentrant");
            st.job = Some(job);
            st.generation += 1;
            st.tasks = tasks;
            st.next_task = 0;
            st.completed = 0;
            st.panicked = false;
            self.shared.work_ready.notify_all();
        }

        // The caller participates as worker 0.
        Self::drain_tasks(&self.shared, 0);

        let mut st = self.shared.state.lock().unwrap();
        while st.completed < st.tasks {
            st = self.shared.work_done.wait(st).unwrap();
        }
        st.job = None;
        let panicked = st.panicked;
        drop(st);
        if panicked {
            panic!("a fusion pool task panicked");
        }
    }

    /// Claims and executes tasks of the current generation until none are
    /// left. Shared by the `run` caller and the spawned workers.
    fn drain_tasks(shared: &PoolShared, worker: usize) {
        loop {
            let (job, task) = {
                let mut st = shared.state.lock().unwrap();
                if st.job.is_none() || st.next_task >= st.tasks {
                    return;
                }
                let task = st.next_task;
                st.next_task += 1;
                (st.job.expect("checked above"), task)
            };
            // Safety: see `ErasedJob` — the claim above happened under the
            // lock within the publishing generation, and `run` blocks until
            // `completed == tasks`.
            let f = unsafe { &*job.0 };
            let outcome = catch_unwind(AssertUnwindSafe(|| f(worker, task)));
            let mut st = shared.state.lock().unwrap();
            if outcome.is_err() {
                st.panicked = true;
            }
            st.completed += 1;
            if st.completed == st.tasks {
                shared.work_done.notify_all();
            }
        }
    }

    fn worker_loop(shared: &PoolShared, worker: usize) {
        let mut seen_generation = 0u64;
        loop {
            {
                let mut st = shared.state.lock().unwrap();
                loop {
                    if st.shutdown {
                        return;
                    }
                    if st.job.is_some() && st.generation != seen_generation {
                        seen_generation = st.generation;
                        break;
                    }
                    st = shared.work_ready.wait(st).unwrap();
                }
            }
            Self::drain_tasks(shared, worker);
        }
    }
}

impl Drop for FusionPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
            self.shared.work_ready.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The fusion partition of a [`WindowPlan`]: the position chain split into
/// `min(threads, positions)` contiguous, near-equal leaf blocks. Shapes and
/// their `ShortestPaths` / `SparseIndex` / `UnionFindCapacities` tables stay
/// deduplicated in the underlying plan — fusion adds only this partition (a
/// few dozen bytes), so it caches almost for free next to the window plan.
#[derive(Debug)]
pub struct FusionPlan {
    plan: Arc<WindowPlan>,
    threads: usize,
    leaves: Vec<Range<usize>>,
}

impl FusionPlan {
    /// Partitions `plan`'s positions into one leaf block per fusion thread
    /// (clamped to the position count — a plan shorter than the thread count
    /// simply yields fewer, still non-empty, leaves). Ragged spans are
    /// handled by giving the first `positions % leaves` blocks one extra
    /// position.
    pub fn new(plan: Arc<WindowPlan>, threads: usize) -> FusionPlan {
        let threads = threads.max(1);
        let n = plan.num_positions();
        let leaf_count = threads.min(n).max(1);
        let (base, extra) = (n / leaf_count, n % leaf_count);
        let mut leaves = Vec::with_capacity(leaf_count);
        let mut start = 0;
        for i in 0..leaf_count {
            let len = base + usize::from(i < extra);
            leaves.push(start..start + len);
            start += len;
        }
        debug_assert_eq!(start, n);
        FusionPlan {
            plan,
            threads,
            leaves,
        }
    }

    /// The underlying sliding-window plan.
    pub fn window_plan(&self) -> &Arc<WindowPlan> {
        &self.plan
    }

    /// The fusion thread count this plan was partitioned for.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The leaf blocks (contiguous position ranges, in order).
    pub fn leaves(&self) -> &[Range<usize>] {
        &self.leaves
    }

    /// Approximate resident bytes of the partition itself. The shared
    /// [`WindowPlan`] is priced by its own cache entry — counting it again
    /// here would double-bill the artifact cache.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<FusionPlan>() + self.leaves.len() * std::mem::size_of::<Range<usize>>()
    }
}

/// One window position's fused decode state: the carry chain link and the
/// position's outcome partials.
#[derive(Default)]
struct PositionRecord {
    carry_in: Vec<usize>,
    carry_out: Vec<usize>,
    flip: bool,
    weight: f64,
}

/// The intra-shot parallel [`StreamingDecoder`]: buffers pushed rounds, then
/// at [`StreamingDecoder::finish`] decodes leaf blocks concurrently and
/// fuses them up the balanced merge tree. Bit-identical to the sequential
/// [`WindowedDecoder`] (see the module docs for why); the per-shot latency
/// sample is the *wall time* of `finish` — the number fusion actually
/// improves — rather than the sequential path's summed per-window times.
pub struct FusionDecoder<'p> {
    plan: &'p FusionPlan,
    pool: Arc<FusionPool>,
    /// One replay engine per pool worker, locked for the duration of a leaf
    /// or merge task (worker indices are exclusive per `run`, so the lock is
    /// uncontended — it exists to make the `&self` task closures safe).
    engines: Vec<Mutex<WindowedDecoder<'p>>>,
    records: Vec<Mutex<PositionRecord>>,
    /// Flat per-shot defect buffer (global node ids) + per-round offsets:
    /// `defect_starts[r]` is the index of round `r`'s first defect.
    defects: Vec<usize>,
    defect_starts: Vec<usize>,
    /// Flat erasure buffer (global edge indices, push order) + offsets.
    erasures: Vec<usize>,
    erasure_starts: Vec<usize>,
    round_cursor: usize,
    total_defects: usize,
    /// One `(nanos, rounds)` sample per shot (cleared by `begin_shot`).
    latencies: Vec<(u64, u32)>,
}

impl<'p> FusionDecoder<'p> {
    /// Builds a fused decoder over `plan`, scheduling on `pool`. One replay
    /// engine is stamped out per pool worker from the plan's shared shape
    /// tables (cheap: `Arc` clones plus empty scratch).
    pub fn new(plan: &'p FusionPlan, pool: Arc<FusionPool>) -> FusionDecoder<'p> {
        let wp: &'p WindowPlan = plan.window_plan();
        let engines = (0..pool.workers())
            .map(|_| Mutex::new(wp.streaming()))
            .collect();
        let records = (0..wp.num_positions())
            .map(|_| Mutex::new(PositionRecord::default()))
            .collect();
        FusionDecoder {
            plan,
            pool,
            engines,
            records,
            defects: Vec::new(),
            defect_starts: Vec::new(),
            erasures: Vec::new(),
            erasure_starts: Vec::new(),
            round_cursor: 0,
            total_defects: 0,
            latencies: Vec::new(),
        }
    }

    /// The fusion plan this decoder runs.
    pub fn plan(&self) -> &FusionPlan {
        self.plan
    }

    fn flat_start(starts: &[usize], flat_len: usize, round: usize) -> usize {
        starts.get(round).copied().unwrap_or(flat_len)
    }

    /// The fresh defects position `k` consumes: rounds `(hi_{k−1}, hi_k]`.
    fn fresh(&self, k: usize) -> &[usize] {
        let wp = self.plan.window_plan();
        let from = if k == 0 { 0 } else { wp.position_hi(k - 1) + 1 };
        let a = Self::flat_start(&self.defect_starts, self.defects.len(), from);
        let b = Self::flat_start(
            &self.defect_starts,
            self.defects.len(),
            wp.position_hi(k) + 1,
        );
        &self.defects[a..b]
    }

    /// Every erasure pushed by the time position `k` decodes sequentially
    /// (rounds `0..=hi_k`). A superset of the sequential live set is fine:
    /// the sequential path only retires erasures that no remaining window's
    /// edge range can contain, so the extras never map into position `k`.
    fn erasures_through(&self, k: usize) -> &[usize] {
        let hi = self.plan.window_plan().position_hi(k);
        let b = Self::flat_start(&self.erasure_starts, self.erasures.len(), hi + 1);
        &self.erasures[..b]
    }

    /// Leaf task: decode the leaf's positions in order, speculating an empty
    /// carry at the leaf's left edge.
    fn decode_leaf(&self, worker: usize, leaf: usize) {
        let range = self.plan.leaves()[leaf].clone();
        let mut engine = self.engines[worker].lock().unwrap();
        let mut carry: Vec<usize> = Vec::new();
        let mut carry_out: Vec<usize> = Vec::new();
        for k in range {
            let (flip, weight) = engine.replay_position(
                k,
                &carry,
                self.fresh(k),
                self.erasures_through(k),
                &mut carry_out,
            );
            let mut rec = self.records[k].lock().unwrap();
            rec.flip = flip;
            rec.weight = weight;
            rec.carry_in.clear();
            rec.carry_in.extend_from_slice(&carry);
            rec.carry_out.clear();
            rec.carry_out.extend_from_slice(&carry_out);
            drop(rec);
            std::mem::swap(&mut carry, &mut carry_out);
        }
    }

    /// Merge task: fuse two adjacent blocks by replaying the right block's
    /// positions with the left block's actual carry-out, stopping at the
    /// first position whose recorded carry-in already matches (from there on
    /// the right block's chain is a valid continuation and splices
    /// wholesale).
    fn merge(&self, worker: usize, left: &Range<usize>, right: &Range<usize>) {
        debug_assert_eq!(left.end, right.start, "merging non-adjacent blocks");
        let mut carry = self.records[left.end - 1].lock().unwrap().carry_out.clone();
        let mut engine = self.engines[worker].lock().unwrap();
        let mut carry_out: Vec<usize> = Vec::new();
        for k in right.clone() {
            if self.records[k].lock().unwrap().carry_in == carry {
                return; // reconverged with the speculative chain
            }
            let (flip, weight) = engine.replay_position(
                k,
                &carry,
                self.fresh(k),
                self.erasures_through(k),
                &mut carry_out,
            );
            let mut rec = self.records[k].lock().unwrap();
            rec.flip = flip;
            rec.weight = weight;
            rec.carry_in.clear();
            rec.carry_in.extend_from_slice(&carry);
            rec.carry_out.clear();
            rec.carry_out.extend_from_slice(&carry_out);
            drop(rec);
            std::mem::swap(&mut carry, &mut carry_out);
        }
    }
}

impl StreamingDecoder for FusionDecoder<'_> {
    fn begin_shot(&mut self) {
        self.defects.clear();
        self.defect_starts.clear();
        self.erasures.clear();
        self.erasure_starts.clear();
        self.round_cursor = 0;
        self.total_defects = 0;
        self.latencies.clear();
    }

    fn push_round(&mut self, defects: &[usize], erasures: &[usize]) {
        let r = self.round_cursor;
        assert!(
            r <= self.plan.window_plan().max_round(),
            "round {r} beyond the experiment"
        );
        debug_assert!(
            defects.windows(2).all(|w| w[0] < w[1]),
            "per-round defects must be ascending"
        );
        self.defect_starts.push(self.defects.len());
        self.defects.extend_from_slice(defects);
        self.erasure_starts.push(self.erasures.len());
        self.erasures.extend_from_slice(erasures);
        self.total_defects += defects.len();
        self.round_cursor += 1;
    }

    fn finish(&mut self) -> DecodeOutcome {
        let started = Instant::now();
        let pool = Arc::clone(&self.pool);

        // Phase 1: decode all leaves concurrently (speculative carries).
        {
            let this: &FusionDecoder<'_> = self;
            pool.run(self.plan.leaves().len(), &|worker, leaf| {
                this.decode_leaf(worker, leaf)
            });
        }

        // Phase 2: fuse adjacent blocks up the balanced tree. Each level
        // merges disjoint pairs concurrently; an odd block out waits for the
        // next level.
        let mut blocks: Vec<Range<usize>> = self.plan.leaves().to_vec();
        while blocks.len() > 1 {
            let pairs = blocks.len() / 2;
            {
                let this: &FusionDecoder<'_> = self;
                let blocks = &blocks;
                pool.run(pairs, &|worker, m| {
                    this.merge(worker, &blocks[2 * m], &blocks[2 * m + 1])
                });
            }
            let mut next: Vec<Range<usize>> = (0..pairs)
                .map(|m| blocks[2 * m].start..blocks[2 * m + 1].end)
                .collect();
            if blocks.len() % 2 == 1 {
                next.push(blocks.last().expect("non-empty").clone());
            }
            blocks = next;
        }

        // Phase 3: fold the per-position partials in position order — the
        // same XOR/f64 chain the sequential path computes.
        let mut flip = false;
        let mut weight = 0.0f64;
        for rec in &self.records {
            let rec = rec.lock().unwrap();
            flip ^= rec.flip;
            weight += rec.weight;
        }
        debug_assert!(
            self.records
                .last()
                .is_none_or(|r| r.lock().unwrap().carry_out.is_empty()),
            "final window left defects"
        );

        let nanos = started.elapsed().as_nanos() as u64;
        let span = self.plan.window_plan().max_round() + 1;
        self.latencies.push((nanos, span as u32));
        DecodeOutcome {
            flip,
            weight,
            defects: self.total_defects,
            nanos,
        }
    }

    fn name(&self) -> &'static str {
        self.plan.window_plan().backend().name()
    }

    /// One `(wall nanos of finish, rounds spanned)` sample per shot.
    fn latency_samples(&self) -> &[(u64, u32)] {
        &self.latencies
    }

    /// Applies to every replay engine.
    fn set_predecode(&mut self, on: bool) {
        for engine in &self.engines {
            engine.lock().unwrap().set_predecode(on);
        }
    }

    /// Merged across every replay engine. Counts decode *attempts*: a
    /// position replayed again during a merge contributes a second sample,
    /// so totals can exceed the position count — hit *rates* remain
    /// meaningful.
    fn tier_counters(&self) -> TierCounters {
        let mut total = TierCounters::default();
        for engine in &self.engines {
            total.merge(engine.lock().unwrap().tier_counters());
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn pool_runs_every_task_exactly_once() {
        let pool = FusionPool::new(4);
        assert_eq!(pool.workers(), 4);
        for tasks in [0usize, 1, 3, 4, 17, 64] {
            let hits: Vec<AtomicUsize> = (0..tasks).map(|_| AtomicUsize::new(0)).collect();
            pool.run(tasks, &|worker, task| {
                assert!(worker < 4);
                hits[task].fetch_add(1, Ordering::SeqCst);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::SeqCst) == 1),
                "{tasks} tasks"
            );
        }
    }

    #[test]
    fn pool_reuses_across_many_generations() {
        let pool = FusionPool::new(3);
        let total = AtomicUsize::new(0);
        for _ in 0..200 {
            pool.run(5, &|_, _| {
                total.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(total.load(Ordering::SeqCst), 1000);
    }

    #[test]
    fn single_worker_pool_runs_inline() {
        let pool = FusionPool::new(1);
        let mut order = Vec::new();
        let cell = Mutex::new(&mut order);
        pool.run(4, &|worker, task| {
            assert_eq!(worker, 0);
            cell.lock().unwrap().push(task);
        });
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn pool_propagates_task_panics() {
        let pool = FusionPool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, &|_, task| {
                if task == 5 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // And the pool still works afterwards.
        let count = AtomicUsize::new(0);
        pool.run(4, &|_, _| {
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 4);
    }
}
