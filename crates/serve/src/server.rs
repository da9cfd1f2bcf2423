//! The `eraser-serve` server: accept loop, bounded job queue, executor.
//!
//! Threading model:
//!
//! * one **accept thread** spawns a connection thread per client;
//! * each **connection thread** parses frames, enqueues jobs, and streams
//!   that job's result frames back to its own client;
//! * one **executor thread** pops jobs in FIFO order and runs them
//!   *sequentially* through [`Sweep::try_for_each_cached`] — each job then
//!   shards its shots across the worker pool internally (`threads =
//!   workers`). Sequential jobs keep per-job latency deterministic and let
//!   one job use the whole pool; concurrency across clients comes from
//!   pipelining (queue depth), which is what a decoding service wants
//!   under heavy traffic.
//!
//! Backpressure: the queue is bounded; a submit that finds it full gets an
//! immediate `busy` frame (never a hang, never an unbounded buffer).
//!
//! Isolation: a job that panics is answered with an `error` frame and a
//! `done` frame with `completed: false`; the executor moves on to the next
//! job, and every lock tolerates the poisoning a panic may leave behind.
//!
//! Shutdown: a `shutdown` frame (or [`ServerHandle::shutdown`]) sets the
//! flag, wakes the accept loop with a self-connection, and the executor
//! *drains* every already-accepted job before exiting — accepted work is
//! never dropped. Connection threads poll the flag via 100 ms read
//! timeouts between frames.

use crate::protocol::{
    write_frame, FrameReader, JobSpec, ReadOutcome, MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
use eraser_core::{ArtifactCache, Sweep, SweepPoint};
use eraser_json::Value;
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often idle connection threads wake to poll the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7171` (port 0 picks a free port).
    pub addr: String,
    /// Worker threads each job's shots shard across; 0 = all cores.
    pub workers: usize,
    /// Bounded job-queue depth; submits beyond it get `busy`.
    pub queue_capacity: usize,
    /// Artifact-cache budget in bytes.
    pub cache_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:7171".to_string(),
            workers: 0,
            queue_capacity: 64,
            cache_bytes: 256 << 20,
        }
    }
}

struct QueuedJob {
    id: u64,
    sweep: Sweep,
    cells: usize,
    reply: mpsc::Sender<Value>,
}

#[derive(Default)]
struct QueueState {
    jobs: VecDeque<QueuedJob>,
}

#[derive(Default)]
struct Counters {
    jobs_done: u64,
    points_streamed: u64,
}

/// Locks `mutex`, also when a panic poisoned it: the code under these
/// locks only pushes, pops and counts, and runs no job code, so a panic
/// leaves no half-made update behind.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

struct Shared {
    state: Mutex<QueueState>,
    /// Signals the executor: a job arrived or shutdown began.
    work: Condvar,
    cache: ArtifactCache,
    workers: usize,
    queue_capacity: usize,
    counters: Mutex<Counters>,
    shutdown: AtomicBool,
    next_job_id: AtomicU64,
    addr: SocketAddr,
}

impl Shared {
    fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        self.work.notify_all();
        // Unblock the accept loop; the no-op connection is dropped
        // immediately and the loop re-checks the flag.
        let _ = TcpStream::connect(self.addr);
    }
}

/// A running server. Dropping the handle does **not** stop it; call
/// [`ServerHandle::shutdown`] (or send a `shutdown` frame) and then
/// [`ServerHandle::wait`].
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept: JoinHandle<()>,
    executor: JoinHandle<()>,
}

impl ServerHandle {
    /// Binds `config.addr` and spawns the accept + executor threads.
    pub fn start(config: ServerConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(
            config
                .addr
                .to_socket_addrs()?
                .next()
                .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "bad address"))?,
        )?;
        let addr = listener.local_addr()?;
        let workers = if config.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            config.workers
        };
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState::default()),
            work: Condvar::new(),
            cache: ArtifactCache::new(config.cache_bytes),
            workers,
            queue_capacity: config.queue_capacity.max(1),
            counters: Mutex::new(Counters::default()),
            shutdown: AtomicBool::new(false),
            next_job_id: AtomicU64::new(1),
            addr,
        });

        let executor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || executor_loop(&shared))
        };
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(listener, &shared))
        };
        Ok(ServerHandle {
            shared,
            accept,
            executor,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Initiates graceful shutdown: stop accepting, drain accepted jobs.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Blocks until the accept loop and executor have exited (i.e. after
    /// [`ServerHandle::shutdown`] or a client's `shutdown` frame).
    pub fn wait(self) {
        let _ = self.accept.join();
        let _ = self.executor.join();
    }
}

fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    let mut connections: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match stream {
            Ok(stream) => {
                let shared = Arc::clone(shared);
                connections.push(std::thread::spawn(move || {
                    // Connection errors (abrupt disconnects, bad frames)
                    // only ever affect that client.
                    let _ = handle_connection(stream, &shared);
                }));
            }
            Err(_) => continue,
        }
    }
    for handle in connections {
        let _ = handle.join();
    }
}

fn executor_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut state = lock(&shared.state);
            loop {
                if let Some(job) = state.jobs.pop_front() {
                    break job;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                state = shared
                    .work
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let before = shared.cache.stats();
        let start = Instant::now();
        let mut cells_run = 0usize;
        let run = panic::catch_unwind(AssertUnwindSafe(|| {
            job.sweep.try_for_each_cached(&shared.cache, |point| {
                cells_run += 1;
                // A failed send means the client vanished; abandon the rest
                // of the grid rather than burning the pool on unwanted work.
                job.reply.send(point_frame(job.id, &point)).is_ok()
            })
        }));
        let completed = run.unwrap_or_else(|payload| {
            let reason = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("unknown cause");
            let message = format!("job {} panicked: {reason}", job.id);
            let _ = job.reply.send(error_frame(&message));
            false
        });
        let after = shared.cache.stats();
        let micros = start.elapsed().as_micros() as u64;
        {
            let mut counters = lock(&shared.counters);
            counters.jobs_done += 1;
            counters.points_streamed += cells_run as u64;
        }
        let mut done = Value::object();
        done.set("type", "done");
        done.set("job", job.id);
        done.set("cells", job.cells);
        done.set("cells_run", cells_run);
        done.set("completed", completed);
        done.set("micros", micros);
        done.set("cache_hits", after.hits - before.hits);
        done.set("cache_misses", after.misses - before.misses);
        let _ = job.reply.send(done);
    }
}

/// Renders one sweep cell as a `point` frame. Integer statistics ride as
/// exact integers and f64 metrics use shortest-round-trip formatting, so a
/// client parsing the frame recovers the in-process values bit-for-bit.
fn point_frame(job: u64, point: &SweepPoint) -> Value {
    let r = &point.result;
    let mut v = Value::object();
    v.set("type", "point");
    v.set("job", job);
    v.set("distance", point.distance);
    v.set("p", point.p);
    v.set("rounds", point.rounds);
    v.set("policy", point.policy.as_str());
    v.set("decoder", r.decoder.as_str());
    v.set("shots", r.shots);
    v.set("logical_errors", r.logical_errors);
    v.set("ler", r.ler());
    v.set("total_lrcs", r.total_lrcs);
    v.set("total_erasures", r.total_erasures);
    v.set("spec_tp", r.speculation.true_positive);
    v.set("spec_fp", r.speculation.false_positive);
    v.set("spec_fn", r.speculation.false_negative);
    v.set("spec_tn", r.speculation.true_negative);
    v.set("spec_accuracy", r.speculation.accuracy());
    if r.controller.is_active() {
        v.set("ctrl_escalations", r.controller.escalations);
        v.set("ctrl_rounds_escalated", r.controller.rounds_escalated);
        v.set("ctrl_rounds_base", r.controller.rounds_base);
        v.set("ctrl_mean_estimate", r.controller.mean_estimate());
        v.set("ctrl_peak_estimate", r.controller.peak_estimate());
    }
    if r.predecode.is_active() {
        v.set("predecode_tier0", r.predecode.hits[0]);
        v.set("predecode_tier1", r.predecode.hits[1]);
        v.set("predecode_tier2", r.predecode.hits[2]);
        v.set("predecode_tier1_nanos", r.predecode.nanos[1]);
        v.set("predecode_tier2_nanos", r.predecode.nanos[2]);
    }
    v.set("flagged_shots", r.postselection.flagged_shots);
    v.set("errors_on_kept", r.postselection.errors_on_kept);
    v.set(
        "lpr_total",
        Value::Array(r.lpr_total.iter().map(|&x| Value::from(x)).collect()),
    );
    v
}

fn stats_frame(shared: &Shared) -> Value {
    let cache = shared.cache.stats();
    let counters = lock(&shared.counters);
    let queued = lock(&shared.state).jobs.len();
    let mut v = Value::object();
    v.set("type", "stats");
    v.set("jobs_done", counters.jobs_done);
    v.set("points_streamed", counters.points_streamed);
    v.set("queued", queued);
    v.set("workers", shared.workers);
    v.set("cache_hits", cache.hits);
    v.set("cache_misses", cache.misses);
    v.set("cache_evictions", cache.evictions);
    v.set("cache_entries", cache.entries);
    v.set("cache_bytes", cache.bytes);
    v
}

fn error_frame(message: &str) -> Value {
    let mut v = Value::object();
    v.set("type", "error");
    v.set("message", message);
    v
}

fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) -> io::Result<()> {
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    stream.set_nodelay(true).ok();
    let mut writer = stream.try_clone()?;
    let mut reader = FrameReader::new(stream);
    loop {
        let frame = match reader.read()? {
            ReadOutcome::Frame(frame) => frame,
            ReadOutcome::Idle => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return Ok(());
                }
                continue;
            }
            ReadOutcome::Eof => return Ok(()),
        };
        let kind = frame.get("type").and_then(|t| t.as_str()).unwrap_or("");
        match kind {
            "ping" => {
                let mut pong = Value::object();
                pong.set("type", "pong");
                pong.set("version", PROTOCOL_VERSION);
                pong.set("workers", shared.workers);
                pong.set("queue_capacity", shared.queue_capacity);
                pong.set("max_frame_bytes", MAX_FRAME_BYTES);
                write_frame(&mut writer, &pong)?;
            }
            "stats" => write_frame(&mut writer, &stats_frame(shared))?,
            "shutdown" => {
                let mut bye = Value::object();
                bye.set("type", "bye");
                write_frame(&mut writer, &bye)?;
                shared.begin_shutdown();
                return Ok(());
            }
            "submit" => handle_submit(&frame, &mut writer, shared)?,
            other => {
                write_frame(
                    &mut writer,
                    &error_frame(&format!("unknown frame type `{other}`")),
                )?;
            }
        }
    }
}

fn handle_submit(frame: &Value, writer: &mut TcpStream, shared: &Arc<Shared>) -> io::Result<()> {
    if shared.shutdown.load(Ordering::SeqCst) {
        return write_frame(writer, &error_frame("server is shutting down"));
    }
    let spec = match JobSpec::from_frame(frame) {
        Ok(spec) => spec,
        Err(message) => return write_frame(writer, &error_frame(&message)),
    };
    // Validation happens through the Sweep facade *before* the job can
    // occupy a queue slot, so malformed jobs cost the executor nothing.
    let sweep = match spec.build_sweep(shared.workers) {
        Ok(sweep) => sweep,
        Err(message) => return write_frame(writer, &error_frame(&message)),
    };
    let cells = sweep.len();
    let (tx, rx) = mpsc::channel();
    let id = {
        let mut state = lock(&shared.state);
        if shared.shutdown.load(Ordering::SeqCst) {
            drop(state);
            return write_frame(writer, &error_frame("server is shutting down"));
        }
        if state.jobs.len() >= shared.queue_capacity {
            let queued = state.jobs.len();
            drop(state);
            let mut busy = Value::object();
            busy.set("type", "busy");
            busy.set("queued", queued);
            busy.set("capacity", shared.queue_capacity);
            return write_frame(writer, &busy);
        }
        let id = shared.next_job_id.fetch_add(1, Ordering::SeqCst);
        state.jobs.push_back(QueuedJob {
            id,
            sweep,
            cells,
            reply: tx,
        });
        id
    };
    shared.work.notify_one();

    let mut accepted = Value::object();
    accepted.set("type", "accepted");
    accepted.set("job", id);
    accepted.set("cells", cells);
    write_frame(writer, &accepted)?;

    // Stream this job's frames until `done`. The executor drains every
    // accepted job even during shutdown, so `recv` always terminates; a
    // write failure means the client vanished and dropping `rx` tells the
    // executor to abandon the remaining cells.
    loop {
        let frame = match rx.recv() {
            Ok(frame) => frame,
            Err(_) => return Ok(()),
        };
        let is_done = frame.get("type").and_then(|t| t.as_str()) == Some("done");
        write_frame(writer, &frame)?;
        if is_done {
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eraser_core::PolicyKind;

    fn enqueue(shared: &Shared, sweep: Sweep) -> mpsc::Receiver<Value> {
        let (reply, rx) = mpsc::channel();
        let cells = sweep.len();
        let id = shared.next_job_id.fetch_add(1, Ordering::SeqCst);
        lock(&shared.state).jobs.push_back(QueuedJob {
            id,
            sweep,
            cells,
            reply,
        });
        shared.work.notify_one();
        rx
    }

    fn frame_type(frame: &Value) -> &str {
        frame.get("type").and_then(|t| t.as_str()).unwrap_or("")
    }

    /// A job whose policy factory panics is answered with `error` and an
    /// incomplete `done`; the executor survives it, and the normal job
    /// queued behind it runs to completion.
    #[test]
    fn executor_survives_a_panicking_job() {
        let server = ServerHandle::start(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            queue_capacity: 4,
            cache_bytes: 16 << 20,
        })
        .expect("bind ephemeral port");
        let sweep = |policy: PolicyKind| {
            Sweep::builder()
                .distances([3])
                .error_rates([1e-3])
                .policy(policy)
                .rounds(3)
                .shots(64)
                .threads(1)
                .build()
                .expect("valid sweep")
        };
        let failing = enqueue(
            &server.shared,
            sweep(PolicyKind::custom("boom", |_| {
                panic!("policy factory failed")
            })),
        );
        let normal = enqueue(&server.shared, sweep(PolicyKind::eraser()));

        let frames: Vec<Value> = failing.iter().collect();
        let kinds: Vec<&str> = frames.iter().map(frame_type).collect();
        assert_eq!(kinds, ["error", "done"]);
        let message = frames[0].get("message").and_then(|m| m.as_str()).unwrap();
        assert!(message.contains("policy factory failed"), "{message}");
        assert_eq!(
            frames[1].get("completed").and_then(|c| c.as_bool()),
            Some(false)
        );

        let frames: Vec<Value> = normal.iter().collect();
        let kinds: Vec<&str> = frames.iter().map(frame_type).collect();
        assert_eq!(kinds, ["point", "done"]);
        assert_eq!(
            frames[1].get("completed").and_then(|c| c.as_bool()),
            Some(true)
        );
        assert_eq!(frames[0].get("shots").and_then(|s| s.as_u64()), Some(64));

        server.shutdown();
        server.wait();
    }
}
