//! Cross-request micro-batching: the serving front end over compiled
//! [`InferencePlan`]s.
//!
//! The engine ([`crate::engine`]) made one process fast; this module makes
//! that process *serve*: many concurrent callers submit single samples, a
//! [`BatchServer`] coalesces them into batches and executes them on one
//! shared [`InferencePlan`]: plans are `&self` to execute and pool their
//! workspace arenas per call, so every worker thread runs the same `Arc`
//! and N workers cost one copy of the prepared weights and product tables.
//!
//! # The batching contract
//!
//! * **Bit-identity.** Defensive Approximation's perturbation is *the
//!   arithmetic itself* (paper §4), so a sample's logits must not depend on
//!   which requests it happened to share a batch with. [`InferencePlan`]
//!   runs batch items independently (per-item reduction order, operand
//!   order, and special-value branches are all pinned to the per-layer
//!   reference), so logits returned by [`BatchServer::submit`] are
//!   bit-identical to a serial [`InferencePlan::predict_batch`] on the same
//!   sample — for every [`da_arith::MultiplierKind`], under any concurrent
//!   schedule. `crates/nn/tests/serve_conformance.rs` property-tests this
//!   under adversarial scheduling (tiny `max_batch`, zero deadline,
//!   queue-full backpressure).
//! * **Ordering.** The queue is FIFO: workers always dispatch the oldest
//!   pending request first, extending the batch with the longest prefix of
//!   same-shape requests (up to [`ServeConfig::max_batch`]). Responses
//!   travel on per-request channels, so callers never observe each other.
//! * **Batch formation.** A worker that finds fewer than `max_batch`
//!   requests queued waits up to [`ServeConfig::flush_deadline`] (a
//!   [`Condvar`] timeout) for more to arrive, then flushes whatever is
//!   there. A zero deadline dispatches immediately — batches still form
//!   opportunistically whenever submitters outpace workers.
//! * **Backpressure.** The queue holds at most
//!   [`ServeConfig::queue_capacity`] requests. [`BatchServer::submit`]
//!   blocks until space frees up; [`BatchServer::try_submit`] returns
//!   [`ServeError::QueueFull`] instead.
//! * **Failure containment.** A request that cannot execute (e.g. a shape
//!   the plan rejects) fails *its batch* with [`ServeError::Execution`];
//!   the worker survives and keeps serving subsequent requests.
//! * **Self-healing.** A panic that escapes the per-batch guard does not
//!   take the server down: the dying worker's in-flight requests fail with
//!   [`ServeError::WorkerDied`] (typed, never a hang), the supervisor
//!   respawns the worker ([`ServeStats::worker_restarts`] counts it), and
//!   every queue-lock site recovers from mutex poisoning instead of
//!   cascading panics into submitters.
//! * **Deadlines.** Requests may carry a deadline
//!   ([`BatchServer::submit_deadline`], or
//!   [`ServeConfig::default_deadline`] for all of them). Expired work is
//!   shed with [`ServeError::DeadlineExceeded`] — at admission, at
//!   dispatch, or by a background expiry sweep that covers requests no
//!   worker ever reaches — so a queued request can never strand its caller.
//! * **Overload control.** The server tracks an EWMA of per-item service
//!   time ([`ServeStats::ewma_service_ns`]) and *estimates* the queued
//!   wait at admission: a deadline-carrying request whose deadline the
//!   estimate already blows is shed immediately with
//!   [`ServeError::Overloaded`] (carrying a retry-after hint) instead of
//!   rotting in the queue — under sustained overload the queue sheds
//!   doomed work early and spends its capacity on requests that can still
//!   make their deadlines. When a non-blocking submit finds the queue
//!   full, the oldest queued request that is *already doomed* and
//!   deadline-sorts before the newcomer is shed in its favor
//!   (shed-oldest). [`ServeStats::shed_total`] counts both forms.
//! * **Graceful degradation (brownout).** Operators may install a cheaper
//!   *fallback* plan ([`BatchServer::set_fallback_plan`], e.g. an int8
//!   snapshot beside the f32 primary). Under sustained shed pressure
//!   ([`ServeConfig::brownout_enter_sheds`] sheds inside
//!   [`ServeConfig::brownout_window`]) dispatch fails over to the
//!   fallback; replies carry [`Reply::degraded`] so callers know, and
//!   [`ServeStats::degraded_total`] counts them. Recovery is hysteretic:
//!   the server returns to the primary only after
//!   [`ServeConfig::brownout_exit_quiet`] with no sheds.
//! * **Hot reload.** [`BatchServer::reload_plan`] /
//!   [`BatchServer::reload_from_snapshot`] atomically swap the served plan
//!   under live traffic: a replacement snapshot is fully validated before
//!   the swap (a corrupt file is rejected and the old plans keep serving),
//!   and [`ServeStats::generation`] records each successful swap. The
//!   swap also performs a **shape handshake**: a replacement whose
//!   serving interface ([`InferencePlan::interface`] — input/output
//!   shapes or precision family) differs from the current plan's is
//!   rejected with [`SnapshotError::Incompatible`], because swapping it
//!   in would silently change what connected clients get back.
//!
//!   [`SnapshotError::Incompatible`]: crate::snapshot::SnapshotError::Incompatible
//! * **Snapshot semantics.** The server serves the plan
//!   [`Network::plan`] holds at [`BatchServer::compile`] time (one compile
//!   shared with the network's own inference and gradients).
//!   Mutating the network afterwards (`set_multiplier`, `params_mut`, a
//!   training forward) invalidates the network's own cached plan but *not*
//!   the server's plan: the server keeps serving the snapshot, and
//!   [`BatchServer::is_stale`] reports the divergence (via
//!   [`Network::plan_epoch`]) so operators can rebuild.
//!
//! Servers can also serve **int8 plans**
//! ([`BatchServer::compile_quantized`]): the queue, batching, backpressure,
//! and failure-containment machinery is plan-agnostic, and quantized plans
//! are deterministic with independent batch items, so the bit-identity
//! contract holds against a serial run of the same quantized plan.
//!
//! # Quickstart
//!
//! ```
//! use da_arith::MultiplierKind;
//! use da_nn::serve::{BatchServer, ServeConfig};
//! use da_nn::zoo::lenet5;
//! use da_tensor::Tensor;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut net = lenet5(10, &mut rng);
//! net.set_multiplier(Some(MultiplierKind::AxFpm.build()));
//! let server = BatchServer::compile(&net, ServeConfig::default())
//!     .expect("zoo models compile");
//! // Submit from any number of threads; each caller gets its own logits.
//! let pending = server.submit(&Tensor::zeros(&[1, 28, 28])).unwrap();
//! let logits = pending.wait().unwrap();
//! assert_eq!(logits.shape(), &[10]);
//! assert!(!server.is_stale(&net));
//! ```

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use da_tensor::Tensor;

use crate::engine::InferencePlan;
use crate::loss::argmax_logits;
use crate::Network;

/// Micro-batching knobs for a [`BatchServer`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads, all executing the server's one shared
    /// [`InferencePlan`].
    ///
    /// `0` builds an accept-only server (requests queue but never execute)
    /// — useful for deterministic backpressure/shutdown tests; production
    /// servers want at least 1.
    pub workers: usize,
    /// Most samples a worker dispatches as one batch (≥ 1).
    pub max_batch: usize,
    /// The *longest* a worker holding fewer than `max_batch` requests waits
    /// for the batch to fill before flushing. Zero dispatches immediately
    /// (and disables adaptation).
    ///
    /// The effective deadline is **adaptive** per worker: each batch that
    /// fills to `max_batch` before the deadline (the server is loaded and
    /// batches form on their own) halves the worker's current deadline down
    /// to [`flush_deadline_min`](ServeConfig::flush_deadline_min), bounding
    /// the wait tax on tail latency; each deadline-expired partial flush
    /// (traffic is sparse) doubles it back up to `flush_deadline`, giving
    /// stragglers a chance to coalesce. Set
    /// `flush_deadline_min == flush_deadline` for a fixed deadline.
    pub flush_deadline: Duration,
    /// Floor for the adaptive flush deadline under load (see
    /// [`flush_deadline`](ServeConfig::flush_deadline)). Values above
    /// `flush_deadline` are clamped to it.
    pub flush_deadline_min: Duration,
    /// Most requests queued at once (≥ 1); beyond it, [`BatchServer::submit`]
    /// blocks and [`BatchServer::try_submit`] fails.
    pub queue_capacity: usize,
    /// Deadline applied to requests submitted without one of their own
    /// (measured from admission). `None` (the default) keeps the historical
    /// wait-forever behavior. Expired requests are shed with
    /// [`ServeError::DeadlineExceeded`] — before execution by the
    /// dispatching worker, and from the queue itself by a background expiry
    /// sweep, so a stranded request can never hang its caller.
    pub default_deadline: Option<Duration>,
    /// Sheds inside one [`brownout_window`](ServeConfig::brownout_window)
    /// that trip the brownout: once reached (and a fallback plan is
    /// installed — see [`BatchServer::set_fallback_plan`]), dispatch fails
    /// over to the fallback until pressure clears. Ignored without a
    /// fallback plan.
    pub brownout_enter_sheds: u32,
    /// Width of the sliding shed-pressure window (see
    /// [`brownout_enter_sheds`](ServeConfig::brownout_enter_sheds)).
    pub brownout_window: Duration,
    /// Hysteresis on recovery: the server leaves brownout only after this
    /// long with **no** sheds, so pressure oscillating around the
    /// threshold cannot flap dispatch between plans.
    pub brownout_exit_quiet: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        ServeConfig {
            workers,
            max_batch: 8,
            flush_deadline: Duration::from_micros(200),
            flush_deadline_min: Duration::from_micros(25),
            queue_capacity: workers.max(1) * 16,
            default_deadline: None,
            brownout_enter_sheds: 16,
            brownout_window: Duration::from_millis(500),
            brownout_exit_quiet: Duration::from_secs(2),
        }
    }
}

/// Why a request could not be served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The server is shutting down (or already has); the request was not
    /// executed.
    ShuttingDown,
    /// [`BatchServer::try_submit`] found the queue at capacity.
    QueueFull,
    /// The plan rejected the batch (panic message from the execution path,
    /// e.g. a shape mismatch). Other requests are unaffected.
    Execution(String),
    /// The request's deadline passed before it could execute; it was shed
    /// without running (see [`ServeConfig::default_deadline`]).
    DeadlineExceeded,
    /// The worker thread holding this request died (a panic escaped the
    /// batch execution guard). The request was *not* completed; the
    /// supervisor restarts the worker and later requests are unaffected
    /// (see [`ServeStats::worker_restarts`]).
    WorkerDied,
    /// Deadline-aware load shedding: the estimated queued wait (per-item
    /// service EWMA × backlog) already blows the request's deadline, so it
    /// was shed at admission instead of rotting in the queue — or it was
    /// the doomed oldest queued request traded away for a newer arrival.
    /// `retry_after` is the server's backlog-clearance estimate: a
    /// well-behaved client waits that long before retrying.
    Overloaded { retry_after: Duration },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::ShuttingDown => write!(f, "batch server is shutting down"),
            ServeError::QueueFull => write!(f, "batch server queue is full"),
            ServeError::Execution(msg) => write!(f, "batch execution failed: {msg}"),
            ServeError::DeadlineExceeded => {
                write!(f, "request deadline exceeded before execution")
            }
            ServeError::WorkerDied => {
                write!(f, "serving worker died with the request in flight")
            }
            ServeError::Overloaded { retry_after } => {
                write!(
                    f,
                    "server overloaded: estimated queue wait blows the deadline \
                     (retry after {retry_after:?})"
                )
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// A served request's logits: flattened data plus the per-item shape, and
/// whether the brownout fallback plan (rather than the primary) computed
/// them.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// Flattened logits for this sample alone (no batch axis).
    pub data: Vec<f32>,
    /// Per-item logits shape.
    pub shape: Vec<usize>,
    /// `true` when the reply came from the degraded (brownout) fallback
    /// plan — see [`BatchServer::set_fallback_plan`].
    pub degraded: bool,
}

/// Callback form of a reply destination (see
/// [`BatchServer::try_submit_with`]): invoked exactly once, on the worker
/// thread that executed (or failed) the request's batch.
pub type ReplyCallback = Box<dyn FnOnce(Result<Reply, ServeError>) + Send + 'static>;

/// The two reply destinations a [`ReplySink`] can hold.
enum SinkKind {
    Channel(mpsc::Sender<Result<Reply, ServeError>>),
    Callback(ReplyCallback),
}

/// Where a request's reply goes: the per-request channel behind
/// [`Pending`], or a caller-supplied callback (the socket front end routes
/// completions back into its reactor this way — a blocking `recv` has no
/// place on an event loop).
///
/// A sink is a **drop guard**: if it is dropped without [`send`] or
/// [`disarm`](ReplySink::disarm) — the only way that happens is a panic
/// unwinding a worker with the request in flight — it delivers
/// [`ServeError::WorkerDied`] so the caller is unblocked with a typed error
/// instead of hanging on a channel (or reactor completion) that will never
/// arrive.
///
/// [`send`]: ReplySink::send
struct ReplySink {
    inner: Option<SinkKind>,
}

impl ReplySink {
    fn channel(tx: mpsc::Sender<Result<Reply, ServeError>>) -> Self {
        ReplySink { inner: Some(SinkKind::Channel(tx)) }
    }

    fn callback(f: ReplyCallback) -> Self {
        ReplySink { inner: Some(SinkKind::Callback(f)) }
    }

    /// Deliver the reply. A dropped [`Pending`] (closed channel) is not an
    /// error; callbacks cannot fail.
    fn send(mut self, reply: Result<Reply, ServeError>) {
        Self::deliver(self.inner.take(), reply);
    }

    /// Defuse the drop guard *without* delivering anything: rejected
    /// submissions return the error to the submitter directly, and the
    /// documented [`BatchServer::try_submit_with`] contract is that on
    /// `Err` the callback is never invoked.
    fn disarm(mut self) {
        self.inner = None;
    }

    fn deliver(kind: Option<SinkKind>, reply: Result<Reply, ServeError>) {
        match kind {
            None => {}
            Some(SinkKind::Channel(tx)) => {
                let _ = tx.send(reply);
            }
            Some(SinkKind::Callback(f)) => f(reply),
        }
    }
}

impl Drop for ReplySink {
    fn drop(&mut self) {
        if let Some(kind) = self.inner.take() {
            // This drop can run while a worker panic unwinds; a callback
            // that itself panics here would abort the process (double
            // panic), so contain it.
            let _ = catch_unwind(AssertUnwindSafe(move || {
                Self::deliver(Some(kind), Err(ServeError::WorkerDied));
            }));
        }
    }
}

/// One queued inference request.
struct Request {
    data: Vec<f32>,
    shape: Vec<usize>,
    reply: ReplySink,
    /// Absolute expiry; `None` waits forever (the pre-deadline behavior).
    deadline: Option<Instant>,
}

/// Queue state behind the server's mutex.
struct QueueState {
    queue: VecDeque<Request>,
    shutdown: bool,
}

/// Monotonic serving counters (all `Relaxed`; read via [`ServeStats`]).
#[derive(Default)]
struct Counters {
    batches: AtomicU64,
    items: AtomicU64,
    largest_batch: AtomicU64,
    failed_batches: AtomicU64,
    /// The adaptive flush deadline (nanoseconds) a worker most recently
    /// dispatched under; observability only.
    flush_deadline_ns: AtomicU64,
    /// Workers respawned by the supervisor after an escaped panic.
    worker_restarts: AtomicU64,
    /// Requests shed with [`ServeError::DeadlineExceeded`] before execution.
    deadline_expired: AtomicU64,
    /// Plan generation: 0 at start, +1 per successful
    /// [`BatchServer::reload_plan`].
    generation: AtomicU64,
    /// Requests shed with [`ServeError::Overloaded`] (estimate-shed at
    /// admission plus shed-oldest victims).
    shed_total: AtomicU64,
    /// Items answered by the brownout fallback plan.
    degraded_total: AtomicU64,
    /// EWMA of per-item service time in nanoseconds (α = 1/8); 0 until the
    /// first batch completes. Benign racy read-modify-write: workers are
    /// few and the value is an estimate, not an invariant.
    ewma_service_ns: AtomicU64,
}

/// State shared between submitters and workers.
struct Shared {
    state: Mutex<QueueState>,
    /// Workers wait here for requests (and for batches to fill).
    not_empty: Condvar,
    /// Blocked submitters wait here for queue space.
    space: Condvar,
    counters: Counters,
    /// The served plan, shared by every worker. Workers fetch it per
    /// batch, so a hot reload ([`BatchServer::reload_plan`]) atomically
    /// swaps what the *next* batch executes on — in-flight batches finish
    /// on the plan they started with (the `Arc` keeps it alive).
    plan: RwLock<Arc<InferencePlan>>,
    /// The cheaper plan brownout dispatch fails over to (`None` until
    /// [`BatchServer::set_fallback_plan`] installs one).
    fallback: RwLock<Option<Arc<InferencePlan>>>,
    /// Whether dispatch is currently degraded to the fallback plan. Set by
    /// shed pressure ([`note_shed`]), cleared hysteretically by workers
    /// once the quiet period passes ([`brownout_active`]).
    degraded: std::sync::atomic::AtomicBool,
    /// Sliding-window shed pressure behind the brownout decision.
    brownout: Mutex<BrownoutState>,
    /// Brownout thresholds, copied from [`ServeConfig`] at start.
    brownout_cfg: BrownoutConfig,
}

/// Brownout thresholds (see the [`ServeConfig`] fields of the same names).
#[derive(Debug, Clone, Copy)]
struct BrownoutConfig {
    enter_sheds: u32,
    window: Duration,
    exit_quiet: Duration,
}

/// Shed-pressure accounting behind the brownout decision.
struct BrownoutState {
    /// Start of the current pressure window.
    window_start: Instant,
    /// Sheds observed inside the current window.
    sheds: u32,
    /// The most recent shed — recovery requires `exit_quiet` past this.
    last_shed: Instant,
}

/// Record one shed for brownout accounting and trip the brownout when the
/// window threshold is reached (only if a fallback plan is installed —
/// degrading to nothing would serve nothing).
fn note_shed(shared: &Shared) {
    let now = Instant::now();
    let mut b = shared.brownout.lock().unwrap_or_else(PoisonError::into_inner);
    if now.duration_since(b.window_start) > shared.brownout_cfg.window {
        b.window_start = now;
        b.sheds = 0;
    }
    b.sheds = b.sheds.saturating_add(1);
    b.last_shed = now;
    if b.sheds >= shared.brownout_cfg.enter_sheds
        && shared.fallback.read().unwrap_or_else(PoisonError::into_inner).is_some()
    {
        shared.degraded.store(true, Ordering::Relaxed);
    }
}

/// Whether dispatch is currently in brownout, applying hysteretic
/// recovery: once [`ServeConfig::brownout_exit_quiet`] passes with no
/// sheds, clear the flag and return to the primary plan. Cheap on the
/// healthy path (one relaxed load).
fn brownout_active(shared: &Shared) -> bool {
    if !shared.degraded.load(Ordering::Relaxed) {
        return false;
    }
    let quiet = {
        let b = shared.brownout.lock().unwrap_or_else(PoisonError::into_inner);
        b.last_shed.elapsed() >= shared.brownout_cfg.exit_quiet
    };
    if quiet {
        shared.degraded.store(false, Ordering::Relaxed);
        return false;
    }
    true
}

/// Estimated time until a request at queue position `ahead` starts
/// executing, from the per-item service EWMA and the worker count.
fn estimated_wait(ahead: usize, ewma_ns: u64, workers: usize) -> Duration {
    let slots = (ahead as u64 + 1).div_ceil(workers.max(1) as u64);
    Duration::from_nanos(slots.saturating_mul(ewma_ns))
}

/// On a full queue, pick the shed-oldest victim for a new arrival: the
/// earliest-deadline queued request, provided it deadline-sorts *before*
/// the newcomer and the wait estimate already dooms it. Returns its queue
/// position and the estimated wait (the victim's retry hint), or `None`
/// when nothing should be traded (then the newcomer gets `QueueFull`).
fn shed_oldest_candidate(
    queue: &VecDeque<Request>,
    new_deadline: Option<Instant>,
    ewma_ns: u64,
    workers: usize,
) -> Option<(usize, Duration)> {
    if ewma_ns == 0 {
        return None; // no estimate yet — never shed on a cold server
    }
    let (pos, earliest) = queue
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.deadline.map(|d| (i, d)))
        .min_by_key(|&(_, d)| d)?;
    // A newcomer with an earlier (or equal) deadline than everything
    // queued does not sort after the queue — no trade.
    if new_deadline.is_some_and(|nd| nd <= earliest) {
        return None;
    }
    let wait = estimated_wait(pos, ewma_ns, workers);
    if Instant::now().checked_add(wait).is_none_or(|eta| eta > earliest) {
        Some((pos, wait))
    } else {
        None
    }
}

/// Lock the queue mutex, recovering from poison. A worker panic while
/// holding this lock leaves the queue structurally intact (requests are
/// only pushed and drained whole), and crash recovery is the supervisor's
/// job — so poisoning must not turn every later `submit`/`shutdown` into a
/// panic cascade.
fn lock_queue(shared: &Shared) -> MutexGuard<'_, QueueState> {
    shared.state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A snapshot of the server's serving counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    /// Batches dispatched to the plan.
    pub batches: u64,
    /// Samples served (successfully executed).
    pub items: u64,
    /// Largest batch dispatched so far.
    pub largest_batch: u64,
    /// Batches that failed execution (every member got
    /// [`ServeError::Execution`]).
    pub failed_batches: u64,
    /// The adaptive flush deadline (in nanoseconds) of the most recent
    /// dispatch — between [`ServeConfig::flush_deadline_min`] and
    /// [`ServeConfig::flush_deadline`]. Zero before the first dispatch.
    pub flush_deadline_ns: u64,
    /// Workers respawned by the supervisor after an escaped panic (a panic
    /// outside the per-batch execution guard). Zero on a healthy server.
    pub worker_restarts: u64,
    /// Requests shed with [`ServeError::DeadlineExceeded`] before
    /// execution — by admission, by the dispatching worker, or by the
    /// background expiry sweep.
    pub deadline_expired: u64,
    /// Plan generation: 0 for the plan the server started with,
    /// bumped by each successful [`BatchServer::reload_plan`] /
    /// [`BatchServer::reload_from_snapshot`].
    pub generation: u64,
    /// Requests shed with [`ServeError::Overloaded`] by admission-time
    /// overload control (estimate-shed plus shed-oldest victims).
    pub shed_total: u64,
    /// Items answered by the brownout fallback plan (replies carried
    /// [`Reply::degraded`]).
    pub degraded_total: u64,
    /// EWMA of per-item service time in nanoseconds (α = 1/8) — the basis
    /// of the admission-time wait estimate. 0 until the first batch
    /// completes, during which estimate-shedding is disabled.
    pub ewma_service_ns: u64,
}

impl ServeStats {
    /// Mean samples per dispatched batch.
    ///
    /// Defined as **0.0 before the first dispatch** rather than the literal
    /// `0/0 = NaN`: these stats feed the `serve_latency` bench rows, and
    /// the `da_bench::json` schema (rightly) rejects non-finite metrics.
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.items as f64 / self.batches as f64
        }
    }
}

/// An in-flight request handle returned by [`BatchServer::submit`].
#[must_use = "dropping a Pending discards the request's logits"]
pub struct Pending {
    rx: mpsc::Receiver<Result<Reply, ServeError>>,
}

impl Pending {
    /// Block until the request's batch executes and return the logits for
    /// this sample alone (shape `[classes...]`, no batch axis).
    pub fn wait(self) -> Result<Tensor, ServeError> {
        let reply = self.wait_reply()?;
        Ok(Tensor::from_vec(reply.data, &reply.shape))
    }

    /// [`wait`](Pending::wait) keeping the full [`Reply`] — the form that
    /// preserves the [`Reply::degraded`] brownout flag.
    pub fn wait_reply(self) -> Result<Reply, ServeError> {
        match self.rx.recv() {
            Ok(result) => result,
            // The worker (or server) went away without replying.
            Err(mpsc::RecvError) => Err(ServeError::ShuttingDown),
        }
    }
}

/// A thread-based micro-batching front end over one shared
/// [`InferencePlan`] (see the module docs for the batching contract).
pub struct BatchServer {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// The deadline-expiry sweep (see [`ServeConfig::default_deadline`]).
    sweeper: Option<JoinHandle<()>>,
    queue_capacity: usize,
    default_deadline: Option<Duration>,
    /// The source network's [`Network::plan_epoch`] at compile time.
    source_epoch: u64,
}

impl BatchServer {
    /// Serve `network`'s compiled plan ([`Network::plan`], the one the
    /// network caches for its own inference and gradients), shared by every
    /// worker.
    ///
    /// Returns `None` when the network has no compiled form (when
    /// [`Network::plan`] returns `None`) — callers fall back to the
    /// per-layer path.
    ///
    /// # Panics
    ///
    /// Panics if `config.max_batch` or `config.queue_capacity` is zero.
    pub fn compile(network: &Network, config: ServeConfig) -> Option<BatchServer> {
        assert!(config.max_batch >= 1, "max_batch must be at least 1");
        assert!(config.queue_capacity >= 1, "queue_capacity must be at least 1");
        // Read the epoch *before* fetching the plan: a concurrent mutation
        // mid-compile then flags the server stale instead of going unnoticed.
        let source_epoch = network.plan_epoch();
        Some(Self::start(network.plan()?, config, source_epoch))
    }

    /// [`compile`](BatchServer::compile) in **int8 mode**: the server
    /// serves one [`InferencePlan::compile_quantized`] plan, calibrated on
    /// `calibration`, shared by every worker (sharing matters most here:
    /// quantized plans carry multi-MiB product tables and, for gate-level
    /// multipliers, a 65 536-product build cost).
    ///
    /// The batching contract is unchanged: quantized plans are
    /// deterministic and run batch items independently, so served logits
    /// stay bit-identical to a serial
    /// [`InferencePlan::predict_batch`] on the same plan under any
    /// concurrent schedule (covered by `tests/quantized_plan.rs`).
    ///
    /// Returns `None` when the network cannot compile to a quantized plan
    /// (see [`InferencePlan::compile_quantized`]).
    ///
    /// # Panics
    ///
    /// Panics as [`compile`](BatchServer::compile) does, or if
    /// `calibration` is not a non-empty batch of the served shape.
    pub fn compile_quantized(
        network: &Network,
        calibration: &da_tensor::Tensor,
        config: ServeConfig,
    ) -> Option<BatchServer> {
        assert!(config.max_batch >= 1, "max_batch must be at least 1");
        assert!(config.queue_capacity >= 1, "queue_capacity must be at least 1");
        let source_epoch = network.plan_epoch();
        let plan = Arc::new(InferencePlan::compile_quantized(
            network,
            network.multiplier().cloned(),
            calibration,
        )?);
        Some(Self::start(plan, config, source_epoch))
    }

    /// [`compile_quantized`](BatchServer::compile_quantized) in
    /// **int4-weight mode**: the shared snapshot is one
    /// [`InferencePlan::compile_quantized_int4`] plan — conv/dense layers
    /// serve the in-register shuffle GEMM over 256×16 tables where
    /// calibration allows, with per-layer int8 gather fallback (a
    /// mixed-precision snapshot; see [`InferencePlan::int4_layer_mix`]).
    /// The sharing rationale and the bit-identical batching contract are
    /// exactly [`compile_quantized`](BatchServer::compile_quantized)'s.
    ///
    /// Returns `None` when the network cannot compile to a quantized plan.
    ///
    /// # Panics
    ///
    /// Panics as [`compile_quantized`](BatchServer::compile_quantized) does.
    pub fn compile_quantized_int4(
        network: &Network,
        calibration: &da_tensor::Tensor,
        config: ServeConfig,
    ) -> Option<BatchServer> {
        assert!(config.max_batch >= 1, "max_batch must be at least 1");
        assert!(config.queue_capacity >= 1, "queue_capacity must be at least 1");
        let source_epoch = network.plan_epoch();
        let plan = Arc::new(InferencePlan::compile_quantized_int4(
            network,
            network.multiplier().cloned(),
            calibration,
        )?);
        Some(Self::start(plan, config, source_epoch))
    }

    /// Serve an already-compiled (or snapshot-loaded) plan: every worker
    /// runs the same `Arc`, so a plan whose tables borrow an `mmap`ed
    /// snapshot is served by N workers over **one** mapping — no per-worker
    /// copy of the multi-MiB product tables or weight matrices.
    ///
    /// A plan served this way has no source [`Network`], so
    /// [`is_stale`](BatchServer::is_stale) reports `true` against *any*
    /// network (the sentinel epoch `u64::MAX` is never a real
    /// [`Network::plan_epoch`] value): staleness tracking is only
    /// meaningful for the `compile*` constructors.
    ///
    /// # Panics
    ///
    /// Panics if `config.max_batch` or `config.queue_capacity` is zero.
    pub fn from_plan(plan: Arc<InferencePlan>, config: ServeConfig) -> BatchServer {
        assert!(config.max_batch >= 1, "max_batch must be at least 1");
        assert!(config.queue_capacity >= 1, "queue_capacity must be at least 1");
        Self::start(plan, config, u64::MAX)
    }

    /// Map the plan snapshot at `path` (see [`crate::snapshot`]) and serve
    /// it via [`from_plan`](BatchServer::from_plan). This is the
    /// near-zero-cold-start path: no calibration, no LUT build, no weight
    /// copy — time-to-first-inference is dominated by the first batch
    /// itself.
    ///
    /// # Panics
    ///
    /// Panics as [`from_plan`](BatchServer::from_plan) does.
    pub fn from_snapshot(
        path: impl AsRef<std::path::Path>,
        config: ServeConfig,
    ) -> Result<BatchServer, crate::snapshot::SnapshotError> {
        let plan = Arc::new(InferencePlan::load(path)?);
        Ok(Self::from_plan(plan, config))
    }

    /// Shared startup: install the panic hook, install the plan, and spawn
    /// `config.workers` supervised workers plus the deadline-expiry sweep.
    /// `source_epoch` is the network's [`Network::plan_epoch`] read
    /// *before* compiling, so a concurrent mutation mid-compile flags the
    /// server stale instead of going unnoticed.
    fn start(plan: Arc<InferencePlan>, config: ServeConfig, source_epoch: u64) -> BatchServer {
        install_quiet_panic_hook();
        let now = Instant::now();
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState { queue: VecDeque::new(), shutdown: false }),
            not_empty: Condvar::new(),
            space: Condvar::new(),
            counters: Counters::default(),
            plan: RwLock::new(plan),
            fallback: RwLock::new(None),
            degraded: std::sync::atomic::AtomicBool::new(false),
            brownout: Mutex::new(BrownoutState { window_start: now, sheds: 0, last_shed: now }),
            brownout_cfg: BrownoutConfig {
                enter_sheds: config.brownout_enter_sheds.max(1),
                window: config.brownout_window,
                exit_quiet: config.brownout_exit_quiet,
            },
        });
        let workers = (0..config.workers)
            .map(|i| {
                let shared = shared.clone();
                let max_batch = config.max_batch;
                let flush = FlushPolicy {
                    max: config.flush_deadline,
                    min: config.flush_deadline_min.min(config.flush_deadline),
                };
                std::thread::Builder::new()
                    .name(format!("da-serve-{i}"))
                    .spawn(move || supervised_worker(shared, max_batch, flush))
                    .expect("spawn serve worker")
            })
            .collect();
        let sweeper = {
            let shared = shared.clone();
            Some(
                std::thread::Builder::new()
                    .name("da-serve-sweep".to_string())
                    .spawn(move || sweeper_loop(shared))
                    .expect("spawn serve sweeper"),
            )
        };
        BatchServer {
            shared,
            workers,
            sweeper,
            queue_capacity: config.queue_capacity,
            default_deadline: config.default_deadline,
            source_epoch,
        }
    }

    /// Queue one sample (`[C, H, W]` or `[features...]`, *no* batch axis),
    /// blocking while the queue is at capacity.
    ///
    /// Returns [`ServeError::ShuttingDown`] if the server stopped accepting
    /// requests while this call was blocked.
    pub fn submit(&self, item: &Tensor) -> Result<Pending, ServeError> {
        self.submit_deadline(item, None)
    }

    /// [`submit`](BatchServer::submit) with a per-request deadline
    /// overriding [`ServeConfig::default_deadline`]. A request still queued
    /// at `deadline` is shed with [`ServeError::DeadlineExceeded`]; one
    /// already expired at admission is rejected immediately.
    pub fn submit_deadline(
        &self,
        item: &Tensor,
        deadline: Option<Instant>,
    ) -> Result<Pending, ServeError> {
        let (tx, rx) = mpsc::channel();
        self.enqueue(item, true, deadline, ReplySink::channel(tx))?;
        Ok(Pending { rx })
    }

    /// Non-blocking [`submit`](BatchServer::submit): fails with
    /// [`ServeError::QueueFull`] instead of waiting for queue space.
    pub fn try_submit(&self, item: &Tensor) -> Result<Pending, ServeError> {
        self.try_submit_deadline(item, None)
    }

    /// [`try_submit`](BatchServer::try_submit) with a per-request deadline.
    /// This is the overload-controlled admission point: a deadline the
    /// backlog estimate already blows is refused with
    /// [`ServeError::Overloaded`] (carrying the retry hint), and on a full
    /// queue the earliest-deadline queued request is traded away when it is
    /// already doomed and deadline-sorts before this arrival (shed-oldest).
    pub fn try_submit_deadline(
        &self,
        item: &Tensor,
        deadline: Option<Instant>,
    ) -> Result<Pending, ServeError> {
        let (tx, rx) = mpsc::channel();
        self.enqueue(item, false, deadline, ReplySink::channel(tx))?;
        Ok(Pending { rx })
    }

    /// Non-blocking submit that delivers the reply to `on_reply` instead of
    /// a [`Pending`] channel — the submission form an event loop needs: the
    /// socket front end ([`crate::net`]) must never block its reactor
    /// thread, so completions are pushed to it (callback → completion queue
    /// → poller wakeup) rather than pulled with a blocking `recv`.
    ///
    /// `on_reply` runs exactly once, on the worker thread that executed the
    /// batch (or, on shutdown with queued requests, on the dropping
    /// thread) — keep it cheap and non-blocking. On `Err` (queue full /
    /// shutting down / already expired) the callback is dropped without
    /// being invoked; the caller still owns the request and decides whether
    /// to retry.
    pub fn try_submit_with(
        &self,
        item: &Tensor,
        on_reply: ReplyCallback,
    ) -> Result<(), ServeError> {
        self.enqueue(item, false, None, ReplySink::callback(on_reply))
    }

    /// [`try_submit_with`](BatchServer::try_submit_with) with a per-request
    /// deadline overriding [`ServeConfig::default_deadline`]. A request
    /// already expired at admission is rejected with
    /// [`ServeError::DeadlineExceeded`] (callback not invoked, like every
    /// other `Err` here); one that expires while queued gets the callback
    /// with that error instead of executing.
    pub fn try_submit_with_deadline(
        &self,
        item: &Tensor,
        deadline: Option<Instant>,
        on_reply: ReplyCallback,
    ) -> Result<(), ServeError> {
        self.enqueue(item, false, deadline, ReplySink::callback(on_reply))
    }

    fn enqueue(
        &self,
        item: &Tensor,
        block: bool,
        deadline: Option<Instant>,
        reply: ReplySink,
    ) -> Result<(), ServeError> {
        // `checked_add` because `Instant + Duration` panics on overflow and
        // the default deadline is operator-controlled; an unrepresentable
        // deadline means "never expires".
        let deadline =
            deadline.or_else(|| self.default_deadline.and_then(|d| Instant::now().checked_add(d)));
        // Deadline-aware admission: shed already-expired work before it
        // occupies queue space (the cheapest possible shed point).
        if let Some(d) = deadline {
            if Instant::now() >= d {
                reply.disarm();
                self.shared.counters.deadline_expired.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::DeadlineExceeded);
            }
        }
        let workers = self.workers.len();
        let ewma = self.shared.counters.ewma_service_ns.load(Ordering::Relaxed);
        // A shed-oldest victim is delivered *outside* the lock (its reply
        // sink is caller code).
        let mut victim: Option<(Request, Duration)> = None;
        {
            let mut st = lock_queue(&self.shared);
            // Estimate-shed first: refuse a deadline the current backlog
            // already blows, with the backlog-clearance estimate as the
            // retry hint — regardless of queue space, so a doomed arrival
            // never competes for (or evicts toward) a slot it cannot use.
            // Inactive until the EWMA warms up (first batch), so cold
            // starts and deadline-free traffic pay one relaxed load.
            if let Some(d) = deadline {
                if ewma > 0 && !st.shutdown {
                    let wait = estimated_wait(st.queue.len(), ewma, workers);
                    if Instant::now().checked_add(wait).is_none_or(|eta| eta > d) {
                        drop(st);
                        reply.disarm();
                        self.shared.counters.shed_total.fetch_add(1, Ordering::Relaxed);
                        note_shed(&self.shared);
                        return Err(ServeError::Overloaded { retry_after: wait });
                    }
                }
            }
            loop {
                if st.shutdown {
                    reply.disarm();
                    return Err(ServeError::ShuttingDown);
                }
                if st.queue.len() < self.queue_capacity {
                    break;
                }
                if !block {
                    // Shed-oldest: if the earliest-deadline queued request
                    // is already doomed by the wait estimate and
                    // deadline-sorts before this arrival, trade it away —
                    // the queue spends its last slot on work that can
                    // still make its deadline.
                    if let Some((pos, wait)) =
                        shed_oldest_candidate(&st.queue, deadline, ewma, workers)
                    {
                        if let Some(doomed) = st.queue.remove(pos) {
                            victim = Some((doomed, wait));
                            break;
                        }
                    }
                    reply.disarm();
                    return Err(ServeError::QueueFull);
                }
                st = self.shared.space.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
            // Copy the sample only once admission is certain, so rejected
            // `try_submit`s never pay for it; the copy is µs-scale, cheap
            // enough to do under the lock.
            st.queue.push_back(Request {
                data: item.data().to_vec(),
                shape: item.shape().to_vec(),
                reply,
                deadline,
            });
        }
        if let Some((doomed, wait)) = victim {
            self.shared.counters.shed_total.fetch_add(1, Ordering::Relaxed);
            note_shed(&self.shared);
            doomed.reply.send(Err(ServeError::Overloaded { retry_after: wait }));
        }
        // Wake every waiting worker: one will dispatch, the rest re-check
        // (workers also wait here for partial batches to fill; the expiry
        // sweep re-arms its timer off the same wakeup).
        self.shared.not_empty.notify_all();
        Ok(())
    }

    /// Logits for one sample: [`submit`](BatchServer::submit) + wait.
    pub fn logits(&self, item: &Tensor) -> Result<Tensor, ServeError> {
        self.submit(item)?.wait()
    }

    /// Predicted class for one sample (the shared
    /// [`crate::loss::argmax_logits`] tie behavior).
    pub fn predict(&self, item: &Tensor) -> Result<usize, ServeError> {
        Ok(argmax_logits(self.logits(item)?.data()))
    }

    /// Serve a whole `[N, ...]` batch *through the request queue*: every
    /// item becomes one submission (interleaving freely with concurrent
    /// callers), and the rows are reassembled in submission order.
    /// Bit-identical to [`InferencePlan::predict_batch`] on the served plan.
    ///
    /// A full queue is not an error here: submissions use the blocking
    /// [`submit`](BatchServer::submit), so backpressure stalls this caller
    /// (documented queue semantics) while workers drain. What *is*
    /// propagated is every failure a network caller could induce on a live
    /// server — shutdown racing the submission loop, or an execution
    /// failure — as a [`ServeError`] instead of the panic this method used
    /// to raise (a shut-down server would take the whole caller down).
    ///
    /// # Panics
    ///
    /// Panics only on caller bugs: a non-batched input or a server built
    /// with zero workers (whose queue can never drain).
    pub fn predict_batch(&self, x: &Tensor) -> Result<Tensor, ServeError> {
        assert!(x.shape().len() >= 2, "predict_batch expects a batched [N, ...] input");
        assert!(!self.workers.is_empty(), "predict_batch needs at least one worker");
        let n = x.shape()[0];
        let mut pending: Vec<Pending> = Vec::with_capacity(n);
        for i in 0..n {
            pending.push(self.submit(&x.batch_item(i))?);
        }
        let mut rows: Vec<Tensor> = Vec::with_capacity(n);
        for p in pending {
            rows.push(p.wait()?);
        }
        Ok(Tensor::stack(&rows))
    }

    /// Whether `network` has been invalidated since this server compiled its
    /// plan (weights, multiplier, or training-mode statistics changed).
    ///
    /// A stale server keeps serving its compile-time snapshot — exactly like
    /// a held [`Arc`]`<`[`InferencePlan`]`>` — so callers decide when to
    /// rebuild. Only meaningful for the network the server was compiled
    /// from.
    pub fn is_stale(&self, network: &Network) -> bool {
        network.plan_epoch() != self.source_epoch
    }

    /// Worker-thread count.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Snapshot of the serving counters.
    pub fn stats(&self) -> ServeStats {
        let c = &self.shared.counters;
        ServeStats {
            batches: c.batches.load(Ordering::Relaxed),
            items: c.items.load(Ordering::Relaxed),
            largest_batch: c.largest_batch.load(Ordering::Relaxed),
            failed_batches: c.failed_batches.load(Ordering::Relaxed),
            flush_deadline_ns: c.flush_deadline_ns.load(Ordering::Relaxed),
            worker_restarts: c.worker_restarts.load(Ordering::Relaxed),
            deadline_expired: c.deadline_expired.load(Ordering::Relaxed),
            generation: c.generation.load(Ordering::Relaxed),
            shed_total: c.shed_total.load(Ordering::Relaxed),
            degraded_total: c.degraded_total.load(Ordering::Relaxed),
            ewma_service_ns: c.ewma_service_ns.load(Ordering::Relaxed),
        }
    }

    /// Whether dispatch is currently degraded to the fallback plan (and
    /// applies the hysteretic recovery check as a side effect — the same
    /// check workers run per dispatch).
    pub fn degraded_active(&self) -> bool {
        brownout_active(&self.shared)
    }

    /// Install (or replace) the brownout **fallback plan** — the cheaper
    /// plan dispatch fails over to under sustained shed pressure (see
    /// [`ServeConfig::brownout_enter_sheds`]). The fallback must serve the
    /// same input/output interface as the primary; its *precision family*
    /// may differ — an int8 snapshot backing an f32 primary is the point
    /// (approximate answers beat no answers, and replies say so via
    /// [`Reply::degraded`]).
    pub fn set_fallback_plan(
        &self,
        plan: Arc<InferencePlan>,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        let want = self.shared.plan.read().unwrap_or_else(PoisonError::into_inner).interface();
        let got = plan.interface();
        if got.input != want.input || got.output_features != want.output_features {
            return Err(crate::snapshot::SnapshotError::Incompatible(format!(
                "fallback plan serves [{got}] but the primary serves [{want}]"
            )));
        }
        *self.shared.fallback.write().unwrap_or_else(PoisonError::into_inner) = Some(plan);
        Ok(())
    }

    /// Map and validate the snapshot at `path`, then
    /// [`set_fallback_plan`](BatchServer::set_fallback_plan) it.
    pub fn set_fallback_from_snapshot(
        &self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        self.set_fallback_plan(Arc::new(InferencePlan::load(path)?))
    }

    /// Force the brownout state — a test/ops override. `on = true` enters
    /// degraded dispatch as if shed pressure had tripped it (and arms the
    /// quiet-period clock); `on = false` recovers immediately.
    #[doc(hidden)]
    pub fn force_degraded(&self, on: bool) {
        if on {
            let mut b = self.shared.brownout.lock().unwrap_or_else(PoisonError::into_inner);
            b.last_shed = Instant::now();
        }
        self.shared.degraded.store(on, Ordering::Relaxed);
    }

    /// Seed the per-item service EWMA — a test hook for exercising the
    /// admission-time estimate without warming the server first.
    #[doc(hidden)]
    pub fn force_ewma_service_ns(&self, ns: u64) {
        self.shared.counters.ewma_service_ns.store(ns, Ordering::Relaxed);
    }

    /// Current plan generation: 0 until the first successful
    /// [`reload_plan`](BatchServer::reload_plan).
    pub fn generation(&self) -> u64 {
        self.shared.counters.generation.load(Ordering::Relaxed)
    }

    /// Atomically replace the served plan with `plan` and return the new
    /// generation. The swap never drops a request: batches already
    /// executing finish on the plan they started with (their `Arc` keeps it
    /// alive), every batch dispatched after the swap runs on `plan`, and
    /// queued requests are untouched.
    ///
    /// The swap performs a **shape handshake**: a replacement whose
    /// serving interface ([`InferencePlan::interface`] — input constraint,
    /// logit width, or precision family) differs from the current plan's
    /// is rejected with [`SnapshotError::Incompatible`] and the old plan
    /// keeps serving, generation unchanged. Connected clients pipelining
    /// requests across the swap would otherwise silently start getting
    /// different shapes (or a different numeric contract) back.
    ///
    /// [`SnapshotError::Incompatible`]: crate::snapshot::SnapshotError::Incompatible
    pub fn reload_plan(
        &self,
        plan: Arc<InferencePlan>,
    ) -> Result<u64, crate::snapshot::SnapshotError> {
        {
            let mut current = self.shared.plan.write().unwrap_or_else(PoisonError::into_inner);
            let (want, got) = (current.interface(), plan.interface());
            if got != want {
                return Err(crate::snapshot::SnapshotError::Incompatible(format!(
                    "replacement serves [{got}] but the current plan serves [{want}]"
                )));
            }
            *current = plan;
        }
        Ok(self.shared.counters.generation.fetch_add(1, Ordering::Relaxed) + 1)
    }

    /// Hot reload: map and **fully validate** the plan snapshot at `path`,
    /// then [`reload_plan`](BatchServer::reload_plan) it. Validation —
    /// including the shape handshake — happens before any swap, so a torn,
    /// truncated, corrupt, or interface-incompatible replacement is
    /// rejected with the loader's [`SnapshotError`] and the current pool
    /// keeps serving — graceful degradation, generation unchanged.
    ///
    /// [`SnapshotError`]: crate::snapshot::SnapshotError
    pub fn reload_from_snapshot(
        &self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<u64, crate::snapshot::SnapshotError> {
        let plan = Arc::new(InferencePlan::load(path)?);
        self.reload_plan(plan)
    }

    /// Stop accepting requests without blocking: submitters (including ones
    /// currently blocked on backpressure) fail with
    /// [`ServeError::ShuttingDown`], and workers exit once the queue
    /// drains. Dropping the server still joins the workers.
    pub fn begin_shutdown(&self) {
        {
            let mut st = lock_queue(&self.shared);
            st.shutdown = true;
        }
        self.shared.not_empty.notify_all();
        self.shared.space.notify_all();
    }

    /// Stop accepting requests, drain the queue, and join the workers
    /// (equivalent to dropping the server, but explicit at call sites).
    pub fn shutdown(self) {}
}

impl Drop for BatchServer {
    fn drop(&mut self) {
        self.begin_shutdown();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        if let Some(sweeper) = self.sweeper.take() {
            let _ = sweeper.join();
        }
        // Workers drain the queue before exiting; with zero workers (or if a
        // worker thread died), fail whatever is left.
        let mut st = lock_queue(&self.shared);
        for request in st.queue.drain(..) {
            request.reply.send(Err(ServeError::ShuttingDown));
        }
    }
}

impl std::fmt::Debug for BatchServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchServer")
            .field("workers", &self.workers.len())
            .field("queue_capacity", &self.queue_capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

/// The adaptive flush-deadline policy a worker applies between batches
/// (see [`ServeConfig::flush_deadline`]).
#[derive(Debug, Clone, Copy)]
struct FlushPolicy {
    /// Ceiling (and the starting deadline): `ServeConfig::flush_deadline`.
    max: Duration,
    /// Floor under load, already clamped to `max` at server start.
    min: Duration,
}

impl FlushPolicy {
    /// The next deadline after dispatching a batch: a batch that `filled`
    /// to `max_batch` means the server is loaded and waiting buys nothing
    /// (halve, toward `min`); a partial flush means traffic is sparse and a
    /// longer window may coalesce stragglers (double, toward `max`).
    ///
    /// Saturating on purpose: `cur * 2` on a `Duration` near the type's
    /// ceiling would otherwise panic, and `cur / 2` of a sub-nanosecond
    /// deadline must floor at `min`, not wrap.
    fn adapt(&self, cur: Duration, filled: bool) -> Duration {
        if self.max.is_zero() {
            return Duration::ZERO;
        }
        if filled {
            (cur / 2).max(self.min)
        } else {
            // Doubling zero is zero: with a zero `min` the halving branch
            // can reach an exactly-zero deadline, and regrowth must restart
            // from a minimum quantum or the policy is pinned at the floor
            // forever after one loaded spell.
            cur.max(Duration::from_nanos(1)).saturating_mul(2).min(self.max)
        }
    }
}

/// Worker supervision: run [`worker_loop`] and, if a panic escapes it
/// (poisoned mutex included — every lock site recovers), count the restart
/// and re-enter the loop with a fresh handle on the served plan. The
/// dying iteration's in-flight requests were already failed with
/// [`ServeError::WorkerDied`] by their [`ReplySink`] drop guards as the
/// panic unwound, so no caller hangs across the restart.
fn supervised_worker(shared: Arc<Shared>, max_batch: usize, flush: FlushPolicy) {
    loop {
        let result = catch_unwind(AssertUnwindSafe(|| worker_loop(&shared, max_batch, flush)));
        // The panic may have unwound past the quiet-hook flag set; clear it
        // so genuine later panics on this thread still print.
        IN_PLAN_EXECUTION.with(|flag| flag.set(false));
        match result {
            Ok(()) => return, // clean shutdown
            Err(_) => {
                shared.counters.worker_restarts.fetch_add(1, Ordering::Relaxed);
                if lock_queue(&shared).shutdown {
                    return;
                }
            }
        }
    }
}

/// One worker: wait for requests, form a batch (FIFO, same-shape prefix, up
/// to `max_batch`, holding up to the adaptive flush deadline for it to
/// fill), shed expired members, execute the rest on the served plan
/// (fetched per batch, so hot reloads take effect at the next dispatch),
/// and reply per request.
fn worker_loop(shared: &Arc<Shared>, max_batch: usize, flush: FlushPolicy) {
    let mut deadline = flush.max;
    loop {
        let (batch, filled): (Vec<Request>, bool) = {
            let mut st = lock_queue(shared);
            loop {
                if !st.queue.is_empty() {
                    break;
                }
                if st.shutdown {
                    return;
                }
                st = shared.not_empty.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
            if !deadline.is_zero() && st.queue.len() < max_batch && !st.shutdown {
                // `checked_add` instead of `+`: Instant + Duration panics on
                // overflow, and the deadline is caller-controlled. An
                // unrepresentable deadline waits until the batch fills or
                // shutdown — semantically "infinite", which is what a
                // far-future Instant would have meant anyway.
                let until = Instant::now().checked_add(deadline);
                loop {
                    if st.queue.len() >= max_batch || st.shutdown {
                        break;
                    }
                    match until {
                        None => {
                            st = shared.not_empty.wait(st).unwrap_or_else(PoisonError::into_inner)
                        }
                        Some(until) => {
                            // Re-read the clock on every re-arm (spurious
                            // wakeups and early notifies land here): once
                            // `now` has caught up to `until`, flush — a
                            // saturated zero timeout would otherwise spin.
                            let now = Instant::now();
                            if now >= until {
                                break;
                            }
                            let (guard, _timeout) = shared
                                .not_empty
                                .wait_timeout(st, until.saturating_duration_since(now))
                                .unwrap_or_else(PoisonError::into_inner);
                            st = guard;
                        }
                    }
                }
            }
            // Another worker may have drained the queue while this one slept.
            if st.queue.is_empty() {
                continue;
            }
            let shape = st.queue.front().expect("non-empty queue").shape.clone();
            let take = st
                .queue
                .iter()
                .take(max_batch)
                .take_while(|request| request.shape == shape)
                .count();
            let drained: Vec<Request> = st.queue.drain(..take).collect();
            drop(st);
            shared.space.notify_all();
            let filled = drained.len() >= max_batch;
            (drained, filled)
        };
        shared.counters.flush_deadline_ns.store(deadline.as_nanos() as u64, Ordering::Relaxed);
        deadline = flush.adapt(deadline, filled);
        // Deadline-aware dispatch: requests that expired while queued are
        // shed *before* execution, not run late.
        let now = Instant::now();
        let (expired, batch): (Vec<Request>, Vec<Request>) =
            batch.into_iter().partition(|r| r.deadline.is_some_and(|d| d <= now));
        if !expired.is_empty() {
            shared.counters.deadline_expired.fetch_add(expired.len() as u64, Ordering::Relaxed);
            for request in expired {
                request.reply.send(Err(ServeError::DeadlineExceeded));
            }
        }
        if batch.is_empty() {
            continue;
        }
        // Service time is measured from here — *including* the failpoint
        // site, so an injected `Delay` inflates the EWMA exactly like a
        // genuinely slow batch and admission control reacts to it.
        let dispatch_start = Instant::now();
        let n_items = batch.len() as u64;
        // Chaos-test injection site (no-op unless the `failpoints` feature
        // is on): an `Err` fault fails this batch like an execution error, a
        // `Panic` fault models a worker crash with requests in flight (the
        // supervisor path), a `Delay` fault models a slow batch.
        if let Some(msg) = da_failpoints::check("serve/worker_batch") {
            shared.counters.failed_batches.fetch_add(1, Ordering::Relaxed);
            for request in batch {
                request.reply.send(Err(ServeError::Execution(msg.clone())));
            }
            continue;
        }
        // Brownout: under sustained shed pressure dispatch fails over to
        // the fallback plan (when one is installed); replies say so.
        let degraded = brownout_active(shared)
            .then(|| shared.fallback.read().unwrap_or_else(PoisonError::into_inner).clone())
            .flatten();
        let (plan, degraded) = match degraded {
            Some(fallback) => (fallback, true),
            None => (shared.plan.read().unwrap_or_else(PoisonError::into_inner).clone(), false),
        };
        run_batch(&plan, batch, &shared.counters, degraded);
        observe_service_time(&shared.counters, dispatch_start.elapsed(), n_items);
    }
}

/// Fold one batch's wall time into the per-item service EWMA (α = 1/8).
/// The racy load/store pair is deliberate: workers are few, the value is
/// an admission *estimate*, and a lost update costs one sample.
fn observe_service_time(counters: &Counters, elapsed: Duration, items: u64) {
    if items == 0 {
        return;
    }
    let sample = ((elapsed.as_nanos() as u64) / items).max(1);
    let old = counters.ewma_service_ns.load(Ordering::Relaxed);
    let new = if old == 0 { sample } else { old - old / 8 + sample / 8 };
    counters.ewma_service_ns.store(new, Ordering::Relaxed);
}

/// The deadline-expiry sweep: a low-duty background thread that fails
/// requests still *queued* past their deadline. Workers already shed
/// expired requests at dispatch; this sweep covers the case where no
/// worker ever gets to them (all workers wedged in a long batch, or a
/// zero-worker server) so a deadline is honored no matter what — the
/// "stranded callback can never hang its caller" guarantee.
fn sweeper_loop(shared: Arc<Shared>) {
    loop {
        let expired: Vec<Request> = {
            let mut st = lock_queue(&shared);
            loop {
                if st.shutdown {
                    return;
                }
                let now = Instant::now();
                let mut expired = Vec::new();
                let mut i = 0;
                while i < st.queue.len() {
                    if st.queue[i].deadline.is_some_and(|d| d <= now) {
                        if let Some(request) = st.queue.remove(i) {
                            expired.push(request);
                        }
                    } else {
                        i += 1;
                    }
                }
                if !expired.is_empty() {
                    break expired;
                }
                let earliest = st.queue.iter().filter_map(|r| r.deadline).min();
                match earliest {
                    // Nothing can expire until a new request arrives; every
                    // enqueue notifies `not_empty`, which re-runs this scan.
                    None => st = shared.not_empty.wait(st).unwrap_or_else(PoisonError::into_inner),
                    Some(d) => {
                        let (guard, _timeout) = shared
                            .not_empty
                            .wait_timeout(st, d.saturating_duration_since(now))
                            .unwrap_or_else(PoisonError::into_inner);
                        st = guard;
                    }
                }
            }
        };
        // Deliver outside the lock: callbacks are caller code.
        shared.counters.deadline_expired.fetch_add(expired.len() as u64, Ordering::Relaxed);
        shared.space.notify_all();
        for request in expired {
            request.reply.send(Err(ServeError::DeadlineExceeded));
        }
    }
}

std::thread_local! {
    /// Set while a worker executes a plan, so the panic hook stays silent
    /// for the *anticipated* failure path (shape rejections become
    /// [`ServeError::Execution`], not log spam). Thread-local: panics on
    /// every other thread still print normally.
    static IN_PLAN_EXECUTION: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Install (once per process) a panic hook that defers to the previous hook
/// except while this thread is inside [`run_batch`]'s `catch_unwind`.
fn install_quiet_panic_hook() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !IN_PLAN_EXECUTION.with(|flag| flag.get()) {
                previous(info);
            }
        }));
    });
}

/// Stack a same-shape batch, run it, and scatter the logits rows back to the
/// per-request channels. A panic anywhere in the stack-and-execute path —
/// including [`Tensor::from_vec`] rejecting an inconsistent shape, which
/// used to escape and kill the worker — fails every member of this batch
/// but leaves the worker serving.
fn run_batch(plan: &InferencePlan, batch: Vec<Request>, counters: &Counters, degraded: bool) {
    let n = batch.len();

    IN_PLAN_EXECUTION.with(|flag| flag.set(true));
    let result = catch_unwind(AssertUnwindSafe(|| {
        let item_len = batch[0].data.len();
        let mut data = Vec::with_capacity(n * item_len);
        for request in &batch {
            data.extend_from_slice(&request.data);
        }
        let mut shape = vec![n];
        shape.extend_from_slice(&batch[0].shape);
        let input = Tensor::from_vec(data, &shape);
        plan.predict_batch(&input)
    }));
    IN_PLAN_EXECUTION.with(|flag| flag.set(false));
    match result {
        Ok(logits) => {
            // Count before replying: a caller that has already received its
            // logits must see them reflected in `stats()`.
            counters.batches.fetch_add(1, Ordering::Relaxed);
            counters.items.fetch_add(n as u64, Ordering::Relaxed);
            counters.largest_batch.fetch_max(n as u64, Ordering::Relaxed);
            if degraded {
                counters.degraded_total.fetch_add(n as u64, Ordering::Relaxed);
            }
            let out_shape: Vec<usize> = logits.shape()[1..].to_vec();
            let out_len: usize = out_shape.iter().product();
            for (i, request) in batch.into_iter().enumerate() {
                let row = logits.data()[i * out_len..(i + 1) * out_len].to_vec();
                // A dropped Pending is not an error; sinks absorb that.
                request.reply.send(Ok(Reply { data: row, shape: out_shape.clone(), degraded }));
            }
        }
        Err(payload) => {
            counters.failed_batches.fetch_add(1, Ordering::Relaxed);
            let msg = panic_message(payload);
            for request in batch {
                request.reply.send(Err(ServeError::Execution(msg.clone())));
            }
        }
    }
}

/// Best-effort text of a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Conv2d, Dense, Flatten, MaxPool2d, Relu};
    use da_arith::MultiplierKind;
    use rand::SeedableRng;

    fn tiny_cnn(seed: u64) -> Network {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Network::new("serve-tiny")
            .push(Conv2d::new(1, 3, 3, 1, 1, &mut rng))
            .push(Relu)
            .push(MaxPool2d::new(2, 2))
            .push(Flatten)
            .push(Dense::new(3 * 4 * 4, 5, &mut rng))
    }

    fn cfg(workers: usize, max_batch: usize, cap: usize) -> ServeConfig {
        ServeConfig {
            workers,
            max_batch,
            flush_deadline: Duration::ZERO,
            queue_capacity: cap,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn single_submission_matches_plan() {
        let mut net = tiny_cnn(3);
        net.set_multiplier(Some(MultiplierKind::AxFpm.build()));
        let plan = net.plan().expect("compilable");
        let server = BatchServer::compile(&net, cfg(2, 4, 8)).expect("compilable");
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let x = Tensor::randn(&[1, 8, 8], 1.0, &mut rng);
        let got = server.logits(&x).expect("served");
        let want = plan.predict_batch(&Tensor::stack(std::slice::from_ref(&x)));
        assert_eq!(got.data(), want.data());
        assert_eq!(got.shape(), &[5]);
        assert_eq!(server.predict(&x).unwrap(), plan.predict(&Tensor::stack(&[x]))[0]);
    }

    #[test]
    fn predict_batch_round_trips_through_the_queue() {
        let net = tiny_cnn(5);
        let plan = net.plan().expect("compilable");
        let server = BatchServer::compile(&net, cfg(2, 3, 4)).expect("compilable");
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let x = Tensor::randn(&[7, 1, 8, 8], 1.0, &mut rng);
        let got = server.predict_batch(&x).expect("served");
        let want = plan.predict_batch(&x);
        assert_eq!(got, want);
        let stats = server.stats();
        assert_eq!(stats.items, 7);
        assert!(stats.batches >= 1 && stats.batches <= 7, "{stats:?}");
        assert!(stats.mean_batch() >= 1.0);
    }

    /// Regression (issue 8): `mean_batch` on a server that has dispatched
    /// nothing must be 0.0, not the literal `0/0 = NaN` — the serve_latency
    /// JSON rows are built from it and the schema rejects non-finite
    /// metrics.
    #[test]
    fn mean_batch_is_zero_not_nan_before_first_dispatch() {
        let fresh = ServeStats {
            batches: 0,
            items: 0,
            largest_batch: 0,
            failed_batches: 0,
            flush_deadline_ns: 0,
            worker_restarts: 0,
            deadline_expired: 0,
            generation: 0,
            shed_total: 0,
            degraded_total: 0,
            ewma_service_ns: 0,
        };
        assert_eq!(fresh.mean_batch(), 0.0);
        assert!(fresh.mean_batch().is_finite());

        let net = tiny_cnn(11);
        let server = BatchServer::compile(&net, cfg(0, 1, 4)).expect("compilable");
        assert_eq!(server.stats().mean_batch(), 0.0);
        assert!(server.stats().mean_batch().is_finite());
    }

    /// Regression (issue 8): a shut-down server must fail `predict_batch`
    /// with a typed error, not panic the caller.
    #[test]
    fn predict_batch_propagates_shutdown_instead_of_panicking() {
        let net = tiny_cnn(13);
        let server = BatchServer::compile(&net, cfg(1, 2, 4)).expect("compilable");
        server.begin_shutdown();
        let x = Tensor::zeros(&[3, 1, 8, 8]);
        assert_eq!(server.predict_batch(&x).err(), Some(ServeError::ShuttingDown));
    }

    /// Regression (issue 8): the queue-full path is typed, never a panic —
    /// non-blocking submission surfaces `QueueFull`, and the blocking
    /// `predict_batch` documents-and-blocks until workers drain (checked
    /// here with a capacity smaller than the batch).
    #[test]
    fn queue_full_is_typed_and_predict_batch_blocks_through_it() {
        let net = tiny_cnn(17);
        let x1 = Tensor::zeros(&[1, 8, 8]);
        // Zero workers: the queue can only fill.
        let stuck = BatchServer::compile(&net, cfg(0, 1, 1)).expect("compilable");
        let _held = stuck.try_submit(&x1).expect("first fits");
        assert_eq!(stuck.try_submit(&x1).err(), Some(ServeError::QueueFull));
        assert_eq!(stuck.try_submit_with(&x1, Box::new(|_| {})).err(), Some(ServeError::QueueFull));
        // One worker, capacity 2 < batch 6: submissions backpressure and
        // complete (bounded: workers drain while the submitter blocks).
        let plan = net.plan().expect("compilable");
        let server = BatchServer::compile(&net, cfg(1, 2, 2)).expect("compilable");
        let mut rng = rand::rngs::StdRng::seed_from_u64(18);
        let x = Tensor::randn(&[6, 1, 8, 8], 1.0, &mut rng);
        let got = server.predict_batch(&x).expect("drains through backpressure");
        assert_eq!(got, plan.predict_batch(&x));
    }

    #[test]
    fn callback_submission_delivers_on_worker_thread() {
        let mut net = tiny_cnn(19);
        net.set_multiplier(Some(MultiplierKind::AxFpm.build()));
        let plan = net.plan().expect("compilable");
        let server = BatchServer::compile(&net, cfg(1, 4, 8)).expect("compilable");
        let mut rng = rand::rngs::StdRng::seed_from_u64(20);
        let x = Tensor::randn(&[1, 8, 8], 1.0, &mut rng);
        let (tx, rx) = mpsc::channel();
        server
            .try_submit_with(
                &x,
                Box::new(move |reply| {
                    let _ = tx.send(reply);
                }),
            )
            .expect("queued");
        let reply = rx.recv().expect("callback ran").expect("served");
        let want = plan.predict_batch(&Tensor::stack(std::slice::from_ref(&x)));
        assert_eq!(reply.data.as_slice(), want.data());
        assert_eq!(reply.shape, vec![5]);
        assert!(!reply.degraded);
    }

    #[test]
    fn adaptive_deadline_shrinks_under_load_and_grows_when_idle() {
        let policy =
            FlushPolicy { max: Duration::from_micros(200), min: Duration::from_micros(25) };
        // Sustained load walks the deadline down to the floor...
        let mut cur = policy.max;
        for _ in 0..8 {
            cur = policy.adapt(cur, true);
        }
        assert_eq!(cur, policy.min);
        // ...and idle partial flushes walk it back to the ceiling.
        for _ in 0..8 {
            cur = policy.adapt(cur, false);
        }
        assert_eq!(cur, policy.max);
        // Saturation: doubling from near the Duration ceiling must not
        // panic, and a zero ceiling pins everything to zero.
        let huge = FlushPolicy { max: Duration::MAX, min: Duration::ZERO };
        assert_eq!(huge.adapt(Duration::MAX, false), Duration::MAX);
        let zero = FlushPolicy { max: Duration::ZERO, min: Duration::ZERO };
        assert_eq!(zero.adapt(Duration::from_secs(1), true), Duration::ZERO);
    }

    #[test]
    fn adaptive_deadline_recovers_from_a_zero_floor() {
        // A zero floor is legal configuration; sustained load halves the
        // deadline down to exactly zero...
        let policy = FlushPolicy { max: Duration::from_micros(200), min: Duration::ZERO };
        let mut cur = policy.max;
        for _ in 0..64 {
            cur = policy.adapt(cur, true);
        }
        assert_eq!(cur, Duration::ZERO, "halving with a zero floor must reach zero");
        // ...and sparse traffic must still regrow it: doubling zero forever
        // would pin the policy at an immediate-dispatch deadline for the
        // rest of the server's life.
        for _ in 0..64 {
            cur = policy.adapt(cur, false);
        }
        assert_eq!(cur, policy.max, "deadline must regrow after load pinned it at zero");
    }

    #[test]
    fn stats_expose_the_dispatch_deadline() {
        let net = tiny_cnn(23);
        let config = ServeConfig {
            workers: 1,
            max_batch: 2,
            flush_deadline: Duration::from_nanos(1),
            flush_deadline_min: Duration::from_nanos(1),
            queue_capacity: 8,
            ..ServeConfig::default()
        };
        let server = BatchServer::compile(&net, config).expect("compilable");
        let x = Tensor::zeros(&[1, 8, 8]);
        server.logits(&x).expect("served");
        assert_eq!(server.stats().flush_deadline_ns, 1);
    }

    #[test]
    fn zero_worker_server_applies_backpressure_and_fails_on_shutdown() {
        let net = tiny_cnn(7);
        let server = BatchServer::compile(&net, cfg(0, 1, 2)).expect("compilable");
        let x = Tensor::zeros(&[1, 8, 8]);
        let a = server.try_submit(&x).expect("first fits");
        let b = server.try_submit(&x).expect("second fits");
        assert_eq!(server.try_submit(&x).err(), Some(ServeError::QueueFull));
        server.shutdown();
        assert_eq!(a.wait().err(), Some(ServeError::ShuttingDown));
        assert_eq!(b.wait().err(), Some(ServeError::ShuttingDown));
    }

    #[test]
    fn uncompilable_network_declines() {
        struct Opaque;
        impl crate::Layer for Opaque {
            fn name(&self) -> &'static str {
                "opaque"
            }
            fn forward(&self, x: &Tensor, _mode: crate::Mode) -> (Tensor, crate::Cache) {
                (x.clone(), crate::Cache::none())
            }
            fn backward(&self, _cache: &crate::Cache, grad: &Tensor) -> (Tensor, Vec<Tensor>) {
                (grad.clone(), Vec::new())
            }
        }
        let net = Network::new("opaque").push(Opaque);
        assert!(BatchServer::compile(&net, cfg(1, 1, 1)).is_none());
        assert!(BatchServer::compile(&net, cfg(0, 1, 1)).is_none());
    }

    #[test]
    fn config_default_is_sane() {
        let cfg = ServeConfig::default();
        assert!(cfg.workers >= 1);
        assert!(cfg.max_batch >= 1);
        assert!(cfg.queue_capacity >= cfg.workers);
    }

    #[test]
    fn error_display_is_informative() {
        assert!(ServeError::QueueFull.to_string().contains("full"));
        assert!(ServeError::ShuttingDown.to_string().contains("shutting down"));
        assert!(ServeError::Execution("boom".into()).to_string().contains("boom"));
        assert!(ServeError::DeadlineExceeded.to_string().contains("deadline"));
        assert!(ServeError::WorkerDied.to_string().contains("worker died"));
        assert!(ServeError::Overloaded { retry_after: Duration::from_millis(5) }
            .to_string()
            .contains("overloaded"));
    }

    /// The per-item service EWMA warms up from real batches and feeds
    /// `stats()`.
    #[test]
    fn ewma_service_time_warms_up_after_batches() {
        let net = tiny_cnn(53);
        let server = BatchServer::compile(&net, cfg(1, 4, 8)).expect("compilable");
        assert_eq!(server.stats().ewma_service_ns, 0, "cold server has no estimate");
        let x = Tensor::zeros(&[1, 8, 8]);
        for _ in 0..3 {
            server.logits(&x).expect("served");
        }
        assert!(server.stats().ewma_service_ns > 0, "EWMA must warm up after dispatches");
    }

    /// Estimate-shed: a deadline the backlog estimate already blows is
    /// refused at admission with a typed `Overloaded` + retry hint, while
    /// deadline-free requests are untouched by the estimator.
    #[test]
    fn estimate_shed_rejects_doomed_deadlines_at_admission() {
        let net = tiny_cnn(59);
        let server = BatchServer::compile(&net, cfg(0, 1, 8)).expect("compilable");
        // Pretend every item takes 1 s; a 5 ms deadline is then hopeless.
        server.force_ewma_service_ns(1_000_000_000);
        let x = Tensor::zeros(&[1, 8, 8]);
        let doomed = Instant::now() + Duration::from_millis(5);
        match server.submit_deadline(&x, Some(doomed)).err() {
            Some(ServeError::Overloaded { retry_after }) => {
                assert!(retry_after >= Duration::from_millis(500), "{retry_after:?}");
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert_eq!(server.stats().shed_total, 1);
        assert_eq!(server.stats().deadline_expired, 0, "shed ≠ expired");
        // No deadline → the estimator never runs; the request queues.
        let _pending = server.submit(&x).expect("deadline-free requests are untouched");
        server.begin_shutdown();
    }

    /// Shed-oldest: a full queue trades its doomed earliest-deadline
    /// request for a newer arrival that deadline-sorts after it.
    #[test]
    fn shed_oldest_trades_doomed_queued_work_for_new_arrivals() {
        let net = tiny_cnn(61);
        let server = BatchServer::compile(&net, cfg(0, 1, 1)).expect("compilable");
        let x = Tensor::zeros(&[1, 8, 8]);
        // Admit A while the estimate is still cold...
        let a = server
            .submit_deadline(&x, Some(Instant::now() + Duration::from_millis(50)))
            .expect("admitted cold");
        // ...then learn that an item takes ~1 s: A is now doomed.
        server.force_ewma_service_ns(1_000_000_000);
        let b = server
            .try_submit_deadline(&x, Some(Instant::now() + Duration::from_secs(600)))
            .expect("queue full, but the doomed oldest is traded away");
        match a.wait_reply().err() {
            Some(ServeError::Overloaded { retry_after }) => {
                assert!(retry_after > Duration::ZERO);
            }
            other => panic!("victim must see Overloaded, got {other:?}"),
        }
        assert_eq!(server.stats().shed_total, 1);
        // No workers: the drain on drop is what answers B.
        drop(server);
        assert_eq!(b.wait_reply().err(), Some(ServeError::ShuttingDown));
    }

    /// A full queue of deadline-free work never trades: the FIFO contract
    /// for classic traffic is untouched by overload control.
    #[test]
    fn shed_oldest_never_touches_deadline_free_work() {
        let net = tiny_cnn(67);
        let server = BatchServer::compile(&net, cfg(0, 1, 1)).expect("compilable");
        server.force_ewma_service_ns(1_000_000_000);
        let x = Tensor::zeros(&[1, 8, 8]);
        let _held = server.try_submit(&x).expect("fills the queue");
        assert_eq!(
            server
                .try_submit_deadline(&x, Some(Instant::now() + Duration::from_secs(600)))
                .map(|_| ())
                .err(),
            Some(ServeError::QueueFull),
            "a deadline-free queue head is never shed"
        );
        server.begin_shutdown();
    }

    /// Brownout: degraded dispatch answers from the fallback plan
    /// (bit-identical to its serial run), flags the replies, counts them,
    /// and recovery restores the primary.
    #[test]
    fn brownout_fails_over_to_fallback_and_recovers() {
        let net_primary = tiny_cnn(71);
        let net_fallback = tiny_cnn(73); // same interface, different weights
        let plan_primary = net_primary.plan().expect("compilable");
        let plan_fallback =
            Arc::new(InferencePlan::compile(&net_fallback, None).expect("compilable"));
        let server = BatchServer::compile(&net_primary, cfg(1, 2, 8)).expect("compilable");
        server.set_fallback_plan(plan_fallback.clone()).expect("same interface installs");
        let mut rng = rand::rngs::StdRng::seed_from_u64(74);
        let x = Tensor::randn(&[1, 8, 8], 1.0, &mut rng);
        let want_primary = plan_primary.predict_batch(&Tensor::stack(std::slice::from_ref(&x)));
        let want_fallback = plan_fallback.predict_batch(&Tensor::stack(std::slice::from_ref(&x)));
        assert_ne!(want_primary.data(), want_fallback.data(), "seeds must differ");

        assert!(!server.degraded_active());
        let healthy = server.submit(&x).expect("queued").wait_reply().expect("served");
        assert!(!healthy.degraded);
        assert_eq!(healthy.data.as_slice(), want_primary.data());

        server.force_degraded(true);
        assert!(server.degraded_active());
        let degraded = server.submit(&x).expect("queued").wait_reply().expect("served");
        assert!(degraded.degraded, "brownout replies must carry the flag");
        assert_eq!(
            degraded.data.as_slice(),
            want_fallback.data(),
            "degraded replies are bit-identical to the fallback plan's serial run"
        );
        assert!(server.stats().degraded_total >= 1);

        server.force_degraded(false);
        let recovered = server.submit(&x).expect("queued").wait_reply().expect("served");
        assert!(!recovered.degraded);
        assert_eq!(recovered.data.as_slice(), want_primary.data());
    }

    /// Sustained shed pressure trips the brownout via `note_shed` — no
    /// test hook, the production path.
    #[test]
    fn shed_pressure_trips_brownout_when_fallback_installed() {
        let net = tiny_cnn(79);
        let config = ServeConfig {
            brownout_enter_sheds: 2,
            brownout_window: Duration::from_secs(60),
            brownout_exit_quiet: Duration::from_secs(60),
            ..cfg(0, 1, 8)
        };
        let server = BatchServer::compile(&net, config).expect("compilable");
        let fallback = Arc::new(InferencePlan::compile(&net, None).expect("compilable"));
        server.set_fallback_plan(fallback).expect("installs");
        server.force_ewma_service_ns(1_000_000_000);
        let x = Tensor::zeros(&[1, 8, 8]);
        for _ in 0..2 {
            let doomed = Instant::now() + Duration::from_millis(1);
            assert!(matches!(
                server.submit_deadline(&x, Some(doomed)).err(),
                Some(ServeError::Overloaded { .. })
            ));
        }
        assert!(server.degraded_active(), "2 sheds inside the window must trip the brownout");
        server.force_degraded(false);
    }

    /// Without a fallback plan installed, shed pressure never degrades —
    /// there is nothing to degrade *to*.
    #[test]
    fn brownout_needs_a_fallback_plan() {
        let net = tiny_cnn(83);
        let config = ServeConfig { brownout_enter_sheds: 1, ..cfg(0, 1, 8) };
        let server = BatchServer::compile(&net, config).expect("compilable");
        server.force_ewma_service_ns(1_000_000_000);
        let x = Tensor::zeros(&[1, 8, 8]);
        let doomed = Instant::now() + Duration::from_millis(1);
        assert!(server.submit_deadline(&x, Some(doomed)).is_err());
        assert!(!server.degraded_active());
    }

    /// The fallback handshake matches input/output but deliberately *not*
    /// the precision family (an int8 fallback behind an f32 primary is the
    /// intended use).
    #[test]
    fn fallback_handshake_rejects_interface_mismatch() {
        let net = tiny_cnn(89);
        let server = BatchServer::compile(&net, cfg(1, 2, 8)).expect("compilable");
        // Different logit width → rejected.
        let mut rng = rand::rngs::StdRng::seed_from_u64(90);
        let wide = Network::new("wide")
            .push(Conv2d::new(1, 3, 3, 1, 1, &mut rng))
            .push(Relu)
            .push(MaxPool2d::new(2, 2))
            .push(Flatten)
            .push(Dense::new(3 * 4 * 4, 7, &mut rng));
        let wide_plan = Arc::new(InferencePlan::compile(&wide, None).expect("compilable"));
        match server.set_fallback_plan(wide_plan) {
            Err(crate::snapshot::SnapshotError::Incompatible(msg)) => {
                assert!(msg.contains("7"), "{msg}");
            }
            other => panic!("expected Incompatible, got {other:?}"),
        }
    }

    /// The hot-reload shape handshake: an interface-incompatible
    /// replacement is rejected with a typed error, the generation does not
    /// move, and the old plan keeps serving.
    #[test]
    fn reload_plan_rejects_interface_mismatch() {
        let net = tiny_cnn(97);
        let plan = net.plan().expect("compilable");
        let server = BatchServer::compile(&net, cfg(1, 2, 8)).expect("compilable");
        let mut rng = rand::rngs::StdRng::seed_from_u64(98);
        let wide = Network::new("wide")
            .push(Conv2d::new(1, 3, 3, 1, 1, &mut rng))
            .push(Relu)
            .push(MaxPool2d::new(2, 2))
            .push(Flatten)
            .push(Dense::new(3 * 4 * 4, 9, &mut rng));
        let wide_plan = Arc::new(InferencePlan::compile(&wide, None).expect("compilable"));
        assert!(matches!(
            server.reload_plan(wide_plan),
            Err(crate::snapshot::SnapshotError::Incompatible(_))
        ));
        assert_eq!(server.generation(), 0, "a rejected reload must not bump the generation");
        let x = Tensor::randn(&[1, 8, 8], 1.0, &mut rng);
        let want = plan.predict_batch(&Tensor::stack(std::slice::from_ref(&x)));
        assert_eq!(
            server.logits(&x).expect("old plan keeps serving").data(),
            want.data(),
            "the previous plan must keep serving bit-identically after a rejected reload"
        );
    }

    /// An already-expired deadline is rejected at admission — typed, never
    /// queued, counted in stats.
    #[test]
    fn expired_deadline_is_shed_at_admission() {
        let net = tiny_cnn(29);
        let server = BatchServer::compile(&net, cfg(0, 1, 4)).expect("compilable");
        let x = Tensor::zeros(&[1, 8, 8]);
        let past = Instant::now() - Duration::from_millis(10);
        assert_eq!(
            server.submit_deadline(&x, Some(past)).err(),
            Some(ServeError::DeadlineExceeded)
        );
        let invoked = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = invoked.clone();
        let err = server.try_submit_with_deadline(
            &x,
            Some(past),
            Box::new(move |_| flag.store(true, Ordering::SeqCst)),
        );
        assert_eq!(err.err(), Some(ServeError::DeadlineExceeded));
        // Documented contract: on `Err` the callback is never invoked.
        assert!(!invoked.load(Ordering::SeqCst));
        assert_eq!(server.stats().deadline_expired, 2);
    }

    /// The expiry sweep unblocks a queued request on a server whose workers
    /// never dispatch it (zero workers) — the no-hang guarantee.
    #[test]
    fn sweeper_expires_stranded_requests() {
        let net = tiny_cnn(31);
        let server = BatchServer::compile(&net, cfg(0, 1, 4)).expect("compilable");
        let x = Tensor::zeros(&[1, 8, 8]);
        let deadline = Instant::now() + Duration::from_millis(30);
        let pending = server.submit_deadline(&x, Some(deadline)).expect("queued");
        // Blocks until the sweep fires; a hang here is the regression.
        assert_eq!(pending.wait().err(), Some(ServeError::DeadlineExceeded));
        assert_eq!(server.stats().deadline_expired, 1);
    }

    /// `default_deadline` applies to plain `submit` calls with no explicit
    /// per-request deadline.
    #[test]
    fn default_deadline_covers_plain_submits() {
        let net = tiny_cnn(37);
        let config =
            ServeConfig { default_deadline: Some(Duration::from_millis(25)), ..cfg(0, 1, 4) };
        let server = BatchServer::compile(&net, config).expect("compilable");
        let pending = server.submit(&Tensor::zeros(&[1, 8, 8])).expect("queued");
        assert_eq!(pending.wait().err(), Some(ServeError::DeadlineExceeded));
    }

    /// Hot reload swaps the plan pool atomically: requests before the swap
    /// serve generation-0 logits, requests after serve the new plan's —
    /// each bit-identical to its own plan's serial run.
    #[test]
    fn reload_plan_swaps_served_logits_and_bumps_generation() {
        let net_a = tiny_cnn(41);
        let net_b = tiny_cnn(43); // different seed → different weights
        let plan_a = net_a.plan().expect("compilable");
        let plan_b = net_b.plan().expect("compilable");
        let server = BatchServer::compile(&net_a, cfg(2, 4, 8)).expect("compilable");
        assert_eq!(server.generation(), 0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(44);
        let x = Tensor::randn(&[1, 8, 8], 1.0, &mut rng);
        let want_a = plan_a.predict_batch(&Tensor::stack(std::slice::from_ref(&x)));
        let want_b = plan_b.predict_batch(&Tensor::stack(std::slice::from_ref(&x)));
        assert_ne!(want_a.data(), want_b.data(), "seeds must differ");
        assert_eq!(server.logits(&x).expect("served").data(), want_a.data());
        let gen = server
            .reload_plan(Arc::new(InferencePlan::compile(&net_b, None).expect("compilable")))
            .expect("same interface swaps");
        assert_eq!(gen, 1);
        assert_eq!(server.generation(), 1);
        assert_eq!(server.stats().generation, 1);
        assert_eq!(server.logits(&x).expect("served").data(), want_b.data());
    }

    /// A poisoned queue mutex (panicking thread holding the lock) must not
    /// cascade: later submits and shutdown recover the state instead of
    /// panicking.
    #[test]
    fn poisoned_lock_does_not_cascade_into_submitters() {
        let net = tiny_cnn(47);
        let plan = net.plan().expect("compilable");
        let server = Arc::new(BatchServer::compile(&net, cfg(1, 2, 8)).expect("compilable"));
        // Poison the mutex from a scratch thread.
        let poisoner = server.clone();
        let _ = std::thread::spawn(move || {
            let _guard = lock_queue(&poisoner.shared);
            // Quiet hook: this panic is the test's point, not log spam.
            IN_PLAN_EXECUTION.with(|flag| flag.set(true));
            panic!("poison the serve queue lock");
        })
        .join();
        assert!(server.shared.state.is_poisoned());
        // The server still serves, bit-identically, and shuts down cleanly.
        let mut rng = rand::rngs::StdRng::seed_from_u64(48);
        let x = Tensor::randn(&[1, 8, 8], 1.0, &mut rng);
        let got = server.logits(&x).expect("served through poison");
        let want = plan.predict_batch(&Tensor::stack(std::slice::from_ref(&x)));
        assert_eq!(got.data(), want.data());
        server.begin_shutdown();
    }

    /// Dropping a `ReplySink` without sending (what a worker panic does to
    /// in-flight requests) delivers `WorkerDied` instead of stranding the
    /// caller.
    #[test]
    fn dropped_sink_delivers_worker_died() {
        let (tx, rx) = mpsc::channel();
        drop(ReplySink::channel(tx));
        assert_eq!(rx.recv().expect("drop guard delivered"), Err(ServeError::WorkerDied));
        // disarm() defuses the guard: nothing is delivered.
        let (tx, rx) = mpsc::channel::<Result<Reply, ServeError>>();
        ReplySink::channel(tx).disarm();
        assert!(rx.recv().is_err(), "disarmed sink must deliver nothing");
    }
}
