//! The socket front end: a single-threaded non-blocking reactor bridging
//! TCP clients to a [`BatchServer`].
//!
//! # Design
//!
//! One thread owns every socket. A [`polling::Poller`] (epoll on Linux,
//! `poll(2)` elsewhere — see `crates/shims/polling`) watches the listener
//! and every connection **level-triggered**: read interest is registered
//! while the server is willing to accept bytes from that client, write
//! interest only while a reply is partially flushed. The reactor never
//! blocks on a socket and never blocks on the batch server:
//!
//! * **Inbound**: readable sockets are drained until `WouldBlock`, bytes
//!   feed a [`FrameDecoder`], and every complete frame becomes a
//!   [`Message`]. `INFER` requests are handed to
//!   [`BatchServer::try_submit_with`] — the non-blocking, callback form of
//!   submission.
//! * **Completions**: the reply callback runs on a worker thread; it
//!   pushes `(conn, req_id, result)` onto a mutex-protected completion
//!   list and calls [`polling::Poller::notify`]. The reactor drains the
//!   list at the top of every iteration and writes replies out. A
//!   completion whose connection has since closed is silently dropped —
//!   a mid-reply disconnect affects nobody else.
//! * **Backpressure, per client**: a connection pauses (its read interest
//!   is withdrawn, so the kernel's TCP window eventually closes toward the
//!   client) whenever it has [`NetConfig::max_inflight`] requests in
//!   flight, a parked request the batch queue had no room for, or more
//!   than [`NetConfig::write_pause`] bytes of unflushed replies. Parked
//!   requests are retried after every completion drain, so a full batch
//!   queue sheds load onto exactly the clients producing it while idle
//!   clients stay live. Complete frames already sitting in a paused
//!   connection's decoder are resumed the same way — backpressure never
//!   strands a fully-received request waiting for bytes that will not come.
//! * **Admission control**: optional token buckets ([`NetConfig::rate`]
//!   global, [`NetConfig::conn_rate`] per connection, both refilled from
//!   the reactor clock) gate `INFER` admission *ahead of* the batch
//!   queue. A rate-limited request gets an immediate `INFER_ERR { code:
//!   Overloaded }` carrying a `retry_after_us` hint instead of occupying
//!   queue space; unconfigured buckets cost one `Option` check.
//! * **Graceful drain**: a `SHUTDOWN` frame (or [`NetHandle::shutdown`])
//!   stops the listener and all request reading, answers new `INFER`s
//!   with `ShuttingDown`, but lets every in-flight batch complete and
//!   every buffered reply flush — bit-identical to what the client would
//!   have seen without the shutdown. Only after the last reply (or
//!   [`NetConfig::drain_timeout`]) does the loop exit; dropping the
//!   [`BatchServer`] then joins its workers.
//! * **Slow clients**: [`NetConfig::idle_timeout`] closes connections that
//!   have sent no byte for the configured window and have nothing in
//!   flight or mid-flush — a slow-loris half-frame cannot hold a slot
//!   forever, while a reply still draining toward a slow reader is never
//!   truncated by the sweep.
//!
//! Protocol violations (oversized or zero-length frame, unknown opcode,
//! malformed body) get one best-effort `INFER_ERR { req_id: 0, code:
//! Protocol }` reply, then the connection flushes and closes. There is no
//! resynchronisation: a corrupt length prefix leaves no trustworthy frame
//! boundary.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use da_tensor::Tensor;
use polling::{Event, Poller};

use crate::engine::InferencePlan;
use crate::net::frame::{self, ErrCode, FrameDecoder, Message, DEFAULT_MAX_FRAME};
use crate::serve::{BatchServer, Reply, ServeError};

/// Tuning knobs for the socket front end.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Largest accepted frame (length prefix bound). Default 16 MiB;
    /// values above `u32::MAX` (the prefix's ceiling) are clamped at bind.
    pub max_frame: usize,
    /// Per-connection in-flight request cap; beyond it the connection's
    /// read interest is withdrawn until replies drain. Default 32.
    pub max_inflight: usize,
    /// Unflushed reply bytes beyond which a connection stops being read.
    /// Default 1 MiB.
    pub write_pause: usize,
    /// Close connections with no received byte and nothing in flight for
    /// this long. `None` (default) disables the sweep.
    pub idle_timeout: Option<Duration>,
    /// Hard cap on the graceful-drain phase; connections still unflushed
    /// after this are dropped. Default 5 s.
    pub drain_timeout: Duration,
    /// Most connections open at once. At the cap, new connections get one
    /// best-effort `INFER_ERR { code: Overloaded }` reply and are closed —
    /// a clean refusal instead of an unbounded fd march toward EMFILE.
    /// Default 1024.
    pub max_conns: usize,
    /// How long to stop accepting after a *persistent* `accept(2)` error
    /// (EMFILE/ENFILE and kin). Under level-triggered readiness the
    /// listener would otherwise re-fire immediately and spin the reactor at
    /// 100% CPU; backing off gives the condition (usually fd exhaustion)
    /// time to clear. Default 50 ms.
    pub accept_backoff: Duration,
    /// Snapshot an empty-path RELOAD frame (or [`NetHandle::reload`], the
    /// SIGHUP path) re-maps. `None` rejects such reloads; RELOAD frames
    /// naming an explicit path work either way.
    pub reload_path: Option<PathBuf>,
    /// Use the portable `poll(2)` poller backend instead of the platform
    /// default (epoll on Linux). The fallback path serves real traffic on
    /// non-Linux Unixes, so tests exercise it explicitly via this knob.
    pub use_poll_backend: bool,
    /// Global admission rate in `INFER` requests per second. `None`
    /// (default) disables global rate limiting.
    pub rate: Option<f64>,
    /// Global token-bucket depth. `None` defaults to one second of
    /// [`rate`](NetConfig::rate) (floored at 1 token).
    pub burst: Option<f64>,
    /// Per-connection admission rate in requests per second. `None`
    /// (default) disables per-connection rate limiting.
    pub conn_rate: Option<f64>,
    /// Per-connection bucket depth; `None` defaults to one second of
    /// [`conn_rate`](NetConfig::conn_rate) (floored at 1 token).
    pub conn_burst: Option<f64>,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            max_frame: DEFAULT_MAX_FRAME,
            max_inflight: 32,
            write_pause: 1 << 20,
            idle_timeout: None,
            drain_timeout: Duration::from_secs(5),
            max_conns: 1024,
            accept_backoff: Duration::from_millis(50),
            reload_path: None,
            use_poll_backend: false,
            rate: None,
            burst: None,
            conn_rate: None,
            conn_burst: None,
        }
    }
}

impl NetConfig {
    /// Clamp limits the wire format cannot represent: the length prefix is
    /// a u32, so a larger configured `max_frame` could admit a frame the
    /// protocol cannot re-emit.
    fn normalized(mut self) -> NetConfig {
        self.max_frame = self.max_frame.min(u32::MAX as usize);
        self
    }

    fn global_bucket(&self, now: Instant) -> Option<TokenBucket> {
        self.rate.map(|r| TokenBucket::new(r, self.burst, now))
    }

    fn conn_bucket(&self, now: Instant) -> Option<TokenBucket> {
        self.conn_rate.map(|r| TokenBucket::new(r, self.conn_burst, now))
    }
}

/// A token bucket refilled from the reactor clock: `rate` tokens per
/// second up to a depth of `burst`, one token per admitted request.
/// Time is always passed in (never sampled here) so tests drive it with
/// fabricated instants and the reactor samples the clock once per frame.
#[derive(Debug, Clone)]
struct TokenBucket {
    rate: f64,
    burst: f64,
    tokens: f64,
    last: Instant,
}

impl TokenBucket {
    /// `burst` defaults to one second of `rate` and is floored at one
    /// token — a bucket that can never admit anything is a misconfiguration,
    /// not a feature.
    fn new(rate: f64, burst: Option<f64>, now: Instant) -> TokenBucket {
        let rate = rate.max(f64::MIN_POSITIVE);
        let burst = burst.unwrap_or(rate).max(1.0);
        TokenBucket { rate, burst, tokens: burst, last: now }
    }

    /// Is a token available right now? Refills from the elapsed time but
    /// does not spend; `Err` carries the time until one token exists — the
    /// client's `retry_after` hint.
    fn peek(&mut self, now: Instant) -> Result<(), Duration> {
        let dt = now.saturating_duration_since(self.last).as_secs_f64();
        self.tokens = (self.tokens + dt * self.rate).min(self.burst);
        self.last = now;
        if self.tokens >= 1.0 {
            Ok(())
        } else {
            Err(Duration::from_secs_f64((1.0 - self.tokens) / self.rate))
        }
    }

    /// Spend one token (call only after a successful [`peek`](TokenBucket::peek)).
    fn take(&mut self) {
        self.tokens = (self.tokens - 1.0).max(0.0);
    }
}

/// Counters the reactor accumulates over its lifetime (returned by
/// [`NetServer::run`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Connections accepted.
    pub accepted: u64,
    /// `INFER_OK` replies sent.
    pub replies_ok: u64,
    /// `INFER_ERR` replies sent (any code).
    pub replies_err: u64,
    /// Connections closed for protocol violations.
    pub protocol_errors: u64,
    /// Connections closed by the idle sweep.
    pub idle_closed: u64,
    /// Persistent `accept(2)` errors that triggered the accept backoff.
    pub accept_errors: u64,
    /// Connections refused at the [`NetConfig::max_conns`] cap.
    pub conns_refused: u64,
    /// Plan reloads that swapped the pool (RELOAD frame or SIGHUP).
    pub reloads_ok: u64,
    /// Plan reloads rejected with the old plans left serving.
    pub reloads_rejected: u64,
    /// `INFER` requests refused by a token bucket (global or
    /// per-connection) before reaching the batch queue.
    pub rate_limited: u64,
}

/// Thread-safe trigger for a graceful drain or a plan reload (see module
/// docs).
#[derive(Clone)]
pub struct NetHandle {
    stop: Arc<AtomicBool>,
    reload: Arc<AtomicBool>,
    poller: Arc<Poller>,
}

impl NetHandle {
    /// Begin the graceful drain from any thread. Idempotent.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.poller.notify();
    }

    /// Ask the reactor to hot-reload [`NetConfig::reload_path`], as if an
    /// empty-path RELOAD frame had arrived. Both operations here — an
    /// atomic store and a write to the poller's self-pipe — are
    /// async-signal-safe, so `da-serve` calls this straight from its SIGHUP
    /// handler. A rejected reload (corrupt replacement, no configured path)
    /// leaves the current plans serving; outcomes are visible in
    /// [`NetStats`] and the STATS generation.
    pub fn reload(&self) {
        self.reload.store(true, Ordering::SeqCst);
        let _ = self.poller.notify();
    }
}

/// A reply that completed on a worker thread, waiting for the reactor.
type Completion = (usize, u64, Result<Reply, ServeError>);

const LISTENER_KEY: usize = 0;

/// Lifecycle of one connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    /// Reading requests, writing replies.
    Open,
    /// Flush the write buffer, then close (protocol error or drain).
    Closing,
}

struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    /// Encoded replies not yet accepted by the kernel; `wpos` marks the
    /// flushed prefix.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Requests submitted to the batch server, reply still pending.
    inflight: usize,
    /// Requests decoded but not yet admitted (in-flight cap or full batch
    /// queue); retried after every completion drain. Each carries its
    /// deadline so time queued here still counts against the budget.
    parked: VecDeque<(u64, Tensor, Option<Instant>)>,
    last_rx: Instant,
    state: ConnState,
    /// Interest currently registered with the poller, to skip redundant
    /// `modify` syscalls.
    registered: (bool, bool),
    /// Per-connection admission bucket ([`NetConfig::conn_rate`]).
    bucket: Option<TokenBucket>,
}

impl Conn {
    fn wants_write(&self) -> bool {
        self.wpos < self.wbuf.len()
    }
}

/// The socket front end. Construct with [`bind`](NetServer::bind), then
/// either [`run`](NetServer::run) on the current thread or
/// [`spawn`](NetServer::spawn) a dedicated one.
pub struct NetServer {
    listener: TcpListener,
    addr: SocketAddr,
    server: BatchServer,
    config: NetConfig,
    poller: Arc<Poller>,
    completions: Arc<Mutex<Vec<Completion>>>,
    stop: Arc<AtomicBool>,
    reload: Arc<AtomicBool>,
}

impl NetServer {
    /// Bind the listener and wire up the poller. The batch server is owned
    /// by the front end from here on; dropping the front end (after `run`
    /// returns) drains and joins its workers.
    pub fn bind(
        server: BatchServer,
        addr: impl ToSocketAddrs,
        config: NetConfig,
    ) -> io::Result<NetServer> {
        let config = config.normalized();
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let poller = if config.use_poll_backend {
            Arc::new(Poller::with_poll_backend()?)
        } else {
            Arc::new(Poller::new()?)
        };
        poller.add(listener.as_raw_fd(), Event::readable(LISTENER_KEY))?;
        Ok(NetServer {
            listener,
            addr,
            server,
            config,
            poller,
            completions: Arc::new(Mutex::new(Vec::new())),
            stop: Arc::new(AtomicBool::new(false)),
            reload: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (resolves port 0 to the kernel's pick).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A trigger that starts the graceful drain (or a plan reload) from
    /// another thread or a signal handler.
    pub fn handle(&self) -> NetHandle {
        NetHandle {
            stop: self.stop.clone(),
            reload: self.reload.clone(),
            poller: self.poller.clone(),
        }
    }

    /// Run the reactor on a dedicated thread; returns the bound address,
    /// the shutdown trigger, and the join handle yielding final stats.
    pub fn spawn(self) -> (SocketAddr, NetHandle, std::thread::JoinHandle<io::Result<NetStats>>) {
        let addr = self.addr;
        let handle = self.handle();
        let join = std::thread::Builder::new()
            .name("da-serve-reactor".into())
            .spawn(move || self.run())
            .expect("spawn reactor thread");
        (addr, handle, join)
    }

    /// Run the reactor until a graceful drain completes. Blocking.
    pub fn run(self) -> io::Result<NetStats> {
        Reactor::new(self)?.run()
    }
}

struct Reactor {
    listener: TcpListener,
    server: BatchServer,
    config: NetConfig,
    poller: Arc<Poller>,
    completions: Arc<Mutex<Vec<Completion>>>,
    stop: Arc<AtomicBool>,
    reload: Arc<AtomicBool>,
    conns: HashMap<usize, Conn>,
    next_key: usize,
    draining: bool,
    drain_deadline: Option<Instant>,
    /// While set, the listener is deregistered and accepting is paused
    /// until this instant (persistent accept-error backoff).
    accept_resume_at: Option<Instant>,
    /// Global admission bucket ([`NetConfig::rate`]).
    global_bucket: Option<TokenBucket>,
    stats: NetStats,
}

impl Reactor {
    fn new(front: NetServer) -> io::Result<Reactor> {
        let global_bucket = front.config.global_bucket(Instant::now());
        Ok(Reactor {
            listener: front.listener,
            server: front.server,
            config: front.config,
            poller: front.poller,
            completions: front.completions,
            stop: front.stop,
            reload: front.reload,
            conns: HashMap::new(),
            next_key: LISTENER_KEY + 1,
            draining: false,
            drain_deadline: None,
            accept_resume_at: None,
            global_bucket,
            stats: NetStats::default(),
        })
    }

    fn run(mut self) -> io::Result<NetStats> {
        let mut events: Vec<Event> = Vec::new();
        loop {
            events.clear();
            self.poller.wait(&mut events, self.wait_timeout())?;

            if self.stop.load(Ordering::SeqCst) && !self.draining {
                self.begin_drain();
            }
            if self.reload.swap(false, Ordering::SeqCst) {
                // The SIGHUP path: reload the configured snapshot on the
                // reactor thread (mmap + validate is a few ms — cheap
                // enough not to need a helper thread). Outcome lands in
                // the stats counters and the plan generation.
                self.do_reload(None);
            }
            self.resume_accept_if_due();
            self.drain_completions();
            self.pump_parked();

            let ready: Vec<Event> = events.clone();
            for ev in ready {
                if ev.key == LISTENER_KEY {
                    self.accept_ready();
                } else {
                    self.service(ev);
                }
            }

            // After completions, parked retries, and flushes have lifted
            // backpressure, frames already sitting in a paused connection's
            // decoder must be processed here — no further socket readability
            // will announce them.
            self.resume_buffered();

            self.sweep_idle();

            if self.draining && self.drained() {
                break;
            }
            if let Some(deadline) = self.drain_deadline {
                if Instant::now() >= deadline {
                    break; // unflushed stragglers are dropped
                }
            }
        }
        Ok(self.stats)
    }

    /// How long the poller may sleep: forever when quiescent, bounded when
    /// a deadline (drain cap, idle sweep) or a parked retry is pending.
    fn wait_timeout(&self) -> Option<Duration> {
        let now = Instant::now();
        let mut timeout: Option<Duration> = None;
        let mut consider = |d: Duration| {
            timeout = Some(timeout.map_or(d, |t| t.min(d)));
        };
        if let Some(deadline) = self.drain_deadline {
            consider(deadline.saturating_duration_since(now).max(Duration::from_millis(1)));
        }
        if let Some(resume) = self.accept_resume_at {
            consider(resume.saturating_duration_since(now).max(Duration::from_millis(1)));
        }
        if let Some(idle) = self.config.idle_timeout {
            if let Some(earliest) = self
                .conns
                .values()
                .filter(|c| c.inflight == 0 && c.parked.is_empty() && !c.wants_write())
                .map(|c| c.last_rx)
                .min()
            {
                let due = (earliest + idle).saturating_duration_since(now);
                consider(due.max(Duration::from_millis(1)));
            }
        }
        // Parked submissions are normally retried off a completion wakeup;
        // the bounded sleep is a safety net, not the signal path.
        if self.conns.values().any(|c| !c.parked.is_empty()) {
            consider(Duration::from_millis(10));
        }
        timeout
    }

    fn begin_drain(&mut self) {
        self.draining = true;
        self.drain_deadline = Some(Instant::now() + self.config.drain_timeout);
        if self.accept_resume_at.take().is_none() {
            // Only registered while not in accept backoff.
            let _ = self.poller.delete(self.listener.as_raw_fd());
        }
        // Stop reading everywhere; parked requests are answered with
        // ShuttingDown by the next pump.
        let keys: Vec<usize> = self.conns.keys().copied().collect();
        for key in keys {
            self.refresh_interest(key);
        }
    }

    /// All replies delivered and flushed?
    fn drained(&self) -> bool {
        self.conns.values().all(|c| c.inflight == 0 && c.parked.is_empty() && !c.wants_write())
    }

    fn accept_ready(&mut self) {
        if self.draining || self.accept_resume_at.is_some() {
            return;
        }
        loop {
            // Chaos-test injection site (no-op unless the `failpoints`
            // feature is on): models a persistent accept(2) error storm
            // (EMFILE and kin).
            if let Some(_msg) = da_failpoints::check("net/accept") {
                self.stats.accept_errors += 1;
                self.pause_accept();
                return;
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if self.conns.len() >= self.config.max_conns {
                        self.refuse(stream);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let key = self.next_key;
                    self.next_key += 1;
                    if self.poller.add(stream.as_raw_fd(), Event::readable(key)).is_err() {
                        continue;
                    }
                    let now = Instant::now();
                    self.conns.insert(
                        key,
                        Conn {
                            stream,
                            decoder: FrameDecoder::new(),
                            wbuf: Vec::new(),
                            wpos: 0,
                            inflight: 0,
                            parked: VecDeque::new(),
                            last_rx: now,
                            state: ConnState::Open,
                            registered: (true, false),
                            bucket: self.config.conn_bucket(now),
                        },
                    );
                    self.stats.accepted += 1;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // Persistent failure (EMFILE/ENFILE, aborted handshake
                    // storms …). Under level-triggered readiness a bare
                    // `break` would re-fire this handler immediately and
                    // spin the reactor at 100% CPU; deregister the listener
                    // and come back after a backoff instead. Pending
                    // connections are not lost — they wait in the kernel's
                    // accept queue.
                    self.stats.accept_errors += 1;
                    self.pause_accept();
                    return;
                }
            }
        }
    }

    /// Deregister the listener and schedule re-registration after
    /// [`NetConfig::accept_backoff`].
    fn pause_accept(&mut self) {
        let _ = self.poller.delete(self.listener.as_raw_fd());
        self.accept_resume_at = Some(Instant::now() + self.config.accept_backoff);
    }

    /// Re-register the listener once the accept backoff has elapsed.
    fn resume_accept_if_due(&mut self) {
        let Some(resume) = self.accept_resume_at else { return };
        if Instant::now() < resume {
            return;
        }
        self.accept_resume_at = None;
        if !self.draining {
            let _ = self.poller.add(self.listener.as_raw_fd(), Event::readable(LISTENER_KEY));
        }
    }

    /// Refuse a connection at the `max_conns` cap: one best-effort
    /// `Overloaded` reply, then drop (closing the fd). The write is
    /// non-blocking and small enough for a fresh socket's send buffer, so
    /// the reactor never stalls on a refused peer.
    fn refuse(&mut self, stream: TcpStream) {
        self.stats.conns_refused += 1;
        if stream.set_nonblocking(true).is_ok() {
            let frame = frame::encode(&Message::InferErr {
                req_id: 0,
                code: ErrCode::Overloaded,
                retry_after_us: 0,
                msg: "connection limit reached".to_string(),
            });
            let _ = (&stream).write(&frame);
        }
    }

    /// Move completed replies from the worker-side list into write buffers.
    fn drain_completions(&mut self) {
        let completed: Vec<Completion> = {
            // Poison recovery: a worker that panicked inside the reply
            // callback must not wedge the reactor — the list is only ever
            // pushed to or swapped out whole.
            let mut lock = self.completions.lock().unwrap_or_else(PoisonError::into_inner);
            std::mem::take(&mut *lock)
        };
        for (key, req_id, result) in completed {
            // The connection may have closed mid-request; its reply is
            // simply dropped (the batch still served everyone else).
            if !self.conns.contains_key(&key) {
                continue;
            }
            let msg = match result {
                Ok(reply) => {
                    self.stats.replies_ok += 1;
                    Message::InferOk {
                        req_id,
                        degraded: reply.degraded,
                        shape: reply.shape,
                        data: reply.data,
                    }
                }
                Err(err) => {
                    self.stats.replies_err += 1;
                    err_reply(req_id, &err)
                }
            };
            if let Some(conn) = self.conns.get_mut(&key) {
                conn.inflight -= 1;
            }
            self.send(key, &msg);
        }
    }

    /// Retry parked submissions (in-flight cap or batch queue full).
    fn pump_parked(&mut self) {
        let keys: Vec<usize> = self.conns.keys().copied().collect();
        for key in keys {
            while let Some(conn) = self.conns.get_mut(&key) {
                if conn.parked.is_empty() || conn.inflight >= self.config.max_inflight {
                    break;
                }
                let (req_id, tensor, deadline) =
                    conn.parked.pop_front().expect("checked non-empty");
                if self.draining {
                    self.stats.replies_err += 1;
                    self.send(key, &err_reply(req_id, &ServeError::ShuttingDown));
                    continue;
                }
                match self.submit(key, req_id, &tensor, deadline) {
                    Ok(()) => {}
                    Err(ServeError::QueueFull) => {
                        // Still no room: back off until the next completion.
                        let conn = self.conns.get_mut(&key).expect("conn exists");
                        conn.parked.push_front((req_id, tensor, deadline));
                        break;
                    }
                    Err(err) => {
                        self.stats.replies_err += 1;
                        self.send(key, &err_reply(req_id, &err));
                    }
                }
            }
            self.refresh_interest(key);
        }
    }

    /// Hand one request to the batch server; the reply callback routes the
    /// completion back through the poller wakeup.
    fn submit(
        &mut self,
        key: usize,
        req_id: u64,
        tensor: &Tensor,
        deadline: Option<Instant>,
    ) -> Result<(), ServeError> {
        let completions = self.completions.clone();
        let poller = self.poller.clone();
        self.server.try_submit_with_deadline(
            tensor,
            deadline,
            Box::new(move |result| {
                // Poison recovery: losing a completion would strand the
                // client's req_id forever.
                let mut lock = completions.lock().unwrap_or_else(PoisonError::into_inner);
                lock.push((key, req_id, result));
                drop(lock);
                let _ = poller.notify();
            }),
        )?;
        if let Some(conn) = self.conns.get_mut(&key) {
            conn.inflight += 1;
        }
        Ok(())
    }

    /// Perform a plan reload (RELOAD frame with a path, or `None` for the
    /// configured [`NetConfig::reload_path`] — the empty-path / SIGHUP
    /// form). Returns the reply fields.
    fn do_reload(&mut self, path: Option<&std::path::Path>) -> (bool, u64, String) {
        let path = match path {
            Some(p) => p,
            None => match self.config.reload_path.as_deref() {
                Some(p) => p,
                None => {
                    self.stats.reloads_rejected += 1;
                    return (
                        false,
                        self.server.generation(),
                        "no reload path configured".to_string(),
                    );
                }
            },
        };
        match InferencePlan::load(path).and_then(|plan| self.server.reload_plan(Arc::new(plan))) {
            Ok(generation) => {
                self.stats.reloads_ok += 1;
                (true, generation, String::new())
            }
            Err(err) => {
                self.stats.reloads_rejected += 1;
                (false, self.server.generation(), err.to_string())
            }
        }
    }

    /// Handle readiness on one connection.
    fn service(&mut self, ev: Event) {
        let key = ev.key;
        if ev.writable {
            let closed = {
                let Some(conn) = self.conns.get_mut(&key) else { return };
                match flush(conn) {
                    Ok(()) => conn.state == ConnState::Closing && !conn.wants_write(),
                    Err(_) => true,
                }
            };
            if closed {
                self.close(key);
                return;
            }
        }
        if ev.readable {
            self.read_ready(key);
        }
        self.refresh_interest(key);
    }

    fn read_ready(&mut self, key: usize) {
        let mut buf = [0u8; 64 * 1024];
        loop {
            let Some(conn) = self.conns.get_mut(&key) else { return };
            if conn.state != ConnState::Open {
                return;
            }
            match (&conn.stream).read(&mut buf) {
                Ok(0) => {
                    // Peer closed. Anything buffered can no longer be
                    // answered on this socket; in-flight work still
                    // executes (the batch is shared) and its completion is
                    // dropped harmlessly.
                    self.close(key);
                    return;
                }
                Ok(n) => {
                    conn.last_rx = Instant::now();
                    conn.decoder.push(&buf[..n]);
                    if !self.decode_frames(key) {
                        return; // closed, poisoned, or paused by backpressure
                    }
                    // A paused connection stops consuming from the kernel
                    // buffer mid-readiness.
                    let Some(conn) = self.conns.get_mut(&key) else { return };
                    if !conn_wants_read(conn, self.draining, &self.config) {
                        return;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(key);
                    return;
                }
            }
        }
    }

    /// Process every complete frame buffered on `key`. Returns false if
    /// decoding must stop early: the connection was closed (or marked
    /// closing), or backpressure paused it with frames possibly still
    /// buffered — [`resume_buffered`](Reactor::resume_buffered) picks those
    /// up once the pressure lifts.
    fn decode_frames(&mut self, key: usize) -> bool {
        loop {
            let payload = {
                let Some(conn) = self.conns.get_mut(&key) else { return false };
                match conn.decoder.next_payload(self.config.max_frame) {
                    Ok(Some(p)) => p,
                    Ok(None) => return true,
                    Err(err) => {
                        self.protocol_error(key, &err.to_string());
                        return false;
                    }
                }
            };
            match frame::decode(&payload) {
                Ok(msg) => {
                    if !self.handle_message(key, msg) {
                        return false;
                    }
                }
                Err(err) => {
                    self.protocol_error(key, &err.to_string());
                    return false;
                }
            }
        }
    }

    /// Returns false if the connection should stop being read.
    fn handle_message(&mut self, key: usize, msg: Message) -> bool {
        match msg {
            Message::Ping => {
                self.send(key, &Message::Pong);
                true
            }
            Message::Stats => {
                // Fixed-index counter list (see [`frame::stats`]): older
                // clients ignore the tail, newer clients read zeros for
                // counters this build predates.
                let stats = self.server.stats();
                let mut counters = vec![0u64; frame::stats::COUNT];
                counters[frame::stats::BATCHES] = stats.batches;
                counters[frame::stats::ITEMS] = stats.items;
                counters[frame::stats::FLUSH_DEADLINE_NS] = stats.flush_deadline_ns;
                counters[frame::stats::WORKER_RESTARTS] = stats.worker_restarts;
                counters[frame::stats::DEADLINE_EXPIRED] = stats.deadline_expired;
                counters[frame::stats::GENERATION] = stats.generation;
                counters[frame::stats::SHED_TOTAL] = stats.shed_total;
                counters[frame::stats::DEGRADED_TOTAL] = stats.degraded_total;
                counters[frame::stats::RATE_LIMITED] = self.stats.rate_limited;
                counters[frame::stats::EWMA_SERVICE_NS] = stats.ewma_service_ns;
                counters[frame::stats::RELOADS_REJECTED] = self.stats.reloads_rejected;
                self.send(key, &Message::StatsReply { counters });
                true
            }
            Message::Shutdown => {
                self.send(key, &Message::ShutdownAck);
                self.begin_drain();
                false
            }
            Message::Reload { path } => {
                let explicit =
                    if path.is_empty() { None } else { Some(std::path::PathBuf::from(path)) };
                let (ok, generation, msg) = self.do_reload(explicit.as_deref());
                self.send(key, &Message::ReloadReply { ok, generation, msg });
                true
            }
            Message::Infer { req_id, deadline_us, shape, data } => {
                if self.draining {
                    self.stats.replies_err += 1;
                    self.send(key, &err_reply(req_id, &ServeError::ShuttingDown));
                    return true;
                }
                // Admission control, ahead of everything the request could
                // cost (tensor build, queue space): both buckets must pass
                // before either is debited, and the retry hint is the
                // longer of the two waits.
                let now = Instant::now();
                let conn = self.conns.get_mut(&key).expect("conn exists");
                let conn_wait = conn.bucket.as_mut().map(|b| b.peek(now));
                let global_wait = self.global_bucket.as_mut().map(|b| b.peek(now));
                let limited =
                    [conn_wait, global_wait].into_iter().flatten().filter_map(Result::err).max();
                if let Some(wait) = limited {
                    self.stats.rate_limited += 1;
                    self.stats.replies_err += 1;
                    self.send(
                        key,
                        &Message::InferErr {
                            req_id,
                            code: ErrCode::Overloaded,
                            retry_after_us: clamp_retry_us(wait),
                            msg: "rate limited".to_string(),
                        },
                    );
                    return true;
                }
                if let Some(b) = self.global_bucket.as_mut() {
                    b.take();
                }
                if let Some(b) = self.conns.get_mut(&key).and_then(|c| c.bucket.as_mut()) {
                    b.take();
                }
                // Start the budget at admission; `0` defers to the batch
                // server's configured default.
                let deadline = if deadline_us == 0 {
                    None
                } else {
                    Instant::now().checked_add(Duration::from_micros(u64::from(deadline_us)))
                };
                // decode() proved data.len() == prod(shape), which is all
                // from_vec asserts.
                let tensor = Tensor::from_vec(data, &shape);
                let conn = self.conns.get_mut(&key).expect("conn exists");
                if conn.inflight >= self.config.max_inflight {
                    conn.parked.push_back((req_id, tensor, deadline));
                    return false; // paused until replies drain
                }
                match self.submit(key, req_id, &tensor, deadline) {
                    Ok(()) => true,
                    Err(ServeError::QueueFull) => {
                        let conn = self.conns.get_mut(&key).expect("conn exists");
                        conn.parked.push_back((req_id, tensor, deadline));
                        false // paused until the batch queue has room
                    }
                    Err(err) => {
                        self.stats.replies_err += 1;
                        self.send(key, &err_reply(req_id, &err));
                        true
                    }
                }
            }
            // Reply opcodes from a client are a protocol violation.
            Message::InferOk { .. }
            | Message::InferErr { .. }
            | Message::Pong
            | Message::StatsReply { .. }
            | Message::ShutdownAck
            | Message::ReloadReply { .. } => {
                self.protocol_error(key, "reply opcode sent by client");
                false
            }
        }
    }

    /// One best-effort error reply, then flush-and-close.
    fn protocol_error(&mut self, key: usize, detail: &str) {
        self.stats.protocol_errors += 1;
        self.stats.replies_err += 1;
        self.send(
            key,
            &Message::InferErr {
                req_id: 0,
                code: ErrCode::Protocol,
                retry_after_us: 0,
                msg: detail.to_string(),
            },
        );
        if let Some(conn) = self.conns.get_mut(&key) {
            conn.state = ConnState::Closing;
            if !conn.wants_write() {
                self.close(key);
                return;
            }
        }
        self.refresh_interest(key);
    }

    /// Queue an encoded message and opportunistically flush.
    fn send(&mut self, key: usize, msg: &Message) {
        let Some(conn) = self.conns.get_mut(&key) else { return };
        conn.wbuf.extend_from_slice(&frame::encode(msg));
        let close = match flush(conn) {
            Ok(()) => conn.state == ConnState::Closing && !conn.wants_write(),
            Err(_) => true,
        };
        if close {
            self.close(key);
        } else {
            self.refresh_interest(key);
        }
    }

    /// Decode frames already buffered on connections whose backpressure has
    /// lifted. [`decode_frames`](Reactor::decode_frames) otherwise only runs
    /// off socket readability, so a complete frame stranded in the decoder
    /// when its connection paused (in-flight cap, parked request, write
    /// pressure) would wait for the client's *next* byte — forever, for a
    /// client that pipelined a burst and is now silently awaiting replies.
    fn resume_buffered(&mut self) {
        let pending: Vec<usize> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                c.decoder.buffered() > 0 && conn_wants_read(c, self.draining, &self.config)
            })
            .map(|(k, _)| *k)
            .collect();
        for key in pending {
            self.decode_frames(key);
            self.refresh_interest(key);
        }
    }

    /// Close idle connections (slow-loris defence).
    fn sweep_idle(&mut self) {
        let Some(idle) = self.config.idle_timeout else { return };
        let now = Instant::now();
        let stale: Vec<usize> = self
            .conns
            .iter()
            .filter(|(_, c)| idle_sweepable(c, now, idle))
            .map(|(k, _)| *k)
            .collect();
        for key in stale {
            self.stats.idle_closed += 1;
            self.close(key);
        }
    }

    fn close(&mut self, key: usize) {
        if let Some(conn) = self.conns.remove(&key) {
            let _ = self.poller.delete(conn.stream.as_raw_fd());
            // conn drops here: the fd closes, the kernel discards whatever
            // was left. Completions for this key no longer resolve and are
            // dropped in drain_completions.
        }
    }

    /// Re-register the connection's interest if it changed.
    fn refresh_interest(&mut self, key: usize) {
        let draining = self.draining;
        let config = &self.config;
        let Some(conn) = self.conns.get_mut(&key) else { return };
        let want = (conn_wants_read(conn, draining, config), conn.wants_write());
        if want != conn.registered {
            let ev = Event { key, readable: want.0, writable: want.1 };
            if self.poller.modify(conn.stream.as_raw_fd(), ev).is_ok() {
                conn.registered = want;
            }
        }
    }
}

/// Map a batch-server error onto its wire error code. `WorkerDied` has no
/// dedicated code: from the caller's view it is an execution failure (the
/// request may be retried — the replacement worker is already up).
fn err_code(err: &ServeError) -> ErrCode {
    match err {
        ServeError::QueueFull | ServeError::Overloaded { .. } => ErrCode::Overloaded,
        ServeError::ShuttingDown => ErrCode::ShuttingDown,
        ServeError::DeadlineExceeded => ErrCode::DeadlineExceeded,
        ServeError::Execution(_) | ServeError::WorkerDied => ErrCode::Execution,
    }
}

/// Build the `INFER_ERR` reply for a batch-server error, carrying the
/// shed retry hint when there is one.
fn err_reply(req_id: u64, err: &ServeError) -> Message {
    let retry_after_us = match err {
        ServeError::Overloaded { retry_after } => clamp_retry_us(*retry_after),
        _ => 0,
    };
    Message::InferErr { req_id, code: err_code(err), retry_after_us, msg: err.to_string() }
}

/// A retry hint on the wire: clamped into the u32 µs field, floored at
/// 1 µs so a nonzero `Duration` never rounds down to "no hint".
fn clamp_retry_us(wait: Duration) -> u32 {
    u32::try_from(wait.as_micros()).unwrap_or(u32::MAX).max(1)
}

/// Is this connection eligible for the idle sweep? Nothing in flight,
/// nothing parked, nothing mid-flush, and silent past the timeout. The
/// mid-flush exclusion means a reply the kernel has not yet accepted is
/// never truncated by the sweep; a client that refuses to read is still
/// bounded — reads stop at `write_pause`, the kernel's send buffer caps
/// what it can strand, and `drain_timeout` reaps it at shutdown.
fn idle_sweepable(conn: &Conn, now: Instant, idle: Duration) -> bool {
    conn.inflight == 0
        && conn.parked.is_empty()
        && !conn.wants_write()
        && now.saturating_duration_since(conn.last_rx) >= idle
}

/// Should this connection currently be read from? (Free function: callers
/// often hold a `&mut Conn` alongside the reactor's config.)
fn conn_wants_read(conn: &Conn, draining: bool, config: &NetConfig) -> bool {
    conn.state == ConnState::Open
        && !draining
        && conn.parked.is_empty()
        && conn.inflight < config.max_inflight
        && conn.wbuf.len() - conn.wpos < config.write_pause
}

/// Write as much of the buffer as the kernel accepts right now.
fn flush(conn: &mut Conn) -> io::Result<()> {
    while conn.wpos < conn.wbuf.len() {
        match (&conn.stream).write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => conn.wpos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    if conn.wpos == conn.wbuf.len() {
        conn.wbuf.clear();
        conn.wpos = 0;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn test_conn() -> Conn {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let stream = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        Conn {
            stream,
            decoder: FrameDecoder::new(),
            wbuf: Vec::new(),
            wpos: 0,
            inflight: 0,
            parked: VecDeque::new(),
            last_rx: Instant::now(),
            state: ConnState::Open,
            registered: (true, false),
            bucket: None,
        }
    }

    #[test]
    fn max_frame_is_clamped_to_the_length_prefix_ceiling() {
        let over = NetConfig { max_frame: usize::MAX, ..NetConfig::default() }.normalized();
        assert_eq!(over.max_frame, u32::MAX as usize);
        let under = NetConfig::default().normalized();
        assert_eq!(under.max_frame, DEFAULT_MAX_FRAME);
    }

    #[test]
    fn idle_sweep_spares_a_connection_mid_flush() {
        let mut conn = test_conn();
        let idle = Duration::from_millis(100);
        let stale = conn.last_rx + Duration::from_secs(60);

        // Quiet past the timeout with nothing pending: sweepable.
        assert!(idle_sweepable(&conn, stale, idle));
        // Not yet past the timeout: spared.
        assert!(!idle_sweepable(&conn, conn.last_rx, idle));

        // A reply the kernel has not yet accepted must never be cut.
        conn.wbuf = vec![0u8; 8];
        conn.wpos = 3;
        assert!(!idle_sweepable(&conn, stale, idle), "mid-flush reply would be truncated");
        // Fully flushed: sweepable again.
        conn.wpos = conn.wbuf.len();
        assert!(idle_sweepable(&conn, stale, idle));

        // In-flight work or parked requests also exempt the connection.
        conn.wbuf.clear();
        conn.wpos = 0;
        conn.inflight = 1;
        assert!(!idle_sweepable(&conn, stale, idle));
        conn.inflight = 0;
        conn.parked.push_back((1, Tensor::zeros(&[1]), None));
        assert!(!idle_sweepable(&conn, stale, idle));
    }

    #[test]
    fn token_bucket_admits_burst_then_meters_by_rate() {
        let t0 = Instant::now();
        let mut b = TokenBucket::new(10.0, Some(2.0), t0);
        assert!(b.peek(t0).is_ok());
        b.take();
        assert!(b.peek(t0).is_ok());
        b.take();
        let wait = b.peek(t0).expect_err("burst exhausted");
        assert!(wait > Duration::ZERO && wait <= Duration::from_millis(100), "{wait:?}");
        // One token exists after 1/rate seconds...
        assert!(b.peek(t0 + Duration::from_millis(100)).is_ok());
        b.take();
        // ...and tokens never pile up past the burst, however long idle.
        let much_later = t0 + Duration::from_secs(3600);
        assert!(b.peek(much_later).is_ok());
        b.take();
        assert!(b.peek(much_later).is_ok());
        b.take();
        assert!(b.peek(much_later).is_err(), "only `burst` tokens accumulate");
    }

    #[test]
    fn token_bucket_burst_defaults_to_rate_with_a_floor_of_one() {
        let t0 = Instant::now();
        let mut whole = TokenBucket::new(5.0, None, t0);
        for _ in 0..5 {
            assert!(whole.peek(t0).is_ok());
            whole.take();
        }
        assert!(whole.peek(t0).is_err());
        // A sub-1/s rate still admits one request at a time.
        let mut slow = TokenBucket::new(0.5, None, t0);
        assert!(slow.peek(t0).is_ok());
        slow.take();
        assert!(slow.peek(t0).is_err());
        assert!(slow.peek(t0 + Duration::from_secs(2)).is_ok());
    }

    #[test]
    fn retry_hints_clamp_into_the_wire_field() {
        assert_eq!(clamp_retry_us(Duration::ZERO), 1, "nonempty hint never rounds to none");
        assert_eq!(clamp_retry_us(Duration::from_nanos(1)), 1);
        assert_eq!(clamp_retry_us(Duration::from_micros(12_500)), 12_500);
        assert_eq!(clamp_retry_us(Duration::from_secs(1 << 40)), u32::MAX);
        match err_reply(7, &ServeError::Overloaded { retry_after: Duration::from_millis(3) }) {
            Message::InferErr { req_id: 7, code: ErrCode::Overloaded, retry_after_us, .. } => {
                assert_eq!(retry_after_us, 3_000);
            }
            other => panic!("unexpected reply {other:?}"),
        }
        match err_reply(8, &ServeError::DeadlineExceeded) {
            Message::InferErr { retry_after_us: 0, code: ErrCode::DeadlineExceeded, .. } => {}
            other => panic!("unexpected reply {other:?}"),
        }
    }
}
