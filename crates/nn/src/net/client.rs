//! A small blocking client for the serving protocol.
//!
//! This is the reference peer for [`crate::net::server`]: tests, the
//! loopback load generator, and operational tooling all speak through it.
//! It is deliberately synchronous — one `TcpStream`, blocking reads — but
//! supports pipelining: [`send_infer`](Client::send_infer) queues a request
//! without waiting, [`recv_reply`](Client::recv_reply) blocks for the next
//! reply frame, and callers match them by `req_id` (replies arrive in
//! completion order, not submission order).
//!
//! [`Client`] is a thin, transparent wire peer: one connect, errors
//! surface as-is. [`RobustClient`] layers operational hardening on top —
//! reconnect with exponential backoff plus jitter, a per-call overall
//! deadline, and transparent retry of *idempotent* requests (`INFER`,
//! `PING`, `STATS` — inference is a pure function of the plan, so
//! resending after an ambiguous failure at worst recomputes). Non-idempotent
//! traffic (`RELOAD`, `SHUTDOWN`) is never silently resent. An
//! `Overloaded` refusal carrying a server retry hint is retried after
//! waiting out exactly that hint (capped by the call budget) instead of
//! the generic backoff curve — the server knows its backlog, the curve
//! does not.

use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use rand::{Rng, SeedableRng};

use crate::net::frame::{self, stats, ErrCode, FrameDecoder, Message, DEFAULT_MAX_FRAME};

/// A successful `INFER` reply.
#[derive(Clone, Debug, PartialEq)]
pub struct InferReply {
    /// Logit tensor shape.
    pub shape: Vec<usize>,
    /// Logit values, bit-identical to a serial run of the serving plan.
    pub data: Vec<f32>,
    /// Served by the brownout fallback plan rather than the primary.
    pub degraded: bool,
}

/// A typed refusal: the server answered, with an error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InferRefusal {
    /// Wire error code.
    pub code: ErrCode,
    /// Human-readable detail.
    pub msg: String,
    /// Server's estimate of when retrying could succeed (shed and
    /// rate-limit replies); `None` when the server sent no hint.
    pub retry_after: Option<Duration>,
}

/// One reply to an `INFER`: logits on success, a typed refusal otherwise.
pub type InferResult = Result<InferReply, InferRefusal>;

/// Snapshot of the server's lifetime counters ([`Client::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Batches dispatched to workers.
    pub batches: u64,
    /// Individual requests served.
    pub items: u64,
    /// Flushes forced by the latency deadline rather than a full batch.
    pub flush_deadline_ns: u64,
    /// Worker panics caught and recovered from.
    pub worker_restarts: u64,
    /// Requests shed because their deadline passed before execution.
    pub deadline_expired: u64,
    /// Plan generation: bumped by every successful hot reload.
    pub generation: u64,
    /// Requests shed by overload control (estimate-shed + shed-oldest).
    pub shed_total: u64,
    /// Requests served by the brownout fallback plan.
    pub degraded_total: u64,
    /// Requests refused by a token bucket before reaching the queue.
    pub rate_limited: u64,
    /// EWMA of per-item service time, nanoseconds (0 until warm).
    pub ewma_service_ns: u64,
    /// Plan reloads rejected with the old plan left serving.
    pub reloads_rejected: u64,
}

impl ServerStats {
    /// Decode the fixed-index counter list from a `STATS_REPLY` (see
    /// [`stats`]). Forward- and backward-compatible by construction: a
    /// counter the server predates reads as 0, and unknown tail counters
    /// from a newer server are ignored.
    pub fn from_counters(counters: &[u64]) -> ServerStats {
        let g = |i: usize| counters.get(i).copied().unwrap_or(0);
        ServerStats {
            batches: g(stats::BATCHES),
            items: g(stats::ITEMS),
            flush_deadline_ns: g(stats::FLUSH_DEADLINE_NS),
            worker_restarts: g(stats::WORKER_RESTARTS),
            deadline_expired: g(stats::DEADLINE_EXPIRED),
            generation: g(stats::GENERATION),
            shed_total: g(stats::SHED_TOTAL),
            degraded_total: g(stats::DEGRADED_TOTAL),
            rate_limited: g(stats::RATE_LIMITED),
            ewma_service_ns: g(stats::EWMA_SERVICE_NS),
            reloads_rejected: g(stats::RELOADS_REJECTED),
        }
    }
}

/// Blocking protocol client (see module docs).
pub struct Client {
    stream: TcpStream,
    decoder: FrameDecoder,
    next_id: u64,
    /// Frame ceiling applied to *replies*; mirrors the server default.
    pub max_frame: usize,
}

impl Client {
    /// Connect with Nagle disabled (single-request latency matters more
    /// than syscall counts here).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            decoder: FrameDecoder::new(),
            next_id: 1,
            max_frame: DEFAULT_MAX_FRAME,
        })
    }

    /// Bound how long [`recv_reply`](Client::recv_reply) may block.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Direct access to the underlying stream (tests use this to simulate
    /// abrupt disconnects and half-written frames).
    pub fn stream(&mut self) -> &mut TcpStream {
        &mut self.stream
    }

    /// Send any message as one frame.
    pub fn send(&mut self, msg: &Message) -> io::Result<()> {
        self.stream.write_all(&frame::encode(msg))
    }

    /// Block until one complete reply frame arrives and decode it.
    pub fn recv_reply(&mut self) -> io::Result<Message> {
        let mut buf = [0u8; 64 * 1024];
        loop {
            match self.decoder.next_payload(self.max_frame) {
                Ok(Some(payload)) => {
                    return frame::decode(&payload)
                        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()));
                }
                Ok(None) => {}
                Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
            }
            let n = match self.stream.read(&mut buf) {
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.decoder.push(&buf[..n]);
        }
    }

    /// Queue an `INFER` without waiting; returns the request id to match
    /// against [`recv_reply`](Client::recv_reply). The server applies its
    /// configured default deadline, if any.
    pub fn send_infer(&mut self, shape: &[usize], data: &[f32]) -> io::Result<u64> {
        self.send_infer_deadline(shape, data, None)
    }

    /// Like [`send_infer`](Client::send_infer) with an explicit per-request
    /// deadline. The budget starts ticking at server admission; if it
    /// expires before the request reaches a worker the reply is
    /// [`ErrCode::DeadlineExceeded`]. Sub-microsecond and zero budgets are
    /// rounded up to 1µs (`0` on the wire means "server default").
    pub fn send_infer_deadline(
        &mut self,
        shape: &[usize],
        data: &[f32],
        deadline: Option<Duration>,
    ) -> io::Result<u64> {
        let req_id = self.next_id;
        self.next_id += 1;
        let deadline_us = match deadline {
            None => 0,
            Some(d) => d.as_micros().clamp(1, u128::from(u32::MAX)) as u32,
        };
        self.send(&Message::Infer {
            req_id,
            deadline_us,
            shape: shape.to_vec(),
            data: data.to_vec(),
        })?;
        Ok(req_id)
    }

    /// One synchronous inference round trip.
    pub fn infer(&mut self, shape: &[usize], data: &[f32]) -> io::Result<InferResult> {
        let want = self.send_infer(shape, data)?;
        let reply = self.recv_reply()?;
        decode_infer_reply(want, reply)
    }

    /// Liveness round trip.
    pub fn ping(&mut self) -> io::Result<()> {
        self.send(&Message::Ping)?;
        match self.recv_reply()? {
            Message::Pong => Ok(()),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected PONG, got {other:?}"),
            )),
        }
    }

    /// Fetch the server's lifetime counters.
    pub fn stats(&mut self) -> io::Result<ServerStats> {
        self.send(&Message::Stats)?;
        match self.recv_reply()? {
            Message::StatsReply { counters } => Ok(ServerStats::from_counters(&counters)),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected STATS_REPLY, got {other:?}"),
            )),
        }
    }

    /// Ask the server to hot-reload its plan from `path` (empty string =
    /// the server's configured reload path). `Ok(Ok(generation))` means the
    /// replacement validated and is now serving; `Ok(Err(msg))` means it
    /// was rejected and the old plan keeps serving.
    pub fn reload(&mut self, path: &str) -> io::Result<Result<u64, String>> {
        self.send(&Message::Reload { path: path.to_string() })?;
        match self.recv_reply()? {
            Message::ReloadReply { ok: true, generation, .. } => Ok(Ok(generation)),
            Message::ReloadReply { ok: false, msg, .. } => Ok(Err(msg)),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected RELOAD_REPLY, got {other:?}"),
            )),
        }
    }

    /// Ask the server to drain and exit; returns once the drain is
    /// acknowledged.
    pub fn shutdown_server(&mut self) -> io::Result<()> {
        self.send(&Message::Shutdown)?;
        match self.recv_reply()? {
            Message::ShutdownAck => Ok(()),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected SHUTDOWN_ACK, got {other:?}"),
            )),
        }
    }
}

/// Knobs for [`RobustClient`]'s reconnect and retry behavior.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Attempts per call, including the first (minimum 1).
    pub max_attempts: usize,
    /// Delay before the first reconnect; doubles per consecutive failure.
    pub base_backoff: Duration,
    /// Ceiling on the (pre-jitter) reconnect delay.
    pub max_backoff: Duration,
    /// Overall wall-clock budget per call, spanning reconnects and
    /// retries. `None` = unbounded.
    pub call_deadline: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(20),
            max_backoff: Duration::from_secs(1),
            call_deadline: Some(Duration::from_secs(10)),
        }
    }
}

/// A self-healing wrapper over [`Client`] (see module docs): reconnects
/// with exponential backoff plus jitter and retries idempotent calls
/// until the [`RetryPolicy`] says stop. Construction is lazy and cannot
/// fail — the first call connects.
pub struct RobustClient {
    addr: String,
    policy: RetryPolicy,
    conn: Option<Client>,
    /// Consecutive connect failures; resets on success.
    connect_failures: u32,
    rng: rand::rngs::StdRng,
}

impl RobustClient {
    /// Create a client for `addr` ("host:port"). Does not connect yet.
    pub fn new(addr: impl Into<String>, policy: RetryPolicy) -> RobustClient {
        let addr = addr.into();
        // Seed jitter from the wall clock so concurrent clients desync;
        // nothing here needs cryptographic or reproducible randomness.
        let seed = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x9e37_79b9_7f4a_7c15)
            ^ (&addr as *const String as u64);
        RobustClient {
            addr,
            policy,
            conn: None,
            connect_failures: 0,
            rng: rand::rngs::StdRng::seed_from_u64(seed),
        }
    }

    /// Pre-jitter backoff for the next reconnect attempt.
    fn backoff(&mut self) -> Duration {
        let exp = self.connect_failures.min(16);
        let raw = self.policy.base_backoff.saturating_mul(1u32 << exp).min(self.policy.max_backoff);
        // Full jitter in [raw/2, raw): desynchronizes a thundering herd
        // without ever collapsing the delay to zero.
        raw.mul_f64(self.rng.gen_range(0.5..1.0))
    }

    /// Connect if not connected, respecting `deadline`. On success the
    /// stream's read timeout is set to the remaining budget.
    fn ensure_conn(&mut self, deadline: Option<Instant>) -> io::Result<&mut Client> {
        while self.conn.is_none() {
            match Client::connect(&self.addr) {
                Ok(c) => {
                    self.connect_failures = 0;
                    self.conn = Some(c);
                }
                Err(err) => {
                    self.connect_failures = self.connect_failures.saturating_add(1);
                    let pause = self.backoff();
                    match deadline {
                        Some(d) if Instant::now() + pause >= d => {
                            return Err(io::Error::new(
                                io::ErrorKind::TimedOut,
                                format!("connect to {} timed out: {err}", self.addr),
                            ));
                        }
                        _ => std::thread::sleep(pause),
                    }
                }
            }
        }
        let conn = self.conn.as_mut().expect("just connected");
        conn.set_read_timeout(
            deadline
                .map(|d| d.saturating_duration_since(Instant::now()).max(Duration::from_millis(1))),
        )?;
        Ok(conn)
    }

    /// Run one idempotent round trip with reconnect + retry. Any transport
    /// error drops the connection and retries on a fresh one until
    /// attempts or the deadline run out.
    fn with_retry<T>(&mut self, mut op: impl FnMut(&mut Client) -> io::Result<T>) -> io::Result<T> {
        let deadline = self.policy.call_deadline.map(|d| Instant::now() + d);
        let attempts = self.policy.max_attempts.max(1);
        let mut last = None;
        for _ in 0..attempts {
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    break;
                }
            }
            match self.ensure_conn(deadline) {
                Ok(conn) => match op(conn) {
                    Ok(v) => return Ok(v),
                    Err(err) => {
                        // The stream may hold half a frame; never reuse it.
                        self.conn = None;
                        last = Some(err);
                    }
                },
                Err(err) => last = Some(err),
            }
        }
        Err(last
            .unwrap_or_else(|| io::Error::new(io::ErrorKind::TimedOut, "call deadline exhausted")))
    }

    /// One synchronous inference, surviving reconnects. `deadline` is both
    /// sent to the server (per-request budget) and, combined with
    /// [`RetryPolicy::call_deadline`], bounds the whole call locally.
    ///
    /// Refusals are server *answers*, not transport faults, and are
    /// normally returned as-is — except an [`ErrCode::Overloaded`] refusal
    /// carrying a retry hint: the client waits out exactly the hint
    /// (capped by the remaining call budget) on the same connection and
    /// resends, until attempts or the budget run out, at which point the
    /// last refusal is returned.
    pub fn infer(
        &mut self,
        shape: &[usize],
        data: &[f32],
        deadline: Option<Duration>,
    ) -> io::Result<InferResult> {
        let call_deadline = self.policy.call_deadline.map(|d| Instant::now() + d);
        let attempts = self.policy.max_attempts.max(1);
        let mut last_err: Option<io::Error> = None;
        let mut last_refusal: Option<InferRefusal> = None;
        for _ in 0..attempts {
            if let Some(d) = call_deadline {
                if Instant::now() >= d {
                    break;
                }
            }
            let conn = match self.ensure_conn(call_deadline) {
                Ok(c) => c,
                Err(err) => {
                    last_err = Some(err);
                    continue;
                }
            };
            let round = conn
                .send_infer_deadline(shape, data, deadline)
                .and_then(|want| conn.recv_reply().map(|reply| (want, reply)))
                .and_then(|(want, reply)| decode_infer_reply(want, reply));
            match round {
                Ok(Ok(reply)) => return Ok(Ok(reply)),
                Ok(Err(refusal)) => {
                    let hint = (refusal.code == ErrCode::Overloaded)
                        .then_some(refusal.retry_after)
                        .flatten();
                    let Some(hint) = hint else { return Ok(Err(refusal)) };
                    // The connection is healthy — the server answered — so
                    // keep it and sleep the server's own estimate.
                    let pause = match call_deadline {
                        Some(d) => hint.min(d.saturating_duration_since(Instant::now())),
                        None => hint,
                    };
                    std::thread::sleep(pause);
                    last_refusal = Some(refusal);
                }
                Err(err) => {
                    // The stream may hold half a frame; never reuse it.
                    self.conn = None;
                    last_err = Some(err);
                }
            }
        }
        if let Some(refusal) = last_refusal {
            return Ok(Err(refusal));
        }
        Err(last_err
            .unwrap_or_else(|| io::Error::new(io::ErrorKind::TimedOut, "call deadline exhausted")))
    }

    /// Liveness round trip, surviving reconnects.
    pub fn ping(&mut self) -> io::Result<()> {
        self.with_retry(|c| c.ping())
    }

    /// Fetch server counters, surviving reconnects.
    pub fn stats(&mut self) -> io::Result<ServerStats> {
        self.with_retry(|c| c.stats())
    }

    /// Escape hatch to the current raw connection (connecting if needed)
    /// for non-idempotent traffic the wrapper refuses to auto-retry.
    pub fn raw(&mut self) -> io::Result<&mut Client> {
        let deadline = self.policy.call_deadline.map(|d| Instant::now() + d);
        self.ensure_conn(deadline)
    }
}

/// Turn the reply frame for request `want` into an [`InferResult`]; any
/// other frame is a protocol error.
fn decode_infer_reply(want: u64, reply: Message) -> io::Result<InferResult> {
    match reply {
        Message::InferOk { req_id, degraded, shape, data } if req_id == want => {
            Ok(Ok(InferReply { shape, data, degraded }))
        }
        Message::InferErr { req_id, code, retry_after_us, msg } if req_id == want => {
            Ok(Err(InferRefusal {
                code,
                msg,
                retry_after: (retry_after_us > 0)
                    .then(|| Duration::from_micros(u64::from(retry_after_us))),
            }))
        }
        other => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unexpected reply to synchronous infer: {other:?}"),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn read_msg(stream: &mut TcpStream, dec: &mut FrameDecoder) -> Message {
        let mut buf = [0u8; 64 * 1024];
        loop {
            if let Some(p) = dec.next_payload(DEFAULT_MAX_FRAME).expect("well-framed") {
                return frame::decode(&p).expect("well-formed");
            }
            let n = stream.read(&mut buf).expect("read");
            assert!(n > 0, "peer closed mid-script");
            dec.push(&buf[..n]);
        }
    }

    #[test]
    fn server_stats_decode_is_forward_and_backward_compatible() {
        // An older server sent fewer counters than this build knows:
        // everything it predates reads 0.
        let old = ServerStats::from_counters(&[1, 2, 3]);
        assert_eq!(old.batches, 1);
        assert_eq!(old.items, 2);
        assert_eq!(old.flush_deadline_ns, 3);
        assert_eq!(old.worker_restarts, 0);
        assert_eq!(old.shed_total, 0);
        assert_eq!(old.rate_limited, 0);
        // A newer server sent counters this build does not know: the tail
        // is ignored, the known prefix decodes.
        let mut counters = vec![0u64; stats::COUNT + 5];
        counters[stats::SHED_TOTAL] = 9;
        counters[stats::RATE_LIMITED] = 4;
        counters[stats::EWMA_SERVICE_NS] = 77;
        counters[stats::COUNT..].fill(u64::MAX);
        let new = ServerStats::from_counters(&counters);
        assert_eq!(new.shed_total, 9);
        assert_eq!(new.rate_limited, 4);
        assert_eq!(new.ewma_service_ns, 77);
    }

    /// The RetryAfter satellite: an `Overloaded` refusal with a hint is
    /// retried after waiting out exactly the hint — on the same
    /// connection, not through the reconnect/backoff path.
    #[test]
    fn robust_client_waits_out_the_retry_hint_then_succeeds() {
        const HINT: Duration = Duration::from_millis(80);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut dec = FrameDecoder::new();
            let Message::Infer { req_id, .. } = read_msg(&mut stream, &mut dec) else {
                panic!("expected INFER")
            };
            stream
                .write_all(&frame::encode(&Message::InferErr {
                    req_id,
                    code: ErrCode::Overloaded,
                    retry_after_us: HINT.as_micros() as u32,
                    msg: "shed".into(),
                }))
                .expect("write refusal");
            // The retry arrives on the same stream: same decoder state.
            let Message::Infer { req_id, shape, data, .. } = read_msg(&mut stream, &mut dec) else {
                panic!("expected retried INFER")
            };
            stream
                .write_all(&frame::encode(&Message::InferOk {
                    req_id,
                    degraded: true,
                    shape,
                    data,
                }))
                .expect("write reply");
        });
        let mut client = RobustClient::new(addr.to_string(), RetryPolicy::default());
        let t0 = Instant::now();
        let reply = client.infer(&[2], &[1.0, -2.0], None).expect("transport ok").expect("served");
        assert!(
            t0.elapsed() >= HINT,
            "retry fired after {:?}, before the {HINT:?} hint elapsed",
            t0.elapsed()
        );
        assert!(reply.degraded);
        assert_eq!(reply.data, vec![1.0, -2.0]);
        assert_eq!(reply.shape, vec![2]);
        server.join().expect("server thread");
    }

    /// Refusals that carry no hint — or are not `Overloaded` — come back
    /// immediately, untouched by the retry machinery.
    #[test]
    fn refusals_without_an_overload_hint_are_returned_immediately() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut dec = FrameDecoder::new();
            let Message::Infer { req_id, .. } = read_msg(&mut stream, &mut dec) else {
                panic!("expected INFER")
            };
            // A hint on a non-Overloaded code must not trigger a retry wait.
            stream
                .write_all(&frame::encode(&Message::InferErr {
                    req_id,
                    code: ErrCode::DeadlineExceeded,
                    retry_after_us: 5_000_000,
                    msg: "expired in queue".into(),
                }))
                .expect("write refusal");
        });
        let mut client = RobustClient::new(addr.to_string(), RetryPolicy::default());
        let t0 = Instant::now();
        let refusal = client.infer(&[1], &[0.5], None).expect("transport ok").expect_err("refused");
        assert!(t0.elapsed() < Duration::from_secs(5), "must not sleep a non-overload hint");
        assert_eq!(refusal.code, ErrCode::DeadlineExceeded);
        assert_eq!(refusal.retry_after, Some(Duration::from_secs(5)));
        server.join().expect("server thread");
    }
}
