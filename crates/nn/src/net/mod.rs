//! Cross-process serving: a TCP front end for the batch server.
//!
//! Everything below `da_nn::serve` assumes the caller shares the server's
//! address space. This module is the boundary where that stops being true:
//! a hand-rolled non-blocking reactor ([`server`]) accepts TCP clients,
//! speaks a minimal length-prefixed binary protocol ([`frame`]), and feeds
//! the same bounded queue in-process callers use — so a remote `INFER` is
//! bit-identical to a local [`crate::serve::BatchServer::logits`] call,
//! micro-batched with whatever else is in flight.
//!
//! # Layering
//!
//! ```text
//!   net::client::Client ── TCP ──▶ net::server::NetServer (reactor thread)
//!                                         │ try_submit_with(…callback…)
//!                                         ▼
//!                                  serve::BatchServer (bounded queue)
//!                                         │ micro-batches
//!                                         ▼
//!                                  engine::InferencePlan (one, shared)
//! ```
//!
//! * [`frame`] — the wire format: framing, message codec, hostile-input
//!   bounds. Pure functions over byte slices; compiled and tested on every
//!   platform.
//! * [`server`] — the reactor: epoll/poll readiness loop (via the
//!   `crates/shims/polling` shim), partial-read/-write handling,
//!   per-client backpressure, graceful drain. Unix-only.
//! * [`client`] — the blocking reference client used by tests, the
//!   loopback load generator, and the CI hammer. Unix-gated only because
//!   it is useless without a server to dial.
//!
//! The binary that ties this to a `.daplan` snapshot on disk is
//! `src/bin/da-serve.rs` at the workspace root.
//!
//! # Self-healing operations
//!
//! The wire protocol carries the runtime's robustness features end to end
//! (see `SERVING.md` at the workspace root for the ops view):
//!
//! * **Per-request deadlines** — `INFER` frames carry a microsecond budget
//!   (`0` defers to the server's [`crate::serve::ServeConfig`] default);
//!   requests that expire before execution come back as
//!   [`ErrCode::DeadlineExceeded`] instead of queueing forever.
//! * **Hot snapshot reload** — a `RELOAD` frame (or `SIGHUP` to
//!   `da-serve`, via [`NetHandle::reload`]) re-maps a `.daplan` snapshot
//!   and atomically swaps it in without dropping a connection. The
//!   replacement is fully validated first: a corrupt file is rejected in
//!   the `RELOAD_REPLY` while the old plan keeps serving.
//! * **Worker supervision** — a worker panic mid-batch fails only that
//!   batch's requests (typed error replies, never a hang); the `STATS`
//!   reply exposes the restart count, the deadline-shed count, and the
//!   plan-pool generation.
//! * **Overload control** — token-bucket admission ([`NetConfig::rate`],
//!   [`NetConfig::conn_rate`]) and deadline-aware load shedding refuse
//!   excess traffic with typed `Overloaded` replies carrying a
//!   `retry_after_us` hint (which [`RobustClient`] honors); under
//!   sustained shed pressure the batch server can fail over to a cheaper
//!   fallback plan, flagging each such reply `degraded`. The `STATS`
//!   reply is a forward-compatible counter list ([`frame::stats`]) so new
//!   counters never break old clients.
//!
//! # Why not an async runtime?
//!
//! The serving path's latency budget is dominated by the batch flush
//! deadline (microseconds to milliseconds), not socket readiness
//! dispatch. One reactor thread multiplexing all connections is enough to
//! saturate the worker pool, keeps the dependency surface at zero (the
//! build environment has no registry access), and makes the
//! concurrency story auditable: every socket is owned by exactly one
//! thread, and the only cross-thread traffic is the completion list +
//! poller wakeup pair documented in [`server`].

pub mod frame;

#[cfg(unix)]
pub mod client;
#[cfg(unix)]
pub mod server;

pub use frame::{ErrCode, FrameDecoder, FrameError, Message, DEFAULT_MAX_FRAME, MAX_RANK};

#[cfg(unix)]
pub use client::{Client, InferRefusal, InferReply, RetryPolicy, RobustClient, ServerStats};
#[cfg(unix)]
pub use server::{NetConfig, NetHandle, NetServer, NetStats};
