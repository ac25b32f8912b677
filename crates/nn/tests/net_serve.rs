//! Client-driven failure modes of the TCP serving front end
//! (`da_nn::net`).
//!
//! The in-process suites pin the batch server's contract for cooperative
//! callers; this one pins it for the callers a network edge actually gets:
//! clients that disconnect with requests in flight, send hostile frames,
//! trickle half a header and stall, or ask for shutdown while others still
//! have work queued. Throughout, the invariant is the same as everywhere
//! else in this codebase — every reply that is delivered is bit-identical
//! to serial inference, no matter what any other connection is doing.

#![cfg(unix)]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use da_nn::layers::{Conv2d, Dense, Flatten, MaxPool2d, Relu};
use da_nn::net::{
    Client, ErrCode, FrameDecoder, Message, NetConfig, NetServer, NetStats, DEFAULT_MAX_FRAME,
};
use da_nn::serve::{BatchServer, ServeConfig};
use da_nn::{InferencePlan, Mode, Network};
use da_tensor::Tensor;
use rand::SeedableRng;

fn tiny_cnn(seed: u64) -> Network {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Network::new("net-serve-cnn")
        .push(Conv2d::new(1, 3, 3, 1, 1, &mut rng))
        .push(Relu)
        .push(MaxPool2d::new(2, 2))
        .push(Flatten)
        .push(Dense::new(3 * 4 * 4, 5, &mut rng))
}

fn sample(seed: u64) -> Tensor {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Tensor::rand_uniform(&[1, 8, 8], 0.0, 1.0, &mut rng)
}

/// Stand a front end on a fresh tiny network; returns the serial reference
/// logits for `samples` alongside the serving stack.
fn front_end(
    serve: ServeConfig,
    net_cfg: NetConfig,
) -> (
    Network,
    std::net::SocketAddr,
    da_nn::net::NetHandle,
    std::thread::JoinHandle<std::io::Result<NetStats>>,
) {
    let net = tiny_cnn(7);
    let server = BatchServer::from_plan(net.plan().expect("tiny cnn compiles"), serve);
    let front = NetServer::bind(server, "127.0.0.1:0", net_cfg).expect("bind loopback");
    let (addr, handle, join) = front.spawn();
    (net, addr, handle, join)
}

fn serve_cfg() -> ServeConfig {
    ServeConfig {
        workers: 2,
        max_batch: 4,
        flush_deadline: Duration::from_micros(200),
        queue_capacity: 32,
        ..ServeConfig::default()
    }
}

/// Serial ground truth for one sample.
fn reference(net: &Network, x: &Tensor) -> Vec<f32> {
    net.forward(&Tensor::stack(std::slice::from_ref(x)), Mode::Eval).0.data().to_vec()
}

fn bits_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn finish(
    handle: da_nn::net::NetHandle,
    join: std::thread::JoinHandle<std::io::Result<NetStats>>,
) -> NetStats {
    handle.shutdown();
    join.join().expect("reactor thread").expect("reactor exit")
}

#[test]
fn served_replies_are_bit_identical_and_match_out_of_order() {
    let (net, addr, handle, join) = front_end(serve_cfg(), NetConfig::default());
    let mut client = Client::connect(addr).expect("connect");

    // Pipeline everything, then collect replies in whatever order the
    // batches complete; req_ids do the matching.
    let items: Vec<Tensor> = (0..12).map(|i| sample(100 + i)).collect();
    let ids: Vec<u64> =
        items.iter().map(|x| client.send_infer(x.shape(), x.data()).expect("send")).collect();
    let mut got: Vec<Option<Vec<f32>>> = vec![None; items.len()];
    for _ in 0..items.len() {
        match client.recv_reply().expect("reply") {
            Message::InferOk { req_id, shape, data, .. } => {
                assert_eq!(shape, vec![5]);
                let at = ids.iter().position(|&id| id == req_id).expect("known id");
                assert!(got[at].is_none(), "duplicate reply for {req_id}");
                got[at] = Some(data);
            }
            other => panic!("expected INFER_OK, got {other:?}"),
        }
    }
    for (x, row) in items.iter().zip(&got) {
        let want = reference(&net, x);
        assert!(bits_eq(row.as_deref().expect("collected"), &want), "served logits diverged");
    }

    let server_stats = client.stats().expect("stats");
    assert_eq!(server_stats.items, items.len() as u64);
    assert!(server_stats.batches >= 1 && server_stats.batches <= items.len() as u64);
    assert_eq!(server_stats.worker_restarts, 0);
    assert_eq!(server_stats.deadline_expired, 0);

    let stats = finish(handle, join);
    assert_eq!(stats.replies_ok, items.len() as u64);
    assert_eq!(stats.protocol_errors, 0);
}

#[test]
fn pipelining_past_the_inflight_cap_does_not_deadlock() {
    // A small in-flight cap and a small batch queue make both park reasons
    // (cap hit, QueueFull) fire inside one client's burst.
    let serve = ServeConfig {
        workers: 1,
        max_batch: 4,
        flush_deadline: Duration::from_micros(200),
        queue_capacity: 4,
        ..ServeConfig::default()
    };
    let net_cfg = NetConfig { max_inflight: 4, ..NetConfig::default() };
    let (net, addr, handle, join) = front_end(serve, net_cfg);
    let mut client = Client::connect(addr).expect("connect");
    // A hang (the bug) must fail the test, not wedge the suite.
    client.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");

    // Burst far past the cap before reading a single byte: the reactor
    // drains the whole burst from the kernel buffer, pauses the connection,
    // and is left holding complete frames in its decoder. Those frames must
    // be resumed as replies free capacity — the client sends nothing more,
    // so no further socket readability will announce them.
    let items: Vec<Tensor> = (0..24).map(|i| sample(800 + i)).collect();
    let ids: Vec<u64> =
        items.iter().map(|x| client.send_infer(x.shape(), x.data()).expect("send")).collect();

    let mut got: Vec<Option<Vec<f32>>> = vec![None; items.len()];
    for _ in 0..items.len() {
        match client.recv_reply().expect("reply (deadlock if the decoder strands frames)") {
            Message::InferOk { req_id, shape, data, .. } => {
                assert_eq!(shape, vec![5]);
                let at = ids.iter().position(|&id| id == req_id).expect("known id");
                assert!(got[at].is_none(), "duplicate reply for {req_id}");
                got[at] = Some(data);
            }
            other => panic!("expected INFER_OK, got {other:?}"),
        }
    }
    for (x, row) in items.iter().zip(&got) {
        let want = reference(&net, x);
        assert!(bits_eq(row.as_deref().expect("collected"), &want), "served logits diverged");
    }

    let stats = finish(handle, join);
    assert_eq!(stats.replies_ok, items.len() as u64);
    assert_eq!(stats.protocol_errors, 0);
}

#[test]
fn mid_request_disconnect_leaves_other_clients_unaffected() {
    let (net, addr, handle, join) = front_end(serve_cfg(), NetConfig::default());

    // Client A pipelines a burst and vanishes without reading a byte.
    {
        let mut a = Client::connect(addr).expect("connect A");
        for i in 0..8 {
            let x = sample(200 + i);
            a.send_infer(x.shape(), x.data()).expect("send");
        }
        // Dropped here: the socket closes with up to 8 replies undeliverable.
    }

    // Client B keeps querying across A's disappearance; every reply must
    // still be bit-identical to serial inference.
    let mut b = Client::connect(addr).expect("connect B");
    for i in 0..8 {
        let x = sample(300 + i);
        let reply = b.infer(x.shape(), x.data()).expect("transport").expect("served");
        assert_eq!(reply.shape, vec![5]);
        assert!(bits_eq(&reply.data, &reference(&net, &x)), "B's logits diverged after A's exit");
    }
    b.ping().expect("server still healthy");

    let stats = finish(handle, join);
    // A's completions were dropped, not delivered — only B's count.
    assert!(stats.replies_ok >= 8);
    assert_eq!(stats.protocol_errors, 0);
}

#[test]
fn oversized_frame_is_refused_before_its_body_arrives() {
    let (_net, addr, handle, join) = front_end(serve_cfg(), NetConfig::default());
    let mut client = Client::connect(addr).expect("connect");

    // A 64 MiB length prefix with no body: the reply must come back
    // immediately (nothing is buffered toward an unacceptable frame).
    client.stream().write_all(&(64u32 << 20).to_le_bytes()).expect("write prefix");
    match client.recv_reply().expect("error reply") {
        Message::InferErr { req_id, code, .. } => {
            assert_eq!(req_id, 0, "protocol errors have no request to blame");
            assert_eq!(code, ErrCode::Protocol);
        }
        other => panic!("expected INFER_ERR, got {other:?}"),
    }
    // ... and the connection is closed behind it.
    let err = client.recv_reply().expect_err("connection must be closed");
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);

    let stats = finish(handle, join);
    assert_eq!(stats.protocol_errors, 1);
}

#[test]
fn reply_opcodes_from_a_client_are_protocol_errors() {
    let (_net, addr, handle, join) = front_end(serve_cfg(), NetConfig::default());
    let mut client = Client::connect(addr).expect("connect");
    client.send(&Message::Pong).expect("send");
    match client.recv_reply().expect("error reply") {
        Message::InferErr { req_id: 0, code: ErrCode::Protocol, .. } => {}
        other => panic!("expected protocol INFER_ERR, got {other:?}"),
    }
    let err = client.recv_reply().expect_err("connection must be closed");
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    let stats = finish(handle, join);
    assert_eq!(stats.protocol_errors, 1);
}

#[test]
fn execution_failure_is_reported_on_the_wire_and_the_connection_survives() {
    let (net, addr, handle, join) = front_end(serve_cfg(), NetConfig::default());
    let mut client = Client::connect(addr).expect("connect");

    // Wrong spatial size: the plan rejects it; the error must come back as
    // a typed reply, not a dropped connection.
    let bad = Tensor::zeros(&[1, 6, 6]);
    let err = client.infer(bad.shape(), bad.data()).expect("transport").expect_err("rejected");
    assert_eq!(err.code, ErrCode::Execution);
    assert_eq!(err.retry_after, None, "execution failures carry no retry hint");

    // Same connection keeps serving, bit-identically.
    let x = sample(400);
    let reply = client.infer(x.shape(), x.data()).expect("transport").expect("served");
    assert!(bits_eq(&reply.data, &reference(&net, &x)));

    let stats = finish(handle, join);
    assert_eq!(stats.replies_err, 1);
    assert_eq!(stats.protocol_errors, 0);
}

#[test]
fn slow_loris_partial_header_is_reaped_by_the_idle_timeout() {
    let net_cfg =
        NetConfig { idle_timeout: Some(Duration::from_millis(100)), ..NetConfig::default() };
    let (net, addr, handle, join) = front_end(serve_cfg(), net_cfg);

    // Two bytes of length prefix, then silence.
    let mut loris = TcpStream::connect(addr).expect("connect");
    loris.write_all(&[0x10, 0x00]).expect("half a header");
    loris.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let mut buf = [0u8; 16];
    let n = loris.read(&mut buf).expect("server closes, not hangs");
    assert_eq!(n, 0, "expected EOF from the idle sweep");

    // A well-behaved client is untouched by the reaping.
    let mut client = Client::connect(addr).expect("connect");
    let x = sample(500);
    let reply = client.infer(x.shape(), x.data()).expect("transport").expect("served");
    assert!(bits_eq(&reply.data, &reference(&net, &x)));

    let stats = finish(handle, join);
    assert_eq!(stats.idle_closed, 1);
}

#[test]
fn shutdown_drains_inflight_requests_bit_identically() {
    // A long flush deadline with a big max_batch parks A's burst inside the
    // worker's deadline wait — genuinely in flight when the drain begins.
    let serve = ServeConfig {
        workers: 1,
        max_batch: 64,
        flush_deadline: Duration::from_millis(200),
        flush_deadline_min: Duration::from_millis(200),
        queue_capacity: 64,
        ..ServeConfig::default()
    };
    let (net, addr, handle, join) = front_end(serve, NetConfig::default());

    let mut a = Client::connect(addr).expect("connect A");
    let items: Vec<Tensor> = (0..6).map(|i| sample(600 + i)).collect();
    let ids: Vec<u64> =
        items.iter().map(|x| a.send_infer(x.shape(), x.data()).expect("send")).collect();
    // Let the reactor admit the burst before the drain starts.
    std::thread::sleep(Duration::from_millis(50));

    let mut b = Client::connect(addr).expect("connect B");
    b.shutdown_server().expect("drain acknowledged");

    // A's replies still arrive — the workers stayed alive through the
    // drain — and carry exactly the logits serial inference produces.
    a.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let mut seen = 0;
    while seen < items.len() {
        match a.recv_reply().expect("drained reply") {
            Message::InferOk { req_id, data, .. } => {
                let at = ids.iter().position(|&id| id == req_id).expect("known id");
                assert!(
                    bits_eq(&data, &reference(&net, &items[at])),
                    "drained reply diverged from serial inference"
                );
                seen += 1;
            }
            other => panic!("expected INFER_OK during drain, got {other:?}"),
        }
    }

    let stats = join.join().expect("reactor thread").expect("reactor exit");
    assert_eq!(stats.replies_ok, items.len() as u64, "drain must deliver every reply");
    drop(handle);

    // The drained socket is closed once the last reply is flushed.
    let err = a.recv_reply().expect_err("socket closed after drain");
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
}

#[test]
fn wire_deadline_on_a_stalled_server_is_a_typed_reply_not_a_hang() {
    // Zero workers: requests queue but never execute, so only the deadline
    // machinery (admission shed + expiry sweep) can answer.
    let serve = ServeConfig { workers: 0, ..serve_cfg() };
    let (_net, addr, handle, join) = front_end(serve, NetConfig::default());

    let mut client = Client::connect(addr).expect("connect");
    client.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let x = sample(700);
    let id = client
        .send_infer_deadline(x.shape(), x.data(), Some(Duration::from_millis(5)))
        .expect("send");
    match client.recv_reply().expect("the sweep must answer") {
        Message::InferErr { req_id, code, .. } => {
            assert_eq!(req_id, id);
            assert_eq!(code, ErrCode::DeadlineExceeded);
        }
        other => panic!("expected DEADLINE_EXCEEDED, got {other:?}"),
    }
    let server_stats = client.stats().expect("stats");
    assert!(server_stats.deadline_expired >= 1);

    let stats = finish(handle, join);
    assert_eq!(stats.replies_err, 1);
    assert_eq!(stats.protocol_errors, 0);
}

#[test]
fn reload_over_the_wire_swaps_plans_without_dropping_the_connection() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let path_a = dir.join(format!("net-reload-a-{pid}.daplan"));
    let path_b = dir.join(format!("net-reload-b-{pid}.daplan"));

    let net_a = tiny_cnn(71);
    let net_b = tiny_cnn(72); // same shapes, different weights
    da_nn::InferencePlan::compile(&net_a, None).expect("plan A").save(&path_a).expect("save A");
    da_nn::InferencePlan::compile(&net_b, None).expect("plan B").save(&path_b).expect("save B");

    let server = BatchServer::from_plan(
        Arc::new(InferencePlan::load(&path_a).expect("serve A")),
        serve_cfg(),
    );
    let net_cfg = NetConfig { reload_path: Some(path_a.clone()), ..NetConfig::default() };
    let front = NetServer::bind(server, "127.0.0.1:0", net_cfg).expect("bind loopback");
    let (addr, handle, join) = front.spawn();

    let mut client = Client::connect(addr).expect("connect");
    client.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let x = sample(701);
    let before = client.infer(x.shape(), x.data()).expect("transport").expect("served");
    assert!(bits_eq(&before.data, &reference(&net_a, &x)), "plan A serves first");

    // Explicit-path reload to plan B: same connection, new weights.
    let generation = client.reload(&path_b.display().to_string()).expect("transport");
    assert_eq!(generation, Ok(1));
    let after = client.infer(x.shape(), x.data()).expect("transport").expect("served");
    assert!(bits_eq(&after.data, &reference(&net_b, &x)), "plan B serves after reload");

    // A nonexistent replacement is rejected; B keeps serving, generation
    // unchanged.
    let rejected = client.reload("/nonexistent/plan.daplan").expect("transport");
    assert!(rejected.is_err(), "missing snapshot must be rejected");
    let still = client.infer(x.shape(), x.data()).expect("transport").expect("served");
    assert!(bits_eq(&still.data, &reference(&net_b, &x)));
    assert_eq!(client.stats().expect("stats").generation, 1);

    // Empty path falls back to the configured reload path (plan A's file).
    assert_eq!(client.reload("").expect("transport"), Ok(2));
    let back = client.infer(x.shape(), x.data()).expect("transport").expect("served");
    assert!(bits_eq(&back.data, &reference(&net_a, &x)), "configured path reload back to A");

    drop(client);
    let stats = finish(handle, join);
    assert_eq!(stats.reloads_ok, 2);
    assert_eq!(stats.reloads_rejected, 1);
    assert_eq!(stats.protocol_errors, 0);

    std::fs::remove_file(&path_a).ok();
    std::fs::remove_file(&path_b).ok();
}

/// Register a no-op `SIGUSR1` handler via raw `sigaction(2)` with
/// `sa_flags = 0` — deliberately *without* `SA_RESTART`, so every delivery
/// interrupts whatever syscall a thread is blocked in with `EINTR`.
/// (`signal(2)` via glibc sets `SA_RESTART`, which would hide exactly the
/// retry paths this test exists to exercise.)
#[cfg(target_os = "linux")]
fn install_noop_sigusr1() {
    extern "C" fn noop(_sig: i32) {}

    #[repr(C)]
    struct SigAction {
        handler: usize,
        mask: [u64; 16],
        flags: i32,
        _pad: i32,
        restorer: usize,
    }
    extern "C" {
        fn sigaction(signum: i32, act: *const SigAction, old: *mut SigAction) -> i32;
    }
    let act = SigAction {
        handler: noop as *const () as usize,
        mask: [0; 16],
        flags: 0,
        _pad: 0,
        restorer: 0,
    };
    const SIGUSR1: i32 = 10;
    let rc = unsafe { sigaction(SIGUSR1, &act, std::ptr::null_mut()) };
    assert_eq!(rc, 0, "sigaction(SIGUSR1) failed");
}

#[cfg(target_os = "linux")]
#[test]
fn poll_backend_serves_bit_identically_through_an_eintr_storm() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    install_noop_sigusr1();
    let net_cfg = NetConfig { use_poll_backend: true, ..NetConfig::default() };
    let (net, addr, handle, join) = front_end(serve_cfg(), net_cfg);

    // Storm thread: pepper the whole process with SIGUSR1. Delivery lands
    // on an arbitrary thread — reactor mid-poll, worker mid-wait, client
    // mid-read — and every one of them must treat EINTR as "try again".
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
        fn getpid() -> i32;
    }
    let stop = Arc::new(AtomicBool::new(false));
    let storm = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            let pid = unsafe { getpid() };
            while !stop.load(Ordering::Relaxed) {
                unsafe { kill(pid, 10) };
                std::thread::sleep(Duration::from_micros(200));
            }
        })
    };

    let mut client = Client::connect(addr).expect("connect");
    client.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
    let items: Vec<Tensor> = (0..24).map(|i| sample(800 + i)).collect();
    let ids: Vec<u64> =
        items.iter().map(|x| client.send_infer(x.shape(), x.data()).expect("send")).collect();
    let mut seen = 0;
    while seen < items.len() {
        match client.recv_reply().expect("reply under signal storm") {
            Message::InferOk { req_id, data, .. } => {
                let at = ids.iter().position(|&id| id == req_id).expect("known id");
                assert!(
                    bits_eq(&data, &reference(&net, &items[at])),
                    "reply diverged under EINTR storm"
                );
                seen += 1;
            }
            other => panic!("expected INFER_OK, got {other:?}"),
        }
    }

    stop.store(true, Ordering::Relaxed);
    storm.join().expect("storm thread");
    let stats = finish(handle, join);
    assert_eq!(stats.replies_ok, items.len() as u64);
    assert_eq!(stats.protocol_errors, 0);
}

#[test]
fn poll_backend_drains_a_slow_reader_without_hanging() {
    use da_nn::net::frame;

    let net_cfg = NetConfig { use_poll_backend: true, ..NetConfig::default() };
    let (net, addr, handle, join) = front_end(serve_cfg(), net_cfg);

    // A raw socket that bursts requests, never reads, then trickles.
    let mut slow = TcpStream::connect(addr).expect("connect");
    let items: Vec<Tensor> = (0..6).map(|i| sample(900 + i)).collect();
    for (i, x) in items.iter().enumerate() {
        let msg = Message::Infer {
            req_id: i as u64 + 1,
            deadline_us: 0,
            shape: x.shape().to_vec(),
            data: x.data().to_vec(),
        };
        slow.write_all(&frame::encode(&msg)).expect("burst");
    }
    // Let the replies pile up in the reactor's write buffer, then start
    // the drain with the slow reader still holding them.
    std::thread::sleep(Duration::from_millis(100));
    handle.shutdown();

    // Trickle-read the drain: tiny chunks with pauses. The reactor must
    // keep flushing as the window reopens instead of dropping the
    // connection or hanging past its drain timeout.
    slow.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let mut decoder = FrameDecoder::new();
    let mut got = 0usize;
    let mut chunk = [0u8; 48];
    'read: loop {
        while let Some(payload) =
            decoder.next_payload(DEFAULT_MAX_FRAME).expect("well-formed frames")
        {
            match frame::decode(&payload).expect("decodable reply") {
                Message::InferOk { req_id, data, .. } => {
                    let at = req_id as usize - 1;
                    assert!(
                        bits_eq(&data, &reference(&net, &items[at])),
                        "slow-drained reply diverged"
                    );
                    got += 1;
                }
                other => panic!("expected INFER_OK, got {other:?}"),
            }
            if got == items.len() {
                break 'read;
            }
        }
        let n = slow.read(&mut chunk).expect("server must keep flushing");
        assert!(n > 0, "EOF before every drained reply arrived ({got}/{})", items.len());
        decoder.push(&chunk[..n]);
        std::thread::sleep(Duration::from_millis(2));
    }

    let stats = join.join().expect("reactor thread").expect("reactor exit");
    assert_eq!(stats.replies_ok, items.len() as u64, "every reply must survive the drain");
    drop(handle);
}
