//! Overload-control property suite for the serving edge.
//!
//! The overload layer (token-bucket admission in `da_nn::net`, deadline-
//! aware shedding in `da_nn::serve`) exists to keep the server answering
//! under pressure. These tests pin the two invariants that make shedding
//! safe to rely on:
//!
//! 1. **A refused request never reaches a worker.** Whether it is shed at
//!    admission, traded away by shed-oldest, or rate-limited at the
//!    socket, the refusal is typed and immediate — the worker pool's
//!    `items` counter only ever counts requests that were answered `Ok`.
//! 2. **Survivors are untouched.** Every accepted reply stays
//!    bit-identical to serial inference no matter how much traffic was
//!    refused around it.
//!
//! The unit suites in `serve.rs` / `net/server.rs` cover each mechanism in
//! isolation; this file floods mixed traffic through the whole stack.

#![cfg(unix)]

use std::time::{Duration, Instant};

use da_nn::layers::{Conv2d, Dense, Flatten, MaxPool2d, Relu};
use da_nn::net::{Client, ErrCode, NetConfig, NetServer};
use da_nn::serve::{BatchServer, Pending, Reply, ServeConfig, ServeError};
use da_nn::{Mode, Network};
use da_tensor::Tensor;
use rand::SeedableRng;

fn tiny_cnn(seed: u64) -> Network {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Network::new("overload-cnn")
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

fn bits_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Serial ground truth for one sample.
fn reference(net: &Network, x: &Tensor) -> Vec<f32> {
    net.forward(&Tensor::stack(std::slice::from_ref(x)), Mode::Eval).0.data().to_vec()
}

/// Flood a warm (slow-looking) server with mixed traffic: deadline-free
/// requests that must be served, interleaved with requests whose budget the
/// service estimate already blows. Every outcome is typed, every refusal
/// skips the workers entirely, and every survivor is bit-identical.
#[test]
fn shed_and_refused_requests_never_reach_a_worker() {
    let net = tiny_cnn(7);
    let config = ServeConfig {
        workers: 1,
        max_batch: 4,
        flush_deadline: Duration::ZERO,
        flush_deadline_min: Duration::ZERO,
        queue_capacity: 8,
        ..ServeConfig::default()
    };
    let server = BatchServer::from_plan(net.plan().expect("tiny cnn compiles"), config);

    // Make the server look expensive: with a 10 s per-item estimate, any
    // 5 ms budget is provably doomed at admission. Real batches blend the
    // estimate back down, but from 10 s it cannot decay below 5 ms within
    // this flood (α = 1/8 over at most a few dozen batches).
    server.force_ewma_service_ns(10_000_000_000);

    let total = 64usize;
    let items: Vec<Tensor> = (0..total).map(|i| sample(100 + i as u64)).collect();
    let mut admitted: Vec<(usize, Pending)> = Vec::new();
    let mut shed = 0usize;
    let mut refused = 0usize;
    for (i, x) in items.iter().enumerate() {
        if i % 2 == 0 {
            // Deadline-free: may be refused QueueFull under the burst, but
            // must never be shed by the deadline machinery.
            match server.try_submit(x) {
                Ok(p) => admitted.push((i, p)),
                Err(ServeError::QueueFull) => refused += 1,
                Err(other) => panic!("deadline-free refusal must be QueueFull, got {other:?}"),
            }
        } else {
            // Doomed budget: the estimate says ~10 s, the caller offers 5 ms.
            let deadline = Some(Instant::now() + Duration::from_millis(5));
            match server.try_submit_deadline(x, deadline) {
                Err(ServeError::Overloaded { retry_after }) => {
                    assert!(retry_after > Duration::ZERO, "sheds carry a retry hint");
                    shed += 1;
                }
                Err(other) => panic!("doomed deadline must shed as Overloaded, got {other:?}"),
                Ok(_) => panic!("request {i} admitted against a provably blown deadline"),
            }
        }
    }
    assert_eq!(shed, total / 2, "every doomed budget is shed at admission");

    // Every admitted request resolves Ok (no worker faults here) and
    // bit-identical to serial inference — shedding around it changed
    // nothing.
    let mut served = 0usize;
    for (i, pending) in admitted {
        let Reply { data, shape, degraded } =
            pending.wait_reply().expect("admitted request serves");
        assert_eq!(shape, vec![5]);
        assert!(!degraded, "no brownout configured, no degraded replies");
        assert!(bits_eq(&data, &reference(&net, &items[i])), "sample {i} diverged");
        served += 1;
    }
    assert_eq!(served + shed + refused, total, "every request got exactly one verdict");

    // The load-bearing property: refusals never touched a worker. The pool
    // dispatched exactly the requests that came back Ok.
    let stats = server.stats();
    assert_eq!(stats.items, served as u64, "workers only ever saw accepted requests");
    assert_eq!(stats.shed_total, shed as u64);
    assert_eq!(stats.deadline_expired, 0, "admission shed beats queue expiry");
}

/// Global token bucket at the socket edge: a burst past the bucket gets
/// typed `Overloaded` + retry hints, accepted replies are bit-identical,
/// and the batch server never sees the refused requests.
#[test]
fn rate_limited_requests_get_typed_retry_hints_and_never_execute() {
    let net = tiny_cnn(17);
    let serve = ServeConfig {
        workers: 1,
        max_batch: 4,
        flush_deadline: Duration::from_micros(200),
        queue_capacity: 32,
        ..ServeConfig::default()
    };
    let server = BatchServer::from_plan(net.plan().expect("tiny cnn compiles"), serve);
    // Two tokens, then ~one token per half hour: exactly two requests of
    // the burst can be admitted no matter how slowly this test runs.
    let net_cfg = NetConfig { rate: Some(0.0005), burst: Some(2.0), ..NetConfig::default() };
    let front = NetServer::bind(server, "127.0.0.1:0", net_cfg).expect("bind loopback");
    let (addr, handle, join) = front.spawn();

    let mut client = Client::connect(addr).expect("connect");
    client.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let items: Vec<Tensor> = (0..10).map(|i| sample(200 + i)).collect();
    let mut accepted = 0usize;
    let mut limited = 0usize;
    for x in &items {
        match client.infer(x.shape(), x.data()).expect("transport") {
            Ok(reply) => {
                assert!(bits_eq(&reply.data, &reference(&net, x)), "admitted reply diverged");
                accepted += 1;
            }
            Err(refusal) => {
                assert_eq!(refusal.code, ErrCode::Overloaded);
                let hint = refusal.retry_after.expect("rate limits always hint a retry");
                assert!(hint > Duration::ZERO);
                limited += 1;
            }
        }
    }
    assert_eq!(accepted, 2, "the burst capacity is exactly the bucket depth");
    assert_eq!(limited, 8);

    // Refused requests never crossed into the batch server.
    let server_stats = client.stats().expect("stats");
    assert_eq!(server_stats.items, accepted as u64, "workers only saw admitted requests");
    assert_eq!(server_stats.rate_limited, limited as u64);

    drop(client);
    handle.shutdown();
    let stats = join.join().expect("reactor thread").expect("reactor exit");
    assert_eq!(stats.rate_limited, limited as u64);
    assert_eq!(stats.replies_ok, accepted as u64);
    assert_eq!(stats.protocol_errors, 0);
}

/// Per-connection buckets are independent: one connection exhausting its
/// budget leaves a fresh connection's budget untouched.
#[test]
fn per_connection_buckets_are_independent() {
    let net = tiny_cnn(27);
    let serve = ServeConfig {
        workers: 1,
        max_batch: 4,
        flush_deadline: Duration::from_micros(200),
        queue_capacity: 32,
        ..ServeConfig::default()
    };
    let server = BatchServer::from_plan(net.plan().expect("tiny cnn compiles"), serve);
    // One token per connection, negligible refill.
    let net_cfg =
        NetConfig { conn_rate: Some(0.0005), conn_burst: Some(1.0), ..NetConfig::default() };
    let front = NetServer::bind(server, "127.0.0.1:0", net_cfg).expect("bind loopback");
    let (addr, handle, join) = front.spawn();

    let x = sample(300);
    let want = reference(&net, &x);

    let mut a = Client::connect(addr).expect("connect A");
    a.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let first = a.infer(x.shape(), x.data()).expect("transport").expect("A's budget admits one");
    assert!(bits_eq(&first.data, &want));
    let refusal =
        a.infer(x.shape(), x.data()).expect("transport").expect_err("A's budget is spent");
    assert_eq!(refusal.code, ErrCode::Overloaded);
    assert!(refusal.retry_after.expect("hinted") > Duration::ZERO);

    // A fresh connection has its own bucket — A's exhaustion is invisible.
    let mut b = Client::connect(addr).expect("connect B");
    b.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let hers = b.infer(x.shape(), x.data()).expect("transport").expect("B's own budget admits");
    assert!(bits_eq(&hers.data, &want));

    drop(a);
    drop(b);
    handle.shutdown();
    let stats = join.join().expect("reactor thread").expect("reactor exit");
    assert_eq!(stats.rate_limited, 1);
    assert_eq!(stats.replies_ok, 2);
}
