//! Fault-injection ("chaos") suite for the self-healing serving runtime.
//!
//! Compiled only with the `failpoints` cargo feature
//! (`cargo test --features failpoints --test chaos`); without it the
//! injection sites in `da_nn` are inert no-ops and this file is empty.
//!
//! Every test here drives a *production* code path through a named
//! failpoint and asserts the runtime's self-healing contract:
//!
//! - a worker panic mid-batch kills only the requests it was carrying
//!   (typed [`ServeError::WorkerDied`], never a hang), the supervisor
//!   restarts the worker, and every surviving reply stays **bit-identical**
//!   to serial inference;
//! - a corrupt or unreadable replacement snapshot is rejected by hot
//!   reload while the old plan keeps serving, and a valid replacement
//!   lands atomically with a generation bump;
//! - deadlines shed stalled requests instead of stranding their callers;
//! - a stalled worker inflates the service-time EWMA, so overload is shed
//!   at admission (typed `Overloaded` + retry hint) instead of collapsing
//!   the queue;
//! - an interface-mismatched replacement snapshot (wrong head width) is
//!   rejected by the reload handshake while the old plan keeps serving;
//! - an `accept(2)` error storm pauses the listener (no busy spin) and
//!   service resumes after the backoff.
//!
//! The failpoint registry is process-global, so these tests serialize
//! behind one mutex and reset the registry on entry.

#![cfg(all(unix, feature = "failpoints"))]

use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use da_failpoints::{Fault, Spec};
use da_nn::layers::{Conv2d, Dense, Flatten, MaxPool2d, Relu};
use da_nn::net::{Client, NetConfig, NetServer};
use da_nn::serve::{BatchServer, Pending, ServeConfig, ServeError};
use da_nn::{InferencePlan, Mode, Network, SnapshotError};
use da_tensor::Tensor;
use rand::SeedableRng;

/// Serializes the suite: the failpoint registry is shared process state.
static GUARD: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    let g = GUARD.lock().unwrap_or_else(|e| e.into_inner());
    da_failpoints::reset();
    g
}

fn tiny_cnn(seed: u64) -> Network {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Network::new("chaos-cnn")
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

/// One worker, one-sample batches, no flush wait: dispatch order is exactly
/// submission order, so `skip(n)` targets the n+1-th request's batch.
/// Hot reload from a file: map and validate the snapshot, then swap it in.
fn reload_from(server: &BatchServer, path: &Path) -> Result<u64, SnapshotError> {
    server.reload_plan(Arc::new(InferencePlan::load(path)?))
}

fn serial_cfg() -> ServeConfig {
    ServeConfig {
        workers: 1,
        max_batch: 1,
        flush_deadline: Duration::ZERO,
        flush_deadline_min: Duration::ZERO,
        queue_capacity: 32,
        ..ServeConfig::default()
    }
}

#[test]
fn worker_panic_mid_batch_respawns_and_survivors_stay_bit_identical() {
    let _g = lock();
    let net = tiny_cnn(11);
    let server = BatchServer::from_plan(net.plan().expect("tiny cnn compiles"), serial_cfg());

    // Panic on exactly the 2nd dispatched batch, once.
    da_failpoints::set(
        "serve/worker_batch",
        Spec::new(Fault::Panic("chaos: worker crash".into())).skip(1).times(1),
    );

    let items: Vec<Tensor> = (0..6).map(|i| sample(100 + i)).collect();
    let pending: Vec<Pending> =
        items.iter().map(|x| server.submit(x).expect("queue has room")).collect();
    let results: Vec<Result<Tensor, ServeError>> = pending.into_iter().map(|p| p.wait()).collect();

    // Exactly the batch the panic landed on died — typed error, no hang.
    let died: Vec<usize> = results
        .iter()
        .enumerate()
        .filter(|(_, r)| matches!(r, Err(ServeError::WorkerDied)))
        .map(|(i, _)| i)
        .collect();
    assert_eq!(died, vec![1], "the 2nd dispatched request carries the crash");

    // Every survivor is bit-identical to serial inference.
    let reference = net.forward(&Tensor::stack(&items), Mode::Eval).0;
    let classes = reference.shape()[1];
    for (i, result) in results.iter().enumerate() {
        if i == 1 {
            continue;
        }
        let got = result.as_ref().expect("survivor served");
        let want = &reference.data()[i * classes..(i + 1) * classes];
        assert!(bits_eq(got.data(), want), "sample {i} diverged after the crash");
    }

    // The supervisor recovered the worker and the server still serves.
    let stats = server.stats();
    assert_eq!(stats.worker_restarts, 1, "exactly one supervised respawn");
    let after = server.logits(&sample(999)).expect("server serves after respawn");
    assert_eq!(after.len(), classes);
    assert!(da_failpoints::hits("serve/worker_batch") >= 6);
}

#[test]
fn execution_fault_fails_one_batch_without_a_restart() {
    let _g = lock();
    let net = tiny_cnn(12);
    let server = BatchServer::from_plan(net.plan().expect("tiny cnn compiles"), serial_cfg());

    da_failpoints::set(
        "serve/worker_batch",
        Spec::new(Fault::Err("chaos: injected I/O error".into())).times(1),
    );

    match server.logits(&sample(1)) {
        Err(ServeError::Execution(msg)) => assert!(msg.contains("injected"), "{msg}"),
        other => panic!("expected injected execution failure, got {other:?}"),
    }
    // The worker survived (no panic, no respawn) and keeps serving.
    server.logits(&sample(2)).expect("worker alive after failed batch");
    let stats = server.stats();
    assert_eq!(stats.worker_restarts, 0);
    assert_eq!(stats.failed_batches, 1);
}

#[test]
fn slow_batch_expires_queued_deadlines_without_stranding_callers() {
    let _g = lock();
    let net = tiny_cnn(13);
    let server = BatchServer::from_plan(net.plan().expect("tiny cnn compiles"), serial_cfg());

    // The first dispatched batch stalls for 200 ms — far past the 10 ms
    // budget the second request carries.
    da_failpoints::set(
        "serve/worker_batch",
        Spec::new(Fault::Delay(Duration::from_millis(200))).times(1),
    );

    let slow = server.submit(&sample(1)).expect("queued");
    let hurried = server
        .submit_deadline(&sample(2), Some(Instant::now() + Duration::from_millis(10)))
        .expect("queued");

    let t0 = Instant::now();
    assert_eq!(hurried.wait(), Err(ServeError::DeadlineExceeded));
    // The expiry sweep delivered the verdict while the worker was still
    // stalled — the caller never waited out the full delay chain.
    assert!(
        t0.elapsed() < Duration::from_millis(150),
        "deadline verdict should beat the stalled batch"
    );
    slow.wait().expect("the slow request itself still completes");
    assert!(server.stats().deadline_expired >= 1);
}

#[test]
fn corrupt_or_unreadable_reload_is_rejected_then_a_valid_one_lands() {
    let _g = lock();
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let path_a = dir.join(format!("chaos-a-{pid}.daplan"));
    let path_b = dir.join(format!("chaos-b-{pid}.daplan"));
    let path_bad = dir.join(format!("chaos-bad-{pid}.daplan"));

    let net_a = tiny_cnn(21);
    let net_b = tiny_cnn(22); // same shapes, different weights
    let plan_a = InferencePlan::compile(&net_a, None).expect("plan A compiles");
    let plan_b = InferencePlan::compile(&net_b, None).expect("plan B compiles");
    plan_a.save(&path_a).expect("save A");
    plan_b.save(&path_b).expect("save B");

    // A torn/corrupt replacement: plan B with bytes flipped mid-file.
    let mut bytes = std::fs::read(&path_b).expect("read B");
    let mid = bytes.len() / 2;
    for b in &mut bytes[mid..mid + 8] {
        *b ^= 0xA5;
    }
    std::fs::write(&path_bad, &bytes).expect("write corrupt");

    let server = BatchServer::from_plan(
        Arc::new(InferencePlan::load(&path_a).expect("serve snapshot A")),
        serial_cfg(),
    );
    let probe = sample(5);
    let before = server.logits(&probe).expect("A serves");
    let want_a = plan_a.predict_batch(&Tensor::stack(std::slice::from_ref(&probe)));
    assert!(bits_eq(before.data(), want_a.data()));

    // 1. Corrupt replacement: rejected, generation unchanged, A serves on.
    assert!(reload_from(&server, &path_bad).is_err(), "corrupt snapshot must not load");
    assert_eq!(server.generation(), 0);
    let still_a = server.logits(&probe).expect("A still serving");
    assert!(bits_eq(still_a.data(), want_a.data()), "old plan must keep serving");

    // 2. Unreadable replacement (injected read failure): same outcome.
    da_failpoints::set("snapshot/load", Spec::new(Fault::Err("chaos: disk gone".into())).times(1));
    match reload_from(&server, &path_b) {
        Err(e) => assert!(e.to_string().contains("chaos: disk gone"), "{e}"),
        Ok(_) => panic!("injected read failure must reject the reload"),
    }
    assert_eq!(server.generation(), 0);

    // 3. Valid replacement: lands atomically with a generation bump.
    let generation = reload_from(&server, &path_b).expect("valid reload");
    assert_eq!(generation, 1);
    assert_eq!(server.stats().generation, 1);
    let after = server.logits(&probe).expect("B serves");
    let want_b = plan_b.predict_batch(&Tensor::stack(std::slice::from_ref(&probe)));
    assert!(bits_eq(after.data(), want_b.data()), "reload must swap to plan B");

    for p in [&path_a, &path_b, &path_bad] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn stalled_worker_inflates_the_service_estimate_and_sheds_instead_of_collapsing() {
    let _g = lock();
    let net = tiny_cnn(51);
    let server = BatchServer::from_plan(net.plan().expect("tiny cnn compiles"), serial_cfg());

    // One stalled batch. The service-time measurement spans the failpoint
    // site, so the 150 ms stall lands in the EWMA the admission estimate
    // runs on — the runtime *learns* it is slow from the fault itself.
    da_failpoints::set(
        "serve/worker_batch",
        Spec::new(Fault::Delay(Duration::from_millis(150))).times(1),
    );
    server.logits(&sample(1)).expect("the stalled batch still completes");
    let ewma = server.stats().ewma_service_ns;
    assert!(ewma >= 100_000_000, "the stall must inflate the estimate, got {ewma}ns");

    // Flood with budgets the inflated estimate already blows: every request
    // is shed at admission with a typed verdict and a retry hint. Nothing
    // queues toward collapse and no caller waits past its deadline.
    let t0 = Instant::now();
    for i in 0..8 {
        let deadline = Some(Instant::now() + Duration::from_millis(10));
        match server.try_submit_deadline(&sample(10 + i), deadline) {
            Err(ServeError::Overloaded { retry_after }) => {
                assert!(retry_after > Duration::ZERO, "sheds must carry a retry hint");
            }
            Err(other) => panic!("expected an admission shed, got {other:?}"),
            Ok(_) => panic!("a doomed deadline must be shed at admission"),
        }
    }
    assert!(t0.elapsed() < Duration::from_millis(100), "shed verdicts must be immediate");
    let stats = server.stats();
    assert!(stats.shed_total >= 8, "every doomed request counts as shed: {stats:?}");
    assert_eq!(stats.deadline_expired, 0, "shed at admission, never expired in queue");

    // A caller with headroom (no deadline) is still served, bit-identically.
    let x = sample(99);
    let got = server.logits(&x).expect("healthy request serves through the pressure");
    let want = net.forward(&Tensor::stack(std::slice::from_ref(&x)), Mode::Eval).0;
    assert!(bits_eq(got.data(), want.data()), "logits diverged after the shed storm");
}

#[test]
fn interface_mismatched_reload_is_rejected_while_the_old_plan_serves() {
    let _g = lock();
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let path_a = dir.join(format!("chaos-iface-a-{pid}.daplan"));
    let path_wide = dir.join(format!("chaos-iface-wide-{pid}.daplan"));

    // Same trunk, 9-class head: loads and validates fine as a snapshot, but
    // swapping it in would change the reply shape under every client.
    let net_a = tiny_cnn(61);
    let mut rng = rand::rngs::StdRng::seed_from_u64(62);
    let wide = Network::new("chaos-wide")
        .push(Conv2d::new(1, 3, 3, 1, 1, &mut rng))
        .push(Relu)
        .push(MaxPool2d::new(2, 2))
        .push(Flatten)
        .push(Dense::new(3 * 4 * 4, 9, &mut rng));
    let plan_a = InferencePlan::compile(&net_a, None).expect("plan A compiles");
    plan_a.save(&path_a).expect("save A");
    let plan_wide = InferencePlan::compile(&wide, None).expect("wide plan compiles");
    plan_wide.save(&path_wide).expect("save wide");

    let server = BatchServer::from_plan(
        Arc::new(InferencePlan::load(&path_a).expect("serve snapshot A")),
        serial_cfg(),
    );
    let probe = sample(9);
    let want = plan_a.predict_batch(&Tensor::stack(std::slice::from_ref(&probe)));

    match reload_from(&server, &path_wide) {
        Err(SnapshotError::Incompatible(why)) => {
            assert!(why.contains('9'), "the rejection names the offending shape: {why}");
        }
        Err(other) => panic!("expected Incompatible, got {other}"),
        Ok(g) => panic!("interface mismatch must not load (landed as generation {g})"),
    }
    assert_eq!(server.generation(), 0, "a rejected reload must not bump the generation");
    let still = server.logits(&probe).expect("old plan still serving");
    assert!(bits_eq(still.data(), want.data()), "old plan must keep serving bit-identically");

    std::fs::remove_file(&path_a).ok();
    std::fs::remove_file(&path_wide).ok();
}

#[test]
fn accept_error_storm_backs_off_and_service_resumes() {
    let _g = lock();
    let net = tiny_cnn(31);
    let server = BatchServer::from_plan(net.plan().expect("tiny cnn compiles"), serial_cfg());
    let net_cfg = NetConfig { accept_backoff: Duration::from_millis(10), ..NetConfig::default() };
    let front = NetServer::bind(server, "127.0.0.1:0", net_cfg).expect("bind loopback");
    let (addr, handle, join) = front.spawn();

    // The next two accept wakeups fail as if fds were exhausted; each must
    // pause the listener (no busy spin) and retry after the backoff.
    da_failpoints::set("net/accept", Spec::new(Fault::Err("chaos: EMFILE".into())).times(2));

    // connect(2) succeeds immediately (the kernel backlog holds the socket)
    // but the server only services it after riding out both error rounds.
    let mut client = Client::connect(addr).expect("connect");
    client.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    client.ping().expect("served after the storm clears");

    let x = sample(77);
    let reply = client.infer(x.shape(), x.data()).expect("transport").expect("served");
    let reference = net.forward(&Tensor::stack(std::slice::from_ref(&x)), Mode::Eval).0;
    assert!(bits_eq(&reply.data, reference.data()), "logits diverged after accept storm");

    drop(client);
    handle.shutdown();
    let stats = join.join().expect("reactor thread").expect("reactor exit");
    assert!(stats.accept_errors >= 2, "both injected errors counted: {stats:?}");
    assert_eq!(stats.accepted, 1);
}

#[test]
fn worker_crash_behind_the_socket_front_end_is_a_typed_reply_not_a_hang() {
    let _g = lock();
    let net = tiny_cnn(41);
    let server = BatchServer::from_plan(net.plan().expect("tiny cnn compiles"), serial_cfg());
    let front =
        NetServer::bind(server, "127.0.0.1:0", NetConfig::default()).expect("bind loopback");
    let (addr, handle, join) = front.spawn();

    da_failpoints::set(
        "serve/worker_batch",
        Spec::new(Fault::Panic("chaos: crash under load".into())).skip(1).times(1),
    );

    let mut client = Client::connect(addr).expect("connect");
    client.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    let items: Vec<Tensor> = (0..4).map(|i| sample(500 + i)).collect();
    let ids: Vec<u64> =
        items.iter().map(|x| client.send_infer(x.shape(), x.data()).expect("send")).collect();

    let reference = net.forward(&Tensor::stack(&items), Mode::Eval).0;
    let classes = reference.shape()[1];
    let mut errors = 0usize;
    for _ in &ids {
        match client.recv_reply().expect("every request gets a reply") {
            da_nn::net::Message::InferOk { req_id, data, .. } => {
                let i = ids.iter().position(|&id| id == req_id).expect("known id");
                let want = &reference.data()[i * classes..(i + 1) * classes];
                assert!(bits_eq(&data, want), "surviving reply {req_id} diverged");
            }
            da_nn::net::Message::InferErr { code, .. } => {
                assert_eq!(code, da_nn::net::ErrCode::Execution);
                errors += 1;
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert_eq!(errors, 1, "exactly the crashed batch errored");

    // The STATS frame carries the respawn count to operators.
    let stats = client.stats().expect("stats");
    assert_eq!(stats.worker_restarts, 1);

    drop(client);
    handle.shutdown();
    join.join().expect("reactor thread").expect("reactor exit");
}
