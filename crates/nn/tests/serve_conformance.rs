//! Concurrency conformance suite for the cross-request batch server.
//!
//! The contract under test (see `da_nn::serve`'s module docs): logits
//! returned through [`BatchServer`] are **bit-identical** to a serial
//! [`InferencePlan::predict_batch`] on the same samples — for every
//! [`MultiplierKind`] and the native path, under any concurrent schedule.
//! The schedules here are adversarial on purpose: single-sample batches,
//! zero flush deadlines, queues small enough that submitters spend most of
//! their time blocked on backpressure, and more submitter threads than
//! workers.

use std::sync::mpsc;
use std::time::Duration;

use da_arith::MultiplierKind;
use da_nn::layers::{Conv2d, Dense, Dropout, Flatten, MaxPool2d, Relu};
use da_nn::serve::{BatchServer, Pending, ServeConfig, ServeError};
use da_nn::{InferencePlan, Mode, Network};
use da_tensor::Tensor;
use rand::SeedableRng;

const SUBMITTERS: usize = 4;
const ITEMS_PER_SUBMITTER: usize = 8;

fn tiny_cnn(seed: u64) -> Network {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Network::new("conformance-cnn")
        .push(Conv2d::new(1, 3, 3, 1, 1, &mut rng))
        .push(Relu)
        .push(MaxPool2d::new(2, 2))
        .push(Dropout::new(0.5))
        .push(Flatten)
        .push(Dense::new(3 * 4 * 4, 5, &mut rng))
}

/// Deterministic per-(thread, index) samples, with NaN/Inf/denormal values
/// spliced in: special operands must survive the queue round-trip with the
/// same bits as serial inference.
fn item(thread: usize, index: usize) -> Tensor {
    let mut rng =
        rand::rngs::StdRng::seed_from_u64(0xC0FFEE + (thread as u64) * 1000 + index as u64);
    let mut x = Tensor::randn(&[1, 8, 8], 1.0, &mut rng);
    let poison = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1e-40, -0.0];
    if index % 2 == 1 {
        let at = (thread * 13 + index * 7) % x.len();
        x.data_mut()[at] = poison[(thread + index) % poison.len()];
    }
    x
}

/// All samples in `(thread, index)` order, stacked for the serial reference.
fn all_items() -> Vec<Tensor> {
    (0..SUBMITTERS).flat_map(|t| (0..ITEMS_PER_SUBMITTER).map(move |j| item(t, j))).collect()
}

/// Run `SUBMITTERS` threads against `server`, each submitting its items with
/// a window of in-flight requests, and return logits in `(thread, index)`
/// order.
fn submit_concurrently(server: &BatchServer) -> Vec<Vec<Tensor>> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SUBMITTERS)
            .map(|t| {
                scope.spawn(move || {
                    // Submit everything before waiting on anything: maximal
                    // interleaving with the other submitters.
                    let pending: Vec<Pending> = (0..ITEMS_PER_SUBMITTER)
                        .map(|j| server.submit(&item(t, j)).expect("server accepting"))
                        .collect();
                    pending
                        .into_iter()
                        .map(|p| p.wait().expect("server serving"))
                        .collect::<Vec<Tensor>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("submitter thread")).collect()
    })
}

/// The conformance property: concurrent submission through `config` equals
/// serial `predict_batch`, bit for bit, for `kind`.
fn assert_conformance(kind: Option<MultiplierKind>, config: ServeConfig, tag: &str) {
    let mut net = tiny_cnn(17);
    net.set_multiplier(kind.map(|k| k.build()));
    // The ground truth is the per-layer eval forward itself (the serial
    // reference the engine is property-tested against), not another plan.
    let reference = net.forward(&Tensor::stack(&all_items()), Mode::Eval).0;
    let out_len = reference.shape()[1];

    let server = BatchServer::from_plan(net.plan().expect("tiny cnn compiles"), config);
    let served = submit_concurrently(&server);
    let stats = server.stats();
    assert_eq!(stats.items as usize, SUBMITTERS * ITEMS_PER_SUBMITTER, "{tag}: lost items");

    for (t, rows) in served.iter().enumerate() {
        for (j, row) in rows.iter().enumerate() {
            let i = t * ITEMS_PER_SUBMITTER + j;
            let want = &reference.data()[i * out_len..(i + 1) * out_len];
            assert_eq!(row.shape(), &[out_len], "{tag}: wrong logits shape");
            for (k, (g, w)) in row.data().iter().zip(want).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "{tag} {kind:?}: thread {t} item {j} logit {k}: {g} vs {w}"
                );
            }
        }
    }
}

#[test]
fn concurrent_logits_are_bit_identical_for_every_kind() {
    // Default-ish config: batches form, queue deep enough to avoid blocking.
    for kind in MultiplierKind::ALL.into_iter().map(Some).chain([None]) {
        assert_conformance(
            kind,
            ServeConfig {
                workers: 2,
                max_batch: 8,
                flush_deadline: Duration::from_micros(200),
                queue_capacity: 64,
                ..ServeConfig::default()
            },
            "coalescing",
        );
    }
}

#[test]
fn adversarial_scheduling_is_still_bit_identical() {
    // The schedules the issue calls out: tiny max_batch, zero deadline, and
    // a queue so small that every submitter blocks on backpressure.
    let configs = [
        (
            "max_batch=1",
            ServeConfig {
                workers: 2,
                max_batch: 1,
                flush_deadline: Duration::ZERO,
                queue_capacity: 64,
                ..ServeConfig::default()
            },
        ),
        (
            "zero-deadline",
            ServeConfig {
                workers: 3,
                max_batch: 4,
                flush_deadline: Duration::ZERO,
                queue_capacity: 64,
                ..ServeConfig::default()
            },
        ),
        (
            "queue-full",
            ServeConfig {
                workers: 1,
                max_batch: 2,
                flush_deadline: Duration::ZERO,
                queue_capacity: 1,
                ..ServeConfig::default()
            },
        ),
    ];
    // All kinds under the cheapest config; the paper's Ax-FPM under all.
    for kind in MultiplierKind::ALL.into_iter().map(Some).chain([None]) {
        assert_conformance(kind, configs[0].1.clone(), configs[0].0);
    }
    for (tag, config) in &configs[1..] {
        assert_conformance(Some(MultiplierKind::AxFpm), config.clone(), tag);
        assert_conformance(None, config.clone(), tag);
    }
}

#[test]
fn served_predict_batch_is_bit_identical_under_concurrent_load() {
    // `BatchServer::predict_batch` (the attack-harness route) interleaved
    // with single-sample submitters from other threads.
    let mut net = tiny_cnn(23);
    net.set_multiplier(Some(MultiplierKind::Heap.build()));
    let plan = InferencePlan::compile(&net, net.multiplier().cloned()).expect("compiles");
    let batch = Tensor::stack(&all_items());
    let reference = plan.predict_batch(&batch);

    let server = BatchServer::from_plan(
        net.plan().expect("compiles"),
        ServeConfig {
            workers: 2,
            max_batch: 4,
            flush_deadline: Duration::ZERO,
            queue_capacity: 8,
            ..ServeConfig::default()
        },
    );
    std::thread::scope(|scope| {
        let noise = scope.spawn(|| {
            for j in 0..ITEMS_PER_SUBMITTER {
                let got = server.logits(&item(1, j)).expect("serving");
                let i = ITEMS_PER_SUBMITTER + j;
                let want =
                    &reference.data()[i * reference.shape()[1]..(i + 1) * reference.shape()[1]];
                // Bitwise comparison: NaN-poisoned samples must round-trip
                // with identical bits (f32 `==` would reject NaN == NaN).
                for (g, w) in got.data().iter().zip(want) {
                    assert_eq!(g.to_bits(), w.to_bits(), "noise item {j} diverged: {g} vs {w}");
                }
            }
        });
        let got = server.predict_batch(&batch).expect("served");
        assert_eq!(got.shape(), reference.shape());
        for (i, (g, w)) in got.data().iter().zip(reference.data()).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "served batch elem {i} diverged: {g} vs {w}");
        }
        noise.join().expect("noise thread");
    });
}

#[test]
fn backpressure_bounds_the_queue_and_shutdown_fails_pending() {
    let net = tiny_cnn(29);
    // No workers: nothing drains, so the capacity bound is observable
    // deterministically.
    let server = BatchServer::from_plan(
        net.plan().expect("compiles"),
        ServeConfig {
            workers: 0,
            max_batch: 4,
            flush_deadline: Duration::ZERO,
            queue_capacity: 3,
            ..ServeConfig::default()
        },
    );
    let x = Tensor::zeros(&[1, 8, 8]);
    let queued: Vec<Pending> =
        (0..3).map(|_| server.try_submit(&x).expect("under capacity")).collect();
    assert_eq!(server.try_submit(&x).err(), Some(ServeError::QueueFull));
    // A blocked submitter unblocks with `ShuttingDown` when shutdown
    // begins instead of deadlocking.
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|scope| {
        let server = &server;
        scope.spawn(move || {
            let result = server.submit(&x); // blocks: queue is full
            tx.send(result.err()).expect("report");
        });
        // Give the submitter time to block, then stop accepting.
        std::thread::sleep(Duration::from_millis(20));
        server.begin_shutdown();
        assert_eq!(rx.recv().expect("submitter finished"), Some(ServeError::ShuttingDown));
    });
    // Dropping the server fails whatever was still queued.
    drop(server);
    for pending in queued {
        assert_eq!(pending.wait().err(), Some(ServeError::ShuttingDown));
    }
}

#[test]
fn batches_coalesce_under_a_flush_deadline() {
    let net = tiny_cnn(31);
    let server = BatchServer::from_plan(
        net.plan().expect("compiles"),
        ServeConfig {
            workers: 1,
            max_batch: 8,
            // Long enough that the 8 sub-millisecond submits below land
            // well inside the first batch's fill window.
            flush_deadline: Duration::from_millis(500),
            queue_capacity: 64,
            ..ServeConfig::default()
        },
    );
    let pending: Vec<Pending> =
        (0..8).map(|j| server.submit(&item(0, j)).expect("accepting")).collect();
    for p in pending {
        p.wait().expect("serving");
    }
    let stats = server.stats();
    assert_eq!(stats.items, 8);
    assert!(stats.batches < 8, "no coalescing happened: {stats:?}");
    assert!(stats.largest_batch >= 2, "{stats:?}");
    assert!(stats.mean_batch() > 1.0, "{stats:?}");
}

#[test]
fn mixed_shape_requests_batch_separately_and_correctly() {
    // A ReLU-only stack accepts any item shape, so one server can see
    // heterogeneous requests; batches must only coalesce same-shape runs.
    let net = Network::new("relu-only").push(Relu);
    let server = BatchServer::from_plan(
        net.plan().expect("relu compiles"),
        ServeConfig {
            workers: 2,
            max_batch: 4,
            flush_deadline: Duration::from_micros(100),
            queue_capacity: 32,
            ..ServeConfig::default()
        },
    );
    let shapes: [&[usize]; 2] = [&[2, 3], &[5]];
    let mut rng = rand::rngs::StdRng::seed_from_u64(37);
    let items: Vec<Tensor> = (0..16).map(|i| Tensor::randn(shapes[i % 2], 1.0, &mut rng)).collect();
    let pending: Vec<Pending> =
        items.iter().map(|x| server.submit(x).expect("accepting")).collect();
    for (x, p) in items.iter().zip(pending) {
        let got = p.wait().expect("serving");
        assert_eq!(got.shape(), x.shape(), "shape must round-trip");
        for (g, v) in got.data().iter().zip(x.data()) {
            assert_eq!(g.to_bits(), v.max(0.0).to_bits());
        }
    }
}

#[test]
fn execution_failure_is_contained_to_its_batch() {
    let net = tiny_cnn(41);
    let server = BatchServer::from_plan(
        net.plan().expect("compiles"),
        ServeConfig {
            workers: 1,
            max_batch: 1,
            flush_deadline: Duration::ZERO,
            queue_capacity: 8,
            ..ServeConfig::default()
        },
    );
    // Wrong spatial size: the plan's shape inference rejects it.
    let bad = server.logits(&Tensor::zeros(&[1, 6, 6]));
    match bad {
        Err(ServeError::Execution(msg)) => {
            assert!(msg.contains("feature mismatch"), "unexpected message: {msg}")
        }
        other => panic!("expected an execution error, got {other:?}"),
    }
    // The worker survived and keeps serving well-formed requests.
    let good = server.logits(&item(0, 0)).expect("worker still alive");
    assert_eq!(good.shape(), &[5]);
    let stats = server.stats();
    assert_eq!(stats.failed_batches, 1);
    assert_eq!(stats.items, 1);
}

#[test]
fn one_nanosecond_flush_deadline_is_stable_and_bit_identical() {
    // Regression: a ~1 ns flush deadline makes essentially every deadline
    // wait arrive already expired (`now >= until` on entry) and pins the
    // adaptive policy at its floor. The worker loop must handle that with
    // saturating deadline arithmetic — no panic, no missed wakeup, no
    // spin that starves submitters — while the bit-identity contract
    // holds under the usual adversarial schedule. Runs in CI's
    // `--test-threads {1,4}` conformance matrix.
    assert_conformance(
        None,
        ServeConfig {
            workers: 2,
            max_batch: 8,
            flush_deadline: Duration::from_nanos(1),
            flush_deadline_min: Duration::from_nanos(1),
            queue_capacity: 4, // small enough that backpressure engages too
            default_deadline: None,
            ..ServeConfig::default()
        },
        "1ns-deadline",
    );
    assert_conformance(
        Some(MultiplierKind::AxFpm),
        ServeConfig {
            workers: 3,
            max_batch: 4,
            flush_deadline: Duration::from_nanos(1),
            flush_deadline_min: Duration::from_nanos(1),
            queue_capacity: 4,
            default_deadline: None,
            ..ServeConfig::default()
        },
        "1ns-deadline-axfpm",
    );
}
