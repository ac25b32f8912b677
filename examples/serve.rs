//! Serve concurrent traffic through the cross-request batch server.
//!
//! ```sh
//! cargo run --release --example serve
//! ```
//!
//! Deploys a LeNet-5 on the paper's Ax-FPM multiplier and stands up a
//! `da_nn::serve::BatchServer`: client threads submit single samples, the
//! server coalesces them into micro-batches and executes them on one
//! shared compiled `InferencePlan`. The demo then verifies the
//! serving contract end to end:
//!
//! 1. every concurrently served logits row is **bit-identical** to a serial
//!    `InferencePlan::predict_batch` on the same sample (the defensive
//!    perturbation must not depend on batch composition), and
//! 2. the server keeps serving the plan it was given when the deployed
//!    network drifts (the network's cached plan becomes a new `Arc`, so
//!    `Arc::ptr_eq` against `Network::plan` tells the caller to rebuild),
//!    and
//! 3. quantized serving runs **from a plan snapshot** — compiled and
//!    calibrated once, saved, then mapped back in milliseconds
//!    (`InferencePlan::load`, served by `BatchServer::from_plan`) with the
//!    measured cold-start delta printed; see `examples/snapshot.rs` for
//!    the warm-pool workflow.

use std::sync::Arc;
use std::time::{Duration, Instant};

use defensive_approximation::arith::MultiplierKind;
use defensive_approximation::datasets::digits::synth_digits;
use defensive_approximation::nn::engine::InferencePlan;
use defensive_approximation::nn::serve::{BatchServer, ServeConfig};
use defensive_approximation::nn::zoo::lenet5;
use defensive_approximation::tensor::Tensor;
use rand::SeedableRng;

const CLIENTS: usize = 4;
const REQUESTS_PER_CLIENT: usize = 24;

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let mut net = lenet5(10, &mut rng);
    net.set_multiplier(Some(MultiplierKind::AxFpm.build()));

    let config = ServeConfig {
        max_batch: 8,
        flush_deadline: Duration::from_micros(500),
        ..ServeConfig::default()
    };
    println!("== Defensive Approximation batch serving ==");
    println!(
        "LeNet-5 on {} | {} workers, max_batch {}, flush deadline {:?}, queue {}",
        MultiplierKind::AxFpm,
        config.workers,
        config.max_batch,
        config.flush_deadline,
        config.queue_capacity
    );

    // The server shares the network's own cached plan.
    let plan = net.plan().expect("LeNet-5 compiles to serving plans");
    let server = BatchServer::from_plan(plan.clone(), config);
    let data = synth_digits(CLIENTS * REQUESTS_PER_CLIENT, 42);

    // Concurrent clients: each submits its slice of the dataset one sample
    // at a time, like independent request streams hitting one endpoint.
    let start = Instant::now();
    let served: Vec<Vec<Tensor>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let server = &server;
                let images = &data.images;
                scope.spawn(move || {
                    (0..REQUESTS_PER_CLIENT)
                        .map(|j| {
                            let item = images.batch_item(c * REQUESTS_PER_CLIENT + j);
                            server.logits(&item).expect("server accepting")
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let elapsed = start.elapsed().as_secs_f64();

    let stats = server.stats();
    println!(
        "served {} samples from {CLIENTS} clients in {:.1} ms ({:.1} items/s)",
        stats.items,
        elapsed * 1e3,
        stats.items as f64 / elapsed
    );
    println!(
        "dispatched {} batches (mean batch {:.2}, largest {})",
        stats.batches,
        stats.mean_batch(),
        stats.largest_batch
    );

    // 1. Bit-identity against serial plan inference.
    let reference = plan.predict_batch(&data.images);
    let classes = reference.shape()[1];
    let mut checked = 0usize;
    for (c, rows) in served.iter().enumerate() {
        for (j, row) in rows.iter().enumerate() {
            let i = c * REQUESTS_PER_CLIENT + j;
            let want = &reference.data()[i * classes..(i + 1) * classes];
            assert_eq!(
                row.data(),
                want,
                "sample {i}: concurrent serving changed the approximate logits"
            );
            checked += 1;
        }
    }
    println!("bit-identity: {checked}/{checked} served rows match serial inference exactly");

    // 2. Staleness: redeploying on different hardware recompiles the
    // network's plan, while the server keeps serving the one it was given.
    assert!(Arc::ptr_eq(&plan, &net.plan().expect("compiled")));
    net.set_multiplier(Some(MultiplierKind::Bfloat16.build()));
    assert!(!Arc::ptr_eq(&plan, &net.plan().expect("still compiles")));
    let first = server.logits(&data.images.batch_item(0)).expect("server accepting");
    assert_eq!(first.data(), &reference.data()[..classes], "the served plan must not drift");
    println!("staleness: multiplier swap detected; rebuild the server to serve the new datapath");
    server.shutdown();

    // 3. Int8 serving — via the snapshot path. The quantized plan
    // (LUT-gather GEMMs over the Ax-FPM product table) is compiled and
    // calibrated exactly once, saved to a snapshot file, and every
    // subsequent deployment maps it back in: no calibration pass, no LUT
    // rebuild, and the product tables are served zero-copy straight out of
    // the mapping. The compile-vs-load delta below is the cold start the
    // snapshot deletes.
    net.set_multiplier(Some(MultiplierKind::AxFpm.build()));
    let calibration = synth_digits(32, 7).images;
    let snap_path = std::env::temp_dir().join(format!("da-serve-{}.daplan", std::process::id()));
    let start = Instant::now();
    let qplan = InferencePlan::compile_quantized(&net, net.multiplier().cloned(), &calibration)
        .expect("LeNet-5 quantizes");
    let compile_ms = start.elapsed().as_secs_f64() * 1e3;
    qplan.save(&snap_path).expect("snapshot save");
    drop(qplan); // the serving processes below start from the file alone
    let start = Instant::now();
    let qplan = InferencePlan::load(&snap_path).expect("snapshot load");
    let qserver = BatchServer::from_plan(Arc::new(qplan), ServeConfig::default());
    let load_ms = start.elapsed().as_secs_f64() * 1e3;
    println!(
        "cold start: compile+calibrate {compile_ms:.1} ms vs snapshot map {load_ms:.2} ms \
         ({:.0}x faster; identical logits)",
        compile_ms / load_ms
    );
    let f32_preds: Vec<usize> = net.predict(&data.images);
    let total = data.images.shape()[0];
    let start = Instant::now();
    // Pipelined submission (like real request streams): all samples in
    // flight at once, so the server forms full batches.
    let pending: Vec<_> = (0..total)
        .map(|i| qserver.submit(&data.images.batch_item(i)).expect("accepting"))
        .collect();
    let mut agree = 0usize;
    for (i, p) in pending.into_iter().enumerate() {
        let logits = p.wait().expect("served");
        let pred = defensive_approximation::nn::loss::argmax_logits(logits.data());
        agree += usize::from(pred == f32_preds[i]);
    }
    let elapsed = start.elapsed().as_secs_f64();
    println!(
        "int8 serving: {total} samples in {:.1} ms ({:.1} items/s); {agree}/{total} predictions match the f32 deployment",
        elapsed * 1e3,
        total as f64 / elapsed,
    );
    qserver.shutdown();
    std::fs::remove_file(&snap_path).ok();

    // 4. Int4 serving: weights narrow to 16 codes where the calibration
    // batch says the layer tolerates it (the rest stay on the int8 gather),
    // and accepted layers run the in-register shuffle GEMM. The mixed
    // int4/int8 layer split survives the snapshot round trip, so the plan
    // is compiled once and the server runs the same mapped plan whose layer
    // mix is reported below.
    let mult = net.multiplier().cloned();
    let q4plan = InferencePlan::compile_quantized_int4(&net, mult, &calibration)
        .expect("LeNet-5 quantizes to int4");
    let snap4_path = std::env::temp_dir().join(format!("da-serve4-{}.daplan", std::process::id()));
    q4plan.save(&snap4_path).expect("snapshot save");
    drop(q4plan);
    let q4plan = Arc::new(InferencePlan::load(&snap4_path).expect("snapshot load"));
    let q4server = BatchServer::from_plan(q4plan.clone(), ServeConfig::default());
    let (int4_layers, int8_fallback) = q4plan.int4_layer_mix();
    let start = Instant::now();
    let pending: Vec<_> = (0..total)
        .map(|i| q4server.submit(&data.images.batch_item(i)).expect("accepting"))
        .collect();
    let mut agree4 = 0usize;
    for (i, p) in pending.into_iter().enumerate() {
        let logits = p.wait().expect("served");
        let pred = defensive_approximation::nn::loss::argmax_logits(logits.data());
        agree4 += usize::from(pred == f32_preds[i]);
    }
    let elapsed = start.elapsed().as_secs_f64();
    println!(
        "int4 serving: {total} samples in {:.1} ms ({:.1} items/s); {int4_layers} layers on the \
         shuffle GEMM, {int8_fallback} on the int8 gather; {agree4}/{total} predictions match the \
         f32 deployment",
        elapsed * 1e3,
        total as f64 / elapsed,
    );
    q4server.shutdown();
    std::fs::remove_file(&snap4_path).ok();
}
