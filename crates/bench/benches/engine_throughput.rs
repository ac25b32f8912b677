//! Serving-engine throughput: compiled [`InferencePlan`]s vs the per-layer
//! `Network::forward(Mode::Eval)` path, in items/s — plus the **int8
//! plan** (`InferencePlan::compile_quantized`, LUT-gather GEMMs) against
//! the planned f32 path, a gradient scenario, and a concurrent-load
//! scenario for the cross-request batch server.
//!
//! This is the perf baseline for the serving layer (ROADMAP: SIMD slice
//! kernels and int8 GEMM plug in next): run
//! `cargo bench --bench engine_throughput` and compare the printed tables.
//! Configurations follow the issue spec: an MNIST-style CNN (LeNet-5,
//! 28×28×1) and a CIFAR-style CNN (AlexNet, 32×32×3), each under the exact
//! multiplier, the paper's Ax-FPM, and Bfloat16, at single-item and batched
//! serving shapes. `DA_BENCH_JSON=<path>` writes the tables as a
//! machine-readable document (see [`da_bench::json`]); `DA_BENCH_SMOKE=1`
//! restricts the run to LeNet-5 × Ax-FPM at batch 1 and skips the
//! concurrent-load scenario (CI's emit-and-schema-check smoke job). The
//! second table (`scenario=gradient`) times LeNet-5 batch-1 input gradients,
//! native and Ax-FPM: the per-layer reference (`forward(Mode::Eval)` +
//! `backward`) against `Network::input_gradient` on the plan's dX-only
//! reverse sweep, in ns/item. The third table then replays single-sample
//! traffic from N submitter threads through `da_nn::serve::BatchServer`
//! (micro-batching, every worker on one shared plan) against a sequential
//! one-at-a-time baseline on the same plan.

use std::time::{Duration, Instant};

use da_arith::MultiplierKind;
use da_bench::json::{JsonEmitter, Record};
use da_nn::engine::InferencePlan;
use da_nn::loss::softmax_cross_entropy;
use da_nn::serve::{BatchServer, Pending, ServeConfig};
use da_nn::zoo::{alexnet_cifar, lenet5};
use da_nn::{Mode, Network};
use da_tensor::Tensor;
use rand::SeedableRng;

/// Submitter threads in the concurrent-load scenario.
const SUBMITTERS: usize = 8;
/// Samples each submitter sends.
const PER_SUBMITTER: usize = 8;

/// Time `f` (best of `reps` runs, after one warmup) and return items/s.
fn items_per_sec(items: usize, reps: usize, mut f: impl FnMut() -> Tensor) -> f64 {
    let mut best = f64::INFINITY;
    let _warmup = f();
    for _ in 0..reps {
        let start = Instant::now();
        let out = f();
        let dt = start.elapsed().as_secs_f64();
        std::hint::black_box(out);
        best = best.min(dt);
    }
    items as f64 / best
}

fn human(rate: f64) -> String {
    if rate >= 1000.0 {
        format!("{:.2} kitem/s", rate / 1000.0)
    } else {
        format!("{rate:.1} item/s")
    }
}

fn main() {
    let smoke = std::env::var_os("DA_BENCH_SMOKE").is_some();
    let mut emitter = JsonEmitter::from_env("engine_throughput");
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);

    println!("Serving-engine throughput (compiled plans: pre-reshaped weights, fused");
    println!("conv tiles, workspace reuse — vs the per-layer eval forward; higher is better)");
    println!();
    println!(
        "{:<10} {:<12} {:>6} {:>14} {:>14} {:>8} {:>14} {:>8}",
        "model", "multiplier", "batch", "unplanned", "planned", "speedup", "int8-plan", "q-speedup"
    );

    let models: [(&str, Network, Vec<usize>); 2] = [
        ("lenet5", lenet5(10, &mut rng), vec![1, 28, 28]),
        ("alexnet", alexnet_cifar(10, &mut rng), vec![3, 32, 32]),
    ];

    for (name, mut net, item_shape) in models {
        if smoke && name != "lenet5" {
            continue;
        }
        // HEAP is the quantized path's headline: the gate-level f32 plan
        // simulates an array multiplier per MAC (bit-sliced, 64 at a time),
        // while the int8 plan gathers from a table built from those same
        // gates — identical hardware model, serving at closed-form speeds.
        let kinds: &[MultiplierKind] = if name == "lenet5" {
            &[
                MultiplierKind::Exact,
                MultiplierKind::AxFpm,
                MultiplierKind::Bfloat16,
                MultiplierKind::Heap,
            ]
        } else {
            &[MultiplierKind::Exact, MultiplierKind::AxFpm, MultiplierKind::Bfloat16]
        };
        for &kind in kinds {
            if smoke && kind != MultiplierKind::AxFpm {
                continue;
            }
            let mult = kind.build();
            net.set_multiplier(Some(mult.clone()));
            let plan = InferencePlan::compile(&net, Some(mult)).expect("zoo models compile");
            // Int8 plan for the same deployment: calibrated on a small
            // random batch from the serving distribution.
            let mut calib_shape = vec![8];
            calib_shape.extend_from_slice(&item_shape);
            let calibration = Tensor::rand_uniform(&calib_shape, 0.0, 1.0, &mut rng);
            let qplan =
                InferencePlan::compile_quantized(&net, net.multiplier().cloned(), &calibration)
                    .expect("zoo models quantize");
            let batches: &[usize] = if smoke { &[1] } else { &[1, 8] };
            for &batch in batches {
                let mut shape = vec![batch];
                shape.extend_from_slice(&item_shape);
                let x = Tensor::rand_uniform(&shape, 0.0, 1.0, &mut rng);
                let reps = if smoke {
                    1
                } else if batch == 1 {
                    5
                } else {
                    3
                };
                let unplanned = items_per_sec(batch, reps, || net.forward(&x, Mode::Eval).0);
                let planned = items_per_sec(batch, reps, || plan.predict_batch(&x));
                let quantized = items_per_sec(batch, reps, || qplan.predict_batch(&x));
                println!(
                    "{:<10} {:<12} {:>6} {:>14} {:>14} {:>7.2}x {:>14} {:>7.2}x",
                    name,
                    kind.as_str(),
                    batch,
                    human(unplanned),
                    human(planned),
                    planned / unplanned,
                    human(quantized),
                    quantized / planned
                );
                emitter.record(
                    Record::new()
                        .label("model", name)
                        .label("multiplier", kind.as_str())
                        .label("batch", batch.to_string())
                        .metric("unplanned_items_per_sec", unplanned)
                        .metric("planned_items_per_sec", planned)
                        .metric("speedup", planned / unplanned)
                        .metric("quantized_items_per_sec", quantized)
                        .metric("quantized_speedup_vs_planned", quantized / planned),
                );
            }
        }
        println!();
    }

    gradients(&mut rng, &mut emitter, smoke);
    if !smoke {
        concurrent_load(&mut rng, &mut emitter);
    }
    if let Some(path) = emitter.finish() {
        println!("wrote {}", path.display());
    }
}

/// Gradient scenario: LeNet-5 batch-1 loss gradients through the per-layer
/// reference (`forward(Mode::Eval)` + `backward`) vs `Network::input_gradient`
/// (the compiled plan's dX-only reverse sweep; bit-identical results).
fn gradients(rng: &mut rand::rngs::StdRng, emitter: &mut JsonEmitter, smoke: bool) {
    println!("Input gradients (LeNet-5, batch 1: per-layer forward + backward vs the plan's");
    println!("dX-only reverse sweep; ns/item, lower is better)");
    println!();
    println!(
        "{:<10} {:<12} {:>14} {:>14} {:>8}",
        "model", "multiplier", "reference", "planned", "speedup"
    );
    let mut net = lenet5(10, rng);
    let x = Tensor::rand_uniform(&[1, 1, 28, 28], 0.0, 1.0, rng);
    let labels = [3];
    let reps = if smoke { 1 } else { 200 };
    for kind in [None, Some(MultiplierKind::AxFpm)] {
        net.set_multiplier(kind.map(|k| k.build()));
        let reference = 1e9
            / items_per_sec(1, reps, || {
                let (logits, caches) = net.forward(&x, Mode::Eval);
                let (_, dlogits) = softmax_cross_entropy(&logits, &labels);
                net.backward(&caches, &dlogits).0
            });
        let planned = 1e9 / items_per_sec(1, reps, || net.input_gradient(&x, &labels).1);
        let multiplier = kind.map_or("native", |k| k.as_str());
        println!(
            "{:<10} {:<12} {:>11.0} ns {:>11.0} ns {:>7.2}x",
            "lenet5",
            multiplier,
            reference,
            planned,
            reference / planned
        );
        emitter.record(
            Record::new()
                .label("model", "lenet5")
                .label("multiplier", multiplier)
                .label("batch", "1")
                .label("scenario", "gradient")
                .metric("reference_ns_per_item", reference)
                .metric("planned_ns_per_item", planned)
                .metric("speedup", reference / planned),
        );
    }
    println!();
}

/// Wall-clock seconds for one run of `f`, best of `reps` (after a warmup).
fn best_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Concurrent-load scenario: N submitter threads of single samples through
/// the micro-batching server vs the same samples served one at a time on
/// one plan (the pre-serve deployment: sequential single-item requests).
fn concurrent_load(rng: &mut rand::rngs::StdRng, emitter: &mut JsonEmitter) {
    let items = SUBMITTERS * PER_SUBMITTER;
    println!("Cross-request micro-batching ({SUBMITTERS} submitter threads x {PER_SUBMITTER} single-sample");
    println!("requests vs the same {items} requests served sequentially; bit-identical logits)");
    println!();
    println!(
        "{:<10} {:<12} {:>16} {:>16} {:>9} {:>11}",
        "model", "multiplier", "sequential", "batch-served", "speedup", "mean batch"
    );

    let models: [(&str, Network, Vec<usize>); 2] = [
        ("lenet5", lenet5(10, rng), vec![1, 28, 28]),
        ("alexnet", alexnet_cifar(10, rng), vec![3, 32, 32]),
    ];
    for (name, mut net, item_shape) in models {
        for kind in [MultiplierKind::Exact, MultiplierKind::AxFpm, MultiplierKind::Bfloat16] {
            let mult = kind.build();
            net.set_multiplier(Some(mult.clone()));
            let plan = InferencePlan::compile(&net, Some(mult)).expect("zoo models compile");
            let mut shape = vec![1];
            shape.extend_from_slice(&item_shape);
            let samples: Vec<Tensor> =
                (0..items).map(|_| Tensor::rand_uniform(&item_shape, 0.0, 1.0, rng)).collect();
            let single: Vec<Tensor> =
                samples.iter().map(|s| Tensor::from_vec(s.data().to_vec(), &shape)).collect();

            let reps = if name == "lenet5" { 3 } else { 2 };
            let seq = best_secs(reps, || {
                for s in &single {
                    std::hint::black_box(plan.predict_batch(s));
                }
            });

            let server = BatchServer::from_plan(
                net.plan().expect("zoo models compile"),
                ServeConfig {
                    max_batch: 8,
                    flush_deadline: Duration::from_micros(200),
                    queue_capacity: 64,
                    ..ServeConfig::default()
                },
            );
            let served = best_secs(reps, || {
                std::thread::scope(|scope| {
                    for t in 0..SUBMITTERS {
                        let server = &server;
                        let samples = &samples;
                        scope.spawn(move || {
                            let pending: Vec<Pending> = (0..PER_SUBMITTER)
                                .map(|j| {
                                    server
                                        .submit(&samples[t * PER_SUBMITTER + j])
                                        .expect("server accepting")
                                })
                                .collect();
                            for p in pending {
                                std::hint::black_box(p.wait().expect("server serving"));
                            }
                        });
                    }
                });
            });
            let stats = server.stats();
            println!(
                "{:<10} {:<12} {:>16} {:>16} {:>8.2}x {:>11.2}",
                name,
                kind.as_str(),
                human(items as f64 / seq),
                human(items as f64 / served),
                seq / served,
                stats.mean_batch()
            );
            emitter.record(
                Record::new()
                    .label("model", name)
                    .label("multiplier", kind.as_str())
                    .label("scenario", "concurrent_load")
                    .metric("sequential_items_per_sec", items as f64 / seq)
                    .metric("batch_served_items_per_sec", items as f64 / served)
                    .metric("mean_batch", stats.mean_batch()),
            );
        }
        println!();
    }
}
