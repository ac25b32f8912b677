//! Per-layer measurements for the traced run.
//!
//! Each probe times the benchmark's own calls into one module's public
//! functions, recording every call as a span, and reads the counters the
//! modules already export (`ServeStats`). Every metric is
//! a median (or the named percentile) over the spans of one name, so the
//! same figure can be recomputed from the written trace. Sizes and budgets
//! are fixed, so a traced run of any workload reports the same set.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use da_arith::quantized::lut_gemm;
use da_arith::{MultiplierKind, ProductLut, QuantParams};
use da_nn::engine::InferencePlan;
use da_nn::loss::softmax_cross_entropy;
use da_nn::net::frame::{self, Message};
use da_nn::serve::{BatchServer, ServeConfig};
use da_nn::Mode;
use da_tensor::Tensor;

use crate::stats::{median, percentile, sorted};
use crate::trace::{durations_ms, timed, Trace, ROOT};
use crate::{inputs, serve, transfer, Log, Metric};

/// Length of the open-loop socket probe and of its in-process replay.
const OPEN_PROBE_S: f64 = 2.0;
/// Budget of each micro-probe loop.
const BUDGET: Duration = Duration::from_millis(300);

/// Call `f` until `budget` has passed and at least `min` calls were made,
/// recording each call as a span named `name`; returns the median in ms.
fn probe<T>(
    trace: &Trace,
    name: &'static str,
    budget: Duration,
    min: usize,
    mut f: impl FnMut() -> T,
) -> f64 {
    let t0 = Instant::now();
    let mut n = 0;
    while n < min || t0.elapsed() < budget {
        std::hint::black_box(timed(Some(trace), name, ROOT, n as u64, |_| f()));
        n += 1;
    }
    median(&durations_ms(&trace.spans(), name)).expect("probe ran at least once")
}

fn push(out: &mut Vec<Metric>, name: &'static str, value: f64, unit: &'static str) {
    out.push(Metric { name, value, unit });
}

/// Run every probe; returns the metrics and the trace holding their spans.
pub fn run(seed: u64, dir: &std::path::Path) -> Result<(Vec<Metric>, Trace), String> {
    let trace = Trace::default();
    let mut out = Vec::new();
    let pool = inputs::digit_pool(64);
    let order = inputs::order(seed, 64);

    // Plan construction: compile, save, map (the serve set-up chain).
    let path = dir.join(format!("probe-{}.daplan", std::process::id()));
    let plan = serve::demo_plan();
    push(
        &mut out,
        "engine.compile_ms",
        probe(&trace, "engine.compile", Duration::ZERO, 5, serve::demo_plan),
        "ms",
    );
    let save = probe(&trace, "snapshot.save", Duration::ZERO, 5, || plan.save(&path));
    push(&mut out, "snapshot.save_ms", save, "ms");
    let load = probe(&trace, "snapshot.load", Duration::ZERO, 5, || InferencePlan::load(&path));
    push(&mut out, "snapshot.load_ms", load, "ms");
    let mapped = Arc::new(InferencePlan::load(&path).map_err(|e| format!("map snapshot: {e}"))?);
    std::fs::remove_file(&path).map_err(|e| format!("remove probe snapshot: {e}"))?;

    // Int8 engine on the mapped snapshot.
    let b1 = Tensor::stack(&pool[..1]);
    let b8 = Tensor::stack(&pool[..8]);
    let us = |ms: f64| ms * 1e3;
    push(
        &mut out,
        "engine.int8_b1_us",
        us(probe(&trace, "engine.int8_b1", BUDGET, 50, || mapped.predict_batch(&b1))),
        "us",
    );
    push(
        &mut out,
        "engine.int8_b8_us",
        us(probe(&trace, "engine.int8_b8", BUDGET, 50, || mapped.predict_batch(&b8))),
        "us",
    );

    // Wire codec: one INFER request and its INFER_OK reply, both ways.
    let x = &pool[0];
    let request = Message::Infer {
        req_id: 1,
        deadline_us: 0,
        shape: x.shape().to_vec(),
        data: x.data().to_vec(),
    };
    let reply =
        Message::InferOk { req_id: 1, degraded: false, shape: vec![10], data: vec![0.5; 10] };
    let codec = probe(&trace, "net.codec", BUDGET, 100, || {
        let a = frame::encode(&request);
        let b = frame::encode(&reply);
        (frame::decode(&a[4..]).is_ok(), frame::decode(&b[4..]).is_ok())
    });
    push(&mut out, "net.codec_us", us(codec), "us");

    // Serving: the open-loop schedule over the socket, then the same
    // schedule straight into a second in-process batch server.
    let schedule = inputs::poisson_schedule(seed, serve::OPEN_RATE, OPEN_PROBE_S);
    let mut stack = serve::start(dir)?;
    let reference = serve::reference(&stack.plan, &pool);
    serve::warm_up(&mut stack.client, &pool, 200)?;
    let mut log = Log::with_capacity(schedule.len());
    serve::open(&mut stack.client, &pool, &reference, &order, &schedule, Some(&trace), &mut log)?;
    if log.failed() > 0 {
        return Err(format!("{} open-loop probe requests failed", log.failed()));
    }
    stack.stop()?;
    std::fs::remove_file(serve::snapshot_path(dir)).map_err(|e| format!("remove snapshot: {e}"))?;
    let round_trip =
        median(&durations_ms(&trace.spans(), "net.round_trip")).ok_or("no round trips")?;
    let residence = residence(&trace, mapped, &pool, &order, &schedule)?;
    let res = sorted(durations_ms(&trace.spans(), "serve.residence"));
    let res_p50 = percentile(&res, 50.0).ok_or("no residences")?;
    push(&mut out, "net.round_trip_p50_ms", round_trip, "ms");
    push(&mut out, "net.self_p50_ms", round_trip - res_p50, "ms");
    push(&mut out, "serve.residence_p50_ms", res_p50, "ms");
    push(&mut out, "serve.residence_p99_ms", percentile(&res, 99.0).ok_or("no residences")?, "ms");
    push(&mut out, "serve.mean_batch", residence.mean_batch(), "items");
    push(&mut out, "serve.ewma_service_us", residence.ewma_service_ns as f64 / 1e3, "us");
    push(&mut out, "serve.shed", residence.shed_total as f64, "count");
    push(&mut out, "serve.expired", residence.deadline_expired as f64, "count");

    // Transfer pipeline layers.
    let (source, target) = transfer::networks();
    let f32_plan = InferencePlan::compile(&source, None).ok_or("LeNet-5 did not compile")?;
    let native =
        us(probe(&trace, "engine.f32_native_b1", BUDGET, 50, || f32_plan.predict_batch(&b1)));
    push(&mut out, "engine.f32_native_b1_us", native, "us");
    let ax_plan = InferencePlan::compile(&target, target.multiplier().cloned())
        .ok_or("Ax-FPM LeNet-5 did not compile")?;
    let b3 = Tensor::stack(&pool[..3]);
    push(
        &mut out,
        "engine.axfpm_replay_ms",
        probe(&trace, "engine.axfpm_replay", BUDGET, 10, || ax_plan.predict_batch(&b3)),
        "ms",
    );
    // The source network in training mode; its cached plan is invalidated,
    // which the served models below do not share.
    let grad_net = &source;
    push(
        &mut out,
        "nn.gradient_ms",
        probe(&trace, "nn.input_gradient", BUDGET, 10, || grad_net.input_gradient(&b1, &[3])),
        "ms",
    );
    let train = Mode::Train { seed };
    push(
        &mut out,
        "nn.forward_train_ms",
        probe(&trace, "nn.forward_train", BUDGET, 10, || grad_net.forward(&b1, train)),
        "ms",
    );
    let (logits, caches) = grad_net.forward(&b1, train);
    let (_, dlogits) = softmax_cross_entropy(&logits, &[3]);
    push(
        &mut out,
        "nn.backward_ms",
        probe(&trace, "nn.backward", BUDGET, 10, || grad_net.backward(&caches, &dlogits)),
        "ms",
    );
    {
        let source_served = crate::served(&source)?;
        let target_served = crate::served(&target)?;
        let observed = transfer::Observed::new(&source_served, Some(&trace));
        let attacks = transfer::Attacks::new();
        let mut queries = Vec::new();
        for op in 0..6 {
            let x = &pool[order[op]];
            queries.push(
                attacks.op(&observed, &target_served, x, Some(&trace), op as u64).ba_queries as f64,
            );
        }
        let spans = trace.spans();
        for (metric, span) in [
            ("attacks.fgsm_ms", "attacks.fgsm"),
            ("attacks.pgd_ms", "attacks.pgd"),
            ("attacks.ba_ms", "attacks.ba"),
        ] {
            push(
                &mut out,
                metric,
                median(&durations_ms(&spans, span)).ok_or("no attack spans")?,
                "ms",
            );
        }
        push(&mut out, "attacks.ba_queries", median(&queries).ok_or("no ops")?, "count");
        let query = us(median(&durations_ms(&spans, "serve.query")).ok_or("no queries")?);
        push(&mut out, "serve.query_us", query, "us");
        push(&mut out, "serve.query_overhead_us", query - native, "us");
    }

    // Gate-level HEAP and the GEMM kernels, at LeNet-5 conv2's shape
    // (64 output pixels × 150 taps × 16 channels).
    let heap_net = crate::heap::network();
    let heap_plan = InferencePlan::compile(&heap_net, heap_net.multiplier().cloned())
        .ok_or("HEAP LeNet-5 did not compile")?;
    let b2 = Tensor::stack(&pool[..2]);
    push(
        &mut out,
        "engine.heap_b2_ms",
        probe(&trace, "engine.heap_b2", Duration::ZERO, 5, || heap_plan.predict_batch(&b2)),
        "ms",
    );
    let mut rng = inputs::rng(seed, inputs::Stream::Perturb);
    let (m, k, n) = (64, 150, 16);
    let a = Tensor::rand_uniform(&[m, k], 0.0, 1.0, &mut rng);
    let w = Tensor::rand_uniform(&[k, n], -0.3, 0.3, &mut rng);
    let macs = (m * k * n) as f64;
    let heap = MultiplierKind::Heap.build();
    let heap_ms = probe(&trace, "arith.heap_gemm", Duration::ZERO, 3, || {
        da_nn::layers::gemm_with(heap.as_ref(), &a, &w)
    });
    push(&mut out, "arith.heap_gemm_mmac_s", macs / (heap_ms * 1e-3) / 1e6, "MMAC/s");
    let ax = MultiplierKind::AxFpm.build();
    let ax_ms = probe(&trace, "arith.axfpm_gemm", BUDGET, 10, || {
        da_nn::layers::gemm_with(ax.as_ref(), &a, &w)
    });
    push(&mut out, "arith.axfpm_gemm_gmac_s", macs / (ax_ms * 1e-3) / 1e9, "GMAC/s");
    // Int8 LUT GEMM as the engine runs conv2 at batch 8: 16 weight rows,
    // 150 taps, 8 items × 64 pixels per tile.
    let (rows, taps, tile) = (16, 150, 512);
    let qa = QuantParams::from_range(-0.3, 0.3);
    let qb = QuantParams::from_range(0.0, 1.0);
    let lut = ProductLut::build(ax.as_ref(), qa, qb);
    let codes = |len: usize, rng: &mut rand::rngs::StdRng| -> Vec<u8> {
        (0..len).map(|_| rand::Rng::gen::<u8>(rng)).collect()
    };
    let (wa, xb) = (codes(rows * taps, &mut rng), codes(taps * tile, &mut rng));
    let mut acc = vec![0.0f32; rows * tile];
    let lut_ms = probe(&trace, "arith.lut_gemm", BUDGET, 50, || {
        acc.iter_mut().for_each(|v| *v = 0.0);
        lut_gemm(&lut, &wa, rows, taps, &xb, tile, &mut acc, tile);
        acc[0]
    });
    push(
        &mut out,
        "arith.lut_gemm_gmac_s",
        (rows * taps * tile) as f64 / (lut_ms * 1e-3) / 1e9,
        "GMAC/s",
    );

    Ok((out, trace))
}

/// Replay `schedule` into `BatchServer::try_submit_with_deadline` on an
/// in-process server over the mapped plan; each request's residence
/// (submission to reply) is recorded as a `serve.residence` span.
fn residence(
    trace: &Trace,
    plan: Arc<InferencePlan>,
    items: &[Tensor],
    order: &[usize],
    schedule: &[f64],
) -> Result<da_nn::serve::ServeStats, String> {
    let server = BatchServer::from_plan(plan, ServeConfig::default());
    for x in items.iter().take(200) {
        server.logits(x).map_err(|e| format!("warm-up: {e}"))?;
    }
    let done: Arc<Mutex<Vec<(usize, Instant, bool)>>> =
        Arc::new(Mutex::new(Vec::with_capacity(schedule.len())));
    let mut submitted = Vec::with_capacity(schedule.len());
    let t0 = Instant::now() + Duration::from_millis(2);
    for (i, &at) in schedule.iter().enumerate() {
        let due = t0 + Duration::from_secs_f64(at);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let done = done.clone();
        let start = Instant::now();
        let deadline = start + serve::DEADLINE;
        let x = &items[order[i % order.len()]];
        let admitted = server.try_submit_with_deadline(
            x,
            Some(deadline),
            Box::new(move |r| {
                done.lock().expect("completion list").push((i, Instant::now(), r.is_ok()))
            }),
        );
        submitted.push((start, admitted.is_ok()));
    }
    let admitted = submitted.iter().filter(|s| s.1).count();
    let wait_until = Instant::now() + Duration::from_secs(5);
    while done.lock().expect("completion list").len() < admitted {
        if Instant::now() > wait_until {
            return Err("in-process replay did not complete".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    for &(i, at, ok) in done.lock().expect("completion list").iter() {
        if ok {
            trace.record(trace.reserve(), ROOT, i as u64, "serve.residence", submitted[i].0, at);
        }
    }
    let stats = server.stats();
    server.shutdown();
    Ok(stats)
}
