//! End-to-end serving latency through the TCP front end (`da_nn::net`).
//!
//! Boots a quantized LeNet-5 [`BatchServer`] behind an in-process
//! [`NetServer`] on a loopback socket and hammers it with concurrent
//! synchronous clients — the full production path: framing, reactor,
//! bounded queue, micro-batching, reply framing. Reported per scenario:
//! client-observed p50/p99 request latency, aggregate throughput, and the
//! realised mean batch size (how well the adaptive flush deadline is
//! coalescing under that load).
//!
//! `DA_BENCH_JSON=<path>` writes the rows as a machine-readable document
//! (scenario `serve_latency`; see [`da_bench::json`]); `DA_BENCH_SMOKE=1`
//! restricts the sweep to the lightest scenario for CI's
//! emit-and-schema-check smoke job. The same schema is emitted by
//! `examples/serve_loadgen.rs` against an out-of-process `da-serve`, so
//! the two documents are `check_bench_json`-comparable.

#[cfg(not(unix))]
fn main() {
    eprintln!("serve_latency: the socket front end requires a Unix platform");
}

#[cfg(unix)]
fn main() {
    use std::time::{Duration, Instant};

    use da_arith::MultiplierKind;
    use da_bench::json::{JsonEmitter, Record};
    use da_datasets::digits::synth_digits;
    use da_nn::engine::InferencePlan;
    use da_nn::net::{Client, NetConfig, NetServer};
    use da_nn::serve::{BatchServer, ServeConfig};
    use da_nn::zoo::lenet5;
    use rand::SeedableRng;

    let smoke = std::env::var_os("DA_BENCH_SMOKE").is_some();
    let mut emitter = JsonEmitter::from_env("serve_latency");

    // One compile, shared by every scenario via the snapshot path — the
    // bench measures serving, not calibration.
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let mut net = lenet5(10, &mut rng);
    net.set_multiplier(Some(MultiplierKind::AxFpm.build()));
    let calibration = synth_digits(32, 7).images;
    let plan = InferencePlan::compile_quantized(&net, net.multiplier().cloned(), &calibration)
        .expect("LeNet-5 quantizes");
    let snap = std::env::temp_dir().join(format!("da-bench-serve-{}.daplan", std::process::id()));
    plan.save(&snap).expect("snapshot save");

    println!("Serve latency through the TCP front end (quantized LeNet-5, loopback)");
    println!();
    println!(
        "{:<22} {:>8} {:>10} {:>10} {:>12} {:>11}",
        "scenario", "clients", "p50", "p99", "items/s", "mean batch"
    );

    let scenarios: &[(&str, usize, usize)] = if smoke {
        &[("light", 2, 16)]
    } else {
        &[("light", 1, 64), ("moderate", 4, 64), ("bursty", 8, 32)]
    };

    for &(name, clients, requests) in scenarios {
        let plan = InferencePlan::load(&snap).expect("snapshot serves");
        let server = BatchServer::from_plan(std::sync::Arc::new(plan), ServeConfig::default());
        let front =
            NetServer::bind(server, "127.0.0.1:0", NetConfig::default()).expect("bind loopback");
        let (addr, handle, join) = front.spawn();

        let data = synth_digits(clients * requests, 42);
        let start = Instant::now();
        let latencies: Vec<f64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let images = &data.images;
                    scope.spawn(move || {
                        let mut client = Client::connect(addr).expect("connect");
                        client
                            .set_read_timeout(Some(Duration::from_secs(30)))
                            .expect("read timeout");
                        (0..requests)
                            .map(|j| {
                                let item = images.batch_item(c * requests + j);
                                let t0 = Instant::now();
                                client
                                    .infer(item.shape(), item.data())
                                    .expect("transport")
                                    .expect("served");
                                t0.elapsed().as_secs_f64() * 1e3
                            })
                            .collect::<Vec<f64>>()
                    })
                })
                .collect();
            let mut all: Vec<f64> =
                handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect();
            all.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
            all
        });
        let elapsed = start.elapsed().as_secs_f64();

        let mut probe = Client::connect(addr).expect("connect for stats");
        let stats = probe.stats().expect("stats");
        let (batches, items) = (stats.batches, stats.items);
        let mean_batch = if batches == 0 { 0.0 } else { items as f64 / batches as f64 };
        probe.shutdown_server().expect("shutdown handshake");
        drop(probe);
        handle.shutdown();
        join.join().expect("reactor thread").expect("reactor exit");

        let total = clients * requests;
        let p50 = percentile(&latencies, 50.0);
        let p99 = percentile(&latencies, 99.0);
        let items_per_sec = total as f64 / elapsed;
        println!(
            "{name:<22} {clients:>8} {p50:>8.3}ms {p99:>8.3}ms {items_per_sec:>12.0} {mean_batch:>11.2}"
        );

        emitter.record(
            Record::new()
                .label("scenario", "serve_latency")
                .label("load", name)
                .label("transport", "tcp-loopback")
                .label("clients", clients.to_string())
                .label("requests_per_client", requests.to_string())
                .metric("p50_ms", p50)
                .metric("p99_ms", p99)
                .metric("items_per_sec", items_per_sec)
                .metric("mean_batch", mean_batch),
        );
    }

    std::fs::remove_file(&snap).ok();
    if let Some(path) = emitter.finish() {
        println!();
        println!("bench JSON written to {}", path.display());
    }
}

/// `q`-th percentile of an ascending-sorted slice (nearest-rank).
#[cfg(unix)]
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}
