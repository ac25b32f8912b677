//! Loopback load generator for the `da-serve` socket front end.
//!
//! ```sh
//! # against a running server (CI does this after scraping da-serve's port)
//! cargo run --release --example serve_loadgen -- --addr 127.0.0.1:PORT --shutdown
//!
//! # self-contained: boots an in-process front end on a demo plan
//! cargo run --release --example serve_loadgen
//! ```
//!
//! Spawns `--clients` threads, each holding one TCP connection and issuing
//! `--requests` single-sample `INFER`s back to back; per-request wall
//! latency is recorded client-side. Prints p50/p99 latency and aggregate
//! throughput, and — with `DA_BENCH_JSON=<path>` — emits a
//! `serve_latency` row per run in the `da_bench::json` schema, so the
//! cross-process path is regression-tracked exactly like the in-process
//! benches (`check_bench_json` compares the documents).
//!
//! `--verify PATH` additionally maps the server's own `.daplan` snapshot
//! in this process and asserts every served logits row is **bit-identical**
//! to serial [`InferencePlan::predict_batch`] — the serve module's
//! contract, enforced across the wire.
//!
//! `--shutdown` sends a `SHUTDOWN` frame when done, draining the server
//! (that is how CI stops `da-serve` and collects its exit code).
//!
//! # Open-loop overload mode
//!
//! `--poisson RATE` switches to an **open-loop** arrival process: requests
//! fire at exponentially distributed inter-arrival times at `RATE`/s
//! regardless of how fast replies come back — the traffic shape a public
//! endpoint actually sees, and the one that distinguishes overload control
//! from congestion collapse. `--poisson-factor F` first measures closed-loop
//! capacity with the normal hammer, then drives the open loop at `F×` that
//! rate (machine-independent — CI uses `--poisson-factor 2`). Every request
//! carries `--deadline-ms`; replies are classified as accepted (latency
//! recorded, bit-identity verified), shed (`Overloaded`, the typed refusal
//! with a RetryAfter hint), or expired (`DeadlineExceeded`). Results are
//! emitted as a `serve_overload` row; `--min-sheds N` asserts the server
//! actually shed under pressure instead of hanging.

#[cfg(unix)]
use std::io::{Read, Write};
#[cfg(unix)]
use std::sync::{Arc, Mutex};
#[cfg(unix)]
use std::time::{Duration, Instant};

#[cfg(unix)]
use da_bench::json::{JsonEmitter, Record};
#[cfg(unix)]
use defensive_approximation::datasets::digits::synth_digits;
#[cfg(unix)]
use defensive_approximation::nn::engine::InferencePlan;
#[cfg(unix)]
use defensive_approximation::nn::net::{
    frame, Client, ErrCode, FrameDecoder, Message, NetConfig, NetServer, DEFAULT_MAX_FRAME,
};
#[cfg(unix)]
use defensive_approximation::nn::serve::{BatchServer, ServeConfig};
#[cfg(unix)]
use defensive_approximation::tensor::Tensor;
#[cfg(unix)]
use rand::{Rng, SeedableRng};

#[cfg(not(unix))]
fn main() {
    eprintln!("serve_loadgen: the socket front end requires a Unix platform");
    std::process::exit(2);
}

#[cfg(unix)]
fn main() {
    let smoke = std::env::var_os("DA_BENCH_SMOKE").is_some();
    let mut addr: Option<String> = None;
    let mut verify: Option<String> = None;
    let mut clients: usize = if smoke { 2 } else { 4 };
    let mut requests: usize = if smoke { 16 } else { 64 };
    let mut shutdown = false;
    let mut min_generation: Option<u64> = None;
    let mut poisson: Option<f64> = None;
    let mut poisson_factor: Option<f64> = None;
    let mut deadline_ms: f64 = 50.0;
    let mut min_sheds: Option<u64> = None;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| die(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--addr" => addr = Some(value()),
            "--verify" => verify = Some(value()),
            "--clients" => clients = value().parse().unwrap_or_else(|_| die("bad --clients")),
            "--requests" => requests = value().parse().unwrap_or_else(|_| die("bad --requests")),
            "--shutdown" => shutdown = true,
            "--min-generation" => {
                min_generation =
                    Some(value().parse().unwrap_or_else(|_| die("bad --min-generation")))
            }
            "--poisson" => poisson = Some(value().parse().unwrap_or_else(|_| die("bad --poisson"))),
            "--poisson-factor" => {
                poisson_factor =
                    Some(value().parse().unwrap_or_else(|_| die("bad --poisson-factor")))
            }
            "--deadline-ms" => {
                deadline_ms = value().parse().unwrap_or_else(|_| die("bad --deadline-ms"))
            }
            "--min-sheds" => {
                min_sheds = Some(value().parse().unwrap_or_else(|_| die("bad --min-sheds")))
            }
            other => die(&format!("unknown flag {other}")),
        }
    }
    if poisson.is_some() && poisson_factor.is_some() {
        die("--poisson and --poisson-factor are mutually exclusive");
    }
    if !(deadline_ms.is_finite() && deadline_ms > 0.0) {
        die("--deadline-ms must be positive");
    }

    // No --addr: boot an in-process front end on a demo snapshot so the
    // example is runnable (and benchable) standalone.
    let selfhost = addr.is_none().then(|| {
        let path = std::env::temp_dir().join(format!("da-loadgen-{}.daplan", std::process::id()));
        write_demo_snapshot(&path);
        let plan = InferencePlan::load(&path).expect("demo snapshot serves");
        let server = BatchServer::from_plan(Arc::new(plan), ServeConfig::default());
        let front =
            NetServer::bind(server, "127.0.0.1:0", NetConfig::default()).expect("bind loopback");
        if verify.is_none() {
            verify = Some(path.display().to_string());
        }
        let (bound, handle, join) = front.spawn();
        println!("self-hosting on {bound}");
        (bound.to_string(), handle, join, path)
    });
    let addr = addr.unwrap_or_else(|| selfhost.as_ref().expect("self-host").0.clone());

    let data = synth_digits(clients * requests, 42);
    let total = clients * requests;

    if poisson.is_some() || poisson_factor.is_some() {
        // Open-loop overload mode. With --poisson-factor the target rate is
        // F× the capacity a closed-loop hammer just measured on this
        // machine, so the overload level is machine-independent.
        let open_conns = clients.max(16);
        let rate = match poisson {
            Some(r) => r,
            None => {
                let factor = poisson_factor.expect("checked");
                // Calibrate at saturation: a couple of synchronous clients
                // measure latency, not capacity (the server would sit half
                // idle between their requests), and "2x" of that undershoots
                // the real ceiling. Use the same concurrency the open-loop
                // run will.
                let cal = synth_digits(open_conns * requests, 42);
                let (_, _, elapsed) = closed_loop(&addr, &cal.images, open_conns, requests);
                let capacity = (open_conns * requests) as f64 / elapsed;
                let rate = capacity * factor;
                println!(
                    "measured closed-loop capacity {capacity:.0} items/s \
                     at concurrency {open_conns}; open loop at {factor}x = {rate:.0} req/s"
                );
                rate
            }
        };
        if !(rate.is_finite() && rate > 0.0) {
            die("open-loop rate must be positive");
        }
        let deadline = Duration::from_secs_f64(deadline_ms / 1e3);
        // Size the run by wall clock, not by the closed-loop request count:
        // sheds only appear once sustained traffic outgrows the queue, so a
        // fixed handful of requests measures nothing. Spread the offered
        // load over enough connections that the backlog is actually visible
        // to the server — per-connection inflight is capped, and anything
        // beyond it waits in kernel socket buffers where no deadline ticks.
        let window = (deadline_ms / 1e3 * 10.0).max(0.5);
        let open_total = ((rate * window).ceil() as usize).clamp(64, 20_000);
        let open_data = synth_digits(open_total, 42);
        let out = open_loop(&addr, &open_data.images, open_total, open_conns, rate, deadline);

        let accepted = out.accepted.len();
        let answered = accepted + out.shed + out.expired;
        assert_eq!(answered, open_total, "every offered request must get exactly one reply");
        let mut lat: Vec<f64> = out.accepted.iter().map(|a| a.latency_ms).collect();
        lat.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        let p50 = percentile(&lat, 50.0);
        let p99 = percentile(&lat, 99.0);
        let goodput = accepted as f64 / out.elapsed;
        let degraded = out.accepted.iter().filter(|a| a.degraded).count();

        let mut probe = Client::connect(addr.as_str()).expect("connect for stats");
        let stats = probe.stats().expect("stats");
        println!(
            "open loop: offered {open_total} on {open_conns} conns at {rate:.0}/s \
             over {:.1} ms, deadline {deadline_ms} ms",
            out.elapsed * 1e3
        );
        println!(
            "  accepted {accepted} ({goodput:.0}/s goodput, {degraded} degraded), \
             shed {} (typed Overloaded), expired {} — p50 {p50:.3} ms, p99 {p99:.3} ms",
            out.shed, out.expired
        );
        println!(
            "  server: shed_total {}, rate_limited {}, degraded_total {}, \
             ewma_service {} ns, expired {}",
            stats.shed_total,
            stats.rate_limited,
            stats.degraded_total,
            stats.ewma_service_ns,
            stats.deadline_expired
        );

        // Bit-identity of the survivors: accepted rows must still match the
        // snapshot's serial reference exactly — overload changes who gets
        // served, never what they are served.
        if let Some(path) = &verify {
            let plan = InferencePlan::load(path).expect("verification snapshot maps");
            let reference = plan.predict_batch(&open_data.images);
            let classes = reference.shape()[1];
            for a in &out.accepted {
                let want = &reference.data()[a.index * classes..(a.index + 1) * classes];
                assert!(
                    bits_eq(&a.logits, want),
                    "sample {}: accepted logits diverged from serial inference",
                    a.index
                );
            }
            println!("  bit-identity: {accepted}/{accepted} accepted rows match the plan");
        }

        if let Some(min) = min_sheds {
            let sheds = (out.shed + out.expired) as u64;
            assert!(sheds >= min, "expected >= {min} shed requests under overload, saw {sheds}");
            assert!(accepted > 0, "overload control must keep accepting, not blackhole");
            // Accepted requests must clear near their deadline, not drift
            // into an uncontrolled queue. Admission allows an estimated
            // wait up to the full deadline, so client-observed completion
            // sits at deadline + service + RTT; the 2x factor bounds that
            // tail without flaking on slow runners.
            assert!(
                p99 <= deadline_ms * 2.0,
                "p99 of accepted requests ({p99:.1} ms) blew the {deadline_ms} ms deadline"
            );
            println!("  overload checks: sheds {sheds} >= {min}, p99 within deadline, ok");
        }

        if shutdown {
            probe.shutdown_server().expect("shutdown handshake");
            println!("server acknowledged shutdown; draining");
        }

        let mut emitter = JsonEmitter::from_env("serve_overload");
        emitter.record(
            Record::new()
                .label("scenario", "serve_overload")
                .label("transport", "tcp-loopback")
                .label("mode", if poisson_factor.is_some() { "poisson-factor" } else { "poisson" })
                .label("clients", open_conns.to_string())
                .metric("offered_per_sec", rate)
                .metric("goodput_per_sec", goodput)
                .metric("accepted", accepted as f64)
                .metric("shed", out.shed as f64)
                .metric("expired", out.expired as f64)
                .metric("degraded", degraded as f64)
                .metric("p50_ms", p50)
                .metric("p99_ms", p99)
                .metric("deadline_ms", deadline_ms),
        );
        if let Some(path) = emitter.finish() {
            println!("bench JSON written to {}", path.display());
        }

        if let Some((_, handle, join, path)) = selfhost {
            handle.shutdown();
            join.join().expect("reactor thread").expect("reactor exit");
            std::fs::remove_file(&path).ok();
        }
        return;
    }

    // Closed-loop hammer: one connection per client thread, synchronous
    // request loops.
    let (latencies, logits_by_index, elapsed) = closed_loop(&addr, &data.images, clients, requests);
    let mut latencies = latencies;
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let p50 = percentile(&latencies, 50.0);
    let p99 = percentile(&latencies, 99.0);
    let items_per_sec = total as f64 / elapsed;

    // Server-side counters over the wire.
    let mut probe = Client::connect(addr.as_str()).expect("connect for stats");
    let stats = probe.stats().expect("stats");
    let (batches, items) = (stats.batches, stats.items);
    let mean_batch = if batches == 0 { 0.0 } else { items as f64 / batches as f64 };

    println!(
        "{total} requests from {clients} conns in {:.1} ms: p50 {p50:.3} ms, p99 {p99:.3} ms, \
         {items_per_sec:.0} items/s",
        elapsed * 1e3
    );
    println!(
        "server: {batches} batches / {items} items (mean batch {mean_batch:.2}), \
         flush deadline now {} ns, generation {}, restarts {}, expired {}",
        stats.flush_deadline_ns, stats.generation, stats.worker_restarts, stats.deadline_expired
    );

    // CI's SIGHUP-reload smoke: every request above already had to succeed
    // (zero dropped connections), and the plan generation must show the
    // mid-loadgen reload landed.
    if let Some(min) = min_generation {
        assert!(
            stats.generation >= min,
            "expected plan generation >= {min} after reload, server reports {}",
            stats.generation
        );
        println!("generation check: {} >= {min} ok", stats.generation);
    }

    // Cross-process bit-identity against the snapshot's serial reference.
    if let Some(path) = &verify {
        let plan = InferencePlan::load(path).expect("verification snapshot maps");
        let reference = plan.predict_batch(&data.images);
        let classes = reference.shape()[1];
        let mut checked = 0usize;
        for (i, row) in logits_by_index.iter().enumerate() {
            let want = &reference.data()[i * classes..(i + 1) * classes];
            assert!(bits_eq(row, want), "sample {i}: served logits diverged from serial inference");
            checked += 1;
        }
        println!("bit-identity: {checked}/{total} served rows match the mapped plan exactly");
    }

    if shutdown {
        probe.shutdown_server().expect("shutdown handshake");
        println!("server acknowledged shutdown; draining");
    }

    let mut emitter = JsonEmitter::from_env("serve_latency");
    emitter.record(
        Record::new()
            .label("scenario", "serve_latency")
            .label("transport", "tcp-loopback")
            .label("clients", clients.to_string())
            .label("requests_per_client", requests.to_string())
            .metric("p50_ms", p50)
            .metric("p99_ms", p99)
            .metric("items_per_sec", items_per_sec)
            .metric("mean_batch", mean_batch),
    );
    if let Some(path) = emitter.finish() {
        println!("bench JSON written to {}", path.display());
    }

    if let Some((_, handle, join, path)) = selfhost {
        handle.shutdown();
        join.join().expect("reactor thread").expect("reactor exit");
        std::fs::remove_file(&path).ok();
    }
}

#[cfg(unix)]
fn bits_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The closed-loop hammer: `clients` synchronous request loops. Returns
/// per-request latencies (ms, unsorted), served logits indexed like
/// `images`, and the wall-clock seconds the whole run took.
#[cfg(unix)]
fn closed_loop(
    addr: &str,
    images: &Tensor,
    clients: usize,
    requests: usize,
) -> (Vec<f64>, Vec<Vec<f32>>, f64) {
    let start = Instant::now();
    let results: Vec<(Vec<f64>, Vec<Vec<f32>>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    client.set_read_timeout(Some(Duration::from_secs(30))).expect("read timeout");
                    let mut lat_ms = Vec::with_capacity(requests);
                    let mut logits = Vec::with_capacity(requests);
                    for j in 0..requests {
                        let item = images.batch_item(c * requests + j);
                        let t0 = Instant::now();
                        let reply = client
                            .infer(item.shape(), item.data())
                            .expect("transport")
                            .unwrap_or_else(|refusal| {
                                die(&format!(
                                    "server refused request: {:?} {}",
                                    refusal.code, refusal.msg
                                ))
                            });
                        lat_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                        logits.push(reply.data);
                    }
                    (lat_ms, logits)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let latencies: Vec<f64> = results.iter().flat_map(|(l, _)| l.iter().copied()).collect();
    let logits: Vec<Vec<f32>> = results.into_iter().flat_map(|(_, g)| g).collect();
    (latencies, logits, elapsed)
}

/// One accepted open-loop reply.
#[cfg(unix)]
struct Accepted {
    /// Index into the offered image batch (`req_id - 1`).
    index: usize,
    logits: Vec<f32>,
    degraded: bool,
    latency_ms: f64,
}

#[cfg(unix)]
struct OpenLoopOutcome {
    accepted: Vec<Accepted>,
    /// Typed `Overloaded` refusals (estimate-shed, shed-oldest, rate limit).
    shed: usize,
    /// Typed `DeadlineExceeded` refusals (expired while queued).
    expired: usize,
    /// Wall-clock seconds from first scheduled send to last reply.
    elapsed: f64,
}

/// Open-loop Poisson driver: `total` requests at exponential inter-arrival
/// times (rate `rate`/s), spread round-robin over `clients` connections,
/// each with a per-sender and per-receiver thread so sends never wait for
/// replies. Every request must be answered — a hang is fatal, not silent.
#[cfg(unix)]
fn open_loop(
    addr: &str,
    images: &Tensor,
    total: usize,
    clients: usize,
    rate: f64,
    deadline: Duration,
) -> OpenLoopOutcome {
    // Deterministic schedule (fixed seed): CI reruns see the same arrival
    // pattern, so shed counts are comparable run to run.
    let mut rng = rand::rngs::StdRng::seed_from_u64(999);
    let mut at = 0.0f64;
    let offsets: Vec<Duration> = (0..total)
        .map(|_| {
            let u: f64 = rng.gen_range(0.0..1.0);
            at += -(1.0 - u).ln() / rate;
            Duration::from_secs_f64(at)
        })
        .collect();
    let clients = clients.max(1).min(total.max(1));
    // Send instants land here right before each write; the receiver reads
    // them after the reply arrives (the TCP round trip orders the accesses).
    let send_at: Vec<Mutex<Option<Instant>>> = (0..total).map(|_| Mutex::new(None)).collect();
    let read_timeout = Duration::from_secs(10).max(deadline * 20);
    let deadline_us = deadline.as_micros().clamp(1, u128::from(u32::MAX)) as u32;

    let start = Instant::now();
    let per_conn: Vec<(Vec<Accepted>, usize, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let send_at = &send_at;
                let offsets = &offsets;
                scope.spawn(move || {
                    let stream = std::net::TcpStream::connect(addr).expect("connect");
                    stream.set_nodelay(true).expect("nodelay");
                    stream.set_read_timeout(Some(read_timeout)).expect("read timeout");
                    let mine: Vec<usize> = (c..total).step_by(clients).collect();
                    let expect = mine.len();

                    // Sender half: fire at the schedule, never at the replies.
                    let mut tx = stream.try_clone().expect("clone stream");
                    let sender = scope.spawn(move || {
                        for i in mine {
                            let until = offsets[i].saturating_sub(start.elapsed());
                            if !until.is_zero() {
                                std::thread::sleep(until);
                            }
                            let item = images.batch_item(i);
                            let msg = Message::Infer {
                                req_id: i as u64 + 1,
                                deadline_us,
                                shape: item.shape().to_vec(),
                                data: item.data().to_vec(),
                            };
                            *send_at[i].lock().expect("send slot") = Some(Instant::now());
                            tx.write_all(&frame::encode(&msg)).expect("send");
                        }
                    });

                    // Receiver half: classify every reply; a read timeout is
                    // the hang this harness exists to rule out.
                    let mut rx = stream;
                    let mut dec = FrameDecoder::new();
                    let mut buf = [0u8; 64 * 1024];
                    let mut accepted = Vec::new();
                    let (mut shed, mut expired, mut seen) = (0usize, 0usize, 0usize);
                    while seen < expect {
                        let payload = loop {
                            if let Some(p) =
                                dec.next_payload(DEFAULT_MAX_FRAME).expect("well-framed reply")
                            {
                                break p;
                            }
                            let n = rx.read(&mut buf).expect("reply (hang = overload collapse)");
                            assert!(n > 0, "server closed with {seen}/{expect} replies delivered");
                            dec.push(&buf[..n]);
                        };
                        let arrived = Instant::now();
                        match frame::decode(&payload).expect("well-formed reply") {
                            Message::InferOk { req_id, degraded, data, .. } => {
                                let index = req_id as usize - 1;
                                let sent = send_at[index]
                                    .lock()
                                    .expect("send slot")
                                    .expect("reply before send");
                                accepted.push(Accepted {
                                    index,
                                    logits: data,
                                    degraded,
                                    latency_ms: arrived.duration_since(sent).as_secs_f64() * 1e3,
                                });
                            }
                            Message::InferErr { code: ErrCode::Overloaded, .. } => shed += 1,
                            Message::InferErr { code: ErrCode::DeadlineExceeded, .. } => {
                                expired += 1
                            }
                            other => die(&format!("unexpected open-loop reply: {other:?}")),
                        }
                        seen += 1;
                    }
                    sender.join().expect("sender thread");
                    (accepted, shed, expired)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("connection pair")).collect()
    });
    let elapsed = start.elapsed().as_secs_f64();

    let mut out = OpenLoopOutcome { accepted: Vec::new(), shed: 0, expired: 0, elapsed };
    for (accepted, shed, expired) in per_conn {
        out.accepted.extend(accepted);
        out.shed += shed;
        out.expired += expired;
    }
    out
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

#[cfg(unix)]
fn die(msg: &str) -> ! {
    eprintln!("serve_loadgen: {msg}");
    std::process::exit(2);
}

/// Same artifact `da-serve --demo-snapshot` produces.
#[cfg(unix)]
fn write_demo_snapshot(path: &std::path::Path) {
    use defensive_approximation::arith::MultiplierKind;
    use defensive_approximation::nn::zoo::lenet5;
    use rand::SeedableRng;

    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let mut net = lenet5(10, &mut rng);
    net.set_multiplier(Some(MultiplierKind::AxFpm.build()));
    let calibration: Tensor = synth_digits(32, 7).images;
    let plan = InferencePlan::compile_quantized(&net, net.multiplier().cloned(), &calibration)
        .expect("demo network quantizes");
    plan.save(path).expect("snapshot save");
}
