//! `da-serve`: stand a TCP serving endpoint on a `.daplan` snapshot.
//!
//! ```sh
//! cargo run --release --bin da-serve -- \
//!     --snapshot model.daplan --addr 127.0.0.1:0 --demo-snapshot
//! ```
//!
//! Maps the snapshot with [`InferencePlan::load`] (mmap cold start, no
//! compilation), serves it with [`BatchServer::from_plan`] and hands the
//! server to the `da_nn::net` reactor. The process prints exactly one
//! `listening on <addr>` line once the socket is bound — harnesses bind
//! port 0 and scrape the kernel-assigned port from that line — then serves
//! until a client sends a `SHUTDOWN` frame, which drains in-flight work and
//! exits 0.
//!
//! `--demo-snapshot` compiles a quantized LeNet-5 on the paper's Ax-FPM
//! multiplier and saves it at `--snapshot` if the file does not exist yet;
//! this is how CI (and a first-time reader) gets a servable artifact
//! without a separate tool.
//!
//! `SIGHUP` hot-reloads the snapshot from `--reload-path` (default: the
//! `--snapshot` path) without dropping a single connection: the handler
//! only flips an atomic and pokes the reactor's self-pipe, and the reactor
//! mmaps + fully validates the replacement before atomically swapping it
//! in. A corrupt replacement is rejected and the old plan keeps serving.
//! Clients can trigger the same reload over the wire with a `RELOAD` frame.
//!
//! [`InferencePlan::load`]: defensive_approximation::nn::engine::InferencePlan::load
//! [`BatchServer::from_plan`]: defensive_approximation::nn::serve::BatchServer::from_plan

#[cfg(unix)]
fn main() {
    use std::sync::Arc;
    use std::time::Duration;

    use defensive_approximation::nn::engine::InferencePlan;
    use defensive_approximation::nn::net::{NetConfig, NetServer};
    use defensive_approximation::nn::serve::{BatchServer, ServeConfig};

    let mut snapshot = String::from("da-serve.daplan");
    let mut addr = String::from("127.0.0.1:0");
    let mut demo = false;
    let mut serve = ServeConfig::default();
    let mut net = NetConfig::default();
    let mut reload_path: Option<String> = None;
    let mut brownout_snapshot: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| -> String {
            args.next().unwrap_or_else(|| die(&format!("{flag} needs {what}")))
        };
        match flag.as_str() {
            "--snapshot" => snapshot = value("a path"),
            "--addr" => addr = value("host:port"),
            "--demo-snapshot" => demo = true,
            "--workers" => serve.workers = parse(&value("a count")),
            "--max-batch" => serve.max_batch = parse(&value("a count")),
            "--queue" => serve.queue_capacity = parse(&value("a count")),
            "--flush-deadline-us" => {
                serve.flush_deadline = Duration::from_micros(parse(&value("µs")))
            }
            "--flush-deadline-min-us" => {
                serve.flush_deadline_min = Duration::from_micros(parse(&value("µs")))
            }
            "--default-deadline-us" => {
                serve.default_deadline = Some(Duration::from_micros(parse(&value("µs"))))
            }
            "--max-frame" => net.max_frame = parse(&value("bytes")),
            "--max-inflight" => net.max_inflight = parse(&value("a count")),
            "--max-conns" => net.max_conns = parse(&value("a count")),
            "--idle-timeout-ms" => {
                net.idle_timeout = Some(Duration::from_millis(parse(&value("ms"))))
            }
            "--reload-path" => reload_path = Some(value("a path")),
            "--rate" => net.rate = Some(parse(&value("req/s"))),
            "--burst" => net.burst = Some(parse(&value("tokens"))),
            "--conn-rate" => net.conn_rate = Some(parse(&value("req/s"))),
            "--conn-burst" => net.conn_burst = Some(parse(&value("tokens"))),
            "--brownout-snapshot" => brownout_snapshot = Some(value("a path")),
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => die(&format!("unknown flag {other}\n{USAGE}")),
        }
    }

    if demo && !std::path::Path::new(&snapshot).exists() {
        eprintln!("compiling demo snapshot at {snapshot} …");
        write_demo_snapshot(&snapshot);
    }

    // SIGHUP reloads from --reload-path, defaulting to the snapshot we
    // booted from (an operator overwrites the file, then signals).
    net.reload_path = Some(reload_path.unwrap_or_else(|| snapshot.clone()).into());

    let server = match InferencePlan::load(&snapshot) {
        Ok(plan) => BatchServer::from_plan(Arc::new(plan), serve),
        Err(e) => die(&format!("cannot serve snapshot {snapshot}: {e}")),
    };
    // A pre-loaded cheaper plan (typically an int8 snapshot beside the f32
    // one) the server fails over to under sustained shed pressure. Loaded
    // and interface-checked at boot: a brownout is the wrong moment to
    // discover the fallback does not fit.
    if let Some(path) = &brownout_snapshot {
        if let Err(e) =
            InferencePlan::load(path).and_then(|p| server.set_fallback_plan(Arc::new(p)))
        {
            die(&format!("cannot use brownout snapshot {path}: {e}"));
        }
        eprintln!("brownout fallback armed from {path}");
    }
    let front = match NetServer::bind(server, addr.as_str(), net) {
        Ok(f) => f,
        Err(e) => die(&format!("cannot bind {addr}: {e}")),
    };
    install_sighup(front.handle());

    // The one line harnesses scrape; flush so a piped reader sees it
    // before the first request arrives.
    println!("listening on {}", front.local_addr());
    use std::io::Write as _;
    std::io::stdout().flush().ok();

    match front.run() {
        Ok(stats) => eprintln!(
            "drained: {} conns, {} ok replies, {} error replies, {} rate limited, \
             {} protocol errors, {} reloads ok, {} reloads rejected",
            stats.accepted,
            stats.replies_ok,
            stats.replies_err,
            stats.rate_limited,
            stats.protocol_errors,
            stats.reloads_ok,
            stats.reloads_rejected
        ),
        Err(e) => die(&format!("reactor failed: {e}")),
    }
}

/// Route `SIGHUP` to [`NetHandle::reload`]. No `libc` dependency in this
/// workspace, so the registration is a raw `signal(2)` FFI call; the
/// handler body only touches async-signal-safe operations (an atomic store
/// and a `write` to the reactor's self-pipe).
///
/// [`NetHandle::reload`]: defensive_approximation::nn::net::NetHandle::reload
#[cfg(unix)]
fn install_sighup(handle: defensive_approximation::nn::net::NetHandle) {
    use std::sync::OnceLock;

    use defensive_approximation::nn::net::NetHandle;

    static HANDLE: OnceLock<NetHandle> = OnceLock::new();
    HANDLE.set(handle).ok().unwrap_or_else(|| die("SIGHUP handler installed twice"));

    extern "C" fn on_sighup(_sig: i32) {
        // `get` on a set OnceLock is a relaxed load — safe in a handler.
        if let Some(h) = HANDLE.get() {
            h.reload();
        }
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGHUP: i32 = 1;
    const SIG_ERR: usize = usize::MAX;
    let prev = unsafe { signal(SIGHUP, on_sighup as *const () as usize) };
    if prev == SIG_ERR {
        die("cannot install SIGHUP handler");
    }
}

#[cfg(unix)]
const USAGE: &str = "usage: da-serve [--snapshot PATH] [--addr HOST:PORT] [--demo-snapshot]
                [--workers N] [--max-batch N] [--queue N]
                [--flush-deadline-us N] [--flush-deadline-min-us N]
                [--default-deadline-us N] [--max-frame BYTES]
                [--max-inflight N] [--max-conns N] [--idle-timeout-ms N]
                [--reload-path PATH]
                [--rate R] [--burst N] [--conn-rate R] [--conn-burst N]
                [--brownout-snapshot PATH]

SIGHUP hot-reloads the plan from --reload-path (default: --snapshot).
--rate/--conn-rate enable token-bucket admission control (req/s, global /
per connection); excess requests get typed Overloaded replies with a
RetryAfter hint. --brownout-snapshot arms a cheaper fallback plan served
under sustained shed pressure (replies are flagged degraded).";

#[cfg(unix)]
fn die(msg: &str) -> ! {
    eprintln!("da-serve: {msg}");
    std::process::exit(2);
}

#[cfg(unix)]
fn parse<T: std::str::FromStr>(s: &str) -> T {
    s.parse().unwrap_or_else(|_| die(&format!("cannot parse {s:?}")))
}

/// Quantized LeNet-5 on Ax-FPM, calibrated on synthetic digits — the same
/// artifact `examples/serve.rs` builds, persisted for cross-process use.
#[cfg(unix)]
fn write_demo_snapshot(path: &str) {
    use defensive_approximation::arith::MultiplierKind;
    use defensive_approximation::datasets::digits::synth_digits;
    use defensive_approximation::nn::engine::InferencePlan;
    use defensive_approximation::nn::zoo::lenet5;
    use rand::SeedableRng;

    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let mut net = lenet5(10, &mut rng);
    net.set_multiplier(Some(MultiplierKind::AxFpm.build()));
    let calibration = synth_digits(32, 7).images;
    let plan = InferencePlan::compile_quantized(&net, net.multiplier().cloned(), &calibration)
        .unwrap_or_else(|| die("demo network failed to quantize"));
    if let Err(e) = plan.save(path) {
        die(&format!("cannot write demo snapshot: {e}"));
    }
}

#[cfg(not(unix))]
fn main() {
    eprintln!("da-serve: the socket front end requires a Unix platform");
    std::process::exit(2);
}
