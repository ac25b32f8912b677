//! The repository's benchmark: end-to-end metrics from an untraced run and
//! per-layer metrics from a traced one.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload transfer --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Workloads (`perfbench/LAYERS.md` says why each exists, and why the
//! scored figures are process CPU time scaled by a host speed gauge rather
//! than wall clock):
//!
//! * `serve_closed` — one thread pipelines 16 INFERs on one connection to
//!   the in-process `da-serve` stack (saturating).
//! * `serve_open` — a seeded Poisson schedule at 800 req/s with a 2 s
//!   deadline, one sender and one receiver thread on one connection.
//! * `transfer` — FGSM, PGD-20 and BA-150 crafted on an exact LeNet-5
//!   `ServedModel`, replayed as one batch on Ax-FPM.
//! * `heap_replay` — batches of two perturbed digits on a gate-level HEAP
//!   LeNet-5 `ServedModel`.
//!
//! Every input is a function of `--seed`. Outputs are checked outside the
//! timed latencies: a wrong answer counts as a failed op and makes the run
//! exit non-zero. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 1` the run
//! alternates untraced and traced one-second slices of the workload (their
//! difference is the tracing overhead), then runs the per-layer probes and
//! writes every span to `.perfbench/trace-<workload>-<seed>*.jsonl`.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads Linux process clocks and /proc; it needs 64-bit Linux");

mod cpu;
mod heap;
mod inputs;
mod probes;
mod serve;
mod stats;
mod trace;
mod transfer;

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use da_attacks::ServedModel;
use da_nn::Network;
use stats::{beyond, median, percentile, sorted};
use trace::Trace;

/// Set-ups per run, each up to the first timed op; `setup_s` is their
/// median.
const SETUP_REPS: usize = 5;
/// Length of each untraced/traced slice of a traced run.
const SLICE_S: f64 = 1.0;
/// Distinct digits the serve and HEAP workloads cycle through.
const POOL: usize = 64;
/// Distinct digits the transfer workload cycles through: a run covers
/// the whole pool several times, so its cost does not depend on the seed's
/// order.
const TRANSFER_POOL: usize = 32;

/// Per-op record of one run. A failed op's latency is `INFINITY`, so it
/// sorts above every completed op and misses every latency percentile.
/// Storage is allocated and touched up front, so the benchmark's own
/// memory does not grow with the op count and `peak_rss_mb` tracks the
/// program.
#[derive(Default)]
pub struct Log {
    latency_ms: Vec<f32>,
    /// Process CPU time each op took (closed loops with one op at a time).
    cpu_ms: Vec<f32>,
    /// How late the generator issued each op relative to when it was due.
    late_ms: Vec<f32>,
    /// Whether each op ran in a traced slice.
    traced: Vec<bool>,
    /// Failure reasons and their counts.
    failures: std::collections::BTreeMap<String, usize>,
    /// Ops whose output failed a correctness check.
    wrong: usize,
    window_s: f64,
    traced_window_s: f64,
    /// Process CPU seconds over the untraced and the traced slices.
    cpu_s: f64,
    traced_cpu_s: f64,
    /// The slice being run is traced.
    pub tracing: bool,
    /// Host speed over the run.
    gauge: cpu::Gauge,
}

impl Log {
    pub fn with_capacity(ops: usize) -> Log {
        fn touched<T: Copy>(n: usize, v: T) -> Vec<T> {
            let mut out = vec![v; n];
            out.clear();
            out
        }
        Log {
            latency_ms: touched(ops, 1.0),
            cpu_ms: touched(ops, 1.0),
            late_ms: touched(ops, 1.0),
            traced: touched(ops, true),
            ..Log::default()
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.latency_ms.len()
    }

    /// Open an op; returns its index. It counts as failed until `done`.
    pub fn begin(&mut self) -> usize {
        self.latency_ms.push(f32::INFINITY);
        self.cpu_ms.push(f32::NAN);
        self.late_ms.push(0.0);
        self.traced.push(self.tracing);
        self.len() - 1
    }

    pub fn cpu(&mut self, op: usize, ms: f64) {
        self.cpu_ms[op] = ms as f32;
    }

    /// Sample the host speed gauge when due; loops call this between ops.
    pub fn tick(&mut self) {
        self.gauge.tick();
    }

    pub fn late(&mut self, op: usize, ms: f64) {
        self.late_ms[op] = ms as f32;
    }

    pub fn done(&mut self, op: usize, latency_ms: f64) {
        self.latency_ms[op] = latency_ms as f32;
    }

    pub fn fail(&mut self, op: usize, why: &str) {
        self.latency_ms[op] = f32::INFINITY;
        *self.failures.entry(why.to_string()).or_default() += 1;
    }

    /// Fail an op for a wrong answer.
    pub fn wrong(&mut self, op: usize, why: &str) {
        self.fail(op, why);
        self.wrong += 1;
    }

    /// A wrong answer found after the window, by a check not tied to one op.
    fn mismatch(&mut self, why: &str) {
        self.wrong += 1;
        *self.failures.entry(why.to_string()).or_default() += 1;
    }

    pub fn failed(&self) -> usize {
        self.latency_ms.iter().filter(|v| v.is_infinite()).count()
    }

    fn ops(&self, traced: bool) -> impl Iterator<Item = usize> + '_ {
        (0..self.len()).filter(move |&i| self.traced[i] == traced)
    }

    fn rate(&self, traced: bool) -> f64 {
        let ok = self.ops(traced).filter(|&i| self.latency_ms[i].is_finite()).count();
        let window = if traced { self.traced_window_s } else { self.window_s };
        ok as f64 / window
    }

    /// Process CPU milliseconds per completed op: the median over ops
    /// where ops ran one at a time (each op's own CPU time is known), else
    /// the slices' CPU time over their completed ops.
    fn cpu_ms_per_op(&self, traced: bool) -> Option<f64> {
        let ok: Vec<usize> = self.ops(traced).filter(|&i| self.latency_ms[i].is_finite()).collect();
        let per_op: Vec<f64> =
            ok.iter().map(|&i| f64::from(self.cpu_ms[i])).filter(|v| v.is_finite()).collect();
        let total = if traced { self.traced_cpu_s } else { self.cpu_s };
        median(&per_op).or_else(|| (!ok.is_empty()).then(|| total * 1e3 / ok.len() as f64))
    }

    fn latencies(&self, traced: bool) -> Vec<f64> {
        sorted(self.ops(traced).map(|i| f64::from(self.latency_ms[i])).collect())
    }

    /// Close a slice of `secs` wall and `cpu_secs` process CPU seconds.
    pub fn add_window(&mut self, secs: f64, cpu_secs: f64) {
        if self.tracing {
            self.traced_window_s += secs;
            self.traced_cpu_s += cpu_secs;
        } else {
            self.window_s += secs;
            self.cpu_s += cpu_secs;
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("cannot parse {flag} {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// What a workload hands back for reporting.
struct Outcome {
    log: Log,
    /// Wall and process CPU seconds of each set-up.
    setup_s: Vec<(f64, f64)>,
    peak_rss_mb: f64,
    /// Tail percentile reported on standard error.
    tail_q: f64,
}

/// The slices of the measured window: `(start_s, length_s, traced)`.
fn slices(seconds: f64, traced: bool) -> Vec<(f64, f64, bool)> {
    if !traced {
        return vec![(0.0, seconds, false)];
    }
    let n = ((seconds / SLICE_S).round() as usize).max(2) & !1;
    let len = seconds / n as f64;
    (0..n).map(|k| (k as f64 * len, len, k % 2 == 1)).collect()
}

/// Wall and process CPU clocks started together.
struct Clocks(Instant, Duration);

impl Clocks {
    fn start() -> Clocks {
        Clocks(Instant::now(), cpu::now())
    }

    /// Wall and CPU seconds since `start`.
    fn elapsed(&self) -> (f64, f64) {
        (self.0.elapsed().as_secs_f64(), (cpu::now() - self.1).as_secs_f64())
    }
}

/// Time `SETUP_REPS - 1` more set-ups, each torn down after its clock
/// stops. They run after the measured window, so their transient memory
/// stays out of `peak_rss_mb`.
fn more_setups(
    setup_s: &mut Vec<(f64, f64)>,
    mut once: impl FnMut(Clocks) -> Result<(f64, f64), String>,
) -> Result<(), String> {
    for _ in 1..SETUP_REPS {
        setup_s.push(once(Clocks::start())?);
    }
    Ok(())
}

/// Ops a run can hold without growing its log: an upper bound on each
/// workload's rate, with room for the program to get several times faster.
fn log_capacity(seconds: f64, max_rate: f64) -> usize {
    (seconds * max_rate) as usize + 1024
}

fn run_serve(
    args: &Args,
    dir: &Path,
    trace: Option<&Trace>,
    open: bool,
) -> Result<Outcome, String> {
    let pool = inputs::digit_pool(POOL);
    let order = inputs::order(args.seed, POOL);
    let schedule = inputs::poisson_schedule(args.seed, serve::OPEN_RATE, args.seconds);
    let mut log = Log::with_capacity(log_capacity(args.seconds, 40_000.0));
    log.gauge.sample();
    let build = || -> Result<serve::Stack, String> {
        let mut stack = serve::start(dir)?;
        serve::warm_up(&mut stack.client, &pool, 200)?;
        Ok(stack)
    };
    let t = Clocks::start();
    let mut stack = build()?;
    let mut setup_s = vec![t.elapsed()];
    let reference = serve::reference(&stack.plan, &pool);
    for (start, len, traced) in slices(args.seconds, trace.is_some()) {
        log.tracing = traced;
        let t = if traced { trace } else { None };
        if open {
            let seg: Vec<f64> = schedule
                .iter()
                .filter(|&&at| at >= start && at < start + len)
                .map(|at| at - start)
                .collect();
            serve::open(&mut stack.client, &pool, &reference, &order, &seg, t, &mut log)?;
        } else {
            let dur = Duration::from_secs_f64(len);
            serve::closed(&mut stack.client, &pool, &reference, &order, dur, t, &mut log)?;
        }
    }
    let peak_rss_mb = peak_rss_mb()?;
    stack.stop()?;
    more_setups(&mut setup_s, |t| {
        let stack = build()?;
        let elapsed = t.elapsed();
        stack.stop().map(|_| elapsed)
    })?;
    std::fs::remove_file(serve::snapshot_path(dir)).map_err(|e| format!("remove snapshot: {e}"))?;
    Ok(Outcome { log, setup_s, peak_rss_mb, tail_q: 99.0 })
}

fn run_transfer(args: &Args, trace: Option<&Trace>) -> Result<Outcome, String> {
    let pool = inputs::digit_pool(TRANSFER_POOL);
    let order = inputs::order(args.seed, TRANSFER_POOL);
    let attacks = transfer::Attacks::new();
    let mut log = Log::with_capacity(log_capacity(args.seconds, 1_000.0));
    log.gauge.sample();
    let warm = |source: &ServedModel<'_>, target: &ServedModel<'_>| {
        attacks.op(&transfer::Observed::new(source, None), target, &pool[order[0]], None, 0);
    };
    let t = Clocks::start();
    let (source, target) = transfer::networks();
    let (source_served, target_served) = (served(&source)?, served(&target)?);
    warm(&source_served, &target_served);
    let mut setup_s = vec![t.elapsed()];
    let mut kept = Vec::new();
    for (_, len, traced) in slices(args.seconds, trace.is_some()) {
        log.tracing = traced;
        let t = if traced { trace } else { None };
        let observed = transfer::Observed::new(&source_served, t);
        let dur = Duration::from_secs_f64(len);
        let (pool, order) = (&pool[..], &order[..]);
        transfer::run(
            &attacks,
            &observed,
            &target_served,
            pool,
            order,
            dur,
            t,
            &mut log,
            &mut kept,
        );
    }
    let peak_rss_mb = peak_rss_mb()?;
    let disagree =
        transfer::check_fooling(&attacks, &kept, &pool, &source_served, (&source, &target));
    for _ in 0..disagree {
        log.mismatch("fooling counts differ from the unserved networks");
    }
    drop((source_served, target_served));
    // The clock stops before the models are torn down: `t.elapsed()` is
    // evaluated before the closure's locals drop.
    more_setups(&mut setup_s, |t| {
        let (source, target) = transfer::networks();
        let (source_served, target_served) = (served(&source)?, served(&target)?);
        warm(&source_served, &target_served);
        Ok(t.elapsed())
    })?;
    Ok(Outcome { log, setup_s, peak_rss_mb, tail_q: 90.0 })
}

fn run_heap(args: &Args, trace: Option<&Trace>) -> Result<Outcome, String> {
    let pool = inputs::sign_perturbed(args.seed, &inputs::digit_pool(POOL), heap::EPS);
    let order = inputs::order(args.seed, POOL);
    let mut log = Log::with_capacity(log_capacity(args.seconds, 1_000.0));
    log.gauge.sample();
    // One untimed op per set-up: worker wake-up and the gate-level memo
    // warm-up.
    let warm = |model: &ServedModel<'_>| {
        let (one, mut log, mut seen) =
            (Duration::from_nanos(1), Log::with_capacity(1), HashMap::new());
        heap::run(model, &pool, &order, one, None, &mut log, &mut seen);
    };
    let t = Clocks::start();
    let net = heap::network();
    let model = served(&net)?;
    warm(&model);
    let mut setup_s = vec![t.elapsed()];
    let mut seen = HashMap::new();
    for (_, len, traced) in slices(args.seconds, trace.is_some()) {
        log.tracing = traced;
        let t = if traced { trace } else { None };
        heap::run(&model, &pool, &order, Duration::from_secs_f64(len), t, &mut log, &mut seen);
    }
    let peak_rss_mb = peak_rss_mb()?;
    if !heap::check_forward(&seen, &pool, order[0], &net) {
        log.mismatch("served HEAP logits differ from forward(Mode::Eval)");
    }
    drop(model);
    more_setups(&mut setup_s, |t| {
        let net = heap::network();
        let model = served(&net)?;
        warm(&model);
        Ok(t.elapsed())
    })?;
    Ok(Outcome { log, setup_s, peak_rss_mb, tail_q: 90.0 })
}

/// Serve `net` through a `ServedModel` at its crafting defaults.
fn served(net: &Network) -> Result<ServedModel<'_>, String> {
    ServedModel::new(net).ok_or_else(|| format!("{} has no compiled form", net.name()))
}

/// VmHWM of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The scored metrics are CPU figures scaled to the reference host (see
/// [`cpu::Gauge`]) plus memory. Wall-clock rate, median and tail latency go
/// to standard error only: on a shared 2-vCPU virtual machine they drifted
/// between runs by more than any usable bound (see `perfbench/LAYERS.md`).
fn end_to_end(args: &Args, o: &Outcome) -> Result<Vec<Metric>, String> {
    let lat = o.log.latencies(false);
    let p50 = percentile(&lat, 50.0).ok_or("no ops ran")?;
    let tail = percentile(&lat, o.tail_q).ok_or("no ops ran")?;
    let wall_setup =
        median(&o.setup_s.iter().map(|s| s.0).collect::<Vec<_>>()).ok_or("no set-up")?;
    let cpu_setup =
        median(&o.setup_s.iter().map(|s| s.1).collect::<Vec<_>>()).ok_or("no set-up")?;
    let cpu_op = o.log.cpu_ms_per_op(false).ok_or("no op completed")?;
    let gauge = o.log.gauge.median_ms().ok_or("gauge never sampled")?;
    let scale = o.log.gauge.scale().ok_or("gauge never sampled")?;
    eprintln!(
        "{}: {} ops; wall clock: {:.4} ops/s, p50 {p50:.4} ms, p{} {tail:.4} ms \
         ({} samples beyond it), set-up {wall_setup:.6} s; process CPU: {cpu_op:.4} ms/op, \
         set-up {cpu_setup:.6} s; gauge {gauge:.4} ms",
        args.workload,
        lat.len(),
        o.log.rate(false),
        o.tail_q,
        beyond(lat.len(), o.tail_q)
    );
    Ok(vec![
        Metric { name: "setup_s", value: cpu_setup * scale, unit: "s" },
        Metric { name: "ref_cpu_ms_per_op", value: cpu_op * scale, unit: "ms" },
        Metric { name: "peak_rss_mb", value: o.peak_rss_mb, unit: "MiB" },
    ])
}

fn per_layer(args: &Args, o: &Outcome, trace: &Trace, dir: &Path) -> Result<Vec<Metric>, String> {
    let cpu = |t| o.log.cpu_ms_per_op(t).ok_or("a slice completed no op");
    let (untraced, traced) = (cpu(false)?, cpu(true)?);
    let overhead = (traced - untraced) / untraced * 100.0;
    let late = percentile(&sorted(o.log.late_ms.iter().map(|&v| f64::from(v)).collect()), 99.0)
        .ok_or("no ops")?;
    let (mut metrics, probe_trace) = probes::run(args.seed, dir)?;
    metrics.push(Metric { name: "loadgen.late_p99_ms", value: late, unit: "ms" });
    metrics.push(Metric { name: "tracing.overhead_pct", value: overhead, unit: "%" });
    let stem = format!("trace-{}-{}", args.workload, args.seed);
    trace
        .write_jsonl(&dir.join(format!("{stem}.jsonl")))
        .map_err(|e| format!("write trace: {e}"))?;
    probe_trace
        .write_jsonl(&dir.join(format!("{stem}-probes.jsonl")))
        .map_err(|e| format!("write trace: {e}"))?;
    summarize(trace);
    Ok(metrics)
}

/// Per span name: count, median duration and median self time.
fn summarize(trace: &Trace) {
    let spans = trace.spans();
    let kids = trace::children_by_parent(&spans);
    let mut names: Vec<&str> = spans.iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    for name in names {
        let of: Vec<&trace::Span> = spans.iter().filter(|s| s.name == name).collect();
        let dur: Vec<f64> = of.iter().map(|s| s.duration_ns() as f64 / 1e6).collect();
        let own: Vec<f64> = of
            .iter()
            .map(|s| {
                trace::self_time_ns(s, kids.get(&s.id).map(Vec::as_slice).unwrap_or(&[])) as f64
                    / 1e6
            })
            .collect();
        eprintln!(
            "span {name:<28} n={:<6} p50={:.4} ms self_p50={:.4} ms",
            of.len(),
            median(&dur).unwrap_or(0.0),
            median(&own).unwrap_or(0.0)
        );
    }
}

fn json(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut body = Vec::new();
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!("{} is not finite ({})", m.name, m.value));
        }
        body.push(format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

fn run(args: &Args) -> Result<(bool, String), String> {
    let dir = PathBuf::from(".perfbench");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let trace = args.trace.then(Trace::default);
    let t = trace.as_ref();
    let outcome = match args.workload.as_str() {
        "serve_closed" => run_serve(args, &dir, t, false)?,
        "serve_open" => run_serve(args, &dir, t, true)?,
        "transfer" => run_transfer(args, t)?,
        "heap_replay" => run_heap(args, t)?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    let failed = outcome.log.failed();
    for (why, n) in &outcome.log.failures {
        eprintln!("failed ops: {n} × {why}");
    }
    let metrics = match &trace {
        None => end_to_end(args, &outcome)?,
        Some(tr) => per_layer(args, &outcome, tr, &dir)?,
    };
    for m in &metrics {
        eprintln!("{:<28} {:>14.4} {}", m.name, m.value, m.unit);
    }
    let correct = outcome.log.wrong == 0;
    Ok((correct, json(correct, outcome.log.len(), failed, &metrics)?))
}

fn main() {
    let result = parse_args().and_then(|args| run(&args));
    match result {
        Ok((correct, line)) => {
            println!("{line}");
            if !correct {
                eprintln!("perfbench: outputs failed the correctness gate");
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
