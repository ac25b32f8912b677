//! The `serve_closed` and `serve_open` workloads: the `da-serve
//! --demo-snapshot` plan served in-process behind the TCP front end at the
//! `ServeConfig`/`NetConfig` defaults `da-serve` uses, driven over one
//! loopback connection.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use da_arith::MultiplierKind;
use da_nn::engine::InferencePlan;
use da_nn::net::frame::{self, Message};
use da_nn::net::{Client, NetConfig, NetHandle, NetServer, NetStats};
use da_nn::serve::{BatchServer, ServeConfig};
use da_tensor::Tensor;
use rand::SeedableRng;

use crate::trace::{Trace, ROOT};
use crate::Log;

/// Requests one closed-loop client keeps in flight.
const WINDOW: usize = 16;
/// Offered load of the open loop, about 15% of the int8 engine's capacity
/// on a 2-vCPU host: batches stay small, so per-request cost dominates.
pub const OPEN_RATE: f64 = 800.0;
/// Per-request deadline of the open loop; a reply later than this after
/// its scheduled send counts as failed. It sits far above any latency the
/// offered load produces, so only a hang fails an op: with a tight
/// deadline, a host stall of a few hundred milliseconds failed a
/// different number of ops in every run.
pub const DEADLINE: Duration = Duration::from_secs(2);
/// Open-loop request ids live above this, clear of the client's own.
const OPEN_ID_BASE: u64 = 1 << 40;

/// The `da-serve --demo-snapshot` artifact: LeNet-5 on the paper's Ax-FPM
/// multiplier, int8-quantized on 32 synthetic digits.
pub fn demo_plan() -> InferencePlan {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let mut net = da_nn::zoo::lenet5(10, &mut rng);
    net.set_multiplier(Some(MultiplierKind::AxFpm.build()));
    let calibration = da_datasets::digits::synth_digits(32, 7).images;
    InferencePlan::compile_quantized(&net, net.multiplier().cloned(), &calibration)
        .expect("LeNet-5 has a quantized form")
}

/// A running server: mapped plan, batch server, reactor thread, and one
/// connected client.
pub struct Stack {
    pub plan: Arc<InferencePlan>,
    pub client: Client,
    handle: NetHandle,
    join: std::thread::JoinHandle<std::io::Result<NetStats>>,
}

/// Compile, save and map the demo plan, then bind the server on an
/// ephemeral loopback port and connect: the serve set-up, with
/// [`warm_up`].
pub fn start(dir: &Path) -> Result<Stack, String> {
    let path = snapshot_path(dir);
    demo_plan().save(&path).map_err(|e| format!("save snapshot: {e}"))?;
    let plan = Arc::new(InferencePlan::load(&path).map_err(|e| format!("map snapshot: {e}"))?);
    let server = BatchServer::from_plan(plan.clone(), ServeConfig::default());
    let front = NetServer::bind(server, "127.0.0.1:0", NetConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    let (addr, handle, join) = front.spawn();
    let client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    Ok(Stack { plan, client, handle, join })
}

pub fn snapshot_path(dir: &Path) -> PathBuf {
    dir.join(format!("demo-{}.daplan", std::process::id()))
}

impl Stack {
    /// Drain the server and join its reactor.
    pub fn stop(self) -> Result<NetStats, String> {
        drop(self.client);
        self.handle.shutdown();
        self.join
            .join()
            .map_err(|_| "reactor thread panicked".to_string())?
            .map_err(|e| format!("reactor: {e}"))
    }
}

/// Serial reference logits for every pool item: batch-1
/// `InferencePlan::predict_batch` on the mapped snapshot.
pub fn reference(plan: &InferencePlan, items: &[Tensor]) -> Vec<Vec<f32>> {
    items
        .iter()
        .map(|x| plan.predict_batch(&Tensor::stack(std::slice::from_ref(x))).into_vec())
        .collect()
}

/// Round trips before the window, so the server's workers, allocator and
/// adaptive flush deadline settle first.
pub fn warm_up(client: &mut Client, items: &[Tensor], n: usize) -> Result<(), String> {
    for i in 0..n {
        let x = &items[i % items.len()];
        match client.infer(x.shape(), x.data()) {
            Ok(Ok(_)) => {}
            other => return Err(format!("warm-up request failed: {other:?}")),
        }
    }
    Ok(())
}

/// Closed loop: one thread keeps [`WINDOW`] requests in flight on one
/// connection for `dur`, then drains. An op is due when the reply that
/// freed its slot arrived. Each reply is checked against `reference` as it
/// arrives, after its latency is taken.
pub fn closed(
    client: &mut Client,
    items: &[Tensor],
    reference: &[Vec<f32>],
    order: &[usize],
    dur: Duration,
    trace: Option<&Trace>,
    log: &mut Log,
) -> Result<(), String> {
    let shape = items[0].shape().to_vec();
    // req id -> (op index, input, due, sent)
    let mut inflight: HashMap<u64, (usize, usize, Instant, Instant)> =
        HashMap::with_capacity(2 * WINDOW);
    let (t0, cpu0) = (Instant::now(), crate::cpu::now());
    let end = t0 + dur;
    let send = |client: &mut Client,
                log: &mut Log,
                inflight: &mut HashMap<u64, (usize, usize, Instant, Instant)>,
                due: Instant|
     -> Result<(), String> {
        let op = log.begin();
        let input = order[op % order.len()];
        let sent = Instant::now();
        let id =
            client.send_infer(&shape, items[input].data()).map_err(|e| format!("send: {e}"))?;
        log.late(op, ms(sent - due));
        inflight.insert(id, (op, input, due, sent));
        Ok(())
    };
    for _ in 0..WINDOW {
        send(client, log, &mut inflight, t0)?;
    }
    let mut last = t0;
    while !inflight.is_empty() {
        let reply = client.recv_reply().map_err(|e| format!("recv: {e}"))?;
        let now = Instant::now();
        last = now;
        let (id, result) = split_reply(reply)?;
        let (op, input, due, sent) =
            inflight.remove(&id).ok_or(format!("reply to unknown request {id}"))?;
        verdict(result, &reference[input]).apply(log, op, ms(now - sent));
        record_op(trace, id, due, sent, now);
        log.tick();
        if now < end {
            send(client, log, &mut inflight, now)?;
        }
    }
    log.add_window((last - t0).as_secs_f64(), (crate::cpu::now() - cpu0).as_secs_f64());
    Ok(())
}

/// Open loop: a sender thread follows the Poisson `schedule` (offsets in
/// seconds), each request carrying [`DEADLINE`]; this thread receives and
/// checks each reply against `reference`. Latency runs from the scheduled
/// send, so a stalled sender shows; a reply later than the deadline fails.
pub fn open(
    client: &mut Client,
    items: &[Tensor],
    reference: &[Vec<f32>],
    order: &[usize],
    schedule: &[f64],
    trace: Option<&Trace>,
    log: &mut Log,
) -> Result<(), String> {
    let first = log.len();
    let inputs: Vec<usize> =
        (0..schedule.len()).map(|i| order[(first + i) % order.len()]).collect();
    let mut writer = client.stream().try_clone().map_err(|e| format!("clone stream: {e}"))?;
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| format!("read timeout: {e}"))?;
    let base = OPEN_ID_BASE + first as u64;
    let cpu0 = crate::cpu::now();
    let t0 = Instant::now() + Duration::from_millis(2);
    let due = |i: usize| t0 + Duration::from_secs_f64(schedule[i]);
    let mut arrived: Vec<Option<(Instant, Verdict)>> = vec![None; schedule.len()];
    let sent = std::thread::scope(|s| -> Result<Vec<Instant>, String> {
        let sender = s.spawn(|| -> Result<Vec<Instant>, String> {
            let mut sent = Vec::with_capacity(schedule.len());
            for (i, &input) in inputs.iter().enumerate() {
                let at = due(i);
                let now = Instant::now();
                if at > now {
                    std::thread::sleep(at - now);
                }
                let x = &items[input];
                let frame = frame::encode(&Message::Infer {
                    req_id: base + i as u64,
                    deadline_us: DEADLINE.as_micros() as u32,
                    shape: x.shape().to_vec(),
                    data: x.data().to_vec(),
                });
                sent.push(Instant::now());
                writer.write_all(&frame).map_err(|e| format!("send: {e}"))?;
            }
            Ok(sent)
        });
        let mut received = Ok(());
        for _ in 0..schedule.len() {
            match client.recv_reply() {
                Ok(reply) => {
                    let now = Instant::now();
                    let (id, result) = split_reply(reply)?;
                    let i =
                        id.checked_sub(base).map(|i| i as usize).filter(|&i| i < schedule.len());
                    let i = i.ok_or(format!("reply to unknown request {id}"))?;
                    arrived[i] = Some((now, verdict(result, &reference[inputs[i]])));
                    log.tick();
                }
                Err(e) => {
                    received = Err(format!("recv: {e}"));
                    break;
                }
            }
        }
        let sent = sender.join().map_err(|_| "sender thread panicked".to_string())??;
        received.map(|()| sent)
    })?;
    client.set_read_timeout(None).map_err(|e| format!("read timeout: {e}"))?;
    let mut last = t0;
    for (i, slot) in arrived.into_iter().enumerate() {
        let op = log.begin();
        log.late(op, ms(sent[i].saturating_duration_since(due(i))));
        let (at, verdict) = slot.ok_or("missing reply")?;
        last = last.max(at);
        let latency = at.saturating_duration_since(due(i));
        if latency > DEADLINE && verdict == Verdict::Ok {
            Verdict::Failed("late".into()).apply(log, op, 0.0);
        } else {
            verdict.apply(log, op, ms(latency));
        }
        record_op(trace, base + i as u64, due(i), sent[i], at);
    }
    log.add_window((last - t0).as_secs_f64(), (crate::cpu::now() - cpu0).as_secs_f64());
    Ok(())
}

/// How one reply turned out.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Verdict {
    Ok,
    Wrong,
    Failed(String),
}

impl Verdict {
    fn apply(self, log: &mut Log, op: usize, latency_ms: f64) {
        match self {
            Verdict::Ok => log.done(op, latency_ms),
            Verdict::Wrong => log.wrong(op, "logits differ from serial predict_batch"),
            Verdict::Failed(why) => log.fail(op, &why),
        }
    }
}

fn verdict(result: Result<Vec<f32>, String>, want: &[f32]) -> Verdict {
    match result {
        Ok(got) if same_bits(&got, want) => Verdict::Ok,
        Ok(_) => Verdict::Wrong,
        Err(code) => Verdict::Failed(code),
    }
}

fn split_reply(reply: Message) -> Result<(u64, Result<Vec<f32>, String>), String> {
    match reply {
        Message::InferOk { req_id, data, .. } => Ok((req_id, Ok(data))),
        Message::InferErr { req_id, code, .. } => Ok((req_id, Err(format!("{code:?}")))),
        other => Err(format!("unexpected reply {other:?}")),
    }
}

/// An op span from when the request was due to its reply, with the round
/// trip from the actual send as its child; the op's self time is how late
/// the generator ran.
fn record_op(trace: Option<&Trace>, op: u64, due: Instant, sent: Instant, done: Instant) {
    if let Some(t) = trace {
        let id = t.reserve();
        t.record(id, ROOT, op, "op", due, done);
        t.record(t.reserve(), id, op, "net.round_trip", sent, done);
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Bitwise equality of two logit rows.
pub fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
