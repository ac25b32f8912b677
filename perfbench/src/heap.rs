//! The `heap_replay` workload: the Table 10 HEAP column. Each op serves a
//! batch of two FGSM-shaped perturbed digits through a gate-level HEAP
//! LeNet-5 `ServedModel` (f32 plan, `da_arith`'s memoized gate-level
//! kernel).

use std::collections::HashMap;
use std::time::{Duration, Instant};

use da_arith::MultiplierKind;
use da_attacks::ServedModel;
use da_nn::{Mode, Network};
use da_tensor::Tensor;
use rand::SeedableRng;

use crate::serve::same_bits;
use crate::trace::{timed, Trace, ROOT};
use crate::Log;

/// Items per op.
const BATCH: usize = 2;
/// Perturbation size, the MNIST FGSM budget.
pub const EPS: f32 = 0.25;

pub fn network() -> Network {
    let mut net = da_nn::zoo::lenet5(10, &mut rand::rngs::StdRng::seed_from_u64(11));
    net.set_multiplier(Some(MultiplierKind::Heap.build()));
    net
}

fn pair(pool: &[Tensor], order: &[usize], op: usize) -> (Vec<usize>, Tensor) {
    let idx: Vec<usize> = (0..BATCH).map(|j| order[(op * BATCH + j) % order.len()]).collect();
    let items: Vec<Tensor> = idx.iter().map(|&i| pool[i].clone()).collect();
    (idx, Tensor::stack(&items))
}

/// Closed loop for `dur`. Each served row must equal the first row served
/// for the same item (`seen`), checked as the op completes.
pub fn run(
    served: &ServedModel<'_>,
    pool: &[Tensor],
    order: &[usize],
    dur: Duration,
    trace: Option<&Trace>,
    log: &mut Log,
    seen: &mut HashMap<usize, Vec<f32>>,
) {
    let (t0, cpu0) = (Instant::now(), crate::cpu::now());
    let mut due = t0;
    while due - t0 < dur {
        let op = log.begin();
        let (idx, batch) = pair(pool, order, op);
        let (start, cpu_start) = (Instant::now(), crate::cpu::now());
        log.late(op, (start - due).as_secs_f64() * 1e3);
        let out = timed(trace, "op", ROOT, op as u64, |id| {
            timed(trace, "serve.heap_predict_batch", id, op as u64, |_| {
                served.server().predict_batch(&batch)
            })
        });
        due = Instant::now();
        log.cpu(op, (crate::cpu::now() - cpu_start).as_secs_f64() * 1e3);
        let latency_ms = (due - start).as_secs_f64() * 1e3;
        match out {
            Err(e) => log.fail(op, &e.to_string()),
            Ok(logits) => {
                let classes = logits.len() / BATCH;
                let consistent = idx
                    .iter()
                    .zip(logits.data().chunks(classes))
                    .all(|(&i, row)| same_bits(seen.entry(i).or_insert_with(|| row.to_vec()), row));
                if consistent {
                    log.done(op, latency_ms);
                } else {
                    log.wrong(op, "served HEAP logits differ between identical items");
                }
            }
        }
        log.tick();
    }
    log.add_window((due - t0).as_secs_f64(), (crate::cpu::now() - cpu0).as_secs_f64());
}

/// The served logits of one item equal the per-layer
/// `Network::forward(Mode::Eval)` bit for bit.
pub fn check_forward(
    seen: &HashMap<usize, Vec<f32>>,
    pool: &[Tensor],
    item: usize,
    net: &Network,
) -> bool {
    let want = net.forward(&Tensor::stack(std::slice::from_ref(&pool[item])), Mode::Eval).0;
    seen.get(&item).is_some_and(|got| same_bits(got, want.data()))
}
