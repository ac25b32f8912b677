//! The `transfer` workload: the paper's Table 2 protocol on one thread.
//! Each op crafts FGSM, PGD-20 and BA-150 adversarials for one sample on an
//! exact LeNet-5 served through a `ServedModel`, then replays the three as
//! one batch on the same weights under Ax-FPM.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use da_arith::MultiplierKind;
use da_attacks::decision::BoundaryAttack;
use da_attacks::gradient::{Fgsm, Pgd};
use da_attacks::{Attack, TargetModel};
use da_nn::Network;
use da_tensor::Tensor;
use rand::SeedableRng;

use crate::trace::{timed, Trace, ROOT};
use crate::Log;

/// The paper's MNIST suite (`da_core::suites`): FGSM/PGD L∞ budget.
const EPS: f32 = 0.25;
const PGD_ALPHA: f32 = 0.04;
const PGD_STEPS: usize = 20;
const BA_STEPS: usize = 150;
const ATTACK_SEED: u64 = 17;
/// Samples whose fooling counts are re-derived on the unserved networks.
const GATE_SAMPLES: usize = 4;

/// LeNet-5 with fixed weights: native f32 as the source, Ax-FPM as the
/// target. Weights come from a fixed seed, not the workload seed: the
/// model is the program, the digits are the input.
pub fn networks() -> (Network, Network) {
    let source = da_nn::zoo::lenet5(10, &mut rand::rngs::StdRng::seed_from_u64(11));
    let mut target = da_nn::zoo::lenet5(10, &mut rand::rngs::StdRng::seed_from_u64(11));
    target.set_multiplier(Some(MultiplierKind::AxFpm.build()));
    (source, target)
}

/// A [`TargetModel`] wrapper that counts the attack's score queries and,
/// when tracing, records each query and gradient as a child span of the
/// attack that issued it.
pub struct Observed<'a> {
    inner: &'a dyn TargetModel,
    trace: Option<&'a Trace>,
    parent: AtomicU64,
    op: AtomicU64,
    queries: AtomicU64,
}

impl<'a> Observed<'a> {
    pub fn new(inner: &'a dyn TargetModel, trace: Option<&'a Trace>) -> Self {
        Observed {
            inner,
            trace,
            parent: AtomicU64::new(ROOT),
            op: AtomicU64::new(0),
            queries: AtomicU64::new(0),
        }
    }

    pub fn queries(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    fn under(&self, parent: u64, op: u64) {
        self.parent.store(parent, Ordering::Relaxed);
        self.op.store(op, Ordering::Relaxed);
    }

    fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let (parent, op) = (self.parent.load(Ordering::Relaxed), self.op.load(Ordering::Relaxed));
        timed(self.trace, name, parent, op, |_| f())
    }
}

impl TargetModel for Observed<'_> {
    fn num_classes(&self) -> usize {
        self.inner.num_classes()
    }

    fn logits(&self, x: &Tensor) -> Vec<f32> {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.span("serve.query", || self.inner.logits(x))
    }

    fn loss_gradient(&self, x: &Tensor, label: usize) -> (f32, Tensor) {
        self.span("nn.gradient", || self.inner.loss_gradient(x, label))
    }

    fn class_gradient(&self, x: &Tensor, class: usize) -> Tensor {
        self.span("nn.gradient", || self.inner.class_gradient(x, class))
    }
}

/// What one op produced, kept for the correctness gate.
pub struct Crafted {
    pub label: usize,
    /// FGSM, PGD, BA.
    pub adversarials: [Tensor; 3],
    pub target_preds: Vec<usize>,
    pub ba_queries: u64,
}

pub struct Attacks {
    fgsm: Fgsm,
    pgd: Pgd,
    ba: BoundaryAttack,
}

impl Attacks {
    /// The attacks' own random streams (PGD's start, BA's walk) are fixed
    /// like the model: the workload seed only orders the samples.
    pub fn new() -> Self {
        Attacks {
            fgsm: Fgsm::new(EPS),
            pgd: Pgd::new(EPS, PGD_ALPHA, PGD_STEPS, ATTACK_SEED),
            ba: BoundaryAttack::new(BA_STEPS, ATTACK_SEED),
        }
    }

    /// Craft on `source`, replay on `target`; `label` is the source's own
    /// prediction so no sample is filtered out.
    pub fn op(
        &self,
        source: &Observed<'_>,
        target: &dyn TargetModel,
        x: &Tensor,
        trace: Option<&Trace>,
        op: u64,
    ) -> Crafted {
        timed(trace, "op", ROOT, op, |id| {
            source.under(id, op);
            let label = source.predict(x);
            let attack = |name: &'static str, a: &dyn Attack| {
                timed(trace, name, id, op, |aid| {
                    source.under(aid, op);
                    let q = source.queries();
                    let adv = a.run(source, x, label);
                    source.under(id, op);
                    (adv, source.queries() - q)
                })
            };
            let (fgsm, _) = attack("attacks.fgsm", &self.fgsm);
            let (pgd, _) = attack("attacks.pgd", &self.pgd);
            let (ba, ba_queries) = attack("attacks.ba", &self.ba);
            let batch = Tensor::stack(&[fgsm.clone(), pgd.clone(), ba.clone()]);
            let target_preds =
                timed(trace, "transfer.replay", id, op, |_| target.predict_batch(&batch));
            Crafted { label, adversarials: [fgsm, pgd, ba], target_preds, ba_queries }
        })
    }
}

/// Closed loop over `order` for `dur`. Each op's adversarials are checked
/// as soon as it completes; the first [`GATE_SAMPLES`] ops are kept for
/// [`check_fooling`].
pub fn run(
    attacks: &Attacks,
    source: &Observed<'_>,
    target: &dyn TargetModel,
    pool: &[Tensor],
    order: &[usize],
    dur: std::time::Duration,
    trace: Option<&Trace>,
    log: &mut Log,
    kept: &mut Vec<(usize, Crafted)>,
) {
    let (t0, cpu0) = (Instant::now(), crate::cpu::now());
    let mut due = t0;
    while due - t0 < dur {
        let op = log.begin();
        let input = order[op % order.len()];
        let (start, cpu_start) = (Instant::now(), crate::cpu::now());
        log.late(op, (start - due).as_secs_f64() * 1e3);
        let out = attacks.op(source, target, &pool[input], trace, op as u64);
        due = Instant::now();
        log.cpu(op, (crate::cpu::now() - cpu_start).as_secs_f64() * 1e3);
        let latency_ms = (due - start).as_secs_f64() * 1e3;
        if in_bounds(&out, &pool[input]) {
            log.done(op, latency_ms);
        } else {
            log.wrong(op, "adversarial outside [0, 1] or the eps ball");
        }
        if kept.len() < GATE_SAMPLES {
            kept.push((input, out));
        }
        log.tick();
    }
    log.add_window((due - t0).as_secs_f64(), (crate::cpu::now() - cpu0).as_secs_f64());
}

/// Every adversarial in `[0, 1]`; FGSM and PGD inside the `EPS` ball.
fn in_bounds(c: &Crafted, x: &Tensor) -> bool {
    let in_range = c.adversarials.iter().all(|a| a.data().iter().all(|v| (0.0..=1.0).contains(v)));
    let in_ball = c.adversarials[..2]
        .iter()
        .all(|a| a.data().iter().zip(x.data()).all(|(v, o)| (v - o).abs() <= EPS + 1e-6));
    in_range && in_ball
}

/// Source and target fooling counts of the kept ops must equal those from
/// crafting the same samples on the unserved networks. Returns the number
/// of ops that disagree.
pub fn check_fooling(
    attacks: &Attacks,
    kept: &[(usize, Crafted)],
    pool: &[Tensor],
    source_served: &dyn TargetModel,
    nets: (&Network, &Network),
) -> usize {
    let (source, target) = nets;
    let fooled = |m: &dyn TargetModel, advs: &[Tensor], label: usize| {
        advs.iter().filter(|a| m.predict(a) != label).count()
    };
    let mut wrong = 0;
    for (input, c) in kept {
        let x = &pool[*input];
        let served = (
            fooled(source_served, &c.adversarials, c.label),
            c.target_preds.iter().filter(|&&p| p != c.label).count(),
        );
        let label = TargetModel::predict(source, x);
        let advs = [
            attacks.fgsm.run(source, x, label),
            attacks.pgd.run(source, x, label),
            attacks.ba.run(source, x, label),
        ];
        let direct = (fooled(source, &advs, label), fooled(target, &advs, label));
        if served != direct || label != c.label {
            eprintln!(
                "fooling counts served {served:?} vs unserved {direct:?} (labels {} vs {label})",
                c.label
            );
            wrong += 1;
        }
    }
    wrong
}
