//! Serving-path targets: a [`TargetModel`] whose inference rides a
//! cross-request batch server.
//!
//! The paper's threat model attacks a *deployed* classifier, and the
//! deployment path here is `da_nn::serve`: single-sample queries are
//! coalesced into micro-batches and executed on one shared compiled plan.
//! [`ServedModel`] routes every decision/score query of an
//! attack — `logits`, `predict`, `probabilities`, and the harness's batched
//! `predict_batch` clean filter and replay — through a
//! [`BatchServer`], while gradient queries (white-box access) delegate to
//! the wrapped [`Network`]: its cached compiled plan's gradient sweep
//! ([`Network::input_gradient`]), or the per-layer backward pass for stacks
//! whose plan has no gradient form (batch norm) — bit-identical either way.
//!
//! Because batching is bit-identical to serial inference (the serve
//! module's core contract), attack trajectories and transfer rates are
//! unchanged by the routing — only the serving machinery underneath moves.

use da_nn::loss::argmax_logits;
use da_nn::serve::{BatchServer, ServeConfig};
use da_nn::Network;
use da_tensor::Tensor;

use crate::traits::TargetModel;

/// A [`Network`] served through a [`BatchServer`] for all non-gradient
/// queries; gradients come from the wrapped network (its plan's gradient
/// sweep, with the per-layer fallback of [`Network::input_gradient`]).
///
/// # Examples
///
/// ```
/// use da_attacks::served::ServedModel;
/// use da_attacks::TargetModel;
/// use da_nn::layers::{Dense, Flatten};
/// use da_nn::Network;
/// use da_tensor::Tensor;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let net = Network::new("t").push(Flatten).push(Dense::new(9, 4, &mut rng));
/// let served = ServedModel::new(&net).expect("dense stacks compile");
/// let x = Tensor::zeros(&[1, 3, 3]);
/// assert_eq!(served.predict(&x), TargetModel::predict(&net, &x));
/// ```
pub struct ServedModel<'a> {
    network: &'a Network,
    server: BatchServer,
}

impl<'a> ServedModel<'a> {
    /// Serve `network` with a crafting-friendly configuration: zero flush
    /// deadline (a lone attacker's request never idles waiting for
    /// batchmates; batches still form whenever submissions outpace workers)
    /// and a queue deep enough for batched replays.
    ///
    /// `None` when the layer stack has no compiled form — callers fall back
    /// to attacking the [`Network`] directly.
    pub fn new(network: &'a Network) -> Option<ServedModel<'a>> {
        // Capped worker count: crafting is a sequential query loop with at
        // most one batched replay in flight, so workers beyond a few only
        // cost threads and workspaces — evaluation harnesses often hold
        // several ServedModels at once.
        let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(4);
        let config = ServeConfig {
            workers,
            max_batch: 32,
            flush_deadline: std::time::Duration::ZERO,
            queue_capacity: 256,
            ..ServeConfig::default()
        };
        let server = BatchServer::from_plan(network.plan()?, config);
        Some(ServedModel { network, server })
    }

    /// The batch server behind the model (serving stats, batched queries).
    pub fn server(&self) -> &BatchServer {
        &self.server
    }

    /// The wrapped network (gradient path).
    pub fn network(&self) -> &Network {
        self.network
    }
}

impl TargetModel for ServedModel<'_> {
    fn num_classes(&self) -> usize {
        self.network.num_classes()
    }

    fn logits(&self, x: &Tensor) -> Vec<f32> {
        self.server.logits(x).expect("batch server serving").into_vec()
    }

    fn loss_gradient(&self, x: &Tensor, label: usize) -> (f32, Tensor) {
        // Explicit trait dispatch: `Network` also has an inherent (batched)
        // `class_gradient`, and these take per-image inputs.
        TargetModel::loss_gradient(self.network, x, label)
    }

    fn class_gradient(&self, x: &Tensor, class: usize) -> Tensor {
        TargetModel::class_gradient(self.network, x, class)
    }

    fn predict_batch(&self, images: &Tensor) -> Vec<usize> {
        // `BatchServer::predict_batch` owns the submit-all-then-wait window
        // that lets the queue coalesce the items into micro-batches. The
        // harness owns its private server for the model's whole lifetime,
        // so a serve failure here is a bug, not an operational condition.
        let logits = self.server.predict_batch(images).expect("private batch server serving");
        let classes: usize = logits.shape()[1..].iter().product();
        logits.data().chunks(classes).map(argmax_logits).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use da_arith::MultiplierKind;
    use da_nn::layers::{Conv2d, Dense, Flatten, MaxPool2d, Relu};
    use rand::SeedableRng;

    fn tiny_cnn(seed: u64) -> Network {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Network::new("served-tiny")
            .push(Conv2d::new(1, 3, 3, 1, 1, &mut rng))
            .push(Relu)
            .push(MaxPool2d::new(2, 2))
            .push(Flatten)
            .push(Dense::new(3 * 4 * 4, 4, &mut rng))
    }

    #[test]
    fn served_queries_match_direct_network_queries() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for kind in [None, Some(MultiplierKind::AxFpm)] {
            let mut net = tiny_cnn(8);
            net.set_multiplier(kind.map(|k| k.build()));
            let served = ServedModel::new(&net).expect("compilable");
            let x = Tensor::rand_uniform(&[1, 8, 8], 0.0, 1.0, &mut rng);
            let direct: Vec<f32> = TargetModel::logits(&net, &x);
            let routed = TargetModel::logits(&served, &x);
            assert_eq!(direct, routed, "{kind:?}");
            assert_eq!(TargetModel::predict(&served, &x), TargetModel::predict(&net, &x));
            assert_eq!(served.num_classes(), 4);
        }
    }

    #[test]
    fn served_predict_batch_matches_network() {
        let net = tiny_cnn(10);
        let served = ServedModel::new(&net).expect("compilable");
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let batch = Tensor::rand_uniform(&[9, 1, 8, 8], 0.0, 1.0, &mut rng);
        assert_eq!(served.predict_batch(&batch), TargetModel::predict_batch(&net, &batch));
        assert_eq!(served.server().stats().items, 9);
    }

    #[test]
    fn gradients_delegate_to_the_network() {
        let net = tiny_cnn(12);
        let served = ServedModel::new(&net).expect("compilable");
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let x = Tensor::rand_uniform(&[1, 8, 8], 0.0, 1.0, &mut rng);
        let (loss_s, grad_s) = served.loss_gradient(&x, 1);
        let (loss_n, grad_n) = TargetModel::loss_gradient(&net, &x, 1);
        assert_eq!(loss_s.to_bits(), loss_n.to_bits());
        assert_eq!(grad_s, grad_n);
        assert_eq!(served.class_gradient(&x, 2), TargetModel::class_gradient(&net, &x, 2));
    }

    #[test]
    fn uncompilable_stack_declines() {
        struct Opaque;
        impl da_nn::Layer for Opaque {
            fn name(&self) -> &'static str {
                "opaque"
            }
            fn forward(&self, x: &Tensor, _mode: da_nn::Mode) -> (Tensor, da_nn::Cache) {
                (x.clone(), da_nn::Cache::none())
            }
            fn backward(&self, _cache: &da_nn::Cache, grad: &Tensor) -> (Tensor, Vec<Tensor>) {
                (grad.clone(), Vec::new())
            }
        }
        let net = Network::new("opaque").push(Opaque);
        assert!(ServedModel::new(&net).is_none());
    }
}
