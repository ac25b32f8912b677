//! Deterministic mini-batch training with data-parallel gradient computation.

use rand::seq::SliceRandom;
use rand::SeedableRng;

use da_tensor::Tensor;

use crate::layers::{Cache, Mode};
use crate::loss::softmax_cross_entropy;
use crate::optim::Optimizer;
use crate::Network;

/// Training-loop configuration.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of passes over the data.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Seed for shuffling and stochastic layers.
    pub seed: u64,
    /// Print a line per epoch to stderr.
    pub verbose: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig { epochs: 5, batch_size: 32, seed: 0, verbose: false }
    }
}

/// Per-epoch training telemetry.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Mean loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Accuracy on the training set after the final epoch.
    pub final_accuracy: f32,
}

/// Gather the rows of `xs` selected by `idxs` into a new batch tensor.
///
/// # Panics
///
/// Panics if any index is out of bounds.
pub fn gather_batch(xs: &Tensor, idxs: &[usize]) -> Tensor {
    let items: Vec<Tensor> = idxs.iter().map(|&i| xs.batch_item(i)).collect();
    Tensor::stack(&items)
}

/// Train `network` on `(xs, labels)` with cross-entropy loss.
///
/// Each mini-batch is sharded across available CPU cores; shard gradients are
/// recombined as a weighted average, so results are independent of the core
/// count up to floating-point reassociation. Training is deterministic in
/// `config.seed` and the network's initial state *for a given
/// [`std::thread::available_parallelism`]*: the shard count follows it, and
/// both the gradient sum and the batch-norm running statistics are combined
/// in shard order, never in thread-completion order.
///
/// # Panics
///
/// Panics if `labels.len()` differs from the batch dimension of `xs`, or the
/// config is degenerate (zero epochs is allowed; zero batch size is not).
pub fn train(
    network: &mut Network,
    xs: &Tensor,
    labels: &[usize],
    config: &TrainConfig,
    optimizer: &mut dyn Optimizer,
) -> TrainReport {
    let n = xs.shape()[0];
    assert_eq!(labels.len(), n, "one label per training item");
    assert!(config.batch_size > 0, "batch size must be positive");

    let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
    let mut order: Vec<usize> = (0..n).collect();
    let mut epoch_losses = Vec::with_capacity(config.epochs);

    for epoch in 0..config.epochs {
        order.shuffle(&mut rng);
        let mut loss_sum = 0.0f64;
        let mut batches = 0usize;
        for (batch_idx, chunk) in order.chunks(config.batch_size).enumerate() {
            let seed = config.seed
                ^ (epoch as u64).wrapping_mul(0x9E37_79B9)
                ^ (batch_idx as u64).wrapping_mul(0x85EB_CA6B);
            let loss = train_step(network, xs, labels, chunk, seed, optimizer);
            loss_sum += loss as f64;
            batches += 1;
        }
        let epoch_loss = (loss_sum / batches.max(1) as f64) as f32;
        if config.verbose {
            eprintln!("[{}] epoch {epoch}: loss {epoch_loss:.4}", network.name());
        }
        epoch_losses.push(epoch_loss);
    }

    let final_accuracy = evaluate_accuracy(network, xs, labels, 256);
    TrainReport { epoch_losses, final_accuracy }
}

/// One optimizer step on the batch rows `chunk`. Returns the batch loss.
fn train_step(
    network: &mut Network,
    xs: &Tensor,
    labels: &[usize],
    chunk: &[usize],
    seed: u64,
    optimizer: &mut dyn Optimizer,
) -> f32 {
    let threads = std::thread::available_parallelism()
        .map(|t| t.get())
        .unwrap_or(1)
        .min(chunk.len().div_ceil(4).max(1));

    let shards: Vec<&[usize]> = chunk.chunks(chunk.len().div_ceil(threads)).collect();
    let results: Vec<ShardResult> = if shards.len() <= 1 {
        vec![shard_gradients(network, xs, labels, chunk, seed)]
    } else {
        let pre_step = network.buffers();
        let results: Vec<ShardResult> = std::thread::scope(|scope| {
            let handles: Vec<_> = shards
                .iter()
                .enumerate()
                .map(|(si, shard)| {
                    let net = &*network;
                    scope.spawn(move || {
                        shard_gradients(net, xs, labels, shard, seed.wrapping_add(si as u64))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("training shard panicked")).collect()
        });
        if !pre_step.is_empty() {
            // The shards' forwards updated the batch-norm running statistics
            // in thread-completion order; replay them in shard order.
            network.set_buffers(pre_step);
            for (_, _, _, caches) in &results {
                network.apply_batch_stats(caches);
            }
        }
        results
    };

    // Weighted-average the shard gradients into the first one's buffers.
    let total: usize = results.iter().map(|r| r.2).sum();
    let mut iter = results.into_iter();
    let (mut loss, mut acc, first_count, _) = iter.next().expect("at least one shard");
    let w0 = first_count as f32 / total as f32;
    loss *= w0;
    for layer in &mut acc {
        for g in layer.iter_mut() {
            g.scale(w0);
        }
    }
    for (shard_loss, grads, count, _) in iter {
        let w = count as f32 / total as f32;
        loss += shard_loss * w;
        for (al, gl) in acc.iter_mut().zip(grads) {
            for (a, g) in al.iter_mut().zip(gl) {
                a.add_scaled(&g, w);
            }
        }
    }

    let flat: Vec<Tensor> = acc.into_iter().flatten().collect();
    let mut params = network.params_mut();
    optimizer.step(&mut params, &flat);
    loss
}

/// One shard's loss, per-layer parameter gradients, item count, and forward
/// caches (from which its batch-norm statistics are replayed).
type ShardResult = (f32, Vec<Vec<Tensor>>, usize, Vec<Cache>);

fn shard_gradients(
    network: &Network,
    xs: &Tensor,
    labels: &[usize],
    shard: &[usize],
    seed: u64,
) -> ShardResult {
    let batch = gather_batch(xs, shard);
    let batch_labels: Vec<usize> = shard.iter().map(|&i| labels[i]).collect();
    let (logits, caches) = network.forward(&batch, Mode::Train { seed });
    let (loss, dlogits) = softmax_cross_entropy(&logits, &batch_labels);
    let (_, grads) = network.backward(&caches, &dlogits);
    (loss, grads, shard.len(), caches)
}

/// Accuracy evaluated in chunks (bounding peak memory on big sets).
pub fn evaluate_accuracy(network: &Network, xs: &Tensor, labels: &[usize], chunk: usize) -> f32 {
    let n = xs.shape()[0];
    assert_eq!(labels.len(), n, "one label per item");
    let mut correct = 0usize;
    let mut at = 0usize;
    while at < n {
        let end = (at + chunk).min(n);
        let idxs: Vec<usize> = (at..end).collect();
        let batch = gather_batch(xs, &idxs);
        let preds = network.predict(&batch);
        correct += preds.iter().zip(&labels[at..end]).filter(|(p, l)| p == l).count();
        at = end;
    }
    correct as f32 / n as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{BatchNorm, Dense, Relu};
    use crate::optim::{Adam, Sgd};
    use rand::Rng;

    /// A linearly separable 2-class problem in 2-D.
    fn toy_problem(n: usize, seed: u64) -> (Tensor, Vec<usize>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut data = Vec::with_capacity(n * 2);
        let mut labels = Vec::with_capacity(n);
        for _ in 0..n {
            let x: f32 = rng.gen_range(-1.0..1.0);
            let y: f32 = rng.gen_range(-1.0..1.0);
            data.extend([x, y]);
            labels.push(usize::from(x + y > 0.0));
        }
        (Tensor::from_vec(data, &[n, 2]), labels)
    }

    fn mlp(seed: u64) -> Network {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Network::new("toy-mlp")
            .push(Dense::new(2, 16, &mut rng))
            .push(Relu)
            .push(Dense::new(16, 2, &mut rng))
    }

    #[test]
    fn training_reaches_high_accuracy_on_separable_data() {
        let (xs, ys) = toy_problem(400, 1);
        let mut net = mlp(2);
        let config = TrainConfig { epochs: 30, batch_size: 32, seed: 3, verbose: false };
        let report = train(&mut net, &xs, &ys, &config, &mut Adam::new(0.01));
        assert!(report.final_accuracy > 0.95, "accuracy {}", report.final_accuracy);
        let first = report.epoch_losses.first().expect("losses");
        let last = report.epoch_losses.last().expect("losses");
        assert!(last < first, "loss must decrease: {first} -> {last}");
    }

    #[test]
    fn sgd_also_learns() {
        let (xs, ys) = toy_problem(300, 4);
        let mut net = mlp(5);
        let config = TrainConfig { epochs: 40, batch_size: 16, seed: 6, verbose: false };
        let report = train(&mut net, &xs, &ys, &config, &mut Sgd::with_momentum(0.05, 0.9));
        assert!(report.final_accuracy > 0.9, "accuracy {}", report.final_accuracy);
    }

    #[test]
    fn batch_norm_training_is_bit_reproducible() {
        // Sharded steps run concurrently on a multi-core host, so this
        // catches running statistics applied in thread-completion order; on
        // one core every step is a single shard and it passes trivially.
        let (xs, ys) = toy_problem(400, 11);
        let run = || {
            let mut rng = rand::rngs::StdRng::seed_from_u64(12);
            let mut net = Network::new("toy-bn")
                .push(Dense::new(2, 16, &mut rng))
                .push(BatchNorm::new(16))
                .push(Relu)
                .push(Dense::new(16, 2, &mut rng));
            let config = TrainConfig { epochs: 4, batch_size: 32, seed: 13, verbose: false };
            train(&mut net, &xs, &ys, &config, &mut Adam::new(0.01));
            let bits = |ts: Vec<&Tensor>| -> Vec<u32> {
                ts.iter().flat_map(|t| t.data().iter().map(|v| v.to_bits())).collect()
            };
            (bits(net.params()), bits(net.buffers().iter().collect()))
        };
        let (params, buffers) = run();
        assert_eq!(buffers.len(), 32);
        for _ in 0..2 {
            assert_eq!(run(), (params.clone(), buffers.clone()), "training diverged between runs");
        }
    }

    #[test]
    fn gather_batch_selects_rows() {
        let xs = Tensor::from_vec((0..8).map(|v| v as f32).collect(), &[4, 2]);
        let b = gather_batch(&xs, &[2, 0]);
        assert_eq!(b.shape(), &[2, 2]);
        assert_eq!(b.data(), &[4.0, 5.0, 0.0, 1.0]);
    }

    #[test]
    fn evaluate_accuracy_chunking_is_equivalent() {
        let (xs, ys) = toy_problem(100, 7);
        let net = mlp(8);
        let small = evaluate_accuracy(&net, &xs, &ys, 7);
        let big = evaluate_accuracy(&net, &xs, &ys, 1000);
        assert_eq!(small, big);
    }

    #[test]
    #[should_panic(expected = "one label per training item")]
    fn train_rejects_label_mismatch() {
        let (xs, _) = toy_problem(10, 9);
        let mut net = mlp(10);
        let config = TrainConfig::default();
        let _ = train(&mut net, &xs, &[0, 1], &config, &mut Sgd::new(0.1));
    }
}
