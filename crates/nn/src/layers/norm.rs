//! Batch normalization (needed by the Defensive Quantization models of
//! paper Appendix B).

use std::sync::Mutex;

use da_tensor::Tensor;

use super::{Cache, Layer, Mode};
use crate::engine::CompiledLayer;

/// Batch normalization over the channel axis of `[N, C, H, W]` or the feature
/// axis of `[N, F]`.
///
/// Running statistics are updated during training forward passes (interior
/// mutability; forward keeps its `&self` signature) and used in [`Mode::Eval`].
pub struct BatchNorm {
    gamma: Tensor, // [C]
    beta: Tensor,  // [C]
    running: Mutex<Running>,
    momentum: f32,
    eps: f32,
}

#[derive(Debug, Clone)]
struct Running {
    mean: Vec<f32>,
    var: Vec<f32>,
}

impl BatchNorm {
    /// Batch norm over `channels` with default momentum `0.1` and
    /// `eps = 1e-5`.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero.
    pub fn new(channels: usize) -> Self {
        assert!(channels > 0, "channels must be positive");
        BatchNorm {
            gamma: Tensor::ones(&[channels]),
            beta: Tensor::zeros(&[channels]),
            running: Mutex::new(Running { mean: vec![0.0; channels], var: vec![1.0; channels] }),
            momentum: 0.1,
            eps: 1e-5,
        }
    }

    /// Fold one batch's statistics into the running EMA.
    fn update_running(&self, mean: &[f32], var: &[f32]) {
        let mut running = self.running.lock().expect("running stats lock");
        for i in 0..self.channels() {
            running.mean[i] = (1.0 - self.momentum) * running.mean[i] + self.momentum * mean[i];
            running.var[i] = (1.0 - self.momentum) * running.var[i] + self.momentum * var[i];
        }
    }

    fn channels(&self) -> usize {
        self.gamma.len()
    }

    /// Per-channel element count and a closure mapping flat index → channel.
    fn channel_of(shape: &[usize]) -> impl Fn(usize) -> usize + '_ {
        move |flat: usize| match shape.len() {
            2 => flat % shape[1],
            4 => (flat / (shape[2] * shape[3])) % shape[1],
            _ => unreachable!("validated in forward"),
        }
    }
}

impl Layer for BatchNorm {
    fn name(&self) -> &'static str {
        "batchnorm"
    }

    fn forward(&self, x: &Tensor, mode: Mode) -> (Tensor, Cache) {
        let rank = x.shape().len();
        assert!(rank == 2 || rank == 4, "BatchNorm expects [N, F] or [N, C, H, W]");
        let c = self.channels();
        // In both layouts ([N, F] and [N, C, H, W]) axis 1 is the channel.
        let axis = x.shape()[1];
        assert_eq!(axis, c, "channel mismatch");
        let chan = Self::channel_of(x.shape());
        let per_channel = x.len() / c;

        let (mean, var) = if mode.is_train() {
            let mut mean = vec![0.0f64; c];
            let mut var = vec![0.0f64; c];
            for (i, &v) in x.data().iter().enumerate() {
                mean[chan(i)] += v as f64;
            }
            for m in &mut mean {
                *m /= per_channel as f64;
            }
            for (i, &v) in x.data().iter().enumerate() {
                let d = v as f64 - mean[chan(i)];
                var[chan(i)] += d * d;
            }
            for v in &mut var {
                *v /= per_channel as f64;
            }
            let mean: Vec<f32> = mean.iter().map(|&m| m as f32).collect();
            let var: Vec<f32> = var.iter().map(|&v| v as f32).collect();
            self.update_running(&mean, &var);
            (mean, var)
        } else {
            let running = self.running.lock().expect("running stats lock");
            (running.mean.clone(), running.var.clone())
        };

        let mut xhat = Tensor::zeros(x.shape());
        let mut y = Tensor::zeros(x.shape());
        for i in 0..x.len() {
            let ch = chan(i);
            let h = (x.data()[i] - mean[ch]) / (var[ch] + self.eps).sqrt();
            xhat.data_mut()[i] = h;
            y.data_mut()[i] = self.gamma.data()[ch] * h + self.beta.data()[ch];
        }

        let cache = Cache {
            tensors: vec![xhat, Tensor::from_vec(var, &[c]), Tensor::from_vec(mean, &[c])],
            indices: x.shape().to_vec(),
        };
        (y, cache)
    }

    fn backward(&self, cache: &Cache, grad: &Tensor) -> (Tensor, Vec<Tensor>) {
        let xhat = &cache.tensors[0];
        let var = &cache.tensors[1];
        let shape = &cache.indices;
        let c = self.channels();
        let chan = Self::channel_of(shape);
        let m = (grad.len() / c) as f32;

        // Parameter gradients.
        let mut dgamma = Tensor::zeros(&[c]);
        let mut dbeta = Tensor::zeros(&[c]);
        for i in 0..grad.len() {
            let ch = chan(i);
            dgamma.data_mut()[ch] += grad.data()[i] * xhat.data()[i];
            dbeta.data_mut()[ch] += grad.data()[i];
        }

        // Input gradient via the standard batch-norm backward formula
        // (training-statistics form; also a good STE for eval statistics).
        let mut dx = Tensor::zeros(shape);
        for i in 0..grad.len() {
            let ch = chan(i);
            let inv_std = 1.0 / (var.data()[ch] + self.eps).sqrt();
            let g = self.gamma.data()[ch];
            dx.data_mut()[i] = g * inv_std / m
                * (m * grad.data()[i] - dbeta.data()[ch] - xhat.data()[i] * dgamma.data()[ch]);
        }
        (dx, vec![dgamma, dbeta])
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.gamma, &self.beta]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn buffers(&self) -> Vec<Tensor> {
        let running = self.running.lock().expect("running stats lock");
        let c = self.channels();
        vec![
            Tensor::from_vec(running.mean.clone(), &[c]),
            Tensor::from_vec(running.var.clone(), &[c]),
        ]
    }

    fn apply_batch_stats(&self, cache: &Cache) {
        self.update_running(cache.tensors[2].data(), cache.tensors[1].data());
    }

    fn set_buffers(&mut self, buffers: Vec<Tensor>) {
        let c = self.channels();
        let [mean, var]: [Tensor; 2] = buffers.try_into().expect("mean and variance");
        assert!(mean.shape() == [c] && var.shape() == [c], "running statistics must be [{c}]");
        let running = self.running.get_mut().expect("running stats lock");
        running.mean = mean.into_vec();
        running.var = var.into_vec();
    }

    fn compile_eval(&self) -> Option<CompiledLayer> {
        // Snapshot the running statistics: plans freeze eval-mode behavior
        // (the network invalidates its cached plan on training forwards).
        let running = self.running.lock().expect("running stats lock");
        Some(CompiledLayer::BatchNorm {
            mean: running.mean.clone(),
            var: running.var.clone(),
            gamma: self.gamma.data().to_vec(),
            beta: self.beta.data().to_vec(),
            eps: self.eps,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn train_forward_normalizes_channels() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let x = Tensor::randn(&[8, 3, 4, 4], 3.0, &mut rng).map(|v| v + 5.0);
        let bn = BatchNorm::new(3);
        let (y, _) = bn.forward(&x, Mode::Train { seed: 0 });
        // Per-channel mean ≈ 0, variance ≈ 1.
        for ch in 0..3 {
            let mut vals = Vec::new();
            for n in 0..8 {
                for i in 0..16 {
                    vals.push(y.data()[(n * 3 + ch) * 16 + i]);
                }
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-3, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn eval_uses_running_statistics() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let bn = BatchNorm::new(2);
        let x = Tensor::randn(&[16, 2], 1.0, &mut rng).map(|v| v + 3.0);
        // Warm up the running stats.
        for _ in 0..200 {
            let _ = bn.forward(&x, Mode::Train { seed: 0 });
        }
        let (y, _) = bn.forward(&x, Mode::Eval);
        // With converged running stats, eval output is near-normalized too.
        assert!(y.mean().abs() < 0.15, "eval mean {}", y.mean());
    }

    #[test]
    fn rank2_and_rank4_channel_mapping() {
        let bn = BatchNorm::new(2);
        let x2 = Tensor::from_vec(vec![1.0, 10.0, 3.0, 30.0], &[2, 2]);
        let (y2, _) = bn.forward(&x2, Mode::Train { seed: 0 });
        // Channel 0 holds {1, 3}; channel 1 holds {10, 30}: both normalize to ±1.
        assert!((y2.data()[0] + 1.0).abs() < 1e-2);
        assert!((y2.data()[2] - 1.0).abs() < 1e-2);
        assert!((y2.data()[1] + 1.0).abs() < 1e-2);
        assert!((y2.data()[3] - 1.0).abs() < 1e-2);
    }

    #[test]
    fn gradients_sum_to_zero_per_channel() {
        // Batch-norm input gradients are mean-free per channel by construction.
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let bn = BatchNorm::new(3);
        let x = Tensor::randn(&[4, 3, 2, 2], 1.0, &mut rng);
        let (_, cache) = bn.forward(&x, Mode::Train { seed: 0 });
        let grad = Tensor::randn(&[4, 3, 2, 2], 1.0, &mut rng);
        let (dx, param_grads) = bn.backward(&cache, &grad);
        assert_eq!(param_grads.len(), 2);
        for ch in 0..3 {
            let mut s = 0.0f32;
            for n in 0..4 {
                for i in 0..4 {
                    s += dx.data()[(n * 3 + ch) * 4 + i];
                }
            }
            assert!(s.abs() < 1e-3, "channel {ch} grad sum {s}");
        }
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn rejects_wrong_channel_count() {
        let bn = BatchNorm::new(4);
        let _ = bn.forward(&Tensor::zeros(&[1, 3, 2, 2]), Mode::Eval);
    }
}
