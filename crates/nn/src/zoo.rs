//! The paper's model architectures (§5.1 and Appendix B).
//!
//! All constructors are deterministic in the given RNG, so a seeded RNG
//! reproduces byte-identical initial weights.

use rand::Rng;

use crate::layers::{BatchNorm, Conv2d, Dense, Dropout, Flatten, MaxPool2d, QuantAct, Relu};
use crate::Network;

/// LeNet-5 for 28×28×1 inputs (paper §5.1): two convolution layers, two
/// max-pooling layers, and two fully connected layers before the classifier
/// head, with ReLU activations.
///
/// # Examples
///
/// ```
/// use da_nn::zoo::lenet5;
/// use da_tensor::Tensor;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let net = lenet5(10, &mut rng);
/// let x = Tensor::zeros(&[1, 1, 28, 28]);
/// assert_eq!(net.logits(&x).shape(), &[1, 10]);
/// ```
pub fn lenet5<R: Rng>(num_classes: usize, rng: &mut R) -> Network {
    Network::new("lenet5")
        .push(Conv2d::new(1, 6, 5, 1, 0, rng)) // 28 -> 24
        .push(Relu)
        .push(MaxPool2d::new(2, 2)) // 24 -> 12
        .push(Conv2d::new(6, 16, 5, 1, 0, rng)) // 12 -> 8
        .push(Relu)
        .push(MaxPool2d::new(2, 2)) // 8 -> 4
        .push(Flatten) // 16·4·4 = 256
        .push(Dense::new(256, 120, rng))
        .push(Relu)
        .push(Dense::new(120, 84, rng))
        .push(Relu)
        .push(Dense::new(84, num_classes, rng))
}

/// The CIFAR-scale AlexNet of §5.1: five convolution layers, three
/// max-pooling layers, and three fully connected layers with ReLU and
/// dropout. Channel counts are scaled to the 32×32×3 input (the paper's
/// CIFAR-10 configuration) and kept small (16–48) so the gate-level
/// multipliers can evaluate the network in tests and reproduction runs.
pub fn alexnet_cifar<R: Rng>(num_classes: usize, rng: &mut R) -> Network {
    Network::new("alexnet")
        .push(Conv2d::new(3, 16, 3, 1, 1, rng)) // 32
        .push(Relu)
        .push(MaxPool2d::new(2, 2)) // 16
        .push(Conv2d::new(16, 32, 3, 1, 1, rng))
        .push(Relu)
        .push(MaxPool2d::new(2, 2)) // 8
        .push(Conv2d::new(32, 48, 3, 1, 1, rng))
        .push(Relu)
        .push(Conv2d::new(48, 48, 3, 1, 1, rng))
        .push(Relu)
        .push(Conv2d::new(48, 32, 3, 1, 1, rng))
        .push(Relu)
        .push(MaxPool2d::new(2, 2)) // 4
        .push(Flatten) // 32·4·4 = 512
        .push(Dense::new(512, 128, rng))
        .push(Relu)
        .push(Dropout::new(0.5))
        .push(Dense::new(128, 64, rng))
        .push(Relu)
        .push(Dense::new(64, num_classes, rng))
}

/// Quantization mode of the Defensive Quantization ConvNet (Appendix B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DqMode {
    /// No quantization (the float reference of Table 5).
    Float,
    /// Weights quantized only ("Weight Quantized" column).
    WeightOnly,
    /// Weights and activations quantized ("Fully Quantized" column).
    Full,
}

/// The Defensive Quantization ConvNet of Appendix B (Table 11): six
/// convolution blocks with batch normalization and three dense blocks, with
/// DoReFa quantization at `bits` per `mode`. Channel counts are scaled to
/// this reproduction's 32×32×3 synthetic CIFAR inputs.
pub fn dq_convnet<R: Rng>(num_classes: usize, mode: DqMode, bits: u32, rng: &mut R) -> Network {
    let name = match mode {
        DqMode::Float => "dq-float".to_string(),
        DqMode::WeightOnly => format!("dq-weight{bits}"),
        DqMode::Full => format!("dq-full{bits}"),
    };
    let qw = |c: Conv2d| -> Conv2d {
        match mode {
            DqMode::Float => c,
            _ => c.with_weight_bits(bits),
        }
    };
    let qd = |d: Dense| -> Dense {
        match mode {
            DqMode::Float => d,
            _ => d.with_weight_bits(bits),
        }
    };

    let mut net = Network::new(name);
    // Block 1: conv, BN, act — then conv, pool, BN, act (Table 11 order).
    net = net.push(qw(Conv2d::new(3, 16, 3, 1, 1, rng))).push(BatchNorm::new(16));
    net = push_act(net, mode, bits);
    net = net
        .push(qw(Conv2d::new(16, 16, 3, 1, 1, rng)))
        .push(MaxPool2d::new(2, 2)) // 16
        .push(BatchNorm::new(16));
    net = push_act(net, mode, bits);
    // Block 2.
    net = net.push(qw(Conv2d::new(16, 32, 3, 1, 1, rng))).push(BatchNorm::new(32));
    net = push_act(net, mode, bits);
    net = net
        .push(qw(Conv2d::new(32, 32, 3, 1, 1, rng)))
        .push(MaxPool2d::new(2, 2)) // 8
        .push(BatchNorm::new(32));
    net = push_act(net, mode, bits);
    // Block 3.
    net = net.push(qw(Conv2d::new(32, 48, 3, 1, 1, rng))).push(BatchNorm::new(48));
    net = push_act(net, mode, bits);
    net = net
        .push(qw(Conv2d::new(48, 48, 3, 1, 1, rng)))
        .push(MaxPool2d::new(2, 2)) // 4
        .push(BatchNorm::new(48));
    net = push_act(net, mode, bits);
    // Dense blocks.
    net = net
        .push(Flatten) // 48·4·4 = 768
        .push(qd(Dense::new(768, 128, rng)))
        .push(BatchNorm::new(128));
    net = push_act(net, mode, bits);
    net = net.push(qd(Dense::new(128, 64, rng))).push(BatchNorm::new(64));
    net = push_act(net, mode, bits);
    net.push(Dense::new(64, num_classes, rng))
}

/// Activation: quantized ReLU for [`DqMode::Full`], plain ReLU otherwise.
fn push_act(net: Network, mode: DqMode, bits: u32) -> Network {
    match mode {
        DqMode::Full => net.push(Relu).push(QuantAct::new(bits)),
        _ => net.push(Relu),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use da_tensor::Tensor;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn lenet5_shapes_and_depth() {
        let mut rng = rng(1);
        let net = lenet5(10, &mut rng);
        let x = Tensor::zeros(&[2, 1, 28, 28]);
        assert_eq!(net.logits(&x).shape(), &[2, 10]);
        // 2 conv + 2 pool + 2 hidden dense + classifier + activations + flatten.
        assert_eq!(net.depth(), 12);
    }

    #[test]
    fn alexnet_has_five_convs_three_pools_three_dense() {
        let mut rng = rng(2);
        let net = alexnet_cifar(10, &mut rng);
        let names = net.layer_names();
        assert_eq!(names.iter().filter(|n| **n == "conv2d").count(), 5);
        assert_eq!(names.iter().filter(|n| **n == "maxpool2d").count(), 3);
        assert_eq!(names.iter().filter(|n| **n == "dense").count(), 3);
        let x = Tensor::zeros(&[1, 3, 32, 32]);
        assert_eq!(net.logits(&x).shape(), &[1, 10]);
    }

    #[test]
    fn dq_variants_forward_and_differ() {
        let x = Tensor::zeros(&[1, 3, 32, 32]);
        for mode in [DqMode::Float, DqMode::WeightOnly, DqMode::Full] {
            let mut r = rng(3);
            let net = dq_convnet(10, mode, 4, &mut r);
            assert_eq!(net.logits(&x).shape(), &[1, 10], "{mode:?}");
        }
        // Same seed, different modes: weight quantization changes outputs.
        let mut r1 = rng(4);
        let mut r2 = rng(4);
        let float = dq_convnet(10, DqMode::Float, 4, &mut r1);
        let quant = dq_convnet(10, DqMode::WeightOnly, 4, &mut r2);
        let mut rx = rng(5);
        let x = Tensor::randn(&[1, 3, 32, 32], 1.0, &mut rx);
        assert_ne!(float.logits(&x), quant.logits(&x));
    }

    #[test]
    fn dq_full_contains_quantized_activations() {
        let mut r = rng(6);
        let net = dq_convnet(10, DqMode::Full, 4, &mut r);
        assert!(net.layer_names().contains(&"quant-act"));
        let mut r = rng(6);
        let net = dq_convnet(10, DqMode::WeightOnly, 4, &mut r);
        assert!(!net.layer_names().contains(&"quant-act"));
    }

    #[test]
    fn constructors_are_deterministic_in_seed() {
        let mut a = rng(7);
        let mut b = rng(7);
        let na = lenet5(10, &mut a);
        let nb = lenet5(10, &mut b);
        let x = Tensor::randn(&[1, 1, 28, 28], 1.0, &mut rng(8));
        assert_eq!(na.logits(&x), nb.logits(&x));
    }
}
