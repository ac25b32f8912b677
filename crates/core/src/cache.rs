//! Train-once model cache.
//!
//! Every experiment needs the same few backbones (LeNet-5 on SynthDigits,
//! AlexNet and the DQ ConvNets on SynthObjects). The cache trains each once
//! per budget with fixed seeds and stores the weights under the artifacts
//! directory; later calls reload in milliseconds. Corrupt cache files are
//! detected (via `da-nn`'s format validation) and retrigger training.
//!
//! Training is deterministic in those seeds *for a given
//! `std::thread::available_parallelism`*: `da_nn::train` shards each batch
//! by it, so the cache files are per host shape. Two cold runs on one host
//! write byte-identical files; a host with another core count may not.

use std::path::{Path, PathBuf};

use rand::SeedableRng;

use da_datasets::digits::synth_digits;
use da_datasets::objects::synth_objects;
use da_datasets::Dataset;
use da_nn::io::{load_params, save_params};
use da_nn::optim::{Adam, Sgd};
use da_nn::train::{train, TrainConfig};
use da_nn::zoo::{alexnet_cifar, dq_convnet, lenet5, DqMode};
use da_nn::Network;

use crate::Budget;

/// Bump to invalidate cached weights when generators or architectures change.
const CACHE_GENERATION: u32 = 1;

/// Seeds used throughout (fixed: the experiments are deterministic).
pub mod seeds {
    /// Training-set generation.
    pub const TRAIN_DATA: u64 = 101;
    /// Test-set generation (disjoint stream from training).
    pub const TEST_DATA: u64 = 999_101;
    /// Weight initialization.
    pub const INIT: u64 = 7;
    /// Training loop shuffling/dropout.
    pub const TRAIN: u64 = 13;
}

/// A directory-backed cache of trained backbones.
#[derive(Debug, Clone)]
pub struct ModelCache {
    dir: PathBuf,
}

impl ModelCache {
    /// A cache rooted at `dir` (created on demand).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ModelCache { dir: dir.into() }
    }

    /// The conventional location: `$DA_ARTIFACTS_DIR` or `./artifacts`.
    pub fn default_location() -> Self {
        let dir = std::env::var_os("DA_ARTIFACTS_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("artifacts"));
        ModelCache::new(dir)
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn model_path(&self, name: &str, budget: &Budget) -> PathBuf {
        self.dir
            .join("models")
            .join(format!("{name}-g{CACHE_GENERATION}-{}.bin", budget.cache_tag()))
    }

    /// Train-or-load helper: `build` constructs the architecture, `fit`
    /// trains it when no cached weights exist.
    fn train_or_load(
        &self,
        name: &str,
        budget: &Budget,
        build: impl Fn() -> Network,
        fit: impl FnOnce(&mut Network),
    ) -> Network {
        let path = self.model_path(name, budget);
        let mut net = build();
        if path.exists() {
            match load_params(&mut net, &path) {
                Ok(()) => return net,
                Err(err) => {
                    // Corrupt or stale cache: retrain from scratch.
                    eprintln!("[da-core] discarding bad cache {}: {err}", path.display());
                    net = build();
                }
            }
        }
        fit(&mut net);
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        if let Err(err) = save_params(&net, &path) {
            eprintln!("[da-core] could not persist {}: {err}", path.display());
        }
        net
    }

    /// The SynthDigits training set for `budget`.
    pub fn digits_train(&self, budget: &Budget) -> Dataset {
        synth_digits(budget.digits_train, seeds::TRAIN_DATA)
    }

    /// A SynthDigits test set of `n` examples (disjoint seed stream).
    pub fn digits_test(&self, n: usize) -> Dataset {
        synth_digits(n, seeds::TEST_DATA)
    }

    /// The SynthObjects training set for `budget`.
    pub fn objects_train(&self, budget: &Budget) -> Dataset {
        synth_objects(budget.objects_train, seeds::TRAIN_DATA)
    }

    /// A SynthObjects test set of `n` examples.
    pub fn objects_test(&self, n: usize) -> Dataset {
        synth_objects(n, seeds::TEST_DATA)
    }

    /// The trained exact LeNet-5 (paper §5.1: Adam).
    pub fn lenet(&self, budget: &Budget) -> Network {
        self.train_or_load(
            "lenet5",
            budget,
            || {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seeds::INIT);
                lenet5(10, &mut rng)
            },
            |net| {
                let ds = self.digits_train(budget);
                let config = TrainConfig {
                    epochs: budget.lenet_epochs,
                    batch_size: 32,
                    seed: seeds::TRAIN,
                    verbose: false,
                };
                train(net, &ds.images, &ds.labels, &config, &mut Adam::new(1e-3));
            },
        )
    }

    /// The trained exact AlexNet (paper §5.1: SGD, lr 0.01).
    pub fn alexnet(&self, budget: &Budget) -> Network {
        self.train_or_load(
            "alexnet",
            budget,
            || {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seeds::INIT);
                alexnet_cifar(10, &mut rng)
            },
            |net| {
                let ds = self.objects_train(budget);
                let config = TrainConfig {
                    epochs: budget.alexnet_epochs,
                    batch_size: 32,
                    seed: seeds::TRAIN,
                    verbose: false,
                };
                train(net, &ds.images, &ds.labels, &config, &mut Sgd::with_momentum(0.01, 0.9));
            },
        )
    }

    /// A trained Defensive Quantization ConvNet (Appendix B) in the given
    /// mode at 4 bits (the paper's DQ configuration).
    pub fn dq_convnet(&self, budget: &Budget, mode: DqMode) -> Network {
        let name = match mode {
            DqMode::Float => "dq-float",
            DqMode::WeightOnly => "dq-weight",
            DqMode::Full => "dq-full",
        };
        self.train_or_load(
            name,
            budget,
            || {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seeds::INIT);
                dq_convnet(10, mode, 4, &mut rng)
            },
            |net| {
                let ds = self.objects_train(budget);
                let config = TrainConfig {
                    epochs: budget.alexnet_epochs,
                    batch_size: 32,
                    seed: seeds::TRAIN,
                    verbose: false,
                };
                train(net, &ds.images, &ds.labels, &config, &mut Adam::new(1e-3));
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_cache(tag: &str) -> ModelCache {
        let dir = std::env::temp_dir().join(format!("da-core-cache-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        ModelCache::new(dir)
    }

    #[test]
    fn lenet_trains_once_and_reloads_identically() {
        let cache = temp_cache("lenet");
        let budget = Budget::smoke();
        let a = cache.lenet(&budget);
        let path = cache.model_path("lenet5", &budget);
        assert!(path.exists(), "weights must be persisted");
        let b = cache.lenet(&budget);
        let x = cache.digits_test(4).images;
        assert_eq!(a.logits(&x), b.logits(&x), "reload must be exact");
    }

    #[test]
    fn corrupt_cache_retrains_instead_of_failing() {
        let cache = temp_cache("corrupt");
        let budget = Budget::smoke();
        let a = cache.lenet(&budget);
        let path = cache.model_path("lenet5", &budget);
        std::fs::write(&path, b"garbage").expect("corrupt the cache");
        let b = cache.lenet(&budget);
        let x = cache.digits_test(4).images;
        // Retrained deterministically from the same seeds: same weights.
        assert_eq!(a.logits(&x), b.logits(&x));
    }

    #[test]
    fn trained_lenet_reaches_sane_accuracy_even_on_smoke_budget() {
        let cache = temp_cache("acc");
        let budget = Budget::smoke();
        let net = cache.lenet(&budget);
        let test = cache.digits_test(200);
        let acc = da_nn::train::evaluate_accuracy(&net, &test.images, &test.labels, 128);
        assert!(acc > 0.7, "smoke LeNet accuracy {acc}");
    }

    /// A DQ net reloaded through a second cache evaluates exactly as the net
    /// that was trained: parameters and batch-norm running statistics both
    /// survive the round trip. The accuracy floor is on the training images:
    /// smoke-budget DQ nets fit them (measured 0.92 / 0.68 / 0.29 for Float /
    /// WeightOnly / Full) but sit near chance on held-out images.
    #[test]
    fn dq_convnets_reload_bit_identically_above_chance() {
        let budget = Budget::smoke();
        let cache = temp_cache("dq");
        let reload = ModelCache::new(cache.dir());
        let test = cache.objects_test(200).images;
        let train = cache.objects_train(&budget);
        for mode in [DqMode::Float, DqMode::WeightOnly, DqMode::Full] {
            let trained = cache.dq_convnet(&budget, mode);
            let reloaded = reload.dq_convnet(&budget, mode);
            let (want, got) = (trained.logits(&test), reloaded.logits(&test));
            let same_bits =
                want.data().iter().zip(got.data()).all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same_bits, "{mode:?}: reloaded logits differ from the trained net's");
            let acc = da_nn::train::evaluate_accuracy(&reloaded, &train.images, &train.labels, 128);
            assert!(acc > 0.2, "{mode:?} reloaded smoke accuracy {acc} (chance 0.1)");
        }
    }

    #[test]
    fn train_and_test_sets_are_disjoint_streams() {
        let cache = temp_cache("disjoint");
        let budget = Budget::smoke();
        let train = cache.digits_train(&budget);
        let test = cache.digits_test(budget.digits_train);
        assert_ne!(train.images, test.images);
    }
}
