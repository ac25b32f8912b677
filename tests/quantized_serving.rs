//! Int8 serving on the paper's deployment: a trained LeNet-5 on SynthDigits
//! (the MNIST stand-in), deployed on the Ax-FPM multiplier.
//!
//! The acceptance bound: the quantized plan's accuracy stays within 1% of
//! the f32 plan's (per multiplier), while serving through the same
//! `BatchServer` machinery. Training reuses the `da_core::ModelCache`
//! smoke backbone, so repeated runs reload cached weights.

use std::sync::Arc;

use defensive_approximation::arith::MultiplierKind;
use defensive_approximation::core::{Budget, ModelCache};
use defensive_approximation::nn::engine::{InferencePlan, PlanPrecision};
use defensive_approximation::nn::serve::{BatchServer, ServeConfig};

fn cache(tag: &str) -> ModelCache {
    ModelCache::new(std::env::temp_dir().join(format!("da-e2e-{tag}")))
}

/// Fraction of `labels` matched by `plan` over the batch `images`.
fn plan_accuracy(
    plan: &InferencePlan,
    images: &defensive_approximation::tensor::Tensor,
    labels: &[usize],
) -> f32 {
    let preds = plan.predict(images);
    let correct = preds.iter().zip(labels).filter(|(p, l)| p == l).count();
    correct as f32 / labels.len() as f32
}

/// The headline robustness/accuracy check: int8 LeNet within 1% of the f32
/// plan, on the exact baseline and on the paper's Ax-FPM deployment.
#[test]
fn quantized_lenet_accuracy_within_one_percent_of_f32_plan() {
    let cache = cache("quantized");
    let budget = Budget::smoke();
    let test = cache.digits_test(400);
    // Calibration uses training-distribution samples, disjoint from `test`.
    let calibration = cache.digits_train(&budget);
    let calibration = defensive_approximation::nn::train::gather_batch(
        &calibration.images,
        &(0..64).collect::<Vec<_>>(),
    );

    for kind in [None, Some(MultiplierKind::AxFpm)] {
        let mut net = cache.lenet(&budget);
        net.set_multiplier(kind.map(|k| k.build()));
        let f32_plan =
            InferencePlan::compile(&net, net.multiplier().cloned()).expect("LeNet compiles");
        let q_plan =
            InferencePlan::compile_quantized(&net, net.multiplier().cloned(), &calibration)
                .expect("LeNet quantizes");
        assert_eq!(q_plan.precision(), PlanPrecision::Int8);

        let acc_f32 = plan_accuracy(&f32_plan, &test.images, &test.labels);
        let acc_q = plan_accuracy(&q_plan, &test.images, &test.labels);
        eprintln!("[quantized-serving] {kind:?}: f32 {acc_f32:.4} vs int8 {acc_q:.4}");
        assert!(acc_f32 > 0.7, "{kind:?}: f32 plan accuracy collapsed: {acc_f32}");
        assert!(
            acc_q >= acc_f32 - 0.01,
            "{kind:?}: quantization cost more than 1%: {acc_q} vs {acc_f32}"
        );
    }
}

/// The quantized plan serves through the batch server bit-identically to a
/// serial run on the trained deployment (not just on toy stacks).
#[test]
fn trained_quantized_lenet_serves_bit_identically() {
    let cache = cache("quantized-serve");
    let budget = Budget::smoke();
    let mut net = cache.lenet(&budget);
    net.set_multiplier(Some(MultiplierKind::AxFpm.build()));
    let calibration = cache.digits_test(32).images;
    let plan = InferencePlan::compile_quantized(&net, net.multiplier().cloned(), &calibration)
        .expect("LeNet quantizes");
    let server = BatchServer::from_plan(
        Arc::new(
            InferencePlan::compile_quantized(&net, net.multiplier().cloned(), &calibration)
                .expect("LeNet quantizes"),
        ),
        ServeConfig { workers: 2, max_batch: 4, ..ServeConfig::default() },
    );
    let samples = cache.digits_test(24).images;
    let want = plan.predict_batch(&samples);
    let classes = want.shape()[1];
    for i in 0..samples.shape()[0] {
        let got = server.logits(&samples.batch_item(i)).expect("served");
        let row = &want.data()[i * classes..(i + 1) * classes];
        assert_eq!(got.data(), row, "sample {i} diverged under concurrent serving");
    }
    server.shutdown();
}
