//! Bit-exactness property tests for the batched arithmetic backend.
//!
//! The contract under test: for every [`MultiplierKind`], the tiled/batched
//! [`gemm_with`] (and the slice-level `multiply_slice`/`dot_accumulate`
//! methods) equal the seed's per-scalar reference loop **to the last ULP**,
//! over random and adversarial (NaN/Inf/denormal/negative-zero/extreme)
//! inputs, below and above the internal parallelization threshold.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};

use da_arith::simd::nan_stable_add;
use da_arith::{classify_row, ExactMultiplier, MultiplierKind, RowClass};
use da_nn::layers::{gemm_with, matmul_with_scalar};
use da_tensor::ops::matmul;
use da_tensor::Tensor;

/// Adversarial values: specials, signed zeros, denormals, and extremes.
const SPECIALS: [f32; 10] = [
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    0.0,
    -0.0,
    f32::MIN_POSITIVE,
    1e-40, // denormal
    f32::MAX,
    -f32::MAX,
    1.0,
];

/// A tensor mixing uniform values with adversarial specials.
fn adversarial_tensor(shape: &[usize], rng: &mut rand::rngs::StdRng, special_rate: f64) -> Tensor {
    let n: usize = shape.iter().product();
    let data = (0..n)
        .map(|_| {
            if rng.gen_bool(special_rate) {
                SPECIALS[rng.gen_range(0..SPECIALS.len())]
            } else {
                rng.gen_range(-4.0f32..4.0)
            }
        })
        .collect();
    Tensor::from_vec(data, shape)
}

fn assert_bit_equal(got: &Tensor, want: &Tensor, ctx: &str) {
    assert_eq!(got.shape(), want.shape(), "{ctx}: shape");
    for (i, (x, y)) in got.data().iter().zip(want.data()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{ctx}: element {i} differs: {x:?} ({:#010x}) vs {y:?} ({:#010x})",
            x.to_bits(),
            y.to_bits()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Small-shape sweep with adversarial values, every multiplier kind.
    #[test]
    fn batched_gemm_matches_scalar_on_adversarial_inputs(
        m in 1usize..5,
        k in 1usize..9,
        n in 1usize..8,
        seed in any::<u64>(),
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = adversarial_tensor(&[m, k], &mut rng, 0.25);
        let b = adversarial_tensor(&[k, n], &mut rng, 0.25);
        for kind in MultiplierKind::ALL {
            let mult = kind.build();
            let batched = gemm_with(&*mult, &a, &b);
            let reference = matmul_with_scalar(&*mult, &a, &b);
            for (i, (x, y)) in batched.data().iter().zip(reference.data()).enumerate() {
                prop_assert_eq!(
                    x.to_bits(), y.to_bits(),
                    "{} {}x{}x{} elem {}: {:?} vs {:?}", kind, m, k, n, i, x, y
                );
            }
        }
    }

    /// Slice-level methods match the scalar loops elementwise, with
    /// adversarial values.
    #[test]
    fn slice_methods_match_scalar_on_adversarial_inputs(seed in any::<u64>()) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let len = 67usize; // not a multiple of any internal tile width
        let a = adversarial_tensor(&[len], &mut rng, 0.3);
        let b = adversarial_tensor(&[len], &mut rng, 0.3);
        for kind in MultiplierKind::ALL {
            let m = kind.build();
            let mut out = vec![0.0f32; len];
            m.multiply_slice(a.data(), b.data(), &mut out);
            for i in 0..len {
                let want = m.multiply(a.data()[i], b.data()[i]);
                prop_assert_eq!(out[i].to_bits(), want.to_bits(), "{} mul at {}", kind, i);
            }

            // The library accumulators pin NaN-payload propagation through
            // `nan_stable_add` (PR 4); the test-local loops must accumulate
            // the same way, or release-mode lowering of a plain `+=` can
            // pick the other NaN operand and fail spuriously.
            let dot = m.dot_accumulate(a.data(), b.data());
            let mut want = 0.0f32;
            for i in 0..len {
                want = nan_stable_add(want, m.multiply(a.data()[i], b.data()[i]));
            }
            prop_assert_eq!(dot.to_bits(), want.to_bits(), "{} dot", kind);

            let scale = a.data()[0];
            let mut acc_want = vec![0.25f32; len];
            for (i, v) in acc_want.iter_mut().enumerate() {
                *v = nan_stable_add(*v, m.multiply(scale, b.data()[i]));
            }
            for class in [classify_row(b.data()), RowClass::Special] {
                let mut acc = vec![0.25f32; len];
                m.batch_kernel().axpy(scale, b.data(), class, &mut acc);
                for i in 0..len {
                    prop_assert_eq!(
                        acc[i].to_bits(), acc_want[i].to_bits(),
                        "{} axpy {:?} at {}", kind, class, i
                    );
                }
            }
        }
    }
}

/// Shapes large enough to cross the GEMM's internal parallel threshold:
/// per-worker kernels must still be bit-exact (fast-path kinds).
#[test]
fn parallel_gemm_is_bit_exact_above_threshold() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    for kind in [
        MultiplierKind::Exact,
        MultiplierKind::ExactFpm,
        MultiplierKind::AxFpm,
        MultiplierKind::Bfloat16,
    ] {
        let mult = kind.build();
        // 34×32×40 = 43_520 MACs > the 2^15 parallel threshold; 40 columns
        // also exercises a ragged final column tile.
        let a = adversarial_tensor(&[34, 32], &mut rng, 0.1);
        let b = adversarial_tensor(&[32, 40], &mut rng, 0.1);
        let batched = gemm_with(&*mult, &a, &b);
        let reference = matmul_with_scalar(&*mult, &a, &b);
        assert_bit_equal(&batched, &reference, kind.as_str());
    }
}

/// HEAP runs the gate-level core through per-worker bit-sliced kernels;
/// above the parallel threshold the result must still equal the (slow)
/// scalar gate-level loop exactly.
#[test]
fn parallel_bitsliced_heap_gemm_is_bit_exact() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(8);
    let mult = MultiplierKind::Heap.build();
    // Low-entropy operands (repeated significand pairs); 33×32×32 = 33_792
    // MACs crosses the parallel threshold.
    let vals: Vec<f32> = (0..13).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let pick = |rng: &mut rand::rngs::StdRng, n: usize| -> Tensor {
        Tensor::from_vec((0..n).map(|_| vals[rng.gen_range(0usize..13)]).collect(), &[n])
    };
    let a = pick(&mut rng, 33 * 32).reshape(&[33, 32]);
    let b = pick(&mut rng, 32 * 32).reshape(&[32, 32]);
    let batched = gemm_with(&*mult, &a, &b);
    let reference = matmul_with_scalar(&*mult, &a, &b);
    assert_bit_equal(&batched, &reference, "heap parallel");
}

/// The monomorphized exact GEMM equals the native `da_tensor::ops::matmul`
/// bitwise on dense data (the no-virtual-call acceptance criterion).
#[test]
fn exact_gemm_equals_native_matmul_bitwise() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    for (m, k, n) in [(5usize, 6usize, 4usize), (34, 32, 40)] {
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[k, n], 1.0, &mut rng);
        let got = gemm_with(&ExactMultiplier, &a, &b);
        let want = matmul(&a, &b);
        assert_bit_equal(&got, &want, &format!("exact {m}x{k}x{n}"));
    }
}

/// The batched path through a layer-style `dyn` handle equals the
/// monomorphized path (dispatch style must not change results).
#[test]
fn dyn_and_monomorphized_gemm_agree() {
    use da_arith::bfloat::BfloatMultiplier;
    use da_arith::fpm::FloatMultiplier;
    use da_arith::heap::heap_multiplier;

    let mut rng = rand::rngs::StdRng::seed_from_u64(10);
    let a = adversarial_tensor(&[6, 9], &mut rng, 0.2);
    let b = adversarial_tensor(&[9, 5], &mut rng, 0.2);
    let monomorphized = [
        (MultiplierKind::Exact, gemm_with(&ExactMultiplier, &a, &b)),
        (MultiplierKind::ExactFpm, gemm_with(&FloatMultiplier::exact(), &a, &b)),
        (MultiplierKind::AxFpm, gemm_with(&FloatMultiplier::ax_fpm(), &a, &b)),
        (MultiplierKind::Heap, gemm_with(&heap_multiplier(), &a, &b)),
        (MultiplierKind::Bfloat16, gemm_with(&BfloatMultiplier, &a, &b)),
    ];
    for (kind, want) in &monomorphized {
        let via_dyn = gemm_with(&*kind.build(), &a, &b);
        assert_bit_equal(&via_dyn, want, kind.as_str());
    }
}
