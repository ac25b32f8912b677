//! Tier conformance for the exact f32 GEMM micro-kernel
//! (`da_tensor::ops::gemm_acc`): every instruction-set tier this CPU
//! supports is called directly and checked against a naive scalar loop, bit
//! for bit, over special values, ragged block tails, degenerate shapes and
//! strided left operands.
//!
//! NaN results are compared as a class, not by payload: Rust does not
//! specify which NaN an arithmetic operation returns (an add may commute its
//! operands), so no two correct loops need agree on it. Every other value,
//! including the sign of a zero, must match exactly.

use da_tensor::ops::{gemm_acc, gemm_acc_on, matmul, GemmTier, GEMM_MR};
use da_tensor::Tensor;
use rand::{Rng, SeedableRng};

/// The loop every tier must reproduce: `k` ascending, `a == 0.0` terms
/// skipped, one rounded multiply and one rounded add per term.
fn reference(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    (rs, cs): (usize, usize),
    b: &[f32],
    out: &mut [f32],
) {
    for i in 0..m {
        for kk in 0..k {
            let av = a[i * rs + kk * cs];
            if av == 0.0 {
                continue;
            }
            for j in 0..n {
                out[i * n + j] += av * b[kk * n + j];
            }
        }
    }
}

fn supported_tiers() -> Vec<GemmTier> {
    GemmTier::ALL.into_iter().filter(|t| t.is_supported()).collect()
}

/// The comparison key: the bits, with every NaN mapped to one pattern.
fn key(v: f32) -> u32 {
    if v.is_nan() {
        f32::NAN.to_bits()
    } else {
        v.to_bits()
    }
}

fn assert_same(got: &[f32], want: &[f32], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: length");
    for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            key(g),
            key(w),
            "{ctx}: element {i}: {g:?} ({:#010x}) vs {w:?} ({:#010x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

const SPECIALS: [f32; 9] = [
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    -0.0,
    0.0,
    1.0e-40,  // denormal
    -3.0e-39, // denormal
    f32::MIN_POSITIVE,
    f32::MAX,
];

/// Mostly random normals, with zeros (the skip) and special values mixed in
/// at rate `special`.
fn fill(rng: &mut impl Rng, len: usize, zeros: f64, special: f64) -> Vec<f32> {
    (0..len)
        .map(|_| {
            let u: f64 = rng.gen();
            if u < zeros {
                if rng.gen::<bool>() {
                    0.0
                } else {
                    -0.0
                }
            } else if u < zeros + special {
                SPECIALS[rng.gen_range(0..SPECIALS.len())]
            } else {
                rng.gen_range(-2.0f32..2.0)
            }
        })
        .collect()
}

/// Run one shape on every tier (and through the dispatcher) against the
/// reference, with `a` laid out under each stride pattern.
fn check_shape(rng: &mut impl Rng, m: usize, k: usize, n: usize, zeros: f64, special: f64) {
    // Row-major, transposed (column-major) and padded/strided layouts.
    let layouts = [(k, 1), (1, m.max(1)), (2 * k + 3, 2)];
    for (rs, cs) in layouts {
        let a_len = if m == 0 || k == 0 { 0 } else { (m - 1) * rs + (k - 1) * cs + 1 };
        let a = fill(rng, a_len, zeros, special);
        let b = fill(rng, k * n, 0.05, special);
        let init = fill(rng, m * n, 0.1, special / 2.0);
        let mut want = init.clone();
        reference(m, k, n, &a, (rs, cs), &b, &mut want);
        for tier in supported_tiers() {
            let mut got = init.clone();
            gemm_acc_on(tier, m, k, n, &a, (rs, cs), &b, &mut got);
            assert_same(&got, &want, &format!("{tier:?} m={m} k={k} n={n} strides=({rs},{cs})"));
        }
        let mut got = init.clone();
        gemm_acc(m, k, n, &a, (rs, cs), &b, &mut got);
        assert_same(&got, &want, &format!("dispatched m={m} k={k} n={n} strides=({rs},{cs})"));
    }
}

/// Ragged row and column tails around the vector tiers' block widths (4×16,
/// 4×32 and the AVX-512 one-row blocks up to 128 columns), streamed lone
/// rows, and the degenerate sizes 0 and 1.
#[test]
fn every_tier_matches_the_scalar_loop_on_ragged_shapes() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(19);
    let ms = [0, 1, 2, 3, GEMM_MR, GEMM_MR + 1, 2 * GEMM_MR + 3];
    let ks = [0, 1, 2, 7, 33];
    let ns = [0, 1, 3, 4, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100, 120, 129];
    for m in ms {
        for k in ks {
            for n in ns {
                check_shape(&mut rng, m, k, n, 0.3, 0.0);
            }
        }
    }
}

/// NaN, ±Inf, −0.0 and denormals in every operand, dense enough that most
/// outputs see one: zero `a` terms facing an infinite or NaN `b` would turn
/// the output NaN if they were not skipped, and a skipped term must leave a
/// `-0.0` accumulator negative.
#[test]
fn every_tier_matches_the_scalar_loop_on_special_values() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(20);
    for (m, k, n) in [(1, 5, 40), (3, 4, 17), (4, 9, 33), (5, 3, 129), (9, 16, 100), (2, 1, 8)] {
        for _ in 0..8 {
            check_shape(&mut rng, m, k, n, 0.3, 0.25);
        }
    }
}

/// The skip decides the bits: a zero `a` against `±Inf`/NaN in `b` leaves
/// the output as it was, and a NaN `a` is not skipped.
#[test]
fn zero_terms_are_skipped_and_nan_terms_are_not() {
    let b = [f32::INFINITY, f32::NAN, f32::NEG_INFINITY, 1.0];
    for tier in supported_tiers() {
        for zero in [0.0f32, -0.0] {
            let mut out = [-0.0f32, 5.0, -0.0, 2.0];
            gemm_acc_on(tier, 1, 1, 4, &[zero], (1, 1), &b, &mut out);
            assert_eq!(
                out.map(f32::to_bits),
                [-0.0f32, 5.0, -0.0, 2.0].map(f32::to_bits),
                "{tier:?}"
            );
        }
        let mut out = [0.0f32; 4];
        gemm_acc_on(tier, 1, 1, 4, &[f32::NAN], (1, 1), &b, &mut out);
        assert!(out.iter().all(|v| v.is_nan()), "{tier:?}: NaN terms must be added: {out:?}");
    }
}

/// `matmul` is the kernel over row-major operands.
#[test]
fn matmul_matches_the_scalar_loop() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(21);
    for (m, k, n) in [(7, 9, 13), (37, 64, 70)] {
        let a = fill(&mut rng, m * k, 0.4, 0.0);
        let b = fill(&mut rng, k * n, 0.0, 0.0);
        let mut want = vec![0.0f32; m * n];
        reference(m, k, n, &a, (k, 1), &b, &mut want);
        let got = matmul(&Tensor::from_vec(a, &[m, k]), &Tensor::from_vec(b, &[k, n]));
        assert_same(got.data(), &want, &format!("matmul {m}x{k}x{n}"));
    }
}

#[test]
#[should_panic(expected = "too short")]
fn rejects_a_too_short_for_its_strides() {
    let mut out = [0.0f32; 4];
    gemm_acc(2, 3, 2, &[1.0; 5], (3, 1), &[1.0; 6], &mut out);
}

#[test]
#[should_panic(expected = "b must be")]
fn rejects_a_mis_sized_b() {
    let mut out = [0.0f32; 4];
    gemm_acc(2, 3, 2, &[1.0; 6], (3, 1), &[1.0; 5], &mut out);
}

/// A stride whose offsets wrap around `usize` is too long for any slice,
/// not a small one.
#[test]
#[should_panic(expected = "too short")]
fn rejects_strides_whose_offsets_overflow() {
    let mut out = [0.0f32; 3];
    gemm_acc(3, 1, 1, &[1.0; 4], (usize::MAX / 2 + 1, 1), &[1.0], &mut out);
}

/// An `m·n` that wraps to `out.len()` is rejected.
#[test]
#[should_panic(expected = "out must be")]
fn rejects_extents_whose_product_overflows() {
    gemm_acc(1 << (usize::BITS - 1), 1, 2, &[1.0], (0, 1), &[1.0; 2], &mut []);
}
