//! Conformance suite for the quantized backend ([`da_arith::quantized`]):
//! int8 tables and int4-weight tables.
//!
//! Two contracts are pinned here, for both table widths:
//!
//! 1. **The table is the multiplier.** For every [`MultiplierKind`], every
//!    one of the 256×256 entries of an int8 [`ProductLut`] — and every one
//!    of the 256×16 entries of an int4 one, in both operand orders — equals
//!    the scalar multiplier's product over the decoded operand pair, bit for
//!    bit — gate-level HEAP exactly like the closed-form cores.
//! 2. **The lookup is the loop.** [`lut_gemm`] (whatever hardware tier the
//!    dispatcher picked, gather or shuffle) is bit-identical to its portable
//!    scalar body and to [`lut_gemm_reference`] — the plain ascending-`k`
//!    loop of scalar `multiply` calls — over adversarial shapes: empty and
//!    single-element extents, every lane-width boundary (8/16 ± 1), ragged
//!    tails, strided accumulators, and saturating code distributions.

use da_arith::quantized::{
    lut_gemm, lut_gemm_reference, lut_gemm_scalar, LutOrder, ProductLut, QuantParams, CODES4,
};
use da_arith::MultiplierKind;
use rand::{Rng, SeedableRng};

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

/// Quantizer pairs covering asymmetric, symmetric-ish, positive-only, and
/// tiny/huge-scale ranges.
fn param_pairs() -> Vec<(QuantParams, QuantParams)> {
    vec![
        (QuantParams::from_range(-1.0, 1.0), QuantParams::from_range(0.0, 4.0)),
        (QuantParams::from_range(-0.37, 2.9), QuantParams::from_range(-5.0, 0.125)),
        (QuantParams::from_range(0.0, 1e-3), QuantParams::from_range(-1e4, 3e4)),
    ]
}

/// Acceptance criterion: the exhaustive LUT-vs-scalar sweep, every kind.
#[test]
fn every_lut_entry_equals_the_scalar_multiplier_exhaustively() {
    for kind in MultiplierKind::ALL {
        let m = kind.build();
        let (a, b) = (QuantParams::from_range(-2.0, 2.0), QuantParams::from_range(0.0, 1.0));
        let lut = ProductLut::build(&*m, a, b);
        for qa in 0..=255u8 {
            let av = a.dequantize(qa);
            for qb in 0..=255u8 {
                let want = m.multiply(av, b.dequantize(qb));
                let got = lut.product(qa, qb);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{kind}: entry ({qa}, {qb}) = {got:?}, scalar product {want:?}"
                );
            }
        }
    }
}

/// The exhaustive sweep again for a second, asymmetric quantizer pair on
/// the kinds with closed forms (cheap), so scale/zero-point handling is not
/// tested at a single operating point.
#[test]
fn lut_exactness_holds_across_quantizer_pairs() {
    for kind in [MultiplierKind::Exact, MultiplierKind::AxFpm, MultiplierKind::Bfloat16] {
        let m = kind.build();
        for (a, b) in param_pairs() {
            let lut = ProductLut::build(&*m, a, b);
            for qa in (0..=255u8).step_by(3) {
                let av = a.dequantize(qa);
                for qb in 0..=255u8 {
                    let want = m.multiply(av, b.dequantize(qb));
                    assert_eq!(
                        lut.product(qa, qb).to_bits(),
                        want.to_bits(),
                        "{kind} {a:?}/{b:?} at ({qa}, {qb})"
                    );
                }
            }
        }
    }
}

/// Codes with saturation pressure: heavy mass at 0, 255, and the zero point.
fn adversarial_codes(n: usize, zp: u8, r: &mut rand::rngs::StdRng) -> Vec<u8> {
    (0..n)
        .map(|_| match r.gen_range(0..6) {
            0 => 0u8,
            1 => 255,
            2 => zp,
            _ => r.gen_range(0..=255),
        })
        .collect()
}

/// Property test: LUT-GEMM output is bit-identical to the scalar quantized
/// reference GEMM — for the dispatched kernel *and* the portable scalar
/// body, over lane-boundary shapes, ragged tails, and strided accumulators,
/// for every multiplier kind.
#[test]
fn lut_gemm_is_bit_identical_to_scalar_reference() {
    let mut r = rng(7);
    // (rows, k, tile): row tails (1, 2, 3, 5), k tails (0..=5 mod 4), and
    // tile widths straddling the 8- and 16-lane gather widths.
    let shapes = [
        (1usize, 1usize, 1usize),
        (1, 7, 15),
        (2, 4, 16),
        (3, 9, 17),
        (4, 12, 8),
        (5, 6, 31),
        (6, 150, 64),
        (16, 25, 33),
    ];
    for kind in MultiplierKind::ALL {
        let m = kind.build();
        let a_params = QuantParams::from_range(-1.5, 1.5);
        let b_params = QuantParams::from_range(-0.25, 3.0);
        let lut = ProductLut::build(&*m, a_params, b_params);
        for &(rows, k, tile) in &shapes {
            let stride = tile + 3; // strided output rows
            let qa = adversarial_codes(rows * k, a_params.zero_point(), &mut r);
            let b = adversarial_codes(k * tile, b_params.zero_point(), &mut r);
            let seed: Vec<f32> = (0..rows * stride).map(|i| (i as f32) * 0.125 - 2.0).collect();

            let mut acc_ref = seed.clone();
            lut_gemm_reference(
                &*m,
                a_params,
                b_params,
                LutOrder::RowLeft,
                &qa,
                rows,
                k,
                &b,
                tile,
                &mut acc_ref,
                stride,
            );
            let mut acc_gemm = seed.clone();
            lut_gemm(&lut, &qa, rows, k, &b, tile, &mut acc_gemm, stride);
            let mut acc_scalar = seed.clone();
            lut_gemm_scalar(&lut, &qa, rows, k, &b, tile, &mut acc_scalar, stride);

            for i in 0..rows * stride {
                assert_eq!(
                    acc_gemm[i].to_bits(),
                    acc_ref[i].to_bits(),
                    "{kind} {rows}x{k}x{tile}@{stride}: dispatched kernel at {i}"
                );
                assert_eq!(
                    acc_scalar[i].to_bits(),
                    acc_ref[i].to_bits(),
                    "{kind} {rows}x{k}x{tile}@{stride}: scalar kernel at {i}"
                );
            }
        }
    }
}

/// Zero-extent GEMMs are no-ops that leave the accumulator untouched.
#[test]
fn empty_extents_are_noops() {
    let m = MultiplierKind::AxFpm.build();
    let p = QuantParams::from_range(-1.0, 1.0);
    let lut = ProductLut::build(&*m, p, p);
    let mut acc = vec![1.5f32; 6];
    lut_gemm(&lut, &[], 0, 3, &[0; 6], 2, &mut acc, 2); // zero rows
    lut_gemm(&lut, &[], 2, 0, &[], 3, &mut acc, 3); // zero k
    lut_gemm(&lut, &[0, 0], 2, 1, &[], 0, &mut acc, 3); // zero tile
    assert!(acc.iter().all(|&v| v == 1.5), "untouched: {acc:?}");
}

/// Strided accumulation must leave the bytes between output rows alone.
#[test]
fn strided_rows_leave_gaps_untouched() {
    let m = MultiplierKind::Heap.build();
    let a = QuantParams::from_range(-1.0, 1.0);
    let b = QuantParams::from_range(0.0, 2.0);
    let lut = ProductLut::build(&*m, a, b);
    let (rows, k, tile, stride) = (3usize, 5usize, 4usize, 7usize);
    let mut r = rng(9);
    let qa = adversarial_codes(rows * k, a.zero_point(), &mut r);
    let bc = adversarial_codes(k * tile, b.zero_point(), &mut r);
    let mut acc = vec![9.25f32; rows * stride];
    lut_gemm(&lut, &qa, rows, k, &bc, tile, &mut acc, stride);
    for row in 0..rows {
        for gap in tile..stride {
            if row * stride + gap < acc.len() {
                assert_eq!(acc[row * stride + gap], 9.25, "gap ({row}, {gap}) touched");
            }
        }
    }
}

/// Int4 acceptance criterion: the exhaustive 256×16 table-vs-scalar sweep,
/// every kind, both operand orders.
#[test]
fn every_int4_lut_entry_equals_the_scalar_multiplier_exhaustively() {
    for kind in MultiplierKind::ALL {
        let m = kind.build();
        let act = QuantParams::from_range(-2.0, 2.0);
        let w = QuantParams::from_range_codes(-1.0, 1.5, CODES4);
        for order in [LutOrder::ColumnLeft, LutOrder::RowLeft] {
            let lut = ProductLut::build_ordered(&*m, act, w, order);
            for qa in 0..=255u8 {
                let av = act.dequantize(qa);
                for qw in 0..16u8 {
                    let wv = w.dequantize(qw);
                    let want = match order {
                        LutOrder::ColumnLeft => m.multiply(wv, av),
                        LutOrder::RowLeft => m.multiply(av, wv),
                    };
                    let got = lut.product(qa, qw);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{kind} {order:?}: entry ({qa}, {qw}) = {got:?}, scalar product {want:?}"
                    );
                }
            }
        }
    }
}

/// Int4 weight codes with saturation pressure: mass at 0, 15, and the weight
/// zero point, plus garbage in the high nibble (which every path must mask).
fn adversarial_codes4(n: usize, zp: u8, r: &mut rand::rngs::StdRng) -> Vec<u8> {
    (0..n)
        .map(|_| {
            let lo = match r.gen_range(0..6) {
                0 => 0u8,
                1 => 15,
                2 => zp,
                _ => r.gen_range(0..16),
            };
            lo | (r.gen::<u8>() & 0xF0)
        })
        .collect()
}

/// Property test: the int4-table (shuffle) GEMM is bit-identical to the scalar
/// quantized reference — dispatched kernel *and* portable scalar body — over
/// the same adversarial shape grid as the int8 suite, for every multiplier
/// kind and both operand orders.
#[test]
fn int4_lut_gemm_is_bit_identical_to_scalar_reference() {
    let mut r = rng(13);
    let shapes = [
        (1usize, 1usize, 1usize),
        (1, 7, 15),
        (2, 4, 16),
        (3, 9, 17),
        (4, 12, 8),
        (5, 6, 31),
        (6, 150, 64),
        (16, 25, 33),
    ];
    for kind in MultiplierKind::ALL {
        let m = kind.build();
        let act = QuantParams::from_range(-1.5, 1.5);
        let w = QuantParams::from_range_codes(-0.25, 3.0, CODES4);
        for order in [LutOrder::ColumnLeft, LutOrder::RowLeft] {
            let lut = ProductLut::build_ordered(&*m, act, w, order);
            for &(rows, k, tile) in &shapes {
                let stride = tile + 3;
                let qa = adversarial_codes(rows * k, act.zero_point(), &mut r);
                let qw = adversarial_codes4(k * tile, w.zero_point(), &mut r);
                let seed: Vec<f32> = (0..rows * stride).map(|i| (i as f32) * 0.125 - 2.0).collect();

                let mut acc_ref = seed.clone();
                lut_gemm_reference(
                    &*m,
                    act,
                    w,
                    order,
                    &qa,
                    rows,
                    k,
                    &qw,
                    tile,
                    &mut acc_ref,
                    stride,
                );
                let mut acc_gemm = seed.clone();
                lut_gemm(&lut, &qa, rows, k, &qw, tile, &mut acc_gemm, stride);
                let mut acc_scalar = seed.clone();
                lut_gemm_scalar(&lut, &qa, rows, k, &qw, tile, &mut acc_scalar, stride);

                for i in 0..rows * stride {
                    assert_eq!(
                        acc_gemm[i].to_bits(),
                        acc_ref[i].to_bits(),
                        "{kind} {order:?} {rows}x{k}x{tile}@{stride}: dispatched kernel at {i}"
                    );
                    assert_eq!(
                        acc_scalar[i].to_bits(),
                        acc_ref[i].to_bits(),
                        "{kind} {order:?} {rows}x{k}x{tile}@{stride}: scalar kernel at {i}"
                    );
                }
            }
        }
    }
}

/// Zero-extent int4 GEMMs are no-ops; strided int4 rows leave gaps alone.
#[test]
fn int4_empty_extents_and_stride_gaps_are_untouched() {
    let m = MultiplierKind::Heap.build();
    let act = QuantParams::from_range(-1.0, 1.0);
    let w = QuantParams::from_range_codes(0.0, 2.0, CODES4);
    let lut = ProductLut::build_ordered(&*m, act, w, LutOrder::ColumnLeft);
    let mut acc = vec![1.5f32; 6];
    lut_gemm(&lut, &[], 0, 3, &[0; 6], 2, &mut acc, 2); // zero rows
    lut_gemm(&lut, &[], 2, 0, &[], 3, &mut acc, 3); // zero k
    lut_gemm(&lut, &[0, 0], 2, 1, &[], 0, &mut acc, 3); // zero tile
    assert!(acc.iter().all(|&v| v == 1.5), "untouched: {acc:?}");

    let (rows, k, tile, stride) = (3usize, 5usize, 4usize, 7usize);
    let mut r = rng(11);
    let qa = adversarial_codes(rows * k, act.zero_point(), &mut r);
    let qw = adversarial_codes4(k * tile, w.zero_point(), &mut r);
    let mut acc = vec![9.25f32; rows * stride];
    lut_gemm(&lut, &qa, rows, k, &qw, tile, &mut acc, stride);
    for row in 0..rows {
        for gap in tile..stride {
            if row * stride + gap < acc.len() {
                assert_eq!(acc[row * stride + gap], 9.25, "gap ({row}, {gap}) touched");
            }
        }
    }
}

/// The quantized reference respects operand order: the `a` side is the
/// multiplier's left operand (AMA5 is not commutative, so swapping sides
/// must show up).
#[test]
fn lut_sides_follow_operand_order() {
    let m = MultiplierKind::AxFpm.build();
    let a = QuantParams::from_range(0.0, 3.0);
    let b = QuantParams::from_range(0.0, 3.0);
    let ab = ProductLut::build(&*m, a, b);
    let ba = ProductLut::build(&*m, b, a);
    let (qa, qb) = (a.quantize(1.7), b.quantize(2.3));
    assert_eq!(
        ab.product(qa, qb).to_bits(),
        m.multiply(a.dequantize(qa), b.dequantize(qb)).to_bits()
    );
    // Ax-FPM products depend on which operand feeds the mantissa closed
    // form; the two orders genuinely differ for these operands.
    assert_ne!(
        ab.product(qa, qb).to_bits(),
        ba.product(qb, qa).to_bits(),
        "expected non-commutative products for 1.7 x 2.3"
    );
}
