//! Conformance suite for the bit-sliced gate-level backend.
//!
//! Two layers of evidence that the word-parallel plane sweep cannot drift
//! from the per-cell simulation it replaces:
//!
//! 1. **Truth-table ground truth.** `eval_tt` (special-cased boolean forms)
//!    and `eval_tt_minterms` (generic expansion) are checked against a
//!    bit-by-bit table lookup for **all 256 truth tables** over adversarial
//!    word patterns (all-zeros, all-ones, alternating masks at every stride,
//!    single set bits at the word edges) and pseudorandom words. The two
//!    implementations must agree with the reference and with each other on
//!    every bit.
//! 2. **Bitsliced-vs-scalar golden vectors.** For the HEAP mantissa core and
//!    **every ablation wiring** (`PortMap::ALL` over AMA5 cells) plus every
//!    uniform cell kind, all three block entry points of [`BitslicedArray`]
//!    (`multiply_block`, `multiply_block_shared`, `multiply_block8_shared` —
//!    the last under runtime SIMD dispatch) must reproduce
//!    [`ArrayMultiplier::multiply`] lane for lane, and the gate-level
//!    [`FloatMultiplier`] batch kernel's one-row `gemm_tile` (the fused
//!    multi-term plane sweep) must reproduce the scalar `multiply`
//!    accumulation bit for bit.

use da_arith::adders::AdderKind;
use da_arith::bitslice::{eval_tt, eval_tt_minterms};
use da_arith::fpm::{FloatMultiplier, SIGNIFICAND_BITS};
use da_arith::heap::{heap_mantissa_spec, heap_multiplier};
use da_arith::{
    classify_row, ArrayMultiplier, ArrayMultiplierSpec, BitslicedArray, CellAssignment, CpaKind,
    Multiplier, PortMap, RowClass, BITSLICE_LANES, BITSLICE_WIDE, BITSLICE_WIDE_LANES,
};

/// Deterministic 64-bit stream (splitmix64) — no RNG dependency needed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Word patterns chosen to hit every branch of the special-cased boolean
/// forms: constants, complements, every power-of-two stripe stride, and
/// bits at both word edges.
const ADVERSARIAL_WORDS: [u64; 12] = [
    0,
    !0,
    0xAAAA_AAAA_AAAA_AAAA,
    0x5555_5555_5555_5555,
    0xCCCC_CCCC_CCCC_CCCC,
    0x3333_3333_3333_3333,
    0xF0F0_F0F0_F0F0_F0F0,
    0x00FF_00FF_00FF_00FF,
    0x0000_FFFF_0000_FFFF,
    0xFFFF_FFFF_0000_0000,
    1,
    1 << 63,
];

/// Bit-by-bit table lookup: the definition both implementations must match.
fn eval_tt_reference(tt: u8, a: u64, b: u64, cin: u64) -> u64 {
    let mut out = 0u64;
    for bit in 0..64 {
        let idx = (((cin >> bit) & 1) << 2) | (((b >> bit) & 1) << 1) | ((a >> bit) & 1);
        out |= ((u64::from(tt) >> idx) & 1) << bit;
    }
    out
}

#[test]
fn every_truth_table_matches_the_bitwise_reference_on_adversarial_words() {
    for tt in 0..=255u8 {
        for &a in &ADVERSARIAL_WORDS {
            for &b in &ADVERSARIAL_WORDS {
                for &cin in &ADVERSARIAL_WORDS {
                    let want = eval_tt_reference(tt, a, b, cin);
                    assert_eq!(
                        eval_tt(tt, a, b, cin),
                        want,
                        "eval_tt(tt={tt:#010b}, a={a:#x}, b={b:#x}, cin={cin:#x})"
                    );
                    assert_eq!(
                        eval_tt_minterms(tt, a, b, cin),
                        want,
                        "eval_tt_minterms(tt={tt:#010b}, a={a:#x}, b={b:#x}, cin={cin:#x})"
                    );
                }
            }
        }
    }
}

#[test]
fn every_truth_table_matches_the_bitwise_reference_on_random_words() {
    let mut state = 0x1357_9BDF_2468_ACE0u64;
    for tt in 0..=255u8 {
        for _ in 0..32 {
            let (a, b, cin) = (splitmix(&mut state), splitmix(&mut state), splitmix(&mut state));
            let want = eval_tt_reference(tt, a, b, cin);
            assert_eq!(eval_tt(tt, a, b, cin), want, "eval_tt tt={tt:#010b}");
            assert_eq!(eval_tt_minterms(tt, a, b, cin), want, "minterms tt={tt:#010b}");
        }
    }
}

/// The specs the golden vectors cover: the pinned HEAP core, the canonical
/// AMA5 core under **every** port-map wiring (the port-map ablation's full
/// orbit), and every uniform cell kind (each distinct sum/carry truth-table
/// pair) under the canonical wiring.
fn golden_specs() -> Vec<(String, ArrayMultiplierSpec)> {
    let mut specs = vec![("heap".to_string(), heap_mantissa_spec())];
    for pm in PortMap::ALL {
        let mut spec = ArrayMultiplierSpec::ax_mantissa(12);
        spec.port_map = pm;
        specs.push((format!("ama5-{pm}"), spec));
    }
    for kind in [
        AdderKind::Exact,
        AdderKind::Ama1,
        AdderKind::Ama2,
        AdderKind::Ama3,
        AdderKind::Ama4,
        AdderKind::Ama5,
    ] {
        let spec = ArrayMultiplierSpec {
            width: 10,
            cells: CellAssignment::Uniform(kind),
            port_map: PortMap::PpSumCarry,
            cpa: CpaKind::Ripple { kind, swap: false },
        };
        specs.push((format!("uniform-{kind:?}"), spec));
    }
    specs
}

#[test]
fn bitsliced_blocks_match_the_scalar_array_for_heap_and_every_wiring() {
    let mut state = 0xBEEF_CAFE_F00D_D00Du64;
    for (name, spec) in golden_specs() {
        let scalar = ArrayMultiplier::new(spec.clone());
        let sliced = BitslicedArray::new(&spec);
        let mask = (1u64 << spec.width) - 1;

        // multiply_block: 64 independent pairs.
        let mut a = [0u64; BITSLICE_LANES];
        let mut b = [0u64; BITSLICE_LANES];
        for l in 0..BITSLICE_LANES {
            a[l] = splitmix(&mut state) & mask;
            b[l] = splitmix(&mut state) & mask;
        }
        // Pin the corners into fixed lanes: all-zeros, all-ones, and the
        // mixed extremes stress the carry chains hardest.
        a[0] = 0;
        b[0] = 0;
        a[1] = mask;
        b[1] = mask;
        a[2] = mask;
        b[2] = 1;
        a[3] = 1 << (spec.width - 1);
        b[3] = mask;
        let prod = sliced.multiply_block(&a, &b);
        for l in 0..BITSLICE_LANES {
            assert_eq!(
                prod[l],
                scalar.multiply(a[l], b[l]),
                "{name}: multiply_block lane {l} (a={:#x}, b={:#x})",
                a[l],
                b[l]
            );
        }

        // multiply_block_shared: one operand broadcast over the lanes.
        for shared in [0, 1, mask, mask >> 1, splitmix(&mut state) & mask] {
            let prod = sliced.multiply_block_shared(shared, &b);
            for l in 0..BITSLICE_LANES {
                assert_eq!(
                    prod[l],
                    scalar.multiply(shared, b[l]),
                    "{name}: multiply_block_shared lane {l} (a={shared:#x}, b={:#x})",
                    b[l]
                );
            }
        }

        // multiply_block8_shared: eight fused sub-blocks through the
        // runtime-dispatched (AVX-512/AVX2/scalar) sweep.
        let mut a8 = [0u64; BITSLICE_WIDE];
        let mut b8 = [0u64; BITSLICE_WIDE_LANES];
        for (t, slot) in a8.iter_mut().enumerate() {
            *slot = if t == 0 { 0 } else { splitmix(&mut state) & mask };
        }
        a8[BITSLICE_WIDE - 1] = mask;
        for slot in b8.iter_mut() {
            *slot = splitmix(&mut state) & mask;
        }
        let prod = sliced.multiply_block8_shared(&a8, &b8);
        for t in 0..BITSLICE_WIDE {
            for l in 0..BITSLICE_LANES {
                let i = t * BITSLICE_LANES + l;
                assert_eq!(
                    prod[i],
                    scalar.multiply(a8[t], b8[i]),
                    "{name}: multiply_block8_shared sub-block {t} lane {l}"
                );
            }
        }
    }
}

/// Deterministic finite f32 stream spanning normals, zeros, and subnormals —
/// the operand classes the fused batch path routes differently.
fn f32_stream(state: &mut u64, n: usize) -> Vec<f32> {
    (0..n)
        .map(|i| match i % 16 {
            0 => 0.0,
            7 => -0.0,
            11 => f32::from_bits(0x0000_0001), // subnormal
            _ => {
                let r = splitmix(state);
                let frac = (r & 0x7F_FFFF) as u32;
                let exp = 110 + (r >> 32) % 36; // well inside the normal range
                f32::from_bits(((r >> 63) as u32) << 31 | (exp as u32) << 23 | frac)
            }
        })
        .collect()
}

#[test]
fn gate_level_gemm_tile_matches_scalar_multiply_for_heap_and_every_wiring() {
    let mut mults: Vec<(String, FloatMultiplier)> = vec![("heap".to_string(), heap_multiplier())];
    for pm in PortMap::ALL {
        let mut spec = ArrayMultiplierSpec::ax_mantissa(SIGNIFICAND_BITS);
        spec.port_map = pm;
        mults.push((format!("ama5-{pm}"), FloatMultiplier::with_core("wiring", spec)));
    }

    let mut state = 0x0DDB_A11D_EADB_EEF1u64;
    // 19 terms × 70 outputs: a non-multiple-of-8 term count (exercises the
    // tail after the fused 8-wide batches) against a non-multiple-of-64
    // output width (exercises partial lane fills).
    let (terms, width) = (19usize, 70usize);
    let a = f32_stream(&mut state, terms);
    let b = f32_stream(&mut state, terms * width);

    let tight = b.chunks(width).map(classify_row).max().unwrap();

    for (name, mult) in &mults {
        let mut reference = vec![0.0f32; width];
        for (t, &x) in a.iter().enumerate() {
            for (j, acc) in reference.iter_mut().enumerate() {
                *acc += mult.multiply(x, b[t * width + j]);
            }
        }
        for class in [tight, RowClass::Special] {
            let mut fused = vec![0.0f32; width];
            mult.batch_kernel().gemm_tile(&a, &b, width, class, &mut fused, width);
            for j in 0..width {
                assert_eq!(
                    fused[j].to_bits(),
                    reference[j].to_bits(),
                    "{name} {class:?}: gemm_tile output {j} diverged from the scalar accumulation"
                );
            }
        }
    }
}
