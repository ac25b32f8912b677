//! Lane-boundary bit-exactness: the SIMD block kernels against the scalar
//! datapath at every alignment the block/tail split can produce.
//!
//! SIMD tail handling is where bit-exactness bugs hide, so every batched
//! entry point (the kernel's `axpy` and `gemm_tile` under every valid row
//! class cover, and the multiplier's `multiply_slice` and `dot_accumulate`)
//! is swept over slice lengths `0`, `1`, `LANES-1`, `LANES`,
//! `LANES+1`, `4·LANES+3`, and the bit-sliced block seam
//! `BITSLICE_LANES-1`, `BITSLICE_LANES`, `BITSLICE_LANES+1`, with
//! NaN/Inf/denormal/zero values pinned at block boundaries and inside the
//! scalar tail, for **every** [`MultiplierKind`]. References are built
//! from scalar [`da_arith::Multiplier::multiply`] plus the pinned
//! [`da_arith::simd::nan_stable_add`] accumulate, the crate's documented
//! reduction semantics.

use da_arith::simd::nan_stable_add;
use da_arith::{classify_row, MultiplierKind, RowClass, BITSLICE_LANES, BITSLICE_WIDE, LANES};
use rand::{Rng, SeedableRng};

/// The lane-boundary length sweep: SIMD block/tail splits, then the
/// 64-lane bit-sliced plane block seam.
const LENGTHS: [usize; 9] = [
    0,
    1,
    LANES - 1,
    LANES,
    LANES + 1,
    4 * LANES + 3,
    BITSLICE_LANES - 1,
    BITSLICE_LANES,
    BITSLICE_LANES + 1,
];

/// Values that exercise every datapath branch.
const SPECIALS: [f32; 8] =
    [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0, 1e-40, f32::MAX, f32::MIN_POSITIVE];

fn rng() -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(97)
}

/// A row of the given length with `specials` pinned at block boundaries
/// (lane 0, last lane of the first block, first lane of the second block)
/// and in the scalar tail (last element), normals elsewhere.
fn boundary_row(len: usize, specials: &[f32], rng: &mut rand::rngs::StdRng) -> Vec<f32> {
    let mut row: Vec<f32> = (0..len).map(|_| rng.gen_range(0.03f32..4.0) - 2.0).collect();
    // Re-roll near-zero normals so "clean" rows stay clean.
    for v in row.iter_mut() {
        if v.abs() < 1e-3 {
            *v = 0.7;
        }
    }
    if len == 0 || specials.is_empty() {
        return row;
    }
    let mut pin = |idx: usize, i: usize| {
        if idx < len {
            row[idx] = specials[i % specials.len()];
        }
    };
    pin(0, 0);
    pin(LANES - 1, 1);
    pin(LANES, 2);
    pin(len - 1, 3);
    row
}

fn assert_rows_equal(got: &[f32], want: &[f32], ctx: &str) {
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{ctx} elem {i}: {g:?} ({:#010x}) vs {w:?} ({:#010x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

/// `axpy` (under the tight class and `Special`) and `multiply_slice` against
/// the scalar datapath at every lane-boundary length, special placement, and
/// shared-operand class.
#[test]
fn axpy_and_mul_are_bit_exact_at_lane_boundaries() {
    let mut rng = rng();
    let shared = [0.7f32, -1.25, 0.0, -0.0, f32::NAN, f32::INFINITY, 1e-40, f32::MAX];
    for kind in MultiplierKind::ALL {
        let m = kind.build();
        for len in LENGTHS {
            for pins in [&[] as &[f32], &[0.0, -0.0], &SPECIALS] {
                let b = boundary_row(len, pins, &mut rng);
                let class = classify_row(&b);
                for &a in &shared {
                    let ctx = format!("{kind} len={len} pins={} a={a}", pins.len());

                    let want: Vec<f32> = b.iter().map(|&y| 0.25 + m.multiply(a, y)).collect();
                    for cover in [class, RowClass::Special] {
                        let mut acc = vec![0.25f32; len];
                        m.batch_kernel().axpy(a, &b, cover, &mut acc);
                        assert_rows_equal(&acc, &want, &format!("{ctx} axpy {cover:?}"));
                    }

                    let mut out = vec![0.0f32; len];
                    let a_row: Vec<f32> = boundary_row(len, pins, &mut rng);
                    m.multiply_slice(&a_row, &b, &mut out);
                    let want: Vec<f32> =
                        a_row.iter().zip(&b).map(|(&x, &y)| m.multiply(x, y)).collect();
                    assert_rows_equal(&out, &want, &format!("{ctx} mul"));
                }
            }
        }
    }
}

/// `dot_accumulate` against the crate's pinned reduction semantics (scalar products
/// accumulated in order through `nan_stable_add`).
#[test]
fn dot_is_bit_exact_at_lane_boundaries() {
    let mut rng = rng();
    for kind in MultiplierKind::ALL {
        let m = kind.build();
        for len in LENGTHS {
            for pins in [&[] as &[f32], &SPECIALS] {
                let a = boundary_row(len, pins, &mut rng);
                let b = boundary_row(len, &[1.0], &mut rng);
                let got = m.dot_accumulate(&a, &b);
                let mut want = 0.0f32;
                for (&x, &y) in a.iter().zip(&b) {
                    want = nan_stable_add(want, m.multiply(x, y));
                }
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{kind} len={len} pins={} dot: {got:?} vs {want:?}",
                    pins.len()
                );
            }
        }
    }
}

/// `gemm_tile` under every valid class cover equals the scalar `multiply`
/// loop accumulated with `k` ascending, at lane-boundary tile widths with
/// specials pinned at tile boundaries and a strided output (the engine's
/// fused conv path), for every kind.
#[test]
fn gemm_tile_is_bit_exact_at_lane_boundary_tiles() {
    let mut rng = rng();
    // `(K, NaN weight index, zero weight index)`. In the wide case the NaN
    // (row 0, k = 8) and the zero (row 1, k = 4) split the runs of
    // `BITSLICE_WIDE` normal weights that gate-level kernels fuse.
    let wide_k = 2 * BITSLICE_WIDE + 1;
    let cases = [(3usize, 4usize, None), (wide_k, 8, Some(wide_k + 4))];
    for name in MultiplierKind::ALL {
        let m = name.build();
        for (k, nan_at, zero_at) in cases {
            for tile in LENGTHS {
                if tile == 0 {
                    continue;
                }
                let rows = 3usize;
                let stride = tile + 2;
                let w: Vec<f32> = (0..rows * k)
                    .map(|i| {
                        if i == nan_at {
                            f32::NAN
                        } else if Some(i) == zero_at {
                            0.0
                        } else {
                            rng.gen_range(0.1f32..2.0) - 1.05
                        }
                    })
                    .collect();
                let mut b = Vec::new();
                for _ in 0..k {
                    b.extend(boundary_row(tile, &SPECIALS, &mut rng));
                }
                let mut want = vec![0.125f32; rows * stride];
                for r in 0..rows {
                    for kk in 0..k {
                        for j in 0..tile {
                            let o = &mut want[r * stride + j];
                            *o = nan_stable_add(*o, m.multiply(w[r * k + kk], b[kk * tile + j]));
                        }
                    }
                }
                let tight = b.chunks(tile).map(classify_row).max().unwrap();
                for class in [tight, RowClass::Special] {
                    let mut acc = vec![0.125f32; rows * stride];
                    m.batch_kernel().gemm_tile(&w, &b, tile, class, &mut acc, stride);
                    let ctx = format!("{name} k={k} tile={tile} {class:?} gemm_tile");
                    assert_rows_equal(&acc, &want, &ctx);
                }
            }
        }
    }
}
