//! Property-based tests of the gate-level arithmetic invariants.

use proptest::prelude::*;

use da_arith::array::{ArrayMultiplier, ArrayMultiplierSpec, CellAssignment, CpaKind, PortMap};
use da_arith::bfloat::{is_bf16, to_bf16, BfloatMultiplier};
use da_arith::fpm::FloatMultiplier;
use da_arith::heap::heap_multiplier;
use da_arith::{AdderKind, Multiplier};

proptest! {
    /// The exact gate-level array equals integer multiplication for every
    /// width, wiring, and CPA style.
    #[test]
    fn exact_array_is_integer_multiply(
        a in 0u64..(1 << 16),
        b in 0u64..(1 << 16),
        pm_idx in 0usize..6,
        ripple_cpa in any::<bool>(),
    ) {
        let spec = ArrayMultiplierSpec {
            width: 16,
            cells: CellAssignment::Uniform(AdderKind::Exact),
            port_map: PortMap::ALL[pm_idx],
            cpa: if ripple_cpa {
                CpaKind::Ripple { kind: AdderKind::Exact, swap: false }
            } else {
                CpaKind::Exact
            },
        };
        prop_assert_eq!(ArrayMultiplier::new(spec).multiply(a, b), a * b);
    }

    /// The AMA5 inflation law (from the closed form pinned by `array.rs`'s
    /// `ama5_array_matches_closed_form`): for normalized operands,
    /// `exact <= approx <= 2 * exact`.
    #[test]
    fn ama5_inflation_law(a in 0u64..(1 << 12), b in 0u64..(1 << 12)) {
        let w = 12;
        let a = a | (1 << (w - 1));
        let b = b | (1 << (w - 1));
        let m = ArrayMultiplier::new(ArrayMultiplierSpec::ax_mantissa(w));
        let approx = m.multiply(a & ((1 << w) - 1), b & ((1 << w) - 1));
        let exact = (a & ((1 << w) - 1)) * (b & ((1 << w) - 1));
        prop_assert!(approx >= exact);
        prop_assert!(approx <= 2 * exact);
    }

    /// The Ax-FPM never flips signs, never turns finite into NaN, and obeys
    /// the 2x inflation bound on normal values.
    #[test]
    fn ax_fpm_is_sign_safe_and_bounded(
        a in -1.0f32..1.0,
        b in -1.0f32..1.0,
    ) {
        let m = FloatMultiplier::ax_fpm();
        let r = m.multiply(a, b);
        let exact = a * b;
        prop_assert!(r.is_finite());
        if exact != 0.0 && r != 0.0 {
            prop_assert_eq!(r.is_sign_negative(), exact.is_sign_negative());
            prop_assert!(r.abs() >= exact.abs() * 0.999);
            prop_assert!(r.abs() <= exact.abs() * 2.0 * 1.001);
        }
    }

    /// The gate-level exact FPM is within one truncation ulp of native f32.
    #[test]
    fn exact_fpm_tracks_native_multiply(
        a in 0.001f32..100.0,
        b in 0.001f32..100.0,
    ) {
        let m = FloatMultiplier::exact();
        let r = m.multiply(a, b);
        let native = a * b;
        let ulp = f32::from_bits(native.to_bits() + 1) - native;
        prop_assert!((r - native).abs() <= ulp.abs() * 1.01, "r={r} native={native}");
    }

    /// HEAP error is bounded well below Ax-FPM's 2x corner.
    #[test]
    fn heap_relative_error_is_moderate(
        a in 0.01f32..1.0,
        b in 0.01f32..1.0,
    ) {
        let m = heap_multiplier();
        let r = m.multiply(a, b) as f64;
        let exact = (a * b) as f64;
        prop_assert!((r - exact).abs() / exact < 0.75, "r={r} exact={exact}");
    }

    /// Bfloat16 truncation: idempotent, magnitude-reducing, and the
    /// multiplier's output is always representable.
    #[test]
    fn bfloat_truncation_laws(x in -1000.0f32..1000.0, y in -1000.0f32..1000.0) {
        let t = to_bf16(x);
        prop_assert!(is_bf16(t));
        prop_assert_eq!(to_bf16(t), t);
        prop_assert!(t.abs() <= x.abs());
        let r = BfloatMultiplier.multiply(x, y);
        prop_assert!(is_bf16(r));
        prop_assert!(r.abs() <= (x * y).abs() + f32::EPSILON);
    }

    /// Multipliers are pure functions (same inputs, same outputs).
    #[test]
    fn multipliers_are_deterministic(a in -10.0f32..10.0, b in -10.0f32..10.0) {
        for kind in da_arith::MultiplierKind::ALL {
            let m = kind.build();
            prop_assert_eq!(m.multiply(a, b).to_bits(), m.multiply(a, b).to_bits());
        }
    }

    /// Every adder design's bit-sliced evaluation matches its scalar truth
    /// table on random words (lane independence).
    #[test]
    fn bitslice_lane_independence(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        for kind in AdderKind::ALL {
            let sum = da_arith::bitslice::eval_tt(kind.sum_tt(), a, b, c);
            let cout = da_arith::bitslice::eval_tt(kind.cout_tt(), a, b, c);
            for lane in [0usize, 17, 41, 63] {
                let (ls, lc) = kind.eval(
                    ((a >> lane) & 1) as u8,
                    ((b >> lane) & 1) as u8,
                    ((c >> lane) & 1) as u8,
                );
                prop_assert_eq!(((sum >> lane) & 1) as u8, ls);
                prop_assert_eq!(((cout >> lane) & 1) as u8, lc);
            }
        }
    }
}
