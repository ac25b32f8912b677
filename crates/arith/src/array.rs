//! Carry-save array multipliers with configurable (approximate) cells.
//!
//! The paper's mantissa multiplier (§4.1, Figure 1) is the classic unsigned
//! array multiplier: partial products `pp_i = (b_i ? a << i : 0)` are reduced
//! row by row through full-adder cells, and a final carry-propagate adder
//! (CPA) merges the surviving sum and carry vectors.
//!
//! Each cell has three input nets — the partial-product bit, the sum arriving
//! from the row above, and the carry arriving from one column to the right —
//! and two outputs, `Sum` (kept in-column) and `Cout` (sent one column left).
//! For the *exact* full adder the input assignment is irrelevant (the
//! function is symmetric); for approximate adders such as AMA5 (`Sum = B`,
//! `Cout = A`) the wiring choice *is* the design. The paper does not publish
//! its wiring; [`PortMap::PpSumCarry`] is the assignment that reproduces the
//! paper's measured error characterization (Figure 3: ~96% of products
//! inflated, MRED ≈ 0.33; its closed form is stated and pinned by the
//! `ama5_array_matches_closed_form` test below), and the alternatives are
//! kept for the wiring-sensitivity ablation.

use crate::adders::AdderKind;
use crate::bitslice::eval_tt;

/// Assignment of the three cell input nets to the adder ports `(A, B, Cin)`.
///
/// Variant names list the nets feeding `A`, `B`, `Cin` in order; `Pp` is the
/// partial-product bit, `Sum` the incoming sum, `Carry` the incoming carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortMap {
    /// `A = pp`, `B = sum`, `Cin = carry` — canonical wiring; reproduces the
    /// paper's Figure-3 inflation profile with AMA5 cells.
    PpSumCarry,
    /// `A = sum`, `B = pp`, `Cin = carry`.
    SumPpCarry,
    /// `A = pp`, `B = carry`, `Cin = sum`.
    PpCarrySum,
    /// `A = carry`, `B = pp`, `Cin = sum`.
    CarryPpSum,
    /// `A = sum`, `B = carry`, `Cin = pp`.
    SumCarryPp,
    /// `A = carry`, `B = sum`, `Cin = pp`.
    CarrySumPp,
}

impl PortMap {
    /// Every wiring permutation (for ablation sweeps).
    pub const ALL: [PortMap; 6] = [
        PortMap::PpSumCarry,
        PortMap::SumPpCarry,
        PortMap::PpCarrySum,
        PortMap::CarryPpSum,
        PortMap::SumCarryPp,
        PortMap::CarrySumPp,
    ];

    /// Route the three nets to the `(A, B, Cin)` ports.
    #[inline]
    pub fn assign(self, pp: u64, sum: u64, carry: u64) -> (u64, u64, u64) {
        match self {
            PortMap::PpSumCarry => (pp, sum, carry),
            PortMap::SumPpCarry => (sum, pp, carry),
            PortMap::PpCarrySum => (pp, carry, sum),
            PortMap::CarryPpSum => (carry, pp, sum),
            PortMap::SumCarryPp => (sum, carry, pp),
            PortMap::CarrySumPp => (carry, sum, pp),
        }
    }
}

impl std::fmt::Display for PortMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            PortMap::PpSumCarry => "A=pp,B=sum,C=carry",
            PortMap::SumPpCarry => "A=sum,B=pp,C=carry",
            PortMap::PpCarrySum => "A=pp,B=carry,C=sum",
            PortMap::CarryPpSum => "A=carry,B=pp,C=sum",
            PortMap::SumCarryPp => "A=sum,B=carry,C=pp",
            PortMap::CarrySumPp => "A=carry,B=sum,C=pp",
        };
        f.write_str(s)
    }
}

/// Which full-adder design sits in each column of the array.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum CellAssignment {
    /// Every cell uses the same design (the paper's Ax-FPM: all AMA5).
    Uniform(AdderKind),
    /// Column `j` (absolute product weight) uses `kinds[j]`; the vector must
    /// cover `2 * width` columns. This is the HEAP design space.
    PerColumn(Vec<AdderKind>),
}

impl CellAssignment {
    /// The adder kind at absolute column `col`.
    pub fn kind_at(&self, col: usize) -> AdderKind {
        match self {
            CellAssignment::Uniform(k) => *k,
            CellAssignment::PerColumn(v) => v[col],
        }
    }

    /// Distinct kinds present, with a bitmask of the columns each occupies.
    fn kind_masks(&self, columns: usize) -> Vec<(AdderKind, u64)> {
        match self {
            CellAssignment::Uniform(k) => vec![(*k, mask_low(columns))],
            CellAssignment::PerColumn(v) => {
                let mut out: Vec<(AdderKind, u64)> = Vec::new();
                for (j, k) in v.iter().enumerate().take(columns) {
                    match out.iter_mut().find(|(kk, _)| kk == k) {
                        Some((_, m)) => *m |= 1u64 << j,
                        None => out.push((*k, 1u64 << j)),
                    }
                }
                out
            }
        }
    }
}

/// The final carry-propagate adder merging the sum and carry vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CpaKind {
    /// Behavioural exact addition (bit-identical to an exact ripple adder).
    Exact,
    /// Gate-level ripple adder built from `kind` cells. Ports: `A` = sum-vector
    /// bit, `B` = carry-vector bit, `Cin` = ripple carry (swap `A`/`B` with
    /// `swap`). The paper's Ax-FPM uses an AMA5 ripple CPA (`swap = false`),
    /// so the merged output follows the carry vector.
    Ripple {
        /// Adder design of each CPA cell.
        kind: AdderKind,
        /// Swap the `A`/`B` operand assignment (ablation).
        swap: bool,
    },
    /// Gate-level ripple adder whose cell at column `j` reuses the reduction
    /// array's column assignment (`cells.kind_at(j)`). This is the HEAP
    /// construction: the CPA is approximated in the same low columns as the
    /// array.
    RipplePerColumn,
}

/// Full configuration of an array multiplier.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ArrayMultiplierSpec {
    /// Operand bit width (product is `2 * width` bits). Must be in `1..=31`.
    pub width: usize,
    /// Cell design per column.
    pub cells: CellAssignment,
    /// Input-net wiring of the reduction cells.
    pub port_map: PortMap,
    /// Final carry-propagate adder.
    pub cpa: CpaKind,
}

impl ArrayMultiplierSpec {
    /// Exact multiplier of the given width.
    pub fn exact(width: usize) -> Self {
        ArrayMultiplierSpec {
            width,
            cells: CellAssignment::Uniform(AdderKind::Exact),
            port_map: PortMap::PpSumCarry,
            cpa: CpaKind::Exact,
        }
    }

    /// The paper's mantissa core: every cell (including the CPA) is AMA5.
    pub fn ax_mantissa(width: usize) -> Self {
        ArrayMultiplierSpec {
            width,
            cells: CellAssignment::Uniform(AdderKind::Ama5),
            port_map: PortMap::PpSumCarry,
            cpa: CpaKind::Ripple { kind: AdderKind::Ama5, swap: false },
        }
    }
}

/// A gate-level (bit-sliced) unsigned array multiplier.
///
/// # Examples
///
/// ```
/// use da_arith::{ArrayMultiplier, ArrayMultiplierSpec};
///
/// let exact = ArrayMultiplier::new(ArrayMultiplierSpec::exact(8));
/// assert_eq!(exact.multiply(13, 17), 13 * 17);
///
/// let approx = ArrayMultiplier::new(ArrayMultiplierSpec::ax_mantissa(8));
/// // For a multiplier with its top bit set, the AMA5 array inflates:
/// let exact_p = 200u64 * 150u64;
/// let approx_p = approx.multiply(200, 150);
/// assert!(approx_p >= exact_p);
/// ```
#[derive(Debug, Clone)]
pub struct ArrayMultiplier {
    spec: ArrayMultiplierSpec,
    /// `(sum_tt, cout_tt, column mask)` per distinct reduction-cell kind.
    row_kinds: Vec<(u8, u8, u64)>,
}

impl ArrayMultiplier {
    /// Build a multiplier from its specification.
    ///
    /// # Panics
    ///
    /// Panics if `width` is outside `1..=31` or a `PerColumn` assignment does
    /// not cover `2 * width` columns.
    pub fn new(spec: ArrayMultiplierSpec) -> Self {
        assert!((1..=31).contains(&spec.width), "width must be in 1..=31, got {}", spec.width);
        if let CellAssignment::PerColumn(v) = &spec.cells {
            assert!(
                v.len() >= 2 * spec.width,
                "PerColumn assignment covers {} columns, need {}",
                v.len(),
                2 * spec.width
            );
        }
        let columns = 2 * spec.width;
        let row_kinds = spec
            .cells
            .kind_masks(columns)
            .into_iter()
            .map(|(k, m)| (k.sum_tt(), k.cout_tt(), m))
            .collect();
        ArrayMultiplier { spec, row_kinds }
    }

    /// The configuration this multiplier was built from.
    pub fn spec(&self) -> &ArrayMultiplierSpec {
        &self.spec
    }

    /// Multiply two `width`-bit unsigned operands through the simulated array.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if an operand exceeds `width` bits.
    pub fn multiply(&self, a: u64, b: u64) -> u64 {
        let w = self.spec.width;
        debug_assert!(a < (1u64 << w), "operand a exceeds width");
        debug_assert!(b < (1u64 << w), "operand b exceeds width");

        // Row 0 is the raw first partial product; no adder cells exist there.
        let mut s = if b & 1 == 1 { a } else { 0 };
        let mut c = 0u64;
        for i in 1..w {
            let pp = if (b >> i) & 1 == 1 { a << i } else { 0 };
            let (pa, pb, pcin) = self.spec.port_map.assign(pp, s, c);
            let mut ns = 0u64;
            let mut nc = 0u64;
            for &(sum_tt, cout_tt, mask) in &self.row_kinds {
                ns |= eval_tt(sum_tt, pa, pb, pcin) & mask;
                nc |= eval_tt(cout_tt, pa, pb, pcin) & mask;
            }
            s = ns;
            // A carry out of column j has weight j + 1.
            c = nc << 1;
        }
        self.merge(s, c)
    }

    /// Apply the final carry-propagate adder to the sum and carry vectors.
    fn merge(&self, s: u64, c: u64) -> u64 {
        match self.spec.cpa {
            CpaKind::Exact => s.wrapping_add(c),
            CpaKind::Ripple { kind, swap } => {
                let bits = 2 * self.spec.width + 1;
                let (sum_tt, cout_tt) = (kind.sum_tt(), kind.cout_tt());
                let mut out = 0u64;
                let mut carry = 0u64;
                for k in 0..bits.min(63) {
                    let x = (s >> k) & 1;
                    let y = (c >> k) & 1;
                    let (pa, pb) = if swap { (y, x) } else { (x, y) };
                    out |= (eval_tt(sum_tt, pa, pb, carry) & 1) << k;
                    carry = eval_tt(cout_tt, pa, pb, carry) & 1;
                }
                out
            }
            CpaKind::RipplePerColumn => {
                let bits = 2 * self.spec.width;
                let mut out = 0u64;
                let mut carry = 0u64;
                for k in 0..bits.min(63) {
                    let kind = self.spec.cells.kind_at(k);
                    let x = (s >> k) & 1;
                    let y = (c >> k) & 1;
                    out |= (eval_tt(kind.sum_tt(), x, y, carry) & 1) << k;
                    carry = eval_tt(kind.cout_tt(), x, y, carry) & 1;
                }
                // The final carry out of the top column lands one bit above.
                out | (carry << bits.min(63))
            }
        }
    }
}

/// A mask with the low `n` bits set (`n <= 64`).
fn mask_low(n: usize) -> u64 {
    if n >= 64 {
        !0
    } else {
        (1u64 << n) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(42)
    }

    #[test]
    fn exact_array_equals_integer_multiply() {
        let mut rng = rng();
        for width in [1usize, 2, 4, 8, 13, 16, 24, 31] {
            let m = ArrayMultiplier::new(ArrayMultiplierSpec::exact(width));
            for _ in 0..200 {
                let a = rng.gen::<u64>() & mask_low(width);
                let b = rng.gen::<u64>() & mask_low(width);
                assert_eq!(m.multiply(a, b), a * b, "w={width} a={a} b={b}");
            }
        }
    }

    #[test]
    fn exact_array_is_wiring_invariant() {
        // The exact full adder is symmetric in all three inputs, so every
        // port map must produce the true product.
        let mut rng = rng();
        for pm in PortMap::ALL {
            let m = ArrayMultiplier::new(ArrayMultiplierSpec {
                port_map: pm,
                ..ArrayMultiplierSpec::exact(16)
            });
            for _ in 0..100 {
                let a = rng.gen::<u64>() & 0xFFFF;
                let b = rng.gen::<u64>() & 0xFFFF;
                assert_eq!(m.multiply(a, b), a * b, "port map {pm}");
            }
        }
    }

    #[test]
    fn exact_ripple_cpa_matches_behavioural_cpa() {
        let mut rng = rng();
        let ripple = ArrayMultiplier::new(ArrayMultiplierSpec {
            cpa: CpaKind::Ripple { kind: AdderKind::Exact, swap: false },
            ..ArrayMultiplierSpec::exact(12)
        });
        for _ in 0..300 {
            let a = rng.gen::<u64>() & 0xFFF;
            let b = rng.gen::<u64>() & 0xFFF;
            assert_eq!(ripple.multiply(a, b), a * b);
        }
    }

    /// The AMA5 closed form: with AMA5 cells (`Sum = B`, `Cout = A`), the sum
    /// vector telescopes to `pp_0` and the carry vector ends as
    /// `pp_{w-1} << 1`; the AMA5 CPA then forwards the carry vector.
    #[test]
    fn ama5_array_matches_closed_form() {
        let mut rng = rng();
        let w = 12;
        let m = ArrayMultiplier::new(ArrayMultiplierSpec::ax_mantissa(w));
        for _ in 0..500 {
            let a = rng.gen::<u64>() & 0xFFF;
            let b = rng.gen::<u64>() & 0xFFF;
            let expected = if (b >> (w - 1)) & 1 == 1 { a << w } else { 0 };
            assert_eq!(m.multiply(a, b), expected, "a={a} b={b}");
        }
    }

    /// With an exact CPA, the low partial product survives as well.
    #[test]
    fn ama5_array_with_exact_cpa_keeps_low_bits() {
        let mut rng = rng();
        let w = 10;
        let m = ArrayMultiplier::new(ArrayMultiplierSpec {
            cpa: CpaKind::Exact,
            ..ArrayMultiplierSpec::ax_mantissa(w)
        });
        for _ in 0..500 {
            let a = rng.gen::<u64>() & 0x3FF;
            let b = rng.gen::<u64>() & 0x3FF;
            let hi = if (b >> (w - 1)) & 1 == 1 { a << w } else { 0 };
            let lo = if b & 1 == 1 { a } else { 0 };
            assert_eq!(m.multiply(a, b), hi + lo);
        }
    }

    /// The defining inflation property for normalized operands (top bit of
    /// the multiplier set): `exact <= approx <= 2 * exact`.
    #[test]
    fn ama5_inflates_normalized_products() {
        let mut rng = rng();
        let w = 16;
        let m = ArrayMultiplier::new(ArrayMultiplierSpec::ax_mantissa(w));
        for _ in 0..2000 {
            let a = (rng.gen::<u64>() & 0xFFFF) | 0x8000;
            let b = (rng.gen::<u64>() & 0xFFFF) | 0x8000;
            let exact = a * b;
            let approx = m.multiply(a, b);
            assert!(approx >= exact, "deflated: a={a} b={b}");
            assert!(approx <= 2 * exact, "over-inflated: a={a} b={b}");
        }
    }

    #[test]
    fn per_column_exact_assignment_is_exact() {
        let mut rng = rng();
        let w = 14;
        let m = ArrayMultiplier::new(ArrayMultiplierSpec {
            cells: CellAssignment::PerColumn(vec![AdderKind::Exact; 2 * w]),
            ..ArrayMultiplierSpec::exact(w)
        });
        for _ in 0..200 {
            let a = rng.gen::<u64>() & 0x3FFF;
            let b = rng.gen::<u64>() & 0x3FFF;
            assert_eq!(m.multiply(a, b), a * b);
        }
    }

    #[test]
    fn per_column_split_bounds_error_to_low_columns() {
        // Approximating only the low `k` columns perturbs the product by at
        // most the weight those columns (and their promoted carries) carry.
        let mut rng = rng();
        let w = 12;
        let k = 6;
        let mut kinds = vec![AdderKind::Ama5; k];
        kinds.extend(vec![AdderKind::Exact; 2 * w - k]);
        let m = ArrayMultiplier::new(ArrayMultiplierSpec {
            cells: CellAssignment::PerColumn(kinds),
            cpa: CpaKind::Exact,
            ..ArrayMultiplierSpec::exact(w)
        });
        for _ in 0..500 {
            let a = rng.gen::<u64>() & 0xFFF;
            let b = rng.gen::<u64>() & 0xFFF;
            let exact = a * b;
            let approx = m.multiply(a, b);
            // Each row can mis-add at most ~3·2^k across the approximate
            // columns; over w rows a loose bound is w · 2^(k+3).
            let bound = (w as u64) << (k + 3);
            assert!(
                approx.abs_diff(exact) <= bound,
                "error too large: a={a} b={b} exact={exact} approx={approx}"
            );
        }
    }

    #[test]
    fn multiply_by_zero_and_one() {
        for spec in [ArrayMultiplierSpec::exact(8), ArrayMultiplierSpec::ax_mantissa(8)] {
            let m = ArrayMultiplier::new(spec);
            assert_eq!(m.multiply(0, 0), 0);
            assert_eq!(m.multiply(0, 255), 0);
            assert_eq!(m.multiply(255, 0), 0);
        }
        let exact = ArrayMultiplier::new(ArrayMultiplierSpec::exact(8));
        assert_eq!(exact.multiply(1, 1), 1);
        assert_eq!(exact.multiply(255, 1), 255);
    }

    #[test]
    #[should_panic(expected = "width must be in 1..=31")]
    fn rejects_zero_width() {
        let _ = ArrayMultiplier::new(ArrayMultiplierSpec::exact(0));
    }

    #[test]
    #[should_panic(expected = "PerColumn assignment covers")]
    fn rejects_short_per_column_assignment() {
        let _ = ArrayMultiplier::new(ArrayMultiplierSpec {
            cells: CellAssignment::PerColumn(vec![AdderKind::Exact; 3]),
            ..ArrayMultiplierSpec::exact(8)
        });
    }
}
