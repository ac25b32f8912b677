//! Cell-wiring ablation of the AMA5 mantissa array (beside Table 9 and the
//! §4.3 design-space listing).
//!
//! The paper does not publish how its AMA5 cells are wired into the array,
//! and the Figure-3 inflation depends on that choice. This runner sweeps
//! every input-port permutation of the cells, each with an AMA5 and an exact
//! carry-propagate adder, and reports the resulting multiplier-level error
//! profile: only the canonical wiring reproduces the published
//! characterization.

use da_arith::array::{ArrayMultiplierSpec, CellAssignment, CpaKind, PortMap};
use da_arith::fpm::FloatMultiplier;
use da_arith::metrics::{error_stats, ErrorStats};
use da_arith::AdderKind;

/// One wiring design point.
#[derive(Debug, Clone)]
pub struct WiringRow {
    /// How the partial-product, sum and carry nets reach each cell's ports.
    pub port_map: PortMap,
    /// The carry-propagate adder: `"ama5-cpa"` or `"exact-cpa"`.
    pub cpa: &'static str,
    /// Error profile over operands in `[0, 1]`.
    pub stats: ErrorStats,
}

/// The wiring ablation: every [`PortMap`] × {AMA5, exact} CPA.
#[derive(Debug, Clone)]
pub struct WiringTable {
    /// Operand pairs sampled per row.
    pub samples: usize,
    /// Rows in [`PortMap::ALL`] order, AMA5 CPA first.
    pub rows: Vec<WiringRow>,
}

impl std::fmt::Display for WiringTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Ablation: AMA5 array wiring sensitivity ({} samples each)", self.samples)?;
        writeln!(f, "{:<28} {:>8} {:>8} {:>11}", "wiring", "MRED", "NMED", "inflation")?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<28} {:>8.3} {:>8.3} {:>10.1}%",
                format!("{} {}", r.port_map, r.cpa),
                r.stats.mred,
                r.stats.nmed,
                r.stats.inflation_rate * 100.0
            )?;
        }
        writeln!(
            f,
            "(canonical = 'A=pp,B=sum,C=carry ama5-cpa': ~96-100% inflation, MRED ~0.33-0.39)"
        )
    }
}

/// Run the wiring ablation with `samples` operand pairs per design.
pub fn ablation(samples: usize) -> WiringTable {
    let mut rows = Vec::with_capacity(2 * PortMap::ALL.len());
    for port_map in PortMap::ALL {
        for (cpa, kind) in [
            ("ama5-cpa", CpaKind::Ripple { kind: AdderKind::Ama5, swap: false }),
            ("exact-cpa", CpaKind::Exact),
        ] {
            let spec = ArrayMultiplierSpec {
                width: 24,
                cells: CellAssignment::Uniform(AdderKind::Ama5),
                port_map,
                cpa: kind,
            };
            let fpm = FloatMultiplier::with_core(format!("{port_map}/{cpa}"), spec);
            let stats = error_stats(&fpm, samples, 42, (0.0, 1.0));
            rows.push(WiringRow { port_map, cpa, stats });
        }
    }
    WiringTable { samples, rows }
}
