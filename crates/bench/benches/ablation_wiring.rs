//! Ablation: cell port-map (wiring) sensitivity of the AMA5 array.
//!
//! The paper does not publish its AMA5 cell wiring, and its Figure-3
//! inflation depends on that choice. This bench sweeps every input-port permutation of the AMA5
//! cells and reports the resulting multiplier-level error profile — showing
//! that only the canonical wiring reproduces the published characterization,
//! one of the contested aspects of the defense.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use da_arith::array::{ArrayMultiplierSpec, CellAssignment, CpaKind, PortMap};
use da_arith::fpm::FloatMultiplier;
use da_arith::metrics::error_stats;
use da_arith::AdderKind;

fn bench(c: &mut Criterion) {
    println!("\nAblation: AMA5 array wiring sensitivity (20k samples each)");
    println!("{:<22} {:>8} {:>8} {:>11}", "wiring", "MRED", "NMED", "inflation");
    for pm in PortMap::ALL {
        for (cpa_name, cpa) in [
            ("ama5-cpa", CpaKind::Ripple { kind: AdderKind::Ama5, swap: false }),
            ("exact-cpa", CpaKind::Exact),
        ] {
            let spec = ArrayMultiplierSpec {
                width: 24,
                cells: CellAssignment::Uniform(AdderKind::Ama5),
                port_map: pm,
                cpa,
            };
            let fpm = FloatMultiplier::with_core(format!("{pm}/{cpa_name}"), spec);
            let stats = error_stats(&fpm, 20_000, 42, (0.0, 1.0));
            println!(
                "{:<22} {:>8.3} {:>8.3} {:>10.1}%",
                format!("{pm} {cpa_name}"),
                stats.mred,
                stats.nmed,
                stats.inflation_rate * 100.0
            );
        }
    }
    println!("(canonical = 'A=pp,B=sum,C=carry ama5-cpa': ~96-100% inflation, MRED ~0.33-0.39)");

    let canonical = FloatMultiplier::ax_fpm();
    c.bench_function("ablation/canonical_wiring_multiply", |b| {
        b.iter(|| black_box(canonical.multiply_gate_level(black_box(0.61), black_box(0.43))))
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
