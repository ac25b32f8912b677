//! Defensive Approximation vs Defensive Quantization: paper Table 5 (§7.1).
//!
//! Adversarials crafted on the float (exact) models are replayed on:
//! the DA AlexNet (same weights, Ax-FPM multiplier), the fully quantized DQ
//! ConvNet, and the weight-only quantized DQ ConvNet. DQ adversarials are
//! crafted on the float DQ ConvNet (the deterministic reverse-engineerable
//! surrogate the paper's discussion assumes). Each row is two
//! [`da_attacks::evaluate_transfer`] calls, exact AlexNet → DA and float
//! DQ → (full, weight-only), and each clean filter conditions on its own
//! source: the exact AlexNet or the float DQ ConvNet.

use da_arith::MultiplierKind;
use da_attacks::{correctly_classified, evaluate_transfer};
use da_nn::zoo::DqMode;

use crate::experiments::transfer::with_multiplier;
use crate::{Budget, ModelCache};

/// One row of the DA-vs-DQ comparison.
#[derive(Debug, Clone)]
pub struct DqRow {
    /// Attack name.
    pub attack: String,
    /// Success on the float source models (the "Exact" column).
    pub exact_rate: f64,
    /// Transfer to the DA AlexNet.
    pub da_rate: f64,
    /// Transfer to the fully quantized DQ ConvNet.
    pub dq_full_rate: f64,
    /// Transfer to the weight-only quantized DQ ConvNet.
    pub dq_weight_rate: f64,
}

/// Table 5: DA vs DQ transferability.
#[derive(Debug, Clone)]
pub struct DqTable {
    /// One row per attack (FGSM, PGD, C&W).
    pub rows: Vec<DqRow>,
    /// Images attacked per row.
    pub samples: usize,
}

impl DqTable {
    /// Mean DA and DQ-full transfer rates — the paper's "DA is almost two
    /// times more robust" claim compares these.
    pub fn mean_rates(&self) -> (f64, f64) {
        let n = self.rows.len().max(1) as f64;
        (
            self.rows.iter().map(|r| r.da_rate).sum::<f64>() / n,
            self.rows.iter().map(|r| r.dq_full_rate).sum::<f64>() / n,
        )
    }
}

impl std::fmt::Display for DqTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Table 5: DA vs DQ transferability (SynthObjects, {} samples/row)",
            self.samples
        )?;
        writeln!(
            f,
            "{:<8} {:>8} {:>8} {:>10} {:>14}",
            "Attack", "Exact", "DA", "DQ: Full", "DQ: Weight-only"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<8} {:>7.0}% {:>7.0}% {:>9.0}% {:>13.0}%",
                r.attack,
                r.exact_rate * 100.0,
                r.da_rate * 100.0,
                r.dq_full_rate * 100.0,
                r.dq_weight_rate * 100.0
            )?;
        }
        let (da, dq) = self.mean_rates();
        writeln!(
            f,
            "mean transfer: DA {:.0}% vs DQ-full {:.0}% (paper: DA ~2x more robust)",
            da * 100.0,
            dq * 100.0
        )
    }
}

/// **Table 5** runner.
pub fn table5(cache: &ModelCache, budget: &Budget) -> DqTable {
    let alexnet = cache.alexnet(budget);
    let da = with_multiplier(cache.alexnet(budget), MultiplierKind::AxFpm);
    let dq_float = cache.dq_convnet(budget, DqMode::Float);
    let dq_full = cache.dq_convnet(budget, DqMode::Full);
    let dq_weight = cache.dq_convnet(budget, DqMode::WeightOnly);

    let ds = cache.objects_test(budget.transfer_samples.max(10) * 2);
    let eval = ds.balanced_subset((budget.transfer_samples / ds.classes).max(1));
    let (images, labels) = (&eval.images, &eval.labels);
    // Each path's clean filter conditions on its own source.
    let exact_set = correctly_classified(&alexnet, images, labels);
    let dq_set = correctly_classified(&dq_float, images, labels);

    let rows = crate::suites::dq_suite(5)
        .iter()
        .map(|attack| {
            // DA path: craft on exact AlexNet, replay on the DA AlexNet.
            let da_path =
                evaluate_transfer(&**attack, &alexnet, &[&da], images, labels, &exact_set);
            // DQ path: craft on the float DQ ConvNet, replay on quantized.
            let dq_path = evaluate_transfer(
                &**attack,
                &dq_float,
                &[&dq_full, &dq_weight],
                images,
                labels,
                &dq_set,
            );
            DqRow {
                attack: attack.name().to_string(),
                exact_rate: da_path.source_rate(),
                da_rate: da_path.transfer_rate(0),
                dq_full_rate: dq_path.transfer_rate(0),
                dq_weight_rate: dq_path.transfer_rate(1),
            }
        })
        .collect();
    DqTable { rows, samples: eval.len() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_smoke_shape() {
        let cache = ModelCache::new(std::env::temp_dir().join("da-core-dq"));
        let table = table5(&cache, &Budget::smoke());
        assert_eq!(table.rows.len(), 3);
        for r in &table.rows {
            for v in [r.exact_rate, r.da_rate, r.dq_full_rate, r.dq_weight_rate] {
                assert!((0.0..=1.0).contains(&v));
            }
        }
        assert!(table.to_string().contains("Table 5"));
    }
}
