//! Transferability experiments: paper Tables 2, 3, and 10.
//!
//! Protocol (Figure 5, [`da_attacks::evaluate_transfer`]): craft adversarial
//! examples against the *exact* classifier, then replay each successful one
//! against approximate targets that share the same weights and architecture
//! but different multipliers. The clean filter conditions on the source:
//! only images the exact classifier gets right are attacked.

use std::sync::Arc;

use da_arith::MultiplierKind;
use da_attacks::{
    correctly_classified, evaluate_transfer, Attack, ServedModel, TargetModel, TransferReport,
};
use da_datasets::Dataset;
use da_nn::Network;

use crate::{Budget, ModelCache};

/// A transferability table: one row per attack, one success-rate column per
/// target model.
#[derive(Debug, Clone)]
pub struct TransferTable {
    /// Table title (e.g. `"Table 2: ..."`).
    pub title: String,
    /// Target-column names.
    pub targets: Vec<String>,
    /// One report per attack, with one success count per target column.
    pub rows: Vec<TransferReport>,
    /// Images attacked per row.
    pub samples: usize,
}

impl std::fmt::Display for TransferTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{} ({} samples/row)", self.title, self.samples)?;
        write!(f, "{:<8} {:>10}", "Attack", "Exact")?;
        for t in &self.targets {
            write!(f, " {t:>14}")?;
        }
        writeln!(f)?;
        for row in &self.rows {
            write!(f, "{:<8} {:>9.0}%", row.attack, row.source_rate() * 100.0)?;
            for t in 0..self.targets.len() {
                write!(f, " {:>13.0}%", row.transfer_rate(t) * 100.0)?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

impl TransferTable {
    /// Mean transfer rate for target column `idx` — the paper's headline
    /// "average robustness improvement" is `1 − this`.
    pub fn mean_transfer_rate(&self, idx: usize) -> f64 {
        let n = self.rows.len().max(1) as f64;
        self.rows.iter().map(|r| r.transfer_rate(idx)).sum::<f64>() / n
    }
}

/// Craft adversarials on `source` and replay on every target (each sharing
/// the source's weights, differing in multiplier).
///
/// All decision queries — the clean filter, per-step attack queries, and
/// the batched replays — route through `da_nn::serve` batch servers
/// ([`ServedModel`], one per model) when the layer stacks compile; this is
/// the same cross-request micro-batching path production serving uses, and
/// it is bit-identical to direct inference, so the table's numbers do not
/// depend on the routing. Uncompilable stacks fall back to the per-layer
/// path.
pub fn multi_target_transfer(
    title: impl Into<String>,
    attacks: &[Box<dyn Attack>],
    source: &Network,
    targets: &[(String, &Network)],
    dataset: &Dataset,
    samples: usize,
) -> TransferTable {
    let eval = dataset.balanced_subset((samples / dataset.classes).max(1));
    let served_source = ServedModel::new(source);
    let served_targets: Vec<_> = targets.iter().map(|(_, net)| ServedModel::new(net)).collect();
    let source_model = served_or_direct(&served_source, source);
    let target_models: Vec<&dyn TargetModel> =
        served_targets.iter().zip(targets).map(|(s, (_, net))| served_or_direct(s, net)).collect();

    let (images, labels) = (&eval.images, &eval.labels);
    // One batched clean-filter pass on the source; identical for every row.
    let attack_set = correctly_classified(source_model, images, labels);
    let rows = attacks
        .iter()
        .map(|a| evaluate_transfer(&**a, source_model, &target_models, images, labels, &attack_set))
        .collect();
    TransferTable {
        title: title.into(),
        targets: targets.iter().map(|(n, _)| n.clone()).collect(),
        rows,
        samples: eval.len(),
    }
}

/// The served model when the layer stack compiled, else the network itself.
fn served_or_direct<'a>(served: &'a Option<ServedModel>, net: &'a Network) -> &'a dyn TargetModel {
    match served {
        Some(s) => s,
        None => net,
    }
}

/// A cached backbone re-instantiated with an approximate multiplier.
pub fn with_multiplier(mut net: Network, kind: MultiplierKind) -> Network {
    let m: Arc<dyn da_arith::Multiplier> = kind.build();
    net.set_multiplier(Some(m));
    net
}

/// **Table 2** — attack transferability, exact LeNet-5 → Ax-FPM LeNet-5 on
/// SynthDigits.
pub fn table2(cache: &ModelCache, budget: &Budget) -> TransferTable {
    let source = cache.lenet(budget);
    let target = with_multiplier(cache.lenet(budget), MultiplierKind::AxFpm);
    let ds = cache.digits_test(budget.transfer_samples.max(10) * 2);
    multi_target_transfer(
        "Table 2: attack transferability success rates (SynthDigits / LeNet-5)",
        &crate::suites::mnist_suite(2),
        &source,
        &[("Approximate".to_string(), &target)],
        &ds,
        budget.transfer_samples,
    )
}

/// **Table 3** — attack transferability, exact AlexNet → Ax-FPM AlexNet on
/// SynthObjects.
pub fn table3(cache: &ModelCache, budget: &Budget) -> TransferTable {
    let source = cache.alexnet(budget);
    let target = with_multiplier(cache.alexnet(budget), MultiplierKind::AxFpm);
    let ds = cache.objects_test(budget.transfer_samples.max(10) * 2);
    multi_target_transfer(
        "Table 3: attack transferability success rates (SynthObjects / AlexNet)",
        &crate::suites::cifar_suite(3),
        &source,
        &[("Approximate".to_string(), &target)],
        &ds,
        budget.transfer_samples,
    )
}

/// **Table 10** — transferability of exact-LeNet adversarials to HEAP-based
/// and Ax-FPM-based LeNet-5 (Appendix A).
pub fn table10(cache: &ModelCache, budget: &Budget) -> TransferTable {
    let source = cache.lenet(budget);
    let heap = with_multiplier(cache.lenet(budget), MultiplierKind::Heap);
    let ax = with_multiplier(cache.lenet(budget), MultiplierKind::AxFpm);
    let ds = cache.digits_test(budget.transfer_samples.max(10) * 2);
    multi_target_transfer(
        "Table 10: attack transferability, HEAP-based vs Ax-FPM-based (SynthDigits)",
        &crate::suites::mnist_suite(10),
        &source,
        &[("HEAP-based".to_string(), &heap), ("Ax-FPM-based".to_string(), &ax)],
        &ds,
        budget.transfer_samples,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(tag: &str) -> ModelCache {
        ModelCache::new(std::env::temp_dir().join(format!("da-core-transfer-{tag}")))
    }

    #[test]
    fn table2_smoke_has_paper_shape() {
        let table = table2(&cache("t2"), &Budget::smoke());
        assert_eq!(table.rows.len(), 8);
        assert_eq!(table.targets, ["Approximate"]);
        for row in &table.rows {
            assert!(
                row.transfer_rate(0) <= row.source_rate() + 1e-9,
                "{}: transfer cannot exceed source",
                row.attack
            );
        }
        // The defense's core claim, in aggregate: most adversarials do not
        // transfer to the approximate classifier.
        assert!(
            table.mean_transfer_rate(0) < 0.8,
            "mean transfer {} too high",
            table.mean_transfer_rate(0)
        );
        let rendered = table.to_string();
        assert!(rendered.contains("FGSM") && rendered.contains("HSJ"), "{rendered}");
    }

    #[test]
    fn with_multiplier_installs_the_kind() {
        let net = with_multiplier(cache("wm").lenet(&Budget::smoke()), MultiplierKind::Heap);
        assert_eq!(net.multiplier().map(|m| m.name()), Some("heap"));
    }
}
