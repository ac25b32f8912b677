//! Black-box (substitute model) attacks: paper Table 4 / Figure 6.
//!
//! The adversary queries the victim for labels, trains a substitute LeNet-5
//! on those labels, crafts adversarials on the substitute, and replays them
//! on the victim ([`da_attacks::evaluate_transfer`] with the substitute as
//! the source and the victim as the one target). The clean filter conditions
//! on the victim: only images the victim classifies correctly are attacked.
//! The experiment runs the pipeline twice — once against the exact victim,
//! once against the Ax-FPM victim — and compares success rates.

use rand::SeedableRng;

use da_arith::MultiplierKind;
use da_attacks::substitute::{train_substitute, SubstituteConfig};
use da_attacks::{correctly_classified, evaluate_transfer, Attack};
use da_datasets::digits::synth_digits;
use da_nn::zoo::lenet5;
use da_nn::Network;

use crate::experiments::transfer::with_multiplier;
use crate::{Budget, ModelCache};

/// Table 4: black-box success rates against the exact and approximate
/// victims.
#[derive(Debug, Clone)]
pub struct BlackboxTable {
    /// Rows: attack, success on exact victim, success on DA victim.
    pub rows: Vec<BlackboxRow>,
    /// Substitute/victim agreement rates `(exact, approximate)`.
    pub substitute_agreement: (f64, f64),
    /// Images attacked per row.
    pub samples: usize,
}

/// One row of [`BlackboxTable`].
#[derive(Debug, Clone)]
pub struct BlackboxRow {
    /// Attack name.
    pub attack: String,
    /// Victim success rate when the victim is the exact classifier.
    pub exact_rate: f64,
    /// Victim success rate when the victim is the DA classifier.
    pub approx_rate: f64,
}

impl std::fmt::Display for BlackboxTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Table 4: black-box attack success rates (SynthDigits, {} samples/row; substitute agreement exact {:.0}% / DA {:.0}%)",
            self.samples,
            self.substitute_agreement.0 * 100.0,
            self.substitute_agreement.1 * 100.0
        )?;
        writeln!(f, "{:<8} {:>14} {:>20}", "Attack", "Exact LeNet-5", "Approximate LeNet-5")?;
        for row in &self.rows {
            writeln!(
                f,
                "{:<8} {:>13.0}% {:>19.0}%",
                row.attack,
                row.exact_rate * 100.0,
                row.approx_rate * 100.0
            )?;
        }
        Ok(())
    }
}

/// Run the black-box pipeline against one victim; returns the substitute
/// agreement and per-attack victim success rates.
fn pipeline(
    victim: &Network,
    attacks: &[Box<dyn Attack>],
    budget: &Budget,
    seed: u64,
) -> (f64, Vec<f64>) {
    // The adversary's own unlabeled data (a fresh stream — it does not know
    // the victim's training set).
    let queries = synth_digits(budget.substitute_queries, 0xB1AC_C0DE ^ seed);
    let mut substitute = {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        lenet5(10, &mut rng)
    };
    let config =
        SubstituteConfig { epochs: budget.lenet_epochs.max(2), batch_size: 32, lr: 1e-3, seed };
    let agreement = train_substitute(&mut substitute, victim, &queries.images, &config) as f64;

    let eval = synth_digits(budget.transfer_samples.max(10), EVAL_SEED ^ seed);
    let (images, labels) = (&eval.images, &eval.labels);
    // Table 4 conditions on the victim: the images it classifies correctly.
    let attack_set = correctly_classified(victim, images, labels);
    let rates = attacks
        .iter()
        .map(|attack| {
            evaluate_transfer(&**attack, &substitute, &[victim], images, labels, &attack_set)
                .transfer_rate(0)
        })
        .collect();
    (agreement, rates)
}

/// **Table 4** — the full black-box comparison.
pub fn table4(cache: &ModelCache, budget: &Budget) -> BlackboxTable {
    let exact_victim = cache.lenet(budget);
    let approx_victim = with_multiplier(cache.lenet(budget), MultiplierKind::AxFpm);
    let attacks = crate::suites::mnist_suite(4);

    let (agree_exact, exact_rates) = pipeline(&exact_victim, &attacks, budget, 44);
    let (agree_approx, approx_rates) = pipeline(&approx_victim, &attacks, budget, 45);

    BlackboxTable {
        rows: attacks
            .iter()
            .zip(exact_rates.iter().zip(&approx_rates))
            .map(|(a, (&e, &x))| BlackboxRow {
                attack: a.name().to_string(),
                exact_rate: e,
                approx_rate: x,
            })
            .collect(),
        substitute_agreement: (agree_exact, agree_approx),
        samples: budget.transfer_samples.max(10),
    }
}

/// Seed stream for the black-box evaluation images.
const EVAL_SEED: u64 = 0xE7A1_5EED;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_smoke_shape() {
        let cache = ModelCache::new(std::env::temp_dir().join("da-core-blackbox"));
        let table = table4(&cache, &Budget::smoke());
        assert_eq!(table.rows.len(), 8);
        for row in &table.rows {
            assert!((0.0..=1.0).contains(&row.exact_rate));
            assert!((0.0..=1.0).contains(&row.approx_rate));
        }
        assert!(table.to_string().contains("black-box"));
    }
}
