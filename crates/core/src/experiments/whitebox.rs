//! White-box attacks on the approximate classifier itself: paper Figures
//! 8–11 (§5.3).
//!
//! The attacker has full knowledge of the DA classifier, including its
//! approximate gradients (BPDA/straight-through, crate docs of `da-nn`).
//! Robustness here means a higher perturbation *price*: the L2 / MSE / PSNR
//! of successful adversarials against DA versus the exact classifier. Each
//! series is one [`da_attacks::evaluate_transfer`] call with the attacked
//! model as the source and no targets; the clean filter conditions on that
//! model.

use da_arith::MultiplierKind;
use da_attacks::gradient::{CarliniWagnerL2, DeepFool};
use da_attacks::{correctly_classified, evaluate_transfer, metrics, Attack, TransferReport};
use da_nn::Network;
use da_tensor::Tensor;

use crate::experiments::transfer::with_multiplier;
use crate::{Budget, ModelCache};

/// Per-sample perturbation measurements for one attack against one model.
#[derive(Debug, Clone, Default)]
pub struct PerturbationSeries {
    /// L2 distances of successful adversarials (Figures 8/9 bars).
    pub l2: Vec<f64>,
    /// MSE of successful adversarials (Figures 10/11).
    pub mse: Vec<f64>,
    /// PSNR (dB) of successful adversarials (Figures 10/11).
    pub psnr: Vec<f64>,
    /// Samples where the attack failed to find an adversarial.
    pub failures: usize,
}

impl PerturbationSeries {
    /// The price of `report`'s source-fooling adversarials; `images` are the
    /// clean images its outcome indices point into.
    fn of(report: &TransferReport, images: &Tensor) -> Self {
        let mut series = PerturbationSeries {
            failures: report.attempted - report.source_successes,
            ..Self::default()
        };
        for o in report.outcomes.iter().filter(|o| o.fooled_source) {
            let x = images.batch_item(o.index);
            series.l2.push(o.l2);
            series.mse.push(metrics::mse(&o.adversarial, &x));
            series.psnr.push(metrics::psnr(&o.adversarial, &x));
        }
        series
    }

    fn mean(values: &[f64]) -> f64 {
        if values.is_empty() {
            f64::NAN
        } else {
            values.iter().sum::<f64>() / values.len() as f64
        }
    }

    /// Mean L2 over successful samples.
    pub fn mean_l2(&self) -> f64 {
        Self::mean(&self.l2)
    }

    /// Mean MSE over successful samples.
    pub fn mean_mse(&self) -> f64 {
        Self::mean(&self.mse)
    }

    /// Mean PSNR over successful samples.
    pub fn mean_psnr(&self) -> f64 {
        Self::mean(&self.psnr)
    }
}

/// Figures 8–11 for one attack: exact-model series vs DA-model series.
#[derive(Debug, Clone)]
pub struct WhiteboxReport {
    /// Attack name ("C&W" or "DF").
    pub attack: String,
    /// Measurements against the exact classifier.
    pub exact: PerturbationSeries,
    /// Measurements against the DA classifier (BPDA gradients).
    pub approx: PerturbationSeries,
}

impl WhiteboxReport {
    /// Mean extra L2 the attacker pays against DA (paper: 5.12 for DF, 1.23
    /// for C&W).
    pub fn l2_gap(&self) -> f64 {
        self.approx.mean_l2() - self.exact.mean_l2()
    }

    /// PSNR degradation in dB (paper: ~4 dB C&W, ~7.8 dB DF).
    pub fn psnr_drop(&self) -> f64 {
        self.exact.mean_psnr() - self.approx.mean_psnr()
    }

    /// MSE ratio approx/exact (paper: ~6× C&W, ~3× DF).
    pub fn mse_ratio(&self) -> f64 {
        self.approx.mean_mse() / self.exact.mean_mse()
    }
}

impl std::fmt::Display for WhiteboxReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "White-box {} (Figures 8-11): {} exact / {} DA successes",
            self.attack,
            self.exact.l2.len(),
            self.approx.l2.len()
        )?;
        writeln!(
            f,
            "  mean L2    exact {:>7.3}   DA {:>7.3}   (gap {:+.3})",
            self.exact.mean_l2(),
            self.approx.mean_l2(),
            self.l2_gap()
        )?;
        writeln!(
            f,
            "  mean MSE   exact {:>7.5}  DA {:>7.5}  (ratio {:.2}x)",
            self.exact.mean_mse(),
            self.approx.mean_mse(),
            self.mse_ratio()
        )?;
        writeln!(
            f,
            "  mean PSNR  exact {:>6.2} dB  DA {:>6.2} dB  (drop {:.2} dB)",
            self.exact.mean_psnr(),
            self.approx.mean_psnr(),
            self.psnr_drop()
        )
    }
}

/// Run one white-box attack against both classifiers.
pub fn whitebox_report(attack: &dyn Attack, cache: &ModelCache, budget: &Budget) -> WhiteboxReport {
    let exact = cache.lenet(budget);
    let approx = with_multiplier(cache.lenet(budget), MultiplierKind::AxFpm);
    let ds = cache.digits_test(budget.whitebox_samples.max(2) * 2);
    let eval = ds.balanced_subset((budget.whitebox_samples / 10).max(1));
    let (images, labels) = (&eval.images, &eval.labels);
    // The attacked model is the source, with no targets; its clean filter
    // conditions on itself.
    let series = |model: &Network| {
        let attack_set = correctly_classified(model, images, labels);
        let report = evaluate_transfer(attack, model, &[], images, labels, &attack_set);
        PerturbationSeries::of(&report, images)
    };

    WhiteboxReport {
        attack: attack.name().to_string(),
        exact: series(&exact),
        approx: series(&approx),
    }
}

/// **Figures 8 & 10** — DeepFool against exact vs DA.
pub fn fig8_fig10(cache: &ModelCache, budget: &Budget) -> WhiteboxReport {
    whitebox_report(&DeepFool::new(40, 0.02), cache, budget)
}

/// **Figures 9 & 11** — C&W-L2 against exact vs DA.
pub fn fig9_fig11(cache: &ModelCache, budget: &Budget) -> WhiteboxReport {
    whitebox_report(&CarliniWagnerL2::standard(), cache, budget)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deepfool_whitebox_smoke() {
        let cache = ModelCache::new(std::env::temp_dir().join("da-core-whitebox"));
        let report = fig8_fig10(&cache, &Budget::smoke());
        assert!(!report.exact.l2.is_empty(), "DeepFool must fool the exact model");
        for &d in &report.exact.l2 {
            assert!(d > 0.0 && d.is_finite());
        }
        let text = report.to_string();
        assert!(text.contains("mean L2") && text.contains("PSNR"), "{text}");
    }
}
