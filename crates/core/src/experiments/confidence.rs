//! Classification-confidence distribution: paper Figure 12 (§6).
//!
//! Confidence is `C = p[true] − max_{j≠true} p[j]` over clean inputs. The
//! paper observes that DA shifts the confidence CDF right: 74.5% of images
//! exceed 0.8 confidence under DA versus <20% under the exact classifier.

use da_arith::MultiplierKind;
use da_attacks::TargetModel;
use da_nn::loss::confidence;
use da_nn::Network;

use crate::experiments::transfer::with_multiplier;
use crate::{Budget, ModelCache};

/// Confidence samples for exact and DA classifiers over the same inputs.
#[derive(Debug, Clone)]
pub struct ConfidenceCdf {
    /// Per-image confidence under the exact classifier.
    pub exact: Vec<f32>,
    /// Per-image confidence under the DA classifier.
    pub approx: Vec<f32>,
}

impl ConfidenceCdf {
    /// Fraction of samples with confidence at least `threshold`.
    pub fn fraction_above(values: &[f32], threshold: f32) -> f64 {
        if values.is_empty() {
            return 0.0;
        }
        values.iter().filter(|&&c| c >= threshold).count() as f64 / values.len() as f64
    }

    /// Cumulative distribution `P(C <= level)` sampled at `points` equally
    /// spaced confidence levels in `[-1, 1]`, as `(level, exact_cdf,
    /// approx_cdf)` triples.
    pub fn cdf(&self, points: usize) -> Vec<(f32, f64, f64)> {
        let at_most = |values: &[f32], level: f32| {
            values.iter().filter(|&&c| c <= level).count() as f64 / values.len().max(1) as f64
        };
        (0..=points)
            .map(|i| {
                let level = -1.0 + 2.0 * i as f32 / points as f32;
                (level, at_most(&self.exact, level), at_most(&self.approx, level))
            })
            .collect()
    }
}

impl std::fmt::Display for ConfidenceCdf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Figure 12: confidence distribution ({} samples)", self.exact.len())?;
        writeln!(
            f,
            "  fraction with C >= 0.8:  exact {:.1}%   DA {:.1}%  (paper: <20% vs 74.5%)",
            Self::fraction_above(&self.exact, 0.8) * 100.0,
            Self::fraction_above(&self.approx, 0.8) * 100.0
        )?;
        // Confidence never exceeds 1, so `C >= 1` is a saturated softmax.
        writeln!(
            f,
            "  fraction with C = 1.0:   exact {:.1}%   DA {:.1}%",
            Self::fraction_above(&self.exact, 1.0) * 100.0,
            Self::fraction_above(&self.approx, 1.0) * 100.0
        )?;
        writeln!(f, "  {:>10} {:>12} {:>12}", "C", "CDF exact", "CDF approx")?;
        for (level, e, a) in self.cdf(10) {
            writeln!(f, "  {level:>10.1} {e:>12.3} {a:>12.3}")?;
        }
        Ok(())
    }
}

fn confidences(model: &Network, images: &da_tensor::Tensor, labels: &[usize]) -> Vec<f32> {
    (0..labels.len())
        .map(|i| {
            let probs = TargetModel::probabilities(model, &images.batch_item(i));
            confidence(&probs, labels[i])
        })
        .collect()
}

/// **Figure 12** — the confidence CDF comparison on balanced clean samples.
pub fn fig12(cache: &ModelCache, budget: &Budget) -> ConfidenceCdf {
    let exact = cache.lenet(budget);
    let approx = with_multiplier(cache.lenet(budget), MultiplierKind::AxFpm);
    let ds = cache.digits_test(budget.confidence_samples.max(10) * 2);
    let eval = ds.balanced_subset((budget.confidence_samples / 10).max(1));
    ConfidenceCdf {
        exact: confidences(&exact, &eval.images, &eval.labels),
        approx: confidences(&approx, &eval.images, &eval.labels),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig12_smoke_confidences_are_valid() {
        let cache = ModelCache::new(std::env::temp_dir().join("da-core-confidence"));
        let cdf = fig12(&cache, &Budget::smoke());
        assert_eq!(cdf.exact.len(), cdf.approx.len());
        assert!(!cdf.exact.is_empty());
        for &c in cdf.exact.iter().chain(&cdf.approx) {
            assert!((-1.0..=1.0).contains(&c), "confidence {c} out of range");
        }
        // CDF endpoints.
        let pts = cdf.cdf(4);
        assert!(pts.first().expect("points").1 <= pts.last().expect("points").1 + 1e-9);
        assert!((pts.last().expect("points").1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cdf_counts_saturated_confidence_at_one() {
        let cdf = ConfidenceCdf { exact: vec![0.5, 1.0, 1.0, 1.0], approx: vec![1.0; 4] };
        let pts = cdf.cdf(10);
        assert_eq!(pts.last().copied(), Some((1.0, 1.0, 1.0)));
        let (level, e, a) = pts[8];
        assert!((level - 0.6).abs() < 1e-6);
        assert_eq!((e, a), (0.25, 0.0));
        assert!(cdf.to_string().contains("fraction with C = 1.0:   exact 75.0%   DA 100.0%"));
    }

    #[test]
    fn fraction_above_is_monotone() {
        let vals = [0.1f32, 0.5, 0.9];
        assert!(
            ConfidenceCdf::fraction_above(&vals, 0.0) >= ConfidenceCdf::fraction_above(&vals, 0.6)
        );
        assert_eq!(ConfidenceCdf::fraction_above(&vals, 0.95), 0.0);
    }
}
