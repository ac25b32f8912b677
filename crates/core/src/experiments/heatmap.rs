//! Final-convolution-layer feature maps: paper Figure 16 (Appendix A).
//!
//! For the same trained weights and the same input, compare the final conv
//! layer's feature maps under exact, Ax-FPM, and HEAP multipliers. The paper
//! shows Ax-FPM boosting feature scores and HEAP lowering them.

use da_arith::MultiplierKind;
use da_tensor::Tensor;

use crate::experiments::transfer::with_multiplier;
use crate::{Budget, ModelCache};

/// Feature-map statistics for one multiplier.
#[derive(Debug, Clone)]
pub struct FeatureMapStats {
    /// Multiplier name.
    pub multiplier: String,
    /// Mean activation per output channel of the final conv layer.
    pub channel_means: Vec<f32>,
    /// Mean over all channels.
    pub overall_mean: f32,
}

/// Figure 16: feature-map comparison across multipliers.
#[derive(Debug, Clone)]
pub struct HeatmapReport {
    /// Exact / Ax-FPM / HEAP statistics over the same input.
    pub stats: Vec<FeatureMapStats>,
}

impl HeatmapReport {
    /// Overall-mean ratio of multiplier row `idx` versus the exact row.
    pub fn mean_ratio(&self, idx: usize) -> f32 {
        self.stats[idx].overall_mean / self.stats[0].overall_mean
    }
}

impl std::fmt::Display for HeatmapReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Figure 16: final conv layer feature-map energy per multiplier")?;
        for s in &self.stats {
            write!(f, "  {:<10} mean {:>8.4} | channels:", s.multiplier, s.overall_mean)?;
            for c in &s.channel_means {
                write!(f, " {c:>7.3}")?;
            }
            writeln!(f)?;
        }
        writeln!(
            f,
            "feature-energy ratios vs exact: Ax-FPM {:.3}, HEAP {:.3} (paper: Ax-FPM boosts, HEAP lowers)",
            self.mean_ratio(1),
            self.mean_ratio(2)
        )
    }
}

/// Index of LeNet-5's final convolution layer followed by its ReLU.
const LENET_FINAL_CONV_RELU: usize = 4;

/// **Figure 16** — run on the first correctly classified test digit.
pub fn fig16(cache: &ModelCache, budget: &Budget) -> HeatmapReport {
    let ds = cache.digits_test(10);
    let input = Tensor::stack(&[ds.images.batch_item(0)]);

    let mut stats = Vec::new();
    for (name, kind) in [
        ("Exact", None),
        ("Ax-FPM", Some(MultiplierKind::AxFpm)),
        ("HEAP", Some(MultiplierKind::Heap)),
    ] {
        let net = match kind {
            Some(k) => with_multiplier(cache.lenet(budget), k),
            None => cache.lenet(budget),
        };
        let fmap = net.activation_at(&input, LENET_FINAL_CONV_RELU);
        let (c, h, w) = (fmap.shape()[1], fmap.shape()[2], fmap.shape()[3]);
        let channel_means: Vec<f32> = (0..c)
            .map(|ch| {
                fmap.data()[ch * h * w..(ch + 1) * h * w].iter().sum::<f32>() / (h * w) as f32
            })
            .collect();
        let overall_mean = channel_means.iter().sum::<f32>() / c as f32;
        stats.push(FeatureMapStats { multiplier: name.to_string(), channel_means, overall_mean });
    }
    HeatmapReport { stats }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ax_fpm_highlights_features_relative_to_exact() {
        let cache = ModelCache::new(std::env::temp_dir().join("da-core-heatmap"));
        let report = fig16(&cache, &Budget::smoke());
        assert_eq!(report.stats.len(), 3);
        assert_eq!(report.stats[0].multiplier, "Exact");
        // The paper's Figure-16 observation: Ax-FPM raises feature scores.
        assert!(report.mean_ratio(1) > 1.0, "Ax-FPM ratio {} must exceed 1", report.mean_ratio(1));
        // And HEAP sits closer to exact than Ax-FPM does.
        let heap_dev = (report.mean_ratio(2) - 1.0).abs();
        let ax_dev = (report.mean_ratio(1) - 1.0).abs();
        assert!(heap_dev <= ax_dev + 0.05, "HEAP deviates more than Ax-FPM");
        assert!(report.to_string().contains("Figure 16"));
    }
}
