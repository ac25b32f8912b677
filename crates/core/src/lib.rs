//! **Defensive Approximation** core: approximate classifiers, the model
//! cache, and one experiment runner per table/figure of the paper's
//! evaluation.
//!
//! The mapping from paper artifact to runner ([`experiments`]):
//!
//! | Paper artifact | Runner |
//! |---|---|
//! | Figure 3 / 13 / 15 | [`experiments::profiles`] |
//! | Figure 4 | [`experiments::fig4`] |
//! | Tables 2 / 3 / 10 | [`experiments::transfer`] |
//! | Table 4 | [`experiments::blackbox`] |
//! | Figures 8–11 | [`experiments::whitebox`] |
//! | Figure 12 | [`experiments::confidence`] |
//! | Table 5 | [`experiments::dq`] |
//! | Tables 6 / 8 | [`experiments::accuracy`] |
//! | Tables 7 / 9 | [`experiments::energy`] |
//! | Figure 16 | [`experiments::heatmap`] |
//!
//! Runners are deterministic in their [`Budget`] and the cache's seeds; the
//! [`ModelCache`] trains each backbone once and reuses the weights.
//!
//! Every runner's inference (accuracy sweeps, attack replay, prediction
//! filtering) routes through `da_nn`'s compiled serving engine: `Network`
//! caches an `InferencePlan` (pre-reshaped weights, fused conv tiles,
//! reused workspaces) behind `logits`/`predict`, bit-identical to the
//! per-layer forward pass.
//!
//! # Example: one Table-2 row in a few lines
//!
//! ```no_run
//! use da_core::{Budget, ModelCache};
//! use da_core::experiments::transfer;
//!
//! let cache = ModelCache::new("artifacts");
//! let budget = Budget::quick();
//! let table = transfer::table2(&cache, &budget);
//! println!("{table}");
//! ```

pub mod budget;
pub mod cache;
pub mod ensemble;
pub mod experiments;
pub mod suites;

pub use budget::Budget;
pub use cache::ModelCache;
