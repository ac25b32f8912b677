//! Criterion benches regenerating every table and figure of the paper's
//! evaluation (one bench target per artifact; see `benches/`).
//!
//! Each bench first *prints* the regenerated table/series (so `cargo bench`
//! output doubles as the reproduction record),
//! then times the experiment's core kernel with Criterion.
//!
//! The perf baselines (`gemm_backend_throughput`, `engine_throughput`)
//! additionally honor `DA_BENCH_JSON=<path>`: when set, the printed table is
//! also written as a machine-readable, schema-checked JSON artifact — see
//! [`json`] for the document shape, the `check_bench_json` binary for CI
//! validation, and `DA_BENCH_SMOKE=1` for the reduced smoke configuration.

pub mod json;

use da_core::{Budget, ModelCache};

/// The artifacts directory shared by all benches (workspace-root
/// `artifacts/`, overridable via `DA_ARTIFACTS_DIR`).
pub fn bench_cache() -> ModelCache {
    if std::env::var_os("DA_ARTIFACTS_DIR").is_some() {
        return ModelCache::default_location();
    }
    ModelCache::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../artifacts"))
}

/// The budget benches run with: `DA_BUDGET=paper|quick|smoke` (default
/// `quick`).
pub fn bench_budget() -> Budget {
    match std::env::var("DA_BUDGET").as_deref() {
        Ok("paper") => Budget::paper(),
        Ok("smoke") => Budget::smoke(),
        _ => Budget::quick(),
    }
}
