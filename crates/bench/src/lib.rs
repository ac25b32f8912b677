//! Perf benches and their machine-readable output.
//!
//! The four bench targets in `benches/` time the hot paths:
//! `gemm_backend_throughput` (scalar vs batched multiplier GEMMs, the
//! int8/int4 table GEMMs and the exact f32 micro-kernel),
//! `engine_throughput` (compiled-plan inference and input gradients),
//! `cold_start` (compile vs snapshot load) and `serve_latency` (the batch
//! server under concurrent clients). The paper's tables and figures are
//! printed by the `reproduce` binary, not here.
//!
//! Every bench honors `DA_BENCH_JSON=<path>`: when set, the printed table
//! is also written as a machine-readable, schema-checked JSON artifact —
//! see [`json`] for the document shape, the `check_bench_json` binary for
//! CI validation, and `DA_BENCH_SMOKE=1` for the reduced smoke
//! configuration.

pub mod json;
