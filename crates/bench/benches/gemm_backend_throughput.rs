//! GEMM backend throughput: the seed's per-scalar dyn-dispatch path vs the
//! batched slice-kernel backend, in MACs/s — plus the **int8 LUT-gather
//! GEMM** (`da_arith::quantized::lut_gemm`) per multiplier kind. Every
//! printed row names its baseline in the `baseline` column:
//!
//! * `<kind>` rows time the batched f32 GEMM against `scalar-dyn`, the
//!   seed's one-virtual-call-per-MAC loop.
//! * `heap-bitslice` times the batch kernel's `gemm_tile` over the whole
//!   weight block (8×64-wide plane sweeps) against `heap batched`, the
//!   blocked f32 GEMM's per-operand `axpy` sweeps.
//! * `<kind>-int8` rows time the int8 gather against `<kind> batched`: the
//!   product table absorbs the whole hardware model, so the gather runs at
//!   one speed for every kind.
//! * `<kind>-int4` rows time the same `lut_gemm` over a 256×16 table (int4
//!   weight codes, so the lookup is an in-register shuffle) against
//!   `<kind>-int8`, the int8 gather on the same shape.
//! * `native-exact` rows time `da_tensor::ops::matmul` (the exact f32
//!   micro-kernel `gemm_acc` that native plans, the conv input gradient and
//!   training run on) against `exact batched`, the batched GEMM through the
//!   exact multiplier's kernel, at 64³, 256³ and LeNet-5 conv2's
//!   16×150×64.
//!
//! This is the perf baseline for future scaling PRs (SIMD, quantized int
//! paths, sharding): run `cargo bench --bench gemm_backend_throughput` and
//! compare the printed table. Sizes follow the issue spec: 64×64×64 and
//! 256×256×256. The scalar baseline for HEAP at 256³ simulates ~16.8M
//! gate-level multiplies and is skipped unless `DA_BENCH_FULL=1`.
//!
//! Each row reports the median of repeated timed calls: a row repeats until
//! [`ROW_BUDGET`] of wall time has elapsed, and at least [`MIN_REPS`] times,
//! so sub-millisecond calls get enough samples to be stable run to run.
//!
//! `DA_BENCH_JSON=<path>` additionally writes the table as a
//! machine-readable document (see [`da_bench::json`]); `DA_BENCH_SMOKE=1`
//! restricts the run to 64³ with one timed rep (CI's emit-and-schema-check
//! smoke job).

use std::time::{Duration, Instant};

use da_arith::quantized::{lut_gemm, ProductLut, QuantParams, CODES4};
use da_arith::{classify_row, MultiplierKind, RowClass};
use da_bench::json::{JsonEmitter, Record};
use da_nn::layers::{gemm_with, matmul_with_scalar};
use da_tensor::ops::matmul;
use da_tensor::Tensor;
use rand::SeedableRng;

/// Wall time each timed row repeats for (outside smoke mode).
const ROW_BUDGET: Duration = Duration::from_millis(250);
/// Fewest timed calls per row (outside smoke mode), however slow the call.
const MIN_REPS: usize = 3;

/// Time `f` after one warmup and return MACs/s of the median call: one call
/// in smoke mode, else calls until [`ROW_BUDGET`] has elapsed and at least
/// [`MIN_REPS`] have run.
fn macs_per_sec(macs: usize, smoke: bool, mut f: impl FnMut() -> Tensor) -> f64 {
    let _warmup = f();
    let row_start = Instant::now();
    let mut times = Vec::new();
    while times.is_empty()
        || (!smoke && (times.len() < MIN_REPS || row_start.elapsed() < ROW_BUDGET))
    {
        let start = Instant::now();
        let out = f();
        times.push(start.elapsed().as_secs_f64());
        std::hint::black_box(out);
    }
    times.sort_by(f64::total_cmp);
    macs as f64 / times[times.len() / 2]
}

fn human(rate: f64) -> String {
    if rate >= 1e9 {
        format!("{:.2} GMAC/s", rate / 1e9)
    } else if rate >= 1e6 {
        format!("{:.2} MMAC/s", rate / 1e6)
    } else {
        format!("{:.1} kMAC/s", rate / 1e3)
    }
}

fn main() {
    let full = std::env::var_os("DA_BENCH_FULL").is_some();
    let smoke = std::env::var_os("DA_BENCH_SMOKE").is_some();
    let mut emitter = JsonEmitter::from_env("gemm_backend_throughput");
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);

    println!("GEMM backend throughput (MACs/s, higher is better; speedup = rate / baseline)");
    println!();
    println!(
        "{:<12} {:<15} {:<18} {:>16} {:>16} {:>9}",
        "size", "row", "baseline", "baseline-rate", "rate", "speedup"
    );

    let sizes: &[(usize, usize, usize)] =
        if smoke { &[(64, 64, 64)] } else { &[(64, 64, 64), (256, 256, 256)] };
    for &(m, k, n) in sizes {
        let macs = m * k * n;
        let a = Tensor::rand_uniform(&[m, k], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[k, n], -1.0, 1.0, &mut rng);

        // Int8 LUT-gather GEMM: code matrices for the same shape, quantized
        // over the operand ranges (the per-kind product table is built from
        // the actual multiplier, so this is the quantized serving path's
        // inner loop).
        let aq_params = QuantParams::from_range(-1.0, 1.0);
        let bq_params = QuantParams::from_range(-1.0, 1.0);
        let mut qa_codes = vec![0u8; m * k];
        aq_params.quantize_slice(a.data(), &mut qa_codes);
        let mut qb_codes = vec![0u8; k * n];
        bq_params.quantize_slice(b.data(), &mut qb_codes);

        // Int4 weight codes for the in-register shuffle GEMM: activations
        // keep their u8 codes, the weight operand drops to 16 codes so the
        // 256×16 product table fits in registers (4 rows of 16 lanes).
        let b4_params = QuantParams::from_range_codes(-1.0, 1.0, CODES4);
        let mut qb4_codes = vec![0u8; k * n];
        b4_params.quantize_slice(b.data(), &mut qb4_codes);

        for kind in MultiplierKind::ALL {
            let mult = kind.build();
            // Gate-level HEAP at 256³ needs minutes per scalar run.
            let scalar_feasible = full || kind != MultiplierKind::Heap || macs <= 1 << 19;

            let batched = macs_per_sec(macs, smoke, || gemm_with(&*mult, &a, &b));
            let scalar = if scalar_feasible {
                Some(macs_per_sec(macs, smoke, || matmul_with_scalar(&*mult, &a, &b)))
            } else {
                None
            };
            let size = format!("{m}x{k}x{n}");
            let batched_name = format!("{} batched", kind.as_str());
            print_row(&size, kind.as_str(), "scalar-dyn", scalar, batched);
            emit_row(&mut emitter, &size, kind.as_str(), scalar, batched);

            if kind == MultiplierKind::Heap {
                // GEMM through the kernel's tile entry point over all `m`
                // rows: cores without a closed form run on
                // `da_arith::BitslicedArray` with eight 64-lane sub-blocks
                // per plane sweep (one per weight of a run of eight). The
                // batched row above runs the same plane sweep one shared
                // operand at a time.
                let bd = b.data();
                let class = bd.chunks(n).map(classify_row).max().unwrap_or(RowClass::Normal);
                let mut kernel = mult.batch_kernel();
                let mut acc_bs = vec![0.0f32; m * n];
                let bitslice_rate = macs_per_sec(macs, smoke, || {
                    acc_bs.fill(0.0);
                    kernel.gemm_tile(a.data(), bd, n, class, &mut acc_bs, n);
                    std::hint::black_box(acc_bs[0]);
                    Tensor::zeros(&[1])
                });
                print_row(&size, "heap-bitslice", &batched_name, Some(batched), bitslice_rate);
                let mut r = Record::new()
                    .label("size", size.as_str())
                    .label("multiplier", kind.as_str())
                    .label("path", "bitslice")
                    .metric("bitslice_macs_per_sec", bitslice_rate)
                    .metric("batched_f32_macs_per_sec", batched)
                    .metric("speedup_vs_batched_f32", bitslice_rate / batched);
                if let Some(s) = scalar {
                    r = r
                        .metric("scalar_macs_per_sec", s)
                        .metric("speedup_vs_scalar", bitslice_rate / s);
                }
                emitter.record(r);
            }

            // The int8 LUT-gather row: one table build per kind, then a
            // pure gather GEMM — the same speed for every multiplier (the
            // hardware model lives entirely in the table).
            let lut = ProductLut::build(&*mult, aq_params, bq_params);
            let mut acc = vec![0.0f32; m * n];
            let lut_rate = macs_per_sec(macs, smoke, || {
                acc.fill(0.0);
                lut_gemm(&lut, &qa_codes, m, k, &qb_codes, n, &mut acc, n);
                std::hint::black_box(acc[0]);
                Tensor::zeros(&[1])
            });
            let int8_name = format!("{}-int8", kind.as_str());
            print_row(&size, &int8_name, &batched_name, Some(batched), lut_rate);
            emitter.record(
                Record::new()
                    .label("size", size.as_str())
                    .label("multiplier", kind.as_str())
                    .label("path", "int8-lut")
                    .metric("lut_macs_per_sec", lut_rate)
                    .metric("batched_f32_macs_per_sec", batched)
                    .metric("speedup_vs_batched_f32", lut_rate / batched),
            );

            // The int4 in-register shuffle row: the weight operand narrows
            // to 16 codes, turning the hardware gather into a permute of
            // four register-resident table rows. The point of comparison is
            // the int8 gather rate on the same shape — same table semantics,
            // cheaper indexing.
            let lut4 = ProductLut::build(&*mult, aq_params, b4_params);
            let mut acc4 = vec![0.0f32; m * n];
            let lut4_rate = macs_per_sec(macs, smoke, || {
                acc4.fill(0.0);
                lut_gemm(&lut4, &qa_codes, m, k, &qb4_codes, n, &mut acc4, n);
                std::hint::black_box(acc4[0]);
                Tensor::zeros(&[1])
            });
            let int4_name = format!("{}-int4", kind.as_str());
            print_row(&size, &int4_name, &int8_name, Some(lut_rate), lut4_rate);
            emitter.record(
                Record::new()
                    .label("size", size.as_str())
                    .label("multiplier", kind.as_str())
                    .label("path", "int4-shuffle")
                    .metric("lut4_macs_per_sec", lut4_rate)
                    .metric("int8_lut_macs_per_sec", lut_rate)
                    .metric("speedup_vs_int8_gather", lut4_rate / lut_rate)
                    .metric("batched_f32_macs_per_sec", batched)
                    .metric("speedup_vs_batched_f32", lut4_rate / batched),
            );
        }
        println!();
    }

    // The exact f32 micro-kernel every native GEMM runs on.
    let exact_mult = MultiplierKind::Exact.build();
    let exact_sizes: &[(usize, usize, usize)] = if smoke {
        &[(64, 64, 64), (16, 150, 64)]
    } else {
        &[(64, 64, 64), (256, 256, 256), (16, 150, 64)]
    };
    for &(m, k, n) in exact_sizes {
        let macs = m * k * n;
        let a = Tensor::rand_uniform(&[m, k], -1.0, 1.0, &mut rng);
        let b = Tensor::rand_uniform(&[k, n], -1.0, 1.0, &mut rng);
        let batched = macs_per_sec(macs, smoke, || gemm_with(&*exact_mult, &a, &b));
        let exact = macs_per_sec(macs, smoke, || matmul(&a, &b));
        let size = format!("{m}x{k}x{n}");
        print_row(&size, "native-exact", "exact batched", Some(batched), exact);
        emitter.record(
            Record::new()
                .label("size", size.as_str())
                .label("multiplier", "exact")
                .label("path", "native-exact")
                .metric("matmul_macs_per_sec", exact)
                .metric("batched_f32_macs_per_sec", batched)
                .metric("speedup_vs_batched_f32", exact / batched),
        );
    }
    println!();
    if let Some(path) = emitter.finish() {
        println!("wrote {}", path.display());
    }
}

fn emit_row(emitter: &mut JsonEmitter, size: &str, kind: &str, scalar: Option<f64>, batched: f64) {
    let mut r = Record::new()
        .label("size", size)
        .label("multiplier", kind)
        .metric("batched_macs_per_sec", batched);
    if let Some(s) = scalar {
        r = r.metric("scalar_macs_per_sec", s).metric("speedup", batched / s);
    }
    emitter.record(r);
}

/// One table row: `rate` against the named `baseline` (`None` when the
/// baseline run was skipped).
fn print_row(size: &str, row: &str, baseline: &str, base_rate: Option<f64>, rate: f64) {
    let (base, speedup) = match base_rate {
        Some(b) => (human(b), format!("{:.1}x", rate / b)),
        None => ("(skipped)".to_string(), "-".to_string()),
    };
    println!(
        "{:<12} {:<15} {:<18} {:>16} {:>16} {:>9}",
        size,
        row,
        baseline,
        base,
        human(rate),
        speedup
    );
}
