//! Zero-copy plan snapshots and the precompiled warm pool.
//!
//! ```sh
//! cargo run --release --example snapshot
//! ```
//!
//! The Defensive Approximation deployment story leans on swapping the
//! arithmetic under a fixed network, and that swap should be *fast*.
//! Compiling a quantized serving plan is the slow part: a calibration pass
//! plus one 256×256 product table per quantizer pair (for gate-level
//! wirings, 65 536 gate-level evaluations per table). This demo shows the
//! snapshot workflow that deletes the cost from the serving path:
//!
//! 1. **Precompile a pool**: one int8 plan per multiplier wiring, each
//!    saved with `InferencePlan::save` as `<dir>/<key>.daplan` (compile
//!    happens once, ever).
//! 2. **Map, don't compile**: reload every pool entry and compare wall
//!    times — loads are zero-parse and zero-copy (tables and weights are
//!    served straight out of the `mmap`), so the cold start collapses from
//!    seconds to milliseconds.
//! 3. **Serve and rotate**: stand a `BatchServer` on one mapped
//!    plan, verify logits are bit-identical to the originally compiled
//!    plan, then "rotate" to each other wiring by mapping its snapshot and
//!    hot-reloading it into the same server (`BatchServer::reload_plan`).

use std::sync::Arc;
use std::time::Instant;

use defensive_approximation::arith::MultiplierKind;
use defensive_approximation::datasets::digits::synth_digits;
use defensive_approximation::nn::engine::InferencePlan;
use defensive_approximation::nn::serve::{BatchServer, ServeConfig};
use defensive_approximation::nn::zoo::lenet5;
use rand::SeedableRng;

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let mut net = lenet5(10, &mut rng);
    let calibration = synth_digits(32, 7).images;
    let data = synth_digits(16, 42);

    let dir = std::env::temp_dir().join(format!("da-plan-pool-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("pool directory");
    let path_of = |kind: MultiplierKind| dir.join(format!("lenet5-int8-{}.daplan", kind.as_str()));

    println!("== Plan snapshot warm pool ==");
    println!("pool dir: {}", dir.display());
    println!();
    println!("{:<12} {:>12} {:>12} {:>9} {:>10}", "wiring", "compile", "map", "speedup", "file");

    // 1 + 2. Precompile one int8 plan per wiring into the pool, then map it
    // back and compare cold starts.
    let mut reference = Vec::new();
    for kind in MultiplierKind::ALL {
        net.set_multiplier(Some(kind.build()));
        let path = path_of(kind);

        let start = Instant::now();
        let plan = InferencePlan::compile_quantized(&net, net.multiplier().cloned(), &calibration)
            .expect("LeNet-5 quantizes");
        let compile_ms = start.elapsed().as_secs_f64() * 1e3;
        plan.save(&path).expect("snapshot save");

        let start = Instant::now();
        let mapped = InferencePlan::load(&path).expect("pool entry maps");
        let map_ms = start.elapsed().as_secs_f64() * 1e3;

        let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        println!(
            "{:<12} {:>10.1}ms {:>10.2}ms {:>8.0}x {:>7}KiB",
            kind.as_str(),
            compile_ms,
            map_ms,
            compile_ms / map_ms,
            bytes / 1024
        );

        // The mapped plan must serve the exact logits of the compiled one.
        let want = plan.predict_batch(&data.images);
        let got = mapped.predict_batch(&data.images);
        assert_eq!(got.data(), want.data(), "{}: mapped plan diverged", kind.as_str());
        reference.push((kind, want));
    }
    println!();
    println!("pool ready: {} snapshots in {}", reference.len(), dir.display());

    // 3. Serve each wiring in turn from its snapshot alone: the datapath
    // swaps by hot-reloading a different mapping into the live server —
    // milliseconds, no recompilation, no calibration.
    let total = data.images.shape()[0];
    let map = |kind| Arc::new(InferencePlan::load(path_of(kind)).expect("snapshot maps"));
    let server = BatchServer::from_plan(map(reference[0].0), ServeConfig::default());
    for (generation, (kind, want)) in reference.iter().enumerate() {
        let start = Instant::now();
        if generation > 0 {
            let swapped = server.reload_plan(map(*kind)).expect("same interface swaps");
            assert_eq!(swapped, generation as u64);
        }
        let pending: Vec<_> = (0..total)
            .map(|i| server.submit(&data.images.batch_item(i)).expect("accepting"))
            .collect();
        let classes = want.shape()[1];
        for (i, p) in pending.into_iter().enumerate() {
            let row = p.wait().expect("served");
            assert_eq!(
                row.data(),
                &want.data()[i * classes..(i + 1) * classes],
                "{}: served logits diverged from the compiled plan",
                kind.as_str()
            );
        }
        let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
        println!(
            "generation {generation} {:<12} served {total} samples bit-identically in \
             {elapsed_ms:.1} ms (map + swap + serve, no compile)",
            kind.as_str()
        );
    }
    server.shutdown();

    std::fs::remove_dir_all(&dir).ok();
}
