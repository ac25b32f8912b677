//! Snapshot round-trip and hostile-file tests (`da_nn::snapshot`).
//!
//! The contract under test:
//!
//! * **Bit-identity** — serving from a loaded snapshot equals serving from
//!   the plan that was saved, to the last ULP, for every
//!   [`MultiplierKind`] (plus native) × every plan precision, including
//!   NaN/Inf payloads.
//! * **Structure survives** — precision, int4 layer mix, and product-table
//!   sharing are preserved through the round trip.
//! * **Hostile files fail typed** — truncation, bit flips, wrong magic,
//!   wrong version, and misaligned sections all surface as the right
//!   [`SnapshotError`] variant; nothing panics and no corrupt plan is ever
//!   handed to a serving worker.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use da_arith::MultiplierKind;
use da_nn::engine::InferencePlan;
use da_nn::layers::{Conv2d, Dense, Dropout, Flatten, MaxPool2d, Relu};
use da_nn::serve::{BatchServer, ServeConfig};
use da_nn::snapshot::{file_checksum, SnapshotError, MAGIC, VERSION};
use da_nn::Network;
use da_tensor::Tensor;
use rand::SeedableRng;

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

/// A fresh snapshot path under the system temp dir, unique per process and
/// per call site tag (tests run concurrently in one binary).
fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("da-snap-{}-{tag}.daplan", std::process::id()))
}

fn tiny_cnn(seed: u64) -> Network {
    let mut r = rng(seed);
    Network::new("snap-tiny")
        .push(Conv2d::new(1, 4, 3, 1, 1, &mut r))
        .push(Relu)
        .push(MaxPool2d::new(2, 2))
        .push(Conv2d::new(4, 6, 3, 1, 0, &mut r))
        .push(Relu)
        .push(Dropout::new(0.5))
        .push(Flatten)
        .push(Dense::new(6 * 3 * 3, 8, &mut r))
        .push(Relu)
        .push(Dense::new(8, 5, &mut r))
}

fn assert_bit_equal(got: &Tensor, want: &Tensor, ctx: &str) {
    assert_eq!(got.shape(), want.shape(), "{ctx}: shape");
    for (i, (x, y)) in got.data().iter().zip(want.data()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: elem {i}: {x:?} vs {y:?}");
    }
}

/// Inputs that exercise the slow paths too: a clean batch plus a batch
/// carrying NaN, the infinities, negative zero, and a denormal.
fn probe_batches(r: &mut rand::rngs::StdRng) -> Vec<Tensor> {
    let clean = Tensor::rand_uniform(&[3, 1, 10, 10], 0.0, 1.0, r);
    let mut hostile = Tensor::rand_uniform(&[2, 1, 10, 10], -1.0, 1.0, r);
    let d = hostile.data_mut();
    d[0] = f32::NAN;
    d[1] = f32::INFINITY;
    d[2] = f32::NEG_INFINITY;
    d[3] = -0.0;
    d[4] = f32::from_bits(1); // smallest positive denormal
    vec![clean, hostile]
}

/// Save → load → predict is bit-identical to the in-memory plan for every
/// multiplier kind (plus native) × every precision, NaN/Inf inputs
/// included, and precision/int4-mix/LUT-sharing survive the round trip.
#[test]
fn roundtrip_is_bit_identical_for_every_kind_and_precision() {
    let mut r = rng(7);
    let calibration = Tensor::rand_uniform(&[8, 1, 10, 10], 0.0, 1.0, &mut r);
    let batches = probe_batches(&mut r);
    for kind in MultiplierKind::ALL.into_iter().map(Some).chain([None]) {
        let mut net = tiny_cnn(13);
        let mult = kind.map(|k| k.build());
        net.set_multiplier(mult.clone());
        let plans = [
            InferencePlan::compile(&net, mult.clone()).expect("f32 plan"),
            InferencePlan::compile_quantized(&net, mult.clone(), &calibration).expect("int8 plan"),
            InferencePlan::compile_quantized_int4(&net, mult.clone(), &calibration)
                .expect("int4 plan"),
        ];
        for plan in plans {
            let ctx = format!("{kind:?}/{:?}", plan.precision());
            let path = temp_path(&format!("rt-{}", ctx.replace(['/', '(', ')'], "-")));
            plan.save(&path).expect("save");
            let loaded = InferencePlan::load(&path).expect("load");
            assert_eq!(loaded.precision(), plan.precision(), "{ctx}: precision");
            assert_eq!(loaded.int4_layer_mix(), plan.int4_layer_mix(), "{ctx}: int4 mix");
            assert_eq!(
                loaded.product_lut_sharing(),
                plan.product_lut_sharing(),
                "{ctx}: LUT sharing"
            );
            for (b, x) in batches.iter().enumerate() {
                assert_bit_equal(
                    &loaded.predict_batch(x),
                    &plan.predict_batch(x),
                    &format!("{ctx}: batch {b}"),
                );
            }
            std::fs::remove_file(&path).ok();
        }
    }
}

/// Serving a mapped snapshot ([`InferencePlan::load`] then
/// [`BatchServer::from_plan`]) equals a serial
/// `predict_batch` on the in-memory plan, bitwise.
#[test]
fn served_snapshot_matches_serial_plan() {
    let mut net = tiny_cnn(23);
    net.set_multiplier(Some(MultiplierKind::AxFpm.build()));
    let mut r = rng(24);
    let calibration = Tensor::rand_uniform(&[8, 1, 10, 10], 0.0, 1.0, &mut r);
    let plan = InferencePlan::compile_quantized(&net, net.multiplier().cloned(), &calibration)
        .expect("int8 plan");
    let path = temp_path("serve");
    plan.save(&path).expect("save");

    let x = Tensor::rand_uniform(&[6, 1, 10, 10], 0.0, 1.0, &mut r);
    let want = plan.predict_batch(&x);

    let server = BatchServer::from_plan(
        Arc::new(InferencePlan::load(&path).expect("snapshot serves")),
        ServeConfig {
            workers: 3,
            max_batch: 4,
            flush_deadline: Duration::from_millis(2),
            queue_capacity: 16,
            ..ServeConfig::default()
        },
    );
    let pending: Vec<_> =
        (0..6).map(|i| server.submit(&x.batch_item(i)).expect("accepting")).collect();
    for (i, p) in pending.into_iter().enumerate() {
        let row = p.wait().expect("served");
        for (j, (g, w)) in row.data().iter().zip(&want.data()[i * 5..(i + 1) * 5]).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "item {i} elem {j}");
        }
    }
    server.shutdown();
    std::fs::remove_file(&path).ok();
}

/// Build one valid snapshot image to mutate in the hostile-file tests.
fn valid_image() -> Vec<u8> {
    let mut net = tiny_cnn(43);
    net.set_multiplier(Some(MultiplierKind::Heap.build()));
    let mut r = rng(44);
    let calibration = Tensor::rand_uniform(&[4, 1, 10, 10], 0.0, 1.0, &mut r);
    let plan = InferencePlan::compile_quantized(&net, net.multiplier().cloned(), &calibration)
        .expect("int8 plan");
    let path = temp_path("hostile-src");
    plan.save(&path).expect("save");
    let bytes = std::fs::read(&path).expect("read back");
    std::fs::remove_file(&path).ok();
    bytes
}

fn load_bytes(tag: &str, bytes: &[u8]) -> Result<InferencePlan, SnapshotError> {
    let path = temp_path(tag);
    std::fs::write(&path, bytes).expect("write hostile file");
    let out = InferencePlan::load(&path);
    std::fs::remove_file(&path).ok();
    out
}

/// Re-seal a mutated image so it passes the checksum gate and the *next*
/// validation layer is the one under test.
fn reseal(bytes: &mut [u8]) {
    let sum = file_checksum(bytes);
    bytes[24..32].copy_from_slice(&sum.to_le_bytes());
}

#[test]
fn hostile_files_fail_with_typed_errors() {
    let image = valid_image();
    assert!(load_bytes("hostile-ok", &image).is_ok(), "pristine image must load");

    // Truncations at several depths: inside the header, inside the section
    // table, and inside a payload. All must be Truncated, never a panic.
    for (i, cut) in [8usize, 40, 64 + 8, image.len() / 2, image.len() - 1].into_iter().enumerate() {
        let truncated = &image[..cut];
        assert!(
            matches!(
                load_bytes(&format!("hostile-trunc-{i}"), truncated),
                Err(SnapshotError::Truncated)
            ),
            "truncation at {cut} must be Truncated"
        );
    }

    // A single bit flip anywhere in the body fails the checksum.
    let mut flipped = image.clone();
    let at = flipped.len() - 5;
    flipped[at] ^= 0x10;
    assert!(matches!(load_bytes("hostile-flip", &flipped), Err(SnapshotError::ChecksumMismatch)));

    // Wrong magic.
    let mut bad_magic = image.clone();
    bad_magic[0..8].copy_from_slice(b"NOTASNAP");
    assert!(matches!(load_bytes("hostile-magic", &bad_magic), Err(SnapshotError::BadMagic)));
    assert_eq!(&image[0..8], &MAGIC);

    // Wrong (future) version, re-sealed so only the version check fires.
    let mut bad_version = image.clone();
    bad_version[8..12].copy_from_slice(&(VERSION + 1).to_le_bytes());
    reseal(&mut bad_version);
    assert!(matches!(
        load_bytes("hostile-version", &bad_version),
        Err(SnapshotError::UnsupportedVersion(v)) if v == VERSION + 1
    ));

    // Misaligned section offset (valid checksum): knock section 1 off the
    // 64-byte grid.
    let mut misaligned = image.clone();
    let entry = 64 + 16; // section 1's table entry
    let off = u64::from_le_bytes(misaligned[entry..entry + 8].try_into().unwrap());
    misaligned[entry..entry + 8].copy_from_slice(&(off + 4).to_le_bytes());
    let sec_len = u64::from_le_bytes(misaligned[entry + 8..entry + 16].try_into().unwrap());
    misaligned[entry + 8..entry + 16].copy_from_slice(&sec_len.saturating_sub(4).to_le_bytes());
    reseal(&mut misaligned);
    assert!(matches!(load_bytes("hostile-align", &misaligned), Err(SnapshotError::Misaligned)));

    // A section pointing past EOF (valid checksum) is Truncated.
    let mut oob = image.clone();
    let len_at = entry + 8;
    oob[len_at..len_at + 8].copy_from_slice(&(u64::MAX / 2).to_le_bytes());
    reseal(&mut oob);
    assert!(matches!(load_bytes("hostile-oob", &oob), Err(SnapshotError::Truncated)));

    // The file_len field must match the real length even when re-sealed.
    let mut padded = image.clone();
    padded.extend_from_slice(&[0u8; 64]);
    reseal(&mut padded);
    assert!(matches!(load_bytes("hostile-pad", &padded), Err(SnapshotError::Truncated)));

    // Not a snapshot at all.
    assert!(matches!(load_bytes("hostile-tiny", b"hi"), Err(SnapshotError::Truncated)));
    assert!(matches!(load_bytes("hostile-text", &[0x55u8; 4096]), Err(SnapshotError::BadMagic)));

    // Missing file is Io, not a panic.
    assert!(matches!(InferencePlan::load(temp_path("hostile-missing")), Err(SnapshotError::Io(_))));
}

/// A minimal hand-built container: header, a one-entry section table, and
/// a caller-supplied META payload — the scaffolding for forging hostile
/// *semantic* fields (counts, registry sizes) behind a valid checksum.
fn forged_container(meta: &[u8]) -> Vec<u8> {
    let meta_off = 128; // align_up(HEADER_LEN + one 16-byte entry, 64)
    let mut out = vec![0u8; meta_off + meta.len()];
    out[0..8].copy_from_slice(&MAGIC);
    out[8..12].copy_from_slice(&VERSION.to_le_bytes());
    out[12..16].copy_from_slice(&1u32.to_le_bytes()); // section count
    let file_len = out.len() as u64;
    out[16..24].copy_from_slice(&file_len.to_le_bytes());
    out[64..72].copy_from_slice(&(meta_off as u64).to_le_bytes());
    out[72..80].copy_from_slice(&(meta.len() as u64).to_le_bytes());
    out[meta_off..].copy_from_slice(meta);
    let sum = file_checksum(&out);
    out[24..32].copy_from_slice(&sum.to_le_bytes());
    out
}

#[test]
fn hostile_counts_are_rejected_before_allocation() {
    // Section count claiming more table entries than the file has bytes:
    // rejected by arithmetic on the real file length, before the section
    // vector is reserved.
    let image = valid_image();
    let mut huge_count = image.clone();
    huge_count[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
    reseal(&mut huge_count);
    assert!(matches!(load_bytes("hostile-count-huge", &huge_count), Err(SnapshotError::Truncated)));

    // Zero sections: no META, nothing to decode.
    let mut no_sections = image.clone();
    no_sections[12..16].copy_from_slice(&0u32.to_le_bytes());
    reseal(&mut no_sections);
    assert!(matches!(
        load_bytes("hostile-count-zero", &no_sections),
        Err(SnapshotError::Truncated)
    ));

    // An int8 LUT registry claiming u32::MAX entries inside a 13-byte
    // META: the count exceeds both the section table and what the meta
    // bytes could encode — Corrupt, with no per-entry work done.
    let mut meta = Vec::new();
    meta.extend_from_slice(&0u32.to_le_bytes()); // multiplier name: ""
    meta.push(1); // precision: int8
    meta.extend_from_slice(&u32::MAX.to_le_bytes()); // n8
    meta.extend_from_slice(&[0u8; 4]); // padding the count pretends to index
    assert!(matches!(
        load_bytes("hostile-lut-count", &forged_container(&meta)),
        Err(SnapshotError::Corrupt(_))
    ));

    // A step list claiming u32::MAX steps when the meta has no bytes left:
    // the count is checked against the unread remainder before the step
    // vector is reserved.
    let mut meta = Vec::new();
    meta.extend_from_slice(&0u32.to_le_bytes()); // multiplier name: ""
    meta.push(1); // precision: int8
    meta.extend_from_slice(&0u32.to_le_bytes()); // n8 = 0
    meta.extend_from_slice(&0u32.to_le_bytes()); // n4 = 0
    meta.extend_from_slice(&u32::MAX.to_le_bytes()); // n_steps
    assert!(matches!(
        load_bytes("hostile-step-count", &forged_container(&meta)),
        Err(SnapshotError::Corrupt(_))
    ));

    // A tensor count inside the meta stream (conv bias f32 list) claiming
    // more floats than the section holds: bounded by the meta length, not
    // the claim.
    let mut meta = Vec::new();
    meta.extend_from_slice(&0u32.to_le_bytes()); // multiplier name: ""
    meta.push(0); // precision: f32
    meta.extend_from_slice(&0u32.to_le_bytes()); // n8 = 0
    meta.extend_from_slice(&0u32.to_le_bytes()); // n4 = 0
    meta.extend_from_slice(&1u32.to_le_bytes()); // n_steps = 1
    meta.push(1); // TAG_CONV
    meta.extend_from_slice(&1u32.to_le_bytes()); // weight section index
    meta.extend_from_slice(&u32::MAX.to_le_bytes()); // bias float count
    assert!(matches!(
        load_bytes("hostile-f32s-count", &forged_container(&meta)),
        Err(SnapshotError::Corrupt(_))
    ));

    // A section offset aimed at the header (aligned, in bounds, valid
    // checksum): decoding reads header bytes as META and must fail typed,
    // never panic or load.
    let mut overlap = image;
    overlap[64..72].copy_from_slice(&0u64.to_le_bytes()); // META offset = 0
    overlap[72..80].copy_from_slice(&64u64.to_le_bytes());
    reseal(&mut overlap);
    assert!(load_bytes("hostile-overlap", &overlap).is_err());
}

/// An int4 LUT registry entry whose weight quantizer or operand-order tag is
/// out of range loads as `Corrupt`, never as a table built on a bad
/// quantizer and never as a panic. The forged precision-2 META holds one
/// int4 entry naming payload section 1, which the one-section container
/// lacks: a well-formed entry therefore fails at the payload lookup, and
/// each bad field must be rejected before that — by its own check.
#[test]
fn int4_registry_entries_with_bad_fields_are_corrupt() {
    let int4_entry = |w_zero_point: u8, order: u8| {
        let mut meta = Vec::new();
        meta.extend_from_slice(&0u32.to_le_bytes()); // multiplier name: ""
        meta.push(2); // precision: int4 weights
        meta.extend_from_slice(&0u32.to_le_bytes()); // n8 = 0
        meta.extend_from_slice(&1u32.to_le_bytes()); // n4 = 1
        meta.extend_from_slice(&1.0f32.to_le_bytes()); // activation scale
        meta.push(0); // activation zero point
        meta.extend_from_slice(&1.0f32.to_le_bytes()); // weight scale
        meta.push(w_zero_point);
        meta.push(order);
        meta.extend_from_slice(&1u32.to_le_bytes()); // table section index
        meta.extend_from_slice(&0u32.to_le_bytes()); // n_steps = 0
        forged_container(&meta)
    };
    let payload_miss = match load_bytes("int4-entry-ok", &int4_entry(15, 1)) {
        Err(SnapshotError::Corrupt(msg)) => msg,
        other => panic!("well-formed entry must fail only at the payload lookup: {other:?}"),
    };
    for (tag, zero_point, order) in [("int4-entry-zp16", 16u8, 1u8), ("int4-entry-order2", 7, 2)] {
        match load_bytes(tag, &int4_entry(zero_point, order)) {
            Err(SnapshotError::Corrupt(msg)) => {
                assert_ne!(msg, payload_miss, "{tag}: the bad field must be caught first");
            }
            other => panic!("{tag}: expected Corrupt, got {other:?}"),
        }
    }
}

/// Step lists whose operand types do not chain — a code-reading step fed
/// the f32 input, or a quantized plan ending in codes instead of f32 logits
/// — are rejected at load (behind a valid checksum and correct precision
/// family), never handed to a serving worker.
#[test]
fn steps_whose_operand_types_do_not_chain_are_rejected() {
    let int8_plan = |step: &[u8]| {
        let mut meta = Vec::new();
        meta.extend_from_slice(&0u32.to_le_bytes()); // multiplier name: ""
        meta.push(1); // precision: int8
        meta.extend_from_slice(&0u32.to_le_bytes()); // n8 = 0
        meta.extend_from_slice(&0u32.to_le_bytes()); // n4 = 0
        meta.extend_from_slice(&1u32.to_le_bytes()); // n_steps = 1
        meta.extend_from_slice(step);
        forged_container(&meta)
    };
    // TAG_QRELU with zero point 0, reading the f32 input as codes.
    assert!(matches!(
        load_bytes("hostile-chain-input", &int8_plan(&[13, 0])),
        Err(SnapshotError::Corrupt(_))
    ));
    // TAG_QUANTIZE_INPUT (scale 1.0, zero point 0) alone: the plan's
    // output would be codes.
    let mut quantize = vec![7u8];
    quantize.extend_from_slice(&1.0f32.to_le_bytes());
    quantize.push(0);
    assert!(matches!(
        load_bytes("hostile-chain-output", &int8_plan(&quantize)),
        Err(SnapshotError::Corrupt(_))
    ));
}

/// The saved images of one seeded tiny net, pinned byte for byte by their
/// whole-file checksums: any change to the step encoding, the section
/// layout, the quantizing compiler's calibration, or the per-layer int4/int8
/// choice shows up here. The seeds give a mixed int4 plan (three int4
/// layers, one int8 fallback), so the choice itself is pinned too. Update
/// the constants only together with a deliberate format change (and a
/// `VERSION` bump).
#[test]
fn saved_images_match_golden_checksums() {
    let mut net = tiny_cnn(2);
    net.set_multiplier(Some(MultiplierKind::AxFpm.build()));
    let mut r = rng(3);
    let calibration = Tensor::rand_uniform(&[8, 1, 10, 10], 0.0, 1.0, &mut r);
    let mult = net.multiplier().cloned();
    let int4 =
        InferencePlan::compile_quantized_int4(&net, mult.clone(), &calibration).expect("int4 plan");
    assert_eq!(int4.int4_layer_mix(), (3, 1), "the seeds pin a mixed int4 plan");
    let plans = [
        ("f32", InferencePlan::compile(&net, mult.clone()).expect("f32 plan"), GOLDEN_F32),
        (
            "int8",
            InferencePlan::compile_quantized(&net, mult, &calibration).expect("int8 plan"),
            GOLDEN_INT8,
        ),
        ("int4", int4, GOLDEN_INT4),
    ];
    for (name, plan, want) in &plans {
        let path = temp_path(&format!("golden-{name}"));
        plan.save(&path).expect("save");
        let bytes = std::fs::read(&path).expect("read back");
        std::fs::remove_file(&path).ok();
        assert_eq!(file_checksum(&bytes), *want, "{name} image checksum");
    }
}

const GOLDEN_F32: u64 = 0xfe36_837e_f1a7_2baf;
const GOLDEN_INT8: u64 = 0xe0a8_8cd8_1fd5_bed6;
const GOLDEN_INT4: u64 = 0x8a02_f6af_3c5a_d85d;
