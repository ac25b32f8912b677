//! Zero-copy plan snapshots: save compiled [`InferencePlan`]s to a
//! versioned, checksummed binary file and map them back in with near-zero
//! cold start.
//!
//! Compiling a quantized plan is expensive: it runs a full f32 calibration
//! pass and then builds one 256×256 [`ProductLut`] per distinct quantizer
//! pair — 65 536 scalar `multiply` calls each, which for gate-level wirings
//! means 65 536 full gate-level evaluations *per table*. A snapshot pays that cost once:
//! loading performs **no calibration and no LUT build**, and the big flat
//! payloads (product tables, weight matrices, code tensors) are not even
//! copied — the loaded plan's [`da_arith::Storage`] slices borrow the
//! `mmap`ed file directly, so N workers (or N processes, via the page
//! cache) share one physical copy of every table.
//!
//! # File format (version 1)
//!
//! All integers and floats are **little-endian**; `f32` payloads are raw
//! IEEE-754 bit patterns, so the round trip is bit-exact. Layout:
//!
//! ```text
//! offset 0, 64 bytes — header
//!     0..8    magic           b"DASNAPv1"
//!     8..12   version         u32 (currently 1)
//!     12..16  section count   u32 (META + one per payload blob)
//!     16..24  file length     u64 (must equal the real file length)
//!     24..32  checksum        u64 FNV-1a over the whole file with this
//!                             field read as zero (see [`file_checksum`])
//!     32..64  reserved        zeros
//! offset 64 — section table, 16 bytes per section
//!     0..8    section offset  u64, 64-byte aligned from file start
//!     8..16   section length  u64, bytes
//! section 0 — META (parsed once at load; everything small lives here)
//!     multiplier name, plan precision, the LUT registry (quantizer pairs
//!     + payload section index per distinct table), and the step list
//!     (structure, shapes, biases, quantizers, payload section indices)
//! sections 1.. — payload blobs, each 64-byte aligned
//!     ProductLut tables (f32, 256×256 or 256×16), f32 weight matrices,
//!     u8 weight-code tensors
//! ```
//!
//! **Alignment.** Every section offset is a multiple of 64 and the mapping
//! base is at least 64-byte aligned (page-aligned `mmap`, or the shim's
//! aligned heap fallback), so `f32` payload views are always valid; this is
//! asserted again when each typed view is constructed and surfaces as
//! [`SnapshotError::Misaligned`] for hostile offsets.
//!
//! **Integrity.** The checksum covers every byte of the file, so
//! truncation, bit flips, and section-table tampering all surface as typed
//! errors ([`SnapshotError`]) at load — never as a panic in a serving
//! worker. Structural validation (section bounds, payload lengths vs layer
//! shapes, quantizer validity, step/precision consistency) runs before the
//! plan is assembled. Whether a loaded plan's layer shapes fit a given
//! input is the shape inference of its first batch (a `predict_batch`
//! panic), and a serving hot reload checks it against the item shape being
//! served before the swap (`BatchServer::reload_plan`).
//!
//! **Sharing.** Steps that shared one `Arc<ProductLut>` in the compiled
//! plan reference the same payload section in the file and are re-interned
//! into one `Arc` at load — the compile-time `LutCache` dedup survives the
//! round trip (observable through
//! [`InferencePlan::product_lut_sharing`]).
//!
//! **Publishing.** Write a replacement to a temporary file and rename it
//! over the old one, so a concurrent reader (a server's hot reload) never
//! maps a half-written file.

use std::fs::File;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

use da_arith::quantized::{CODES, CODES4};
use da_arith::storage::{ByteRegion, Storage, StorageError};
use da_arith::{LutOrder, Multiplier, MultiplierKind, ProductLut, QuantParams};
use memmap2::Mmap;

use crate::engine::{
    operand_types_agree, ConvGeom, InferencePlan, Kernel, PlanPrecision, QOut, Step,
};

/// Magic bytes at offset 0 of every snapshot file.
pub const MAGIC: [u8; 8] = *b"DASNAPv1";

/// Current format version (see the module docs for the layout it pins).
pub const VERSION: u32 = 1;

/// Section (and payload) alignment in bytes.
pub const ALIGN: usize = 64;

const HEADER_LEN: usize = 64;
const CHECKSUM_RANGE: std::ops::Range<usize> = 24..32;

/// Why a snapshot could not be saved or loaded. Every hostile-input path
/// lands here — loading never panics and never hands a corrupt plan to a
/// serving worker.
#[derive(Debug)]
pub enum SnapshotError {
    /// Filesystem or mapping failure.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's format version is not one this build can read.
    UnsupportedVersion(u32),
    /// The file is shorter than its header/section table claims.
    Truncated,
    /// The whole-file checksum does not match (bit flips, tampering, or a
    /// torn write).
    ChecksumMismatch,
    /// A section offset violates the 64-byte alignment the zero-copy views
    /// require.
    Misaligned,
    /// Structurally invalid contents (bad section index, payload length
    /// inconsistent with the recorded shapes, invalid quantizer, ...).
    Corrupt(&'static str),
    /// The snapshot names a multiplier this build cannot reconstruct.
    UnknownMultiplier(String),
    /// The plan (or host) cannot be snapshotted: custom multiplier objects
    /// have no stable serial name, and big-endian hosts would break the
    /// little-endian zero-copy layout.
    Unsupported(&'static str),
    /// A hot-reload replacement's serving interface (input/output shapes or
    /// precision family) differs from the plan it would replace — swapping
    /// it in would silently change what connected clients get back.
    Incompatible(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a plan snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v} (this build reads {VERSION})")
            }
            SnapshotError::Truncated => write!(f, "snapshot file is truncated"),
            SnapshotError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            SnapshotError::Misaligned => write!(f, "snapshot section is misaligned"),
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
            SnapshotError::UnknownMultiplier(name) => {
                write!(f, "snapshot requires unknown multiplier {name:?}")
            }
            SnapshotError::Unsupported(what) => write!(f, "cannot snapshot: {what}"),
            SnapshotError::Incompatible(what) => {
                write!(f, "incompatible replacement plan: {what}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> SnapshotError {
        SnapshotError::Io(e)
    }
}

impl From<StorageError> for SnapshotError {
    fn from(e: StorageError) -> SnapshotError {
        match e {
            StorageError::OutOfBounds => SnapshotError::Truncated,
            StorageError::Misaligned => SnapshotError::Misaligned,
        }
    }
}

/// The whole-file checksum the header stores: 64-bit FNV-1a over every byte
/// of the file, with the checksum field itself (bytes 24..32) read as zero.
/// Public so tooling (and hostile-file tests) can recompute it after
/// patching bytes.
pub fn file_checksum(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (i, &b) in bytes.iter().enumerate() {
        let b = if CHECKSUM_RANGE.contains(&i) { 0 } else { b };
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------------
// Meta encoding helpers
// ---------------------------------------------------------------------------

/// Little-endian append-only buffer for the META section.
#[derive(Default)]
struct MetaBuf {
    buf: Vec<u8>,
}

impl MetaBuf {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn dim(&mut self, v: usize) -> Result<(), SnapshotError> {
        let v = u32::try_from(v)
            .map_err(|_| SnapshotError::Unsupported("dimension exceeds u32 range"))?;
        self.u32(v);
        Ok(())
    }
    fn f32s(&mut self, v: &[f32]) -> Result<(), SnapshotError> {
        self.dim(v.len())?;
        for &x in v {
            self.f32(x);
        }
        Ok(())
    }
    fn str(&mut self, s: &str) -> Result<(), SnapshotError> {
        self.dim(s.len())?;
        self.buf.extend_from_slice(s.as_bytes());
        Ok(())
    }
    fn quant(&mut self, q: QuantParams) {
        self.f32(q.scale());
        self.u8(q.zero_point());
    }
}

/// Bounds-checked little-endian reader over the META section; every overrun
/// is a typed [`SnapshotError::Corrupt`].
struct MetaCursor<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> MetaCursor<'a> {
    fn new(b: &'a [u8]) -> MetaCursor<'a> {
        MetaCursor { b, pos: 0 }
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Corrupt("meta overrun"))?;
        if end > self.b.len() {
            return Err(SnapshotError::Corrupt("meta overrun"));
        }
        let s = &self.b[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }
    fn f32(&mut self) -> Result<f32, SnapshotError> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }
    fn dim(&mut self) -> Result<usize, SnapshotError> {
        Ok(self.u32()? as usize)
    }
    fn f32s(&mut self) -> Result<Vec<f32>, SnapshotError> {
        let n = self.dim()?;
        // Guarded by the meta section length: n floats need 4n bytes.
        if n > self.b.len().saturating_sub(self.pos) / 4 {
            return Err(SnapshotError::Corrupt("meta overrun"));
        }
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.f32()?);
        }
        Ok(v)
    }
    fn str(&mut self) -> Result<String, SnapshotError> {
        let n = self.dim()?;
        let s = self.take(n)?;
        String::from_utf8(s.to_vec())
            .map_err(|_| SnapshotError::Corrupt("non-UTF-8 string in meta"))
    }
    /// A quantizer with `codes` codes ([`CODES`] or [`CODES4`]).
    fn quant(&mut self, codes: usize) -> Result<QuantParams, SnapshotError> {
        let scale = self.f32()?;
        let zp = self.u8()?;
        QuantParams::from_parts(scale, zp, codes).ok_or(SnapshotError::Corrupt("invalid quantizer"))
    }
    /// Bytes not yet consumed — the hard ceiling for any count field that
    /// claims more entries than the meta section could possibly encode.
    fn remaining(&self) -> usize {
        self.b.len() - self.pos
    }
    fn finished(&self) -> bool {
        self.pos == self.b.len()
    }
}

// Step tags (format version 1; append-only). `TAG_QUANTIZE_INPUT` through
// `TAG_QDEQUANTIZE` are the quantized family, which the load-time family
// check reads off the tag.
const TAG_CONV: u8 = 0;
const TAG_DENSE: u8 = 1;
const TAG_MAXPOOL: u8 = 2;
const TAG_RELU: u8 = 3;
const TAG_FLATTEN: u8 = 4;
const TAG_BATCHNORM: u8 = 5;
const TAG_QUANTACT: u8 = 6;
const TAG_QUANTIZE_INPUT: u8 = 7;
const TAG_QCONV: u8 = 8;
const TAG_QDENSE: u8 = 9;
const TAG_QCONV4: u8 = 10;
const TAG_QDENSE4: u8 = 11;
const TAG_QMAXPOOL: u8 = 12;
const TAG_QRELU: u8 = 13;
const TAG_QDEQUANTIZE: u8 = 14;

// QOut tags.
const QOUT_FLOAT: u8 = 0;
const QOUT_CODES: u8 = 1;

// ---------------------------------------------------------------------------
// Save
// ---------------------------------------------------------------------------

/// A payload blob queued for its own aligned section.
enum Blob<'a> {
    F32(&'a [f32]),
    U8(&'a [u8]),
}

impl Blob<'_> {
    fn bytes(&self) -> &[u8] {
        match self {
            Blob::F32(v) => f32_bytes(v),
            Blob::U8(v) => v,
        }
    }
}

/// View an f32 slice as raw bytes. On the little-endian hosts the format
/// supports, the in-memory representation *is* the file representation.
fn f32_bytes(v: &[f32]) -> &[u8] {
    // SAFETY: f32 has no padding and every bit pattern is valid as bytes.
    unsafe { std::slice::from_raw_parts(v.as_ptr() as *const u8, std::mem::size_of_val(v)) }
}

fn align_up(v: usize, align: usize) -> usize {
    v.div_ceil(align) * align
}

/// Queue a payload blob; section 0 is META, so blob `i` becomes section
/// `i + 1`.
fn push_blob<'a>(blobs: &mut Vec<Blob<'a>>, b: Blob<'a>) -> Result<u32, SnapshotError> {
    let section = u32::try_from(blobs.len() + 1)
        .map_err(|_| SnapshotError::Unsupported("too many sections"))?;
    blobs.push(b);
    Ok(section)
}

/// Serialize `plan` into the version-1 snapshot byte image.
fn encode_plan(plan: &InferencePlan) -> Result<Vec<u8>, SnapshotError> {
    if cfg!(target_endian = "big") {
        return Err(SnapshotError::Unsupported("big-endian hosts"));
    }
    let mult_name = match &plan.multiplier {
        None => String::new(),
        Some(m) => {
            let name = m.name();
            if !MultiplierKind::ALL.iter().any(|k| k.as_str() == name) {
                return Err(SnapshotError::UnknownMultiplier(name.to_string()));
            }
            name.to_string()
        }
    };

    let mut blobs: Vec<Blob<'_>> = Vec::new();
    let mut luts = LutRegistry::default();
    let quantized = plan.precision != PlanPrecision::F32;

    let mut steps = MetaBuf::default();
    steps.dim(plan.steps.len())?;
    for step in &plan.steps {
        match step {
            Step::Conv { geom, bias, fuse_relu, kernel } => {
                let tags = [TAG_CONV, TAG_QCONV, TAG_QCONV4];
                let out = encode_kernel(kernel, tags, &mut steps, &mut blobs, &mut luts)?;
                steps.f32s(bias)?;
                for d in geom.dims() {
                    steps.dim(d)?;
                }
                steps.u8(u8::from(*fuse_relu));
                if let Some(out) = out {
                    encode_qout(&mut steps, &out);
                }
            }
            Step::Dense { in_features, out_features, bias, fuse_relu, kernel } => {
                let tags = [TAG_DENSE, TAG_QDENSE, TAG_QDENSE4];
                let out = encode_kernel(kernel, tags, &mut steps, &mut blobs, &mut luts)?;
                steps.f32s(bias)?;
                steps.dim(*in_features)?;
                steps.dim(*out_features)?;
                steps.u8(u8::from(*fuse_relu));
                if let Some(out) = out {
                    encode_qout(&mut steps, &out);
                }
            }
            Step::MaxPool { window, stride } => {
                steps.u8(if quantized { TAG_QMAXPOOL } else { TAG_MAXPOOL });
                steps.dim(*window)?;
                steps.dim(*stride)?;
            }
            Step::Relu => steps.u8(TAG_RELU),
            Step::Flatten => steps.u8(TAG_FLATTEN),
            Step::BatchNorm { mean, denom, gamma, beta } => {
                steps.u8(TAG_BATCHNORM);
                steps.f32s(mean)?;
                steps.f32s(denom)?;
                steps.f32s(gamma)?;
                steps.f32s(beta)?;
            }
            Step::QuantAct { bits } => {
                steps.u8(TAG_QUANTACT);
                steps.u32(*bits);
            }
            Step::QuantizeInput { params } => {
                steps.u8(TAG_QUANTIZE_INPUT);
                steps.quant(*params);
            }
            Step::QRelu { zero_point } => {
                steps.u8(TAG_QRELU);
                steps.u8(*zero_point);
            }
            Step::QDequantize { params } => {
                steps.u8(TAG_QDEQUANTIZE);
                steps.quant(*params);
            }
        }
    }

    // Assemble META: identity, LUT registries, then the step list.
    let mut meta = MetaBuf::default();
    meta.str(&mult_name)?;
    meta.u8(match plan.precision {
        PlanPrecision::F32 => 0,
        PlanPrecision::Int8 => 1,
        PlanPrecision::Int4Weights => 2,
    });
    for (seen, entries) in luts.seen.iter().zip(&luts.meta) {
        meta.dim(seen.len())?;
        meta.buf.extend_from_slice(&entries.buf);
    }
    meta.buf.extend_from_slice(&steps.buf);

    // Lay the file out: header, section table, META, aligned blobs.
    let section_count = 1 + blobs.len();
    let table_len = section_count * 16;
    let meta_off = align_up(HEADER_LEN + table_len, ALIGN);
    let mut sections: Vec<(usize, usize)> = vec![(meta_off, meta.buf.len())];
    let mut cursor = align_up(meta_off + meta.buf.len(), ALIGN);
    for blob in &blobs {
        let len = blob.bytes().len();
        sections.push((cursor, len));
        cursor = align_up(cursor + len, ALIGN);
    }
    let file_len = cursor.max(meta_off + meta.buf.len());

    let mut out = vec![0u8; file_len];
    out[0..8].copy_from_slice(&MAGIC);
    out[8..12].copy_from_slice(&VERSION.to_le_bytes());
    out[12..16].copy_from_slice(
        &u32::try_from(section_count)
            .map_err(|_| SnapshotError::Unsupported("too many sections"))?
            .to_le_bytes(),
    );
    out[16..24].copy_from_slice(&(file_len as u64).to_le_bytes());
    for (i, (off, len)) in sections.iter().enumerate() {
        let at = HEADER_LEN + i * 16;
        out[at..at + 8].copy_from_slice(&(*off as u64).to_le_bytes());
        out[at + 8..at + 16].copy_from_slice(&(*len as u64).to_le_bytes());
    }
    out[meta_off..meta_off + meta.buf.len()].copy_from_slice(&meta.buf);
    for (blob, (off, len)) in blobs.iter().zip(&sections[1..]) {
        out[*off..*off + *len].copy_from_slice(blob.bytes());
    }
    let checksum = file_checksum(&out);
    out[CHECKSUM_RANGE].copy_from_slice(&checksum.to_le_bytes());
    Ok(out)
}

fn encode_qout(meta: &mut MetaBuf, out: &QOut) {
    match out {
        QOut::Float => meta.u8(QOUT_FLOAT),
        QOut::Codes(params) => {
            meta.u8(QOUT_CODES);
            meta.quant(*params);
        }
    }
}

/// LUT interning by `Arc` identity while saving: steps that share a table
/// in memory share one payload section in the file. The file keeps one
/// registry per table width — int8 (256 columns), then int4 (16).
#[derive(Default)]
struct LutRegistry {
    seen: [Vec<*const ProductLut>; 2],
    meta: [MetaBuf; 2],
}

/// Write a conv/dense step's kernel header — the tag (`tags` holds the f32,
/// int8 and int4 tag of the step kind), the weight section, and for
/// quantized kernels the LUT index — and return the `QOut` the step's
/// encoding ends with, if any.
fn encode_kernel<'a>(
    kernel: &'a Kernel,
    tags: [u8; 3],
    steps: &mut MetaBuf,
    blobs: &mut Vec<Blob<'a>>,
    luts: &mut LutRegistry,
) -> Result<Option<QOut>, SnapshotError> {
    let (tag, blob, lut, out) = match kernel {
        Kernel::F32(_) | Kernel::Classified { .. } => {
            (tags[0], Blob::F32(kernel.f32_weights()), None, None)
        }
        Kernel::Lut { codes, lut, out } => {
            // int8 entries carry no order tag: those tables are row-left.
            let int4 = lut.columns() == CODES4;
            if !int4 && lut.order() != LutOrder::RowLeft {
                return Err(SnapshotError::Unsupported("column-left int8 product table"));
            }
            let w = usize::from(int4);
            let idx = intern_lut(&mut luts.seen[w], &mut luts.meta[w], lut, blobs)?;
            (tags[1 + w], Blob::U8(codes.as_slice()), Some(idx), Some(*out))
        }
    };
    let section = push_blob(blobs, blob)?;
    steps.u8(tag);
    steps.u32(section);
    if let Some(idx) = lut {
        steps.u32(idx);
    }
    Ok(out)
}

/// The registry index of `lut`, registering it on first sight: its table
/// is pushed as a payload section and its registry entry written to `meta`
/// — the two quantizers, the order tag (int4 tables only), then the section
/// index.
fn intern_lut<'a>(
    seen: &mut Vec<*const ProductLut>,
    meta: &mut MetaBuf,
    lut: &'a ProductLut,
    blobs: &mut Vec<Blob<'a>>,
) -> Result<u32, SnapshotError> {
    let ptr: *const ProductLut = lut;
    let idx = match seen.iter().position(|p| *p == ptr) {
        Some(idx) => idx,
        None => {
            let section = push_blob(blobs, Blob::F32(lut.table()))?;
            meta.quant(lut.a_params());
            meta.quant(lut.b_params());
            if lut.columns() == CODES4 {
                meta.u8(match lut.order() {
                    LutOrder::ColumnLeft => 0,
                    LutOrder::RowLeft => 1,
                });
            }
            meta.u32(section);
            seen.push(ptr);
            seen.len() - 1
        }
    };
    Ok(u32::try_from(idx).expect("fewer LUTs than sections"))
}

// ---------------------------------------------------------------------------
// Load
// ---------------------------------------------------------------------------

/// One validated section-table entry.
#[derive(Clone, Copy)]
struct Section {
    offset: usize,
    len: usize,
}

/// Validate the container (magic, version, length, checksum, section table)
/// and return the section list.
fn validate_container(bytes: &[u8]) -> Result<Vec<Section>, SnapshotError> {
    if bytes.len() < HEADER_LEN {
        return Err(SnapshotError::Truncated);
    }
    if bytes[0..8] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let file_len = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
    if file_len != bytes.len() as u64 {
        return Err(SnapshotError::Truncated);
    }
    let stored = u64::from_le_bytes(bytes[CHECKSUM_RANGE].try_into().expect("8 bytes"));
    if stored != file_checksum(bytes) {
        return Err(SnapshotError::ChecksumMismatch);
    }
    let count = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes")) as usize;
    let table_end = HEADER_LEN
        .checked_add(count.checked_mul(16).ok_or(SnapshotError::Corrupt("section count"))?)
        .ok_or(SnapshotError::Corrupt("section count"))?;
    if count == 0 || table_end > bytes.len() {
        return Err(SnapshotError::Truncated);
    }
    let mut sections = Vec::with_capacity(count);
    for i in 0..count {
        let at = HEADER_LEN + i * 16;
        let offset = u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
        let len = u64::from_le_bytes(bytes[at + 8..at + 16].try_into().expect("8 bytes"));
        let (offset, len) = (
            usize::try_from(offset).map_err(|_| SnapshotError::Truncated)?,
            usize::try_from(len).map_err(|_| SnapshotError::Truncated)?,
        );
        if offset % ALIGN != 0 {
            return Err(SnapshotError::Misaligned);
        }
        let end = offset.checked_add(len).ok_or(SnapshotError::Truncated)?;
        if end > bytes.len() {
            return Err(SnapshotError::Truncated);
        }
        sections.push(Section { offset, len });
    }
    Ok(sections)
}

/// Shared state while decoding steps.
struct Decoder<'a> {
    region: Arc<dyn ByteRegion>,
    sections: &'a [Section],
    /// The int8 and int4 LUT registries, in file order.
    luts: [Vec<Arc<ProductLut>>; 2],
}

impl Decoder<'_> {
    /// The section for 1-based payload index `idx`, rejecting META (0) and
    /// out-of-range indices.
    fn payload(&self, idx: u32) -> Result<Section, SnapshotError> {
        let idx = idx as usize;
        if idx == 0 || idx >= self.sections.len() {
            return Err(SnapshotError::Corrupt("payload section index out of range"));
        }
        Ok(self.sections[idx])
    }

    /// A zero-copy `f32` window over payload section `idx`, which must hold
    /// exactly `len` floats.
    fn f32_payload(&self, idx: u32, len: usize) -> Result<Storage<f32>, SnapshotError> {
        let s = self.payload(idx)?;
        if s.len != len.checked_mul(4).ok_or(SnapshotError::Corrupt("payload length"))? {
            return Err(SnapshotError::Corrupt("payload length mismatch"));
        }
        Ok(Storage::mapped(self.region.clone(), s.offset, len)?)
    }

    /// A zero-copy `u8` window over payload section `idx`, which must hold
    /// exactly `len` bytes.
    fn u8_payload(&self, idx: u32, len: usize) -> Result<Storage<u8>, SnapshotError> {
        let s = self.payload(idx)?;
        if s.len != len {
            return Err(SnapshotError::Corrupt("payload length mismatch"));
        }
        Ok(Storage::mapped(self.region.clone(), s.offset, len)?)
    }

    /// The table of a quantized conv/dense `tag`, read from its LUT index
    /// in the tag's registry (`None` for the f32 tags, which carry no
    /// index).
    fn kernel_lut(
        &self,
        tag: u8,
        c: &mut MetaCursor<'_>,
    ) -> Result<Option<Arc<ProductLut>>, SnapshotError> {
        let registry = match tag {
            TAG_QCONV | TAG_QDENSE => &self.luts[0],
            TAG_QCONV4 | TAG_QDENSE4 => &self.luts[1],
            _ => return Ok(None),
        };
        let lut = registry.get(c.u32()? as usize).cloned();
        lut.map(Some).ok_or(SnapshotError::Corrupt("LUT index out of range"))
    }

    /// The kernel over weight `section` (`len` elements): codes for a
    /// quantized kernel, else `f32` weights handed to `f32_kernel`.
    fn kernel(
        &self,
        section: u32,
        len: usize,
        quantized: Option<(Arc<ProductLut>, QOut)>,
        f32_kernel: impl FnOnce(Storage<f32>) -> Kernel,
    ) -> Result<Kernel, SnapshotError> {
        Ok(match quantized {
            Some((lut, out)) => Kernel::Lut { codes: self.u8_payload(section, len)?, lut, out },
            None => f32_kernel(self.f32_payload(section, len)?),
        })
    }
}

fn decode_qout(c: &mut MetaCursor<'_>) -> Result<QOut, SnapshotError> {
    match c.u8()? {
        QOUT_FLOAT => Ok(QOut::Float),
        QOUT_CODES => Ok(QOut::Codes(c.quant(CODES)?)),
        _ => Err(SnapshotError::Corrupt("unknown QOut tag")),
    }
}

/// Read conv-shaped dims `[cout, cin, kh, kw, stride, pad]`, requiring the
/// first five to be nonzero (a zero stride or kernel would panic in shape
/// inference, not produce a typed error).
fn conv_dims(c: &mut MetaCursor<'_>) -> Result<[usize; 6], SnapshotError> {
    let mut d = [0usize; 6];
    for slot in d.iter_mut() {
        *slot = c.dim()?;
    }
    if d[..5].contains(&0) {
        return Err(SnapshotError::Corrupt("zero conv dimension"));
    }
    Ok(d)
}

/// `cout * cin * kh * kw` with overflow as a typed error.
fn conv_weight_len(d: &[usize; 6]) -> Result<usize, SnapshotError> {
    d[0].checked_mul(d[1])
        .and_then(|v| v.checked_mul(d[2]))
        .and_then(|v| v.checked_mul(d[3]))
        .ok_or(SnapshotError::Corrupt("conv shape overflow"))
}

/// Decode and validate the plan image (already container-validated).
fn decode_plan(bytes: &[u8], region: Arc<dyn ByteRegion>) -> Result<InferencePlan, SnapshotError> {
    if cfg!(target_endian = "big") {
        return Err(SnapshotError::Unsupported("big-endian hosts"));
    }
    let sections = validate_container(bytes)?;
    let meta_sec = sections[0];
    let mut c = MetaCursor::new(&bytes[meta_sec.offset..meta_sec.offset + meta_sec.len]);

    let mult_name = c.str()?;
    let multiplier: Option<Arc<dyn Multiplier>> = if mult_name.is_empty() {
        None
    } else {
        match MultiplierKind::ALL.iter().find(|k| k.as_str() == mult_name) {
            Some(kind) => Some(kind.build()),
            None => return Err(SnapshotError::UnknownMultiplier(mult_name)),
        }
    };
    let precision = match c.u8()? {
        0 => PlanPrecision::F32,
        1 => PlanPrecision::Int8,
        2 => PlanPrecision::Int4Weights,
        _ => return Err(SnapshotError::Corrupt("unknown precision tag")),
    };

    let mut dec = Decoder { region, sections: &sections, luts: [Vec::new(), Vec::new()] };

    // LUT registries: one shared Arc per table section, so the compiled
    // plan's interning survives the round trip.
    // Registry counts are bounded two ways before any entry decodes: each
    // entry names a distinct table section (so the count can never exceed
    // the section table), and each entry occupies a fixed minimum of meta
    // bytes (so a hostile count cannot exceed what the meta section could
    // physically hold). Both are checks against bytes that provably exist
    // in the file — nothing is allocated on the claimed count alone.
    for (registry, codes) in [CODES, CODES4].into_iter().enumerate() {
        let int4 = codes == CODES4;
        let n = c.dim()?;
        // Meta bytes per entry: two quantizers and a section index, plus an
        // order tag for int4 entries.
        let entry_len = if int4 { 15 } else { 14 };
        if n > sections.len() || n > c.remaining() / entry_len {
            return Err(SnapshotError::Corrupt("LUT registry larger than section table"));
        }
        for _ in 0..n {
            let a = c.quant(CODES)?;
            let b = c.quant(codes)?;
            let order = match int4.then(|| c.u8()).transpose()? {
                None | Some(1) => LutOrder::RowLeft,
                Some(0) => LutOrder::ColumnLeft,
                Some(_) => return Err(SnapshotError::Corrupt("unknown LUT order tag")),
            };
            let table = dec.f32_payload(c.u32()?, CODES * codes)?;
            dec.luts[registry].push(Arc::new(ProductLut::from_parts(table, a, b, order)));
        }
    }

    let n_steps = c.dim()?;
    // Every step encoding starts with a tag byte, so the count can never
    // exceed the meta bytes still unread.
    if n_steps > c.remaining() {
        return Err(SnapshotError::Corrupt("step count larger than meta"));
    }
    // Capacity hint only, clamped: `n_steps` is bounded by real file bytes,
    // but a hostile meta section could still claim enough steps to reserve
    // hundreds of MB up front. Growth past the clamp is amortised as steps
    // actually decode.
    let mut steps = Vec::with_capacity(n_steps.min(256));
    let wants_quantized = precision != PlanPrecision::F32;
    let mut family_mismatch = false;
    for _ in 0..n_steps {
        let tag = c.u8()?;
        let quantized_tag = matches!(tag, TAG_QUANTIZE_INPUT..=TAG_QDEQUANTIZE);
        family_mismatch |= tag != TAG_FLATTEN && quantized_tag != wants_quantized;
        let step = match tag {
            TAG_CONV | TAG_QCONV | TAG_QCONV4 => {
                let section = c.u32()?;
                let lut = dec.kernel_lut(tag, &mut c)?;
                let bias = c.f32s()?;
                let d = conv_dims(&mut c)?;
                let fuse_relu = c.u8()? != 0;
                let out = lut.as_ref().map(|_| decode_qout(&mut c)).transpose()?;
                if bias.len() != d[0] {
                    return Err(SnapshotError::Corrupt("conv bias length"));
                }
                let geom = ConvGeom::from_dims(d);
                let kernel =
                    dec.kernel(section, conv_weight_len(&d)?, lut.zip(out), Kernel::F32)?;
                Step::Conv { geom, bias, fuse_relu, kernel }
            }
            TAG_DENSE | TAG_QDENSE | TAG_QDENSE4 => {
                let section = c.u32()?;
                let lut = dec.kernel_lut(tag, &mut c)?;
                let bias = c.f32s()?;
                let in_features = c.dim()?;
                let out_features = c.dim()?;
                let fuse_relu = c.u8()? != 0;
                let out = lut.as_ref().map(|_| decode_qout(&mut c)).transpose()?;
                if in_features == 0 || out_features == 0 {
                    return Err(SnapshotError::Corrupt("zero dense dimension"));
                }
                if bias.len() != out_features {
                    return Err(SnapshotError::Corrupt("dense bias length"));
                }
                let wlen = in_features
                    .checked_mul(out_features)
                    .ok_or(SnapshotError::Corrupt("dense shape overflow"))?;
                // Row classes are a compile-time acceleration, rebuilt here
                // exactly as `InferencePlan::compile` builds them.
                let kernel = dec.kernel(section, wlen, lut.zip(out), |wt| {
                    Kernel::dense(&multiplier, wt, out_features)
                })?;
                Step::Dense { in_features, out_features, bias, fuse_relu, kernel }
            }
            TAG_MAXPOOL | TAG_QMAXPOOL => {
                let window = c.dim()?;
                let stride = c.dim()?;
                if window == 0 || stride == 0 {
                    return Err(SnapshotError::Corrupt("zero pool dimension"));
                }
                Step::MaxPool { window, stride }
            }
            TAG_RELU => Step::Relu,
            TAG_FLATTEN => Step::Flatten,
            TAG_BATCHNORM => {
                let mean = c.f32s()?;
                let denom = c.f32s()?;
                let gamma = c.f32s()?;
                let beta = c.f32s()?;
                if mean.len() != denom.len()
                    || mean.len() != gamma.len()
                    || mean.len() != beta.len()
                {
                    return Err(SnapshotError::Corrupt("batch-norm length mismatch"));
                }
                Step::BatchNorm { mean, denom, gamma, beta }
            }
            TAG_QUANTACT => {
                let bits = c.u32()?;
                if bits == 0 || bits > 32 {
                    return Err(SnapshotError::Corrupt("quant-act bit width"));
                }
                Step::QuantAct { bits }
            }
            TAG_QUANTIZE_INPUT => Step::QuantizeInput { params: c.quant(CODES)? },
            TAG_QRELU => Step::QRelu { zero_point: c.u8()? },
            TAG_QDEQUANTIZE => Step::QDequantize { params: c.quant(CODES)? },
            _ => return Err(SnapshotError::Corrupt("unknown step tag")),
        };
        steps.push(step);
    }
    if !c.finished() {
        return Err(SnapshotError::Corrupt("trailing bytes in meta"));
    }

    // Precision/step-family consistency, then the operand-type chain: the
    // executor hands every step the values or codes its predecessor wrote
    // and treats a mismatch as unreachable, so reject it here instead of
    // panicking in a worker.
    if family_mismatch {
        return Err(SnapshotError::Corrupt("step family disagrees with plan precision"));
    }
    if !operand_types_agree(&steps) {
        return Err(SnapshotError::Corrupt("step operand types do not chain"));
    }

    Ok(InferencePlan::from_steps(multiplier, steps, precision))
}

impl InferencePlan {
    /// Serialize this plan into a snapshot file at `path` (see the module
    /// docs for the format).
    ///
    /// Works for every precision and every stock [`MultiplierKind`]
    /// (including plans with no multiplier); plans carrying a custom
    /// multiplier object have no stable serial name and are rejected with
    /// [`SnapshotError::UnknownMultiplier`].
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        let image = encode_plan(self)?;
        let mut f = File::create(path.as_ref())?;
        f.write_all(&image)?;
        Ok(())
    }

    /// Map the snapshot at `path` and assemble a ready-to-serve plan.
    ///
    /// No calibration pass, no LUT build: product tables, weight matrices,
    /// and code tensors (conv weights of f32 multiplier plans included)
    /// borrow the mapping zero-copy; only small metadata (biases,
    /// quantizers, shapes) and the cheap derived state (dense row classes)
    /// are materialized. Serving from the result is bit-identical to serving
    /// from the plan that was saved.
    pub fn load(path: impl AsRef<Path>) -> Result<InferencePlan, SnapshotError> {
        // Chaos-test injection site (no-op unless the `failpoints` feature
        // is on): models the disk failing mid-read, e.g. during a hot
        // reload of a replacement snapshot.
        if let Some(msg) = da_failpoints::check("snapshot/load") {
            return Err(SnapshotError::Io(std::io::Error::other(msg)));
        }
        let file = File::open(path.as_ref())?;
        // SAFETY: the mapping is validated by checksum immediately after
        // being created; concurrent modification of a published snapshot
        // file is excluded by convention (publish by writing a temporary
        // file and renaming it over the old one).
        let map = unsafe { Mmap::map(&file)? };
        let region: Arc<dyn ByteRegion> = Arc::new(map);
        // The borrow is re-derived from the Arc'd region for decoding; the
        // resulting Storage windows keep the region alive independently.
        let bytes: &[u8] =
            unsafe { std::slice::from_raw_parts(region.bytes().as_ptr(), region.bytes().len()) };
        decode_plan(bytes, region)
    }
}
