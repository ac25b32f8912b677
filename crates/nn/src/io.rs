//! Self-contained binary weight serialization (little-endian, versioned).
//!
//! No serde format crate is available offline, so the format is deliberately
//! trivial: a magic tag, a version, then two tensor lists — the parameters
//! and the non-learnable evaluation state ([`Network::buffers`]: batch-norm
//! running statistics) — each as a count followed by every tensor as
//! `rank, dims..., f32 data`. Loading validates the shapes against the
//! receiving network and rejects corrupt, mismatched or older-version files.

use std::borrow::Borrow;
use std::fmt;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use da_tensor::Tensor;

use crate::Network;

const MAGIC: &[u8; 4] = b"DANN";
/// Version 1 stored parameters only, so batch-norm networks came back with
/// default running statistics.
const VERSION: u32 = 2;

/// Errors produced by model (de)serialization.
#[derive(Debug)]
pub enum ModelIoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structurally invalid or mismatched file.
    Format(String),
}

impl fmt::Display for ModelIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelIoError::Io(e) => write!(f, "model file i/o error: {e}"),
            ModelIoError::Format(msg) => write!(f, "invalid model file: {msg}"),
        }
    }
}

impl std::error::Error for ModelIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ModelIoError::Io(e) => Some(e),
            ModelIoError::Format(_) => None,
        }
    }
}

impl From<io::Error> for ModelIoError {
    fn from(e: io::Error) -> Self {
        ModelIoError::Io(e)
    }
}

/// Write `network`'s parameters and evaluation state (batch-norm running
/// statistics) to `path`.
///
/// # Errors
///
/// Returns [`ModelIoError::Io`] on filesystem failures.
pub fn save_params(network: &Network, path: impl AsRef<Path>) -> Result<(), ModelIoError> {
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    write_tensors(&mut w, &network.params())?;
    write_tensors(&mut w, &network.buffers())?;
    w.flush()?;
    Ok(())
}

fn write_tensors<W: Write, T: Borrow<Tensor>>(w: &mut W, tensors: &[T]) -> io::Result<()> {
    w.write_all(&(tensors.len() as u32).to_le_bytes())?;
    for t in tensors.iter().map(Borrow::borrow) {
        w.write_all(&(t.shape().len() as u32).to_le_bytes())?;
        for &d in t.shape() {
            w.write_all(&(d as u32).to_le_bytes())?;
        }
        for &v in t.data() {
            w.write_all(&v.to_le_bytes())?;
        }
    }
    Ok(())
}

/// Load parameters and evaluation state saved by [`save_params`] into
/// `network`.
///
/// # Errors
///
/// Returns [`ModelIoError::Format`] if the file is corrupt, from a different
/// version, or its tensor count/shapes do not match `network`.
pub fn load_params(network: &mut Network, path: impl AsRef<Path>) -> Result<(), ModelIoError> {
    let mut r = BufReader::new(File::open(path)?);

    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)
        .map_err(|_| ModelIoError::Format("file too short for header".into()))?;
    if &magic != MAGIC {
        return Err(ModelIoError::Format(format!("bad magic {magic:?}")));
    }
    let version = read_u32(&mut r)?;
    if version != VERSION {
        return Err(ModelIoError::Format(format!("unsupported version {version}")));
    }

    let params = read_tensors(&mut r, "parameter", &network.params(), network.name())?;
    let buffers = read_tensors(&mut r, "buffer", &network.buffers(), network.name())?;

    // Trailing garbage indicates corruption.
    let mut probe = [0u8; 1];
    if r.read(&mut probe)? != 0 {
        return Err(ModelIoError::Format("trailing bytes after tensor data".into()));
    }

    for (param, loaded) in network.params_mut().into_iter().zip(params) {
        *param = loaded;
    }
    network.set_buffers(buffers);
    Ok(())
}

/// Read one tensor list, checking its count and every shape against
/// `expected` before returning it.
fn read_tensors<R: Read, T: Borrow<Tensor>>(
    r: &mut R,
    what: &str,
    expected: &[T],
    network: &str,
) -> Result<Vec<Tensor>, ModelIoError> {
    let count = read_u32(r)? as usize;
    if count != expected.len() {
        return Err(ModelIoError::Format(format!(
            "file has {count} {what} tensors, network '{network}' expects {}",
            expected.len()
        )));
    }
    let mut tensors = Vec::with_capacity(count);
    for (idx, current) in expected.iter().map(Borrow::borrow).enumerate() {
        let rank = read_u32(r)? as usize;
        if rank == 0 || rank > 8 {
            return Err(ModelIoError::Format(format!("{what} tensor {idx} has rank {rank}")));
        }
        let mut shape = Vec::with_capacity(rank);
        for _ in 0..rank {
            shape.push(read_u32(r)? as usize);
        }
        let len: usize = shape.iter().product();
        if len == 0 || len > (1 << 28) {
            return Err(ModelIoError::Format(format!(
                "{what} tensor {idx} has implausible shape {shape:?}"
            )));
        }
        if current.shape() != shape {
            return Err(ModelIoError::Format(format!(
                "{what} tensor {idx} shape {shape:?} does not match network shape {:?}",
                current.shape()
            )));
        }
        let mut data = vec![0.0f32; len];
        for v in &mut data {
            *v = read_f32(r)?;
        }
        tensors.push(Tensor::from_vec(data, &shape));
    }
    Ok(tensors)
}

fn read_u32<R: Read>(r: &mut R) -> Result<u32, ModelIoError> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf).map_err(|_| ModelIoError::Format("unexpected end of file".into()))?;
    Ok(u32::from_le_bytes(buf))
}

fn read_f32<R: Read>(r: &mut R) -> Result<f32, ModelIoError> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf).map_err(|_| ModelIoError::Format("unexpected end of file".into()))?;
    Ok(f32::from_le_bytes(buf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Relu};
    use rand::SeedableRng;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("da-nn-io-tests");
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir.join(name)
    }

    fn make_net(seed: u64) -> Network {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Network::new("io-test")
            .push(Dense::new(4, 8, &mut rng))
            .push(Relu)
            .push(Dense::new(8, 2, &mut rng))
    }

    #[test]
    fn round_trip_preserves_outputs() {
        let path = tmp("round_trip.bin");
        let source = make_net(1);
        save_params(&source, &path).expect("save");
        let mut target = make_net(2);
        let x = Tensor::from_vec(vec![0.1, -0.2, 0.3, 0.4], &[1, 4]);
        assert_ne!(source.logits(&x), target.logits(&x));
        load_params(&mut target, &path).expect("load");
        assert_eq!(source.logits(&x), target.logits(&x));
    }

    /// Batch-norm running statistics travel with the parameters: a trained
    /// BN net reloaded into a fresh one evaluates identically, bit for bit.
    #[test]
    fn round_trip_preserves_batch_norm_statistics() {
        use crate::layers::{BatchNorm, Mode};
        use crate::optim::Sgd;
        use crate::train::{train, TrainConfig};

        let build = |seed: u64| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            Network::new("io-bn-test")
                .push(Dense::new(4, 6, &mut rng))
                .push(BatchNorm::new(6))
                .push(Relu)
                .push(Dense::new(6, 3, &mut rng))
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let xs = Tensor::randn(&[24, 4], 2.0, &mut rng).map(|v| v + 1.5);
        let labels: Vec<usize> = (0..24).map(|i| i % 3).collect();
        let mut source = build(10);
        let config = TrainConfig { epochs: 3, batch_size: 8, seed: 1, verbose: false };
        train(&mut source, &xs, &labels, &config, &mut Sgd::new(0.05));
        assert_ne!(source.buffers(), build(10).buffers(), "training must move the statistics");

        let path = tmp("round_trip_bn.bin");
        save_params(&source, &path).expect("save");
        let mut target = build(11);
        load_params(&mut target, &path).expect("load");
        let (want, got) = (source.forward(&xs, Mode::Eval).0, target.forward(&xs, Mode::Eval).0);
        for (g, w) in got.data().iter().zip(want.data()) {
            assert_eq!(g.to_bits(), w.to_bits(), "{g:?} vs {w:?}");
        }
    }

    /// A version-1 file (parameters only) is rejected, so a model cache
    /// retrains instead of loading default batch-norm statistics.
    #[test]
    fn rejects_version_one_files() {
        let path = tmp("version_one.bin");
        save_params(&make_net(12), &path).expect("save");
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&path, bytes).expect("rewrite");
        let err = load_params(&mut make_net(12), &path).expect_err("must fail");
        assert!(err.to_string().contains("unsupported version 1"), "{err}");
    }

    #[test]
    fn rejects_truncated_file() {
        let path = tmp("truncated.bin");
        save_params(&make_net(3), &path).expect("save");
        let bytes = std::fs::read(&path).expect("read");
        std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate");
        let err = load_params(&mut make_net(3), &path).expect_err("must fail");
        assert!(matches!(err, ModelIoError::Format(_)), "{err}");
    }

    #[test]
    fn rejects_bad_magic() {
        let path = tmp("bad_magic.bin");
        std::fs::write(&path, b"NOPE00000000").expect("write");
        let err = load_params(&mut make_net(4), &path).expect_err("must fail");
        assert!(err.to_string().contains("bad magic"), "{err}");
    }

    #[test]
    fn rejects_architecture_mismatch() {
        let path = tmp("arch_mismatch.bin");
        save_params(&make_net(5), &path).expect("save");
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let mut other = Network::new("other").push(Dense::new(4, 3, &mut rng));
        let err = load_params(&mut other, &path).expect_err("must fail");
        assert!(matches!(err, ModelIoError::Format(_)), "{err}");
    }

    #[test]
    fn rejects_trailing_garbage() {
        let path = tmp("trailing.bin");
        save_params(&make_net(7), &path).expect("save");
        let mut bytes = std::fs::read(&path).expect("read");
        bytes.push(0xAB);
        std::fs::write(&path, bytes).expect("extend");
        let err = load_params(&mut make_net(7), &path).expect_err("must fail");
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = load_params(&mut make_net(8), tmp("does_not_exist.bin")).expect_err("must fail");
        assert!(matches!(err, ModelIoError::Io(_)), "{err}");
    }
}
