//! Flat binary save/load of network state.
//!
//! Trained model variants are cached on disk so the figure-reproduction
//! binaries do not retrain on every run. The format is a simple
//! little-endian stream — magic, version, a caller-supplied 64-bit
//! configuration stamp, parameter count, then per parameter its rank,
//! dimensions and `f32` data, then buffer count and per buffer its length
//! and `f32` data. Buffers are the layers' non-trainable state (batch-norm
//! running statistics), without which an eval-mode forward of a reloaded
//! network would differ from the network that was saved.
//!
//! The stamp exists so checkpoints are rejected — not silently loaded —
//! when anything upstream of the weights changed: the caller hashes
//! whatever configuration the weights depend on (training recipe, model
//! layout, accelerator profile) and the loader compares stamps before
//! touching any tensor data. Files written by format versions 1 (which had
//! no stamp) and 2 (which had no buffers) are rejected outright for the
//! same reason.

use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::Path;

use crate::model::Network;
use crate::NeuroError;

const MAGIC: &[u8; 4] = b"SLNN";
const VERSION: u32 = 3;

/// Saves all parameter and buffer values of `network` to `path`.
///
/// # Errors
///
/// Returns [`NeuroError::Io`] on filesystem errors.
///
/// # Example
///
/// ```no_run
/// use safelight_neuro::{save_network_params, Linear, Network};
///
/// # fn main() -> Result<(), safelight_neuro::NeuroError> {
/// let mut net = Network::new();
/// net.push(Linear::new(4, 2, 1)?);
/// save_network_params(&net, "model.slnn")?;
/// # Ok(())
/// # }
/// ```
pub fn save_network_params<P: AsRef<Path>>(network: &Network, path: P) -> Result<(), NeuroError> {
    save_network_params_stamped(network, path, 0)
}

/// Saves all parameter and buffer values of `network` to `path`, recording `stamp` —
/// a caller-computed hash of every configuration the weights depend on —
/// in the file header. [`load_network_params_stamped`] refuses to load the
/// file under a different stamp.
///
/// # Errors
///
/// Returns [`NeuroError::Io`] on filesystem errors.
pub fn save_network_params_stamped<P: AsRef<Path>>(
    network: &Network,
    path: P,
    stamp: u64,
) -> Result<(), NeuroError> {
    let file = File::create(path)?;
    let mut w = BufWriter::new(file);
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&stamp.to_le_bytes())?;
    let params = network.params();
    w.write_all(&(params.len() as u32).to_le_bytes())?;
    for p in params {
        let shape = p.value.shape();
        w.write_all(&(shape.len() as u32).to_le_bytes())?;
        for &d in shape {
            w.write_all(&(d as u64).to_le_bytes())?;
        }
        for &v in p.value.as_slice() {
            w.write_all(&v.to_le_bytes())?;
        }
    }
    let buffers = network.buffers();
    w.write_all(&(buffers.len() as u32).to_le_bytes())?;
    for b in buffers {
        w.write_all(&(b.len() as u64).to_le_bytes())?;
        for &v in b {
            w.write_all(&v.to_le_bytes())?;
        }
    }
    w.flush()?;
    Ok(())
}

/// Loads parameter and buffer values from `path` into `network`.
///
/// The network must already have the exact architecture the file was saved
/// from — this function restores values, it does not build layers.
///
/// # Errors
///
/// Returns [`NeuroError::MalformedModelFile`] when the file does not match
/// the network (wrong magic, version, count or shapes, or trailing bytes)
/// and [`NeuroError::Io`] on filesystem errors or a truncated file. On any
/// error `network` is left unchanged.
pub fn load_network_params<P: AsRef<Path>>(
    network: &mut Network,
    path: P,
) -> Result<(), NeuroError> {
    load_network_params_stamped(network, path, 0)
}

/// Loads parameter and buffer values from `path` into `network`, verifying that the
/// file was saved under configuration stamp `expected_stamp`.
///
/// This is the cache-integrity gate: a checkpoint trained under an older
/// recipe, model layout or accelerator profile carries a different stamp
/// and is rejected *before* any weights are read, instead of silently
/// loading stale data whose shapes happen to match.
///
/// # Errors
///
/// Returns [`NeuroError::MalformedModelFile`] when the file does not match
/// the network or the stamp (wrong magic, version, stamp, count or shapes,
/// or trailing bytes) and [`NeuroError::Io`] on filesystem errors or a
/// truncated file. On any error `network` is left unchanged: the whole
/// payload is parsed before the first value is written.
pub fn load_network_params_stamped<P: AsRef<Path>>(
    network: &mut Network,
    path: P,
    expected_stamp: u64,
) -> Result<(), NeuroError> {
    // Parse the whole file into staging buffers before touching the
    // network, so a truncated or malformed payload leaves it unchanged.
    let bytes = std::fs::read(path)?;
    let mut r = bytes.as_slice();

    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(NeuroError::MalformedModelFile {
            context: "bad magic".into(),
        });
    }
    let version = read_u32(&mut r)?;
    if version != VERSION {
        return Err(NeuroError::MalformedModelFile {
            context: format!("unsupported version {version}"),
        });
    }
    let stamp = read_u64(&mut r)?;
    if stamp != expected_stamp {
        return Err(NeuroError::MalformedModelFile {
            context: format!(
                "configuration stamp mismatch: file {stamp:#018x}, expected \
                 {expected_stamp:#018x} (checkpoint was written under a different \
                 recipe/layout — retrain instead of loading stale weights)"
            ),
        });
    }
    let count = read_u32(&mut r)? as usize;
    let shapes: Vec<Vec<usize>> = network
        .params()
        .iter()
        .map(|p| p.value.shape().to_vec())
        .collect();
    if shapes.len() != count {
        return Err(NeuroError::MalformedModelFile {
            context: format!("file has {count} parameters, network has {}", shapes.len()),
        });
    }
    let mut params = Vec::with_capacity(count);
    for (i, expected) in shapes.iter().enumerate() {
        let rank = read_u32(&mut r)? as usize;
        let mut shape = Vec::with_capacity(rank.min(expected.len()));
        for _ in 0..rank {
            shape.push(read_u64(&mut r)? as usize);
        }
        if &shape != expected {
            return Err(NeuroError::MalformedModelFile {
                context: format!("parameter {i}: file shape {shape:?} vs network {expected:?}"),
            });
        }
        params.push(read_f32s(&mut r, expected.iter().product())?);
    }
    let count = read_u32(&mut r)? as usize;
    let lengths: Vec<usize> = network.buffers().iter().map(|b| b.len()).collect();
    if lengths.len() != count {
        return Err(NeuroError::MalformedModelFile {
            context: format!("file has {count} buffers, network has {}", lengths.len()),
        });
    }
    let mut buffers = Vec::with_capacity(count);
    for (i, &expected) in lengths.iter().enumerate() {
        let len = read_u64(&mut r)?;
        if len != expected as u64 {
            return Err(NeuroError::MalformedModelFile {
                context: format!("buffer {i}: file length {len} vs network {expected}"),
            });
        }
        buffers.push(read_f32s(&mut r, expected)?);
    }
    if !r.is_empty() {
        return Err(NeuroError::MalformedModelFile {
            context: format!("{} trailing bytes after the payload", r.len()),
        });
    }

    for (param, staged) in network.params_mut().into_iter().zip(&params) {
        param.value.as_mut_slice().copy_from_slice(staged);
    }
    for (buffer, staged) in network.buffers_mut().into_iter().zip(&buffers) {
        buffer.copy_from_slice(staged);
    }
    Ok(())
}

fn read_f32s<R: Read>(r: &mut R, n: usize) -> Result<Vec<f32>, NeuroError> {
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let mut buf = [0u8; 4];
        r.read_exact(&mut buf)?;
        out.push(f32::from_le_bytes(buf));
    }
    Ok(out)
}

fn read_u32<R: Read>(r: &mut R) -> Result<u32, NeuroError> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

fn read_u64<R: Read>(r: &mut R) -> Result<u64, NeuroError> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{BatchNorm2d, Linear, Relu, ResidualBlock};
    use crate::Tensor;

    fn tmp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "safelight-neuro-test-{name}-{}",
            std::process::id()
        ));
        p
    }

    fn build_net(seed: u64) -> Network {
        let mut net = Network::new();
        net.push(Linear::new(3, 4, seed).unwrap());
        net.push(Relu::new());
        net.push(Linear::new(4, 2, seed + 1).unwrap());
        net
    }

    #[test]
    fn save_load_round_trips_values() {
        let path = tmp_path("roundtrip");
        let source = build_net(10);
        save_network_params(&source, &path).unwrap();
        let mut target = build_net(99); // different init
        load_network_params(&mut target, &path).unwrap();
        for (a, b) in source.params().iter().zip(target.params().iter()) {
            assert_eq!(a.value.as_slice(), b.value.as_slice());
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn architecture_mismatch_is_detected() {
        let path = tmp_path("mismatch");
        save_network_params(&build_net(1), &path).unwrap();
        let mut wrong = Network::new();
        wrong.push(Linear::new(3, 4, 0).unwrap());
        assert!(matches!(
            load_network_params(&mut wrong, &path),
            Err(NeuroError::MalformedModelFile { .. })
        ));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn stamped_round_trip_verifies_the_stamp() {
        let path = tmp_path("stamped");
        let source = build_net(4);
        save_network_params_stamped(&source, &path, 0xDEAD_BEEF).unwrap();
        let mut target = build_net(5);
        load_network_params_stamped(&mut target, &path, 0xDEAD_BEEF).unwrap();
        for (a, b) in source.params().iter().zip(target.params().iter()) {
            assert_eq!(a.value.as_slice(), b.value.as_slice());
        }
        // A different stamp — a checkpoint from another configuration — is
        // rejected before any tensor data is read.
        let err = load_network_params_stamped(&mut target, &path, 0xDEAD_BEE0).unwrap_err();
        match err {
            NeuroError::MalformedModelFile { context } => {
                assert!(context.contains("stamp mismatch"), "{context}");
            }
            other => panic!("unexpected error {other:?}"),
        }
        // The unstamped API implies stamp 0 and also refuses the file.
        assert!(load_network_params(&mut target, &path).is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn version_one_files_are_rejected() {
        // A syntactically valid version-1 header (magic + version + count):
        // the pre-stamp format cannot prove which configuration produced
        // it, so loading must fail rather than guess.
        let path = tmp_path("v1");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"SLNN");
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        std::fs::write(&path, bytes).unwrap();
        let mut net = build_net(1);
        let err = load_network_params(&mut net, &path).unwrap_err();
        match err {
            NeuroError::MalformedModelFile { context } => {
                assert!(context.contains("unsupported version 1"), "{context}");
            }
            other => panic!("unexpected error {other:?}"),
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn version_two_files_are_rejected() {
        // Version 2 carried no buffers, so a batch-norm network loaded from
        // it would run eval forwards on default running statistics.
        let path = tmp_path("v2");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"SLNN");
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        std::fs::write(&path, bytes).unwrap();
        let mut net = build_net(1);
        let err = load_network_params(&mut net, &path).unwrap_err();
        match err {
            NeuroError::MalformedModelFile { context } => {
                assert!(context.contains("unsupported version 2"), "{context}");
            }
            other => panic!("unexpected error {other:?}"),
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn batch_norm_buffers_round_trip() {
        let path = tmp_path("buffers");
        let mut source = Network::new();
        source.push(ResidualBlock::new(2, 3, 2, 7).unwrap());
        source.push(BatchNorm2d::new(3).unwrap());
        let x =
            Tensor::from_vec(vec![2, 2, 4, 4], (0..64).map(|i| i as f32 / 9.0).collect()).unwrap();
        source.forward(&x, true).unwrap();
        save_network_params(&source, &path).unwrap();
        let mut target = Network::new();
        target.push(ResidualBlock::new(2, 3, 2, 8).unwrap());
        target.push(BatchNorm2d::new(3).unwrap());
        assert_ne!(source.buffers(), target.buffers());
        load_network_params(&mut target, &path).unwrap();
        // bn1, bn2 and the projection shortcut's norm, then the outer one.
        assert_eq!(target.buffers().len(), 4 * 2);
        assert_eq!(source.buffers(), target.buffers());
        std::fs::remove_file(path).ok();
    }

    /// Every parameter value of `net` as raw bits, in order.
    fn param_bits(net: &Network) -> Vec<u32> {
        net.params()
            .iter()
            .flat_map(|p| p.value.as_slice().iter().map(|v| v.to_bits()))
            .collect()
    }

    #[test]
    fn truncated_file_leaves_the_network_unchanged() {
        let path = tmp_path("truncated");
        save_network_params(&build_net(3), &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Cut inside the last bias: every earlier parameter is complete in
        // the file, so a loader that wrote while reading would already have
        // overwritten them when it hits the end.
        std::fs::write(&path, &bytes[..bytes.len() - 20]).unwrap();
        let mut net = build_net(8);
        let before = param_bits(&net);
        assert!(matches!(
            load_network_params(&mut net, &path),
            Err(NeuroError::Io { .. })
        ));
        assert_eq!(param_bits(&net), before);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let path = tmp_path("trailing");
        save_network_params(&build_net(3), &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.push(0);
        std::fs::write(&path, bytes).unwrap();
        let mut net = build_net(8);
        let before = param_bits(&net);
        match load_network_params(&mut net, &path).unwrap_err() {
            NeuroError::MalformedModelFile { context } => {
                assert!(context.contains("1 trailing bytes"), "{context}");
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert_eq!(param_bits(&net), before);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn garbage_file_is_rejected() {
        let path = tmp_path("garbage");
        std::fs::write(&path, b"not a model").unwrap();
        let mut net = build_net(1);
        assert!(load_network_params(&mut net, &path).is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let mut net = build_net(1);
        assert!(matches!(
            load_network_params(&mut net, "/nonexistent/safelight.slnn"),
            Err(NeuroError::Io { .. })
        ));
    }
}
