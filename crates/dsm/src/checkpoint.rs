//! DistArray checkpointing (paper §4.3, "Fault tolerance").
//!
//! "An Orion driver program can checkpoint a DistArray by writing it to
//! disk, which is eagerly evaluated. For ML training, a common approach
//! is to checkpoint the parameter DistArrays every N data passes."
//!
//! The on-disk format reuses the wire codec: a small header (magic,
//! name, density, shape, origin) followed by either a dense run or
//! sparse updates.

use std::io::{Read as _, Write as _};
use std::path::Path;

use bytes::{Buf, BufMut, Bytes};

use crate::array::{DistArray, Storage};
use crate::codec;
use crate::element::Element;

const MAGIC: u32 = 0x4F52_4E43; // "ORNC"

/// Errors from checkpoint I/O.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// The file is not a valid checkpoint (bad magic, truncated, or an
    /// element-size mismatch against the requested type).
    Corrupt(String),
}

impl core::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Corrupt(m) => write!(f, "corrupt checkpoint: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Serializes an array to its checkpoint byte representation.
pub fn to_bytes<T: Element>(array: &DistArray<T>) -> Bytes {
    let mut image = Vec::new();
    encode_into(array, &mut image);
    Bytes::from(image)
}

/// Exactly how many bytes [`encode_into`] appends for `array`.
pub fn encoded_len<T: Element>(array: &DistArray<T>) -> usize {
    let header = 4 + 4 + 4 + array.name().len() + 4 + 16 * array.shape().ndims() + 1;
    header
        + match array.storage() {
            Storage::Dense(values) => 16 + values.len() * T::WIRE_BYTES,
            Storage::Sparse(store) => codec::updates_wire_bytes::<T>(store.len() as u64) as usize,
        }
}

/// Appends the checkpoint image of `array` — the bytes of [`to_bytes`]
/// — to a buffer the caller owns, so a rotated partition is written
/// straight into the frame that carries it. Reserves
/// [`encoded_len`] up front: an empty buffer ends up exactly sized.
pub fn encode_into<T: Element>(array: &DistArray<T>, out: &mut Vec<u8>) {
    out.reserve(encoded_len(array));
    out.put_u32_le(MAGIC);
    out.put_u32_le(T::WIRE_BYTES as u32);
    let name = array.name().as_bytes();
    out.put_u32_le(name.len() as u32);
    out.put_slice(name);
    let dims = array.shape().dims();
    out.put_u32_le(dims.len() as u32);
    for &d in dims {
        out.put_u64_le(d);
    }
    for &o in array.origin() {
        out.put_i64_le(o);
    }
    match array.storage() {
        Storage::Dense(values) => {
            out.put_u8(0);
            // A dense run: base flat index (always 0), count, elements.
            out.put_u64_le(0);
            out.put_u64_le(values.len() as u64);
            T::encode_slice(values, out);
        }
        Storage::Sparse(store) => {
            out.put_u8(1);
            let updates: Vec<(u64, T)> = store.iter().map(|(k, v)| (k, v.clone())).collect();
            out.put_slice(&codec::encode_updates(&updates));
        }
    }
}

/// Deserializes a checkpoint produced by [`to_bytes`].
///
/// # Errors
///
/// Returns [`CheckpointError::Corrupt`] on malformed input or an element
/// type whose wire size differs from the checkpoint's.
pub fn from_bytes<T: Element>(mut wire: Bytes) -> Result<DistArray<T>, CheckpointError> {
    let need = |n: usize, wire: &Bytes| -> Result<(), CheckpointError> {
        if wire.remaining() < n {
            Err(CheckpointError::Corrupt("truncated".into()))
        } else {
            Ok(())
        }
    };
    need(12, &wire)?;
    if wire.get_u32_le() != MAGIC {
        return Err(CheckpointError::Corrupt("bad magic".into()));
    }
    let elem = wire.get_u32_le() as usize;
    if elem != T::WIRE_BYTES {
        return Err(CheckpointError::Corrupt(format!(
            "element size {elem} does not match requested type ({})",
            T::WIRE_BYTES
        )));
    }
    let name_len = wire.get_u32_le() as usize;
    need(name_len, &wire)?;
    let name = String::from_utf8(wire.copy_to_bytes(name_len).to_vec())
        .map_err(|_| CheckpointError::Corrupt("bad name".into()))?;
    need(4, &wire)?;
    let ndims = wire.get_u32_le() as usize;
    if ndims == 0 || ndims > 16 {
        return Err(CheckpointError::Corrupt(format!("ndims {ndims}")));
    }
    need(ndims * 16 + 1, &wire)?;
    let dims: Vec<u64> = (0..ndims).map(|_| wire.get_u64_le()).collect();
    let origin: Vec<i64> = (0..ndims).map(|_| wire.get_i64_le()).collect();
    // A hostile shape must not reach `Shape::new` (zero extents panic)
    // or wrap the volume every later length check is made against.
    let volume = dims
        .iter()
        .try_fold(1u64, |v, &d| v.checked_mul(d))
        .filter(|&v| v > 0)
        .ok_or_else(|| {
            CheckpointError::Corrupt(format!("shape {dims:?} overflows or has a zero extent"))
        })?;
    let tag = wire.get_u8();
    // The payload is decoded inline rather than through `codec`: the
    // codec decoders are wire-path helpers that panic on malformed
    // buffers, while a checkpoint file can be truncated by a crash and
    // must come back as `Corrupt`. Lengths are validated exactly, before
    // any allocation.
    match tag {
        0 => {
            need(16, &wire)?;
            let base = wire.get_u64_le();
            if base != 0 {
                return Err(CheckpointError::Corrupt("dense base must be 0".into()));
            }
            let n = wire.get_u64_le();
            if n != volume {
                return Err(CheckpointError::Corrupt(format!(
                    "dense payload {n} != volume {volume}"
                )));
            }
            let payload = n
                .checked_mul(T::WIRE_BYTES as u64)
                .ok_or_else(|| CheckpointError::Corrupt(format!("dense count {n} overflows")))?;
            if wire.remaining() as u64 != payload {
                return Err(CheckpointError::Corrupt(format!(
                    "dense payload holds {} of {payload} bytes",
                    wire.remaining()
                )));
            }
            Ok(DistArray::dense_from_vec(name, dims, T::decode_slice(&wire)).with_origin(origin))
        }
        1 => {
            need(8, &wire)?;
            let n = wire.get_u64_le();
            let payload = n
                .checked_mul(8 + T::WIRE_BYTES as u64)
                .ok_or_else(|| CheckpointError::Corrupt(format!("update count {n} overflows")))?;
            if wire.remaining() as u64 != payload {
                return Err(CheckpointError::Corrupt(format!(
                    "sparse payload holds {} of {payload} bytes",
                    wire.remaining()
                )));
            }
            let mut updates = Vec::with_capacity(n as usize);
            for _ in 0..n {
                let flat = wire.get_u64_le();
                if flat >= volume {
                    return Err(CheckpointError::Corrupt(format!(
                        "index {flat} out of bounds {volume}"
                    )));
                }
                updates.push((flat, T::decode(&mut wire)));
            }
            Ok(DistArray::sparse_from_flat(name, dims, updates).with_origin(origin))
        }
        other => Err(CheckpointError::Corrupt(format!("bad storage tag {other}"))),
    }
}

/// Writes an array checkpoint to `path` (eagerly, like `Orion`'s
/// checkpoint operation) and returns the bytes written.
///
/// The write is atomic: the payload goes to a `<path>.tmp` sibling,
/// is fsynced, then renamed over `path`. A crash mid-checkpoint leaves
/// either the previous complete checkpoint or a stray `.tmp` — never a
/// torn file at `path`.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn save<T: Element>(
    array: &DistArray<T>,
    path: impl AsRef<Path>,
) -> Result<u64, CheckpointError> {
    let path = path.as_ref();
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let bytes = to_bytes(array);
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(&bytes)?;
    f.sync_all()?;
    drop(f);
    std::fs::rename(&tmp, path)?;
    Ok(bytes.len() as u64)
}

/// Loads an array checkpoint from `path`.
///
/// # Errors
///
/// Propagates filesystem errors and corrupt-checkpoint failures.
pub fn load<T: Element>(path: impl AsRef<Path>) -> Result<DistArray<T>, CheckpointError> {
    let mut f = std::fs::File::open(path)?;
    let mut buf = Vec::new();
    f.read_to_end(&mut buf)?;
    from_bytes(Bytes::from(buf))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("orion_ckpt_{}_{}", std::process::id(), name))
    }

    #[test]
    fn dense_roundtrip() {
        let a: DistArray<f32> =
            DistArray::dense_from_fn("W", vec![6, 4], |i| (i[0] * 4 + i[1]) as f32);
        let b = from_bytes::<f32>(to_bytes(&a)).unwrap();
        assert_eq!(a, b);
        assert_eq!(b.name(), "W");
    }

    #[test]
    fn sparse_roundtrip() {
        let a: DistArray<u32> = DistArray::sparse_from(
            "tokens",
            vec![100, 50],
            vec![(vec![3, 4], 7), (vec![99, 49], 1)],
        );
        let b = from_bytes::<u32>(to_bytes(&a)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn file_roundtrip() {
        let path = tmp("file");
        let a: DistArray<f64> = DistArray::dense_from_fn("H", vec![3, 3], |i| i[0] as f64 / 3.0);
        save(&a, &path).unwrap();
        let b = load::<f64>(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(a, b);
    }

    #[test]
    fn partition_origin_roundtrips() {
        let a: DistArray<f32> =
            DistArray::dense_from_fn("Wpart", vec![4, 3], |i| (i[0] - i[1]) as f32)
                .with_origin(vec![8, -2]);
        let b = from_bytes::<f32>(to_bytes(&a)).unwrap();
        assert_eq!(a, b);
        assert_eq!(b.origin(), &[8, -2]);
    }

    #[test]
    fn save_is_atomic_and_reports_bytes() {
        let path = tmp("atomic");
        let a: DistArray<f32> = DistArray::dense_from_fn("W", vec![4, 4], |i| i[0] as f32);
        let n = save(&a, &path).unwrap();
        assert_eq!(n, to_bytes(&a).len() as u64);
        let mut tmp_path = path.as_os_str().to_os_string();
        tmp_path.push(".tmp");
        assert!(
            !std::path::Path::new(&tmp_path).exists(),
            "temp file must be renamed away"
        );
        // Overwriting an existing checkpoint also goes through the
        // temp file, replacing the old content wholesale.
        let newer: DistArray<f32> = DistArray::dense_from_fn("W", vec![4, 4], |i| i[1] as f32);
        save(&newer, &path).unwrap();
        let back = load::<f32>(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back, newer);
    }

    #[test]
    fn every_strict_prefix_is_corrupt_not_panic() {
        let dense: DistArray<f32> = DistArray::dense_from_fn("W", vec![3, 2], |i| i[0] as f32);
        let sparse: DistArray<u64> =
            DistArray::sparse_from("S", vec![9, 9], vec![(vec![1, 2], 3), (vec![8, 8], 4)]);
        for bytes in [to_bytes(&dense), to_bytes(&sparse)] {
            for cut in 0..bytes.len() {
                let err = from_bytes::<f32>(bytes.slice(0..cut)).unwrap_err();
                assert!(matches!(err, CheckpointError::Corrupt(_)), "prefix {cut}");
            }
        }
    }

    #[test]
    fn trailing_garbage_is_corrupt() {
        let a: DistArray<f32> = DistArray::dense("W", vec![2, 2]);
        let mut extended = to_bytes(&a).to_vec();
        extended.extend_from_slice(&[0xAB; 3]);
        let err = from_bytes::<f32>(Bytes::from(extended)).unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt(_)));
    }

    #[test]
    fn wrong_element_type_rejected() {
        let a: DistArray<f32> = DistArray::dense("W", vec![2, 2]);
        let err = from_bytes::<f64>(to_bytes(&a)).unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt(_)));
    }

    #[test]
    fn truncated_rejected() {
        let a: DistArray<f32> = DistArray::dense("W", vec![2, 2]);
        let bytes = to_bytes(&a);
        let cut = bytes.slice(0..bytes.len() / 2);
        assert!(from_bytes::<f32>(cut).is_err());
    }

    #[test]
    fn bad_magic_rejected() {
        let err = from_bytes::<f32>(Bytes::from_static(&[0u8; 64])).unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt(_)));
    }

    /// A shape whose volume wraps (2^32 × 2^32 ≡ 0) used to pass the
    /// `count == volume` check with a count of 0 (release) or panic in
    /// the product (debug); so did a zero extent, in `Shape::new`.
    #[test]
    fn overflowing_or_empty_shape_is_corrupt() {
        let a: DistArray<f32> = DistArray::dense("W", vec![2, 2]);
        let image = to_bytes(&a);
        // magic, width, name len, "W", ndims = 17 bytes; then dims.
        for dims in [[1u64 << 32, 1 << 32], [0, 4], [u64::MAX, 2]] {
            for tag in [0u8, 1] {
                let mut v = image[..17].to_vec();
                dims.iter().for_each(|d| v.put_u64_le(*d));
                v.extend_from_slice(&[0u8; 16]); // origin
                v.put_u8(tag);
                // An empty payload of either kind: dense (base, count) or
                // a sparse count.
                v.resize(v.len() + if tag == 0 { 16 } else { 8 }, 0);
                let err = from_bytes::<f32>(Bytes::from(v)).unwrap_err();
                assert!(
                    matches!(&err, CheckpointError::Corrupt(m) if m.contains("overflows")),
                    "{dims:?} tag {tag}: {err}"
                );
            }
        }
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = load::<f32>(tmp("does_not_exist")).unwrap_err();
        assert!(matches!(err, CheckpointError::Io(_)));
    }
}
