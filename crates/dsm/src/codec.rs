//! Wire encoding of DSM traffic.
//!
//! The runtime serializes rotated partitions and parameter-server
//! messages through these helpers; the simulator charges marshalling CPU
//! time and network bytes based on the exact encoded sizes. (STRADS's
//! intra-machine "pointer swapping" optimization — §6.4 — shows up as
//! *skipping* this codec for same-machine transfers.)
//!
//! What marshalling costs here: a dense payload goes through
//! [`Element::encode_slice`] / [`Element::decode_slice`], one pass per
//! side — ≈ 20–26 GB/s out and ≈ 10–14 GB/s in on the ledger's 256 KB
//! `f32` partition (`dsm.ckpt_encode_mb_s` / `dsm.ckpt_decode_mb_s`),
//! against ≈ 13–23 GB/s for a plain copy of the same bytes
//! (`net.msg_codec_mb_s`); it was ≈ 0.9–1.3 GB/s each way when every
//! element made its own buffer call, a quarter of an `mf_net` epoch.
//! The sparse `(index, value)` pairs below still encode per pair: they
//! are control-plane sized (SLR's prefetch set, a sparse checkpoint).

/// The wire byte buffer (re-exported so callers can build and inspect
/// encoded payloads without naming the underlying crate).
pub use bytes::Bytes;
use bytes::{Buf, BufMut, BytesMut};

use crate::element::Element;

/// Encodes sparse updates (`flat index`, value) pairs.
///
/// Layout: `u64` count, then per item a `u64` index and the element.
///
/// # Examples
///
/// ```
/// use orion_dsm::codec;
/// let updates = vec![(3u64, 1.5f32), (7, -2.0)];
/// let wire = codec::encode_updates(&updates);
/// assert_eq!(wire.len() as u64, codec::updates_wire_bytes::<f32>(2));
/// assert_eq!(codec::decode_updates::<f32>(wire), updates);
/// ```
pub fn encode_updates<T: Element>(updates: &[(u64, T)]) -> Bytes {
    let mut buf = BytesMut::with_capacity(8 + updates.len() * (8 + T::WIRE_BYTES));
    buf.put_u64_le(updates.len() as u64);
    for (idx, v) in updates {
        buf.put_u64_le(*idx);
        v.encode(&mut buf);
    }
    buf.freeze()
}

/// Decodes the output of [`encode_updates`].
///
/// # Panics
///
/// Panics on a truncated or malformed buffer.
pub fn decode_updates<T: Element>(mut wire: Bytes) -> Vec<(u64, T)> {
    let n = wire.get_u64_le() as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let idx = wire.get_u64_le();
        out.push((idx, T::decode(&mut wire)));
    }
    assert!(!wire.has_remaining(), "trailing bytes after updates");
    out
}

/// Wire size of `n` sparse updates without encoding them.
pub fn updates_wire_bytes<T: Element>(n: u64) -> u64 {
    8 + n * (8 + T::WIRE_BYTES as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn updates_roundtrip() {
        let updates: Vec<(u64, f64)> = (0..100).map(|i| (i * 3, i as f64 * 0.5)).collect();
        let wire = encode_updates(&updates);
        assert_eq!(wire.len() as u64, updates_wire_bytes::<f64>(100));
        assert_eq!(decode_updates::<f64>(wire), updates);
    }

    #[test]
    fn empty_updates_roundtrip() {
        let wire = encode_updates::<f32>(&[]);
        assert_eq!(wire.len(), 8);
        assert!(decode_updates::<f32>(wire).is_empty());
    }

    #[test]
    #[should_panic(expected = "trailing bytes")]
    fn trailing_bytes_rejected() {
        let mut wire = BytesMut::new();
        wire.put_u64_le(0);
        wire.put_u8(0xFF);
        let _ = decode_updates::<f32>(wire.freeze());
    }
}
