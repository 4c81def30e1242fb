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
/// assert_eq!(codec::decode_updates::<f32>(wire), Ok(updates));
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

/// A payload [`decode_updates`] refuses: its size is not the one its
/// count announces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BadUpdates {
    /// The announced count (`None` when the payload is shorter than the
    /// 8-byte count itself).
    pub count: Option<u64>,
    /// Payload bytes after the count.
    pub body: usize,
}

impl core::fmt::Display for BadUpdates {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self.count {
            Some(n) => write!(
                f,
                "update payload announces {n} updates in {} bytes",
                self.body
            ),
            None => write!(f, "update payload of {} bytes has no count", self.body),
        }
    }
}

impl std::error::Error for BadUpdates {}

/// Decodes the output of [`encode_updates`]. The payload comes from
/// another process, so its size is checked against the count it
/// announces before anything is allocated.
///
/// # Errors
///
/// [`BadUpdates`] unless the payload is exactly a count `n` followed by
/// `n` updates.
pub fn decode_updates<T: Element>(mut wire: Bytes) -> Result<Vec<(u64, T)>, BadUpdates> {
    if wire.len() < 8 {
        return Err(BadUpdates {
            count: None,
            body: wire.len(),
        });
    }
    let n = wire.get_u64_le();
    let body = wire.len();
    if n.checked_mul(8 + T::WIRE_BYTES as u64) != Some(body as u64) {
        return Err(BadUpdates {
            count: Some(n),
            body,
        });
    }
    let mut out = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let idx = wire.get_u64_le();
        out.push((idx, T::decode(&mut wire)));
    }
    Ok(out)
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
        assert_eq!(decode_updates::<f64>(wire), Ok(updates));
    }

    #[test]
    fn empty_updates_roundtrip() {
        let wire = encode_updates::<f32>(&[]);
        assert_eq!(wire.len(), 8);
        assert_eq!(decode_updates::<f32>(wire), Ok(Vec::new()));
    }

    #[test]
    fn sizes_that_disagree_with_the_count_are_rejected() {
        let wire = |count: u64, body: usize| {
            let mut w = BytesMut::new();
            w.put_u64_le(count);
            w.put_slice(&vec![0; body]);
            w.freeze()
        };
        let bad = |count, body| Err(BadUpdates { count, body });
        // Trailing bytes, a truncated update, and counts whose size
        // overflows or would need terabytes: nothing is allocated.
        assert_eq!(decode_updates::<f32>(wire(0, 1)), bad(Some(0), 1));
        assert_eq!(decode_updates::<f32>(wire(2, 23)), bad(Some(2), 23));
        assert_eq!(
            decode_updates::<f32>(wire(u64::MAX, 8)),
            bad(Some(u64::MAX), 8)
        );
        assert_eq!(
            decode_updates::<f32>(wire(1 << 40, 8)),
            bad(Some(1 << 40), 8)
        );
        assert_eq!(
            decode_updates::<f32>(Bytes::from_static(&[1, 2])),
            bad(None, 2)
        );
    }
}
