//! Length-prefixed framing over byte streams.
//!
//! Every message travels as one frame:
//!
//! ```text
//! [ magic u32 | kind u32 | len u64 | payload: len bytes ]   little-endian
//! ```
//!
//! The fixed 16-byte header ([`HEADER_LEN`]) makes partial-read handling
//! trivial and lets a reader resynchronize failures deterministically: a
//! wrong magic is a protocol error, a length above [`MAX_FRAME_LEN`] is
//! rejected before any allocation, a clean EOF *between* frames is
//! [`FrameError::Closed`], and an EOF *inside* a frame is
//! [`FrameError::Truncated`].
//!
//! There is one way onto a stream and one way off it, both blocking over
//! `Read`/`Write`: [`write_frame`] builds header and body in one buffer
//! and issues one write, so a frame is never split into a 16-byte
//! segment and its payload under `TCP_NODELAY`; [`read_frame`] takes
//! whatever chunks the stream's reads return and yields the same frame
//! however the bytes were split.

use std::fmt;
use std::io::{self, Read, Write};

use bytes::Bytes;

/// Frame magic, `b"ORN1"` read as a little-endian u32.
pub const MAGIC: u32 = u32::from_le_bytes(*b"ORN1");

/// Fixed byte length of a frame header: magic + kind + payload length.
pub const HEADER_LEN: usize = 16;

/// Upper bound on a frame payload (64 MiB). A length prefix above this
/// is rejected before any buffer is allocated, so a corrupt or
/// adversarial peer cannot force an out-of-memory allocation.
pub const MAX_FRAME_LEN: u64 = 64 * 1024 * 1024;

/// Errors surfaced by the framing layer.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed.
    Io(io::Error),
    /// The header did not begin with [`MAGIC`]; the stream is desynced
    /// or the peer is not speaking this protocol.
    BadMagic(u32),
    /// The length prefix exceeded [`MAX_FRAME_LEN`].
    Oversized(u64),
    /// The stream ended in the middle of a frame.
    Truncated {
        /// Bytes the frame still owed.
        expected: usize,
        /// Bytes actually read before EOF.
        got: usize,
    },
    /// The stream ended cleanly on a frame boundary.
    Closed,
    /// The payload did not decode as the declared message kind.
    Malformed(String),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "io error: {e}"),
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:#010x}"),
            FrameError::Oversized(len) => {
                write!(f, "frame length {len} exceeds cap {MAX_FRAME_LEN}")
            }
            FrameError::Truncated { expected, got } => {
                write!(
                    f,
                    "stream truncated mid-frame: wanted {expected} bytes, got {got}"
                )
            }
            FrameError::Closed => write!(f, "stream closed on a frame boundary"),
            FrameError::Malformed(msg) => write!(f, "malformed payload: {msg}"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Builds one frame in `buf` and puts it on the stream with a single
/// `write_all` (then a flush): header placeholder, then `body` appends
/// the payload in place and returns the frame kind, then kind and
/// length are patched in. The only function in this crate that writes
/// frame bytes; `buf` is the caller's so a sender can reuse one
/// allocation across frames. The length is checked against
/// [`MAX_FRAME_LEN`] before anything is written. Returns the wire size
/// in bytes (header + payload), the number fed into per-link accounting.
pub fn write_frame<W: Write>(
    w: &mut W,
    buf: &mut Vec<u8>,
    body: impl FnOnce(&mut Vec<u8>) -> u32,
) -> Result<u64, FrameError> {
    buf.clear();
    buf.extend_from_slice(&MAGIC.to_le_bytes());
    buf.extend_from_slice(&[0u8; HEADER_LEN - 4]);
    let kind = body(buf);
    let len = (buf.len() - HEADER_LEN) as u64;
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversized(len));
    }
    buf[4..8].copy_from_slice(&kind.to_le_bytes());
    buf[8..16].copy_from_slice(&len.to_le_bytes());
    w.write_all(buf)?;
    w.flush()?;
    Ok(buf.len() as u64)
}

/// Reads one complete frame, blocking until it arrives. Returns the
/// message kind and the payload bytes. A clean EOF before the first
/// header byte is [`FrameError::Closed`]; any later EOF is
/// [`FrameError::Truncated`]. The payload is read straight into
/// reserved capacity — sized from a header that already passed the
/// [`MAX_FRAME_LEN`] guard — so its bytes are written once.
pub fn read_frame<R: Read>(r: &mut R) -> Result<(u32, Bytes), FrameError> {
    let mut header = [0u8; HEADER_LEN];
    let mut filled = 0;
    while filled < HEADER_LEN {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Err(FrameError::Closed),
            Ok(0) => {
                return Err(FrameError::Truncated {
                    expected: HEADER_LEN,
                    got: filled,
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let magic = u32::from_le_bytes(header[0..4].try_into().expect("4 header bytes"));
    if magic != MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let kind = u32::from_le_bytes(header[4..8].try_into().expect("4 header bytes"));
    let len = u64::from_le_bytes(header[8..16].try_into().expect("8 header bytes"));
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversized(len));
    }
    let mut payload = Vec::with_capacity(len as usize);
    let got = r.by_ref().take(len).read_to_end(&mut payload)?;
    if got < len as usize {
        return Err(FrameError::Truncated {
            expected: len as usize,
            got,
        });
    }
    Ok((kind, Bytes::from(payload)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn frame_bytes(kind: u32, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, &mut Vec::new(), |b| {
            b.extend_from_slice(payload);
            kind
        })
        .expect("in-memory write");
        out
    }

    #[test]
    fn round_trips_over_a_stream() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&frame_bytes(7, b"hello"));
        wire.extend_from_slice(&frame_bytes(9, b""));
        let mut r = Cursor::new(wire);
        let (k1, p1) = read_frame(&mut r).expect("first frame");
        assert_eq!((k1, &p1[..]), (7, &b"hello"[..]));
        let (k2, p2) = read_frame(&mut r).expect("second frame");
        assert_eq!((k2, p2.len()), (9, 0));
        assert!(matches!(read_frame(&mut r), Err(FrameError::Closed)));
    }

    #[test]
    fn truncated_header_and_payload_are_distinguished_from_closed() {
        let full = frame_bytes(3, b"abcdef");
        // Cut inside the header.
        let mut r = Cursor::new(full[..HEADER_LEN - 4].to_vec());
        assert!(matches!(
            read_frame(&mut r),
            Err(FrameError::Truncated { .. })
        ));
        // Cut inside the payload.
        let mut r = Cursor::new(full[..HEADER_LEN + 2].to_vec());
        assert!(matches!(
            read_frame(&mut r),
            Err(FrameError::Truncated {
                expected: 6,
                got: 2
            })
        ));
        // Clean boundary EOF.
        let mut r = Cursor::new(Vec::new());
        assert!(matches!(read_frame(&mut r), Err(FrameError::Closed)));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&MAGIC.to_le_bytes());
        wire.extend_from_slice(&1u32.to_le_bytes());
        wire.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        let mut r = Cursor::new(wire);
        assert!(matches!(read_frame(&mut r), Err(FrameError::Oversized(_))));
        let mut sink = Vec::new();
        let sent = write_frame(&mut sink, &mut Vec::new(), |b| {
            b.resize(HEADER_LEN + MAX_FRAME_LEN as usize + 1, 0);
            0
        });
        assert!(matches!(sent, Err(FrameError::Oversized(_))));
        assert!(sink.is_empty(), "refused before any byte is written");
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut wire = frame_bytes(1, b"x");
        wire[0] ^= 0xff;
        let mut r = Cursor::new(wire);
        assert!(matches!(read_frame(&mut r), Err(FrameError::BadMagic(_))));
    }
}
