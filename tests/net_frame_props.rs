//! Property tests for the `orion-net` frame codec: arbitrary payloads
//! round-trip through a byte stream, the incremental decoder is
//! insensitive to how reads are chunked, and malformed prefixes fail
//! with typed errors instead of panics or unbounded allocations.

use std::io::Cursor;

use orion::net::frame::{read_frame, write_frame};
use orion::net::{send_msg, FrameDecoder, FrameError, Msg, HEADER_LEN, MAGIC, MAX_FRAME_LEN};
use proptest::prelude::*;

/// A batch of frames: (kind, payload) pairs with modest payload sizes.
fn frames_strategy() -> impl Strategy<Value = Vec<(u32, Vec<u8>)>> {
    proptest::collection::vec(
        (any::<u32>(), proptest::collection::vec(any::<u8>(), 0..512)),
        1..8,
    )
}

/// Appends one frame to `wire` through the crate's one frame writer.
fn put_frame(wire: &mut Vec<u8>, kind: u32, payload: &[u8]) {
    write_frame(wire, &mut Vec::new(), |body| {
        body.extend_from_slice(payload);
        kind
    })
    .expect("Vec sink never fails");
}

fn encode_all(frames: &[(u32, Vec<u8>)]) -> Vec<u8> {
    let mut wire = Vec::new();
    for (kind, payload) in frames {
        put_frame(&mut wire, *kind, payload);
    }
    wire
}

/// A sink that records every `write` call it receives.
#[derive(Default)]
struct CountingSink {
    writes: Vec<Vec<u8>>,
}

impl std::io::Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes.push(buf.to_vec());
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The frame header a peer claiming `len` payload bytes would send.
fn header(kind: u32, len: u64) -> Vec<u8> {
    let mut wire = Vec::with_capacity(HEADER_LEN);
    wire.extend_from_slice(&MAGIC.to_le_bytes());
    wire.extend_from_slice(&kind.to_le_bytes());
    wire.extend_from_slice(&len.to_le_bytes());
    wire
}

proptest! {
    /// Every frame written to a stream reads back identically.
    #[test]
    fn frames_round_trip_over_a_stream(frames in frames_strategy()) {
        let wire = encode_all(&frames);
        let mut reader = Cursor::new(wire);
        for (kind, payload) in &frames {
            let (got_kind, got_payload) = read_frame(&mut reader).expect("frame reads back");
            prop_assert_eq!(got_kind, *kind);
            prop_assert_eq!(got_payload.as_ref(), payload.as_slice());
        }
        prop_assert!(matches!(read_frame(&mut reader), Err(FrameError::Closed)));
    }

    /// The incremental decoder yields the same frames regardless of how
    /// the byte stream is sliced into reads (interleaved partial reads).
    #[test]
    fn decoder_is_chunking_insensitive(
        frames in frames_strategy(),
        chunk_sizes in proptest::collection::vec(1usize..64, 1..64),
    ) {
        let wire = encode_all(&frames);
        let mut decoder = FrameDecoder::new();
        let mut decoded: Vec<(u32, Vec<u8>)> = Vec::new();
        let mut offset = 0;
        let mut chunks = chunk_sizes.iter().cycle();
        while offset < wire.len() {
            let n = (*chunks.next().expect("cycle is infinite")).min(wire.len() - offset);
            decoder.push(&wire[offset..offset + n]);
            offset += n;
            while let Some((kind, payload)) = decoder.try_next().expect("valid stream") {
                decoded.push((kind, payload.to_vec()));
            }
        }
        let expect: Vec<(u32, Vec<u8>)> = frames;
        prop_assert_eq!(decoded, expect);
        prop_assert_eq!(decoder.buffered(), 0, "no residue after the last frame");
    }

    /// Cutting a stream mid-frame is `Truncated`; cutting exactly on a
    /// frame boundary is `Closed`. The decoder never fabricates a frame
    /// from a truncated tail.
    #[test]
    fn truncation_is_distinguished_from_close(
        kind in any::<u32>(),
        payload in proptest::collection::vec(any::<u8>(), 0..256),
        cut_fraction in 0.0f64..1.0,
    ) {
        let mut wire = Vec::new();
        put_frame(&mut wire, kind, &payload);
        let cut = ((wire.len() as f64) * cut_fraction) as usize;
        let mut reader = Cursor::new(&wire[..cut]);
        match read_frame(&mut reader) {
            Err(FrameError::Closed) => prop_assert_eq!(cut, 0, "Closed only at a boundary"),
            Err(FrameError::Truncated { .. }) => prop_assert!(cut > 0 && cut < wire.len()),
            Ok(_) => prop_assert_eq!(cut, wire.len(), "a full frame must be intact"),
            Err(other) => return Err(TestCaseError::fail(format!("unexpected {other:?}"))),
        }
        let mut decoder = FrameDecoder::new();
        decoder.push(&wire[..cut]);
        if cut < wire.len() {
            prop_assert!(decoder.try_next().expect("prefix is well-formed").is_none());
        }
    }

    /// An oversized length prefix is rejected from the 16-byte header
    /// alone — before any payload allocation could happen.
    #[test]
    fn oversized_length_prefix_is_rejected(kind in any::<u32>(), excess in 1u64..1 << 20) {
        let len = MAX_FRAME_LEN + excess;
        let wire = header(kind, len);
        let mut reader = Cursor::new(wire.clone());
        prop_assert!(matches!(
            read_frame(&mut reader),
            Err(FrameError::Oversized(l)) if l == len
        ));
        let mut decoder = FrameDecoder::new();
        decoder.push(&wire);
        prop_assert!(matches!(decoder.try_next(), Err(FrameError::Oversized(l)) if l == len));
    }

    /// A corrupted magic is rejected with the offending value.
    #[test]
    fn bad_magic_is_rejected(bad in any::<u32>().prop_filter("not the magic", |&m| m != MAGIC)) {
        let mut wire = Vec::new();
        put_frame(&mut wire, 7, b"payload");
        wire[..4].copy_from_slice(&bad.to_le_bytes());
        let mut reader = Cursor::new(wire);
        prop_assert!(matches!(read_frame(&mut reader), Err(FrameError::BadMagic(m)) if m == bad));
    }

    /// Protocol messages survive a frame round trip: encode → frame →
    /// stream → decode yields the original message.
    #[test]
    fn messages_round_trip_through_frames(
        epoch in any::<u64>(),
        tp in any::<u32>(),
        payload in proptest::collection::vec(any::<u8>(), 0..256),
        indices in proptest::collection::vec(any::<u64>(), 0..64),
        node in any::<u32>(),
    ) {
        let msgs = [
            Msg::Partition { epoch, tp, payload: payload.clone().into() },
            Msg::PrefetchRequest { epoch, node, indices },
            Msg::PrefetchResponse { epoch, payload: payload.into() },
            Msg::Rollback { epoch },
            Msg::Gather,
        ];
        let mut wire = Vec::new();
        for msg in &msgs {
            let (kind, bytes) = msg.encode();
            put_frame(&mut wire, kind, &bytes);
        }
        let mut reader = Cursor::new(wire);
        for msg in &msgs {
            let (kind, bytes) = read_frame(&mut reader).expect("frame reads back");
            let decoded = Msg::decode(kind, bytes).expect("message decodes");
            prop_assert_eq!(&decoded, msg);
        }
    }
}

/// A frame leaves in one `write`: header and payload together, whether
/// the body is a plain copy or a message encoded in place, and what is
/// written is byte for byte `header ++ Msg::encode()`'s payload.
#[test]
fn a_frame_is_one_write_of_header_then_payload() {
    let msg = Msg::Partition {
        epoch: 3,
        tp: 9,
        payload: vec![0xC3u8; 70_000].into(),
    };
    let (kind, body) = msg.encode();
    let mut expect = header(kind, body.len() as u64);
    expect.extend_from_slice(&body);

    let mut sink = CountingSink::default();
    let sent = send_msg(&mut sink, &msg).expect("sink never fails");
    assert_eq!(sink.writes.len(), 1, "one write per frame");
    assert_eq!(sink.writes[0], expect);
    assert_eq!(sent, expect.len() as u64);

    let mut sink = CountingSink::default();
    let mut reused = vec![0xEE; 33]; // stale bytes from an earlier frame
    write_frame(&mut sink, &mut reused, |b| {
        b.extend_from_slice(&body);
        kind
    })
    .expect("sink never fails");
    assert_eq!(sink.writes, vec![expect]);
}

/// For every way of cutting the stream in two, `FrameDecoder` yields the
/// frame the one-write primitive produced, and `read_frame` reports
/// every strict prefix as `Closed` (nothing read) or `Truncated` with
/// the exact byte counts.
#[test]
fn every_split_and_every_prefix_of_a_written_frame() {
    let payload: Vec<u8> = (0..40u8).collect();
    let mut wire = Vec::new();
    put_frame(&mut wire, 11, &payload);
    for cut in 0..=wire.len() {
        let mut decoder = FrameDecoder::new();
        decoder.push(&wire[..cut]);
        if cut < wire.len() {
            assert!(decoder
                .try_next()
                .expect("a prefix is well-formed")
                .is_none());
            decoder.push(&wire[cut..]);
        }
        let (kind, got) = decoder.try_next().expect("valid").expect("complete");
        assert_eq!((kind, &got[..]), (11, &payload[..]));

        let mut reader = Cursor::new(&wire[..cut]);
        match read_frame(&mut reader) {
            Err(FrameError::Closed) => assert_eq!(cut, 0),
            Err(FrameError::Truncated { expected, got }) if cut < HEADER_LEN => {
                assert_eq!((expected, got), (HEADER_LEN, cut));
            }
            Err(FrameError::Truncated { expected, got }) => {
                assert!(cut < wire.len());
                assert_eq!((expected, got), (payload.len(), cut - HEADER_LEN));
            }
            Ok((kind, got)) => {
                assert_eq!(cut, wire.len());
                assert_eq!((kind, &got[..]), (11, &payload[..]));
            }
            Err(other) => panic!("prefix {cut}: unexpected {other:?}"),
        }
    }
}

/// A reader that fails the test if it is asked for a byte past the end
/// of what the peer "sent" before the header was judged.
struct HeaderOnly(Cursor<Vec<u8>>);

impl std::io::Read for HeaderOnly {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.0.read(buf)?;
        assert!(n > 0, "read past the 16-byte header of an oversized frame");
        Ok(n)
    }
}

/// `MAX_FRAME_LEN + 1` is refused from the header alone, and a header
/// that claims the full 64 MiB but is followed by 10 bytes and EOF is a
/// typed truncation, not a panic or a 64 MiB fill.
#[test]
fn hostile_lengths_are_typed_errors() {
    let mut reader = HeaderOnly(Cursor::new(header(6, MAX_FRAME_LEN + 1)));
    assert!(matches!(
        read_frame(&mut reader),
        Err(FrameError::Oversized(l)) if l == MAX_FRAME_LEN + 1
    ));

    let mut wire = header(6, MAX_FRAME_LEN);
    wire.extend_from_slice(&[7u8; 10]);
    match read_frame(&mut Cursor::new(wire)) {
        Err(FrameError::Truncated { expected, got }) => {
            assert_eq!((expected, got), (MAX_FRAME_LEN as usize, 10));
        }
        other => panic!("expected Truncated, got {other:?}"),
    }
}
