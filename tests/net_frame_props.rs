//! Property tests for the `orion-net` frame codec: arbitrary payloads
//! round-trip through a byte stream, `read_frame` is insensitive to how
//! the stream's reads are chunked, and malformed prefixes — and
//! mutated bodies of every message kind — fail with typed errors
//! instead of panics or unbounded allocations.

use std::io::Cursor;

use orion::net::frame::{read_frame, write_frame};
use orion::net::{send_msg, FrameError, Msg, HEADER_LEN, MAGIC, MAX_FRAME_LEN};
use orion::runtime::HbEvent;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng};

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

/// A stream that hands out `wire` in the given chunk sizes, cycling, at
/// most one chunk per `read` call: the partial reads a socket makes.
struct Chunked<'a, I> {
    wire: &'a [u8],
    sizes: I,
}

impl<I: Iterator<Item = usize>> std::io::Read for Chunked<'_, I> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.sizes.next().expect("sizes never run out");
        let n = n.min(buf.len()).min(self.wire.len());
        buf[..n].copy_from_slice(&self.wire[..n]);
        self.wire = &self.wire[n..];
        Ok(n)
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

    /// `read_frame` yields the same frames however the byte stream is
    /// sliced into reads (1 to 63 bytes per `read` call).
    #[test]
    fn decoder_is_chunking_insensitive(
        frames in frames_strategy(),
        chunk_sizes in proptest::collection::vec(1usize..64, 1..64),
    ) {
        let wire = encode_all(&frames);
        let sizes = chunk_sizes.iter().copied().cycle();
        let mut reader = Chunked { wire: &wire, sizes };
        let mut decoded: Vec<(u32, Vec<u8>)> = Vec::new();
        for _ in &frames {
            let (kind, payload) = read_frame(&mut reader).expect("valid stream");
            decoded.push((kind, payload.to_vec()));
        }
        prop_assert!(matches!(read_frame(&mut reader), Err(FrameError::Closed)));
        prop_assert_eq!(decoded, frames);
    }

    /// Cutting a stream mid-frame is `Truncated`; cutting exactly on a
    /// frame boundary is `Closed`.
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
    }

    /// An oversized length prefix is rejected from the 16-byte header
    /// alone — before any payload allocation could happen.
    #[test]
    fn oversized_length_prefix_is_rejected(kind in any::<u32>(), excess in 1u64..1 << 20) {
        let len = MAX_FRAME_LEN + excess;
        let wire = header(kind, len);
        let mut reader = Cursor::new(wire);
        prop_assert!(matches!(
            read_frame(&mut reader),
            Err(FrameError::Oversized(l)) if l == len
        ));
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

/// For every way of cutting the stream in two reads, `read_frame` yields
/// the frame the one-write primitive produced, and it reports every
/// strict prefix as `Closed` (nothing read) or `Truncated` with the
/// exact byte counts.
#[test]
fn every_split_and_every_prefix_of_a_written_frame() {
    let payload: Vec<u8> = (0..40u8).collect();
    let mut wire = Vec::new();
    put_frame(&mut wire, 11, &payload);
    for cut in 0..=wire.len() {
        let sizes = [cut, wire.len() - cut]
            .into_iter()
            .filter(|&n| n > 0)
            .cycle();
        let mut split = Chunked { wire: &wire, sizes };
        let (kind, got) = read_frame(&mut split).expect("two reads make the frame");
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

/// One message of every kind, with non-empty bodies where a kind has one.
fn one_of_each_kind() -> Vec<Msg> {
    let payload = || vec![0x5Au8; 24].into();
    vec![
        Msg::Hello {
            node: 1,
            port: 4_000,
            fingerprint: 0xFEED,
        },
        Msg::Welcome {
            node: 1,
            n_nodes: 2,
            epochs: 3,
        },
        Msg::Peers {
            ports: vec![4_000, 4_001],
        },
        Msg::EpochStart { epoch: 2 },
        Msg::EpochDone {
            epoch: 2,
            node: 1,
            compute_ns: 10,
            rotation_ns: 20,
            sent: Vec::new(),
            events: vec![
                HbEvent::Recv { tp: 1 },
                HbEvent::Exec { step: 3, block: 4 },
                HbEvent::Send { tp: 1, dst: 0 },
                HbEvent::BarrierEnter { epoch: 2 },
                HbEvent::BarrierExit { epoch: 2 },
                HbEvent::ServerApply { node: 1 },
            ],
        },
        Msg::Partition {
            epoch: 2,
            tp: 1,
            payload: payload(),
        },
        Msg::ServerUpdate {
            epoch: 2,
            node: 1,
            payload: payload(),
        },
        Msg::PrefetchRequest {
            epoch: 2,
            node: 1,
            indices: vec![3, 5, 8],
        },
        Msg::PrefetchResponse {
            epoch: 2,
            payload: payload(),
        },
        Msg::Checkpoint { epoch: 2 },
        Msg::CheckpointDone { epoch: 2, node: 1 },
        Msg::Rollback { epoch: 2 },
        Msg::RollbackDone { epoch: 2, node: 1 },
        Msg::Gather,
        Msg::FinalState {
            node: 1,
            parts: vec![(u32::MAX, payload()), (0, payload())],
        },
        Msg::Shutdown,
    ]
}

/// Seeded mutations of every kind's encoded body — overwritten,
/// inserted and deleted bytes, truncations, and the body decoded as
/// another kind — decode to a message or a typed error, never a panic.
#[test]
fn mutated_message_bodies_never_panic_the_decoder() {
    let mut rng = StdRng::seed_from_u64(0x00B0_D1E5);
    let msgs = one_of_each_kind();
    for msg in &msgs {
        let (kind, body) = msg.encode();
        assert_eq!(&Msg::decode(kind, body.clone()).expect("decodes"), msg);
        for _ in 0..500 {
            let mut bytes = body.to_vec();
            for _ in 0..rng.random_range(1..=4) {
                let at = rng.random_range(0..=bytes.len());
                let b = if rng.random_bool(0.5) {
                    rng.random::<u32>() as u8
                } else {
                    0xFF
                };
                match rng.random_range(0..4) {
                    0 if at < bytes.len() => bytes[at] = b,
                    1 => bytes.insert(at, b),
                    2 if at < bytes.len() => drop(bytes.remove(at)),
                    _ => bytes.truncate(at),
                }
            }
            let as_kind = if rng.random_bool(0.9) {
                kind
            } else {
                rng.random_range(0..=msgs.len() as u32 + 1)
            };
            let _ = Msg::decode(as_kind, bytes.into());
        }
    }
}
