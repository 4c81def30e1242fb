//! Property tests of the DSM substrate: index arithmetic, split/merge,
//! partition tiling and balance, buffer-vs-serial equivalence, codec and
//! checkpoint round trips, and the kernel contracts.

use orion::dsm::kernels::{self, BinStat, MathMode, LANES};
use orion::dsm::{checkpoint, codec, DistArray, DistArrayBuffer, Element, RangePartition, Shape};
use proptest::prelude::*;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// Buffered write values: both signed zeros and both infinities (whose
/// sum is NaN) next to exact finite values.
const VALUES: [f64; 8] = [
    0.0,
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    1.0,
    -1.5,
    2.25,
    -0.125,
];

fn arb_dims() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(1u64..8, 1..4)
}

/// An origin vector matching `rank`: each coordinate in [-16, 16].
fn arb_origin(rank: usize) -> impl Strategy<Value = Vec<i64>> {
    proptest::collection::vec(-16i64..=16, rank)
}

fn arb_dense_array() -> impl Strategy<Value = DistArray<f32>> {
    arb_dims().prop_flat_map(|dims| {
        let volume: u64 = dims.iter().product();
        let d = dims.clone();
        (
            proptest::collection::vec(any::<f32>(), volume as usize),
            arb_origin(dims.len()),
        )
            .prop_map(move |(values, origin)| {
                DistArray::dense_from_vec("d", d.clone(), values).with_origin(origin)
            })
    })
}

fn arb_sparse_array() -> impl Strategy<Value = DistArray<f32>> {
    arb_dims().prop_flat_map(|dims| {
        let volume: u64 = dims.iter().product();
        let d = dims.clone();
        proptest::collection::btree_set(0..volume, 0..volume.min(32) as usize).prop_map(
            move |flats| {
                let shape = Shape::new(d.clone());
                DistArray::sparse_from(
                    "a",
                    d.clone(),
                    flats.iter().map(|&f| (shape.unflatten(f), f as f32 + 0.5)),
                )
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn flatten_unflatten_bijection(dims in arb_dims()) {
        let shape = Shape::new(dims);
        for f in 0..shape.volume() {
            let idx = shape.unflatten(f);
            prop_assert!(shape.contains(&idx));
            prop_assert_eq!(shape.flatten(&idx), Some(f));
        }
    }

    #[test]
    fn uniform_partition_tiles_exactly(extent in 1u64..200, parts in 1usize..16) {
        prop_assume!(parts as u64 <= extent);
        let p = RangePartition::uniform(0, extent, parts);
        prop_assert_eq!(p.extent(), extent);
        // Every coordinate belongs to exactly one part and sizes differ
        // by at most one.
        let mut counts = vec![0u64; parts];
        for c in 0..extent {
            counts[p.part_of(c)] += 1;
        }
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        prop_assert!(max - min <= 1, "uniform sizes {counts:?}");
    }

    #[test]
    fn balanced_partition_never_worse_than_uniform(
        weights in proptest::collection::vec(0u64..50, 4..64),
        parts in 2usize..8,
    ) {
        prop_assume!(parts <= weights.len());
        let load = |p: &RangePartition| -> u64 {
            p.ranges
                .iter()
                .map(|r| weights[r.start as usize..r.end as usize].iter().sum())
                .max()
                .unwrap()
        };
        let balanced = RangePartition::balanced(0, &weights, parts);
        let uniform = RangePartition::uniform(0, weights.len() as u64, parts);
        prop_assert_eq!(balanced.extent(), weights.len() as u64);
        prop_assert!(
            load(&balanced) <= load(&uniform),
            "balanced {} vs uniform {}",
            load(&balanced),
            load(&uniform)
        );
    }

    #[test]
    fn split_merge_is_identity(a in arb_sparse_array(), parts in 1usize..5) {
        let dims = a.shape().dims().to_vec();
        let dim = dims.iter().enumerate().max_by_key(|(_, &e)| e).map(|(i, _)| i).unwrap();
        prop_assume!(parts as u64 <= dims[dim]);
        let p = RangePartition::uniform(dim, dims[dim], parts);
        let split = a.clone().split_along(dim, &p.ranges);
        prop_assert_eq!(split.len(), parts);
        let merged = DistArray::merge_along(dim, split);
        prop_assert_eq!(merged, a);
    }

    #[test]
    fn buffered_writes_equal_serial_application(
        writes in proptest::collection::vec((0i64..16, -10.0f32..10.0), 0..64)
    ) {
        // Applying buffered (combined) writes must equal applying each
        // write serially, for an associative-commutative apply UDF.
        let mut direct: DistArray<f32> = DistArray::dense("d", vec![16]);
        let mut via_buffer: DistArray<f32> = DistArray::dense("b", vec![16]);
        let mut buf = DistArrayBuffer::additive(via_buffer.shape().clone());
        for &(i, v) in &writes {
            direct.update(&[i], |x| *x += v);
            buf.write(&[i], v);
        }
        buf.apply_to(&mut via_buffer, |x, d| *x += d);
        for i in 0..16i64 {
            let a = direct.get(&[i]).unwrap();
            let b = via_buffer.get(&[i]).unwrap();
            prop_assert!((a - b).abs() < 1e-4, "slot {i}: {a} vs {b}");
        }
    }

    #[test]
    fn buffer_matches_a_btree_reference(
        dims in (1u64..6, 1u64..40),
        custom in any::<bool>(),
        ops in proptest::collection::vec((0u32..6, 0u64..240, 0..VALUES.len(), 0usize..6), 0..120),
    ) {
        // The dense table against the tree it replaced: same pairs in
        // the same order, same value bits, same `len` / `payload_bytes`,
        // through any interleaving of writes, drains and applies — so a
        // buffer reused after a drain behaves like a fresh one, and an
        // additive slot's identity never shows: a first write of `-0.0`
        // drains `-0.0`.
        let shape = Shape::new(vec![dims.0, dims.1]);
        // Not commutative: the result depends on the write order.
        let double_add = |acc: &mut f64, v: f64| *acc = *acc * 2.0 + v;
        let mut buf: DistArrayBuffer<f64> = match custom {
            true => DistArrayBuffer::new(shape.clone(), double_add),
            false => DistArrayBuffer::additive(shape.clone()),
        };
        let mut array: DistArray<f64> = DistArray::dense("a", vec![dims.0, dims.1]);
        let mut pending = BTreeMap::<u64, f64>::new();
        let mut applied = vec![0f64; shape.volume() as usize];
        let bits = |pairs: Vec<(Vec<i64>, f64)>| -> Vec<(Vec<i64>, u64)> {
            pairs.into_iter().map(|(i, v)| (i, v.to_bits())).collect()
        };
        let with_index = |pairs: Vec<(u64, f64)>| -> Vec<(Vec<i64>, u64)> {
            pairs.into_iter().map(|(f, v)| (shape.unflatten(f), v.to_bits())).collect()
        };
        for (op, key, value, k) in ops {
            let (flat, v) = (key % shape.volume(), VALUES[value]);
            match op {
                0 | 1 => {
                    match op {
                        0 => buf.write(&shape.unflatten(flat), v),
                        _ => buf.write_flat(flat, v),
                    }
                    match (pending.entry(flat), custom) {
                        (Entry::Vacant(e), _) => drop(e.insert(v)),
                        (Entry::Occupied(mut e), true) => double_add(e.get_mut(), v),
                        (Entry::Occupied(mut e), false) => *e.get_mut() += v,
                    }
                }
                2 => {
                    let expect = with_index(std::mem::take(&mut pending).into_iter().collect());
                    prop_assert_eq!(bits(buf.drain()), expect);
                }
                3 => {
                    let expect: Vec<(u64, u64)> =
                        std::mem::take(&mut pending).into_iter().map(|(f, v)| (f, v.to_bits())).collect();
                    let drained: Vec<(u64, u64)> = buf.drain_flat().map(|(f, v)| (f, v.to_bits())).collect();
                    prop_assert_eq!(drained, expect);
                }
                4 => {
                    // Largest magnitude first, ties by ascending key.
                    let mut order: Vec<(u64, f64)> = pending.iter().map(|(&f, &v)| (f, v)).collect();
                    order.sort_by(|a, b| b.1.abs().total_cmp(&a.1.abs()).then(a.0.cmp(&b.0)));
                    order.truncate(k);
                    for (f, _) in &order {
                        pending.remove(f);
                    }
                    if pending.is_empty() {
                        // Taking everything is a full drain: key order.
                        order.sort_unstable_by_key(|&(f, _)| f);
                    }
                    prop_assert_eq!(bits(buf.drain_largest(k, |v| v.abs())), with_index(order));
                }
                _ => {
                    for (f, v) in std::mem::take(&mut pending) {
                        applied[f as usize] = applied[f as usize] * 3.0 + v;
                    }
                    buf.apply_to(&mut array, |x, v| *x = *x * 3.0 + v);
                    let got: Vec<u64> = array.dense_values().iter().map(|x| x.to_bits()).collect();
                    let want: Vec<u64> = applied.iter().map(|x| x.to_bits()).collect();
                    prop_assert_eq!(got, want);
                }
            }
            prop_assert_eq!(buf.len(), pending.len());
            prop_assert_eq!(buf.is_empty(), pending.is_empty());
            prop_assert_eq!(buf.payload_bytes(), pending.len() as u64 * 16);
        }
    }

    #[test]
    fn codec_updates_roundtrip(updates in proptest::collection::vec((0u64..1_000_000, any::<f32>()), 0..64)) {
        let wire = codec::encode_updates(&updates);
        prop_assert_eq!(wire.len() as u64, codec::updates_wire_bytes::<f32>(updates.len() as u64));
        let decoded = codec::decode_updates::<f32>(wire).expect("an own encoding decodes");
        prop_assert_eq!(decoded.len(), updates.len());
        for ((i1, v1), (i2, v2)) in decoded.iter().zip(&updates) {
            prop_assert_eq!(i1, i2);
            prop_assert_eq!(v1.to_bits(), v2.to_bits());
        }
    }

    #[test]
    fn checkpoint_roundtrip_sparse(a in arb_sparse_array()) {
        let b = checkpoint::from_bytes::<f32>(checkpoint::to_bytes(&a)).unwrap();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn checkpoint_roundtrip_dense_any_shape_and_origin(a in arb_dense_array()) {
        // `any::<f32>()` includes NaN, so compare the re-encoding (exact
        // value bits + name + dims + origin) rather than `==`.
        let wire = checkpoint::to_bytes(&a);
        let b = checkpoint::from_bytes::<f32>(wire.clone()).unwrap();
        prop_assert_eq!(a.shape(), b.shape());
        prop_assert_eq!(a.origin(), b.origin());
        prop_assert_eq!(wire.to_vec(), checkpoint::to_bytes(&b).to_vec());
    }

    #[test]
    fn checkpoint_roundtrip_sparse_with_origin(
        a in arb_sparse_array(),
        origin in arb_origin(3),
    ) {
        let rank = a.shape().ndims();
        let a = a.with_origin(origin[..rank].to_vec());
        let b = checkpoint::from_bytes::<f32>(checkpoint::to_bytes(&a)).unwrap();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn truncated_checkpoint_is_corrupt_never_panic(
        a in arb_dense_array(),
        cut_permille in 0u32..1000,
    ) {
        // A crash can leave a strict prefix of a checkpoint on disk (the
        // atomic tmp+rename path prevents this for `save`, but readers
        // must still refuse gracefully). Every strict prefix decodes to
        // `Corrupt`, never a panic or a silently wrong array.
        let wire = checkpoint::to_bytes(&a);
        let cut = (wire.len() as u64 * cut_permille as u64 / 1000) as usize;
        prop_assume!(cut < wire.len());
        let truncated = orion::dsm::codec::Bytes::from(wire[..cut].to_vec());
        match checkpoint::from_bytes::<f32>(truncated) {
            Err(checkpoint::CheckpointError::Corrupt(_)) => {}
            other => prop_assert!(false, "expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn extended_checkpoint_is_corrupt(a in arb_sparse_array(), junk in 1usize..16) {
        // Trailing garbage (e.g. a torn concatenated write) is rejected
        // too: the payload length must match the header exactly.
        let wire = checkpoint::to_bytes(&a);
        let mut v = wire.to_vec();
        v.extend(std::iter::repeat_n(0xAAu8, junk));
        match checkpoint::from_bytes::<f32>(orion::dsm::codec::Bytes::from(v)) {
            Err(checkpoint::CheckpointError::Corrupt(_)) => {}
            other => prop_assert!(false, "expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn histogram_sums_to_nnz(a in arb_sparse_array()) {
        for dim in 0..a.shape().ndims() {
            let h = a.histogram_along(dim);
            prop_assert_eq!(h.iter().sum::<u64>(), a.nnz());
        }
    }

    #[test]
    fn randomize_preserves_value_multiset(a in arb_sparse_array(), seed in any::<u64>()) {
        use rand::SeedableRng;
        let mut b = a.clone();
        let dims: Vec<usize> = (0..a.shape().ndims()).collect();
        b.randomize(&dims, &mut rand::rngs::StdRng::seed_from_u64(seed));
        prop_assert_eq!(a.nnz(), b.nnz());
        let mut va: Vec<u32> = a.iter().map(|(_, v)| v.to_bits()).collect();
        let mut vb: Vec<u32> = b.iter().map(|(_, v)| v.to_bits()).collect();
        va.sort_unstable();
        vb.sort_unstable();
        prop_assert_eq!(va, vb);
    }
}

// ---------------------------------------------------------------------------
// The wire: the slice codec is the per-element codec, the checkpoint
// image has not moved, and hostile images are `Corrupt`, never a panic.
// ---------------------------------------------------------------------------

/// `encode_slice` is the concatenation of per-element `encode`, and
/// `decode_slice` inverts it, for every prefix of `values` (lengths
/// 0..=70) — compared as wire bytes, so NaN payloads and signed zeros
/// count.
fn assert_slice_codec_is_elementwise<T: Element>(values: &[T]) {
    assert!(values.len() >= KMAX);
    for n in 0..=KMAX {
        let mut one_by_one = Vec::new();
        for v in &values[..n] {
            v.encode(&mut one_by_one);
        }
        // Appends: what the buffer already holds stays in front.
        let mut sliced = vec![0xA5u8; 3];
        T::encode_slice(&values[..n], &mut sliced);
        assert_eq!(&sliced[..3], &[0xA5u8; 3]);
        assert_eq!(&sliced[3..], &one_by_one[..], "{n} values");
        assert_eq!(one_by_one.len(), n * T::WIRE_BYTES);

        let back = T::decode_slice(&one_by_one);
        let mut again = Vec::new();
        T::encode_slice(&back, &mut again);
        assert_eq!(back.len(), n);
        assert_eq!(again, one_by_one, "decode_slice inverts encode_slice");
        let mut cursor = codec::Bytes::from(one_by_one);
        for v in &back {
            let mut a = Vec::new();
            let mut b = Vec::new();
            v.encode(&mut a);
            T::decode(&mut cursor).encode(&mut b);
            assert_eq!(a, b, "decode_slice agrees with per-element decode");
        }
    }
}

#[test]
fn slice_codec_is_the_element_codec_for_all_six_types() {
    let f32_edges = [
        0.0f32,
        -0.0,
        f32::MIN_POSITIVE / 2.0,
        -f32::from_bits(1),
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        f32::from_bits(0x7FC0_1234),
        f32::from_bits(0xFF80_0001), // signalling, negative
        f32::from_bits(0x7FFF_FFFF),
    ];
    let f64_edges = [
        0.0f64,
        -0.0,
        f64::MIN_POSITIVE / 2.0,
        -f64::from_bits(1),
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        f64::from_bits(0x7FF8_0000_DEAD_BEEF),
        f64::from_bits(0xFFF0_0000_0000_0001),
    ];
    let f32s: Vec<f32> = (0..KMAX + 5)
        .map(|i| match f32_edges.get(i % 13) {
            Some(&e) => e,
            None => i as f32 * -1.37e-3,
        })
        .collect();
    let f64s: Vec<f64> = (0..KMAX + 5)
        .map(|i| match f64_edges.get(i % 11) {
            Some(&e) => e,
            None => i as f64 * 7.25e201,
        })
        .collect();
    assert_slice_codec_is_elementwise(&f32s);
    assert_slice_codec_is_elementwise(&f64s);
    let ints = 0..(KMAX + 5) as u64;
    let spread = |i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i << 56);
    assert_slice_codec_is_elementwise(&ints.clone().map(|i| spread(i) as u32).collect::<Vec<_>>());
    assert_slice_codec_is_elementwise(&ints.clone().map(spread).collect::<Vec<_>>());
    assert_slice_codec_is_elementwise(&ints.clone().map(|i| spread(i) as i32).collect::<Vec<_>>());
    assert_slice_codec_is_elementwise(&ints.map(|i| spread(i) as i64).collect::<Vec<_>>());
}

/// The two images below were captured on the commit *before* the slice
/// codec (`2d8f89a`), from the per-element encoder: the format is
/// frozen, and a node built before the change reads these bytes.
const PINNED_DENSE: &str = concat!(
    "434e524f04000000050000004870617274020000000300000000000000040000",
    "0000000000080000000000000000000000000000000000000000000000000c00",
    "0000000000000000a0bf000040bf000080be0000803e0000403f0000a03f0000",
    "e03f0000104000003040000050400000704000008840",
);
const PINNED_SPARSE: &str = concat!(
    "434e524f0400000006000000746f6b656e730200000064000000000000003200",
    "000000000000000000000000000000000000000000000102000000000000009a",
    "0000000000000007000000871300000000000001000000",
);

fn pinned_dense() -> DistArray<f32> {
    DistArray::dense_from_fn("Hpart", vec![3, 4], |i| {
        (i[0] * 4 + i[1]) as f32 * 0.5 - 1.25
    })
    .with_origin(vec![8, 0])
}

fn pinned_sparse() -> DistArray<u32> {
    DistArray::sparse_from(
        "tokens",
        vec![100, 50],
        vec![(vec![3, 4], 7), (vec![99, 49], 1)],
    )
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn checkpoint_image_is_pinned_to_the_parent_commit() {
    let dense = checkpoint::to_bytes(&pinned_dense());
    assert_eq!(hex(&dense), PINNED_DENSE);
    assert_eq!(dense.len(), checkpoint::encoded_len(&pinned_dense()));
    let sparse = checkpoint::to_bytes(&pinned_sparse());
    assert_eq!(hex(&sparse), PINNED_SPARSE);
    assert_eq!(sparse.len(), checkpoint::encoded_len(&pinned_sparse()));
    // Appending to a buffer that already holds something leaves it be.
    let mut framed = vec![1u8, 2, 3];
    checkpoint::encode_into(&pinned_dense(), &mut framed);
    assert_eq!(&framed[..3], &[1, 2, 3]);
    assert_eq!(&framed[3..], &dense[..]);
}

/// Images whose header lies, each of which must come back `Corrupt`
/// before a single element is decoded.
#[test]
fn hostile_checkpoint_headers_are_corrupt() {
    let image = checkpoint::to_bytes(&pinned_dense()).to_vec();
    // Layout: magic 0..4, width 4..8, name len 8..12, "Hpart" 12..17,
    // ndims 17..21, dims 21..37, origin 37..53, tag 53, base 54..62,
    // count 62..70, 12 × f32.
    let patched = |at: usize, bytes: &[u8]| {
        let mut v = image.clone();
        v[at..at + bytes.len()].copy_from_slice(bytes);
        v
    };
    let two_pow_32 = (1u64 << 32).to_le_bytes();
    let mut overflow = image[..54].to_vec();
    overflow[21..29].copy_from_slice(&two_pow_32);
    overflow[29..37].copy_from_slice(&two_pow_32);
    overflow.extend_from_slice(&[0u8; 16]); // base 0, count 0, no payload
    let cases: Vec<(&str, Vec<u8>)> = vec![
        ("volume 2^64 wraps to 0 == count", overflow),
        ("zero extent", patched(21, &0u64.to_le_bytes())),
        (
            "count one short of the volume",
            patched(62, &11u64.to_le_bytes()),
        ),
        // 47 payload bytes: not a multiple of the element width, so
        // `decode_slice` would panic — it must never be reached.
        (
            "partial trailing element",
            image[..image.len() - 1].to_vec(),
        ),
        ("element width 8", patched(4, &8u32.to_le_bytes())),
        ("17 dimensions", patched(17, &17u32.to_le_bytes())),
        ("dense base 1", patched(54, &1u64.to_le_bytes())),
        ("storage tag 2", patched(53, &[2])),
    ];
    for (what, bytes) in cases {
        match checkpoint::from_bytes::<f32>(codec::Bytes::from(bytes)) {
            Err(checkpoint::CheckpointError::Corrupt(_)) => {}
            other => panic!("{what}: expected Corrupt, got {other:?}"),
        }
    }
}

/// 2 000 seeded single- and double-byte mutations of a valid dense and a
/// valid sparse image: `from_bytes` never panics, and whatever it
/// accepts is an array that survives its own round trip (for the dense
/// form, which is canonical, re-encoding gives back the mutated bytes).
#[test]
fn mutated_checkpoints_never_panic_and_ok_means_round_trip() {
    let sparse_f32: DistArray<f32> = DistArray::sparse_from(
        "S",
        vec![9, 7],
        vec![(vec![0, 1], 1.5), (vec![4, 4], -2.0), (vec![8, 6], 0.25)],
    );
    let images = [
        checkpoint::to_bytes(&pinned_dense()).to_vec(),
        checkpoint::to_bytes(&sparse_f32).to_vec(),
    ];
    let mut next = splitmix(0x5EED_C0DE);
    let (mut accepted, mut rejected) = (0u32, 0u32);
    for round in 0..2000 {
        let dense = round % 2 == 0;
        let mut bytes = images[round % 2].clone();
        for _ in 0..1 + (round / 2) % 2 {
            flip_a_byte(&mut bytes, &mut next);
        }
        let verdict = std::panic::catch_unwind(|| {
            checkpoint::from_bytes::<f32>(codec::Bytes::from(bytes.clone()))
        });
        match verdict.unwrap_or_else(|_| panic!("round {round}: from_bytes panicked")) {
            Ok(array) => {
                accepted += 1;
                let again = checkpoint::to_bytes(&array);
                if dense {
                    assert_eq!(&again[..], &bytes[..], "round {round}");
                }
                let back = checkpoint::from_bytes::<f32>(again.clone()).expect("own image");
                assert_eq!(checkpoint::to_bytes(&back), again, "round {round}");
            }
            Err(checkpoint::CheckpointError::Corrupt(_)) => rejected += 1,
            Err(other) => panic!("round {round}: {other:?}"),
        }
    }
    // Value and origin bytes mutate freely; header bytes do not.
    assert!(accepted > 200 && rejected > 200, "{accepted} / {rejected}");
}

/// The sparse decoder keeps accepting records out of key order and
/// repeated keys, as `sparse_from_flat` does: sorted, the last write
/// winning.
#[test]
fn sparse_records_in_any_order_decode_like_sparse_from_flat() {
    let records = [(40u64, 4.0f32), (3, 0.5), (40, -1.0), (62, 7.25)];
    let one: DistArray<f32> = DistArray::sparse_from_flat("S", vec![9, 7], [(3, 0.5)]);
    let mut image = checkpoint::to_bytes(&one).to_vec();
    // Swap the one-record payload (count, key, value) for `records`.
    image.truncate(image.len() - 20);
    image.extend((records.len() as u64).to_le_bytes());
    for (flat, v) in records {
        image.extend(flat.to_le_bytes());
        image.extend(v.to_le_bytes());
    }
    let back = checkpoint::from_bytes::<f32>(codec::Bytes::from(image)).expect("decodes");
    assert_eq!(back, DistArray::sparse_from_flat("S", vec![9, 7], records));
    assert_eq!(back.get_flat(40), Some(&-1.0));
}

/// A seeded splitmix64 stream.
fn splitmix(mut state: u64) -> impl FnMut() -> u64 {
    move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Changes one byte of `bytes`, at a drawn position, to another value.
fn flip_a_byte(bytes: &mut [u8], next: &mut impl FnMut() -> u64) {
    let at = next() as usize % bytes.len();
    bytes[at] ^= 1 + (next() % 255) as u8;
}

/// 2 000 seeded single- and double-byte mutations of a valid update
/// payload (the body of a `ServerUpdate` or `PrefetchResponse`), a
/// quarter of them also a byte short or long: `decode_updates` never
/// panics, and whatever it accepts re-encodes to the mutated bytes.
#[test]
fn mutated_update_payloads_never_panic_and_ok_means_round_trip() {
    let updates: Vec<(u64, f32)> = (0..10).map(|i| (i * 7 + 3, i as f32 - 4.5)).collect();
    let image = codec::encode_updates(&updates).to_vec();
    let mut next = splitmix(0x0DD_BA11);
    let (mut accepted, mut rejected) = (0u32, 0u32);
    for round in 0..2000 {
        let mut bytes = image.clone();
        for _ in 0..1 + round % 2 {
            flip_a_byte(&mut bytes, &mut next);
        }
        match round % 8 {
            3 => drop(bytes.pop()),
            5 => bytes.push(next() as u8),
            _ => {}
        }
        let verdict = std::panic::catch_unwind(|| {
            codec::decode_updates::<f32>(codec::Bytes::from(bytes.clone()))
        });
        match verdict.unwrap_or_else(|_| panic!("round {round}: decode_updates panicked")) {
            Ok(decoded) => {
                accepted += 1;
                let again = codec::encode_updates(&decoded);
                assert_eq!(&again[..], &bytes[..], "round {round}");
            }
            Err(codec::BadUpdates { .. }) => rejected += 1,
        }
    }
    // Index and value bytes mutate freely; the count and the length
    // do not.
    assert!(accepted > 200 && rejected > 200, "{accepted} / {rejected}");
}

// ---------------------------------------------------------------------------
// Kernel contracts: each order-preserving kernel has one body, checked
// against a naive loop written here (any length 0..=70, every slice's
// length drawn on its own so truncate-to-shorter is covered, signed
// zeros, infinities, NaN and denormals mixed in); the reduction
// dispatchers honor the MathMode contract.
// ---------------------------------------------------------------------------

/// Longest slice the naive-loop properties draw: past eight full
/// `LANES` chunks, with every remainder in between.
const KMAX: usize = 70;

/// Mostly ordinary magnitudes from `range`, with the values a bit-exact
/// contract has to survive mixed in: signed zeros, infinities, NaN and
/// denormals.
fn arb_edge_f32_in(range: std::ops::Range<f32>) -> impl Strategy<Value = f32> {
    const EDGES: [f32; 8] = [
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        1e-40,
        -1e-40,
        f32::MIN_POSITIVE,
    ];
    (0usize..128, range).prop_map(|(tag, x)| *EDGES.get(tag).unwrap_or(&x))
}

fn arb_edge_f32() -> impl Strategy<Value = f32> {
    arb_edge_f32_in(-8.0..8.0)
}

fn arb_edge_vec() -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(arb_edge_f32(), 0..=KMAX)
}

/// The bits of a result, all NaNs folded to one: Rust leaves the sign
/// and payload of a NaN an operation produces unspecified (LLVM commutes
/// the operands of `acc + product` differently in two loops, and x86
/// keeps the first operand's NaN), so no two loops can promise them.
/// Everything that is not a NaN — ±0.0, ±∞, denormals — keeps its bits.
fn exact_bits(x: f32) -> u32 {
    if x.is_nan() {
        f32::NAN.to_bits()
    } else {
        x.to_bits()
    }
}

/// [`exact_bits`] for `f64`.
fn exact_bits64(x: f64) -> u64 {
    if x.is_nan() {
        f64::NAN.to_bits()
    } else {
        x.to_bits()
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|&x| exact_bits(x)).collect()
}

/// Lengths covering every remainder class mod [`LANES`] at 0–3 full
/// chunks, so each reduction proptest exercises the chunked body, the
/// scalar remainder peel, and both empty edges.
fn arb_kernel_len() -> impl Strategy<Value = usize> {
    (0usize..4, 0usize..LANES).prop_map(|(chunks, rem)| chunks * LANES + rem)
}

fn arb_kvec(n: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-8.0f32..8.0, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gather_matches_naive_loop_same_access_order(
        table_idx in (1usize..64).prop_flat_map(|t| (
            proptest::collection::vec(arb_edge_f32(), t),
            proptest::collection::vec(0u32..t as u32, 0..=KMAX),
        )),
        dst in arb_edge_vec(),
    ) {
        let (table, idx) = table_idx;
        let n = dst.len().min(idx.len());
        let mut want = dst.clone();
        for i in 0..n {
            want[i] = table[idx[i] as usize];
        }
        let mut got = dst;
        let mut order = Vec::new();
        kernels::gather(&mut got, &idx, |f| { order.push(f); table[f as usize] });
        prop_assert_eq!(bits(&got), bits(&want));
        // The callback fires once per gathered element, in index order
        // (prefetch recording depends on it).
        prop_assert_eq!(&order[..], &idx[..n]);
    }

    #[test]
    fn mf_update_rows_matches_naive_loop(
        w in arb_edge_vec(),
        h in arb_edge_vec(),
        coef in arb_edge_f32(),
    ) {
        // Both rows are updated from the *old* values of the other.
        let (mut want_w, mut want_h) = (w.clone(), h.clone());
        for i in 0..w.len().min(h.len()) {
            want_w[i] = w[i] + coef * h[i];
            want_h[i] = h[i] + coef * w[i];
        }
        let (mut got_w, mut got_h) = (w, h);
        kernels::mf_update_rows(&mut got_w, &mut got_h, coef);
        prop_assert_eq!(bits(&got_w), bits(&want_w));
        prop_assert_eq!(bits(&got_h), bits(&want_h));
    }

    #[test]
    fn cp_update_rows_matches_naive_loop_same_emit_sequence(
        u in arb_edge_vec(),
        v in arb_edge_vec(),
        s in arb_edge_vec(),
        g in arb_edge_f32(),
    ) {
        let n = u.len().min(v.len()).min(s.len());
        let (mut want_u, mut want_v) = (u.clone(), v.clone());
        let mut want_emits = Vec::new();
        for c in 0..n {
            want_u[c] = u[c] + g * v[c] * s[c];
            want_v[c] = v[c] + g * u[c] * s[c];
            want_emits.push((c, exact_bits(g * u[c] * v[c])));
        }
        let (mut got_u, mut got_v) = (u, v);
        let mut emits = Vec::new();
        kernels::cp_update_rows(&mut got_u, &mut got_v, &s, g, |c, d| {
            emits.push((c, exact_bits(d)))
        });
        prop_assert_eq!(bits(&got_u), bits(&want_u));
        prop_assert_eq!(bits(&got_v), bits(&want_v));
        prop_assert_eq!(emits, want_emits);
    }

    #[test]
    fn topic_cdf_matches_naive_loop(
        dt in proptest::collection::vec(0u32..500, 0..=KMAX),
        wt in proptest::collection::vec(0u32..500, 0..=KMAX),
        ts in proptest::collection::vec(-5i64..2_000, 0..=KMAX),
        out_len in 0usize..=KMAX,
        alpha in 0.01f64..2.0,
        beta in 0.001f64..1.0,
        vbeta in 0.5f64..100.0,
    ) {
        // Two passes — every weight first, then the running sum — in
        // place of the kernel's fused loop; slots past the shortest
        // input keep their sentinel.
        let k = dt.len().min(wt.len()).min(ts.len()).min(out_len);
        let each: Vec<f64> = (0..k)
            .map(|t| {
                (dt[t] as f64 + alpha) * (wt[t] as f64 + beta) / (ts[t].max(0) as f64 + vbeta)
            })
            .collect();
        let mut want = vec![-1.0f64; out_len];
        let mut running = 0.0f64;
        for t in 0..k {
            running += each[t];
            want[t] = running;
        }
        let mut got = vec![-1.0f64; out_len];
        let total = kernels::topic_cdf(&dt, &wt, &ts, alpha, beta, vbeta, &mut got);
        prop_assert_eq!(total.to_bits(), running.to_bits());
        for (a, b) in got.iter().zip(&want) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn feature_histogram_matches_naive_loop(
        fixture in
            (0usize..=KMAX, 1usize..4, 2usize..10, 1usize..5).prop_flat_map(
                |(ns, nf, nb, nodes)| (
                    Just((ns, nf, nb)),
                    (
                        proptest::collection::vec(arb_edge_f32_in(0.0..1.0), ns * nf),
                        proptest::collection::vec(0usize..nodes, ns),
                    ),
                    (
                        // Some nodes map to a live slot, some to no_slot.
                        proptest::collection::vec(
                            prop_oneof![0usize..3, Just(usize::MAX)],
                            nodes,
                        ),
                        proptest::collection::vec(arb_edge_f32().prop_map(f64::from), ns),
                    ),
                )
            ),
        feature in 0usize..4,
    ) {
        let ((n_samples, n_features, n_bins), (features, assign), (slot_of_node, grads)) = fixture;
        prop_assume!(feature < n_features);
        let n_slots = 3;
        // Cell by cell in place of the kernel's sample-by-sample
        // scatter: each cell folds the samples that land in it, in
        // ascending sample order.
        let bin_of = |i: usize| {
            let scaled = features[i * n_features + feature] * n_bins as f32;
            (scaled as f64 as usize).min(n_bins - 1)
        };
        let mut want = vec![BinStat::<f64>::default(); n_slots * n_bins];
        for (cell, stat) in want.iter_mut().enumerate() {
            for i in 0..n_samples {
                if slot_of_node[assign[i]] == cell / n_bins && bin_of(i) == cell % n_bins {
                    stat.sum += grads[i];
                    stat.count += 1;
                }
            }
        }
        let mut got = vec![BinStat::<f64>::default(); n_slots * n_bins];
        kernels::feature_histogram(
            feature, n_samples, n_features, n_bins, &features, &slot_of_node,
            &assign, &grads, usize::MAX, &mut got,
        );
        for (a, b) in got.iter().zip(&want) {
            prop_assert_eq!(exact_bits64(a.sum), exact_bits64(b.sum));
            prop_assert_eq!(a.count, b.count);
        }
    }

    #[test]
    fn reduction_dispatch_honors_math_mode(
        ab in arb_kernel_len().prop_flat_map(|n| (arb_kvec(n), arb_kvec(n))),
        idx in proptest::collection::vec(0u32..64, 0..40),
    ) {
        let (a, b) = ab;
        // Exact mode is always the serial fold, bit for bit.
        let exact = kernels::dot(&a, &b, MathMode::Exact);
        prop_assert_eq!(exact.to_bits(), kernels::dot_serial(&a, &b).to_bits());

        // FastMath is always the lane fold.
        let fast = kernels::dot(&a, &b, MathMode::FastMath);
        prop_assert_eq!(fast.to_bits(), kernels::dot_lanes(&a, &b).to_bits());

        let get = |f: u32| (f as f32) * 0.125 - 2.0;
        let gexact = kernels::gather_sum(&idx, get, MathMode::Exact);
        prop_assert_eq!(gexact.to_bits(), kernels::gather_sum_serial(&idx, get).to_bits());
        let gfast = kernels::gather_sum(&idx, get, MathMode::FastMath);
        prop_assert_eq!(gfast.to_bits(), kernels::gather_sum_lanes(&idx, get).to_bits());
    }

    #[test]
    fn reassociated_reductions_near_serial(
        abs_ in (1usize..4, 0usize..LANES).prop_flat_map(|(c, r)| {
            let n = c * LANES + r;
            (arb_kvec(n), arb_kvec(n), arb_kvec(n))
        }),
    ) {
        let (a, b, s) = abs_;
        // The lane fold reassociates but must stay numerically close —
        // this bounds the drift FastMath can introduce per reduction.
        let n = a.len() as f64;
        let tol = 1e-4 * n.max(1.0);
        let (ds, dl) = (kernels::dot_serial(&a, &b) as f64, kernels::dot_lanes(&a, &b) as f64);
        prop_assert!((ds - dl).abs() <= tol * ds.abs().max(1.0), "dot {ds} vs {dl}");
        let (ps, pl) = (
            kernels::cp_predict_serial(&a, &b, &s) as f64,
            kernels::cp_predict_lanes(&a, &b, &s) as f64,
        );
        prop_assert!((ps - pl).abs() <= tol * ps.abs().max(1.0), "cp_predict {ps} vs {pl}");
    }
}

// ---------------------------------------------------------------------------
// The exact across-row lane kernel: lane order = serial order = same bits.
// ---------------------------------------------------------------------------

/// Scores `n_rows` row-major rows of `width` against `w` through
/// `kernel`, one zero-padded `panel[c * LANES + j]` at a time, and
/// demands `dot_serial`'s bits on every lane that holds a row.
fn assert_panel_dot_is_serial(
    kernel: impl Fn(&[f32], &[f32]) -> [f32; LANES],
    w: &[f32],
    rows: &[f32],
    width: usize,
    n_rows: usize,
) {
    for first in (0..n_rows).step_by(LANES) {
        let real = (n_rows - first).min(LANES);
        let mut panel = vec![0.0f32; width * LANES];
        for j in 0..real {
            for c in 0..width {
                panel[c * LANES + j] = rows[(first + j) * width + c];
            }
        }
        let got = kernel(w, &panel);
        for j in 0..real {
            let row = &rows[(first + j) * width..(first + j + 1) * width];
            assert_eq!(
                exact_bits(got[j]),
                exact_bits(kernels::dot_serial(w, row)),
                "lane {j} of the panel at row {first} is not the serial dot (width {width})"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Widths below, at and between multiples of `LANES`, row counts
    /// that leave a ragged last panel, and a query row shorter or longer
    /// than the panel (both sides truncate to the shorter).
    #[test]
    fn dot_panel_is_dot_serial_on_every_lane(
        fixture in (0usize..=70, 0usize..=20, 0usize..=72).prop_flat_map(|(width, n_rows, w_len)| (
            Just((width, n_rows)),
            proptest::collection::vec(arb_edge_f32(), w_len),
            proptest::collection::vec(arb_edge_f32(), width * n_rows),
        )),
        same_len in any::<bool>(),
    ) {
        let ((width, n_rows), mut w, rows) = fixture;
        if same_len {
            w.resize(width, 1.5);
        }
        assert_panel_dot_is_serial(kernels::dot_panel, &w, &rows, width, n_rows);
    }
}

/// The seeded negative cases: the two ways a lane kernel stops being
/// exact, each caught by the assertion the property above runs.
#[test]
#[should_panic(expected = "is not the serial dot")]
fn panel_check_catches_a_positive_zero_start() {
    let from_plus_zero = |w: &[f32], panel: &[f32]| {
        let mut acc = [0.0f32; LANES];
        for (x, col) in w.iter().zip(panel.chunks_exact(LANES)) {
            for j in 0..LANES {
                acc[j] += *x * col[j];
            }
        }
        acc
    };
    // Every product is -0.0: the serial fold from -0.0 stays -0.0.
    assert_panel_dot_is_serial(from_plus_zero, &[1.0, 2.0], &[-0.0; 6], 2, 3);
}

#[test]
#[should_panic(expected = "is not the serial dot")]
fn panel_check_catches_two_folded_partial_sums() {
    let two_halves = |w: &[f32], panel: &[f32]| {
        let half = w.len() / 2;
        let (lo, hi) = (
            kernels::dot_panel(&w[..half], &panel[..half * LANES]),
            kernels::dot_panel(&w[half..], &panel[half * LANES..]),
        );
        std::array::from_fn(|j| lo[j] + hi[j])
    };
    // Serial: ((1e8 + 1) - 1e8) + 1 = 1; halves: (1e8 + 1) + (-1e8 + 1) = 0.
    let w = [1e8, 1.0, -1e8, 1.0];
    assert_panel_dot_is_serial(two_halves, &w, &[1.0; 4], 4, 1);
}
