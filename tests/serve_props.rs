//! Property tests of the serving substrate: checkpoint → shard round
//! trips over arbitrary shapes and dtypes, corruption rejection (a
//! malformed image must never become a shard), LRU cache invariants
//! against a reference model, and the streaming top-k selector against
//! the sort-based reference.

use orion::apps::serve::{top_k_reference, Score, TopK};
use orion::dsm::checkpoint::{self, CheckpointError};
use orion::dsm::{DistArray, Shape};
use orion::serve::{LruCache, ShardedArray};
use proptest::prelude::*;

fn arb_dims() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(1u64..8, 1..4)
}

fn arb_dense_f32() -> impl Strategy<Value = DistArray<f32>> {
    arb_dims().prop_flat_map(|dims| {
        let volume: u64 = dims.iter().product();
        let d = dims.clone();
        proptest::collection::vec(any::<f32>(), volume as usize)
            .prop_map(move |values| DistArray::dense_from_vec("w", d.clone(), values))
    })
}

fn arb_sparse_u32() -> impl Strategy<Value = DistArray<u32>> {
    arb_dims().prop_flat_map(|dims| {
        let volume: u64 = dims.iter().product();
        let d = dims.clone();
        proptest::collection::btree_set(0..volume, 0..volume.min(24) as usize).prop_map(
            move |flats| {
                let shape = Shape::new(d.clone());
                DistArray::sparse_from(
                    "s",
                    d.clone(),
                    flats.iter().map(|&f| (shape.unflatten(f), f as u32 + 1)),
                )
            },
        )
    })
}

/// A reference LRU: an MRU-ordered `Vec`, correct by inspection.
struct RefLru {
    entries: Vec<(u64, u64)>,
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl RefLru {
    fn new(capacity: usize) -> Self {
        RefLru {
            entries: Vec::new(),
            capacity,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn get(&mut self, key: u64) -> Option<u64> {
        match self.entries.iter().position(|(k, _)| *k == key) {
            Some(pos) => {
                self.hits += 1;
                let e = self.entries.remove(pos);
                let v = e.1;
                self.entries.insert(0, e);
                Some(v)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn insert(&mut self, key: u64, value: u64) {
        if self.capacity == 0 {
            return;
        }
        if let Some(pos) = self.entries.iter().position(|(k, _)| *k == key) {
            self.entries.remove(pos);
        } else if self.entries.len() == self.capacity {
            self.entries.pop();
            self.evictions += 1;
        }
        self.entries.insert(0, (key, value));
    }
}

/// One scripted cache operation.
#[derive(Debug, Clone)]
enum Op {
    Get(u64),
    Insert(u64, u64),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (0u64..12, any::<bool>(), 0u64..1000).prop_map(|(k, is_get, v)| {
            if is_get {
                Op::Get(k)
            } else {
                Op::Insert(k, v)
            }
        }),
        0..200,
    )
}

/// A scan's worth of `(id, score)` pairs: unique ids offered in a
/// shuffled order, scores drawn from a short palette so that most of
/// them tie.
fn arb_scored<S: Score + core::fmt::Debug + 'static>(
    palette: &'static [S],
) -> impl Strategy<Value = Vec<(u64, S)>> {
    proptest::collection::vec((any::<u32>(), 0..palette.len()), 0..60).prop_map(|draws| {
        let mut keyed: Vec<(u32, u64, S)> = draws
            .iter()
            .enumerate()
            .map(|(id, &(key, p))| (key, id as u64, palette[p]))
            .collect();
        keyed.sort_by_key(|t| (t.0, t.1));
        keyed.into_iter().map(|(_, id, s)| (id, s)).collect()
    })
}

/// The selector and the reference give the same ids and the same score
/// bits (`rank` is `Equal` only then) for every list length a query can
/// name around `n`, hostile ones included.
fn selector_matches_reference<S: Score>(scored: &[(u64, S)], any_k: usize) -> Result<(), String> {
    let n = scored.len();
    for k in [0, 1, n.saturating_sub(1), n, n + 1, usize::MAX, any_k] {
        let mut top = TopK::new(k, n as u64);
        for &(id, score) in scored {
            top.push(id, score);
        }
        let (got, want) = (top.into_sorted(), top_k_reference(scored.to_vec(), k));
        let same = got.len() == want.len()
            && got
                .iter()
                .zip(&want)
                .all(|(g, w)| g.0 == w.0 && g.1.rank(&w.1).is_eq());
        if !same {
            return Err(format!("k = {k} of n = {n}"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `f32` scores in `total_cmp` order — NaNs of both signs, ±∞ and
    /// ±0.0 among them — and `u32` counts, ties broken by id.
    #[test]
    fn streaming_top_k_matches_sorted_reference(
        floats in arb_scored(&[
            f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0, 1.0, -2.5, 1e-40,
        ]),
        counts in arb_scored(&[0u32, 1, 2, u32::MAX]),
        any_k in 0usize..70,
    ) {
        prop_assert_eq!(selector_matches_reference(&floats, any_k), Ok(()));
        prop_assert_eq!(selector_matches_reference(&counts, any_k), Ok(()));
    }

    /// Dense f32 arrays of any shape round-trip through checkpoint
    /// bytes into shards bit-exactly, for any shard count: every row
    /// comes back with identical bits, shards tile the rows exactly,
    /// and routing agrees with shard ownership.
    #[test]
    fn dense_roundtrip_is_bit_exact(a in arb_dense_f32(), n_shards in 1usize..9) {
        let s = ShardedArray::<f32>::from_checkpoint_bytes(checkpoint::to_bytes(&a), n_shards)
            .expect("intact checkpoint loads");
        let rows = a.shape().dims()[0];
        prop_assert_eq!(s.n_rows(), rows);
        prop_assert_eq!(s.dims(), a.shape().dims());
        let covered: u64 = s.shards().iter().map(|sh| sh.n_rows()).sum();
        prop_assert_eq!(covered, rows);
        let width = (a.shape().volume() / rows) as usize;
        for r in 0..rows {
            let got = s.row(r).expect("row in range");
            prop_assert_eq!(got.len(), width);
            for (c, g) in got.iter().enumerate() {
                let flat = r * width as u64 + c as u64;
                let w = a.get_flat(flat).expect("dense flat index");
                prop_assert_eq!(g.to_bits(), w.to_bits());
            }
            prop_assert!(s.shard(s.shard_of(r)).rows().contains(&r));
        }
        prop_assert_eq!(s.row(rows), None);
    }

    /// Sparse u32 checkpoints densify into shards that agree with
    /// `get_or_default` at every coordinate.
    #[test]
    fn sparse_roundtrip_densifies_exactly(a in arb_sparse_u32(), n_shards in 1usize..6) {
        let s = ShardedArray::<u32>::from_checkpoint_bytes(checkpoint::to_bytes(&a), n_shards)
            .expect("intact checkpoint loads");
        let dims = a.shape().dims().to_vec();
        let width = (a.shape().volume() / dims[0]) as usize;
        for r in 0..dims[0] {
            let row = s.row(r).expect("row in range");
            prop_assert_eq!(row.len(), width);
            for (c, &got) in row.iter().enumerate() {
                let flat = r * width as u64 + c as u64;
                let idx: Vec<i64> = a.shape().unflatten(flat);
                prop_assert_eq!(got, a.get_or_default(&idx));
            }
        }
    }

    /// Every strict prefix of a checkpoint image is rejected as
    /// `Corrupt` — a truncated file can never load into shards.
    #[test]
    fn truncated_checkpoints_never_become_shards(a in arb_dense_f32(), frac in 0.0f64..1.0) {
        let wire = checkpoint::to_bytes(&a);
        let cut = ((wire.len() as f64) * frac) as usize; // strictly < len
        let err = ShardedArray::<f32>::from_checkpoint_bytes(wire.slice(0..cut), 2)
            .expect_err("strict prefix must be corrupt");
        prop_assert!(matches!(err, CheckpointError::Corrupt(_)));
    }

    /// Trailing garbage of any size and content is rejected too.
    #[test]
    fn extended_checkpoints_never_become_shards(
        a in arb_dense_f32(),
        tail in proptest::collection::vec(any::<u8>(), 1..16),
    ) {
        let mut wire = checkpoint::to_bytes(&a).to_vec();
        wire.extend_from_slice(&tail);
        let err = ShardedArray::<f32>::from_checkpoint_bytes(wire.into(), 2)
            .expect_err("extended image must be corrupt");
        prop_assert!(matches!(err, CheckpointError::Corrupt(_)));
    }

    /// The slab LRU agrees with the reference model on every operation
    /// of an arbitrary script, and its invariants hold throughout:
    /// `hits + misses == lookups`, `len <= capacity`, eviction count and
    /// full MRU order identical to the reference.
    #[test]
    fn lru_matches_reference_model(ops in arb_ops(), capacity in 0usize..6) {
        let mut cache: LruCache<u64, u64> = LruCache::new(capacity);
        let mut reference = RefLru::new(capacity);
        for op in &ops {
            match op {
                Op::Get(k) => {
                    prop_assert_eq!(cache.get(k).copied(), reference.get(*k));
                }
                Op::Insert(k, v) => {
                    cache.insert(*k, *v);
                    reference.insert(*k, *v);
                }
            }
            let s = cache.stats();
            prop_assert_eq!(s.hits + s.misses, s.lookups);
            prop_assert!(cache.len() <= capacity);
            prop_assert_eq!(s.len as usize, reference.entries.len());
            prop_assert_eq!(s.evictions, reference.evictions);
            let want_order: Vec<u64> = reference.entries.iter().map(|(k, _)| *k).collect();
            prop_assert_eq!(cache.keys_mru_order(), want_order);
        }
        prop_assert_eq!(cache.stats().hits, reference.hits);
        prop_assert_eq!(cache.stats().misses, reference.misses);
    }
}

/// A sparse image states a shape, not elements: two empty ones of 58
/// bytes each declare 2^62 and 2^50 `f32`s. Densifying either would
/// overflow the allocation size or ask for petabytes, so loading comes
/// back as `Corrupt`, naming the shape — never a panic, never an aborted
/// process.
#[test]
fn oversized_sparse_checkpoints_never_become_shards() {
    for dims in [vec![1u64 << 31, 1 << 31], vec![1 << 40, 1 << 10]] {
        let empty = DistArray::<f32>::sparse_from("w", dims.clone(), []);
        let wire = checkpoint::to_bytes(&empty);
        assert_eq!(wire.len(), 58);
        match ShardedArray::<f32>::from_checkpoint_bytes(wire, 2) {
            Err(CheckpointError::Corrupt(msg)) => {
                assert!(msg.contains(&format!("{dims:?}")), "{msg}")
            }
            other => panic!("{dims:?}: {:?}", other.map(|s| s.dims().to_vec())),
        }
    }
}
