//! Pins for the dataset generators and the dense initializer every
//! model's init chain runs through.
//!
//! - Each of the five generators draws exactly what it always has: an
//!   FNV-1a hash over every generated entry's `(flat key, value bits)`,
//!   in iteration order, at `tiny()`, at `netflix_like()`, and at the
//!   `mf_net` ledger workload's ratings shape (8 000 × 4 000, 200 k
//!   ratings, true rank 16, skew 0.7). The values were captured from
//!   the generators that staged their entries point by point.
//! - A sparse array's checkpoint image (`checkpoint::to_bytes`) keeps
//!   its bytes: an FNV-1a hash of the whole image for the `tiny()` and
//!   `mf_net` ratings, the `tiny()` corpus counts and a `u32` array with
//!   staged writes and an origin, captured before the sparse codec wrote
//!   its records straight into the image.
//! - Each `Net` app's dataset image (`distributed::DataImage`), written
//!   to checkpoint bytes and read back, gives the generated data bit for
//!   bit: the ratings at `tiny()` and the `mf_net` shape hash to the
//!   generator pins, the SLR samples and weights at `tiny()` too.
//! - `DistArray::dense_from_fn` hands its closure the index sequence
//!   `Shape::unflatten` names, in flat order, for 1-, 2- and 3-D shapes;
//!   a zero extent is refused before the closure runs.

use std::panic;

use orion::apps::distributed::DataImage;
use orion::data::{
    CorpusConfig, CorpusData, RatingsConfig, RatingsData, SparseConfig, SparseData, TabularConfig,
    TabularData, TensorConfig, TensorData,
};
use orion::dsm::{checkpoint, DistArray, Element, Shape};

/// FNV-1a over little-endian `(flat key, value bits)` words, then the
/// entry count.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn eat(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
        self
    }

    fn entry(self, flat: u64, bits: u32) -> Self {
        self.eat(&flat.to_le_bytes()).eat(&bits.to_le_bytes())
    }

    fn finish(self, count: u64) -> u64 {
        self.eat(&count.to_le_bytes()).0
    }
}

fn array_hash<T: Element>(array: &DistArray<T>, bits: impl Fn(&T) -> u32) -> u64 {
    let h = array
        .iter_flat()
        .fold(Fnv::new(), |h, (flat, v)| h.entry(flat, bits(v)));
    h.finish(array.nnz())
}

fn ratings_hash(config: RatingsConfig) -> u64 {
    array_hash(&RatingsData::generate(config).ratings, |v| v.to_bits())
}

fn tensor_hash(config: TensorConfig) -> u64 {
    array_hash(&TensorData::generate(config).entries, |v| v.to_bits())
}

fn corpus_hash(config: CorpusConfig) -> u64 {
    let data = CorpusData::generate(config);
    Fnv(array_hash(&data.tokens, |&c| c)).finish(data.n_tokens)
}

/// Each sample's features keyed `sample × n_features + feature` with the
/// label's bits, then the planted weights keyed by feature.
fn sparse_hash(config: SparseConfig) -> u64 {
    sparse_data_hash(&SparseData::generate(config))
}

fn sparse_data_hash(data: &SparseData) -> u64 {
    let n = data.config.n_features as u64;
    let mut h = Fnv::new();
    let mut count = 0u64;
    for (s, sample) in data.samples.iter().enumerate() {
        for &f in &sample.features {
            h = h.entry(s as u64 * n + u64::from(f), sample.label as u32);
            count += 1;
        }
    }
    for (f, w) in data.true_weights.iter().enumerate() {
        h = h.entry(f as u64, w.to_bits());
    }
    h.finish(count)
}

/// The row-major feature matrix keyed by flat offset, then the targets
/// keyed by sample.
fn tabular_hash(config: TabularConfig) -> u64 {
    let data = TabularData::generate(config);
    let h = data
        .features
        .iter()
        .enumerate()
        .fold(Fnv::new(), |h, (i, v)| h.entry(i as u64, v.to_bits()));
    let h = data
        .targets
        .iter()
        .enumerate()
        .fold(h, |h, (i, v)| h.entry(i as u64, v.to_bits()));
    h.finish((data.features.len() + data.targets.len()) as u64)
}

/// The ratings shape of the `mf_net` ledger workload.
fn mf_net_shape() -> RatingsConfig {
    RatingsConfig {
        n_users: 8_000,
        n_items: 4_000,
        nnz: 200_000,
        true_rank: 16,
        skew: 0.7,
        noise: 0.1,
        seed: 7,
    }
}

#[test]
fn generated_ratings_are_pinned() {
    assert_eq!(
        ratings_hash(RatingsConfig::tiny()),
        10_905_196_903_776_962_751
    );
    assert_eq!(
        ratings_hash(RatingsConfig::netflix_like()),
        7_972_041_826_868_971_124
    );
    assert_eq!(ratings_hash(mf_net_shape()), 438_176_544_409_442_655);
}

#[test]
fn generated_tensor_is_pinned() {
    assert_eq!(
        tensor_hash(TensorConfig::tiny()),
        17_406_695_122_451_699_976
    );
}

#[test]
fn generated_corpus_is_pinned() {
    assert_eq!(corpus_hash(CorpusConfig::tiny()), 7_665_322_000_467_271_957);
}

#[test]
fn generated_sparse_features_are_pinned() {
    assert_eq!(
        sparse_hash(SparseConfig::tiny()),
        14_006_472_809_887_070_348
    );
}

#[test]
fn generated_table_is_pinned() {
    assert_eq!(
        tabular_hash(TabularConfig::tiny()),
        5_289_764_191_943_455_339
    );
}

/// FNV-1a over a checkpoint image's bytes, then its length.
fn image_hash<T: Element>(array: &DistArray<T>) -> u64 {
    let image = checkpoint::to_bytes(array);
    Fnv::new().eat(&image).finish(image.len() as u64)
}

#[test]
fn sparse_checkpoint_images_are_pinned() {
    let tiny = RatingsData::generate(RatingsConfig::tiny()).ratings;
    let mf_net = RatingsData::generate(mf_net_shape()).ratings;
    let tokens = CorpusData::generate(CorpusConfig::tiny()).tokens;
    // Frozen entries, two staged writes between them and one over a
    // frozen key, homed away from the origin.
    let mut staged: DistArray<u32> =
        DistArray::sparse_from_flat("staged", vec![9, 7], [(3, 30), (40, 400), (62, 620)]);
    staged.set(&[0, 5], 50);
    staged.set(&[8, 0], 560);
    staged.set(&[5, 5], 4_000);
    let staged = staged.with_origin(vec![18, -7]);
    let hashes = [&tiny, &mf_net].map(image_hash);
    assert_eq!(
        hashes,
        [16_187_171_934_876_913_133, 11_863_991_705_965_437_412]
    );
    assert_eq!(
        [image_hash(&tokens), image_hash(&staged)],
        [1_824_937_506_862_633_562, 3_312_340_214_124_284_565]
    );
}

/// `data` through its `Net` image: each array to checkpoint bytes and
/// back, then the dataset rebuilt from them.
fn through_image<D: DataImage>(data: &D, config: D::Config) -> D {
    let arrays = data.to_image().into_iter().map(|array| {
        checkpoint::from_bytes(checkpoint::to_bytes(&array)).expect("an image array decodes")
    });
    D::from_image(config, arrays.collect())
}

#[test]
fn net_images_rebuild_the_generated_data() {
    let pins = [
        (RatingsConfig::tiny(), 10_905_196_903_776_962_751),
        (mf_net_shape(), 438_176_544_409_442_655),
    ];
    for (config, pin) in pins {
        let data = RatingsData::generate(config.clone());
        let back = through_image(&data, config);
        assert_eq!(back.ratings, data.ratings);
        assert_eq!(array_hash(&back.ratings, |v| v.to_bits()), pin);
    }
    let data = SparseData::generate(SparseConfig::tiny());
    let back = through_image(&data, SparseConfig::tiny());
    assert_eq!(back.samples, data.samples);
    assert_eq!(sparse_data_hash(&back), 14_006_472_809_887_070_348);
}

/// Every index `dense_from_fn` hands its closure, in call order.
fn indices_seen(dims: &[u64]) -> Vec<Vec<i64>> {
    let mut seen = Vec::new();
    let a = DistArray::dense_from_fn("a", dims.to_vec(), |i| {
        seen.push(i.to_vec());
        seen.len() as u32
    });
    let calls = seen.len() as u32;
    assert_eq!(a.dense_values(), (1..=calls).collect::<Vec<_>>());
    seen
}

#[test]
fn dense_from_fn_walks_the_unflatten_sequence() {
    for dims in [
        vec![1],
        vec![7],
        vec![1, 1],
        vec![3, 1],
        vec![1, 4],
        vec![5, 3],
        vec![2, 3, 4],
        vec![4, 1, 3],
        vec![1, 5, 1],
    ] {
        let shape = Shape::new(dims.clone());
        let want: Vec<Vec<i64>> = (0..shape.volume()).map(|f| shape.unflatten(f)).collect();
        assert_eq!(indices_seen(&dims), want, "dims {dims:?}");
    }
}

#[test]
fn dense_from_fn_refuses_a_zero_extent_before_calling_the_closure() {
    for dims in [vec![0], vec![3, 0], vec![0, 2, 2], vec![2, 2, 0]] {
        let mut calls = 0;
        let built = panic::catch_unwind(panic::AssertUnwindSafe(|| {
            DistArray::dense_from_fn("a", dims.clone(), |_| {
                calls += 1;
                0u32
            })
        }));
        assert!(built.is_err(), "dims {dims:?} built an array");
        assert_eq!(calls, 0, "dims {dims:?}");
        assert!(panic::catch_unwind(|| Shape::new(dims.clone())).is_err());
    }
}
