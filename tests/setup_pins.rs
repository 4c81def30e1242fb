//! Pins for job setup: the generated datasets and the plans compiled
//! from them.
//!
//! - The three sparse generators draw the same entries as they always
//!   have: a hash of each dataset's `(flat, value bits)` sequence, in
//!   iteration order, captured before the generators froze their
//!   storage, at `tiny()` and one mid-size config.
//! - `Driver::parallel_for` reads only the loop index of each item, so
//!   MF compiled over bare `[i64; 2]` indices is the loop compiled over
//!   `(Vec<i64>, f32)` items — same strategy, blocks, steps and
//!   partitions — on tall and wide matrices.

use orion::core::{ClusterSpec, CompiledLoop, Driver, LoopSpec, Subscript};
use orion::data::{CorpusConfig, CorpusData, RatingsConfig, RatingsData, TensorConfig, TensorData};
use orion::dsm::{DistArray, Element};

/// FNV-1a over each element's flat offset and value bits, little
/// endian, in iteration order, then the element count.
fn entry_hash<T: Element>(array: &DistArray<T>, bits: impl Fn(&T) -> u32) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325_u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    };
    for (flat, v) in array.iter_flat() {
        eat(&flat.to_le_bytes());
        eat(&bits(v).to_le_bytes());
    }
    eat(&array.nnz().to_le_bytes());
    h
}

fn ratings_hash(config: RatingsConfig) -> u64 {
    entry_hash(&RatingsData::generate(config).ratings, |v| v.to_bits())
}

fn tensor_hash(config: TensorConfig) -> u64 {
    entry_hash(&TensorData::generate(config).entries, |v| v.to_bits())
}

fn corpus_hash(config: CorpusConfig) -> u64 {
    entry_hash(&CorpusData::generate(config).tokens, |&c| c)
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
}

#[test]
fn generated_tensors_are_pinned() {
    assert_eq!(
        tensor_hash(TensorConfig::tiny()),
        17_406_695_122_451_699_976
    );
    assert_eq!(
        tensor_hash(TensorConfig::bench()),
        8_128_738_788_269_469_281
    );
}

#[test]
fn generated_corpora_are_pinned() {
    assert_eq!(corpus_hash(CorpusConfig::tiny()), 2_935_000_104_524_278_376);
    assert_eq!(
        corpus_hash(CorpusConfig::nytimes_like()),
        5_997_681_132_467_408_334
    );
}

/// The MF loop over `data`, compiled by `compile` on 2 × 2 workers.
fn mf_loop(
    data: &RatingsData,
    compile: impl FnOnce(&mut Driver, LoopSpec) -> CompiledLoop,
) -> CompiledLoop {
    let mut driver = Driver::new(ClusterSpec::new(2, 2));
    let z = driver.register(&data.ratings);
    let dims = data.ratings.shape().dims().to_vec();
    let w = driver.register(&DistArray::<f32>::dense("W", vec![dims[0], 4]));
    let h = driver.register(&DistArray::<f32>::dense("H", vec![dims[1], 4]));
    let spec = LoopSpec::builder("sgd_mf", z, dims)
        .read_write(w, vec![Subscript::loop_index(0), Subscript::Full])
        .read_write(h, vec![Subscript::loop_index(1), Subscript::Full])
        .build()
        .unwrap();
    compile(&mut driver, spec)
}

#[test]
fn bare_indices_compile_the_loop_that_index_value_pairs_compile() {
    let wide = RatingsConfig {
        n_users: 60,
        n_items: 400,
        nnz: 3_000,
        ..RatingsConfig::tiny()
    };
    for config in [RatingsConfig::tiny(), wide] {
        let data = RatingsData::generate(config);
        let pairs = data.items();
        let bare: Vec<[i64; 2]> = pairs.iter().map(|(i, _)| [i[0], i[1]]).collect();
        let a = mf_loop(&data, |d, spec| d.parallel_for(spec, &pairs).unwrap());
        let b = mf_loop(&data, |d, spec| d.parallel_for(spec, &bare).unwrap());
        assert_eq!(a.strategy(), b.strategy());
        let (a, b) = (&a.schedule, &b.schedule);
        assert_eq!(a.n_workers, b.n_workers);
        assert_eq!(a.blocks, b.blocks);
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.n_time_partitions, b.n_time_partitions);
        assert_eq!(a.sync, b.sync);
        assert_eq!(a.space_partition, b.space_partition);
        assert_eq!(a.time_partition, b.time_partition);
        assert_eq!(a.blocks.total_items(), pairs.len());
    }
}
