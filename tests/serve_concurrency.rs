//! Serving under concurrency: the engine's query path is thread-safe
//! and answer-deterministic (N threads produce bit-identical answers to
//! a serial replay of the same seeded stream, cache on or off), and a
//! serial replay leaves pinned cache counts.

use std::sync::Arc;
use std::thread;

use orion::apps::serve::{MfAnswer, MfQuery, MfServe};
use orion::apps::sgd_mf::{train_orion, MfConfig, MfModel, MfRunConfig};
use orion::core::ClusterSpec;
use orion::data::{RatingsConfig, RatingsData};
use orion::serve::{EngineConfig, ServeEngine, TrafficConfig};

fn trained_model() -> MfModel {
    let data = RatingsData::generate(RatingsConfig::tiny());
    let run = MfRunConfig {
        cluster: ClusterSpec::new(4, 2),
        passes: 2,
        ordered: false,
    };
    train_orion(&data, MfConfig::new(4), &run).0
}

fn engine(cache_capacity: usize) -> ServeEngine<MfServe> {
    ServeEngine::new(
        MfServe::from_model(&trained_model(), 4),
        EngineConfig::default().with_cache_capacity(cache_capacity),
    )
}

fn queries(engine: &ServeEngine<MfServe>, n: usize) -> Vec<MfQuery> {
    let mut cfg = TrafficConfig::tiny(engine.model().n_users());
    cfg.n_requests = n;
    cfg.key2_domain = engine.model().n_items();
    cfg.generate()
        .iter()
        .map(|raw| engine.model().query_from_raw(raw, 0.7, 5))
        .collect()
}

/// N threads racing the same seeded stream produce answers
/// bit-identical to a serial replay — with a shared LRU cache under
/// contention, and with the cache disabled.
#[test]
fn threaded_answers_match_serial_replay() {
    for cache in [64, 0] {
        let eng = Arc::new(engine(cache));
        let qs = Arc::new(queries(&eng, 400));

        let serial: Vec<MfAnswer> = qs.iter().map(|q| eng.answer(q)).collect();

        const THREADS: usize = 8;
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let eng = Arc::clone(&eng);
            let qs = Arc::clone(&qs);
            handles.push(thread::spawn(move || {
                // Strided slice: thread t answers queries t, t+N, ...
                (t..qs.len())
                    .step_by(THREADS)
                    .map(|i| (i, eng.answer(&qs[i])))
                    .collect::<Vec<_>>()
            }));
        }
        let mut threaded: Vec<Option<MfAnswer>> = vec![None; qs.len()];
        for h in handles {
            for (i, a) in h.join().expect("worker thread") {
                threaded[i] = Some(a);
            }
        }
        for (i, (got, want)) in threaded.iter().zip(&serial).enumerate() {
            let got = got.as_ref().expect("every query answered");
            match (got, want) {
                (MfAnswer::Score(g), MfAnswer::Score(w)) => {
                    assert_eq!(g.to_bits(), w.to_bits(), "query {i} (cache {cache})")
                }
                (MfAnswer::TopK(g), MfAnswer::TopK(w)) => {
                    assert_eq!(g.len(), w.len(), "query {i}");
                    for ((gi, gs), (wi, ws)) in g.iter().zip(w) {
                        assert_eq!(gi, wi, "query {i}");
                        assert_eq!(gs.to_bits(), ws.to_bits(), "query {i} item {gi}");
                    }
                }
                other => panic!("answer kind changed under threading: {other:?}"),
            }
        }
        // Accounting stays balanced under contention.
        let s = eng.cache_stats();
        assert_eq!(s.hits + s.misses, s.lookups);
    }
}

/// The row caches hold keys only, so what they are for is their hit
/// and miss counts, and those are pinned: a seeded Zipf stream replayed
/// serially through a default-config engine, users and items both
/// outnumbering a shard's 256 slots so that rows are evicted. The
/// constants were recorded when the caches still held `Arc<[f32]>` row
/// copies.
#[test]
fn session_cache_counts_are_pinned() {
    let model = MfModel::new(2_000, 600, MfConfig::new(4));
    let eng = ServeEngine::new(MfServe::from_model(&model, 2), EngineConfig::default());
    let traffic = TrafficConfig {
        n_requests: 6_000,
        streams: 3,
        rate_rps: 20_000.0,
        zipf_s: 1.1,
        key_domain: eng.model().n_users(),
        key2_domain: eng.model().n_items(),
        seed: 17,
    };
    for raw in traffic.generate() {
        eng.answer(&eng.model().query_from_raw(&raw, 0.95, 10));
    }
    let c = eng.cache_stats();
    assert_eq!((c.hits, c.misses, c.evictions), (9_094, 2_616, 1_592));
}
