//! `mf_serve` — the public `ServeEngine` over a trained MF model,
//! closed loop, two client threads.
//!
//! Why: read-only use of the same arrays and kernels. 95 % of queries
//! are point reads (LRU cache + two row fetches, well under a
//! microsecond → `query_p50_us`), 5 % are full scans (4 000 dots →
//! `query_p99_us` and most of the wall), so a gain for one query kind
//! that costs the other shows. The virtual-clock `run_session` is not
//! measured: the real path is a synchronous call with no queue.

use std::hint::black_box;
use std::time::Instant;

use orion_apps::serve::{MfQuery, MfServe};
use orion_apps::sgd_mf::{self, MfConfig, MfModel};
use orion_core::{kernels, MathMode};
use orion_data::{RatingsConfig, RatingsData};
use orion_serve::{EngineConfig, LruCache, ServeEngine};

use crate::harness::{derive_seed, Job, JobSize, Ops, Samples, SessionLatency, Workload, WORKERS};
use crate::serving::{self, closed_loop, mf_digest, mf_engine, mf_streams};
use crate::trace::Tracer;

const RANK: usize = 32;
const TRAIN_EPOCHS: u64 = 2;

/// Queries each client sends in one timed session: a tenth of a
/// second, so that a couple of hundred sessions fit the window and some
/// fall wholly inside a quiet phase of the host.
const QUERIES_PER_CLIENT: usize = 10_000;
const SHORT_QUERIES_PER_CLIENT: usize = 5_000;
const COLD_QUERY: MfQuery = MfQuery::Predict { user: 0, item: 0 };
const PROBE_REPS: usize = 9;
const PROBE_PREDICTS: usize = 100_000;
const PROBE_RECOMMENDS: usize = 200;

fn shape(seed: u64) -> RatingsConfig {
    RatingsConfig {
        n_users: 20_000,
        n_items: 4_000,
        nnz: 400_000,
        true_rank: 16,
        skew: 0.7,
        noise: 0.1,
        seed,
    }
}

pub struct MfServeLoad {
    seed: u64,
    gen_s: f64,
    n_ratings: u64,
    model: MfModel,
    engine: ServeEngine<MfServe>,
    streams: Vec<Vec<MfQuery>>,
    short_streams: Vec<Vec<MfQuery>>,
    /// Latency percentiles of every timed session so far.
    sessions: Vec<SessionLatency>,
}

impl MfServeLoad {
    pub fn new(seed: u64) -> Self {
        let t = Instant::now();
        let data = RatingsData::generate(shape(derive_seed(seed, 40)));
        let gen_s = t.elapsed().as_secs_f64();
        let mut cfg = MfConfig::new(RANK);
        cfg.seed = derive_seed(seed, 41);
        // Training is input preparation here, not the thing measured.
        let (model, _) = sgd_mf::train_threaded(&data, cfg, WORKERS, TRAIN_EPOCHS, false);
        let engine = mf_engine(&model);
        let streams = mf_streams(
            engine.model(),
            derive_seed(seed, 42),
            WORKERS,
            QUERIES_PER_CLIENT,
        );
        let short_streams = mf_streams(
            engine.model(),
            derive_seed(seed, 43),
            WORKERS,
            SHORT_QUERIES_PER_CLIENT,
        );
        MfServeLoad {
            seed,
            gen_s,
            n_ratings: data.nnz(),
            model,
            engine,
            streams,
            short_streams,
            sessions: Vec::new(),
        }
    }

    fn queries_per_session(&self) -> u64 {
        self.streams.iter().map(|s| s.len() as u64).sum()
    }
}

impl Workload for MfServeLoad {
    fn describe(&self) -> Vec<(&'static str, String)> {
        vec![
            ("users", self.engine.model().n_users().to_string()),
            ("items", self.engine.model().n_items().to_string()),
            ("ratings", self.n_ratings.to_string()),
            ("rank", RANK.to_string()),
            ("shards", self.engine.n_shards().to_string()),
            ("cache", self.engine.config().cache_capacity.to_string()),
            ("clients", WORKERS.to_string()),
            ("loop", "closed".into()),
            ("predict_frac", serving::PREDICT_FRAC.to_string()),
            ("P", self.queries_per_session().to_string()),
            ("data.gen_s", format!("{:.4}", self.gen_s)),
        ]
    }

    fn items_per_job(&self) -> f64 {
        self.queries_per_session() as f64
    }

    fn epochs_per_job(&self) -> u64 {
        1
    }

    fn gate(&mut self, ops: &mut Ops) {
        serving::mf_gate(&self.engine, &self.model, self.seed, ops);
        // One untimed session lets the row caches reach the state every
        // timed session then starts from.
        closed_loop(
            &self.engine,
            &self.streams,
            mf_digest,
            &mut Tracer::new(false),
        );
    }

    fn cold_start(&mut self) -> f64 {
        let (w, h) = MfServe::checkpoint_bytes(&self.model);
        let t = Instant::now();
        let serve = MfServe::from_checkpoint_bytes(w, h, WORKERS).expect("image loads");
        let engine = ServeEngine::new(serve, EngineConfig::default());
        black_box(engine.answer(&COLD_QUERY));
        t.elapsed().as_secs_f64()
    }

    fn job(&mut self, size: JobSize, tr: &mut Tracer) -> Job {
        let streams = match size {
            JobSize::Full => &self.streams,
            JobSize::Short => &self.short_streams,
        };
        let s = closed_loop(&self.engine, streams, mf_digest, tr);
        let wall_s = s.fastest_pass_s();
        let ok = s
            .passes
            .iter()
            .zip(streams)
            .all(|(pass, stream)| pass.lat_ns.len() == stream.len());
        if size == JobSize::Full {
            self.sessions.extend(
                s.passes
                    .into_iter()
                    .map(|p| serving::session_latency(p.lat_ns)),
            );
        }
        Job {
            wall_s,
            fingerprint: s.checksum,
            ok,
        }
    }

    fn after_job(&mut self, ops: &mut Ops) {
        // Serving is the job here. Its queries were all answered; a
        // session that answered differently was counted as a failed job.
        ops.count(self.queries_per_session(), 0, "");
    }

    fn query_latencies(&mut self) -> Vec<SessionLatency> {
        std::mem::take(&mut self.sessions)
    }

    fn probe_layers(&mut self, tr: &mut Tracer, layers: &mut Samples) {
        let group = tr.begin("layers.mf_serve");
        let (w_img, h_img) = MfServe::checkpoint_bytes(&self.model);
        let all = self.streams.iter().flatten();
        let predicts: Vec<MfQuery> = all
            .clone()
            .filter(|q| matches!(q, MfQuery::Predict { .. }))
            .take(PROBE_PREDICTS)
            .cloned()
            .collect();
        let recommends: Vec<MfQuery> = all
            .filter(|q| matches!(q, MfQuery::Recommend { .. }))
            .take(PROBE_RECOMMENDS)
            .cloned()
            .collect();
        let uncached = ServeEngine::new(
            MfServe::from_checkpoint_bytes(w_img.clone(), h_img.clone(), WORKERS)
                .expect("image loads"),
            EngineConfig::default().with_cache_capacity(0),
        );
        let answer_all = |engine: &ServeEngine<MfServe>, queries: &[MfQuery]| {
            for q in queries {
                black_box(engine.answer(black_box(q)));
            }
        };

        for _ in 0..PROBE_REPS {
            let (engine, s) = tr.span("serve.load", || {
                let serve = MfServe::from_checkpoint_bytes(w_img.clone(), h_img.clone(), WORKERS)
                    .expect("image loads");
                ServeEngine::new(serve, EngineConfig::default())
            });
            layers.lower("serve.load_ms", "ms", s * 1e3);

            // Point reads through the cache (first sweep fills it) and
            // with the cache off; full scans.
            answer_all(&engine, &predicts);
            let before = engine.cache_stats();
            let (_, s) = tr.span("serve.predict", || answer_all(&engine, &predicts));
            layers.lower("serve.predict_ns", "ns", s * 1e9 / predicts.len() as f64);
            let after = engine.cache_stats();
            layers.higher(
                "serve.cache_hit_rate",
                "ratio",
                (after.hits - before.hits) as f64 / (after.lookups - before.lookups) as f64,
            );
            let (_, s) = tr.span("serve.predict_nocache", || answer_all(&uncached, &predicts));
            layers.lower(
                "serve.predict_nocache_ns",
                "ns",
                s * 1e9 / predicts.len() as f64,
            );
            let (_, s) = tr.span("serve.recommend", || answer_all(&engine, &recommends));
            layers.lower(
                "serve.recommend_us",
                "us",
                s * 1e6 / recommends.len() as f64,
            );
        }

        // The cache alone: hits on a full cache of the default capacity.
        let capacity = EngineConfig::default().cache_capacity as u64;
        let mut lru: LruCache<u64, u64> = LruCache::new(capacity as usize);
        for k in 0..capacity {
            lru.insert(k, k);
        }
        let lookups = 1_000_000u64;
        for _ in 0..PROBE_REPS {
            let (_, s) = tr.span("serve.lru_get", || {
                for i in 0..lookups {
                    black_box(lru.get(black_box(&(i.wrapping_mul(0x9E37_79B9) % capacity))));
                }
            });
            layers.lower("serve.lru_get_ns", "ns", s * 1e9 / lookups as f64);
        }

        // The dot product a full scan runs once per item.
        let (w, h) = (&self.model.w, &self.model.h);
        let n_items = self.engine.model().n_items() as i64;
        let sweeps = 50;
        for _ in 0..PROBE_REPS {
            let (_, s) = tr.span("dsm.dot", || {
                for sweep in 0..sweeps {
                    let user = w.row_slice(sweep);
                    for item in 0..n_items {
                        black_box(kernels::dot(user, h.row_slice(item), MathMode::Exact));
                    }
                }
            });
            layers.lower("dsm.dot_ns", "ns", s * 1e9 / (sweeps * n_items) as f64);
        }
        tr.end(group);
    }
}
