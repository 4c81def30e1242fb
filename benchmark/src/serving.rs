//! The closed-loop client side of serving: each client thread sends its
//! next query only when the previous one is answered, because the real
//! path is a synchronous library call with no queue in front of it.

use std::hint::black_box;
use std::sync::Barrier;
use std::time::Instant;

use orion_apps::serve::{oracle_mf_predict, oracle_mf_recommend, MfAnswer, MfQuery, MfServe};
use orion_apps::sgd_mf::MfModel;
use orion_serve::{EngineConfig, ServeEngine, ServeModel, TrafficConfig};

use crate::harness::{derive_seed, Ops, SessionLatency, WORKERS};
use crate::stats;
use crate::trace::Tracer;

/// Share of MF queries that are point predictions; the rest are full
/// top-`K` scans.
pub const PREDICT_FRAC: f64 = 0.95;
pub const TOP_K: usize = 10;
/// Answers compared with the oracle before timing.
const GATE_ANSWERS: usize = 2_000;

/// One client's pass over its stream, the other clients running beside
/// it.
pub struct Pass {
    pub wall_s: f64,
    /// Per-query latency in nanoseconds, in query order.
    pub lat_ns: Vec<u32>,
}

/// One session: every client thread ran its whole stream once.
pub struct Session {
    pub passes: Vec<Pass>,
    /// Order-independent checksum over every answer's bits.
    pub checksum: u64,
}

impl Session {
    /// Wall of the least-disturbed client. Clients do equal work, so
    /// without interference every pass takes this long; the host
    /// slowing one core is not the engine's doing.
    pub fn fastest_pass_s(&self) -> f64 {
        self.passes
            .iter()
            .map(|p| p.wall_s)
            .fold(f64::INFINITY, f64::min)
    }
}

/// Runs one closed-loop session, one client thread per stream. With the
/// tracer on, every query becomes a span under a `serve.session` span.
///
/// A client's queries are back to back, so one clock read per query
/// serves as the end of one and the start of the next.
pub fn closed_loop<M: ServeModel>(
    engine: &ServeEngine<M>,
    streams: &[Vec<M::Query>],
    digest: impl Fn(&M::Answer) -> u64 + Sync,
    tr: &mut Tracer,
) -> Session
where
    M::Query: Sync,
{
    let open = tr.begin("serve.session");
    let epoch = tr.epoch();
    let start_line = Barrier::new(streams.len());
    // Per client: its pass, answer checksum, start offset from `epoch`.
    let per_client: Vec<(Pass, u64, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .map(|stream| {
                let (start_line, digest) = (&start_line, &digest);
                s.spawn(move || {
                    let mut lat_ns = Vec::with_capacity(stream.len());
                    let mut sum = 0u64;
                    start_line.wait();
                    let start = Instant::now();
                    let mut prev = start;
                    for q in stream {
                        let answer = engine.answer(black_box(q));
                        let now = Instant::now();
                        sum = sum.wrapping_add(orion_apps::common::mix64(digest(&answer)));
                        lat_ns
                            .push(now.duration_since(prev).as_nanos().min(u32::MAX as u128) as u32);
                        prev = now;
                    }
                    let wall_s = prev.duration_since(start).as_secs_f64();
                    let start_ns = start.duration_since(epoch).as_nanos() as u64;
                    (Pass { wall_s, lat_ns }, sum, start_ns)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut session = Session {
        passes: Vec::new(),
        checksum: 0,
    };
    for (pass, sum, start_ns) in per_client {
        if tr.enabled() {
            // Back-to-back queries: each span starts where the last ended.
            let mut at = start_ns;
            let spans: Vec<(u64, u64)> = pass
                .lat_ns
                .iter()
                .map(|&ns| {
                    let from = at;
                    at += u64::from(ns);
                    (from, at)
                })
                .collect();
            tr.record_children("serve.answer", &spans);
        }
        session.passes.push(pass);
        session.checksum = session.checksum.wrapping_add(sum);
    }
    tr.end(open);
    session
}

/// The bits of an MF answer, folded to one word.
pub fn mf_digest(answer: &MfAnswer) -> u64 {
    match answer {
        MfAnswer::Score(s) => u64::from(s.to_bits()),
        MfAnswer::TopK(top) => top.iter().fold(0u64, |acc, &(item, score)| {
            acc.rotate_left(7) ^ item ^ (u64::from(score.to_bits()) << 32)
        }),
    }
}

/// Loads a trained model the way a deployment does: checkpoint bytes →
/// shards → engine with the default configuration.
pub fn mf_engine(model: &MfModel) -> ServeEngine<MfServe> {
    let (w, h) = MfServe::checkpoint_bytes(model);
    let serve = MfServe::from_checkpoint_bytes(w, h, WORKERS)
        .expect("a checkpoint image written a moment ago loads");
    ServeEngine::new(serve, EngineConfig::default())
}

/// One seeded Zipf-1.1 query stream per client thread, `per_client`
/// queries each, 95 % point predictions and 5 % top-10 scans.
pub fn mf_streams(
    serve: &MfServe,
    seed: u64,
    clients: usize,
    per_client: usize,
) -> Vec<Vec<MfQuery>> {
    let raw = TrafficConfig {
        n_requests: per_client * clients,
        streams: clients,
        // Arrival times are unused: the loop is closed.
        rate_rps: 1.0,
        zipf_s: 1.1,
        key_domain: serve.n_users(),
        key2_domain: serve.n_items(),
        seed,
    }
    .generate();
    let mut streams = vec![Vec::with_capacity(per_client); clients];
    for r in &raw {
        streams[r.stream as usize].push(serve.query_from_raw(r, PREDICT_FRAC, TOP_K));
    }
    streams
}

/// Compares seeded answers with the brute-force oracles, bit for bit.
pub fn mf_gate(engine: &ServeEngine<MfServe>, model: &MfModel, seed: u64, ops: &mut Ops) {
    let streams = mf_streams(engine.model(), derive_seed(seed, 90), 1, GATE_ANSWERS);
    let mut wrong = 0;
    for q in streams.iter().flatten() {
        let ok = match (q, engine.answer(q)) {
            (MfQuery::Predict { user, item }, MfAnswer::Score(s)) => {
                s.to_bits() == oracle_mf_predict(model, *user, *item).to_bits()
            }
            (MfQuery::Recommend { user, k }, MfAnswer::TopK(top)) => {
                let want = oracle_mf_recommend(model, *user, *k);
                top.len() == want.len()
                    && top
                        .iter()
                        .zip(&want)
                        .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits())
            }
            _ => false,
        };
        wrong += u64::from(!ok);
    }
    ops.count(
        GATE_ANSWERS as u64,
        wrong,
        "serve answers differ from the oracle",
    );
}

/// Queries in one session of a training workload serving the model it
/// just trained. One client: the latency of the path itself, no lock
/// contention — two clients on SLR's thirty row fetches per query flip
/// between a contended and an uncontended regime from session to
/// session. Sessions are very short (tens of milliseconds, twenty
/// samples beyond the p99) and many: a p99 moves when one hiccup of the
/// host touches a hundredth of a session's queries, so only a session
/// short enough to dodge every hiccup reads the engine's own tail.
pub const TRAINED_QUERIES: usize = 2_000;

/// Median and p99 of one pass's per-query latencies.
///
/// # Panics
///
/// Panics when fewer than ten samples lie beyond the p99: a tail
/// percentile resting on fewer is not reportable.
pub fn session_latency(mut lat_ns: Vec<u32>) -> SessionLatency {
    assert!(
        stats::has_samples_beyond(lat_ns.len(), 99.0, 10),
        "fewer than ten query samples beyond p99 ({} samples)",
        lat_ns.len()
    );
    lat_ns.sort_unstable();
    let us = |p| f64::from(stats::percentile_sorted(&lat_ns, p)) / 1e3;
    SessionLatency {
        p50_us: us(50.0),
        p99_us: us(99.0),
    }
}

/// A trained model being served from one client between training jobs.
/// Every job of a run trains the same model bit for bit (the harness
/// checks), so the engine is loaded once, from the first job's model.
pub struct TrainedServing<M: ServeModel> {
    engine: ServeEngine<M>,
    streams: [Vec<M::Query>; 1],
    digest: fn(&M::Answer) -> u64,
    /// Answer checksum of the warm-up session; every session sends the
    /// same queries and must reproduce it.
    checksum: u64,
    sessions: Vec<SessionLatency>,
}

impl<M: ServeModel> TrainedServing<M>
where
    M::Query: Sync,
{
    /// Takes the loaded engine and runs one untimed session to fill its
    /// row caches.
    pub fn new(
        engine: ServeEngine<M>,
        stream: Vec<M::Query>,
        digest: fn(&M::Answer) -> u64,
    ) -> Self {
        let streams = [stream];
        let warm = closed_loop(&engine, &streams, digest, &mut Tracer::new(false));
        TrainedServing {
            engine,
            streams,
            digest,
            checksum: warm.checksum,
            sessions: Vec::new(),
        }
    }

    /// Runs `n` recorded sessions.
    pub fn serve(&mut self, n: usize, ops: &mut Ops) {
        let queries = self.streams[0].len() as u64;
        for _ in 0..n {
            let s = closed_loop(
                &self.engine,
                &self.streams,
                self.digest,
                &mut Tracer::new(false),
            );
            let lost = u64::from(s.checksum != self.checksum) * queries;
            ops.count(
                queries,
                lost,
                "serving session answers differ from the warm-up's",
            );
            self.sessions
                .extend(s.passes.into_iter().map(|p| session_latency(p.lat_ns)));
        }
    }

    /// The latencies of every recorded session so far.
    pub fn take_sessions(&mut self) -> Vec<SessionLatency> {
        std::mem::take(&mut self.sessions)
    }
}

/// Loads a just-trained MF model from its checkpoint bytes, compares its
/// answers with the oracle, and gets it ready to serve.
pub fn serve_trained_mf(model: &MfModel, seed: u64, ops: &mut Ops) -> TrainedServing<MfServe> {
    let engine = mf_engine(model);
    mf_gate(&engine, model, seed, ops);
    let stream =
        mf_streams(engine.model(), derive_seed(seed, 91), 1, TRAINED_QUERIES).swap_remove(0);
    TrainedServing::new(engine, stream, mf_digest)
}
