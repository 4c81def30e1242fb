//! `mf_net` — `distributed::train_mf_distributed` on two node processes
//! over loopback TCP.
//!
//! Why: rotation-dominated. Frames, codec, loopback sockets and the
//! coordinator barrier in `orion-net` do most of the work (send → wait
//! → compute), kernels a minority; `mf_threads` runs the same kernel
//! with no sockets, so a net-layer change must move this row and leave
//! that one alone.
//!
//! Keep `n_users > n_items`: with the layout flipped (2 000 × 8 000)
//! the node process panics in `split_along` ("ranges must cover the
//! dimension"). That is a bug for a later issue; this workload is sized
//! around it, not patched over it.

use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::Instant;

use orion_apps::distributed::{train_mf_distributed, DistOptions, DistRunResult};
use orion_apps::serve::MfServe;
use orion_apps::sgd_mf::{self, MfConfig, MfModel, MfRunConfig};
use orion_core::{ClusterSpec, DistArray, Driver};
use orion_data::{RatingsConfig, RatingsData};
use orion_dsm::checkpoint;
use orion_net::{recv_msg, send_msg, Msg, NetError};

use crate::harness::{derive_seed, Job, JobSize, Ops, Samples, SessionLatency, Workload, WORKERS};
use crate::mf_threads::{fresh_model, mf_loop, same_bits};
use crate::serving::{self, TrainedServing};
use crate::trace::Tracer;

const RANK: usize = 64;
/// Epochs per timed job: cluster launch and gather cost about a third
/// of a second, so a job has to run for seconds to keep them small.
const EPOCHS: u64 = 500;
const SHORT_EPOCHS: u64 = 60;
/// Only seven jobs fit a run, so each is followed by several sessions.
const SESSIONS_PER_JOB: usize = 30;
const PROBE_REPS: usize = 9;
const LAUNCH_REPS: usize = 5;
/// Round trips timed together for `net.frame_rtt_us`.
const PINGS: u32 = 200;

fn shape(seed: u64) -> RatingsConfig {
    RatingsConfig {
        n_users: 8_000,
        n_items: 4_000,
        nnz: 200_000,
        true_rank: 16,
        skew: 0.7,
        noise: 0.1,
        seed,
    }
}

pub struct MfNet {
    seed: u64,
    gen_s: f64,
    data: RatingsData,
    cfg: MfConfig,
    initial_loss: f64,
    workdir: PathBuf,
    trained: Option<MfModel>,
    /// The first job's model, loaded for serving.
    serving: Option<TrainedServing<MfServe>>,
}

impl MfNet {
    pub fn new(seed: u64) -> Self {
        let t = Instant::now();
        let data = RatingsData::generate(shape(derive_seed(seed, 30)));
        let gen_s = t.elapsed().as_secs_f64();
        let mut cfg = MfConfig::new(RANK);
        cfg.seed = derive_seed(seed, 31);
        let initial_loss = fresh_model(&data, &cfg).loss(&data.items());
        MfNet {
            seed,
            gen_s,
            data,
            cfg,
            initial_loss,
            workdir: crate::out_dir().join(format!("net_{}", std::process::id())),
            trained: None,
            serving: None,
        }
    }

    /// Periodic checkpoints (tmp + fsync + rename) stay off the timed
    /// path; `dsm.ckpt_save_ms` prices them as a layer.
    fn options(&self, epochs: u64) -> DistOptions {
        let mut opts = DistOptions::new(WORKERS, epochs, &self.workdir);
        opts.checkpoint_every = 0;
        opts
    }

    fn train(&self, data: &RatingsData, epochs: u64) -> Result<DistRunResult<MfModel>, NetError> {
        train_mf_distributed(data, self.cfg.clone(), false, &self.options(epochs))
    }
}

impl Drop for MfNet {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.workdir);
    }
}

/// A connected loopback socket pair with Nagle off, as the cluster
/// opens them.
fn loopback_pair() -> std::io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    let client = TcpStream::connect(listener.local_addr()?)?;
    let (server, _) = listener.accept()?;
    client.set_nodelay(true)?;
    server.set_nodelay(true)?;
    Ok((client, server))
}

impl Workload for MfNet {
    fn describe(&self) -> Vec<(&'static str, String)> {
        let c = &self.data.config;
        vec![
            ("users", c.n_users.to_string()),
            ("items", c.n_items.to_string()),
            ("ratings", self.data.nnz().to_string()),
            ("rank", RANK.to_string()),
            ("nodes", WORKERS.to_string()),
            ("checkpoint_every", "0".into()),
            ("P", EPOCHS.to_string()),
            ("data.gen_s", format!("{:.4}", self.gen_s)),
        ]
    }

    fn items_per_job(&self) -> f64 {
        self.data.nnz() as f64 * EPOCHS as f64
    }

    fn epochs_per_job(&self) -> u64 {
        EPOCHS
    }

    fn gate(&mut self, ops: &mut Ops) {
        let run = MfRunConfig {
            cluster: ClusterSpec::new(WORKERS, 1),
            passes: 2,
            ordered: false,
        };
        let (oracle, stats) = sgd_mf::train_orion(&self.data, self.cfg.clone(), &run);
        let same = match self.train(&self.data, 2) {
            Ok(net) => {
                same_bits(&net.model.w, &oracle.w)
                    && same_bits(&net.model.h, &oracle.h)
                    && net.stats.final_metric().map(f64::to_bits)
                        == stats.final_metric().map(f64::to_bits)
            }
            Err(e) => {
                eprintln!("distributed gate job failed: {e}");
                false
            }
        };
        ops.check(
            same,
            "2-epoch train_mf_distributed differs from train_orion",
        );
    }

    fn cold_start(&mut self) -> f64 {
        let t = Instant::now();
        let run = self.train(&self.data, 1);
        let secs = t.elapsed().as_secs_f64();
        run.expect("cluster launches for a cold start");
        secs
    }

    fn job(&mut self, size: JobSize, tr: &mut Tracer) -> Job {
        let epochs = match size {
            JobSize::Full => EPOCHS,
            JobSize::Short => SHORT_EPOCHS,
        };
        let open = tr.begin("job.train_mf_distributed");
        let run = self.train(&self.data, epochs);
        let wall_s = tr.end(open);
        match run {
            Ok(run) => {
                let job = Job::trained(wall_s, run.stats.final_metric(), self.initial_loss);
                self.trained = Some(run.model);
                Job {
                    // A job that lost a node and recovered is not the
                    // job being timed.
                    ok: job.ok && run.recoveries == 0,
                    ..job
                }
            }
            Err(e) => {
                eprintln!("distributed job failed: {e}");
                Job {
                    wall_s,
                    fingerprint: 0,
                    ok: false,
                }
            }
        }
    }

    fn after_job(&mut self, ops: &mut Ops) {
        let model = self.trained.as_ref().expect("a timed job has run");
        self.serving
            .get_or_insert_with(|| serving::serve_trained_mf(model, self.seed, ops))
            .serve(SESSIONS_PER_JOB, ops);
    }

    fn query_latencies(&mut self) -> Vec<SessionLatency> {
        self.serving
            .as_mut()
            .map_or_else(Vec::new, TrainedServing::take_sessions)
    }

    fn probe_layers(&mut self, tr: &mut Tracer, layers: &mut Samples) {
        let group = tr.begin("layers.mf_net");
        std::fs::create_dir_all(&self.workdir).expect("benchmark out dir is creatable");

        // One rotated partition of H: what a node encodes, frames and
        // sends after each block, and decodes on receipt.
        let model = fresh_model(&self.data, &self.cfg);
        let mut driver = Driver::new(ClusterSpec::new(WORKERS, 1));
        let compiled = mf_loop(&mut driver, &self.data, &model, &self.data.items());
        let cuts = compiled.schedule.time_partition.expect("grid schedule");
        let part: DistArray<f32> = model.h.split_along(0, &cuts.ranges).swap_remove(0);
        let mb = checkpoint::to_bytes(&part).len() as f64 / 1e6;
        let ckpt_path = self.workdir.join("probe.ckpt");
        for _ in 0..PROBE_REPS {
            let (wire, s) = tr.span("dsm.ckpt_encode", || checkpoint::to_bytes(&part));
            layers.higher("dsm.ckpt_encode_mb_s", "MB/s", mb / s);
            let (back, s) = tr.span("dsm.ckpt_decode", || checkpoint::from_bytes::<f32>(wire));
            layers.higher("dsm.ckpt_decode_mb_s", "MB/s", mb / s);
            assert!(same_bits(&back.expect("own image decodes"), &part));
            let (saved, s) = tr.span("dsm.ckpt_save", || checkpoint::save(&part, &ckpt_path));
            saved.expect("probe checkpoint saves");
            layers.lower("dsm.ckpt_save_ms", "ms", s * 1e3);

            let msg = Msg::Partition {
                epoch: 0,
                tp: 0,
                payload: checkpoint::to_bytes(&part),
            };
            let (round, s) = tr.span("net.msg_codec", || {
                let (kind, wire) = msg.encode();
                Msg::decode(kind, wire)
            });
            assert!(round.is_ok(), "own message decodes");
            layers.higher("net.msg_codec_mb_s", "MB/s", mb / s);
        }

        // Framed messages over a loopback socket pair: one partition
        // out and a barrier-sized reply back, then bare ping-pongs.
        let (mut near, mut far) = loopback_pair().expect("loopback sockets");
        let ping = Msg::EpochStart { epoch: 7 };
        std::thread::scope(|s| {
            let echo = s.spawn(move || {
                while let Ok(msg) = recv_msg(&mut far) {
                    if msg == Msg::Shutdown || send_msg(&mut far, &ping).is_err() {
                        break;
                    }
                }
            });
            let ping = Msg::EpochStart { epoch: 7 };
            let partition = Msg::Partition {
                epoch: 0,
                tp: 0,
                payload: checkpoint::to_bytes(&part),
            };
            for _ in 0..PROBE_REPS {
                let (_, s) = tr.span("net.frame", || {
                    send_msg(&mut near, &partition).expect("send partition");
                    recv_msg(&mut near).expect("partition acknowledged")
                });
                layers.higher("net.frame_mb_s", "MB/s", mb / s);
                let (_, s) = tr.span("net.frame_rtt", || {
                    for _ in 0..PINGS {
                        send_msg(&mut near, &ping).expect("send ping");
                        recv_msg(&mut near).expect("ping answered");
                    }
                });
                layers.lower("net.frame_rtt_us", "us", s * 1e6 / f64::from(PINGS));
            }
            send_msg(&mut near, &Msg::Shutdown).expect("stop the echo thread");
            echo.join().expect("echo thread panicked");
        });

        // A short cluster job: exact wire counts per epoch, and the
        // nodes' own account of how much of an epoch is compute.
        let (run, _) = {
            let open = tr.begin("net.short_job");
            let run = self.train(&self.data, SHORT_EPOCHS);
            (run, tr.end(open))
        };
        let run = run.expect("short cluster job runs");
        let epochs = run.epochs.len() as f64;
        let links = || run.epochs.iter().flat_map(|e| &e.links);
        layers.lower(
            "net.bytes_per_epoch",
            "B",
            links().map(|l| l.bytes).sum::<u64>() as f64 / epochs,
        );
        layers.lower(
            "net.msgs_per_epoch",
            "count",
            links().map(|l| l.messages).sum::<u64>() as f64 / epochs,
        );
        let compute: u64 = run.epochs.iter().flat_map(|e| &e.compute_ns).sum();
        let wall: u64 = run.epochs.iter().map(|e| e.wall_ns).sum();
        layers.higher(
            "net.epoch_compute_share",
            "ratio",
            compute as f64 / (WORKERS as u64 * wall) as f64,
        );

        // Launch alone: one epoch on a toy problem.
        let tiny = RatingsData::generate(RatingsConfig::tiny());
        for _ in 0..LAUNCH_REPS {
            let (run, s) = {
                let open = tr.begin("net.launch");
                let run = self.train(&tiny, 1);
                (run, tr.end(open))
            };
            run.expect("toy cluster job runs");
            layers.lower("net.launch_s", "s", s);
        }
        tr.end(group);
    }
}
