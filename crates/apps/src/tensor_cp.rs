//! CP (CANDECOMP/PARAFAC) tensor decomposition by SGD — a 3-dimensional
//! iteration space, beyond the paper's 2-D applications.
//!
//! Each observed entry `X[i,j,k]` reads and writes one row of each of
//! the three factor matrices `U`, `V`, `S`. Three all-pairs-conflicting
//! dependence families mean **no pair of dimensions annihilates every
//! dependence vector**: the analyzer correctly refuses both 1-D and 2-D
//! parallelization (and the `∞` components rule out unimodular
//! transformation), so the loop as written is serial.
//!
//! The programming model's escape hatch applies exactly as the paper
//! prescribes for such cases (§3.3): buffer the *smallest* factor's
//! writes (the context factor `S`, updated through a DistArray Buffer at
//! pass boundaries). That removes its dependence family, and the
//! analyzer now derives unordered 2-D parallelization over (users,
//! items) — dependence-preserving for `U` and `V`, relaxed for `S`.
//! The relaxation is visible: per-pass convergence lags serial by the
//! staleness of `S` (hot rows pay most), the same trade data parallelism
//! makes globally in Fig. 9b — here confined to one small factor.

use std::sync::Arc;

use orion_core::{
    kernels, ClusterSpec, CompiledLoop, DistArray, DistArrayBuffer, Driver, FaultEvent, Indexed,
    LoopSpec, MathMode, RunStats, Strategy, Subscript,
};
use orion_data::TensorData;

use crate::common::{
    by_role, cost, flat_table, flush_buffers, raw_row, row_u32, space_is_dim0, split_by_role,
    write_buffers,
};
use crate::run::{train, unsupported, App, Engine, Pool, RunError};

/// CP hyperparameters.
#[derive(Debug, Clone)]
pub struct CpConfig {
    /// Decomposition rank.
    pub rank: usize,
    /// SGD step size.
    pub step_size: f32,
    /// Initialization seed.
    pub seed: u64,
}

impl CpConfig {
    /// Defaults used by tests and the example.
    pub fn new(rank: usize) -> Self {
        CpConfig {
            rank,
            step_size: 0.05,
            seed: 13,
        }
    }
}

/// The three factor matrices.
#[derive(Debug, Clone)]
pub struct CpModel {
    /// Mode-0 factors (users × rank).
    pub u: DistArray<f32>,
    /// Mode-1 factors (items × rank).
    pub v: DistArray<f32>,
    /// Mode-2 factors (contexts × rank).
    pub s: DistArray<f32>,
    /// Hyperparameters.
    pub cfg: CpConfig,
}

impl CpModel {
    /// Deterministic symmetric initialization.
    pub fn new(dims: &[u64], cfg: CpConfig) -> Self {
        let r = cfg.rank as u64;
        let init = |name: &str, n: u64, salt: i64| {
            DistArray::dense_from_fn(name, vec![n, r], move |i| {
                (((i[0] * 37 + i[1] * 11 + salt) % 23) as f32 / 23.0 - 0.5) * 0.6
            })
        };
        CpModel {
            u: init("U", dims[0], 1),
            v: init("V", dims[1], 5),
            s: init("S", dims[2], 9),
            cfg,
        }
    }

    /// Model prediction for one index.
    pub fn predict(&self, i: i64, j: i64, k: i64) -> f32 {
        kernels::cp_predict(
            self.u.row_slice(i),
            self.v.row_slice(j),
            self.s.row_slice(k),
            MathMode::Exact,
        )
    }

    /// Squared loss over the observed entries, as flat `(i, j, k, x)`.
    fn loss(&self, entries: &[Entry]) -> f64 {
        let sq_err = |&Entry(i, j, k, x): &Entry| {
            ((x - self.predict(i.into(), j.into(), k.into())) as f64).powi(2)
        };
        entries.iter().map(sq_err).sum()
    }
}

/// Squared prediction error of one entry on raw factor rows — the term
/// the pooled readout sums, as [`CpModel::loss`] does through `predict`.
fn sq_err_rows(u: &[f32], v: &[f32], s: &[f32], x: f32) -> f64 {
    ((x - kernels::cp_predict(u, v, s, MathMode::Exact)) as f64).powi(2)
}

/// One SGD step for one entry; `S`'s gradient goes through `s_sink`
/// instead of the array when buffering is active.
fn cp_update(
    model: &mut CpModel,
    &Entry(i, j, k, x): &Entry,
    s_sink: Option<&mut DistArrayBuffer<f32>>,
) {
    let (i, j, k) = (i64::from(i), i64::from(j), i64::from(k));
    let step = model.cfg.step_size;
    let r = model.cfg.rank;
    match s_sink {
        Some(buf) => {
            cp_update_rows(
                model.u.row_slice_mut(i),
                model.v.row_slice_mut(j),
                model.s.row_slice(k),
                k,
                x,
                step,
                buf,
            );
        }
        None => {
            let pred = model.predict(i, j, k);
            let g = step * 2.0 * (x - pred);
            // Each rank component only reads the pre-update values of
            // its own component, so capturing them per-`c` keeps the
            // three gradients a simultaneous update without
            // snapshotting whole rows.
            let u = model.u.row_slice_mut(i);
            let v = model.v.row_slice_mut(j);
            let s = model.s.row_slice_mut(k);
            for c in 0..r {
                let (u0, v0, s0) = (u[c], v[c], s[c]);
                u[c] = u0 + g * v0 * s0;
                v[c] = v0 + g * u0 * s0;
                s[c] = s0 + g * u0 * v0;
            }
        }
    }
}

/// The buffered SGD step on raw factor rows — shared by the simulated
/// and threaded execution paths so both run the *same float operations
/// in the same order* (the bit-identity contract of the threaded
/// engine).
fn cp_update_rows(
    u: &mut [f32],
    v: &mut [f32],
    s: &[f32],
    k: i64,
    x: f32,
    step: f32,
    buf: &mut DistArrayBuffer<f32>,
) {
    let pred = kernels::cp_predict(u, v, s, MathMode::Exact);
    let g = step * 2.0 * (x - pred);
    // `S` is `n_contexts × rank`, row-major: `(k, c)` sits at `k * rank + c`.
    let row = k as u64 * s.len() as u64;
    kernels::cp_update_rows(u, v, s, g, |c, delta| buf.write_flat(row + c as u64, delta));
}

/// CP as an [`App`]. Without `buffer_s` the analyzer schedules the loop
/// serially; with it, unordered 2-D over (users, items) with the small
/// factor applied through buffers at pass boundaries.
#[derive(Debug, Clone)]
pub struct CpApp {
    /// Hyperparameters.
    pub cfg: CpConfig,
    /// Buffer the context factor's writes (enables 2-D parallelism; the
    /// threaded engine runs only this form).
    pub buffer_s: bool,
}

/// One observed entry as the flat table stores it: `(i, j, k, x)`. The
/// planner reads the loop index `(i, j, k)` straight from it.
#[derive(Debug, Clone, Copy)]
struct Entry(u32, u32, u32, f32);

impl Indexed for Entry {
    fn coord(&self, _: usize, dim: usize) -> i64 {
        [self.0, self.1, self.2][dim].into()
    }
}

/// What [`CpApp`]'s setup builds: the factors and the observed entries.
#[derive(Debug)]
pub struct CpJob {
    model: CpModel,
    /// Flat `(i, j, k, value)` records in tensor order — the job's only
    /// copy of the iteration space, shared with every pool worker.
    entries: Arc<Vec<Entry>>,
    iter_ns: f64,
    /// One `S` write buffer per worker (`buffer_s` only; unwritten
    /// buffers hold no table), empty between passes.
    buffers: Vec<DistArrayBuffer<f32>>,
}

/// The `S` buffer's apply UDF: plain addition.
fn add(elem: &mut f32, delta: f32) {
    *elem += delta;
}

impl App for CpApp {
    type Data = TensorData;
    type Model = CpModel;
    type Job = CpJob;

    const NAME: &'static str = "tensor_cp";

    fn setup(&self, data: &TensorData, driver: &mut Driver) -> (CompiledLoop, CpJob) {
        let entries = flat_table(&data.entries, |_, [i, j, k], &x| {
            Entry(row_u32(i), row_u32(j), row_u32(k), x)
        });
        let dims = data.entries.shape().dims().to_vec();
        let model = CpModel::new(&dims, self.cfg.clone());
        let t = driver.register(&data.entries);
        let u = driver.register(&model.u);
        let v = driver.register(&model.v);
        let s = driver.register(&model.s);
        driver.set_served_reads_per_iter(model.cfg.rank as f64);
        let name = if self.buffer_s {
            "cp_sgd_buffered"
        } else {
            "cp_sgd"
        };
        let b = LoopSpec::builder(name, t, dims)
            .read_write(u, vec![Subscript::loop_index(0), Subscript::Full])
            .read_write(v, vec![Subscript::loop_index(1), Subscript::Full])
            .read_write(s, vec![Subscript::loop_index(2), Subscript::Full]);
        let b = if self.buffer_s { b.buffer_writes(s) } else { b };
        let spec = b.build().expect("static CP spec is valid");
        let compiled = driver.parallel_for(spec, &entries).expect("compiles");
        if self.buffer_s {
            debug_assert!(matches!(compiled.strategy(), Strategy::TwoD { .. }));
        } else {
            debug_assert!(matches!(compiled.strategy(), Strategy::Serial));
        }
        let job = CpJob {
            iter_ns: cost::mf_iter_ns(model.cfg.rank) * 1.5 * cost::ORION_OVERHEAD,
            buffers: write_buffers(&model.s, compiled.schedule.n_workers),
            model,
            entries: Arc::new(entries),
        };
        (compiled, job)
    }

    fn sim_pass(
        &self,
        _data: &TensorData,
        job: &mut CpJob,
        driver: &mut Driver,
        compiled: &CompiledLoop,
        _pass: u64,
    ) -> Option<FaultEvent> {
        let CpJob {
            model,
            entries,
            iter_ns,
            buffers,
        } = job;
        let buffered = self.buffer_s;
        let (_, fault) = driver.run_pass(compiled, &mut |_| *iter_ns, &mut |w, pos| {
            cp_update(model, &entries[pos], buffered.then_some(&mut buffers[w]));
        });
        if buffered {
            flush_buffers(driver, buffers, |buf| buf.apply_to(&mut model.s, add));
        }
        fault
    }

    fn metric(&self, _data: &TensorData, job: &CpJob) -> f64 {
        job.model.loss(&job.entries)
    }

    fn into_model(job: CpJob) -> CpModel {
        job.model
    }

    /// The unordered 2-D (users, items) schedule with pipelined rotation;
    /// the context factor is a shared pass-start snapshot whose gradients
    /// collect in per-worker buffers applied at pass boundaries.
    fn pooled(
        &self,
        _data: &TensorData,
        job: CpJob,
        pool: &mut Pool<'_>,
        passes: u64,
    ) -> Result<CpModel, RunError> {
        if !self.buffer_s {
            return Err(unsupported::<Self>("threads", "buffer_s: false"));
        }
        let CpJob {
            mut model,
            entries,
            mut buffers,
            ..
        } = job;
        let (compiled, plan) = (pool.compiled, Arc::clone(&pool.plan));
        // The analyzer parallelizes over loop dims {0, 1} (the buffered
        // context dim carries no dependence); either may be space.
        let space_is_users = space_is_dim0(compiled);
        let (mut space_parts, mut time_parts) = split_by_role(compiled, model.u, model.v);
        let step = model.cfg.step_size;
        // The loss term on raw rows of the merged model.
        let sq_err = Arc::new(|&Entry(i, j, k, x): &Entry, m: &CpModel| {
            let r = m.cfg.rank;
            let row = |a, c: u32| raw_row(a, c as usize, r);
            sq_err_rows(row(&m.u, i), row(&m.v, j), row(&m.s, k), x)
        });

        for pass in 0..passes {
            let s_pass = Arc::new(model.s.clone());
            let body = Arc::new(
                move |&Entry(i, j, k, x): &Entry,
                      ap: &mut DistArray<f32>,
                      bp: &mut DistArray<f32>,
                      buf: &mut DistArrayBuffer<f32>| {
                    let (up, vp) = by_role(space_is_users, ap, bp);
                    let (i, j, k) = (i64::from(i), i64::from(j), i64::from(k));
                    cp_update_rows(
                        up.row_slice_mut(i),
                        vp.row_slice_mut(j),
                        s_pass.row_slice(k),
                        k,
                        x,
                        step,
                        buf,
                    );
                },
            );
            let out = pool.driver.run_pass_threaded(
                &compiled.spec.name,
                &plan,
                &entries,
                space_parts,
                time_parts,
                buffers,
                &body,
            );
            (space_parts, time_parts, buffers) = (out.space, out.time, out.scratch);
            flush_buffers(pool.driver, &mut buffers, |buf| {
                buf.apply_to(&mut model.s, add)
            });
            // The loss is read on the pool against the model merged once
            // from the partitions; validation re-reads it serially. The
            // fold starts where `Iterator::sum` does.
            let (u_parts, v_parts) = by_role(space_is_users, &space_parts, &time_parts);
            let snap = Arc::new(CpModel {
                u: DistArray::merge_along_ref(0, u_parts),
                v: DistArray::merge_along_ref(0, v_parts),
                s: model.s.clone(),
                cfg: model.cfg.clone(),
            });
            let loss = pool
                .driver
                .eval_pass(&plan, &entries, &snap, &sq_err, -0.0, || {
                    snap.loss(&entries)
                });
            pool.record(pass, loss);
        }
        let (u_parts, v_parts) = by_role(space_is_users, space_parts, time_parts);
        model.u = DistArray::merge_along(0, u_parts);
        model.v = DistArray::merge_along(0, v_parts);
        Ok(model)
    }
}

/// Analyzes the CP loop without buffering: the correct verdict is
/// `Serial` (every 2-D pair is defeated by the third mode's dependence
/// family). Exposed for tests and the example.
pub fn analyze_unbuffered(data: &TensorData, cfg: &CpConfig) -> Strategy {
    let app = CpApp {
        cfg: cfg.clone(),
        buffer_s: false,
    };
    let (compiled, _) = app.setup(data, &mut Driver::new(ClusterSpec::serial()));
    compiled.strategy().clone()
}

/// Run configuration.
#[derive(Debug, Clone)]
pub struct CpRunConfig {
    /// Simulated cluster.
    pub cluster: ClusterSpec,
    /// Data passes.
    pub passes: u64,
    /// Buffer the context factor's writes (enables 2-D parallelism).
    pub buffer_s: bool,
}

/// Trains CP under Orion on the simulated cluster.
pub fn train_orion(data: &TensorData, cfg: CpConfig, run: &CpRunConfig) -> (CpModel, RunStats) {
    let app = CpApp {
        cfg,
        buffer_s: run.buffer_s,
    };
    train(&app, data, Engine::Sim(run.cluster.clone()), run.passes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use orion_data::TensorConfig;

    fn data() -> TensorData {
        TensorData::generate(TensorConfig::tiny())
    }

    #[test]
    fn unbuffered_cp_is_correctly_serial() {
        let d = data();
        let strategy = analyze_unbuffered(&d, &CpConfig::new(4));
        assert_eq!(strategy, Strategy::Serial);
    }

    #[test]
    fn buffered_cp_parallelizes_2d() {
        let d = data();
        let run = CpRunConfig {
            cluster: ClusterSpec::new(4, 2),
            passes: 1,
            buffer_s: true,
        };
        let (_, stats) = train_orion(&d, CpConfig::new(4), &run);
        assert_eq!(stats.progress.len(), 1);
        assert!(stats.total_bytes > 0, "rotation + buffer flush communicate");
    }

    #[test]
    fn serial_cp_converges() {
        let d = data();
        let run = CpRunConfig {
            cluster: ClusterSpec::serial(),
            passes: 12,
            buffer_s: false,
        };
        let (_, stats) = train_orion(&d, CpConfig::new(4), &run);
        let l0 = stats.progress[0].metric;
        let lf = stats.final_metric().unwrap();
        assert!(lf < l0 * 0.7, "loss {l0} -> {lf}");
    }

    #[test]
    fn buffered_parallel_tracks_serial_convergence() {
        let d = data();
        let passes = 30;
        let serial = train_orion(
            &d,
            CpConfig::new(4),
            &CpRunConfig {
                cluster: ClusterSpec::serial(),
                passes,
                buffer_s: false,
            },
        )
        .1;
        // The buffered variant gets a gentler tuned step: its S updates
        // apply as pass-level lumps (like every data-parallel baseline,
        // step sizes are tuned per execution model).
        let mut buffered_cfg = CpConfig::new(4);
        buffered_cfg.step_size = 0.02;
        let parallel = train_orion(
            &d,
            buffered_cfg,
            &CpRunConfig {
                cluster: ClusterSpec::new(8, 4),
                passes,
                buffer_s: true,
            },
        )
        .1;
        let ls = serial.final_metric().unwrap();
        let lp = parallel.final_metric().unwrap();
        let l0 = parallel.progress[0].metric;
        // The relaxation has a visible convergence cost: the buffered
        // context factor is hot at this scale, so pass-boundary
        // application lags serial — but training still converges, and
        // never *beats* the dependence-preserving order.
        assert!(
            lp < l0 * 0.5,
            "buffered-parallel must converge: {l0} -> {lp}"
        );
        assert!(
            ls <= lp,
            "serial {ls} must converge at least as fast per pass as relaxed {lp}"
        );
    }

    #[test]
    fn buffered_parallel_is_faster_at_scale() {
        // Timing needs a compute-dominated workload; the tiny config is
        // honestly latency-bound on 32 workers.
        let d = TensorData::generate(TensorConfig::bench());
        let passes = 2;
        let serial = train_orion(
            &d,
            CpConfig::new(8),
            &CpRunConfig {
                cluster: ClusterSpec::serial(),
                passes,
                buffer_s: false,
            },
        )
        .1;
        // 4 workers: enough per-block compute to dominate the served
        // round trips for the buffered factor.
        let parallel = train_orion(
            &d,
            CpConfig::new(8),
            &CpRunConfig {
                cluster: ClusterSpec::new(2, 2),
                passes,
                buffer_s: true,
            },
        )
        .1;
        let ts = serial.progress.last().unwrap().time;
        let tp = parallel.progress.last().unwrap().time;
        assert!(
            tp.as_secs_f64() < ts.as_secs_f64() * 0.6,
            "parallel {tp} should clearly beat serial {ts} at scale"
        );
    }

    #[test]
    fn prediction_uses_all_three_factors() {
        let d = data();
        let model = CpModel::new(d.entries.shape().dims(), CpConfig::new(4));
        let a = model.predict(0, 0, 0);
        let b = model.predict(0, 0, 1);
        assert_ne!(a, b, "changing the context index must change predictions");
    }
}
