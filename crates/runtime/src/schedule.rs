//! Computation schedules: mapping iteration-space blocks to (worker,
//! time-step) slots (paper §4.3, Fig. 7).
//!
//! A [`Schedule`] is built once per loop ("macro expansion happens once")
//! from the chosen [`Strategy`] and the materialized iteration space, and
//! is reused across loop executions. It captures:
//!
//! - the partitioning of iterations into **blocks** (load-balanced with
//!   per-coordinate histograms, §4.3);
//! - the **step plan**: which worker executes which block at which global
//!   time step;
//! - for 2-D schedules, the **rotation**: which time partition a worker
//!   must receive (and from whom) before each step — the information the
//!   simulator uses to time communication, including the pipelined
//!   rotation of Fig. 8.

use orion_analysis::{Strategy, UniMat};
use orion_dsm::RangePartition;

/// A transfer the executing worker must wait for before a step: the named
/// time partition, sent by `from_worker` after it finished `sent_after_step`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AwaitedTransfer {
    /// The sending worker.
    pub from_worker: usize,
    /// The global step after which the sender released the partition.
    pub sent_after_step: u64,
    /// Which time partition travels.
    pub time_partition: usize,
}

/// One block execution: `worker` runs `block` at global `step`, possibly
/// after receiving a rotated partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Exec {
    /// Global time step.
    pub step: u64,
    /// Executing worker.
    pub worker: usize,
    /// Index into [`Schedule::blocks`].
    pub block: usize,
    /// Rotated-partition transfer this execution waits on, if any.
    pub awaited: Option<AwaitedTransfer>,
}

/// How workers synchronize between steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncMode {
    /// One global barrier at the end of the pass (1D schedules, Fig. 7d).
    PassBarrier,
    /// A global barrier after every step (wavefront over a transformed
    /// space, where successors are not single workers).
    StepBarrier,
    /// Point-to-point: each worker waits only for its predecessor's
    /// rotated partition (2D schedules; §4.3 "a worker waits for a signal
    /// from a single predecessor worker ... instead of a global
    /// synchronization barrier").
    PointToPoint,
}

/// Iteration blocks baked into contiguous flat arrays at schedule-build
/// time (CSR layout): block `b`'s item positions are the slice
/// `positions[offsets[b]..offsets[b + 1]]`.
///
/// Executors dispatch a block by borrowing its slice — no per-item or
/// per-block allocation on the hot path, and positions of one block are
/// adjacent in memory.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CompiledBlocks {
    /// All item positions, grouped by block.
    positions: Vec<u32>,
    /// Per-block extents into `positions`; `offsets.len() == n_blocks + 1`.
    offsets: Vec<u32>,
}

impl CompiledBlocks {
    /// Compiles nested per-block position lists into the flat layout.
    ///
    /// # Panics
    ///
    /// Panics if the total item count exceeds `u32::MAX`.
    fn from_nested(nested: Vec<Vec<usize>>) -> Self {
        let total: usize = nested.iter().map(Vec::len).sum();
        assert!(total <= u32::MAX as usize, "schedule exceeds u32 positions");
        let mut positions = Vec::with_capacity(total);
        let mut offsets = Vec::with_capacity(nested.len() + 1);
        offsets.push(0u32);
        for block in nested {
            positions.extend(block.into_iter().map(|p| p as u32));
            offsets.push(positions.len() as u32);
        }
        CompiledBlocks { positions, offsets }
    }

    /// Number of blocks.
    pub(crate) fn n_blocks(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The item positions of one block, as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range.
    #[inline]
    pub fn items(&self, block: usize) -> &[u32] {
        &self.positions[self.offsets[block] as usize..self.offsets[block + 1] as usize]
    }

    /// Item count of one block.
    ///
    /// # Panics
    ///
    /// Panics if `block` is out of range.
    pub(crate) fn len_of(&self, block: usize) -> usize {
        (self.offsets[block + 1] - self.offsets[block]) as usize
    }

    /// Total item count across all blocks.
    pub fn total_items(&self) -> usize {
        self.positions.len()
    }

    /// Iterates the blocks as position slices, in block order.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> + '_ {
        (0..self.n_blocks()).map(|b| self.items(b))
    }
}

impl std::ops::Index<usize> for CompiledBlocks {
    type Output = [u32];

    fn index(&self, block: usize) -> &[u32] {
        self.items(block)
    }
}

/// A compiled computation schedule for one loop.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Number of workers the schedule was built for.
    pub n_workers: usize,
    /// Iteration blocks, compiled to contiguous position arrays; each
    /// position indexes the iteration-item slice the schedule was built
    /// from.
    pub blocks: CompiledBlocks,
    /// Block executions grouped by global step, workers in id order.
    pub steps: Vec<Vec<Exec>>,
    /// Number of time partitions (1 for 1D schedules).
    pub n_time_partitions: usize,
    /// Synchronization mode between steps.
    pub sync: SyncMode,
    /// Human-readable label of the strategy that produced this schedule.
    pub strategy_label: String,
    /// Range partitioning of the space dimension (grid and 1D schedules).
    pub space_partition: Option<RangePartition>,
    /// Range partitioning of the time dimension (grid schedules only).
    pub time_partition: Option<RangePartition>,
}

impl Schedule {
    /// Number of global steps in one pass.
    pub fn n_steps(&self) -> usize {
        self.steps.len()
    }

    /// Items assigned to each worker over one pass — the scheduler's
    /// load-balance outcome (§4.3). Feeds `orion_trace::LoadStats` for
    /// skew reporting.
    pub fn worker_loads(&self) -> Vec<u64> {
        let mut loads = vec![0u64; self.n_workers];
        for st in &self.steps {
            for e in st {
                loads[e.worker] += self.blocks.len_of(e.block) as u64;
            }
        }
        loads
    }
}

/// Pipeline depth of unordered 2-D schedules: time partitions per worker.
/// Two, as in Fig. 8 — one executing, one in flight.
pub(crate) const PIPELINE_DEPTH: usize = 2;

/// Tunables of schedule construction, defaulting to the paper's design
/// choices. Exposed so the ablation benchmarks can switch each off.
#[derive(Debug, Clone, Copy)]
pub struct ScheduleOptions {
    /// Time partitions per worker in unordered 2-D schedules (Fig. 8).
    /// 1 disables pipelining: a worker must wait for its predecessor's
    /// partition before every step.
    pub pipeline_depth: usize,
    /// Balance blocks by per-coordinate histograms (§4.3); false uses
    /// uniform coordinate ranges regardless of skew.
    pub balance_partitions: bool,
}

impl Default for ScheduleOptions {
    fn default() -> Self {
        ScheduleOptions {
            pipeline_depth: PIPELINE_DEPTH,
            balance_partitions: true,
        }
    }
}

/// Builds the schedule for `strategy` over the given iteration indices.
///
/// `indices` are the materialized iteration-space element indices (one
/// per loop iteration) — anything slice-like works (`&[Vec<i64>]`,
/// `&[&[i64]]`), so callers holding `(index, value)` items can pass
/// borrowed index slices instead of cloning every index. `extents` are
/// the iteration-space dimensions; `n_workers` the executing workers.
/// Blocks are balanced using per-coordinate histograms of the (typically
/// skewed) index distribution.
///
/// # Panics
///
/// Panics if `indices` is empty, `n_workers == 0`, or the strategy names
/// out-of-range dimensions.
pub fn build_schedule<I: AsRef<[i64]>>(
    strategy: &Strategy,
    indices: &[I],
    extents: &[u64],
    n_workers: usize,
) -> Schedule {
    build_schedule_with(
        strategy,
        indices,
        extents,
        n_workers,
        ScheduleOptions::default(),
    )
}

/// [`build_schedule`] with explicit [`ScheduleOptions`].
///
/// # Panics
///
/// As [`build_schedule`]; additionally if `opts.pipeline_depth == 0`.
pub fn build_schedule_with<I: AsRef<[i64]>>(
    strategy: &Strategy,
    indices: &[I],
    extents: &[u64],
    n_workers: usize,
    opts: ScheduleOptions,
) -> Schedule {
    assert!(!indices.is_empty(), "cannot schedule an empty loop");
    assert!(n_workers > 0, "need at least one worker");
    assert!(opts.pipeline_depth > 0, "pipeline depth must be positive");
    match strategy {
        Strategy::FullyParallel { dim } | Strategy::OneD { dim } => {
            build_one_d(indices, extents, *dim, n_workers, strategy.label(), opts)
        }
        Strategy::TwoD {
            space,
            time,
            ordered: false,
        } => build_two_d_unordered(
            indices,
            extents,
            *space,
            *time,
            n_workers,
            strategy.label(),
            opts,
        ),
        Strategy::TwoD {
            space,
            time,
            ordered: true,
        } => build_two_d_ordered(
            indices,
            extents,
            *space,
            *time,
            n_workers,
            strategy.label(),
            opts,
        ),
        Strategy::TwoDUnimodular {
            transform, space, ..
        } => build_unimodular(indices, transform, *space, n_workers, strategy.label()),
        Strategy::Serial => build_serial(indices, strategy.label()),
    }
}

/// Histogram of iteration counts per coordinate along `dim`.
fn histogram<I: AsRef<[i64]>>(indices: &[I], extent: u64, dim: usize) -> Vec<u64> {
    let mut h = vec![0u64; extent as usize];
    for idx in indices {
        h[idx.as_ref()[dim] as usize] += 1;
    }
    h
}

fn build_serial<I>(indices: &[I], label: String) -> Schedule {
    let block: Vec<usize> = (0..indices.len()).collect();
    Schedule {
        n_workers: 1,
        blocks: CompiledBlocks::from_nested(vec![block]),
        steps: vec![vec![Exec {
            step: 0,
            worker: 0,
            block: 0,
            awaited: None,
        }]],
        n_time_partitions: 1,
        sync: SyncMode::PassBarrier,
        strategy_label: label,
        space_partition: None,
        time_partition: None,
    }
}

fn build_one_d<I: AsRef<[i64]>>(
    indices: &[I],
    extents: &[u64],
    dim: usize,
    n_workers: usize,
    label: String,
    opts: ScheduleOptions,
) -> Schedule {
    assert!(dim < extents.len(), "partition dim {dim} out of range");
    // When the extent cannot feed every worker, shrink the worker set.
    let n = n_workers.min(extents[dim] as usize);
    let part = if opts.balance_partitions {
        let weights = histogram(indices, extents[dim], dim);
        RangePartition::balanced(dim, &weights, n)
    } else {
        RangePartition::uniform(dim, extents[dim], n)
    };
    let mut blocks = vec![Vec::new(); n];
    for (pos, idx) in indices.iter().enumerate() {
        blocks[part.part_of(idx.as_ref()[dim] as u64)].push(pos);
    }
    let step: Vec<Exec> = (0..n)
        .map(|w| Exec {
            step: 0,
            worker: w,
            block: w,
            awaited: None,
        })
        .collect();
    Schedule {
        n_workers: n,
        blocks: CompiledBlocks::from_nested(blocks),
        steps: vec![step],
        n_time_partitions: 1,
        sync: SyncMode::PassBarrier,
        strategy_label: label,
        space_partition: Some(part),
        time_partition: None,
    }
}

/// Block id in the space × time grid.
fn grid_block(s: usize, t: usize, n_time: usize) -> usize {
    s * n_time + t
}

fn grid_blocks<I: AsRef<[i64]>>(
    indices: &[I],
    extents: &[u64],
    space: usize,
    time: usize,
    n_space: usize,
    n_time: usize,
    balance: bool,
) -> (Vec<Vec<usize>>, RangePartition, RangePartition) {
    let (sp, tp) = if balance {
        let sw = histogram(indices, extents[space], space);
        let tw = histogram(indices, extents[time], time);
        (
            RangePartition::balanced(space, &sw, n_space),
            RangePartition::balanced(time, &tw, n_time),
        )
    } else {
        (
            RangePartition::uniform(space, extents[space], n_space),
            RangePartition::uniform(time, extents[time], n_time),
        )
    };
    let mut blocks = vec![Vec::new(); n_space * n_time];
    for (pos, idx) in indices.iter().enumerate() {
        let idx = idx.as_ref();
        let s = sp.part_of(idx[space] as u64);
        let t = tp.part_of(idx[time] as u64);
        blocks[grid_block(s, t, n_time)].push(pos);
    }
    (blocks, sp, tp)
}

fn build_two_d_unordered<I: AsRef<[i64]>>(
    indices: &[I],
    extents: &[u64],
    space: usize,
    time: usize,
    n_workers: usize,
    label: String,
    opts: ScheduleOptions,
) -> Schedule {
    assert!(
        space < extents.len() && time < extents.len(),
        "dims out of range"
    );
    let n_space = n_workers.min(extents[space] as usize).max(1);
    // `pipeline_depth` time partitions per worker (Fig. 8), bounded by
    // the time extent.
    let n_time = (n_space * opts.pipeline_depth)
        .min(extents[time] as usize)
        .max(1);
    let (blocks, sp, tp) = grid_blocks(
        indices,
        extents,
        space,
        time,
        n_space,
        n_time,
        opts.balance_partitions,
    );

    // Rotation by per-worker queues: worker j starts holding time
    // partitions [j*depth, (j+1)*depth); each step it executes the front
    // and forwards it to worker (j + 1) % n_space, which enqueues it.
    let depth = n_time.div_ceil(n_space);
    let mut queues: Vec<std::collections::VecDeque<(usize, Option<AwaitedTransfer>)>> = (0
        ..n_space)
        .map(|j| {
            (0..n_time)
                .filter(|t| t / depth == j)
                .map(|t| (t, None))
                .collect()
        })
        .collect();
    let mut steps: Vec<Vec<Exec>> = Vec::with_capacity(n_time);
    for step in 0..n_time as u64 {
        let mut execs = Vec::with_capacity(n_space);
        let mut forwards: Vec<(usize, (usize, Option<AwaitedTransfer>))> = Vec::new();
        for (j, queue) in queues.iter_mut().enumerate() {
            let Some((t, awaited)) = queue.pop_front() else {
                continue;
            };
            execs.push(Exec {
                step,
                worker: j,
                block: grid_block(j, t, n_time),
                awaited,
            });
            let next = (j + 1) % n_space;
            forwards.push((
                next,
                (
                    t,
                    Some(AwaitedTransfer {
                        from_worker: j,
                        sent_after_step: step,
                        time_partition: t,
                    }),
                ),
            ));
        }
        for (next, entry) in forwards {
            queues[next].push_back(entry);
        }
        steps.push(execs);
    }
    Schedule {
        n_workers: n_space,
        blocks: CompiledBlocks::from_nested(blocks),
        steps,
        n_time_partitions: n_time,
        sync: SyncMode::PointToPoint,
        strategy_label: label,
        space_partition: Some(sp),
        time_partition: Some(tp),
    }
}

fn build_two_d_ordered<I: AsRef<[i64]>>(
    indices: &[I],
    extents: &[u64],
    space: usize,
    time: usize,
    n_workers: usize,
    label: String,
    opts: ScheduleOptions,
) -> Schedule {
    assert!(
        space < extents.len() && time < extents.len(),
        "dims out of range"
    );
    let n_space = n_workers.min(extents[space] as usize).max(1);
    let n_time = n_space.min(extents[time] as usize).max(1);
    let (blocks, sp, tp) = grid_blocks(
        indices,
        extents,
        space,
        time,
        n_space,
        n_time,
        opts.balance_partitions,
    );

    // Wavefront (Fig. 7e): at global step s, worker j executes time
    // partition i = s - j when 0 <= i < n_time. Partition i is released
    // by worker j-1 at step s-1. Lexicographic order within a block and
    // across blocks is preserved: blocks executed earlier precede in time
    // order, and space order follows the wavefront.
    let total_steps = (n_time + n_space - 1) as u64;
    let mut steps = Vec::with_capacity(total_steps as usize);
    for s in 0..total_steps {
        let mut execs = Vec::new();
        for j in 0..n_space {
            let i = s as i64 - j as i64;
            if i < 0 || i >= n_time as i64 {
                continue;
            }
            let awaited = (j > 0).then(|| AwaitedTransfer {
                from_worker: j - 1,
                sent_after_step: s - 1,
                time_partition: i as usize,
            });
            execs.push(Exec {
                step: s,
                worker: j,
                block: grid_block(j, i as usize, n_time),
                awaited,
            });
        }
        steps.push(execs);
    }
    Schedule {
        n_workers: n_space,
        blocks: CompiledBlocks::from_nested(blocks),
        steps,
        n_time_partitions: n_time,
        sync: SyncMode::PointToPoint,
        strategy_label: label,
        space_partition: Some(sp),
        time_partition: Some(tp),
    }
}

fn build_unimodular<I: AsRef<[i64]>>(
    indices: &[I],
    transform: &UniMat,
    space_dim: usize,
    n_workers: usize,
    label: String,
) -> Schedule {
    // Transform every index; group by the outer coordinate (time), and
    // partition each group by the chosen inner coordinate (space).
    let transformed: Vec<Vec<i64>> = indices
        .iter()
        .map(|i| transform.apply(i.as_ref()))
        .collect();
    let mut q0s: Vec<i64> = transformed.iter().map(|q| q[0]).collect();
    q0s.sort_unstable();
    q0s.dedup();
    let (qs_min, qs_max) = transformed
        .iter()
        .map(|q| q[space_dim])
        .fold((i64::MAX, i64::MIN), |(lo, hi), v| (lo.min(v), hi.max(v)));
    let span = (qs_max - qs_min + 1) as u64;
    let n_space = n_workers.min(span as usize).max(1);
    let part = RangePartition::uniform(space_dim, span, n_space);

    let n_steps = q0s.len();
    let mut blocks = vec![Vec::new(); n_steps * n_space];
    let step_of = |q0: i64| q0s.binary_search(&q0).expect("q0 recorded");
    for (pos, q) in transformed.iter().enumerate() {
        let st = step_of(q[0]);
        let sp = part.part_of((q[space_dim] - qs_min) as u64);
        blocks[st * n_space + sp].push(pos);
    }
    let steps: Vec<Vec<Exec>> = (0..n_steps)
        .map(|st| {
            (0..n_space)
                .filter(|&w| !blocks[st * n_space + w].is_empty())
                .map(|w| Exec {
                    step: st as u64,
                    worker: w,
                    block: st * n_space + w,
                    awaited: None,
                })
                .collect()
        })
        .collect();
    Schedule {
        n_workers: n_space,
        blocks: CompiledBlocks::from_nested(blocks),
        steps,
        n_time_partitions: n_steps,
        sync: SyncMode::StepBarrier,
        strategy_label: label,
        space_partition: None,
        time_partition: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orion_analysis::{DepElem, DepVec};

    /// All indices of a dense 2-D grid.
    fn grid_indices(m: i64, n: i64) -> Vec<Vec<i64>> {
        (0..m)
            .flat_map(|i| (0..n).map(move |j| vec![i, j]))
            .collect()
    }

    fn assert_complete(s: &Schedule, n_items: usize) {
        assert_eq!(s.blocks.total_items(), n_items, "every item scheduled once");
        let mut seen = vec![false; n_items];
        for b in s.blocks.iter() {
            for &pos in b {
                assert!(!seen[pos as usize], "item {pos} scheduled twice");
                seen[pos as usize] = true;
            }
        }
        assert!(seen.iter().all(|&x| x));
        // Every block appears exactly once across steps (empty blocks may
        // be skipped by wavefront schedules).
        let mut used = vec![0u32; s.blocks.n_blocks()];
        for st in &s.steps {
            for e in st {
                used[e.block] += 1;
            }
        }
        for (b, &u) in used.iter().enumerate() {
            assert!(
                u == 1 || (u == 0 && s.blocks.len_of(b) == 0),
                "block {b} executed {u} times"
            );
        }
    }

    #[test]
    fn one_d_balances_and_single_step() {
        let idx = grid_indices(10, 4);
        let s = build_schedule(&Strategy::OneD { dim: 0 }, &idx, &[10, 4], 5);
        assert_eq!(s.n_workers, 5);
        assert_eq!(s.n_steps(), 1);
        assert_eq!(s.sync, SyncMode::PassBarrier);
        assert_complete(&s, 40);
        for b in s.blocks.iter() {
            assert_eq!(b.len(), 8);
        }
    }

    #[test]
    fn one_d_shrinks_workers_to_extent() {
        let idx = grid_indices(3, 2);
        let s = build_schedule(&Strategy::OneD { dim: 0 }, &idx, &[3, 2], 16);
        assert_eq!(s.n_workers, 3);
        assert_complete(&s, 6);
    }

    #[test]
    fn unordered_2d_rotation_visits_every_pair() {
        let idx = grid_indices(12, 12);
        let strat = Strategy::TwoD {
            space: 0,
            time: 1,
            ordered: false,
        };
        let s = build_schedule(&strat, &idx, &[12, 12], 4);
        assert_eq!(s.n_workers, 4);
        assert_eq!(s.n_time_partitions, 8); // 4 workers × depth 2
        assert_eq!(s.n_steps(), 8);
        assert_complete(&s, 144);
        // Every step runs all 4 workers on 4 distinct time partitions.
        for st in &s.steps {
            assert_eq!(st.len(), 4);
            let mut tps: Vec<usize> = st.iter().map(|e| e.block % 8).collect();
            tps.sort_unstable();
            tps.dedup();
            assert_eq!(tps.len(), 4, "time partitions must be distinct per step");
        }
        // Each (worker, time-partition) pair executes exactly once.
        let mut pairs = std::collections::BTreeSet::new();
        for st in &s.steps {
            for e in st {
                assert!(pairs.insert((e.worker, e.block % 8)));
            }
        }
        assert_eq!(pairs.len(), 32);
    }

    #[test]
    fn unordered_2d_pipelines_first_steps_without_waiting() {
        let idx = grid_indices(8, 8);
        let strat = Strategy::TwoD {
            space: 0,
            time: 1,
            ordered: false,
        };
        let s = build_schedule(&strat, &idx, &[8, 8], 4);
        // With depth 2, the first two steps consume locally held
        // partitions: no awaited transfer.
        for st in &s.steps[..2] {
            assert!(st.iter().all(|e| e.awaited.is_none()));
        }
        // Later steps await partitions from the ring predecessor.
        assert!(s.steps[2].iter().all(|e| {
            let a = e.awaited.expect("step 2 must await");
            a.from_worker == (e.worker + 4 - 1) % 4
        }));
    }

    #[test]
    fn ordered_2d_wavefront_shape() {
        let idx = grid_indices(8, 8);
        let strat = Strategy::TwoD {
            space: 0,
            time: 1,
            ordered: true,
        };
        let s = build_schedule(&strat, &idx, &[8, 8], 4);
        assert_eq!(s.n_time_partitions, 4);
        assert_eq!(s.n_steps(), 7); // N + M - 1
        assert_complete(&s, 64);
        // Ramp-up: 1, 2, 3, 4, 3, 2, 1 active workers.
        let active: Vec<usize> = s.steps.iter().map(Vec::len).collect();
        assert_eq!(active, vec![1, 2, 3, 4, 3, 2, 1]);
        // Worker 2 at step 3 waits on worker 1's partition from step 2.
        let e = s.steps[3].iter().find(|e| e.worker == 2).unwrap();
        let a = e.awaited.unwrap();
        assert_eq!(a.from_worker, 1);
        assert_eq!(a.sent_after_step, 2);
    }

    #[test]
    fn ordered_preserves_lexicographic_block_order() {
        // If block (s1, t1) precedes (s2, t2) lexicographically in time
        // dim, it must execute at an earlier or equal step when s is equal,
        // and deps (same time partition) must be ordered by space.
        let idx = grid_indices(6, 6);
        let strat = Strategy::TwoD {
            space: 0,
            time: 1,
            ordered: true,
        };
        let s = build_schedule(&strat, &idx, &[6, 6], 3);
        let mut step_of = std::collections::BTreeMap::new();
        for st in &s.steps {
            for e in st {
                step_of.insert(e.block, e.step);
            }
        }
        let nt = s.n_time_partitions;
        for sp in 0..s.n_workers {
            for t in 0..nt {
                if sp + 1 < s.n_workers {
                    // Same time partition, larger space index: later step.
                    assert!(step_of[&(sp * nt + t)] < step_of[&((sp + 1) * nt + t)]);
                }
                if t + 1 < nt {
                    // Same worker, larger time index: later step.
                    assert!(step_of[&(sp * nt + t)] < step_of[&(sp * nt + t + 1)]);
                }
            }
        }
    }

    #[test]
    fn unimodular_wavefront_groups_by_outer() {
        // Transform T = [[1,1],[0,1]] (skew): q0 = i + j.
        let t = UniMat::skew(2, 0, 1, 1);
        let strat = Strategy::TwoDUnimodular {
            transform: t.clone(),
            space: 1,
            time: 0,
        };
        let idx = grid_indices(4, 4);
        let s = build_schedule(&strat, &idx, &[4, 4], 2);
        assert_eq!(s.n_steps(), 7); // q0 in 0..=6
        assert_complete(&s, 16);
        assert_eq!(s.sync, SyncMode::StepBarrier);
        // All items in one step share q0.
        for st in &s.steps {
            let mut q0s: Vec<i64> = Vec::new();
            for e in st {
                for &pos in &s.blocks[e.block] {
                    q0s.push(t.apply(&idx[pos as usize])[0]);
                }
            }
            q0s.dedup();
            assert_eq!(q0s.len(), 1);
        }
    }

    #[test]
    fn worker_loads_sum_to_item_count() {
        let idx = grid_indices(10, 10);
        let strat = Strategy::TwoD {
            space: 0,
            time: 1,
            ordered: false,
        };
        let s = build_schedule(&strat, &idx, &[10, 10], 4);
        let loads = s.worker_loads();
        assert_eq!(loads.len(), 4);
        assert_eq!(loads.iter().sum::<u64>(), 100);
        // Dense 10-row grid over 4 workers: rows split 3/3/3/1.
        assert!(loads.iter().all(|&l| (10..=30).contains(&l)), "{loads:?}");
    }

    #[test]
    fn serial_schedule_is_one_block() {
        let idx = grid_indices(3, 3);
        let s = build_schedule(&Strategy::Serial, &idx, &[3, 3], 8);
        assert_eq!(s.n_workers, 1);
        assert_eq!(s.n_steps(), 1);
        assert_complete(&s, 9);
    }

    #[test]
    fn skewed_data_balances_by_histogram() {
        // 90% of items on coordinate 0 of dim 0: balanced partitioning
        // must isolate it.
        let mut idx: Vec<Vec<i64>> = (0..90).map(|j| vec![0, j % 10]).collect();
        idx.extend((0..10).map(|k| vec![1 + k, 0]));
        let s = build_schedule(&Strategy::OneD { dim: 0 }, &idx, &[11, 10], 2);
        assert_complete(&s, 100);
        let sizes: Vec<usize> = s.blocks.iter().map(<[u32]>::len).collect();
        assert_eq!(sizes, vec![90, 10]); // hot row isolated in its own block
    }

    #[test]
    fn pipeline_depth_one_awaits_every_rotation_step() {
        let idx = grid_indices(8, 8);
        let strat = Strategy::TwoD {
            space: 0,
            time: 1,
            ordered: false,
        };
        let s = build_schedule_with(
            &strat,
            &idx,
            &[8, 8],
            4,
            ScheduleOptions {
                pipeline_depth: 1,
                ..Default::default()
            },
        );
        assert_eq!(s.n_time_partitions, 4);
        // Only the first step runs on locally-held partitions.
        assert!(s.steps[0].iter().all(|e| e.awaited.is_none()));
        for st in &s.steps[1..] {
            assert!(st.iter().all(|e| e.awaited.is_some()));
        }
    }

    #[test]
    fn unbalanced_option_uses_uniform_ranges() {
        // Heavy skew: coordinate 0 holds most items.
        let mut idx: Vec<Vec<i64>> = (0..90).map(|j| vec![0, j % 10]).collect();
        idx.extend((1..11).map(|k| vec![k, 0]));
        let balanced = build_schedule(&Strategy::OneD { dim: 0 }, &idx, &[11, 10], 2);
        let uniform = build_schedule_with(
            &Strategy::OneD { dim: 0 },
            &idx,
            &[11, 10],
            2,
            ScheduleOptions {
                balance_partitions: false,
                ..Default::default()
            },
        );
        let max_block = |s: &Schedule| s.blocks.iter().map(<[u32]>::len).max().unwrap();
        assert!(max_block(&balanced) <= max_block(&uniform));
        // Uniform puts rows 0..5 (95 items) in one block.
        assert_eq!(max_block(&uniform), 95);
    }

    #[test]
    #[should_panic(expected = "empty loop")]
    fn empty_loop_panics() {
        let _ = build_schedule::<Vec<i64>>(&Strategy::Serial, &[], &[1], 1);
    }

    /// Serializability check: under a 2-D schedule, two blocks that share
    /// a space or time coordinate never run in the same step, and blocks
    /// sharing a space coordinate run on the same worker.
    #[test]
    fn two_d_schedules_are_serializable() {
        for ordered in [false, true] {
            let idx = grid_indices(10, 10);
            let strat = Strategy::TwoD {
                space: 0,
                time: 1,
                ordered,
            };
            let s = build_schedule(&strat, &idx, &[10, 10], 5);
            let nt = s.n_time_partitions;
            for st in &s.steps {
                for (a, ea) in st.iter().enumerate() {
                    for eb in st.iter().skip(a + 1) {
                        let (sa, ta) = (ea.block / nt, ea.block % nt);
                        let (sb, tb) = (eb.block / nt, eb.block % nt);
                        assert_ne!(sa, sb, "space collision in step {}", ea.step);
                        assert_ne!(ta, tb, "time collision in step {}", ea.step);
                    }
                }
            }
        }
    }

    /// The dependence vectors of SGD MF must be respected: iterations
    /// sharing a row (or column) execute on one worker (or in distinct
    /// steps).
    #[test]
    fn mf_dependences_respected_by_unordered_schedule() {
        let dvec_row = DepVec::new(vec![DepElem::Int(0), DepElem::PosAny]);
        let dvec_col = DepVec::new(vec![DepElem::PosAny, DepElem::Int(0)]);
        let _ = (dvec_row, dvec_col); // documented intent; structural check below
        let idx = grid_indices(12, 12);
        let strat = Strategy::TwoD {
            space: 0,
            time: 1,
            ordered: false,
        };
        let s = build_schedule(&strat, &idx, &[12, 12], 4);
        // Map item -> (step, worker).
        let mut slot = vec![(0u64, 0usize); idx.len()];
        for st in &s.steps {
            for e in st {
                for &pos in &s.blocks[e.block] {
                    slot[pos as usize] = (e.step, e.worker);
                }
            }
        }
        for (a, ia) in idx.iter().enumerate() {
            for (b, ib) in idx.iter().enumerate().skip(a + 1) {
                let share_row = ia[0] == ib[0];
                let share_col = ia[1] == ib[1];
                if share_row || share_col {
                    let (sa, wa) = slot[a];
                    let (sb, wb) = slot[b];
                    assert!(
                        sa != sb || wa == wb,
                        "dependent iterations {ia:?}/{ib:?} co-scheduled"
                    );
                }
            }
        }
    }
}
