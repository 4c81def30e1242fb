//! Gradient boosted regression trees (Table 2: "1D").
//!
//! Histogram-based boosting: each round fits a depth-limited regression
//! tree to the residuals. The expensive inner loop — computing per-
//! feature gradient histograms for every tree node — iterates over the
//! *feature* dimension, with every feature writing its own histogram
//! slot: no loop-carried dependence, so Orion parallelizes it 1-D across
//! workers (feature/model parallelism). Trees themselves are inherently
//! sequential (each corrects the previous ensemble), matching the
//! paper's classification of GBT as 1-D-parallelized.

use std::sync::Arc;

use orion_core::{
    kernels, ClusterSpec, CompiledLoop, DistArray, Driver, FaultEvent, LoopSpec, RunStats,
    Strategy, Subscript,
};
use orion_data::TabularData;

use crate::common::cost;
use crate::run::{train, App, Engine, Pool, RunError};

/// GBT hyperparameters.
#[derive(Debug, Clone)]
pub struct GbtConfig {
    /// Boosting rounds (trees).
    pub n_trees: usize,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Shrinkage applied to each tree's predictions.
    pub learning_rate: f32,
    /// Histogram bins per feature.
    pub n_bins: usize,
}

impl GbtConfig {
    /// Defaults used by the harnesses.
    pub fn new(n_trees: usize) -> Self {
        GbtConfig {
            n_trees,
            max_depth: 3,
            learning_rate: 0.3,
            n_bins: 16,
        }
    }
}

/// One node of a regression tree.
#[derive(Debug, Clone)]
pub enum Node {
    /// Internal split: go left when `x[feature] < threshold`.
    Split {
        /// Feature tested.
        feature: usize,
        /// Threshold compared against.
        threshold: f32,
        /// Left child index.
        left: usize,
        /// Right child index.
        right: usize,
    },
    /// Terminal node with a prediction value.
    Leaf {
        /// Predicted (shrunken) residual.
        value: f32,
    },
}

/// A regression tree as a node arena rooted at 0.
#[derive(Debug, Clone, Default)]
pub struct Tree {
    /// The nodes; index 0 is the root.
    pub nodes: Vec<Node>,
}

impl Tree {
    /// Predicts one sample.
    pub fn predict(&self, x: &[f32]) -> f32 {
        let mut i = 0usize;
        loop {
            match &self.nodes[i] {
                Node::Leaf { value } => return *value,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    i = if x[*feature] < *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }
}

/// The boosted ensemble.
#[derive(Debug, Clone)]
pub struct GbtModel {
    /// Constant base prediction (the target mean).
    pub base: f32,
    /// Boosted trees in order.
    pub trees: Vec<Tree>,
    /// Hyperparameters.
    pub cfg: GbtConfig,
}

impl GbtModel {
    /// Predicts one sample (feature row).
    pub fn predict(&self, x: &[f32]) -> f32 {
        self.base + self.trees.iter().map(|t| t.predict(x)).sum::<f32>()
    }

    /// Mean squared error over the dataset.
    pub fn mse(&self, data: &TabularData) -> f64 {
        let n = data.config.n_samples;
        let f = data.config.n_features;
        (0..n)
            .map(|i| {
                let x = &data.features[i * f..(i + 1) * f];
                ((data.targets[i] - self.predict(x)) as f64).powi(2)
            })
            .sum::<f64>()
            / n as f64
    }
}

/// Per-(node, bin) gradient statistics of one feature. Gradients are
/// f64, so the kernel's gradient dtype matches — no silent narrowing
/// through the f32 feature array.
type BinStat = kernels::BinStat<f64>;

/// Sentinel for "node is not a leaf this level".
const NO_SLOT: usize = usize::MAX;

/// Picks the best split per leaf from the gathered histograms and grows
/// the tree one level; returns whether any leaf split.
fn grow_level(
    tree: &mut Tree,
    assign: &mut [usize],
    leaves: &[usize],
    hists: &[Vec<BinStat>],
    data: &TabularData,
    n_bins: usize,
) -> bool {
    let mut grew = false;
    for (slot, &leaf) in leaves.iter().enumerate() {
        let total: BinStat = {
            let mut acc = BinStat::default();
            // totals are feature-independent; take feature 0
            for b in 0..n_bins {
                let s = hists[0][slot * n_bins + b];
                acc.sum += s.sum;
                acc.count += s.count;
            }
            acc
        };
        if total.count < 8 {
            continue;
        }
        let mut best: Option<(f64, usize, usize)> = None; // gain, feature, bin
        for (f, hist) in hists.iter().enumerate() {
            let mut left = BinStat::default();
            for b in 0..n_bins - 1 {
                let s = hist[slot * n_bins + b];
                left.sum += s.sum;
                left.count += s.count;
                let right_g = total.sum - left.sum;
                let right_n = total.count - left.count;
                if left.count < 4 || right_n < 4 {
                    continue;
                }
                let gain = left.sum * left.sum / left.count as f64
                    + right_g * right_g / right_n as f64
                    - total.sum * total.sum / total.count as f64;
                if best.map(|(g, _, _)| gain > g).unwrap_or(gain > 1e-9) {
                    best = Some((gain, f, b));
                }
            }
        }
        if let Some((_, f, b)) = best {
            let threshold = (b + 1) as f32 / n_bins as f32;
            let left = tree.nodes.len();
            let right = left + 1;
            tree.nodes.push(Node::Leaf { value: 0.0 });
            tree.nodes.push(Node::Leaf { value: 0.0 });
            tree.nodes[leaf] = Node::Split {
                feature: f,
                threshold,
                left,
                right,
            };
            for (i, a) in assign.iter_mut().enumerate() {
                if *a == leaf {
                    *a = if data.at(i, f) < threshold {
                        left
                    } else {
                        right
                    };
                }
            }
            grew = true;
        }
    }
    grew
}

/// Sets leaf values to the shrunken mean residual of their samples.
fn finalize_tree(tree: &mut Tree, assign: &[usize], grads: &[f64], learning_rate: f32) {
    let mut sums: std::collections::HashMap<usize, (f64, u64)> = std::collections::HashMap::new();
    for (i, &a) in assign.iter().enumerate() {
        let e = sums.entry(a).or_insert((0.0, 0));
        e.0 += grads[i];
        e.1 += 1;
    }
    for (node, (g, c)) in &sums {
        if let Node::Leaf { value } = &mut tree.nodes[*node] {
            *value = learning_rate * (*g / *c as f64) as f32;
        }
    }
}

/// The leaf slots of the current level: a dense node → histogram-slot
/// table (the innermost loop runs per (feature, sample), so the lookup
/// must be a plain index, not a hash probe).
fn leaf_slots(tree: &Tree) -> (Vec<usize>, Vec<usize>) {
    let leaves: Vec<usize> = tree
        .nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| matches!(n, Node::Leaf { .. }))
        .map(|(i, _)| i)
        .collect();
    let mut slot_of_node = vec![NO_SLOT; tree.nodes.len()];
    for (s, &l) in leaves.iter().enumerate() {
        slot_of_node[l] = s;
    }
    (leaves, slot_of_node)
}

/// Run configuration.
#[derive(Debug, Clone)]
pub struct GbtRunConfig {
    /// Simulated cluster.
    pub cluster: ClusterSpec,
}

/// GBT as an [`App`]: one pass is one boosting round, whose per-level
/// split-finding loop over features runs under Orion's 1-D
/// parallelization; the metric is the MSE after the round.
#[derive(Debug, Clone)]
pub struct GbtApp {
    /// Hyperparameters (`n_trees` is the pass count the `train_*`
    /// wrappers run).
    pub cfg: GbtConfig,
}

/// What [`GbtApp`]'s setup builds: the ensemble so far and its
/// predictions.
#[derive(Debug)]
pub struct GbtJob {
    model: GbtModel,
    items: Vec<(Vec<i64>, u32)>,
    preds: Vec<f32>,
    feature_cost: f64,
}

/// The engine-specific part of a round: the per-feature histograms of
/// (gradient sum, count) per (leaf, bin), given the gradients, the
/// node → slot table, the sample → node assignment and the slots ×
/// bins length of one histogram.
type HistPass<'a> =
    dyn FnMut(&mut Driver, &Arc<Vec<f64>>, Vec<usize>, &[usize], usize) -> Vec<Vec<BinStat>> + 'a;

/// One boosting round: residual gradients, the tree grown level by
/// level from the histograms `hist_pass` gathers, leaf values, updated
/// predictions.
fn boost_round(
    data: &TabularData,
    model: &mut GbtModel,
    preds: &mut [f32],
    driver: &mut Driver,
    hist_pass: &mut HistPass,
) {
    let (n_samples, n_features) = (data.config.n_samples, data.config.n_features);
    let n_bins = model.cfg.n_bins;
    // Residual gradients for squared loss.
    let grads: Arc<Vec<f64>> = Arc::new(
        (0..n_samples)
            .map(|i| (data.targets[i] - preds[i]) as f64)
            .collect(),
    );
    let mut tree = Tree::default();
    tree.nodes.push(Node::Leaf { value: 0.0 });
    let mut assign: Vec<usize> = vec![0; n_samples]; // node of each sample
    for _depth in 0..model.cfg.max_depth {
        let (leaves, slot_of_node) = leaf_slots(&tree);
        if leaves.is_empty() {
            break;
        }
        let hist_len = leaves.len() * n_bins;
        let hists = hist_pass(driver, &grads, slot_of_node, &assign, hist_len);
        // Gathering the histograms to the driver costs one exchange.
        let hist_bytes = (n_features * hist_len * 12) as u64;
        let n_workers = driver.cluster().n_workers().max(1) as u64;
        driver.sync_exchange(hist_bytes / n_workers, 0);
        // Pick the best split per leaf (variance gain).
        if !grow_level(&mut tree, &mut assign, &leaves, &hists, data, n_bins) {
            break;
        }
    }
    // Leaf values: shrunken mean residual of the samples they hold.
    finalize_tree(&mut tree, &assign, &grads, model.cfg.learning_rate);
    for (p, x) in preds.iter_mut().zip(data.features.chunks_exact(n_features)) {
        *p += tree.predict(x);
    }
    model.trees.push(tree);
}

impl App for GbtApp {
    type Data = TabularData;
    type Model = GbtModel;
    type Job = GbtJob;

    const NAME: &'static str = "gbt";

    fn setup(&self, data: &TabularData, driver: &mut Driver) -> (CompiledLoop, GbtJob) {
        let (n_samples, n_features) = (data.config.n_samples, data.config.n_features);
        // Iteration space: the features.
        let feat_arr: DistArray<u32> =
            DistArray::dense_from_fn("features", vec![n_features as u64], |i| i[0] as u32);
        let items: Vec<(Vec<i64>, u32)> = feat_arr.iter().map(|(i, &v)| (i, v)).collect();
        let feats_id = driver.register(&feat_arr);
        // Gradient vector (read by every feature) and per-feature histogram
        // slots (each feature writes only its own row).
        let grad_arr: DistArray<f32> = DistArray::dense("gradients", vec![n_samples as u64]);
        let grads_id = driver.register(&grad_arr);
        let hist_arr: DistArray<f32> = DistArray::dense(
            "histograms",
            vec![n_features as u64, (2 * self.cfg.n_bins) as u64],
        );
        let hist_id = driver.register(&hist_arr);
        let spec = LoopSpec::builder("gbt_split_finding", feats_id, vec![n_features as u64])
            .read(grads_id, vec![Subscript::Full])
            .write(hist_id, vec![Subscript::loop_index(0), Subscript::Full])
            .build()
            .expect("static GBT spec is valid");
        let compiled = driver
            .parallel_for(spec, &items)
            .expect("GBT split loop parallelizes");
        debug_assert!(matches!(
            compiled.strategy(),
            Strategy::FullyParallel { .. } | Strategy::OneD { .. }
        ));
        let model = GbtModel {
            base: data.targets.iter().sum::<f32>() / n_samples as f32,
            trees: Vec::new(),
            cfg: self.cfg.clone(),
        };
        let job = GbtJob {
            preds: vec![model.base; n_samples],
            model,
            items,
            feature_cost: cost::gbt_feature_ns(n_samples) * cost::ORION_OVERHEAD,
        };
        (compiled, job)
    }

    fn sim_pass(
        &self,
        data: &TabularData,
        job: &mut GbtJob,
        driver: &mut Driver,
        compiled: &CompiledLoop,
        _round: u64,
    ) -> Option<FaultEvent> {
        let (n_samples, n_features) = (data.config.n_samples, data.config.n_features);
        let n_bins = self.cfg.n_bins;
        let GbtJob {
            model,
            items,
            preds,
            feature_cost,
        } = job;
        boost_round(
            data,
            model,
            preds,
            driver,
            &mut |driver, grads, slot_of_node, assign, hist_len| {
                let mut hists = vec![vec![BinStat::default(); hist_len]; n_features];
                driver.run_pass(compiled, &mut |_pos| *feature_cost, &mut |_w, pos| {
                    let f = items[pos].1 as usize;
                    kernels::feature_histogram(
                        f,
                        n_samples,
                        n_features,
                        n_bins,
                        &data.features,
                        &slot_of_node,
                        assign,
                        grads,
                        NO_SLOT,
                        &mut hists[f],
                    );
                });
                hists
            },
        );
        None
    }

    fn metric(&self, data: &TabularData, job: &GbtJob) -> f64 {
        job.model.mse(data)
    }

    fn into_model(job: GbtJob) -> GbtModel {
        job.model
    }

    /// Each per-level split-finding pass fans the features out across
    /// the pool, each worker accumulating histograms for its features
    /// into worker-local scratch that the driver scatters back. Split
    /// selection is deterministic on the gathered histograms, so the
    /// ensemble is identical to the simulated engine's.
    fn pooled(
        &self,
        data: &TabularData,
        mut job: GbtJob,
        pool: &mut Pool<'_>,
        rounds: u64,
    ) -> Result<GbtModel, RunError> {
        let (n_samples, n_features) = (data.config.n_samples, data.config.n_features);
        let n_bins = self.cfg.n_bins;
        let (compiled, plan) = (pool.compiled, Arc::clone(&pool.plan));
        let feats: Arc<Vec<u32>> = Arc::new(job.items.iter().map(|(_, v)| *v).collect());
        let x: Arc<Vec<f32>> = Arc::new(data.features.clone());
        for round in 0..rounds {
            boost_round(
                data,
                &mut job.model,
                &mut job.preds,
                pool.driver,
                &mut |driver, grads, slot_of_node, assign, hist_len| {
                    // The tree state is round-local, so each level's body
                    // captures fresh snapshots; the pool itself persists.
                    let slots = Arc::new(slot_of_node);
                    let assigned = Arc::new(assign.to_vec());
                    let (g2, x2) = (Arc::clone(grads), Arc::clone(&x));
                    let body = Arc::new(move |&f: &u32, sc: &mut Vec<(u32, Vec<BinStat>)>| {
                        let mut hist = vec![BinStat::default(); hist_len];
                        kernels::feature_histogram(
                            f as usize, n_samples, n_features, n_bins, &x2, &slots, &assigned, &g2,
                            NO_SLOT, &mut hist,
                        );
                        sc.push((f, hist));
                    });
                    let scratch: Vec<Vec<(u32, Vec<BinStat>)>> = vec![Vec::new(); plan.n_workers()];
                    let out = driver.run_pass_threaded_one_d(
                        &compiled.spec.name,
                        &plan,
                        &feats,
                        scratch,
                        &body,
                    );
                    let mut hists = vec![vec![BinStat::default(); hist_len]; n_features];
                    for (f, hist) in out.scratch.into_iter().flatten() {
                        hists[f as usize] = hist;
                    }
                    hists
                },
            );
            pool.record(round, self.metric(data, &job));
        }
        Ok(job.model)
    }

    /// One split-finding pass per (round, level).
    fn loop_runs(&self, rounds: u64) -> u64 {
        rounds * self.cfg.max_depth as u64
    }
}

/// Trains the ensemble on the simulated cluster, recording MSE per
/// boosting round.
pub fn train_orion(data: &TabularData, cfg: GbtConfig, run: &GbtRunConfig) -> (GbtModel, RunStats) {
    let rounds = cfg.n_trees as u64;
    let engine = Engine::Sim(run.cluster.clone());
    train(&GbtApp { cfg }, data, engine, rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use orion_data::TabularConfig;

    fn data() -> TabularData {
        TabularData::generate(TabularConfig::tiny())
    }

    /// Serial training: same algorithm on one worker.
    fn train_serial(data: &TabularData, cfg: GbtConfig) -> (GbtModel, RunStats) {
        let cluster = ClusterSpec::serial();
        train_orion(data, cfg, &GbtRunConfig { cluster })
    }

    #[test]
    fn boosting_reduces_mse_monotonically_early() {
        let d = data();
        let (model, stats) = train_serial(&d, GbtConfig::new(10));
        assert_eq!(model.trees.len(), 10);
        let curve: Vec<f64> = stats.progress.iter().map(|p| p.metric).collect();
        assert!(
            curve.last().unwrap() < &(d.target_variance() * 0.25),
            "MSE {curve:?} should fall well below variance {}",
            d.target_variance()
        );
        assert!(curve[0] > *curve.last().unwrap());
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        // Split finding over disjoint feature histograms is independent:
        // the 1-D parallel run must produce the identical ensemble.
        let d = data();
        let (ms, _) = train_serial(&d, GbtConfig::new(5));
        let run = GbtRunConfig {
            cluster: ClusterSpec::new(2, 4),
        };
        let (mp, _) = train_orion(&d, GbtConfig::new(5), &run);
        assert_eq!(ms.mse(&d), mp.mse(&d), "ensembles must be identical");
    }

    #[test]
    fn predictions_follow_the_step_structure() {
        let d = data();
        let (model, _) = train_serial(&d, GbtConfig::new(12));
        // Samples with x0 > 0.5 average ~3 higher (see the generator).
        let f = d.config.n_features;
        let (mut hi, mut lo, mut nhi, mut nlo) = (0.0f64, 0.0f64, 0, 0);
        for i in 0..d.config.n_samples {
            let p = model.predict(&d.features[i * f..(i + 1) * f]) as f64;
            if d.at(i, 0) > 0.5 {
                hi += p;
                nhi += 1;
            } else {
                lo += p;
                nlo += 1;
            }
        }
        let gap = hi / nhi as f64 - lo / nlo as f64;
        assert!(gap > 2.0, "learned gap {gap} too small");
    }

    #[test]
    fn deeper_trees_fit_better() {
        let d = data();
        let mut shallow_cfg = GbtConfig::new(8);
        shallow_cfg.max_depth = 1;
        let (shallow, _) = train_serial(&d, shallow_cfg);
        let (deep, _) = train_serial(&d, GbtConfig::new(8));
        assert!(deep.mse(&d) < shallow.mse(&d));
    }

    #[test]
    fn parallel_time_is_shorter() {
        // Needs enough samples that per-feature histogram compute
        // dominates the per-level gather exchange.
        let d = TabularData::generate(TabularConfig {
            n_samples: 20_000,
            n_features: 20,
            noise: 0.1,
            seed: 3,
        });
        let (_, serial) = train_serial(&d, GbtConfig::new(3));
        let run = GbtRunConfig {
            cluster: ClusterSpec::new(2, 5),
        };
        let (_, par) = train_orion(&d, GbtConfig::new(3), &run);
        let ts = serial.progress.last().unwrap().time;
        let tp = par.progress.last().unwrap().time;
        assert!(
            tp.as_secs_f64() < ts.as_secs_f64() * 0.6,
            "parallel {tp} should clearly beat serial {ts}"
        );
    }
}
