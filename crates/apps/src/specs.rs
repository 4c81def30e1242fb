//! Canonical loop specs for every application, packaged for the lint
//! driver (`examples/orion_lint.rs`) and the golden-snapshot tests.
//!
//! Each [`AppSpec`] carries exactly what `orion-check` needs to produce
//! a full report: the [`LoopSpec`] and the [`ArrayMeta`] table the
//! app's own [`App::setup`] declares — so the linter, the cost model and
//! the tuner analyse the very spec that trains — and the iteration
//! indices the schedule is built from. The data sizes are the `tiny()`
//! generator configs, so reports are deterministic and cheap to produce.
//!
//! [`canonical`] returns the five Table-2 applications in their
//! shipping form — all of them lint clean (warning-free), which is what
//! the CI `--deny-warnings` gate enforces. [`demos`] returns
//! deliberately degraded variants (the CP loop without its §3.3 buffer,
//! SLR without its buffer) that trigger the serial-loop lints
//! O001–O003; they exist so the diagnostics themselves stay covered by
//! golden tests.

use orion_core::{
    analyze, build_schedule, ArrayMeta, ClusterSpec, Driver, LoopSpec, ParallelPlan, Schedule,
};
use orion_data::{
    CorpusConfig, CorpusData, RatingsConfig, RatingsData, SparseConfig, SparseData, TabularConfig,
    TabularData, TensorConfig, TensorData,
};

use crate::gbt::{GbtApp, GbtConfig};
use crate::lda::{LdaApp, LdaConfig};
use crate::run::App;
use crate::sgd_mf::{MfApp, MfConfig};
use crate::slr::{SlrApp, SlrConfig};
use crate::tensor_cp::{CpApp, CpConfig};

/// One application's loop, ready for analysis and linting.
#[derive(Debug, Clone)]
pub struct AppSpec {
    /// The loop spec the training program declares.
    pub spec: LoopSpec,
    /// Array metadata as registered with the driver.
    pub metas: Vec<ArrayMeta>,
    /// The iteration indices of one data pass.
    pub indices: Vec<Vec<i64>>,
    /// Workers the schedule is sized for.
    pub n_workers: usize,
}

impl AppSpec {
    /// The loop's name (the spec's name).
    pub fn name(&self) -> &str {
        &self.spec.name
    }

    /// Runs dependence analysis for this app.
    pub fn analyze(&self) -> ParallelPlan {
        analyze(&self.spec, &self.metas, self.n_workers as u64)
    }

    /// Builds the schedule the driver would execute.
    pub fn schedule(&self, plan: &ParallelPlan) -> Schedule {
        build_schedule(
            &plan.strategy,
            &self.indices,
            &self.spec.iter_dims,
            self.n_workers,
        )
    }
}

/// The spec and array table `app`'s own setup declares on a 2 × 2
/// cluster — the very loop that trains — with the indices of one pass.
fn derive<A: App>(app: &A, data: &A::Data, indices: Vec<Vec<i64>>) -> AppSpec {
    let cluster = ClusterSpec::new(2, 2);
    let n_workers = cluster.n_workers();
    let mut driver = Driver::new(cluster);
    let (compiled, _) = app.setup(data, &mut driver);
    AppSpec {
        spec: compiled.spec,
        metas: driver.metas().to_vec(),
        indices,
        n_workers,
    }
}

/// The five canonical applications (Table 2), lint clean.
pub fn canonical() -> Vec<AppSpec> {
    vec![sgd_mf(), lda(), slr(), tensor_cp(), gbt()]
}

/// Deliberately degraded variants that trigger the serial-loop lints:
/// CP without the §3.3 buffer (O002 + O003) and SLR without its buffer
/// (O001 + O002).
pub fn demos() -> Vec<AppSpec> {
    vec![tensor_cp_unbuffered(), slr_unbuffered()]
}

/// Every packaged spec, canonical then demos.
pub fn all() -> Vec<AppSpec> {
    let mut v = canonical();
    v.extend(demos());
    v
}

/// Looks up a packaged spec by loop name.
pub fn by_name(name: &str) -> Option<AppSpec> {
    all().into_iter().find(|a| a.name() == name)
}

/// SGD matrix factorization: 2-D unordered over (users, items).
pub fn sgd_mf() -> AppSpec {
    let data = RatingsData::generate(RatingsConfig::tiny());
    let app = MfApp::new(MfConfig::new(4), false);
    derive(&app, &data, data.ratings.iter().map(|(i, _)| i).collect())
}

/// LDA collapsed Gibbs: 2-D unordered with the topic summary buffered.
pub fn lda() -> AppSpec {
    let data = CorpusData::generate(CorpusConfig::tiny());
    let app = LdaApp {
        cfg: LdaConfig::new(8),
        ordered: false,
    };
    derive(&app, &data, data.tokens.iter().map(|(i, _)| i).collect())
}

/// Sparse logistic regression: 1-D data parallelism via buffered
/// weight writes; the weights are served with bulk prefetch.
pub fn slr() -> AppSpec {
    let data = SparseData::generate(SparseConfig::tiny());
    let app = SlrApp {
        cfg: SlrConfig::new(),
        prefetch_override: None,
    };
    let n = data.samples.len() as i64;
    derive(&app, &data, (0..n).map(|i| vec![i]).collect())
}

/// SLR *without* the buffer exemption: the runtime-only subscripts
/// force serialization (O001 + O002).
pub fn slr_unbuffered() -> AppSpec {
    let mut app = slr();
    app.spec.name = "slr_sgd_unbuffered".into();
    app.spec.buffered.clear();
    app
}

/// The CP loop with or without the context factor's buffer.
fn cp_app(buffer_s: bool) -> AppSpec {
    let data = TensorData::generate(TensorConfig::tiny());
    let app = CpApp {
        cfg: CpConfig::new(4),
        buffer_s,
    };
    derive(&app, &data, data.entries.iter().map(|(i, _)| i).collect())
}

/// CP tensor decomposition with the context factor buffered: 2-D
/// unordered over (users, items).
pub fn tensor_cp() -> AppSpec {
    cp_app(true)
}

/// CP as first written — three all-pairs-conflicting dependence
/// families, correctly serial (O002 + O003).
pub fn tensor_cp_unbuffered() -> AppSpec {
    cp_app(false)
}

/// GBT split finding: independent features, 1-D.
pub fn gbt() -> AppSpec {
    let data = TabularData::generate(TabularConfig::tiny());
    let app = GbtApp {
        cfg: GbtConfig::new(1),
    };
    let n = data.config.n_features as i64;
    derive(&app, &data, (0..n).map(|i| vec![i]).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use orion_core::Strategy;

    #[test]
    fn canonical_apps_all_parallelize() {
        for app in canonical() {
            let plan = app.analyze();
            assert!(
                !matches!(plan.strategy, Strategy::Serial),
                "{} must parallelize, got {:?}",
                app.name(),
                plan.strategy
            );
        }
    }

    #[test]
    fn demo_apps_are_serial() {
        for app in demos() {
            let plan = app.analyze();
            assert!(
                matches!(plan.strategy, Strategy::Serial),
                "{} must be serial, got {:?}",
                app.name(),
                plan.strategy
            );
        }
    }

    #[test]
    fn by_name_finds_every_app() {
        for app in all() {
            assert!(by_name(app.name()).is_some(), "{} not found", app.name());
        }
        assert!(by_name("nope").is_none());
    }
}
