//! The dependence lint pass: explains the analyzer's verdict as stable,
//! actionable diagnostics (`O001`–`O005`).
//!
//! Lints fire on the *outcome* of analysis: a loop that parallelized
//! cleanly gets at most informational notes, while a `Serial` fallback
//! is explained — which subscript defeated the analysis (§3.2), which
//! un-exempted write conflicts and whether a DistArray Buffer (§3.3)
//! would rescue it, and which dependence vectors block 2D and what
//! unimodular transformation was tried (§4.3). Placement pathologies
//! (per-access served round trips, §4.4) and schedule load skew are
//! linted as well.

use orion_analysis::{analyze, report_with, ParallelPlan, Placement, PrefetchPlan, Strategy};
use orion_ir::{ArrayMeta, ArrayRef, Code, Diagnostic, DistArrayId, LoopSpec, Severity};
use orion_runtime::Schedule;

/// Tunables of the lint pass.
#[derive(Debug, Clone, Copy)]
pub struct LintOptions {
    /// `O005` fires when the busiest worker's item count exceeds this
    /// multiple of the mean.
    pub skew_threshold: f64,
}

impl Default for LintOptions {
    fn default() -> Self {
        LintOptions {
            skew_threshold: 2.0,
        }
    }
}

fn name_of(metas: &[ArrayMeta], id: DistArrayId) -> String {
    metas
        .iter()
        .find(|m| m.id == id)
        .map(|m| m.name.clone())
        .unwrap_or_else(|| id.to_string())
}

fn loop_subject(spec: &LoopSpec) -> String {
    format!("loop `{}`", spec.name)
}

fn ref_subject(spec: &LoopSpec, metas: &[ArrayMeta], r: &ArrayRef) -> String {
    format!("loop `{}`, {}", spec.name, crate::ref_label(metas, r))
}

/// Runs the plan lints (`O001`–`O004`) over one analyzed loop.
///
/// Diagnostics are ordered by code. Loops the analyzer parallelized
/// warning-free produce at most `Note`-severity diagnostics, so the
/// bundled app specs stay clean under `--deny-warnings`.
pub fn lint(spec: &LoopSpec, metas: &[ArrayMeta], plan: &ParallelPlan) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let serial = matches!(plan.strategy, Strategy::Serial);

    // O001: unknown subscripts defeated exact analysis and the loop
    // went serial. Reads only — unknown *writes* are the stronger O002.
    if serial {
        for r in spec.analyzed_refs() {
            if r.kind.is_read() && r.has_unknown_subscript() {
                out.push(
                    Diagnostic::new(
                        Code::UnknownSubscript,
                        Severity::Warning,
                        ref_subject(spec, metas, r),
                        format!(
                            "subscript of `{}` depends on runtime values; \
                             its dependence distances cannot be computed",
                            name_of(metas, r.array)
                        ),
                    )
                    .with_note("only subscripts of the form `i<k> ± c` are analyzed exactly (§3.2)")
                    .with_help(
                        "precompute the subscript into the iteration space, or accept \
                         served access and exempt conflicting writes with a DistArray \
                         Buffer (§3.3)",
                    ),
                );
            }
        }
    }

    // O002: an un-exempted write keeps the loop serial. For each
    // written, un-buffered array, probe whether exempting it through a
    // DistArray Buffer (§3.3) would let the analysis parallelize.
    if serial {
        for array in spec.referenced_arrays() {
            if spec.buffered.contains(&array) {
                continue;
            }
            let Some(wref) = spec
                .refs
                .iter()
                .find(|r| r.array == array && r.kind.is_write())
            else {
                continue;
            };
            let mut probe = spec.clone();
            probe.buffered.push(array);
            let rescued = analyze(&probe, metas, 4).strategy;
            let mut d = Diagnostic::new(
                Code::UnexemptedWrite,
                Severity::Warning,
                ref_subject(spec, metas, wref),
                format!(
                    "un-exempted writes to `{}` participate in the dependences \
                     that keep the loop serial",
                    name_of(metas, array)
                ),
            );
            if rescued.is_parallel() {
                d = d.with_help(format!(
                    "redirect writes to `{}` through a DistArray Buffer (§3.3); \
                     the analysis then selects {}",
                    name_of(metas, array),
                    rescued.label()
                ));
            } else {
                d = d
                    .with_note(format!(
                        "buffering `{}` alone does not unblock parallelization \
                         (other conflicts remain)",
                        name_of(metas, array)
                    ))
                    .with_help(
                        "redirect all conflicting writes through DistArray Buffers (§3.3) \
                         if the algorithm tolerates delayed write visibility",
                    );
            }
            out.push(d);
        }
    }

    // O003: the dependence vectors themselves block parallelization —
    // report them, and what the unimodular search did (§4.3).
    if serial && !plan.dep_vectors.is_empty() {
        let vecs: Vec<String> = plan.dep_vectors.iter().map(|v| v.to_string()).collect();
        let mut d = Diagnostic::new(
            Code::BlockedDependence,
            Severity::Warning,
            loop_subject(spec),
            "loop-carried dependences block 1D and 2D parallelization",
        )
        .with_note(format!("dependence vectors: {}", vecs.join(" ")));
        if spec.ndims() < 2 {
            d = d.with_note(
                "iteration space is 1-dimensional: no space/time dimension pair exists, \
                 so 2D and unimodular schedules were not applicable",
            );
        } else if plan.dep_vectors.iter().all(|v| v.unimodular_eligible()) {
            d = d.with_note(
                "a unimodular transformation was searched (§4.3), but no transform makes \
                 the outermost dimension carry every dependence",
            );
        } else {
            d = d.with_note(
                "unimodular transformation not attempted: a dependence component is \
                 unbounded in both directions (∞), which no integer transform can order (§4.3)",
            );
        }
        out.push(d);
    } else if let Strategy::TwoDUnimodular { transform, .. } = &plan.strategy {
        let vecs: Vec<String> = plan.dep_vectors.iter().map(|v| v.to_string()).collect();
        out.push(
            Diagnostic::new(
                Code::BlockedDependence,
                Severity::Note,
                loop_subject(spec),
                "dependence vectors block plain 2D parallelization; \
                 rescued by a unimodular transformation (§4.3)",
            )
            .with_note(format!("dependence vectors: {}", vecs.join(" ")))
            .with_note(format!(
                "T = {transform} makes the transformed outermost dimension carry \
                 every dependence"
            )),
        );
    }

    // O004: served placements. Prefetch `None` means every access pays
    // a server round trip (§4.4) — a warning; a working prefetch plan
    // is reported as a note so the cost stays visible.
    for p in &plan.placements {
        if let Placement::Served { prefetch } = p.placement {
            let name = name_of(metas, p.array);
            match prefetch {
                PrefetchPlan::None => out.push(
                    Diagnostic::new(
                        Code::DegeneratePrefetch,
                        Severity::Warning,
                        format!("loop `{}`, served array `{}`", spec.name, name),
                        format!("served array `{name}` cannot be bulk-prefetched"),
                    )
                    .with_note(
                        "its subscripts are computed from other DistArray reads, which \
                         defeats both static and recorded prefetch (§4.4)",
                    )
                    .with_note("every iteration pays a request/response round trip to the server")
                    .with_help(
                        "compute the subscript from loop-local data so accesses can be \
                         recorded in the first pass and batch-prefetched afterwards",
                    ),
                ),
                PrefetchPlan::Static | PrefetchPlan::Recorded => out.push(
                    Diagnostic::new(
                        Code::DegeneratePrefetch,
                        Severity::Note,
                        format!("loop `{}`, served array `{}`", spec.name, name),
                        format!(
                            "array `{name}` is served remotely (prefetch: {prefetch:?}); \
                             est. {} bytes/pass",
                            p.est_bytes_per_pass
                        ),
                    )
                    .with_note(
                        "bulk prefetch amortizes the round trips, but server traffic still \
                         scales with the working set (§4.4)",
                    ),
                ),
            }
        }
    }

    out
}

/// Lints a built schedule (`O005`: partition load skew); reached
/// through [`lint_all`].
fn lint_schedule(spec: &LoopSpec, schedule: &Schedule, opts: &LintOptions) -> Vec<Diagnostic> {
    let loads = schedule.worker_loads();
    let total: u64 = loads.iter().sum();
    if loads.len() < 2 || total == 0 {
        return Vec::new();
    }
    let max = *loads.iter().max().expect("non-empty loads");
    let mean = total as f64 / loads.len() as f64;
    let ratio = max as f64 / mean;
    if ratio <= opts.skew_threshold {
        return Vec::new();
    }
    vec![Diagnostic::new(
        Code::LoadSkew,
        Severity::Warning,
        format!(
            "loop `{}`, schedule ({} workers × {} steps)",
            spec.name,
            schedule.n_workers,
            schedule.n_steps()
        ),
        format!(
            "partition load skew: the busiest worker holds {ratio:.1}× the mean \
             item count ({max} of {total})"
        ),
    )
    .with_note(format!("per-worker items: {loads:?}"))
    .with_help(
        "histogram partitioning could not balance this dimension; consider splitting \
         hot coordinates or lowering the worker count",
    )]
}

/// Runs every lint: the plan pass plus (when a schedule is given) the
/// schedule pass.
pub fn lint_all(
    spec: &LoopSpec,
    metas: &[ArrayMeta],
    plan: &ParallelPlan,
    schedule: Option<&Schedule>,
    opts: &LintOptions,
) -> Vec<Diagnostic> {
    let mut out = lint(spec, metas, plan);
    if let Some(s) = schedule {
        out.extend(lint_schedule(spec, s, opts));
    }
    out
}

/// Whether any diagnostic is `Warning` or worse (the `--deny-warnings`
/// gate).
pub fn has_warnings(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity >= Severity::Warning)
}

/// The full compilation report: the Fig. 6-style plan summary followed
/// by every lint, rendered rustc-style through one pipeline.
pub fn full_report(
    spec: &LoopSpec,
    metas: &[ArrayMeta],
    plan: &ParallelPlan,
    schedule: Option<&Schedule>,
) -> String {
    let lints = lint_all(spec, metas, plan, schedule, &LintOptions::default());
    report_with(spec, metas, plan, &lints)
}

#[cfg(test)]
mod tests {
    use super::*;
    use orion_analysis::Strategy;
    use orion_ir::{DistArrayId, Subscript};
    use orion_runtime::build_schedule;

    fn codes(diags: &[Diagnostic]) -> Vec<Code> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_mf_loop_emits_nothing() {
        let (z, w, h) = (DistArrayId(0), DistArrayId(1), DistArrayId(2));
        let spec = LoopSpec::builder("sgd_mf", z, vec![64, 48])
            .read_write(w, vec![Subscript::loop_index(0), Subscript::Full])
            .read_write(h, vec![Subscript::loop_index(1), Subscript::Full])
            .build()
            .unwrap();
        let metas = [
            ArrayMeta::sparse(z, "ratings", vec![64, 48], 4, 800),
            ArrayMeta::dense(w, "W", vec![64, 8], 4),
            ArrayMeta::dense(h, "H", vec![48, 8], 4),
        ];
        let plan = analyze(&spec, &metas, 4);
        assert!(plan.strategy.is_parallel());
        let diags = lint(&spec, &metas, &plan);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn unknown_read_and_unbuffered_write_lint_o001_o002() {
        let (z, w) = (DistArrayId(0), DistArrayId(1));
        let spec = LoopSpec::builder("slr_unbuffered", z, vec![100])
            .read(w, vec![Subscript::unknown()])
            .write(w, vec![Subscript::unknown()])
            .build()
            .unwrap();
        let metas = [
            ArrayMeta::sparse(z, "samples", vec![100], 4, 100),
            ArrayMeta::dense(w, "weights", vec![50], 4),
        ];
        let plan = analyze(&spec, &metas, 4);
        assert!(matches!(plan.strategy, Strategy::Serial));
        let diags = lint(&spec, &metas, &plan);
        let cs = codes(&diags);
        assert!(cs.contains(&Code::UnknownSubscript), "{diags:?}");
        assert!(cs.contains(&Code::UnexemptedWrite), "{diags:?}");
        let o002 = diags
            .iter()
            .find(|d| d.code == Code::UnexemptedWrite)
            .unwrap();
        let help = o002.help.as_deref().unwrap_or("");
        assert!(help.contains("DistArray Buffer"), "{help}");
        assert!(help.contains("§3.3"), "{help}");
        assert!(has_warnings(&diags));
    }

    #[test]
    fn serial_dependences_lint_o003_with_unimodular_verdict() {
        // Read of the previous cell in an ordered 1-element chain:
        // distance +∞ on a 1-D space — nothing to transform.
        let (z, a) = (DistArrayId(0), DistArrayId(1));
        let spec = LoopSpec::builder("chain", z, vec![16])
            .read(a, vec![Subscript::Constant(0)])
            .write(a, vec![Subscript::Constant(0)])
            .ordered()
            .build()
            .unwrap();
        let metas = [ArrayMeta::dense(a, "acc", vec![1], 8)];
        let plan = analyze(&spec, &metas, 4);
        assert!(matches!(plan.strategy, Strategy::Serial));
        let diags = lint(&spec, &metas, &plan);
        let o003 = diags
            .iter()
            .find(|d| d.code == Code::BlockedDependence)
            .expect("O003 fires");
        assert_eq!(o003.severity, Severity::Warning);
        assert!(o003.notes.iter().any(|n| n.contains("dependence vectors:")));
        assert!(o003.notes.iter().any(|n| n.contains("1-dimensional")));
    }

    #[test]
    fn unimodular_rescue_is_an_o003_note() {
        // Skewed Gauss–Seidel stencil: deps {(1, -1), (0, 1)} defeat
        // plain 2D but a skew transform orders them.
        let (z, a) = (DistArrayId(0), DistArrayId(1));
        let spec = LoopSpec::builder("stencil", z, vec![8, 8])
            .read(
                a,
                vec![
                    Subscript::loop_index(0).shifted(-1),
                    Subscript::loop_index(1).shifted(1),
                ],
            )
            .read(
                a,
                vec![
                    Subscript::loop_index(0),
                    Subscript::loop_index(1).shifted(-1),
                ],
            )
            .write(a, vec![Subscript::loop_index(0), Subscript::loop_index(1)])
            .ordered()
            .build()
            .unwrap();
        let metas = [ArrayMeta::dense(a, "grid", vec![8, 8], 4)];
        let plan = analyze(&spec, &metas, 4);
        assert!(
            matches!(plan.strategy, Strategy::TwoDUnimodular { .. }),
            "{:?}",
            plan.strategy
        );
        let diags = lint(&spec, &metas, &plan);
        let o003 = diags
            .iter()
            .find(|d| d.code == Code::BlockedDependence)
            .expect("O003 note");
        assert_eq!(o003.severity, Severity::Note);
        assert!(o003.notes.iter().any(|n| n.contains("T = ")));
        assert!(!has_warnings(&diags), "{diags:?}");
    }

    #[test]
    fn unprefetchable_served_array_lints_o004_warning() {
        // Subscript computed from another DistArray read: served with
        // prefetch None.
        let (z, w) = (DistArrayId(0), DistArrayId(1));
        let spec = LoopSpec::builder("indirect", z, vec![32])
            .read(w, vec![Subscript::unknown_from_dist_array()])
            .write(w, vec![Subscript::unknown_from_dist_array()])
            .buffer_writes(w)
            .build()
            .unwrap();
        let metas = [
            ArrayMeta::sparse(z, "samples", vec![32], 4, 32),
            ArrayMeta::dense(w, "weights", vec![64], 4),
        ];
        let plan = analyze(&spec, &metas, 4);
        let diags = lint(&spec, &metas, &plan);
        let o004 = diags
            .iter()
            .find(|d| d.code == Code::DegeneratePrefetch)
            .expect("O004 fires");
        assert_eq!(o004.severity, Severity::Warning);
        assert!(o004.message.contains("weights"));
    }

    #[test]
    fn skewed_schedule_lints_o005() {
        let (z, w) = (DistArrayId(0), DistArrayId(1));
        let spec = LoopSpec::builder("skewed", z, vec![64])
            .read_write(w, vec![Subscript::loop_index(0)])
            .build()
            .unwrap();
        // All items pile onto coordinate 0 except three stragglers: a
        // single coordinate cannot be split, so one of four partitions
        // stays hot.
        let mut indices: Vec<Vec<i64>> = (0..40).map(|_| vec![0]).collect();
        indices.extend([vec![20], vec![40], vec![63]]);
        let schedule = build_schedule(&Strategy::OneD { dim: 0 }, &indices, &[64], 4);
        let opts = LintOptions::default();
        let diags = lint_schedule(&spec, &schedule, &opts);
        assert_eq!(codes(&diags), vec![Code::LoadSkew], "{diags:?}");
        assert!(diags[0].message.contains("load skew"));

        // A generous threshold silences it.
        let lax = LintOptions {
            skew_threshold: 50.0,
        };
        assert!(lint_schedule(&spec, &schedule, &lax).is_empty());
    }

    #[test]
    fn full_report_stitches_summary_and_lints() {
        let (z, w) = (DistArrayId(0), DistArrayId(1));
        let spec = LoopSpec::builder("slr_unbuffered", z, vec![100])
            .read(w, vec![Subscript::unknown()])
            .write(w, vec![Subscript::unknown()])
            .build()
            .unwrap();
        let metas = [
            ArrayMeta::sparse(z, "samples", vec![100], 4, 100),
            ArrayMeta::dense(w, "weights", vec![50], 4),
        ];
        let plan = analyze(&spec, &metas, 4);
        let text = full_report(&spec, &metas, &plan, None);
        assert!(text.contains("note[O000]:"), "{text}");
        assert!(text.contains("warning[O001]:"), "{text}");
        assert!(text.contains("warning[O002]:"), "{text}");
        assert!(text.contains("warning(s) emitted"), "{text}");
    }
}
