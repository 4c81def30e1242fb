//! Bridging the analyzer's [`ParallelPlan`] to the executor's
//! communication model.

use orion_analysis::{ParallelPlan, Placement, PrefetchPlan};
use orion_ir::ArrayMeta;

use crate::executor::LoopCommModel;
use crate::prefetch::{PrefetchMode, ServedModel};

/// Derives the loop's communication model from the analysis result:
/// rotated arrays contribute their total bytes (they circulate each
/// pass), served arrays produce a [`ServedModel`] whose prefetch mode
/// follows the analyzer's [`PrefetchPlan`].
///
/// `served_reads_per_iter` is the application-declared average number of
/// served-element reads per iteration (for statically-subscripted
/// accesses this is just the subscript count; for value-dependent ones
/// it is the dataset's average, e.g. nonzeros per sample in SLR).
///
/// With the loop `spec` at hand, served arrays whose subscripts are all
/// constants / full-range queries (identical addresses every iteration)
/// are marked cacheable per pass — a worker fetches them once per pass
/// instead of per block.
///
/// # Examples
///
/// ```
/// use orion_ir::{ArrayMeta, DistArrayId, LoopSpec, Subscript};
/// use orion_analysis::analyze;
/// use orion_runtime::comm_model_with_spec;
/// let (z, w, h) = (DistArrayId(0), DistArrayId(1), DistArrayId(2));
/// let spec = LoopSpec::builder("mf", z, vec![600, 480])
///     .read_write(w, vec![Subscript::loop_index(0), Subscript::Full])
///     .read_write(h, vec![Subscript::loop_index(1), Subscript::Full])
///     .build().unwrap();
/// let metas = [
///     ArrayMeta::sparse(z, "ratings", vec![600, 480], 4, 80_000),
///     ArrayMeta::dense(w, "W", vec![600, 32], 4),
///     ArrayMeta::dense(h, "H", vec![480, 32], 4),
/// ];
/// let plan = analyze(&spec, &metas, 8);
/// let comm = comm_model_with_spec(&plan, &metas, 0.0, Some(&spec));
/// // H rotates: 480 × 32 × 4 bytes.
/// assert_eq!(comm.rotated_bytes, 480 * 32 * 4);
/// assert!(comm.served.is_none());
/// ```
pub fn comm_model_with_spec(
    plan: &ParallelPlan,
    metas: &[ArrayMeta],
    served_reads_per_iter: f64,
    spec: Option<&orion_ir::LoopSpec>,
) -> LoopCommModel {
    let mut rotated_bytes = 0u64;
    let mut served: Option<ServedModel> = None;
    let mut all_cacheable = true;
    for p in &plan.placements {
        let meta = metas.iter().find(|m| m.id == p.array);
        match p.placement {
            Placement::Local { .. } => {}
            Placement::Rotated { .. } => {
                rotated_bytes += meta.map(ArrayMeta::total_bytes).unwrap_or(0);
            }
            Placement::Served { prefetch } => {
                let elem_bytes = meta.map(|m| m.elem_bytes).unwrap_or(4);
                let mode = match prefetch {
                    PrefetchPlan::Static => PrefetchMode::Static,
                    PrefetchPlan::Recorded => PrefetchMode::Recorded,
                    PrefetchPlan::None => PrefetchMode::Disabled,
                };
                let model = served.get_or_insert(ServedModel {
                    mode,
                    reads_per_iter: served_reads_per_iter,
                    elem_wire_bytes: 8 + elem_bytes,
                    record_cost_fraction: 0.3,
                    cache_per_pass: true,
                });
                // The weakest prefetch capability among served arrays
                // governs (Disabled < Recorded < Static).
                let rank = |m: PrefetchMode| match m {
                    PrefetchMode::Disabled => 0,
                    PrefetchMode::Recorded | PrefetchMode::CachedRecorded => 1,
                    PrefetchMode::Static => 2,
                };
                if rank(mode) < rank(model.mode) {
                    model.mode = mode;
                }
                // An array is pass-cacheable when every reference uses
                // only constant or full-range subscripts.
                let cacheable = spec
                    .map(|s| {
                        s.refs_of(p.array).iter().all(|r| {
                            r.subscripts.iter().all(|sub| {
                                matches!(
                                    sub,
                                    orion_ir::Subscript::Full | orion_ir::Subscript::Constant(_)
                                )
                            })
                        })
                    })
                    .unwrap_or(false);
                all_cacheable &= cacheable;
                model.cache_per_pass = all_cacheable;
            }
        }
    }
    LoopCommModel {
        rotated_bytes,
        served,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orion_analysis::analyze;
    use orion_ir::{DistArrayId, LoopSpec, Subscript};

    #[test]
    fn served_weights_pick_weakest_mode() {
        let (z, w, g) = (DistArrayId(0), DistArrayId(1), DistArrayId(2));
        // w: unknown subscripts (recorded); g: unknown-from-dsm (disabled).
        let spec = LoopSpec::builder("l", z, vec![100])
            .read(w, vec![Subscript::unknown()])
            .read(g, vec![Subscript::unknown_from_dist_array()])
            .write(w, vec![Subscript::unknown()])
            .buffer_writes(w)
            .build()
            .unwrap();
        let metas = [
            ArrayMeta::sparse(z, "z", vec![100], 16, 100),
            ArrayMeta::dense(w, "w", vec![1000], 4),
            ArrayMeta::dense(g, "g", vec![1000], 4),
        ];
        let plan = analyze(&spec, &metas, 4);
        let comm = comm_model_with_spec(&plan, &metas, 8.0, None);
        let served = comm.served.expect("served arrays exist");
        assert_eq!(served.mode, PrefetchMode::Disabled);
        assert_eq!(served.reads_per_iter, 8.0);
    }

    #[test]
    fn local_only_loop_has_empty_model() {
        let (z, a) = (DistArrayId(0), DistArrayId(1));
        let spec = LoopSpec::builder("map", z, vec![100])
            .read_write(a, vec![Subscript::loop_index(0)])
            .build()
            .unwrap();
        let metas = [
            ArrayMeta::dense(z, "z", vec![100], 4),
            ArrayMeta::dense(a, "a", vec![100], 4),
        ];
        let plan = analyze(&spec, &metas, 4);
        let comm = comm_model_with_spec(&plan, &metas, 0.0, None);
        assert_eq!(comm.rotated_bytes, 0);
        assert!(comm.served.is_none());
    }
}
