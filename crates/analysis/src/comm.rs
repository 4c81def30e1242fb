//! DistArray placement and communication-cost estimation (paper §4.3–4.4).
//!
//! Given candidate partitioning dimensions for the iteration space, each
//! referenced DistArray is classified:
//!
//! - **Local** — every reference subscripts the same array dimension with
//!   the *space* loop dimension, so range-partitioning the array by that
//!   dimension serves all accesses locally (zero communication, modulo a
//!   halo when references use different constant offsets);
//! - **Rotated** — every reference subscripts the same array dimension
//!   with the *time* loop dimension, so the array circulates among
//!   workers between time steps (Fig. 8);
//! - **Served** — otherwise the array lives on server processes like a
//!   parameter server, and accesses are remote (mitigated by bulk
//!   prefetching, §4.4).
//!
//! The analyzer scores every candidate by estimated bytes communicated
//! per data pass and picks the minimum — the paper's "simple heuristic to
//! choose the partitioning dimension(s) among candidates that minimizes
//! the number of DistArray elements needed to be communicated".

use orion_ir::{ArrayMeta, ArrayRef, Dim, DistArrayId, LoopSpec};

/// How bulk prefetching can be performed for a served array (§4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetchPlan {
    /// Subscripts are statically known expressions of loop index
    /// variables: the index list is computed directly from the partition's
    /// iteration indices, with no extra pass over the data.
    Static,
    /// Some subscripts are runtime values derived from the loop's own data
    /// (e.g. nonzero feature ids): Orion synthesizes a recording pass that
    /// executes subscript-producing statements and logs the indices to
    /// fetch (the paper's generated prefetch function).
    Recorded,
    /// Subscripts depend on values read from *other DistArrays*: fetching
    /// them would itself be remote, so these accesses are not prefetched.
    None,
}

/// Where one DistArray lives during the loop's distributed execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Range-partitioned by `array_dim`; all accesses are worker-local.
    Local {
        /// The array dimension aligned with the space loop dimension.
        array_dim: Dim,
    },
    /// Range-partitioned by `array_dim`; partitions rotate between
    /// workers at time-step boundaries.
    Rotated {
        /// The array dimension aligned with the time loop dimension.
        array_dim: Dim,
    },
    /// Hosted by server processes; accessed remotely with the given
    /// prefetch plan.
    Served {
        /// How reads are prefetched in bulk.
        prefetch: PrefetchPlan,
    },
}

/// Placement decision for one array plus its estimated cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayPlacement {
    /// The array being placed.
    pub array: DistArrayId,
    /// Chosen placement.
    pub placement: Placement,
    /// Estimated bytes communicated per full data pass.
    pub est_bytes_per_pass: u64,
}

/// Extra weighting for served (parameter-server style) traffic: served
/// access pays a fetch and a write-back, and fine-grained messages carry
/// per-element index overhead.
const SERVED_OVERHEAD: u64 = 4;

/// Tunable constants of the communication-cost model.
///
/// The static analyzer (paper §4.3) compares candidate partitionings by
/// weighted byte counts; historically the weights were hard-coded
/// (`SERVED_OVERHEAD`). `CostParams` exposes them so a calibration pass
/// (`orion-tune`) can fit measured values back into the model and
/// re-rank candidates. [`CostParams::default`] reproduces the static
/// model bit-exactly.
///
/// The byte weights (`local_byte_cost`, `rotated_byte_cost`,
/// `served_byte_cost`) are consumed here when scoring placements. The
/// time-model fields (`compute_ns_per_iter`, `net_bytes_per_ns`, `skew`)
/// are carried for consumers that convert byte estimates into predicted
/// pass times — this crate only stores them.
#[derive(Debug, Clone, PartialEq)]
pub struct CostParams {
    /// Weight of one halo byte crossing a partition border of a `Local`
    /// array.
    pub local_byte_cost: f64,
    /// Weight of one byte of a `Rotated` array forwarded between
    /// workers at a time-step boundary.
    pub rotated_byte_cost: f64,
    /// Weight of one byte of a `Served` array: fetch plus write-back
    /// plus per-element index overhead. The static default is the old
    /// `SERVED_OVERHEAD` constant.
    pub served_byte_cost: f64,
    /// Measured compute cost of one loop iteration in nanoseconds; zero
    /// in the static model (unknown before calibration).
    pub compute_ns_per_iter: f64,
    /// Measured effective network throughput in bytes per nanosecond;
    /// zero in the static model (costs stay pure byte counts).
    pub net_bytes_per_ns: f64,
    /// Measured load imbalance (max/mean items per worker), `>= 1.0`.
    pub skew: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            local_byte_cost: 1.0,
            rotated_byte_cost: 1.0,
            served_byte_cost: SERVED_OVERHEAD as f64,
            compute_ns_per_iter: 0.0,
            net_bytes_per_ns: 0.0,
            skew: 1.0,
        }
    }
}

impl CostParams {
    /// Scales a raw byte count by a weight, rounding to the nearest
    /// integer cost unit. With the default integer-valued weights this
    /// is exact for any realistic byte count.
    fn weigh(bytes: u64, weight: f64) -> u64 {
        (bytes as f64 * weight).round() as u64
    }
}

/// Classifies one array against `(space, time)` partitioning dims and
/// estimates its per-pass communication under `params`.
///
/// `n_workers` scales rotation/serving costs: a rotated array is
/// retransmitted once per time step and there are as many time steps as
/// workers (Fig. 7f), so a full pass moves roughly the whole array once
/// per worker.
fn place_array_with(
    meta: &ArrayMeta,
    refs: &[&ArrayRef],
    space: Option<Dim>,
    time: Option<Dim>,
    n_workers: u64,
    params: &CostParams,
) -> ArrayPlacement {
    debug_assert!(!refs.is_empty(), "placement of an unreferenced array");

    if let Some((array_dim, halo)) = space.and_then(|s| alignment(refs, s)) {
        // Every access keyed by the space dimension: static range
        // partition, local access. Halo slices cross partition borders
        // once per pass when offsets differ.
        let slice_bytes = slice_bytes(meta, array_dim);
        return ArrayPlacement {
            array: meta.id,
            placement: Placement::Local { array_dim },
            est_bytes_per_pass: CostParams::weigh(
                halo * slice_bytes * n_workers,
                params.local_byte_cost,
            ),
        };
    }
    if let Some(t) = time {
        if let Some((array_dim, halo)) = alignment(refs, t) {
            // Keyed by the time dimension: the array rotates. Each time
            // step every worker forwards its current partition; a pass has
            // n_workers time steps, so ~ the full array moves n_workers
            // times (plus halo).
            let bytes = meta.total_bytes() + halo * slice_bytes(meta, array_dim);
            return ArrayPlacement {
                array: meta.id,
                placement: Placement::Rotated { array_dim },
                est_bytes_per_pass: CostParams::weigh(bytes * n_workers, params.rotated_byte_cost),
            };
        }
    }
    // Served: every worker fetches what it reads and writes back.
    let prefetch = prefetch_plan(refs);
    ArrayPlacement {
        array: meta.id,
        placement: Placement::Served { prefetch },
        est_bytes_per_pass: CostParams::weigh(
            meta.total_bytes() * n_workers,
            params.served_byte_cost,
        ),
    }
}

/// Checks that every reference subscripts the same array dimension with
/// loop dimension `iter_dim`, returning that array dimension and the halo
/// width (spread of constant offsets across references).
fn alignment(refs: &[&ArrayRef], iter_dim: Dim) -> Option<(Dim, u64)> {
    let mut array_dim: Option<Dim> = None;
    let mut min_off = i64::MAX;
    let mut max_off = i64::MIN;
    for r in refs {
        let ad = r.array_dim_for_iter_dim(iter_dim)?;
        if let Some(prev) = array_dim {
            if prev != ad {
                return None;
            }
        }
        array_dim = Some(ad);
        if let orion_ir::Subscript::LoopIndex { offset, .. } = r.subscripts[ad] {
            min_off = min_off.min(offset);
            max_off = max_off.max(offset);
        }
    }
    let ad = array_dim?;
    let halo = if min_off <= max_off {
        (max_off - min_off) as u64
    } else {
        0
    };
    Some((ad, halo))
}

/// Average bytes of one index-slice perpendicular to `array_dim`.
fn slice_bytes(meta: &ArrayMeta, array_dim: Dim) -> u64 {
    let extent = meta.dims.get(array_dim).copied().unwrap_or(1).max(1);
    meta.total_bytes() / extent
}

/// Derives the prefetch plan for a served array from its references
/// (§4.4): static when all subscripts are compile-time expressions of the
/// loop indices, recorded when runtime-dependent but computable without
/// reading other DistArrays, none otherwise.
fn prefetch_plan(refs: &[&ArrayRef]) -> PrefetchPlan {
    let mut plan = PrefetchPlan::Static;
    for r in refs {
        if r.unknown_reads_dist_array() {
            return PrefetchPlan::None;
        }
        if r.has_unknown_subscript() {
            plan = PrefetchPlan::Recorded;
        }
    }
    plan
}

/// Places every referenced array for the candidate `(space, time)` dims
/// under `params` and returns the placements with the total estimated
/// bytes per pass.
pub fn plan_placements_with(
    spec: &LoopSpec,
    metas: &[ArrayMeta],
    space: Option<Dim>,
    time: Option<Dim>,
    n_workers: u64,
    params: &CostParams,
) -> (Vec<ArrayPlacement>, u64) {
    let mut placements = Vec::new();
    let mut total = 0u64;
    for id in spec.referenced_arrays() {
        let refs = spec.refs_of(id);
        let Some(meta) = metas.iter().find(|m| m.id == id) else {
            // Unknown metadata: assume a modest served array so the
            // candidate is still comparable.
            placements.push(ArrayPlacement {
                array: id,
                placement: Placement::Served {
                    prefetch: prefetch_plan(&refs),
                },
                est_bytes_per_pass: 0,
            });
            continue;
        };
        let p = place_array_with(meta, &refs, space, time, n_workers, params);
        total = total.saturating_add(p.est_bytes_per_pass);
        placements.push(p);
    }
    (placements, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use orion_ir::Subscript;

    fn plan_placements(
        spec: &LoopSpec,
        metas: &[ArrayMeta],
        space: Option<Dim>,
        time: Option<Dim>,
        n_workers: u64,
    ) -> (Vec<ArrayPlacement>, u64) {
        plan_placements_with(spec, metas, space, time, n_workers, &CostParams::default())
    }

    fn mf_spec() -> (LoopSpec, Vec<ArrayMeta>) {
        let (z, w, h) = (DistArrayId(0), DistArrayId(1), DistArrayId(2));
        let spec = LoopSpec::builder("mf", z, vec![600, 480])
            .read_write(w, vec![Subscript::Full, Subscript::loop_index(0)])
            .read_write(h, vec![Subscript::Full, Subscript::loop_index(1)])
            .build()
            .unwrap();
        let metas = vec![
            ArrayMeta::sparse(z, "ratings", vec![600, 480], 4, 80_000),
            ArrayMeta::dense(w, "W", vec![32, 600], 4),
            ArrayMeta::dense(h, "H", vec![32, 480], 4),
        ];
        (spec, metas)
    }

    #[test]
    fn mf_space0_places_w_local_h_rotated() {
        let (spec, metas) = mf_spec();
        let (pl, total) = plan_placements(&spec, &metas, Some(0), Some(1), 4);
        let w = pl.iter().find(|p| p.array == DistArrayId(1)).unwrap();
        let h = pl.iter().find(|p| p.array == DistArrayId(2)).unwrap();
        assert_eq!(w.placement, Placement::Local { array_dim: 1 });
        assert_eq!(h.placement, Placement::Rotated { array_dim: 1 });
        assert_eq!(w.est_bytes_per_pass, 0);
        // H = 32*480*4 bytes, rotated over 4 workers.
        assert_eq!(h.est_bytes_per_pass, 32 * 480 * 4 * 4);
        assert_eq!(total, h.est_bytes_per_pass);
    }

    #[test]
    fn smaller_array_rotates_in_cheaper_candidate() {
        let (spec, metas) = mf_spec();
        // space=0 rotates H (480 cols); space=1 rotates W (600 cols).
        let (_, cost_rot_h) = plan_placements(&spec, &metas, Some(0), Some(1), 4);
        let (_, cost_rot_w) = plan_placements(&spec, &metas, Some(1), Some(0), 4);
        assert!(cost_rot_h < cost_rot_w);
    }

    #[test]
    fn unknown_subscripts_are_served_with_recorded_prefetch() {
        let (z, wts) = (DistArrayId(0), DistArrayId(1));
        let spec = LoopSpec::builder("slr", z, vec![1000])
            .read(wts, vec![Subscript::unknown()])
            .write(wts, vec![Subscript::unknown()])
            .buffer_writes(wts)
            .build()
            .unwrap();
        let metas = vec![
            ArrayMeta::sparse(z, "samples", vec![1000], 16, 1000),
            ArrayMeta::dense(wts, "weights", vec![100_000], 4),
        ];
        let (pl, _) = plan_placements(&spec, &metas, Some(0), None, 4);
        assert_eq!(
            pl[0].placement,
            Placement::Served {
                prefetch: PrefetchPlan::Recorded
            }
        );
    }

    #[test]
    fn dsm_derived_subscripts_not_prefetchable() {
        let r = ArrayRef::read(DistArrayId(0), vec![Subscript::unknown_from_dist_array()]);
        assert_eq!(prefetch_plan(&[&r]), PrefetchPlan::None);
    }

    #[test]
    fn static_prefetch_for_exact_subscripts() {
        let r = ArrayRef::read(DistArrayId(0), vec![Subscript::loop_index(0)]);
        assert_eq!(prefetch_plan(&[&r]), PrefetchPlan::Static);
    }

    #[test]
    fn halo_cost_for_offset_spread() {
        let (z, a) = (DistArrayId(0), DistArrayId(1));
        let spec = LoopSpec::builder("stencil", z, vec![100])
            .read(a, vec![Subscript::loop_index(0).shifted(-1)])
            .read(a, vec![Subscript::loop_index(0).shifted(1)])
            .write(a, vec![Subscript::loop_index(0)])
            .build()
            .unwrap();
        let metas = vec![
            ArrayMeta::dense(z, "grid", vec![100], 4),
            ArrayMeta::dense(a, "field", vec![100], 8),
        ];
        let (pl, total) = plan_placements(&spec, &metas, Some(0), None, 4);
        assert_eq!(pl[0].placement, Placement::Local { array_dim: 0 });
        // Halo spread = 2 offsets, slice = 8 bytes, 4 workers.
        assert_eq!(total, 2 * 8 * 4);
    }

    #[test]
    fn default_params_reproduce_static_costs_bit_exactly() {
        let (spec, metas) = mf_spec();
        for (space, time) in [(Some(0), Some(1)), (Some(1), Some(0)), (Some(0), None)] {
            let a = plan_placements(&spec, &metas, space, time, 4);
            let b = plan_placements_with(&spec, &metas, space, time, 4, &CostParams::default());
            assert_eq!(a, b);
        }
    }

    #[test]
    fn served_weight_can_flip_the_cheapest_candidate() {
        // With the static 4x served weight the mixed-alignment array is
        // expensive; dropping served_byte_cost below the rotated weight
        // must lower the candidate's total accordingly.
        let (spec, metas) = mf_spec();
        let cheap_served = CostParams {
            served_byte_cost: 1.0,
            ..CostParams::default()
        };
        // space=None, time=None forces everything onto the server.
        let (_, static_cost) = plan_placements(&spec, &metas, None, None, 4);
        let (_, tuned_cost) = plan_placements_with(&spec, &metas, None, None, 4, &cheap_served);
        assert_eq!(tuned_cost * 4, static_cost);
    }

    #[test]
    fn rotated_weight_scales_rotation_cost_only() {
        let (spec, metas) = mf_spec();
        let heavy_rotation = CostParams {
            rotated_byte_cost: 3.0,
            ..CostParams::default()
        };
        let (pl, _) = plan_placements_with(&spec, &metas, Some(0), Some(1), 4, &heavy_rotation);
        let w = pl.iter().find(|p| p.array == DistArrayId(1)).unwrap();
        let h = pl.iter().find(|p| p.array == DistArrayId(2)).unwrap();
        // Local W stays free; rotated H triples.
        assert_eq!(w.est_bytes_per_pass, 0);
        assert_eq!(h.est_bytes_per_pass, 3 * 32 * 480 * 4 * 4);
    }

    #[test]
    fn mixed_alignment_is_served() {
        // One ref keys the array by i0, another by i1: no single range
        // partition serves both locally or by rotation.
        let (z, a) = (DistArrayId(0), DistArrayId(1));
        let spec = LoopSpec::builder("l", z, vec![10, 10])
            .read(a, vec![Subscript::loop_index(0)])
            .write(a, vec![Subscript::loop_index(1)])
            .build()
            .unwrap();
        let metas = vec![
            ArrayMeta::dense(z, "z", vec![10, 10], 4),
            ArrayMeta::dense(a, "a", vec![10], 4),
        ];
        let (pl, _) = plan_placements(&spec, &metas, Some(0), Some(1), 2);
        assert!(matches!(pl[0].placement, Placement::Served { .. }));
    }
}
