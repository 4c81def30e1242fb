//! Bulk prefetching of served DistArrays (paper §4.4).
//!
//! When a DistArray cannot be made local or rotated, it is hosted by
//! server processes and accessed remotely. Orion minimizes the resulting
//! random-access overhead by *bulk prefetching*: a synthesized function
//! computes the set of element indices the loop body will read, which
//! are fetched in one request before the block executes. This module
//! models the three regimes the paper measures for sparse logistic
//! regression on KDD2010 (§6.3):
//!
//! - **no prefetch** — every read is a synchronous round trip
//!   (7682 s/pass in the paper);
//! - **synthesized prefetch** — one bulk round trip per block, plus the
//!   cost of executing the recording pass that discovers the indices
//!   (9.2 s/pass);
//! - **cached prefetch indices** — the recording pass ran once and its
//!   output is reused (6.3 s/pass).

use orion_sim::{ClusterSpec, VirtualTime};

/// How read indices of a served array are obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetchMode {
    /// No prefetching: every element access is a synchronous round trip.
    Disabled,
    /// Subscripts are static expressions of the loop indices: the index
    /// list costs nothing to compute.
    Static,
    /// A synthesized recording pass executes the subscript-producing
    /// statements each pass (dead-code-elimination style slicing, §4.4).
    Recorded,
    /// The recording pass runs on the first pass only; later passes reuse
    /// the cached index list.
    CachedRecorded,
}

/// Model of one loop's served-array accesses.
#[derive(Debug, Clone)]
pub struct ServedModel {
    /// Prefetch regime.
    pub mode: PrefetchMode,
    /// Average served-element reads per iteration (for SLR: the expected
    /// number of nonzero features per data sample).
    pub reads_per_iter: f64,
    /// Wire bytes per element (index + payload).
    pub elem_wire_bytes: u64,
    /// Fraction of the block's compute cost that the recording pass
    /// costs (it executes only subscript-producing statements).
    pub record_cost_fraction: f64,
    /// True when every served subscript is a constant or full-range
    /// query: the fetched values are the same for every block, so a
    /// worker fetches once per pass and caches (e.g. LDA's buffered
    /// topic-summary row).
    pub cache_per_pass: bool,
}

impl ServedModel {
    /// A served model with typical defaults: recorded prefetch, 12-byte
    /// elements (8-byte index + f32), recording at 30% of block compute.
    pub fn recorded(reads_per_iter: f64) -> Self {
        ServedModel {
            mode: PrefetchMode::Recorded,
            reads_per_iter,
            elem_wire_bytes: 12,
            record_cost_fraction: 0.3,
            cache_per_pass: false,
        }
    }

    /// The worker acting as this worker's parameter server — modeled as a
    /// server process co-located round-robin on the *next machine*, so
    /// server traffic always crosses the network on multi-machine
    /// clusters.
    pub(crate) fn server_worker(&self, cluster: &ClusterSpec, worker: usize) -> usize {
        let m = cluster.machine_of(worker);
        let target_machine = (m + 1) % cluster.n_machines;
        target_machine * cluster.workers_per_machine
    }

    /// Returns `(extra worker time, request bytes, response bytes)` of
    /// served access for a block of `n_iters` iterations whose compute
    /// cost is `block_ns`.
    ///
    /// With prefetching the traffic is reported for one bulk round trip;
    /// without it, the round-trip latency of every individual read is
    /// charged directly as worker time (the network messages are tiny and
    /// latency-dominated, which is exactly the pathology §6.3 measures).
    pub(crate) fn block_cost(
        &self,
        cluster: &ClusterSpec,
        n_iters: u64,
        block_ns: f64,
        first_pass: bool,
    ) -> (VirtualTime, u64, u64) {
        let reads = (n_iters as f64 * self.reads_per_iter).ceil() as u64;
        let resp_bytes = reads * self.elem_wire_bytes;
        let req_bytes = 16 + reads * 8; // header + requested indices
        match self.mode {
            PrefetchMode::Disabled => {
                // Each read: request out + response back, latency bound.
                let rt = cluster.network.latency * 2;
                let per_read_wire = VirtualTime::from_secs_f64(
                    (8 + self.elem_wire_bytes) as f64 * 8.0 / cluster.network.bandwidth_bps,
                );
                ((rt + per_read_wire) * reads, 0, 0)
            }
            PrefetchMode::Static => (VirtualTime::ZERO, req_bytes, resp_bytes),
            PrefetchMode::Recorded => (
                VirtualTime::from_secs_f64(block_ns * self.record_cost_fraction / 1e9),
                req_bytes,
                resp_bytes,
            ),
            PrefetchMode::CachedRecorded => {
                let dt = if first_pass {
                    VirtualTime::from_secs_f64(block_ns * self.record_cost_fraction / 1e9)
                } else {
                    VirtualTime::ZERO
                };
                (dt, req_bytes, resp_bytes)
            }
        }
    }
}

/// Records the DistArray indices a loop body reads, for the synthesized
/// prefetch function (§4.4): the application's recording pass calls
/// [`IndexRecorder::record`] instead of performing real reads.
///
/// # Examples
///
/// ```
/// use orion_runtime::IndexRecorder;
/// let mut rec = IndexRecorder::new();
/// rec.record(7);
/// rec.record(3);
/// rec.record(7); // duplicates collapse
/// assert_eq!(rec.take_sorted(), vec![3, 7]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct IndexRecorder {
    indices: std::collections::BTreeSet<u64>,
}

impl IndexRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one flat element index.
    pub fn record(&mut self, flat: u64) {
        self.indices.insert(flat);
    }

    /// Number of distinct recorded indices.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Drains the recorded indices in sorted order (the bulk request).
    pub fn take_sorted(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.indices).into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster() -> ClusterSpec {
        let mut c = ClusterSpec::new(2, 2);
        c.network.bandwidth_bps = 8e9;
        c.network.latency = VirtualTime::from_micros(100);
        c
    }

    #[test]
    fn disabled_is_latency_dominated() {
        let c = cluster();
        let m = ServedModel {
            mode: PrefetchMode::Disabled,
            reads_per_iter: 10.0,
            elem_wire_bytes: 12,
            record_cost_fraction: 0.3,
            cache_per_pass: false,
        };
        let (dt, req, resp) = m.block_cost(&c, 100, 1_000_000.0, true);
        assert_eq!((req, resp), (0, 0));
        // 1000 reads × 200 us round trips = 0.2 s.
        assert!(dt >= VirtualTime::from_millis(200));
    }

    #[test]
    fn recorded_prefetch_charges_recording_and_bulk_bytes() {
        let c = cluster();
        let m = ServedModel::recorded(10.0);
        let (dt, req, resp) = m.block_cost(&c, 100, 1_000_000.0, false);
        assert_eq!(dt, VirtualTime::from_nanos(300_000));
        assert_eq!(resp, 1000 * 12);
        assert_eq!(req, 16 + 1000 * 8);
    }

    #[test]
    fn cached_recording_only_first_pass() {
        let c = cluster();
        let mut m = ServedModel::recorded(10.0);
        m.mode = PrefetchMode::CachedRecorded;
        let (first, _, _) = m.block_cost(&c, 100, 1_000_000.0, true);
        let (later, _, _) = m.block_cost(&c, 100, 1_000_000.0, false);
        assert!(first > VirtualTime::ZERO);
        assert_eq!(later, VirtualTime::ZERO);
    }

    #[test]
    fn static_prefetch_is_free_compute() {
        let c = cluster();
        let mut m = ServedModel::recorded(5.0);
        m.mode = PrefetchMode::Static;
        let (dt, req, _) = m.block_cost(&c, 10, 1000.0, true);
        assert_eq!(dt, VirtualTime::ZERO);
        assert!(req > 0);
    }

    #[test]
    fn server_worker_is_on_another_machine() {
        let c = cluster();
        let m = ServedModel::recorded(1.0);
        let s = m.server_worker(&c, 0);
        assert_ne!(c.machine_of(s), c.machine_of(0));
    }

    #[test]
    fn recorder_dedups_and_sorts() {
        let mut r = IndexRecorder::new();
        for i in [5u64, 1, 5, 9, 1] {
            r.record(i);
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.take_sorted(), vec![1, 5, 9]);
        assert!(r.is_empty());
    }
}
