//! Span records and the recording buffer.

/// The phase a [`Span`] belongs to. The discriminant order is stable and
/// used to index [`crate::PhaseTotals`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum SpanCat {
    /// Executor running loop-body iterations of one block.
    Compute = 0,
    /// Executor blocked waiting for a rotated time partition to arrive.
    Rotation = 1,
    /// Served-array access: the prefetch round trip (or, with prefetch
    /// disabled, the per-read round-trip stall) plus recording cost.
    Prefetch = 2,
    /// Server applying an update batch (drawn on the machine's server
    /// track, concurrent with worker compute).
    Server = 3,
    /// Buffered-write flush / data-parallel parameter exchange.
    Flush = 4,
    /// Waiting on a step or pass barrier (straggler skew).
    Barrier = 5,
    /// Stalled between a machine crash and its detection (the barrier-
    /// timeout window of the failure detector).
    Fault = 6,
    /// Restarting the crashed machine and reloading the latest
    /// checkpoint before re-execution resumes.
    Recovery = 7,
    /// Writing a periodic checkpoint (atomic temp-file + rename).
    Checkpoint = 8,
    /// One online-inference query, timed around its `orion-serve`
    /// `ServeEngine::answer` call. Concurrent clients' queries overlap,
    /// so the category lives off the worker track like
    /// [`SpanCat::Server`]; span durations are wall-clock latencies and
    /// feed [`crate::LatencyStats`] in the run report.
    Serve = 9,
}

/// Number of span categories (size of [`crate::PhaseTotals`]).
pub const N_CATS: usize = 10;

impl SpanCat {
    /// All categories, in discriminant order.
    pub const ALL: [SpanCat; N_CATS] = [
        SpanCat::Compute,
        SpanCat::Rotation,
        SpanCat::Prefetch,
        SpanCat::Server,
        SpanCat::Flush,
        SpanCat::Barrier,
        SpanCat::Fault,
        SpanCat::Recovery,
        SpanCat::Checkpoint,
        SpanCat::Serve,
    ];

    /// Stable lower-case name, used as the Perfetto `cat` field and as
    /// JSON keys in [`crate::RunReport`].
    pub const fn name(self) -> &'static str {
        match self {
            SpanCat::Compute => "compute",
            SpanCat::Rotation => "rotation",
            SpanCat::Prefetch => "prefetch",
            SpanCat::Server => "server",
            SpanCat::Flush => "flush",
            SpanCat::Barrier => "barrier",
            SpanCat::Fault => "fault",
            SpanCat::Recovery => "recovery",
            SpanCat::Checkpoint => "checkpoint",
            SpanCat::Serve => "serve",
        }
    }

    /// True for categories that occupy the executor's own timeline.
    /// [`SpanCat::Server`] is excluded: server work is drawn on a
    /// separate per-machine track and overlaps worker compute, so it
    /// must not count toward executor timeline coverage.
    /// [`SpanCat::Serve`] is excluded for the same reason: in-flight
    /// requests overlap on their shard's track while they queue.
    pub const fn on_worker_track(self) -> bool {
        !matches!(self, SpanCat::Server | SpanCat::Serve)
    }
}

/// One recorded phase occurrence on a worker's virtual timeline.
///
/// Spans are plain 40-byte records; the buffer they live in is sized up
/// front so recording never allocates per span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Phase category.
    pub cat: SpanCat,
    /// Machine hosting the worker (Perfetto pid).
    pub machine: u32,
    /// Global worker id (Perfetto tid).
    pub worker: u32,
    /// Start, virtual nanoseconds.
    pub start_ns: u64,
    /// End, virtual nanoseconds (`end_ns >= start_ns`).
    pub end_ns: u64,
    /// Payload bytes attributable to this span (0 for pure compute).
    pub bytes: u64,
    /// Category-specific detail: block id for compute, sending worker
    /// for rotation, step for barriers.
    pub aux: u64,
}

impl Span {
    /// Span duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span buffer executors record into.
///
/// Disabled by default: [`Tracer::record`] is then a single branch, so
/// tracing support can stay compiled into release binaries without
/// disturbing the allocation-free hot path (DESIGN.md invariants).
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that starts recording immediately, with room for
    /// `capacity` spans before any reallocation.
    pub fn enabled(capacity: usize) -> Self {
        let mut t = Tracer::default();
        t.enable(capacity);
        t
    }

    /// Turns recording on, reserving `capacity` spans up front.
    pub fn enable(&mut self, capacity: usize) {
        self.enabled = true;
        self.spans.reserve(capacity);
    }

    /// True when spans are being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records one span. A no-op (one branch) when disabled; zero-length
    /// spans are dropped even when enabled so wait phases that did not
    /// actually wait leave no record.
    #[inline]
    #[allow(clippy::too_many_arguments)] // mirrors the Span field order
    pub fn record(
        &mut self,
        cat: SpanCat,
        machine: usize,
        worker: usize,
        start_ns: u64,
        end_ns: u64,
        bytes: u64,
        aux: u64,
    ) {
        if !self.enabled || end_ns <= start_ns {
            return;
        }
        self.spans.push(Span {
            cat,
            machine: machine as u32,
            worker: worker as u32,
            start_ns,
            end_ns,
            bytes,
            aux,
        });
    }

    /// The recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Consumes the tracer, returning its spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let mut t = Tracer::default();
        t.record(SpanCat::Compute, 0, 0, 0, 10, 0, 0);
        assert!(!t.is_enabled());
        assert!(t.spans().is_empty());
    }

    #[test]
    fn enabled_records_and_drops_empty_spans() {
        let mut t = Tracer::enabled(4);
        t.record(SpanCat::Rotation, 1, 5, 100, 100, 9, 0); // zero-length
        t.record(SpanCat::Rotation, 1, 5, 100, 160, 9, 3);
        assert_eq!(t.spans().len(), 1);
        let s = t.spans()[0];
        assert_eq!(s.dur_ns(), 60);
        assert_eq!((s.machine, s.worker, s.bytes, s.aux), (1, 5, 9, 3));
    }

    #[test]
    fn cat_names_are_distinct() {
        let mut names: Vec<&str> = SpanCat::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), N_CATS);
    }

    #[test]
    fn server_is_off_worker_track() {
        assert!(!SpanCat::Server.on_worker_track());
        // Serve spans overlap while requests queue, so they must not
        // count toward timeline coverage either.
        assert!(!SpanCat::Serve.on_worker_track());
        assert!(SpanCat::Compute.on_worker_track());
        assert!(SpanCat::Barrier.on_worker_track());
        // Fault-injection phases stall the executor itself, so they tile
        // the worker timeline like any other wait.
        assert!(SpanCat::Fault.on_worker_track());
        assert!(SpanCat::Recovery.on_worker_track());
        assert!(SpanCat::Checkpoint.on_worker_track());
    }
}
