//! The heap a job's setup holds at its peak, counted by a global
//! allocator over `System`: MF's setup at the `mf_threads` benchmark
//! shape builds its record table and plans straight from it, so its
//! live heap peaks at the records, the schedule's `u32` positions and
//! the model — under 20 bytes per rating. A per-item index vector
//! between the data and the schedule (16 bytes a rating for `[i64; 2]`,
//! more for `Vec<i64>`) breaks the bound.
//!
//! The allocator counts every thread of this binary, so it holds this
//! one test only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use orion::apps::run::App;
use orion::apps::sgd_mf::{MfApp, MfConfig};
use orion::core::{ClusterSpec, Driver};
use orion::data::{RatingsConfig, RatingsData};

/// `System`, counting the bytes it has handed out and not taken back.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

impl Counting {
    fn grew(by: usize) {
        let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to `System` unchanged; the counters only
// observe the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            Self::grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            Self::grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            Self::grew(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn mf_setup_peaks_under_twenty_bytes_per_rating() {
    // The `mf_threads` benchmark's ratings and rank.
    let data = RatingsData::generate(RatingsConfig {
        n_users: 2_400,
        n_items: 1_920,
        nnz: 320_000,
        true_rank: 16,
        skew: 0.7,
        noise: 0.1,
        seed: 1,
    });
    let app = MfApp::new(MfConfig::new(32), false);
    let mut driver = Driver::new(ClusterSpec::new(1, 2));
    driver.set_validate(false);

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let setup = app.setup(&data, &mut driver);
    let peak = PEAK.load(Ordering::Relaxed) - before;
    drop(setup);

    let per_rating = peak as f64 / data.nnz() as f64;
    assert!(
        per_rating <= 20.0,
        "MF setup peaked at {peak} B of live heap, {per_rating:.1} B per rating"
    );
}
