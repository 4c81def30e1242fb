//! What the host and the checkout say about this run: peak memory,
//! core count, commit.

use std::sync::OnceLock;

/// Largest resident set of any waited-for child process, in MB (0 when
/// none was spawned): the cluster's node processes.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn children_peak_rss_mb() -> f64 {
    /// `struct rusage` of Linux on 64-bit targets: two `timeval`s, then
    /// fourteen `long`s of which `ru_maxrss` (kilobytes) is the first.
    #[repr(C)]
    #[derive(Default)]
    struct Rusage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }
    const RUSAGE_CHILDREN: i32 = -1;
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }

    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable `struct rusage` of the layout
    // this target's libc defines (see `Rusage`), which is all
    // getrusage(2) requires of its out-pointer.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc == 0 {
        usage.maxrss as f64 / 1024.0
    } else {
        0.0
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn children_peak_rss_mb() -> f64 {
    0.0
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn self_peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What `RUSAGE_CHILDREN` read when `main` started. `cargo run` execs
/// the program in its own process, so after a build the program
/// inherits cargo's waited-for children — a 250 MB rustc — as its own.
static INHERITED_CHILDREN_MB: OnceLock<f64> = OnceLock::new();

/// Call first in `main`, before any child is spawned.
pub fn note_inherited_children() {
    INHERITED_CHILDREN_MB.get_or_init(children_peak_rss_mb);
}

/// The larger of this process's peak resident set and that of any
/// child it has spawned and waited for. Children that stayed below an
/// inherited peak cannot be told from it and are left out.
pub fn peak_rss_mb() -> f64 {
    let inherited = INHERITED_CHILDREN_MB.get().copied().unwrap_or(0.0);
    let children = children_peak_rss_mb();
    let own_children = if children > inherited { children } else { 0.0 };
    self_peak_rss_mb().max(own_children)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The checked-out commit, read from `.git` under the working
/// directory; `unknown` outside a git checkout (the regression gate
/// runs the benchmark from an exported tree).
pub fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_owned(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map_or_else(|_| head.clone(), |s| s.trim().to_owned()),
        None => head,
    }
}
