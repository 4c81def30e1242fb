//! Persistent worker pool for the real-core execution path.
//!
//! The simulated engine models parallelism on a virtual clock; the
//! threaded engine ([`crate::threaded`]) runs the same schedules on
//! actual OS threads. Spawning threads per pass would dominate the
//! runtime of short passes, so the pool spawns its workers once and
//! reuses them across passes and epochs: each pass submits one job per
//! worker and the threads park on their injector channels in between.
//!
//! A worker that panics poisons the whole pool: the panic payload is
//! captured, a shared flag is raised so peers blocked on parcel
//! channels can bail out instead of deadlocking, and the pool refuses
//! further work. Callers observe the original panic message through
//! [`WorkerPool::panic_message`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// A unit of work dispatched to one pool worker.
pub(crate) type Job = Box<dyn FnOnce() + Send + 'static>;

/// Fixed-size pool of named OS threads, one injector channel per
/// worker so a pass can pin its per-worker state to a specific thread.
///
/// Dropping the pool closes the injectors and joins every worker; a
/// clean shutdown never blocks because idle workers are parked on
/// their (now disconnected) injector `recv`.
#[derive(Debug)]
pub struct WorkerPool {
    injectors: Vec<Sender<Job>>,
    handles: Vec<Option<JoinHandle<()>>>,
    panics: Arc<Mutex<Vec<(usize, String)>>>,
    poisoned: Arc<AtomicBool>,
}

impl WorkerPool {
    /// Spawns `n` workers (at least one). Threads are named
    /// `orion-worker-{w}` so they are identifiable in debuggers and
    /// panic backtraces.
    pub fn new(n: usize) -> Self {
        let n = n.max(1);
        let panics = Arc::new(Mutex::new(Vec::new()));
        let poisoned = Arc::new(AtomicBool::new(false));
        let mut injectors = Vec::with_capacity(n);
        let mut handles = Vec::with_capacity(n);
        for w in 0..n {
            let (tx, rx) = channel::<Job>();
            let panics = Arc::clone(&panics);
            let poisoned = Arc::clone(&poisoned);
            let handle = std::thread::Builder::new()
                .name(format!("orion-worker-{w}"))
                .spawn(move || {
                    while let Ok(job) = rx.recv() {
                        if let Err(payload) = catch_unwind(AssertUnwindSafe(job)) {
                            let msg = payload_message(payload.as_ref());
                            panics
                                .lock()
                                .unwrap_or_else(|p| p.into_inner())
                                .push((w, msg));
                            poisoned.store(true, Ordering::SeqCst);
                            break;
                        }
                    }
                })
                .expect("spawning a pool worker thread");
            injectors.push(tx);
            handles.push(Some(handle));
        }
        WorkerPool {
            injectors,
            handles,
            panics,
            poisoned,
        }
    }

    /// Number of workers in the pool.
    pub fn size(&self) -> usize {
        self.injectors.len()
    }

    /// Hands `job` to worker `w`'s injector. Jobs submitted to one
    /// worker run in submission order on the same OS thread.
    ///
    /// # Errors
    ///
    /// Fails if the pool is poisoned (a worker panicked) or `w`'s
    /// thread has exited; the job is returned unexecuted.
    pub(crate) fn submit(&self, w: usize, job: Job) -> Result<(), Job> {
        if self.poisoned.load(Ordering::SeqCst) {
            return Err(job);
        }
        self.injectors[w].send(job).map_err(|e| e.0)
    }

    /// True once any worker has panicked; the pool accepts no further
    /// jobs and should be discarded.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::SeqCst)
    }

    /// Shared flag passes can watch to abandon blocking waits when a
    /// peer worker dies mid-pass.
    pub(crate) fn poison_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.poisoned)
    }

    /// First recorded worker panic as `"worker {w} panicked: {msg}"`.
    pub(crate) fn panic_message(&self) -> Option<String> {
        let panics = self.panics.lock().unwrap_or_else(|p| p.into_inner());
        panics
            .first()
            .map(|(w, msg)| format!("worker {w} panicked: {msg}"))
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Disconnect the injectors so parked workers observe Err and
        // exit their loops, then join each thread.
        self.injectors.clear();
        for handle in self.handles.iter_mut().filter_map(Option::take) {
            // A worker that panicked already recorded its payload; the
            // join error itself carries nothing new.
            let _ = handle.join();
        }
    }
}

/// Best-effort rendering of a panic payload (the common `&str` and
/// `String` cases; anything else is opaque).
fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The host's available parallelism, defaulting to one worker when the
/// query fails (e.g. restricted sandboxes).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    #[test]
    fn jobs_reach_their_designated_worker() {
        let pool = WorkerPool::new(3);
        let (tx, rx) = channel();
        for w in 0..3 {
            let tx = tx.clone();
            pool.submit(
                w,
                Box::new(move || {
                    let name = std::thread::current().name().map(str::to_string);
                    tx.send((w, name)).unwrap();
                }),
            )
            .map_err(|_| "submit failed")
            .unwrap();
        }
        drop(tx);
        let mut seen: Vec<(usize, Option<String>)> = rx.iter().collect();
        seen.sort();
        assert_eq!(seen.len(), 3);
        for (w, name) in seen {
            assert_eq!(name.as_deref(), Some(format!("orion-worker-{w}").as_str()));
        }
    }

    #[test]
    fn pool_reuses_the_same_thread_across_submissions() {
        let pool = WorkerPool::new(1);
        let (tx, rx) = channel();
        for _ in 0..2 {
            let tx = tx.clone();
            pool.submit(
                0,
                Box::new(move || tx.send(std::thread::current().id()).unwrap()),
            )
            .map_err(|_| "submit failed")
            .unwrap();
        }
        let a = rx.recv().unwrap();
        let b = rx.recv().unwrap();
        assert_eq!(a, b, "epochs must reuse the persistent worker thread");
    }

    #[test]
    fn worker_panic_is_recorded_and_poisons_the_pool() {
        let pool = WorkerPool::new(2);
        pool.submit(0, Box::new(|| panic!("deliberate test panic")))
            .map_err(|_| "submit failed")
            .unwrap();
        while !pool.is_poisoned() {
            std::thread::yield_now();
        }
        let msg = pool.panic_message().expect("panic must be recorded");
        assert!(
            msg.contains("worker 0 panicked") && msg.contains("deliberate test panic"),
            "unhelpful panic message: {msg}"
        );
        assert!(pool.submit(1, Box::new(|| ())).is_err());
    }

    #[test]
    fn drop_joins_idle_workers_without_hanging() {
        let pool = WorkerPool::new(4);
        let (tx, rx) = channel();
        pool.submit(2, Box::new(move || tx.send(()).unwrap()))
            .map_err(|_| "submit failed")
            .unwrap();
        rx.recv().unwrap();
        drop(pool); // must return promptly
    }
}
