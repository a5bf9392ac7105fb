//! Worker pool for replication-level parallelism.
//!
//! Every figure of the paper is a mean over dozens of independent
//! replications per (strategy, scheduler, load) point. Those replications
//! are embarrassingly parallel — each one is a pure function of
//! `(SimConfig, replication seed)` — so a caller builds **one** pool of
//! worker threads and passes it to every batch it runs
//! ([`crate::replicate::run_points`], [`crate::campaign::run_campaign`]).
//! There is no process-wide pool: the `procsim` binary builds its pool
//! in `main` and hands `&pool` to the subcommand.
//!
//! Design rules:
//!
//! * **Workers never coordinate.** A worker thread only ever executes one
//!   closed job (one simulation replication). All wave logic — which
//!   replication to submit next, when a point has converged — lives in the
//!   coordinator on the *caller's* thread (see [`crate::replicate`]).
//!   Consequently nothing submitted to the pool may block on the pool,
//!   and the pool cannot deadlock.
//! * **Thread count never changes results.** The pool only affects *when*
//!   a job runs, never what it computes; result ordering is re-imposed by
//!   the coordinator. A 1-thread pool is byte-identical to a 64-thread one.
//!
//! [`default_threads`] is the size to use when the caller asked for none:
//! the `PROCSIM_THREADS` environment variable, else
//! [`std::thread::available_parallelism`].

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

/// A unit of work: one closed, `'static` closure (in practice one
/// simulation replication).
type Job = Box<dyn FnOnce() + Send + 'static>;

/// State shared between the submitting side and the worker threads.
struct Shared {
    state: Mutex<State>,
    /// Signalled when a job is pushed or shutdown begins.
    available: Condvar,
}

struct State {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

/// A fixed-size pool of worker threads executing FIFO-submitted jobs.
///
/// Dropping the pool finishes all queued jobs, then joins every worker.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns a pool with exactly `threads` worker threads (at least 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            available: Condvar::new(),
        });
        let workers = (0..threads)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("procsim-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    // procsim-lint: allow(D004): OS thread spawn failing at pool construction is unrecoverable; abort with a clear message
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { shared, workers }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Queues a job for execution on some worker thread.
    ///
    /// Jobs run in FIFO submission order (up to `threads()` concurrently).
    /// The job must not block on this pool — workers are not reentrant.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        // workers catch job panics, so a poisoned lock still guards
        // coherent state; recover rather than cascade the panic
        let mut st = self
            .shared
            .state
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        st.jobs.push_back(Box::new(job));
        drop(st);
        self.shared.available.notify_one();
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared
            .state
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .shutdown = true;
        self.shared.available.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if let Some(job) = st.jobs.pop_front() {
                    break job;
                }
                if st.shutdown {
                    return;
                }
                st = shared
                    .available
                    .wait(st)
                    .unwrap_or_else(|p| p.into_inner());
            }
        };
        // A panicking job must not kill the worker — on a small pool that
        // would permanently lose capacity and eventually wedge every
        // submitter. Callers that need the panic (e.g. the replication
        // coordinator) catch it themselves and ship it over their result
        // channel; here it is logged and the worker moves on.
        if std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)).is_err() {
            eprintln!("procsim worker pool: a submitted job panicked; worker continues");
        }
    }
}

/// Pool size to use when the caller asked for none (the CLI without
/// `--threads`): `PROCSIM_THREADS` if set to a positive integer, else the
/// machine's available parallelism.
pub fn default_threads() -> usize {
    std::env::var("PROCSIM_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .or_else(|| std::thread::available_parallelism().ok().map(|n| n.get()))
        .unwrap_or(4)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    #[test]
    fn runs_every_submitted_job() {
        let pool = WorkerPool::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        let (tx, rx) = mpsc::channel();
        for _ in 0..100 {
            let counter = counter.clone();
            let tx = tx.clone();
            pool.submit(move || {
                counter.fetch_add(1, Ordering::SeqCst);
                let _ = tx.send(());
            });
        }
        for _ in 0..100 {
            rx.recv_timeout(std::time::Duration::from_secs(30))
                .expect("job completion");
        }
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn drop_finishes_queued_jobs() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(2);
            for _ in 0..50 {
                let counter = counter.clone();
                pool.submit(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
            // drop: must drain the queue, then join
        }
        assert_eq!(counter.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn single_thread_pool_preserves_fifo_order() {
        let pool = WorkerPool::new(1);
        let (tx, rx) = mpsc::channel();
        for i in 0..20 {
            let tx = tx.clone();
            pool.submit(move || {
                let _ = tx.send(i);
            });
        }
        drop(tx);
        drop(pool);
        let got: Vec<i32> = rx.iter().collect();
        assert_eq!(got, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn worker_survives_a_panicking_job() {
        let pool = WorkerPool::new(1);
        pool.submit(|| panic!("boom"));
        let (tx, rx) = mpsc::channel();
        pool.submit(move || {
            let _ = tx.send(42);
        });
        assert_eq!(
            rx.recv_timeout(std::time::Duration::from_secs(30)),
            Ok(42),
            "the single worker died with the panicking job"
        );
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}
