//! A persistent serve worker pool.
//!
//! N worker threads drain one job queue for the life of the process, so
//! serving pays no per-call thread spawn. Every job is owned
//! (`'static`): [`WorkerPool::submit`] queues one and returns a
//! [`Ticket`] completion handle immediately, and
//! [`WorkerPool::exec`] queues a fire-and-forget job for code that manages
//! its own completion (the serving front's read and write jobs).
//!
//! Two properties matter for serving:
//!
//! * **Caller helping.** A thread waiting on a ticket drains the shared
//!   queue through [`WorkerPool::help_one`] instead of blocking, so a
//!   1-thread pool (or a pool saturated by jobs that themselves submit and
//!   wait) cannot deadlock, and single-core hosts pay no handoff for work
//!   the caller could have done itself.
//! * **Panic isolation.** A panicking job poisons nothing: `submit`
//!   captures the panic into its ticket, which re-throws it to exactly that
//!   ticket's owner, and the worker loop catches anything else — workers
//!   survive.

use crate::ticket::Ticket;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct Shared {
    queue: Mutex<VecDeque<Job>>,
    work_ready: Condvar,
    shutdown: AtomicBool,
}

/// A fixed-size pool of long-lived worker threads.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn a pool of `threads` workers (clamped to at least one).
    pub fn new(threads: usize) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            work_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..threads.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ppwf-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { shared, workers }
    }

    /// The process-wide shared pool, sized to the host's available
    /// parallelism. Built on first use; lives for the life of the process.
    pub fn global() -> &'static Arc<WorkerPool> {
        static GLOBAL: OnceLock<Arc<WorkerPool>> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let n = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
            Arc::new(WorkerPool::new(n))
        })
    }

    /// Queue an owned job and return a [`Ticket`] for its result. The
    /// call never blocks: the job runs on whichever worker (or helping
    /// waiter) pops it, and the ticket's owner collects the value — or
    /// the job's panic, re-thrown to exactly that owner — whenever it
    /// chooses. Dropping the ticket un-awaited leaks nothing.
    pub fn submit<T, F>(self: &Arc<Self>, f: F) -> Ticket<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let (ticket, completer) = Ticket::pending(Some(Arc::clone(self)));
        self.exec(move || match catch_unwind(AssertUnwindSafe(f)) {
            Ok(value) => completer.complete(value),
            Err(payload) => completer.complete_with_panic(payload),
        });
        ticket
    }

    /// Queue a fire-and-forget owned job. The worker loop catches panics,
    /// so a misbehaving job cannot take a worker down; callers that need
    /// the panic delivered somewhere should wrap the body themselves (as
    /// [`Self::submit`] does).
    pub fn exec<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'static,
    {
        self.shared.queue.lock().expect("pool queue").push_back(Box::new(f));
        self.shared.work_ready.notify_one();
    }

    /// Pop and run one queued job on the calling thread, if any; returns
    /// whether a job ran. This is the helping primitive [`Ticket::wait`]
    /// spins on.
    pub fn help_one(&self) -> bool {
        let job = self.shared.queue.lock().expect("pool queue").pop_front();
        match job {
            Some(job) => {
                let _ = catch_unwind(AssertUnwindSafe(job));
                true
            }
            None => false,
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Set under the queue lock: a worker between its shutdown check and
        // its wait holds that lock, so it either sees the flag or is already
        // waiting when the notification comes. Set without it, the
        // notification can land in that gap and the join below waits on a
        // worker that sleeps forever.
        let queue = self.shared.queue.lock();
        self.shared.shutdown.store(true, Ordering::SeqCst);
        drop(queue);
        self.shared.work_ready.notify_all();
        // The last handle may go inside one of the pool's own jobs: that
        // worker cannot join itself, and it leaves its loop once the job
        // returns, since `shutdown` is set.
        let current = std::thread::current().id();
        for w in self.workers.drain(..) {
            if w.thread().id() != current {
                let _ = w.join();
            }
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("pool queue");
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                queue = shared.work_ready.wait(queue).expect("pool queue");
            }
        };
        // `submit` delivers its own panics; this catch keeps a worker
        // alive through an `exec` job that panics.
        let _ = catch_unwind(AssertUnwindSafe(job));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturated_pool_cannot_deadlock() {
        // More jobs than workers, and the jobs themselves submit and wait:
        // callers and workers must all help drain the queue.
        let pool = Arc::new(WorkerPool::new(2));
        let outer: Vec<Ticket<u64>> = (0..8u64)
            .map(|i| {
                let inner = Arc::clone(&pool);
                pool.submit(move || {
                    let subs: Vec<_> = (0..3).map(|_| inner.submit(move || i)).collect();
                    subs.into_iter().map(Ticket::wait).sum::<u64>()
                })
            })
            .collect();
        let nested: u64 = outer.into_iter().map(Ticket::wait).sum();
        assert_eq!(nested, 3 * (0..8).sum::<u64>());
    }

    #[test]
    fn global_pool_is_shared() {
        let a = Arc::as_ptr(WorkerPool::global());
        let b = Arc::as_ptr(WorkerPool::global());
        assert_eq!(a, b);
        assert!(!WorkerPool::global().workers.is_empty());
    }

    #[test]
    fn submit_returns_a_working_ticket() {
        let pool = Arc::new(WorkerPool::new(2));
        let tickets: Vec<_> = (0..16u64).map(|i| pool.submit(move || i * 3)).collect();
        let out: Vec<u64> = tickets.into_iter().map(|t| t.wait()).collect();
        assert_eq!(out, (0..16u64).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn submit_on_one_thread_pool_helps_itself() {
        // The only worker may be busy; the waiter must drain the queue.
        let pool = Arc::new(WorkerPool::new(1));
        let inner = Arc::clone(&pool);
        let t = pool.submit(move || {
            let subs: Vec<_> = (0..4u64).map(|i| inner.submit(move || i + 1)).collect();
            subs.into_iter().map(|t| t.wait()).sum::<u64>()
        });
        assert_eq!(t.wait(), 1 + 2 + 3 + 4);
    }

    #[test]
    fn submitted_panic_reaches_only_its_ticket() {
        let pool = Arc::new(WorkerPool::new(2));
        let bad = pool.submit(|| -> u32 { panic!("submitted job exploded") });
        let good = pool.submit(|| 5u32);
        assert_eq!(good.wait(), 5);
        let caught = catch_unwind(AssertUnwindSafe(move || bad.wait()));
        assert!(caught.is_err(), "panic must re-throw from the owning ticket");
        assert_eq!(pool.submit(|| 9u32).wait(), 9, "workers survive");
    }

    #[test]
    fn the_last_handle_dropped_inside_a_job_does_not_join_its_own_worker() {
        let pool = Arc::new(WorkerPool::new(2));
        let handle = Arc::clone(&pool);
        let (release, released) = std::sync::mpsc::channel::<()>();
        let (report, reported) = std::sync::mpsc::channel();
        pool.exec(move || {
            released.recv().expect("released");
            // The only handle left: dropping it drops the pool on this
            // worker.
            let dropped = catch_unwind(AssertUnwindSafe(move || drop(handle)));
            report.send(dropped.is_ok()).expect("reported");
        });
        drop(pool);
        release.send(()).expect("job waiting");
        let ok = reported.recv_timeout(std::time::Duration::from_secs(10));
        assert_eq!(ok, Ok(true), "dropping the pool on its own worker panicked");
    }

    #[test]
    fn drop_joins_workers() {
        let pool = Arc::new(WorkerPool::new(3));
        let tickets: Vec<_> = (1..=3u8).map(|i| pool.submit(move || i)).collect();
        let out: Vec<u8> = tickets.into_iter().map(Ticket::wait).collect();
        // The tickets are gone, so this is the last handle: dropping it
        // joins every worker.
        let pool = Arc::try_unwrap(pool).ok().expect("no other handle is left");
        drop(pool);
        assert_eq!(out, vec![1, 2, 3]);
    }
}
