//! A persistent scan/serve worker pool.
//!
//! `scan_executions` used to spawn scoped threads on every call; under
//! production traffic that per-query spawn cost dominates short scans, and
//! it leaves no shared substrate for the query layer's scatter/gather. The
//! [`WorkerPool`] is the long-lived replacement: N worker threads drain one
//! job queue for the life of the process, and callers submit *borrowing*
//! jobs through [`WorkerPool::scope`] — the same lifetime discipline as
//! `std::thread::scope`, without the spawn.
//!
//! Two properties matter for serving:
//!
//! * **Caller helping.** A thread waiting on its scope drains the shared
//!   queue instead of blocking, so a 1-thread pool (or a pool saturated by
//!   other scopes, or nested scopes from jobs that themselves scatter)
//!   cannot deadlock, and single-core hosts pay no handoff for work the
//!   caller could have done itself.
//! * **Panic propagation.** A panicking job poisons nothing: the panic is
//!   captured, the scope completes its remaining jobs, and the payload is
//!   re-thrown from `scope` on the submitting thread — workers survive.
//!
//! Next to the blocking scoped API sits the **non-blocking submission
//! path** the async serving front multiplexes on: [`WorkerPool::submit`]
//! queues an owned (`'static`) job and returns a
//! [`Ticket`](crate::ticket::Ticket) completion handle immediately, and
//! [`WorkerPool::exec`] queues a fire-and-forget job for code that manages
//! its own completion (the query layer's shard-task gathers). Both share
//! the one queue and the same workers with scoped jobs, so helping,
//! fairness and shutdown stay uniform across the two APIs.

use crate::ticket::Ticket;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct Shared {
    queue: Mutex<VecDeque<Job>>,
    work_ready: Condvar,
    shutdown: AtomicBool,
}

impl Shared {
    fn pop(&self) -> Option<Job> {
        self.queue.lock().expect("pool queue").pop_front()
    }
}

/// A fixed-size pool of long-lived worker threads.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

impl WorkerPool {
    /// Spawn a pool of `threads` workers (clamped to at least one).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            work_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ppwf-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { shared, workers, threads }
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

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `body` with a scope on which borrowing jobs can be spawned; every
    /// spawned job completes (on a worker or on this thread, which helps
    /// drain the queue while waiting) before `scope` returns. If any job
    /// panicked, the first captured payload is re-thrown here.
    pub fn scope<'env, R>(&self, body: impl FnOnce(&Scope<'_, 'env>) -> R) -> R {
        let state = Arc::new(ScopeState {
            lock: Mutex::new(Pending { jobs: 0, panic: None }),
            all_done: Condvar::new(),
        });
        let scope = Scope { pool: self, state: Arc::clone(&state), _env: std::marker::PhantomData };
        // The wait must happen even if `body` unwinds (spawned jobs borrow
        // the caller's frame), so it lives in a drop guard.
        let out = {
            let _guard = WaitGuard { pool: self, state: &state };
            body(&scope)
        };
        let panic = state.lock.lock().expect("scope state").panic.take();
        if let Some(payload) = panic {
            resume_unwind(payload);
        }
        out
    }

    /// Scatter: run every task (in submission order semantics — results come
    /// back positionally) and gather their outputs. The first task runs
    /// inline on the calling thread after the rest are queued, so a
    /// single-task scatter never touches the queue.
    pub fn run<'env, T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send + 'env,
        F: FnOnce() -> T + Send + 'env,
    {
        if self.threads == 1 || tasks.len() <= 1 {
            // Degenerate pool (single-core host), single task or none: queue
            // handoff buys nothing but wakeups and context switches — run
            // everything on the caller.
            return tasks.into_iter().map(|t| t()).collect();
        }
        let slots: Vec<Mutex<Option<T>>> = tasks.iter().map(|_| Mutex::new(None)).collect();
        self.scope(|s| {
            let mut first: Option<(F, &Mutex<Option<T>>)> = None;
            for (i, task) in tasks.into_iter().enumerate() {
                let slot = &slots[i];
                if i == 0 {
                    first = Some((task, slot));
                } else {
                    s.spawn(move || {
                        *slot.lock().expect("result slot") = Some(task());
                    });
                }
            }
            if let Some((task, slot)) = first {
                *slot.lock().expect("result slot") = Some(task());
            }
        });
        slots
            .into_iter()
            .map(|m| m.into_inner().expect("result slot").expect("task completed"))
            .collect()
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
        self.push(Box::new(f));
    }

    /// Pop and run one queued job on the calling thread, if any; returns
    /// whether a job ran. This is the helping primitive both the scope
    /// `WaitGuard` and [`Ticket::wait`] spin on.
    pub fn help_one(&self) -> bool {
        match self.shared.pop() {
            Some(job) => {
                let _ = catch_unwind(AssertUnwindSafe(job));
                true
            }
            None => false,
        }
    }

    /// Jobs currently queued (not yet picked up). A point-in-time gauge
    /// for serving stats; racing submitters make it advisory only.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.lock().expect("pool queue").len()
    }

    fn push(&self, job: Job) {
        self.shared.queue.lock().expect("pool queue").push_back(job);
        self.shared.work_ready.notify_one();
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.work_ready.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
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
        // Jobs are panic-wrapped by `Scope::spawn`; the extra catch keeps a
        // worker alive even for a future raw-job API.
        let _ = catch_unwind(AssertUnwindSafe(job));
    }
}

struct Pending {
    jobs: usize,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

struct ScopeState {
    lock: Mutex<Pending>,
    all_done: Condvar,
}

/// Handle for spawning borrowing jobs onto the pool; see
/// [`WorkerPool::scope`].
pub struct Scope<'pool, 'env> {
    pool: &'pool WorkerPool,
    state: Arc<ScopeState>,
    _env: std::marker::PhantomData<&'env mut &'env ()>,
}

impl<'pool, 'env> Scope<'pool, 'env> {
    /// Queue a job that may borrow from the enclosing frame. The job is
    /// guaranteed to finish before the enclosing `scope` call returns.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        self.state.lock.lock().expect("scope state").jobs += 1;
        let state = Arc::clone(&self.state);
        let wrapped = move || {
            let result = catch_unwind(AssertUnwindSafe(f));
            let mut pending = state.lock.lock().expect("scope state");
            if let Err(payload) = result {
                pending.panic.get_or_insert(payload);
            }
            pending.jobs -= 1;
            if pending.jobs == 0 {
                state.all_done.notify_all();
            }
        };
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(wrapped);
        // SAFETY: the job borrows only data outliving 'env. `WaitGuard`
        // (armed before the scope body runs, released in `scope`) blocks the
        // submitting thread — even through a panic — until `jobs` reaches
        // zero, i.e. until this closure has run to completion and dropped.
        // No borrow escapes the true lifetime, so erasing 'env to 'static
        // for the queue's benefit is sound.
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send>>(job)
        };
        self.pool.push(job);
    }
}

struct WaitGuard<'a> {
    pool: &'a WorkerPool,
    state: &'a ScopeState,
}

impl Drop for WaitGuard<'_> {
    fn drop(&mut self) {
        loop {
            if self.state.lock.lock().expect("scope state").jobs == 0 {
                return;
            }
            // Help: run one queued job (ours or another scope's) instead of
            // sleeping — this is what makes nested scatter and 1-thread
            // pools safe, and single-core hosts fast. One job per check, so
            // a scope whose own jobs are already done returns immediately
            // instead of draining unrelated queue depth.
            if self.pool.help_one() {
                continue;
            }
            let pending = self.state.lock.lock().expect("scope state");
            if pending.jobs == 0 {
                return;
            }
            // A job may still be running on a worker; wait briefly, then
            // re-check the queue (jobs can spawn jobs).
            let (pending, _) = self
                .state
                .all_done
                .wait_timeout(pending, std::time::Duration::from_millis(1))
                .expect("scope state");
            if pending.jobs == 0 {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn scatter_gathers_in_order() {
        let pool = WorkerPool::new(4);
        let tasks: Vec<_> = (0..32u64).map(|i| move || i * i).collect();
        let out = pool.run(tasks);
        assert_eq!(out, (0..32u64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn jobs_borrow_caller_state() {
        let pool = WorkerPool::new(2);
        let data = [1u64, 2, 3, 4, 5];
        let total = AtomicUsize::new(0);
        pool.scope(|s| {
            for chunk in data.chunks(2) {
                let total = &total;
                s.spawn(move || {
                    total.fetch_add(chunk.iter().sum::<u64>() as usize, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(total.load(Ordering::SeqCst), 15);
    }

    #[test]
    fn saturated_pool_cannot_deadlock() {
        // More jobs than workers, and the jobs themselves scatter: callers
        // and workers must all help drain the queue.
        let pool = WorkerPool::new(2);
        let nested: Vec<u64> = pool.run(
            (0..8u64)
                .map(|i| {
                    let pool = &pool;
                    move || {
                        pool.run((0..3).map(|_| move || i).collect::<Vec<_>>()).iter().sum::<u64>()
                    }
                })
                .collect(),
        );
        assert_eq!(nested.iter().sum::<u64>(), 3 * (0..8).sum::<u64>());
    }

    #[test]
    fn degenerate_pool_runs_inline() {
        let pool = WorkerPool::new(1);
        let out = pool.run((0..16u64).map(|i| move || i * 2).collect::<Vec<_>>());
        assert_eq!(out, (0..16u64).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn panics_propagate_and_workers_survive() {
        let pool = WorkerPool::new(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("job exploded"));
                s.spawn(|| {});
            });
        }));
        assert!(caught.is_err(), "job panic must surface in scope");
        // The pool still works afterwards.
        assert_eq!(pool.run(vec![|| 7u32]), vec![7]);
    }

    #[test]
    fn global_pool_is_shared() {
        let a = Arc::as_ptr(WorkerPool::global());
        let b = Arc::as_ptr(WorkerPool::global());
        assert_eq!(a, b);
        assert!(WorkerPool::global().threads() >= 1);
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
        assert_eq!(pool.run(vec![|| 9u32]), vec![9], "workers survive");
    }

    #[test]
    fn drop_joins_workers() {
        let pool = WorkerPool::new(3);
        let out = pool.run(vec![|| 1u8, || 2, || 3]);
        drop(pool);
        assert_eq!(out, vec![1, 2, 3]);
    }
}
