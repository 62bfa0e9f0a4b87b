//! Hardening tests for the pool's non-blocking submission path: wakeup
//! under simultaneous completions, per-ticket panic isolation, 1-thread
//! pools that gather their own sub-jobs, and leak-freedom for abandoned
//! tickets. These are the properties the async serving front stands on —
//! a lost wakeup or a cross-ticket panic up here becomes a wedged or
//! corrupted query response down there.

use ppwf_repo::pool::WorkerPool;
use ppwf_repo::ticket::Ticket;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

#[test]
fn simultaneous_completions_wake_every_waiter() {
    // N waiter threads park on N tickets whose jobs all complete at the
    // same instant (a barrier releases them together). Every waiter must
    // wake — no lost notifications under the completion stampede.
    const N: usize = 8;
    let pool = Arc::new(WorkerPool::new(N));
    let go = Arc::new(Barrier::new(N));
    let tickets: Vec<_> = (0..N)
        .map(|i| {
            let go = Arc::clone(&go);
            pool.submit(move || {
                go.wait();
                i * 10
            })
        })
        .collect();
    let waiters: Vec<_> = tickets
        .into_iter()
        .enumerate()
        .map(|(i, t)| std::thread::spawn(move || (i, t.wait())))
        .collect();
    for w in waiters {
        let (i, v) = w.join().expect("waiter woke and returned");
        assert_eq!(v, i * 10);
    }
}

#[test]
fn panic_reaches_exactly_the_owning_ticket() {
    let pool = Arc::new(WorkerPool::new(2));
    let poisoned = 3usize;
    let tickets: Vec<_> = (0..8usize)
        .map(|i| {
            pool.submit(move || {
                if i == poisoned {
                    panic!("job {i} exploded");
                }
                i
            })
        })
        .collect();
    for (i, t) in tickets.into_iter().enumerate() {
        if i == poisoned {
            let caught = catch_unwind(AssertUnwindSafe(move || t.wait()));
            assert!(caught.is_err(), "the poisoned ticket must re-throw");
        } else {
            assert_eq!(t.wait(), i, "sibling tickets must complete normally");
        }
    }
    // The pool survives: workers caught the panic, nothing is wedged.
    assert_eq!(pool.submit(|| 1u8).wait(), 1);
}

#[test]
fn one_thread_pool_gather_waiting_on_its_own_jobs_cannot_deadlock() {
    // The classic async-serving shape: a job submitted to a 1-thread pool
    // fans out sub-jobs to the same pool and waits on their tickets. The
    // only worker is busy running the outer job, so progress exists only
    // because Ticket::wait helps drain the queue (caller-helping on the
    // async path).
    let pool = Arc::new(WorkerPool::new(1));
    let inner_pool = Arc::clone(&pool);
    let outer = pool.submit(move || {
        let subs: Vec<Ticket<usize>> =
            (0..6usize).map(|i| inner_pool.submit(move || i * i)).collect();
        subs.into_iter().map(|t| t.wait()).sum::<usize>()
    });
    assert_eq!(outer.wait(), (0..6).map(|i| i * i).sum::<usize>());
}

#[test]
fn external_waiter_on_one_thread_pool_also_helps() {
    // Same shape, but the waiter is a plain caller thread (not a pool
    // job): it must drain shard-style jobs itself rather than park.
    let pool = Arc::new(WorkerPool::new(1));
    let counter = Arc::new(AtomicUsize::new(0));
    let tickets: Vec<_> = (0..10usize)
        .map(|i| {
            let counter = Arc::clone(&counter);
            pool.submit(move || {
                counter.fetch_add(1, Ordering::SeqCst);
                i
            })
        })
        .collect();
    for (i, t) in tickets.into_iter().enumerate() {
        assert_eq!(t.wait(), i);
    }
    assert_eq!(counter.load(Ordering::SeqCst), 10);
}

#[test]
fn dropping_unawaited_tickets_leaks_nothing() {
    let pool = Arc::new(WorkerPool::new(2));
    let probe = Arc::new(());
    let ran = Arc::new(AtomicUsize::new(0));
    for _ in 0..16 {
        let payload = Arc::clone(&probe);
        let ran = Arc::clone(&ran);
        let ticket = pool.submit(move || {
            ran.fetch_add(1, Ordering::SeqCst);
            payload // the result value holds a probe reference
        });
        drop(ticket); // fire-and-forget
    }
    // Drain: every job still runs to completion despite the dropped
    // handles.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while ran.load(Ordering::SeqCst) < 16 {
        assert!(std::time::Instant::now() < deadline, "dropped tickets stalled their jobs");
        if !pool.help_one() {
            std::thread::yield_now();
        }
    }
    // Once the completers' state is gone, so are the unawaited values: the
    // probe's only reference is ours again.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while Arc::strong_count(&probe) > 1 {
        assert!(std::time::Instant::now() < deadline, "unawaited ticket values leaked");
        std::thread::yield_now();
    }
}
