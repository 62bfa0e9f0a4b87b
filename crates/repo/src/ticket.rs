//! Completion handles for the pool's non-blocking submission path.
//!
//! A serving front wants many queries in flight per thread, so submission
//! must not wait for the work it queues. A [`Ticket`] decouples the two
//! halves: submission returns immediately with a handle, the job (or a
//! chain of jobs — a serving front's write ticket completes from whichever
//! of the write job and its covering fsync finishes last) completes the
//! handle whenever it is done, and the owner collects the value with
//! [`Ticket::wait`] only when it actually needs it. A ticket is either a value ([`Ticket::ready`],
//! the serving front's warm hits: no allocation, no lock) or a pending
//! state shared with its [`TicketCompleter`].
//!
//! Three properties hold for pending tickets:
//!
//! * **Caller helping.** A thread blocked in [`Ticket::wait`] drains the
//!   pool's queue instead of sleeping, so a 1-thread pool whose only
//!   worker is itself waiting on sub-tickets cannot deadlock, and the
//!   waiting thread's core keeps doing useful work.
//! * **Panic propagation, per ticket.** A panicking job completes *its*
//!   ticket with the payload, which [`Ticket::wait`] re-throws on the
//!   owning thread. Other tickets and the workers are untouched.
//! * **No leaks on abandonment.** Dropping an un-awaited ticket is fine:
//!   the job still runs, the value lands in the shared state, and
//!   everything is freed when the completer's reference drops. The
//!   reverse — a completer dropped without completing — marks the ticket
//!   abandoned so a waiter panics instead of parking forever.

use crate::pool::WorkerPool;
use std::any::Any;
use std::panic::resume_unwind;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// What a ticket currently holds.
enum Slot<T> {
    /// The job has not completed yet.
    Pending,
    /// The job finished with a value.
    Done(T),
    /// The job panicked; the payload is re-thrown by [`Ticket::wait`].
    Panicked(Box<dyn Any + Send>),
    /// The completer was dropped without completing — a bug in the
    /// submitting code path; waiting panics instead of hanging.
    Abandoned,
}

/// Shared completion state between a [`Ticket`] and its
/// [`TicketCompleter`].
struct State<T> {
    slot: Mutex<Slot<T>>,
    done: Condvar,
}

impl<T> State<T> {
    fn fill(&self, value: Slot<T>) {
        let mut slot = self.slot.lock().expect("ticket state");
        if matches!(*slot, Slot::Pending) {
            *slot = value;
        }
        drop(slot);
        self.done.notify_all();
    }
}

/// The owner's half of an in-flight result. See the module docs.
pub struct Ticket<T>(Repr<T>);

enum Repr<T> {
    /// Complete from the start: [`Ticket::ready`].
    Ready(T),
    /// Shared with a [`TicketCompleter`]; `pool` is the queue a waiter
    /// helps drain.
    Pending { state: Arc<State<T>>, pool: Option<Arc<WorkerPool>> },
}

/// The producer's half: complete it exactly once with a value or a panic
/// payload. Cheap to move into a job closure; dropping it un-completed
/// marks the ticket abandoned (a waiter panics rather than parks forever).
pub struct TicketCompleter<T> {
    state: Option<Arc<State<T>>>,
}

impl<T> Ticket<T> {
    /// A pending ticket plus its completer. `pool` is the queue a waiter
    /// helps drain; pass the pool the completing job runs on.
    pub fn pending(pool: Option<Arc<WorkerPool>>) -> (Ticket<T>, TicketCompleter<T>) {
        let state = Arc::new(State { slot: Mutex::new(Slot::Pending), done: Condvar::new() });
        let ticket = Ticket(Repr::Pending { state: Arc::clone(&state), pool });
        (ticket, TicketCompleter { state: Some(state) })
    }

    /// A ticket that is already complete — the serving front's inline
    /// warm-hit path, which never touches the queue. Allocates nothing.
    pub fn ready(value: T) -> Ticket<T> {
        Ticket(Repr::Ready(value))
    }

    /// Whether the ticket has completed (value, panic, or abandonment).
    /// `wait` will not block once this returns true.
    pub fn is_complete(&self) -> bool {
        match &self.0 {
            Repr::Ready(_) => true,
            Repr::Pending { state, .. } => {
                !matches!(*state.slot.lock().expect("ticket state"), Slot::Pending)
            }
        }
    }

    /// Block until the job completes and return its value. While pending,
    /// the calling thread helps drain the pool's queue (running other
    /// jobs — possibly including the ones this ticket waits on), and
    /// parks on the completion condvar only when the queue is empty. If
    /// the job panicked, the payload is re-thrown here — on the owning
    /// thread, and only here.
    pub fn wait(self) -> T {
        let (state, pool) = match self.0 {
            Repr::Ready(value) => return value,
            Repr::Pending { state, pool } => (state, pool),
        };
        loop {
            {
                let mut slot = state.slot.lock().expect("ticket state");
                match std::mem::replace(&mut *slot, Slot::Pending) {
                    Slot::Done(value) => return value,
                    Slot::Panicked(payload) => {
                        drop(slot);
                        resume_unwind(payload);
                    }
                    Slot::Abandoned => {
                        panic!("ticket abandoned: its completer was dropped without completing")
                    }
                    Slot::Pending => {}
                }
            }
            if let Some(pool) = &pool {
                if pool.help_one() {
                    continue;
                }
            }
            let slot = state.slot.lock().expect("ticket state");
            if !matches!(*slot, Slot::Pending) {
                continue;
            }
            // The completing job may still be mid-run on a worker. The
            // bounded wait re-checks the queue (jobs can spawn jobs the
            // helper should pick up).
            let _ = state.done.wait_timeout(slot, Duration::from_millis(1)).expect("ticket state");
        }
    }
}

impl<T> TicketCompleter<T> {
    /// Complete the ticket with a value and wake every waiter. Completing
    /// consumes the handle; a second completion cannot exist.
    pub fn complete(mut self, value: T) {
        if let Some(state) = self.state.take() {
            state.fill(Slot::Done(value));
        }
    }

    /// Complete the ticket with a captured panic payload; the owner's
    /// [`Ticket::wait`] re-throws it.
    pub fn complete_with_panic(mut self, payload: Box<dyn Any + Send>) {
        if let Some(state) = self.state.take() {
            state.fill(Slot::Panicked(payload));
        }
    }
}

impl<T> Drop for TicketCompleter<T> {
    fn drop(&mut self) {
        if let Some(state) = self.state.take() {
            state.fill(Slot::Abandoned);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn ready_ticket_returns_immediately() {
        let t = Ticket::ready(41u32);
        assert!(t.is_complete());
        assert_eq!(t.wait(), 41);
    }

    #[test]
    fn completer_wakes_a_parked_waiter() {
        let (ticket, completer) = Ticket::<u64>::pending(None);
        let waiter = std::thread::spawn(move || ticket.wait());
        std::thread::sleep(Duration::from_millis(5));
        completer.complete(7);
        assert_eq!(waiter.join().unwrap(), 7);
    }

    #[test]
    fn abandoned_completer_panics_the_waiter() {
        let (ticket, completer) = Ticket::<u64>::pending(None);
        drop(completer);
        let caught = catch_unwind(AssertUnwindSafe(move || ticket.wait()));
        assert!(caught.is_err(), "abandoned ticket must not hang");
    }

    #[test]
    fn dropped_ticket_still_lets_the_completer_run() {
        let probe = Arc::new(());
        let (ticket, completer) = Ticket::<Arc<()>>::pending(None);
        drop(ticket);
        completer.complete(Arc::clone(&probe));
        // The state (and the value inside) died with the completer's Arc.
        assert_eq!(Arc::strong_count(&probe), 1, "unawaited value must be freed");
    }
}
