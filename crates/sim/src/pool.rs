//! A tiny persistent worker pool for deterministic intra-simulation
//! parallelism.
//!
//! The engine steps partitions of switches in parallel inside a cycle, which
//! means a dispatch every few microseconds — far too often to spawn scoped
//! threads. This pool keeps `workers` threads parked on a condvar and hands
//! them one task-indexed job at a time: [`WorkerPool::run`] publishes the
//! closure, every thread (the caller included) claims task indices from a
//! shared counter, and `run` returns only once all tasks have finished. No
//! work queues, no channels, no allocation per dispatch.
//!
//! The pool is deliberately *not* a scheduler: determinism comes from the
//! engine giving each task index a disjoint slice of state and merging
//! results in fixed task order afterwards, so it does not matter which
//! thread runs which task, only that `run` is a barrier.

use std::sync::{Condvar, Mutex};
use std::thread::JoinHandle;

/// A raw pointer to the job closure, valid only while the dispatching
/// [`WorkerPool::run`] call is blocked.
///
/// Soundness: `run` publishes the pointer under the pool mutex, participates
/// in the claim loop itself, and does not return until `pending == 0` — i.e.
/// until every claimed task has finished executing. Workers only dereference
/// the pointer for task indices claimed while `next < tasks`, and the epoch
/// counter keeps a late-waking worker from touching a previous job's
/// pointer. The closure therefore never outlives the borrow it was created
/// from.
#[derive(Clone, Copy)]
struct JobPtr(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared calls from many threads are fine)
// and the pointer's lifetime is protected by the `run` barrier above.
unsafe impl Send for JobPtr {}

struct PoolState {
    /// The published job; `None` between dispatches.
    job: Option<JobPtr>,
    /// Bumped on every dispatch so stale wakeups never re-run an old job.
    epoch: u64,
    /// Total task count of the current job.
    tasks: usize,
    /// Next unclaimed task index.
    next: usize,
    /// Claimed-but-unfinished plus unclaimed tasks; `run` returns at zero.
    pending: usize,
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    /// Signalled when a job is published or the pool shuts down.
    work: Condvar,
    /// Signalled when the last task of a job finishes.
    done: Condvar,
}

/// A fixed set of persistent worker threads; see the module docs.
pub struct WorkerPool {
    shared: std::sync::Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` persistent threads (the caller participates in every
    /// job, so a pool for `P` partitions needs `P - 1` workers).
    pub fn new(workers: usize) -> Self {
        let shared = std::sync::Arc::new(Shared {
            state: Mutex::new(PoolState {
                job: None,
                epoch: 0,
                tasks: 0,
                next: 0,
                pending: 0,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|_| {
                let shared = shared.clone();
                std::thread::spawn(move || Self::worker_loop(&shared))
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Number of worker threads (excluding the caller).
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    fn worker_loop(shared: &Shared) {
        let mut seen_epoch = 0u64;
        let mut state = shared.state.lock().unwrap();
        loop {
            while !state.shutdown && (state.job.is_none() || state.epoch == seen_epoch) {
                state = shared.work.wait(state).unwrap();
            }
            if state.shutdown {
                return;
            }
            seen_epoch = state.epoch;
            let job = state.job.expect("woken with an epoch but no job");
            state = Self::claim_loop(shared, state, job);
        }
    }

    /// Claims and runs task indices until none remain; returns holding the
    /// lock. Shared by workers and the dispatching caller.
    fn claim_loop<'a>(
        shared: &'a Shared,
        mut state: std::sync::MutexGuard<'a, PoolState>,
        job: JobPtr,
    ) -> std::sync::MutexGuard<'a, PoolState> {
        while state.next < state.tasks {
            let task = state.next;
            state.next += 1;
            drop(state);
            // SAFETY: see `JobPtr` — the dispatcher blocks until `pending`
            // hits zero, so the closure is alive for every claimed index.
            unsafe { (*job.0)(task) };
            state = shared.state.lock().unwrap();
            state.pending -= 1;
            if state.pending == 0 {
                shared.done.notify_all();
            }
        }
        state
    }

    /// Runs `f(0), f(1), …, f(tasks - 1)` across the pool (caller included)
    /// and returns once all calls have finished. Tasks may run in any order
    /// and concurrently; `f` must partition its own state by task index.
    /// A single task runs directly on the caller, without touching the lock.
    pub fn run(&self, tasks: usize, f: &(dyn Fn(usize) + Sync)) {
        match tasks {
            0 => return,
            1 => return f(0),
            _ => {}
        }
        // SAFETY (lifetime erasure): `*const dyn …` spells an implicit
        // `'static` bound the closure does not have; the barrier below keeps
        // the pointee alive for every dereference — see `JobPtr`.
        let job = JobPtr(unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(f)
        });
        let mut state = self.shared.state.lock().unwrap();
        debug_assert!(state.job.is_none(), "nested dispatch on one pool");
        state.job = Some(job);
        state.epoch += 1;
        state.tasks = tasks;
        state.next = 0;
        state.pending = tasks;
        self.shared.work.notify_all();
        state = Self::claim_loop(&self.shared, state, job);
        while state.pending > 0 {
            state = self.shared.done.wait(state).unwrap();
        }
        state.job = None;
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().unwrap();
            state.shutdown = true;
            self.shared.work.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_every_task_exactly_once() {
        let pool = WorkerPool::new(3);
        for round in 0..50 {
            let tasks = 1 + round % 7;
            let counts: Vec<AtomicUsize> = (0..tasks).map(|_| AtomicUsize::new(0)).collect();
            pool.run(tasks, &|t| {
                counts[t].fetch_add(1, Ordering::SeqCst);
            });
            for (t, c) in counts.iter().enumerate() {
                assert_eq!(c.load(Ordering::SeqCst), 1, "task {t} in round {round}");
            }
        }
    }

    #[test]
    fn zero_tasks_is_a_no_op() {
        let pool = WorkerPool::new(1);
        pool.run(0, &|_| panic!("no task should run"));
    }

    #[test]
    fn single_task_runs_once_on_the_caller() {
        let pool = WorkerPool::new(0);
        let caller = std::thread::current().id();
        let calls = AtomicUsize::new(0);
        pool.run(1, &|t| {
            assert_eq!(t, 0);
            assert_eq!(std::thread::current().id(), caller);
            calls.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn tasks_write_disjoint_slices_through_mutexes() {
        // The engine's usage pattern: each task locks its own per-partition
        // view; the pool only guarantees the barrier.
        let pool = WorkerPool::new(2);
        let parts: Vec<Mutex<Vec<u64>>> = (0..4).map(|_| Mutex::new(vec![0; 100])).collect();
        pool.run(4, &|t| {
            let mut part = parts[t].lock().unwrap();
            for (i, v) in part.iter_mut().enumerate() {
                *v = (t * 1000 + i) as u64;
            }
        });
        for (t, part) in parts.iter().enumerate() {
            let part = part.lock().unwrap();
            assert!(part
                .iter()
                .enumerate()
                .all(|(i, &v)| v == (t * 1000 + i) as u64));
        }
    }

    #[test]
    fn pool_shuts_down_cleanly_on_drop() {
        let pool = WorkerPool::new(4);
        pool.run(8, &|_| {});
        drop(pool); // must not hang
    }
}
