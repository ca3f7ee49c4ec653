//! The morsel-driven query executor.
//!
//! A [`WorkerPool`] owns a fixed set of threads pulling closures from a
//! shared queue — workers persist across queries, so serving a query costs
//! no thread spawns. A query *scatters* one task per segment-morsel (a
//! sealed segment is the natural morsel: fixed row count, cacheline
//! aligned, with its own index) and *gathers* the per-morsel results in
//! segment order, which keeps the merged id list globally sorted without a
//! sort step.
//!
//! Worker panics are contained per task: the panicking task's slot comes
//! back as `None` from [`WorkerPool::scatter`] and the worker thread
//! survives to serve the next task.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct State {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    cv: Condvar,
}

impl Shared {
    /// Locks the job queue, recovering from poison: a `VecDeque` of boxed
    /// jobs and a flag have no invariant a panic can break, and every
    /// worker — and every dispatcher blocked in `scatter` — depends on the
    /// lock staying usable.
    fn queue(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A fixed-size pool of persistent worker threads.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` threads (at least one).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State { jobs: VecDeque::new(), shutdown: false }),
            cv: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("imprints-worker-{i}"))
                    .spawn(move || Self::worker_loop(&shared))
                    // panic-ok: start-up, before any query runs; an engine
                    // that cannot start its workers cannot serve.
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool { shared, handles }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    fn worker_loop(shared: &Shared) {
        loop {
            let job = {
                let mut st = shared.queue();
                loop {
                    if let Some(job) = st.jobs.pop_front() {
                        break job;
                    }
                    if st.shutdown {
                        return;
                    }
                    st = shared.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
                }
            };
            // Contain task panics: the scatter side observes the dropped
            // result channel; this thread lives on.
            let _ = catch_unwind(AssertUnwindSafe(job));
        }
    }

    /// Enqueues one fire-and-forget job.
    pub fn spawn<F: FnOnce() + Send + 'static>(&self, f: F) {
        let mut st = self.shared.queue();
        if st.shutdown {
            return;
        }
        st.jobs.push_back(Box::new(f));
        drop(st);
        self.shared.cv.notify_one();
    }

    /// Runs every task on the pool and returns their results in input
    /// order. A task that panicked yields `None` in its slot.
    pub fn scatter<R, I, F>(&self, tasks: I) -> Vec<Option<R>>
    where
        R: Send + 'static,
        F: FnOnce() -> R + Send + 'static,
        I: IntoIterator<Item = F>,
    {
        let (tx, rx) = mpsc::channel::<(usize, R)>();
        let mut n = 0usize;
        for (i, task) in tasks.into_iter().enumerate() {
            let tx = tx.clone();
            self.spawn(move || {
                let r = task();
                // The receiver may have given up (query cancelled); a
                // failed send is fine.
                let _ = tx.send((i, r));
            });
            n += 1;
        }
        drop(tx);
        let mut out: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();
        // Every sender is either consumed by a finished task or dropped by
        // a panicked one, so this loop always terminates.
        while let Ok((i, r)) = rx.recv() {
            // panic-ok: `i` was enumerated from the `n` tasks counted above.
            out[i] = Some(r);
        }
        out
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.queue();
            st.shutdown = true;
        }
        self.cv_notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl WorkerPool {
    fn cv_notify_all(&self) {
        self.shared.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn scatter_preserves_order() {
        let pool = WorkerPool::new(4);
        let out = pool.scatter((0..100).map(|i| move || i * 2));
        assert_eq!(out.len(), 100);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, Some(i * 2));
        }
    }

    #[test]
    fn panicked_task_yields_none_and_pool_survives() {
        let pool = WorkerPool::new(2);
        let out = pool.scatter((0..8).map(|i| {
            move || {
                if i == 3 {
                    panic!("boom");
                }
                i
            }
        }));
        assert_eq!(out[3], None);
        assert_eq!(out.iter().filter(|v| v.is_some()).count(), 7);
        // Pool still works after a panic.
        let again = pool.scatter((0..4).map(|i| move || i + 1));
        assert!(again.iter().all(Option::is_some));
    }

    #[test]
    fn poisoned_queue_lock_does_not_kill_the_pool() {
        let pool = WorkerPool::new(2);
        let shared = Arc::clone(&pool.shared);
        let holder = std::thread::spawn(move || {
            let _guard = shared.state.lock().unwrap();
            panic!("dies holding the queue lock");
        });
        assert!(holder.join().is_err());
        assert!(pool.shared.state.is_poisoned());
        let out = pool.scatter((0..8).map(|i| move || i));
        assert!(out.iter().all(Option::is_some), "workers and scatter outlive the poison");
    }

    #[test]
    fn concurrent_scatters_with_panics_do_not_wedge_the_queue() {
        // Several requests share the pool while some of their tasks panic:
        // each scatter must come back full-length with `None` exactly in
        // its panicked slots — a panic in one request never stalls or
        // corrupts a neighbor — and the pool must stay usable afterwards.
        let pool = Arc::new(WorkerPool::new(3));
        let handles: Vec<_> = (0..6u64)
            .map(|req| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    let out = pool.scatter((0..32u64).map(move |i| {
                        move || {
                            if req % 2 == 0 && i % 8 == req / 2 {
                                panic!("task {i} of request {req} exploded");
                            }
                            req * 1000 + i
                        }
                    }));
                    (req, out)
                })
            })
            .collect();
        for h in handles {
            let (req, out) = h.join().unwrap();
            assert_eq!(out.len(), 32);
            for (i, slot) in out.iter().enumerate() {
                if req % 2 == 0 && (i as u64) % 8 == req / 2 {
                    assert_eq!(*slot, None, "request {req} slot {i} must report the panic");
                } else {
                    assert_eq!(*slot, Some(req * 1000 + i as u64));
                }
            }
        }
        let again = pool.scatter((0..16).map(|i| move || i));
        assert!(again.iter().all(Option::is_some), "pool must survive concurrent panics");
    }

    #[test]
    fn fire_and_forget_jobs_run() {
        let pool = WorkerPool::new(3);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let c = Arc::clone(&counter);
            pool.spawn(move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        // Synchronize via scatter (queue is FIFO per worker, so all spawned
        // jobs finish before the scatter results are all in... not strictly
        // true across workers; poll instead).
        for _ in 0..1000 {
            if counter.load(Ordering::SeqCst) == 50 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(counter.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn drop_joins_workers() {
        let pool = WorkerPool::new(2);
        drop(pool); // must not hang
    }
}
