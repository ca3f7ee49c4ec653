//! Bounded, per-client-fair admission queue.
//!
//! Connections *offer* requests; dispatchers *drain* them in batches.
//! The queue enforces three policies the raw socket buffers cannot:
//!
//! * **Shed on overload** — the total queued count is bounded by
//!   [`ServerConfig::queue_depth`](crate::ServerConfig::queue_depth). An
//!   offer past the bound fails immediately and the connection replies
//!   `BUSY`; overload degrades into explicit rejections, never into hangs
//!   or unbounded memory growth.
//! * **Per-client fairness** — each client gets its own FIFO and the
//!   drain round-robins across clients, so one connection pipelining
//!   thousands of requests cannot starve a neighbor that sent one.
//! * **One drainer per client at a time** — several [`Drainer`]s may
//!   compete on one queue, but a client whose requests are in the batch a
//!   drainer is still serving is *in service*: every other drainer passes
//!   it over until that drainer comes back for more or drops. Two batches
//!   of one client therefore never run side by side, so its replies leave
//!   in the order its requests were admitted.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// A bounded multi-producer queue with round-robin drain. `T` is the
/// queued request type; clients are identified by an opaque `u64`.
pub struct Admission<T> {
    depth: usize,
    inner: Mutex<Inner<T>>,
    cv: Condvar,
    admitted: AtomicU64,
    shed: AtomicU64,
    next_drainer: AtomicU64,
}

struct Inner<T> {
    /// Per-client FIFOs; a client is present iff its FIFO is non-empty.
    queues: HashMap<u64, VecDeque<T>>,
    /// Round-robin order over the clients present in `queues`.
    rr: VecDeque<u64>,
    /// Total queued items across all clients.
    len: usize,
    closed: bool,
    /// Clients in service, each mapped to the [`Drainer`] holding it.
    in_service: HashMap<u64, u64>,
    /// Drainers parked on the condition variable right now.
    waiting: usize,
}

impl<T> Inner<T> {
    /// Takes every client `drainer` holds out of service.
    fn release(&mut self, drainer: u64) {
        self.in_service.retain(|_, holder| *holder != drainer);
    }

    /// Whether some queued item belongs to a client no drainer holds —
    /// i.e. whether a drainer woken now would find work.
    fn has_available(&self) -> bool {
        self.rr.iter().any(|client| !self.in_service.contains_key(client))
    }
}

/// One dispatcher's handle on the queue. It holds the clients of the batch
/// it drained last — no other drainer takes their requests — until its
/// next [`drain`](Drainer::drain) or its drop, whichever comes first; the
/// drop also runs while a panic unwinds, so a dispatcher that dies
/// mid-batch cannot strand a connection.
pub struct Drainer<'a, T> {
    admission: &'a Admission<T>,
    id: u64,
}

impl<T> Drainer<'_, T> {
    /// Releases the previous batch's clients, then blocks until a request
    /// of a client nobody else holds is queued and takes up to `max` such
    /// requests, round-robin across their clients. There is no timed wait:
    /// a batch is what queued while every drainer was busy. Returns an
    /// empty vec only when the queue is closed — the dispatcher's signal
    /// to exit.
    pub fn drain(&mut self, max: usize) -> Vec<T> {
        let mut inner = self.admission.state();
        inner.release(self.id);
        // Predicate loop: a wake is a *hint*, not a claim ticket. Between
        // our waits a competing drainer may take every available item —
        // `wait` releases the lock — so an empty pop with the queue still
        // open must go back to waiting, never return. An empty return is
        // reserved for closed, which the dispatcher reads as "exit".
        let batch = loop {
            let batch = Admission::pop_round_robin(&mut inner, max, self.id);
            if !batch.is_empty() || inner.closed {
                break batch;
            }
            inner.waiting += 1;
            inner = self.admission.cv.wait(inner).unwrap_or_else(PoisonError::into_inner);
            inner.waiting -= 1;
        };
        self.admission.pass_wake_on(&inner);
        batch
    }
}

impl<T> Drop for Drainer<'_, T> {
    fn drop(&mut self) {
        let mut inner = self.admission.state();
        inner.release(self.id);
        self.admission.pass_wake_on(&inner);
    }
}

impl<T> Admission<T> {
    /// Locks the queue state, recovering from poison: the guarded data is
    /// a plain bookkeeping structure whose invariants are restored by
    /// [`pop_round_robin`](Self::pop_round_robin) defensively, so a panic
    /// elsewhere must not take the whole dispatch plane down with it.
    fn state(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Wakes one waiting drainer if a release, or a pop that stopped at
    /// `max`, left takeable requests behind: they have spent their
    /// offer-time wake, or were offered in service and never had one.
    fn pass_wake_on(&self, inner: &Inner<T>) {
        if inner.has_available() {
            self.cv.notify_one();
        }
    }

    /// An empty queue bounded at `depth` total queued items.
    pub fn new(depth: usize) -> Admission<T> {
        assert!(depth > 0, "queue depth must be positive");
        Admission {
            depth,
            inner: Mutex::new(Inner {
                queues: HashMap::new(),
                rr: VecDeque::new(),
                len: 0,
                closed: false,
                in_service: HashMap::new(),
                waiting: 0,
            }),
            cv: Condvar::new(),
            admitted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            next_drainer: AtomicU64::new(0),
        }
    }

    /// Offers one item on behalf of `client`. Returns `false` — and counts
    /// a shed — when the queue is full or closed; the caller must reply
    /// `BUSY` and drop the item. Never blocks.
    pub fn offer(&self, client: u64, item: T) -> bool {
        let mut inner = self.state();
        if inner.closed || inner.len >= self.depth {
            drop(inner);
            self.shed.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let q = inner.queues.entry(client).or_default();
        let was_empty = q.is_empty();
        q.push_back(item);
        if was_empty {
            inner.rr.push_back(client);
        }
        inner.len += 1;
        // An in-service client's request can only go to the drainer
        // holding it, which looks again (or wakes another) on release.
        let wake = !inner.in_service.contains_key(&client);
        drop(inner);
        self.admitted.fetch_add(1, Ordering::Relaxed);
        if wake {
            self.cv.notify_one();
        }
        true
    }

    /// A new drainer holding no client yet.
    pub fn drainer(&self) -> Drainer<'_, T> {
        // ordering: Relaxed — the counter only hands out distinct ids; the
        // in-service map they key is read and written under `inner`.
        Drainer { admission: self, id: self.next_drainer.fetch_add(1, Ordering::Relaxed) }
    }

    /// One [`Drainer::drain`] by a drainer of its own, which releases the
    /// batch's clients as soon as it returns. `tick` is ignored — nothing
    /// lingers any more — and stays only because the benchmark's pinned
    /// surface calls `drain(1, Duration::ZERO)`.
    pub fn drain(&self, max: usize, _tick: Duration) -> Vec<T> {
        self.drainer().drain(max)
    }

    /// Closes the queue and returns everything still queued — in-service
    /// clients' requests included, each client's in admission order — so
    /// the caller can reply `BUSY` to each. Later offers fail; every
    /// blocked drainer wakes and returns empty.
    pub fn close(&self) -> Vec<T> {
        let mut inner = self.state();
        inner.closed = true;
        let mut leftover = Vec::with_capacity(inner.len);
        while let Some(client) = inner.rr.pop_front() {
            leftover.extend(inner.queues.remove(&client).unwrap_or_default());
        }
        inner.len = 0;
        drop(inner);
        self.cv.notify_all();
        leftover
    }

    /// Whether [`close`](Self::close) was called.
    pub fn is_closed(&self) -> bool {
        self.state().closed
    }

    /// Currently queued items.
    pub fn queued(&self) -> usize {
        self.state().len
    }

    /// Clients currently in service: held by a drainer that has not yet
    /// come back for its next batch.
    pub fn in_service(&self) -> usize {
        self.state().in_service.len()
    }

    /// Drainers blocked in [`Drainer::drain`], waiting for a request.
    #[cfg(test)]
    fn waiting(&self) -> usize {
        self.state().waiting
    }

    /// Items admitted over the queue's lifetime.
    pub fn admitted(&self) -> u64 {
        self.admitted.load(Ordering::Relaxed)
    }

    /// Items shed (offers rejected) over the queue's lifetime.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Pops up to `max` items round-robin for drainer `me`, which then
    /// holds their clients; clients another drainer holds are passed over
    /// and keep their turn. The invariant is that `rr` lists exactly the
    /// clients with non-empty FIFOs and `len` is their total; this walks
    /// off `rr` so a (theoretically impossible) stale entry is dropped and
    /// resynchronized instead of panicking a dispatcher that other
    /// connections depend on.
    fn pop_round_robin(inner: &mut Inner<T>, max: usize, me: u64) -> Vec<T> {
        let mut out = Vec::with_capacity(max.min(inner.len));
        let mut passed = Vec::new();
        while out.len() < max {
            let Some(client) = inner.rr.pop_front() else {
                break;
            };
            if inner.in_service.get(&client).is_some_and(|&holder| holder != me) {
                passed.push(client);
                continue;
            }
            let Some(q) = inner.queues.get_mut(&client) else {
                continue;
            };
            let Some(item) = q.pop_front() else {
                inner.queues.remove(&client);
                continue;
            };
            out.push(item);
            inner.len = inner.len.saturating_sub(1);
            inner.in_service.insert(client, me);
            if q.is_empty() {
                inner.queues.remove(&client);
            } else {
                inner.rr.push_back(client);
            }
        }
        for client in passed.into_iter().rev() {
            inner.rr.push_front(client);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{mpsc, Arc};
    use std::thread;

    #[test]
    fn sheds_past_depth_and_counts() {
        let q = Admission::new(3);
        assert!(q.offer(1, "a"));
        assert!(q.offer(1, "b"));
        assert!(q.offer(2, "c"));
        assert!(!q.offer(3, "d"), "fourth offer must shed");
        assert_eq!((q.admitted(), q.shed(), q.queued()), (3, 1, 3));
        // Draining frees capacity again.
        assert_eq!(q.drainer().drain(8).len(), 3);
        assert!(q.offer(3, "d"));
    }

    #[test]
    fn drain_is_round_robin_fair_across_clients() {
        let q = Admission::new(64);
        for i in 0..10 {
            assert!(q.offer(1, format!("hog-{i}")));
        }
        assert!(q.offer(2, "small-0".to_string()));
        assert!(q.offer(2, "small-1".to_string()));
        let batch = q.drainer().drain(4);
        // Client 2's two requests ride in the first four slots despite the
        // 10-deep pipeline from client 1.
        assert_eq!(batch, vec!["hog-0", "small-0", "hog-1", "small-1"]);
        assert_eq!(q.queued(), 8);
    }

    #[test]
    fn close_returns_leftovers_and_wakes_drainers() {
        let q = Arc::new(Admission::<u32>::new(8));
        let q2 = Arc::clone(&q);
        let waiter = thread::spawn(move || q2.drainer().drain(4));
        thread::sleep(Duration::from_millis(10));
        assert!(q.offer(1, 7));
        assert_eq!(waiter.join().unwrap(), vec![7]);
        assert!(q.offer(1, 8));
        assert_eq!(q.close(), vec![8]);
        assert!(!q.offer(1, 9), "offers after close must shed");
        assert!(q.drainer().drain(4).is_empty(), "drain after close returns empty");
    }

    #[test]
    fn in_service_client_is_passed_over_until_its_drainer_returns() {
        let q = Admission::new(64);
        let (mut a, mut b) = (q.drainer(), q.drainer());
        for (client, item) in [(1, "x0"), (1, "x1"), (2, "y0"), (1, "x2")] {
            assert!(q.offer(client, item));
        }
        assert_eq!(a.drain(1), ["x0"]);
        // Client 1 is first in line, but `a` holds it.
        assert_eq!(b.drain(8), ["y0"]);
        assert_eq!((q.queued(), q.in_service()), (2, 2));
        // Coming back releases client 1 and takes its backlog, in order.
        assert_eq!(a.drain(8), ["x1", "x2"]);
        assert_eq!(q.in_service(), 2);
        drop(a);
        assert_eq!(q.in_service(), 1);
        drop(b);
        assert_eq!(q.in_service(), 0);
    }

    /// Two drainers over pipelining clients: no client is ever in two
    /// batches at once, and each client's items are served in offer order
    /// although either drainer may serve them.
    #[test]
    fn competing_drainers_never_share_a_client_and_keep_its_order() {
        const CLIENTS: u64 = 3;
        const PER_CLIENT: u64 = 200;
        let q = Arc::new(Admission::<(u64, u64)>::new(1024));
        let busy: Arc<Vec<AtomicU64>> = Arc::new((0..CLIENTS).map(|_| AtomicU64::new(0)).collect());
        let next: Arc<Vec<AtomicU64>> = Arc::new((0..CLIENTS).map(|_| AtomicU64::new(0)).collect());
        let drainers: Vec<_> = (0..2)
            .map(|_| {
                let (q, busy, next) = (Arc::clone(&q), Arc::clone(&busy), Arc::clone(&next));
                thread::spawn(move || {
                    let mut drainer = q.drainer();
                    loop {
                        let batch = drainer.drain(5);
                        if batch.is_empty() {
                            return;
                        }
                        let mut clients: Vec<u64> = batch.iter().map(|&(c, _)| c).collect();
                        clients.sort_unstable();
                        clients.dedup();
                        for &c in &clients {
                            assert_eq!(busy[c as usize].fetch_add(1, Ordering::SeqCst), 0);
                        }
                        for (c, i) in batch {
                            assert_eq!(next[c as usize].fetch_add(1, Ordering::SeqCst), i);
                            thread::yield_now();
                        }
                        for &c in &clients {
                            assert_eq!(busy[c as usize].fetch_sub(1, Ordering::SeqCst), 1);
                        }
                    }
                })
            })
            .collect();
        let producers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    for i in 0..PER_CLIENT {
                        assert!(q.offer(c, (c, i)));
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        // A drainer only finishes early by failing an assertion; the joins
        // below report it.
        while next.iter().any(|n| n.load(Ordering::SeqCst) < PER_CLIENT)
            && !drainers.iter().any(|d| d.is_finished())
        {
            thread::yield_now();
        }
        q.close();
        for d in drainers {
            d.join().unwrap();
        }
    }

    /// A drainer that finds only an in-service client's requests queued
    /// blocks, and the holder's release — there is no timeout to fall back
    /// on — is what wakes it.
    #[test]
    fn waiting_drainer_is_woken_by_the_release() {
        let q = Arc::new(Admission::<u32>::new(8));
        let mut holder = q.drainer();
        assert!(q.offer(1, 1));
        assert_eq!(holder.drain(4), [1]);
        assert!(q.offer(1, 2));
        let (tx, rx) = mpsc::channel();
        let waiter = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let got = q.drainer().drain(4);
                tx.send(()).unwrap();
                got
            })
        };
        assert!(rx.recv_timeout(Duration::from_millis(50)).is_err(), "client 1 is held");
        assert_eq!(q.queued(), 1);
        drop(holder);
        assert_eq!(waiter.join().unwrap(), [2]);
    }

    #[test]
    fn panicking_drainer_releases_its_clients() {
        let q = Arc::new(Admission::<u32>::new(8));
        assert!(q.offer(1, 1));
        assert!(q.offer(1, 2));
        let (held_tx, held_rx) = mpsc::channel();
        let (die_tx, die_rx) = mpsc::channel::<()>();
        let dying = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                let mut drainer = q.drainer();
                held_tx.send(drainer.drain(1)).unwrap();
                die_rx.recv().unwrap();
                panic!("dispatcher dies mid-batch");
            })
        };
        assert_eq!(held_rx.recv().unwrap(), [1]);
        let waiter = {
            let q = Arc::clone(&q);
            thread::spawn(move || q.drainer().drain(4))
        };
        die_tx.send(()).unwrap();
        assert!(dying.join().is_err());
        assert_eq!(waiter.join().unwrap(), [2], "not stranded behind the dead holder");
        assert_eq!(q.in_service(), 0);
    }

    /// `close` hands back what is queued behind an in-service client too,
    /// exactly once, and wakes every blocked drainer with the exit batch.
    #[test]
    fn close_returns_in_service_backlog_once_and_wakes_every_drainer() {
        let q = Arc::new(Admission::<u32>::new(8));
        let mut holder = q.drainer();
        assert!(q.offer(1, 10));
        assert_eq!(holder.drain(1), [10]);
        for i in 11..14 {
            assert!(q.offer(1, i));
        }
        let blocked: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || q.drainer().drain(4))
            })
            .collect();
        assert_eq!(q.close(), [11, 12, 13]);
        for b in blocked {
            assert!(b.join().unwrap().is_empty(), "nothing was theirs to take");
        }
        assert!(holder.drain(4).is_empty());
        assert!(q.close().is_empty());
        assert_eq!(q.queued(), 0);
    }

    /// Spins until `done` holds — a state other threads reach — and fails
    /// the test, naming `what`, if that takes a minute.
    fn wait_until(what: &str, done: impl Fn() -> bool) {
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        while !done() {
            assert!(std::time::Instant::now() < deadline, "timed out waiting until {what}");
            thread::yield_now();
        }
    }

    /// Spurious-wakeup shape: two drainers race for one item. The loser's
    /// wake finds the queue empty and must go back to waiting — not return
    /// a phantom empty batch, which the dispatcher would misread as
    /// "closed, exit".
    #[test]
    fn racing_drainers_never_return_phantom_empty() {
        for _ in 0..50 {
            let q = Arc::new(Admission::<u32>::new(8));
            let drainers: Vec<_> = (0..2)
                .map(|_| {
                    let q = Arc::clone(&q);
                    thread::spawn(move || q.drainer().drain(4))
                })
                .collect();
            wait_until("both drainers park", || q.waiting() == 2);
            assert!(q.offer(1, 42));
            wait_until("one drainer takes the item, the other parks again", || {
                q.queued() == 0 && q.waiting() == 1
            });
            // Exactly one drainer owns the item; the other must still be
            // blocked. Closing releases it with the empty "exit" batch.
            let leftover = q.close();
            let batches: Vec<Vec<u32>> = drainers.into_iter().map(|d| d.join().unwrap()).collect();
            let got: Vec<u32> = batches.iter().flatten().copied().collect();
            assert!(leftover.is_empty(), "the item was drained, not left behind");
            assert_eq!(got, vec![42], "one drainer gets the item exactly once: {batches:?}");
            assert!(
                batches.iter().any(|b| b.is_empty()),
                "the losing drainer exits empty only after close"
            );
        }
    }

    /// Conservation under contention: every offered item is drained exactly
    /// once across competing drainers, and no drainer observes an empty
    /// batch while the queue is open.
    #[test]
    fn competing_drainers_conserve_items() {
        let q = Arc::new(Admission::<u64>::new(1024));
        let total: u64 = 400;
        let drainers: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut seen = Vec::new();
                    loop {
                        let batch = q.drainer().drain(7);
                        if batch.is_empty() {
                            assert!(q.is_closed(), "empty batch from an open queue");
                            return seen;
                        }
                        seen.extend(batch);
                    }
                })
            })
            .collect();
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    for i in 0..total / 4 {
                        while !q.offer(p, p * total + i) {
                            thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        // Let the drainers finish the backlog, then close to release them.
        while q.queued() > 0 {
            thread::yield_now();
        }
        assert!(q.close().is_empty());
        let mut all: Vec<u64> = drainers.into_iter().flat_map(|d| d.join().unwrap()).collect();
        all.sort_unstable();
        let expected: Vec<u64> =
            (0..4u64).flat_map(|p| (0..total / 4).map(move |i| p * total + i)).collect();
        let mut expected = expected;
        expected.sort_unstable();
        assert_eq!(all, expected, "every admitted item drained exactly once");
    }
}
