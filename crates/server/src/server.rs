//! Server assembly: listener, accept loop, shared state and the graceful
//! shutdown sequence.

use std::collections::HashMap;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;

use imprints_engine::{Engine, EngineConfig};

use crate::admission::Admission;
use crate::batcher;
use crate::conn::{self, Conn};
use crate::protocol::{fmt_busy, RawPred};

/// Server tuning. [`Server::start`] refuses a zero `queue_depth` or
/// `batch_max`.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address. Port `0` picks an ephemeral port; read it back with
    /// [`Server::local_addr`].
    pub addr: String,
    /// Maximum requests queued for dispatch across all clients. An offer
    /// past this depth is *shed*: the client gets an immediate `BUSY`
    /// reply instead of unbounded queueing — overload degrades into
    /// explicit rejections, never into hangs or memory growth.
    pub queue_depth: usize,
    /// Maximum requests dispatched as one batch. A dispatcher takes what
    /// queued while every dispatcher was busy — it never waits for
    /// company — groups it by table and evaluates each group as one shared
    /// morsel pass ([`Table::query_batch`](imprints_engine::Table::query_batch)):
    /// one segment sweep answers up to this many predicates. `1` is
    /// request-at-a-time dispatch.
    pub batch_max: usize,
    /// Hard cap on one request line's length in bytes (newline excluded).
    /// A longer line is discarded as it streams in — bounded memory per
    /// connection — and answered with an untagged `ERR`.
    pub max_line_bytes: usize,
}

impl Default for ServerConfig {
    /// Loopback on an ephemeral port, a queue of 1,024 requests, batches
    /// of up to 128.
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            queue_depth: 1024,
            batch_max: 128,
            // Generous for QUERY lines with many predicates, small enough
            // that a hostile pipeline cannot balloon reader memory.
            max_line_bytes: 64 * 1024,
        }
    }
}

impl ServerConfig {
    /// The server configuration for an engine configured as `cfg`: the
    /// [`Default`], since no engine setting shapes the serving layer.
    pub fn from_engine(_cfg: &EngineConfig) -> ServerConfig {
        ServerConfig::default()
    }

    /// Refuses a configuration the server cannot run: an admission queue
    /// that holds nothing, or batches that take nothing and leave every
    /// dispatcher waiting forever.
    fn validate(&self) -> io::Result<()> {
        let invalid = |what| Err(io::Error::new(io::ErrorKind::InvalidInput, what));
        if self.queue_depth == 0 {
            return invalid("queue_depth must be positive");
        }
        if self.batch_max == 0 {
            return invalid("batch_max must be positive");
        }
        Ok(())
    }
}

/// A snapshot of the server's counters (also served as `STATS` on the
/// wire).
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerStats {
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Request lines received (including inline verbs and shed requests).
    pub requests: u64,
    /// QUERY/COUNT requests admitted to the dispatch queue.
    pub admitted: u64,
    /// QUERY/COUNT requests shed with `BUSY`.
    pub shed: u64,
    /// Requests queued right now.
    pub queued: u64,
    /// Dispatcher threads: one per worker of the engine's pool.
    pub dispatchers: u64,
    /// Connections in service right now: some dispatcher holds a batch
    /// with their requests and has not yet written its last reply. With
    /// `queued` this tells "queue empty, dispatchers busy" from "idle".
    pub in_service: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Requests dispatched inside those batches.
    pub batched_requests: u64,
}

/// One queued QUERY/COUNT request, bound to its connection's write half.
pub(crate) struct Ticket {
    pub conn: Arc<Conn>,
    pub tag: Option<String>,
    pub table: String,
    pub preds: Vec<RawPred>,
    /// `true` for an `OR` group (union of the predicates).
    pub any: bool,
    pub count_only: bool,
}

impl Ticket {
    /// Answers the ticket with `BUSY` (shed after admission, at drain).
    pub fn reject(self) {
        self.conn.send(fmt_busy(self.tag.as_deref()));
    }
}

/// Cumulative server counters (lock-free; read by `STATS`).
#[derive(Default)]
pub(crate) struct Counters {
    pub connections: AtomicU64,
    pub requests: AtomicU64,
    pub batches: AtomicU64,
    pub batched_requests: AtomicU64,
}

/// State shared by the accept loop, connection readers and the dispatchers.
pub(crate) struct Shared {
    pub engine: Arc<Engine>,
    pub cfg: ServerConfig,
    pub admission: Admission<Ticket>,
    pub counters: Counters,
    stopping: AtomicBool,
    /// Socket clones of live connections, used to hang them up at
    /// shutdown; readers deregister themselves on natural disconnect.
    conns: Mutex<HashMap<u64, TcpStream>>,
    next_conn: AtomicU64,
}

impl Shared {
    pub fn stopping(&self) -> bool {
        // ordering: SeqCst pairs with the store in `shutdown`; the flag
        // gates BUSY-draining against the listener poke and queue close,
        // and the handful of loads per request make the strongest order
        // free in practice — not worth a weaker-order proof.
        self.stopping.load(Ordering::SeqCst)
    }

    pub fn forget_conn(&self, id: u64) {
        self.conns.lock().unwrap_or_else(PoisonError::into_inner).remove(&id);
    }

    pub fn stats(&self) -> ServerStats {
        ServerStats {
            connections: self.counters.connections.load(Ordering::Relaxed),
            requests: self.counters.requests.load(Ordering::Relaxed),
            admitted: self.admission.admitted(),
            shed: self.admission.shed(),
            queued: self.admission.queued() as u64,
            dispatchers: self.engine.pool().workers() as u64,
            in_service: self.admission.in_service() as u64,
            batches: self.counters.batches.load(Ordering::Relaxed),
            batched_requests: self.counters.batched_requests.load(Ordering::Relaxed),
        }
    }
}

/// The running server: accept thread + per-connection readers + one
/// batching dispatcher per worker of the engine's pool, in front of it.
///
/// Dropping the server runs the full graceful [`shutdown`](Server::shutdown).
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<thread::JoinHandle<()>>,
    dispatchers: Vec<thread::JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<thread::JoinHandle<()>>>>,
    down: bool,
}

impl Server {
    /// Binds `cfg.addr` and starts serving `engine`. A `cfg` with a zero
    /// `queue_depth` or `batch_max` is an [`io::ErrorKind::InvalidInput`]
    /// error, before anything is bound or started.
    pub fn start(engine: Arc<Engine>, cfg: ServerConfig) -> io::Result<Server> {
        cfg.validate()?;
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            admission: Admission::new(cfg.queue_depth),
            engine,
            cfg,
            counters: Counters::default(),
            stopping: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(1),
        });
        // A spawn that fails below drops `server`, whose shutdown releases
        // and joins the threads already started.
        let mut server = Server {
            shared,
            addr,
            accept: None,
            dispatchers: Vec::new(),
            conn_threads: Arc::new(Mutex::new(Vec::new())),
            down: false,
        };
        // One dispatcher per pool worker: independent connections are
        // served side by side on as many cores as the engine was given.
        for i in 0..server.shared.engine.pool().workers() {
            let s = Arc::clone(&server.shared);
            let spawned = thread::Builder::new()
                .name(format!("imprints-dispatch-{i}"))
                .spawn(move || batcher::run(&s))?;
            server.dispatchers.push(spawned);
        }
        let s = Arc::clone(&server.shared);
        let threads = Arc::clone(&server.conn_threads);
        let accept = thread::Builder::new()
            .name("imprints-accept".to_string())
            .spawn(move || accept_loop(listener, s, threads))?;
        server.accept = Some(accept);
        Ok(server)
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The served engine.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.shared.engine
    }

    /// Current counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// Graceful drain, in order:
    ///
    /// 1. stop accepting connections;
    /// 2. close the admission queue — everything still queued is answered
    ///    `BUSY`, requests arriving during the drain are answered `BUSY`
    ///    by their readers, and every dispatcher finishes its in-flight
    ///    batch before exiting (a half-dispatched batch is never aborted);
    /// 3. hang up the remaining connections and join their readers;
    /// 4. only then stop the engine's maintenance daemon.
    ///
    /// Idempotent; also run by `Drop`.
    pub fn shutdown(&mut self) {
        if self.down {
            return;
        }
        self.down = true;
        // ordering: SeqCst pairs with the load in `Shared::stopping`; the
        // self-connect poke below must observe the flag already set, and a
        // once-per-shutdown store has no cost to optimize.
        self.shared.stopping.store(true, Ordering::SeqCst);
        // Poke the listener awake so the accept loop observes the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for ticket in self.shared.admission.close() {
            ticket.reject();
        }
        for h in self.dispatchers.drain(..) {
            let _ = h.join();
        }
        for (_, sock) in self.shared.conns.lock().unwrap_or_else(PoisonError::into_inner).drain() {
            let _ = sock.shutdown(Shutdown::Both);
        }
        let handles: Vec<_> =
            self.conn_threads.lock().unwrap_or_else(PoisonError::into_inner).drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
        self.shared.engine.stop_maintenance();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: TcpListener,
    shared: Arc<Shared>,
    threads: Arc<Mutex<Vec<thread::JoinHandle<()>>>>,
) {
    for stream in listener.incoming() {
        if shared.stopping() {
            break;
        }
        let stream = match stream {
            Ok(s) => s,
            Err(_) => continue,
        };
        let _ = stream.set_nodelay(true);
        let (writer, registered) = match (stream.try_clone(), stream.try_clone()) {
            (Ok(w), Ok(r)) => (w, r),
            _ => continue,
        };
        let id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
        shared.counters.connections.fetch_add(1, Ordering::Relaxed);
        shared.conns.lock().unwrap_or_else(PoisonError::into_inner).insert(id, registered);
        let conn = Arc::new(Conn::new(id, writer));
        let s = Arc::clone(&shared);
        if let Ok(handle) = thread::Builder::new()
            .name(format!("imprints-conn-{id}"))
            .spawn(move || conn::serve(s, conn, stream))
        {
            threads.lock().unwrap_or_else(PoisonError::into_inner).push(handle);
        }
    }
}
