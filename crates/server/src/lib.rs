//! # imprints-server — the network front-end of the imprints engine
//!
//! Turns [`imprints_engine`] from a library into a service: a
//! thread-per-connection TCP server on `std::net` speaking a newline-
//! delimited text protocol ([`protocol`]: `QUERY`/`COUNT`/`TABLES`/
//! `STATS`/`PING`, tagged responses so clients can pipeline), with two
//! layers between the socket and the engine's worker pool:
//!
//! * **Admission control** ([`admission`]): a bounded queue with
//!   shed-on-overload — an offer past the configured depth gets an
//!   immediate `BUSY` reply, never a hang — and per-client round-robin
//!   dequeue, so a pipelining hog cannot starve its neighbors.
//! * **Batched dispatch** ([`Server`]'s dispatcher threads, one per pool
//!   worker): a dispatcher takes what queued while all of them were busy —
//!   it never waits for company — groups it by table and evaluates each
//!   group as one shared morsel pass
//!   ([`imprints_engine::Table::query_batch`]): one pinned snapshot and
//!   one sweep per segment answer the whole group. A connection is served
//!   by one dispatcher at a time, so its replies keep admission order.
//!
//! Shutdown ([`Server::shutdown`], also run on `Drop`) drains gracefully:
//! stop accepting, `BUSY` to everything queued, finish the in-flight
//! batches, hang up, and only then stop the engine's maintenance daemon.
//!
//! ```
//! use std::sync::Arc;
//! use colstore::{ColumnType, Value};
//! use imprints_engine::{Engine, EngineConfig};
//! use imprints_server::{Client, Server, ServerConfig};
//!
//! let engine = Arc::new(Engine::new(EngineConfig::default()));
//! let t = engine.create_table("readings", &[("sensor", ColumnType::U16)]).unwrap();
//! for i in 0..100u64 {
//!     t.append_row(&[Value::U16((i % 8) as u16)]).unwrap();
//! }
//! let server = Server::start(engine, ServerConfig::default()).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! let reply = client.count("readings", &["sensor=3"]).unwrap();
//! assert_eq!(reply.count(), Some(13));
//! ```

#![warn(missing_docs)]

pub mod admission;
mod batcher;
pub mod client;
mod conn;
pub mod protocol;
pub mod server;

pub use admission::{Admission, Drainer};
pub use client::{request_line, Client};
pub use protocol::{parse_reply, RawPred, Reply, Request};
pub use server::{Server, ServerConfig, ServerStats};
