//! Per-connection reader: parses request lines, answers cheap verbs
//! inline, and offers QUERY/COUNT to the admission queue.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, PoisonError};

use crate::protocol::{self, RawPred, Request};
use crate::server::{Shared, Ticket};

/// The write half of one client connection. Shared between the reader
/// thread (inline replies) and the dispatchers (batched replies); the
/// mutex keeps response lines from interleaving.
pub(crate) struct Conn {
    pub id: u64,
    writer: Mutex<TcpStream>,
}

impl Conn {
    pub fn new(id: u64, writer: TcpStream) -> Conn {
        Conn { id, writer: Mutex::new(writer) }
    }

    /// Sends one response line, taken by value so the newline is pushed in
    /// place — a wide id reply is not copied again under the writer mutex.
    /// Write errors are swallowed: a client that vanished mid-flight only
    /// affects itself, and its reader thread will see the hangup and clean
    /// up.
    pub fn send(&self, mut line: String) {
        line.push('\n');
        // Poison recovery: the guarded value is a raw socket handle with no
        // invariants a panic could break; at worst the peer sees a torn
        // line and hangs up, which only affects that one client.
        let mut w = self.writer.lock().unwrap_or_else(PoisonError::into_inner);
        let _ = w.write_all(line.as_bytes());
    }
}

/// Outcome of one bounded line read (see [`read_line_capped`]).
enum LineOutcome {
    /// A complete line, newline stripped.
    Line(String),
    /// The line exceeded the cap; its remainder (through the newline) was
    /// discarded, so the reader is still line-synchronized.
    Oversized,
    /// The line's bytes were not valid UTF-8; the line was consumed.
    NotUtf8,
    /// EOF (including mid-line) or an I/O error: tear the connection down.
    Closed,
}

/// Reads one `\n`-terminated line of at most `max` bytes (terminator
/// excluded). Unlike `read_line`, an abusive peer streaming an endless
/// line costs bounded memory: past the cap the bytes are discarded
/// chunk-by-chunk until the newline, and the caller answers `ERR`.
fn read_line_capped(reader: &mut impl BufRead, max: usize) -> LineOutcome {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let chunk = match reader.fill_buf() {
            Ok([]) => return LineOutcome::Closed,
            Ok(c) => c,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return LineOutcome::Closed,
        };
        match chunk.iter().position(|&b| b == b'\n') {
            Some(nl) => {
                if buf.len() + nl > max {
                    reader.consume(nl + 1);
                    return LineOutcome::Oversized;
                }
                match chunk.get(..nl) {
                    Some(head) => buf.extend_from_slice(head),
                    None => return LineOutcome::Closed,
                }
                reader.consume(nl + 1);
                return match String::from_utf8(buf) {
                    Ok(s) => LineOutcome::Line(s),
                    Err(_) => LineOutcome::NotUtf8,
                };
            }
            None => {
                let n = chunk.len();
                if buf.len() + n > max {
                    reader.consume(n);
                    return skip_to_newline(reader);
                }
                buf.extend_from_slice(chunk);
                reader.consume(n);
            }
        }
    }
}

/// Discards bytes through the next newline after an over-cap prefix.
fn skip_to_newline(reader: &mut impl BufRead) -> LineOutcome {
    loop {
        let chunk = match reader.fill_buf() {
            Ok([]) => return LineOutcome::Closed,
            Ok(c) => c,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return LineOutcome::Closed,
        };
        match chunk.iter().position(|&b| b == b'\n') {
            Some(nl) => {
                reader.consume(nl + 1);
                return LineOutcome::Oversized;
            }
            None => {
                let n = chunk.len();
                reader.consume(n);
            }
        }
    }
}

/// Reader loop of one connection: one request per line until EOF/error.
pub(crate) fn serve(shared: Arc<Shared>, conn: Arc<Conn>, stream: TcpStream) {
    let mut reader = BufReader::new(stream);
    let max = shared.cfg.max_line_bytes;
    loop {
        let line = match read_line_capped(&mut reader, max) {
            LineOutcome::Line(l) => l,
            LineOutcome::Oversized => {
                // The offending line was never buffered, so its tag (if
                // any) is unknown — the ERR goes back untagged.
                shared.counters.requests.fetch_add(1, Ordering::Relaxed);
                conn.send(protocol::fmt_err(None, &format!("request line exceeds {max} bytes")));
                continue;
            }
            LineOutcome::NotUtf8 => {
                shared.counters.requests.fetch_add(1, Ordering::Relaxed);
                conn.send(protocol::fmt_err(None, "request line is not valid UTF-8"));
                continue;
            }
            LineOutcome::Closed => break,
        };
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        shared.counters.requests.fetch_add(1, Ordering::Relaxed);
        let (tag, body) = protocol::split_tag(trimmed);
        if shared.stopping() {
            // Draining: nothing new is admitted, but every request still
            // gets an explicit answer instead of silence.
            conn.send(protocol::fmt_busy(tag));
            continue;
        }
        match protocol::parse_request(body) {
            Err(msg) => conn.send(protocol::fmt_err(tag, &msg)),
            Ok(Request::Ping) => conn.send(protocol::fmt_ok_list(tag, &[])),
            Ok(Request::Tables) => {
                conn.send(protocol::fmt_ok_list(tag, &shared.engine.catalog().table_names()))
            }
            Ok(Request::Stats(table)) => conn.send(stats_line(&shared, tag, table.as_deref())),
            Ok(Request::Query { table, preds, any }) => {
                enqueue(&shared, &conn, tag, table, preds, any, false)
            }
            Ok(Request::Count { table, preds, any }) => {
                enqueue(&shared, &conn, tag, table, preds, any, true)
            }
        }
    }
    shared.forget_conn(conn.id);
}

/// Offers a QUERY/COUNT to admission; a full (or closed) queue sheds the
/// request with an immediate `BUSY` — never a hang.
fn enqueue(
    shared: &Arc<Shared>,
    conn: &Arc<Conn>,
    tag: Option<&str>,
    table: String,
    preds: Vec<RawPred>,
    any: bool,
    count_only: bool,
) {
    let ticket = Ticket {
        conn: Arc::clone(conn),
        tag: tag.map(str::to_string),
        table,
        preds,
        any,
        count_only,
    };
    if !shared.admission.offer(conn.id, ticket) {
        conn.send(protocol::fmt_busy(tag));
    }
}

fn stats_line(shared: &Shared, tag: Option<&str>, table: Option<&str>) -> String {
    match table {
        Some(name) => match shared.engine.catalog().table(name) {
            Err(e) => protocol::fmt_err(tag, &e.to_string()),
            Ok(t) => {
                let s = t.stats();
                let items = [
                    format!("rows={}", t.row_count()),
                    format!("queries={}", s.queries.load(Ordering::Relaxed)),
                    format!("rows_appended={}", s.rows_appended.load(Ordering::Relaxed)),
                    format!("segments_sealed={}", s.segments_sealed.load(Ordering::Relaxed)),
                    format!("compactions={}", s.compactions.load(Ordering::Relaxed)),
                ];
                protocol::fmt_ok_list(tag, &items)
            }
        },
        None => {
            let storage = shared.engine.catalog().storage_stats();
            let st = shared.stats();
            let items = [
                format!("tables={}", storage.tables),
                format!("rows={}", storage.rows),
                format!("sealed_segments={}", storage.sealed_segments),
                format!("index_bytes={}", storage.index_bytes),
                format!("data_bytes_resident={}", storage.data_bytes_resident),
                format!("data_bytes_evicted={}", storage.data_bytes_evicted),
                format!("evicted_segments={}", storage.evicted_segments),
                format!("faulted_bytes={}", storage.faulted_bytes),
                format!("persist_errors={}", storage.persist_errors),
                format!("connections={}", st.connections),
                format!("requests={}", st.requests),
                format!("admitted={}", st.admitted),
                format!("shed={}", st.shed),
                format!("queued={}", st.queued),
                format!("dispatchers={}", st.dispatchers),
                format!("in_service={}", st.in_service),
                format!("batches={}", st.batches),
                format!("batched_requests={}", st.batched_requests),
            ];
            protocol::fmt_ok_list(tag, &items)
        }
    }
}
