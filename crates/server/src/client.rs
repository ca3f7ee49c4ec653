//! A small blocking client for the line protocol, used by the example, the
//! `benchmark/` package and the loopback tests. One `Client` owns one
//! connection; [`send`](Client::send)/[`recv_reply`](Client::recv_reply)
//! expose the raw halves so callers can pipeline tagged requests.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::protocol::{self, Reply};

/// A blocking connection to an [`crate::Server`].
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects (with `TCP_NODELAY`, no timeouts).
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client { reader: BufReader::new(stream), writer })
    }

    /// Sets the socket read timeout (both halves share the socket).
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.writer.set_read_timeout(timeout)
    }

    /// Sends one request line (the newline is appended here).
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")
    }

    /// Receives one raw response line, without its newline.
    pub fn recv(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(line.trim_end().to_string())
    }

    /// Receives and parses one response line into `(tag, reply)`.
    pub fn recv_reply(&mut self) -> io::Result<(Option<String>, Reply)> {
        let line = self.recv()?;
        protocol::parse_reply(&line).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// One synchronous request/response round trip.
    pub fn roundtrip(&mut self, line: &str) -> io::Result<Reply> {
        self.send(line)?;
        Ok(self.recv_reply()?.1)
    }

    /// `QUERY table preds…` round trip.
    pub fn query(&mut self, table: &str, preds: &[&str]) -> io::Result<Reply> {
        self.roundtrip(&request_line("QUERY", table, preds))
    }

    /// `COUNT table preds…` round trip.
    pub fn count(&mut self, table: &str, preds: &[&str]) -> io::Result<Reply> {
        self.roundtrip(&request_line("COUNT", table, preds))
    }

    /// `PING` round trip (liveness).
    pub fn ping(&mut self) -> io::Result<Reply> {
        self.roundtrip("PING")
    }
}

/// Builds a `VERB table pred…` request line from wire-format predicate
/// tokens (e.g. `"sensor=3"`, `"value<=10"`, `"ts=5..9"`).
pub fn request_line(verb: &str, table: &str, preds: &[&str]) -> String {
    let mut line = format!("{verb} {table}");
    for p in preds {
        line.push(' ');
        line.push_str(p);
    }
    line
}
