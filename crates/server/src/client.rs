//! A minimal synchronous client for the [line protocol](crate::protocol).
//!
//! Used by the `uload client` CLI, the concurrent bench driver and the
//! integration tests. Two consumption styles:
//!
//! * whole-result: [`Client::query`] / [`Client::exec`] drain the row
//!   stream into an [`ExecReply`];
//! * streaming: [`Client::start_exec`] then [`Client::next_event`] row
//!   by row, with [`Client::cancel`] usable mid-stream — the handshake
//!   behind graceful per-request cancellation.

use std::io::{BufRead, BufReader, Write};

use uload_error::{Error, Result};

use crate::conn::{connect, BindAddr, Conn};
use crate::protocol::unescape;

/// A drained query result.
#[derive(Debug, Clone)]
pub struct ExecReply {
    /// Serialized result rows, in stream order.
    pub rows: Vec<String>,
    /// Whether the server answered from its result cache.
    pub cached: bool,
    /// Fingerprint of the plan that produced the rows.
    pub fingerprint: u64,
    /// Version of the document snapshot the rows came from.
    pub version: u64,
    /// Server-side wall time for the request, nanoseconds.
    pub ns: u64,
}

/// One protocol event while streaming a result.
#[derive(Debug, Clone)]
pub enum RowEvent {
    /// The next result row.
    Row(String),
    /// Normal end of stream.
    Done {
        rows: u64,
        cached: bool,
        fingerprint: u64,
        version: u64,
        ns: u64,
    },
    /// The server honored a `CANCEL` after delivering `rows` rows.
    Cancelled { rows: u64 },
}

/// A connected session.
pub struct Client {
    conn: Box<dyn Conn>,
    reader: BufReader<Box<dyn Conn>>,
}

impl Client {
    /// Connect to a serving [`BindAddr`] (TCP or Unix).
    pub fn connect(addr: &BindAddr) -> Result<Client> {
        let conn = connect(addr)?;
        let reader = BufReader::new(conn.try_clone_box()?);
        Ok(Client { conn, reader })
    }

    fn send_line(&mut self, line: &str) -> Result<()> {
        self.conn.write_all(line.as_bytes())?;
        self.conn.write_all(b"\n")?;
        self.conn.flush()?;
        Ok(())
    }

    fn read_line(&mut self) -> Result<String> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(Error::Io("server closed the connection".into()));
        }
        while line.ends_with(['\n', '\r']) {
            line.pop();
        }
        Ok(line)
    }

    /// Plan `query` on the server; returns the plan fingerprint to
    /// [`Client::exec`] under.
    pub fn prepare(&mut self, query: &str) -> Result<u64> {
        self.send_line(&format!("PREPARE {}", crate::protocol::escape(query)))?;
        let line = self.read_line()?;
        match line.split_once(' ') {
            Some(("PREPARED", rest)) => parse_hex_field(rest.trim(), "fp"),
            _ => Err(server_err(&line)),
        }
    }

    /// Run a prepared plan and drain the whole result.
    pub fn exec(&mut self, fp: u64) -> Result<ExecReply> {
        self.start_exec(fp)?;
        self.drain()
    }

    /// One-shot prepare + execute + drain.
    pub fn query(&mut self, query: &str) -> Result<ExecReply> {
        self.send_line(&format!("QUERY {}", crate::protocol::escape(query)))?;
        self.drain()
    }

    /// Send `EXEC` without draining — follow with [`Client::next_event`]
    /// (and optionally [`Client::cancel`]).
    pub fn start_exec(&mut self, fp: u64) -> Result<()> {
        self.send_line(&format!("EXEC {fp:016x}"))
    }

    /// Ask the server to abort the in-flight stream. Keep calling
    /// [`Client::next_event`]: rows already in flight still arrive,
    /// then a [`RowEvent::Cancelled`] terminator.
    pub fn cancel(&mut self) -> Result<()> {
        self.send_line("CANCEL")
    }

    /// Next event of an in-flight stream.
    pub fn next_event(&mut self) -> Result<RowEvent> {
        let line = self.read_line()?;
        let (verb, rest) = line.split_once(' ').unwrap_or((line.as_str(), ""));
        match verb {
            "ROW" => Ok(RowEvent::Row(unescape(rest))),
            "DONE" => Ok(RowEvent::Done {
                rows: parse_dec_field(rest, "rows")?,
                cached: field(rest, "cached")? == "true",
                fingerprint: parse_hex_field(rest, "fp")?,
                version: field(rest, "version")?
                    .trim_start_matches('v')
                    .parse()
                    .map_err(|_| Error::Parse(format!("bad version in {rest:?}")))?,
                ns: parse_dec_field(rest, "ns")?,
            }),
            "CANCELLED" => Ok(RowEvent::Cancelled {
                rows: parse_dec_field(rest, "rows")?,
            }),
            _ => Err(server_err(&line)),
        }
    }

    fn drain(&mut self) -> Result<ExecReply> {
        let mut rows = Vec::new();
        loop {
            match self.next_event()? {
                RowEvent::Row(xml) => rows.push(xml),
                RowEvent::Done {
                    cached,
                    fingerprint,
                    version,
                    ns,
                    ..
                } => {
                    return Ok(ExecReply {
                        rows,
                        cached,
                        fingerprint,
                        version,
                        ns,
                    })
                }
                RowEvent::Cancelled { .. } => {
                    return Err(Error::Eval("stream cancelled server-side".into()))
                }
            }
        }
    }

    /// Plan `query` server-side without executing it, returning the
    /// engine's typed explain — the plan's fingerprint and per-node
    /// estimate tree — as compact JSON text.
    pub fn explain_json(&mut self, query: &str) -> Result<String> {
        self.send_line(&format!("EXPLAIN {}", crate::protocol::escape(query)))?;
        let line = self.read_line()?;
        match line.split_once(' ') {
            Some(("EXPLAIN", json)) => Ok(json.to_string()),
            _ => Err(server_err(&line)),
        }
    }

    /// This session's [`obs::SessionProfile`] as compact JSON text.
    pub fn stats_json(&mut self) -> Result<String> {
        self.send_line("STATS")?;
        let line = self.read_line()?;
        match line.split_once(' ') {
            Some(("STATS", json)) => Ok(json.to_string()),
            _ => Err(server_err(&line)),
        }
    }

    /// The server-wide `METRICS` snapshot as compact JSON text
    /// (latency histograms, counters/gauges, cache rollups and q-error
    /// histograms — the shape of `schemas/metrics.schema.json`).
    pub fn metrics_json(&mut self) -> Result<String> {
        self.send_line("METRICS")?;
        let line = self.read_line()?;
        match line.split_once(' ') {
            Some(("METRICS", json)) => Ok(json.to_string()),
            _ => Err(server_err(&line)),
        }
    }

    /// Drain the server's slow-query log as a compact JSON array (each
    /// captured entry is delivered to exactly one caller).
    pub fn slowlog_json(&mut self) -> Result<String> {
        self.send_line("SLOWLOG")?;
        let line = self.read_line()?;
        match line.split_once(' ') {
            Some(("SLOWLOG", json)) => Ok(json.to_string()),
            _ => Err(server_err(&line)),
        }
    }

    /// Stop the whole server (it answers `BYE` and begins shutdown).
    pub fn shutdown_server(&mut self) -> Result<()> {
        self.send_line("SHUTDOWN")?;
        let line = self.read_line()?;
        if line == "BYE" {
            Ok(())
        } else {
            Err(server_err(&line))
        }
    }

    /// End this session politely.
    pub fn quit(mut self) -> Result<()> {
        self.send_line("QUIT")?;
        let line = self.read_line()?;
        if line == "BYE" {
            Ok(())
        } else {
            Err(server_err(&line))
        }
    }
}

/// Map an unexpected/`ERR` response line onto the engine error type.
fn server_err(line: &str) -> Error {
    match line.split_once(' ') {
        Some(("ERR", msg)) => Error::Eval(format!("server: {}", unescape(msg))),
        _ => Error::Parse(format!("unexpected server response {line:?}")),
    }
}

fn field<'a>(rest: &'a str, key: &str) -> Result<&'a str> {
    rest.split_whitespace()
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
        .ok_or_else(|| Error::Parse(format!("missing field {key} in {rest:?}")))
}

fn parse_dec_field(rest: &str, key: &str) -> Result<u64> {
    field(rest, key)?
        .parse()
        .map_err(|_| Error::Parse(format!("bad {key} in {rest:?}")))
}

fn parse_hex_field(rest: &str, key: &str) -> Result<u64> {
    u64::from_str_radix(field(rest, key)?, 16)
        .map_err(|_| Error::Parse(format!("bad {key} in {rest:?}")))
}
