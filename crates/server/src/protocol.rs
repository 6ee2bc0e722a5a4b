//! The line protocol spoken between server and clients.
//!
//! Deliberately thin: newline-delimited UTF-8 frames over a TCP or Unix
//! stream, one request per line, a terminated sequence of response
//! lines per request. No framing library, no handshake — a session is
//! just a socket.
//!
//! Requests:
//!
//! | line                   | meaning                                         |
//! |------------------------|-------------------------------------------------|
//! | `PREPARE <query>`      | plan once, register under the plan fingerprint  |
//! | `EXEC <fp-hex>`        | run a prepared plan, stream rows                |
//! | `QUERY <query>`        | prepare + exec in one round trip                |
//! | `EXPLAIN <query>`      | plan (don't run): per-node cost estimates       |
//! | `STATS`                | this session's [`obs::SessionProfile`] as JSON  |
//! | `METRICS`              | server-wide registry snapshot as JSON           |
//! | `SLOWLOG`              | drain the slow-query log as a JSON array        |
//! | `CANCEL`               | abort the in-flight `EXEC`/`QUERY` mid-stream   |
//! | `SHUTDOWN`             | stop the whole server (then `BYE`)              |
//! | `QUIT`                 | end this session (then `BYE`)                   |
//!
//! Responses: `PREPARED fp=<hex>`, zero or more `ROW <escaped-xml>`,
//! then exactly one terminator — `DONE rows=<n> cached=<bool>
//! fp=<hex> version=<v> ns=<n>`, `CANCELLED rows=<n>`, or
//! `ERR <message>`. `STATS` answers `STATS <compact-json>` (the
//! per-session profile); `METRICS` answers `METRICS <compact-json>`
//! (the global view, validated against `schemas/metrics.schema.json`);
//! `SLOWLOG` answers `SLOWLOG <compact-json-array>` and *drains* the
//! log — each captured entry is delivered exactly once. `EXPLAIN`
//! answers `EXPLAIN <compact-json>` — the engine's typed
//! [`Explain`](rewriting::Explain) (plan fingerprint and the per-node
//! estimates the planner ranked by), without executing anything. `QUIT` and `SHUTDOWN` answer
//! `BYE`.
//!
//! Row payloads and error messages are escaped so embedded newlines
//! cannot break framing ([`escape`]/[`unescape`]). A request line holds
//! at most [`MAX_FRAME_BYTES`] before its newline; the server answers a
//! longer one with `ERR frame exceeds …` and closes the session.

use storage::DocumentVersion;

/// The longest request line the server reads, newline excluded: 1 MiB.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Escape a payload for single-line transport: `\` → `\\`,
/// newline → `\n`, carriage return → `\r`.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

/// Invert [`escape`]. Unknown escapes pass the escaped char through.
pub fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('\\') => out.push('\\'),
                Some(other) => out.push(other),
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    Prepare(String),
    Exec(u64),
    Query(String),
    Explain(String),
    Stats,
    Metrics,
    Slowlog,
    Cancel,
    Shutdown,
    Quit,
}

/// Parse one request line (already stripped of its trailing newline).
/// Returns `Err` with a human-readable message for malformed input.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let line = line.trim_end_matches(['\r', '\n']);
    let (verb, rest) = match line.split_once(' ') {
        Some((v, r)) => (v, r.trim()),
        None => (line.trim(), ""),
    };
    match verb.to_ascii_uppercase().as_str() {
        "PREPARE" if !rest.is_empty() => Ok(Request::Prepare(unescape(rest))),
        "EXEC" if !rest.is_empty() => u64::from_str_radix(rest, 16)
            .map(Request::Exec)
            .map_err(|_| format!("EXEC expects a hex fingerprint, got {rest:?}")),
        "QUERY" if !rest.is_empty() => Ok(Request::Query(unescape(rest))),
        "EXPLAIN" if !rest.is_empty() => Ok(Request::Explain(unescape(rest))),
        "STATS" => Ok(Request::Stats),
        "METRICS" => Ok(Request::Metrics),
        "SLOWLOG" => Ok(Request::Slowlog),
        "CANCEL" => Ok(Request::Cancel),
        "SHUTDOWN" => Ok(Request::Shutdown),
        "QUIT" => Ok(Request::Quit),
        "" => Err("empty request".to_string()),
        v => Err(format!("unknown request verb {v:?}")),
    }
}

/// `PREPARED fp=<hex>`
pub fn prepared_line(fp: u64) -> String {
    format!("PREPARED fp={fp:016x}")
}

/// `ROW <escaped-payload>`
pub fn row_line(xml: &str) -> String {
    format!("ROW {}", escape(xml))
}

/// `DONE rows=<n> cached=<bool> fp=<hex> version=<v> ns=<n>`
pub fn done_line(rows: u64, cached: bool, fp: u64, version: DocumentVersion, ns: u64) -> String {
    format!("DONE rows={rows} cached={cached} fp={fp:016x} version={version} ns={ns}")
}

/// `CANCELLED rows=<n>` — rows already delivered before the abort.
pub fn cancelled_line(rows: u64) -> String {
    format!("CANCELLED rows={rows}")
}

/// `ERR <escaped-message>`
pub fn err_line(msg: &str) -> String {
    format!("ERR {}", escape(msg))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_round_trips_and_keeps_lines_single() {
        let nasty = "a\\b\nc\rd<e/>";
        let esc = escape(nasty);
        assert!(!esc.contains('\n') && !esc.contains('\r'));
        assert_eq!(unescape(&esc), nasty);
    }

    #[test]
    fn requests_parse_case_insensitively() {
        assert_eq!(
            parse_request("query for $b in //book return $b"),
            Ok(Request::Query("for $b in //book return $b".into()))
        );
        assert_eq!(
            parse_request("EXEC 00000000000000ff"),
            Ok(Request::Exec(255))
        );
        assert_eq!(
            parse_request("explain //book"),
            Ok(Request::Explain("//book".into()))
        );
        assert_eq!(parse_request("STATS\r\n"), Ok(Request::Stats));
        assert_eq!(parse_request("metrics"), Ok(Request::Metrics));
        assert_eq!(parse_request("Slowlog\r\n"), Ok(Request::Slowlog));
        assert_eq!(parse_request("cancel"), Ok(Request::Cancel));
        assert!(parse_request("EXEC zz").is_err());
        assert!(parse_request("").is_err());
        assert!(parse_request("FROB x").is_err());
    }

    #[test]
    fn terminators_carry_their_fields() {
        let h = storage::DocumentHandle::new(xmltree::parse_document("<a/>").unwrap());
        let d = done_line(3, true, 0xabc, h.version(), 42);
        assert!(d.contains("rows=3") && d.contains("cached=true"), "{d}");
        assert!(d.contains("fp=0000000000000abc"), "{d}");
        assert!(err_line("boom\nline2").starts_with("ERR boom\\n"));
        assert_eq!(cancelled_line(7), "CANCELLED rows=7");
    }
}
