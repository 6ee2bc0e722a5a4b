//! Transport abstraction: one byte-stream trait over TCP and Unix
//! sockets, so the session loop, the client and the tests are written
//! once against [`Conn`] and bind to either family via [`BindAddr`].

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::Duration;

/// Where the server listens (or a client connects).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BindAddr {
    /// `host:port`; port `0` asks the OS for a free port (the bound
    /// address is reported back by [`Listener::local_addr`]).
    Tcp(String),
    /// Filesystem path of a Unix-domain socket. A stale socket file
    /// left by a dead process is removed before binding.
    Unix(PathBuf),
}

impl std::fmt::Display for BindAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BindAddr::Tcp(a) => write!(f, "tcp://{a}"),
            BindAddr::Unix(p) => write!(f, "unix://{}", p.display()),
        }
    }
}

/// A duplex byte stream with the timeout controls the session loop
/// needs. Implemented for [`TcpStream`] and [`UnixStream`].
pub trait Conn: Read + Write + Send {
    /// Bound read timeout (used by the idle loop to poll shutdown).
    fn set_read_timeout_d(&self, d: Option<Duration>) -> std::io::Result<()>;
    /// Toggle non-blocking mode (used to poll for `CANCEL` mid-stream).
    fn set_nonblocking_d(&self, nb: bool) -> std::io::Result<()>;
    /// An independently-owned handle onto the same socket.
    fn try_clone_box(&self) -> std::io::Result<Box<dyn Conn>>;
    /// Shut one or both directions down (`Write`: the peer reads end of
    /// stream once it has read what was sent).
    fn shutdown_d(&self, how: Shutdown) -> std::io::Result<()>;
}

impl Conn for TcpStream {
    fn set_read_timeout_d(&self, d: Option<Duration>) -> std::io::Result<()> {
        self.set_read_timeout(d)
    }
    fn set_nonblocking_d(&self, nb: bool) -> std::io::Result<()> {
        self.set_nonblocking(nb)
    }
    fn try_clone_box(&self) -> std::io::Result<Box<dyn Conn>> {
        Ok(Box::new(self.try_clone()?))
    }
    fn shutdown_d(&self, how: Shutdown) -> std::io::Result<()> {
        self.shutdown(how)
    }
}

impl Conn for UnixStream {
    fn set_read_timeout_d(&self, d: Option<Duration>) -> std::io::Result<()> {
        self.set_read_timeout(d)
    }
    fn set_nonblocking_d(&self, nb: bool) -> std::io::Result<()> {
        self.set_nonblocking(nb)
    }
    fn try_clone_box(&self) -> std::io::Result<Box<dyn Conn>> {
        Ok(Box::new(self.try_clone()?))
    }
    fn shutdown_d(&self, how: Shutdown) -> std::io::Result<()> {
        self.shutdown(how)
    }
}

/// A bound listening socket of either family.
pub enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener, PathBuf),
}

impl Listener {
    /// Bind to `addr` (removing a stale Unix socket file first).
    pub fn bind(addr: &BindAddr) -> std::io::Result<Listener> {
        match addr {
            BindAddr::Tcp(a) => Ok(Listener::Tcp(TcpListener::bind(a.as_str())?)),
            BindAddr::Unix(p) => {
                if p.exists() {
                    let _ = std::fs::remove_file(p);
                }
                Ok(Listener::Unix(UnixListener::bind(p)?, p.clone()))
            }
        }
    }

    /// The actually-bound address (resolves a requested port `0`).
    pub fn local_addr(&self) -> std::io::Result<BindAddr> {
        match self {
            Listener::Tcp(l) => Ok(BindAddr::Tcp(l.local_addr()?.to_string())),
            Listener::Unix(_, p) => Ok(BindAddr::Unix(p.clone())),
        }
    }

    /// Accept the next connection (blocking, honoring any non-blocking
    /// flag the accept loop set via the raw listener).
    pub fn accept(&self) -> std::io::Result<Box<dyn Conn>> {
        match self {
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                // request/response over small frames: Nagle would stall
                // the DONE write behind the last unacked ROW batch
                s.set_nodelay(true)?;
                Ok(Box::new(s))
            }
            Listener::Unix(l, _) => {
                let (s, _) = l.accept()?;
                Ok(Box::new(s))
            }
        }
    }

    /// Put the listener in non-blocking mode so the accept loop can
    /// poll the shutdown flag between `WouldBlock`s.
    pub fn set_nonblocking(&self, nb: bool) -> std::io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(nb),
            Listener::Unix(l, _) => l.set_nonblocking(nb),
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        if let Listener::Unix(_, p) = self {
            let _ = std::fs::remove_file(p);
        }
    }
}

/// Connect a client stream to `addr`.
pub fn connect(addr: &BindAddr) -> std::io::Result<Box<dyn Conn>> {
    match addr {
        BindAddr::Tcp(a) => {
            let s = TcpStream::connect(a.as_str())?;
            // see Listener::accept: the line protocol is latency-bound
            s.set_nodelay(true)?;
            Ok(Box::new(s))
        }
        BindAddr::Unix(p) => Ok(Box::new(UnixStream::connect(p)?)),
    }
}

/// `true` for the error kinds a timed-out / non-blocking read yields
/// (Linux reports `WouldBlock`; other unixes may report `TimedOut`).
pub fn is_poll_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};

    fn echo_roundtrip(addr: BindAddr) {
        let l = Listener::bind(&addr).unwrap();
        let bound = l.local_addr().unwrap();
        let t = std::thread::spawn(move || {
            let mut c = l.accept().unwrap();
            let mut r = BufReader::new(c.try_clone_box().unwrap());
            let mut line = String::new();
            r.read_line(&mut line).unwrap();
            c.write_all(line.to_uppercase().as_bytes()).unwrap();
        });
        let mut c = connect(&bound).unwrap();
        c.write_all(b"ping\n").unwrap();
        let mut r = BufReader::new(c.try_clone_box().unwrap());
        let mut reply = String::new();
        r.read_line(&mut reply).unwrap();
        assert_eq!(reply, "PING\n");
        t.join().unwrap();
    }

    #[test]
    fn tcp_and_unix_echo() {
        echo_roundtrip(BindAddr::Tcp("127.0.0.1:0".into()));
        let path =
            std::env::temp_dir().join(format!("uload-conn-test-{}.sock", std::process::id()));
        echo_roundtrip(BindAddr::Unix(path));
    }
}
