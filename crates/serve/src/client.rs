//! A blocking client for the `ic-serve` protocol, over any transport.
//!
//! One request, one response, in order — [`Client::request`] is the
//! whole API, with typed helpers on top. The connection target is a
//! URI: `unix:///path/to.sock`, `tcp://host:port` (both the framed
//! protocol), or `http://host:port` (the HTTP/JSON gateway). A bare
//! path connects over the Unix socket, so existing `--remote
//! /tmp/ic.sock` invocations keep working.
//!
//! Every transport answers with the *same* [`Response`] values — the
//! daemon's differential e2e test holds the framed and HTTP forms
//! byte-identical — so callers never branch on the scheme.
//!
//! ## Timeouts
//!
//! [`Client::set_timeout`] installs a **uniform per-request deadline**:
//! it is injected as `ctx.deadline_ms` into every data-plane request
//! that does not carry its own (so the server cancels overdue work and
//! counts it in `requests_cancelled`), and doubles as a socket read
//! timeout (with slack) so a hung server surfaces as
//! [`ClientError::Timeout`] instead of blocking forever — the deadline
//! gap the pre-shard client had.

use crate::proto::{
    decode_versioned, read_message_versioned, write_message_versioned, AdminRequest,
    CharacterizeRequest, CompileRequest, FrameError, JobContext, Request, Response, SearchRequest,
    StatsResponse,
};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

/// Client-side errors.
#[derive(Debug)]
pub enum ClientError {
    /// The URI did not parse or used an unsupported scheme.
    BadUri(String),
    Connect(std::io::Error),
    Frame(FrameError),
    /// The request outlived the client's timeout with no response.
    Timeout,
    /// The server closed the stream before answering.
    Disconnected,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::BadUri(m) => write!(f, "bad uri: {m}"),
            ClientError::Connect(e) => write!(f, "connect: {e}"),
            ClientError::Frame(e) => write!(f, "protocol: {e}"),
            ClientError::Timeout => write!(f, "timed out waiting for the server"),
            ClientError::Disconnected => write!(f, "server closed the connection"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        // A read timeout on the socket surfaces as an IO frame error;
        // lift it to the first-class variant callers match on.
        if let FrameError::Io(io) = &e {
            if matches!(
                io.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) {
                return ClientError::Timeout;
            }
        }
        ClientError::Frame(e)
    }
}

/// One wire protocol spoken from the client side. Implementations are
/// blocking; [`Client`] owns exactly one.
pub trait Transport: Send {
    /// Send one request and block for its response.
    fn roundtrip(&mut self, request: &Request) -> Result<Response, ClientError>;
    /// Bound how long a roundtrip may block on the socket.
    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError>;
}

/// `try_clone` + read-timeout over both stream types, so one framed
/// transport serves Unix and TCP.
trait RawStream: Read + Write + Send + Sized {
    fn try_clone_raw(&self) -> std::io::Result<Self>;
    fn set_read_timeout_raw(&self, timeout: Option<Duration>) -> std::io::Result<()>;
}

impl RawStream for UnixStream {
    fn try_clone_raw(&self) -> std::io::Result<Self> {
        self.try_clone()
    }
    fn set_read_timeout_raw(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.set_read_timeout(timeout)
    }
}

impl RawStream for std::net::TcpStream {
    fn try_clone_raw(&self) -> std::io::Result<Self> {
        self.try_clone()
    }
    fn set_read_timeout_raw(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.set_read_timeout(timeout)
    }
}

/// The length-prefixed framed protocol (Unix socket or TCP). Writes
/// the protocol-2 envelope; accepts either response form.
struct FramedTransport<S: RawStream> {
    reader: BufReader<S>,
    writer: BufWriter<S>,
}

impl<S: RawStream> FramedTransport<S> {
    fn new(stream: S) -> Result<Self, ClientError> {
        let r = stream.try_clone_raw().map_err(ClientError::Connect)?;
        Ok(FramedTransport {
            reader: BufReader::new(r),
            writer: BufWriter::new(stream),
        })
    }
}

impl<S: RawStream> Transport for FramedTransport<S> {
    fn roundtrip(&mut self, request: &Request) -> Result<Response, ClientError> {
        write_message_versioned(&mut self.writer, request)?;
        read_message_versioned::<Response>(&mut self.reader)?
            .map(|vm| vm.msg)
            .ok_or(ClientError::Disconnected)
    }

    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.reader
            .get_ref()
            .set_read_timeout_raw(timeout)
            .map_err(ClientError::Connect)
    }
}

/// The HTTP/JSON gateway: one `POST` per request, keep-alive, response
/// body decoded from the protocol-2 envelope.
struct HttpTransport {
    reader: BufReader<std::net::TcpStream>,
    writer: std::net::TcpStream,
    /// Authority for the `Host` header.
    host: String,
}

impl HttpTransport {
    fn connect(authority: &str) -> Result<Self, ClientError> {
        let stream = std::net::TcpStream::connect(authority).map_err(ClientError::Connect)?;
        let _ = stream.set_nodelay(true);
        let r = stream.try_clone().map_err(ClientError::Connect)?;
        Ok(HttpTransport {
            reader: BufReader::new(r),
            writer: stream,
            host: authority.to_string(),
        })
    }

    fn read_line(&mut self) -> Result<String, ClientError> {
        let mut line = String::new();
        if self
            .reader
            .read_line(&mut line)
            .map_err(|e| ClientError::from(FrameError::Io(e)))?
            == 0
        {
            return Err(ClientError::Disconnected);
        }
        Ok(line.trim_end().to_string())
    }
}

impl Transport for HttpTransport {
    fn roundtrip(&mut self, request: &Request) -> Result<Response, ClientError> {
        let path = crate::http::path_for(request);
        let body = crate::http::body_for(request);
        let head = format!(
            "POST {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            self.host,
            body.len()
        );
        self.writer
            .write_all(head.as_bytes())
            .and_then(|()| self.writer.write_all(body.as_bytes()))
            .and_then(|()| self.writer.flush())
            .map_err(|e| ClientError::from(FrameError::Io(e)))?;

        // Status line (the decoded Response carries the error detail;
        // the code is redundant for this client) + headers.
        let status = self.read_line()?;
        if !status.starts_with("HTTP/1.") {
            return Err(ClientError::Frame(FrameError::BadPayload(format!(
                "not an HTTP response: {status}"
            ))));
        }
        let mut content_length = 0usize;
        loop {
            let line = self.read_line()?;
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().map_err(|_| {
                        ClientError::Frame(FrameError::BadPayload(
                            "unparseable Content-Length".into(),
                        ))
                    })?;
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader
            .read_exact(&mut body)
            .map_err(|e| ClientError::from(FrameError::Io(e)))?;
        let text = String::from_utf8(body)
            .map_err(|e| ClientError::Frame(FrameError::BadPayload(e.to_string())))?;
        Ok(decode_versioned::<Response>(&text)?.msg)
    }

    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.reader
            .get_ref()
            .set_read_timeout(timeout)
            .map_err(ClientError::Connect)
    }
}

/// A connection to a running `ic-serve` daemon, over any transport.
pub struct Client {
    transport: Box<dyn Transport>,
    timeout: Option<Duration>,
}

impl Client {
    /// Connect by URI: `unix://<path>`, `tcp://<host:port>`, or
    /// `http://<host:port>`. A bare path (no scheme) is a Unix socket
    /// path, for backward compatibility with pre-URI call sites.
    pub fn connect(uri: &str) -> Result<Client, ClientError> {
        if let Some(path) = uri.strip_prefix("unix://") {
            Self::unix(path)
        } else if let Some(addr) = uri.strip_prefix("tcp://") {
            Self::tcp(addr)
        } else if let Some(addr) = uri.strip_prefix("http://") {
            Ok(Client::over(Box::new(HttpTransport::connect(addr)?)))
        } else if let Some((scheme, _)) = uri.split_once("://") {
            Err(ClientError::BadUri(format!(
                "unsupported scheme `{scheme}` (unix|tcp|http)"
            )))
        } else {
            Self::unix(uri)
        }
    }

    /// Wrap an already-built transport (tests, custom transports).
    pub fn over(transport: Box<dyn Transport>) -> Client {
        Client {
            transport,
            timeout: None,
        }
    }

    fn unix(path: impl AsRef<Path>) -> Result<Client, ClientError> {
        let stream = UnixStream::connect(path.as_ref()).map_err(ClientError::Connect)?;
        Ok(Client::over(Box::new(FramedTransport::new(stream)?)))
    }

    fn tcp(addr: impl std::net::ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = std::net::TcpStream::connect(addr).map_err(ClientError::Connect)?;
        let _ = stream.set_nodelay(true);
        Ok(Client::over(Box::new(FramedTransport::new(stream)?)))
    }

    /// Install a uniform per-request timeout: injected as
    /// `ctx.deadline_ms` into data-plane requests that carry none, and
    /// enforced on the socket (with slack for queueing) so a dead
    /// server yields [`ClientError::Timeout`]. `None` removes both.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        // Slack over the server-side deadline: a deadline-exceeded
        // response is strictly better than a torn-off read.
        let socket = timeout.map(|t| t + Duration::from_millis(500));
        self.transport.set_read_timeout(socket)?;
        self.timeout = timeout;
        Ok(())
    }

    /// The currently installed per-request timeout.
    pub fn timeout(&self) -> Option<Duration> {
        self.timeout
    }

    /// Send one request and block for its response.
    pub fn request(&mut self, request: &Request) -> Result<Response, ClientError> {
        match self.timeout {
            Some(t) => {
                let ms = (t.as_millis() as u64).max(1);
                let mut req = request.clone();
                if let Some(ctx) = request_ctx_mut(&mut req) {
                    if ctx.deadline_ms == 0 {
                        ctx.deadline_ms = ms;
                    }
                }
                self.transport.roundtrip(&req)
            }
            None => self.transport.roundtrip(request),
        }
    }

    /// Compile `ctx` with `sequence` (optimization names).
    pub fn compile(
        &mut self,
        ctx: JobContext,
        sequence: Vec<String>,
        emit_ir: bool,
    ) -> Result<Response, ClientError> {
        self.request(&Request::Compile(CompileRequest {
            ctx,
            sequence,
            emit_ir,
        }))
    }

    /// Run a budgeted search on the daemon.
    pub fn search(
        &mut self,
        ctx: JobContext,
        strategy: &str,
        budget: usize,
        seed: u64,
    ) -> Result<Response, ClientError> {
        self.request(&Request::Search(SearchRequest {
            ctx,
            strategy: strategy.into(),
            budget,
            seed,
        }))
    }

    /// Fetch the -O0 counter vector for `ctx`.
    pub fn characterize(&mut self, ctx: JobContext) -> Result<Response, ClientError> {
        self.request(&Request::Characterize(CharacterizeRequest { ctx }))
    }

    /// Aggregated server statistics.
    pub fn stats(&mut self) -> Result<StatsResponse, ClientError> {
        match self.request(&Request::Admin(AdminRequest::Stats))? {
            Response::Stats(s) => Ok(s),
            other => Err(ClientError::Frame(FrameError::BadPayload(format!(
                "expected Stats, got {other:?}"
            )))),
        }
    }

    /// The daemon's unified observability snapshot (`Admin(Metrics)`)
    /// — the same [`ic_obs::Snapshot`] schema `icc --metrics-json`
    /// prints locally.
    pub fn metrics(&mut self) -> Result<ic_obs::Snapshot, ClientError> {
        match self.request(&Request::Admin(AdminRequest::Metrics))? {
            Response::Metrics(s) => Ok(*s),
            other => Err(ClientError::Frame(FrameError::BadPayload(format!(
                "expected Metrics, got {other:?}"
            )))),
        }
    }

    /// Ask the daemon to persist its cache snapshots now.
    pub fn flush(&mut self) -> Result<Response, ClientError> {
        self.request(&Request::Admin(AdminRequest::Flush))
    }

    /// Ask the daemon to flush, then compact its knowledge base down to
    /// `max_entries_per_context` lowest-cost entries per context.
    pub fn compact(&mut self, max_entries_per_context: usize) -> Result<Response, ClientError> {
        self.request(&Request::Admin(AdminRequest::Compact {
            max_entries_per_context,
        }))
    }

    /// Ask the daemon to shut down gracefully.
    pub fn shutdown(&mut self) -> Result<Response, ClientError> {
        self.request(&Request::Admin(AdminRequest::Shutdown))
    }
}

fn request_ctx_mut(request: &mut Request) -> Option<&mut JobContext> {
    match request {
        Request::Compile(r) => Some(&mut r.ctx),
        Request::Search(r) => Some(&mut r.ctx),
        Request::Characterize(r) => Some(&mut r.ctx),
        Request::Admin(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsupported_scheme_is_a_bad_uri() {
        match Client::connect("ftp://host:1") {
            Err(ClientError::BadUri(m)) => assert!(m.contains("ftp")),
            other => panic!("expected BadUri, got {:?}", other.err()),
        }
    }

    #[test]
    fn bare_path_routes_to_unix() {
        // No daemon there: the error must be Connect (i.e. the path was
        // treated as a Unix socket), not BadUri.
        match Client::connect("/nonexistent/ic-serve.sock") {
            Err(ClientError::Connect(_)) => {}
            other => panic!("expected Connect error, got {:?}", other.err()),
        }
        match Client::connect("unix:///nonexistent/ic-serve.sock") {
            Err(ClientError::Connect(_)) => {}
            other => panic!("expected Connect error, got {:?}", other.err()),
        }
    }

    #[test]
    fn timeout_io_errors_become_first_class() {
        let e = ClientError::from(FrameError::Io(std::io::Error::from(
            std::io::ErrorKind::WouldBlock,
        )));
        assert!(matches!(e, ClientError::Timeout));
        let e = ClientError::from(FrameError::Io(std::io::Error::from(
            std::io::ErrorKind::TimedOut,
        )));
        assert!(matches!(e, ClientError::Timeout));
        let e = ClientError::from(FrameError::Truncated);
        assert!(matches!(e, ClientError::Frame(FrameError::Truncated)));
    }

    #[test]
    fn tcp_uri_routes_to_tcp() {
        // Nothing listens on :1, so the scheme must reach the TCP
        // transport and fail there, not at URI parsing.
        match Client::connect("tcp://127.0.0.1:1") {
            Err(ClientError::Connect(_)) => {}
            Ok(_) => {} // something actually listening on :1 — fine
            other => panic!("expected Connect error, got {:?}", other.err()),
        }
    }
}
