//! The daemon under test and the connections to it.
//!
//! The daemon is `ic_serve::Server::spawn` in this process with the
//! default `ServeConfig` (plus what a workload's definition names: a
//! knowledge-base path, prediction), listening on a real unix socket.
//! Untraced runs talk to it through `ic_serve::Client` exactly as
//! `icc --remote` does. Traced runs plug a transport into the same
//! `Client` that performs the framed client's three steps — encode,
//! write + read, decode — and reads the clock between them.

use crate::schedule::Kind;
use ic_serve::proto::{decode_versioned, envelope_json, read_frame, write_frame};
use ic_serve::{Client, ClientError, Request, Response, ServeConfig, Server, ServerHandle};
use std::io::{BufReader, BufWriter};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub struct Daemon {
    handle: ServerHandle,
    socket: PathBuf,
    pub kb_path: Option<PathBuf>,
}

impl Daemon {
    /// Start a fresh daemon for `kind` with its files under `dir` (paths
    /// stay relative: the process has changed into its scratch
    /// directory, and a unix socket path must fit in 108 bytes).
    pub fn spawn(kind: Kind, dir: &Path, http: bool) -> Daemon {
        std::fs::create_dir_all(dir).expect("scratch directory is writable");
        let socket = dir.join("d.sock");
        let kb_path =
            matches!(kind, Kind::SearchPredict | Kind::Mixed).then(|| dir.join("kb.json"));
        if let Some(kb) = &kb_path {
            // A fresh daemon starts from an empty knowledge base.
            let _ = std::fs::remove_file(kb);
        }
        let mut builder = ServeConfig::builder().socket(socket.clone());
        if let Some(kb) = &kb_path {
            builder = builder.kb_path(kb.clone());
        }
        if kind == Kind::SearchPredict {
            builder = builder.predict(true);
        }
        if http {
            builder = builder.http("127.0.0.1:0");
        }
        let config = builder.build().expect("benchmark daemon config validates");
        let handle = Server::spawn(config, None).expect("daemon binds its socket");
        Daemon {
            handle,
            socket,
            kb_path,
        }
    }

    pub fn http_uri(&self) -> Option<String> {
        self.handle.http_addr.map(|a| format!("http://{a}"))
    }

    pub fn connect(&self) -> Client {
        Client::connect(&self.socket.to_string_lossy()).expect("daemon accepts connections")
    }

    /// A client whose round trips leave their boundary timings in the
    /// returned cell.
    pub fn connect_traced(&self) -> (Client, Arc<Mutex<Wire>>) {
        let stream = UnixStream::connect(&self.socket).expect("daemon accepts connections");
        let wire = Arc::new(Mutex::new(Wire::default()));
        let transport = TracedTransport {
            reader: BufReader::new(stream.try_clone().expect("socket clones")),
            writer: BufWriter::new(stream),
            wire: wire.clone(),
        };
        (Client::over(Box::new(transport)), wire)
    }

    /// Drain, persist and join every daemon thread.
    pub fn stop(self) {
        self.handle.shutdown();
        self.handle.join();
    }
}

/// Boundary readings of one round trip.
#[derive(Debug, Clone, Copy)]
pub struct Wire {
    pub start: Instant,
    pub encoded: Instant,
    pub received: Instant,
    pub decoded: Instant,
    pub request_bytes: usize,
    pub response_bytes: usize,
}

impl Default for Wire {
    fn default() -> Self {
        let now = Instant::now();
        Wire {
            start: now,
            encoded: now,
            received: now,
            decoded: now,
            request_bytes: 0,
            response_bytes: 0,
        }
    }
}

struct TracedTransport {
    reader: BufReader<UnixStream>,
    writer: BufWriter<UnixStream>,
    wire: Arc<Mutex<Wire>>,
}

impl ic_serve::Transport for TracedTransport {
    fn roundtrip(&mut self, request: &Request) -> Result<Response, ClientError> {
        let start = Instant::now();
        let json = envelope_json(request);
        let encoded = Instant::now();
        write_frame(&mut self.writer, &json)?;
        let payload = read_frame(&mut self.reader)?.ok_or(ClientError::Disconnected)?;
        let received = Instant::now();
        let response = decode_versioned::<Response>(&payload)?.msg;
        let decoded = Instant::now();
        *self.wire.lock().expect("wire cell is never poisoned") = Wire {
            start,
            encoded,
            received,
            decoded,
            request_bytes: json.len(),
            response_bytes: payload.len(),
        };
        Ok(response)
    }

    fn set_read_timeout(
        &mut self,
        timeout: Option<std::time::Duration>,
    ) -> Result<(), ClientError> {
        self.reader
            .get_ref()
            .set_read_timeout(timeout)
            .map_err(ClientError::Connect)
    }
}
