//! The TCP server: one kernel-blocking thread per connection, each
//! driving a non-blocking per-connection state machine, dual-protocol
//! framing, and graceful shutdown.
//!
//! Safe Rust only, on `std::net`. There is no `poll(2)` in safe std, so
//! the only way for arriving bytes to wake the server is a thread that
//! sleeps on that very socket. The accept thread blocks in `accept` and
//! gives every connection a thread of its own. While there is work the
//! socket stays non-blocking — read until `WouldBlock`, process every
//! complete request buffered so far, flush until `WouldBlock`. Once a
//! short `yield_now` spin finds nothing more, the thread switches the
//! socket to blocking mode and sleeps in the kernel: in `peek` for
//! input, or in `write` while output is pending.
//!
//! [`ServerConfig::workers`] (default: the `gdcm-par` budget,
//! `GDCM_THREADS`) is a CPU budget, not a thread count: at most that
//! many idle connection threads spin at once, and one that finds no
//! free slot blocks straight away. Each connection lives on one thread
//! for its whole life, so request handling needs no cross-thread
//! locking and `reqtrace`'s thread-local spans stay coherent.
//!
//! ## Two protocols, one listener
//!
//! The first byte of each connection selects its protocol
//! ([`crate::protocol::wire`] documents the framing):
//!
//! * `0x00` — the binary preamble; the connection speaks length-
//!   prefixed binary frames and may *pipeline*: any number of requests
//!   in flight, each response tagged with its request id. Requests on
//!   one connection are processed in order, so response *values* are
//!   bit-identical to sending the same requests sequentially.
//! * anything else — the legacy newline-JSON protocol, byte-for-byte
//!   compatible with every old client. Its read buffer and serialize
//!   buffer are reused across requests instead of allocating per line.
//!
//! ## Shutdown
//!
//! `Shutdown` is still the SIGTERM-equivalent drain: the stop flag
//! flips, a wake-up connection unblocks the accept thread, which stops
//! accepting, and every open connection is served until its peer
//! disconnects. Nothing is aborted mid-request and every buffered
//! response is flushed.
//!
//! Instrumentation: a `serve/request_ms` latency histogram and a
//! `serve/open_connections` gauge — always on (registry writes, not
//! event emission). Lifetime request and error counts are the
//! [`ServerSummary`] atomics, also reported by the ops `health` verb.
//!
//! Both framings feed one request handler: they differ only in how a
//! request decodes and how its answer encodes, so counting, timing,
//! telemetry and shutdown are written once. Every mutation goes through
//! one [`IngestPipeline`] — the caller's, or an in-memory one the
//! server builds (no WAL, refresh off: mutations apply directly).
//!
//! Live telemetry is opt-in via [`serve_with_ingest`]: handing the
//! server a second listener starts the [`crate::ops`] endpoint and turns on
//! per-request recording — stage spans (`read`/`parse`/`cache_lookup`/
//! `predict`/`serialize`/`write`) through `gdcm_obs::reqtrace`,
//! windowed qps/latency/error/cache counters, and slow-log admission.
//! Without an ops listener none of that code runs: the request loop
//! checks one plain `bool` and the hot path stays byte-for-byte the
//! uninstrumented one (`bench_serve` asserts the enabled cost too).
//! The `read` stage spans from the previous request's completion to
//! this request's dispatch (client idle time included), and the `write`
//! stage measures enqueue into the connection's output buffer — the
//! socket write itself is batched across pipelined responses.

use std::io::{ErrorKind, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::thread::Scope;
use std::time::{Duration, Instant};

use crate::protocol::wire;
use crate::protocol::{
    codes, request_label, Request, RequestEnvelope, Response, ResponseEnvelope, TraceIdProbe,
};
use crate::refresh::{IngestPipeline, RefreshConfig};
use crate::serving::{CacheStats, ServingRepository};

/// Server configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// CPU budget: how many idle connection threads may spin at once
    /// before sleeping in the kernel; the rest block straight away.
    /// Every connection has its own thread regardless. Defaults to the
    /// `gdcm-par` thread budget.
    pub workers: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: gdcm_par::threads().max(1),
        }
    }
}

/// What the server did before it stopped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerSummary {
    /// Connections accepted and handled.
    pub connections: u64,
    /// Requests answered (errors included).
    pub requests: u64,
    /// Requests answered with [`Response::Error`].
    pub request_errors: u64,
}

/// Shared per-server state (also read by the [`crate::ops`] endpoint).
pub(crate) struct ServerShared<'a> {
    pub(crate) serving: &'a ServingRepository,
    /// The one path every mutating request takes.
    pub(crate) ingest: Pipeline<'a>,
    pub(crate) stop: AtomicBool,
    pub(crate) requests: AtomicU64,
    pub(crate) request_errors: AtomicU64,
    pub(crate) connections: AtomicU64,
    open_connections: AtomicI64,
    /// Connection threads currently spinning; capped at `workers`.
    spinning: AtomicUsize,
    /// Whether per-request telemetry (traces, windowed metrics, slow
    /// log) records. True exactly when an ops listener is attached.
    pub(crate) telemetry: bool,
    /// Flipped by the ops `quiesce` verb; reported by `health`.
    pub(crate) draining: AtomicBool,
    /// Tells the ops accept loop to exit.
    pub(crate) ops_stop: AtomicBool,
    /// Where the wake-up connections go: the serving and ops listeners.
    serve_addr: Option<SocketAddr>,
    ops_addr: Option<SocketAddr>,
    /// Server start, for uptime reporting.
    pub(crate) started: Instant,
    pub(crate) workers: usize,
}

/// The server's ingestion pipeline: the caller's, or an in-memory one
/// the server owns. The in-memory pipeline has no WAL and refresh off,
/// so its mutations apply straight to the serving façade.
pub(crate) enum Pipeline<'a> {
    Attached(&'a IngestPipeline<'a>),
    Owned(IngestPipeline<'a>),
}

impl<'a> std::ops::Deref for Pipeline<'a> {
    type Target = IngestPipeline<'a>;

    fn deref(&self) -> &IngestPipeline<'a> {
        match self {
            Self::Attached(pipeline) => pipeline,
            Self::Owned(pipeline) => pipeline,
        }
    }
}

impl<'a> ServerShared<'a> {
    /// Fresh counters and flags. Per-request telemetry records exactly
    /// when an ops listener (`ops_addr`) is attached; the socket-free
    /// harness ([`crate::harness`]) passes no addresses at all.
    pub(crate) fn new(
        serving: &'a ServingRepository,
        ingest: Option<&'a IngestPipeline<'a>>,
        serve_addr: Option<SocketAddr>,
        ops_addr: Option<SocketAddr>,
        workers: usize,
    ) -> Self {
        ServerShared {
            serving,
            ingest: match ingest {
                Some(pipeline) => Pipeline::Attached(pipeline),
                None => Pipeline::Owned(IngestPipeline::new(serving, RefreshConfig::default())),
            },
            stop: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            request_errors: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            open_connections: AtomicI64::new(0),
            spinning: AtomicUsize::new(0),
            telemetry: ops_addr.is_some(),
            draining: AtomicBool::new(false),
            ops_stop: AtomicBool::new(false),
            serve_addr,
            ops_addr,
            started: Instant::now(),
            workers,
        }
    }

    /// Flags shutdown and wakes the accept thread out of `accept`.
    fn trigger_shutdown(&self) {
        if !self.stop.swap(true, Ordering::SeqCst) {
            wake(self.serve_addr);
        }
    }

    /// Flags the ops accept loop to exit and wakes it the same way.
    fn trigger_ops_shutdown(&self) {
        if !self.ops_stop.swap(true, Ordering::SeqCst) {
            wake(self.ops_addr);
        }
    }

    fn track_open(&self, delta: i64) {
        let open = self.open_connections.fetch_add(delta, Ordering::SeqCst) + delta;
        gdcm_obs::gauge("serve/open_connections").set(open as f64);
    }
}

/// Bytes read from a socket per `read` call.
pub(crate) const READ_CHUNK: usize = 64 * 1024;
/// Bytes read per pump before the buffered requests are processed.
const READ_BURST: usize = 256 * 1024;
/// Unprocessed input cap per connection; a legacy line (or frame
/// backlog) larger than this drops the connection.
pub(crate) const MAX_BUFFERED_INPUT: usize = 64 * 1024 * 1024;
/// Pending-output level above which a connection stops consuming new
/// requests until the peer drains responses (pipelining backpressure).
pub(crate) const WRITE_HIGH_WATER: usize = 1024 * 1024;
/// No-progress pumps, each after a `yield_now`, before an idle
/// connection thread sleeps in the kernel.
const SPIN_SWEEPS: u32 = 128;
/// Pause after a failed `accept` (out of descriptors or threads), so
/// the accept thread does not spin on the error.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Unblocks an accept loop sleeping in `accept` on `addr` by connecting
/// to it. A listener bound to an unspecified address (`0.0.0.0`, `::`)
/// is reached over loopback.
fn wake(addr: Option<SocketAddr>) {
    if let Some(mut addr) = addr {
        if addr.ip().is_unspecified() {
            addr.set_ip(match addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect(addr);
    }
}

/// Runs the server until a client sends [`Request::Shutdown`]. Returns
/// the traffic summary after a graceful drain.
///
/// # Errors
///
/// Propagates listener failures (bind errors surface earlier, at
/// `TcpListener::bind`; accept errors on a healthy listener are
/// per-connection and logged, not fatal).
pub fn serve(
    listener: TcpListener,
    serving: &ServingRepository,
    config: ServerConfig,
) -> std::io::Result<ServerSummary> {
    serve_with_ingest(listener, None, serving, None, config)
}

/// Like [`serve`], with two optional attachments.
///
/// * A second listener for the [`crate::ops`] endpoint (`health` /
///   `metrics` / `slowlog` / `quiesce`). Attaching one also enables
///   per-request telemetry: request-trace stage spans, windowed
///   metrics, and the slow log. The ops listener stops when the main
///   server does.
/// * A streaming-ingestion pipeline ([`IngestPipeline`]). The mutating
///   requests (`contribute` / `onboard_device` / `re_enroll` / `fit`)
///   go through it, so with a WAL they are logged before they are
///   applied, and — when the pipeline's refresh threshold is enabled —
///   a dedicated background thread refits and atomically swaps the
///   model as contributions accumulate, compacting the log afterwards.
///   The refresher is stopped and joined before this returns. Without
///   one, the server builds an in-memory pipeline of its own.
///
/// # Errors
///
/// Same contract as [`serve`].
pub fn serve_with_ingest(
    listener: TcpListener,
    ops_listener: Option<TcpListener>,
    serving: &ServingRepository,
    ingest: Option<&IngestPipeline<'_>>,
    config: ServerConfig,
) -> std::io::Result<ServerSummary> {
    let _span = gdcm_obs::span!("serve/server");
    listener.set_nonblocking(false)?;
    let serve_addr = Some(listener.local_addr()?);
    let ops_addr = match &ops_listener {
        Some(l) => Some(l.local_addr()?),
        None => None,
    };
    let workers = config.workers.max(1);
    let shared = ServerShared::new(serving, ingest, serve_addr, ops_addr, workers);
    gdcm_obs::gauge("serve/workers").set(workers as f64);

    let shared = &shared;
    std::thread::scope(|outer| {
        let ops_handle =
            ops_listener.map(|ops| outer.spawn(move || crate::ops::run_ops(ops, shared)));
        let refresher = shared
            .ingest
            .refresher_needed()
            .then(|| outer.spawn(move || shared.ingest.run()));

        // The inner scope joins every connection thread, so request
        // traffic has drained before the refresher and ops stop.
        std::thread::scope(|conns| accept_loop(shared, &listener, conns));

        // Request traffic has drained: stop the refresher (mid-refresh
        // work completes — the swap and compaction are not torn), then
        // the ops endpoint.
        if let Some(handle) = refresher {
            shared.ingest.stop();
            let _ = handle.join();
        }
        shared.trigger_ops_shutdown();
        if let Some(handle) = ops_handle {
            let _ = handle.join();
        }
    });

    Ok(ServerSummary {
        connections: shared.connections.load(Ordering::SeqCst),
        requests: shared.requests.load(Ordering::SeqCst),
        request_errors: shared.request_errors.load(Ordering::SeqCst),
    })
}

/// Accepts connections until shutdown, each onto a thread of its own
/// in `conns`. Sleeps in `accept`; [`ServerShared::trigger_shutdown`]
/// wakes it with a connection.
fn accept_loop<'scope>(
    shared: &'scope ServerShared<'_>,
    listener: &TcpListener,
    conns: &'scope Scope<'scope, '_>,
) {
    while !shared.stop.load(Ordering::SeqCst) {
        let failed = match listener.accept() {
            // Arrivals after the stop flag, the wake-up included, are
            // dropped unserved.
            Ok(_) if shared.stop.load(Ordering::SeqCst) => break,
            Ok((stream, _)) => {
                shared.connections.fetch_add(1, Ordering::SeqCst);
                std::thread::Builder::new()
                    .spawn_scoped(conns, move || run_connection(shared, stream))
                    .err()
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => None,
            Err(e) => Some(e),
        };
        if let Some(e) = failed {
            gdcm_obs::event(
                "accept_error",
                "serve",
                &[("error", gdcm_obs::FieldValue::Str(e.to_string()))],
            );
            std::thread::sleep(ACCEPT_BACKOFF);
        }
    }
}

/// One connection's thread: pump while there is work, spin briefly if
/// the CPU budget has a free slot, then sleep in the kernel until the
/// socket can move again. Returns once the connection is finished.
fn run_connection(shared: &ServerShared<'_>, stream: TcpStream) {
    let mut conn = Conn::new(shared, stream);
    let mut scratch = Scratch::new();
    while !conn.dead {
        if !conn.pump(shared, &mut scratch) && !spin(shared, &mut conn, &mut scratch) {
            conn.wait();
        }
    }
    shared.track_open(-1);
}

/// Re-pumps an idle connection after each of up to [`SPIN_SWEEPS`]
/// `yield_now`s, if one of the `workers` spin slots is free, so traffic
/// that follows closely is answered without a kernel wake-up. Returns
/// whether anything moved.
fn spin(shared: &ServerShared<'_>, conn: &mut Conn, scratch: &mut Scratch) -> bool {
    let free = |n: usize| (n < shared.workers).then_some(n + 1);
    if shared
        .spinning
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, free)
        .is_err()
    {
        return false;
    }
    let woke = (0..SPIN_SWEEPS).any(|_| {
        std::thread::yield_now();
        conn.pump(shared, scratch)
    });
    shared.spinning.fetch_sub(1, Ordering::SeqCst);
    woke
}

/// The byte-stream seam under a connection's state machine. Production
/// connections run on [`TcpStream`]; the conformance harness
/// ([`crate::harness`]) substitutes a scripted in-memory transport so
/// the exact same `Conn` code can be model-checked without sockets.
///
/// Both calls follow non-blocking socket semantics: `Ok(0)` on read
/// means EOF, [`ErrorKind::WouldBlock`] means "nothing right now".
pub(crate) trait Transport {
    /// Reads available bytes into `buf`.
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize>;
    /// Writes as much of `buf` as the peer accepts right now.
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize>;
    /// One-time socket setup on connection registration. The default
    /// does nothing (in-memory transports need none).
    fn prepare(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Transport for TcpStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        Read::read(self, buf)
    }

    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        Write::write(self, buf)
    }

    fn prepare(&mut self) -> std::io::Result<()> {
        // Responses can be small; without TCP_NODELAY each flush can
        // wait on the peer's delayed ACK.
        let _ = self.set_nodelay(true);
        self.set_nonblocking(true)
    }
}

/// Per-connection-thread scratch reused across every request: the
/// socket read chunk and the response serialize buffer. The legacy
/// path used to allocate a fresh `String` per response; both protocols
/// now serialize into this one buffer.
pub(crate) struct Scratch {
    chunk: Vec<u8>,
    ser: Vec<u8>,
}

impl Scratch {
    pub(crate) fn new() -> Self {
        Self {
            chunk: vec![0u8; READ_CHUNK],
            ser: Vec::with_capacity(4096),
        }
    }
}

/// Which framing a connection speaks; decided by its first byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Proto {
    /// Nothing received yet.
    Sniff,
    /// Newline-delimited JSON.
    Legacy,
    /// Length-prefixed binary frames (`binary-v1`).
    Binary,
}

/// What handling one request decided about the connection's future.
enum Outcome {
    /// Keep serving.
    Continue,
    /// Response enqueued; flush it, then close this connection (a
    /// framing violation).
    Close,
    /// Response enqueued; flush it, close, and shut the server down.
    Shutdown,
    /// Unrecoverable (serialization failed); drop without flushing.
    Fatal,
}

/// One request as its connection framed it — the protocol-specific
/// input to [`handle_request`].
enum Frame<'b> {
    /// A newline-JSON line without its newline; `None` when the line is
    /// not valid UTF-8.
    Line(Option<&'b str>),
    /// A binary-v1 payload and the request id its header carried.
    Binary { id: u64, payload: &'b [u8] },
    /// A binary-v1 header declaring more than [`wire::MAX_PAYLOAD`]
    /// bytes. It is refused before any allocation, and the connection
    /// closes because its framing can no longer be trusted.
    Oversized { id: u64, declared: usize },
}

/// What decoding one [`Frame`] produced.
enum Decoded {
    /// A request for [`dispatch`].
    Request(Request),
    /// A `Predict` the wire fast lane answered from the prediction
    /// cache without decoding its network.
    Cached(f64),
    /// Refused before dispatch, with this error code and message.
    Refused(&'static str, String),
}

/// One connection's state machine: read buffer, write buffer, framing
/// mode, and lifecycle flags. All buffers are owned and reused for the
/// connection's lifetime. Generic over the [`Transport`] so the
/// harness can drive the identical state machine in memory.
pub(crate) struct Conn<T: Transport = TcpStream> {
    stream: T,
    /// Unparsed input; `consumed` marks the handled prefix.
    pub(crate) buf: Vec<u8>,
    pub(crate) consumed: usize,
    /// Pending output; `written` marks the flushed prefix.
    pub(crate) out: Vec<u8>,
    pub(crate) written: usize,
    pub(crate) proto: Proto,
    /// Peer closed its write half; serve what is buffered, then close.
    peer_eof: bool,
    /// Stop reading; close once `out` is flushed.
    pub(crate) closing: bool,
    /// Finished (or broken): its thread exits.
    pub(crate) dead: bool,
    /// When the previous request on this connection finished, for the
    /// `read` stage span (includes client idle time, as documented).
    prev_done_us: u64,
}

impl<T: Transport> Conn<T> {
    pub(crate) fn new(shared: &ServerShared<'_>, mut stream: T) -> Self {
        shared.track_open(1);
        let dead = stream.prepare().is_err();
        Self {
            stream,
            buf: Vec::with_capacity(4096),
            consumed: 0,
            out: Vec::with_capacity(4096),
            written: 0,
            proto: Proto::Sniff,
            peer_eof: false,
            closing: false,
            dead,
            prev_done_us: gdcm_obs::timestamp_us(),
        }
    }

    /// The underlying transport, for harness inspection.
    pub(crate) fn transport_mut(&mut self) -> &mut T {
        &mut self.stream
    }

    /// One pass over this connection: read what the socket
    /// has, process every complete request, flush what the socket
    /// takes. Returns whether anything moved.
    pub(crate) fn pump(&mut self, shared: &ServerShared<'_>, scratch: &mut Scratch) -> bool {
        if self.dead {
            return false;
        }
        let mut progress = false;
        // Read — unless closing, the peer is done, or backpressure from
        // an unflushed output backlog says to stop consuming.
        if !self.closing && !self.peer_eof && self.out.len() - self.written < WRITE_HIGH_WATER {
            let mut burst = 0usize;
            loop {
                match self.stream.read(&mut scratch.chunk) {
                    Ok(0) => {
                        self.peer_eof = true;
                        progress = true;
                        break;
                    }
                    Ok(n) => {
                        self.buf.extend_from_slice(&scratch.chunk[..n]);
                        progress = true;
                        if self.buf.len() - self.consumed > MAX_BUFFERED_INPUT {
                            self.dead = true;
                            return true;
                        }
                        burst += n;
                        if burst >= READ_BURST {
                            break;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => {
                        self.dead = true;
                        return true;
                    }
                }
            }
        }
        // Process everything complete.
        progress |= self.process(shared, scratch);
        // Drop the handled prefix once it dominates the buffer.
        if self.consumed > 0 && (self.consumed == self.buf.len() || self.consumed >= 32 * 1024) {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
        // Flush.
        progress |= self.flush();
        if self.written == self.out.len() {
            self.out.clear();
            self.written = 0;
            if self.closing || (self.peer_eof && !self.has_parseable_input()) {
                self.dead = true;
            }
        }
        progress
    }

    /// Whether unconsumed input could still form a request. After EOF
    /// a partial frame or line can never complete, so this gates the
    /// final close.
    fn has_parseable_input(&self) -> bool {
        self.buf.len() > self.consumed
    }

    fn flush(&mut self) -> bool {
        let mut progress = false;
        while self.written < self.out.len() {
            match self.stream.write(&self.out[self.written..]) {
                Ok(0) => {
                    self.dead = true;
                    return true;
                }
                Ok(n) => {
                    self.written += n;
                    progress = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    return true;
                }
            }
        }
        progress
    }

    /// Parses and answers every complete request currently buffered.
    fn process(&mut self, shared: &ServerShared<'_>, scratch: &mut Scratch) -> bool {
        let mut progress = false;
        loop {
            if self.closing || self.dead {
                return progress;
            }
            // Pipelining backpressure: stop answering until the peer
            // drains what is already queued.
            if self.out.len() - self.written >= WRITE_HIGH_WATER {
                self.flush();
                if self.out.len() - self.written >= WRITE_HIGH_WATER {
                    return progress;
                }
            }
            let frame = match self.proto {
                Proto::Sniff => {
                    let avail = &self.buf[self.consumed..];
                    if avail.is_empty() {
                        return progress;
                    }
                    if avail[0] == wire::PREAMBLE_MAGIC[0] {
                        if avail.len() < wire::PREAMBLE_LEN {
                            if self.peer_eof {
                                self.dead = true;
                            }
                            return progress;
                        }
                        match wire::check_preamble(&avail[..wire::PREAMBLE_LEN]) {
                            Ok(_) => {
                                self.consumed += wire::PREAMBLE_LEN;
                                self.proto = Proto::Binary;
                            }
                            Err(wire::WireError::UnsupportedVersion { requested }) => {
                                // Framing is version-stable, so even a
                                // from-the-future client can read this.
                                let _ = wire::append_frame(
                                    &mut self.out,
                                    0,
                                    &Response::Error {
                                        code: codes::UNSUPPORTED_PROTOCOL.to_string(),
                                        message: wire::WireError::UnsupportedVersion { requested }
                                            .to_string(),
                                    },
                                );
                                self.closing = true;
                            }
                            Err(_) => {
                                // NUL-led garbage: no protocol to answer in.
                                self.dead = true;
                            }
                        }
                    } else {
                        self.proto = Proto::Legacy;
                    }
                    progress = true;
                    continue;
                }
                Proto::Legacy => {
                    let avail = &self.buf[self.consumed..];
                    let (line_end, next) = match avail.iter().position(|&b| b == b'\n') {
                        Some(nl) => (self.consumed + nl, self.consumed + nl + 1),
                        // A final unterminated line is still served once
                        // the peer has hung up (BufRead::read_line parity).
                        None if self.peer_eof && !avail.is_empty() => {
                            (self.buf.len(), self.buf.len())
                        }
                        None => return progress,
                    };
                    let line = std::str::from_utf8(&self.buf[self.consumed..line_end]);
                    self.consumed = next;
                    match line {
                        // Blank lines are skipped: no answer, no count.
                        Ok(text) if text.trim().is_empty() => {
                            progress = true;
                            self.finish_request(shared, Outcome::Continue);
                            continue;
                        }
                        // A non-UTF-8 line gets an in-band parse error.
                        line => Frame::Line(line.ok()),
                    }
                }
                Proto::Binary => {
                    let avail = &self.buf[self.consumed..];
                    if avail.len() < wire::FRAME_HEADER_LEN {
                        if self.peer_eof && !avail.is_empty() {
                            // Truncated header at EOF: close cleanly.
                            self.closing = true;
                            progress = true;
                        }
                        return progress;
                    }
                    let header = match wire::decode_frame_header(avail) {
                        Ok(header) => header,
                        Err(_) => {
                            self.dead = true;
                            return true;
                        }
                    };
                    if header.payload_len > wire::MAX_PAYLOAD {
                        Frame::Oversized {
                            id: header.request_id,
                            declared: header.payload_len,
                        }
                    } else if avail.len() < wire::FRAME_HEADER_LEN + header.payload_len {
                        if self.peer_eof {
                            // Truncated frame mid-read: close cleanly,
                            // answering nothing for the partial frame.
                            self.closing = true;
                            return true;
                        }
                        return progress;
                    } else {
                        let start = self.consumed + wire::FRAME_HEADER_LEN;
                        self.consumed = start + header.payload_len;
                        Frame::Binary {
                            id: header.request_id,
                            payload: &self.buf[start..self.consumed],
                        }
                    }
                }
            };
            progress = true;
            let outcome = handle_request(shared, scratch, frame, &mut self.out, self.prev_done_us);
            self.finish_request(shared, outcome);
        }
    }

    fn finish_request(&mut self, shared: &ServerShared<'_>, outcome: Outcome) {
        self.prev_done_us = gdcm_obs::timestamp_us();
        match outcome {
            Outcome::Continue => {}
            Outcome::Close => self.closing = true,
            Outcome::Shutdown => {
                shared.trigger_shutdown();
                self.closing = true;
            }
            Outcome::Fatal => self.dead = true,
        }
    }
}

impl Conn {
    /// Sleeps in the kernel until the socket can move: a blocking
    /// `write` of pending output, else a blocking `peek` for input or
    /// EOF. The socket is non-blocking again on return, so the next
    /// [`Conn::pump`] runs unchanged; a socket error kills the
    /// connection, as it would in `pump`.
    fn wait(&mut self) {
        let waited = self.stream.set_nonblocking(false).and_then(|()| {
            if self.written < self.out.len() {
                Write::write(&mut self.stream, &self.out[self.written..]).map(|n| self.written += n)
            } else {
                self.stream.peek(&mut [0u8; 1]).map(drop)
            }
        });
        let restored = self.stream.set_nonblocking(true);
        if let Err(e) = waited.and(restored) {
            if e.kind() != ErrorKind::Interrupted {
                self.dead = true;
            }
        }
    }
}

/// Answers one framed request: decode, dispatch, count, encode, and
/// record. Both protocols run this one function; they differ only in
/// [`decode`] and in how the answer is encoded. Binary request ids
/// double as trace ids, so binary clients correlate slow-log entries
/// without any envelope.
fn handle_request(
    shared: &ServerShared<'_>,
    scratch: &mut Scratch,
    frame: Frame<'_>,
    out: &mut Vec<u8>,
    prev_done_us: u64,
) -> Outcome {
    // The binary request id; `None` for a newline-JSON line.
    let frame_id = match frame {
        Frame::Line(_) => None,
        Frame::Binary { id, .. } | Frame::Oversized { id, .. } => Some(id),
    };
    let telemetry = shared.telemetry;
    let cache_before = telemetry.then(|| shared.serving.cache_stats());
    if telemetry {
        gdcm_obs::reqtrace::begin(frame_id.unwrap_or(0));
        // The read stage spans from the previous request's completion;
        // it belongs in the stage breakdown but not in the latency
        // that ranks the slow log, which starts after the read.
        let now_us = gdcm_obs::timestamp_us();
        gdcm_obs::reqtrace::stage_closed("read", prev_done_us, now_us.saturating_sub(prev_done_us));
    }
    let started = Instant::now();

    let (trace_id, decoded) = decode(shared, &frame);
    if let Some(id) = trace_id {
        gdcm_obs::reqtrace::set_trace_id(id);
    }
    let (label, response) = match decoded {
        Decoded::Request(request) => (request_label(&request), dispatch(shared, request)),
        Decoded::Cached(latency_ms) => ("predict", Response::Prediction { latency_ms }),
        Decoded::Refused(code, message) => (
            code,
            Response::Error {
                code: code.to_string(),
                message,
            },
        ),
    };
    let outcome = match (&frame, &response) {
        (Frame::Oversized { .. }, _) => Outcome::Close,
        (_, Response::ShuttingDown) => Outcome::Shutdown,
        _ => Outcome::Continue,
    };
    shared.requests.fetch_add(1, Ordering::SeqCst);
    let is_error = matches!(response, Response::Error { .. });
    if is_error {
        shared.request_errors.fetch_add(1, Ordering::SeqCst);
    }

    let serialized = {
        let _stage = gdcm_obs::reqtrace::stage("serialize");
        scratch.ser.clear();
        match (frame_id, trace_id) {
            (Some(_), _) => wire::append_value(&mut scratch.ser, &response).is_ok(),
            // Enveloped lines get enveloped responses — errors
            // included, so clients can correlate failures too. Bare
            // lines keep the legacy bare responses.
            (None, Some(id)) => serde_json::to_writer(
                &mut scratch.ser,
                &ResponseEnvelope {
                    trace_id: Some(id),
                    resp: response,
                },
            )
            .is_ok(),
            (None, None) => serde_json::to_writer(&mut scratch.ser, &response).is_ok(),
        }
    };
    // Responses are plain data and cannot fail to serialize. If one
    // ever does, drop the connection rather than the process.
    let written = serialized && {
        let _stage = gdcm_obs::reqtrace::stage("write");
        match frame_id {
            Some(id) => wire::append_raw_frame(out, id, &scratch.ser).is_ok(),
            None => {
                out.extend_from_slice(&scratch.ser);
                out.push(b'\n');
                true
            }
        }
    };
    if !written {
        return Outcome::Fatal;
    }

    let request_us = started.elapsed().as_micros() as u64;
    gdcm_obs::histogram("serve/request_ms").record(request_us as f64 / 1e3);
    if telemetry {
        record_telemetry(shared, label, request_us, is_error, cache_before);
    }
    outcome
}

/// The protocol-specific input half of [`handle_request`]: turns one
/// frame into a request (or a fast-lane answer, or a refusal), plus
/// the trace id a newline-JSON envelope opted into.
fn decode(shared: &ServerShared<'_>, frame: &Frame<'_>) -> (Option<u64>, Decoded) {
    match *frame {
        Frame::Line(text) => {
            let _stage = gdcm_obs::reqtrace::stage("parse");
            match text {
                Some(text) => parse_line(text),
                None => (
                    None,
                    Decoded::Refused(
                        codes::PARSE_ERROR,
                        "request line is not valid UTF-8".to_string(),
                    ),
                ),
            }
        }
        Frame::Binary { payload, .. } => (None, decode_binary(shared, payload)),
        Frame::Oversized { declared, .. } => (
            None,
            Decoded::Refused(
                codes::FRAME_TOO_LARGE,
                wire::WireError::FrameTooLarge { declared }.to_string(),
            ),
        ),
    }
}

/// Parses one request line: envelope first (opt-in trace id), bare
/// request second. A line that is valid JSON but not a valid request
/// still yields its `trace_id` (if any), so the error response can be
/// correlated with the request that caused it.
fn parse_line(line: &str) -> (Option<u64>, Decoded) {
    if let Ok(env) = serde_json::from_str::<RequestEnvelope>(line) {
        return (env.trace_id, Decoded::Request(env.req));
    }
    match serde_json::from_str::<Request>(line) {
        Ok(request) => (None, Decoded::Request(request)),
        Err(e) => {
            let trace_id = serde_json::from_str::<TraceIdProbe>(line)
                .ok()
                .and_then(|p| p.trace_id);
            let message = format!("unparsable request: {e}");
            (trace_id, Decoded::Refused(codes::PARSE_ERROR, message))
        }
    }
}

/// Decodes one binary payload. A malformed payload inside a well-formed
/// frame is refused in-band and the connection stays open: framing is
/// intact, so neighbouring pipelined requests are unaffected.
fn decode_binary(shared: &ServerShared<'_>, payload: &[u8]) -> Decoded {
    // Wire fast lane: a canonical `Predict` whose network bytes have
    // been seen before can be answered from the prediction cache
    // without decoding the network at all. Any miss — not a Predict,
    // first sighting of these bytes, cache invalidated by a refit —
    // drops to the ordinary decode below, whose successful result
    // repopulates the index.
    let probed = wire::fast::probe_predict(payload)
        .map(|(device, network_bytes)| (device, wire::fast::wire_hash(network_bytes)));
    let cached = probed
        .as_ref()
        .and_then(|(device, hash)| shared.serving.predict_wire_hit(device, *hash));
    if let Some(latency_ms) = cached {
        return Decoded::Cached(latency_ms);
    }
    let parsed = {
        let _stage = gdcm_obs::reqtrace::stage("parse");
        // Canonical-layout fast path; falls back to the generic
        // content-tree decoder on any deviation, so accepted inputs
        // and error text are unchanged.
        wire::fast::decode_request(payload)
    };
    match parsed {
        Ok(request) => {
            if let (Some((_, hash)), Request::Predict { network, .. }) = (&probed, &request) {
                shared.serving.index_wire_hash(*hash, network);
            }
            Decoded::Request(request)
        }
        Err(e) => Decoded::Refused(codes::PARSE_ERROR, format!("unparsable request: {e}")),
    }
}

/// Folds one finished request into the live-telemetry surfaces:
/// windowed counters/histograms, per-stage cumulative histograms, and
/// the slow log. Only called when telemetry is enabled.
fn record_telemetry(
    shared: &ServerShared<'_>,
    label: &str,
    request_us: u64,
    is_error: bool,
    cache_before: Option<CacheStats>,
) {
    let now_us = gdcm_obs::timestamp_us();
    gdcm_obs::windowed_counter("serve/requests").add_at(1, now_us);
    if is_error {
        gdcm_obs::windowed_counter("serve/request_errors").add_at(1, now_us);
    }
    gdcm_obs::windowed_histogram("serve/request_us").record_at(request_us as f64, now_us);
    if let Some(before) = cache_before {
        // Attribute this request's cache activity to the window. Deltas
        // may briefly include a concurrent connection's lookups;
        // windowed totals stay exact because every connection records
        // its own delta against its own `before` snapshot only once per
        // request.
        let after = shared.serving.cache_stats();
        let deltas = [
            (
                "serve/pred_cache_hit",
                after.prediction_hits.saturating_sub(before.prediction_hits),
            ),
            (
                "serve/pred_cache_miss",
                after
                    .prediction_misses
                    .saturating_sub(before.prediction_misses),
            ),
            (
                "serve/enc_cache_hit",
                after.encoding_hits.saturating_sub(before.encoding_hits),
            ),
            (
                "serve/enc_cache_miss",
                after.encoding_misses.saturating_sub(before.encoding_misses),
            ),
        ];
        for (name, delta) in deltas {
            if delta > 0 {
                gdcm_obs::windowed_counter(name).add_at(delta, now_us);
            }
        }
    }
    if let Some(ctx) = gdcm_obs::reqtrace::end() {
        ctx.merge_into_registry("serve");
        gdcm_obs::slowlog::offer(gdcm_obs::slowlog::SlowEntry {
            trace_id: ctx.trace_id,
            label: label.to_string(),
            total_us: request_us,
            ts_us: ctx.started_us,
            stages: ctx.stages,
        });
    }
}

/// Maps one request to one response against the serving repository.
/// Mutations go through the ingestion pipeline, so with a WAL they are
/// durable (append + fsync) before the `Ok` acknowledges them. `Fit`
/// does too: the WAL records rows, not models, so the pipeline
/// re-snapshots after a successful fit — otherwise crash-and-replay
/// would silently revert an acknowledged fit to the snapshot's model.
fn dispatch(shared: &ServerShared<'_>, request: Request) -> Response {
    let serving = shared.serving;
    let ingest = &shared.ingest;
    let fail = |e: crate::ServeError| Response::Error {
        code: e.code().to_string(),
        message: e.to_string(),
    };
    let ack = |result: Result<(), crate::ServeError>| result.map_or_else(fail, |()| Response::Ok);
    match request {
        Request::Ping => Response::Pong,
        Request::Stats => {
            let cache = serving.cache_stats();
            Response::Stats {
                devices: serving.n_devices(),
                rows: serving.n_rows(),
                fitted: serving.is_fitted(),
                encoding_hits: cache.encoding_hits,
                encoding_misses: cache.encoding_misses,
                prediction_hits: cache.prediction_hits,
                prediction_misses: cache.prediction_misses,
                requests: shared.requests.load(Ordering::SeqCst) + 1,
            }
        }
        Request::Predict { device, network } => match serving.predict(&device, &network) {
            Ok(latency_ms) => Response::Prediction { latency_ms },
            Err(e) => fail(e),
        },
        Request::PredictBatch { device, networks } => {
            match serving.predict_batch(&device, &networks) {
                Ok(latency_ms) => Response::Predictions { latency_ms },
                Err(e) => fail(e),
            }
        }
        Request::PredictForNewDevice {
            signature_ms,
            network,
        } => match serving.predict_for_new_device(&signature_ms, &network) {
            Ok(latency_ms) => Response::Prediction { latency_ms },
            Err(e) => fail(e),
        },
        Request::OnboardDevice {
            device,
            signature_ms,
        } => ack(ingest.onboard_device(&device, &signature_ms)),
        Request::ReEnroll {
            device,
            signature_ms,
        } => ack(ingest.re_enroll(&device, &signature_ms)),
        Request::Contribute {
            device,
            network,
            latency_ms,
        } => ack(ingest.contribute(&device, &network, latency_ms)),
        Request::Fit => ack(ingest.fit()),
        Request::Shutdown => Response::ShuttingDown,
    }
}
