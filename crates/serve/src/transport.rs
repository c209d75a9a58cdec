//! The HTTP connection layer every server in this crate mounts its routes
//! on: `fitact serve` ([`crate::Server`]) and the campaign coordinator
//! ([`crate::Coordinator`]).
//!
//! # Threading model
//!
//! * one **event-loop** thread owns the listener and every connection
//!   socket: non-blocking accept, incremental request parsing, response
//!   writing and all timeouts run through one readiness poller
//!   (`crate::poller` — epoll on Linux, poll(2) elsewhere on Unix),
//! * a fixed **handler** pool answers parsed requests through the mounted
//!   [`Routes`] (a predict blocks on its batch results, a reload decodes an
//!   artifact, a result merge waits on the campaign ledger — none may stall
//!   the event loop); completions flow back over a channel plus a wake-pipe
//!   byte that interrupts the poller.
//!
//! Connections are HTTP/1.1 with **opt-in** keep-alive and request
//! pipelining: responses are emitted strictly in request order per
//! connection. Past `max_connections` the listener answers `503` with
//! `Retry-After` instead of queueing unboundedly (load-shedding); stalled
//! connections are reaped by an I/O deadline (408) and idle keep-alive
//! connections by a separate idle deadline. Every complete request already
//! buffered is served before the peer's EOF is acted on, so a request sent
//! together with the client's half-close (FIN) is still answered. See
//! `docs/serving.md`.

#![cfg_attr(not(unix), allow(dead_code, unused_imports))]

use crate::http::{encode_typed_response, parse_request, Outcome, Request};
use crate::metrics::Metrics;
use crate::ServeError;
use fitact_io::JsonValue;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Display;
use std::io::{Read, Write};
use std::net::SocketAddr;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[cfg(unix)]
use crate::poller::Poller;
#[cfg(unix)]
use std::os::fd::AsRawFd;
#[cfg(unix)]
use std::os::unix::net::UnixStream;

/// The connection cap of `fitact serve` by default, and of the coordinator.
pub(crate) const DEFAULT_MAX_CONNECTIONS: usize = 256;

/// Poller token of the listening socket.
const TOKEN_LISTENER: u64 = 0;
/// Poller token of the wake pipe's read end.
const TOKEN_WAKE: u64 = 1;
/// First token handed to an accepted connection.
const TOKEN_FIRST_CONN: u64 = 2;

/// Per-connection cap on pipelined requests awaiting a response; past it
/// the connection is answered `429` and closed.
const MAX_INFLIGHT_PER_CONN: usize = 64;

/// Upper bound on socket reads serviced per readiness event, so one
/// fire-hosing connection cannot starve the rest (level-triggered polling
/// re-delivers whatever is left).
const MAX_READS_PER_EVENT: usize = 64;

/// How long a draining server waits for in-flight responses to flush
/// before forcibly dropping connections.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(10);

/// The bounds a mounted service runs under.
#[derive(Clone, Copy)]
pub(crate) struct Limits {
    /// Maximum concurrently served connections; past it a new connection
    /// is answered `503` + `Retry-After` and closed.
    pub max_connections: usize,
    /// Maximum accepted request-body size in bytes (`413` past it).
    pub max_body: usize,
    /// Deadline for socket progress while reading a request or writing a
    /// response (`408`). Does **not** bound handler execution time.
    pub io_timeout: Duration,
    /// How long an idle keep-alive connection may sit between requests.
    pub idle_timeout: Duration,
    /// Handler threads answering routed requests.
    pub handlers: usize,
}

/// A route table mounted on the transport.
pub(crate) trait Routes: std::fmt::Debug + Send + Sync + 'static {
    /// Answers one request. Runs on a handler thread, so it may block.
    fn route(&self, request: &Request) -> Reply;

    /// Where connection events (accepts, sheds, timeouts) are counted.
    fn metrics(&self) -> Option<&Metrics> {
        None
    }

    /// Called once, when the transport begins its graceful drain.
    fn on_shutdown(&self) {}
}

/// A routed request's answer.
pub(crate) struct Reply {
    status: u16,
    content_type: &'static str,
    body: Vec<u8>,
    /// Begin a graceful shutdown once this response is queued.
    then_shutdown: bool,
}

impl Reply {
    /// A JSON answer.
    pub(crate) fn json(status: u16, body: impl Display) -> Reply {
        Reply {
            status,
            content_type: "application/json",
            body: body.to_string().into_bytes(),
            then_shutdown: false,
        }
    }

    /// An `application/octet-stream` answer.
    pub(crate) fn binary(status: u16, body: Vec<u8>) -> Reply {
        Reply {
            status,
            content_type: "application/octet-stream",
            body,
            then_shutdown: false,
        }
    }

    /// A JSON `{"error": message}` answer.
    pub(crate) fn error(status: u16, message: &str) -> Reply {
        Reply::json(status, error_json(message))
    }

    /// This answer, followed by a graceful shutdown of the transport.
    pub(crate) fn then_shutdown(self) -> Reply {
        Reply {
            then_shutdown: true,
            ..self
        }
    }

    fn encode(&self, keep_alive: bool, retry_after: Option<u64>) -> Vec<u8> {
        encode_typed_response(
            self.status,
            self.content_type,
            &self.body,
            keep_alive,
            retry_after,
        )
    }
}

fn error_json(message: &str) -> JsonValue {
    JsonValue::object([("error", message.into())])
}

/// What the event loop, the handlers and the owning handle share.
#[derive(Debug)]
struct Control {
    routes: Arc<dyn Routes>,
    stopping: AtomicBool,
    /// Write half of the event loop's wake pipe: one byte here interrupts
    /// the poller so completions and shutdown are noticed immediately.
    #[cfg(unix)]
    wake_tx: UnixStream,
}

impl Control {
    fn stopping(&self) -> bool {
        self.stopping.load(Ordering::SeqCst)
    }

    /// Interrupts the event loop's poller (best effort — a full pipe means
    /// a wake is already pending).
    fn wake(&self) {
        #[cfg(unix)]
        {
            let _ = (&self.wake_tx).write(&[1]);
        }
    }

    /// Idempotent graceful-shutdown trigger: stop accepting, tell the
    /// routes, wake the event loop so it starts draining.
    fn begin_shutdown(&self) {
        if self.stopping.swap(true, Ordering::SeqCst) {
            return;
        }
        self.routes.on_shutdown();
        self.wake();
    }

    fn count(&self, event: fn(&Metrics)) {
        if let Some(metrics) = self.routes.metrics() {
            event(metrics);
        }
    }
}

/// A running transport: the event loop and its handler pool. Dropping the
/// handle does **not** stop it; call [`Transport::shutdown`], then
/// [`Transport::join`].
#[derive(Debug)]
pub(crate) struct Transport {
    control: Arc<Control>,
    addr: SocketAddr,
    /// The event loop first, then the handlers: the loop owns the job
    /// sender, so the handlers exit once it has.
    threads: Vec<JoinHandle<()>>,
}

impl Transport {
    /// Binds `addr` and starts serving `routes`; threads are named
    /// `{name}-event` and `{name}-handler-{i}`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] for bind and poller failures.
    #[cfg(unix)]
    pub(crate) fn start(
        addr: &str,
        limits: Limits,
        name: &str,
        routes: Arc<dyn Routes>,
    ) -> Result<Transport, ServeError> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        let mut poller = Poller::new()?;
        poller.register(listener.as_raw_fd(), TOKEN_LISTENER, true, false)?;
        poller.register(wake_rx.as_raw_fd(), TOKEN_WAKE, true, false)?;
        let control = Arc::new(Control {
            routes,
            stopping: AtomicBool::new(false),
            wake_tx,
        });
        let (jobs_tx, jobs_rx) = mpsc::channel::<(Ticket, Request)>();
        let jobs_rx = Arc::new(Mutex::new(jobs_rx));
        let (done_tx, done_rx) = mpsc::channel::<(Ticket, Reply)>();
        let mut event_loop = EventLoop {
            control: Arc::clone(&control),
            limits,
            poller,
            listener: Some(listener),
            wake_rx,
            conns: HashMap::new(),
            next_token: TOKEN_FIRST_CONN,
            jobs_tx,
            done_rx,
            stop_seen: None,
        };
        let event = std::thread::Builder::new()
            .name(format!("{name}-event"))
            .spawn(move || {
                event_loop.run();
                // Whatever made the loop exit, the service must come down
                // with it.
                event_loop.control.begin_shutdown();
            })
            .expect("event thread spawns");
        let mut threads = vec![event];
        threads.extend((0..limits.handlers).map(|i| {
            let control = Arc::clone(&control);
            let jobs = Arc::clone(&jobs_rx);
            let done = done_tx.clone();
            std::thread::Builder::new()
                .name(format!("{name}-handler-{i}"))
                .spawn(move || handler_loop(&control, &jobs, &done))
                .expect("handler thread spawns")
        }));
        Ok(Transport {
            control,
            addr,
            threads,
        })
    }

    /// Without the Unix readiness APIs there is no transport: a typed
    /// [`ServeError::InvalidConfig`], never a panic.
    #[cfg(not(unix))]
    pub(crate) fn start(
        _addr: &str,
        _limits: Limits,
        _name: &str,
        _routes: Arc<dyn Routes>,
    ) -> Result<Transport, ServeError> {
        Err(ServeError::InvalidConfig(
            "the event-driven serving transport requires a Unix platform".into(),
        ))
    }

    /// The bound address (resolves the ephemeral port of `…:0`).
    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Triggers the graceful drain: stop accepting, finish in-flight
    /// responses, close. Idempotent; returns immediately.
    pub(crate) fn shutdown(&self) {
        self.control.begin_shutdown();
    }

    /// Blocks until the drain has finished and every thread has exited.
    /// Idempotent.
    pub(crate) fn join(&mut self) {
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// Where a routed request's answer goes: its connection, its place in that
/// connection's response order, and whether the client asked to keep the
/// connection open. Travels with the request to a handler and back with
/// the reply.
#[derive(Clone, Copy)]
struct Ticket {
    conn: u64,
    seq: u64,
    keep_alive: bool,
}

/// One handler thread: pull a request, route it, send the answer back and
/// wake the event loop.
fn handler_loop(
    control: &Control,
    jobs: &Mutex<mpsc::Receiver<(Ticket, Request)>>,
    done: &mpsc::Sender<(Ticket, Reply)>,
) {
    loop {
        // Holding the lock across `recv` is the standard shared-receiver
        // pattern: the waiter inside `recv` releases it as soon as a job
        // (or disconnect) arrives.
        let job = match jobs.lock() {
            Ok(rx) => rx.recv(),
            Err(_) => break,
        };
        let Ok((ticket, request)) = job else { break };
        if done.send((ticket, control.routes.route(&request))).is_err() {
            break;
        }
        control.wake();
    }
}

/// A queued, order-preserving response for one pipelined request.
struct Ready {
    bytes: Vec<u8>,
    close_after: bool,
}

/// Per-connection state owned by the event loop.
struct Conn {
    stream: TcpStream,
    /// Unparsed request bytes.
    buf: Vec<u8>,
    /// Resume offset for the head-terminator scan (see [`parse_request`]).
    scan_from: usize,
    /// Encoded responses not yet written, drained from `out_pos`.
    out: Vec<u8>,
    out_pos: usize,
    /// Sequence number assigned to the next parsed request.
    next_seq: u64,
    /// Sequence number of the next response to emit (pipelining order).
    next_emit: u64,
    /// Completed responses waiting for their turn.
    ready: BTreeMap<u64, Ready>,
    /// Requests parsed but not yet emitted.
    inflight: usize,
    /// No more requests will be parsed (error, `Connection: close`, drain,
    /// or an EOF once the buffered requests are served).
    stop_reading: bool,
    /// Close the socket once `out` is flushed and `inflight` is zero.
    close_after_flush: bool,
    /// The peer sent EOF or the socket failed: nothing more will arrive.
    peer_eof: bool,
    /// Current poller interest `(readable, writable)`; `(false, false)`
    /// means the fd is deregistered.
    interest: (bool, bool),
    /// When to reap this connection, and whether that reap is an idle
    /// keep-alive close (silent) or an I/O stall (408).
    deadline: Option<Instant>,
    idle: bool,
}

impl Conn {
    fn new(stream: TcpStream, idle_until: Instant) -> Conn {
        Conn {
            stream,
            buf: Vec::new(),
            scan_from: 0,
            out: Vec::new(),
            out_pos: 0,
            next_seq: 0,
            next_emit: 0,
            ready: BTreeMap::new(),
            inflight: 0,
            stop_reading: false,
            close_after_flush: false,
            peer_eof: false,
            interest: (true, false),
            deadline: Some(idle_until),
            idle: true,
        }
    }

    fn out_pending(&self) -> bool {
        self.out_pos < self.out.len()
    }

    /// Queues an answer produced by the event loop itself (429, 503 or a
    /// parse error) after which the connection closes.
    fn answer_and_close(&mut self, seq: u64, bytes: Vec<u8>) {
        self.ready.insert(
            seq,
            Ready {
                bytes,
                close_after: true,
            },
        );
        self.stop_reading = true;
    }

    /// Appends every response whose turn has come to the output buffer.
    fn emit_ready(&mut self) {
        while let Some(ready) = self.ready.remove(&self.next_emit) {
            self.out.extend_from_slice(&ready.bytes);
            self.next_emit += 1;
            self.inflight -= 1;
            if ready.close_after {
                self.stop_reading = true;
                self.close_after_flush = true;
                // Nothing after a close-framed response is valid.
                self.ready.clear();
                break;
            }
        }
    }

    /// Writes as much pending output as the socket accepts. `Ok(true)`
    /// means fully flushed; `Err` means the peer is unwritable.
    fn flush(&mut self) -> std::io::Result<bool> {
        while self.out_pending() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.out.clear();
        self.out_pos = 0;
        Ok(true)
    }
}

/// The event loop: owns the listener, the wake pipe and every connection.
#[cfg(unix)]
struct EventLoop {
    control: Arc<Control>,
    limits: Limits,
    poller: Poller,
    listener: Option<TcpListener>,
    wake_rx: UnixStream,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    jobs_tx: mpsc::Sender<(Ticket, Request)>,
    done_rx: mpsc::Receiver<(Ticket, Reply)>,
    /// Set when the stopping flag was first observed; drives the drain.
    stop_seen: Option<Instant>,
}

#[cfg(unix)]
impl EventLoop {
    fn run(&mut self) {
        let mut events = Vec::new();
        loop {
            let now = Instant::now();
            if self.control.stopping() && self.stop_seen.is_none() {
                self.begin_drain(now);
            }
            if let Some(since) = self.stop_seen {
                if self.conns.is_empty() {
                    break;
                }
                if now.duration_since(since) > SHUTDOWN_GRACE {
                    let tokens: Vec<u64> = self.conns.keys().copied().collect();
                    for token in tokens {
                        self.close(token);
                    }
                    break;
                }
            }
            let timeout = self.next_wakeup(now);
            if self.poller.wait(timeout, &mut events).is_err() {
                break;
            }
            let now = Instant::now();
            let mut touched: Vec<u64> = Vec::new();
            for event in &events {
                match event.token {
                    TOKEN_LISTENER => self.handle_listener(now),
                    TOKEN_WAKE => self.drain_wake_pipe(),
                    token => {
                        if event.readable {
                            self.conn_readable(token);
                        }
                        if event.hangup {
                            if let Some(conn) = self.conns.get_mut(&token) {
                                conn.peer_eof = true;
                                conn.stop_reading = true;
                            }
                        }
                        touched.push(token);
                    }
                }
            }
            touched.extend(self.drain_completions());
            for token in touched {
                self.service(token, now);
            }
            self.sweep_deadlines(now);
        }
    }

    /// The poller timeout: the nearest connection deadline, capped by the
    /// shutdown grace window when draining.
    fn next_wakeup(&self, now: Instant) -> Option<Duration> {
        let mut next: Option<Instant> = self.conns.values().filter_map(|c| c.deadline).min();
        if let Some(since) = self.stop_seen {
            let grace_end = since + SHUTDOWN_GRACE;
            next = Some(next.map_or(grace_end, |d| d.min(grace_end)));
        }
        next.map(|d| d.saturating_duration_since(now))
    }

    /// First observation of the stopping flag: close the listener, reap
    /// idle connections, stop reading new requests everywhere.
    fn begin_drain(&mut self, now: Instant) {
        self.stop_seen = Some(now);
        if let Some(listener) = self.listener.take() {
            let _ = self.poller.deregister(listener.as_raw_fd());
        }
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.stop_reading = true;
                conn.buf.clear();
            }
            self.service(token, now);
        }
    }

    fn handle_listener(&mut self, now: Instant) {
        loop {
            let Some(listener) = self.listener.as_ref() else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    if self.control.stopping() {
                        continue; // drop: the drain is about to close the listener
                    }
                    if self.conns.len() >= self.limits.max_connections {
                        // Load-shedding: a bounded inline write beats
                        // silently dropping the socket.
                        self.control.count(Metrics::on_load_shed);
                        let _ = stream.set_nonblocking(true);
                        let shed = Reply::error(503, "server is at its connection limit; retry");
                        let _ = (&stream).write(&shed.encode(false, Some(1)));
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        self.control.count(Metrics::on_io_setup_failure);
                        continue;
                    }
                    // Each response is one complete write. Without this,
                    // Nagle holds a response written while the previous one
                    // is unacknowledged until the client's delayed ACK.
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    if self
                        .poller
                        .register(stream.as_raw_fd(), token, true, false)
                        .is_err()
                    {
                        self.control.count(Metrics::on_io_setup_failure);
                        continue;
                    }
                    self.next_token += 1;
                    self.control.count(Metrics::on_connection_accepted);
                    self.conns
                        .insert(token, Conn::new(stream, now + self.limits.idle_timeout));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn drain_wake_pipe(&mut self) {
        let mut sink = [0u8; 64];
        while matches!(self.wake_rx.read(&mut sink), Ok(n) if n > 0) {}
    }

    /// Reads whatever the socket has (bounded per event) and parses every
    /// complete request out of the buffer.
    fn conn_readable(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if !conn.stop_reading {
            let mut chunk = [0u8; 16 * 1024];
            for _ in 0..MAX_READS_PER_EVENT {
                match conn.stream.read(&mut chunk) {
                    // EOF: the requests already buffered are still served.
                    Ok(0) => {
                        conn.peer_eof = true;
                        break;
                    }
                    Ok(n) => conn.buf.extend_from_slice(&chunk[..n]),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.peer_eof = true;
                        conn.stop_reading = true;
                        break;
                    }
                }
            }
        }
        self.parse_available(token);
    }

    /// Parses and dispatches every complete request at the front of the
    /// connection's buffer; after the peer's EOF, a trailing partial
    /// request is dropped.
    fn parse_available(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        loop {
            if conn.stop_reading {
                conn.buf.clear();
                conn.scan_from = 0;
                return;
            }
            match parse_request(&conn.buf, &mut conn.scan_from, self.limits.max_body) {
                Ok(Outcome::Complete { request, consumed }) => {
                    conn.buf.drain(..consumed);
                    conn.scan_from = 0;
                    let seq = conn.next_seq;
                    conn.next_seq += 1;
                    conn.inflight += 1;
                    if seq > 0 {
                        self.control.count(Metrics::on_keepalive_reuse);
                    }
                    let keep_alive = request.wants_keep_alive();
                    if !keep_alive {
                        // No pipelining past an explicit (or default) close.
                        conn.stop_reading = true;
                    }
                    if conn.inflight > MAX_INFLIGHT_PER_CONN {
                        let busy = Reply::error(
                            429,
                            "too many pipelined requests in flight on this connection; retry",
                        );
                        conn.answer_and_close(seq, busy.encode(false, Some(1)));
                    } else {
                        let ticket = Ticket {
                            conn: token,
                            seq,
                            keep_alive,
                        };
                        if self.jobs_tx.send((ticket, request)).is_err() {
                            let gone = Reply::error(503, "server is shutting down");
                            conn.answer_and_close(seq, gone.encode(false, None));
                        }
                    }
                }
                // Nothing more will arrive to complete it.
                Ok(Outcome::Partial(_)) if conn.peer_eof => conn.stop_reading = true,
                Ok(Outcome::Partial(_)) => return,
                Err(e) => {
                    let seq = conn.next_seq;
                    conn.next_seq += 1;
                    conn.inflight += 1;
                    let refusal = Reply::error(e.status, &e.message);
                    conn.answer_and_close(seq, refusal.encode(false, None));
                }
            }
        }
    }

    /// Moves handler completions into their connections' ready queues.
    /// Returns the connections that need servicing.
    fn drain_completions(&mut self) -> Vec<u64> {
        let mut touched = Vec::new();
        while let Ok((ticket, reply)) = self.done_rx.try_recv() {
            if reply.then_shutdown {
                // The response is queued before the drain begins, so the
                // admin client always learns the shutdown was accepted.
                self.control.begin_shutdown();
            }
            let Some(conn) = self.conns.get_mut(&ticket.conn) else {
                continue; // connection reaped while the handler ran
            };
            let keep_alive = ticket.keep_alive && !self.control.stopping();
            conn.ready.insert(
                ticket.seq,
                Ready {
                    bytes: reply.encode(keep_alive, None),
                    close_after: !keep_alive,
                },
            );
            touched.push(ticket.conn);
        }
        touched
    }

    /// Emits due responses, flushes, closes finished connections and
    /// re-arms poller interest and deadlines.
    fn service(&mut self, token: u64, now: Instant) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.emit_ready();
        let flushed = match conn.flush() {
            Ok(done) => done,
            Err(_) => {
                self.close(token);
                return;
            }
        };
        let conn = self.conns.get_mut(&token).expect("present above");
        let drained = flushed && conn.inflight == 0 && conn.ready.is_empty();
        if drained && (conn.close_after_flush || conn.peer_eof || conn.stop_reading) {
            self.close(token);
            return;
        }
        // Poller interest: read while requests may still arrive, write
        // while output is pending. `(false, false)` would spin on
        // level-triggered hangup events, so such fds are deregistered.
        let want = (!conn.stop_reading, conn.out_pending());
        if want != conn.interest {
            let fd = conn.stream.as_raw_fd();
            let result = match (conn.interest == (false, false), want == (false, false)) {
                (false, true) => self.poller.deregister(fd),
                (true, false) => self.poller.register(fd, token, want.0, want.1),
                (false, false) => self.poller.modify(fd, token, want.0, want.1),
                (true, true) => Ok(()),
            };
            if result.is_err() {
                self.control.count(Metrics::on_io_setup_failure);
                self.close(token);
                return;
            }
            let conn = self.conns.get_mut(&token).expect("present above");
            conn.interest = want;
        }
        let conn = self.conns.get_mut(&token).expect("present above");
        // Deadlines: socket I/O in progress gets the I/O deadline; a
        // connection waiting only on handlers gets none (predict has its
        // own execution timeout); a quiet keep-alive connection gets the
        // idle deadline.
        conn.idle = false;
        if conn.out_pending() || !conn.buf.is_empty() {
            conn.deadline = Some(now + self.limits.io_timeout);
        } else if conn.inflight > 0 {
            conn.deadline = None;
        } else if conn.stop_reading || conn.close_after_flush {
            conn.deadline = Some(now + self.limits.io_timeout);
        } else {
            conn.deadline = Some(now + self.limits.idle_timeout);
            conn.idle = true;
        }
    }

    /// Reaps connections past their deadline: silently when idle, with a
    /// best-effort 408 when a request or response stalled mid-transfer.
    fn sweep_deadlines(&mut self, now: Instant) {
        let expired: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.deadline.is_some_and(|d| d <= now))
            .map(|(&t, _)| t)
            .collect();
        for token in expired {
            let Some(conn) = self.conns.get_mut(&token) else {
                continue;
            };
            if conn.idle {
                self.control.count(Metrics::on_idle_closed);
                self.close(token);
            } else if conn.out_pending() || conn.close_after_flush || conn.peer_eof {
                // Already trying to finish or the peer is gone: give up.
                self.close(token);
            } else {
                self.control.count(Metrics::on_io_timeout);
                let timeout = Reply::error(408, "request timed out");
                conn.out.extend_from_slice(&timeout.encode(false, None));
                conn.stop_reading = true;
                conn.close_after_flush = true;
                conn.buf.clear();
                self.service(token, now);
            }
        }
    }

    fn close(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            if conn.interest != (false, false) {
                let _ = self.poller.deregister(conn.stream.as_raw_fd());
            }
        }
    }
}
