//! The load generator: binary-v1 connections with a blocking writer
//! thread and a blocking reader thread each, an open-loop scheduler that
//! never blocks on the socket, and a closed-loop pipelined client.
//!
//! Open-loop latency is measured from each request's *scheduled* send
//! time, so a server stall shows up in full instead of slowing the
//! generator down (no coordinated omission). Generator lateness (enqueue
//! time minus due time) is recorded separately so a phase whose
//! generator fell behind can be marked invalid rather than slow.

use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

use gdcm_serve::protocol::wire;

/// Monotonic nanoseconds since the run's base instant.
#[derive(Clone, Copy)]
pub struct Clock(Instant);

impl Default for Clock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock {
    pub fn new() -> Self {
        Self(Instant::now())
    }

    pub fn now(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    fn instant(&self, ns: u64) -> Instant {
        self.0 + Duration::from_nanos(ns)
    }
}

/// A framed request and its id.
pub type Frame = (u64, Vec<u8>);

/// One answered frame.
pub struct Resp {
    pub id: u64,
    pub recv_ns: u64,
    pub payload: Vec<u8>,
}

/// One request as the generator handled it.
#[derive(Clone, Copy)]
pub struct Sent {
    pub id: u64,
    pub due_ns: u64,
    pub sent_ns: u64,
}

/// A pipelined binary-v1 client connection.
pub struct LoadConn {
    stream: TcpStream,
    /// The write half, shared by the writer thread and direct sends.
    write_half: Arc<Mutex<TcpStream>>,
    tx: Option<Sender<Vec<u8>>>,
    writer: Option<JoinHandle<()>>,
    reader: Option<JoinHandle<()>>,
    received: Arc<AtomicU64>,
    responses: Arc<Mutex<Vec<Resp>>>,
    waiter: Arc<Mutex<Option<Thread>>>,
    /// The closed loop's waiter is woken once this many answers are in.
    wake_at: Arc<AtomicU64>,
    sent: u64,
}

impl LoadConn {
    pub fn connect(addr: SocketAddr, clock: Clock) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut first = stream.try_clone()?;
        first.write_all(&wire::preamble())?;
        let write_half = Arc::new(Mutex::new(first));
        let read_half = stream.try_clone()?;
        let (tx, rx) = channel::<Vec<u8>>();
        let writer = {
            let write_half = Arc::clone(&write_half);
            std::thread::spawn(move || {
                while let Ok(mut buf) = rx.recv() {
                    // Coalesce whatever else is already queued into one write.
                    while let Ok(more) = rx.try_recv() {
                        buf.extend_from_slice(&more);
                    }
                    if write_half
                        .lock()
                        .expect("write half lock")
                        .write_all(&buf)
                        .is_err()
                    {
                        return;
                    }
                }
            })
        };
        let received = Arc::new(AtomicU64::new(0));
        let responses = Arc::new(Mutex::new(Vec::new()));
        let waiter: Arc<Mutex<Option<Thread>>> = Arc::new(Mutex::new(None));
        let wake_at = Arc::new(AtomicU64::new(0));
        let reader = {
            let received = Arc::clone(&received);
            let responses = Arc::clone(&responses);
            let waiter = Arc::clone(&waiter);
            let wake_at = Arc::clone(&wake_at);
            std::thread::spawn(move || {
                let mut r = BufReader::with_capacity(1 << 16, read_half);
                let mut header = [0u8; wire::FRAME_HEADER_LEN];
                loop {
                    if r.read_exact(&mut header).is_err() {
                        return;
                    }
                    let Ok(h) = wire::decode_frame_header(&header) else {
                        return;
                    };
                    let mut payload = vec![0u8; h.payload_len];
                    if r.read_exact(&mut payload).is_err() {
                        return;
                    }
                    let recv_ns = clock.now();
                    responses.lock().expect("response log lock").push(Resp {
                        id: h.request_id,
                        recv_ns,
                        payload,
                    });
                    let n = received.fetch_add(1, Ordering::AcqRel) + 1;
                    if n >= wake_at.load(Ordering::Acquire) {
                        if let Some(t) = waiter.lock().expect("waiter lock").as_ref() {
                            t.unpark();
                        }
                    }
                }
            })
        };
        Ok(Self {
            stream,
            write_half,
            tx: Some(tx),
            writer: Some(writer),
            reader: Some(reader),
            received,
            responses,
            waiter,
            wake_at,
            sent: 0,
        })
    }

    /// Queues framed requests for the writer thread; never blocks.
    pub fn send(&mut self, frames: Vec<u8>, n: u64) {
        self.sent += n;
        if let Some(tx) = &self.tx {
            // A failed send means the writer died on a broken socket;
            // the missing answers are counted by the caller.
            let _ = tx.send(frames);
        }
    }

    /// Writes framed requests on the calling thread. Only for low rates
    /// against a server that is reading: it blocks if the socket is full,
    /// but saves the writer thread's wake-up on an idle host.
    pub fn send_direct(&mut self, frames: &[u8], n: u64) {
        self.sent += n;
        let _ = self
            .write_half
            .lock()
            .expect("write half lock")
            .write_all(frames);
    }

    pub fn received(&self) -> u64 {
        self.received.load(Ordering::Acquire)
    }

    /// Waits until every request sent so far is answered, or `timeout`.
    /// Returns whether the connection drained.
    pub fn drain(&self, timeout: Duration) -> bool {
        let end = Instant::now() + timeout;
        while self.received() < self.sent {
            if Instant::now() > end {
                return false;
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        true
    }

    /// Takes every response logged so far.
    pub fn take_responses(&self) -> Vec<Resp> {
        std::mem::take(&mut *self.responses.lock().expect("response log lock"))
    }

    /// Sends one request and waits for its answer (setup probe).
    pub fn round_trip(&mut self, id: u64, frame: Vec<u8>, timeout: Duration) -> Option<Resp> {
        let before = self.received();
        self.send(frame, 1);
        let end = Instant::now() + timeout;
        while self.received() == before {
            if Instant::now() > end {
                return None;
            }
            std::thread::yield_now();
        }
        self.take_responses().into_iter().find(|r| r.id == id)
    }

    /// Closes both directions and joins the helper threads.
    pub fn close(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.tx = None;
        if let Some(w) = self.writer.take() {
            let _ = w.join();
        }
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
    }
}

impl Drop for LoadConn {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A frame source running ahead of the generator on its own thread, so
/// building requests never delays a send.
pub fn producer<'s, F>(
    scope: &'s std::thread::Scope<'s, '_>,
    lookahead: usize,
    limit: u64,
    mut make: F,
) -> Receiver<Frame>
where
    F: FnMut(u64) -> Frame + Send + 's,
{
    let (tx, rx): (SyncSender<Frame>, _) = std::sync::mpsc::sync_channel(lookahead);
    scope.spawn(move || {
        for i in 0..limit {
            if tx.send(make(i)).is_err() {
                return;
            }
        }
    });
    rx
}

/// Longest pre-due spin of the open-loop scheduler.
const MAX_SPIN_NS: u64 = 1_000_000;
/// Lanes with a smaller mean gap do not spin before due times.
const SPIN_MIN_INTERVAL_NS: u64 = 2_000_000;

/// Sleeps until `spin_ns` before `due`, then yields until `due`.
fn wait_until(clock: Clock, due: u64, spin_ns: u64) {
    let now = clock.now();
    if due > now + spin_ns {
        std::thread::sleep(clock.instant(due - spin_ns) - clock.instant(now));
    }
    while clock.now() < due {
        std::thread::yield_now();
    }
}

/// One stream of requests on one connection at a fixed mean rate.
pub struct Lane {
    pub conn: usize,
    /// Due time of each request, as an offset from the phase start.
    pub due_ns: Vec<u64>,
    /// Mean gap between requests.
    pub interval_ns: u64,
    pub frames: Receiver<Frame>,
    /// Write on the generator thread instead of the writer thread (see
    /// [`LoadConn::send_direct`]).
    pub direct: bool,
}

/// What an open-loop phase did.
pub struct OpenPhase {
    pub end_ns: u64,
    /// Tightest request gap of the phase's lanes.
    pub min_interval_ns: u64,
    /// Per lane, in lane order.
    pub sent: Vec<Vec<Sent>>,
}

/// Runs lanes open-loop: each request is queued at its due time
/// regardless of how many are outstanding.
pub fn open_loop(clock: Clock, conns: &mut [&mut LoadConn], lanes: Vec<Lane>) -> OpenPhase {
    // Prime every lane's first frame so the schedule starts ready.
    let mut lanes: Vec<(Lane, usize, Option<Frame>)> = lanes
        .into_iter()
        .map(|l| {
            let first = if l.due_ns.is_empty() {
                None
            } else {
                l.frames.recv().ok()
            };
            (l, 0usize, first)
        })
        .collect();
    let start_ns = clock.now() + 2_000_000;
    // Timer wake-ups overshoot; the last stretch before a due time is
    // spent yielding instead, bounded to a tenth of the tightest gap so
    // high rates do not burn a CPU.
    let min_interval_ns = lanes
        .iter()
        .filter(|(l, ..)| l.due_ns.len() > 1)
        .map(|(l, ..)| l.interval_ns)
        .min()
        .unwrap_or(0);
    // Only low-rate lanes spin: at high rates the yield loop would cost
    // the server a large share of a CPU.
    let spin_ns = if min_interval_ns >= SPIN_MIN_INTERVAL_NS {
        (min_interval_ns / 10).min(MAX_SPIN_NS)
    } else {
        0
    };
    let mut sent: Vec<Vec<Sent>> = lanes
        .iter()
        .map(|(l, ..)| Vec::with_capacity(l.due_ns.len()))
        .collect();
    let mut batches: Vec<(Vec<u8>, u64)> = conns.iter().map(|_| (Vec::new(), 0)).collect();
    let mut direct = vec![false; conns.len()];
    for (l, ..) in &lanes {
        direct[l.conn] |= l.direct;
    }
    loop {
        let next_due = lanes
            .iter()
            .filter_map(|(l, i, _)| l.due_ns.get(*i).map(|d| start_ns + d))
            .min();
        let Some(due) = next_due else { break };
        wait_until(clock, due, spin_ns);
        let now = clock.now();
        for (k, (lane, i, next)) in lanes.iter_mut().enumerate() {
            while let Some(&offset) = lane.due_ns.get(*i) {
                let due = start_ns + offset;
                if due > now {
                    break;
                }
                let (id, frame) = match next.take() {
                    Some(f) => f,
                    None => lane.frames.recv().expect("producer outlives its lane"),
                };
                let b = &mut batches[lane.conn];
                b.0.extend_from_slice(&frame);
                b.1 += 1;
                sent[k].push(Sent {
                    id,
                    due_ns: due,
                    sent_ns: 0,
                });
                *i += 1;
            }
        }
        for (c, b) in batches.iter_mut().enumerate() {
            if b.1 > 0 {
                let frames = std::mem::take(&mut b.0);
                if direct[c] {
                    conns[c].send_direct(&frames, b.1);
                } else {
                    conns[c].send(frames, b.1);
                }
                b.1 = 0;
            }
        }
        let sent_ns = clock.now();
        for lane_sent in &mut sent {
            for s in lane_sent.iter_mut().rev() {
                if s.sent_ns != 0 {
                    break;
                }
                s.sent_ns = sent_ns;
            }
        }
    }
    OpenPhase {
        end_ns: clock.now(),
        min_interval_ns,
        sent,
    }
}

/// What one closed-loop round did.
pub struct ClosedRound {
    pub start_ns: u64,
    /// When the last answer was seen.
    pub end_ns: u64,
    pub sent: Vec<Sent>,
    /// Whether every request was answered before the timeout.
    pub complete: bool,
}

/// Sends a prepared batch of requests keeping at most `depth` in
/// flight, refilling once `REFILL` of them have been answered, until
/// all are answered. Frames go out on the calling thread: a closed loop
/// never outruns a server that is reading.
pub fn closed_round(
    clock: Clock,
    conn: &mut LoadConn,
    depth: u64,
    frames: Vec<Frame>,
    timeout: Duration,
) -> ClosedRound {
    const REFILL: u64 = 8;
    *conn.waiter.lock().expect("waiter lock") = Some(std::thread::current());
    let total = frames.len() as u64;
    let base_received = conn.received();
    let mut frames = frames.into_iter();
    let mut sent = Vec::with_capacity(total as usize);
    let start_ns = clock.now();
    let deadline = start_ns + timeout.as_nanos() as u64;
    let mut buf = Vec::new();
    let complete = loop {
        let answered = conn.received() - base_received;
        if answered >= total {
            break true;
        }
        let now = clock.now();
        if now > deadline {
            break false;
        }
        let in_flight = sent.len() as u64 - answered;
        if in_flight + REFILL <= depth
            || (in_flight < depth && sent.len() as u64 + depth - in_flight >= total)
        {
            buf.clear();
            let mut n = 0;
            for (id, frame) in frames.by_ref().take((depth - in_flight) as usize) {
                buf.extend_from_slice(&frame);
                sent.push(Sent {
                    id,
                    due_ns: now,
                    sent_ns: now,
                });
                n += 1;
            }
            if n > 0 {
                conn.send_direct(&buf, n);
                continue;
            }
        }
        // Sleep until the reader has seen enough answers to refill.
        let want = (sent.len() as u64 + REFILL)
            .saturating_sub(depth)
            .min(total);
        conn.wake_at
            .store(base_received + want.max(answered + 1), Ordering::Release);
        if conn.received() - base_received < want.max(answered + 1) {
            std::thread::park_timeout(Duration::from_millis(1));
        }
    };
    *conn.waiter.lock().expect("waiter lock") = None;
    conn.wake_at.store(0, Ordering::Release);
    ClosedRound {
        start_ns,
        end_ns: clock.now(),
        sent,
        complete,
    }
}
