//! The socket under every framed connection, whatever its role (the
//! transport docs' "Driver and machines"). A machine queues frames on it,
//! says whether it still reads, and asks it to dial or to close; the driver
//! does the I/O — reads, dials, registrations, flushes with their interest,
//! closes — and the stall clock lives here, one rule for every role.

use super::super::frame::{Frame, FrameDecoder};
use super::super::TransportConfig;
use super::link::LINK;
use crate::metrics::ServiceMetrics;
use crate::telemetry::Stage;
use crate::CloudError;
use bytes::Bytes;
use reactor::{Interest, Poller};
use std::collections::VecDeque;
use std::io::{Error, ErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

/// Cap on one exporter request's header bytes; enough for any scraper's
/// `GET /metrics` preamble, small enough that a hostile peer buys nothing.
const HTTP_REQUEST_CAP: usize = 4096;

/// One connection slot's I/O state; owned by its reactor. A link's slot
/// outlives its connections: each dial starts a new one in it.
pub(crate) struct Socket {
    /// The connection; `None` before the first dial and once closed.
    stream: Option<TcpStream>,
    /// A connect for the driver to start, once the connection `stream`
    /// holds, if any, is closed.
    dial: Option<SocketAddr>,
    /// Its poller token: with [`LINK`] set it is a link's, whose frames
    /// count as relayed and whose flushes go untimed.
    token: u64,
    decoder: FrameDecoder,
    writes: WriteQueue,
    /// Interest registered with the poller; `None` while unregistered.
    interest: Option<Interest>,
    /// The connect finished (an accepted connection's has): until then
    /// nothing is read or written.
    connected: bool,
    /// The owner takes frames from it; cleared when it stops reading for
    /// good.
    pub(super) reading: bool,
    /// A scrape's: it reads an HTTP request head, not frames; no flush spans.
    pub(super) head: bool,
    /// The owner is done with the connection: the driver writes what it
    /// can of the queue, then closes it.
    closing: bool,
    /// Frames were queued since the last flush.
    fresh: bool,
    /// When bytes last arrived (registration counts).
    pub(super) heard_at: Instant,
    /// When the slot was made: for an accepted connection, its accept.
    pub(super) opened: Instant,
    /// When the write queue last moved, or last fell non-empty.
    progress: Instant,
    max_frame_len: usize,
    write_timeout: Duration,
}

/// What the next read of a socket found, or how it failed.
pub(crate) enum Inbound {
    /// A whole frame, counted received.
    Frame(Frame),
    /// A whole request head, on a socket that reads one: its blank line,
    /// or [`HTTP_REQUEST_CAP`] bytes without one.
    Head,
    /// The peer closed its end; `cut` when that left a frame unfinished.
    Eof { cut: bool },
    /// A read, a connect or the sink failed: a write broke or stalled past
    /// the write timeout, and what was queued is gone.
    Failed(Error),
    /// The peer sent what no frame is: an unknown tag, a malformed body or
    /// a length over the cap.
    Malformed(CloudError),
}

/// How one flush attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlushOutcome {
    /// Queue fully flushed.
    Drained,
    /// Socket stopped taking bytes; write interest is needed.
    Blocked,
    /// Write error: the sink is gone.
    Broken,
}

impl Socket {
    /// A slot with no connection, for `token`, framed and timed by `config`.
    pub(super) fn new(token: u64, config: &TransportConfig) -> Socket {
        let now = Instant::now();
        Socket {
            stream: None,
            dial: None,
            token,
            decoder: FrameDecoder::new(),
            writes: WriteQueue {
                relay: token & LINK != 0,
                ..WriteQueue::default()
            },
            interest: None,
            connected: false,
            reading: true,
            head: false,
            closing: false,
            fresh: false,
            heard_at: now,
            opened: now,
            progress: now,
            max_frame_len: config.max_frame_len,
            write_timeout: config.write_timeout,
        }
    }

    /// An accepted connection, for the driver to register.
    pub(super) fn accepted(stream: TcpStream, token: u64, config: &TransportConfig) -> Socket {
        Socket {
            stream: Some(stream),
            connected: true,
            ..Socket::new(token, config)
        }
    }

    /// Starts a new connection to `peer`: the one the slot holds, if any,
    /// ends, its queue discarded.
    pub(super) fn dial(&mut self, peer: SocketAddr, metrics: &ServiceMetrics) {
        self.writes.discard(metrics);
        self.closing = self.stream.is_some();
        self.dial = Some(peer);
        self.connected = false;
        self.reading = true;
        self.decoder = FrameDecoder::new();
    }

    /// The owner is done with the connection: what is queued goes out as
    /// far as the socket takes it, then it closes. A dial not yet started
    /// is dropped.
    pub(super) fn close(&mut self) {
        self.closing = true;
        self.dial = None;
    }

    /// The connect finished.
    pub(super) fn connected(&self) -> bool {
        self.connected
    }

    /// Queues `frame`, a `reply` holding its in-flight slot until flushed or
    /// discarded. `false`, nothing queued, on a closed socket or for a frame
    /// too big for the `u32` length prefix, which no control frame is.
    pub(super) fn queue(&mut self, frame: &Frame, reply: bool, metrics: &ServiceMetrics) -> bool {
        // A connection, or a dial, the owner has not closed.
        if self.dial.is_none() && (self.stream.is_none() || self.closing) {
            return false;
        }
        if self.writes.bytes == 0 {
            self.progress = Instant::now();
        }
        self.fresh = true;
        self.writes.push_frame(frame, reply, metrics)
    }

    /// Queues `page`, bytes that are no frame (a scrape's answer), on the
    /// empty queue of an open connection: no frame counter moves.
    pub(super) fn queue_page(&mut self, page: Bytes, metrics: &ServiceMetrics) {
        self.progress = Instant::now();
        self.fresh = true;
        self.writes.bytes += page.len();
        metrics.write_queue_grew(page.len());
        self.writes.q.push_back(Pending {
            buf: page,
            pos: 0,
            end_of_frame: None,
        });
    }

    /// Unflushed bytes; `0` exactly when nothing is queued.
    pub(super) fn queued(&self) -> usize {
        self.writes.bytes
    }

    /// Reply frames queued and not yet written whole: each holds its
    /// in-flight slot.
    pub(super) fn replies(&self) -> usize {
        self.writes.replies
    }

    /// When a queue that stopped draining breaks the sink: the write
    /// timeout after it last moved or fell non-empty; `None` with nothing
    /// queued or no connection yet.
    pub(super) fn stall_deadline(&self) -> Option<Instant> {
        (self.connected && self.writes.bytes > 0).then(|| self.progress + self.write_timeout)
    }

    /// A close, a dial, a registration or a flush of frames queued since
    /// the last waits for the driver.
    pub(super) fn pending(&self) -> bool {
        let registering = self.stream.is_some() && self.interest.is_none();
        self.closing || self.dial.is_some() || registering || (self.fresh && self.connected)
    }

    /// The driver may take a frame: a registered, connected connection
    /// whose owner reads.
    pub(super) fn reads(&self) -> bool {
        self.reading && self.connected && !self.closing && self.interest.is_some()
    }

    /// The next frame: one already buffered, else what a read brings in;
    /// `None` until the socket is readable again.
    pub(super) fn next_frame(&mut self, metrics: &ServiceMetrics) -> Option<Inbound> {
        let stream = self.stream.as_mut()?;
        loop {
            let decoded = match self.head {
                true if self.decoder.holds_head(HTTP_REQUEST_CAP) => return Some(Inbound::Head),
                true => Ok(None),
                false => self.decoder.next_frame(self.max_frame_len),
            };
            match decoded {
                Ok(Some((frame, wire))) => {
                    // Counted like sent frames: a link's as relayed, a
                    // session's in the totals, and all but job traffic
                    // (`Submit`) also as control.
                    match (self.writes.relay, &frame) {
                        (true, _) => metrics.relay_frame_received(wire),
                        (false, Frame::Submit { .. }) => metrics.frame_received(wire),
                        (false, _) => metrics.control_frame_received(wire),
                    }
                    return Some(Inbound::Frame(frame));
                }
                Ok(None) => {}
                Err(e) => return Some(Inbound::Malformed(e)),
            }
            match self.decoder.read_from(stream) {
                Ok(0) => {
                    let cut = self.decoder.buffered() > 0;
                    return Some(Inbound::Eof { cut });
                }
                Ok(_) => self.heard_at = Instant::now(),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return None,
                Err(e) => return Some(Inbound::Failed(e)),
            }
        }
    }

    /// Everything the owner asked of the socket since the last time, in
    /// order: a close (after one last flush, unless a dial replaces the
    /// connection), a dial, the registration, whether a connect ended, then
    /// a flush with the interest it leaves. A failure closes the socket and
    /// is returned.
    pub(super) fn io(
        &mut self,
        poller: &mut Poller,
        metrics: &ServiceMetrics,
        now: Instant,
    ) -> Option<Inbound> {
        if std::mem::take(&mut self.closing) {
            let replaced = self.dial.is_some();
            if !replaced {
                self.flush(poller, metrics);
            }
            self.shut(poller, metrics);
            if !replaced {
                self.writes.discard(metrics);
            }
        }
        if let Some(peer) = self.dial.take() {
            match reactor::connect(peer) {
                Ok(stream) => self.stream = Some(stream),
                Err(e) => return Some(self.fail(e, poller, metrics)),
            }
        }
        if let (None, Some(stream)) = (self.interest, &self.stream) {
            let _ = stream.set_nodelay(true);
            let want = Interest {
                readable: self.reading,
                writable: !self.connected,
            };
            let fd = stream.as_raw_fd();
            let registered = stream
                .set_nonblocking(true)
                .and_then(|()| poller.register(fd, self.token, want));
            if let Err(e) = registered {
                return Some(self.fail(e, poller, metrics));
            }
            metrics.reactor_fd_registered();
            self.interest = Some(want);
            self.heard_at = Instant::now();
        }
        if let (false, Some(stream)) = (self.connected, &self.stream) {
            // A connect ends by its first writability, registered for.
            match stream.take_error().unwrap_or_else(Some) {
                Some(e) => return Some(self.fail(e, poller, metrics)),
                None => self.connected = stream.peer_addr().is_ok(),
            }
        }
        if !self.connected {
            return None;
        }
        let cause = match self.flush(poller, metrics) {
            FlushOutcome::Broken => Error::new(ErrorKind::BrokenPipe, "write failed"),
            _ if self.stall_deadline().is_some_and(|at| at <= now) => {
                Error::new(ErrorKind::TimedOut, "writes stalled past the write timeout")
            }
            _ => return None,
        };
        Some(self.fail(cause, poller, metrics))
    }

    /// Writes what is queued — on a session, its `ReactorFlush` span when
    /// bytes leave — then registers interest in reads while the owner
    /// reads and in writes while anything is left. The socket stops
    /// reading for good when its owner does.
    fn flush(&mut self, poller: &mut Poller, metrics: &ServiceMetrics) -> FlushOutcome {
        self.fresh = false;
        let (Some(stream), Some(interest)) = (&mut self.stream, self.interest) else {
            return FlushOutcome::Drained;
        };
        let queued = self.writes.bytes;
        let started = (queued > 0 && !self.writes.relay && !self.head).then(Instant::now);
        let outcome = self.writes.flush(stream, metrics);
        if self.writes.bytes < queued {
            self.progress = Instant::now();
            if let Some(started) = started {
                let span = self.progress - started;
                metrics.telemetry().record(Stage::ReactorFlush, span);
            }
        }
        if !self.reading && interest.readable {
            let _ = stream.shutdown(Shutdown::Read);
        }
        let want = Interest {
            readable: self.reading,
            writable: outcome == FlushOutcome::Blocked,
        };
        if want != interest
            && poller
                .reregister(stream.as_raw_fd(), self.token, want)
                .is_ok()
        {
            self.interest = Some(want);
        }
        outcome
    }

    /// Closes the socket for `cause`, discarding what is queued.
    fn fail(&mut self, cause: Error, poller: &mut Poller, metrics: &ServiceMetrics) -> Inbound {
        self.shut(poller, metrics);
        self.writes.discard(metrics);
        Inbound::Failed(cause)
    }

    /// Deregisters the connection and shuts it down.
    fn shut(&mut self, poller: &mut Poller, metrics: &ServiceMetrics) {
        let Some(stream) = self.stream.take() else {
            return;
        };
        if self.interest.take().is_some() && poller.deregister(stream.as_raw_fd()).is_ok() {
            metrics.reactor_fd_deregistered();
        }
        let _ = stream.shutdown(Shutdown::Both);
    }
}

/// One queued chunk of outbound bytes. A frame is up to three chunks (see
/// [`Frame::wire_chunks`]: a reply's trained model is queued as the
/// worker's own buffer, never copied); the last carries the frame
/// accounting.
struct Pending {
    buf: Bytes,
    pos: usize,
    /// `(wire_len, is_reply)` on a frame's final chunk.
    end_of_frame: Option<(usize, bool)>,
}

/// A socket's outbound queue.
#[derive(Default)]
struct WriteQueue {
    q: VecDeque<Pending>,
    /// Unflushed bytes across all chunks (mirrored into the service-wide
    /// backpressure gauge).
    bytes: usize,
    /// Reply frames queued and not yet written whole.
    replies: usize,
    /// A link's queue: its frames are counted as relayed once written, never
    /// in a session's totals.
    relay: bool,
}

impl WriteQueue {
    /// Queues one frame. Returns `false` — nothing queued — only for a
    /// frame too big for the `u32` length prefix, which no control frame is.
    fn push_frame(&mut self, frame: &Frame, is_reply: bool, metrics: &ServiceMetrics) -> bool {
        let Ok(chunks) = frame.wire_chunks() else {
            return false;
        };
        let wire: usize = chunks.iter().map(Bytes::len).sum();
        self.bytes += wire;
        self.replies += usize::from(is_reply);
        metrics.write_queue_grew(wire);
        // The frame counters move at *commit* time, not flush time: once a
        // frame is queued its delivery is ordered before any observer can
        // see the peer react to it, so a client that received a reply is
        // guaranteed to find it already counted in the server's stats.
        // (Counting at flush races: on a busy box the completing write can
        // wake the peer, which reads the stats before the writing thread
        // gets to increment.) Frames discarded unsent are uncounted again.
        // Non-reply frames are protocol overhead (Welcome, Pong, Reject,
        // Stats): counted in the totals *and* the control sub-counter.
        match (self.relay, is_reply) {
            (true, _) => {} // counted once written (`flush`)
            (false, true) => metrics.frame_sent(wire),
            (false, false) => metrics.control_frame_sent(wire),
        }
        for buf in chunks.into_iter().filter(|c| !c.is_empty()) {
            self.q.push_back(Pending {
                buf,
                pos: 0,
                end_of_frame: None,
            });
        }
        let last = self.q.back_mut().expect("a frame's head is never empty");
        last.end_of_frame = Some((wire, is_reply));
        true
    }

    /// Writes as much as the socket will take, and says how the attempt
    /// ended; reply frames written whole give up their slots.
    fn flush(&mut self, stream: &mut impl Write, metrics: &ServiceMetrics) -> FlushOutcome {
        loop {
            // Pop chunks that are already fully written (including any
            // zero-length ones) before gathering.
            while let Some(front) = self.q.front() {
                if front.pos < front.buf.len() {
                    break;
                }
                match front.end_of_frame {
                    Some((wire, _)) if self.relay => metrics.relay_frame_sent(wire),
                    // Counted at push time; here only the in-flight slot is
                    // released, which genuinely requires the bytes flushed.
                    Some((_, true)) => self.replies -= 1,
                    _ => {}
                }
                self.q.pop_front();
            }
            if self.q.is_empty() {
                return FlushOutcome::Drained;
            }
            // Gather the front chunks into one vectored write: a reply
            // split into prefix/head, payload and trace-tail chunks leaves
            // in a single syscall, not one small TCP segment per chunk.
            let mut iov = [std::io::IoSlice::new(&[]); 8];
            let mut n_iov = 0;
            for p in self.q.iter() {
                if n_iov == iov.len() {
                    break;
                }
                if p.pos < p.buf.len() {
                    iov[n_iov] = std::io::IoSlice::new(&p.buf[p.pos..]);
                    n_iov += 1;
                }
            }
            match stream.write_vectored(&iov[..n_iov]) {
                Ok(0) => return FlushOutcome::Broken,
                Ok(mut n) => {
                    self.bytes -= n;
                    metrics.write_queue_shrank(n);
                    // Chunks written whole are popped (and their frames
                    // settled) at the top of the next round.
                    for p in self.q.iter_mut() {
                        if n == 0 {
                            break;
                        }
                        let take = n.min(p.buf.len() - p.pos);
                        p.pos += take;
                        n -= take;
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return FlushOutcome::Blocked,
                Err(_) => return FlushOutcome::Broken,
            }
        }
    }

    /// Drops everything (broken sink or a closed connection), freeing the
    /// queued replies' slots. Frames that never fully flushed are uncounted
    /// from the sent totals.
    fn discard(&mut self, metrics: &ServiceMetrics) {
        for p in self.q.drain(..) {
            match p.end_of_frame {
                Some((wire, true)) => metrics.frame_send_aborted(wire),
                Some((wire, false)) if !self.relay => metrics.control_frame_send_aborted(wire),
                _ => {}
            }
        }
        metrics.write_queue_shrank(self.bytes);
        self.bytes = 0;
        self.replies = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::super::super::frame;
    use super::*;
    use crate::protocol::JobResult;
    use crate::telemetry::TraceId;
    use std::io::Read;
    use std::net::TcpListener;

    fn loopback_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        a.set_nonblocking(true).unwrap();
        (a, b)
    }

    fn ok_reply(request_id: u64, model: Bytes) -> Frame {
        Frame::Reply {
            request_id,
            result: Ok(JobResult {
                job_id: request_id,
                trained_model: model,
                history: amalgam_nn::metrics::History::new(),
                bytes_received: 1,
                bytes_sent: 2,
                train_seconds: 0.1,
            }),
            trace: Some(TraceId::from_words(1, 2)),
        }
    }

    #[test]
    fn write_queue_flushes_split_replies_bitwise_like_whole_frames() {
        let metrics = ServiceMetrics::new();
        let (mut server_side, mut client_side) = loopback_pair();
        let model = Bytes::from(vec![9u8; 1000]);
        let reply = ok_reply(3, model.clone());
        let mut q = WriteQueue::default();
        assert!(q.push_frame(&reply, true, &metrics));
        // The model is queued as the worker's buffer, not a copy of it.
        assert!(q.q.iter().any(|p| p.buf.as_ptr() == model.as_ptr()));
        loop {
            match q.flush(&mut server_side, &metrics) {
                FlushOutcome::Drained => break,
                FlushOutcome::Blocked => std::thread::sleep(Duration::from_millis(1)),
                FlushOutcome::Broken => panic!("loopback write broke"),
            }
        }
        assert_eq!(q.bytes, 0);

        let mut expect = Vec::new();
        frame::write_frame(&mut expect, &reply).unwrap();
        let mut got = vec![0u8; expect.len()];
        client_side.read_exact(&mut got).unwrap();
        assert_eq!(got, expect);
    }

    #[test]
    fn write_queue_survives_one_byte_at_a_time_sinks() {
        // Stuttering sink: accepts one byte, then WouldBlocks, alternating —
        // the slow-loris of the write side. Every boundary must be safe,
        // the chunk boundaries inside a split reply included.
        struct Stutter {
            out: Vec<u8>,
            ready: bool,
        }
        impl Write for Stutter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if self.ready {
                    self.ready = false;
                    self.out.push(buf[0]);
                    Ok(1)
                } else {
                    self.ready = true;
                    Err(std::io::Error::from(ErrorKind::WouldBlock))
                }
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let frames = [
            (Frame::Pong { nonce: 7 }, false),
            (ok_reply(1, Bytes::from(vec![4u8; 300])), true),
            (
                Frame::Reply {
                    request_id: 2,
                    result: Err(CloudError::ServiceUnavailable),
                    trace: None,
                },
                true,
            ),
        ];
        let metrics = ServiceMetrics::new();
        let mut q = WriteQueue::default();
        let mut expect = Vec::new();
        for (f, is_reply) in &frames {
            assert!(q.push_frame(f, *is_reply, &metrics));
            frame::write_frame(&mut expect, f).unwrap();
        }

        let mut sink = Stutter {
            out: Vec::new(),
            ready: false,
        };
        assert_eq!(q.replies, 2);
        loop {
            match q.flush(&mut sink, &metrics) {
                FlushOutcome::Drained => break,
                FlushOutcome::Blocked => {}
                FlushOutcome::Broken => panic!("stutter is not an error"),
            }
        }
        assert_eq!(q.replies, 0, "both replies written whole");
        assert_eq!(q.bytes, 0);
        assert_eq!(sink.out, expect);
        let stats = metrics.snapshot();
        assert_eq!(stats.reactor_write_queue_bytes, 0);
        assert_eq!(stats.frames_sent, 3);
    }

    #[test]
    fn discarding_a_queue_frees_reply_slots_and_the_gauge() {
        let metrics = ServiceMetrics::new();
        let mut q = WriteQueue::default();
        q.push_frame(&Frame::Pong { nonce: 1 }, false, &metrics);
        q.push_frame(&ok_reply(2, Bytes::from_static(b"weights")), true, &metrics);
        q.push_frame(
            &Frame::Reply {
                request_id: 3,
                result: Err(CloudError::ServiceUnavailable),
                trace: None,
            },
            true,
            &metrics,
        );
        assert!(metrics.snapshot().reactor_write_queue_bytes > 0);
        assert_eq!(q.replies, 2);
        q.discard(&metrics);
        assert_eq!(q.replies, 0);
        assert_eq!(metrics.snapshot().reactor_write_queue_bytes, 0);
        assert_eq!(metrics.snapshot().frames_sent, 0);
        assert_eq!(metrics.snapshot().control_frames_sent, 0);
        assert_eq!(metrics.snapshot().check_invariants(), Ok(()));
        assert!(q.q.is_empty());
    }

    /// One stall rule for every role: a queue that sat empty since the
    /// socket was registered gets its whole write timeout from the moment
    /// a frame lands on it, not a deadline already past.
    #[test]
    fn the_stall_clock_starts_when_a_frame_lands_on_an_empty_queue() {
        let metrics = ServiceMetrics::new();
        let mut poller = Poller::new().unwrap();
        let (a, _b) = loopback_pair();
        let timeout = Duration::from_secs(3600);
        let config = TransportConfig::default().write_timeout(timeout);
        let mut sock = Socket::accepted(a, 1, &config);
        assert!(sock.io(&mut poller, &metrics, Instant::now()).is_none());
        assert_eq!(sock.stall_deadline(), None);
        let queued_at = Instant::now();
        assert!(sock.queue(&Frame::Pong { nonce: 1 }, false, &metrics));
        assert!(sock.stall_deadline().unwrap() >= queued_at + timeout);
        // A second frame on a queue still waiting does not restart it.
        let first = sock.stall_deadline();
        assert!(sock.queue(&Frame::Pong { nonce: 2 }, false, &metrics));
        assert_eq!(sock.stall_deadline(), first);
        sock.close();
        assert!(!sock.queue(&Frame::Pong { nonce: 3 }, false, &metrics));
        assert!(sock.io(&mut poller, &metrics, Instant::now()).is_none());
        assert_eq!(sock.stall_deadline(), None);
        assert_eq!(metrics.snapshot().reactor_write_queue_bytes, 0);
    }
}
