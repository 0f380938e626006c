//! The socket under every framed connection, whatever its role (the
//! transport docs' "Tiers, roles and threads"): every role reads, writes
//! and closes through here, and what a frame means, and what to do when the
//! socket fails, stays with the role.

use super::super::frame::{Frame, FrameDecoder};
use super::link::LINK;
use crate::metrics::ServiceMetrics;
use crate::telemetry::Stage;
use crate::CloudError;
use bytes::Bytes;
use reactor::{Interest, Poller};
use std::collections::VecDeque;
use std::io::{ErrorKind, Write};
use std::net::{Shutdown, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

/// One registered, nonblocking connection's I/O; owned by its reactor.
pub(super) struct Socket {
    stream: TcpStream,
    /// Its poller token: with [`LINK`] set it is a link's, whose frames
    /// count as relayed and whose flushes go untimed.
    pub(super) token: u64,
    decoder: FrameDecoder,
    writes: WriteQueue,
    /// Interest currently registered with the poller.
    interest: Interest,
    /// When bytes last arrived (registration counts).
    pub(super) heard_at: Instant,
    /// When the write queue last moved, or last fell non-empty.
    progress: Instant,
    /// Deregistered and shut down: nothing is read or written again.
    closed: bool,
}

/// What the next read of a socket found.
pub(super) enum Inbound {
    /// A whole frame, counted received.
    Frame(Frame),
    /// Nothing more until the socket is readable again.
    Dry,
    /// The peer closed its end; `cut` when that left a frame unfinished.
    Eof { cut: bool },
    /// The read failed.
    Failed(std::io::Error),
    /// The peer sent what no frame is: an unknown tag, a malformed body or
    /// a length over the cap.
    Malformed(CloudError),
}

/// How one flush attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum FlushOutcome {
    /// Queue fully flushed.
    Drained,
    /// Socket stopped taking bytes; write interest is needed.
    Blocked,
    /// Write error: the sink is gone.
    Broken,
}

impl Socket {
    /// Makes `stream` nonblocking and registers it under `token` with
    /// `interest`.
    pub(super) fn register(
        stream: TcpStream,
        token: u64,
        interest: Interest,
        poller: &mut Poller,
        metrics: &ServiceMetrics,
    ) -> std::io::Result<Socket> {
        let _ = stream.set_nodelay(true);
        stream.set_nonblocking(true)?;
        poller.register(stream.as_raw_fd(), token, interest)?;
        metrics.reactor_fd_registered();
        let now = Instant::now();
        Ok(Socket {
            stream,
            token,
            decoder: FrameDecoder::new(),
            writes: WriteQueue {
                relay: token & LINK != 0,
                ..WriteQueue::default()
            },
            interest,
            heard_at: now,
            progress: now,
            closed: false,
        })
    }

    /// The next frame: one already buffered, else what a read brings in.
    pub(super) fn next_frame(&mut self, max_frame_len: usize, metrics: &ServiceMetrics) -> Inbound {
        loop {
            match self.decoder.next_frame(max_frame_len) {
                Ok(Some((frame, wire))) => {
                    // Counted like sent frames: a link's as relayed, a
                    // session's in the totals, and all but job traffic
                    // (`Submit`) also as control.
                    match (self.writes.relay, &frame) {
                        (true, _) => metrics.relay_frame_received(wire),
                        (false, Frame::Submit { .. }) => metrics.frame_received(wire),
                        (false, _) => metrics.control_frame_received(wire),
                    }
                    return Inbound::Frame(frame);
                }
                Ok(None) => {}
                Err(e) => return Inbound::Malformed(e),
            }
            match self.decoder.read_from(&mut self.stream) {
                Ok(0) => {
                    let cut = self.decoder.buffered() > 0;
                    return Inbound::Eof { cut };
                }
                Ok(_) => self.heard_at = Instant::now(),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Inbound::Dry,
                Err(e) => return Inbound::Failed(e),
            }
        }
    }

    /// Why the connect in progress failed, if it did.
    pub(super) fn connect_error(&self) -> Option<std::io::Error> {
        self.stream.take_error().unwrap_or_else(Some)
    }

    /// Queues `frame`, a `reply` holding its in-flight slot until flushed or
    /// discarded. `false`, nothing queued, on a closed socket or for a frame
    /// too big for the `u32` length prefix, which no control frame is.
    pub(super) fn queue(&mut self, frame: &Frame, reply: bool, metrics: &ServiceMetrics) -> bool {
        if self.closed {
            return false;
        }
        if self.writes.bytes == 0 {
            self.progress = Instant::now();
        }
        self.writes.push_frame(frame, reply, metrics)
    }

    /// Unflushed bytes; `0` exactly when nothing is queued.
    pub(super) fn queued(&self) -> usize {
        self.writes.bytes
    }

    /// Writes what is queued — on a session, its `ReactorFlush` span when
    /// bytes leave — then registers interest in reads while the owner is
    /// `reading` and in writes while anything is left. Returns the reply
    /// frames written whole (their slots free up) and how the attempt
    /// ended. The socket stops reading for good when its owner does.
    pub(super) fn flush(
        &mut self,
        reading: bool,
        poller: &mut Poller,
        metrics: &ServiceMetrics,
    ) -> (usize, FlushOutcome) {
        if self.closed {
            return (0, FlushOutcome::Drained);
        }
        let queued = self.writes.bytes;
        let started = (queued > 0 && !self.writes.relay).then(Instant::now);
        let (replies, outcome) = self.writes.flush(&mut self.stream, metrics);
        if self.writes.bytes < queued {
            self.progress = Instant::now();
            if let Some(started) = started {
                let span = self.progress - started;
                metrics.telemetry().record(Stage::ReactorFlush, span);
            }
        }
        if !reading && self.interest.readable {
            let _ = self.stream.shutdown(Shutdown::Read);
        }
        let want = Interest {
            readable: reading,
            writable: outcome == FlushOutcome::Blocked,
        };
        if want != self.interest
            && poller
                .reregister(self.stream.as_raw_fd(), self.token, want)
                .is_ok()
        {
            self.interest = want;
        }
        (replies, outcome)
    }

    /// When a queue that stopped draining breaks the sink: `timeout` after
    /// it last moved or fell non-empty; `None` with nothing queued.
    pub(super) fn stall_deadline(&self, timeout: Duration) -> Option<Instant> {
        (self.writes.bytes > 0).then(|| self.progress + timeout)
    }

    /// Deregisters the socket, shuts it down and discards what is queued,
    /// returning how many reply frames were discarded (their slots free
    /// up). A closed socket stays closed.
    pub(super) fn close(&mut self, poller: &mut Poller, metrics: &ServiceMetrics) -> usize {
        if std::mem::replace(&mut self.closed, true) {
            return 0;
        }
        if poller.deregister(self.stream.as_raw_fd()).is_ok() {
            metrics.reactor_fd_deregistered();
        }
        let _ = self.stream.shutdown(Shutdown::Both);
        self.writes.discard(metrics)
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

    /// Writes as much as the socket will take. Returns completed reply
    /// frames (their in-flight slots free up) and how the attempt ended.
    fn flush(
        &mut self,
        stream: &mut impl Write,
        metrics: &ServiceMetrics,
    ) -> (usize, FlushOutcome) {
        let mut replies = 0;
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
                    Some((_, true)) => replies += 1,
                    _ => {}
                }
                self.q.pop_front();
            }
            if self.q.is_empty() {
                return (replies, FlushOutcome::Drained);
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
                Ok(0) => return (replies, FlushOutcome::Broken),
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
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    return (replies, FlushOutcome::Blocked)
                }
                Err(_) => return (replies, FlushOutcome::Broken),
            }
        }
    }

    /// Drops everything (broken sink), returning how many queued reply
    /// frames were discarded so their in-flight slots free up. Frames that
    /// never fully flushed are uncounted from the sent totals.
    fn discard(&mut self, metrics: &ServiceMetrics) -> usize {
        let mut replies = 0;
        for p in self.q.drain(..) {
            match p.end_of_frame {
                Some((wire, true)) => {
                    metrics.frame_send_aborted(wire);
                    replies += 1;
                }
                Some((wire, false)) if !self.relay => metrics.control_frame_send_aborted(wire),
                _ => {}
            }
        }
        metrics.write_queue_shrank(self.bytes);
        self.bytes = 0;
        replies
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
            let (_, outcome) = q.flush(&mut server_side, &metrics);
            match outcome {
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
        let mut reply_frames = 0;
        loop {
            let (replies, outcome) = q.flush(&mut sink, &metrics);
            reply_frames += replies;
            match outcome {
                FlushOutcome::Drained => break,
                FlushOutcome::Blocked => {}
                FlushOutcome::Broken => panic!("stutter is not an error"),
            }
        }
        assert_eq!(reply_frames, 2);
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
        let replies = q.discard(&metrics);
        assert_eq!(replies, 2);
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
        let mut sock = Socket::register(a, 1, Interest::READABLE, &mut poller, &metrics).unwrap();
        let timeout = Duration::from_secs(3600);
        assert_eq!(sock.stall_deadline(timeout), None);
        let queued_at = Instant::now();
        assert!(sock.queue(&Frame::Pong { nonce: 1 }, false, &metrics));
        assert!(sock.stall_deadline(timeout).unwrap() >= queued_at + timeout);
        // A second frame on a queue still waiting does not restart it.
        let first = sock.stall_deadline(timeout);
        assert!(sock.queue(&Frame::Pong { nonce: 2 }, false, &metrics));
        assert_eq!(sock.stall_deadline(timeout), first);
        assert_eq!(sock.close(&mut poller, &metrics), 0);
        assert_eq!(sock.stall_deadline(timeout), None);
        assert!(!sock.queue(&Frame::Pong { nonce: 3 }, false, &metrics));
    }
}
