//! Frame codec: the length-prefixed messages both transport peers speak.
//!
//! See the [module docs](crate::transport) for the wire format tables. The
//! codec is deliberately symmetric with the job protocol: frame bodies are
//! `wire::Writer`/`wire::Reader` encodings, so everything that crosses the
//! socket is the same dumb little-endian format the adversary model
//! already assumes.
//!
//! # One buffer per frame per hop
//!
//! The two *bulk* frames — a `Submit` carrying a job, a successful `Reply`
//! carrying a trained model — are nearly all of the wire, so both
//! directions are built around not copying them:
//!
//! * **Reading.** A length prefix of at least one read chunk
//!   (`SPLIT_THRESHOLD`) gives the body a buffer of its own, sized for that
//!   frame; the socket is read straight into its spare capacity (never past
//!   the frame's end) and the finished buffer *becomes* the [`Bytes`] that
//!   [`Frame::decode`] slices the payload out of. [`FrameDecoder`] is the
//!   one reader; its scratch only ever holds small frames and one read
//!   chunk.
//! * **Writing.** [`Frame::wire_chunks`] is the frame's wire image as
//!   head, shared bulk [`Bytes`], tail. [`write_frame`] and the reactor's
//!   write queue hand those chunks to one vectored write, so a payload
//!   leaves from the buffer it arrived in (proxy) or was produced in
//!   (client, worker). [`Frame::encode`] is the same chunks concatenated.

use crate::protocol::{JobResult, ProgressUpdate};
use crate::telemetry::TraceId;
use crate::CloudError;
use amalgam_tensor::wire::{Reader, Writer};
use amalgam_tensor::TensorError;
use bytes::Bytes;
use std::io::{ErrorKind, IoSlice, Read, Write};

const TAG_HELLO: u8 = 1;
const TAG_SUBMIT: u8 = 2;
const TAG_PING: u8 = 3;
const TAG_GOODBYE: u8 = 4;
const TAG_GETSTATS: u8 = 5;
const TAG_CANCEL: u8 = 6;
const TAG_WELCOME: u8 = 129;
const TAG_REJECT: u8 = 130;
const TAG_REPLY: u8 = 131;
const TAG_PONG: u8 = 132;
const TAG_STATS: u8 = 133;
const TAG_PROGRESS: u8 = 134;

/// Wire size of the optional trace tail on `Submit` and `Reply` bodies: two
/// raw `u64` words, no length prefix.
const TRACE_EXT_LEN: usize = 16;

/// One framed transport message (either direction).
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client opener: supported protocol-version range plus optional key.
    Hello {
        /// Oldest protocol version the client accepts.
        min_version: u32,
        /// Newest protocol version the client speaks.
        max_version: u32,
        /// API key to bind to the session, if any.
        api_key: Option<String>,
    },
    /// Server accepts the session.
    Welcome {
        /// Negotiated protocol version.
        version: u32,
        /// Unanswered submits the session may keep in flight.
        max_in_flight: u32,
        /// The server's frame-length cap (clients must stay under it).
        max_frame_len: u64,
    },
    /// Server refuses the session (version mismatch, capacity, bad opener).
    Reject {
        /// Human-readable refusal reason.
        reason: String,
    },
    /// One job upload; `payload` is a serialized [`crate::CloudJob`].
    Submit {
        /// Client-chosen id echoed back in the matching [`Frame::Reply`].
        request_id: u64,
        /// The serialized job.
        payload: Bytes,
        /// End-to-end trace id, if the submitter minted one.
        trace: Option<TraceId>,
    },
    /// The outcome of one submit; replies may arrive out of order.
    Reply {
        /// The id of the [`Frame::Submit`] this answers.
        request_id: u64,
        /// What the service produced.
        result: Result<JobResult, CloudError>,
        /// The submit's trace id echoed back, if it carried one.
        trace: Option<TraceId>,
    },
    /// Authenticated request for the peer's full telemetry snapshot.
    GetStats {
        /// Client-chosen id echoed back in the matching [`Frame::Stats`].
        request_id: u64,
    },
    /// Answer to [`Frame::GetStats`]: a wire-encoded
    /// [`crate::ServiceStats`] snapshot, or an in-band refusal (e.g.
    /// [`CloudError::Unauthorized`]).
    Stats {
        /// The id of the [`Frame::GetStats`] this answers.
        request_id: u64,
        /// Encoded snapshot bytes, or why the peer refused.
        body: Result<Bytes, CloudError>,
    },
    /// Client asks the server to abandon an unanswered submit. Best-effort:
    /// the job resolves with
    /// [`CloudError::Cancelled`] if the flag lands before it finishes, and
    /// with its normal outcome otherwise — either way exactly one
    /// [`Frame::Reply`] still answers the submit.
    Cancel {
        /// The id of the [`Frame::Submit`] to abandon.
        request_id: u64,
    },
    /// Streamed per-epoch progress for an unanswered submit. Advisory and
    /// unacknowledged: progress frames may be dropped without affecting the
    /// final reply.
    Progress {
        /// The id of the [`Frame::Submit`] this reports on.
        request_id: u64,
        /// The epoch snapshot.
        update: ProgressUpdate,
    },
    /// Keep-alive probe.
    Ping {
        /// Echoed back in the matching [`Frame::Pong`].
        nonce: u64,
    },
    /// Keep-alive answer.
    Pong {
        /// The probe's nonce.
        nonce: u64,
    },
    /// Polite client hang-up.
    Goodbye,
}

fn wire_err(e: TensorError) -> CloudError {
    CloudError::Decode(e.to_string())
}

/// Appends the optional trace tail: two raw `u64` words at the end of the
/// body, no marker byte — the decoder tells "absent" by the body ending
/// where the tail would begin.
fn encode_trace_tail(w: &mut Writer, trace: Option<TraceId>) {
    if let Some(t) = trace {
        let (hi, lo) = t.to_words();
        w.put_u64(hi);
        w.put_u64(lo);
    }
}

/// Reads the optional trace tail: exactly [`TRACE_EXT_LEN`] bytes left
/// means a trace is present, zero means absent; any other residue is left
/// for the caller's trailing-bytes check to reject.
fn decode_trace_tail(r: &mut Reader) -> Result<Option<TraceId>, CloudError> {
    if r.remaining() != TRACE_EXT_LEN {
        return Ok(None);
    }
    let hi = r.get_u64().map_err(wire_err)?;
    let lo = r.get_u64().map_err(wire_err)?;
    Ok(Some(TraceId::from_words(hi, lo)))
}

impl Frame {
    /// Serializes the frame *body* (tag + fields, no length prefix): the
    /// concatenation of [`wire_chunks`](Self::wire_chunks) minus the prefix.
    ///
    /// # Panics
    ///
    /// Panics if a length inside the body does not fit its `u32` prefix.
    pub fn encode(&self) -> Bytes {
        let [head, bulk, tail] = self
            .body_chunks()
            .expect("frame body exceeds the u32 length prefix");
        if bulk.is_empty() && tail.is_empty() {
            return head;
        }
        let mut w = Writer::with_capacity(head.len() + bulk.len() + tail.len());
        for part in [&head, &bulk, &tail] {
            w.put_slice(part);
        }
        w.finish()
    }

    /// The frame as it crosses the wire — length prefix, then body — in at
    /// most three chunks: a head, the frame's bulk payload (a `Submit`'s
    /// job, a successful `Reply`'s trained model) shared rather than
    /// copied, and a tail. Chunks a frame has no use for are empty; their
    /// concatenation is byte for byte the prefix followed by
    /// [`encode`](Self::encode).
    ///
    /// # Errors
    ///
    /// `InvalidInput` if the body (or a length inside it) does not fit the
    /// `u32` prefix.
    pub fn wire_chunks(&self) -> std::io::Result<[Bytes; 3]> {
        let [head, bulk, tail] = self.body_chunks()?;
        let mut prefixed = Writer::with_capacity(4 + head.len());
        prefixed.put_u32(len32(head.len() + bulk.len() + tail.len())?);
        prefixed.put_slice(&head);
        Ok([prefixed.finish(), bulk, tail])
    }

    /// The body as head, bulk, tail — the one place the layout is written.
    fn body_chunks(&self) -> std::io::Result<[Bytes; 3]> {
        let mut w = Writer::with_capacity(32);
        let mut bulk = Bytes::new();
        let mut tail = Writer::new();
        match self {
            Frame::Hello {
                min_version,
                max_version,
                api_key,
            } => {
                w.put_u8(TAG_HELLO);
                w.put_u32(*min_version);
                w.put_u32(*max_version);
                match api_key {
                    Some(key) => {
                        w.put_u8(1);
                        w.put_str(key);
                    }
                    None => w.put_u8(0),
                }
            }
            Frame::Welcome {
                version,
                max_in_flight,
                max_frame_len,
            } => {
                w.put_u8(TAG_WELCOME);
                w.put_u32(*version);
                w.put_u32(*max_in_flight);
                w.put_u64(*max_frame_len);
            }
            Frame::Reject { reason } => {
                w.put_u8(TAG_REJECT);
                w.put_str(reason);
            }
            Frame::Submit {
                request_id,
                payload,
                trace,
            } => {
                w.put_u8(TAG_SUBMIT);
                w.put_u64(*request_id);
                w.put_u32(len32(payload.len())?);
                bulk = payload.clone();
                encode_trace_tail(&mut tail, *trace);
            }
            Frame::Reply {
                request_id,
                result,
                trace,
            } => {
                w.put_u8(TAG_REPLY);
                w.put_u64(*request_id);
                match result {
                    Ok(r) => {
                        // `encode_parts` panics on a model its own u32
                        // prefix cannot carry; here that is an error.
                        len32(r.trained_model.len())?;
                        let [before, model, after] = r.encode_parts();
                        w.put_u8(1);
                        w.put_u32(len32(before.len() + model.len() + after.len())?);
                        w.put_slice(&before);
                        bulk = model;
                        tail.put_slice(&after);
                    }
                    Err(e) => {
                        w.put_u8(0);
                        e.encode_into(&mut w);
                    }
                }
                encode_trace_tail(&mut tail, *trace);
            }
            Frame::GetStats { request_id } => {
                w.put_u8(TAG_GETSTATS);
                w.put_u64(*request_id);
            }
            Frame::Stats { request_id, body } => {
                w.put_u8(TAG_STATS);
                w.put_u64(*request_id);
                match body {
                    Ok(stats) => {
                        w.put_u8(1);
                        w.put_bytes(stats);
                    }
                    Err(e) => {
                        w.put_u8(0);
                        e.encode_into(&mut w);
                    }
                }
            }
            Frame::Cancel { request_id } => {
                w.put_u8(TAG_CANCEL);
                w.put_u64(*request_id);
            }
            Frame::Progress { request_id, update } => {
                w.put_u8(TAG_PROGRESS);
                w.put_u64(*request_id);
                update.encode_into(&mut w);
            }
            Frame::Ping { nonce } => {
                w.put_u8(TAG_PING);
                w.put_u64(*nonce);
            }
            Frame::Pong { nonce } => {
                w.put_u8(TAG_PONG);
                w.put_u64(*nonce);
            }
            Frame::Goodbye => w.put_u8(TAG_GOODBYE),
        }
        Ok([w.finish(), bulk, tail.finish()])
    }

    /// Decodes a frame body produced by [`encode`](Self::encode).
    ///
    /// # Errors
    ///
    /// Returns [`CloudError::Decode`] on truncated bodies or unknown tags.
    pub fn decode(body: Bytes) -> Result<Frame, CloudError> {
        let mut r = Reader::new(body);
        let frame = match r.get_u8().map_err(wire_err)? {
            TAG_HELLO => {
                let min_version = r.get_u32().map_err(wire_err)?;
                let max_version = r.get_u32().map_err(wire_err)?;
                let api_key = match r.get_u8().map_err(wire_err)? {
                    0 => None,
                    1 => Some(r.get_str().map_err(wire_err)?),
                    t => return Err(CloudError::Decode(format!("bad api-key marker {t}"))),
                };
                Frame::Hello {
                    min_version,
                    max_version,
                    api_key,
                }
            }
            TAG_WELCOME => Frame::Welcome {
                version: r.get_u32().map_err(wire_err)?,
                max_in_flight: r.get_u32().map_err(wire_err)?,
                max_frame_len: r.get_u64().map_err(wire_err)?,
            },
            TAG_REJECT => Frame::Reject {
                reason: r.get_str().map_err(wire_err)?,
            },
            TAG_SUBMIT => {
                let request_id = r.get_u64().map_err(wire_err)?;
                let payload = r.get_bytes().map_err(wire_err)?;
                let trace = decode_trace_tail(&mut r)?;
                Frame::Submit {
                    request_id,
                    payload,
                    trace,
                }
            }
            TAG_REPLY => {
                let request_id = r.get_u64().map_err(wire_err)?;
                let result = match r.get_u8().map_err(wire_err)? {
                    1 => Ok(JobResult::from_bytes(r.get_bytes().map_err(wire_err)?)?),
                    0 => Err(CloudError::decode_from(&mut r)?),
                    t => return Err(CloudError::Decode(format!("bad outcome marker {t}"))),
                };
                let trace = decode_trace_tail(&mut r)?;
                Frame::Reply {
                    request_id,
                    result,
                    trace,
                }
            }
            TAG_GETSTATS => Frame::GetStats {
                request_id: r.get_u64().map_err(wire_err)?,
            },
            TAG_STATS => {
                let request_id = r.get_u64().map_err(wire_err)?;
                let body = match r.get_u8().map_err(wire_err)? {
                    1 => Ok(r.get_bytes().map_err(wire_err)?),
                    0 => Err(CloudError::decode_from(&mut r)?),
                    t => return Err(CloudError::Decode(format!("bad outcome marker {t}"))),
                };
                Frame::Stats { request_id, body }
            }
            TAG_CANCEL => Frame::Cancel {
                request_id: r.get_u64().map_err(wire_err)?,
            },
            TAG_PROGRESS => {
                let request_id = r.get_u64().map_err(wire_err)?;
                let update = ProgressUpdate::decode_from(&mut r)?;
                Frame::Progress { request_id, update }
            }
            TAG_PING => Frame::Ping {
                nonce: r.get_u64().map_err(wire_err)?,
            },
            TAG_PONG => Frame::Pong {
                nonce: r.get_u64().map_err(wire_err)?,
            },
            TAG_GOODBYE => Frame::Goodbye,
            t => return Err(CloudError::Decode(format!("unknown frame tag {t}"))),
        };
        if r.remaining() != 0 {
            return Err(CloudError::Decode(format!(
                "{} trailing bytes after frame",
                r.remaining()
            )));
        }
        Ok(frame)
    }
}

/// A length as the `u32` the wire's prefixes carry. An error, not a wrapped
/// cast: a truncated prefix would put an undecodable frame on the wire in
/// release builds too.
fn len32(len: usize) -> std::io::Result<u32> {
    u32::try_from(len)
        .map_err(|_| std::io::Error::new(ErrorKind::InvalidInput, "frame body over 4 GiB"))
}

/// Writes one length-prefixed frame, returning the wire bytes written. A
/// bulk payload is written from the frame's own [`Bytes`], never copied
/// into a body buffer first (see [`Frame::wire_chunks`]).
///
/// Public so transport intermediaries (the `amalgam-proxy` front door, its
/// health probes and fault-injection harness) can speak the wire format
/// without re-implementing the codec.
///
/// # Errors
///
/// Propagates the sink's I/O errors.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> std::io::Result<usize> {
    let [head, bulk, tail] = frame.wire_chunks()?;
    write_all_vectored(w, &[&head, &bulk, &tail])
}

/// Writes an already-encoded frame body with its length prefix, returning
/// the wire bytes written.
///
/// # Errors
///
/// Propagates the sink's I/O errors.
pub fn write_encoded(w: &mut impl Write, body: &Bytes) -> std::io::Result<usize> {
    let prefix = len32(body.len())?.to_le_bytes();
    write_all_vectored(w, &[&prefix, body])
}

/// Writes `parts` (at most three) back to back and flushes. One vectored
/// write for the whole frame: on a raw socket the prefix, head, payload and
/// trace tail leave as a single syscall instead of one small segment each —
/// the peer's reactor sees the frame arrive whole and never burns an extra
/// wakeup waiting for a straggling 16-byte tail.
fn write_all_vectored(w: &mut impl Write, parts: &[&[u8]]) -> std::io::Result<usize> {
    let total: usize = parts.iter().map(|p| p.len()).sum();
    let mut done = 0usize;
    while done < total {
        let mut skip = done;
        let mut iov = [IoSlice::new(&[]); 3];
        let mut n_iov = 0;
        for part in parts {
            if skip >= part.len() {
                skip -= part.len();
                continue;
            }
            iov[n_iov] = IoSlice::new(&part[skip..]);
            skip = 0;
            n_iov += 1;
        }
        match w.write_vectored(&iov[..n_iov]) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    ErrorKind::WriteZero,
                    "sink accepted no bytes mid-frame",
                ));
            }
            Ok(n) => done += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    w.flush()?;
    Ok(total)
}

/// One kernel read per readiness event asks for this much.
const READ_CHUNK: usize = 64 * 1024;
/// A frame whose body is at least this long is *bulk*: its body is read into
/// a buffer of its own that becomes the frame's [`Bytes`]. One read chunk is
/// the break-even point: a frame this size spans several reads, so what the
/// scratch holds of it when its prefix is seen (moved over once) is at most
/// one chunk, while the copy avoided is the whole body. Below it, copying
/// the body out of the scratch is cheaper than an allocation per frame's
/// worth of reads.
const SPLIT_THRESHOLD: usize = READ_CHUNK;

/// Capacity a body's buffer is given once `received` of its `len` bytes are
/// in: the whole frame when it is no more than four read chunks, or four
/// times what has arrived — a length prefix alone reserves a constant, and
/// a frame up to the cap (256 MiB by default) is only ever backed in
/// proportion to the bytes its sender has actually parted with. Rounded up
/// to whole pages, so the buffers of a job and of its reply — a few hundred
/// bytes apart, and allocated by one thread on a relay — are the same size
/// to the allocator, and a freed one is reused instead of fragmenting it.
fn body_capacity(len: usize, received: usize) -> usize {
    len.min(4 * received.max(READ_CHUNK)).next_multiple_of(4096)
}

/// Reads from `r` straight into `body`'s spare capacity — no zero-fill, no
/// staging copy, never past the frame's `len` bytes — until the frame is
/// whole, the reserved capacity is full, or `r` has nothing more for now.
/// Returns the bytes added; `Ok(0)` is EOF. Bytes that arrive before a
/// nonblocking source (or one with a read timeout) runs dry are progress,
/// not an error: the caller meets the dry source again on its next call.
fn fill_body(r: &mut impl Read, body: &mut Vec<u8>, len: usize) -> std::io::Result<usize> {
    let before = body.len();
    debug_assert!(before < len);
    body.reserve_exact(body_capacity(len, before) - before);
    let room = body.capacity().min(len) - before;
    match Read::take(&mut *r, room as u64).read_to_end(body) {
        Err(e)
            if body.len() == before
                || !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) =>
        {
            Err(e)
        }
        _ => Ok(body.len() - before),
    }
}

/// Incremental frame decoder for nonblocking (or timeout-polled) sockets.
///
/// Every readiness event hands the decoder one read
/// ([`FrameDecoder::read_from`]); complete frames are drained with
/// [`FrameDecoder::next_frame`] before the next read. Small frames
/// accumulate in a reusable per-connection scratch and are decoded from a
/// copy of their body. A bulk frame (body of at least one read chunk) is
/// received into a buffer of its own, which then *is* the decoded frame's
/// storage: its payload is a slice of the bytes the socket wrote, whatever
/// the frame's kind. Partial frames are fine at any byte offset;
/// the decoder just waits for more input.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    /// Small frames and at most one read chunk of undecoded input.
    buf: Vec<u8>,
    /// Bytes before `start` are consumed; `start..end` is undecoded input.
    start: usize,
    end: usize,
    /// The bulk frame being received: its body length and what has arrived.
    /// Wire order puts it before everything in the scratch.
    bulk: Option<(usize, Vec<u8>)>,
}

impl FrameDecoder {
    /// Creates an empty decoder (no scratch allocated until first input).
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Undecoded wire bytes currently held.
    pub fn buffered(&self) -> usize {
        let bulk = self.bulk.as_ref().map_or(0, |(_, body)| 4 + body.len());
        bulk + self.end - self.start
    }

    /// Appends raw bytes exactly as reads from a socket would deliver them
    /// (test/bench entry point; transports call
    /// [`FrameDecoder::read_from`]). Bytes fed without draining
    /// [`FrameDecoder::next_frame`] in between pile up in the scratch.
    pub fn extend(&mut self, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            self.read_from(&mut bytes)
                .expect("reading from a slice cannot fail");
        }
    }

    /// Performs one read from `r`: into the bulk frame being received while
    /// there is one (as much of it as `r` has, never past its end), into
    /// the scratch otherwise.
    ///
    /// Returns `Ok(0)` on EOF. `WouldBlock` propagates to the caller (the
    /// reactor re-arms read interest); `Interrupted` is retried internally.
    ///
    /// # Errors
    ///
    /// Propagates the source's I/O errors.
    pub fn read_from(&mut self, r: &mut impl Read) -> std::io::Result<usize> {
        if let Some((len, body)) = &mut self.bulk {
            if body.len() < *len {
                return fill_body(r, body, *len);
            }
        }
        self.make_room(READ_CHUNK);
        loop {
            match r.read(&mut self.buf[self.end..]) {
                Ok(n) => {
                    self.end += n;
                    return Ok(n);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Ensures at least `spare` writable bytes after `end`, compacting the
    /// consumed prefix first: drained between reads, the scratch stays at
    /// one read chunk plus the unfinished small frame before it.
    fn make_room(&mut self, spare: usize) {
        if self.buf.len() - self.end >= spare {
            return;
        }
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.buf.len() - self.end < spare {
            self.buf.resize(self.end + spare, 0);
        }
    }

    /// Pops the next complete frame, or `Ok(None)` if more bytes are needed.
    ///
    /// Returns the frame plus its wire length (prefix + body).
    ///
    /// # Errors
    ///
    /// [`CloudError::Transport`] for a length prefix over `max_frame_len`
    /// (checked before buffering the body), [`CloudError::Decode`] for a
    /// malformed body — an unknown tag included.
    pub fn next_frame(
        &mut self,
        max_frame_len: usize,
    ) -> Result<Option<(Frame, usize)>, CloudError> {
        loop {
            if let Some((len, body)) = &self.bulk {
                if body.len() < *len {
                    return Ok(None);
                }
                let (len, body) = self.bulk.take().expect("checked just above");
                return Ok(Some((Frame::decode(Bytes::from(body))?, 4 + len)));
            }
            let avail = self.end - self.start;
            if avail < 4 {
                return Ok(None);
            }
            let len = u32::from_le_bytes(
                self.buf[self.start..self.start + 4]
                    .try_into()
                    .expect("4-byte slice"),
            ) as usize;
            if len > max_frame_len {
                return Err(CloudError::Transport(format!(
                    "frame length {len} exceeds cap {max_frame_len}"
                )));
            }
            if len >= SPLIT_THRESHOLD {
                // Bulk: what the scratch holds of the body moves over once,
                // the rest is read where it will stay.
                let have = (avail - 4).min(len);
                let mut body = Vec::with_capacity(body_capacity(len, have));
                body.extend_from_slice(&self.buf[self.start + 4..self.start + 4 + have]);
                self.consume(4 + have);
                self.bulk = Some((len, body));
                continue;
            }
            if avail < 4 + len {
                return Ok(None);
            }
            let body = &self.buf[self.start + 4..self.start + 4 + len];
            let frame = Frame::decode(Bytes::from(body));
            self.consume(4 + len);
            return Ok(Some((frame?, 4 + len)));
        }
    }

    /// Advances past `n` decoded bytes, rewinding the scratch
    /// when it fully drains.
    fn consume(&mut self, n: usize) {
        self.start += n;
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amalgam_nn::metrics::History;

    fn roundtrip(frame: Frame) {
        let mut wire = Vec::new();
        let wrote = write_frame(&mut wire, &frame).unwrap();
        assert_eq!(wrote, wire.len());
        let mut dec = FrameDecoder::new();
        dec.extend(&wire);
        let (back, len) = dec.next_frame(1 << 30).unwrap().unwrap();
        assert_eq!(len, wrote);
        assert_eq!(back, frame);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn every_frame_kind_roundtrips() {
        roundtrip(Frame::Hello {
            min_version: 2,
            max_version: 3,
            api_key: Some("key".into()),
        });
        roundtrip(Frame::Hello {
            min_version: 2,
            max_version: 2,
            api_key: None,
        });
        roundtrip(Frame::Welcome {
            version: 2,
            max_in_flight: 32,
            max_frame_len: 256 << 20,
        });
        roundtrip(Frame::Reject {
            reason: "unsupported protocol version".into(),
        });
        roundtrip(Frame::Submit {
            request_id: 9,
            payload: Bytes::from_static(b"job bytes"),
            trace: None,
        });
        roundtrip(Frame::Submit {
            request_id: 9,
            payload: Bytes::from_static(b"job bytes"),
            trace: Some(TraceId::from_words(0xdead_beef, 0xcafe)),
        });
        roundtrip(Frame::GetStats { request_id: 5 });
        roundtrip(Frame::Stats {
            request_id: 5,
            body: Ok(Bytes::from_static(b"snapshot bytes")),
        });
        roundtrip(Frame::Stats {
            request_id: 6,
            body: Err(CloudError::Unauthorized("no key".into())),
        });
        roundtrip(Frame::Reply {
            request_id: 11,
            result: Err(CloudError::ServiceUnavailable),
            trace: Some(TraceId::mint()),
        });
        roundtrip(Frame::Reply {
            request_id: 9,
            trace: None,
            result: Ok(JobResult {
                job_id: 9,
                trained_model: Bytes::from_static(b"weights"),
                history: History {
                    train_loss: vec![0.5],
                    train_acc: vec![0.75],
                    val_loss: vec![],
                    val_acc: vec![],
                    epoch_secs: vec![0.1],
                },
                bytes_received: 11,
                bytes_sent: 7,
                train_seconds: 0.25,
            }),
        });
        roundtrip(Frame::Reply {
            request_id: 10,
            result: Err(CloudError::Overloaded {
                queue_depth: 5,
                max_queue_depth: 2,
            }),
            trace: None,
        });
        roundtrip(Frame::Ping { nonce: 77 });
        roundtrip(Frame::Pong { nonce: 77 });
        roundtrip(Frame::Cancel { request_id: 44 });
        roundtrip(Frame::Progress {
            request_id: 44,
            update: ProgressUpdate {
                epoch: 3,
                total_epochs: 10,
                train_loss: 0.5,
                train_acc: 0.875,
            },
        });
        roundtrip(Frame::Goodbye);
    }

    #[test]
    fn every_error_variant_roundtrips() {
        for err in [
            CloudError::ServiceUnavailable,
            CloudError::Decode("d".into()),
            CloudError::BadJob("b".into()),
            CloudError::Overloaded {
                queue_depth: 1,
                max_queue_depth: 0,
            },
            CloudError::RateLimited {
                retry_after_ms: 1234,
            },
            CloudError::Panicked("p".into()),
            CloudError::Transport("t".into()),
            CloudError::Unauthorized("u".into()),
            CloudError::Handshake("h".into()),
        ] {
            roundtrip(Frame::Reply {
                request_id: 0,
                result: Err(err),
                trace: None,
            });
        }
    }

    /// A sink that takes one byte per call, whatever it is offered.
    struct OneByte(Vec<u8>);

    impl Write for OneByte {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.extend_from_slice(&buf[..1]);
            Ok(1)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn split_writes_are_bitwise_identical_to_whole_frame_writes() {
        // The chunked writer must put exactly `len ++ encode()` on the
        // wire — bulk payload by reference, every chunk boundary crossed
        // one byte at a time — with and without the trace extension.
        let id = TraceId::from_words(7, 0x0102_0304_0506_0708);
        let result = JobResult {
            job_id: 7,
            trained_model: Bytes::from_static(b"weights"),
            history: History::new(),
            bytes_received: 3,
            bytes_sent: 9,
            train_seconds: 0.5,
        };
        for trace in [None, Some(id)] {
            let payload = Bytes::from_static(b"serialized job payload");
            for frame in [
                Frame::Submit {
                    request_id: 42,
                    payload: payload.clone(),
                    trace,
                },
                Frame::Reply {
                    request_id: 7,
                    result: Ok(result.clone()),
                    trace,
                },
                Frame::Reply {
                    request_id: 8,
                    result: Err(CloudError::ServiceUnavailable),
                    trace,
                },
            ] {
                let body = frame.encode();
                let mut whole = (body.len() as u32).to_le_bytes().to_vec();
                whole.extend_from_slice(&body);
                let mut sink = OneByte(Vec::new());
                let n = write_frame(&mut sink, &frame).unwrap();
                assert_eq!(sink.0, whole);
                assert_eq!(n, whole.len());
                let mut encoded = Vec::new();
                assert_eq!(write_encoded(&mut encoded, &body).unwrap(), whole.len());
                assert_eq!(encoded, whole);
            }
            // The bulk chunk is the caller's buffer, not a copy of it.
            let [_, bulk, _] = Frame::Submit {
                request_id: 42,
                payload: payload.clone(),
                trace,
            }
            .wire_chunks()
            .unwrap();
            assert_eq!(bulk.as_ptr(), payload.as_ptr());
        }
    }

    #[test]
    fn a_truncated_frame_is_never_decoded() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Frame::Ping { nonce: 1 }).unwrap();
        wire.truncate(wire.len() - 2);
        let mut dec = FrameDecoder::new();
        dec.extend(&wire);
        assert!(dec.next_frame(1 << 20).unwrap().is_none());
        assert_eq!(dec.buffered(), wire.len());
    }

    #[test]
    fn garbage_body_is_a_decode_error() {
        let mut dec = FrameDecoder::new();
        dec.extend(&3u32.to_le_bytes());
        dec.extend(&[0xEE, 0xFF, 0x00]);
        assert!(matches!(
            dec.next_frame(1 << 20),
            Err(CloudError::Decode(_))
        ));
    }

    #[test]
    fn trailing_bytes_after_body_are_rejected() {
        let mut body = Frame::Ping { nonce: 5 }.encode().to_vec();
        body.push(0);
        assert!(matches!(
            Frame::decode(Bytes::from(body)),
            Err(CloudError::Decode(_))
        ));
    }

    #[test]
    fn incremental_decoder_decodes_byte_at_a_time() {
        let frames = vec![
            Frame::Hello {
                min_version: 2,
                max_version: 2,
                api_key: Some("k".into()),
            },
            Frame::Submit {
                request_id: 3,
                payload: Bytes::from_static(b"payload bytes"),
                trace: None,
            },
            Frame::Submit {
                request_id: 4,
                payload: Bytes::from_static(b"traced payload"),
                trace: Some(TraceId::from_words(1, 2)),
            },
            Frame::GetStats { request_id: 1 },
            Frame::Ping { nonce: 11 },
            Frame::Goodbye,
        ];
        let mut wire = Vec::new();
        for f in &frames {
            write_frame(&mut wire, f).unwrap();
        }
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        for &b in &wire {
            dec.extend(&[b]);
            while let Some((frame, _)) = dec.next_frame(1 << 20).unwrap() {
                out.push(frame);
            }
        }
        assert_eq!(out, frames);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn incremental_decoder_enforces_length_cap_before_buffering() {
        let mut dec = FrameDecoder::new();
        dec.extend(&u32::MAX.to_le_bytes());
        match dec.next_frame(1 << 20) {
            Err(CloudError::Transport(msg)) => assert!(msg.contains("exceeds cap"), "{msg}"),
            other => panic!("expected Transport error, got {other:?}"),
        }
    }

    #[test]
    fn incremental_decoder_reads_from_stream_until_eof() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Frame::Ping { nonce: 1 }).unwrap();
        write_frame(&mut wire, &Frame::Pong { nonce: 1 }).unwrap();
        let mut cursor = std::io::Cursor::new(wire);
        let mut dec = FrameDecoder::new();
        let mut got = 0;
        loop {
            let n = dec.read_from(&mut cursor).unwrap();
            while let Some((_, _)) = dec.next_frame(1 << 20).unwrap() {
                got += 1;
            }
            if n == 0 {
                break;
            }
        }
        assert_eq!(got, 2);
    }

    #[test]
    fn bulk_frames_decode_in_the_buffer_they_were_read_into() {
        // Bulk bodies of either kind, trace tail included, each
        // followed by a small frame that must survive the hand-over.
        let id = TraceId::from_words(0xaaaa, 0xbbbb);
        let submit = Frame::Submit {
            request_id: 21,
            payload: Bytes::from(vec![3u8; SPLIT_THRESHOLD + 64]),
            trace: Some(id),
        };
        let reply = Frame::Reply {
            request_id: 22,
            result: Ok(JobResult {
                job_id: 22,
                trained_model: Bytes::from(vec![5u8; 3 * READ_CHUNK]),
                history: History::new(),
                bytes_received: 1,
                bytes_sent: 2,
                train_seconds: 0.0,
            }),
            trace: Some(id),
        };
        for frame in [&submit, &reply] {
            let mut wire = Vec::new();
            write_frame(&mut wire, frame).unwrap();
            write_frame(&mut wire, &Frame::Ping { nonce: 9 }).unwrap();
            let mut dec = FrameDecoder::new();
            let mut src = &wire[..];
            // The first read lands in the scratch; the prefix it reveals
            // moves the body to a buffer of its own...
            dec.read_from(&mut src).unwrap();
            assert!(dec.next_frame(1 << 30).unwrap().is_none());
            let body_addr = dec.bulk.as_ref().unwrap().1.as_ptr();
            // ...which later reads fill, never past the frame's end...
            while dec
                .bulk
                .as_ref()
                .is_some_and(|(len, body)| body.len() < *len)
            {
                assert!(dec.read_from(&mut src).unwrap() > 0);
            }
            assert_eq!(dec.end, 0, "the scratch took no byte of a bulk body");
            assert_eq!(src.len(), 4 + 9, "the next frame is still unread");
            // ...and which is the storage the decoded payload points into.
            let (got, wire_len) = dec.next_frame(1 << 30).unwrap().unwrap();
            assert_eq!(&got, frame);
            assert_eq!(wire_len, wire.len() - 13);
            let bulk = match &got {
                Frame::Submit { payload, .. } => payload,
                Frame::Reply { result, .. } => &result.as_ref().unwrap().trained_model,
                _ => unreachable!(),
            };
            let offset = bulk.as_ptr() as usize - body_addr as usize;
            assert!(offset < 64, "payload was copied out of its read buffer");
            dec.extend(src);
            let (ping, _) = dec.next_frame(1 << 30).unwrap().unwrap();
            assert_eq!(ping, Frame::Ping { nonce: 9 });
            assert_eq!(dec.buffered(), 0);
        }
    }

    #[test]
    fn a_partial_bulk_frame_reserves_in_proportion_to_what_arrived() {
        // A prefix claiming the whole cap, then silence: a constant.
        let cap = 256 << 20;
        let mut dec = FrameDecoder::new();
        dec.extend(&(cap as u32).to_le_bytes());
        assert!(dec.next_frame(cap).unwrap().is_none());
        let reserved = |dec: &FrameDecoder| dec.bulk.as_ref().unwrap().1.capacity();
        assert!(reserved(&dec) <= 4 * READ_CHUNK);
        // Then a trickle: never more than four times what has arrived.
        let chunk = vec![1u8; 100_000];
        for fed in 1..=30 {
            dec.extend(&chunk);
            assert!(dec.next_frame(cap).unwrap().is_none());
            assert!(reserved(&dec) <= 4 * (fed * chunk.len()).max(READ_CHUNK));
            assert_eq!(dec.buffered(), 4 + fed * chunk.len());
        }
    }

    #[test]
    fn progress_before_a_dry_source_is_progress_and_a_cut_body_never_decodes() {
        /// Yields its data in `step`-byte reads with a `WouldBlock` (or a
        /// read timeout) between any two, then EOF.
        struct Dribble<'a>(&'a [u8], usize, bool);
        impl Read for Dribble<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                self.2 = !self.2;
                if self.2 {
                    let kind = [ErrorKind::WouldBlock, ErrorKind::TimedOut][self.0.len() % 2];
                    return Err(std::io::Error::from(kind));
                }
                let n = self.1.min(self.0.len()).min(buf.len());
                buf[..n].copy_from_slice(&self.0[..n]);
                self.0 = &self.0[n..];
                Ok(n)
            }
        }
        let frame = Frame::Submit {
            request_id: 1,
            payload: Bytes::from(vec![8u8; 2 * READ_CHUNK]),
            trace: None,
        };
        let mut wire = Vec::new();
        write_frame(&mut wire, &frame).unwrap();
        let mut dec = FrameDecoder::new();
        let mut src = Dribble(&wire, 4099, false);
        let mut got = None;
        loop {
            match dec.read_from(&mut src) {
                Ok(0) => break,
                Ok(_) => {
                    if let Some((f, _)) = dec.next_frame(1 << 30).unwrap() {
                        got = Some(f);
                    }
                }
                Err(e) => assert!(
                    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
                    "{e}"
                ),
            }
        }
        assert_eq!(got, Some(frame));

        // The same frame cut short: EOF finds it still held, undecoded.
        let mut dec = FrameDecoder::new();
        let mut cut = &wire[..wire.len() - 1];
        while dec.read_from(&mut cut).unwrap() > 0 {
            assert!(dec.next_frame(1 << 30).unwrap().is_none());
        }
        assert_eq!(dec.buffered(), wire.len() - 1);
    }

    #[test]
    fn scratch_never_exceeds_one_read_chunk_plus_a_small_frame_remainder() {
        // Whatever is decoded — bulk frames several chunks long, small
        // frames straddling reads — a decoder drained between reads keeps
        // its scratch at one read chunk plus an unfinished small frame.
        let mut wire = Vec::new();
        for i in 0..4u64 {
            let frames = [
                Frame::Submit {
                    request_id: i,
                    payload: Bytes::from(vec![7u8; 5 * READ_CHUNK + 17]),
                    trace: None,
                },
                Frame::Submit {
                    request_id: i,
                    payload: Bytes::from(vec![9u8; SPLIT_THRESHOLD - 100]),
                    trace: None,
                },
                Frame::Ping { nonce: i },
            ];
            for f in &frames {
                write_frame(&mut wire, f).unwrap();
            }
        }
        let mut dec = FrameDecoder::new();
        let mut src = &wire[..];
        let mut frames = 0;
        while dec.read_from(&mut src).unwrap() > 0 {
            while dec.next_frame(1 << 30).unwrap().is_some() {
                frames += 1;
            }
            assert!(dec.buf.len() <= READ_CHUNK + SPLIT_THRESHOLD + 4);
        }
        assert_eq!(frames, 12);
        assert_eq!(dec.buffered(), 0);
    }
}
