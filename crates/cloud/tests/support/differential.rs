//! One differential check of the transport's reader and its writer, driven
//! by a seed: `transport_properties.rs` runs it over many seeds, the root
//! package's `tests/properties.rs` over a fixed few (tier-1 runs only the
//! root package). Not a test crate of its own — both include it by path.
//!
//! For a random frame sequence — every frame kind, bodies one byte either
//! side of the bulk threshold and several read chunks long — it checks that
//!
//! * the chunked writer, drained one byte per write, puts exactly
//!   `len ++ encode()` on the wire,
//! * [`FrameDecoder`] handed the whole image at once yields exactly the
//!   frames written and their wire lengths, and
//! * a [`FrameDecoder`] under random segmentation (one-byte reads, reads
//!   ending mid-prefix, `WouldBlock` or a read timeout between any two
//!   reads) yields the same.

use amalgam_cloud::transport::{write_frame, Frame, FrameDecoder};
use amalgam_cloud::{CloudError, JobResult, ProgressUpdate, TraceId};
use amalgam_nn::metrics::History;
use amalgam_tensor::Rng;
use bytes::Bytes;
use std::io::{ErrorKind, Read, Write};

/// The transport's read chunk, which is also its bulk threshold: a frame
/// whose body is at least this long is received into a buffer of its own.
const CHUNK: usize = 64 * 1024;
const CAP: usize = 1 << 22;

/// A blob that, with the `fixed` bytes its frame spends on everything
/// else, makes a body of a length drawn from the classes the readers treat
/// differently: small, one byte either side of the bulk threshold, several
/// read chunks.
fn blob(rng: &mut Rng, fixed: usize) -> Bytes {
    let body_len = match rng.below(8) {
        0 => CHUNK - 1,
        1 => CHUNK,
        2 => CHUNK + 1,
        3 => 2 * CHUNK + rng.below(2 * CHUNK),
        _ => rng.below(600),
    };
    let fill = rng.next_u64() as u8;
    Bytes::from(vec![fill; body_len.saturating_sub(fixed).max(1)])
}

fn text(rng: &mut Rng) -> String {
    (0..rng.below(24))
        .map(|_| char::from(b'a' + rng.below(26) as u8))
        .collect()
}

fn error(rng: &mut Rng) -> CloudError {
    match rng.below(5) {
        0 => CloudError::ServiceUnavailable,
        1 => CloudError::BadJob(text(rng)),
        2 => CloudError::RateLimited {
            retry_after_ms: rng.next_u64(),
        },
        3 => CloudError::Cancelled,
        _ => CloudError::Transport(text(rng)),
    }
}

/// One frame of kind `kind % 13`.
fn frame(rng: &mut Rng, kind: usize) -> Frame {
    let a = rng.next_u64();
    let trace = rng
        .chance(0.5)
        .then(|| TraceId::from_words(a ^ 1, rng.next_u64()));
    let trace_len = if trace.is_some() { 16 } else { 0 };
    match kind % 13 {
        0 => Frame::Hello {
            min_version: a as u32,
            max_version: (a >> 32) as u32,
            api_key: rng.chance(0.5).then(|| text(rng)),
        },
        1 => Frame::Welcome {
            version: a as u32,
            max_in_flight: (a >> 32) as u32,
            max_frame_len: rng.next_u64(),
        },
        2 => Frame::Reject { reason: text(rng) },
        3 => Frame::Submit {
            request_id: a,
            payload: blob(rng, 13 + trace_len),
            trace,
        },
        4 => {
            let floats: Vec<f32> = (0..rng.below(4)).map(|_| rng.uniform(-1.0, 1.0)).collect();
            let fixed = 14 + 12 + 5 * (4 + 4 * floats.len()) + 24 + trace_len;
            Frame::Reply {
                request_id: a,
                result: Ok(JobResult {
                    job_id: a,
                    trained_model: blob(rng, fixed),
                    history: History {
                        train_loss: floats.clone(),
                        train_acc: floats.clone(),
                        val_loss: floats.clone(),
                        val_acc: floats.clone(),
                        epoch_secs: floats,
                    },
                    bytes_received: a as u32 as usize,
                    bytes_sent: (a >> 32) as usize,
                    train_seconds: (a % 1000) as f64 * 0.001,
                }),
                trace,
            }
        }
        5 => Frame::Reply {
            request_id: a,
            result: Err(error(rng)),
            trace,
        },
        6 => Frame::GetStats { request_id: a },
        7 => Frame::Stats {
            request_id: a,
            body: if rng.chance(0.7) {
                Ok(blob(rng, 14))
            } else {
                Err(error(rng))
            },
        },
        8 => Frame::Cancel { request_id: a },
        9 => Frame::Progress {
            request_id: a,
            update: ProgressUpdate {
                epoch: a % 100,
                total_epochs: 100,
                train_loss: rng.uniform(0.0, 4.0),
                train_acc: rng.uniform(0.0, 1.0),
            },
        },
        10 => Frame::Ping { nonce: a },
        11 => Frame::Pong { nonce: a },
        _ => Frame::Goodbye,
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

/// A source that hands its bytes out in randomly sized reads with a dry
/// spell (`WouldBlock`, or the `TimedOut` of a polled blocking socket)
/// before any of them.
struct Segmented<'a> {
    data: &'a [u8],
    rng: Rng,
    /// Every read is one byte (chosen for images small enough to afford it).
    bytewise: bool,
    dry: bool,
}

impl Read for Segmented<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if !self.dry && self.rng.chance(0.3) {
            self.dry = true;
            let kind = [ErrorKind::WouldBlock, ErrorKind::TimedOut][self.rng.below(2)];
            return Err(std::io::Error::from(kind));
        }
        self.dry = false;
        let want = match self.rng.below(6) {
            _ if self.bytewise => 1,
            0 => 1,
            1 => 1 + self.rng.below(6), // ends mid-prefix often enough
            2 => 1 + self.rng.below(300),
            3 => 1 + self.rng.below(CHUNK),
            _ => usize::MAX,
        };
        let n = want.min(buf.len()).min(self.data.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

/// Runs the check for `seed`; panics with the seed on any disagreement.
pub fn check(seed: u64) {
    let mut rng = Rng::seed_from(seed);
    let mut wire = Vec::new();
    let mut sent = Vec::new();
    for _ in 0..1 + rng.below(6) {
        let kind = rng.below(13);
        let f = frame(&mut rng, kind);
        let body = f.encode();
        let at = wire.len();
        wire.extend_from_slice(&(body.len() as u32).to_le_bytes());
        wire.extend_from_slice(&body);
        let mut sink = OneByte(Vec::new());
        let wrote = write_frame(&mut sink, &f).unwrap();
        assert_eq!(wrote, 4 + body.len(), "seed {seed}: {f:?}");
        assert!(sink.0 == wire[at..], "seed {seed}: chunked write of {f:?}");
        sent.push((f, wrote));
    }

    let mut whole = FrameDecoder::new();
    whole.extend(&wire);
    let mut reference = Vec::new();
    while let Some(got) = whole
        .next_frame(CAP)
        .unwrap_or_else(|e| panic!("seed {seed}: whole image: {e}"))
    {
        reference.push(got);
    }
    assert!(reference == sent, "seed {seed}: whole-image decode");

    let mut src = Segmented {
        data: &wire,
        rng: rng.fork(),
        bytewise: wire.len() < 4 * CHUNK && rng.chance(0.3),
        dry: false,
    };
    let mut dec = FrameDecoder::new();
    let mut got = Vec::new();
    loop {
        match dec.read_from(&mut src) {
            Ok(0) => break,
            Ok(_) => {
                while let Some(f) = dec
                    .next_frame(CAP)
                    .unwrap_or_else(|e| panic!("seed {seed}: decoder: {e}"))
                {
                    got.push(f);
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) => panic!("seed {seed}: {e}"),
        }
    }
    assert!(got == reference, "seed {seed}: segmented decode");
    assert_eq!(dec.buffered(), 0, "seed {seed}");
}
