//! Property tests of the transport frame codec: arbitrary frames round-trip
//! bit-exactly through encode/decode, and adversarial byte soup never
//! panics the decoder.

use amalgam_cloud::transport::{write_encoded, write_frame, Frame, FrameDecoder};
use amalgam_cloud::{CloudError, JobResult, ProgressUpdate, TraceId};
use amalgam_nn::metrics::History;
use bytes::Bytes;
use proptest::prelude::*;

#[path = "support/differential.rs"]
mod differential;

/// Builds one of every frame kind from sampled raw material.
#[allow(clippy::too_many_arguments)]
fn build_frame(
    kind: usize,
    a: u64,
    b: u64,
    payload: Vec<u8>,
    text: String,
    floats: Vec<f32>,
    err_kind: usize,
    ok: bool,
) -> Frame {
    match kind % 9 {
        0 => Frame::Hello {
            min_version: a as u32,
            max_version: b as u32,
            api_key: if ok { Some(text) } else { None },
        },
        1 => Frame::Welcome {
            version: a as u32,
            max_in_flight: b as u32,
            max_frame_len: a ^ b,
        },
        2 => Frame::Submit {
            request_id: a,
            payload: Bytes::from(payload),
            trace: (!ok).then(|| TraceId::from_words(a, b)),
        },
        3 => Frame::Reply {
            request_id: a,
            trace: ok.then(|| TraceId::from_words(b, a)),
            result: if ok {
                Ok(JobResult {
                    job_id: b,
                    trained_model: Bytes::from(payload),
                    history: History {
                        train_loss: floats.clone(),
                        train_acc: floats.clone(),
                        val_loss: floats.clone(),
                        val_acc: floats.clone(),
                        epoch_secs: floats,
                    },
                    bytes_received: a as usize,
                    bytes_sent: b as usize,
                    train_seconds: (a % 1000) as f64 * 0.001,
                })
            } else {
                Err(match err_kind % 8 {
                    0 => CloudError::ServiceUnavailable,
                    1 => CloudError::Decode(text),
                    2 => CloudError::BadJob(text),
                    3 => CloudError::Overloaded {
                        queue_depth: a as usize,
                        max_queue_depth: b as usize,
                    },
                    4 => CloudError::Panicked(text),
                    5 => CloudError::Transport(text),
                    6 => CloudError::Unauthorized(text),
                    _ => CloudError::Handshake(text),
                })
            },
        },
        4 => Frame::Ping { nonce: a },
        5 => {
            if ok {
                Frame::Pong { nonce: b }
            } else {
                Frame::Goodbye
            }
        }
        6 => Frame::Cancel { request_id: a },
        7 => Frame::Progress {
            request_id: a,
            update: ProgressUpdate {
                epoch: a % 1_000,
                total_epochs: b % 1_000,
                train_loss: *floats.first().unwrap_or(&0.25),
                train_acc: *floats.last().unwrap_or(&0.75),
            },
        },
        _ => {
            if ok {
                Frame::GetStats { request_id: a }
            } else {
                Frame::Stats {
                    request_id: a,
                    body: if err_kind.is_multiple_of(2) {
                        Ok(Bytes::from(payload))
                    } else {
                        Err(CloudError::Unauthorized(text))
                    },
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// The decoder under hostile segmentation, the decoder over the whole
    /// image and the chunked writer agree on random frame sequences (see
    /// `support/differential.rs`).
    #[test]
    fn readers_and_writer_agree_under_random_segmentation(seed in any::<u64>()) {
        differential::check(seed);
    }

    /// encode → decode is the identity for every frame kind.
    #[test]
    fn framed_messages_roundtrip(
        kind in 0usize..9,
        a in any::<u64>(),
        b in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..512),
        text_bytes in proptest::collection::vec(any::<u8>(), 0..64),
        floats in proptest::collection::vec(-1e6f32..1e6, 0..8),
        err_kind in 0usize..8,
        ok in any::<bool>(),
    ) {
        let text = String::from_utf8_lossy(&text_bytes).into_owned();
        let frame = build_frame(kind, a, b, payload, text, floats, err_kind, ok);
        let body = frame.encode();
        let back = Frame::decode(body).expect("own encoding must decode");
        prop_assert_eq!(back, frame);
    }

    /// Arbitrary bodies never panic the decoder: they either decode to a
    /// frame (which must then re-encode to the same bytes) or error.
    #[test]
    fn adversarial_bodies_never_panic(
        body in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let bytes = Bytes::from(body);
        if let Ok(frame) = Frame::decode(bytes.clone()) {
            // Canonical codec: a body that decodes is exactly the encoding
            // of what it decodes to.
            prop_assert_eq!(frame.encode(), bytes);
        }
    }

    /// Flipping any single byte of a valid frame body is handled cleanly:
    /// decode yields a (possibly different) frame or an error, no panic.
    #[test]
    fn bit_flipped_frames_never_panic(
        a in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 1..128),
        flip_byte in any::<usize>(),
        flip_bit in 0usize..8,
    ) {
        let frame = Frame::Submit { request_id: a, payload: Bytes::from(payload), trace: None };
        let mut body = frame.encode().to_vec();
        let idx = flip_byte % body.len();
        body[idx] ^= 1 << flip_bit;
        let _ = Frame::decode(Bytes::from(body));
    }

    /// A frame whose tag the protocol does not define — a small or a bulk
    /// body, at any stream position — is a decode error: the frames before
    /// it arrive, and the decoder yields nothing after it.
    #[test]
    fn unknown_tags_are_decode_errors_at_any_position(
        nonces in proptest::collection::vec(any::<u64>(), 1..5),
        tag in any::<u8>(),
        junk in proptest::collection::vec(any::<u8>(), 0..64),
        bulk in any::<bool>(),
        position in any::<usize>(),
    ) {
        prop_assume!(!matches!(tag, 1..=6 | 129..=134));
        let known: Vec<Frame> = nonces.iter().map(|&n| Frame::Ping { nonce: n }).collect();
        let at = position % (known.len() + 1);
        let mut body = vec![tag];
        body.extend_from_slice(&junk);
        if bulk {
            body.resize(64 * 1024 + junk.len(), 0xAB);
        }
        let mut wire = Vec::new();
        for (i, frame) in known.iter().enumerate() {
            if i == at {
                write_encoded(&mut wire, &Bytes::from(body.clone())).unwrap();
            }
            write_frame(&mut wire, frame).unwrap();
        }
        if at == known.len() {
            write_encoded(&mut wire, &Bytes::from(body)).unwrap();
        }

        let mut dec = FrameDecoder::new();
        dec.extend(&wire);
        let mut got = Vec::new();
        let failed = loop {
            match dec.next_frame(1 << 20) {
                Ok(Some((frame, _))) => got.push(frame),
                Ok(None) => break None,
                Err(e) => break Some(e),
            }
        };
        prop_assert!(matches!(failed, Some(CloudError::Decode(_))), "{:?}", failed);
        prop_assert_eq!(&got[..], &known[..at]);
    }

    /// Damage to an advisory Progress frame is *contained*: however one
    /// bit flips, the surrounding frames decode exactly as before — the
    /// flipped frame either decodes (canonically) or errors, but it never
    /// desyncs its neighbours.
    #[test]
    fn bit_flipped_progress_frames_are_contained(
        request_id in any::<u64>(),
        epoch in 1u64..1_000,
        loss in -1e3f32..1e3,
        flip_byte in any::<usize>(),
        flip_bit in 0usize..8,
    ) {
        let reply = Frame::Reply {
            request_id,
            trace: None,
            result: Err(CloudError::ServiceUnavailable),
        };
        let progress = Frame::Progress {
            request_id,
            update: ProgressUpdate {
                epoch,
                total_epochs: 1_000,
                train_loss: loss,
                train_acc: 0.5,
            },
        };
        let ping = Frame::Ping { nonce: epoch };

        let mut progress_body = progress.encode().to_vec();
        let idx = flip_byte % progress_body.len();
        progress_body[idx] ^= 1 << flip_bit;

        let mut wire = Vec::new();
        for body in [reply.encode().to_vec(), progress_body, ping.encode().to_vec()] {
            wire.extend_from_slice(&(body.len() as u32).to_le_bytes());
            wire.extend_from_slice(&body);
        }

        let mut dec = FrameDecoder::new();
        dec.extend(&wire);
        let mut got = Vec::new();
        let mut failed = false;
        loop {
            match dec.next_frame(1 << 20) {
                Ok(Some((frame, _))) => got.push(frame),
                Ok(None) => break,
                Err(_) => { failed = true; break; }
            }
        }
        // The reply before the damage always lands.
        prop_assert_eq!(got.first(), Some(&reply));
        if failed {
            // Session-fatal damage: detected before the ping, nothing
            // mis-decoded after it.
            prop_assert!(got.len() <= 2);
        } else {
            // Contained damage: the flipped frame decoded to something, and
            // the ping still arrives as the last frame.
            prop_assert_eq!(got.last(), Some(&ping));
            prop_assert_eq!(got.len(), 3);
            prop_assert_eq!(dec.buffered(), 0);
        }
    }
}
