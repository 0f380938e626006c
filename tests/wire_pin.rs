//! The protocol-v2 wire, pinned byte for byte: the length prefix and body
//! every frame kind puts on the socket, as [`Frame::wire_chunks`] hands
//! them to one vectored write. A change to any frame's layout — a field
//! reordered, a marker byte moved, the trace tail made mandatory — fails
//! here before it reaches a peer. `Hello` is not pinned: its version range
//! is what a protocol change negotiates.

use amalgam::cloud::transport::Frame;
use amalgam::cloud::{ProgressUpdate, TraceId};
use amalgam::nn::metrics::History;
use amalgam::prelude::*;
use bytes::Bytes;

/// The frame's wire image as lowercase hex.
fn wire_hex(frame: &Frame) -> String {
    let chunks = frame.wire_chunks().expect("fits the u32 prefix");
    chunks
        .iter()
        .flat_map(|chunk| chunk.iter())
        .map(|b| format!("{b:02x}"))
        .collect()
}

fn pinned() -> Vec<(Frame, &'static str)> {
    let trace = TraceId::from_words(0x1112_1314_1516_1718, 0x2122_2324_2526_2728);
    let result = JobResult {
        job_id: 7,
        trained_model: Bytes::from_static(b"weights"),
        history: History {
            train_loss: vec![0.5],
            train_acc: vec![0.75],
            val_loss: vec![],
            val_acc: vec![],
            epoch_secs: vec![0.25],
        },
        bytes_received: 11,
        bytes_sent: 7,
        train_seconds: 0.5,
    };
    vec![
        (
            Frame::Submit {
                request_id: 0x0102_0304_0506_0708,
                payload: Bytes::from_static(b"job bytes"),
                trace: Some(trace),
            },
            "26000000020807060504030201090000006a6f6220627974657318171615141312112827262524232221",
        ),
        (
            Frame::Submit {
                request_id: 9,
                payload: Bytes::from_static(b"job bytes"),
                trace: None,
            },
            "16000000020900000000000000090000006a6f62206279746573",
        ),
        (
            Frame::Reply {
                request_id: 7,
                result: Ok(result),
                trace: Some(trace),
            },
            "69000000830700000000000000014b00000007000000000000000700000077656967687473010000000000003f010000000000403f0000000000000000010000000000803e0b000000000000000700000000000000000000000000e03f18171615141312112827262524232221",
        ),
        (
            Frame::Reply {
                request_id: 8,
                result: Err(CloudError::RateLimited {
                    retry_after_ms: 250,
                }),
                trace: None,
            },
            "130000008308000000000000000008fa00000000000000",
        ),
        (
            Frame::Progress {
                request_id: 7,
                update: ProgressUpdate {
                    epoch: 2,
                    total_epochs: 4,
                    train_loss: 0.5,
                    train_acc: 0.75,
                },
            },
            "21000000860700000000000000020000000000000004000000000000000000003f0000403f",
        ),
        (Frame::Cancel { request_id: 7 }, "09000000060700000000000000"),
        (Frame::GetStats { request_id: 5 }, "09000000050500000000000000"),
        (
            Frame::Stats {
                request_id: 5,
                body: Ok(Bytes::from_static(b"snapshot")),
            },
            "160000008505000000000000000108000000736e617073686f74",
        ),
        (Frame::Ping { nonce: 0xfeed }, "0900000003edfe000000000000"),
        (Frame::Pong { nonce: 0xfeed }, "0900000084edfe000000000000"),
        (
            Frame::Welcome {
                version: 2,
                max_in_flight: 32,
                max_frame_len: 256 << 20,
            },
            "110000008102000000200000000000001000000000",
        ),
        (
            Frame::Reject {
                reason: "no common protocol version".into(),
            },
            "1f000000821a0000006e6f20636f6d6d6f6e2070726f746f636f6c2076657273696f6e",
        ),
        (Frame::Goodbye, "0100000004"),
    ]
}

#[test]
fn v2_frames_keep_their_wire_bytes() {
    for (frame, want) in pinned() {
        assert_eq!(wire_hex(&frame), want, "{frame:?}");
        // The pinned image is the one a reader takes back to the frame.
        assert_eq!(Frame::decode(frame.encode()).expect("decode"), frame);
    }
}
