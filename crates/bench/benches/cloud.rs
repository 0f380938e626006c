//! Criterion benchmarks of the cloud boundary: job serialize/decode
//! throughput (the bulk-bytes hot path), end-to-end jobs/sec through the
//! middleware stack at 1, 2 and 4 workers, and the transport — frame
//! encode/decode throughput plus remote-over-loopback jobs/sec against
//! in-process dispatch on the same pool.

use amalgam_cloud::transport::{Frame, FrameDecoder};
use amalgam_cloud::{CloudJob, CloudServer, CloudService, RemoteCloudClient, TaskPayload};
use amalgam_core::TrainConfig;
use amalgam_models::lenet5;
use amalgam_tensor::{Rng, Tensor};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn sample_job(rng: &mut Rng) -> CloudJob {
    // A realistically sized upload: a LeNet on 16×16 inputs plus 64 images.
    let model = lenet5(1, 16, 10, rng);
    let inputs = Tensor::randn(&[64, 1, 16, 16], rng);
    let labels: Vec<usize> = (0..64).map(|i| i % 10).collect();
    CloudJob {
        model: model.to_bytes(),
        task: TaskPayload::Classification {
            inputs,
            labels,
            val_inputs: None,
            val_labels: vec![],
        },
        train: TrainConfig::new(1, 16, 0.05).with_seed(1),
    }
}

/// A tiny trainable job for end-to-end scheduling throughput.
fn tiny_job(rng: &mut Rng, seed: u64) -> CloudJob {
    let model = lenet5(1, 8, 2, rng);
    let inputs = Tensor::randn(&[8, 1, 8, 8], rng);
    let labels: Vec<usize> = (0..8).map(|i| i % 2).collect();
    CloudJob {
        model: model.to_bytes(),
        task: TaskPayload::Classification {
            inputs,
            labels,
            val_inputs: None,
            val_labels: vec![],
        },
        train: TrainConfig::new(1, 8, 0.05).with_seed(seed),
    }
}

fn bench_wire(c: &mut Criterion) {
    let mut rng = Rng::seed_from(0);
    let job = sample_job(&mut rng);
    let payload = job.to_bytes();
    let mut group = c.benchmark_group("cloud_wire");
    group.bench_function(&format!("serialize_{}KiB", payload.len() / 1024), |b| {
        b.iter(|| job.to_bytes());
    });
    group.bench_function(&format!("decode_{}KiB", payload.len() / 1024), |b| {
        b.iter(|| CloudJob::from_bytes(payload.clone()).unwrap());
    });
    group.finish();
}

fn bench_pool_throughput(c: &mut Criterion) {
    let mut rng = Rng::seed_from(1);
    // Distinct pre-built jobs so the bench measures the service (queue +
    // middleware + training), not client-side job construction.
    let jobs: Vec<CloudJob> = (0..8).map(|s| tiny_job(&mut rng, s)).collect();
    let mut group = c.benchmark_group("cloud_jobs_per_wave8");
    for &workers in &[1usize, 2, 4] {
        let service = CloudService::builder().workers(workers).build();
        let client = service.client();
        group.bench_with_input(BenchmarkId::from_parameter(workers), &workers, |b, _| {
            b.iter(|| {
                let handles: Vec<_> = jobs.iter().map(|job| client.submit(job).unwrap()).collect();
                for handle in handles {
                    handle.wait().unwrap();
                }
            });
        });
        service.shutdown();
    }
    group.finish();
}

fn bench_frame_throughput(c: &mut Criterion) {
    let mut rng = Rng::seed_from(2);
    let payload = sample_job(&mut rng).to_bytes();
    let frame = Frame::Submit {
        request_id: 1,
        payload,
        trace: None,
    };
    let body = frame.encode();
    let mut group = c.benchmark_group("cloud_frame");
    group.bench_function(&format!("encode_{}KiB", body.len() / 1024), |b| {
        b.iter(|| frame.encode());
    });
    group.bench_function(&format!("decode_{}KiB", body.len() / 1024), |b| {
        b.iter(|| Frame::decode(body.clone()).unwrap());
    });
    group.finish();
}

/// The server's inbound hot path, isolated: decoding a stream of frames
/// with a fresh zeroed body `Vec` per frame, filled by a copy (what the
/// first blocking reader did), versus the reactor's [`FrameDecoder`]: small
/// frames through one reusable per-connection scratch, bulk frames received
/// into the buffer that becomes their `Bytes`.
fn bench_decode_scratch_reuse(c: &mut Criterion) {
    let mut rng = Rng::seed_from(5);
    const FRAMES: u64 = 16;
    // The realistic inbound frame: one whole serialized job (~240 KiB).
    let payload = sample_job(&mut rng).to_bytes();
    let mut wire = Vec::new();
    for request_id in 0..FRAMES {
        let body = Frame::Submit {
            request_id,
            payload: payload.clone(),
            trace: None,
        }
        .encode();
        wire.extend_from_slice(&(body.len() as u32).to_le_bytes());
        wire.extend_from_slice(&body);
    }
    let mut pings = Vec::new();
    for nonce in 0..4096u64 {
        let body = Frame::Ping { nonce }.encode();
        pings.extend_from_slice(&(body.len() as u32).to_le_bytes());
        pings.extend_from_slice(&body);
    }

    // The first blocking reader, faithfully: one zeroed `Vec` allocated per
    // frame, filled read_exact-style, then handed to the canonical decoder.
    fn fresh_vec_per_frame(wire: &[u8]) -> u64 {
        let mut rest = wire;
        let mut decoded = 0u64;
        while rest.len() >= 4 {
            let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
            let mut body = vec![0u8; len];
            body.copy_from_slice(&rest[4..4 + len]);
            Frame::decode(bytes::Bytes::from(body)).unwrap();
            decoded += 1;
            rest = &rest[4 + len..];
        }
        decoded
    }

    // The reactor's path: socket-sized reads, complete frames drained
    // after every one.
    fn scratch_reuse(dec: &mut FrameDecoder, wire: &[u8]) -> u64 {
        let mut decoded = 0u64;
        for chunk in wire.chunks(64 * 1024) {
            dec.extend(chunk);
            while dec.next_frame(usize::MAX).unwrap().is_some() {
                decoded += 1;
            }
        }
        decoded
    }

    let mut group = c.benchmark_group("cloud_frame_stream");
    group.bench_function("fresh_vec_per_frame_4096xping", |b| {
        b.iter(|| assert_eq!(fresh_vec_per_frame(&pings), 4096));
    });
    group.bench_function("decoder_scratch_reuse_4096xping", |b| {
        let mut dec = FrameDecoder::new();
        b.iter(|| assert_eq!(scratch_reuse(&mut dec, &pings), 4096));
    });
    group.bench_function(
        &format!("fresh_vec_per_frame_{}x{}KiB", FRAMES, payload.len() / 1024),
        |b| {
            b.iter(|| assert_eq!(fresh_vec_per_frame(&wire), FRAMES));
        },
    );
    group.bench_function(
        &format!(
            "decoder_scratch_reuse_{}x{}KiB",
            FRAMES,
            payload.len() / 1024
        ),
        |b| {
            let mut dec = FrameDecoder::new();
            b.iter(|| assert_eq!(scratch_reuse(&mut dec, &wire), FRAMES));
        },
    );
    group.finish();
}

/// Remote jobs/sec over loopback TCP versus in-process dispatch on the
/// same 2-worker pool: the gap is pure transport overhead (framing, socket
/// hops, reply routing), since the trained bytes are bitwise identical.
fn bench_remote_vs_in_process(c: &mut Criterion) {
    let mut rng = Rng::seed_from(3);
    let jobs: Vec<CloudJob> = (0..8).map(|s| tiny_job(&mut rng, s)).collect();
    let mut group = c.benchmark_group("cloud_dispatch_wave8");

    let service = CloudService::builder().workers(2).build();
    let server = CloudServer::bind(service, "127.0.0.1:0").expect("bind loopback");

    let local = server.local_client();
    group.bench_function("in_process", |b| {
        b.iter(|| {
            let handles: Vec<_> = jobs.iter().map(|job| local.submit(job).unwrap()).collect();
            for handle in handles {
                handle.wait().unwrap();
            }
        });
    });

    let remote = RemoteCloudClient::connect(server.local_addr()).expect("connect");
    group.bench_function("remote_loopback", |b| {
        b.iter(|| {
            let handles: Vec<_> = jobs.iter().map(|job| remote.submit(job).unwrap()).collect();
            for handle in handles {
                handle.wait().unwrap();
            }
        });
    });
    remote.close();
    server.shutdown();
    group.finish();
}

/// The dedup win: dispatch latency of a result-cache hit against cold
/// execution of the same job, plus the throughput of an 8-deep wave of
/// identical submissions coalescing onto one in-flight execution.
fn bench_cache_hit(c: &mut Criterion) {
    use std::time::Duration;
    let mut rng = Rng::seed_from(4);
    let job = tiny_job(&mut rng, 7);
    let mut group = c.benchmark_group("cloud_cache_hit");

    // Cold: an uncached pool trains the job on every dispatch.
    let cold = CloudService::builder().workers(1).build();
    let cold_client = cold.client();
    group.bench_function("cold_dispatch", |b| {
        b.iter(|| cold_client.train(&job).unwrap());
    });

    // Hit: the same job against a warmed result cache — hash + lookup,
    // no queue, no worker.
    let cached = CloudService::builder()
        .workers(1)
        .result_cache(1 << 20, Duration::from_secs(3600))
        .build();
    let hit_client = cached.client();
    hit_client.train(&job).expect("warm the cache");
    group.bench_function("hit_dispatch", |b| {
        b.iter(|| hit_client.train(&job).unwrap());
    });
    cached.shutdown();

    // Coalesced wave: capacity 0 caches nothing, so each wave's first
    // submission executes and the other 7 attach as waiters — the
    // coalescing path itself, not repeated cache hits.
    let coalescing = CloudService::builder()
        .workers(1)
        .result_cache(0, Duration::ZERO)
        .build();
    let wave_client = coalescing.client();
    group.bench_function("coalesced_wave8", |b| {
        b.iter(|| {
            let handles: Vec<_> = (0..8).map(|_| wave_client.submit(&job).unwrap()).collect();
            for handle in handles {
                handle.wait().unwrap();
            }
        });
    });
    coalescing.shutdown();
    cold.shutdown();
    group.finish();
}

criterion_group!(
    benches,
    bench_wire,
    bench_pool_throughput,
    bench_frame_throughput,
    bench_decode_scratch_reuse,
    bench_remote_vs_in_process,
    bench_cache_hit
);
criterion_main!(benches);
