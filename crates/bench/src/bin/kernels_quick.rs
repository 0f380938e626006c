//! Quick kernel-regression smoke: times the blocked GEMM against the seed's
//! naive `ikj` kernel, compares the micro-kernel dispatch tiers, times the
//! batched attention-shaped products against the serial per-head loop and
//! the im2col/col2im slice kernels against their naive definitions, and
//! emits a `BENCH_kernels.json` baseline.
//!
//! ```text
//! kernels-quick [--out DIR] [--check]
//! ```
//!
//! `--check` turns the run into a pass/fail gate (used by CI): it fails if
//! the blocked GEMM is not clearly faster than the `ikj` reference on the
//! 256³ shape, if the small-shape fast path regresses, if any variant
//! diverges from the reference numerically, if the SIMD micro-kernel is not
//! *bitwise* identical to the portable one, if the batched GEMM is not
//! bitwise identical to the serial per-head loop, if batching fails to
//! beat the serial loop on a machine with ≥ 4 hardware threads, or if the
//! conv glue kernels differ from the naive definitions by one bit or are not
//! ≥ 2x faster than them at LeNet's shapes.

use amalgam_bench::{
    attention_pv_serial_per_head, attention_qk_serial_per_head, matmul_ikj_reference as matmul_ikj,
};
use amalgam_tensor::kernels::{self, matmul_batch_nt_scaled_into, reference, Conv2dGeom};
use amalgam_tensor::simd::{self, Tier};
use amalgam_tensor::{parallel, scratch, Rng, Tensor};
use std::fmt::Write as _;
use std::time::Instant;

/// Best-of-`reps` wall time in milliseconds.
fn time_ms<F: FnMut() -> f32>(reps: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    let mut sink = 0.0f32;
    for _ in 0..reps {
        let start = Instant::now();
        sink += f();
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        best = best.min(elapsed);
    }
    // Keep the accumulated value observable so the timed calls cannot be
    // optimized away.
    if sink.is_nan() {
        eprintln!("sink {sink}");
    }
    best
}

/// [`time_ms`] for kernels writing into a scratch-staged `dims` tensor.
fn time_staged_ms(reps: usize, dims: &[usize], mut f: impl FnMut(&mut Tensor)) -> f64 {
    time_ms(reps, || {
        let mut out = scratch::take_tensor_raw(dims);
        f(&mut out);
        let sink = out.data()[0];
        scratch::give_tensor(out);
        sink
    })
}

struct Entry {
    name: &'static str,
    fields: Vec<(&'static str, f64)>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_dir = String::from(".");
    let mut check = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out_dir = it.next().expect("--out requires a directory").clone(),
            "--check" => check = true,
            other => panic!("unknown option {other} (usage: kernels-quick [--out DIR] [--check])"),
        }
    }

    // Single-threaded: the per-kernel criteria are per-core speedups, and
    // CI runners have unpredictable core counts.
    parallel::set_threads(1);
    let mut rng = Rng::seed_from(42);

    let mut entries = Vec::new();
    let mut failures = Vec::new();

    // 256³ — the headline shape.
    let a = Tensor::randn(&[256, 256], &mut rng);
    let b = Tensor::randn(&[256, 256], &mut rng);
    let reference = matmul_ikj(&a, &b);
    let blocked = kernels::matmul(&a, &b);
    if !blocked.approx_eq(&reference, 1e-3) {
        failures.push("matmul 256³ diverges from ikj reference".to_string());
    }
    let ikj_ms = time_ms(5, || matmul_ikj(&a, &b).data()[0]);
    let gemm_ms = time_ms(5, || kernels::matmul(&a, &b).data()[0]);
    let speedup = ikj_ms / gemm_ms;
    entries.push(Entry {
        name: "matmul_256",
        fields: vec![
            ("ikj_ms", ikj_ms),
            ("gemm_ms", gemm_ms),
            ("speedup", speedup),
        ],
    });
    // Loose threshold: locally the blocked kernel is ≥ 2x; noisy shared CI
    // runners get headroom, but a real regression (blocked ≈ naive) still
    // fails loudly.
    if speedup < 1.2 {
        failures.push(format!(
            "blocked GEMM only {speedup:.2}x faster than ikj at 256³ (want ≥ 1.2x in CI, ≥ 2x locally)"
        ));
    }

    // Micro-kernel tiers at 256³: forced portable vs forced SIMD. The two
    // must agree bit for bit; timing shows what the hand-written kernel buys
    // over the autovectorized tile loop.
    simd::force_tier(Some(Tier::Portable));
    let portable_out = kernels::matmul(&a, &b);
    let portable_ms = time_ms(5, || kernels::matmul(&a, &b).data()[0]);
    simd::force_tier(None);
    if simd::simd_available() {
        simd::force_tier(Some(Tier::Simd));
        let simd_out = kernels::matmul(&a, &b);
        let simd_ms = time_ms(5, || kernels::matmul(&a, &b).data()[0]);
        simd::force_tier(None);
        if portable_out.data() != simd_out.data() {
            failures.push("SIMD micro-kernel is not bitwise identical to portable".to_string());
        }
        entries.push(Entry {
            name: "microkernel_256",
            fields: vec![
                ("portable_ms", portable_ms),
                ("simd_ms", simd_ms),
                ("speedup", portable_ms / simd_ms),
            ],
        });
    } else {
        entries.push(Entry {
            name: "microkernel_256",
            fields: vec![("portable_ms", portable_ms)],
        });
    }

    // 32³ — must not regress (this shape skips packing and the pool).
    let a32 = Tensor::randn(&[32, 32], &mut rng);
    let b32 = Tensor::randn(&[32, 32], &mut rng);
    let ikj32 = time_ms(200, || matmul_ikj(&a32, &b32).data()[0]);
    let gemm32 = time_ms(200, || kernels::matmul(&a32, &b32).data()[0]);
    entries.push(Entry {
        name: "matmul_32",
        fields: vec![
            ("ikj_ms", ikj32),
            ("gemm_ms", gemm32),
            ("speedup", ikj32 / gemm32),
        ],
    });
    // Loose bound (parity locally): only a gross regression — e.g. the small
    // path accidentally routing through packing or the pool — trips it.
    if gemm32 > ikj32 * 2.5 {
        failures.push(format!(
            "small-shape path regressed: {gemm32:.4} ms vs ikj {ikj32:.4} ms at 32³"
        ));
    }

    // Transposed variants at 256³ (correctness + timing only).
    let t_tn = time_ms(5, || kernels::matmul_tn(&a, &b).data()[0]);
    entries.push(Entry {
        name: "matmul_tn_256",
        fields: vec![("gemm_ms", t_tn)],
    });
    let t_nt = time_ms(5, || kernels::matmul_nt(&a, &b).data()[0]);
    entries.push(Entry {
        name: "matmul_nt_256",
        fields: vec![("gemm_ms", t_nt)],
    });

    // Conv-shaped skinny product: [64, 576] @ [576, 3136]
    // (an 8-image 32×32 conv layer with 64 output channels).
    let wmat = Tensor::randn(&[64, 576], &mut rng);
    let cols = Tensor::randn(&[576, 3136], &mut rng);
    let conv_ikj = time_ms(5, || matmul_ikj(&wmat, &cols).data()[0]);
    let conv_gemm = time_ms(5, || kernels::matmul(&wmat, &cols).data()[0]);
    entries.push(Entry {
        name: "matmul_conv_64x576x3136",
        fields: vec![
            ("ikj_ms", conv_ikj),
            ("gemm_ms", conv_gemm),
            ("speedup", conv_ikj / conv_gemm),
        ],
    });

    // Conv glue at LeNet-5's two convolutions (5×5, padding 2) on a batch of
    // 16 at 20 px — the e2e benchmark's middle job: unfold the input and fold
    // a column gradient back, slice kernels against the naive definitions.
    let (mut naive_ms, mut slice_ms) = (0.0, 0.0);
    for (channels, hw) in [(1usize, 20usize), (6, 10)] {
        let geom = Conv2dGeom {
            in_channels: channels,
            in_h: hw,
            in_w: hw,
            kernel: 5,
            stride: 1,
            padding: 2,
        };
        let n = 16;
        let x = Tensor::randn(&[n, channels, hw, hw], &mut rng);
        let dcols = Tensor::randn(&[geom.col_rows(), n * hw * hw], &mut rng);
        if kernels::im2col(&x, &geom).data() != reference::im2col(&x, &geom).data() {
            failures.push(format!(
                "im2col differs from its naive definition at {geom:?}"
            ));
        }
        let folded = kernels::col2im(&dcols, &geom, n);
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        if bits(&folded) != bits(&reference::col2im(&dcols, &geom, n)) {
            failures.push(format!(
                "col2im differs from its naive definition at {geom:?}"
            ));
        }
        naive_ms += time_ms(50, || {
            reference::im2col(&x, &geom).data()[0] + reference::col2im(&dcols, &geom, n).data()[0]
        });
        slice_ms += time_ms(50, || {
            kernels::im2col(&x, &geom).data()[0] + kernels::col2im(&dcols, &geom, n).data()[0]
        });
    }
    let glue_speedup = naive_ms / slice_ms;
    entries.push(Entry {
        name: "conv_glue",
        fields: vec![
            ("naive_ms", naive_ms),
            ("slice_ms", slice_ms),
            ("speedup", glue_speedup),
        ],
    });
    if glue_speedup < 2.0 {
        failures.push(format!(
            "im2col + col2im slice kernels only {glue_speedup:.2}x faster than the naive loops at \
             LeNet's conv shapes (want ≥ 2x)"
        ));
    }

    // Batched attention-shaped products: B·H = 64 heads of Q·Kᵀ over
    // [T, dh] = [128, 64] (B = 8, H = 8, the acceptance shape). The serial
    // loop issues one kernel dispatch per head — what attention did before
    // batching; the batched call hands the whole set to the pool at once.
    let (heads, t, dh) = (64usize, 128usize, 64usize);
    let qh = Tensor::randn(&[heads, t, dh], &mut rng);
    let kh = Tensor::randn(&[heads, t, dh], &mut rng);
    let alpha = 1.0 / (dh as f32).sqrt();

    // Bitwise identity between the two paths (single-threaded here; the
    // proptests cover the multi-threaded case).
    let mut serial_out = Tensor::zeros(&[heads, t, t]);
    attention_qk_serial_per_head(&qh, &kh, alpha, &mut serial_out);
    let mut batch_out = Tensor::zeros(&[heads, t, t]);
    matmul_batch_nt_scaled_into(&qh, &kh, alpha, &mut batch_out);
    if serial_out.data() != batch_out.data() {
        failures.push("batched Q·Kᵀ is not bitwise identical to the serial loop".to_string());
    }

    let qk_serial_1t = time_staged_ms(5, &[heads, t, t], |out| {
        attention_qk_serial_per_head(&qh, &kh, alpha, out);
    });
    let qk_batch_1t = time_staged_ms(5, &[heads, t, t], |out| {
        matmul_batch_nt_scaled_into(&qh, &kh, alpha, out);
    });
    entries.push(Entry {
        name: "attn_qk_batch_64x128x64_1thread",
        fields: vec![
            ("serial_ms", qk_serial_1t),
            ("batch_ms", qk_batch_1t),
            ("speedup", qk_serial_1t / qk_batch_1t),
        ],
    });

    // The multi-thread comparison the acceptance criterion names: 4 worker
    // threads. On machines with < 4 hardware threads the pool oversubscribes
    // one core and the speedup collapses to ~1x, so the gate only demands a
    // win where ≥ 4 hardware threads exist.
    let hw_threads = std::thread::available_parallelism()
        .map(std::num::NonZero::get)
        .unwrap_or(1);
    parallel::set_threads(4);
    let qk_serial_4t = time_staged_ms(5, &[heads, t, t], |out| {
        attention_qk_serial_per_head(&qh, &kh, alpha, out);
    });
    let qk_batch_4t = time_staged_ms(5, &[heads, t, t], |out| {
        matmul_batch_nt_scaled_into(&qh, &kh, alpha, out);
    });
    let qk_speedup_4t = qk_serial_4t / qk_batch_4t;
    entries.push(Entry {
        name: "attn_qk_batch_64x128x64_4threads",
        fields: vec![
            ("serial_ms", qk_serial_4t),
            ("batch_ms", qk_batch_4t),
            ("speedup", qk_speedup_4t),
            ("hw_threads", hw_threads as f64),
        ],
    });

    // P·V: 64 heads of [128, 128] @ [128, 64], same comparison.
    let probs = Tensor::randn(&[heads, t, t], &mut rng);
    let vh = Tensor::randn(&[heads, t, dh], &mut rng);
    let mut serial_out = Tensor::zeros(&[heads, t, dh]);
    attention_pv_serial_per_head(&probs, &vh, &mut serial_out);
    let mut batch_out = Tensor::zeros(&[heads, t, dh]);
    kernels::matmul_batch_into(&probs, &vh, &mut batch_out);
    if serial_out.data() != batch_out.data() {
        failures.push("batched P·V is not bitwise identical to the serial loop".to_string());
    }
    let pv_serial_4t = time_staged_ms(5, &[heads, t, dh], |out| {
        attention_pv_serial_per_head(&probs, &vh, out);
    });
    let pv_batch_4t = time_staged_ms(5, &[heads, t, dh], |out| {
        kernels::matmul_batch_into(&probs, &vh, out);
    });
    entries.push(Entry {
        name: "attn_pv_batch_64x128x64_4threads",
        fields: vec![
            ("serial_ms", pv_serial_4t),
            ("batch_ms", pv_batch_4t),
            ("speedup", pv_serial_4t / pv_batch_4t),
            ("hw_threads", hw_threads as f64),
        ],
    });

    if hw_threads >= 4 {
        // ≥ 2x locally; CI noise gets headroom down to 1.5x.
        if qk_speedup_4t < 1.5 {
            failures.push(format!(
                "batched Q·Kᵀ only {qk_speedup_4t:.2}x over the serial per-head loop on 4 threads \
                 (want ≥ 1.5x in CI, ≥ 2x locally)"
            ));
        }
    } else if qk_speedup_4t < 0.6 {
        // Oversubscribed single-core machines cannot show a parallel win,
        // but batching must never make the loop grossly slower either.
        failures.push(format!(
            "batched Q·Kᵀ regressed to {qk_speedup_4t:.2}x of the serial loop on an oversubscribed \
             {hw_threads}-thread machine"
        ));
    }

    parallel::set_threads(0);

    let mut json = String::from("{\n");
    for (i, e) in entries.iter().enumerate() {
        let _ = write!(json, "  \"{}\": {{", e.name);
        for (j, (key, value)) in e.fields.iter().enumerate() {
            let _ = write!(json, "\"{key}\": {value:.4}");
            if j + 1 < e.fields.len() {
                json.push_str(", ");
            }
        }
        json.push('}');
        if i + 1 < entries.len() {
            json.push(',');
        }
        json.push('\n');
    }
    json.push_str("}\n");

    let path = format!("{out_dir}/BENCH_kernels.json");
    std::fs::write(&path, &json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    print!("{json}");
    println!(
        "wrote {path} (256³ speedup: {speedup:.2}x, batched Q·Kᵀ on 4 threads: {qk_speedup_4t:.2}x)"
    );

    if check && !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
