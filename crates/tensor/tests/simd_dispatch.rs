//! Bitwise-equivalence tests for the runtime-dispatched kernel tiers.
//!
//! The SIMD kernels (AVX2) perform unfused lane-wise mul+add in the
//! same `k` order as the portable kernel, so *every* GEMM result must be
//! bit-for-bit identical across tiers — the property that makes runtime
//! dispatch invisible to the TEE baseline and the cloud-vs-local
//! equivalence checks. Shapes cover all three transpose variants and the
//! ragged edge tiles around MR/NR/MC/KC (6, 16, 120, 256).
//!
//! The forced-tier knob is process-global, so the tests in this file
//! serialise on one mutex (each integration-test file is its own process,
//! so no other suite observes the flips).

use amalgam_tensor::kernels::{
    matmul, matmul_batch_into, matmul_batch_nt_scaled_into, matmul_batch_tn_into, matmul_nt,
    matmul_tn,
};
use amalgam_tensor::simd::{self, Tier};
use amalgam_tensor::{Rng, Tensor};
use std::sync::Mutex;

static TIER_LOCK: Mutex<()> = Mutex::new(());

fn rand_tensor(dims: &[usize], seed: u64) -> Tensor {
    Tensor::randn(dims, &mut Rng::seed_from(seed))
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Runs `f` under forced-portable and forced-SIMD dispatch and asserts the
/// results are bitwise identical. Skips quietly when the CPU has no SIMD
/// tier (the portable kernel is then the only implementation).
fn assert_tiers_agree(label: &str, f: impl Fn() -> Tensor) {
    if !simd::simd_available() {
        eprintln!("no SIMD tier on this CPU; skipping {label}");
        return;
    }
    simd::force_tier(Some(Tier::Portable));
    let portable = f();
    simd::force_tier(Some(Tier::Simd));
    let vectored = f();
    simd::force_tier(None);
    assert_eq!(
        bits(&portable),
        bits(&vectored),
        "{label}: SIMD tier diverged from portable"
    );
}

/// Edge shapes straddling MR = 6, NR = 16, MC = 120 and KC = 256, plus the
/// square blocked shape the benches time.
const SHAPES: &[(usize, usize, usize)] = &[
    (1, 1, 300),
    (7, 9, 17),
    (6, 16, 256),
    (121, 17, 255),
    (8, 8, 256),
    (9, 7, 257),
    (129, 65, 255),
    (64, 64, 64),
    (33, 121, 40),
];

#[test]
fn all_transpose_variants_match_across_tiers() {
    let _guard = TIER_LOCK.lock().unwrap();
    for (i, &(m, n, k)) in SHAPES.iter().enumerate() {
        let seed = 100 + i as u64;
        let a = rand_tensor(&[m, k], seed);
        let b = rand_tensor(&[k, n], seed ^ 0x9e37);
        assert_tiers_agree(&format!("matmul {m}x{n}x{k}"), || matmul(&a, &b));

        let at = rand_tensor(&[k, m], seed ^ 0x51ed);
        assert_tiers_agree(&format!("matmul_tn {m}x{n}x{k}"), || matmul_tn(&at, &b));

        let bt = rand_tensor(&[n, k], seed ^ 0x2545);
        assert_tiers_agree(&format!("matmul_nt {m}x{n}x{k}"), || matmul_nt(&a, &bt));
    }
}

#[test]
fn batched_gemm_matches_across_tiers() {
    let _guard = TIER_LOCK.lock().unwrap();
    // Attention-shaped batch plus a ragged edge-tile batch.
    for &(batch, m, n, k) in &[(6usize, 33usize, 33usize, 20usize), (3, 9, 7, 257)] {
        let a = rand_tensor(&[batch, m, k], 7);
        let bt = rand_tensor(&[batch, n, k], 8);
        assert_tiers_agree(&format!("batch nt {batch}x{m}x{n}x{k}"), || {
            let mut out = Tensor::zeros(&[batch, m, n]);
            matmul_batch_nt_scaled_into(&a, &bt, 0.125, &mut out);
            out
        });

        let b = rand_tensor(&[batch, k, n], 9);
        assert_tiers_agree(&format!("batch nn {batch}x{m}x{n}x{k}"), || {
            let mut out = Tensor::zeros(&[batch, m, n]);
            matmul_batch_into(&a, &b, &mut out);
            out
        });

        let at = rand_tensor(&[batch, k, m], 10);
        assert_tiers_agree(&format!("batch tn {batch}x{m}x{n}x{k}"), || {
            let mut out = Tensor::zeros(&[batch, m, n]);
            matmul_batch_tn_into(&at, &b, &mut out);
            out
        });
    }
}

#[test]
fn forced_simd_falls_back_when_unavailable() {
    let _guard = TIER_LOCK.lock().unwrap();
    simd::force_tier(Some(Tier::Simd));
    let active = simd::active_tier();
    if simd::simd_available() {
        assert_eq!(active, Tier::Simd);
    } else {
        assert_eq!(active, Tier::Portable, "must fall back, never crash");
    }
    // Either way a product must still work.
    let a = rand_tensor(&[40, 40], 1);
    let b = rand_tensor(&[40, 40], 2);
    let y = matmul(&a, &b);
    assert_eq!(y.dims(), &[40, 40]);
    simd::force_tier(None);
}
