//! Property-based and behavioural tests for the blocked GEMM and the
//! persistent worker pool.
//!
//! The shape strategy deliberately samples adversarial sizes: 1, primes,
//! and values one off the MR/NR/MC/KC tile boundaries, so edge-tile packing
//! and write-back are exercised for every transpose variant.

use amalgam_tensor::gemm::{self, force_route, gemm_batch, BatchMat, Route};
use amalgam_tensor::kernels::{
    matmul, matmul_batch_into, matmul_batch_nt_scaled_into, matmul_batch_tn_into, matmul_nt,
    matmul_tn,
};
use amalgam_tensor::pack::{self, MatRef};
use amalgam_tensor::simd::{self, Tier};
use amalgam_tensor::{parallel, Rng, Tensor};
use proptest::prelude::*;
use std::sync::Mutex;

/// Serialises tests that flip the global `set_threads` and `force_tier`
/// knobs. (Tests that flip neither may run beside them: every tier and
/// thread count gives the same bits, which is what this file checks.)
static THREADS_LOCK: Mutex<()> = Mutex::new(());

/// Adversarial M/N sizes: 1, primes, tile-boundary ± 1 around MR/NR = 8
/// and MC = 128.
const EDGE_MN: &[usize] = &[1, 2, 3, 5, 7, 8, 9, 13, 16, 17, 31, 33, 64, 65, 127, 129];

/// Adversarial K sizes, additionally straddling KC = 256.
const EDGE_K: &[usize] = &[1, 2, 3, 7, 8, 9, 17, 64, 65, 255, 256, 257];

fn rand_tensor(dims: &[usize], seed: u64) -> Tensor {
    Tensor::randn(dims, &mut Rng::seed_from(seed))
}

/// Triple-loop reference product.
fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let n = b.dims()[1];
    let mut out = Tensor::zeros(&[m, n]);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a.data()[i * k + p] * b.data()[p * n + j];
            }
            out.data_mut()[i * n + j] = acc;
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Blocked GEMM matches the naive reference on adversarial shapes.
    #[test]
    fn matmul_matches_naive_on_edge_shapes(
        mi in 0usize..EDGE_MN.len(),
        ni in 0usize..EDGE_MN.len(),
        ki in 0usize..EDGE_K.len(),
        seed in 0u64..1000,
    ) {
        let (m, n, k) = (EDGE_MN[mi], EDGE_MN[ni], EDGE_K[ki]);
        let a = rand_tensor(&[m, k], seed);
        let b = rand_tensor(&[k, n], seed ^ 0x9e37);
        let got = matmul(&a, &b);
        let want = naive_matmul(&a, &b);
        prop_assert!(got.approx_eq(&want, 1e-4), "max diff {}", got.max_abs_diff(&want));
    }

    /// `Aᵀ·B` agrees with the reference on the materialized transpose.
    #[test]
    fn matmul_tn_matches_naive_on_edge_shapes(
        mi in 0usize..EDGE_MN.len(),
        ni in 0usize..EDGE_MN.len(),
        ki in 0usize..EDGE_K.len(),
        seed in 0u64..1000,
    ) {
        let (m, n, k) = (EDGE_MN[mi], EDGE_MN[ni], EDGE_K[ki]);
        let a = rand_tensor(&[k, m], seed);
        let b = rand_tensor(&[k, n], seed ^ 0x51ed);
        let got = matmul_tn(&a, &b);
        let want = naive_matmul(&a.transpose2d(), &b);
        prop_assert!(got.approx_eq(&want, 1e-4), "max diff {}", got.max_abs_diff(&want));
    }

    /// `A·Bᵀ` agrees with the reference on the materialized transpose.
    #[test]
    fn matmul_nt_matches_naive_on_edge_shapes(
        mi in 0usize..EDGE_MN.len(),
        ni in 0usize..EDGE_MN.len(),
        ki in 0usize..EDGE_K.len(),
        seed in 0u64..1000,
    ) {
        let (m, n, k) = (EDGE_MN[mi], EDGE_MN[ni], EDGE_K[ki]);
        let a = rand_tensor(&[m, k], seed);
        let b = rand_tensor(&[n, k], seed ^ 0x2545);
        let got = matmul_nt(&a, &b);
        let want = naive_matmul(&a, &b.transpose2d());
        prop_assert!(got.approx_eq(&want, 1e-4), "max diff {}", got.max_abs_diff(&want));
    }
}

fn item(t: &Tensor, bi: usize, rows: usize, cols: usize) -> Tensor {
    Tensor::from_vec(
        t.data()[bi * rows * cols..(bi + 1) * rows * cols].to_vec(),
        &[rows, cols],
    )
}

fn bits(data: &[f32]) -> Vec<u32> {
    data.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(30))]

    /// The batched GEMM must be *bitwise* identical to calling the plain
    /// GEMM once per item, for every transpose variant, on adversarial
    /// shapes — same path choice, same blocking, same per-element k order.
    #[test]
    fn gemm_batch_is_bitwise_identical_to_looped_gemm(
        batch in 1usize..6,
        mi in 0usize..EDGE_MN.len(),
        ni in 0usize..EDGE_MN.len(),
        ki in 0usize..EDGE_K.len(),
        seed in 0u64..1000,
    ) {
        let (m, n, k) = (EDGE_MN[mi], EDGE_MN[ni], EDGE_K[ki]);

        // nn
        let a = rand_tensor(&[batch, m, k], seed);
        let b = rand_tensor(&[batch, k, n], seed ^ 0x9e37);
        let mut got = Tensor::zeros(&[batch, m, n]);
        matmul_batch_into(&a, &b, &mut got);
        for bi in 0..batch {
            let want = matmul(&item(&a, bi, m, k), &item(&b, bi, k, n));
            prop_assert_eq!(
                bits(&got.data()[bi * m * n..(bi + 1) * m * n]),
                bits(want.data()),
                "nn item {} of {} at ({},{},{})", bi, batch, m, n, k
            );
        }

        // tn
        let at = rand_tensor(&[batch, k, m], seed ^ 0x51ed);
        let mut got = Tensor::zeros(&[batch, m, n]);
        matmul_batch_tn_into(&at, &b, &mut got);
        for bi in 0..batch {
            let want = matmul_tn(&item(&at, bi, k, m), &item(&b, bi, k, n));
            prop_assert_eq!(
                bits(&got.data()[bi * m * n..(bi + 1) * m * n]),
                bits(want.data()),
                "tn item {} of {} at ({},{},{})", bi, batch, m, n, k
            );
        }

        // nt with the attention-style epilogue scale
        let bt = rand_tensor(&[batch, n, k], seed ^ 0x2545);
        let alpha = 0.125f32;
        let mut got = Tensor::zeros(&[batch, m, n]);
        matmul_batch_nt_scaled_into(&a, &bt, alpha, &mut got);
        for bi in 0..batch {
            let mut want = matmul_nt(&item(&a, bi, m, k), &item(&bt, bi, n, k));
            want.scale_in_place(alpha);
            prop_assert_eq!(
                bits(&got.data()[bi * m * n..(bi + 1) * m * n]),
                bits(want.data()),
                "nt item {} of {} at ({},{},{})", bi, batch, m, n, k
            );
        }
    }

    /// A shared (rank-2) B must behave exactly like repeating it per item.
    #[test]
    fn gemm_batch_shared_b_is_bitwise_identical(
        batch in 1usize..6,
        mi in 0usize..EDGE_MN.len(),
        ni in 0usize..EDGE_MN.len(),
        ki in 0usize..EDGE_K.len(),
        seed in 0u64..1000,
    ) {
        let (m, n, k) = (EDGE_MN[mi], EDGE_MN[ni], EDGE_K[ki]);
        let a = rand_tensor(&[batch, m, k], seed);
        let b = rand_tensor(&[k, n], seed ^ 0x1234);
        let mut got = Tensor::zeros(&[batch, m, n]);
        matmul_batch_into(&a, &b, &mut got);
        for bi in 0..batch {
            let want = matmul(&item(&a, bi, m, k), &b);
            prop_assert_eq!(
                bits(&got.data()[bi * m * n..(bi + 1) * m * n]),
                bits(want.data()),
                "shared-B item {} of {} at ({},{},{})", bi, batch, m, n, k
            );
        }
    }
}

/// Batched results must not depend on the thread count (chunk boundaries may
/// split items mid-tile; the per-element accumulation order may not change).
#[test]
fn gemm_batch_is_bitwise_deterministic_across_thread_counts() {
    let _guard = THREADS_LOCK.lock().unwrap();
    // Large enough that the pool really splits it (every task clears the
    // GEMM's work-per-task gate), with chunk boundaries that fall mid-item
    // and mid-tile: 9 · 131 rows over 4 tasks.
    let (batch, m, n, k) = (9usize, 131usize, 96usize, 200usize);
    let a = rand_tensor(&[batch, m, k], 11);
    let bt = rand_tensor(&[batch, n, k], 12);

    parallel::set_threads(1);
    let mut serial = Tensor::zeros(&[batch, m, n]);
    matmul_batch_nt_scaled_into(&a, &bt, 0.25, &mut serial);
    parallel::set_threads(4);
    let mut pooled = Tensor::zeros(&[batch, m, n]);
    matmul_batch_nt_scaled_into(&a, &bt, 0.25, &mut pooled);
    parallel::set_threads(0);

    assert_eq!(
        serial.data(),
        pooled.data(),
        "threaded batch must be bitwise identical to single-threaded"
    );
}

/// All tile boundaries crossed at once, for every variant.
#[test]
fn boundary_straddling_shapes_match_naive() {
    let (m, n, k) = (129, 65, 257);
    let a = rand_tensor(&[m, k], 1);
    let b = rand_tensor(&[k, n], 2);
    assert!(matmul(&a, &b).approx_eq(&naive_matmul(&a, &b), 1e-4));

    let at = rand_tensor(&[k, m], 3);
    assert!(matmul_tn(&at, &b).approx_eq(&naive_matmul(&at.transpose2d(), &b), 1e-4));

    let bt = rand_tensor(&[n, k], 4);
    assert!(matmul_nt(&a, &bt).approx_eq(&naive_matmul(&a, &bt.transpose2d()), 1e-4));
}

/// The pool's chunking must never change results: `set_threads(1)` and a
/// multi-threaded run are bitwise identical (per-element accumulation order
/// is fixed), which is what keeps the TEE baseline and the cloud-vs-local
/// equivalence sound.
#[test]
fn pool_respects_set_threads_determinism() {
    let _guard = THREADS_LOCK.lock().unwrap();
    // Large enough that the pool really splits it: four tasks, each over
    // the GEMM's work-per-task gate, none aligned to a cache block.
    let a = rand_tensor(&[261, 255], 7);
    let b = rand_tensor(&[255, 301], 8);
    let at = rand_tensor(&[255, 261], 9);
    let bt = rand_tensor(&[301, 255], 10);

    parallel::set_threads(1);
    let serial = matmul(&a, &b);
    let serial_tn = matmul_tn(&at, &b);
    let serial_nt = matmul_nt(&a, &bt);
    parallel::set_threads(4);
    let pooled = matmul(&a, &b);
    let pooled_tn = matmul_tn(&at, &b);
    let pooled_nt = matmul_nt(&a, &bt);
    parallel::set_threads(0);

    assert_eq!(
        serial.data(),
        pooled.data(),
        "threaded GEMM must be bitwise identical to single-threaded"
    );
    assert_eq!(serial_tn.data(), pooled_tn.data());
    assert_eq!(serial_nt.data(), pooled_nt.data());
}

/// Kernel dispatches must reuse pool threads: after warm-up, repeated
/// matmuls spawn zero new threads.
#[test]
fn no_per_call_thread_spawns() {
    let _guard = THREADS_LOCK.lock().unwrap();
    // Warm the pool to the largest size any concurrently-running test can
    // request (threads() defaults are capped at 16), so the global spawn
    // counter cannot move while this test runs.
    parallel::set_threads(16);
    let a = rand_tensor(&[128, 128], 9);
    let b = rand_tensor(&[128, 128], 10);
    // Warm-up: first dispatch may create the pool.
    let _ = matmul(&a, &b);
    parallel::set_threads(4);
    let after_warmup = parallel::pool_spawned_threads();
    for _ in 0..20 {
        let _ = matmul(&a, &b);
        let _ = matmul_tn(&a, &b);
        let _ = matmul_nt(&a, &b);
    }
    let after_burst = parallel::pool_spawned_threads();
    parallel::set_threads(0);
    assert_eq!(
        after_warmup, after_burst,
        "matmul dispatches must not spawn threads per call"
    );
    assert!(
        after_warmup >= 3,
        "a 4-way dispatch should have populated the pool (got {after_warmup})"
    );
}

// ---------------------------------------------------------------------------
// Routes and packers: same bits whichever way a product is computed
// ---------------------------------------------------------------------------

/// Column counts around the no-pack kernel's 16-, 8- and masked-lane tiles
/// and one past the NC = 512 block.
const RAGGED_N: &[usize] = &[1, 7, 8, 9, 15, 16, 17, 24, 31, 33, 100, 530];

/// Depths on both sides of KC = 256, including two- and three-block sums.
const STRADDLE_K: &[usize] = &[1, 2, 25, 255, 256, 257, 300, 513];

fn rand_vec(len: usize, seed: u64) -> Vec<f32> {
    let mut rng = Rng::seed_from(seed);
    (0..len).map(|_| rng.uniform(-2.0, 2.0)).collect()
}

/// Runs `f` with the route hook set on this thread, then restores the rule.
fn on_route<T>(route: Route, f: impl FnOnce() -> T) -> T {
    force_route(Some(route));
    let out = f();
    force_route(None);
    out
}

/// The micro-kernel tiers this CPU can run.
fn tiers() -> Vec<Tier> {
    let mut tiers = vec![Tier::Portable];
    if simd::simd_available() {
        tiers.push(Tier::Simd);
    }
    tiers
}

/// A as a `[m, k]` view over `data`, stored row-major or as its transpose.
fn a_view(data: &[f32], m: usize, k: usize, transposed: bool) -> MatRef<'_> {
    if transposed {
        MatRef::transposed(data, m)
    } else {
        MatRef::row_major(data, k)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The no-pack route, the packed walk and the element-wise reference
    /// walk agree bit for bit — on every row count around the route's limit,
    /// ragged widths, depths straddling KC, A stored either way, B's rows
    /// dense or padded, on top of whatever C held, on every tier.
    #[test]
    fn no_pack_route_is_bitwise_the_packed_walk(
        m in 1usize..21,
        ni in 0usize..RAGGED_N.len(),
        ki in 0usize..STRADDLE_K.len(),
        a_transposed in 0usize..2,
        b_padding in 0usize..2,
        seed in 0u64..1000,
    ) {
        let _guard = THREADS_LOCK.lock().unwrap();
        let (n, k) = (RAGGED_N[ni], STRADDLE_K[ki]);
        let ldb = n + b_padding * 5;
        let ad = rand_vec(m * k, seed);
        let bd = rand_vec(k * ldb, seed ^ 0x9e37);
        let c0 = rand_vec(m * n, seed ^ 0x51ed);
        let a = a_view(&ad, m, k, a_transposed == 1);
        let b = MatRef { data: &bd, rs: ldb, cs: 1 };
        let mut want = c0.clone();
        gemm::reference::gemm(m, n, k, a, b, &mut want);
        for tier in tiers() {
            simd::force_tier(Some(tier));
            for route in [Route::Skinny, Route::Packed] {
                let mut got = c0.clone();
                on_route(route, || gemm::gemm(m, n, k, a, b, &mut got));
                prop_assert_eq!(
                    bits(&got), bits(&want),
                    "{:?} on {:?} at ({},{},{}), ldb {}", route, tier, m, n, k, ldb
                );
            }
            simd::force_tier(None);
        }
    }

    /// The same through `gemm_batch`: per-item and shared B, a NaN-poisoned
    /// output, and every pool size (small batches stay inline; the fixed
    /// case below is the one the pool really splits).
    #[test]
    fn batched_no_pack_route_is_bitwise_the_packed_walk(
        batch in 1usize..5,
        m in 1usize..21,
        ni in 0usize..RAGGED_N.len(),
        ki in 0usize..STRADDLE_K.len(),
        shared_b in 0usize..2,
        seed in 0u64..1000,
    ) {
        let _guard = THREADS_LOCK.lock().unwrap();
        let (n, k) = (RAGGED_N[ni], STRADDLE_K[ki]);
        let ad = rand_vec(batch * m * k, seed);
        let bd = rand_vec(batch * k * n, seed ^ 0x2545);
        let check = batched_routes_agree(batch, m, n, k, &ad, &bd, shared_b == 1);
        parallel::set_threads(0);
        simd::force_tier(None);
        prop_assert!(check.is_ok(), "{}", check.unwrap_err());
    }

    /// The block-moving packers fill exactly the panels the element-wise
    /// definitions do: ragged last panels, K blocks that are not multiples
    /// of 8, offsets into the source, every stride combination (row-major,
    /// transposed, neither stride 1), a NaN-poisoned target, every tier.
    #[test]
    fn packers_match_their_elementwise_definition(
        lines in 1usize..21,
        kc in 1usize..41,
        l0 in 0usize..4,
        q0 in 0usize..4,
        layout in 0usize..3,
        seed in 0u64..1000,
    ) {
        let _guard = THREADS_LOCK.lock().unwrap();
        let (rows, depth) = (l0 + lines, q0 + kc);
        // The same storage read as A's `[rows, depth]` and B's `[depth, rows]`.
        let data = rand_vec(rows * depth * 6, seed);
        let (a, b) = match layout {
            0 => (MatRef::row_major(&data, depth), MatRef::transposed(&data, depth)),
            1 => (MatRef::transposed(&data, rows), MatRef::row_major(&data, rows)),
            _ => (
                MatRef { data: &data, rs: 2 * depth, cs: 2 },
                MatRef { data: &data, rs: 3, cs: 3 * depth },
            ),
        };
        let len = lines.div_ceil(8) * 8 * kc;
        for tier in tiers() {
            simd::force_tier(Some(tier));
            let (mut got, mut want) = (vec![f32::NAN; len], vec![f32::NAN; len]);
            pack::pack_a(a, l0, q0, lines, kc, &mut got);
            pack::reference::pack_a(a, l0, q0, lines, kc, &mut want);
            let a_ok = bits(&got) == bits(&want);
            got.fill(f32::NAN);
            want.fill(f32::NAN);
            pack::pack_b(b, q0, l0, kc, lines, &mut got);
            pack::reference::pack_b(b, q0, l0, kc, lines, &mut want);
            let b_ok = bits(&got) == bits(&want);
            simd::force_tier(None);
            prop_assert!(a_ok, "pack_a on {:?}: {} lines, kc {}, layout {}", tier, lines, kc, layout);
            prop_assert!(b_ok, "pack_b on {:?}: {} lines, kc {}, layout {}", tier, lines, kc, layout);
        }
    }
}

/// `gemm_batch` down both routes at pool sizes 1/2/4 on every tier, from a
/// NaN-poisoned output; all must equal the reference walk item by item.
/// Leaves the thread and tier knobs wherever the last iteration put them.
fn batched_routes_agree(
    batch: usize,
    m: usize,
    n: usize,
    k: usize,
    ad: &[f32],
    bd: &[f32],
    shared_b: bool,
) -> Result<(), String> {
    let b = if shared_b {
        BatchMat::shared(MatRef::row_major(bd, n))
    } else {
        BatchMat::row_major(bd, k, n)
    };
    let a = BatchMat::row_major(ad, m, k);
    let mut want = vec![0.0f32; batch * m * n];
    for (bi, item) in want.chunks_mut(m * n).enumerate() {
        gemm::reference::gemm(m, n, k, a.item(bi), b.item(bi), item);
        item.iter_mut().for_each(|v| *v *= 0.5);
    }
    for threads in [1usize, 2, 4] {
        parallel::set_threads(threads);
        for tier in tiers() {
            simd::force_tier(Some(tier));
            for route in [Route::Skinny, Route::Packed] {
                let mut got = vec![f32::NAN; batch * m * n];
                on_route(route, || gemm_batch(batch, m, n, k, a, b, 0.5, &mut got));
                if bits(&got) != bits(&want) {
                    return Err(format!(
                        "{route:?} on {tier:?}, {threads} threads, shared B {shared_b}, \
                         at ({batch},{m},{n},{k})"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// A batch big enough that the pool really splits it (three tasks clear the
/// work gate), with task boundaries inside items: rows of one item computed
/// by different workers must still come out the same on both routes.
#[test]
fn batched_routes_agree_when_the_pool_splits_items() {
    let _guard = THREADS_LOCK.lock().unwrap();
    let (batch, m, n, k) = (24usize, 7usize, 330usize, 260usize);
    let ad = rand_vec(batch * m * k, 21);
    for shared_b in [false, true] {
        let bd = rand_vec(batch * k * n, 22);
        let check = batched_routes_agree(batch, m, n, k, &ad, &bd, shared_b);
        parallel::set_threads(0);
        simd::force_tier(None);
        check.unwrap();
    }
}

// ---------------------------------------------------------------------------
// Convolution without the column matrix
// ---------------------------------------------------------------------------

use amalgam_tensor::kernels::{self, Conv2dGeom};

/// What the column-free kernels must reproduce bit for bit: the naive im2col
/// matrix, `gemm` (its own route for the shape) and the permutes around it.
/// Returns `(forward [N, oc, oh, ow], dW [oc, taps])`.
fn conv_by_columns(x: &Tensor, w: &[f32], grad: &[f32], g: &Conv2dGeom) -> (Vec<f32>, Vec<f32>) {
    let (n, taps, ohw) = (x.dims()[0], g.col_rows(), g.out_h() * g.out_w());
    let oc = w.len() / taps;
    let cols = kernels::reference::im2col(x, g);
    let mut ymat = vec![0.0f32; oc * n * ohw];
    gemm::gemm(
        oc,
        n * ohw,
        taps,
        MatRef::row_major(w, taps),
        MatRef::row_major(cols.data(), n * ohw),
        &mut ymat,
    );
    let (mut out, mut gmat) = (vec![0.0f32; n * oc * ohw], vec![0.0f32; oc * n * ohw]);
    for ni in 0..n {
        for o in 0..oc {
            let (image, matrix) = ((ni * oc + o) * ohw, o * n * ohw + ni * ohw);
            out[image..image + ohw].copy_from_slice(&ymat[matrix..matrix + ohw]);
            gmat[matrix..matrix + ohw].copy_from_slice(&grad[image..image + ohw]);
        }
    }
    let mut dw = vec![0.0f32; oc * taps];
    gemm::gemm(
        oc,
        taps,
        n * ohw,
        MatRef::row_major(&gmat, n * ohw),
        MatRef::transposed(cols.data(), n * ohw),
        &mut dw,
    );
    (out, dw)
}

/// [`windowed_conv_agrees_at`] at pool sizes 1/2/4 — on one more image and
/// one more filter too, so the window the layer would keep sees its batch
/// and its filter count change and come back.
fn windowed_conv_agrees(n: usize, oc: usize, g: &Conv2dGeom, seed: u64) -> Result<(), String> {
    let batches = [(n, oc), (n + 1, oc), (n, oc + 1), (n, oc)];
    windowed_conv_agrees_at(&[1, 2, 4], &batches, g, seed)
}

/// The windowed forward and weight-gradient kernels against
/// [`conv_by_columns`] at the given pool sizes on every tier, from
/// NaN-poisoned outputs: one [`ConvWindow`](kernels::ConvWindow), kept as a
/// layer keeps it, through every `(images, filters)` of `batches` in turn.
/// Leaves the thread and tier knobs wherever the last iteration put them.
fn windowed_conv_agrees_at(
    pools: &[usize],
    batches: &[(usize, usize)],
    g: &Conv2dGeom,
    seed: u64,
) -> Result<(), String> {
    let mut window = kernels::ConvWindow::new(g);
    for &(n, oc) in batches {
        let x = Tensor::from_vec(
            rand_vec(n * g.in_channels * g.in_h * g.in_w, seed),
            &[n, g.in_channels, g.in_h, g.in_w],
        );
        let w = rand_vec(oc * g.col_rows(), seed ^ 0x9e37);
        let grad = rand_vec(n * oc * g.out_h() * g.out_w(), seed ^ 0x51ed);
        let (want_out, want_dw) = conv_by_columns(&x, &w, &grad, g);
        for &threads in pools {
            parallel::set_threads(threads);
            for tier in tiers() {
                simd::force_tier(Some(tier));
                let planes = kernels::padded_planes(&x, g, None);
                let mut out = vec![f32::NAN; want_out.len()];
                window.forward(&planes, &w, &mut out);
                let mut dw = vec![f32::NAN; want_dw.len()];
                window.dw(&planes, &grad, &mut dw);
                for (what, got, want) in [("forward", &out, &want_out), ("dW", &dw, &want_dw)] {
                    if bits(got) != bits(want) {
                        return Err(format!(
                            "{what} on {tier:?}, {threads} threads: {n} images, {oc} filters, {g:?}"
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

/// Widths around the 16-column tile and its masked remainders.
const RAGGED_W: &[usize] = &[3, 5, 7, 8, 9, 15, 16, 17, 20, 24, 33];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Reading im2col rows as windows of the padded planes changes no bit of
    /// the forward product or of the weight gradient: 1–3 channels, 1×1 to
    /// 5×5 kernels (even ones too), padding 0–2, ragged widths, 1–10 filters
    /// (two passes of the 6-row tile), shapes on both sides of the
    /// direct-loop rule.
    #[test]
    fn windowed_convolution_is_bitwise_im2col_plus_gemm(
        n in 1usize..4,
        in_channels in 1usize..4,
        kernel in 1usize..6,
        padding in 0usize..3,
        in_h in 5usize..12,
        wi in 0usize..RAGGED_W.len(),
        oc in 1usize..10,
        seed in 0u64..1000,
    ) {
        let _guard = THREADS_LOCK.lock().unwrap();
        let in_w = RAGGED_W[wi].max(kernel.saturating_sub(2 * padding));
        let g = Conv2dGeom { in_channels, in_h, in_w, kernel, stride: 1, padding };
        let check = windowed_conv_agrees(n, oc, &g, seed);
        parallel::set_threads(0);
        simd::force_tier(None);
        prop_assert!(check.is_ok(), "{}", check.unwrap_err());
    }

    /// `gemm_nt_images` is `gemm` on the matrices whose rows string the
    /// images together — through the direct loop and through the packed walk
    /// (runs shorter than, equal to and longer than a K block), from an
    /// output that already holds something, on every tier.
    #[test]
    fn image_split_product_is_bitwise_the_joined_product(
        m in 1usize..20,
        n in 1usize..20,
        images in 1usize..5,
        li in 0usize..5,
        seed in 0u64..1000,
    ) {
        let _guard = THREADS_LOCK.lock().unwrap();
        let len = [1usize, 7, 64, 256, 300][li];
        let k = images * len;
        let a = rand_vec(images * m * len, seed);
        let b = rand_vec(images * n * len, seed ^ 0x2545);
        let c0 = rand_vec(m * n, seed ^ 0x51ed);
        // Row `r` of the joined matrix: row `r` of every image, in order.
        let join = |data: &[f32], rows: usize| -> Vec<f32> {
            let mut joined = Vec::with_capacity(data.len());
            for r in 0..rows {
                for image in 0..images {
                    joined.extend_from_slice(&data[(image * rows + r) * len..][..len]);
                }
            }
            joined
        };
        let (aj, bj) = (join(&a, m), join(&b, n));
        for tier in tiers() {
            simd::force_tier(Some(tier));
            let mut want = c0.clone();
            gemm::gemm(m, n, k, MatRef::row_major(&aj, k), MatRef::transposed(&bj, k), &mut want);
            let mut got = c0.clone();
            gemm::gemm_nt_images(m, n, images, len, &a, &b, &mut got);
            simd::force_tier(None);
            prop_assert_eq!(bits(&got), bits(&want), "{:?} at ({},{},{}x{})", tier, m, n, images, len);
        }
    }
}

/// Tap counts on both sides of a K block — through the blocked kernel and,
/// for a product small enough, through the direct loop's single chain — and
/// a batch the pool really splits across images.
#[test]
fn windowed_convolution_agrees_across_k_blocks_and_pool_splits() {
    let _guard = THREADS_LOCK.lock().unwrap();
    let geom = |in_channels, in_h, in_w, kernel, padding| Conv2dGeom {
        in_channels,
        in_h,
        in_w,
        kernel,
        stride: 1,
        padding,
    };
    let cases = [
        (2usize, 7usize, geom(11, 9, 10, 5, 2)), // 275 taps, blocked
        (1, 1, geom(30, 4, 4, 3, 1)),            // 270 taps, direct loop
        (3, 6, geom(29, 6, 7, 3, 0)),            // 261 taps, no padding
        (24, 6, geom(1, 64, 64, 5, 2)),          // three pool tasks of 7+ images
    ];
    for (n, oc, g) in cases {
        let check = windowed_conv_agrees(n, oc, &g, 77);
        parallel::set_threads(0);
        simd::force_tier(None);
        check.unwrap();
    }
}

/// Every way an output row can end, a filter block can be cut and the
/// weight gradient's lanes can be filled: output widths 1..=40 (whole
/// vectors and every masked remainder), 1..=18 filters (up to three passes
/// of the 6-row tile), and kernels whose rows tile the 16 lanes in every way
/// the AVX2 lane kernel is specialised for — per 8-lane vector two windows
/// (4×4 and 5×5 rows, a lone channel of 1×1 or 2×2), four (3×3 rows, 2×2 rows
/// of two and five channels) and eight (a padded 1×1 of 6, 16 and 17
/// channels: one lane a window), each on one vector and on two — on every
/// tier.
#[test]
fn windowed_convolution_agrees_at_every_width_kernel_and_filter_count() {
    let _guard = THREADS_LOCK.lock().unwrap();
    for (kernel, padding) in [(1usize, 1usize), (2, 1), (3, 1), (4, 2), (5, 2)] {
        for ow in 1usize..=40 {
            let Some(in_w) = (ow + kernel - 1)
                .checked_sub(2 * padding)
                .filter(|&w| w > 0)
            else {
                continue;
            };
            for oc in 1usize..=18 {
                let in_channels = match kernel {
                    1 => [1, 6, 16, 17][oc % 4],
                    2 => [1, 2, 5][oc % 3],
                    _ => 1 + oc % 2,
                };
                let g = Conv2dGeom {
                    in_channels,
                    in_h: 3,
                    in_w,
                    kernel,
                    stride: 1,
                    padding,
                };
                assert_eq!(g.out_w(), ow);
                let seed = (ow * 31 + oc) as u64;
                let check = windowed_conv_agrees_at(&[1], &[(2, oc)], &g, seed);
                parallel::set_threads(0);
                simd::force_tier(None);
                check.unwrap();
            }
        }
    }
}

/// `padded_planes` through a `keep` list is the gather followed by the plain
/// padding, and never reads or writes outside what it was given.
#[test]
fn padded_planes_gather_in_place() {
    let g = Conv2dGeom {
        in_channels: 2,
        in_h: 3,
        in_w: 4,
        kernel: 5,
        stride: 1,
        padding: 2,
    };
    let x = Tensor::from_vec(rand_vec(3 * 2 * 30, 5), &[3, 2, 5, 6]);
    let keep: Vec<usize> = (0..12).map(|i| (i * 7 + 3) % 30).collect();
    let gathered: Vec<f32> = x
        .data()
        .chunks_exact(30)
        .flat_map(|plane| keep.iter().map(|&pos| plane[pos]))
        .collect();
    let gathered = Tensor::from_vec(gathered, &[3, 2, 3, 4]);
    let want = kernels::padded_planes(&gathered, &g, None);
    let got = kernels::padded_planes(&x, &g, Some(&keep));
    assert_eq!(got.dims(), &[3, 2, 7, 8]);
    assert_eq!(bits(got.data()), bits(want.data()));
    // The border is zero, the interior is the image.
    assert_eq!(want.at(&[1, 1, 2, 2]), gathered.at(&[1, 1, 0, 0]));
    assert!(want
        .data()
        .chunks_exact(8)
        .step_by(7)
        .all(|row| row.iter().all(|&v| v == 0.0)));
}
