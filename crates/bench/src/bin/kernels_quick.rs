//! Quick kernel-regression smoke: times the blocked GEMM against the seed's
//! naive `ikj` kernel, compares the micro-kernel dispatch tiers, times the
//! no-pack route and the block-moving packers against the packed walk with
//! element-wise packs, the batched attention-shaped products against the
//! serial per-head loop, the im2col/col2im slice kernels against their
//! naive definitions, the column-free convolutions against im2col + GEMM +
//! permute and a fused segment against its layers, counts the bytes one augmented LeNet-5 training step allocates,
//! and emits a `BENCH_kernels.json` baseline. Every GEMM
//! entry carries its `gflops` next to `peak_gflops`, what a register-only
//! loop of unfused multiply-adds reaches on this core — the roofline the
//! kernels are read against; the file opens with the machine it came from.
//!
//! ```text
//! kernels-quick [--out DIR] [--check]
//! kernels-quick --profile <lenet20|lm16> [--check]
//! ```
//!
//! `--profile` prints the per-node table of one training step instead (see
//! [`amalgam_bench::profile`]): forward + backward µs per layer kind and
//! shape, the plain model beside the augmented one, a fused segment as one
//! row; with `--check` it fails unless the rows account for 95 % of the step.
//!
//! `--check` turns the run into a pass/fail gate (used by CI): it fails if
//! the blocked GEMM is not clearly faster than the `ikj` reference on the
//! 256³ shape, if the small-shape fast path regresses, if any variant
//! diverges from the reference numerically, if the SIMD micro-kernel is not
//! *bitwise* identical to the portable one, if the batched GEMM is not
//! bitwise identical to the serial per-head loop, if batching fails to
//! beat the serial loop on a machine with ≥ 4 hardware threads (on a smaller
//! one that gate is reported as skipped, not passed), if the conv glue
//! kernels differ from the naive definitions by one bit or are not ≥ 2x
//! faster than them at LeNet's shapes, if the no-pack route or the block
//! packers differ from the element-wise packed walk by one bit or are not
//! ≥ 1.5x faster than it at LeNet's entry-convolution shapes, if a
//! column-free convolution (5×5 entry layer, 1×1 tap) differs from its
//! column-matrix lowering by one bit or is not ≥ 1.3x faster than it, if the
//! entry layer's windowed weight gradient (`conv_entry_dw_*`) differs from
//! that lowering's GEMM by one bit or is not ≥ 1.25x faster than it, if the
//! executor's fused entry chain (`segment_bn_relu_add_pool_*`) differs from
//! its four layers run one by one by one bit or is not ≥ 1.3x faster than
//! them (alternating burst pairs, at their upper quartile), if an
//! augmented training step allocates more than
//! [`STEP_BYTES_GATE`] of what it did before activations were shared, if a
//! batch of the LM job's
//! per-head products (`attn_heads_batch_*`: 16 items of T×T×16 in attention's
//! NN, NT and TN layouts) differs from the direct loop item by item by one
//! bit or is not ≥ 2.5x faster than it, or if the in-tree `exp` over the LM
//! head's rows (`exp_rows_120x200`) differs between tiers, strays more than
//! 2 ulp from the true value or is not ≥ 1.5x faster than libm's `expf`.

use amalgam_bench::{
    attention_pv_serial_per_head, attention_qk_serial_per_head, matmul_ikj_reference as matmul_ikj,
    profile,
};
use amalgam_core::{Amalgam, ObfuscationConfig};
use amalgam_data::SyntheticImageSpec;
use amalgam_nn::loss::cross_entropy;
use amalgam_nn::optim::Sgd;
use amalgam_nn::Mode;
use amalgam_tensor::gemm::{self, KC};
use amalgam_tensor::kernels::{self, matmul_batch_nt_scaled_into, reference, Conv2dGeom};
use amalgam_tensor::pack::{self, MatRef};
use amalgam_tensor::simd::{self, Tier};
use amalgam_tensor::tensor::exp_row_in_place;
use amalgam_tensor::{parallel, scratch, Rng, Tensor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Bytes requested from the allocator so far (`alloc`, `alloc_zeroed`, and
/// the new size of every `realloc`): what `graph_step_copies_lenet20` reads
/// before and after a training step.
static ALLOCATED_BYTES: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, counting.
struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a relaxed statistic.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: the caller's contract is `System.alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract is `System.dealloc`'s.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED_BYTES.fetch_add(new_size, Ordering::Relaxed);
        // SAFETY: the caller's contract is `System.realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Bytes one training step of the augmented 20 px LeNet-5 (batch 16, two
/// synthetic sub-networks, both taps) allocated at 19477e7, the commit
/// before activations were shared: every `Detach`, `Flatten`, activation
/// cache and `Add` was a copy, and three entry layers cached 640 KB of
/// columns each.
const STEP_BYTES_BEFORE: f64 = 4.75e6;
/// The share of [`STEP_BYTES_BEFORE`] a step may still allocate. What is
/// left is forward outputs nobody caches (the executor drops them; only a
/// buffer plan per graph would recycle those — ROADMAP 1a), which is a little
/// over half of what there was.
const STEP_BYTES_GATE: f64 = 0.55;

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

/// Independent accumulator chains of the peak loop: with the two operands,
/// all that fit AVX2's sixteen vector registers.
const PEAK_CHAINS: usize = 14;

/// Runs `steps` rounds of `acc = acc · a + b` on [`PEAK_CHAINS`] vector
/// accumulators that never leave the registers — the multiply feeds the add,
/// so neither can be hoisted, and they are separate instructions, as in every
/// GEMM kernel — and returns `(lanes per vector, a value keeping it alive)`.
/// `None` where this file has no intrinsic loop for the CPU.
#[cfg(target_arch = "x86_64")]
fn peak_chains(steps: usize) -> Option<(usize, f32)> {
    use std::arch::x86_64::*;

    #[target_feature(enable = "avx2")]
    unsafe fn run(steps: usize, a: f32, b: f32) -> f32 {
        let (a, b) = (_mm256_set1_ps(a), _mm256_set1_ps(b));
        let mut acc = [_mm256_set1_ps(1.0); PEAK_CHAINS];
        for _ in 0..steps {
            for x in &mut acc {
                *x = _mm256_add_ps(_mm256_mul_ps(*x, a), b);
            }
        }
        let mut total = acc[0];
        for &x in &acc[1..] {
            total = _mm256_add_ps(total, x);
        }
        _mm_cvtss_f32(_mm256_castps256_ps128(total))
    }

    if !is_x86_feature_detected!("avx2") {
        return None;
    }
    // SAFETY: AVX2 was detected on the line above; `run` touches no memory.
    Some((8, unsafe {
        run(steps, black_box(0.999_999), black_box(1e-3))
    }))
}

/// See the x86_64 twin.
#[cfg(target_arch = "aarch64")]
fn peak_chains(steps: usize) -> Option<(usize, f32)> {
    use std::arch::aarch64::*;

    #[target_feature(enable = "neon")]
    unsafe fn run(steps: usize, a: f32, b: f32) -> f32 {
        let (a, b) = (vdupq_n_f32(a), vdupq_n_f32(b));
        let mut acc = [vdupq_n_f32(1.0); PEAK_CHAINS];
        for _ in 0..steps {
            for x in &mut acc {
                *x = vaddq_f32(vmulq_f32(*x, a), b);
            }
        }
        let mut total = acc[0];
        for &x in &acc[1..] {
            total = vaddq_f32(total, x);
        }
        vgetq_lane_f32::<0>(total)
    }

    // SAFETY: NEON is baseline on aarch64; `run` touches no memory.
    Some((4, unsafe {
        run(steps, black_box(0.999_999), black_box(1e-3))
    }))
}

/// See the x86_64 twin.
#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
fn peak_chains(_steps: usize) -> Option<(usize, f32)> {
    None
}

/// What one core reaches on unfused multiply-adds that never leave the
/// registers, in GFLOP/s: the ceiling every GEMM entry's `gflops` is read
/// against.
fn peak_unfused_gflops() -> Option<f64> {
    const STEPS: usize = 200_000;
    let lanes = peak_chains(1)?.0;
    let ms = time_ms(5, || peak_chains(STEPS).map_or(0.0, |(_, sink)| sink));
    Some((2 * PEAK_CHAINS * lanes * STEPS) as f64 / (ms * 1e6))
}

/// One JSON object of the report; values are stored already rendered.
struct Entry {
    name: String,
    fields: Vec<(&'static str, String)>,
}

impl Entry {
    fn new(name: impl Into<String>) -> Entry {
        Entry {
            name: name.into(),
            fields: Vec::new(),
        }
    }

    fn num(mut self, key: &'static str, value: f64) -> Entry {
        self.fields.push((key, format!("{value:.4}")));
        self
    }

    fn text(mut self, key: &'static str, value: &str) -> Entry {
        self.fields.push((key, format!("\"{value}\"")));
        self
    }

    fn flag(mut self, key: &'static str, value: bool) -> Entry {
        self.fields.push((key, value.to_string()));
        self
    }

    /// The roofline pair of a GEMM entry: what `mnk` multiply-adds in `ms`
    /// come to, next to the core's measured ceiling (where one was measured).
    fn gflops(self, mnk: usize, ms: f64, peak: Option<f64>) -> Entry {
        let entry = self.num("gflops", 2.0 * mnk as f64 / (ms * 1e6));
        match peak {
            Some(peak) => entry.num("peak_gflops", peak),
            None => entry,
        }
    }
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// `--profile`: the per-node table of `job`'s training step, on a worker
/// thread's stack like the service's trainer. Returns whether the rows
/// reconcile with the step on both sides.
fn print_profile(job: &str) -> bool {
    let (mut plain, mut augmented) = match job {
        "lenet20" => profile::lenet20(),
        "lm16" => profile::lm16(),
        other => panic!("unknown profile {other} (lenet20 or lm16)"),
    };
    parallel::set_threads(1);
    let [plain, augmented] = profile::measure([&mut plain, &mut augmented]);
    print!("{}", profile::table(&plain, &augmented));
    let mut reconciled = true;
    for (name, side) in [("plain", &plain), ("augmented", &augmented)] {
        let share = 1.0 - side.executor_us() / side.step_us;
        println!(
            "{name}: layers + loss + optimizer are {:.1} % of the step",
            share * 100.0
        );
        reconciled &= share >= profile::RECONCILE;
    }
    reconciled
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_dir = String::from(".");
    let mut check = false;
    let mut profiled = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out_dir = it.next().expect("--out requires a directory").clone(),
            "--check" => check = true,
            "--profile" => profiled = Some(it.next().expect("--profile requires a job").clone()),
            other => panic!(
                "unknown option {other} (usage: kernels-quick [--out DIR] [--check] | \
                 --profile <lenet20|lm16> [--check])"
            ),
        }
    }
    if let Some(job) = profiled {
        let reconciled = print_profile(&job);
        if check && !reconciled {
            eprintln!("FAIL: the rows account for less than 95 % of a step");
            std::process::exit(1);
        }
        return;
    }

    // Single-threaded: the per-kernel criteria are per-core speedups, and
    // CI runners have unpredictable core counts.
    parallel::set_threads(1);
    let mut rng = Rng::seed_from(42);
    let hw_threads = std::thread::available_parallelism()
        .map(std::num::NonZero::get)
        .unwrap_or(1);
    let peak = peak_unfused_gflops();

    let mut entries = vec![Entry::new("machine")
        .num("hw_threads", hw_threads as f64)
        .text(
            "kernel_tier",
            &format!("{:?}", simd::active_tier()).to_lowercase(),
        )];
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
    let cube = 256 * 256 * 256;
    entries.push(
        Entry::new("matmul_256")
            .num("ikj_ms", ikj_ms)
            .num("gemm_ms", gemm_ms)
            .num("speedup", speedup)
            .gflops(cube, gemm_ms, peak),
    );
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
        entries.push(
            Entry::new("microkernel_256")
                .num("portable_ms", portable_ms)
                .num("simd_ms", simd_ms)
                .num("speedup", portable_ms / simd_ms)
                .gflops(cube, simd_ms, peak),
        );
    } else {
        entries.push(
            Entry::new("microkernel_256")
                .num("portable_ms", portable_ms)
                .gflops(cube, portable_ms, peak),
        );
    }

    // 32³ — must not regress (this shape skips packing and the pool).
    let a32 = Tensor::randn(&[32, 32], &mut rng);
    let b32 = Tensor::randn(&[32, 32], &mut rng);
    let ikj32 = time_ms(200, || matmul_ikj(&a32, &b32).data()[0]);
    let gemm32 = time_ms(200, || kernels::matmul(&a32, &b32).data()[0]);
    entries.push(
        Entry::new("matmul_32")
            .num("ikj_ms", ikj32)
            .num("gemm_ms", gemm32)
            .num("speedup", ikj32 / gemm32)
            .gflops(32 * 32 * 32, gemm32, peak),
    );
    // Loose bound (parity locally): only a gross regression — e.g. the small
    // path accidentally routing through packing or the pool — trips it.
    if gemm32 > ikj32 * 2.5 {
        failures.push(format!(
            "small-shape path regressed: {gemm32:.4} ms vs ikj {ikj32:.4} ms at 32³"
        ));
    }

    // Transposed variants at 256³ (correctness + timing only).
    let t_tn = time_ms(5, || kernels::matmul_tn(&a, &b).data()[0]);
    entries.push(
        Entry::new("matmul_tn_256")
            .num("gemm_ms", t_tn)
            .gflops(cube, t_tn, peak),
    );
    let t_nt = time_ms(5, || kernels::matmul_nt(&a, &b).data()[0]);
    entries.push(
        Entry::new("matmul_nt_256")
            .num("gemm_ms", t_nt)
            .gflops(cube, t_nt, peak),
    );

    // Conv-shaped skinny product: [64, 576] @ [576, 3136]
    // (an 8-image 32×32 conv layer with 64 output channels).
    let wmat = Tensor::randn(&[64, 576], &mut rng);
    let cols = Tensor::randn(&[576, 3136], &mut rng);
    let conv_ikj = time_ms(5, || matmul_ikj(&wmat, &cols).data()[0]);
    let conv_gemm = time_ms(5, || kernels::matmul(&wmat, &cols).data()[0]);
    entries.push(
        Entry::new("matmul_conv_64x576x3136")
            .num("ikj_ms", conv_ikj)
            .num("gemm_ms", conv_gemm)
            .num("speedup", conv_ikj / conv_gemm)
            .gflops(64 * 576 * 3136, conv_gemm, peak),
    );

    // LeNet's 6-filter entry convolution on a batch of 16 at 20 px, as the
    // GEMM sees it. Forward `[6×25]·[25×6400]` takes the no-pack route;
    // the weight gradient `[6×6400]·[25×6400]ᵀ` stays on the packed walk
    // (B's rows are strided) and lives off the block-moving packers. Both
    // against the packed walk with element-wise packs, which is how every
    // shape ran before: same bits required, and ≥ 1.5x.
    let wmat = Tensor::randn(&[6, 25], &mut rng);
    let cols = Tensor::randn(&[25, 6400], &mut rng);
    let gmat = Tensor::randn(&[6, 6400], &mut rng);
    type Operands<'a> = (usize, usize, usize, MatRef<'a>, MatRef<'a>);
    let skinny_cases: [(&'static str, Operands); 2] = [
        (
            "gemm_skinny_fwd_6x25x6400",
            (
                6,
                6400,
                25,
                MatRef::row_major(wmat.data(), 25),
                MatRef::row_major(cols.data(), 6400),
            ),
        ),
        (
            "gemm_skinny_dw_6x6400x25",
            (
                6,
                25,
                6400,
                MatRef::row_major(gmat.data(), 6400),
                MatRef::transposed(cols.data(), 6400),
            ),
        ),
    ];
    for (name, (m, n, k, a, b)) in skinny_cases {
        let mut want = vec![0.0f32; m * n];
        gemm::reference::gemm(m, n, k, a, b, &mut want);
        let mut got = vec![0.0f32; m * n];
        gemm::gemm(m, n, k, a, b, &mut got);
        let bitwise = same_bits(&got, &want);
        let packed_ms = time_ms(50, || {
            want.fill(0.0);
            gemm::reference::gemm(m, n, k, a, b, &mut want);
            want[0]
        });
        let gemm_ms = time_ms(50, || {
            got.fill(0.0);
            gemm::gemm(m, n, k, a, b, &mut got);
            got[0]
        });
        let speedup = packed_ms / gemm_ms;
        entries.push(
            Entry::new(name)
                .text(
                    "route",
                    &format!("{:?}", gemm::route(m, n, k, b.cs)).to_lowercase(),
                )
                .num("packed_elementwise_ms", packed_ms)
                .num("gemm_ms", gemm_ms)
                .num("speedup", speedup)
                .flag("bitwise", bitwise)
                .gflops(m * n * k, gemm_ms, peak),
        );
        if !bitwise {
            failures.push(format!("{name}: differs from the element-wise packed walk"));
        }
        if speedup < 1.5 {
            failures.push(format!(
                "{name}: only {speedup:.2}x over the element-wise packed walk (want ≥ 1.5x)"
            ));
        }
    }

    // The block-moving packer on a transposed source: one K block of conv2's
    // weight-gradient B operand, `colsᵀ` of `[150, 1600]` — 150 columns, each
    // contiguous along K, against one strided gather per element.
    let cols2 = Tensor::randn(&[150, 1600], &mut rng);
    let colst = MatRef::transposed(cols2.data(), 1600);
    let mut panel = vec![f32::NAN; 150usize.div_ceil(8) * 8 * KC];
    let mut want_panel = panel.clone();
    pack::pack_b(colst, KC, 0, KC, 150, &mut panel);
    pack::reference::pack_b(colst, KC, 0, KC, 150, &mut want_panel);
    let bitwise = same_bits(&panel, &want_panel);
    let elementwise_ms = time_ms(200, || {
        pack::reference::pack_b(colst, KC, 0, KC, 150, &mut want_panel);
        want_panel[0]
    });
    let block_ms = time_ms(200, || {
        pack::pack_b(colst, KC, 0, KC, 150, &mut panel);
        panel[0]
    });
    let pack_speedup = elementwise_ms / block_ms;
    entries.push(
        Entry::new("pack_transposed_256x150")
            .num("elementwise_ms", elementwise_ms)
            .num("block_ms", block_ms)
            .num("speedup", pack_speedup)
            .flag("bitwise", bitwise),
    );
    if !bitwise {
        failures.push("block-moving pack_b differs from its element-wise definition".to_string());
    }
    if pack_speedup < 1.5 {
        failures.push(format!(
            "block-moving pack_b only {pack_speedup:.2}x over the element-wise gather on a \
             transposed 256×150 block (want ≥ 1.5x)"
        ));
    }

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
        if !same_bits(folded.data(), reference::col2im(&dcols, &geom, n).data()) {
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
    entries.push(
        Entry::new("conv_glue")
            .num("naive_ms", naive_ms)
            .num("slice_ms", slice_ms)
            .num("speedup", glue_speedup),
    );
    if glue_speedup < 2.0 {
        failures.push(format!(
            "im2col + col2im slice kernels only {glue_speedup:.2}x faster than the naive loops at \
             LeNet's conv shapes (want ≥ 2x)"
        ));
    }

    // The column-free convolutions at the two layers the augmenter adds most
    // of: the 5×5 one-channel entry layer and the 1×1 six-channel tap, batch
    // 16 at 20 px, forward. Baseline: the column matrix, one GEMM, the
    // permute to `[N, oc, oh·ow]` — how both ran before. Same bits required,
    // and ≥ 1.3x.
    let n = 16;
    for (name, channels, kernel, padding) in [
        ("conv_entry_fwd_16x1x20x20_k5", 1usize, 5usize, 2usize),
        ("conv_1x1_fwd_16x6x20x20", 6, 1, 0),
    ] {
        let geom = Conv2dGeom {
            in_channels: channels,
            in_h: 20,
            in_w: 20,
            kernel,
            stride: 1,
            padding,
        };
        let (oc, taps, ohw) = (6usize, geom.col_rows(), 400usize);
        let x = Tensor::randn(&[n, channels, 20, 20], &mut rng);
        let w = Tensor::randn(&[oc, taps], &mut rng);
        let by_columns = |out: &mut Tensor| {
            let mut cols = scratch::take_tensor_raw(&[taps, n * ohw]);
            kernels::im2col_into(&x, &geom, &mut cols);
            let mut ymat = scratch::take_tensor(&[oc, n * ohw]);
            gemm::gemm(
                oc,
                n * ohw,
                taps,
                MatRef::row_major(w.data(), taps),
                MatRef::row_major(cols.data(), n * ohw),
                ymat.data_mut(),
            );
            for (block, dst) in out.data_mut().chunks_exact_mut(ohw).enumerate() {
                let (ni, o) = (block / oc, block % oc);
                dst.copy_from_slice(&ymat.data()[o * n * ohw + ni * ohw..][..ohw]);
            }
            scratch::give_tensor(ymat);
            scratch::give_tensor(cols);
        };
        // As the layer runs it: the geometry's tables are built once.
        let window = kernels::ConvWindow::new(&geom);
        let column_free = |out: &mut Tensor| {
            if kernel == 1 {
                // Unpadded, the input is its own planes.
                window.forward(&x, w.data(), out.data_mut());
            } else {
                let planes = kernels::padded_planes(&x, &geom, None);
                window.forward(&planes, w.data(), out.data_mut());
                scratch::give_tensor(planes);
            }
        };
        let dims = [n, oc, 20, 20];
        let (mut want, mut got) = (Tensor::full(&dims, f32::NAN), Tensor::full(&dims, f32::NAN));
        by_columns(&mut want);
        column_free(&mut got);
        let bitwise = same_bits(got.data(), want.data());
        let columns_ms = time_staged_ms(200, &dims, by_columns);
        let column_free_ms = time_staged_ms(200, &dims, column_free);
        let speedup = columns_ms / column_free_ms;
        entries.push(
            Entry::new(name)
                .num("im2col_gemm_permute_ms", columns_ms)
                .num("column_free_ms", column_free_ms)
                .num("speedup", speedup)
                .flag("bitwise", bitwise)
                .gflops(oc * taps * n * ohw, column_free_ms, peak),
        );
        if !bitwise {
            failures.push(format!("{name}: differs from im2col + GEMM + permute"));
        }
        if speedup < 1.3 {
            failures.push(format!(
                "{name}: only {speedup:.2}x over im2col + GEMM + permute (want ≥ 1.3x)"
            ));
        }
    }

    // The entry layer's weight gradient, `[6 × 25] = g · im2colᵀ` over 16
    // images of 20 × 20 positions: the windowed kernel on the padded planes
    // its forward pass kept, against the column lowering's gradient matrix
    // (`[N, oc, ·] → [oc, N·]`) and one GEMM on the columns its forward pass
    // would have kept. Same bits required, and ≥ 1.25x.
    {
        let geom = Conv2dGeom {
            in_channels: 1,
            in_h: 20,
            in_w: 20,
            kernel: 5,
            stride: 1,
            padding: 2,
        };
        let (n, oc, taps, ohw) = (16usize, 6usize, 25usize, 400usize);
        let x = Tensor::randn(&[n, 1, 20, 20], &mut rng);
        let grad = Tensor::randn(&[n, oc, 20, 20], &mut rng);
        let cols = kernels::im2col(&x, &geom);
        let planes = kernels::padded_planes(&x, &geom, None);
        let by_columns = |dw: &mut Tensor| {
            let mut gmat = scratch::take_tensor_raw(&[oc, n * ohw]);
            for (block, src) in grad.data().chunks_exact(ohw).enumerate() {
                let (ni, o) = (block / oc, block % oc);
                gmat.data_mut()[o * n * ohw + ni * ohw..][..ohw].copy_from_slice(src);
            }
            kernels::matmul_nt_into(&gmat, &cols, dw);
            scratch::give_tensor(gmat);
        };
        // As the layer runs it: the geometry's tables are built once.
        let mut window = kernels::ConvWindow::new(&geom);
        let mut windowed = |dw: &mut Tensor| window.dw(&planes, grad.data(), dw.data_mut());
        let dims = [oc, taps];
        let (mut want, mut got) = (Tensor::full(&dims, f32::NAN), Tensor::full(&dims, f32::NAN));
        by_columns(&mut want);
        windowed(&mut got);
        let bitwise = same_bits(got.data(), want.data());
        let columns_ms = time_staged_ms(300, &dims, by_columns);
        let windowed_ms = time_staged_ms(300, &dims, &mut windowed);
        let speedup = columns_ms / windowed_ms;
        entries.push(
            Entry::new("conv_entry_dw_6x25_16x20x20")
                .num("unpermute_gemm_ms", columns_ms)
                .num("windowed_ms", windowed_ms)
                .num("speedup", speedup)
                .flag("bitwise", bitwise)
                .gflops(oc * taps * n * ohw, windowed_ms, peak),
        );
        if !bitwise {
            failures.push("conv_entry_dw: differs from the column lowering's GEMM".to_string());
        }
        if speedup < 1.25 {
            failures.push(format!(
                "conv_entry_dw: only {speedup:.2}x over the column lowering's GEMM (want ≥ 1.25x)"
            ));
        }
    }

    // The synthetic sub-networks' entry chain as the executor runs it: one
    // fused segment (`BatchNorm2d → Relu → Add → AvgPool2d` on `[16, 6, 20,
    // 20]`, forward + backward, input and tap gradients demanded) against the
    // four layers run one after the other, both read off the graph's own
    // per-node clocks. Same bits required — outputs and every parameter
    // gradient — and ≥ 1.3x over the alternating burst pairs (at their
    // upper quartile; the median is reported).
    {
        use amalgam_nn::graph::GraphModel;
        use amalgam_nn::layers::{Add, AvgPool2d, BatchNorm2d, Conv2d, Flatten, Relu};
        let mut g = GraphModel::new();
        let x = g.input("x");
        let entry = g.add_layer("entry", Conv2d::new(1, 6, 1, 1, 0, false, &mut rng), &[x]);
        let tap = g.add_layer("tap", Conv2d::new(1, 6, 1, 1, 0, false, &mut rng), &[x]);
        let bn = g.add_layer("bn", BatchNorm2d::new(6), &[entry]);
        let relu = g.add_layer("relu", Relu::new(), &[bn]);
        let add = g.add_layer("add", Add::new(), &[relu, tap]);
        let pool = g.add_layer("pool", AvgPool2d::new(2, 2), &[add]);
        let out = g.add_layer("out", Flatten::new(), &[pool]);
        g.set_output(out);
        let chain = [bn, relu, add, pool];
        let x = Tensor::randn(&[16, 1, 20, 20], &mut rng);
        let seed = Tensor::randn(&[16, 600], &mut rng);
        // One training step, leaving its output and gradients.
        let step = |g: &mut GraphModel| {
            let y = g.forward_one(&x, Mode::Train);
            g.zero_grad();
            g.backward(std::slice::from_ref(&seed));
            y
        };
        let bits = |g: &mut GraphModel| {
            let y = step(g);
            let grads = g.params_mut().into_iter().map(|p| p.grad.clone());
            let tensors: Vec<Tensor> = std::iter::once(y).chain(grads).collect();
            let values = tensors.iter().flat_map(|t| t.data().iter());
            values.map(|v| v.to_bits()).collect::<Vec<u32>>()
        };
        let mut sides = [false, true].map(|fused| {
            let mut g = g.clone();
            g.set_fusion_for_tests(fused);
            (g, Vec::new())
        });
        let [want, got] = [0, 1].map(|side| bits(&mut sides[side].0));
        // The box's speed drifts within a second: the two sides take turns
        // in bursts of a few steps, and each is read at its median burst.
        const BURSTS: usize = 80;
        const BURST_STEPS: usize = 8;
        for burst in 0..BURSTS {
            for side in [burst % 2, 1 - burst % 2] {
                let (g, bursts) = &mut sides[side];
                g.set_profiling(true);
                for _ in 0..BURST_STEPS {
                    black_box(step(g));
                }
                let rows = g.profile().into_iter();
                let spent: f64 = rows
                    .filter(|row| row.nodes.iter().any(|id| chain.contains(id)))
                    .map(|row| (row.forward + row.backward).as_secs_f64())
                    .sum();
                bursts.push(spent * 1e3 / BURST_STEPS as f64);
            }
        }
        // Burst `i` of one side ran next to burst `i` of the other: the ratio
        // of the two is one sample of the speedup, whatever the box was doing.
        let [(_, layers), (_, fused)] = &sides;
        let mut ratios: Vec<f64> = layers.iter().zip(fused).map(|(l, f)| l / f).collect();
        ratios.sort_by(f64::total_cmp);
        let (speedup, speedup_q3) = (ratios[BURSTS / 2], ratios[3 * BURSTS / 4]);
        let [layers_ms, fused_ms] = sides.map(|(_, mut bursts)| {
            bursts.sort_by(f64::total_cmp);
            bursts[BURSTS / 2]
        });
        let bitwise = got == want;
        entries.push(
            Entry::new("segment_bn_relu_add_pool_16x6x20x20")
                .num("layers_ms", layers_ms)
                .num("fused_ms", fused_ms)
                .num("speedup", speedup)
                .num("speedup_q3", speedup_q3)
                .flag("bitwise", bitwise),
        );
        if !bitwise {
            failures.push("fused segment: differs from the layers run one by one".to_string());
        }
        // The gate is 1.3x and the median pair reads 1.33–1.40x with an
        // inter-quartile range of 0.08–0.15: it is the upper quartile that
        // must reach 1.3, so a busy minute does not trip it and a chain that
        // lost its gain (quartiles around 1.0) does.
        if speedup_q3 < 1.3 {
            failures.push(format!(
                "fused segment: only {speedup:.2}x (upper quartile {speedup_q3:.2}x) over the \
                 layers run one by one (want ≥ 1.3x)"
            ));
        }
    }

    // What one training step of the augmented LeNet-5 still allocates: the
    // e2e benchmark's middle job (20 px, batch 16, α = 0.5, two synthetic
    // sub-networks — this seed draws both taps), steady state.
    let step_bytes = {
        let mut job_rng = Rng::seed_from(3);
        let pair = SyntheticImageSpec::mnist_like()
            .with_counts(224, 2)
            .with_hw(20)
            .with_classes(10)
            .generate(&mut job_rng);
        let model = amalgam_models::lenet5(1, 20, 10, &mut job_rng);
        let cfg = ObfuscationConfig::new(0.5).with_seed(3).with_subnets(2);
        let bundle = Amalgam::obfuscate(&model, &pair, &cfg).expect("obfuscation");
        let mut model = bundle.augmented_model;
        let (x, labels) = bundle
            .augmented_train
            .batch_at(&(0..16).collect::<Vec<_>>());
        let mut opt = Sgd::new(0.05).with_momentum(0.9);
        let mut step = || {
            let outs = model.forward(&[&x], Mode::Train);
            let seeds: Vec<Tensor> = outs.iter().map(|o| cross_entropy(o, &labels).1).collect();
            model.zero_grad();
            model.backward(&seeds);
            opt.step(&mut model.params_mut());
        };
        (0..20).for_each(|_| step());
        const STEPS: usize = 10;
        let before = ALLOCATED_BYTES.load(Ordering::Relaxed);
        (0..STEPS).for_each(|_| step());
        (ALLOCATED_BYTES.load(Ordering::Relaxed) - before) as f64 / STEPS as f64
    };
    entries.push(
        Entry::new("graph_step_copies_lenet20")
            .num("bytes_per_step_before", STEP_BYTES_BEFORE)
            .num("bytes_per_step", step_bytes)
            .num("share", step_bytes / STEP_BYTES_BEFORE),
    );
    if step_bytes > STEP_BYTES_GATE * STEP_BYTES_BEFORE {
        failures.push(format!(
            "an augmented LeNet-5 step allocates {:.2} MB, over {STEP_BYTES_GATE} of the {:.2} MB \
             it did with every activation copied",
            step_bytes / 1e6,
            STEP_BYTES_BEFORE / 1e6
        ));
    }

    // The per-head products the LM benchmark job actually runs: 16 items
    // (8 sequences × 2 heads, head width 16) at its three sequence lengths,
    // in attention's three operand layouts — P·V and dS·K (NN), Q·Kᵀ and
    // dO·Vᵀ (NT), Pᵀ·dO and dSᵀ·Q (TN). Every item is below the blocking
    // threshold. Baseline: `gemm` item by item, which runs the direct loop —
    // where `gemm_batch` ran these too before its items moved to the register
    // tile. Same bits required, and ≥ 2.5x.
    for t in [12usize, 16, 20] {
        let (items, dh) = (16usize, 16usize);
        let square = Tensor::randn(&[items, t, t], &mut rng);
        let heads_a = Tensor::randn(&[items, t, dh], &mut rng);
        let heads_b = Tensor::randn(&[items, t, dh], &mut rng);
        type Layout<'a> = (
            &'static str,
            usize,
            usize,
            gemm::BatchMat<'a>,
            gemm::BatchMat<'a>,
        );
        let layouts: [Layout; 3] = [
            (
                "nn",
                dh,
                t,
                gemm::BatchMat::row_major(square.data(), t, t),
                gemm::BatchMat::row_major(heads_b.data(), t, dh),
            ),
            (
                "nt",
                t,
                dh,
                gemm::BatchMat::row_major(heads_a.data(), t, dh),
                gemm::BatchMat::transposed(heads_b.data(), t, dh),
            ),
            (
                "tn",
                dh,
                t,
                gemm::BatchMat::transposed(square.data(), t, t),
                gemm::BatchMat::row_major(heads_b.data(), t, dh),
            ),
        ];
        for (layout, n, k, a, b) in layouts {
            let m = t;
            let name = format!("attn_heads_batch_16x{t}x16_{layout}");
            let alpha = 0.25f32;
            let item_by_item = |out: &mut [f32]| {
                out.fill(0.0);
                for (i, c) in out.chunks_exact_mut(m * n).enumerate() {
                    gemm::gemm(m, n, k, a.item(i), b.item(i), c);
                    c.iter_mut().for_each(|v| *v *= alpha);
                }
            };
            let (mut want, mut got) =
                (vec![f32::NAN; items * m * n], vec![f32::NAN; items * m * n]);
            item_by_item(&mut want);
            gemm::gemm_batch(items, m, n, k, a, b, alpha, &mut got);
            let bitwise = same_bits(&got, &want);
            let direct_ms = time_ms(2000, || {
                item_by_item(&mut want);
                want[0]
            });
            let batch_ms = time_ms(2000, || {
                gemm::gemm_batch(items, m, n, k, a, b, alpha, &mut got);
                got[0]
            });
            let speedup = direct_ms / batch_ms;
            entries.push(
                Entry::new(name.as_str())
                    .num("direct_loop_ms", direct_ms)
                    .num("batch_ms", batch_ms)
                    .num("speedup", speedup)
                    .flag("bitwise", bitwise)
                    .gflops(items * m * n * k, batch_ms, peak),
            );
            if !bitwise {
                failures.push(format!("{name}: differs from the direct loop item by item"));
            }
            if speedup < 2.5 {
                failures.push(format!(
                    "{name}: only {speedup:.2}x over the direct loop item by item (want ≥ 2.5x)"
                ));
            }
        }
    }

    // The exponential pass of the LM head's loss: 120 rows (8 sequences × 15
    // scored positions) of 200 logits, `exp(x − max)` in place plus the row
    // sum. In-tree lane-exact `exp` on the active tier against libm's `expf`
    // in the loop every softmax ran before; the two tiers must agree bit for
    // bit and stay within 2 ulp of the true value.
    {
        let (rows, width) = (120usize, 200usize);
        let logits = Tensor::randn(&[rows, width], &mut rng).scale(3.0);
        let mut work = logits.data().to_vec();
        let in_tree_ms = time_ms(500, || {
            work.copy_from_slice(logits.data());
            work.chunks_mut(width)
                .map(|row| exp_row_in_place(row).1)
                .sum()
        });
        let libm_ms = time_ms(500, || {
            work.copy_from_slice(logits.data());
            work.chunks_mut(width)
                .map(|row| {
                    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                    row.iter_mut()
                        .map(|v| {
                            *v = (*v - max).exp();
                            *v
                        })
                        .sum::<f32>()
                })
                .sum()
        });
        let by_tier = |tier: Tier| {
            simd::force_tier(Some(tier));
            let mut out = logits.data().to_vec();
            for row in out.chunks_mut(width) {
                exp_row_in_place(row);
            }
            simd::force_tier(None);
            out
        };
        let (portable, active) = (by_tier(Tier::Portable), by_tier(simd::active_tier()));
        let lane_exact = same_bits(&portable, &active);
        let max_ulp = logits
            .data()
            .chunks(width)
            .zip(active.chunks(width))
            .flat_map(|(xs, es)| {
                let max = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                xs.iter().zip(es).map(move |(&x, &e)| {
                    let exact = f64::from(x - max).exp();
                    let ulp = f64::from(f32::from_bits((exact as f32).to_bits() + 1))
                        - f64::from(exact as f32);
                    (f64::from(e) - exact).abs() / ulp
                })
            })
            .fold(0.0f64, f64::max);
        let per_elem = 1e6 / (rows * width) as f64;
        let speedup = libm_ms / in_tree_ms;
        entries.push(
            Entry::new("exp_rows_120x200")
                .num("in_tree_ns_per_elem", in_tree_ms * per_elem)
                .num("libm_ns_per_elem", libm_ms * per_elem)
                .num("speedup", speedup)
                .num("max_ulp", max_ulp)
                .flag("lane_exact", lane_exact),
        );
        if !lane_exact {
            failures.push("exp rows: the portable and SIMD lanes differ".to_string());
        }
        if max_ulp > 2.0 {
            failures.push(format!(
                "exp rows: {max_ulp:.2} ulp off the true value (want ≤ 2)"
            ));
        }
        if speedup < 1.5 {
            failures.push(format!(
                "exp rows: in-tree exp only {speedup:.2}x over libm's expf (want ≥ 1.5x)"
            ));
        }
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
    let qk_flop = heads * t * t * dh;
    entries.push(
        Entry::new("attn_qk_batch_64x128x64_1thread")
            .num("serial_ms", qk_serial_1t)
            .num("batch_ms", qk_batch_1t)
            .num("speedup", qk_serial_1t / qk_batch_1t)
            .gflops(qk_flop, qk_batch_1t, peak),
    );

    // The multi-thread comparison the gate is named for: 4 worker
    // threads. On machines with < 4 hardware threads the pool oversubscribes
    // the cores and the speedup collapses towards 1x, so the ≥ 1.5x gate can
    // only be judged where ≥ 4 hardware threads exist; elsewhere it is
    // recorded as skipped (and only a gross regression fails).
    parallel::set_threads(4);
    let qk_serial_4t = time_staged_ms(5, &[heads, t, t], |out| {
        attention_qk_serial_per_head(&qh, &kh, alpha, out);
    });
    let qk_batch_4t = time_staged_ms(5, &[heads, t, t], |out| {
        matmul_batch_nt_scaled_into(&qh, &kh, alpha, out);
    });
    let qk_speedup_4t = qk_serial_4t / qk_batch_4t;
    let gate = match (hw_threads >= 4, qk_speedup_4t >= 1.5) {
        (false, _) => "skipped",
        (true, true) => "passed",
        (true, false) => "failed",
    };
    entries.push(
        Entry::new("attn_qk_batch_64x128x64_4threads")
            .num("serial_ms", qk_serial_4t)
            .num("batch_ms", qk_batch_4t)
            .num("speedup", qk_speedup_4t)
            .text("gate", gate)
            .gflops(qk_flop, qk_batch_4t, peak),
    );

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
    entries.push(
        Entry::new("attn_pv_batch_64x128x64_4threads")
            .num("serial_ms", pv_serial_4t)
            .num("batch_ms", pv_batch_4t)
            .num("speedup", pv_serial_4t / pv_batch_4t)
            .gflops(heads * t * t * dh, pv_batch_4t, peak),
    );

    if gate == "failed" {
        // ≥ 2x locally; CI noise gets headroom down to 1.5x.
        failures.push(format!(
            "batched Q·Kᵀ only {qk_speedup_4t:.2}x over the serial per-head loop on 4 threads \
             (want ≥ 1.5x in CI, ≥ 2x locally)"
        ));
    } else if gate == "skipped" && qk_speedup_4t < 0.6 {
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
            let _ = write!(json, "\"{key}\": {value}");
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
    if gate == "skipped" {
        println!("batched-GEMM ≥ 1.5x gate: SKIPPED ({hw_threads} hw threads, needs 4)");
    }

    if check && !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
}
