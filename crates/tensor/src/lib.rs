//! Dense `f32` tensor library underpinning the Amalgam framework.
//!
//! The paper's prototype builds on PyTorch; this crate is the from-scratch Rust
//! substitute. It provides:
//!
//! * [`Tensor`] — a contiguous, row-major, n-dimensional `f32` array with the
//!   element-wise, reduction, indexing and linear-algebra operations needed to
//!   train convolutional and transformer networks;
//! * [`kernels`] — cache-blocked matmul and im2col convolution
//!   helpers, lowered onto the packed GEMM in [`gemm`];
//! * [`rng`] — seeded random sources with uniform, Gaussian and Laplace
//!   distributions (the paper's three built-in noise kinds);
//! * [`math`] — log-domain combinatorics used for the paper's search-space
//!   numbers (Table 2), which overflow `f64` by hundreds of orders of magnitude;
//! * [`wire`] — a small length-prefixed binary codec used to ship tensors and
//!   model specs across the simulated cloud boundary.
//!
//! # Example
//!
//! ```
//! use amalgam_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c.data(), a.data());
//! ```
//!
//! # Kernel architecture
//!
//! Every matrix product in the workspace — linear layers, im2col
//! convolutions, attention scores — funnels into one BLIS-style blocked GEMM
//! ([`gemm`]). The moving parts:
//!
//! * **Packing** ([`pack`]): operand blocks are copied once into contiguous
//!   micro-panels — A as `MR`-row panels (`buf[p*MR + i]`), B as `NR`-column
//!   panels (`buf[p*NR + j]`), both K-major and zero-padded at ragged edges.
//!   Operands are read through stride views ([`pack::MatRef`]), so the
//!   `Aᵀ`/`Bᵀ` product variants are packing-order choices, not separate
//!   kernels; a source that is contiguous along K moves as 8×8 block
//!   transposes, one that is contiguous across the panel as bulk copies.
//! * **Register tiling**: an `MR × NR = 8 × 8` C tile is accumulated
//!   entirely in registers across the K block by the selected micro-kernel.
//! * **Micro-kernel dispatch** ([`simd`]): the micro-kernel is chosen once
//!   at startup through a function-pointer table — **portable** (scalar tile
//!   loop, always available, the test oracle) or **simd** (hand-written
//!   AVX2 on `x86_64`, selected via `is_x86_feature_detected!`; every other
//!   architecture runs portable). Every tier multiplies then adds without
//!   fusing, in the same `k` order, so all tiers are bitwise identical;
//!   `simd::force_tier` or `AMALGAM_KERNEL_TIER=portable|simd` pins a tier
//!   for debugging and A/B timing.
//! * **Cache blocking**: `KC = 256`, `MC = 128`, `NC = 512` keep one B
//!   micro-panel in L1, the packed A panel in L2 and the packed B panel in
//!   L3 across the macro-kernel sweep.
//! * **Shape routing** — *direct → no-pack → blocked → batched*
//!   ([`gemm::route`], a function of the shape and B's strides only): products
//!   with `m·n·k ≤ 32³` take a direct loop that skips packing; an A of at most
//!   [`gemm::SKINNY_MAX_M`] rows against a B with contiguous rows is computed
//!   by a 6×16 register-tiled kernel that reads B in place — too few rows would
//!   reuse a packed B; larger single products run the blocked path above; every
//!   route accumulates each element in the same order, so they are bitwise
//!   interchangeable; N same-shape independent products go through
//!   [`gemm::gemm_batch`] / `kernels::matmul_batch_*`, which chooses the route
//!   once for the whole batch, packs a shared B operand once, and applies an
//!   optional epilogue scale — this is how attention's per-(batch, head)
//!   products run. Its items below the direct-loop threshold with at least 8
//!   columns run on the no-pack register tile instead, same bits.
//! * **Transcendentals** ([`simd::exp`]): the exponential under every
//!   softmax and cross-entropy is in-tree, built from IEEE multiplies, adds
//!   and integer operations, so a scalar call, the portable 8-lane loop and
//!   the AVX2 lanes agree bit for bit and nothing depends on the host's
//!   libm; [`tensor::exp_row_in_place`] is the one row pass they all share.
//! * **Scratch arena** ([`scratch`]): pack panels, im2col column matrices,
//!   attention staging tensors, norm/activation caches and optimizer
//!   temporaries come from a per-thread free list and are returned after
//!   use, so steady-state training performs no hot-path allocations.
//!
//! Every kernel runs on its caller's thread. Training uses more than one
//! core by running more jobs at once (the cloud service's workers), not by
//! splitting one product.

#![deny(missing_docs)]

pub mod gemm;
pub mod kernels;
pub mod math;
pub mod pack;
pub mod parallel;
pub mod rng;
pub mod scratch;
pub mod shape;
pub mod simd;
pub mod tensor;
pub mod wire;

pub use rng::Rng;
pub use shape::Shape;
pub use tensor::Tensor;

/// Errors produced by tensor construction and wire (de)serialization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// The provided data length does not match the product of the shape dims.
    ShapeMismatch {
        /// Expected number of elements (product of dims).
        expected: usize,
        /// Number of elements actually provided.
        actual: usize,
    },
    /// A wire buffer ended before the declared payload was complete.
    TruncatedWire {
        /// What was being decoded when the buffer ran out.
        context: &'static str,
    },
    /// A wire buffer contained an invalid tag or inconsistent framing.
    MalformedWire {
        /// Human-readable description of the inconsistency.
        context: &'static str,
    },
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::ShapeMismatch { expected, actual } => {
                write!(
                    f,
                    "shape mismatch: expected {expected} elements, got {actual}"
                )
            }
            TensorError::TruncatedWire { context } => {
                write!(f, "wire buffer truncated while decoding {context}")
            }
            TensorError::MalformedWire { context } => {
                write!(f, "malformed wire data: {context}")
            }
        }
    }
}

impl std::error::Error for TensorError {}
