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
//! convolutions, attention scores — funnels into one blocked GEMM
//! ([`gemm`]):
//!
//! ```text
//!           matmul / matmul_tn / matmul_nt / conv-im2col / attention
//!                                │ gemm::route (shape and B's strides only)
//!       m·n·k ≤ 32³ ┌────────────┼──────────────────┐ N same-shape products
//!                   ▼            ▼                   ▼
//!              direct loop   register tile        gemm_batch (one route
//!            (no packing)    on A in place:       for the whole batch,
//!                            B read in place      shared-B packing,
//!                            (m ≤ 18, or a B      the same routes per item,
//!                            block ≤ 32 KiB) or   small items ≥ 8 columns
//!                            packed into 16-col   on the tile)
//!                            panels (the walk)
//!                                │
//!                kernel dispatch table (6×16 tile, windowed and lane tiles,
//!                                │        8×8 block transpose, exp rows)
//!                   ┌────────────┴────────────┐
//!                   ▼                         ▼
//!              portable                   simd (AVX2 on x86_64,
//!            (scalar tile loop,           unfused mul+add, same k
//!             the test oracle;            order)
//!             every other arch)
//! ```
//!
//! * **Register tiling and packing**: one `6 × 16` C tile ([`gemm::MR`] ×
//!   [`gemm::NR`]) is carried in registers across a K block and added onto
//!   C in place. It reads A through any stride view ([`pack::MatRef`]), so
//!   only B is ever packed: into 16-column K-major micro-panels, a column
//!   contiguous along K as 8×8 block transposes, a row-major B as bulk
//!   copies ([`pack`]). `KC = 256`, `MC = 120`, `NC = 512` keep a B
//!   micro-panel in L1 and a row block's A in L2.
//! * **Routing** ([`gemm::route`], shape and B's strides only; crossovers in
//!   [`gemm`]'s docs): every route accumulates each element in the same
//!   order, so they are bitwise interchangeable. [`gemm::gemm_batch`] /
//!   `kernels::matmul_batch_*` choose the route once for N same-shape
//!   products, pack a shared B once and fold an epilogue scale — attention's
//!   per-(batch, head) products, forward and backward, one call each.
//! * **Dispatch tiers** ([`simd`]): kernels are chosen at startup through a
//!   function-pointer table — **portable** (scalar loops, the test oracle,
//!   every architecture) or **simd** (hand-written AVX2 on `x86_64`, via
//!   `is_x86_feature_detected!`). Every tier multiplies then adds without
//!   fusing, in the same `k` order, so all are bitwise identical;
//!   `simd::force_tier` or `AMALGAM_KERNEL_TIER=portable|simd` pins one.
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
