//! The dense `f32` tensor type.

use crate::kernels;
use crate::rng::Rng;
use crate::shape::Shape;
use crate::simd;
use crate::TensorError;
use std::fmt;
use std::sync::Arc;

/// A contiguous, row-major, n-dimensional array of `f32`.
///
/// This is the single numeric currency of the whole workspace: datasets,
/// activations, parameters and gradients are all `Tensor`s. The type is
/// deliberately simple (a `Vec<f32>` + [`Shape`]) so that every operation
/// is easy to audit — determinism of the original sub-network's training
/// trajectory is a correctness property of Amalgam (see `DESIGN.md`, D2).
///
/// Storage is reference-counted and copied on write: [`Clone`],
/// [`reshape`](Self::reshape) and [`flatten`](Self::flatten) hand out another
/// handle on the same elements in O(1), reads never copy, and the first
/// write through a handle that is not the only one ([`data_mut`](Self::data_mut)
/// and everything built on it) first gives that handle a private copy — so a
/// write is never visible through any other tensor.
///
/// # Example
///
/// ```
/// use amalgam_tensor::Tensor;
///
/// let x = Tensor::from_vec(vec![1.0, -2.0, 3.0, -4.0], &[2, 2]);
/// let y = x.map(|v| v.max(0.0)); // ReLU
/// assert_eq!(y.data(), &[1.0, 0.0, 3.0, 0.0]);
/// ```
#[derive(Clone, PartialEq)]
pub struct Tensor {
    data: Arc<Vec<f32>>,
    shape: Shape,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{}", self.shape)?;
        if self.numel() <= 8 {
            write!(f, " {:?}", self.data)
        } else {
            write!(
                f,
                " [{:.4}, {:.4}, … {:.4}] (n={})",
                self.data[0],
                self.data[1],
                self.data[self.data.len() - 1],
                self.numel()
            )
        }
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::zeros(&[0])
    }
}

impl Tensor {
    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// A tensor that is the only handle on `data`.
    fn owned(data: Vec<f32>, shape: Shape) -> Self {
        Tensor {
            data: Arc::new(data),
            shape,
        }
    }

    /// A tensor of zeros with the given shape.
    pub fn zeros(dims: &[usize]) -> Self {
        let shape = Shape::new(dims);
        Tensor::owned(vec![0.0; shape.numel()], shape)
    }

    /// A tensor of ones with the given shape.
    pub fn ones(dims: &[usize]) -> Self {
        Tensor::full(dims, 1.0)
    }

    /// A tensor filled with `value`.
    pub fn full(dims: &[usize], value: f32) -> Self {
        let shape = Shape::new(dims);
        Tensor::owned(vec![value; shape.numel()], shape)
    }

    /// A 0-dimensional tensor holding a single value.
    pub fn scalar(value: f32) -> Self {
        Tensor::owned(vec![value], Shape::scalar())
    }

    /// The `n`×`n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut data = vec![0.0; n * n];
        for i in 0..n {
            data[i * n + i] = 1.0;
        }
        Tensor::owned(data, Shape::new(&[n, n]))
    }

    /// Builds a tensor from existing data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the product of `dims`. Use
    /// [`try_from_vec`](Self::try_from_vec) for a fallible version.
    pub fn from_vec(data: Vec<f32>, dims: &[usize]) -> Self {
        Tensor::try_from_vec(data, dims).expect("data length must match shape")
    }

    /// Fallible version of [`from_vec`](Self::from_vec).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the data length disagrees
    /// with the shape.
    pub fn try_from_vec(data: Vec<f32>, dims: &[usize]) -> Result<Self, TensorError> {
        let shape = Shape::new(dims);
        if data.len() != shape.numel() {
            return Err(TensorError::ShapeMismatch {
                expected: shape.numel(),
                actual: data.len(),
            });
        }
        Ok(Tensor::owned(data, shape))
    }

    /// Builds a tensor by evaluating `f` at every flat index.
    pub fn from_fn(dims: &[usize], mut f: impl FnMut(usize) -> f32) -> Self {
        let shape = Shape::new(dims);
        let data = (0..shape.numel()).map(&mut f).collect();
        Tensor::owned(data, shape)
    }

    /// Standard-normal random tensor drawn from `rng`.
    pub fn randn(dims: &[usize], rng: &mut Rng) -> Self {
        Tensor::from_fn(dims, |_| rng.normal(0.0, 1.0))
    }

    /// Uniform random tensor in `[lo, hi)` drawn from `rng`.
    pub fn rand_uniform(dims: &[usize], lo: f32, hi: f32, rng: &mut Rng) -> Self {
        Tensor::from_fn(dims, |_| rng.uniform(lo, hi))
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The underlying row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the underlying data. If another tensor shares the
    /// storage, this one is first given a private copy of it (see the type
    /// docs); the uniqueness test is an atomic operation, so a loop should
    /// take the slice once rather than call this per element.
    pub fn data_mut(&mut self) -> &mut [f32] {
        Arc::make_mut(&mut self.data).as_mut_slice()
    }

    /// Consumes the tensor, returning its data vector (a copy of it when the
    /// storage is shared).
    pub fn into_vec(self) -> Vec<f32> {
        Arc::try_unwrap(self.data).unwrap_or_else(|shared| Vec::clone(&shared))
    }

    /// Consumes the tensor, returning its data vector only if no other
    /// tensor shares it: what may be recycled without taking anything from
    /// another handle.
    pub fn into_unshared_vec(self) -> Option<Vec<f32>> {
        Arc::try_unwrap(self.data).ok()
    }

    /// Whether `self` and `other` are handles on the same storage.
    pub fn shares_storage_with(&self, other: &Tensor) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimension sizes, as a slice.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds or has the wrong rank.
    pub fn at(&self, idx: &[usize]) -> f32 {
        self.data[self.shape.flat_index(idx)]
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds or has the wrong rank.
    pub fn set(&mut self, idx: &[usize], value: f32) {
        let flat = self.shape.flat_index(idx);
        self.data_mut()[flat] = value;
    }

    /// The single value of a 1-element tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor has more than one element.
    pub fn item(&self) -> f32 {
        assert_eq!(self.numel(), 1, "item() requires exactly one element");
        self.data[0]
    }

    // ------------------------------------------------------------------
    // Shape manipulation
    // ------------------------------------------------------------------

    /// Returns a tensor with the same data (shared, not copied) and a new
    /// shape.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&self, dims: &[usize]) -> Tensor {
        let shape = Shape::new(dims);
        assert_eq!(
            shape.numel(),
            self.numel(),
            "reshape from {} to {} changes element count",
            self.shape,
            shape
        );
        Tensor {
            data: self.data.clone(),
            shape,
        }
    }

    /// In-place reshape (no data copy).
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape_in_place(&mut self, dims: &[usize]) {
        let shape = Shape::new(dims);
        assert_eq!(shape.numel(), self.numel(), "reshape changes element count");
        self.shape = shape;
    }

    /// Flattens to a 1-D tensor (sharing the data).
    pub fn flatten(&self) -> Tensor {
        Tensor {
            data: self.data.clone(),
            shape: Shape::new(&[self.numel()]),
        }
    }

    /// Transpose of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn transpose2d(&self) -> Tensor {
        assert_eq!(self.shape.rank(), 2, "transpose2d requires a matrix");
        let (m, n) = (self.shape.dim(0), self.shape.dim(1));
        let mut out = vec![0.0; n * m];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = self.data[i * n + j];
            }
        }
        Tensor::owned(out, Shape::new(&[n, m]))
    }

    // ------------------------------------------------------------------
    // Element-wise operations
    // ------------------------------------------------------------------

    /// Applies `f` to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor::owned(
            self.data.iter().map(|&v| f(v)).collect(),
            self.shape.clone(),
        )
    }

    /// Applies `f` to every element in place.
    pub fn map_in_place(&mut self, f: impl Fn(f32) -> f32) {
        for v in self.data_mut() {
            *v = f(*v);
        }
    }

    /// Combines two same-shaped tensors element-wise.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn zip_map(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert!(
            self.shape.same_as(&other.shape),
            "zip_map shape mismatch: {} vs {}",
            self.shape,
            other.shape
        );
        let data = self
            .data
            .iter()
            .zip(other.data())
            .map(|(&a, &b)| f(a, b))
            .collect();
        Tensor::owned(data, self.shape.clone())
    }

    /// Element-wise sum.
    pub fn add(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a + b)
    }

    /// Element-wise difference.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a - b)
    }

    /// Element-wise product (Hadamard).
    pub fn mul(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a * b)
    }

    /// Element-wise quotient.
    pub fn div(&self, other: &Tensor) -> Tensor {
        self.zip_map(other, |a, b| a / b)
    }

    /// Adds `other` into `self` in place.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert!(
            self.shape.same_as(&other.shape),
            "add_assign shape mismatch"
        );
        for (a, &b) in self.data_mut().iter_mut().zip(other.data()) {
            *a += b;
        }
    }

    /// `self += alpha * other`, in place (AXPY).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert!(self.shape.same_as(&other.shape), "axpy shape mismatch");
        for (a, &b) in self.data_mut().iter_mut().zip(other.data()) {
            *a += alpha * b;
        }
    }

    /// Adds a scalar to every element.
    pub fn add_scalar(&self, s: f32) -> Tensor {
        self.map(|v| v + s)
    }

    /// Multiplies every element by a scalar.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|v| v * s)
    }

    /// Multiplies every element by a scalar, in place.
    pub fn scale_in_place(&mut self, s: f32) {
        for v in self.data_mut() {
            *v *= s;
        }
    }

    /// Sets every element to zero (in fresh storage when the current one is
    /// shared: there is nothing worth copying).
    pub fn fill_zero(&mut self) {
        match Arc::get_mut(&mut self.data) {
            Some(data) => data.fill(0.0),
            None => self.data = Arc::new(vec![0.0; self.data.len()]),
        }
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0.0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element (negative infinity for an empty tensor).
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum element (positive infinity for an empty tensor).
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Squared L2 norm.
    pub fn norm_sq(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum()
    }

    /// Dot product of two same-shaped tensors, treated as flat vectors.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn dot(&self, other: &Tensor) -> f32 {
        assert_eq!(self.numel(), other.numel(), "dot length mismatch");
        self.data
            .iter()
            .zip(other.data())
            .map(|(&a, &b)| a * b)
            .sum()
    }

    /// Sum over axis 0 of a 2-D tensor, yielding a `[cols]` vector.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn sum_axis0(&self) -> Tensor {
        assert_eq!(self.shape.rank(), 2, "sum_axis0 requires a matrix");
        let (m, n) = (self.shape.dim(0), self.shape.dim(1));
        let mut out = vec![0.0; n];
        for row in self.data.chunks_exact(n.max(1)).take(m) {
            for (o, &v) in out.iter_mut().zip(row) {
                *o += v;
            }
        }
        Tensor::owned(out, Shape::new(&[n]))
    }

    /// Per-row index of the maximum of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or has zero columns.
    pub fn argmax_rows(&self) -> Vec<usize> {
        assert_eq!(self.shape.rank(), 2, "argmax_rows requires a matrix");
        let (m, n) = (self.shape.dim(0), self.shape.dim(1));
        assert!(n > 0, "argmax_rows requires at least one column");
        (0..m)
            .map(|i| {
                let row = &self.data[i * n..(i + 1) * n];
                let mut best = 0;
                for (j, &v) in row.iter().enumerate() {
                    if v > row[best] {
                        best = j;
                    }
                }
                best
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Linear algebra (delegating to kernels)
    // ------------------------------------------------------------------

    /// Matrix product `self @ other` for 2-D tensors.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not 2-D or the inner dimensions disagree.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        kernels::matmul(self, other)
    }

    /// `self^T @ other` without materializing the transpose.
    ///
    /// # Panics
    ///
    /// Panics on non-2-D operands or mismatched dimensions.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        kernels::matmul_tn(self, other)
    }

    /// `self @ other^T` without materializing the transpose.
    ///
    /// # Panics
    ///
    /// Panics on non-2-D operands or mismatched dimensions.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        kernels::matmul_nt(self, other)
    }

    /// Adds a `[N]` bias vector to every row of an `[M, N]` matrix.
    ///
    /// # Panics
    ///
    /// Panics if shapes are incompatible.
    pub fn add_bias_row(&self, bias: &Tensor) -> Tensor {
        let mut out = self.clone();
        out.add_bias_row_assign(bias);
        out
    }

    /// In-place version of [`add_bias_row`](Self::add_bias_row): adds a `[N]`
    /// bias vector to every row without allocating a result.
    ///
    /// # Panics
    ///
    /// Panics if shapes are incompatible.
    pub fn add_bias_row_assign(&mut self, bias: &Tensor) {
        assert_eq!(self.shape.rank(), 2, "add_bias_row requires a matrix");
        let n = self.shape.dim(1);
        assert_eq!(bias.numel(), n, "bias length must equal column count");
        for row in self.data_mut().chunks_exact_mut(n.max(1)) {
            for (v, &bv) in row.iter_mut().zip(bias.data()) {
                *v += bv;
            }
        }
    }

    // ------------------------------------------------------------------
    // Indexing / selection
    // ------------------------------------------------------------------

    /// Copies rows `[start, end)` of the first axis into a new tensor.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or the tensor is 0-dimensional.
    pub fn slice_axis0(&self, start: usize, end: usize) -> Tensor {
        assert!(self.shape.rank() >= 1, "slice_axis0 requires rank >= 1");
        let n0 = self.shape.dim(0);
        assert!(
            start <= end && end <= n0,
            "slice [{start},{end}) out of bounds for axis of size {n0}"
        );
        let row: usize = self.shape.dims()[1..].iter().product();
        let mut dims = self.shape.dims().to_vec();
        dims[0] = end - start;
        Tensor::from_vec(self.data[start * row..end * row].to_vec(), &dims)
    }

    /// Gathers rows of the first axis at the given indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn index_select_axis0(&self, indices: &[usize]) -> Tensor {
        assert!(
            self.shape.rank() >= 1,
            "index_select_axis0 requires rank >= 1"
        );
        let n0 = self.shape.dim(0);
        let row: usize = self.shape.dims()[1..].iter().product();
        let mut dims = self.shape.dims().to_vec();
        dims[0] = indices.len();
        let mut data = Vec::with_capacity(indices.len() * row);
        for &i in indices {
            assert!(i < n0, "index {i} out of bounds for axis of size {n0}");
            data.extend_from_slice(&self.data[i * row..(i + 1) * row]);
        }
        Tensor::from_vec(data, &dims)
    }

    /// Gathers elements at flat indices, treating the tensor as 1-D.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn gather_flat(&self, indices: &[usize]) -> Tensor {
        let data: Vec<f32> = indices
            .iter()
            .map(|&i| {
                assert!(
                    i < self.data.len(),
                    "flat index {i} out of bounds ({})",
                    self.data.len()
                );
                self.data[i]
            })
            .collect();
        Tensor::from_vec(data, &[indices.len()])
    }

    /// Scatter-adds `values[k]` into flat position `indices[k]`.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ or any index is out of bounds.
    pub fn scatter_add_flat(&mut self, indices: &[usize], values: &[f32]) {
        assert_eq!(indices.len(), values.len(), "scatter length mismatch");
        let data = self.data_mut();
        for (&i, &v) in indices.iter().zip(values) {
            data[i] += v;
        }
    }

    /// Concatenates tensors along axis 0. All trailing dims must match.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or trailing dimensions disagree.
    pub fn concat_axis0(parts: &[&Tensor]) -> Tensor {
        assert!(
            !parts.is_empty(),
            "concat_axis0 requires at least one tensor"
        );
        let tail = &parts[0].dims()[1..];
        let mut total = 0usize;
        for p in parts {
            assert_eq!(&p.dims()[1..], tail, "concat_axis0 trailing dims mismatch");
            total += p.dims()[0];
        }
        let mut dims = parts[0].dims().to_vec();
        dims[0] = total;
        let mut data = Vec::with_capacity(total * tail.iter().product::<usize>());
        for p in parts {
            data.extend_from_slice(p.data());
        }
        Tensor::from_vec(data, &dims)
    }

    /// Concatenates 2-D tensors along axis 1 (columns).
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty, any part is not 2-D, or row counts differ.
    pub fn concat_axis1(parts: &[&Tensor]) -> Tensor {
        assert!(
            !parts.is_empty(),
            "concat_axis1 requires at least one tensor"
        );
        let m = parts[0].dims()[0];
        let mut total_cols = 0usize;
        for p in parts {
            assert_eq!(p.shape().rank(), 2, "concat_axis1 requires matrices");
            assert_eq!(p.dims()[0], m, "concat_axis1 row count mismatch");
            total_cols += p.dims()[1];
        }
        let mut out = Vec::with_capacity(m * total_cols);
        for i in 0..m {
            for p in parts {
                let n = p.dims()[1];
                out.extend_from_slice(&p.data()[i * n..(i + 1) * n]);
            }
        }
        Tensor::owned(out, Shape::new(&[m, total_cols]))
    }

    // ------------------------------------------------------------------
    // Softmax family (row-wise, numerically stable)
    // ------------------------------------------------------------------

    /// Row-wise softmax of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn softmax_rows(&self) -> Tensor {
        assert_eq!(self.shape.rank(), 2, "softmax_rows requires a matrix");
        let mut out = self.clone();
        softmax_rows_in_place(out.data_mut(), self.shape.dim(1));
        out
    }

    /// Row-wise log-softmax of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D.
    pub fn log_softmax_rows(&self) -> Tensor {
        assert_eq!(self.shape.rank(), 2, "log_softmax_rows requires a matrix");
        let n = self.shape.dim(1);
        let mut out = self.clone();
        let mut exps = vec![0.0f32; n];
        for row in out.data_mut().chunks_mut(n.max(1)) {
            exps.copy_from_slice(row);
            let (max, sum) = exp_row_in_place(&mut exps);
            let lse = sum.ln() + max;
            for v in row.iter_mut() {
                *v -= lse;
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // Comparison helpers (mostly for tests)
    // ------------------------------------------------------------------

    /// Maximum absolute element-wise difference between two tensors.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.numel(), other.numel(), "max_abs_diff length mismatch");
        self.data
            .iter()
            .zip(other.data())
            .map(|(&a, &b)| (a - b).abs())
            .fold(0.0f32, f32::max)
    }

    /// Returns `true` if all elements differ by at most `tol`.
    pub fn approx_eq(&self, other: &Tensor, tol: f32) -> bool {
        self.shape.same_as(&other.shape) && self.max_abs_diff(other) <= tol
    }
}

/// The largest element of `row` (`−∞` for an empty one), from eight running
/// maxima so the loop vectorizes; a maximum is exact, so the order is free.
fn row_max(row: &[f32]) -> f32 {
    let keep_larger = |m: &mut f32, v: f32| {
        if v > *m {
            *m = v;
        }
    };
    let mut lanes = [f32::NEG_INFINITY; 8];
    let mut chunks = row.chunks_exact(8);
    for chunk in &mut chunks {
        for (m, &v) in lanes.iter_mut().zip(chunk) {
            keep_larger(m, v);
        }
    }
    for (m, &v) in lanes.iter_mut().zip(chunks.remainder()) {
        keep_larger(m, v);
    }
    let mut max = f32::NEG_INFINITY;
    lanes.iter().for_each(|&v| keep_larger(&mut max, v));
    max
}

/// `row[i] ← exp(row[i] − max)` in place, `max` the row's largest element;
/// returns `(max, Σ row)`. This is the one exponential pass under every
/// softmax and cross-entropy in the workspace: the in-tree lane-exact
/// [`simd::exp`], summed in a lane order fixed by the row's length, so the
/// result does not depend on the kernel tier, the host's libm, or where the
/// row lies in memory. `ln Σ exp(x)` is `max + sum.ln()`.
pub fn exp_row_in_place(row: &mut [f32]) -> (f32, f32) {
    let max = row_max(row);
    (max, simd::exp_row_kernel()(row, max))
}

/// Numerically-stable softmax applied in place over each `width`-sized row
/// of `data` (`p = e / Σe` after [`exp_row_in_place`]'s pass) — the single
/// softmax implementation shared by [`Tensor::softmax_rows`] and the
/// attention layer's flattened `[B·H·T, T]` score rows (no rank restriction,
/// no allocation).
pub fn softmax_rows_in_place(data: &mut [f32], width: usize) {
    if width == 0 {
        return;
    }
    for row in data.chunks_mut(width) {
        let (_, sum) = exp_row_in_place(row);
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

/// [`softmax_rows_in_place`] under a causal mask: `data` holds rows of a
/// stack of `width × width` score matrices, the first of them row
/// `first_row` of its matrix, and row `i` of a matrix may see columns `0..=i`
/// only. Each row is normalised over that live prefix and its tail is set to
/// exactly `0.0` — bit for bit what the full-row softmax gives when the tail
/// holds `−∞` (a masked score exponentiates to `0.0`, and zeros do not move
/// the lane sums), without exponentiating the masked half.
pub fn softmax_causal_rows_in_place(data: &mut [f32], width: usize, first_row: usize) {
    if width == 0 {
        return;
    }
    for (r, row) in data.chunks_mut(width).enumerate() {
        let (live, masked) = row.split_at_mut((first_row + r) % width + 1);
        softmax_rows_in_place(live, live.len());
        masked.fill(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn constructors_shapes() {
        assert_eq!(Tensor::zeros(&[2, 3]).numel(), 6);
        assert_eq!(Tensor::ones(&[4]).sum(), 4.0);
        assert_eq!(Tensor::scalar(7.0).item(), 7.0);
        assert_eq!(Tensor::eye(3).sum(), 3.0);
    }

    #[test]
    fn try_from_vec_rejects_bad_length() {
        let err = Tensor::try_from_vec(vec![1.0; 5], &[2, 3]).unwrap_err();
        assert_eq!(
            err,
            TensorError::ShapeMismatch {
                expected: 6,
                actual: 5
            }
        );
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![3.0, 5.0], &[2]);
        assert_eq!(a.add(&b).data(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).data(), &[2.0, 3.0]);
        assert_eq!(a.mul(&b).data(), &[3.0, 10.0]);
        assert_eq!(b.div(&a).data(), &[3.0, 2.5]);
        assert_eq!(a.scale(2.0).data(), &[2.0, 4.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let mut rng = Rng::seed_from(7);
        let a = Tensor::randn(&[3, 5], &mut rng);
        assert!(a.transpose2d().transpose2d().approx_eq(&a, 0.0));
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut rng = Rng::seed_from(11);
        let a = Tensor::randn(&[4, 9], &mut rng);
        let s = a.softmax_rows();
        for i in 0..4 {
            let row_sum: f32 = s.data()[i * 9..(i + 1) * 9].iter().sum();
            assert!((row_sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn log_softmax_matches_softmax_log() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]);
        let ls = a.log_softmax_rows();
        let s = a.softmax_rows().map(f32::ln);
        assert!(ls.approx_eq(&s, 1e-5));
    }

    #[test]
    fn argmax_rows_picks_max() {
        let a = Tensor::from_vec(vec![0.1, 0.9, 0.0, 0.7, 0.2, 0.1], &[2, 3]);
        assert_eq!(a.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn slice_and_select() {
        let a = Tensor::from_vec((0..12).map(|v| v as f32).collect(), &[4, 3]);
        let s = a.slice_axis0(1, 3);
        assert_eq!(s.dims(), &[2, 3]);
        assert_eq!(s.data()[0], 3.0);
        let g = a.index_select_axis0(&[3, 0]);
        assert_eq!(g.data()[0], 9.0);
        assert_eq!(g.data()[3], 0.0);
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let a = Tensor::from_vec(vec![10.0, 20.0, 30.0, 40.0], &[4]);
        let g = a.gather_flat(&[2, 0]);
        assert_eq!(g.data(), &[30.0, 10.0]);
        let mut z = Tensor::zeros(&[4]);
        z.scatter_add_flat(&[2, 0], g.data());
        assert_eq!(z.data(), &[10.0, 0.0, 30.0, 0.0]);
    }

    #[test]
    fn concat_axis0_and_axis1() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]);
        let b = Tensor::from_vec(vec![3.0, 4.0], &[1, 2]);
        let c0 = Tensor::concat_axis0(&[&a, &b]);
        assert_eq!(c0.dims(), &[2, 2]);
        let c1 = Tensor::concat_axis1(&[&a, &b]);
        assert_eq!(c1.dims(), &[1, 4]);
        assert_eq!(c1.data(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn sum_axis0_matches_manual() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        assert_eq!(a.sum_axis0().data(), &[4.0, 6.0]);
    }

    #[test]
    fn add_bias_row_broadcasts() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let out = a.add_bias_row(&b);
        assert_eq!(out.data(), &[1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
    }
}
