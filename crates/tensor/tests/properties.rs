//! Property-based tests for tensor algebra invariants.

use amalgam_tensor::kernels::{col2im, im2col, im2col_into, reference, Conv2dGeom};
use amalgam_tensor::{parallel, Rng, Tensor};
use proptest::prelude::*;

fn rand_tensor(dims: &[usize], seed: u64) -> Tensor {
    Tensor::randn(dims, &mut Rng::seed_from(seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (A·B)·C == A·(B·C) within f32 tolerance.
    #[test]
    fn matmul_is_associative(m in 1usize..6, k in 1usize..6, n in 1usize..6, p in 1usize..6, seed in 0u64..500) {
        let a = rand_tensor(&[m, k], seed);
        let b = rand_tensor(&[k, n], seed ^ 1);
        let c = rand_tensor(&[n, p], seed ^ 2);
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        prop_assert!(left.approx_eq(&right, 1e-3), "max diff {}", left.max_abs_diff(&right));
    }

    /// A·(B + C) == A·B + A·C.
    #[test]
    fn matmul_distributes_over_add(m in 1usize..6, k in 1usize..6, n in 1usize..6, seed in 0u64..500) {
        let a = rand_tensor(&[m, k], seed);
        let b = rand_tensor(&[k, n], seed ^ 3);
        let c = rand_tensor(&[k, n], seed ^ 4);
        let left = a.matmul(&b.add(&c));
        let right = a.matmul(&b).add(&a.matmul(&c));
        prop_assert!(left.approx_eq(&right, 1e-3));
    }

    /// matmul_tn/matmul_nt agree with explicit transposes.
    #[test]
    fn transpose_fused_matmuls_agree(m in 1usize..6, k in 1usize..6, n in 1usize..6, seed in 0u64..500) {
        let a = rand_tensor(&[k, m], seed);
        let b = rand_tensor(&[k, n], seed ^ 5);
        prop_assert!(a.matmul_tn(&b).approx_eq(&a.transpose2d().matmul(&b), 1e-3));
        let a2 = rand_tensor(&[m, k], seed ^ 6);
        let b2 = rand_tensor(&[n, k], seed ^ 7);
        prop_assert!(a2.matmul_nt(&b2).approx_eq(&a2.matmul(&b2.transpose2d()), 1e-3));
    }

    /// softmax rows are a probability simplex and invariant to shifts.
    #[test]
    fn softmax_invariances(m in 1usize..5, n in 2usize..8, shift in -5.0f32..5.0, seed in 0u64..500) {
        let a = rand_tensor(&[m, n], seed);
        let s1 = a.softmax_rows();
        let s2 = a.add_scalar(shift).softmax_rows();
        prop_assert!(s1.approx_eq(&s2, 1e-4), "softmax not shift-invariant");
        for i in 0..m {
            let row: f32 = s1.data()[i * n..(i + 1) * n].iter().sum();
            prop_assert!((row - 1.0).abs() < 1e-4);
            prop_assert!(s1.data()[i * n..(i + 1) * n].iter().all(|&v| v >= 0.0));
        }
    }

    /// im2col/col2im satisfy the adjoint identity ⟨im2col(x), y⟩ = ⟨x, col2im(y)⟩.
    #[test]
    fn im2col_adjoint(n in 1usize..3, c in 1usize..3, hw in 3usize..7, k in 1usize..4, seed in 0u64..300) {
        prop_assume!(k <= hw);
        let g = Conv2dGeom { in_channels: c, in_h: hw, in_w: hw, kernel: k, stride: 1, padding: k / 2 };
        let x = rand_tensor(&[n, c, hw, hw], seed);
        let y = rand_tensor(&[g.col_rows(), n * g.out_h() * g.out_w()], seed ^ 8);
        let lhs = im2col(&x, &g).dot(&y);
        let rhs = x.dot(&col2im(&y, &g, n));
        let scale = lhs.abs().max(rhs.abs()).max(1.0);
        prop_assert!((lhs - rhs).abs() / scale < 1e-3, "{lhs} vs {rhs}");
    }

    /// The slice kernels equal the naive definitions bit for bit on any
    /// geometry — strides 1-3, padding up to the kernel size (rows and
    /// columns that are all padding), 'same' padding, kernels larger than the
    /// plane, 1×1, non-square planes, batch 1 — for any pool size.
    #[test]
    fn conv_glue_matches_naive_definition(n in 1usize..4, c in 1usize..3, h in 1usize..9, w in 1usize..9,
                                          k in 1usize..7, stride in 1usize..4, pad_pick in 0usize..7,
                                          same in any::<bool>(), threads in 1usize..5, seed in 0u64..1000) {
        // Half the cases are 'same' convolutions (odd kernel, unit stride,
        // output as wide as the input), which im2col moves a block at a time.
        let (k, stride, padding) = if same { (k | 1, 1, k / 2) } else { (k, stride, pad_pick % (k + 1)) };
        prop_assume!(h + 2 * padding >= k && w + 2 * padding >= k);
        let g = Conv2dGeom { in_channels: c, in_h: h, in_w: w, kernel: k, stride, padding };
        let cols = n * g.out_h() * g.out_w();
        let x = rand_tensor(&[n, c, h, w], seed);
        let y = rand_tensor(&[g.col_rows(), cols], seed ^ 8);
        parallel::set_threads(threads);
        // A poisoned target: every element has to be written, padding included.
        let mut unfolded = Tensor::full(&[g.col_rows(), cols], f32::NAN);
        im2col_into(&x, &g, &mut unfolded);
        let folded = col2im(&y, &g, n);
        parallel::set_threads(0);
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&unfolded), bits(&reference::im2col(&x, &g)), "im2col {:?}", g);
        prop_assert_eq!(bits(&folded), bits(&reference::col2im(&y, &g, n)), "col2im {:?}", g);
    }

    /// index_select then concat of complementary halves is a permutation.
    #[test]
    fn select_concat_permutes(n in 2usize..10, cols in 1usize..5, split in 1usize..9, seed in 0u64..500) {
        prop_assume!(split < n);
        let t = rand_tensor(&[n, cols], seed);
        let head: Vec<usize> = (0..split).collect();
        let tail: Vec<usize> = (split..n).collect();
        let a = t.index_select_axis0(&head);
        let b = t.index_select_axis0(&tail);
        let joined = Tensor::concat_axis0(&[&a, &b]);
        prop_assert_eq!(joined.data(), t.data());
    }

    /// sample_indices always yields sorted distinct values in range.
    #[test]
    fn sample_indices_invariants(n in 1usize..200, frac in 0.0f64..1.0, seed in 0u64..1000) {
        let k = ((n as f64) * frac) as usize;
        let idx = Rng::seed_from(seed).sample_indices(n, k);
        prop_assert_eq!(idx.len(), k);
        prop_assert!(idx.windows(2).all(|w| w[0] < w[1]));
        prop_assert!(idx.iter().all(|&i| i < n));
    }

    /// log10 C(n,k) is symmetric and peaks at k = n/2.
    #[test]
    fn binomial_symmetry(n in 1u64..500, k in 0u64..500) {
        prop_assume!(k <= n);
        let a = amalgam_tensor::math::log10_choose(n, k);
        let b = amalgam_tensor::math::log10_choose(n, n - k);
        prop_assert!((a - b).abs() < 1e-9);
        let mid = amalgam_tensor::math::log10_choose(n, n / 2);
        prop_assert!(mid + 1e-9 >= a);
    }
}

// ---------------------------------------------------------------------------
// Shared storage, copy on write
// ---------------------------------------------------------------------------

use amalgam_tensor::scratch;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A clone, a reshape and a flatten are handles on the source's storage
    /// until one side writes; after any write — through any of the mutating
    /// entry points — the other side reads what it read before.
    #[test]
    fn writes_never_show_through_another_handle(rows in 1usize..6, cols in 1usize..6, op in 0usize..7, seed in 0u64..500) {
        let source = rand_tensor(&[rows, cols], seed);
        let before = source.data().to_vec();
        let mut handles = [source.clone(), source.reshape(&[cols * rows]), source.flatten()];
        for handle in &mut handles {
            prop_assert!(handle.shares_storage_with(&source));
            match op {
                0 => handle.data_mut()[0] = 42.0,
                1 => handle.map_in_place(|v| v + 1.0),
                2 => handle.scale_in_place(3.0),
                3 => handle.fill_zero(),
                4 => handle.add_assign(&Tensor::ones(handle.dims())),
                5 => handle.axpy(0.5, &Tensor::ones(handle.dims())),
                _ => handle.set(&vec![0; handle.dims().len()], -7.0),
            }
            prop_assert!(!handle.shares_storage_with(&source));
            prop_assert_eq!(source.data(), &before[..]);
        }
        // And the other way round: writing the source leaves its clones alone.
        let mut source = source;
        let clone = source.clone();
        source.data_mut()[0] = 99.0;
        prop_assert_eq!(clone.data(), &before[..]);
    }
}

/// A unique tensor is written in place: no copy, same allocation.
#[test]
fn unique_tensors_are_written_in_place() {
    let mut t = Tensor::zeros(&[4, 4]);
    let at = t.data().as_ptr();
    t.data_mut()[3] = 1.0;
    t.scale_in_place(2.0);
    assert_eq!(t.data().as_ptr(), at);
    // A dropped clone gives the storage back to its one owner.
    let clone = t.clone();
    drop(clone);
    t.data_mut()[0] = 5.0;
    assert_eq!(t.data().as_ptr(), at);
}

/// `into_vec` moves unique storage out and copies shared storage;
/// `into_unshared_vec` refuses the latter.
#[test]
fn storage_leaves_a_tensor_only_when_nobody_else_reads_it() {
    let t = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]);
    let at = t.data().as_ptr();
    let keeper = t.clone();
    assert!(t.clone().into_unshared_vec().is_none());
    let copy = t.into_vec();
    assert_ne!(copy.as_ptr(), at);
    assert_eq!(copy, keeper.data());
    // `keeper` is the only handle left: its storage moves.
    let moved = keeper.into_unshared_vec().expect("unique");
    assert_eq!(moved.as_ptr(), at);
}

/// Recycling a shared tensor must be a no-op, not a theft: the arena keeps
/// nothing, and the other handle still reads its data after the arena has
/// handed out (and scribbled over) every buffer it does hold.
#[test]
fn give_tensor_of_a_shared_tensor_recycles_nothing() {
    std::thread::spawn(|| {
        let keeper = rand_tensor(&[8, 8], 3);
        let before = keeper.data().to_vec();
        scratch::give_tensor(keeper.clone());
        scratch::give_tensor(keeper.reshape(&[64]));
        assert_eq!(scratch::retained(), 0);
        // A unique tensor of the same size *is* recycled.
        scratch::give_tensor(rand_tensor(&[8, 8], 4));
        assert_eq!(scratch::retained(), 1);
        let mut taken = scratch::take_tensor_raw(&[8, 8]);
        taken.data_mut().fill(f32::NAN);
        assert_eq!(keeper.data(), &before[..]);
    })
    .join()
    .unwrap();
}
