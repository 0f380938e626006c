//! Thread-local scratch-buffer arena.
//!
//! The training hot path used to allocate (and zero) fresh buffers on every
//! kernel call: GEMM pack panels, `im2col` column matrices, attention
//! per-head staging tensors. All of those are short-lived, same-sized from
//! step to step, and confined to one thread — the perfect shape for a
//! free-list arena. [`take`] hands out a zero-filled `Vec<f32>` recycled from
//! earlier [`give`]s when one fits ([`take_raw`] skips the zero fill for
//! consumers that overwrite every element). Kernels run on their caller's
//! thread, so a training worker's arena keeps pack buffers warm across *all*
//! kernels of its jobs. That stays true when a training step runs some of its
//! islands on a helper thread (`nn::graph`, "Islands"): the kernels there run
//! on the helper and take from its arena — a free list the worker lends it
//! for the step with [`swap_free_list`] and keeps between steps.
//!
//! Buffers are plain `Vec<f32>`s: anything can be `give`n back, including
//! allocations that did not originate here (e.g. a `Tensor` temporary via
//! [`give_tensor`], which recycles only storage no other tensor shares). The
//! arena retains at most `MAX_RETAINED` buffers per thread, evicting the
//! smallest first, so memory use stays bounded by the largest working set
//! actually seen.

use crate::Tensor;
use std::cell::RefCell;

/// Maximum buffers retained per thread; beyond this the smallest is dropped.
const MAX_RETAINED: usize = 16;

thread_local! {
    /// The calling thread's free list.
    static FREE: RefCell<Vec<Vec<f32>>> = const { RefCell::new(Vec::new()) };
}

/// A buffer of exactly `len` elements with *unspecified* (but initialized)
/// contents — for consumers that overwrite every element anyway, such as
/// pack panels, `im2col_into` targets and `matmul_*_into` outputs. Skipping
/// the zero fill matters: those are exactly the large per-step buffers this
/// arena exists to recycle.
///
/// Prefers the smallest retained buffer whose capacity already fits `len`
/// (best fit); otherwise grows an arbitrary retained buffer or allocates.
pub fn take_raw(len: usize) -> Vec<f32> {
    let mut buf = FREE.with(|cell| {
        let mut free = cell.borrow_mut();
        let mut best: Option<(usize, usize)> = None; // (index, capacity)
        for (index, b) in free.iter().enumerate() {
            let cap = b.capacity();
            if cap >= len && best.is_none_or(|(_, c)| cap < c) {
                best = Some((index, cap));
            }
        }
        match best {
            Some((index, _)) => free.swap_remove(index),
            None => free.pop().unwrap_or_default(),
        }
    });
    // Shrink without touching memory; grow by writing only the new tail
    // (never exposes uninitialized memory — stale values are fine).
    if buf.len() > len {
        buf.truncate(len);
    } else if buf.len() < len {
        buf.resize(len, 0.0);
    }
    buf
}

/// A zero-filled buffer of exactly `len` elements, recycled when possible.
pub fn take(len: usize) -> Vec<f32> {
    let mut buf = take_raw(len);
    buf.fill(0.0);
    buf
}

/// Returns a buffer to the calling thread's arena for reuse.
pub fn give(buf: Vec<f32>) {
    if buf.capacity() == 0 {
        return;
    }
    FREE.with(|cell| {
        let mut free = cell.borrow_mut();
        if free.len() >= MAX_RETAINED {
            if let Some(smallest) = free
                .iter()
                .enumerate()
                .min_by_key(|(_, b)| b.capacity())
                .map(|(i, _)| i)
            {
                free.swap_remove(smallest);
            }
        }
        free.push(buf);
    });
}

/// Replaces the calling thread's free list with `list` and returns the one
/// it had. How a thread that lives for one training step works from buffers
/// that outlive it: it takes over a list its spawner kept, and hands it back
/// before it ends (`nn::graph`, "Islands"). The kernels it runs still take
/// from, and give to, the thread they run on.
pub fn swap_free_list(list: Vec<Vec<f32>>) -> Vec<Vec<f32>> {
    FREE.with(|cell| std::mem::replace(&mut *cell.borrow_mut(), list))
}

/// Drops every buffer retained by the *calling* thread's arena.
pub fn clear() {
    FREE.with(|cell| cell.borrow_mut().clear());
}

/// A zero-filled tensor whose storage comes from the arena.
pub fn take_tensor(dims: &[usize]) -> Tensor {
    let numel: usize = dims.iter().product();
    Tensor::from_vec(take(numel), dims)
}

/// An arena-backed tensor with unspecified contents (see [`take_raw`]); only
/// for callers that overwrite every element before reading.
pub fn take_tensor_raw(dims: &[usize]) -> Tensor {
    let numel: usize = dims.iter().product();
    Tensor::from_vec(take_raw(numel), dims)
}

/// [`Tensor::map`] into arena storage: for element-wise results that live
/// for a training step and come back through [`give_tensor`].
pub fn map_tensor(x: &Tensor, f: impl Fn(f32) -> f32) -> Tensor {
    let mut out = take_tensor_raw(x.dims());
    for (o, &v) in out.data_mut().iter_mut().zip(x.data()) {
        *o = f(v);
    }
    out
}

/// [`Tensor::zip_map`] into arena storage (see [`map_tensor`]).
///
/// # Panics
///
/// Panics if the shapes differ.
pub fn zip_map_tensor(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
    assert!(
        a.shape().same_as(b.shape()),
        "zip_map shape mismatch: {} vs {}",
        a.shape(),
        b.shape()
    );
    let mut out = take_tensor_raw(a.dims());
    for ((o, &x), &y) in out.data_mut().iter_mut().zip(a.data()).zip(b.data()) {
        *o = f(x, y);
    }
    out
}

/// Recycles a tensor's storage into the arena — unless another tensor still
/// shares it, in which case only this handle is dropped: the arena must
/// never hand out a buffer somebody can still read.
pub fn give_tensor(tensor: Tensor) {
    if let Some(buf) = tensor.into_unshared_vec() {
        give(buf);
    }
}

/// Number of buffers currently retained by this thread's arena (for tests).
pub fn retained() -> usize {
    FREE.with(|cell| cell.borrow().len())
}

/// Total `f32` capacity retained by this thread's arena (for tests).
pub fn retained_elems() -> usize {
    FREE.with(|cell| cell.borrow().iter().map(Vec::capacity).sum())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_is_zeroed_even_after_reuse() {
        let mut buf = take(8);
        buf.iter_mut().for_each(|v| *v = 7.0);
        give(buf);
        let again = take(8);
        assert_eq!(again, vec![0.0; 8]);
        give(again);
    }

    #[test]
    fn reuse_preserves_capacity() {
        let buf = take(1024);
        let ptr = buf.as_ptr();
        give(buf);
        let again = take(512);
        assert_eq!(
            again.as_ptr(),
            ptr,
            "best-fit should hand back the same allocation"
        );
        give(again);
    }

    #[test]
    fn retention_is_bounded() {
        for _ in 0..4 * MAX_RETAINED {
            give(vec![0.0; 16]);
        }
        assert!(retained() <= MAX_RETAINED);
    }

    #[test]
    fn clear_releases_this_threads_buffers() {
        std::thread::spawn(|| {
            give(vec![0.0; 64]);
            give(vec![0.0; 128]);
            assert!(retained() >= 2);
            assert!(retained_elems() >= 192);
            clear();
            assert_eq!((retained(), retained_elems()), (0, 0));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn tensor_round_trip() {
        let t = take_tensor(&[3, 4]);
        assert_eq!(t.dims(), &[3, 4]);
        assert!(t.data().iter().all(|&v| v == 0.0));
        give_tensor(t);
    }
}
