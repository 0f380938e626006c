//! Thread-local scratch-buffer arena.
//!
//! The training hot path used to allocate (and zero) fresh buffers on every
//! kernel call: GEMM pack panels, `im2col` column matrices, attention
//! per-head staging tensors. All of those are short-lived, same-sized from
//! step to step, and confined to one thread — the perfect shape for a
//! free-list arena. [`take`] hands out a zero-filled `Vec<f32>` recycled from
//! earlier [`give`]s when one fits ([`take_raw`] skips the zero fill for
//! consumers that overwrite every element); the pool workers in
//! [`parallel`](crate::parallel) are persistent threads, so their arenas
//! keep pack buffers warm across *all* kernels of a training run.
//!
//! Buffers are plain `Vec<f32>`s: anything can be `give`n back, including
//! allocations that did not originate here (e.g. a `Tensor` temporary via
//! [`give_tensor`], which recycles only storage no other tensor shares). The arena retains at most `MAX_RETAINED` buffers per
//! thread, evicting the smallest first, so memory use stays bounded by the
//! largest working set actually seen.
//!
//! Retention is observable: [`total_retained_elems`] sums the capacity held
//! by *every* thread's arena, and [`clear`] releases the calling thread's
//! buffers. `parallel::set_threads(1)` uses these to drain the pool
//! workers' arenas, so long-lived single-thread runs (the TEE baseline) do
//! not pin peak-sized pack buffers they will never use again.

use crate::Tensor;
use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Maximum buffers retained per thread; beyond this the smallest is dropped.
const MAX_RETAINED: usize = 16;

/// Total `f32` capacity currently parked in arenas across all threads.
static TOTAL_RETAINED: AtomicUsize = AtomicUsize::new(0);

/// A thread's free list; the wrapper keeps [`TOTAL_RETAINED`] honest when a
/// thread exits with buffers still parked.
struct Arena {
    free: Vec<Vec<f32>>,
}

impl Drop for Arena {
    fn drop(&mut self) {
        let held: usize = self.free.iter().map(Vec::capacity).sum();
        TOTAL_RETAINED.fetch_sub(held, Ordering::Relaxed);
    }
}

thread_local! {
    static FREE: RefCell<Arena> = const { RefCell::new(Arena { free: Vec::new() }) };
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
        let mut arena = cell.borrow_mut();
        let free = &mut arena.free;
        let mut best: Option<(usize, usize)> = None; // (index, capacity)
        for (index, b) in free.iter().enumerate() {
            let cap = b.capacity();
            if cap >= len && best.is_none_or(|(_, c)| cap < c) {
                best = Some((index, cap));
            }
        }
        let taken = match best {
            Some((index, _)) => Some(free.swap_remove(index)),
            None => free.pop(),
        };
        if let Some(taken) = taken {
            TOTAL_RETAINED.fetch_sub(taken.capacity(), Ordering::Relaxed);
            taken
        } else {
            Vec::new()
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
        let mut arena = cell.borrow_mut();
        let free = &mut arena.free;
        if free.len() >= MAX_RETAINED {
            if let Some(smallest) = free
                .iter()
                .enumerate()
                .min_by_key(|(_, b)| b.capacity())
                .map(|(i, _)| i)
            {
                let evicted = free.swap_remove(smallest);
                TOTAL_RETAINED.fetch_sub(evicted.capacity(), Ordering::Relaxed);
            }
        }
        TOTAL_RETAINED.fetch_add(buf.capacity(), Ordering::Relaxed);
        free.push(buf);
    });
}

/// Drops every buffer retained by the *calling* thread's arena.
///
/// The pool drains each worker's arena through this when
/// `parallel::set_threads(1)` retires the workers from the hot path.
pub fn clear() {
    FREE.with(|cell| {
        let mut arena = cell.borrow_mut();
        let held: usize = arena.free.iter().map(Vec::capacity).sum();
        TOTAL_RETAINED.fetch_sub(held, Ordering::Relaxed);
        arena.free.clear();
    });
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
    FREE.with(|cell| cell.borrow().free.len())
}

/// Total `f32` capacity parked in *all* threads' arenas (live threads only;
/// a thread's share is removed when it exits or calls [`clear`]).
pub fn total_retained_elems() -> usize {
    TOTAL_RETAINED.load(Ordering::Relaxed)
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
        // The global counter is shared with concurrently-running tests, so
        // only this thread's arena length is asserted exactly; the precise
        // global accounting is covered by the single-test integration run in
        // `tests/scratch_drain.rs`.
        std::thread::spawn(|| {
            give(vec![0.0; 64]);
            give(vec![0.0; 128]);
            assert!(retained() >= 2);
            clear();
            assert_eq!(retained(), 0);
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
