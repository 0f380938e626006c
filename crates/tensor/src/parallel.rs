//! Kernels run on their caller's thread; a process that wants more cores
//! trains more jobs at once (`CloudServiceBuilder::workers`).
//!
//! What is left here is a shim for the e2e benchmark harness, its only
//! caller, which reads and pins a pool size that no longer exists. The next
//! change to the benchmark retires both functions (ROADMAP item 1).

/// Always 1: every kernel runs on the calling thread.
pub fn threads() -> usize {
    1
}

/// Does nothing; kept so the benchmark harness builds unchanged.
pub fn set_threads(_n: usize) {}
