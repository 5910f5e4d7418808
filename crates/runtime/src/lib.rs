//! # cqi-runtime
//!
//! Execution substrate for the chase: a work-stealing [`ResidentPool`]
//! (std-only, no external deps) behind an [`Exec`] handle, and a
//! lock-striped shared memo ([`StripedMemo`]) for cross-worker
//! solver-result sharing. The chase's own loop (Algorithm 1) and its
//! `visited` set live in `cqi-core`.
//!
//! ## Determinism model
//!
//! Parallelism has one axis: whole independent root searches fan out over
//! the pool, each run FIFO on one worker context. Expanding a candidate is
//! a pure function of the candidate (memo state only affects speed), so a
//! search's accepted stream does not depend on which worker ran it, and
//! [`Exec::run`] returns per-item results in item order — so callers merge
//! results exactly as a one-by-one run would have produced them. See
//! `cqi-core`'s `parallel_props.rs` for the property suites asserting
//! sequential ≡ parallel.
//!
//! The pool's ticketed injector and the memo's first-writer-wins races
//! are the crate's concurrent protocols; `cqi-analysis` model-checks both
//! through the [`sync`] shim.

#![deny(unsafe_code)]

pub mod memo;
pub mod pool;
pub mod sync;

pub use memo::{MemoCounts, MemoStats, StripedMemo};
pub use pool::{Exec, ResidentPool, RunCounters, RunCounts};

/// Resolves a user-facing thread budget: `0` means "all available
/// parallelism", anything else is taken literally (minimum 1).
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        threads
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_threads_zero_is_available_parallelism() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(1), 1);
        assert_eq!(resolve_threads(7), 7);
    }
}
