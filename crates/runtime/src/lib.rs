//! # cqi-runtime
//!
//! Execution substrate for the chase: a work-stealing [`ResidentPool`]
//! (std-only, no external deps) behind an [`Exec`] handle, a sharded
//! concurrent duplicate-detection set keyed on isomorphism invariants, a
//! lock-striped shared memo ([`StripedMemo`]) for cross-worker
//! solver-result sharing, and the sequential frontier [`drive`]r of
//! Algorithm 1.
//!
//! ## Determinism model
//!
//! Parallelism has one axis: whole independent frontier drives (the
//! chase's root jobs) fan out over the pool, each driven FIFO on one
//! worker context by [`drive`]. Expanding a candidate is a pure function of
//! the candidate (memo state only affects speed), so a drive's accepted
//! stream does not depend on which worker ran it, and [`Exec::run`] returns
//! per-item results in item order — so callers merge results exactly as a
//! one-by-one run would have produced them. See `cqi-core`'s
//! `parallel_props.rs` for the property suites asserting sequential ≡
//! parallel.
//!
//! [`ShardedDedupe`]'s sequence-priority protocol
//! ([`ShardedDedupe::offer`] / [`ShardedDedupe::confirm`]) and
//! [`WaveVisible`]'s boundary publication stay safe under concurrent
//! callers, and `cqi-analysis` model-checks both.

#![deny(unsafe_code)]

pub mod dedupe;
pub mod memo;
pub mod pool;
pub mod scheduler;
pub mod sync;

pub use dedupe::{DedupeStats, Offer, SetKey, ShardedDedupe};
pub use memo::{MemoCounts, MemoStats, StripedMemo};
pub use pool::{Exec, ResidentPool, RunCounters, RunCounts};
pub use scheduler::{drive, DriveStats, Expansion, FrontierTask, WaveVisible};

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
