//! Model programs: the runtime's two concurrency protocols run under the
//! vendored `loom` checker's bounded exhaustive scheduler, against the
//! *real* production types (`StripedMemo`, `ResidentPool`) — `cqi-runtime`'s
//! `model-check` feature routes their synchronization through instrumented
//! primitives, so every interleaving the scheduler explores is an
//! interleaving the production protocol could exhibit.
//!
//! Each protocol has clean models (must exhaust the bounded schedule tree
//! with zero violations) and a **seeded-fault** model (must demonstrably
//! catch a planted protocol bug, mirroring the fuzz campaign's `--mutate`
//! self-test pattern):
//!
//! | protocol | clean property | seeded fault |
//! |---|---|---|
//! | striped memo | first-writer-wins races are value-benign (stored values are pure functions of keys) | an impure (writer-dependent) value makes the surviving value schedule-dependent |
//! | pool injector | batches complete, nested submission and the `BatchGuard` panic path never deadlock or lose a wakeup | skipping the last entrant's idle notify strands the submitter's barrier (lost wakeup → deadlock) |

use std::sync::atomic::{AtomicU64 as PlainU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use cqi_runtime::memo::StripedMemo;
use cqi_runtime::pool::{fault, ResidentPool};
use loom::{Builder, Report};

/// Serializes model runs that arm process-global fault hooks (and, by
/// convention, every model run in multi-threaded test harnesses, keeping
/// peak managed-thread count predictable).
pub fn run_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

fn builder(preemption_bound: usize) -> Builder {
    Builder {
        max_schedules: 100_000,
        preemption_bound,
        max_steps: 20_000,
        full_exploration: false,
    }
}

/// A named model outcome, as surfaced in `ANALYSIS_report.json`.
#[derive(Debug)]
pub struct ModelOutcome {
    pub name: &'static str,
    /// What the checker must conclude for the run to pass: `false` →
    /// exhaust cleanly; `true` → find the seeded fault.
    pub expect_violation: bool,
    pub report: Report,
}

impl ModelOutcome {
    /// Did the checker conclude what this model requires?
    pub fn passed(&self) -> bool {
        if self.expect_violation {
            self.report.violation.is_some()
        } else {
            self.report.violation.is_none() && self.report.exhausted
        }
    }
}

/// Clean: racing writers store the same pure-function-of-key value; the
/// first-writer-wins race is benign under every interleaving (including
/// the try_lock contention path, whose both outcomes the checker explores).
pub fn memo_first_writer_wins() -> ModelOutcome {
    let report = builder(2).check(|| {
        let memo: Arc<StripedMemo<u64, u64>> = Arc::new(StripedMemo::new(1, 64));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let memo = Arc::clone(&memo);
                loom::thread::spawn(move || {
                    memo.insert(7, 14); // value = key * 2: pure
                    memo.get(&7)
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), Some(14), "reads agree with the pure value");
        }
        assert_eq!(memo.get(&7), Some(14));
        assert_eq!(memo.len(), 1);
    });
    ModelOutcome {
        name: "memo_first_writer_wins",
        expect_violation: false,
        report,
    }
}

/// Seeded fault: writers store *writer-dependent* values for one key. The
/// surviving value then depends on the schedule; pinning the expectation
/// to one writer makes the checker exhibit an interleaving where the other
/// writer won — exactly the impurity the memo's soundness contract bans.
pub fn memo_impure_value_fault() -> ModelOutcome {
    let report = builder(2).check(|| {
        let memo: Arc<StripedMemo<u64, u64>> = Arc::new(StripedMemo::new(1, 64));
        let handles: Vec<_> = (0..2u64)
            .map(|writer| {
                let memo = Arc::clone(&memo);
                loom::thread::spawn(move || {
                    // BUG: the stored value depends on who stores it.
                    memo.insert(7, 100 + writer);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            memo.get(&7),
            Some(100),
            "an impure memo value is schedule-dependent"
        );
    });
    ModelOutcome {
        name: "memo_impure_value_fault",
        expect_violation: true,
        report,
    }
}

/// Clean: one resident worker, one batch. The ticketed injector hands the
/// batch to the worker and/or the self-draining submitter; the
/// close-and-wait barrier completes; pool drop joins the worker — under
/// every interleaving, with no deadlock and no lost wakeup.
pub fn injector_batch_lifecycle() -> ModelOutcome {
    let report = builder(2).check(|| {
        let ran = Arc::new(PlainU64::new(0));
        let pool = ResidentPool::new(1);
        let r2 = Arc::clone(&ran);
        pool.run_batch(1, &move || {
            r2.fetch_add(1, Ordering::SeqCst);
        });
        // The submitter always self-drains, so the batch ran 1–2 times
        // (the worker may or may not have redeemed its ticket in time).
        let n = ran.load(Ordering::SeqCst);
        assert!((1..=2).contains(&n), "batch ran {n} times");
        drop(pool);
    });
    ModelOutcome {
        name: "injector_batch_lifecycle",
        expect_violation: false,
        report,
    }
}

/// Clean: nested submission — a batch entrant submits a batch to the same
/// pool. The inner submitter self-drains, so this must terminate even with
/// the single worker occupied by the outer batch.
pub fn injector_nested_submission() -> ModelOutcome {
    let report = builder(2).check(|| {
        let ran = Arc::new(PlainU64::new(0));
        let pool = Arc::new(ResidentPool::new(1));
        let (p2, r2) = (Arc::clone(&pool), Arc::clone(&ran));
        pool.run_batch(1, &move || {
            let r3 = Arc::clone(&r2);
            p2.run_batch(1, &move || {
                r3.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert!(ran.load(Ordering::SeqCst) >= 1);
        drop(pool);
    });
    ModelOutcome {
        name: "injector_nested_submission",
        expect_violation: false,
        report,
    }
}

/// Clean: the `BatchGuard` panic path. The batch closure panics; the
/// submitter's guard must still close the batch, wait out (and observe the
/// panic of) any worker entrant, sweep stale tickets, and re-raise — with
/// no deadlock in any interleaving, and the pool still usable after.
pub fn injector_panic_path() -> ModelOutcome {
    let report = builder(2).check(|| {
        let pool = ResidentPool::new(1);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run_batch(1, &|| panic!("entrant panic"));
        }));
        assert!(r.is_err(), "the batch panic reaches the submitter");
        // The pool survives a panicked batch.
        let ran = Arc::new(PlainU64::new(0));
        let r2 = Arc::clone(&ran);
        pool.run_batch(1, &move || {
            r2.fetch_add(1, Ordering::SeqCst);
        });
        assert!(ran.load(Ordering::SeqCst) >= 1);
        drop(pool);
    });
    ModelOutcome {
        name: "injector_panic_path",
        expect_violation: false,
        report,
    }
}

/// Seeded fault: `Batch::exit` skips the idle wakeup when the last entrant
/// leaves (armed via the runtime's `fault` hook). The interleaving where
/// the submitter enters its barrier wait while the worker is inside the
/// batch then never wakes — a lost wakeup the checker reports as a
/// deadlock. Callers must hold [`run_lock`] (the hook is process-global).
pub fn injector_lost_wakeup_fault() -> ModelOutcome {
    fault::set(fault::SKIP_IDLE_NOTIFY);
    let report = builder(2).check(|| {
        let pool = ResidentPool::new(1);
        pool.run_batch(1, &|| {});
        drop(pool);
    });
    fault::set(fault::NONE);
    ModelOutcome {
        name: "injector_lost_wakeup_fault",
        expect_violation: true,
        report,
    }
}

/// Every model, in reporting order.
pub fn all_models() -> Vec<ModelOutcome> {
    let _g = run_lock().lock().unwrap();
    vec![
        memo_first_writer_wins(),
        memo_impure_value_fault(),
        injector_batch_lifecycle(),
        injector_nested_submission(),
        injector_panic_path(),
        injector_lost_wakeup_fault(),
    ]
}
