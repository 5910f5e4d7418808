//! # cqi-analysis
//!
//! Correctness tooling for the workspace, run as two blocking CI gates:
//!
//! - **Concurrency model checking** ([`models`], behind the
//!   `model-check` feature; `cqi-mcheck` binary): the runtime's two
//!   hand-rolled protocols — `StripedMemo`'s first-writer-wins races and
//!   `ResidentPool`'s ticketed injector (nested submission, the
//!   `BatchGuard` panic path, idle wakeups) — run under the vendored
//!   bounded-exhaustive scheduler (`vendor/loom`) *as the production
//!   types*, via `cqi_runtime::sync`'s instrumented primitives. Clean
//!   models must exhaust their schedule space with zero violations;
//!   seeded-fault twins must demonstrably catch each protocol's
//!   characteristic bug (lost wakeup, impure memo value), proving the
//!   checker has teeth.
//! - **Project linting** ([`lint`] over the [`lex`] masking lexer;
//!   `cqi-lint` binary): dependency-free source rules clippy cannot
//!   express — the unsafe allowlist + `SAFETY:` discipline,
//!   `#[allow]` justifications, wall-clock and `Ordering::Relaxed`
//!   confinement, and the `println!`/`.unwrap()` policy with per-file
//!   ratchet budgets. [`lint::LintConfig::repo_policy`] is the
//!   checked-in source of truth.
//!
//! Both binaries merge machine-readable sections into
//! `ANALYSIS_report.json` ([`report`]) for the CI artifact.

#![deny(unsafe_code)]

pub mod lex;
pub mod lint;
pub mod report;

#[cfg(feature = "model-check")]
pub mod models;
