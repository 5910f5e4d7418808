//! The model-check gate, embedded in `cargo test --features model-check`:
//! every protocol model must behave as registered — clean protocols
//! exhaust their bounded schedule space with zero violations, and each
//! seeded-fault twin must actually produce a counterexample (proving the
//! checker can see the bug class, not merely that it ran).
#![cfg(feature = "model-check")]

use std::collections::BTreeSet;

use cqi_analysis::models;

#[test]
fn all_registered_models_pass_their_expectation() {
    for o in models::all_models() {
        assert!(
            o.passed(),
            "model `{}` did not meet its expectation: {} (violation: {:?})",
            o.name,
            o.report,
            o.report.violation
        );
    }
}

/// The protocol a model checks: its name up to the first `_`
/// (`memo_first_writer_wins` → `memo`).
fn protocol(name: &str) -> &str {
    name.split('_').next().unwrap_or(name)
}

#[test]
fn every_protocol_has_a_seeded_fault_twin_with_a_counterexample() {
    let outcomes = models::all_models();
    let protocols: BTreeSet<&str> = outcomes
        .iter()
        .filter(|o| !o.expect_violation)
        .map(|o| protocol(o.name))
        .collect();
    assert_eq!(
        protocols,
        BTreeSet::from(["injector", "memo"]),
        "clean models must cover the pool injector and the striped memo"
    );
    for p in protocols {
        let twins: Vec<_> = outcomes
            .iter()
            .filter(|o| o.expect_violation && protocol(o.name) == p)
            .collect();
        assert!(!twins.is_empty(), "protocol `{p}` has no seeded-fault twin");
        for o in twins {
            let v = o
                .report
                .violation
                .as_ref()
                .unwrap_or_else(|| panic!("fault model `{}` found no counterexample", o.name));
            assert!(
                !v.schedule.is_empty(),
                "fault model `{}`: counterexample lacks a replayable schedule",
                o.name
            );
        }
    }
}

#[test]
fn clean_models_exhaust_their_bounded_schedule_space() {
    for o in models::all_models().iter().filter(|o| !o.expect_violation) {
        assert!(
            o.report.exhausted,
            "model `{}` hit a cap instead of exhausting: {}",
            o.name, o.report
        );
        assert!(
            o.report.schedules > 1,
            "model `{}` explored only {} schedule(s) — instrumentation inert?",
            o.name,
            o.report.schedules
        );
    }
}
