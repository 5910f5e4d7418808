//! The benchmark's self-test: short versions of every workload, checked
//! against `BENCHMARK.json` and against invariants the layers' counters
//! must keep.
//!
//! ```sh
//! cargo test --offline --manifest-path explainbench/Cargo.toml
//! ```

use std::sync::Mutex;

use crate::bench::{self, Ready};
use crate::json::{self, Json};
use crate::spans::Recorder;
use crate::workload::Kind;
use crate::{end_to_end, per_layer, render, Args};

/// Trace capture is process-global: a traced explain must not overlap
/// another test's explains.
static SERIAL: Mutex<()> = Mutex::new(());

/// The fraction of a full pass each short run sends.
fn short(kind: Kind) -> f64 {
    match kind {
        Kind::Fig8Cold => 0.05,
        Kind::Fig11EoCold => 0.05,
        Kind::ServeWarmT2 => 0.1,
        Kind::GenSmall => 0.02,
    }
}

fn ready(kind: Kind, threads: Option<usize>) -> Ready {
    bench::set_up(kind, 1, short(kind), threads)
}

fn args(kind: Kind, trace: bool) -> Args {
    Args {
        kind,
        seed: 1,
        seconds: 0.0,
        trace,
        setup_probe: false,
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let src = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&src).expect("BENCHMARK.json parses")
}

/// Every metric `BENCHMARK.json` names appears in the result line with its
/// unit and a finite value, and nothing else does.
fn assert_reports(report: &str, declared: &Json) {
    let last = report.lines().last().expect("a result line");
    let result = json::parse(last).expect("the result line is JSON");
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{report}");
    let metrics = match result.get("metrics") {
        Some(Json::Obj(m)) => m,
        other => panic!("no metrics object: {other:?}"),
    };
    let declared = declared.as_arr();
    assert_eq!(metrics.len(), declared.len(), "{report}");
    for d in declared {
        let name = d.get("name").and_then(Json::as_str).expect("a metric name");
        let unit = d.get("unit").and_then(Json::as_str).expect("a metric unit");
        let m = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{name} missing:\n{report}"));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit), "{name}");
        let v = m.get("value").and_then(Json::as_f64);
        assert!(v.is_some_and(f64::is_finite), "{name} = {v:?}\n{report}");
        assert!(report
            .lines()
            .any(|l| l.trim_start().starts_with(name) && l.contains(unit)));
    }
}

#[test]
fn every_declared_metric_is_reported_with_its_unit() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let decl = benchmark_json();
    for w in decl.get("workloads").expect("workloads").as_arr() {
        let name = w
            .get("name")
            .and_then(Json::as_str)
            .expect("a workload name");
        let kind = Kind::parse(name).unwrap_or_else(|| panic!("unknown workload {name}"));

        let mut r = ready(kind, None);
        let timed = bench::measure(&mut r, 0.0);
        let report = render(
            &args(kind, false),
            &end_to_end(&timed, &[0.5, 0.6]),
            &timed.tally,
        );
        assert_reports(&report, decl.get("end_to_end").expect("end_to_end"));

        let mut r = ready(kind, None);
        let t = bench::traced(&mut r, &mut Recorder::new(crate::run::now()));
        let report = render(&args(kind, true), &per_layer(&t), &t.tally);
        assert_reports(&report, decl.get("per_layer").expect("per_layer"));
    }
}

#[test]
fn traced_counters_keep_their_invariants() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    for kind in Kind::ALL {
        let mut r = ready(kind, None);
        let threads = r.w.cfg.threads;
        let t = bench::traced(&mut r, &mut Recorder::new(crate::run::now()));
        let s = &t.stats;
        assert!(t.explains > 0, "{}", kind.name());
        assert!(
            s.dedupe_duplicates <= s.dedupe_offers,
            "{}: {s:?}",
            kind.name()
        );
        assert!(t.instances <= t.raw_accepted, "{}", kind.name());
        if threads == 1 {
            let phases =
                s.phase_solver_ns + s.phase_canon_ns + s.phase_dedupe_ns + s.phase_sched_ns;
            assert!(
                phases as u128 <= t.chase_wall.as_nanos(),
                "{}: phases {phases} ns > wall {:?}",
                kind.name(),
                t.chase_wall
            );
        }
    }
}

#[test]
fn quality_does_not_depend_on_the_thread_budget() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    for kind in Kind::ALL {
        let quality = |threads| {
            let mut r = ready(kind, Some(threads));
            let t = bench::measure(&mut r, 0.0).tally;
            (t.coverages, t.mean_instance_size())
        };
        let one = quality(1);
        assert!(one.0 > 0, "{}", kind.name());
        assert_eq!(one, quality(2), "{}", kind.name());
    }
}

#[test]
fn the_seed_fixes_the_requests() {
    for kind in Kind::ALL {
        let order = |seed| {
            let mut w = crate::workload::Workload::new(kind, seed, short(kind));
            let names: Vec<String> = w
                .next_pass()
                .iter()
                .map(|r| format!("{}/{}", w.items[r.item].name, r.variant.name()))
                .collect();
            names
        };
        assert_eq!(order(7), order(7), "{}", kind.name());
        assert_ne!(order(7), order(8), "{}", kind.name());
    }
}
