//! `explainbench`: the end-to-end and per-layer benchmark of the explain
//! path.
//!
//! ```sh
//! cargo run --release --offline --manifest-path explainbench/Cargo.toml -- \
//!     --workload fig8-cold --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` a run sends its workload's explains in a closed loop
//! (one client), the same pass again and again until `--seconds` have
//! passed, takes each request's fastest pass as its sample, checks every
//! output with the ground oracle outside the timed region, and prints the
//! end-to-end metrics. With `--trace 1` it runs one pass
//! untraced and the same pass with `ExplainRequest::trace(true)`, and
//! prints the per-layer metrics. Either way the last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! `explainbench/WORKLOADS.md` describes the workloads and metrics.

#![deny(unsafe_code)]

mod bench;
mod json;
mod run;
mod spans;
mod workload;

#[cfg(test)]
mod selftest;

use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};

use bench::{median, percentile, Timed, Traced};
use spans::Recorder;
use workload::Kind;

/// Set-up probes per run; `setup_s` is their median.
const SETUP_PROBES: usize = 7;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set up, print `ready`, and exit (a `setup_s` probe).
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut kind, mut seed, mut seconds, mut trace, mut setup_probe) =
        (None, None, None, false, false);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                kind = Some(Kind::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--setup-probe" => setup_probe = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
        setup_probe,
    })
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

fn metric(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Metric {
    Metric {
        name,
        unit,
        value,
        samples,
    }
}

/// Process start to ready, measured on fresh processes: each probe loads
/// or generates the inputs, builds the sessions and the pool, and runs the
/// warm-up explains. Returns the samples in seconds.
fn setup_samples(args: &Args) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut samples = Vec::with_capacity(SETUP_PROBES);
    for _ in 0..SETUP_PROBES {
        let t0 = run::now();
        let mut child = Command::new(&exe)
            .args([
                "--setup-probe",
                "--workload",
                args.kind.name(),
                "--seed",
                &args.seed.to_string(),
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning a set-up probe: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let ready = BufReader::new(stdout)
            .lines()
            .map_while(Result::ok)
            .any(|l| l == "ready");
        let elapsed = t0.elapsed().as_secs_f64();
        let status = child.wait().map_err(|e| e.to_string())?;
        if !ready || !status.success() {
            return Err(format!("set-up probe failed ({status})"));
        }
        samples.push(elapsed);
    }
    Ok(samples)
}

/// Peak resident set size of this process (MiB), from `/proc`.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn end_to_end(t: &Timed, setup: &[f64]) -> Vec<Metric> {
    let n = t.latency_ms.len();
    let nt = t.ttfi_ms.len();
    let q = t.tally.quality_explains;
    vec![
        metric("explains_per_s", "1/s", t.explains_per_s(), n),
        metric("explain_p50_ms", "ms", percentile(&t.latency_ms, 0.5), n),
        metric("explain_p90_ms", "ms", percentile(&t.latency_ms, 0.9), n),
        metric("ttfi_p50_ms", "ms", percentile(&t.ttfi_ms, 0.5), nt),
        metric("ttfi_p90_ms", "ms", percentile(&t.ttfi_ms, 0.9), nt),
        metric("setup_s", "s", median(setup), setup.len()),
        metric("coverages_total", "count", t.tally.coverages as f64, q),
        metric(
            "mean_instance_size",
            "size",
            t.tally.mean_instance_size(),
            t.tally.coverages,
        ),
        metric("peak_rss_mb", "MiB", t.peak_rss_mb, 1),
    ]
}

fn per_layer(t: &Traced) -> Vec<Metric> {
    let s = &t.stats;
    let n = t.explains;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let ms = |ns: u64| ns as f64 / 1e6;
    let waves = s.waves;
    vec![
        metric("drc.parse_us", "us", median(&t.parse_us), t.parse_us.len()),
        metric(
            "drc.compile_us",
            "us",
            median(&t.compile_us),
            t.compile_us.len(),
        ),
        metric(
            "core.session_new_us",
            "us",
            median(&t.session_new_us),
            t.session_new_us.len(),
        ),
        metric("core.explain_call_us", "us", median(&t.explain_call_us), n),
        metric("core.collect_us", "us", median(&t.collect_us), n),
        metric("core.chase_residual_share", "share", t.residual_share(), n),
        metric("core.raw_accepted", "count", t.raw_accepted as f64, n),
        metric(
            "core.accept_yield",
            "share",
            ratio(t.instances as u64, t.raw_accepted as u64),
            n,
        ),
        metric("solver.phase_share", "share", t.share(s.phase_solver_ns), n),
        metric("solver.phase_ms", "ms", ms(s.phase_solver_ns), n),
        metric("solver.canon_share", "share", t.share(s.phase_canon_ns), n),
        metric("solver.canon_ms", "ms", ms(s.phase_canon_ns), n),
        metric(
            "solver.lookups",
            "count",
            (s.solver_l1_hits + s.solver_l1_misses) as f64,
            n,
        ),
        metric("solver.l1_hit_rate", "share", s.solver_l1_hit_rate(), n),
        metric("solver.l2_hit_rate", "share", s.solver_l2_hit_rate(), n),
        metric(
            "solver.consistency_checks",
            "count",
            t.consistency_checks as f64,
            n,
        ),
        metric(
            "solver.incr_extend_share",
            "share",
            ratio(s.incr_extends, s.incr_extends + s.incr_fallbacks),
            n,
        ),
        metric(
            "instance.digest_requests",
            "count",
            (s.digest_hits + s.digest_recomputes) as f64,
            n,
        ),
        metric("instance.digest_hit_rate", "share", s.digest_hit_rate(), n),
        metric(
            "runtime.dedupe_share",
            "share",
            t.share(s.phase_dedupe_ns),
            n,
        ),
        metric("runtime.dedupe_ms", "ms", ms(s.phase_dedupe_ns), n),
        metric("runtime.dedupe_offers", "count", s.dedupe_offers as f64, n),
        metric(
            "runtime.dedupe_dup_share",
            "share",
            ratio(s.dedupe_duplicates, s.dedupe_offers),
            n,
        ),
        metric("runtime.iso_checks", "count", s.dedupe_iso_checks as f64, n),
        metric("runtime.sched_share", "share", t.share(s.phase_sched_ns), n),
        metric("runtime.sched_ms", "ms", ms(s.phase_sched_ns), n),
        metric("runtime.waves", "count", waves as f64, n),
        metric(
            "runtime.spilled_share",
            "share",
            ratio(s.spilled_waves, waves),
            n,
        ),
        metric("runtime.steals", "count", s.steals as f64, n),
        metric(
            "runtime.resident_batches",
            "count",
            s.resident_batches as f64,
            n,
        ),
        metric(
            "runtime.l2_contended",
            "count",
            (s.solver_l2.contended + s.sat_l2.contended) as f64,
            n,
        ),
        metric(
            "eval.oracle_ms",
            "ms",
            t.tally.oracle.as_secs_f64() * 1e3,
            t.tally.attempted,
        ),
        metric(
            "obs.trace_overhead_share",
            "share",
            t.traced_wall.as_secs_f64() / t.untraced_wall.as_secs_f64() - 1.0,
            n,
        ),
        metric("obs.dropped_events", "count", t.dropped_events as f64, n),
    ]
}

/// The human-readable report, then the result line.
fn render(args: &Args, metrics: &[Metric], tally: &bench::Tally) -> String {
    let label = if args.trace {
        "per-layer"
    } else {
        "end-to-end"
    };
    let mut out = format!(
        "{label} metrics, workload {} seed {} ({} explains attempted, {} failed, fail_share {:.6}):\n",
        args.kind.name(),
        args.seed,
        tally.attempted,
        tally.failed,
        tally.failed as f64 / tally.attempted.max(1) as f64
    );
    for m in metrics {
        out += &format!(
            "  {:<28} {:>16.6} {:<6} n={}\n",
            m.name, m.value, m.unit, m.samples
        );
    }
    for f in &tally.failures {
        let known = if tally.unexpected.contains(f) {
            ""
        } else {
            " (known)"
        };
        out += &format!("  failed: {f}{known}\n");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json::num(m.value),
                m.unit
            )
        })
        .collect();
    out += &format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
        tally.unexpected.is_empty(),
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    out
}

/// Writes the benchmark's own spans and the program's self time per span
/// name under `.bench_out/` in the working directory.
fn write_spans(args: &Args, rec: &Recorder, t: &Traced) -> Result<(), String> {
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let selfs: Vec<String> = t
        .program_self_ns
        .iter()
        .map(|(k, v)| format!("\"{}\": {}", json::escape(k), json::num(*v)))
        .collect();
    let doc = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"program_self_ns\": {{{}}}, \"benchmark\": {}}}",
        args.kind.name(),
        args.seed,
        selfs.join(", "),
        rec.to_json()
    );
    let path = dir.join(format!("spans-{}-seed{}.json", args.kind.name(), args.seed));
    std::fs::write(&path, doc).map_err(|e| format!("{}: {e}", path.display()))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("explainbench: {e}");
            eprintln!(
                "usage: explainbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if args.setup_probe {
        let ready = bench::set_up(args.kind, args.seed, 1.0, None);
        std::hint::black_box(&ready.w.items.len());
        println!("ready");
        return ExitCode::SUCCESS;
    }
    // Per-layer runs report no set-up time.
    let setup = if args.trace {
        Vec::new()
    } else {
        match setup_samples(&args) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("explainbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    let epoch = run::now();
    let mut ready = bench::set_up(args.kind, args.seed, 1.0, None);
    if args.trace {
        let mut rec = Recorder::new(epoch);
        let t = bench::traced(&mut ready, &mut rec);
        let mut top: Vec<(&String, &f64)> = t.program_self_ns.iter().collect();
        top.sort_by(|a, b| b.1.total_cmp(a.1));
        println!("program self time per span name (ms, summed over threads):");
        for (name, ns) in top.iter().take(12) {
            println!("  {name:<28} {:>12.3}", *ns / 1e6);
        }
        if let Err(e) = write_spans(&args, &rec, &t) {
            eprintln!("explainbench: writing spans: {e}");
            return ExitCode::FAILURE;
        }
        print!("{}", render(&args, &per_layer(&t), &t.tally));
    } else {
        let timed = bench::measure(&mut ready, args.seconds);
        print!(
            "{}",
            render(&args, &end_to_end(&timed, &setup), &timed.tally)
        );
    }
    ExitCode::SUCCESS
}
