//! Set-up, the timed closed loop, and the traced pass.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use cqi_core::{ChaseStats, Session, Variant};
use cqi_drc::{pretty, SyntaxTree};

use crate::run::{self, Outcome};
use crate::spans::{chrome_self_ns, Recorder};
use crate::workload::{Kind, Request, SessionMode, Workload};

/// A workload with its inputs built and its session (if it keeps one)
/// warmed: what set-up produces.
pub struct Ready {
    pub w: Workload,
    pub shared: Option<Session>,
}

/// Loads or generates the inputs, builds the long-lived session, and runs
/// the untimed warm-up explains.
pub fn set_up(kind: Kind, seed: u64, scale: f64, threads: Option<usize>) -> Ready {
    let mut w = Workload::new(kind, seed, scale);
    if let Some(n) = threads {
        w = w.with_threads(n);
    }
    let shared = warmed_session(&w);
    if shared.is_none() {
        warm_up(&w, None);
    }
    Ready { w, shared }
}

/// The long-lived session of a shared-session workload, built and warmed
/// (its first explain also spawns the resident pool).
pub fn warmed_session(w: &Workload) -> Option<Session> {
    if w.mode != SessionMode::Shared {
        return None;
    }
    let s = Session::new(w.items[0].schema.clone()).config(w.cfg.clone());
    warm_up(w, Some(&s));
    Some(s)
}

fn warm_up(w: &Workload, shared: Option<&Session>) {
    for &item in &w.warmup {
        let out = run::explain(
            w,
            shared,
            Request {
                item,
                variant: Variant::ConjEO,
            },
            false,
        );
        std::hint::black_box(out.accepted.len());
    }
}

/// What the untimed part of a run keeps of each explain: the failure
/// tally and, for the first pass, the c-solution quality.
#[derive(Default)]
pub struct Tally {
    pub attempted: usize,
    pub failed: usize,
    /// Failures not on [`run::KNOWN_FAILURES`].
    pub unexpected: Vec<String>,
    /// Every failure, as `query/variant: reason`.
    pub failures: Vec<String>,
    /// Distinct coverage classes returned over the first pass: one minimal
    /// instance each.
    pub coverages: usize,
    /// The summed size of those minimal instances.
    pub size_sum: usize,
    pub quality_explains: usize,
    pub oracle: Duration,
}

impl Tally {
    /// Checks one explain's output (outside the timed region) and counts it.
    pub fn observe(&mut self, w: &Workload, req: Request, out: &Outcome, first_pass: bool) {
        let item = &w.items[req.item];
        let t = run::now();
        let verdict = run::check(item, w.cfg.enforce_keys, out);
        self.oracle += t.elapsed();
        self.attempted += 1;
        if let Err(f) = verdict {
            self.failed += 1;
            let line = format!("{}/{}: {}", item.name, req.variant.name(), f.describe());
            if !run::is_known(item, req.variant, &f) {
                self.unexpected.push(line.clone());
            }
            self.failures.push(line);
        }
        if first_pass {
            if let Ok(sol) = &out.result {
                self.quality_explains += 1;
                self.coverages += sol.num_coverages();
                self.size_sum += sol.instances.iter().map(|i| i.size()).sum::<usize>();
            }
        }
    }

    /// A repeated explain must stream the same coverages in the same order.
    pub fn same_stream(&mut self, w: &Workload, req: Request, first: &Outcome, again: &Outcome) {
        let coverages = |o: &Outcome| {
            o.accepted
                .iter()
                .map(|a| a.coverage.clone())
                .collect::<Vec<_>>()
        };
        if coverages(first) != coverages(again) {
            let item = &w.items[req.item];
            let line = format!(
                "{}/{}: a repeat streamed other instances",
                item.name,
                req.variant.name()
            );
            self.failed += 1;
            self.unexpected.push(line.clone());
            self.failures.push(line);
        }
    }

    pub fn mean_instance_size(&self) -> f64 {
        self.size_sum as f64 / self.coverages.max(1) as f64
    }
}

/// The timed samples of an untraced run: one per request, its fastest
/// pass.
#[derive(Default)]
pub struct Timed {
    pub latency_ms: Vec<f64>,
    /// Over the requests that yield an instance.
    pub ttfi_ms: Vec<f64>,
    /// The process's peak resident set after set-up and the first pass.
    /// Later passes build sessions again, and how much of the memory they
    /// free the allocator keeps depends on how many passes fit in a run.
    pub peak_rss_mb: f64,
    pub passes: usize,
    pub tally: Tally,
}

impl Timed {
    pub fn explains_per_s(&self) -> f64 {
        self.latency_ms.len() as f64 / (self.latency_ms.iter().sum::<f64>() / 1e3)
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Passes a run makes at least, whatever `--seconds` says: the minimum
/// over passes needs a few samples of every request.
pub const MIN_PASSES: usize = 3;

/// The closed loop: one client sends the next explain when the previous
/// stream has closed. The run's pass (one order, drawn from the seed) is
/// sent whole, again and again, until `seconds` have passed; on a
/// shared-session workload each pass goes to its own freshly built and
/// warmed session, so the k-th request meets the same cache state every
/// time. A request's sample is its fastest pass: the passes are seconds
/// apart, so a burst of load from other tenants of the host, which only
/// ever slows a request down, has to cover every pass to move it.
///
/// The first pass's outputs go through the ground oracle; every later
/// pass must stream the same coverages in the same order.
pub fn measure(ready: &mut Ready, seconds: f64) -> Timed {
    let pass = ready.w.next_pass();
    let w = &ready.w;
    let mut timed = Timed::default();
    let mut latency = vec![f64::INFINITY; pass.len()];
    let mut ttfi: Vec<Option<f64>> = vec![None; pass.len()];
    let mut first: Vec<Outcome> = Vec::with_capacity(pass.len());
    let t0 = run::now();
    while timed.passes < MIN_PASSES || t0.elapsed().as_secs_f64() < seconds {
        let session = match timed.passes {
            0 => ready.shared.take(),
            _ => warmed_session(w),
        };
        for (k, &req) in pass.iter().enumerate() {
            let out = run::explain(w, session.as_ref(), req, false);
            latency[k] = latency[k].min(ms(out.latency()));
            if let Some(t) = out.ttfi.map(ms) {
                ttfi[k] = Some(ttfi[k].map_or(t, |b| b.min(t)));
            }
            if timed.passes == 0 {
                timed.tally.observe(w, req, &out, true);
                first.push(out);
            } else {
                timed.tally.same_stream(w, req, &first[k], &out);
            }
        }
        if timed.passes == 0 {
            timed.peak_rss_mb = crate::peak_rss_mb();
        }
        timed.passes += 1;
    }
    timed.latency_ms = latency;
    timed.ttfi_ms = ttfi.into_iter().flatten().collect();
    timed
}

/// The `q` quantile (0 < q < 1) of unsorted samples by the Harrell-Davis
/// estimator: a Beta-weighted mean of all order statistics. Nearest-rank
/// quantiles jump between neighbouring samples where the distribution is
/// sparse (the upper tail of explain latencies); this one moves smoothly.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let (a, b) = (q * (n + 1.0), (1.0 - q) * (n + 1.0));
    let mut prev = 0.0;
    let mut sum = 0.0;
    for (i, x) in v.iter().enumerate() {
        let cdf = beta_cdf(a, b, (i + 1) as f64 / n);
        sum += (cdf - prev) * x;
        prev = cdf;
    }
    sum
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// The regularized incomplete beta function I_x(a, b).
fn beta_cdf(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    if x < (a + 1.0) / (a + b + 2.0) {
        ln_front.exp() * beta_cf(a, b, x) / a
    } else {
        1.0 - ln_front.exp() * beta_cf(b, a, 1.0 - x) / b
    }
}

/// The continued fraction of I_x(a, b) (modified Lentz).
fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let clamp = |v: f64| if v.abs() < TINY { TINY } else { v };
    let mut c = 1.0;
    let mut d = 1.0 / clamp(1.0 - (a + b) * x / (a + 1.0));
    let mut h = d;
    for m in 1..=500 {
        let m = m as f64;
        let even = m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m));
        d = 1.0 / clamp(1.0 + even * d);
        c = clamp(1.0 + even / c);
        h *= d * c;
        let odd = -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0));
        d = 1.0 / clamp(1.0 + odd * d);
        c = clamp(1.0 + odd / c);
        let step = d * c;
        h *= step;
        if (step - 1.0).abs() < 1e-14 {
            break;
        }
    }
    h
}

/// ln Γ(x) for x > 0 (Lanczos, g = 7).
fn ln_gamma(x: f64) -> f64 {
    const G: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let t = x + 7.5;
    let series = G[1..]
        .iter()
        .enumerate()
        .fold(G[0], |acc, (i, g)| acc + g / (x + i as f64 + 1.0));
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + series.ln()
}

/// What the traced run measures, per layer.
#[derive(Default)]
pub struct Traced {
    pub explains: usize,
    pub threads: usize,
    pub parse_us: Vec<f64>,
    pub compile_us: Vec<f64>,
    pub session_new_us: Vec<f64>,
    pub explain_call_us: Vec<f64>,
    pub collect_us: Vec<f64>,
    /// Summed `ChaseStats` of the traced explains.
    pub stats: ChaseStats,
    pub raw_accepted: usize,
    pub instances: usize,
    /// Summed chase wall time (`CSolution::total_time`) of the traced
    /// explains.
    pub chase_wall: Duration,
    pub untraced_wall: Duration,
    pub traced_wall: Duration,
    pub consistency_checks: u64,
    /// Self time per span name of the program's traces (ns, summed over
    /// threads).
    pub program_self_ns: BTreeMap<String, f64>,
    pub dropped_events: u64,
    pub tally: Tally,
}

impl Traced {
    fn phase_ns(&self) -> [u64; 4] {
        let s = &self.stats;
        [
            s.phase_solver_ns,
            s.phase_canon_ns,
            s.phase_dedupe_ns,
            s.phase_sched_ns,
        ]
    }

    /// A phase's share of the chase's thread time: wall time on one
    /// thread, wall time × threads on more (per-thread sums can exceed
    /// wall time there).
    pub fn share(&self, ns: u64) -> f64 {
        ns as f64 / (self.chase_wall.as_nanos() as f64 * self.threads as f64)
    }

    pub fn residual_share(&self) -> f64 {
        1.0 - self.share(self.phase_ns().iter().sum())
    }
}

fn consistency_checks() -> u64 {
    cqi_obs::global()
        .counter(
            "cqi_consistency_checks_total",
            "IsConsistent decisions on the chase hot path (memo hits included)",
            &[],
        )
        .get()
}

fn us(from: Instant, to: Instant) -> f64 {
    (to - from).as_secs_f64() * 1e6
}

/// One pass untraced, then the same pass traced (on a second, identically
/// warmed session for shared-session workloads), timing the benchmark's
/// own calls into each layer and reading what the program reports.
pub fn traced(ready: &mut Ready, rec: &mut Recorder) -> Traced {
    let pass = ready.w.next_pass();
    let mut t = Traced {
        threads: ready.w.cfg.threads,
        ..Traced::default()
    };
    for &req in &pass {
        let out = run::explain(&ready.w, ready.shared.as_ref(), req, false);
        t.untraced_wall += out.latency();
        t.tally.observe(&ready.w, req, &out, true);
    }
    let second = warmed_session(&ready.w);
    let w = &ready.w;
    let checks_before = consistency_checks();
    for (rid, &req) in pass.iter().enumerate() {
        let item = &w.items[req.item];
        let text = item
            .text
            .clone()
            .unwrap_or_else(|| pretty::query_to_string(&item.query));
        // The front-end calls a text request makes inside `Session::explain`,
        // timed here on their own.
        let p0 = run::now();
        let parsed = cqi_drc::parse_query(&item.schema, &text);
        let p1 = run::now();
        let tree = parsed.map(SyntaxTree::new);
        let p2 = run::now();
        std::hint::black_box(&tree);
        let parse = rec.record("drc.parse_query", p0, p1, None, rid);
        rec.record("drc.syntax_tree_new", p1, p2, Some(parse), rid);
        t.parse_us.push(us(p0, p1));
        t.compile_us.push(us(p1, p2));
        if w.mode == SessionMode::Shared {
            let s0 = run::now();
            std::hint::black_box(Session::new(item.schema.clone()).config(w.cfg.clone()));
            let s1 = run::now();
            rec.record("core.session_new", s0, s1, None, rid);
            t.session_new_us.push(us(s0, s1));
        }

        let out = run::explain(w, second.as_ref(), req, true);
        let m = out.marks;
        let root = rec.record("request", m.start, m.collect, None, rid);
        if w.mode == SessionMode::Fresh {
            rec.record("core.session_new", m.start, m.session_new, Some(root), rid);
            t.session_new_us.push(m.session_new().as_secs_f64() * 1e6);
        }
        rec.record(
            "core.explain",
            m.session_new,
            m.explain_call,
            Some(root),
            rid,
        );
        rec.record("core.stream", m.explain_call, m.stream, Some(root), rid);
        rec.record("core.collect", m.stream, m.collect, Some(root), rid);
        t.explain_call_us.push(m.explain_call().as_secs_f64() * 1e6);
        t.collect_us.push(m.collect().as_secs_f64() * 1e6);
        t.traced_wall += out.latency();
        t.explains += 1;
        if let Ok(sol) = &out.result {
            t.stats.merge(&sol.stats);
            t.raw_accepted += sol.raw_accepted;
            t.instances += sol.instances.len();
            t.chase_wall += sol.total_time;
            if let Some(doc) = &sol.trace {
                match chrome_self_ns(doc) {
                    Ok((selfs, dropped)) => {
                        for (name, ns) in selfs {
                            *t.program_self_ns.entry(name).or_default() += ns;
                        }
                        t.dropped_events += dropped;
                    }
                    Err(e) => t.tally.unexpected.push(format!("unreadable trace: {e}")),
                }
            }
        }
        let c0 = run::now();
        t.tally.observe(w, req, &out, false);
        rec.record("eval.oracle", c0, run::now(), None, rid);
    }
    t.consistency_checks = consistency_checks() - checks_before;
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harrell_davis_quantiles() {
        assert!(percentile(&[], 0.5).is_nan());
        assert!((percentile(&[4.0; 7], 0.9) - 4.0).abs() < 1e-9);
        let xs: Vec<f64> = (1..=101).map(f64::from).collect();
        assert!((median(&xs) - 51.0).abs() < 1e-6, "{}", median(&xs));
        // Symmetric weights around the middle of a symmetric sample.
        assert!((percentile(&xs, 0.1) + percentile(&xs, 0.9) - 102.0).abs() < 1e-6);
        let p90 = percentile(&xs, 0.9);
        assert!(p90 > 89.0 && p90 < 93.0, "{p90}");
        // Large samples stay finite and ordered.
        let big: Vec<f64> = (0..20_000).map(|i| (i % 997) as f64).collect();
        let (a, b) = (percentile(&big, 0.5), percentile(&big, 0.9));
        assert!(a.is_finite() && b.is_finite() && a < b, "{a} {b}");
    }
}
