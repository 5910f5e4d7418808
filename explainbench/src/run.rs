//! One explain through the public API, timed call by call, and the output
//! check that follows it outside the timed region.

use std::time::{Duration, Instant};

use cqi_core::{AcceptedInstance, CSolution, ExplainRequest, SatInstance, Session, Variant};
use cqi_fuzz::{check_solution, DivergenceKind};

use crate::workload::{Item, Request, SessionMode, Workload};

/// The benchmark's clock: measuring wall time is its purpose.
pub fn now() -> Instant {
    Instant::now() // lint:allow(wall-clock) the benchmark times the program's public calls
}

/// The instants at which one explain crossed each public call, in call
/// order: the request, after `Session::new` (fresh-session workloads
/// only), after `Session::explain` (compile plus the stream worker's
/// spawn), at the stream's end, and after `SolutionStream::collect`.
#[derive(Clone, Copy, Debug)]
pub struct Marks {
    pub start: Instant,
    pub session_new: Instant,
    pub explain_call: Instant,
    pub stream: Instant,
    pub collect: Instant,
}

impl Marks {
    pub fn session_new(&self) -> Duration {
        self.session_new - self.start
    }

    pub fn explain_call(&self) -> Duration {
        self.explain_call - self.session_new
    }

    pub fn collect(&self) -> Duration {
        self.collect - self.stream
    }
}

/// What one explain produced.
pub struct Outcome {
    pub marks: Marks,
    /// From `Session::explain` to the first `AcceptedInstance`.
    pub ttfi: Option<Duration>,
    /// Every instance the stream yielded.
    pub accepted: Vec<AcceptedInstance>,
    pub result: Result<CSolution, String>,
}

impl Outcome {
    /// From the request (before `Session::new` on fresh-session workloads)
    /// to the stream closing.
    pub fn latency(&self) -> Duration {
        self.marks.collect - self.marks.start
    }
}

/// Runs one request. `shared` is the long-lived session of a shared-session
/// workload.
pub fn explain(w: &Workload, shared: Option<&Session>, req: Request, trace: bool) -> Outcome {
    let item = &w.items[req.item];
    let start = now();
    let fresh;
    let session = match (w.mode, shared) {
        (SessionMode::Shared, Some(s)) => s,
        _ => {
            fresh = Session::new(item.schema.clone()).config(w.cfg.clone());
            &fresh
        }
    };
    let session_new = now();
    let base = match (&item.tree, &item.text) {
        (Some(tree), _) => ExplainRequest::tree(tree),
        (None, Some(text)) => ExplainRequest::drc(text),
        (None, None) => unreachable!("every item is a tree or a text"),
    };
    let stream = session.explain(base.variant(req.variant).trace(trace));
    let explain_call = now();
    let mut marks = Marks {
        start,
        session_new,
        explain_call,
        stream: explain_call,
        collect: explain_call,
    };
    let mut stream = match stream {
        Ok(s) => s,
        Err(e) => {
            return Outcome {
                marks,
                ttfi: None,
                accepted: Vec::new(),
                result: Err(format!("{e:?}")),
            }
        }
    };
    let mut ttfi = None;
    let mut accepted = Vec::new();
    for acc in stream.by_ref() {
        if ttfi.is_none() {
            ttfi = Some(session_new.elapsed());
        }
        accepted.push(acc);
    }
    marks.stream = now();
    let sol = stream.collect();
    marks.collect = now();
    Outcome {
        marks,
        ttfi,
        accepted,
        result: Ok(sol),
    }
}

/// Why an explain failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Failure {
    Error(String),
    Interrupted(&'static str),
    Oracle(DivergenceKind),
}

impl Failure {
    pub fn describe(&self) -> String {
        match self {
            Failure::Error(e) => format!("error: {e}"),
            Failure::Interrupted(why) => format!("interrupted: {why}"),
            Failure::Oracle(k) => format!("oracle: {}", k.as_str()),
        }
    }
}

/// Failures the program is known to produce today. They stay in the
/// workloads and are counted in `failed`; a run is `correct` when every
/// failure it saw is on this list.
pub const KNOWN_FAILURES: &[(&str, Variant, DivergenceKind)] = &[
    // At limit 10 Disj-Add accepts an instance whose grounded world fails
    // the query.
    ("Q5A-Q5B", Variant::DisjAdd, DivergenceKind::GroundUnsat),
    // An integral constant on a Real column prints as an integer and
    // parses back as an Int (`R0(x0, x1, 4)`); with keys on, the chase then
    // accepts an instance that has no consistent model.
    (
        "gen#1258",
        Variant::ConjAdd,
        DivergenceKind::InconsistentAccept,
    ),
    (
        "gen#2355",
        Variant::ConjEO,
        DivergenceKind::InconsistentAccept,
    ),
];

pub fn is_known(item: &Item, variant: Variant, f: &Failure) -> bool {
    KNOWN_FAILURES
        .iter()
        .any(|(name, v, k)| item.name == *name && *v == variant && *f == Failure::Oracle(*k))
}

/// The output check: the explain returned, ran to completion, and every
/// instance it streamed grounds to a world that satisfies the query.
pub fn check(item: &Item, keys: bool, out: &Outcome) -> Result<(), Failure> {
    let sol = out.result.as_ref().map_err(|e| Failure::Error(e.clone()))?;
    if let Some(i) = sol.interrupted {
        return Err(Failure::Interrupted(i.as_str()));
    }
    let streamed = CSolution {
        instances: out
            .accepted
            .iter()
            .map(|a| SatInstance {
                inst: a.inst.clone(),
                coverage: a.coverage.clone(),
                accepted_at: a.accepted_at,
            })
            .collect(),
        raw_accepted: sol.raw_accepted,
        timed_out: sol.timed_out,
        interrupted: sol.interrupted,
        total_time: sol.total_time,
        stats: sol.stats,
        trace: None,
    };
    check_solution(&item.query, &streamed, keys)
        .map(|_| ())
        .map_err(|d| Failure::Oracle(d.kind))
}
