//! Spans: the benchmark's own, around each public call it makes, and the
//! self time per span name of the program's Chrome trace.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::{self, escape, Json};

/// One span the benchmark recorded around a call into the program.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub request: usize,
}

/// Spans kept in memory for the whole run and written out at its end.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records `[from, to]` under `parent`; returns the span's index.
    pub fn record(
        &mut self,
        name: &'static str,
        from: Instant,
        to: Instant,
        parent: Option<usize>,
        request: usize,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.ns(from),
            end_ns: self.ns(to),
            parent,
            request,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                format!(
                    "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"request\": {}}}",
                    escape(s.name),
                    s.start_ns,
                    s.end_ns,
                    s.parent.map_or("null".to_owned(), |p| p.to_string()),
                    s.request
                )
            })
            .collect();
        format!("{{\"spans\": [\n{}\n]}}\n", rows.join(",\n"))
    }
}

/// Self time per span name (ns) of a Chrome trace-event document: each
/// complete event's duration minus the part its children on the same
/// thread cover. Returns the map and the number of events the program's
/// ring buffers dropped.
pub fn chrome_self_ns(doc: &str) -> Result<(BTreeMap<String, f64>, u64), String> {
    let v = json::parse(doc)?;
    let dropped = v
        .get("otherData")
        .and_then(|o| o.get("overwritten_events"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0) as u64;
    let mut by_tid: BTreeMap<i64, Vec<(f64, f64, String)>> = BTreeMap::new();
    for e in v.get("traceEvents").map(Json::as_arr).unwrap_or(&[]) {
        if e.get("ph").and_then(Json::as_str) != Some("X") {
            continue;
        }
        let field = |k: &str| {
            e.get(k)
                .and_then(Json::as_f64)
                .ok_or(format!("event without {k}"))
        };
        let name = e
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_owned();
        // Chrome trace times are microseconds.
        by_tid.entry(field("tid")? as i64).or_default().push((
            field("ts")? * 1e3,
            field("dur")? * 1e3,
            name,
        ));
    }
    let mut selfs: BTreeMap<String, f64> = BTreeMap::new();
    for events in by_tid.values_mut() {
        events.sort_by(|a, b| a.0.total_cmp(&b.0).then(b.1.total_cmp(&a.1)));
        // Open ancestors as (end, name); a child starts before its parent
        // ends (the exported times are rounded to the nanosecond).
        let mut stack: Vec<(f64, &str)> = Vec::new();
        for (ts, dur, name) in events.iter() {
            while stack.last().is_some_and(|(end, _)| *end <= *ts) {
                stack.pop();
            }
            if let Some((end, parent)) = stack.last() {
                let covered = dur.min(end - ts).max(0.0);
                *selfs.entry((*parent).to_owned()).or_default() -= covered;
            }
            *selfs.entry(name.clone()).or_default() += dur;
            stack.push((ts + dur, name));
        }
    }
    Ok((selfs, dropped))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_per_thread() {
        let doc = r#"{"otherData": {"overwritten_events": 3}, "traceEvents": [
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1, "args": {"name": "t"}},
            {"name": "req", "cat": "c", "ph": "X", "pid": 1, "tid": 1, "ts": 0.0, "dur": 10.0},
            {"name": "solve", "cat": "c", "ph": "X", "pid": 1, "tid": 1, "ts": 1.0, "dur": 3.0},
            {"name": "canon", "cat": "c", "ph": "X", "pid": 1, "tid": 1, "ts": 1.5, "dur": 1.0},
            {"name": "solve", "cat": "c", "ph": "X", "pid": 1, "tid": 1, "ts": 5.0, "dur": 2.0},
            {"name": "solve", "cat": "c", "ph": "X", "pid": 1, "tid": 2, "ts": 2.0, "dur": 4.0}
        ]}"#;
        let (selfs, dropped) = chrome_self_ns(doc).unwrap();
        assert_eq!(dropped, 3);
        assert_eq!(selfs["req"], 5_000.0);
        assert_eq!(selfs["solve"], 2_000.0 + 2_000.0 + 4_000.0);
        assert_eq!(selfs["canon"], 1_000.0);
    }
}
