//! Harness-side tracing: one span around every call the harness makes into
//! a layer of the runtime. The runtime is not instrumented; the spans are
//! recorded from outside, kept in memory, and written out when the traced
//! run ends. A disabled tracer (every `run`) reads no clock at all.

use ompc_json::Json;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct HarnessSpan {
    /// Layer-qualified name of the call, e.g. `sched.plan`.
    pub name: &'static str,
    /// Workload the call belongs to (`layers` for workload-free probes).
    pub workload: &'static str,
    /// Sample of that workload the call belongs to.
    pub sample: usize,
    /// Index of the enclosing span in the recording, if any.
    pub parent: Option<usize>,
    /// Start, in microseconds since the tracer was created.
    pub start_us: u64,
    /// End, same clock.
    pub end_us: u64,
}

#[derive(Debug)]
struct Recording {
    epoch: Instant,
    spans: Vec<HarnessSpan>,
    open: Vec<usize>,
    workload: &'static str,
    sample: usize,
}

/// Records [`HarnessSpan`]s when enabled; a transparent pass-through when
/// not. The harness is single-threaded, so interior mutability suffices.
#[derive(Debug)]
pub struct Tracer(Option<RefCell<Recording>>);

impl Tracer {
    /// A tracer that records nothing and reads no clock.
    pub fn off() -> Self {
        Tracer(None)
    }

    /// A recording tracer whose clock starts now.
    pub fn on() -> Self {
        Tracer(Some(RefCell::new(Recording {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            workload: "layers",
            sample: 0,
        })))
    }

    /// Tag the spans recorded from now on.
    pub fn scope(&self, workload: &'static str, sample: usize) {
        if let Some(rec) = &self.0 {
            let mut rec = rec.borrow_mut();
            rec.workload = workload;
            rec.sample = sample;
        }
    }

    /// Run `f` inside a span called `name`, nested in whichever span is
    /// open.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let Some(rec) = &self.0 else { return f() };
        let index = {
            let mut rec = rec.borrow_mut();
            let index = rec.spans.len();
            let start_us = rec.epoch.elapsed().as_micros() as u64;
            let span = HarnessSpan {
                name,
                workload: rec.workload,
                sample: rec.sample,
                parent: rec.open.last().copied(),
                start_us,
                end_us: start_us,
            };
            rec.spans.push(span);
            rec.open.push(index);
            index
        };
        let out = f();
        let mut rec = rec.borrow_mut();
        rec.spans[index].end_us = rec.epoch.elapsed().as_micros() as u64;
        rec.open.pop();
        out
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> Vec<HarnessSpan> {
        self.0.as_ref().map(|rec| rec.borrow().spans.clone()).unwrap_or_default()
    }
}

/// Self time per span name, in seconds: each span's duration minus the
/// part of it its direct children cover, summed over spans of one name.
pub fn self_times(spans: &[HarnessSpan]) -> BTreeMap<&'static str, f64> {
    let mut own: Vec<i64> = spans.iter().map(|s| (s.end_us - s.start_us) as i64).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] -= (span.end_us - span.start_us) as i64;
        }
    }
    let mut by_name = BTreeMap::new();
    for (span, us) in spans.iter().zip(own) {
        *by_name.entry(span.name).or_insert(0.0) += us.max(0) as f64 * 1e-6;
    }
    by_name
}

/// The spans of one workload, with parent indices rewritten to positions
/// in the returned list (a parent from another workload is dropped).
pub fn of_workload(spans: &[HarnessSpan], workload: &str) -> Vec<HarnessSpan> {
    let kept: Vec<usize> = (0..spans.len()).filter(|&i| spans[i].workload == workload).collect();
    let position: BTreeMap<usize, usize> = kept.iter().enumerate().map(|(p, &i)| (i, p)).collect();
    kept.iter()
        .map(|&i| HarnessSpan {
            parent: spans[i].parent.and_then(|p| position.get(&p).copied()),
            ..spans[i].clone()
        })
        .collect()
}

/// A span list as a JSON document.
pub fn spans_json(spans: &[HarnessSpan], workload: &str) -> Json {
    let rows = spans
        .iter()
        .map(|s| {
            Json::obj([
                ("name", Json::str(s.name)),
                ("sample", Json::usize(s.sample)),
                ("parent", s.parent.map_or(Json::Null, Json::usize)),
                ("start_us", Json::u64(s.start_us)),
                ("end_us", Json::u64(s.end_us)),
            ])
        })
        .collect();
    Json::obj([("workload", Json::str(workload)), ("spans", Json::Arr(rows))])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_transparent() {
        let t = Tracer::off();
        assert_eq!(t.span("x", || 7), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_nest_and_self_time_subtracts_children() {
        let t = Tracer::on();
        t.span("elsewhere", || {});
        t.scope("w", 3);
        t.span("outer", || {
            t.span("inner", || std::thread::sleep(std::time::Duration::from_millis(5)));
            t.span("inner", || std::thread::sleep(std::time::Duration::from_millis(5)));
        });
        let spans = of_workload(&t.spans(), "w");
        assert_eq!(t.spans().len(), 4);
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.workload == "w" && s.sample == 3));
        let own = self_times(&spans);
        let outer = (spans[0].end_us - spans[0].start_us) as f64 * 1e-6;
        assert!(own["inner"] >= 0.010);
        assert!((own["outer"] + own["inner"] - outer).abs() < 1e-9);
        let doc = spans_json(&of_workload(&spans, "w"), "w");
        let rows = doc.get("spans").unwrap().as_array().unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[1].get("parent").unwrap().as_usize(), Some(0));
        assert!(of_workload(&spans, "other").is_empty());
    }
}
