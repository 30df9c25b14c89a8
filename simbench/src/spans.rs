//! In-memory span recorder for the benchmark's own calls into each layer.
//!
//! Every timed public call goes through [`Tracer::span`], which always
//! measures the call's host duration (the untraced run needs it for
//! `host_wall_ref`) and, only when tracing is on, also keeps a span record
//! `(name, start, end, parent)`. Spans stay in memory until the run ends
//! and are then written out as JSON lines.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call: `name` is the layer the call belongs to.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the enclosing span in the recorder, if any.
    parent: Option<usize>,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    /// Indices of the spans currently open, innermost last.
    open: RefCell<Vec<usize>>,
    /// Calls made through [`Tracer::span`], recorded or not.
    calls: Cell<u64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            calls: Cell::new(0),
        }
    }

    /// Run `f`, one public call into layer `name`, returning its result
    /// and its host duration in seconds. With tracing on, the call is also
    /// recorded as a span nested in whichever span is open.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        self.calls.set(self.calls.get() + 1);
        self.scope(name, f)
    }

    /// Like [`Tracer::span`] for a stretch of the benchmark's own work
    /// (set-up, one iteration) that encloses calls but is not one.
    pub fn scope<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        if !self.enabled {
            let t0 = Instant::now();
            let out = f();
            return (out, t0.elapsed().as_secs_f64());
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            let now = self.now_ns();
            spans.push(Span {
                name,
                start_ns: now,
                end_ns: now,
                parent,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let t0 = Instant::now();
        let out = f();
        let secs = t0.elapsed().as_secs_f64();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end_ns = self.now_ns();
        (out, secs)
    }

    /// Calls made through [`Tracer::span`] so far.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Number of spans recorded so far; pass it to [`Tracer::self_time_since`]
    /// to attribute only what a later stretch of work recorded.
    pub fn mark(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Self time in seconds per span name over the spans recorded since
    /// `mark`: each span's duration minus the part its direct children
    /// cover.
    pub fn self_time_since(&self, mark: usize) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in &spans[mark..] {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate().skip(mark) {
            let own = s.dur_ns().saturating_sub(child_ns[i]);
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e9;
        }
        out
    }

    /// All spans as JSON lines, in the order they were opened.
    pub fn to_json_lines(&self) -> String {
        let spans = self.spans.borrow();
        let mut out = String::new();
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}\n",
                s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let tr = Tracer::new(true);
        tr.scope("outer", || {
            tr.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let t = tr.self_time_since(0);
        assert!(t["inner"] >= 0.019);
        assert!(t["outer"] < t["inner"], "outer self time excludes inner");
        assert!(tr.to_json_lines().contains("\"parent\": 0"));
        assert_eq!(tr.calls(), 1, "only the inner call counts as a call");
    }

    #[test]
    fn disabled_tracer_keeps_nothing_but_still_times() {
        let tr = Tracer::new(false);
        let ((), secs) = tr.span("x", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        assert!(secs >= 0.004);
        assert_eq!(tr.mark(), 0);
    }
}
