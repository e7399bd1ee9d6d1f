//! The benchmark's span recorder.
//!
//! A span is a name, a start and end offset from the recorder's epoch, the
//! span that was open when it started, and an optional request id shared by
//! the spans of one service request.  Spans are recorded only by a traced
//! run; an untraced recorder runs the wrapped call and records nothing, so
//! the end-to-end numbers of an untraced run carry no tracing cost.  Every
//! span wraps a call into the program from the benchmark's own code — the
//! program itself is not instrumented.

use std::io::Write;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    pub request: Option<u64>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` through the
    /// recorder it receives become this span's children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            request: None,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.epoch.elapsed();
        out
    }

    /// Records a span that was timed outside the recorder (a request's
    /// wait in a queue), as a child of the currently open span.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        request: Option<u64>,
    ) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            start: start.saturating_duration_since(self.epoch),
            end: end.saturating_duration_since(self.epoch),
            parent: self.open.last().copied(),
            request,
        });
    }

    /// Tags the most recently started span with a request id learnt only
    /// after the call returned.
    pub fn tag_last(&mut self, request: u64) {
        if let Some(s) = self.spans.last_mut() {
            s.request = Some(request);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every recorded span with this name.
    pub fn seconds_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// Writes the recorded spans as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {}, \"request\": {}}}",
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request.map_or("null".to_string(), |r| r.to_string()),
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_their_parent() {
        let mut tr = Tracer::new(true);
        let v = tr.span("outer", |tr| {
            let v = tr.span("inner", |_| 3);
            tr.tag_last(7);
            v
        });
        assert_eq!(v, 3);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].request, Some(7));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
    }

    #[test]
    fn untraced_recorder_runs_the_call_and_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.span("x", |_| 5), 5);
        assert!(tr.spans().is_empty());
    }
}
