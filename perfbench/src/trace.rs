//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around calls into
//! each layer's public functions (the program itself is not edited).
//! A span has a name (`<layer>.<operation>`), start and end offsets
//! from the recorder's epoch, the span that was open when it started
//! (its parent), and the request it served. Spans stay in memory until
//! [`Recorder::write_jsonl`] writes them out at the end of the run.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Request id of spans that serve the whole batch rather than one query.
pub const BATCH: u64 = u64::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` for `request`; spans opened
    /// inside `f` become its children.
    pub fn span<T>(&self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let parent = self.open.borrow().last().copied();
        let id = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                request,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(id);
        let out = f();
        self.open.borrow_mut().pop();
        let end = self.now_ns();
        self.spans.borrow_mut()[id].end_ns = end;
        out
    }

    /// Record an already-measured interval (e.g. one timed on another
    /// thread) as a root span.
    pub fn record(&self, name: &'static str, request: u64, start: Instant, end: Instant) {
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.borrow_mut().push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent: None,
            request,
        });
    }

    pub fn spans(&self) -> std::cell::Ref<'_, Vec<Span>> {
        self.spans.borrow()
    }

    /// Total duration of every span named `name`, milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / 1e6)
            .sum()
    }

    /// Total duration of the direct children of every span named
    /// `parent`, milliseconds.
    pub fn children_ms(&self, parent: &str) -> f64 {
        let spans = self.spans();
        spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| spans[p].name == parent))
            .map(|s| s.ns() as f64 / 1e6)
            .sum()
    }

    /// Self time per layer, milliseconds: each span's duration minus
    /// the part its direct children cover, summed by the layer prefix
    /// of the span name (the text before the first `.`). Spans whose
    /// name `skip` accepts are left out.
    pub fn self_ms_by_layer(&self, skip: impl Fn(&str) -> bool) -> BTreeMap<String, f64> {
        let spans = self.spans();
        let mut child_ns = vec![0u64; spans.len()];
        for span in spans.iter() {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.ns();
            }
        }
        let mut by_layer = BTreeMap::new();
        for (span, children) in spans.iter().zip(child_ns) {
            if skip(span.name) {
                continue;
            }
            let layer = span.name.split('.').next().unwrap_or(span.name);
            *by_layer.entry(layer.to_owned()).or_insert(0.0) +=
                span.ns().saturating_sub(children) as f64 / 1e6;
        }
        by_layer
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let request = if s.request == BATCH {
                "\"batch\"".to_owned()
            } else {
                s.request.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{request}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let rec = Recorder::new();
        rec.span("engine.root", BATCH, || {
            rec.span("hdc.child", 1, || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        drop(spans);
        let layers = rec.self_ms_by_layer(|_| false);
        assert!(rec.children_ms("engine.root") >= 5.0);
        assert!(layers["hdc"] >= 5.0);
        assert!(layers["engine"] < layers["hdc"]);
    }
}
