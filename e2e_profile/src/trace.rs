//! In-memory span recorder. A span is `(name, start, end, parent,
//! request)`; spans are kept in memory and written out once, when the run
//! ends. A layer's self time is its span's duration minus the time its
//! child spans cover. When tracing is off, [`Recorder::span`] only calls
//! the closure.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

pub struct Recorder {
    pub enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Spans opened from now on belong to request `id`.
    pub fn set_request(&mut self, id: u64) {
        self.request = id;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` (nested under the innermost
    /// open span). Returns `f`'s result.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Rename the most recently closed span named `from` (used when the
    /// layer is only known after the call returns, e.g. reuse vs rebuild).
    pub fn rename_last(&mut self, from: &'static str, to: &'static str) {
        if let Some(s) = self.spans.iter_mut().rev().find(|s| s.name == from) {
            s.name = to;
        }
    }

    /// Self seconds per `(request, span name)`: duration minus the time
    /// covered by direct children.
    pub fn self_times(&self) -> BTreeMap<(&'static str, u64), f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<(&'static str, u64), f64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
            *out.entry((s.name, s.request)).or_default() += own as f64 * 1e-9;
        }
        out
    }

    /// Self seconds of layer `name`, one value per request that has it.
    pub fn layer_self(&self, name: &str) -> Vec<f64> {
        self.self_times()
            .into_iter()
            .filter(|((n, _), _)| *n == name)
            .map(|(_, s)| s)
            .collect()
    }

    /// Whole-span seconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        w.flush()
    }
}
