//! In-memory span recorder for the traced run.
//!
//! A span is opened and closed around one call into a layer's public
//! function from the benchmark's own code. It records the call's name,
//! start, end, the span it was opened under, and the id of the page,
//! request or sample set it belongs to. Spans stay in memory until the run
//! ends and are then written out as one JSON document.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
struct SpanRec {
    name: &'static str,
    id: u64,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<u32>);

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, id: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            name,
            id,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn close(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            let end = self.now_ns();
            self.spans[idx as usize].end_ns = end;
            debug_assert_eq!(self.stack.last(), Some(&idx));
            self.stack.pop();
        }
    }

    /// Run `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        let o = self.open(name, id);
        let out = f();
        self.close(o);
        out
    }

    /// Self time per span name: the spans' durations minus the time their
    /// child spans cover, in nanoseconds.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_default() += (s.end_ns - s.start_ns).saturating_sub(child);
        }
        out
    }

    /// Write every span as JSON: `{"spans":[{"name","id","start_ns",
    /// "end_ns","parent"}...]}` with `parent` an index into the array.
    pub fn write_json(&self, path: &Path) -> io::Result<()> {
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        w.write_all(b"{\"spans\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                w.write_all(b",\n")?;
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                w,
                "{{\"name\":\"{}\",\"id\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                s.name, s.id, s.start_ns, s.end_ns, parent
            )?;
        }
        w.write_all(b"]}\n")?;
        w.flush()
    }
}
