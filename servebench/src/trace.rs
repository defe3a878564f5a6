//! In-memory spans recorded around calls into each layer's public
//! functions, written out once the run ends.
//!
//! A span's self time is its duration minus the durations of its child
//! spans. Pipeline spans hang under one `request` root per replayed
//! request; reference spans (a second measurement of work a pipeline
//! span already contains, kept for comparison) are roots of their own
//! and never enter a request's layer sum.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::stats::median;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The root span name of one replayed request.
pub const REQUEST: &str = "request";

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    pub fn duration_ns(&self, id: usize) -> u64 {
        self.spans[id].duration_ns()
    }

    /// Run `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, request);
        let out = std::hint::black_box(f());
        self.end(id);
        out
    }

    /// Self time of every span, in nanoseconds, by span index.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p] += s.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// Median self time per span name, in microseconds, over the spans
    /// of that name.
    pub fn median_self_us(&self) -> BTreeMap<&'static str, f64> {
        let selfs = self.self_times_ns();
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(selfs) {
            by_name.entry(s.name).or_default().push(t as f64 / 1e3);
        }
        by_name
            .into_iter()
            .filter_map(|(name, v)| Some((name, median(&v)?)))
            .collect()
    }

    /// Per replayed request, the summed self time (µs) of its pipeline
    /// spans — the request root excluded, so gaps between calls in the
    /// replay loop are not attributed to any layer.
    pub fn request_layer_sums_us(&self) -> Vec<f64> {
        let selfs = self.self_times_ns();
        let mut sums: BTreeMap<usize, u64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == REQUEST {
                sums.entry(i).or_default();
            } else if let Some(root) = self.request_of(i) {
                *sums.entry(root).or_default() += selfs[i];
            }
        }
        sums.values().map(|&ns| ns as f64 / 1e3).collect()
    }

    /// The `request` root above span `i`, if any.
    fn request_of(&self, mut i: usize) -> Option<usize> {
        while let Some(p) = self.spans[i].parent {
            if self.spans[p].name == REQUEST {
                return Some(p);
            }
            i = p;
        }
        None
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}
