//! In-memory spans recorded by the benchmark's own code around each call into
//! a layer: the set-up stages and every `run_for` window of the traced run.

use crate::clock::Stopwatch;

/// One closed span.
#[derive(Debug, Clone)]
struct Span {
    /// Layer-qualified name, e.g. `topology.spec_build`.
    name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    end_ns: u64,
    /// Index of the span that was open when this one started.
    parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Totals of all spans sharing one name.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanTotal {
    /// Span name.
    pub name: &'static str,
    /// Number of spans.
    pub count: usize,
    /// Summed duration, in seconds.
    pub total_s: f64,
    /// Summed duration minus the time covered by child spans, in seconds.
    pub self_s: f64,
}

/// A span recorder. Spans nest: a span opened while another is open becomes
/// its child.
#[derive(Debug)]
pub struct Spans {
    origin: Stopwatch,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Stopwatch::start(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Spans {
    /// Reserves room for `additional` more spans, so recording windows does
    /// not allocate inside the measured run.
    pub fn reserve(&mut self, additional: usize) {
        self.spans.reserve(additional);
        self.open.reserve(8);
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed_ns()
    }

    /// Opens a span; close it with [`Self::exit`].
    pub fn enter(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics if no span is open.
    pub fn exit(&mut self) {
        let end_ns = self.now_ns();
        let index = self.open.pop().expect("exit matches an enter");
        self.spans[index].end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Summed seconds of every span named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .sum()
    }

    /// Per-name totals and self times, in first-seen order.
    pub fn totals(&self) -> Vec<SpanTotal> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        let mut totals: Vec<SpanTotal> = Vec::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let own = span.duration_ns().saturating_sub(children) as f64 * 1e-9;
            let total = span.duration_ns() as f64 * 1e-9;
            match totals.iter_mut().find(|t| t.name == span.name) {
                Some(t) => {
                    t.count += 1;
                    t.total_s += total;
                    t.self_s += own;
                }
                None => totals.push(SpanTotal {
                    name: span.name,
                    count: 1,
                    total_s: total,
                    self_s: own,
                }),
            }
        }
        totals
    }
}
