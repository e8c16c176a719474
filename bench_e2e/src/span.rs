//! In-memory spans recorded by the benchmark around its calls into
//! each layer. Nothing here reaches into the program: a span is a pair
//! of clock readings taken from outside, a name, the span that caused
//! it and the request it belongs to. The trace is written out once,
//! when the run ends.

use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// Request the span belongs to (index into the run's request log).
    pub req: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Append-only span store. Pushed to from the load generator's threads
/// and, during replay, from rayon workers — hence the mutex.
pub struct Trace {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the trace began.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span; returns its id for children to name.
    pub fn push(
        &self,
        parent: Option<u32>,
        req: u32,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let mut spans = self.spans.lock().expect("no span recorder panics");
        let id = spans.len() as u32;
        spans.push(Span {
            id,
            parent,
            req,
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        id
    }

    /// Open a span starting now, so that children can name it before
    /// it ends.
    pub fn begin(&self, parent: Option<u32>, req: u32, name: &'static str) -> u32 {
        let now = self.now();
        self.push(parent, req, name, now, now)
    }

    pub fn end(&self, id: u32) {
        let now = self.now();
        self.spans.lock().expect("no span recorder panics")[id as usize].end_ns = now;
    }

    /// Time `f` as a span; `f` receives the span's id.
    pub fn record<T>(
        &self,
        parent: Option<u32>,
        req: u32,
        name: &'static str,
        f: impl FnOnce(u32) -> T,
    ) -> T {
        let id = self.begin(parent, req, name);
        let out = f(id);
        self.end(id);
        out
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("no span recorder panics").clone()
    }

    /// One JSON object per line inside a top-level array, so the file
    /// is both valid JSON and greppable.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.snapshot();
        let selfs = self_times(&spans);
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "[")?;
        for (i, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 == spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{parent},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}{comma}",
                s.id, s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        writeln!(w, "]")?;
        w.flush()
    }
}

/// Self time of each span: its duration minus the part of its interval
/// that its direct children cover. Children may overlap one another
/// (parallel evaluations under one batch) and may stick out of the
/// parent (clock skew between threads); both are clipped, so self time
/// is never negative and never counts an interval twice.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if b > a {
                children[p as usize].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut edge = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(edge);
                if b > a {
                    covered += b - a;
                    edge = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            req: 0,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn adjacent_children_subtract_their_sum() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 30, 60),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 30]);
    }

    #[test]
    fn nested_children_subtract_once_per_level() {
        // 0 ⊃ 1 ⊃ 2: the grandchild comes off the child, not the root.
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 20, 80),
            span(2, Some(1), 30, 50),
        ];
        assert_eq!(self_times(&spans), vec![40, 40, 20]);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // Two parallel evaluations under one batch: 10..60 ∪ 40..90.
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 60),
            span(2, Some(0), 40, 90),
        ];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [
            span(0, None, 50, 100),
            span(1, Some(0), 0, 60),
            span(2, Some(0), 90, 400),
            span(3, Some(0), 500, 600),
        ];
        assert_eq!(self_times(&spans)[0], 30);
    }
}
