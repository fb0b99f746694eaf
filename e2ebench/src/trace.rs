//! The benchmark's span recorder.
//!
//! Spans are recorded in the benchmark's own code, around calls into
//! each layer's public functions, so the program under test is
//! untouched. A span holds its name, start, end, parent and an op id;
//! spans of one operation (one uploaded record, one gated packet) share
//! the op id. Spans live in memory and are written out when the run
//! ends. A disabled recorder runs the wrapped call and records nothing.

use std::io::{self, Write};
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    op: u64,
    start_ns: u64,
    end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    parent: Option<usize>,
    thread: u32,
}

impl Span {
    fn duration(&self) -> Duration {
        Duration::from_nanos(self.end_ns - self.start_ns)
    }
}

/// Per-thread span recorder; recorders of one phase share an epoch and
/// are merged with [`Tracer::absorb`].
pub struct Tracer {
    epoch: Instant,
    on: bool,
    thread: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            on,
            thread: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder for another thread of the same phase.
    pub fn for_thread(&self, thread: u32) -> Tracer {
        Tracer {
            epoch: self.epoch,
            on: self.on,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` for operation `op`.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            start_ns,
            end_ns: start_ns,
            parent,
            thread: self.thread,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Merge another thread's recorder into this one.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Durations of every span called `name`, in microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.named(name)
            .map(|s| crate::stats::us(s.duration()))
            .collect()
    }

    /// Summed duration of every span called `name`.
    pub fn total(&self, name: &str) -> Duration {
        self.named(name).map(Span::duration).sum()
    }

    /// Share of `[from_ns, to_ns)` covered by the union of root spans
    /// (spans without a parent) across all threads.
    pub fn coverage(&self, from_ns: u64, to_ns: u64) -> f64 {
        let mut roots: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.start_ns.max(from_ns), s.end_ns.min(to_ns)))
            .filter(|(a, b)| a < b)
            .collect();
        roots.sort_unstable();
        let (mut covered, mut reach) = (0u64, from_ns);
        for (a, b) in roots {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        covered as f64 / to_ns.saturating_sub(from_ns).max(1) as f64
    }

    /// Write every span as one tab-separated line tagged with `phase`.
    pub fn write_tsv(&self, out: &mut impl Write, phase: &str) -> io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{phase}\t{i}\t{}\t{}\t{}\t{}\t{}\t{parent}",
                s.name, s.op, s.thread, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_merge() {
        let mut t = Tracer::new(true);
        t.span("outer", 0, |t| t.span("inner", 0, |_| ()));
        let mut other = t.for_thread(1);
        other.span("a", 1, |t| t.span("b", 1, |_| ()));
        t.absorb(other);
        let s = &t.spans;
        assert_eq!(s.len(), 4);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[3].parent, Some(2));
        assert!(s[0].end_ns >= s[1].end_ns);
    }

    #[test]
    fn disabled_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", 0, |_| 7), 7);
        assert!(t.spans.is_empty());
    }

    #[test]
    fn coverage_unions_overlaps() {
        let mut t = Tracer::new(true);
        for (a, b) in [(0, 10), (5, 20), (30, 40)] {
            t.spans.push(Span {
                name: "r",
                op: 0,
                start_ns: a,
                end_ns: b,
                parent: None,
                thread: 0,
            });
        }
        assert!((t.coverage(0, 50) - 0.6).abs() < 1e-12);
    }
}
