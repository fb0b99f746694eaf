//! What one measured phase of a workload reports.

use crate::trace::Tracer;
use std::time::Duration;

/// How much work a phase does.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Run until this much wall time has passed (end-to-end runs).
    Seconds(Duration),
    /// The workload's fixed unit of work (traced runs), so per-layer
    /// totals compare across commits.
    Unit,
}

impl Budget {
    /// Whether a phase that started `elapsed` ago and has done `done`
    /// of its `unit` may start another operation.
    pub fn more(&self, elapsed: Duration, done: u64, unit: u64) -> bool {
        match *self {
            Budget::Seconds(limit) => elapsed < limit,
            Budget::Unit => done < unit,
        }
    }
}

/// One named per-layer value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Result of one phase.
#[derive(Default)]
pub struct Phase {
    /// Operations attempted and failed (see each workload for what an
    /// operation is).
    pub attempted: u64,
    pub failed: u64,
    pub ops_per_s: f64,
    pub p50_ms: f64,
    /// Unset where the samples are too few for a tail.
    pub p99_ms: f64,
    /// Latency samples behind the percentiles.
    pub samples: usize,
    /// Failed correctness checks, one line each.
    pub failures: Vec<String>,
    /// End-to-end metrics only this workload has (detection quality).
    pub quality: Vec<Metric>,
    /// Extra `name value` report lines (counts, digests).
    pub report: Vec<(&'static str, String)>,
    /// Per-layer metrics (traced phases only).
    pub layers: Vec<Metric>,
    /// Share of the phase's wall time covered by root spans.
    pub coverage: f64,
    /// Recorders to write out, by phase label.
    pub traces: Vec<(String, Tracer)>,
}

impl Phase {
    pub fn fail(&mut self, what: String) {
        if self.failures.len() < 16 {
            self.failures.push(what);
        }
    }
}
