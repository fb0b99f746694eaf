//! End-to-end benchmark of the leaksig pipeline.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload collect|refresh|protect --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload runs through the production entry points: the TCP
//! frontier (`NetServer`, `NetClient`, `SyncClient` over
//! `TcpTransport`), the `WalStore`-backed `CollectionServer`, and the
//! device side (`SignatureServer`, `SignatureStore`, `PacketGate`). The
//! inputs are one full-scale netsim market and the draws `--seed` seeds
//! over it, so the same seed gives the same inputs.
//!
//! `--trace 0` sets up the workload at least five times and for at
//! least four seconds (reporting the median set-up time), measures it
//! for `--seconds`, checks its outputs and prints the end-to-end
//! metrics. `--trace 1` runs a fixed unit of every workload with spans
//! recorded around each layer's calls, writes the spans to
//! `.bench_out/`, and prints the per-layer metrics; the named workload
//! also runs its unit untraced, for `trace.overhead`.
//! The last line of standard output is one JSON object; the exit code
//! is 0 only when every correctness check passed.

mod collect;
mod fleet;
mod phase;
mod protect;
mod refresh;
mod stats;
mod trace;
mod world;

use phase::{metric, Budget, Metric, Phase};
use std::io::Write;
use std::time::{Duration, Instant};
use trace::Tracer;
use world::Market;

/// Set-ups per end-to-end run: at least this many, and more until
/// they have taken [`SETUP_MIN`], so a cheap set-up is sampled over as
/// much of the host's drift as a costly one; `setup_s` is their median.
const SETUP_REPS: usize = 5;
const SETUP_MIN: Duration = Duration::from_secs(4);

/// The end-to-end metrics the final JSON line carries: the
/// `end_to_end` list of `BENCHMARK.json`. The others (`op_p99_ms`,
/// `error_rate`, `recall`, `fp_rate`) are printed on `metric` lines
/// only; `error_rate` also travels as `attempted`/`failed`.
const GATED: [&str; 4] = ["setup_s", "ops_per_s", "op_p50_ms", "peak_rss_mb"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Collect,
    Refresh,
    Protect,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Collect, Workload::Refresh, Workload::Protect];

    fn name(self) -> &'static str {
        match self {
            Workload::Collect => "collect",
            Workload::Refresh => "refresh",
            Workload::Protect => "protect",
        }
    }
}

/// A workload after set-up.
enum Loaded {
    Collect(collect::State),
    Refresh(refresh::State),
    Protect(Box<protect::State>),
}

impl Loaded {
    fn setup(w: Workload, market: &Market, seed: u64) -> Result<Loaded, String> {
        Ok(match w {
            Workload::Collect => Loaded::Collect(collect::setup(market, seed)?),
            Workload::Refresh => Loaded::Refresh(refresh::setup(market, seed)?),
            Workload::Protect => Loaded::Protect(Box::new(protect::setup(market, seed)?)),
        })
    }

    fn run(&mut self, market: &Market, budget: Budget, tr: &mut Tracer) -> Result<Phase, String> {
        match self {
            Loaded::Collect(st) => collect::run(st, market, budget, tr),
            Loaded::Refresh(st) => refresh::run(st, market, budget, tr),
            Loaded::Protect(st) => protect::run(st, market, budget, tr),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in argv.chunks(2) {
        let [key, value] = pair else {
            return Err(format!("flag {:?} has no value", pair[0]));
        };
        match key.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {key:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Everything the final report needs.
struct Outcome {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    metrics: Vec<Metric>,
    /// Names of the metrics the JSON line carries.
    json: Vec<&'static str>,
    /// Extra `name value` lines printed before the JSON.
    report: Vec<(&'static str, String)>,
}

fn end_to_end(args: &Args) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut live: Option<(Market, Loaded)> = None;
    while setup_s.len() < SETUP_REPS || setup_s.iter().sum::<f64>() < SETUP_MIN.as_secs_f64() {
        // Release the previous set-up first, so memory holds one.
        drop(live.take());
        let t = Instant::now();
        let market = Market::generate();
        let loaded = Loaded::setup(args.workload, &market, args.seed)?;
        setup_s.push(t.elapsed().as_secs_f64());
        live = Some((market, loaded));
    }
    let (market, mut loaded) = live.expect("at least one set-up");
    let budget = Budget::Seconds(Duration::from_secs_f64(args.seconds));
    let phase = loaded.run(&market, budget, &mut Tracer::new(false))?;
    drop(loaded);

    let mut metrics = vec![
        metric("setup_s", stats::median(&mut setup_s), "s"),
        metric("ops_per_s", phase.ops_per_s, "1/s"),
        metric("op_p50_ms", phase.p50_ms, "ms"),
    ];
    // `refresh` has too few cycles for a tail; it reports `op_samples`.
    if args.workload != Workload::Refresh {
        metrics.push(metric("op_p99_ms", phase.p99_ms, "ms"));
    }
    metrics.push(metric(
        "error_rate",
        stats::ratio(phase.failed, phase.attempted),
        "ratio",
    ));
    metrics.extend(phase.quality);
    metrics.push(metric("peak_rss_mb", stats::peak_rss_mb(), "MB"));
    let mut report = vec![("op_samples", phase.samples.to_string())];
    report.extend(phase.report);
    Ok(Outcome {
        attempted: phase.attempted,
        failed: phase.failed,
        failures: phase.failures,
        metrics,
        json: GATED.to_vec(),
        report,
    })
}

fn traced(args: &Args) -> Result<Outcome, String> {
    let market = Market::generate();
    let mut out = Outcome {
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        metrics: Vec::new(),
        json: Vec::new(),
        report: Vec::new(),
    };
    let mut traces: Vec<(String, Tracer)> = Vec::new();
    let (mut coverage, mut overhead) = (f64::NAN, f64::NAN);
    for w in Workload::ALL {
        let mut loaded = Loaded::setup(w, &market, args.seed)?;
        let base = if w == args.workload {
            Some(loaded.run(&market, Budget::Unit, &mut Tracer::new(false))?)
        } else {
            None
        };
        let mut tr = Tracer::new(true);
        let phase = loaded.run(&market, Budget::Unit, &mut tr)?;
        for p in base.iter().chain(Some(&phase)) {
            out.attempted += p.attempted;
            out.failed += p.failed;
            out.failures
                .extend(p.failures.iter().map(|f| format!("{}: {f}", w.name())));
        }
        if let Some(base) = &base {
            coverage = phase.coverage;
            overhead = 1.0 - phase.ops_per_s / base.ops_per_s;
        }
        out.metrics.extend(phase.layers);
        traces.push((w.name().to_string(), tr));
        traces.extend(phase.traces);
    }
    out.metrics
        .push(metric("trace.coverage", coverage, "ratio"));
    out.metrics
        .push(metric("trace.overhead", overhead, "ratio"));
    out.json = out.metrics.iter().map(|m| m.name).collect();

    let path = std::path::Path::new(".bench_out").join(format!(
        "spans-{}-seed{}.tsv",
        args.workload.name(),
        args.seed
    ));
    write_spans(&path, &traces).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    out.report.push(("spans", path.display().to_string()));
    Ok(out)
}

fn write_spans(path: &std::path::Path, traces: &[(String, Tracer)]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "phase\tindex\tname\top\tthread\tstart_ns\tend_ns\tparent"
    )?;
    for (phase, tr) in traces {
        tr.write_tsv(&mut out, phase)?;
    }
    out.flush()
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Print the report lines and the final JSON; the process exit code.
fn print(args: &Args, out: Outcome) -> i32 {
    let mut failures = out.failures;
    if out.attempted == 0 {
        failures.push("no operation was attempted".to_string());
    }
    if out.failed > 0 {
        failures.push(format!(
            "{} of {} operations failed",
            out.failed, out.attempted
        ));
    }
    let carried: Vec<&Metric> = out
        .metrics
        .iter()
        .filter(|m| out.json.contains(&m.name))
        .collect();
    for m in &carried {
        if !m.value.is_finite() {
            failures.push(format!("{} was not measured", m.name));
        }
    }
    println!(
        "e2ebench workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for m in &out.metrics {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    for (name, value) in &out.report {
        println!("report {name} {value}");
    }
    for f in &failures {
        println!("check FAILED {f}");
    }
    let correct = failures.is_empty();
    let metrics: Vec<String> = carried
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    if correct {
        0
    } else {
        1
    }
}

fn main() {
    let code = match parse_args() {
        Err(e) => {
            eprintln!("e2ebench: {e}");
            2
        }
        Ok(args) => {
            let outcome = if args.trace {
                traced(&args)
            } else {
                end_to_end(&args)
            };
            world::remove_scratch_root();
            match outcome {
                Ok(out) => print(&args, out),
                Err(e) => {
                    eprintln!("e2ebench: {e}");
                    2
                }
            }
        }
    };
    std::process::exit(code);
}
