//! `refresh`: repeated regenerate → publish → sync cycles.
//!
//! Set-up preloads the collector with the training half and publishes a
//! first generation. Each timed cycle runs `regenerate(N)` (which
//! publishes through the deploy/analyze gate, diffs against the previous
//! generation and journals the publish), then four device stores `SYNC`
//! over TCP and install. An operation is one cycle; its latency is the
//! time to protect, from the `regenerate` call until the last device
//! has installed.

use crate::fleet::{self, Fleet};
use crate::phase::{metric, Budget, Metric, Phase};
use crate::stats::{median, ms};
use crate::trace::Tracer;
use crate::world::{Market, N};
use leaksig_compress::Lzss;
use leaksig_core::prelude::{
    decode, generate_signatures_counted, regeneration_pass, PipelineConfig,
};
use leaksig_device::{SignatureServer, SignatureStore};
use leaksig_http::HttpPacket;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::Instant;

pub const DEVICES: usize = 4;
/// Cycles in the traced run's unit of work.
const UNIT_CYCLES: u64 = 4;
/// Samples timed by the traced stage split.
const STAGE_REPS: u64 = 3;

pub struct State {
    seed: u64,
    fleet: Fleet,
    cycles: u64,
}

pub fn setup(market: &Market, seed: u64) -> Result<State, String> {
    Ok(State {
        seed,
        fleet: fleet::build(market, seed, DEVICES)?,
        cycles: 0,
    })
}

pub fn run(
    st: &mut State,
    market: &Market,
    budget: Budget,
    tr: &mut Tracer,
) -> Result<Phase, String> {
    let mut phase = Phase::default();
    let mut ttp_ms = Vec::new();
    let start_ns = tr.now_ns();
    let t0 = Instant::now();
    while budget.more(t0.elapsed(), phase.attempted, UNIT_CYCLES) {
        phase.attempted += 1;
        st.cycles += 1;
        let cycle = st.cycles;
        let fl = &mut st.fleet;
        let previous = tr.on().then(|| fl.publisher.fetch(0)).flatten();

        let started = Instant::now();
        let published = tr.span("device.regenerate", cycle, |_| {
            fleet::regenerate(&fl.collector, &fl.publisher)
        });
        let mut converged = published.is_ok();
        for dev in &mut fl.devices {
            let report = tr.span("net.sync", cycle, |_| dev.client.sync(&dev.store));
            converged &=
                report.converged() && published.as_ref().ok() == Some(&dev.store.version());
        }
        let time_to_protect = started.elapsed();

        let version = match published {
            Ok(v) if converged => v,
            Ok(v) => {
                phase.failed += 1;
                phase.fail(format!("cycle {cycle}: a device did not converge on v{v}"));
                continue;
            }
            Err(e) => {
                phase.failed += 1;
                phase.fail(format!("cycle {cycle}: {e}"));
                continue;
            }
        };
        ttp_ms.push(ms(time_to_protect));
        // Every device holds exactly what the publisher serves.
        match fl.publisher.fetch(0) {
            Some((v, text)) if v == version => {
                if fl.devices.iter().any(|d| d.store.wire_text() != text) {
                    phase.fail(format!(
                        "cycle {cycle}: a device's wire text differs from v{v}"
                    ));
                }
                if let Some(prev) = &previous {
                    probe_publish_install(prev, version, &text, cycle, tr)?;
                }
            }
            other => phase.fail(format!(
                "cycle {cycle}: publisher serves v{:?}, expected v{version}",
                other.map(|(v, _)| v)
            )),
        }
    }
    let end_ns = tr.now_ns();

    phase.samples = ttp_ms.len();
    phase.p50_ms = median(&mut ttp_ms);
    phase.ops_per_s = 1e3 / phase.p50_ms;
    phase.coverage = tr.coverage(start_ns, end_ns);
    phase
        .report
        .push(("generation_sha1", st.fleet.generation_sha1.clone()));
    if let Some((v, text)) = st.fleet.publisher.fetch(0) {
        phase.report.push(("final_version", v.to_string()));
        phase.report.push((
            "final_generation_sha1",
            leaksig_hash::sha1_hex(text.as_bytes()),
        ));
    }

    if tr.on() {
        let mut regen = tr.durations_us("device.regenerate");
        let mut sync = tr.durations_us("net.sync");
        let mut install = tr.durations_us("device.install");
        let mut publish = tr.durations_us("device.publish");
        phase.layers = vec![
            metric("device.regenerate_ms.p50", median(&mut regen) / 1e3, "ms"),
            metric("device.publish_ms", median(&mut publish) / 1e3, "ms"),
            metric("net.sync_ms.p50", median(&mut sync) / 1e3, "ms"),
            metric("device.install_ms.p50", median(&mut install) / 1e3, "ms"),
        ];
        let (stages, stage_trace) = stage_split(market, st.seed)?;
        phase.layers.extend(stages);
        phase
            .traces
            .push(("refresh-stages".to_string(), stage_trace));
    }
    Ok(phase)
}

/// Time `SignatureServer::publish` of the new generation into a scratch
/// publisher that holds the previous one, and `SignatureStore::install`
/// of the same wire text on a scratch store.
fn probe_publish_install(
    previous: &(u64, String),
    version: u64,
    text: &str,
    cycle: u64,
    tr: &mut Tracer,
) -> Result<(), String> {
    let set = decode(text).map_err(|e| format!("published wire text does not decode: {e:?}"))?;
    let scratch = SignatureServer::new();
    scratch.restore(previous.0, &previous.1);
    tr.span("device.publish", cycle, |_| scratch.publish(&set))
        .map_err(|d| format!("scratch publish refused: {} diagnostics", d.len()))?;
    let store = SignatureStore::new();
    tr.span("device.install", cycle, |_| store.install(version, text))
        .map_err(|e| format!("scratch install refused: {e}"))
}

/// The regeneration stage split: on N-packet samples drawn from the
/// preload, the stage timings `generate_signatures_counted` returns,
/// plus a span around `regeneration_pass`; pruning is the pass minus
/// the four generation stages.
fn stage_split(market: &Market, seed: u64) -> Result<(Vec<Metric>, Tracer), String> {
    let check = market.check();
    let (suspicious, normal): (Vec<&HttpPacket>, Vec<&HttpPacket>) = market
        .train()
        .iter()
        .map(|p| &p.packet)
        .partition(|p| check.is_suspicious(p));
    if suspicious.len() < N {
        return Err(format!(
            "preload holds {} suspicious packets, need {N}",
            suspicious.len()
        ));
    }
    let normal = &normal[..normal.len().min(2000)];
    let config = PipelineConfig::default();
    let generation_config = PipelineConfig {
        deploy_gate: false,
        ..config.clone()
    };
    let mut tr = Tracer::new(true);
    let mut stages: [Vec<f64>; 5] = Default::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pool = suspicious;
    for rep in 0..STAGE_REPS {
        pool.shuffle(&mut rng);
        let sample = &pool[..N];
        let generated = tr.span("pipeline.generate", rep, |_| {
            generate_signatures_counted(Lzss::default(), sample, &generation_config)
        });
        let t = generated.timings;
        let pass = Instant::now();
        tr.span("pipeline.regeneration_pass", rep, |_| {
            regeneration_pass(sample, normal, &config)
        });
        let pass_ms = ms(pass.elapsed());
        let four = [t.features_ms, t.matrix_ms, t.cluster_ms, t.signatures_ms];
        for (acc, v) in stages.iter_mut().zip(four) {
            acc.push(v);
        }
        stages[4].push(pass_ms - four.iter().sum::<f64>());
    }
    let names = [
        "pipeline.features_ms",
        "pipeline.matrix_ms",
        "pipeline.cluster_ms",
        "pipeline.signatures_ms",
        "pipeline.prune_ms",
    ];
    let layers = names
        .into_iter()
        .zip(stages.iter_mut())
        .map(|(name, values)| metric(name, median(values), "ms"))
        .collect();
    Ok((layers, tr))
}
