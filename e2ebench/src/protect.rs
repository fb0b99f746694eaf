//! `protect`: one device gates the held-out half through
//! `PacketGate::intercept`.
//!
//! Set-up publishes one N-packet generation from the preload and syncs
//! it over TCP to one device. The timed phase replays the held-out half
//! in rounds; each round is one device session, a fresh `PacketGate`
//! over the installed store, so its audit log holds one round of
//! records. A simulated user answers every prompt `BlockAlways`. An
//! operation is one `intercept` plus the prompt answer; `ops_per_s`
//! and the latency percentiles are medians over rounds of each round's
//! figure, which keeps them steady on a shared machine. A
//! traced round first times `SignatureStore::match_packet` on every
//! packet in a pass of its own, outside the timed gate pass; the gate's
//! own cost is each `intercept` span minus the same packet's match.

use crate::fleet;
use crate::phase::{metric, Budget, Phase};
use crate::stats::{median, ms, percentile, ratio};
use crate::trace::Tracer;
use crate::world::Market;
use leaksig_device::{GateAction, PacketGate, SignatureStore, UserChoice};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Rounds in the traced run's unit of work.
const UNIT_ROUNDS: u64 = 4;

pub struct State {
    store: SignatureStore,
    apps: Vec<String>,
    generation_sha1: String,
}

pub fn setup(market: &Market, seed: u64) -> Result<State, String> {
    let mut fleet = fleet::build(market, seed, 1)?;
    let device = fleet.devices.pop().expect("one device was built");
    Ok(State {
        store: device.store,
        apps: market
            .data
            .model
            .apps
            .iter()
            .map(|a| a.package.clone())
            .collect(),
        generation_sha1: fleet.generation_sha1.clone(),
    })
}

/// Verdict tally of one round.
#[derive(Default, PartialEq, Eq, Debug)]
struct Tally {
    sensitive: u64,
    sensitive_stopped: u64,
    benign: u64,
    benign_stopped: u64,
    degraded: u64,
    unanswered: u64,
}

pub fn run(st: &State, market: &Market, budget: Budget, tr: &mut Tracer) -> Result<Phase, String> {
    let held = market.held();
    let mut phase = Phase::default();
    let (mut rates, mut p50s, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
    let mut lat_ms = Vec::with_capacity(held.len());
    let mut busy = Duration::ZERO;
    let mut first: Option<Tally> = None;
    let mut audit_records = 0usize;
    let mut rounds = 0u64;
    let start_ns = tr.now_ns();
    while budget.more(busy, rounds, UNIT_ROUNDS) {
        let first_op = rounds * held.len() as u64;
        if tr.on() {
            // Its own pass, so the match and the gate each meet the
            // packets as cold as the other.
            for (i, p) in held.iter().enumerate() {
                let op = first_op + i as u64;
                tr.span("detect.match", op, |_| {
                    black_box(st.store.match_packet(&p.packet))
                });
            }
        }
        lat_ms.clear();
        let mut tally = Tally::default();
        let round = Instant::now();
        let gate = PacketGate::new(&st.store);
        for (i, p) in held.iter().enumerate() {
            let op = first_op + i as u64;
            let started = Instant::now();
            let forwarded = tr.span("gate.intercept", op, |_| {
                match gate.intercept(&st.apps[p.app], &p.packet) {
                    GateAction::Forwarded => Some(true),
                    GateAction::Blocked { .. } => Some(false),
                    GateAction::PendingPrompt { prompt_id, .. } => {
                        match gate.answer(prompt_id, UserChoice::BlockAlways) {
                            Ok(None) => Some(false),
                            _ => None,
                        }
                    }
                    GateAction::DegradedBlocked { .. } => {
                        tally.degraded += 1;
                        Some(false)
                    }
                }
            });
            lat_ms.push(ms(started.elapsed()));
            let Some(forwarded) = forwarded else {
                tally.unanswered += 1;
                continue;
            };
            if p.is_sensitive() {
                tally.sensitive += 1;
                tally.sensitive_stopped += u64::from(!forwarded);
            } else {
                tally.benign += 1;
                tally.benign_stopped += u64::from(!forwarded);
            }
        }
        if tr.on() {
            audit_records = gate.audit_log().len();
        }
        drop(gate);
        let took = round.elapsed();
        busy += took;
        rounds += 1;
        rates.push(held.len() as f64 / took.as_secs_f64());

        phase.attempted += held.len() as u64;
        phase.failed += tally.degraded + tally.unanswered;
        p50s.push(median(&mut lat_ms));
        p99s.push(percentile(&mut lat_ms, 0.99));
        match &first {
            None => first = Some(tally),
            Some(t) if *t != tally => {
                phase.fail(format!(
                    "round {rounds} verdicts differ from round 1: {tally:?}"
                ));
            }
            Some(_) => {}
        }
    }
    let end_ns = tr.now_ns();
    let t = first.ok_or("no round completed")?;
    if t.degraded > 0 {
        phase.fail(format!("{} DegradedBlocked verdicts", t.degraded));
    }
    if t.unanswered > 0 {
        phase.fail(format!("{} prompts could not be answered", t.unanswered));
    }
    let recall = ratio(t.sensitive_stopped, t.sensitive);
    let fp_rate = ratio(t.benign_stopped, t.benign);

    phase.ops_per_s = median(&mut rates);
    phase.samples = phase.attempted as usize;
    phase.p50_ms = median(&mut p50s);
    phase.p99_ms = median(&mut p99s);
    phase.coverage = tr.coverage(start_ns, end_ns);
    phase.quality = vec![
        metric("recall", recall, "ratio"),
        metric("fp_rate", fp_rate, "ratio"),
    ];
    phase.report.push(("rounds", rounds.to_string()));
    phase
        .report
        .push(("generation_sha1", st.generation_sha1.clone()));

    if tr.on() {
        let mut matched = tr.durations_us("detect.match");
        let mut own: Vec<f64> = tr
            .durations_us("gate.intercept")
            .iter()
            .zip(&matched)
            .map(|(gate, m)| gate - m)
            .collect();
        phase.layers = vec![
            metric("detect.match_us.p50", median(&mut matched), "us"),
            metric("detect.match_us.p99", percentile(&mut matched, 0.99), "us"),
            metric("gate.self_us.p50", median(&mut own), "us"),
            metric("gate.audit_records", audit_records as f64, "count"),
            metric("gate.recall", recall, "ratio"),
            metric("gate.fp_rate", fp_rate, "ratio"),
        ];
    }
    Ok(phase)
}
