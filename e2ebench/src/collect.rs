//! `collect`: closed-loop uploaders send `LEAKBATCH/1` batches over
//! loopback TCP into a `WalStore`-backed collection server.
//!
//! Two uploader threads each wait for their `ACK` before sending the
//! next batch, one connection per batch, as `NetClient` does. The server
//! uses the intake of `leaksig-cli serve`. A session ends once
//! `shutdown`, `pump_all` and `flush_state` have returned, so every
//! counted record is journaled. An operation is one batch; `ops_per_s`
//! counts records ACKed and durable per second of session.
//!
//! An end-to-end run holds [`SESSIONS`] sessions of at most half a
//! second, spread evenly over `--seconds`, each on a fresh listener and
//! state directory and starting at a seeded batch of the training half,
//! and reports the median over sessions of each session's rate and
//! percentiles. Spreading the sessions out averages the host's
//! speed over the whole run, while one connection per batch keeps the
//! run's connection count (≤ ~2k per second of upload) well under the
//! ephemeral port range, so `TIME_WAIT` sockets cannot fail later runs.

use crate::phase::{metric, Budget, Metric, Phase};
use crate::stats::{median, ms, percentile};
use crate::trace::Tracer;
use crate::world::{self, Market, ScratchDir, SERVE_RESERVOIR};
use leaksig_device::{IngestOutcome, SignatureServer};
use leaksig_http::{parse_request_limited, ParseLimits};
use leaksig_net::{BatchOutcome, BatchRecord, NetClient, NetConfig, NetServer};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const UPLOADERS: usize = 2;
/// Upload sessions per end-to-end run.
const SESSIONS: u32 = 12;
/// Longest upload of one session.
const SESSION_UPLOAD: Duration = Duration::from_millis(500);

pub struct State {
    seed: u64,
    batches: Vec<Vec<BatchRecord>>,
}

pub fn setup(market: &Market, seed: u64) -> Result<State, String> {
    Ok(State {
        seed,
        batches: market.batches(),
    })
}

/// What one uploader thread did.
#[derive(Default)]
struct Upload {
    /// Batches attempted, in send order (indices into the batch list).
    sent: Vec<usize>,
    failed: u64,
    acked_records: u64,
    lat_ms: Vec<f64>,
    errors: Vec<String>,
}

/// Uploader `thread` sends every [`UPLOADERS`]-th batch, from batch
/// `start + thread` on, wrapping around the batch list.
fn upload(
    client: &NetClient,
    batches: &[Vec<BatchRecord>],
    start: usize,
    thread: usize,
    budget: Budget,
    t0: Instant,
    tr: &mut Tracer,
) -> Upload {
    let mut up = Upload::default();
    // Under `Budget::Unit` the uploaders share one pass over the batches.
    let unit = batches.len().saturating_sub(thread).div_ceil(UPLOADERS) as u64;
    while budget.more(t0.elapsed(), up.sent.len() as u64, unit) {
        let idx = (start + thread + up.sent.len() * UPLOADERS) % batches.len();
        let batch = &batches[idx];
        up.sent.push(idx);
        let started = Instant::now();
        let reply = tr.span("net.send_batch", idx as u64, |_| {
            client.send_batch(batch, None)
        });
        let latency = started.elapsed();
        let error = match reply {
            Ok(BatchOutcome::Acked(ack)) if ack.admitted == batch.len() as u64 => {
                up.acked_records += ack.admitted;
                up.lat_ms.push(ms(latency));
                continue;
            }
            Ok(other) => format!("{other:?}"),
            Err(e) => e.to_string(),
        };
        up.failed += 1;
        if up.errors.len() < 4 {
            up.errors
                .push(format!("batch {idx} of {}: {error}", batch.len()));
        }
    }
    up
}

/// One upload session on a fresh listener and state directory.
struct Session {
    phase: Phase,
    acked: u64,
    wall: Duration,
    lat_ms: Vec<f64>,
    /// Batches sent, interleaved across uploaders in send order.
    order: Vec<usize>,
}

fn session(
    st: &State,
    market: &Market,
    start: usize,
    budget: Budget,
    tr: &mut Tracer,
) -> Result<Session, String> {
    let dir = ScratchDir::new("collect");
    let collector = Arc::new(world::collector(
        market,
        dir.path(),
        SERVE_RESERVOIR,
        st.seed,
    )?);
    let publisher = Arc::new(SignatureServer::new());
    let server = NetServer::spawn(
        collector.clone(),
        publisher,
        "127.0.0.1:0",
        NetConfig::default(),
    )
    .map_err(|e| format!("cannot bind loopback: {e}"))?;
    let client = NetClient::new(server.addr());

    let start_ns = tr.now_ns();
    let t0 = Instant::now();
    let uploads: Vec<(Upload, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..UPLOADERS)
            .map(|t| {
                let mut ttr = tr.for_thread(t as u32 + 1);
                let (client, batches) = (&client, &st.batches);
                s.spawn(move || {
                    let up = upload(client, batches, start, t, budget, t0, &mut ttr);
                    (up, ttr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("uploader thread panicked"))
            .collect()
    });
    let net = tr.span("net.shutdown", 0, |_| server.shutdown());
    tr.span("device.pump_all", 0, |_| collector.pump_all());
    tr.span("device.flush_state", 0, |_| collector.flush_state());
    let wall = t0.elapsed();

    let mut phase = Phase::default();
    let mut order = Vec::new();
    let longest = uploads.iter().map(|(u, _)| u.sent.len()).max().unwrap_or(0);
    for k in 0..longest {
        order.extend(uploads.iter().filter_map(|(u, _)| u.sent.get(k)));
    }
    let (mut acked, mut lat_ms) = (0u64, Vec::new());
    for (up, ttr) in uploads {
        phase.attempted += up.sent.len() as u64;
        phase.failed += up.failed;
        acked += up.acked_records;
        lat_ms.extend(up.lat_ms);
        for e in up.errors {
            phase.fail(format!("upload not ACKed in full: {e}"));
        }
        tr.absorb(ttr);
    }
    phase.coverage = tr.coverage(start_ns, tr.now_ns());

    // Checks at the protocol and API boundary: the listener saw exactly
    // the ACKed records, and the state directory alone recovers them.
    if phase.failed == 0 && net.batch_packets != acked {
        phase.fail(format!(
            "listener counted {} records, clients had {acked} ACKed",
            net.batch_packets
        ));
    }
    drop(collector);
    let recovered = world::collector(market, dir.path(), SERVE_RESERVOIR, st.seed)?;
    let durable = recovered.stats().admitted;
    if durable != acked {
        phase.fail(format!(
            "WAL recovered {durable} admitted records, {acked} were ACKed"
        ));
    }
    Ok(Session {
        phase,
        acked,
        wall,
        lat_ms,
        order,
    })
}

pub fn run(st: &State, market: &Market, budget: Budget, tr: &mut Tracer) -> Result<Phase, String> {
    let limit = match budget {
        Budget::Unit => return unit_pass(st, market, tr),
        Budget::Seconds(limit) => limit,
    };
    let spacing = limit / SESSIONS;
    let upload_for = Budget::Seconds(spacing.min(SESSION_UPLOAD));
    let mut phase = Phase::default();
    let (mut rates, mut p50s, mut p99s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut acked, mut samples) = (0u64, 0usize);
    let mut rng = StdRng::seed_from_u64(st.seed);
    let t0 = Instant::now();
    for k in 0..SESSIONS {
        let start = rng.random_range(0..st.batches.len() as u64) as usize;
        if let Some(wait) = (spacing * k).checked_sub(t0.elapsed()) {
            std::thread::sleep(wait);
        }
        let mut s = session(st, market, start, upload_for, tr)?;
        phase.attempted += s.phase.attempted;
        phase.failed += s.phase.failed;
        for f in s.phase.failures {
            phase.fail(format!("session {k}: {f}"));
        }
        acked += s.acked;
        samples += s.lat_ms.len();
        rates.push(s.acked as f64 / s.wall.as_secs_f64());
        p50s.push(median(&mut s.lat_ms));
        p99s.push(percentile(&mut s.lat_ms, 0.99));
    }
    phase.ops_per_s = median(&mut rates);
    phase.p50_ms = median(&mut p50s);
    phase.p99_ms = median(&mut p99s);
    phase.samples = samples;
    phase.report.push(("records_acked", acked.to_string()));
    phase
        .report
        .push(("connections", phase.attempted.to_string()));
    Ok(phase)
}

/// The traced run's unit: one session over one pass of the training
/// half, then (when tracing) its in-process replay.
fn unit_pass(st: &State, market: &Market, tr: &mut Tracer) -> Result<Phase, String> {
    let mut s = session(st, market, 0, Budget::Unit, tr)?;
    let mut phase = s.phase;
    phase.ops_per_s = s.acked as f64 / s.wall.as_secs_f64();
    phase.p50_ms = median(&mut s.lat_ms);
    phase.p99_ms = percentile(&mut s.lat_ms, 0.99);
    phase.samples = s.lat_ms.len();
    if tr.on() {
        let (layers, replay) = replay(st, market, &s.order, s.wall)?;
        phase.layers = layers;
        phase.traces.push(("collect-replay".to_string(), replay));
    }
    Ok(phase)
}

/// The traced attribution of `collect`: replay the batches the timed
/// phase sent, in process and on one thread, through `ingest_raw`,
/// `pump_all` and `flush_state` into a fresh `WalStore`. Each record is
/// also parsed and classified on its own, so `ingest_raw`'s admission
/// cost is its span minus those two.
fn replay(
    st: &State,
    market: &Market,
    order: &[usize],
    tcp_wall: Duration,
) -> Result<(Vec<Metric>, Tracer), String> {
    let dir = ScratchDir::new("replay");
    let collector = world::collector(market, dir.path(), SERVE_RESERVOIR, st.seed)?;
    let check = market.check();
    let limits = ParseLimits::intake();
    let mut tr = Tracer::new(true);
    let mut records = 0u64;
    for (k, &idx) in order.iter().enumerate() {
        for r in &st.batches[idx] {
            let op = records;
            records += 1;
            let packet = tr
                .span("http.parse", op, |_| {
                    parse_request_limited(&r.raw, r.ip, r.port, &limits)
                })
                .map_err(|e| format!("replayed record {op} does not parse: {e:?}"))?;
            tr.span("core.payload", op, |_| {
                black_box(check.is_suspicious(&packet))
            });
            let outcome = tr.span("device.ingest_raw", op, |_| {
                collector.ingest_raw(&r.raw, r.ip, r.port)
            });
            if !matches!(outcome, IngestOutcome::Admitted { .. }) {
                return Err(format!("replayed record {op} not admitted: {outcome:?}"));
            }
        }
        tr.span("device.pump_all", k as u64, |_| collector.pump_all());
    }
    tr.span("device.flush_state", 0, |_| collector.flush_state());

    let pump = tr.total("device.pump_all");
    let flush = tr.total("device.flush_state");
    let in_process = tr.total("device.ingest_raw") + pump + flush;
    let mut parse = tr.durations_us("http.parse");
    let mut payload = tr.durations_us("core.payload");
    let mut admit: Vec<f64> = tr
        .durations_us("device.ingest_raw")
        .iter()
        .zip(parse.iter().zip(&payload))
        .map(|(ingest, (p, c))| ingest - p - c)
        .collect();
    let layers = vec![
        metric(
            "net.frontier_share",
            1.0 - in_process.as_secs_f64() / tcp_wall.as_secs_f64(),
            "ratio",
        ),
        metric("http.parse_us.p50", median(&mut parse), "us"),
        metric("http.parse_us.p99", percentile(&mut parse, 0.99), "us"),
        metric("core.payload_us.p50", median(&mut payload), "us"),
        metric("device.admit_us.p50", median(&mut admit), "us"),
        metric("device.admit_us.p99", percentile(&mut admit, 0.99), "us"),
        metric("device.pump_ms", ms(pump), "ms"),
        metric("device.flush_ms", ms(flush), "ms"),
        metric(
            "device.wal_bytes_per_record",
            dir.bytes() as f64 / records.max(1) as f64,
            "B",
        ),
    ];
    Ok((layers, tr))
}
